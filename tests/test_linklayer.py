import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavelink import linklayer
from mmwavelink import (ChannelConfig, Modulation, OfdmConfig, Packet,
                        PacketStatus, PhaseNoiseConfig, PhaseNoiseModel,
                        depacketize, make_packet, packetize,
                        stream_bytes, verify_packet)
from mmwavelink.linklayer import (MAX_PAYLOAD_LEN, PACKET_OVERHEAD,
                                  decode_packet, encode_packet)

CLEAN_PN = PhaseNoiseConfig(sigma=0.0, model=PhaseNoiseModel.NONE)


def default_cfg():
    return OfdmConfig(64, 3, 26, 16)


def crc32_bitwise(data: bytes) -> int:
    """Reference CRC-32 (reflected, poly 0xEDB88320), bit at a time."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def test_crc32_check_value():
    assert zlib.crc32(b"123456789") == 0xCBF43926
    assert crc32_bitwise(b"123456789") == 0xCBF43926


def test_packet_crc_matches_reference_implementation():
    p = make_packet(7, b"hello world")
    header = (7).to_bytes(4, "big") + (11).to_bytes(2, "big")
    assert p.crc32 == crc32_bitwise(header + b"hello world")
    assert verify_packet(p)


def test_packetize_arithmetic():
    data = bytes(range(256)) * 4  # 1024 bytes
    packets = packetize(data, 128)
    assert len(packets) == 8
    assert all(p.payload_len == 128 for p in packets)
    assert [p.seq for p in packets] == list(range(8))
    packets = packetize(data[:1000], 128)
    assert len(packets) == 8
    assert packets[-1].payload_len == 104
    assert b"".join(p.payload for p in packets) == data[:1000]


def test_packetize_bounds():
    with pytest.raises(ValueError):
        packetize(b"x", 0)
    with pytest.raises(ValueError):
        packetize(b"x", MAX_PAYLOAD_LEN + 1)
    assert packetize(b"", 128) == []


def test_make_packet_bounds():
    with pytest.raises(ValueError):
        make_packet(-1, b"")
    with pytest.raises(ValueError):
        make_packet(2 ** 32, b"")
    with pytest.raises(ValueError):
        make_packet(0, bytes(MAX_PAYLOAD_LEN + 1))


def test_encode_decode_round_trip():
    p = make_packet(123456, b"\x00\xffpayload")
    wire = encode_packet(p)
    assert len(wire) == PACKET_OVERHEAD + 9
    assert decode_packet(wire) == p


def test_decode_too_short_raises():
    with pytest.raises(ValueError):
        decode_packet(b"\x00" * (PACKET_OVERHEAD - 1))


def test_decode_corrupt_length_is_unverifiable():
    p = make_packet(1, b"abcdef")
    wire = bytearray(encode_packet(p))
    wire[4] = 0xFF  # claim a 65xxx-byte payload in a 16-byte buffer
    out = decode_packet(bytes(wire))
    assert not verify_packet(out)
    assert out.payload == b""


def test_every_single_bit_flip_is_detected():
    payload = bytes((7 * i + 3) % 256 for i in range(64))
    wire = encode_packet(make_packet(5, payload))
    assert len(wire) * 8 == 592
    for bit in range(len(wire) * 8):
        corrupted = bytearray(wire)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        assert not verify_packet(decode_packet(bytes(corrupted)))


def test_depacketize_in_order():
    packets = packetize(b"abcdefgh", 3)
    data, statuses = depacketize(packets, 3)
    assert data == b"abcdefgh"
    assert statuses == [(0, PacketStatus.OK), (1, PacketStatus.OK),
                        (2, PacketStatus.OK)]


def test_depacketize_reorders_by_seq():
    packets = packetize(b"abcdef", 2)
    data, statuses = depacketize(packets[::-1], 2)
    assert data == b"abcdef"
    assert [s for _, s in statuses] == [PacketStatus.OK] * 3


def test_depacketize_zero_fills_missing():
    packets = packetize(b"abcdef", 2)
    data, statuses = depacketize([packets[0], packets[2]], 2)
    assert data == b"ab\x00\x00ef"
    assert statuses[1] == (1, PacketStatus.MISSING)


def test_depacketize_flags_crc_failures():
    packets = packetize(b"abcdef", 2)
    bad = Packet(packets[1].seq, packets[1].payload_len, b"XY", packets[1].crc32)
    data, statuses = depacketize([packets[0], bad, packets[2]], 2)
    assert data == b"ab\x00\x00ef"
    assert statuses[1] == (1, PacketStatus.CRC_FAIL)


def test_depacketize_ignores_untrusted_sequence_numbers():
    # A corrupted header claiming a huge seq must not widen the output.
    packets = packetize(b"abcdef", 2)
    bogus = Packet(2 ** 31, 2, b"XY", 0)
    data, statuses = depacketize([packets[0], bogus, packets[2]], 2)
    assert len(statuses) == 3
    assert data == b"ab\x00\x00ef"
    assert statuses[1] == (1, PacketStatus.MISSING)


def test_depacketize_prefers_verified_duplicate():
    packets = packetize(b"abcdef", 2)
    impostor = Packet(1, 2, b"XY", 0)
    data, statuses = depacketize([impostor, packets[0], packets[1], packets[2]], 2)
    assert data[:6] == b"abcdef"
    assert statuses[1] == (1, PacketStatus.OK)
    # Four receptions mean four slots; the surplus duplicate surfaces as a
    # trailing gap rather than silently shrinking the count.
    assert len(statuses) == 4


def test_depacketize_checks_each_packet_once(monkeypatch):
    checked = []
    monkeypatch.setattr(linklayer, "verify_packet",
                        lambda p: checked.append(p) or verify_packet(p))
    packets = packetize(b"abcdef", 2)
    received = [Packet(1, 2, b"XY", 0), *packets, Packet(7, 2, b"ZZ", 0)]
    depacketize(received, 2)
    assert checked == received


# A hit flips one bit or overwrites one byte of one frame: (frame, byte,
# value, flip). Half the hits land in the 10 header and CRC bytes.
HITS = st.lists(st.tuples(st.integers(0, 2**16),
                          st.one_of(st.integers(0, 9), st.integers(0, 2**16)),
                          st.integers(0, 255), st.booleans()), max_size=12)


@settings(max_examples=300, deadline=None)
@given(max_payload=st.integers(1, 32), n_packets=st.integers(1, 4), tail=st.integers(0, 31),
       seed=st.integers(0, 2**32 - 1), hits=HITS)
def test_packets_survive_arbitrary_corruption(max_payload, n_packets, tail, seed, hits):
    # Each packet travels as one frame's bytes, as in stream_bytes: header,
    # payload and CRC, zero-padded to the frame. Few packets, so that hits
    # can reach every full-length one.
    size = (n_packets - 1) * max_payload + 1 + tail % max_payload
    data = np.random.default_rng(seed).bytes(size)
    sent = packetize(data, max_payload)
    capacity = max_payload + PACKET_OVERHEAD
    wires = [bytearray(encode_packet(p).ljust(capacity, b"\0")) for p in sent]
    for frame, at, value, flip in hits:
        wire = wires[frame % len(wires)]
        at = at if at < PACKET_OVERHEAD else at % capacity
        wire[at] = wire[at] ^ (1 << value % 8) if flip else value
    received = [decode_packet(bytes(wire)) for wire in wires]
    recovered, statuses = depacketize(received, max_payload)
    # A packet that verifies is the packet sent in that frame.
    for got, packet in zip(received, sent):
        assert not verify_packet(got) or got == packet
    # Every OK slot holds its packet's payload at the sender's offset.
    for seq, status in statuses:
        if status is PacketStatus.OK:
            start = seq * max_payload
            assert recovered[start:start + len(sent[seq].payload)] == sent[seq].payload


def test_depacketize_empty():
    assert depacketize([], 3) == (b"", [])


def clean_channel():
    return ChannelConfig(taps=(1.0,), snr_db=math.inf, phase_noise=CLEAN_PN)


def test_stream_bytes_clean_channel_identity():
    data = bytes(np.random.default_rng(30).integers(0, 256, 300, dtype=np.uint8))
    recovered, report = stream_bytes(data, default_cfg(), clean_channel())
    assert recovered == data
    assert report.packets_sent == 3
    assert report.packets_ok == 3
    assert report.packets_crc_fail == 0
    assert report.per == 0.0
    assert report.mean_evm_db == -120.0
    assert report.goodput_bits_per_channel_use > 0.0


def test_stream_bytes_deterministic():
    data = bytes(np.random.default_rng(31).integers(0, 256, 500, dtype=np.uint8))
    cfg = default_cfg()
    channel = ChannelConfig()
    out1 = stream_bytes(data, cfg, channel, seed=9)
    out2 = stream_bytes(data, cfg, channel, seed=9)
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]


def test_stream_bytes_checks_each_received_packet_once(monkeypatch):
    # Low-SNR 64-QAM: 18 packets, about half of them failing CRC. The report
    # must count what verifying every received packet again gives, from one
    # check of each.
    received, checked = [], []
    monkeypatch.setattr(linklayer, "decode_packet",
                        lambda wire: received.append(decode_packet(wire)) or received[-1])
    monkeypatch.setattr(linklayer, "verify_packet",
                        lambda p: checked.append(p) or verify_packet(p))
    cfg = OfdmConfig(64, 0, 26, 16)
    channel = ChannelConfig(snr_db=26.0, phase_noise=PhaseNoiseConfig(sigma=0.03))
    data = np.random.default_rng(32).bytes(8000)
    _, report = stream_bytes(data, cfg, channel, Modulation.QAM64, pnc_enabled=False, seed=1)
    assert checked == received
    verified = [p for p in received if verify_packet(p)]
    assert report.packets_crc_fail == len(received) - len(verified) >= 5
    assert report.packets_ok == len(verified) >= 1
    assert report.packets_sent == len(received)
    assert report.per == 1.0 - len(verified) / len(received)
    channel_uses = len(received) * (2 + 12) * cfg.symbol_len
    assert report.goodput_bits_per_channel_use == (
        8 * sum(p.payload_len for p in verified) / channel_uses)


def test_stream_bytes_rejects_tiny_frames():
    cfg = default_cfg()
    with pytest.raises(ValueError):
        stream_bytes(b"data", cfg, clean_channel(), modulation=Modulation.BPSK,
                     n_payload_symbols=1)


def test_stream_bytes_empty_input():
    recovered, report = stream_bytes(b"", default_cfg(), clean_channel())
    assert recovered == b""
    assert report.packets_sent == 0
    assert report.per == 0.0
    assert report.mean_evm_db is None
