"""Packet framing with CRC-32 over single-frame PHY bursts."""

from __future__ import annotations

import zlib
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelConfig
from .link import _add_powers, _chunks, map_chunks, run_frames
from .modulation import Modulation, evm_db_from_powers
from .ofdm import OfdmConfig, frame_capacity_bits

_HEADER = struct.Struct(">IH")   # seq: u32, payload_len: u16
_TRAILER = struct.Struct(">I")   # crc32 over header + payload
PACKET_OVERHEAD = _HEADER.size + _TRAILER.size
MAX_SEQ = 0xFFFFFFFF
MAX_PAYLOAD_LEN = 0xFFFF


class PacketStatus(Enum):
    OK = "ok"
    CRC_FAIL = "crc_fail"
    MISSING = "missing"


@dataclass(frozen=True)
class Packet:
    seq: int
    payload_len: int
    payload: bytes
    crc32: int


def _crc(seq: int, payload_len: int, payload: bytes) -> int:
    return zlib.crc32(_HEADER.pack(seq, payload_len) + payload)


def make_packet(seq: int, payload: bytes) -> Packet:
    if not 0 <= seq <= MAX_SEQ:
        raise ValueError("seq out of u32 range")
    if len(payload) > MAX_PAYLOAD_LEN:
        raise ValueError("payload too long for u16 length field")
    return Packet(seq, len(payload), bytes(payload), _crc(seq, len(payload), bytes(payload)))


def verify_packet(packet: Packet) -> bool:
    return (packet.payload_len == len(packet.payload)
            and packet.crc32 == _crc(packet.seq, packet.payload_len, packet.payload))


def encode_packet(packet: Packet) -> bytes:
    return (_HEADER.pack(packet.seq, packet.payload_len) + packet.payload
            + _TRAILER.pack(packet.crc32))


def decode_packet(wire: bytes) -> Packet:
    """Parse a packet from the head of a buffer without verifying the CRC.

    A corrupted length field that points past the buffer yields a packet that
    cannot verify (empty payload, crc 0) rather than an exception.
    """
    if len(wire) < PACKET_OVERHEAD:
        raise ValueError(f"buffer shorter than packet overhead ({PACKET_OVERHEAD} bytes)")
    seq, payload_len = _HEADER.unpack_from(wire)
    end = _HEADER.size + payload_len
    if end + _TRAILER.size > len(wire):
        return Packet(seq, payload_len, b"", 0)
    payload = bytes(wire[_HEADER.size:end])
    (crc,) = _TRAILER.unpack_from(wire, end)
    return Packet(seq, payload_len, payload, crc)


def packetize(data: bytes, max_payload: int) -> list:
    """Split bytes into sequenced packets; the last one may run short."""
    if not 1 <= max_payload <= MAX_PAYLOAD_LEN:
        raise ValueError(f"max_payload must be in [1, {MAX_PAYLOAD_LEN}]")
    data = bytes(data)
    return [
        make_packet(seq, data[off:off + max_payload])
        for seq, off in enumerate(range(0, len(data), max_payload))
    ]


def depacketize(packets, payload_len: int) -> tuple:
    """Reassemble bytes and per-seq statuses from received packets.

    Sequence gaps and packets failing CRC both zero-fill with payload_len,
    the sender's payload per packet: a corrupted length field is as
    untrusted as a lost packet's size, and uniform fill keeps later bytes
    at their original offsets. Returns (data, [(seq, PacketStatus)]).
    """
    # Each packet is checked once; those that pass come first, in order.
    checked = sorted(((p, verify_packet(p)) for p in packets), key=lambda c: not c[1])
    # Sequence numbers on packets failing CRC are untrusted: they never widen
    # the reassembly span, only claim a slot inside it.
    n_slots = max(len(packets), max((p.seq + 1 for p, ok in checked if ok), default=0))
    by_seq = {}
    for p, ok in checked:
        if p.seq < n_slots:
            by_seq.setdefault(p.seq, (p, ok))
    chunks = []
    statuses = []
    for seq in range(n_slots):
        p, ok = by_seq.get(seq, (None, False))
        status = PacketStatus.MISSING if p is None else (
            PacketStatus.OK if ok else PacketStatus.CRC_FAIL)
        statuses.append((seq, status))
        chunks.append(p.payload if ok else bytes(payload_len))
    return b"".join(chunks), statuses


def frame_payload_bytes(ofdm_cfg: OfdmConfig, modulation: Modulation,
                        n_payload_symbols: int) -> int:
    """A frame's packet payload bytes: its whole bytes less PACKET_OVERHEAD, at
    most MAX_PAYLOAD_LEN. Raises ValueError if no packet fits."""
    capacity = frame_capacity_bits(ofdm_cfg, modulation, n_payload_symbols) // 8
    if capacity <= PACKET_OVERHEAD:
        raise ValueError(f"stream needs a frame of more than {PACKET_OVERHEAD} bytes for a "
                         f"packet's header and CRC, got {capacity}")
    return min(capacity - PACKET_OVERHEAD, MAX_PAYLOAD_LEN)


@dataclass(frozen=True)
class StreamReport:
    packets_sent: int
    packets_ok: int
    packets_crc_fail: int
    per: float
    goodput_bits_per_channel_use: float
    mean_evm_db: float | None


def stream_bytes(data: bytes, ofdm_cfg: OfdmConfig, channel_cfg: ChannelConfig,
                 modulation: Modulation = Modulation.QPSK, pnc_enabled: bool = True,
                 seed: int = 0, n_payload_symbols: int = 12) -> tuple:
    """Stream bytes over the link, one packet per PHY frame, CHUNK_FRAMES
    frames per run_frames call, in this process.

    Deterministic given (configs, seed): frame i uses a seed derived from
    (seed, i), so the chunking does not change any byte. Returns
    (recovered_bytes, StreamReport).

    Each received packet is checked once, by depacketize: packets_ok counts
    its OK slots and every other received packet fails CRC, so of two that
    verify with the same seq (a CRC-32 collision) only the one placed is OK.
    """
    return _stream_bytes(data, ofdm_cfg, channel_cfg, modulation, pnc_enabled, seed,
                         n_payload_symbols, fork=False)


def _stream_bytes(data: bytes, ofdm_cfg: OfdmConfig, channel_cfg: ChannelConfig,
                  modulation: Modulation, pnc_enabled: bool, seed: int,
                  n_payload_symbols: int, fork: bool) -> tuple:
    """stream_bytes, its chunks run by link.map_chunks, which may fork, if
    fork is true (the CLI's stream)."""
    max_payload = frame_payload_bytes(ofdm_cfg, modulation, n_payload_symbols)

    packets = packetize(data, max_payload) if data else []
    chunks = _chunks(len(packets))

    def chunk(c: int) -> tuple:
        """Chunk c's received packet bytes, (F, whole bytes), its frames'
        error and reference powers, and its channel uses."""
        frames = chunks[c]
        sent = packets[frames.start:frames.stop]
        tx_bits = [np.unpackbits(np.frombuffer(encode_packet(p), dtype=np.uint8)) for p in sent]
        stack = run_frames(tx_bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled,
                           n_payload_symbols, seed, frames.start)
        report = stack.report
        return (np.packbits(report.bits[:, :report.bits.shape[1] // 8 * 8], axis=-1),
                report.error_power, report.reference_power, len(sent) * stack.samples_per_frame)

    received = []
    powers = np.zeros(2)   # the frames' error and reference powers, added up
    channel_uses = 0
    results = (map_chunks(chunk, len(chunks)) if fork else map(chunk, range(len(chunks))))
    for rx_bytes, error, reference, uses in results:
        received.extend(decode_packet(row.tobytes()) for row in rx_bytes)
        _add_powers(powers, error, reference)
        channel_uses += uses

    recovered, statuses = depacketize(received, max_payload)
    ok = sum(status is PacketStatus.OK for _, status in statuses)
    # Every slot but an OK one holds max_payload zero bytes.
    ok_bits = 8 * (len(recovered) - max_payload * (len(statuses) - ok))
    report = StreamReport(
        packets_sent=len(packets),
        packets_ok=ok,
        packets_crc_fail=len(received) - ok,
        per=1.0 - ok / len(packets) if packets else 0.0,
        goodput_bits_per_channel_use=ok_bits / channel_uses if channel_uses else 0.0,
        mean_evm_db=evm_db_from_powers(*powers),
    )
    return recovered, report
