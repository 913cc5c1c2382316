"""Packet framing with CRC-32 over single-frame PHY bursts."""

from __future__ import annotations

import zlib
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelConfig
from .link import CHUNK_FRAMES, aggregate_evm_db, run_frames
from .modulation import Modulation
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
    if not packets:
        return b"", []
    verified = [p for p in packets if verify_packet(p)]
    # Sequence numbers on packets failing CRC are untrusted: they never widen
    # the reassembly span, only claim a slot inside it.
    n_slots = max(len(packets), max((p.seq + 1 for p in verified), default=0))
    by_seq = {}
    for p in verified:
        by_seq.setdefault(p.seq, p)
    for p in packets:
        if p.seq < n_slots:
            by_seq.setdefault(p.seq, p)
    chunks = []
    statuses = []
    for seq in range(n_slots):
        p = by_seq.get(seq)
        if p is None:
            statuses.append((seq, PacketStatus.MISSING))
            chunks.append(bytes(payload_len))
        elif verify_packet(p):
            statuses.append((seq, PacketStatus.OK))
            chunks.append(p.payload)
        else:
            statuses.append((seq, PacketStatus.CRC_FAIL))
            chunks.append(bytes(payload_len))
    return b"".join(chunks), statuses


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
    frames per run_frames call.

    Deterministic given (configs, seed): frame i uses a seed derived from
    (seed, i), so the chunking does not change any byte. Returns
    (recovered_bytes, StreamReport).
    """
    capacity_bytes = frame_capacity_bits(ofdm_cfg, modulation, n_payload_symbols) // 8
    max_payload = capacity_bytes - PACKET_OVERHEAD
    if max_payload < 1:
        raise ValueError(
            f"frame capacity {capacity_bytes} bytes cannot fit a packet "
            f"(overhead {PACKET_OVERHEAD})"
        )
    max_payload = min(max_payload, MAX_PAYLOAD_LEN)

    packets = packetize(data, max_payload) if data else []
    received = []
    powers = np.empty((2, len(packets)))   # each frame's error and reference power
    channel_uses = 0
    for start in range(0, len(packets), CHUNK_FRAMES):
        chunk = packets[start:start + CHUNK_FRAMES]
        tx_bits = [np.unpackbits(np.frombuffer(encode_packet(p), dtype=np.uint8)) for p in chunk]
        stack = run_frames(tx_bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled,
                           n_payload_symbols, seed, start)
        report = stack.report
        rx_bytes = np.packbits(report.bits[:, :capacity_bytes * 8], axis=-1)
        received.extend(decode_packet(row.tobytes()) for row in rx_bytes)
        powers[:, start:start + len(chunk)] = report.error_power, report.reference_power
        channel_uses += len(chunk) * stack.samples_per_frame
        del stack, report   # frees the chunk's arrays before the next chunk runs

    recovered, statuses = depacketize(received, max_payload)
    # Counted over what was received, not over reassembly slots: a packet
    # whose corrupted header claims a far-off seq still failed CRC here.
    verified = [p for p in received if verify_packet(p)]
    ok = len(verified)
    crc_fail = len(received) - ok
    ok_bits = 8 * sum(p.payload_len for p in verified)
    report = StreamReport(
        packets_sent=len(packets),
        packets_ok=ok,
        packets_crc_fail=crc_fail,
        per=1.0 - ok / len(packets) if packets else 0.0,
        goodput_bits_per_channel_use=ok_bits / channel_uses if channel_uses else 0.0,
        mean_evm_db=aggregate_evm_db(*powers),
    )
    return recovered, report
