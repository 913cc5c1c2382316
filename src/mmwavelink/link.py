"""Frame engine shared by the CLI and the packet layer: transmit, channel and
decode for a stack of frames at once."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, apply_channel
from .modulation import Modulation, evm_db_from_powers
from .ofdm import N_PREAMBLE_SYMBOLS, OfdmConfig, build_frames, frame_capacity_bits
from .pnc import estimate_phase
from .receiver import DecodeReport, decode_frames

# Frames per run_frames call in the loops over whole runs. Sixteen spread the
# per-call Python dispatch thin; larger chunks ran no faster and hold more
# memory at once.
CHUNK_FRAMES = 16


def derived_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer key parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass
class FrameResult:
    report: DecodeReport
    tx_bits: np.ndarray
    n_channel_uses: int
    theta_true_bodies: np.ndarray  # ground truth aligned with theta_est
    # () -> the phase estimate over the payload symbol bodies: the PNC track,
    # or with PNC off the estimator run on the received frame as an oracle,
    # made for the whole stack when first read.
    _theta_est: object = field(repr=False)
    theta_est = property(lambda self: self._theta_est())


def _payload_bodies(x, cfg: OfdmConfig) -> np.ndarray:
    """(..., n_payload_symbols, n_fft) view of frame buffers (..., n): preamble
    rows and cyclic prefixes dropped."""
    return x.reshape(*x.shape[:-1], -1, cfg.symbol_len)[..., N_PREAMBLE_SYMBOLS:, cfg.cp_len:]


def _run_stack(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
               channel_cfg: ChannelConfig, seeds, pnc_enabled: bool,
               n_payload_symbols: int) -> list:
    """Frames with channel seeds `seeds`, as (F, symbols, n_fft) stacks."""
    symbols, padded = build_frames(bits, modulation, ofdm_cfg, n_payload_symbols)
    y, theta = apply_channel(symbols.reshape(len(seeds), -1), channel_cfg, seeds)
    del symbols   # not needed past the channel; frees the chunk's largest buffer
    reports, phase = decode_frames(y, ofdm_cfg, modulation, pnc_enabled)
    track = functools.cache(lambda: estimate_phase(_payload_bodies(y, ofdm_cfg), ofdm_cfg)
                            .per_sample_phase if phase is None else phase)
    bodies = _payload_bodies(theta, ofdm_cfg)
    return [FrameResult(report=report, tx_bits=padded[f], n_channel_uses=y.shape[1],
                        theta_true_bodies=bodies[f].ravel(),
                        _theta_est=lambda f=f: track()[f].ravel())
            for f, report in enumerate(reports)]


def run_frames(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
               channel_cfg: ChannelConfig, pnc_enabled: bool, n_payload_symbols: int,
               run_seed: int, first_frame: int = 0) -> list:
    """Frames first_frame .. first_frame + F - 1 of a run, built, sent and
    decoded together as (F, symbols, n_fft) stacks.

    `bits[f]` is the payload of frame first_frame + f. Each frame keeps its
    own channel draw, frame_channel_cfg(channel_cfg, run_seed, i), so its
    FrameResult equals run_frame on that frame alone, bit for bit.
    """
    if not len(bits):
        return []
    frames = range(first_frame, first_frame + len(bits))
    return _run_stack(bits, modulation, ofdm_cfg,
                      frame_channel_cfg(channel_cfg, run_seed, first_frame),
                      [derived_seed(run_seed, i, 0) for i in frames],
                      pnc_enabled, n_payload_symbols)


def run_frame(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
              channel_cfg: ChannelConfig, pnc_enabled: bool,
              n_payload_symbols: int) -> FrameResult:
    """Transmit one frame of bits through the channel, drawn with
    channel_cfg.seed, and decode it: the one-frame view of run_frames."""
    return _run_stack([bits], modulation, ofdm_cfg, channel_cfg, [channel_cfg.seed],
                      pnc_enabled, n_payload_symbols)[0]


def run_seeded_frames(modulation: Modulation, ofdm_cfg: OfdmConfig,
                      channel_cfg: ChannelConfig, pnc_enabled: bool,
                      n_payload_symbols: int, run_seed: int, n_frames: int):
    """Yield the FrameResults of frames 0 .. n_frames - 1 of a run whose frame
    i carries frame_bits_rng(run_seed, i) bits, CHUNK_FRAMES frames at a time."""
    capacity = frame_capacity_bits(ofdm_cfg, modulation, n_payload_symbols)
    for start in range(0, n_frames, CHUNK_FRAMES):
        frames = range(start, min(start + CHUNK_FRAMES, n_frames))
        bits = [frame_bits_rng(run_seed, i).integers(0, 2, capacity, dtype=np.uint8)
                for i in frames]
        yield from run_frames(bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled,
                              n_payload_symbols, run_seed, start)


def frame_channel_cfg(channel_cfg: ChannelConfig, run_seed: int, frame_idx: int) -> ChannelConfig:
    """Per-frame channel config with an independent derived seed."""
    return replace(channel_cfg, seed=derived_seed(run_seed, frame_idx, 0))


def frame_bits_rng(run_seed: int, frame_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([run_seed, frame_idx, 1]))


def aggregate_evm_db(reports) -> float | None:
    """RMS (linear-domain) EVM over frames (any iterable of reports, read once);
    None without any decided points."""
    powers = [(r.error_power, r.reference_power) for r in reports]
    return evm_db_from_powers(sum(p[0] for p in powers), sum(p[1] for p in powers))
