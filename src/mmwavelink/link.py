"""Frame engine shared by the CLI and the packet layer: transmit, channel and
decode for a stack of frames at once."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, apply_channel, seed_states, seeded_generators
from .modulation import Modulation, evm_db_from_powers
from .ofdm import (N_PREAMBLE_SYMBOLS, OfdmConfig, build_frames, frame_capacity_bits,
                   symbol_bodies)
from .pnc import estimate_phase
from .receiver import DecodeReport, decode_frames

# Frames per run_frames call in the loops over whole runs. Sixteen spread the
# per-call Python dispatch thin; larger chunks ran no faster and hold more
# memory at once.
CHUNK_FRAMES = 16


def derived_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer key parts: the first uint64 word
    of np.random.SeedSequence(parts)'s state."""
    return int(seed_states([parts], 1)[0, 0])


@dataclass
class FrameStack:
    """Consecutive frames of a run, sent and decoded together; every array is
    indexed by frame first."""
    report: DecodeReport
    tx_bits: np.ndarray            # (F, capacity), each frame's bits zero-padded
    theta_true_bodies: np.ndarray  # (F, S * n_fft) ground truth aligned with theta_est
    samples_per_frame: int
    # () -> the estimator run on the received payload bodies, (F, S, n_fft):
    # theta_est's oracle with PNC off, made only when first read.
    _oracle: object = field(repr=False)

    @functools.cached_property
    def theta_est(self) -> np.ndarray:   # (F, S * n_fft), the PNC track or the oracle
        phase = self._oracle() if self.report.phase is None else self.report.phase
        return phase.reshape(len(phase), -1)


def _payload_bodies(x, cfg: OfdmConfig) -> np.ndarray:
    """(..., n_payload_symbols, n_fft) view of frame buffers (..., n), preamble dropped."""
    return symbol_bodies(x, cfg)[..., N_PREAMBLE_SYMBOLS:, :]


def run_frames(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
               channel_cfg: ChannelConfig, pnc_enabled: bool, n_payload_symbols: int,
               run_seed: int, first_frame: int = 0) -> FrameStack:
    """Frames first_frame .. first_frame + F - 1 of a run, built, sent and
    decoded together as (F, symbols, n_fft) stacks.

    `bits[f]` is the payload of frame first_frame + f, whose channel draws
    use a seed derived from (run_seed, first_frame + f), so row f equals
    run_frames on that frame in a stack of one, bit for bit.
    """
    frames = range(first_frame, first_frame + len(bits))
    seeds = seed_states([(run_seed, i, 0) for i in frames], 1)[:, 0].tolist()
    symbols, padded = build_frames(bits, modulation, ofdm_cfg, n_payload_symbols)
    y, theta = apply_channel(symbols.reshape(len(seeds), -1), channel_cfg, seeds)
    del symbols   # not needed past the channel; frees the chunk's largest buffer
    return FrameStack(
        report=decode_frames(y, ofdm_cfg, modulation, pnc_enabled), tx_bits=padded,
        theta_true_bodies=_payload_bodies(theta, ofdm_cfg).reshape(len(seeds), -1),
        samples_per_frame=y.shape[1],
        _oracle=lambda: estimate_phase(_payload_bodies(y, ofdm_cfg), ofdm_cfg).per_sample_phase)


def run_frame(modulation: Modulation, ofdm_cfg: OfdmConfig, channel_cfg: ChannelConfig,
              pnc_enabled: bool, n_payload_symbols: int, run_seed: int,
              frames: range) -> FrameStack:
    """Frames `frames` of a run whose frame i carries frame_bits_rng(run_seed, i)
    bits, drawn here and run as one stack by run_frames."""
    capacity = frame_capacity_bits(ofdm_cfg, modulation, n_payload_symbols)
    bits = [rng.integers(0, 2, capacity, dtype=np.uint8)
            for rng in seeded_generators([(run_seed, i, 1) for i in frames])]
    return run_frames(bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled,
                      n_payload_symbols, run_seed, frames.start)


def run_seeded_frames(modulation: Modulation, ofdm_cfg: OfdmConfig,
                      channel_cfg: ChannelConfig, pnc_enabled: bool,
                      n_payload_symbols: int, run_seed: int, n_frames: int):
    """Yield run_frame's FrameStacks of frames 0 .. n_frames - 1 of a run,
    CHUNK_FRAMES frames at a time."""
    for start in range(0, n_frames, CHUNK_FRAMES):
        yield run_frame(modulation, ofdm_cfg, channel_cfg, pnc_enabled, n_payload_symbols,
                        run_seed, range(start, min(start + CHUNK_FRAMES, n_frames)))


def frame_bits_rng(run_seed: int, frame_idx: int) -> np.random.Generator:
    """np.random.default_rng(np.random.SeedSequence([run_seed, frame_idx, 1]))."""
    return seeded_generators([(run_seed, frame_idx, 1)])[0]


def aggregate_evm_db(error_power, reference_power) -> float | None:
    """RMS (linear-domain) EVM over frames from their (F,) power sums, each
    added left to right, as np.cumsum does on every Python (sum() of floats
    is compensated from Python 3.12); None without any decided points."""
    if not len(error_power):
        return None
    return evm_db_from_powers(np.cumsum(error_power)[-1], np.cumsum(reference_power)[-1])
