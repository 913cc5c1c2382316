"""Single-frame end-to-end pipeline shared by the CLI and the packet layer."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, apply_channel
from .modulation import EVM_FLOOR_DB, Modulation
from .ofdm import N_PREAMBLE_SYMBOLS, OfdmConfig, build_frame
from .pnc import estimate_phase
from .receiver import DecodeReport, decode_frame


def derived_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer key parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass
class FrameResult:
    report: DecodeReport
    tx_bits: np.ndarray
    n_channel_uses: int
    theta_true: np.ndarray      # ground truth over the whole frame buffer
    theta_est: np.ndarray       # estimator output over payload symbol bodies
    theta_true_bodies: np.ndarray  # ground truth aligned with theta_est


def _payload_bodies(x, cfg: OfdmConfig) -> np.ndarray:
    """(n_payload_symbols, n_fft) view of a frame buffer: preamble rows and
    cyclic prefixes dropped."""
    return x.reshape(-1, cfg.symbol_len)[N_PREAMBLE_SYMBOLS:, cfg.cp_len:]


def run_frame(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
              channel_cfg: ChannelConfig, pnc_enabled: bool,
              n_payload_symbols: int) -> FrameResult:
    """Transmit one frame of bits through the channel and decode it."""
    frame = build_frame(bits, modulation, ofdm_cfg, n_payload_symbols)
    tx = frame.samples()
    y, theta = apply_channel(tx, channel_cfg)
    report, theta_est = decode_frame(y, ofdm_cfg, modulation, pnc_enabled,
                                     true_bits=frame.payload_bits, return_phase=True)
    if theta_est is None:
        theta_est = estimate_phase(_payload_bodies(y, ofdm_cfg), ofdm_cfg).per_sample_phase
    return FrameResult(
        report=report,
        tx_bits=frame.payload_bits,
        n_channel_uses=tx.size,
        theta_true=theta,
        theta_est=theta_est.ravel(),
        theta_true_bodies=_payload_bodies(theta, ofdm_cfg).ravel(),
    )


def frame_channel_cfg(channel_cfg: ChannelConfig, run_seed: int, frame_idx: int) -> ChannelConfig:
    """Per-frame channel config with an independent derived seed."""
    return replace(channel_cfg, seed=derived_seed(run_seed, frame_idx, 0))


def frame_bits_rng(run_seed: int, frame_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([run_seed, frame_idx, 1]))


def evm_db_from_powers(error_power: float, reference_power: float) -> float | None:
    """EVM in dB from accumulated error and reference powers."""
    if reference_power <= 0.0:
        return None
    if error_power <= 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * float(np.log10(error_power / reference_power)), EVM_FLOOR_DB)


def aggregate_evm_db(reports) -> float | None:
    """RMS (linear-domain) EVM over frames; None without any decided points."""
    return evm_db_from_powers(sum(r.error_power for r in reports),
                              sum(r.reference_power for r in reports))
