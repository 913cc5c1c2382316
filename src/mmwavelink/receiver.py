"""Least-squares channel estimation, zero-forcing equalization, frame decode."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modulation import EVM_FLOOR_DB, Modulation, demap_hard, map_bits
from .ofdm import N_PREAMBLE_SYMBOLS, OfdmConfig, SubcarrierPlan, pad_bits, training_bins
from .metrics import wrap_phase
from .pnc import estimate_phase, cancel

# Bins with |H| below this fraction of the strongest estimate are erased
# rather than divided.
ERASURE_RATIO = 1e-6


@dataclass
class ChannelEstimate:
    """H(k) over the used band, ordered by signed subcarrier -u .. +u."""

    h_freq: np.ndarray
    noise_floor_est: float
    plan: SubcarrierPlan


@dataclass
class DecodeReport:
    bits: np.ndarray
    evm_db: float
    residual_phase_std: float
    per_symbol_evm: list
    evm_db_genie: float | None = None
    n_erased: int = 0
    # Linear-domain sums behind evm_db, for aggregation across frames.
    error_power: float = 0.0
    reference_power: float = 0.0
    points: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))


def _signed_indices(plan: SubcarrierPlan) -> np.ndarray:
    return np.arange(-plan.used_band, plan.used_band + 1)


def estimate_channel_ls(preamble_bins, training, plan: SubcarrierPlan) -> ChannelEstimate:
    """Average Y(k)/T(k) over the preamble repeats on the used band.

    Guard bins carry no training energy; their H is interpolated linearly
    between the surrounding estimates. The spread between repeats gives a
    per-bin noise variance estimate (zero for identical repeats).
    """
    preamble_bins = np.asarray(preamble_bins, dtype=complex)
    training = np.asarray(training, dtype=complex)
    if preamble_bins.shape != (N_PREAMBLE_SYMBOLS, plan.n_fft):
        raise ValueError(
            f"expected {N_PREAMBLE_SYMBOLS}x{plan.n_fft} preamble bins, "
            f"got {preamble_bins.shape}"
        )
    if training.shape != (plan.n_fft,):
        raise ValueError("training shape mismatch")

    signed = _signed_indices(plan)
    fft_idx = np.mod(signed, plan.n_fft)
    t_used = training[fft_idx]
    known = np.abs(t_used) > 0.0
    carried = np.zeros(plan.n_fft, dtype=bool)
    carried[[plan.pilot_index, *plan.payload_indices]] = True
    must_know = carried[fft_idx]
    if not known[must_know].all():
        raise ValueError("zero-magnitude training on a pilot or payload bin")

    ratios = preamble_bins[:, fft_idx[known]] / t_used[known]
    h_known = ratios.mean(axis=0)
    h_freq = np.empty(signed.size, dtype=complex)
    h_freq[known] = h_known
    if not known.all():
        h_freq[~known] = np.interp(signed[~known], signed[known], h_known.real) \
            + 1j * np.interp(signed[~known], signed[known], h_known.imag)

    diff = ratios[0] - ratios[1]
    noise_floor = float(np.mean(np.abs(diff) ** 2) / 2.0)
    return ChannelEstimate(h_freq=h_freq, noise_floor_est=noise_floor, plan=plan)


def equalize(symbol_bins, est: ChannelEstimate):
    """Zero-forcing division on the payload bins.

    `symbol_bins` is one symbol (n_fft,) or a stack (..., n_fft). Returns
    (payload_symbols, erased), both shaped (..., n_payload), where erased
    marks bins whose |H| fell below ERASURE_RATIO * max|H|; those symbols
    are zeroed, not divided.
    """
    symbol_bins = np.asarray(symbol_bins, dtype=complex)
    plan = est.plan
    if symbol_bins.ndim < 1 or symbol_bins.shape[-1] != plan.n_fft:
        raise ValueError(f"expected {plan.n_fft} bins, got shape {symbol_bins.shape}")
    payload_idx = np.asarray(plan.payload_indices)
    signed = np.where(payload_idx <= plan.n_fft // 2, payload_idx, payload_idx - plan.n_fft)
    h_pay = est.h_freq[signed + plan.used_band]
    eps = ERASURE_RATIO * np.max(np.abs(est.h_freq))
    erased = np.abs(h_pay) < eps
    z = np.where(erased, 0.0 + 0.0j,
                 symbol_bins[..., payload_idx] / np.where(erased, 1.0, h_pay))
    return z, np.broadcast_to(erased, z.shape).copy()


def decode_frame(samples, cfg: OfdmConfig, modulation: Modulation,
                 pnc_enabled: bool = True, true_bits=None, return_phase: bool = False):
    """Decode one frame: [2 training symbols | payload symbols].

    Returns a DecodeReport or, with return_phase, (report, phase) where phase
    is the PNC per-sample phase estimate over the payload symbol bodies,
    shaped (n_payload_symbols, n_fft), or None when PNC is off.

    EVM is decision-directed against the demapped constellation points,
    referenced to the mean decided-point power of the whole frame, so the
    frame EVM equals the RMS (linear-domain) combination of per_symbol_evm.
    When the transmitted bits are supplied, a genie-referenced EVM is also
    reported. residual_phase_std is the spread of the raw pilot-bin phase
    across symbols, taken about its circular mean.
    """
    samples = np.asarray(samples, dtype=complex)
    sym_len = cfg.symbol_len
    if samples.ndim != 1 or samples.size % sym_len:
        raise ValueError(f"frame length must be a multiple of {sym_len}")
    n_symbols = samples.size // sym_len
    if n_symbols < N_PREAMBLE_SYMBOLS:
        raise ValueError("frame shorter than the preamble")
    n_payload_symbols = n_symbols - N_PREAMBLE_SYMBOLS
    plan = cfg.plan

    bodies = samples.reshape(n_symbols, sym_len)[:, cfg.cp_len:]
    phase = None
    if pnc_enabled:
        phase_est = estimate_phase(bodies, cfg)
        bodies = cancel(bodies, phase_est)
        phase = phase_est.per_sample_phase[N_PREAMBLE_SYMBOLS:]
    all_bins = np.fft.fft(bodies, norm="ortho", axis=-1)

    est = estimate_channel_ls(all_bins[:N_PREAMBLE_SYMBOLS], training_bins(cfg), plan)

    n_bins = len(plan.payload_indices)
    k = modulation.bits_per_symbol
    points, erased = equalize(all_bins[N_PREAMBLE_SYMBOLS:], est)

    bits = demap_hard(points.ravel(), modulation).reshape(n_payload_symbols, n_bins, k)
    bits[erased] = 0
    decided = map_bits(bits.reshape(-1), modulation).reshape(n_payload_symbols, n_bins)

    ok = ~erased
    ref_power_mean = float(np.mean(np.abs(decided[ok]) ** 2)) if ok.any() else 1.0
    err2 = np.abs(points - decided) ** 2
    per_symbol_evm = []
    for i in range(n_payload_symbols):
        per_symbol_evm.append(_power_db(err2[i][ok[i]].mean() if ok[i].any() else 0.0,
                                        ref_power_mean))
    error_power = float(err2[ok].sum())
    reference_power = float((np.abs(decided[ok]) ** 2).sum()) if ok.any() else 0.0
    total_evm = _power_db(err2[ok].mean() if ok.any() else 0.0, ref_power_mean)

    evm_genie = None
    if true_bits is not None:
        capacity = n_payload_symbols * n_bins * k
        genie = map_bits(pad_bits(true_bits, capacity), modulation).reshape(
            n_payload_symbols, n_bins)
        genie_err2 = np.abs(points - genie) ** 2
        genie_ref = float(np.mean(np.abs(genie[ok]) ** 2)) if ok.any() else 1.0
        evm_genie = _power_db(genie_err2[ok].mean() if ok.any() else 0.0, genie_ref)

    pilot_phase = np.angle(all_bins[:, plan.pilot_index] / cfg.pilot_value)
    center = np.angle(np.mean(np.exp(1j * pilot_phase)))
    centered = wrap_phase(pilot_phase - center)
    residual_phase_std = float(np.sqrt(np.mean(centered ** 2)))

    report = DecodeReport(
        bits=bits.reshape(-1).astype(np.uint8),
        evm_db=total_evm,
        residual_phase_std=residual_phase_std,
        per_symbol_evm=per_symbol_evm,
        evm_db_genie=evm_genie,
        n_erased=int(erased.sum()),
        error_power=error_power,
        reference_power=reference_power,
        points=points.ravel(),
    )
    return (report, phase) if return_phase else report


def _power_db(err_power: float, ref_power: float) -> float:
    if err_power <= 0.0 or ref_power <= 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * float(np.log10(err_power / ref_power)), EVM_FLOOR_DB)
