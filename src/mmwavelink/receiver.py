"""Least-squares channel estimation, zero-forcing equalization, frame decode."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import (Modulation, evm_db_from_powers, indices_to_bits, map_bits,
                         slice_indices)
from .ofdm import N_PREAMBLE_SYMBOLS, OfdmConfig, SubcarrierPlan, training_bins
from .metrics import wrap_phase
from .pnc import estimate_phase, cancel

# Bins with |H| below this fraction of the strongest estimate are erased
# rather than divided.
ERASURE_RATIO = 1e-6


@dataclass
class ChannelEstimate:
    """H(k) over the used band, ordered by signed subcarrier -u .. +u.

    For a stack of frames, h_freq is (..., 2u+1) and noise_floor_est an
    array of the leading shape."""

    h_freq: np.ndarray
    noise_floor_est: float | np.ndarray
    plan: SubcarrierPlan


@dataclass
class DecodeReport:
    """A decoded stack of F frames, every field indexed by frame first."""

    bits: np.ndarray                # (F, capacity)
    evm_db: np.ndarray              # (F,)
    residual_phase_std: np.ndarray  # (F,)
    per_symbol_evm: np.ndarray      # (F, n_payload_symbols)
    n_erased: np.ndarray            # (F,)
    # Linear-domain sums behind evm_db, (F,) each, for aggregation across frames.
    error_power: np.ndarray
    reference_power: np.ndarray
    points: np.ndarray              # (F, n_payload_symbols, n_payload)
    erased: np.ndarray              # shaped as points: bins zeroed instead of divided
    phase: np.ndarray | None        # (F, n_payload_symbols, n_fft) PNC phase; None if off


def _signed_indices(plan: SubcarrierPlan) -> np.ndarray:
    return np.arange(-plan.used_band, plan.used_band + 1)


def estimate_channel_ls(preamble_bins, training, plan: SubcarrierPlan) -> ChannelEstimate:
    """Average Y(k)/T(k) over the preamble repeats on the used band.

    `preamble_bins` is (2, n_fft) for one frame or (..., 2, n_fft) for a
    stack, each frame estimated on its own. Guard bins carry no training
    energy; their H is interpolated linearly between the surrounding
    estimates. The spread between repeats gives a per-bin noise variance
    estimate (zero for identical repeats).
    """
    preamble_bins = np.asarray(preamble_bins, dtype=complex)
    training = np.asarray(training, dtype=complex)
    if preamble_bins.ndim < 2 or preamble_bins.shape[-2:] != (N_PREAMBLE_SYMBOLS, plan.n_fft):
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

    ratios = np.take(preamble_bins, fft_idx[known], axis=-1) / t_used[known]
    h_known = ratios.mean(axis=-2)
    h_freq = np.empty((*h_known.shape[:-1], signed.size), dtype=complex)
    h_freq[..., known] = h_known
    if not known.all():
        rows_in, rows_out = h_known.reshape(-1, h_known.shape[-1]), h_freq.reshape(-1, signed.size)
        for h_in, h_out in zip(rows_in, rows_out):
            h_out[~known] = np.interp(signed[~known], signed[known], h_in.real) \
                + 1j * np.interp(signed[~known], signed[known], h_in.imag)

    diff = ratios[..., 0, :] - ratios[..., 1, :]
    noise_floor = np.mean(np.abs(diff) ** 2, axis=-1) / 2.0
    return ChannelEstimate(h_freq=h_freq, noise_floor_est=noise_floor.item()
                           if noise_floor.ndim == 0 else noise_floor, plan=plan)


def equalize(symbol_bins, est: ChannelEstimate):
    """Zero-forcing division on the payload bins.

    `symbol_bins` is one symbol (n_fft,) or a stack (..., n_fft), and
    `est.h_freq` broadcasts against its leading axes: (2u+1,) serves every
    symbol, (F, 1, 2u+1) one estimate per frame of an (F, S, n_fft) stack.
    Returns (payload_symbols, erased), both shaped (..., n_payload), where
    erased marks bins whose |H| fell below ERASURE_RATIO times the largest
    |H| of their estimate; those symbols are zeroed, not divided.
    """
    symbol_bins = np.asarray(symbol_bins, dtype=complex)
    plan = est.plan
    if symbol_bins.ndim < 1 or symbol_bins.shape[-1] != plan.n_fft:
        raise ValueError(f"expected {plan.n_fft} bins, got shape {symbol_bins.shape}")
    payload_idx = np.asarray(plan.payload_indices)
    signed = np.where(payload_idx <= plan.n_fft // 2, payload_idx, payload_idx - plan.n_fft)
    h_pay = est.h_freq[..., signed + plan.used_band]
    eps = ERASURE_RATIO * np.max(np.abs(est.h_freq), axis=-1, keepdims=True)
    erased = np.abs(h_pay) < eps
    # np.take keeps the stack C-contiguous, unlike x[..., idx], so sums over
    # the last axis of what derives from z run in row order.
    z = np.where(erased, 0.0 + 0.0j,
                 np.take(symbol_bins, payload_idx, axis=-1) / np.where(erased, 1.0, h_pay))
    return z, np.broadcast_to(erased, z.shape).copy()


def _power_sums(points, reference, erased):
    """Per-frame sums of |points - reference|^2 and |reference|^2 over the
    points not erased, and per-symbol means of the former, for a stack
    (F, S, n_payload).

    Points are C-contiguous (see equalize), and a sum over a contiguous last
    axis is bit-identical to the sum of that row alone. A frame with erased
    bins is summed through its mask instead, as one 1-D array in row order,
    and its symbols' means likewise.
    """
    err2 = np.abs(points - reference) ** 2
    sums = [t.reshape(len(t), -1).sum(axis=-1) for t in (err2, np.abs(reference) ** 2)]
    symbol_means = err2.mean(axis=-1)
    for f in np.flatnonzero(erased.reshape(len(erased), -1).any(axis=-1)):
        ok = ~erased[f]
        sums[0][f] = err2[f][ok].sum()
        sums[1][f] = (np.abs(reference[f][ok]) ** 2).sum()
        symbol_means[f] = [row[m].mean() if m.any() else 0.0 for row, m in zip(err2[f], ok)]
    return sums[0], sums[1], symbol_means


def _frame_evm_db(error, reference, erased):
    """Each frame's EVM dB from its power sums: means over its decided
    points; a frame with none has error 0 over 1."""
    n_ok = np.maximum(np.prod(erased.shape[1:]) - erased.reshape(len(erased), -1).sum(axis=-1), 1)
    ref_mean = np.where(reference > 0, reference / n_ok, 1.0)
    return evm_db_from_powers(error / n_ok, ref_mean), ref_mean


def genie_evm_db(points, tx_bits, erased, modulation: Modulation) -> np.ndarray:
    """EVM dB of each frame of a decoded stack against its transmitted bits.

    `points` and `erased` are (F, n_payload_symbols, n_payload), as a
    DecodeReport's points and erased mask; `tx_bits` is (F, capacity), each
    frame's bits zero-padded to capacity. The sums are those of the
    decision-directed EVM, referenced to the mapped bits instead of the
    decisions, each frame over its own row.
    """
    reference = map_bits(np.asarray(tx_bits).reshape(-1), modulation).reshape(points.shape)
    error, reference_power, _ = _power_sums(points, reference, erased)
    return _frame_evm_db(error, reference_power, erased)[0]


def decode_frames(samples, cfg: OfdmConfig, modulation: Modulation,
                  pnc_enabled: bool = True):
    """Decode a stack of frames (F, n_symbols * symbol_len) in one pass.

    Each frame is decoded on its own, as [2 training symbols | payload
    symbols]: PNC, FFT, LS estimate, zero-forcing and slicing run once over
    the (F, n_symbols, n_fft) stack, and every per-frame sum is taken over
    that frame's row. Returns one DecodeReport for the stack.

    EVM is decision-directed against the demapped constellation points,
    referenced to the mean decided-point power of the whole frame, so the
    frame EVM equals the RMS (linear-domain) combination of per_symbol_evm.
    residual_phase_std is the spread of the raw pilot-bin phase across
    symbols, taken about its circular mean.
    """
    samples = np.asarray(samples, dtype=complex)
    sym_len = cfg.symbol_len
    if samples.ndim != 2 or samples.shape[1] % sym_len:
        raise ValueError(f"frame length must be a multiple of {sym_len}")
    n_frames = samples.shape[0]
    n_symbols = samples.shape[1] // sym_len
    if n_symbols < N_PREAMBLE_SYMBOLS:
        raise ValueError("frame shorter than the preamble")
    plan = cfg.plan

    bodies = samples.reshape(n_frames, n_symbols, sym_len)[..., cfg.cp_len:]
    phase = None
    if pnc_enabled:
        phase_est = estimate_phase(bodies, cfg)
        bodies = cancel(bodies, phase_est)
        phase = phase_est.per_sample_phase[:, N_PREAMBLE_SYMBOLS:]
    all_bins = np.fft.fft(bodies, norm="ortho", axis=-1)

    pilot_phase = np.angle(all_bins[..., plan.pilot_index] / cfg.pilot_value)
    center = np.angle(np.mean(np.exp(1j * pilot_phase), axis=-1))
    centered = wrap_phase(pilot_phase - center[:, None])
    residual_phase_std = np.sqrt(np.mean(centered ** 2, axis=-1))

    est = estimate_channel_ls(all_bins[:, :N_PREAMBLE_SYMBOLS], training_bins(cfg), plan)
    est.h_freq = est.h_freq[:, None, :]
    points, erased = equalize(all_bins[:, N_PREAMBLE_SYMBOLS:], est)
    del all_bins, bodies   # a chunk's largest arrays; nothing below reads them

    idx = slice_indices(points, modulation)
    idx[erased] = 0
    bits = indices_to_bits(idx, modulation).reshape(n_frames, -1)
    error, reference, symbol_error = _power_sums(points, modulation.constellation[idx], erased)
    frame_evm, ref_mean = _frame_evm_db(error, reference, erased)
    return DecodeReport(bits=bits, evm_db=frame_evm, residual_phase_std=residual_phase_std,
                        per_symbol_evm=evm_db_from_powers(symbol_error, ref_mean[:, None]),
                        n_erased=erased.reshape(n_frames, -1).sum(axis=-1),
                        error_power=error, reference_power=reference, points=points,
                        erased=erased, phase=phase)
