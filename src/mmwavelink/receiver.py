"""Least-squares channel estimation, zero-forcing equalization, frame decode."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import (Modulation, evm_db_from_powers, indices_to_bits, map_bits,
                         slice_indices)
from .ofdm import (N_PREAMBLE_SYMBOLS, PILOT_INDEX, PILOT_VALUE, OfdmConfig, symbol_bodies,
                   training_bins)
from .metrics import wrap_phase
from .pnc import estimate_phase, cancel

# Bins with |H| below this fraction of the strongest estimate are erased
# rather than divided.
ERASURE_RATIO = 1e-6


@dataclass
class ChannelEstimate:
    """H(k) over the used band, ordered by signed subcarrier -u .. +u.

    h_freq is (..., 2u+1) and noise_floor_est an array of the leading shape."""

    h_freq: np.ndarray
    noise_floor_est: np.ndarray
    cfg: OfdmConfig


@dataclass
class DecodeReport:
    """A decoded stack of F frames, every field indexed by frame first."""

    bits: np.ndarray                # (F, capacity)
    evm_db: np.ndarray              # (F,)
    residual_phase_std: np.ndarray  # (F,)
    n_erased: np.ndarray            # (F,)
    # Linear-domain sums behind evm_db, (F,) each, for aggregation across frames.
    error_power: np.ndarray
    reference_power: np.ndarray
    points: np.ndarray              # (F, n_payload_symbols, n_payload)
    erased: np.ndarray              # shaped as points: bins zeroed instead of divided
    phase: np.ndarray | None        # (F, n_payload_symbols, n_fft) PNC phase; None if off


def estimate_channel_ls(preamble_bins, training, cfg: OfdmConfig) -> ChannelEstimate:
    """Average Y(k)/T(k) over the preamble repeats on the used band.

    `preamble_bins` is a stack (..., 2, n_fft), each frame estimated on its
    own. Guard bins carry no training energy; their H is interpolated
    linearly between the surrounding estimates. The spread between repeats
    gives a per-bin noise variance estimate (zero for identical repeats).
    """
    preamble_bins = np.asarray(preamble_bins, dtype=complex)
    training = np.asarray(training, dtype=complex)
    if preamble_bins.ndim < 2 or preamble_bins.shape[-2:] != (N_PREAMBLE_SYMBOLS, cfg.n_fft):
        raise ValueError(
            f"expected {N_PREAMBLE_SYMBOLS}x{cfg.n_fft} preamble bins, "
            f"got {preamble_bins.shape}"
        )
    if training.shape != (cfg.n_fft,):
        raise ValueError("training shape mismatch")
    if not (np.abs(training[np.append(cfg.payload_indices, PILOT_INDEX)]) > 0.0).all():
        raise ValueError("zero-magnitude training on a pilot or payload bin")

    band = cfg.band_indices
    t_used = training[band]
    known = np.abs(t_used) > 0.0
    ratios = np.take(preamble_bins, band[known], axis=-1) / t_used[known]
    h_known = ratios.mean(axis=-2)
    h_freq = np.empty((*h_known.shape[:-1], band.size), dtype=complex)
    h_freq[..., known] = h_known
    if h_known.size and not known.all():   # an empty stack has no gap to fill
        # One np.interp per part over every row, row r's places offset by
        # r * band.size. The band's edges are payload, so each gap lies inside
        # its own row's interval, and the integer offsets leave each
        # interval's differences, and so its bytes, as in a per-row call.
        gaps = np.flatnonzero(~known)
        offsets = band.size * np.arange(h_known[..., 0].size)[:, None]
        x, xp = (gaps + offsets).ravel(), (np.flatnonzero(known) + offsets).ravel()
        fill = [np.interp(x, xp, part.ravel()) for part in (h_known.real, h_known.imag)]
        h_freq[..., gaps] = (fill[0] + 1j * fill[1]).reshape(*h_known.shape[:-1], gaps.size)

    diff = ratios[..., 0, :] - ratios[..., 1, :]
    noise_floor = np.mean(np.abs(diff) ** 2, axis=-1) / 2.0
    return ChannelEstimate(h_freq=h_freq, noise_floor_est=noise_floor, cfg=cfg)


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
    cfg = est.cfg
    if symbol_bins.ndim < 1 or symbol_bins.shape[-1] != cfg.n_fft:
        raise ValueError(f"expected {cfg.n_fft} bins, got shape {symbol_bins.shape}")
    h_pay = est.h_freq[..., cfg.payload_positions]
    eps = ERASURE_RATIO * np.max(np.abs(est.h_freq), axis=-1, keepdims=True)
    erased = np.abs(h_pay) < eps
    # np.take keeps the stack C-contiguous, unlike x[..., idx], so sums over
    # the last axis of what derives from z run in row order.
    z = np.where(erased, 0.0 + 0.0j,
                 np.take(symbol_bins, cfg.payload_indices, axis=-1) / np.where(erased, 1.0, h_pay))
    return z, np.broadcast_to(erased, z.shape).copy()


def _power_sums(points, reference, erased):
    """Per-frame sums of |points - reference|^2 and |reference|^2 over the
    points not erased, for a stack (F, S, n_payload).

    Points are C-contiguous (see equalize), and a sum over a contiguous last
    axis is bit-identical to the sum of that row alone. A frame with erased
    bins is summed through its mask instead, as one 1-D array in row order.
    """
    err2 = np.abs(points - reference) ** 2
    sums = [t.reshape(len(t), -1).sum(axis=-1) for t in (err2, np.abs(reference) ** 2)]
    for f in np.flatnonzero(erased.reshape(len(erased), -1).any(axis=-1)):
        ok = ~erased[f]
        sums[0][f] = err2[f][ok].sum()
        sums[1][f] = (np.abs(reference[f][ok]) ** 2).sum()
    return sums[0], sums[1]


def _frame_evm_db(error, reference, erased):
    """Each frame's EVM dB from its power sums: means over its decided
    points; a frame with none has error 0 over 1."""
    n_ok = np.maximum(np.prod(erased.shape[1:]) - erased.reshape(len(erased), -1).sum(axis=-1), 1)
    return evm_db_from_powers(error / n_ok, np.where(reference > 0, reference / n_ok, 1.0))


def genie_evm_db(points, tx_bits, erased, modulation: Modulation) -> np.ndarray:
    """EVM dB of each frame of a decoded stack against its transmitted bits.

    `points` and `erased` are (F, n_payload_symbols, n_payload), as a
    DecodeReport's points and erased mask; `tx_bits` is (F, capacity), each
    frame's bits zero-padded to capacity. The sums are those of the
    decision-directed EVM, referenced to the mapped bits instead of the
    decisions, each frame over its own row.
    """
    reference = map_bits(np.asarray(tx_bits).reshape(-1), modulation).reshape(points.shape)
    return _frame_evm_db(*_power_sums(points, reference, erased), erased)


def decode_frames(samples, cfg: OfdmConfig, modulation: Modulation,
                  pnc_enabled: bool = True):
    """Decode a stack of frames (F, n_symbols * symbol_len) in one pass.

    Each frame is decoded on its own, as [2 training symbols | payload
    symbols]: PNC, FFT, LS estimate, zero-forcing and slicing run once over
    the (F, n_symbols, n_fft) stack, and every per-frame sum is taken over
    that frame's row. Returns one DecodeReport for the stack.

    EVM is decision-directed against the demapped constellation points,
    referenced to the mean decided-point power of the whole frame: the
    error and reference powers are each averaged over the frame's points
    not erased.
    residual_phase_std is the spread of the raw pilot-bin phase across
    symbols, taken about its circular mean.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[1] % cfg.symbol_len:
        raise ValueError(f"frame length must be a multiple of {cfg.symbol_len}")
    n_frames = len(samples)
    bodies = symbol_bodies(samples, cfg)
    if bodies.shape[1] < N_PREAMBLE_SYMBOLS:
        raise ValueError("frame shorter than the preamble")
    phase = None
    if pnc_enabled:
        phase_est = estimate_phase(bodies, cfg)
        bodies = cancel(bodies, phase_est)
        phase = phase_est.per_sample_phase[:, N_PREAMBLE_SYMBOLS:]
    all_bins = np.fft.fft(bodies, norm="ortho", axis=-1)

    # Not a no-op although PILOT_VALUE is 1 + 0j: it turns -1 - 0j into
    # -1 + 0j, whose np.angle is pi, not -pi.
    pilot_phase = np.angle(all_bins[..., PILOT_INDEX] / PILOT_VALUE)
    center = np.angle(np.mean(np.exp(1j * pilot_phase), axis=-1))
    centered = wrap_phase(pilot_phase - center[:, None])
    residual_phase_std = np.sqrt(np.mean(centered ** 2, axis=-1))

    est = estimate_channel_ls(all_bins[:, :N_PREAMBLE_SYMBOLS], training_bins(cfg), cfg)
    est.h_freq = est.h_freq[:, None, :]
    points, erased = equalize(all_bins[:, N_PREAMBLE_SYMBOLS:], est)
    del all_bins, bodies   # a chunk's largest arrays; nothing below reads them

    idx = slice_indices(points, modulation)
    idx[erased] = 0
    bits = indices_to_bits(idx, modulation).reshape(n_frames, -1)
    error, reference = _power_sums(points, modulation.constellation[idx], erased)
    return DecodeReport(bits=bits, evm_db=_frame_evm_db(error, reference, erased),
                        residual_phase_std=residual_phase_std,
                        n_erased=erased.reshape(n_frames, -1).sum(axis=-1),
                        error_power=error, reference_power=reference, points=points,
                        erased=erased, phase=phase)
