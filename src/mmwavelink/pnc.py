"""Pilot and guard-band phase noise estimation and cancellation.

Oscillator phase noise multiplies the time-domain signal, so its spectrum
convolves every subcarrier. Because the payload stays clear of the pilot's
guard band, the bins around DC carry the pilot smeared by the low-frequency
phase process and nothing else: keeping those bins and transforming back
recovers the phase trajectory itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import phasor
from .ofdm import OfdmConfig

DEGENERATE_EPS = 1e-9


@dataclass
class PhaseEstimate:
    """Per-sample phase in (-pi, pi], shaped like the input bodies, and the
    count of degenerate samples."""

    per_sample_phase: np.ndarray
    degenerate_samples: int


def estimate_phase(body, cfg: OfdmConfig) -> PhaseEstimate:
    """Estimate exp(j theta(n)) over CP-stripped symbol bodies.

    `body` is one symbol (n_fft,) or a stack (..., n_fft); each row is
    estimated on its own. FFT -> keep the pilot bin and the +-k_guard bins
    around it -> IFFT. Samples whose magnitude falls below DEGENERATE_EPS
    hold the previous phase of their own row (0 for a degenerate row start)
    and are counted over the whole stack.
    """
    body = np.asarray(body, dtype=complex)
    plan = cfg.plan
    n = plan.n_fft
    if body.ndim < 1 or body.shape[-1] != n:
        raise ValueError(f"expected {n}-sample bodies, got shape {body.shape}")
    bins = np.fft.fft(body, norm="ortho", axis=-1)
    keep = np.zeros(n, dtype=bool)
    keep[plan.pilot_index] = True
    keep[list(plan.guard_indices)] = True
    bins[..., ~keep] = 0.0
    raw = np.fft.ifft(bins, norm="ortho", axis=-1)

    degenerate = np.abs(raw) < DEGENERATE_EPS
    phase = np.angle(raw)
    phase[phase == -np.pi] = np.pi
    if degenerate.any():
        last_valid = np.where(~degenerate, np.arange(n), -1)
        np.maximum.accumulate(last_valid, axis=-1, out=last_valid)
        held = np.take_along_axis(phase, np.maximum(last_valid, 0), axis=-1)
        phase = np.where(last_valid >= 0, held, 0.0)
    return PhaseEstimate(per_sample_phase=phase, degenerate_samples=int(degenerate.sum()))


def cancel(samples, estimate: PhaseEstimate) -> np.ndarray:
    """Counter-rotate samples by the estimated phase; magnitudes are kept.

    Works on one body or a stack, matching the estimate's shape. The
    rotation is named so that each sample is computed as sample * rotation
    at any stack size: numpy would otherwise reuse a large temporary and
    multiply in the other order, which rounds differently.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != estimate.per_sample_phase.shape:
        raise ValueError("samples and estimate shapes differ")
    rotation = phasor(estimate.per_sample_phase, -1)
    return samples * rotation

