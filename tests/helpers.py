"""Helpers shared by the test modules."""

import numpy as np

from mmwavelink import apply_channel


def channel_row(x, cfg):
    """apply_channel on the one buffer x, drawn with cfg.seed: (y, theta)."""
    y, theta = apply_channel(np.asarray(x, dtype=complex)[None], cfg, [cfg.seed])
    return y[0], theta[0]


def band_power_fraction(est, band_hz: float) -> float:
    """Fraction of a PsdEstimate's total power at |f| <= band_hz."""
    linear = 10.0 ** (est.power_db / 10.0)
    in_band = np.abs(est.freqs_hz) <= band_hz
    return float(np.sum(linear[in_band]) / np.sum(linear))
