"""Multipath channel with multiplicative oscillator phase noise and AWGN.

The received signal is y(n) = p(n) * sum_l h(l) x(n-l) * exp(j 2 pi cfo n/fs)
+ w(n) with p(n) = exp(j theta(n)), |p(n)| = 1. theta(n) models the combined
TX+RX oscillator phase trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import signal


class PhaseNoiseModel(Enum):
    FILTERED_GAUSSIAN = "filtered_gaussian"
    RANDOM_WALK = "random_walk"
    NONE = "none"


# Shaping-filter corner sits at bandwidth_hz / PN_CORNER_RATIO so that
# bandwidth_hz bounds the band holding essentially all theta power, not the
# half-power point. The filter is third-order: a first-order shape leaves
# enough spectral tail near the subcarrier spacing to defeat pilot-band
# phase tracking regardless of corner placement.
PN_CORNER_RATIO = 16.0
PN_FILTER_ORDER = 3


@dataclass(frozen=True)
class PhaseNoiseConfig:
    sigma: float = 0.26
    bandwidth_hz: float = 1.0e6
    model: PhaseNoiseModel = PhaseNoiseModel.FILTERED_GAUSSIAN


@functools.lru_cache(maxsize=64)
def _shaping_filter(bandwidth_hz: float, sample_rate_hz: float):
    """Phase-noise shaping filter design: (sos, n_settle, impulse energy).

    Depends only on the band, not on sigma, so every frame of a run shares
    one design. The sos array stays writable because sosfilt requires it;
    callers must not modify it.
    """
    corner_hz = bandwidth_hz / PN_CORNER_RATIO
    sos = signal.butter(PN_FILTER_ORDER, corner_hz, fs=sample_rate_hz, output="sos")
    poles = np.concatenate([np.roots(section[3:6]) for section in sos])
    slowest = min(max(np.abs(poles)), 1.0 - 1e-12)
    # Long enough for the impulse response energy sum and for the warmup in
    # PhaseNoiseProcess to converge; capped for pathologically slow corners.
    n_settle = int(min(max(np.ceil(-12.0 / np.log(slowest)), 64), 2 ** 22))
    impulse = np.zeros(n_settle)
    impulse[0] = 1.0
    energy = float(np.sum(signal.sosfilt(sos, impulse) ** 2))
    return sos, n_settle, energy


class PhaseNoiseProcess:
    """Stateful theta(n) generator.

    Same seed and the same sequence of draws reproduce the same trajectory;
    generating n then m samples equals generating n+m at once.
    """

    def __init__(self, config: PhaseNoiseConfig, sample_rate_hz: float, seed,
                 symbol_len: int = 80):
        if config.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if config.model is not PhaseNoiseModel.NONE:
            if not 0.0 < config.bandwidth_hz < sample_rate_hz / 2:
                raise ValueError(
                    f"bandwidth_hz must be in (0, sample_rate/2), got {config.bandwidth_hz}"
                )
        if symbol_len < 1:
            raise ValueError("symbol_len must be >= 1")
        self.config = config
        self.sample_rate_hz = sample_rate_hz
        self._rng = np.random.default_rng(seed)
        if config.model is PhaseNoiseModel.FILTERED_GAUSSIAN:
            self._sos, n_settle, energy = _shaping_filter(config.bandwidth_hz,
                                                          sample_rate_hz)
            self._drive_std = config.sigma / np.sqrt(energy)
            # Stationary start: run the filter over a discarded warmup block.
            _, self._zi = signal.sosfilt(
                self._sos,
                self._drive_std * self._rng.standard_normal(n_settle),
                zi=np.zeros((self._sos.shape[0], 2)),
            )
        elif config.model is PhaseNoiseModel.RANDOM_WALK:
            self._step = config.sigma / np.sqrt(symbol_len)
            self._level = 0.0

    def generate(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        cfg = self.config
        if cfg.model is PhaseNoiseModel.NONE or n == 0:
            return np.zeros(n)
        if cfg.model is PhaseNoiseModel.FILTERED_GAUSSIAN:
            drive = self._drive_std * self._rng.standard_normal(n)
            theta, self._zi = signal.sosfilt(self._sos, drive, zi=self._zi)
            return theta
        steps = self._step * self._rng.standard_normal(n)
        # Folding the carried level into the cumsum keeps chunked generation
        # bit-identical to one-shot generation.
        theta = np.cumsum(np.concatenate(([self._level], steps)))[1:]
        self._level = theta[-1]
        return theta


@dataclass(frozen=True)
class ChannelConfig:
    """Channel taps are normalized to unit energy on construction."""

    taps: tuple = (1.0 + 0.0j,)
    snr_db: float = 35.0  # math.inf disables noise
    phase_noise: PhaseNoiseConfig = PhaseNoiseConfig()
    cfo_hz: float = 0.0
    seed: int = 0
    sample_rate_hz: float = 25.0e6

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        energy = np.sum(np.abs(taps) ** 2)
        if energy == 0:
            raise ValueError("taps must carry energy")
        object.__setattr__(self, "taps", tuple(taps / np.sqrt(energy)))
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")


def _stream_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream,))


def apply_channel(x, cfg: ChannelConfig):
    """Run samples through taps, CFO, phase noise, and AWGN.

    Returns (y, theta) where theta is the ground-truth phase trajectory, for
    tracking oracles. Pure function of (x, cfg): the seed fixes both the
    noise and the phase draw. SNR is defined over the buffer as post-multipath,
    pre-phase-noise signal power over per-sample noise power.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty 1-D buffer")
    h = np.asarray(cfg.taps, dtype=complex)
    s = np.convolve(x, h)[: x.size] if h.size > 1 else x * h[0]
    if cfg.cfo_hz:
        n = np.arange(x.size)
        s = s * np.exp(2j * np.pi * cfg.cfo_hz * n / cfg.sample_rate_hz)

    process = PhaseNoiseProcess(cfg.phase_noise, cfg.sample_rate_hz, _stream_seed(cfg.seed, 0))
    theta = process.generate(x.size)
    y = s * np.exp(1j * theta)

    if math.isfinite(cfg.snr_db):
        signal_power = np.mean(np.abs(s) ** 2)
        noise_var = signal_power * 10.0 ** (-cfg.snr_db / 10.0)
        rng = np.random.default_rng(_stream_seed(cfg.seed, 1))
        w = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        )
        y = y + w
    return y, theta


def single_tone_probe(freq_hz: float, n_samples: int, cfg: ChannelConfig):
    """Send exp(j 2 pi f n / fs) through the channel; returns (y, theta)."""
    if abs(freq_hz) >= cfg.sample_rate_hz / 2:
        raise ValueError(f"tone at {freq_hz} Hz aliases at fs={cfg.sample_rate_hz}")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    n = np.arange(n_samples)
    x = np.exp(2j * np.pi * freq_hz * n / cfg.sample_rate_hz)
    return apply_channel(x, cfg)
