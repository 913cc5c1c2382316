"""Multipath channel with multiplicative oscillator phase noise and AWGN.

The received signal is y(n) = p(n) * sum_l h(l) x(n-l) * exp(j 2 pi cfo n/fs)
+ w(n) with p(n) = exp(j theta(n)), |p(n)| = 1. theta(n) models the combined
TX+RX oscillator phase trajectory.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
# numpy loads these on first use; every run calls both, so they load with the
# package and not inside the first frame's time.
import numpy.fft
import numpy.random
import scipy


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


def _load_scipy_extension(name: str):
    """scipy's compiled module `name`, loaded from its file to skip the package inits above it.

    The path follows scipy's private file layout (checked on scipy 1.17.1); if
    the file is missing, the module is imported by name, which gives the same
    functions.
    """
    *packages, leaf = name.split(".")[1:]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(os.path.dirname(scipy.__file__), *packages, leaf + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


_sosfilt = _load_scipy_extension("scipy.signal._sosfilt")._sosfilt


def _poly(roots) -> np.ndarray:
    """scipy.signal's poly: the monic polynomial of roots, real for conjugate pairs."""
    roots = np.asarray(roots)
    a = np.ones(1, roots.dtype)
    for root in roots:
        a = np.convolve(a, np.stack((np.ones_like(root), -root)))
    conjugate = a.dtype.kind == "c" and np.all(np.sort(roots.imag) == np.sort(roots.conj().imag))
    return a.real.copy() if conjugate else a


def _butter_sos(corner_hz: float, sample_rate_hz: float) -> np.ndarray:
    """signal.butter(3, corner_hz, fs=sample_rate_hz, output="sos") bit for bit
    below fs/32, in scipy's operations; a corner of 0 gives a zero gain. The
    zeros (0, -1) pair with the conjugate pair or, once _cplxreal counts it real
    (corners below about 6e-14 fs), the two largest poles; (-1, -1) take the rest."""
    warped = float(4.0 * np.tan(np.pi * (np.float64(corner_hz) / (sample_rate_hz / 2)) / 2.0))
    s = warped * -np.exp(1j * np.pi * np.arange(-2.0, 3.0, 2.0) / 6)   # buttap, lp2lp_zpk
    p = (4.0 + s) / (4.0 - s)   # bilinear_zpk
    if abs(p[0].imag) > 100 * np.finfo(float).eps * abs(p[0]):
        pair = (p[0] + p[2].conj()) / 2
        nearest, last = [pair, pair.conj()], np.array([p[1].real, 0.0], complex)
    else:
        real = np.sort(p.real)
        nearest, last = real[[2, 1]], np.array([real[0], 0.0])
    gain = warped ** 3 * (1.0 / np.prod(4.0 - s)).real
    return np.array([np.concatenate((_poly([-1.0, -1.0]) * gain, _poly(last))),
                     np.concatenate((_poly([0.0, -1.0]), _poly(nearest)))])


@dataclass(frozen=True)
class PhaseNoiseConfig:
    sigma: float = 0.26
    bandwidth_hz: float = 1.0e6
    model: PhaseNoiseModel = PhaseNoiseModel.FILTERED_GAUSSIAN


@functools.lru_cache(maxsize=64)
def _shaping_filter(bandwidth_hz: float, sample_rate_hz: float):
    """Phase-noise shaping filter design: (sos, n_settle, impulse energy).

    Depends only on the band, not on sigma, so every frame of a run shares
    one design. The sos array stays writable because _sosfilt requires it;
    callers must not modify it.
    """
    sos = _butter_sos(bandwidth_hz / PN_CORNER_RATIO, sample_rate_hz)
    poles = np.concatenate([np.roots(section[3:6]) for section in sos])
    slowest = min(max(np.abs(poles)), 1.0 - 1e-12)
    # Long enough for the impulse response energy sum and for the warmup in
    # PhaseNoiseProcess to converge; capped for pathologically slow corners.
    n_settle = int(min(max(np.ceil(-12.0 / np.log(slowest)), 64), 2 ** 22))
    impulse = np.eye(1, n_settle)
    _sosfilt(sos, impulse, np.zeros((1, len(sos), 2)))
    energy = float(np.sum(impulse[0] ** 2))
    return sos, n_settle, energy


# Far above any oscillator's sigma, and far enough below overflow for every
# band _check_phase_noise accepts: the filtered drive is sigma / sqrt(energy),
# and an impulse energy near 2e-322, the least that does not underflow, puts
# its tails near 1e262. At the default band, a sigma of 1e307 overflows.
MAX_PN_SIGMA = 1e100


def _check_phase_noise(config: PhaseNoiseConfig, sample_rate_hz: float) -> None:
    if not 0.0 <= config.sigma <= MAX_PN_SIGMA:
        raise ValueError(f"sigma must be in [0, {MAX_PN_SIGMA:g}], got {config.sigma}")
    if config.model is not PhaseNoiseModel.NONE and \
            not 0.0 < config.bandwidth_hz < sample_rate_hz / 2:
        raise ValueError(f"bandwidth_hz must be in (0, sample_rate/2), got {config.bandwidth_hz}")
    # PhaseNoiseProcess scales its drive by 1/sqrt(energy).
    if config.model is PhaseNoiseModel.FILTERED_GAUSSIAN and \
            not _shaping_filter(config.bandwidth_hz, sample_rate_hz)[2] > 0.0:
        raise ValueError(f"bandwidth_hz={config.bandwidth_hz} is too narrow for "
                         f"sample_rate_hz={sample_rate_hz}: the shaping filter's "
                         "impulse response energy underflows to 0")


# The random walk's sigma is its increment std over this many samples: one
# symbol at the default PHY (n_fft 64 + cp_len 16), whatever PHY runs.
RANDOM_WALK_SPAN = 80


class PhaseNoiseProcess:
    """Stateful theta(n) generator for a stack of rows, row f drawn with seeds[f].

    Each row has its own generator and filter state, so row f equals that row
    generated alone, and generating n then m samples equals generating n+m at
    once, bit for bit.
    """

    def __init__(self, config: PhaseNoiseConfig, sample_rate_hz: float, seeds):
        _check_phase_noise(config, sample_rate_hz)
        self.config = config
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        if config.model is PhaseNoiseModel.FILTERED_GAUSSIAN:
            self._sos, settle, energy = _shaping_filter(config.bandwidth_hz, sample_rate_hz)
            self._drive_std = config.sigma / np.sqrt(energy)
            # Stationary start: a discarded warm-up of settle samples, drawn
            # and filtered in column blocks so that it holds one block at a time.
            self._zi = np.zeros((len(self._rngs), len(self._sos), 2))
            for a, b in sample_blocks(settle):
                self.generate(b - a)
        elif config.model is PhaseNoiseModel.RANDOM_WALK:
            self._step = config.sigma / np.sqrt(RANDOM_WALK_SPAN)
            self._level = np.zeros((len(self._rngs), 1))

    def generate(self, n: int) -> np.ndarray:
        """The next n samples of every row, (rows, n)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rows = len(self._rngs)
        if self.config.model is PhaseNoiseModel.NONE or n == 0 or rows == 0:
            return np.zeros((rows, n))
        if self.config.model is PhaseNoiseModel.RANDOM_WALK:
            walk = np.empty((rows, n + 1))
            walk[:, :1] = self._level
            for rng, row in zip(self._rngs, walk):
                rng.standard_normal(out=row[1:])
            walk[:, 1:] *= self._step
            # Folding the carried level into the cumsum keeps chunked
            # generation bit-identical to one-shot generation.
            np.cumsum(walk, axis=1, out=walk)
            self._level = walk[:, -1:].copy()
            return walk[:, 1:]
        drive = np.empty((rows, n))
        for rng, row in zip(self._rngs, drive):
            rng.standard_normal(out=row)
        drive *= self._drive_std
        # Filters each row on its own, in place, and keeps its final state.
        _sosfilt(self._sos, drive, self._zi)
        return drive


@dataclass(frozen=True)
class ChannelConfig:
    """Channel taps are normalized to unit energy on construction."""

    taps: tuple = (1.0 + 0.0j,)
    snr_db: float = 35.0  # math.inf disables noise
    phase_noise: PhaseNoiseConfig = PhaseNoiseConfig()
    cfo_hz: float = 0.0
    sample_rate_hz: float = 25.0e6

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        with np.errstate(over="ignore"):   # an overflow is rejected just below
            energy = np.sum(np.abs(taps) ** 2)
        # An energy that overflows would normalize the taps to zeros.
        if not 0 < energy < math.inf:
            raise ValueError(f"taps must carry finite, nonzero energy, got {energy}")
        object.__setattr__(self, "taps", tuple(taps / np.sqrt(energy)))
        try:   # the noise power _impairment scales by
            noise_power = 10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            noise_power = math.inf
        if not math.isfinite(noise_power):
            raise ValueError(f"snr_db={self.snr_db} gives a noise power that is not finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        _check_tone(self.cfo_hz, self.sample_rate_hz, "cfo_hz")
        _check_phase_noise(self.phase_noise, self.sample_rate_hz)


def _stream_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream,))


# Long buffers run through the channel in blocks of this many samples, so a
# long probe's temporaries are 256 KiB complex blocks, not full-length
# buffers. A buffer of two or more blocks folds its tail into the last block,
# so every block holds at least SAMPLE_BLOCK samples.
SAMPLE_BLOCK = 1 << 14


def sample_blocks(n: int) -> list:
    """[start, stop) ranges that cover n samples in blocks of SAMPLE_BLOCK."""
    if n < 2 * SAMPLE_BLOCK:
        return [(0, n)]
    starts = list(range(0, n // SAMPLE_BLOCK * SAMPLE_BLOCK, SAMPLE_BLOCK))
    return list(zip(starts, starts[1:] + [n]))


def apply_channel(x, cfg: ChannelConfig, seeds):
    """Run a stack of frames (F, n) through taps, CFO, phase noise, and AWGN.

    Row f is drawn with seeds[f], exactly as that row alone with seed
    seeds[f]. Returns (y, theta), shaped like x, where theta is the
    ground-truth phase trajectory, for tracking oracles. Pure
    function of (x, cfg, seeds): the seed fixes both the noise and the phase
    draw. SNR is defined over each row as post-multipath, pre-phase-noise
    signal power over per-sample noise power. Every block's taps and CFO
    go into y first (_transmit), so that each row's mean |y|^2 is measured
    before any block is impaired (_impairment).
    """
    x = np.asarray(x, dtype=complex)
    seeds = list(seeds)
    if x.ndim != 2 or x.shape[1] == 0 or len(seeds) != x.shape[0]:
        raise ValueError("input must be a non-empty (F, n) stack with one seed per row")
    y = np.empty(x.shape, dtype=complex)
    blocks = sample_blocks(x.shape[1])
    for a, b in blocks:
        _transmit(x[:, max(a - len(cfg.taps) + 1, 0):b], a, b, cfg, y[:, a:b])
    power = mean_power = None
    if math.isfinite(cfg.snr_db):
        # |y|^2, then the AWGN's real parts. np.mean's sum and division without its
        # per-call overhead; a sum over a contiguous row equals that row's sum alone.
        power = np.abs(y)
        np.square(power, out=power)
        mean_power = power.sum(axis=-1) / x.shape[1]
    impair = _impairment(cfg, seeds, mean_power, power)
    theta = [impair(y[:, a:b], a, b) for a, b in blocks]
    return y, theta[0] if len(theta) == 1 else np.concatenate(theta, axis=1)


def phasor(theta, sign: int = 1) -> np.ndarray:
    """exp(sign * 1j * theta) for sign = ±1, as cos and sin of sign * theta."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.multiply(theta, sign, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def tone(freq_hz: float, a: int, b: int, sample_rate_hz: float) -> np.ndarray:
    """exp(2j pi freq_hz n / sample_rate_hz) for n in [a, b)."""
    return phasor(np.arange(a, b) * (2 * np.pi * freq_hz / sample_rate_hz))


def _transmit(x, a, b, cfg: ChannelConfig, out) -> None:
    """Write the taps and CFO of block [a, b) into out, (F, b - a), from x, every row's
    input samples [b - x.shape[1], b): the block and up to L - 1 before it for L taps."""
    h = np.asarray(cfg.taps, dtype=complex)
    lo = b - x.shape[1]
    if h.size > 1:
        for row, s in zip(x, out):
            s[:] = np.convolve(row, h)[a - lo:b - lo]
    else:
        np.multiply(x, h[0], out=out)
    if cfg.cfo_hz:
        out *= tone(cfg.cfo_hz, a, b, cfg.sample_rate_hz)


def _impairment(cfg: ChannelConfig, seeds, mean_power, power):
    """Phase noise and AWGN for an (F, n) stack, row f drawn with seeds[f].

    Draws every row's AWGN real parts into the float (F, n) buffer power, all
    before any imaginary part, scaled to the SNR over mean_power (F,); a
    noiseless channel uses neither. Returns impair(s, a, b) -> theta, which
    rotates block [a, b) of the received samples s in place by its phase noise
    theta and adds its AWGN; blocks come in order, and power[:, a:b] is free
    once it returns. Both run once over a block of all rows as elementwise
    ufuncs in a fixed operand order, so each row's bytes equal the
    whole-buffer expressions on that row alone.
    """
    process = PhaseNoiseProcess(cfg.phase_noise, cfg.sample_rate_hz,
                                [_stream_seed(seed, 0) for seed in seeds])
    rngs = [np.random.default_rng(_stream_seed(seed, 1)) for seed in seeds]
    noisy = math.isfinite(cfg.snr_db)
    if noisy:
        scale = np.sqrt(mean_power * 10.0 ** (-cfg.snr_db / 10.0) / 2.0)[:, None]
        for rng, row in zip(rngs, power):
            rng.standard_normal(out=row)

    def impair(s, a, b):
        theta = process.generate(b - a)
        buf = phasor(theta)
        s *= buf
        if noisy:
            imag = np.empty(s.shape)
            for rng, row in zip(rngs, imag):
                rng.standard_normal(out=row)
            # scale * (real + 1j * imag), added to the rotated samples.
            np.add(power[:, a:b], np.multiply(1j, imag, out=buf), out=buf)
            np.add(s, np.multiply(scale, buf, out=buf), out=s)
        return theta

    return impair


def _check_tone(freq_hz: float, sample_rate_hz: float, name: str = "tone") -> None:
    """Reject a frequency at or beyond fs/2 (the probe tone or the CFO)."""
    if not abs(freq_hz) < sample_rate_hz / 2:
        raise ValueError(f"{name} at {freq_hz} Hz aliases at fs={sample_rate_hz}")


def _tone_power(freq_hz: float, n_samples: int, cfg: ChannelConfig) -> float:
    """Mean of |s(n)|^2 = |sum_{l <= min(n, L-1)} h_l e^{-j w l}|^2 over n < n_samples, any CFO."""
    h = np.asarray(cfg.taps[:n_samples], dtype=complex)
    partial = np.square(np.abs(np.cumsum(h * tone(-freq_hz, 0, h.size, cfg.sample_rate_hz))))
    return (partial.sum() + (n_samples - h.size) * partial[-1]) / n_samples


def single_tone_probe(freq_hz: float, n_samples: int, cfg: ChannelConfig, seed) -> np.ndarray:
    """Send exp(j 2 pi f n / fs) through the channel; returns its phase.

    The phase is np.unwrap(np.angle(y * np.conjugate(t))) less its mean, bit
    for bit, where t = tone(f, 0, n_samples, fs) and y = apply_channel(t[None],
    cfg, [seed])[0][0] with _tone_power as its SNR's signal power, so a
    constant channel rotation does not bias it. Only the phase is held at
    full length, and it first holds the noise's real parts. Each tone block
    is made once, transmitted into one reused work buffer, impaired and
    mixed down.
    """
    _check_tone(freq_hz, cfg.sample_rate_hz)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples == 0:
        return np.zeros(0)

    fs = cfg.sample_rate_hz
    blocks = sample_blocks(n_samples)
    # Every block's received samples, in one buffer as long as the last, longest block.
    work = np.empty((1, blocks[-1][1] - blocks[-1][0]), dtype=complex)
    phase, prev, carry = np.empty(n_samples), None, 0.0
    impair = _impairment(cfg, [seed], np.array([_tone_power(freq_hz, n_samples, cfg)]),
                         phase[None])
    for a, b in blocks:
        lo = max(a - len(cfg.taps) + 1, 0)
        x, y = tone(freq_hz, lo, b, fs)[None], work[:, :b - a]
        _transmit(x, a, b, cfg, y)
        impair(y, a, b)
        y *= np.conjugate(x[:, a - lo:])
        wrapped = np.angle(y[0])
        # np.unwrap's formula (period 2 pi) at the jumps only, as its correction
        # is 0 wherever |dd| < pi; the running sum of corrections carries across blocks.
        dd = np.diff(wrapped, prepend=wrapped[0] if prev is None else prev)
        dd = dd[jumps := np.flatnonzero(~(abs(dd) < np.pi))]
        correction = carry
        if jumps.size:
            ddmod = np.mod(dd - -np.pi, 2 * np.pi) + -np.pi
            np.copyto(ddmod, np.pi, where=(ddmod == -np.pi) & (dd > 0))
            correction = np.zeros(b - a)
            correction[jumps] = ddmod - dd
            correction[0] += carry
            carry = np.cumsum(correction, out=correction)[-1]
        np.add(wrapped, correction, out=phase[a:b])
        if prev is None:
            phase[0] = wrapped[0]  # kept as is, -0.0 included
        prev = wrapped[-1]
    phase -= phase.mean()
    return phase
