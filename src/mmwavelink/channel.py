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


def _load_sosfilt():
    """scipy's compiled _sosfilt, loaded from its file to skip scipy.signal's package init."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(os.path.dirname(scipy.__file__), "signal", "_sosfilt" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.signal._sosfilt", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module._sosfilt
    from scipy.signal._sosfilt import _sosfilt
    return _sosfilt


_sosfilt = _load_sosfilt()


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


def _check_phase_noise(config: PhaseNoiseConfig, sample_rate_hz: float) -> None:
    if config.sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {config.sigma}")
    if config.model is not PhaseNoiseModel.NONE:
        if not 0.0 < config.bandwidth_hz < sample_rate_hz / 2:
            raise ValueError(
                f"bandwidth_hz must be in (0, sample_rate/2), got {config.bandwidth_hz}"
            )
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
    """Stateful theta(n) generator.

    Same seed and the same sequence of draws reproduce the same trajectory;
    generating n then m samples equals generating n+m at once.
    """

    def __init__(self, config: PhaseNoiseConfig, sample_rate_hz: float, seed):
        _check_phase_noise(config, sample_rate_hz)
        self.config = config
        self._rng = np.random.default_rng(seed)
        if config.model is PhaseNoiseModel.FILTERED_GAUSSIAN:
            self._sos, self._n_settle, energy = _shaping_filter(config.bandwidth_hz,
                                                                sample_rate_hz)
            self._drive_std = config.sigma / np.sqrt(energy)
            # Stationary start: the first draw filters a discarded warmup
            # block of n_settle samples ahead of the requested ones.
            self._zi = None
        elif config.model is PhaseNoiseModel.RANDOM_WALK:
            self._step = config.sigma / np.sqrt(RANDOM_WALK_SPAN)
            self._level = 0.0

    def generate(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        cfg = self.config
        if cfg.model is PhaseNoiseModel.NONE or n == 0:
            return np.zeros(n)
        if cfg.model is PhaseNoiseModel.FILTERED_GAUSSIAN:
            return _filtered_rows([self], n)[0]
        steps = self._step * self._rng.standard_normal(n)
        # Folding the carried level into the cumsum keeps chunked generation
        # bit-identical to one-shot generation.
        theta = np.cumsum(np.concatenate(([self._level], steps)))[1:]
        self._level = theta[-1]
        return theta


def _filtered_rows(processes, n: int) -> np.ndarray:
    """Next n filtered-Gaussian samples of each process, (len(processes), n).

    The processes share one config and are all fresh or all warmed up. Each
    draws from its own generator; one _sosfilt call filters the stack in
    place, warmup included, which is bit-identical to filtering each row, and
    its warmup apart, on its own.
    """
    first = processes[0]
    settle = first._n_settle if first._zi is None else 0
    drive = np.empty((len(processes), settle + n))
    for row, process in zip(drive, processes):
        process._rng.standard_normal(out=row)
    drive *= first._drive_std
    zi = (np.zeros((len(processes), len(first._sos), 2)) if first._zi is None
          else np.stack([p._zi for p in processes]))
    _sosfilt(first._sos, drive, zi)
    for process, state in zip(processes, zi):
        process._zi = state
    # A copy drops the warmup columns of a stack; one row is returned as a view.
    return np.ascontiguousarray(drive[:, settle:])


# Rows filtered per _sosfilt call are capped so that a call holds about this
# many samples, warmup included: a slow shaping filter's warmup runs to
# 2**22 samples per frame.
PN_FILTER_BLOCK_SAMPLES = 1 << 21


def phase_noise_rows(config: PhaseNoiseConfig, sample_rate_hz: float, seeds, n: int):
    """Phase trajectories of len(seeds) frames of n samples, (len(seeds), n).

    Row f equals PhaseNoiseProcess(config, sample_rate_hz, seeds[f]).generate(n)
    bit for bit.
    """
    processes = [PhaseNoiseProcess(config, sample_rate_hz, seed) for seed in seeds]
    if config.model is not PhaseNoiseModel.FILTERED_GAUSSIAN or n == 0 or not processes:
        return np.array([p.generate(n) for p in processes]).reshape(len(processes), n)
    rows = max(1, PN_FILTER_BLOCK_SAMPLES // (processes[0]._n_settle + n))
    blocks = [_filtered_rows(processes[i:i + rows], n) for i in range(0, len(processes), rows)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
        with np.errstate(over="ignore"):   # an overflow is rejected just below
            energy = np.sum(np.abs(taps) ** 2)
        # An energy that overflows would normalize the taps to zeros.
        if not 0 < energy < math.inf:
            raise ValueError(f"taps must carry finite, nonzero energy, got {energy}")
        object.__setattr__(self, "taps", tuple(taps / np.sqrt(energy)))
        try:   # the noise power _channel_blocks scales by
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


# Long buffers run through the channel and the metrics in blocks of this many
# samples. A buffer of two or more blocks folds its tail into the last block,
# so every block holds at least SAMPLE_BLOCK samples: its complex and float
# temporaries (1 MiB and 512 KiB) stay past numpy's 256 KiB threshold for
# reusing temporaries, which keeps the order of complex products, and so the
# bytes, of the whole-buffer expressions.
SAMPLE_BLOCK = 1 << 16


def sample_blocks(n: int) -> list:
    """[start, stop) ranges that cover n samples in blocks of SAMPLE_BLOCK."""
    if n < 2 * SAMPLE_BLOCK:
        return [(0, n)]
    starts = list(range(0, n // SAMPLE_BLOCK * SAMPLE_BLOCK, SAMPLE_BLOCK))
    return list(zip(starts, starts[1:] + [n]))


def apply_channel(x, cfg: ChannelConfig, seeds):
    """Run a stack of frames (F, n) through taps, CFO, phase noise, and AWGN.

    Row f is drawn with seeds[f], exactly as that row alone with seed
    seeds[f]; cfg.seed is not read. Returns (y, theta), shaped like x, where
    theta is the ground-truth phase trajectory, for tracking oracles. Pure
    function of (x, cfg, seeds): the seed fixes both the noise and the phase
    draw. SNR is defined over each row as post-multipath, pre-phase-noise
    signal power over per-sample noise power.
    """
    x = np.asarray(x, dtype=complex)
    seeds = list(seeds)
    if x.ndim != 2 or x.shape[1] == 0 or len(seeds) != x.shape[0]:
        raise ValueError("input must be a non-empty (F, n) stack with one seed per row")
    theta = phase_noise_rows(cfg.phase_noise, cfg.sample_rate_hz,
                             [_stream_seed(seed, 0) for seed in seeds], x.shape[1])
    y = np.empty(x.shape, dtype=complex)
    for _ in _channel_blocks(lambda a, b: x[:, a:b], x.shape, cfg, seeds,
                             lambda a, b: theta[:, a:b], y):
        pass
    return y, theta


def phasor(theta, sign: int = 1) -> np.ndarray:
    """np.exp(sign * 1j * theta) for sign = ±1, bit for bit for finite theta.

    numpy's sign * 1j * theta has a zero real part and the imaginary part
    sign * theta + sign * 0.0, and libm's cexp(±0 + iy) is cos(y) + i sin(y).
    """
    out = np.empty(np.shape(theta), dtype=complex)
    np.add(np.multiply(theta, sign, out=out.imag), sign * 0.0, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def tone(k: complex, a: int, b: int, sample_rate_hz: float) -> np.ndarray:
    """np.exp(k * np.arange(a, b) / sample_rate_hz) for k = ±2j*pi*f, bit for bit.

    numpy's k * n has the zero real part r = k.real - k.imag*0 (n >= 0) and
    imaginary part k.imag*n + k.real*0, which / fs makes (imag - r*0) * (1/fs).
    The zero terms fold into one add, as a sum of zeros is -0 only if every
    term is; * (-1/fs) negates exactly, for phasor's sign -1.
    """
    phase = np.arange(a, b, dtype=float)
    phase *= k.imag
    phase += k.real * 0.0 - (k.real - k.imag * 0.0) * 0.0
    phase *= -1.0 / sample_rate_hz
    return phasor(phase, -1)


def _rotate(s, factor) -> None:
    """s *= factor in place. numpy computes `s * t` as `t * s` when the
    temporary t holds 256 KiB or more, and complex products round
    differently in the two orders, so blocks of 2**14 samples or more take
    `t * s`: each row gets the bytes of `s * factor` on that row alone."""
    if s.shape[-1] >= 1 << 14:
        np.multiply(factor, s, out=s)
    else:
        np.multiply(s, factor, out=s)


def _channel_blocks(samples, shape, cfg: ChannelConfig, seeds, theta, y=None, power=None):
    """Blocks of an (F, n) stack through the channel, row f drawn with seeds[f].

    samples(a, b) returns input samples [a, b) of every row, (F, b - a), and
    theta(a, b) the phase noise of block [a, b), asked for in block order.
    Yields (a, b, x, s) per block in order: its input and its received
    samples. With a complex (F, n) buffer y, pass 1 keeps each block's taps
    and CFO in it for pass 2; without one, pass 2 computes them again, in
    one block buffer that every block reuses, so a yielded block holds its
    samples until the next is asked for.
    A float (F, n) buffer power, or one of its own, holds |s|^2 and then the
    AWGN's real parts. Pass 2 reads power[:, a:b] before it yields block
    [a, b), so the caller may write there from then on.
    Only the draws and the convolution run row by row. The CFO ramp, |s|^2,
    the SNR scale, the rotation and the AWGN add each run once over a block
    of all rows, as ufuncs in a fixed operand order, so that each row's bytes
    equal the whole-buffer expressions on that row alone.
    """
    rngs = [np.random.default_rng(_stream_seed(seed, 1)) for seed in seeds]
    h = np.asarray(cfg.taps, dtype=complex)
    noisy = math.isfinite(cfg.snr_db)
    blocks = sample_blocks(shape[1])
    # The last block is the longest.
    work = None if y is not None else np.empty((shape[0], blocks[-1][1] - blocks[-1][0]),
                                               dtype=complex)

    def transmit(a, b):
        """Input block [a, b) and, in y or the block buffer, its taps and CFO."""
        lo = max(a - (h.size - 1), 0)
        x = samples(lo, b)
        s = y[:, a:b] if y is not None else work[:, :b - a]
        if h.size > 1:
            for row, out in zip(x, s):
                out[:] = np.convolve(row, h)[a - lo:b - lo]
        else:
            np.multiply(x, h[0], out=s)
        if cfg.cfo_hz:
            _rotate(s, tone(2j * np.pi * cfg.cfo_hz, a, b, cfg.sample_rate_hz))
        return x[:, a - lo:], s

    # Pass 1: taps and CFO, and |s|^2 for the SNR power.
    if noisy and power is None:
        power = np.empty(shape)
    if noisy or y is not None:
        for a, b in blocks:
            s = transmit(a, b)[1]
            if noisy:
                np.square(np.abs(s, out=power[:, a:b]), out=power[:, a:b])
    if noisy:
        # np.mean's sum and division, without its per-call overhead; a sum
        # over a contiguous row equals that row's sum alone.
        noise_var = power.sum(axis=-1) / shape[1] * 10.0 ** (-cfg.snr_db / 10.0)
        scale = np.sqrt(noise_var / 2.0)[:, None]
        # All real parts of a row are drawn before any imaginary part.
        for rng, row in zip(rngs, power):
            rng.standard_normal(out=row)
    # Pass 2: phase noise rotation, then AWGN, through one complex buffer.
    for a, b in blocks:
        x, s = transmit(a, b) if y is None else (samples(a, b), y[:, a:b])
        buf = phasor(theta(a, b))
        _rotate(s, buf)
        if noisy:
            imag = np.empty(s.shape)
            for rng, row in zip(rngs, imag):
                rng.standard_normal(out=row)
            # scale * (real + 1j * imag), added to the rotated samples.
            np.add(power[:, a:b], np.multiply(1j, imag, out=buf), out=buf)
            np.add(s, np.multiply(scale, buf, out=buf), out=s)
        yield a, b, x, s


def _check_tone(freq_hz: float, sample_rate_hz: float, name: str = "tone") -> None:
    """Reject a frequency at or beyond fs/2 (the probe tone or the CFO)."""
    if not abs(freq_hz) < sample_rate_hz / 2:
        raise ValueError(f"{name} at {freq_hz} Hz aliases at fs={sample_rate_hz}")


def _mixer(t, freq_hz: float, a: int, b: int, sample_rate_hz: float) -> np.ndarray:
    """tone(-2j*pi*f, a, b) from t = tone(2j*pi*f, a, b), bit for bit.

    libm's cos is even and its sin odd, so t's conjugate holds those bytes
    wherever the phase is not zero. A zero phase (n = 0, or a tone too slow
    to turn) leaves a zero sine whose sign follows each argument's own
    rounding of its zero terms, so those samples are computed again.
    """
    out = np.conjugate(t)
    zero = np.flatnonzero(t.imag == 0)
    if zero.size:
        lo, hi = zero[0], zero[-1] + 1
        out[lo:hi] = tone(-2j * np.pi * freq_hz, a + lo, a + hi, sample_rate_hz)
    return out


def single_tone_probe(freq_hz: float, n_samples: int, cfg: ChannelConfig) -> np.ndarray:
    """Send exp(j 2 pi f n / fs) through the channel; returns its phase.

    The phase is np.unwrap(np.angle(y * np.exp(-2j*pi*f*n/fs))) less its
    mean, bit for bit, where y = apply_channel(tone[None], cfg, [cfg.seed])[0][0],
    so a constant channel rotation does not bias it. Only the phase is held
    at full length, and it first holds |s|^2 and the noise's real parts: the
    tone, the phase noise and y are made block by block, the tone and its
    taps and CFO once per pass.
    """
    _check_tone(freq_hz, cfg.sample_rate_hz)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples == 0:
        return np.zeros(0)

    fs, k = cfg.sample_rate_hz, 2j * np.pi * freq_hz
    process = PhaseNoiseProcess(cfg.phase_noise, fs, _stream_seed(cfg.seed, 0))
    phase, prev, carry = np.empty(n_samples), None, 0.0
    for a, b, x, y in _channel_blocks(lambda a, b: tone(k, a, b, fs)[None], (1, n_samples),
                                      cfg, [cfg.seed],
                                      lambda a, b: process.generate(b - a)[None],
                                      power=phase[None]):
        # Mixed down in the whole-buffer product's operand order.
        _rotate(y, _mixer(x[0], freq_hz, a, b, fs))
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
