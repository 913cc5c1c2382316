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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4), in
# uint32 arithmetic that wraps. Its constants do not depend on the entropy, so
# each step runs as one ufunc over every row of one entropy length; arrays
# hold one row per word, (words, rows).
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # hashmix, carried across one pool's mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _words(entropy) -> list:
    """SeedSequence's 32-bit words of an int (least significant first, 0 as [0])
    or of a sequence of ints, one after another."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK]
        while value > _MASK:
            value >>= 32
            words.append(value & _MASK)
        return words
    if isinstance(entropy, (str, bytes)) or not hasattr(entropy, "__iter__"):
        raise TypeError(f"seed entropy must be an int or a sequence of ints, not {entropy!r}")
    words = []
    for part in entropy:
        if type(part) is int and 0 <= part <= _MASK:   # one word, the common case
            words.append(part)
        else:
            words += _words(part)
    return words


@functools.lru_cache(maxsize=64)
def _hash_steps(init: int, mult: int, n: int) -> tuple:
    """The (xor, multiply) columns, (n, 1) uint32 each, of n steps of a multiplier
    that starts at init and is multiplied by mult before each step's product;
    cached, read-only."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK)
    c = np.array(c, dtype=np.uint32)[:, None]
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(value, xor, mul) -> np.ndarray:
    """numpy's hashmix (and generate_state's word hash) of value, as a new array."""
    value = value ^ xor
    value *= mul
    value ^= value >> 16
    return value


def _mix_into(x, y) -> np.ndarray:
    """numpy's mix(x, y), written into x; y is spent."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


@functools.lru_cache(maxsize=64)
def _pool_steps(length: int) -> list:
    """The hashmix steps of a pool fed length words: the first 4 words; each pool
    word src into the 3 others, as (src, xor, multiply) columns of all 4 whose
    src entries are unused; each further word into all 4. Cached, read-only."""
    xor, mul = _hash_steps(_INIT_A, _MULT_A, _POOL * max(length, _POOL))
    steps = [(xor[:_POOL], mul[:_POOL])]
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        k = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        into = np.zeros((2, _POOL, 1), dtype=np.uint32)
        into[:, dst] = xor[k], mul[k]
        into.flags.writeable = False
        steps.append((src, *into))
    for i in range(_POOL, length):
        k = slice(_POOL * i, _POOL * i + _POOL)
        steps.append((i, xor[k], mul[k]))
    return steps


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool (4, rows) of assembled entropy words (L, rows)."""
    first, *mixing = _pool_steps(len(words))
    pool = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)
    pool[:len(words)] = words[:_POOL]
    pool = _hashmix(pool, *first)
    for src, xor, mul in mixing[:_POOL]:
        # Mixed into all 4 words in one pass; word src itself is put back.
        keep = pool[src].copy()
        _mix_into(pool, _hashmix(keep, xor, mul))
        pool[src] = keep
    for i, xor, mul in mixing[_POOL:]:
        _mix_into(pool, _hashmix(words[i], xor, mul))
    return pool


def seed_states(entropy, n_words: int, spawn_keys=None) -> np.ndarray:
    """(rows, n_words) uint64 whose row r is
    np.random.SeedSequence(entropy[r], spawn_key=spawn_keys[r]).generate_state(n_words, np.uint64),
    byte for byte, for entropy rows of non-negative ints or sequences of them.

    A row's assembled entropy is its entropy's words, zero-padded to 4 when it
    has a spawn key, then the key's words; rows of equal length are hashed
    together.
    """
    rows = [_words(e) for e in entropy]
    if spawn_keys is not None:
        for row, key in zip(rows, spawn_keys, strict=True):
            if key := _words(key):
                row += [0] * (_POOL - len(row)) + key
    groups = {}
    for r, row in enumerate(rows):
        groups.setdefault(len(row), []).append(r)
    out = np.empty((len(rows), n_words), dtype=np.uint64)
    reps = -(-2 * n_words // _POOL)
    steps = _hash_steps(_INIT_B, _MULT_B, 2 * n_words)
    for index in groups.values():
        pool = _pool(np.array([rows[r] for r in index], dtype=np.uint32).T)
        # generate_state: word j hashes pool word j % 4; pairs of words read as
        # little-endian uint64.
        state = _hashmix(np.tile(pool, (reps, 1))[:2 * n_words], *steps)
        out[index] = state.T.astype("<u4", order="C").view("<u8")
    return out


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed whose generate_state(4, np.uint64), the words PCG64 seeds itself
    from, seed_states has already computed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only {len(self.state)} uint64 words are hashed")
        return self.state


def _generators(states) -> list:
    """A generator per row of seed_states(..., 4): PCG64 seeds itself from the
    row's 4 hashed words."""
    return [np.random.Generator(np.random.PCG64(_HashedSeed(state))) for state in states]


def seeded_generators(entropy, spawn_keys=None) -> list:
    """np.random.default_rng(np.random.SeedSequence(entropy[r], spawn_key=spawn_keys[r]))
    for each row r, draw for draw, with no SeedSequence built."""
    return _generators(seed_states(entropy, 4, spawn_keys))


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

    Row f is drawn with seeds[f], a non-negative int or a sequence of them,
    exactly as that row alone with seed seeds[f]: its phase noise from
    np.random.SeedSequence(seeds[f], spawn_key=(0,)) and its AWGN from
    spawn_key=(1,). Returns (y, theta), shaped like x, where theta is the
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
    theta and adds its AWGN; blocks come in order, and impair scales
    power[:, a:b] in place. Both run once over a block of all rows as
    elementwise ufuncs in a fixed operand order, so each row's bytes equal the
    whole-buffer expressions on that row alone; numpy computes the operator's
    s * t as t * s when it can reuse a temporary of 256 KiB or more, and
    complex products round differently in the two orders. The AWGN goes in
    as real products and sums, which round alike in either order.
    """
    # Stream 0 drives the phase noise and stream 1 the AWGN.
    rngs = seeded_generators(seeds * 2, [(0,)] * len(seeds) + [(1,)] * len(seeds))
    process = PhaseNoiseProcess(cfg.phase_noise, cfg.sample_rate_hz, rngs[:len(seeds)])
    rngs = rngs[len(seeds):]
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
            _add_noise(s, power[:, a:b], imag, scale)
        return theta

    return impair


def _add_noise(s, real, imag, scale) -> None:
    """s += scale * (real + 1j * imag) one part at a time, scaling real and imag
    in place. The complex form adds only zeros more (0 * imag, 0 * real), so the
    bytes match, except that where a scaled term is zero, a -0.0 part of s stays
    -0.0 here and may turn +0.0 there: a row whose power is 0 or underflows."""
    real *= scale
    s.real += real
    imag *= scale
    s.imag += imag


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
    mixed down; a fresh buffer per block cost about 14,000 more page faults
    in a new process, as glibc's heap returned its memory and took it again.
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
