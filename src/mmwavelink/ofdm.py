"""OFDM symbol layout, unitary symbol transforms, and framing."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .modulation import Modulation, map_bits

N_PREAMBLE_SYMBOLS = 2
# The pilot's bin, DC, and the value every symbol, training included, carries
# on it.
PILOT_INDEX = 0
PILOT_VALUE = 1.0 + 0.0j

# Fixed seed for the pseudo-random preamble training tones; both ends derive
# the identical sequence from the layout alone.
_TRAINING_SEED = 0x7261494E


@dataclass(frozen=True)
class OfdmConfig:
    """Layout of one OFDM symbol: the pilot on DC at PILOT_INDEX, `k_guard`
    bins on each side of it kept for phase tracking, payload on the rest of
    subcarriers -used_band .. +used_band, nulls past them, and a cyclic
    prefix of `cp_len` samples.

    The index arrays are FFT bin numbers (0 = DC, negative subcarriers wrap
    to the top of the FFT), each derived once per config and read-only.
    """

    n_fft: int
    k_guard: int
    used_band: int
    cp_len: int

    def __post_init__(self):
        n = self.n_fft
        if n < 8 or n & (n - 1):
            raise ValueError(f"n_fft must be a power of two >= 8, got {n}")
        if not 0 <= self.k_guard < self.used_band <= n // 2 - 1:
            raise ValueError(
                f"need 0 <= k_guard < used_band <= n_fft/2 - 1, "
                f"got k_guard={self.k_guard}, used_band={self.used_band}, n_fft={n}"
            )
        if not 0 <= self.cp_len < n:
            raise ValueError(f"cp_len must be in [0, n_fft), got {self.cp_len}")

    @property
    def symbol_len(self) -> int:
        return self.n_fft + self.cp_len

    @functools.cached_property
    def band_indices(self) -> np.ndarray:
        """Bins of subcarriers -used_band .. +used_band, in that order."""
        return _read_only(np.arange(-self.used_band, self.used_band + 1) % self.n_fft)

    @functools.cached_property
    def guard_indices(self) -> np.ndarray:
        """Bins of subcarriers -k_guard .. +k_guard but DC, in that order."""
        return _read_only(np.r_[-self.k_guard:0, 1:self.k_guard + 1] % self.n_fft)

    @functools.cached_property
    def payload_positions(self) -> np.ndarray:
        """Places of the payload subcarriers, |k| > k_guard, in band_indices."""
        return _read_only(np.flatnonzero(
            np.abs(np.arange(-self.used_band, self.used_band + 1)) > self.k_guard))

    @functools.cached_property
    def payload_indices(self) -> np.ndarray:
        """Bins of the payload subcarriers, by ascending signed subcarrier."""
        return _read_only(self.band_indices[self.payload_positions])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def modulate_symbol(freq_bins, cfg: OfdmConfig) -> np.ndarray:
    """Unitary IFFT of one symbol's bins (n_fft,) or of a stack (..., n_fft),
    plus cyclic prefix."""
    freq_bins = np.asarray(freq_bins, dtype=complex)
    n = cfg.n_fft
    if freq_bins.ndim < 1 or freq_bins.shape[-1] != n:
        raise ValueError(f"expected {n} bins, got shape {freq_bins.shape}")
    body = np.fft.ifft(freq_bins, norm="ortho", axis=-1)
    return np.concatenate([body[..., n - cfg.cp_len:], body], axis=-1)


def symbol_bodies(x, cfg: OfdmConfig) -> np.ndarray:
    """(..., symbols, n_fft) view of frame buffers (..., n), cyclic prefixes dropped."""
    return x.reshape(*x.shape[:-1], x.shape[-1] // cfg.symbol_len, cfg.symbol_len)[..., cfg.cp_len:]


@functools.lru_cache(maxsize=64)
def training_bins(cfg: OfdmConfig) -> np.ndarray:
    """Known preamble spectrum: unit-magnitude pseudo-random tones on the
    payload bins, the pilot at its nominal value, guards and edges null.

    Computed once per config; the cached array is read-only."""
    rng = np.random.default_rng(_TRAINING_SEED)
    phases = rng.uniform(0.0, 2.0 * np.pi, cfg.payload_indices.size)
    bins = np.zeros(cfg.n_fft, dtype=complex)
    bins[cfg.payload_indices] = np.exp(1j * phases)
    bins[PILOT_INDEX] = PILOT_VALUE
    return _read_only(bins)


def frame_capacity_bits(cfg: OfdmConfig, modulation: Modulation, n_payload_symbols: int) -> int:
    return n_payload_symbols * cfg.payload_indices.size * modulation.bits_per_symbol


def _padded_rows(bits, capacity: int) -> np.ndarray:
    """(F, capacity) array of the bit arrays `bits[f]`, each zero-padded;
    reject overflow."""
    padded = np.zeros((len(bits), capacity), dtype=np.uint8)
    for row, frame_bits in zip(padded, bits):
        frame_bits = np.asarray(frame_bits, dtype=np.uint8).ravel()
        if frame_bits.size > capacity:
            raise ValueError(f"{frame_bits.size} bits exceed frame capacity {capacity}")
        row[:frame_bits.size] = frame_bits
    return padded


def build_frames(bits, modulation: Modulation, cfg: OfdmConfig, n_payload_symbols: int):
    """Assemble a stack of frames, each 2 identical training symbols and then
    payload symbols, with one mapping call and one IFFT.

    `bits[f]` is frame f's bit array, zero-padded to fill exactly
    `n_payload_symbols` symbols. Returns (symbols, padded): the time-domain
    symbols with cyclic prefix, (F, 2 + n_payload_symbols, symbol_len), and
    the padded bits, (F, capacity).
    """
    if n_payload_symbols < 0:
        raise ValueError("n_payload_symbols must be >= 0")
    capacity = frame_capacity_bits(cfg, modulation, n_payload_symbols)
    n_frames = len(bits)
    padded = _padded_rows(bits, capacity)
    symbols = map_bits(padded.reshape(-1), modulation).reshape(
        n_frames, n_payload_symbols, cfg.payload_indices.size)

    bins = np.zeros((n_frames, N_PREAMBLE_SYMBOLS + n_payload_symbols, cfg.n_fft), dtype=complex)
    bins[:, :N_PREAMBLE_SYMBOLS] = training_bins(cfg)
    payload = bins[:, N_PREAMBLE_SYMBOLS:]
    payload[..., cfg.payload_indices] = symbols
    payload[..., PILOT_INDEX] = PILOT_VALUE
    return modulate_symbol(bins, cfg), padded

