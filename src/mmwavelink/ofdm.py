"""OFDM subcarrier planning, unitary symbol transforms, and framing."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .modulation import Modulation, map_bits

N_PREAMBLE_SYMBOLS = 2

# Fixed seed for the pseudo-random preamble training tones; both ends derive
# the identical sequence from the plan alone.
_TRAINING_SEED = 0x7261494E


@dataclass(frozen=True)
class SubcarrierPlan:
    """Frequency-domain bin assignment for one OFDM symbol.

    All indices are FFT bin numbers (0 = DC, negative subcarriers wrap to the
    top of the FFT). `payload_indices` is ordered by ascending signed
    subcarrier index, -used_band .. +used_band.
    """

    n_fft: int
    k_guard: int
    used_band: int
    pilot_index: int
    guard_indices: tuple[int, ...]
    payload_indices: tuple[int, ...]
    null_indices: tuple[int, ...]


def build_plan(n_fft: int, k_guard: int, used_band: int) -> SubcarrierPlan:
    """Lay out pilot, guard, payload, and null bins for an N-point symbol.

    The pilot occupies DC, `k_guard` bins on each side of it are reserved for
    phase tracking, payload fills the rest of the used band, and everything
    past +-used_band stays null.
    """
    if n_fft < 8 or n_fft & (n_fft - 1):
        raise ValueError(f"n_fft must be a power of two >= 8, got {n_fft}")
    if not 0 <= k_guard < used_band <= n_fft // 2 - 1:
        raise ValueError(
            f"need 0 <= k_guard < used_band <= n_fft/2 - 1, "
            f"got k_guard={k_guard}, used_band={used_band}, n_fft={n_fft}"
        )
    guard = [k % n_fft for k in range(-k_guard, k_guard + 1) if k != 0]
    payload = [
        k % n_fft
        for k in range(-used_band, used_band + 1)
        if abs(k) > k_guard
    ]
    assigned = {0} | set(guard) | set(payload)
    null = [k for k in range(n_fft) if k not in assigned]
    return SubcarrierPlan(
        n_fft=n_fft,
        k_guard=k_guard,
        used_band=used_band,
        pilot_index=0,
        guard_indices=tuple(guard),
        payload_indices=tuple(payload),
        null_indices=tuple(null),
    )


@dataclass(frozen=True)
class OfdmConfig:
    plan: SubcarrierPlan
    cp_len: int
    sample_rate_hz: float
    pilot_value: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not 0 <= self.cp_len < self.plan.n_fft:
            raise ValueError(f"cp_len must be in [0, n_fft), got {self.cp_len}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.pilot_value == 0:
            raise ValueError("pilot_value must be nonzero")

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.sample_rate_hz / self.plan.n_fft

    @property
    def symbol_len(self) -> int:
        return self.plan.n_fft + self.cp_len


def modulate_symbol(freq_bins, cfg: OfdmConfig) -> np.ndarray:
    """Unitary IFFT of one symbol's bins (n_fft,) or of a stack (..., n_fft),
    plus cyclic prefix."""
    freq_bins = np.asarray(freq_bins, dtype=complex)
    n = cfg.plan.n_fft
    if freq_bins.ndim < 1 or freq_bins.shape[-1] != n:
        raise ValueError(f"expected {n} bins, got shape {freq_bins.shape}")
    body = np.fft.ifft(freq_bins, norm="ortho", axis=-1)
    return np.concatenate([body[..., n - cfg.cp_len:], body], axis=-1)


@functools.lru_cache(maxsize=64)
def training_bins(cfg: OfdmConfig) -> np.ndarray:
    """Known preamble spectrum: unit-magnitude pseudo-random tones on the
    payload bins, the pilot at its nominal value, guards and edges null.

    Computed once per config; the cached array is read-only."""
    plan = cfg.plan
    rng = np.random.default_rng(_TRAINING_SEED)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(plan.payload_indices))
    bins = np.zeros(plan.n_fft, dtype=complex)
    bins[list(plan.payload_indices)] = np.exp(1j * phases)
    bins[plan.pilot_index] = cfg.pilot_value
    bins.setflags(write=False)
    return bins


def frame_capacity_bits(cfg: OfdmConfig, modulation: Modulation, n_payload_symbols: int) -> int:
    return n_payload_symbols * len(cfg.plan.payload_indices) * modulation.bits_per_symbol


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
    plan = cfg.plan
    capacity = frame_capacity_bits(cfg, modulation, n_payload_symbols)
    n_frames = len(bits)
    padded = _padded_rows(bits, capacity)
    symbols = map_bits(padded.reshape(-1), modulation).reshape(
        n_frames, n_payload_symbols, len(plan.payload_indices))

    bins = np.zeros((n_frames, N_PREAMBLE_SYMBOLS + n_payload_symbols, plan.n_fft), dtype=complex)
    bins[:, :N_PREAMBLE_SYMBOLS] = training_bins(cfg)
    payload = bins[:, N_PREAMBLE_SYMBOLS:]
    payload[..., list(plan.payload_indices)] = symbols
    payload[..., plan.pilot_index] = cfg.pilot_value
    return modulate_symbol(bins, cfg), padded

