"""Gray-coded constellation mapping, hard demapping, and EVM."""

from __future__ import annotations

from enum import Enum

import numpy as np

EVM_FLOOR_DB = -120.0

# Per-axis Gray levels for square QAM, indexed by the axis bits as an integer.
# First bit selects the half-axis (0 -> positive), remaining bits Gray-code the
# magnitude. BPSK is the exception: bit 0 -> -1, bit 1 -> +1.
_AXIS_LEVELS = {
    1: np.array([1.0, -1.0]),
    2: np.array([1.0, 3.0, -1.0, -3.0]),
    3: np.array([3.0, 1.0, 5.0, 7.0, -3.0, -1.0, -5.0, -7.0]),
}


def _square_qam(bits_per_axis: int) -> np.ndarray:
    levels = _AXIS_LEVELS[bits_per_axis]
    m = len(levels)
    points = np.repeat(levels, m) + 1j * np.tile(levels, m)
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


class Modulation(Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"

    @property
    def bits_per_symbol(self) -> int:
        return _BITS_PER_SYMBOL[self]

    @property
    def constellation(self) -> np.ndarray:
        """Constellation table indexed by the symbol bits read as a big-endian integer.

        The first half of a symbol's bits selects the I level, the second half
        the Q level. Tables are normalized to unit mean energy.
        """
        return _CONSTELLATIONS[self]


_BITS_PER_SYMBOL = {
    Modulation.BPSK: 1,
    Modulation.QPSK: 2,
    Modulation.QAM16: 4,
    Modulation.QAM64: 6,
}

_CONSTELLATIONS = {
    Modulation.BPSK: np.array([-1.0 + 0.0j, 1.0 + 0.0j]),
    Modulation.QPSK: _square_qam(1),
    Modulation.QAM16: _square_qam(2),
    Modulation.QAM64: _square_qam(3),
}
for _c in _CONSTELLATIONS.values():
    _c.setflags(write=False)


def map_bits(bits, modulation: Modulation) -> np.ndarray:
    """Map an array of 0/1 bits to constellation symbols."""
    bits = np.asarray(bits)
    k = modulation.bits_per_symbol
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if bits.size % k:
        raise ValueError(f"bit count {bits.size} is not a multiple of {k}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    idx = bits.reshape(-1, k).astype(np.int64).dot(1 << np.arange(k)[::-1])
    return modulation.constellation[idx]


def demap_hard(symbols, modulation: Modulation) -> np.ndarray:
    """Nearest-point hard decisions, returned as a flat uint8 bit array.

    Exact distance ties resolve to the lower constellation-table index.
    """
    symbols = np.asarray(symbols, dtype=complex).ravel()
    const = modulation.constellation
    d2 = np.abs(symbols[:, None] - const[None, :]) ** 2
    idx = np.argmin(d2, axis=1)
    k = modulation.bits_per_symbol
    bits = (idx[:, None] >> np.arange(k)[::-1]) & 1
    return bits.reshape(-1).astype(np.uint8)


def evm_db(received, reference) -> float:
    """Error vector magnitude in dB: 20*log10(rms error / rms reference).

    A zero error vector reports the -120 dB floor; results are clamped there.
    """
    received = np.asarray(received, dtype=complex).ravel()
    reference = np.asarray(reference, dtype=complex).ravel()
    if received.size == 0 or received.size != reference.size:
        raise ValueError("received and reference must be non-empty and equal length")
    ref_power = np.mean(np.abs(reference) ** 2)
    if ref_power == 0.0:
        raise ValueError("reference power is zero")
    err_power = np.mean(np.abs(received - reference) ** 2)
    if err_power == 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * float(np.log10(err_power / ref_power)), EVM_FLOOR_DB)
