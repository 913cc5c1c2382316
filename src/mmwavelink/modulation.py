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
    # Big-endian place values; the float sums of 0/1 bits are exact.
    idx = (bits.reshape(-1, k) @ 2.0 ** np.arange(k - 1, -1, -1)).astype(np.intp)
    return modulation.constellation[idx]


def _axis_slicer(levels, codes):
    """One axis's decision thresholds, ascending, with their spacing and the
    axis code of each level in ascending order."""
    order = np.argsort(levels)
    levels = levels[order]
    thresholds = (levels[1:] + levels[:-1]) / 2.0
    spacing = 1.0   # any positive value serves a single threshold
    if thresholds.size > 1:
        spacing = (thresholds[-1] - thresholds[0]) / (thresholds.size - 1)
    return thresholds, spacing, codes[order]


def _build_slicers():
    """Per-axis slicers read off the tables: (bits per axis, I slicer, Q slicer or None)."""
    slicers = {Modulation.BPSK: (1, _axis_slicer(_CONSTELLATIONS[Modulation.BPSK].real,
                                                 np.arange(2)), None)}
    for mod in (Modulation.QPSK, Modulation.QAM16, Modulation.QAM64):
        const = _CONSTELLATIONS[mod]
        b = mod.bits_per_symbol // 2
        codes = np.arange(1 << b)
        slicers[mod] = (b, _axis_slicer(const[codes << b].real, codes),
                        _axis_slicer(const[codes].imag, codes))
    return slicers


# A point this close to an axis threshold, relative to 1 + |z|^2, goes to the
# full distance table. The margin is far above the rounding of the table's
# squared distances, so every other point gets the table's decision.
SLICER_MARGIN = 1e-9


def _slice_axis(x, slicer):
    """(axis codes, distance to the nearest threshold) of coordinates x.

    The thresholds are equally spaced, so the nearest one is found by
    rounding; x beyond the outer thresholds takes the outer level. Where
    rounding picks a neighbour of the nearest threshold, x sits near a level
    and the comparison still places it; where x sits near a threshold, the
    margin is small and the caller falls back to the table.
    """
    thresholds, spacing, codes = slicer
    u = x - thresholds[0]
    u /= spacing
    # fmin and fmax map NaN to a valid index; the caller's margin test sends
    # such a point to the table.
    np.fmax(np.fmin(u, thresholds.size - 1.0, out=u), 0.0, out=u)
    np.rint(u, out=u)
    nearest = u.astype(np.intp)
    t = thresholds[nearest]
    nearest += x > t
    t -= x
    return codes[nearest], np.abs(t, out=t)


def slice_indices(symbols, modulation: Modulation) -> np.ndarray:
    """Nearest constellation-table index of each symbol, shaped like `symbols`.

    Square QAM and BPSK are sliced per axis. A point near a threshold, or not
    finite, falls back to the argmin over the table's squared distances, so
    the result always equals that argmin: exact ties, such as erased 0+0j
    points, resolve to the lower table index.
    """
    z = np.asarray(symbols, dtype=complex)
    b, i_slicer, q_slicer = _SLICERS[modulation]
    idx, margin = _slice_axis(z.real, i_slicer)
    if q_slicer is not None:
        q_idx, q_margin = _slice_axis(z.imag, q_slicer)
        idx = (idx << b) | q_idx
        margin = np.minimum(margin, q_margin)
    tol = z.real ** 2
    tol += z.imag ** 2
    tol += 1.0
    tol *= SLICER_MARGIN
    unsure = ~(margin > tol)
    if unsure.any():
        const = modulation.constellation
        idx[unsure] = np.argmin(np.abs(z[unsure][:, None] - const[None, :]) ** 2, axis=1)
    return idx


def indices_to_bits(idx, modulation: Modulation) -> np.ndarray:
    """Big-endian bits of constellation-table indices, shaped (..., bits_per_symbol)."""
    k = modulation.bits_per_symbol
    shifts = np.arange(k, dtype=np.uint8)[::-1]
    return (np.asarray(idx).astype(np.uint8)[..., None] >> shifts) & np.uint8(1)


def demap_hard(symbols, modulation: Modulation) -> np.ndarray:
    """Nearest-point hard decisions, returned as a flat uint8 bit array.

    Exact distance ties resolve to the lower constellation-table index.
    """
    idx = slice_indices(np.asarray(symbols, dtype=complex).ravel(), modulation)
    return indices_to_bits(idx, modulation).reshape(-1)


def evm_db_from_powers(error_power, reference_power):
    """EVM in dB, 10*log10(error/reference), from error and reference powers
    (sums or means alike), clamped at the -120 dB floor. Scalars give a
    float, or None when reference_power <= 0; arrays, broadcast together,
    give an array, and every reference power must then be positive.
    """
    if np.ndim(error_power) == np.ndim(reference_power) == 0:
        return None if reference_power <= 0.0 else float(
            evm_db_from_powers(np.atleast_1d(error_power), reference_power)[0])
    with np.errstate(divide="ignore"):
        return np.maximum(10.0 * np.log10(np.divide(error_power, reference_power)),
                          EVM_FLOOR_DB)


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
    return evm_db_from_powers(np.mean(np.abs(received - reference) ** 2), ref_power)


_SLICERS = _build_slicers()
