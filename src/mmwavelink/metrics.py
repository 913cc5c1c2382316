"""Measurement utilities: distribution fits, Welch PSD, CSV output."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianFit:
    mean: float
    std: float
    sample_count: int


@dataclass(frozen=True)
class PsdEstimate:
    freqs_hz: np.ndarray
    power_db: np.ndarray


def wrap_phase(x) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    wrapped = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def gaussian_fit_in_place(x: np.ndarray) -> GaussianFit:
    """Method-of-moments Gaussian fit of the 1-D float array x: x.mean() and
    np.std(x, ddof=1), bit for bit, computed in x's own buffer, which it
    overwrites; fit a copy to keep the samples."""
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    mean = float(x.mean())
    return GaussianFit(mean=mean, std=std_in_place(x, ddof=1), sample_count=x.size)


def std_in_place(x: np.ndarray, ddof: int = 0) -> float:
    """np.std(x, ddof=ddof), bit for bit, computed in x's own buffer, which
    it overwrites: numpy's two passes, the mean and then the sum of squares
    about it, without the full-size temporary np.std holds."""
    x -= x.mean()
    return float(np.sqrt(np.square(x, out=x).sum() / (x.size - ddof)))


def psd_welch(samples, sample_rate_hz: float, nfft: int = 4096) -> PsdEstimate:
    """Two-sided Welch power spectral density of real samples, Hann window,
    density scaling, segments overlapping by half (round(nfft / 2) samples).

    Frequencies are returned in ascending order spanning [-fs/2, fs/2); the
    integrated density matches the time-domain variance up to window and
    detrending effects.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0 or np.iscomplexobj(samples):
        raise ValueError("input must be a non-empty 1-D buffer of real samples")
    if nfft < 2 or nfft > samples.size:
        raise ValueError(f"nfft={nfft} must be in [2, len(samples)={samples.size}]")
    # scipy.signal.welch's periodograms: each segment less its mean, times a
    # periodic Hann window scaled to a density, summed 8 segments per rfft call
    # (no (segments, nfft) array is held) and mirrored, |X(-f)| = |X(f)|.
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nfft + 1)[:-1])
    win /= np.sqrt(np.sum(win ** 2) * sample_rate_hz)
    segments = np.lib.stride_tricks.sliding_window_view(samples, nfft)[::nfft - round(nfft / 2)]

    def periodogram_sum(block) -> np.ndarray:
        spectra = np.fft.rfft((block - block.mean(axis=-1, keepdims=True)) * win)
        re, im = spectra.real, spectra.imag   # |X|^2, squared in the spectra's own buffer
        return np.sum(np.square(re, out=re) + np.square(im, out=im), axis=0)

    half = sum(periodogram_sum(segments[i:i + 8]) for i in range(0, len(segments), 8))
    total = np.concatenate((half, half[1:(nfft + 1) // 2][::-1]))
    freqs = np.fft.fftfreq(nfft, 1 / sample_rate_hz)
    order = np.argsort(freqs)
    power_db = 10.0 * np.log10(np.maximum(total[order] / len(segments), 1e-300))
    return PsdEstimate(freqs_hz=freqs[order], power_db=power_db)


def phase_pdf(samples, n_bins: int = 101):
    """Histogram density of phase samples; returns (bin_centers, density)."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("input must be non-empty")
    density, edges = np.histogram(samples, bins=n_bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


# append_series_csv formats and writes its rows in blocks of this many, which
# bounds the text and the float kernel's buffers held at once.
CSV_BLOCK_ROWS = 2048

# The float kernel: "%.10g" % v as an array operation, byte for byte.
#
# For a finite |v| in [1e-4, 1e10), "%.10g" % v is fixed-point text: v
# rounded to ten significant digits, d * 10^(X - 9) with d an integer in
# [1e9, 1e10) and X its decimal exponent, with trailing zeros and a bare point
# removed. X starts as floor(log10 |v|). Since 10^0 to 10^13 are exact
# doubles, m = |v| * 10^(9 - X) is rounded once, by at most 1.1e-6 (half an
# ulp below 2^34), so rint(m) is printf's correctly rounded d unless m lies
# within _HALF_MARGIN of a half-integer. Where m falls outside [1e9, 1e10)
# (log10 off by one next to a power of ten) X moves by one, and where d
# rounds up to 1e10 it carries to 1e9 at X + 1.
#
# A value's text field is the 16 zero-padded decimal digits of
# N = 10 I P + F = d + 9 I P, with P = 10^(9 - X), I = d // P the integer part
# and F = d - I P the fraction digits: the text's digits with a 0 where the
# point goes, at byte 6 + X. A negative value's '-' replaces the 0 before its
# text. The text is bytes [5 + min(X, 0) - neg, end) of the field, end being
# one past the last nonzero digit, or the point when no nonzero digit follows
# it. The tables below are indexed by key = 2 (X + 4) + neg, and N's digits
# come from 4-digit lanes, each converted with multiply-shift divisions by 100
# and 10 in its 16-bit halves and bytes.
#
# A value that is zero, not finite, outside [1e-4, 1e10), near a half-integer
# when scaled, or whose rounding carries to 1e10 is not formatted here; its
# row falls back to printf.
_SCALE = np.array([float(10 ** (9 - x)) for x in range(-4, 10)])   # at X + 4
_HALF_MARGIN = 1e-5


def _field_tables():
    def field(b):   # 16 bytes as one complex128, the kernel's unit of a field
        return np.frombuffer(bytes(b), np.complex128)[0]

    flip = np.zeros(28, np.complex128)   # XOR onto the digits: the point and '-'
    start = np.zeros(28, np.intp)        # the first byte kept, times 17
    for x in range(-4, 10):
        for neg in (0, 1):
            b = bytearray(16)
            b[6 + x] = ord("0") ^ ord(".")
            b[4 + min(x, 0)] = (ord("0") ^ ord("-")) * neg
            flip[2 * (x + 4) + neg] = field(b)
            start[2 * (x + 4) + neg] = 17 * (5 + min(x, 0) - neg)
    keep = np.zeros(6 * 17, np.complex128)   # 1 on bytes [s, e), at 17 s + e
    for s in range(6):
        for e in range(s, 17):
            keep[17 * s + e] = field(bytes(s) + b"\x01" * (e - s) + bytes(16 - e))
    return flip, start, keep


_FLIP, _START, _KEEP = _field_tables()


class _FloatRows:
    """CSV rows of `n_columns` float columns, up to `size` rows at a time:
    the float kernel, its buffers, and printf for the rows it cannot format."""

    def __init__(self, n_columns: int, size: int):
        # A row is each value's 16-byte field and a separator, "\r\n" last;
        # `keep` marks the bytes written.
        width = 17 * n_columns + 1
        layout = np.dtype({"names": [f"c{c}" for c in range(n_columns)],
                           "formats": ["V16"] * n_columns,
                           "offsets": [17 * c for c in range(n_columns)],
                           "itemsize": width})
        self.text = np.empty((size, width), np.uint8)
        self.text[:, 16::17] = ord(",")
        self.text[:, -2:] = (ord("\r"), ord("\n"))
        self.separators = np.zeros(width, np.uint8)
        self.separators[16::17] = 1
        self.separators[-1] = 1
        self.keep = np.tile(self.separators, (size, 1))
        self.text_fields = self.text.view(layout)[:, 0]
        self.keep_fields = self.keep.view(layout)[:, 0]
        size *= n_columns
        self.values = np.empty(size)
        self.floats = np.empty((4, size))
        self.ints = np.empty((3, size), np.intp)
        self.exp = np.empty(size, np.int32)
        self.ok = np.empty(size, bool)
        self.digits = np.empty((size, 4), np.uint32)   # a value's 16 field bytes
        self.lanes = np.empty(4 * size, np.uint32)
        self.field_keep = np.empty(size, np.complex128)  # 1 on its text bytes

    def __call__(self, block, row_format: str) -> str:
        n_columns, n = len(block), block[0].size
        values = self.values[:n_columns * n].reshape(n_columns, n)
        for c, column in enumerate(block):
            values[c] = column
        ok = self._fields(values.ravel()).reshape(n_columns, n).all(axis=0)
        digits = self.digits[:n_columns * n].view("V16").reshape(n_columns, n)
        field_keep = self.field_keep[:n_columns * n].view("V16").reshape(n_columns, n)
        for c in range(n_columns):
            self.text_fields[f"c{c}"][:n] = digits[c]
            self.keep_fields[f"c{c}"][:n] = field_keep[c]
        keep = self.keep[:n]
        fallback = np.flatnonzero(~ok)
        keep[fallback] = 0
        text = self.text[:n][keep.view(bool)].tobytes().decode("ascii")
        if not fallback.size:
            return text
        # Splice the printf rows in at their offsets.
        ends = np.cumsum(np.count_nonzero(keep, axis=1))
        keep[fallback] = self.separators
        parts, at = [], 0
        for r in fallback.tolist():
            parts += [text[at:int(ends[r])],
                      row_format % tuple(float(column[r]) for column in block)]
            at = int(ends[r])
        parts.append(text[at:])
        return "".join(parts)

    def _fields(self, v: np.ndarray) -> np.ndarray:
        """Write the fields of the float64 values v into self.digits and
        self.field_keep; return which values they hold exactly."""
        n = v.size
        a, scale, m, d = (row[:n] for row in self.floats)
        x4, key, end = (row[:n] for row in self.ints)
        ok, exp, digits = self.ok[:n], self.exp[:n], self.digits[:n]
        with np.errstate(all="ignore"):
            np.abs(v, out=a)
            np.log10(a, out=m)
            m += 4.0
            np.copyto(x4, m, casting="unsafe")
            np.maximum(x4, 0, out=x4)
            np.minimum(x4, 13, out=x4)
            _SCALE.take(x4, out=scale)
            np.multiply(a, scale, out=m)
            np.rint(m, out=d)
            np.subtract(m, d, out=a)
            np.abs(a, out=a)
            np.less(a, 0.5 - _HALF_MARGIN, out=ok)
            odd = np.flatnonzero((m < 1e9) | (d >= 1e10))
            if odd.size:
                x4[odd], d[odd], ok[odd] = _corrected(np.abs(v[odd]), m[odd], x4[odd])
                scale[odd] = _SCALE[x4[odd]]
            np.divide(d, scale, out=m)
            np.floor(m, out=m)
            m *= scale
            m *= 9.0
            m += d                               # N
            digits[:, 0] = 0
            for lane, unit in ((1, 1e8), (2, 1e4)):
                np.divide(m, unit, out=a)
                np.floor(a, out=a)
                digits[:, lane] = a
                a *= unit
                m -= a
            digits[:, 3] = m
        # Each 4-digit lane to its decimal digits, most significant first (the
        # low byte): its // 100 and % 100 in 16-bit halves, then their // 10
        # and % 10 in bytes; q + ((x - k q) << s) is (x << s) - (k 2^s - 1) q.
        x, q = digits.ravel(), self.lanes[:4 * n]
        np.multiply(x, 5243, out=q)              # x // 100 for x < 10^4
        q >>= 19
        x <<= 16
        q *= 6553599
        x -= q
        np.multiply(x, 103, out=q)               # // 10 for halves < 100
        q >>= 10
        q &= 0x000F000F
        x <<= 8
        q *= 2559
        x -= q
        # One past the last nonzero digit: the top bit among the flags 0x80 of
        # the nonzero digits, read from a float's exponent.
        np.add(x, 0x7F7F7F7F, out=q)
        q &= 0x80808080
        flags = q.view(np.uint64).reshape(n, 2)
        np.copyto(a, flags[:, 0], casting="unsafe")
        np.copyto(m, flags[:, 1], casting="unsafe")
        m *= 2.0 ** 64
        m += a
        np.frexp(m, out=(a, exp))
        exp >>= 3
        x |= 0x30303030
        np.multiply(x4, 2, out=key)
        np.right_shift(v.view(np.int64), 63, out=end)
        key -= end                               # + 1 where the sign bit is set
        flip = self.field_keep[:n]
        _FLIP.take(key, out=flip)
        digits.view(np.uint64)[...] ^= flip.view(np.uint64).reshape(n, 2)
        np.add(x4, 2, out=end)                   # the point's byte
        np.maximum(end, exp, out=end)
        end += _START.take(key)
        _KEEP.take(end, out=self.field_keep[:n])
        return ok


def _corrected(a, m, x4):
    """(X + 4, d, exact) for the values |v| = a whose estimate x4 left their
    scaled value m outside [1e9, 1e10) or rounding to 1e10."""
    x4 = np.clip(x4 - (m < 1e9) + (m >= 1e10), 0, 13)
    m = a * _SCALE[x4]
    d = np.rint(m)
    exact = (np.abs(m - d) < 0.5 - _HALF_MARGIN) & (m >= 1e9) & (m < 1e10)
    carry = d >= 1e10
    d[carry] = 1e9
    x4 += carry
    exact &= x4 <= 13
    return np.minimum(x4, 13), d, exact


def _numeric_columns(columns):
    """Columns as 1-D arrays, and the printf format of one row; a column
    that is not numeric raises TypeError."""
    columns = [np.asarray(c).ravel() for c in columns]
    for c in columns:
        if c.dtype.kind not in "biuf":
            raise TypeError(f"column dtype {c.dtype} is not numeric")
    # printf-style "%.10g" gives the same text as format(v, ".10g"), faster.
    return columns, ",".join("%.10g" if c.dtype.kind == "f" else "%s"
                             for c in columns) + "\r\n"


def write_csv_header(fh, header) -> None:
    """Write a CSV header row to a text file opened with newline=""."""
    csv.writer(fh).writerow(header)


def append_series_csv(fh, columns) -> None:
    """Append parallel 1-D numeric columns as CSV rows to a text file opened
    with newline="".

    Floats are written with 10 significant digits (`.10g`), integers and
    booleans with str(); lines end in CRLF, as csv.writer writes them. Rows
    stop at the shortest column. Each row's text depends on its values
    alone, so appending a series in parts writes the same bytes as at once.
    When every column holds float16, float32 or float64 values, the float
    kernel formats the rows; a call with any other column formats every row
    with printf.
    """
    columns, row_format = _numeric_columns(columns)
    n_rows = min((c.size for c in columns), default=0)
    float_rows = None
    if n_rows and all(c.dtype.kind == "f" and c.itemsize <= 8 for c in columns):
        float_rows = _FloatRows(len(columns), min(n_rows, CSV_BLOCK_ROWS))
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = [c[start:min(start + CSV_BLOCK_ROWS, n_rows)] for c in columns]
        if float_rows is not None:
            fh.write(float_rows(block, row_format))
        else:
            fh.write("".join([row_format % row for row in zip(*[c.tolist() for c in block])]))


def write_series_csv(path, header, columns) -> None:
    """Write a CSV file: the header row, then append_series_csv's rows. A
    column that is not numeric raises before the file is opened."""
    _numeric_columns(columns)
    with open(path, "w", newline="") as fh:
        write_csv_header(fh, header)
        append_series_csv(fh, columns)
