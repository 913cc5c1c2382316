"""Measurement utilities: tone phase extraction, distribution fits, Welch PSD."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import signal

from .channel import sample_blocks, tone


@dataclass(frozen=True)
class GaussianFit:
    mean: float
    std: float
    sample_count: int


@dataclass(frozen=True)
class PsdEstimate:
    freqs_hz: np.ndarray
    power_db: np.ndarray
    nfft: int
    segment_overlap: float


def wrap_phase(x) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    wrapped = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def extract_tone_phase(y, tone_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Phase trajectory of a received single tone.

    Mixes the tone down to DC, unwraps the angle, and removes the mean so a
    constant channel rotation does not bias the result. Runs in blocks of
    SAMPLE_BLOCK samples and equals the whole-buffer
    `np.unwrap(np.angle(y * np.exp(-2j*pi*f*n/fs)))` bit for bit.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("input must be a non-empty 1-D buffer")
    phase, k = np.empty(y.size), -2j * np.pi * tone_hz
    prev, carry = None, 0.0
    for a, b in sample_blocks(y.size):
        # An unnamed mixer keeps the whole-buffer product's operand order.
        wrapped = np.angle(y[a:b] * tone(k, a, b, sample_rate_hz))
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


def gaussian_fit(samples) -> GaussianFit:
    """Method-of-moments Gaussian fit (unbiased std)."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise ValueError("need at least 2 samples")
    return GaussianFit(
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)),
        sample_count=samples.size,
    )


def std_in_place(x: np.ndarray) -> float:
    """np.std(x), bit for bit, computed in x's own buffer, which it
    overwrites: numpy's two passes, the mean and then the mean square about
    it, without the full-size temporary np.std holds."""
    x -= x.mean()
    return float(np.sqrt(np.square(x, out=x).sum() / x.size))


# Welch segments transformed per FFT call in psd_welch.
WELCH_BLOCK_SEGMENTS = 64


def psd_welch(samples, sample_rate_hz: float, nfft: int = 4096,
              overlap: float = 0.5) -> PsdEstimate:
    """Two-sided Welch power spectral density, Hann window, density scaling.

    Frequencies are returned in ascending order spanning [-fs/2, fs/2); the
    integrated density matches the time-domain variance up to window and
    detrending effects.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("input must be a non-empty 1-D buffer")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    if nfft < 2 or nfft > samples.size:
        raise ValueError(f"nfft={nfft} must be in [2, len(samples)={samples.size}]")
    noverlap = int(round(nfft * overlap))
    # scipy.signal.welch's windowed, detrended periodograms, averaged by the
    # same reduction over a (nfft, segments) array, but transformed in
    # blocks of WELCH_BLOCK_SEGMENTS segments, one FFT call each.
    stft = signal.ShortTimeFFT(signal.get_window("hann", nfft), nfft - noverlap,
                               sample_rate_hz, fft_mode="twosided", mfft=nfft,
                               scale_to="psd", phase_shift=None)
    segments = np.lib.stride_tricks.sliding_window_view(samples, nfft)[::stft.hop]
    power = np.empty((nfft, len(segments)))
    for p in range(0, len(segments), WELCH_BLOCK_SEGMENTS):
        block = segments[p:p + WELCH_BLOCK_SEGMENTS]
        spectra = scipy.fft.fft(signal.detrend(block, type="constant") * stft.win, axis=-1)
        re, im = spectra.real, spectra.imag  # |X|^2, squared in the spectra's own buffer
        power[:, p:p + len(block)] = np.add(np.square(re, out=re), np.square(im, out=im), out=re).T
    freqs, density = stft.f, power.mean(axis=-1)
    order = np.argsort(freqs)
    power_db = 10.0 * np.log10(np.maximum(density[order], 1e-300))
    return PsdEstimate(
        freqs_hz=freqs[order],
        power_db=power_db,
        nfft=nfft,
        segment_overlap=overlap,
    )


def band_power_fraction(est: PsdEstimate, band_hz: float) -> float:
    """Fraction of total PSD power at |f| <= band_hz."""
    linear = 10.0 ** (est.power_db / 10.0)
    in_band = np.abs(est.freqs_hz) <= band_hz
    return float(np.sum(linear[in_band]) / np.sum(linear))


def phase_pdf(samples, n_bins: int = 101):
    """Histogram density of phase samples; returns (bin_centers, density)."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("input must be non-empty")
    density, edges = np.histogram(samples, bins=n_bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


# Rows formatted per write in append_series_csv; bounds the text held in memory.
CSV_CHUNK_ROWS = 1024


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
    """
    columns, row_format = _numeric_columns(columns)
    n_rows = min((c.size for c in columns), default=0)
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        chunk = [c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns]
        fh.write("".join([row_format % row for row in zip(*chunk)]))


def write_series_csv(path, header, columns) -> None:
    """Write a CSV file: the header row, then append_series_csv's rows. A
    column that is not numeric raises before the file is opened."""
    _numeric_columns(columns)
    with open(path, "w", newline="") as fh:
        write_csv_header(fh, header)
        append_series_csv(fh, columns)


def write_psd_csv(est: PsdEstimate, path) -> None:
    write_series_csv(path, ["freq_hz", "power_db"], [est.freqs_hz, est.power_db])


def write_phase_pdf_csv(centers, density, path) -> None:
    write_series_csv(path, ["bin_center", "density"], [centers, density])
