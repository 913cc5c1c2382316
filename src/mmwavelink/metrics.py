"""Measurement utilities: distribution fits, Welch PSD, CSV output."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import signal


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


def gaussian_fit(samples) -> GaussianFit:
    """Method-of-moments Gaussian fit (unbiased std); samples are left as they are."""
    return gaussian_fit_in_place(np.array(samples, dtype=float).ravel())


def gaussian_fit_in_place(x: np.ndarray) -> GaussianFit:
    """gaussian_fit(x), bit for bit, computed in the float array x's own
    buffer, which it overwrites."""
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


# numpy's pairwise summation, which reduces a float row: a run of 8 to
# PAIRWISE_BLOCK values is summed by 8 accumulators, each taking every 8th
# value, which are then added pairwise, and the values past the last full 8
# in turn; a shorter run is summed in turn from 0.0; a longer one splits at
# half its length, rounded down to a multiple of 8, and adds the sums of
# its halves.
PAIRWISE_BLOCK = 128


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
    # scipy.signal.welch's windowed, detrended periodograms and their mean
    # over segments, which numpy sums pairwise. Each step of a run's 8
    # accumulators is one FFT call of 8 segments, the run's leftover
    # segments one more, and the run sums are added in numpy's order, so no
    # (nfft, segments) array is held and the bytes stay those of welch.
    stft = signal.ShortTimeFFT(signal.get_window("hann", nfft), nfft - noverlap,
                               sample_rate_hz, fft_mode="twosided", mfft=nfft,
                               scale_to="psd", phase_shift=None)
    segments = np.lib.stride_tricks.sliding_window_view(samples, nfft)[::stft.hop]

    def periodograms(p: int, q: int) -> np.ndarray:
        spectra = scipy.fft.fft(signal.detrend(segments[p:q], type="constant") * stft.win,
                                axis=-1)
        re, im = spectra.real, spectra.imag  # |X|^2, squared in the spectra's own buffer
        return np.add(np.square(re, out=re), np.square(im, out=im), out=re)

    def power_sum(p: int, q: int) -> np.ndarray:
        if q - p > PAIRWISE_BLOCK:
            half = (q - p) // 2 // 8 * 8
            return power_sum(p, p + half) + power_sum(p + half, q)
        end = p + (q - p) // 8 * 8
        if end > p:
            acc = periodograms(p, p + 8)
            for i in range(p + 8, end, 8):
                acc += periodograms(i, i + 8)
            total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                     + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        else:
            total = np.zeros(nfft)
        if end < q:
            for row in periodograms(end, q):
                total += row
        return total

    # The reduction's initial 0.0 leaves a sum of squares as it is.
    freqs, density = stft.f, power_sum(0, len(segments)) / len(segments)
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
