import csv
import tracemalloc

import numpy as np
import pytest

from helpers import band_power_fraction
from mmwavelink import ChannelConfig, phase_pdf, psd_welch, single_tone_probe, wrap_phase
from mmwavelink.cli import main
from mmwavelink.metrics import gaussian_fit_in_place, write_series_csv


def test_wrap_phase_examples():
    np.testing.assert_allclose(wrap_phase([0.5, -0.5]), [0.5, -0.5], atol=1e-15)
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(3.0 * np.pi) == pytest.approx(np.pi)
    assert wrap_phase(2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_phase(-0.1 + 4.0 * np.pi) == pytest.approx(-0.1)


def test_wrap_phase_range():
    x = np.linspace(-20.0, 20.0, 4001)
    w = wrap_phase(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-9)


def test_gaussian_fit_two_points():
    fit = gaussian_fit_in_place(np.array([-1.0, 1.0]))
    assert fit.mean == 0.0
    assert fit.std == pytest.approx(np.sqrt(2.0))
    assert fit.sample_count == 2


def test_gaussian_fit_validation():
    with pytest.raises(ValueError):
        gaussian_fit_in_place(np.array([0.5]))


def test_gaussian_fit_matches_moments():
    rng = np.random.default_rng(20)
    fit = gaussian_fit_in_place(0.2 + 0.05 * rng.standard_normal(100000))
    assert abs(fit.mean - 0.2) < 0.001
    assert abs(fit.std - 0.05) < 0.001


def test_gaussian_fit_leaves_samples_and_equals_in_place_fit():
    # measure-pn fits its phase in place, as the phase's last reader; a caller
    # that keeps its samples fits a copy. The fit gives numpy's moments exactly.
    x = 0.3 + 0.1 * np.random.default_rng(22).standard_normal(1000)
    work = x.copy()
    fit = gaussian_fit_in_place(work)
    assert not np.array_equal(work, x)   # the buffer holds the squared deviations
    assert (fit.mean, fit.std, fit.sample_count) == (float(x.mean()), float(x.std(ddof=1)),
                                                     x.size)


def test_psd_welch_parseval_on_white_noise():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(2 ** 17)
    est = psd_welch(x, 2.0, nfft=4096)
    power = np.sum(10.0 ** (est.power_db / 10.0)) * (est.freqs_hz[1] - est.freqs_hz[0])
    assert abs(power / x.var() - 1.0) < 0.03


def test_psd_welch_white_noise_is_flat():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(2 ** 18)
    est = psd_welch(x, 1.0, nfft=1024)
    assert est.power_db.std() < 1.0
    # Constant detrending nulls each segment's mean, so DC is excluded.
    off_dc = est.freqs_hz != 0.0
    assert np.max(np.abs(est.power_db[off_dc] - est.power_db[off_dc].mean())) < 3.0


def test_psd_welch_locates_tone():
    # A real cosine's power splits between mirrored peaks at +-f0.
    fs = 1.0
    nfft = 1024
    f0 = 32.0 / nfft
    n = np.arange(2 ** 16)
    x = np.cos(2 * np.pi * f0 * n)
    est = psd_welch(x, fs, nfft=nfft)
    linear = 10.0 ** (est.power_db / 10.0)
    for side in (1, -1):
        half = np.sign(est.freqs_hz) == side
        peak = est.freqs_hz[half][np.argmax(est.power_db[half])]
        assert peak == pytest.approx(side * f0, abs=fs / nfft / 2)
        near = np.abs(est.freqs_hz - side * f0) <= 2.5 * fs / nfft
        assert linear[near].sum() / linear.sum() == pytest.approx(0.5, abs=0.025)
    np.testing.assert_array_equal(linear[est.freqs_hz == f0], linear[est.freqs_hz == -f0])


def test_psd_welch_two_sided_ascending():
    rng = np.random.default_rng(23)
    est = psd_welch(rng.standard_normal(8192), 10.0, nfft=256)
    assert est.freqs_hz[0] < 0 < est.freqs_hz[-1]
    assert np.all(np.diff(est.freqs_hz) > 0)
    assert est.freqs_hz.size == 256


def test_psd_welch_validation():
    x = np.zeros(100)
    with pytest.raises(ValueError):
        psd_welch(x, 1.0, nfft=101)
    with pytest.raises(ValueError):
        psd_welch(x, 1.0, nfft=1)
    with pytest.raises(ValueError):
        psd_welch(np.zeros(0), 1.0)


def test_band_power_fraction_full_band_is_one():
    rng = np.random.default_rng(24)
    est = psd_welch(rng.standard_normal(4096), 8.0, nfft=512)
    assert band_power_fraction(est, 4.0) == pytest.approx(1.0)
    assert 0.0 <= band_power_fraction(est, 0.5) <= 1.0


def test_phase_pdf_integrates_to_one():
    rng = np.random.default_rng(25)
    centers, density = phase_pdf(rng.standard_normal(10000), n_bins=51)
    assert centers.shape == (51,)
    width = centers[1] - centers[0]
    assert density.sum() * width == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        phase_pdf([])


def test_write_series_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    a = np.array([0.0, 1.25, -3.5e-7])
    b = np.array([1, 2, 3])
    write_series_csv(path, ["a", "b"], [a, b])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b"]
    assert [float(r[0]) for r in rows[1:]] == pytest.approx(list(a))
    assert [int(r[1]) for r in rows[1:]] == [1, 2, 3]
    assert rows[2][0] == "1.25"


def test_psd_and_pdf_csv_writers(tmp_path):
    # measure-pn writes the PSD (nfft 4096 bins) and the PDF (101 bins).
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"probe": {"n_samples": 4096}}')
    assert main(["measure-pn", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "pn_psd.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "power_db"]
    assert len(rows) == 4097
    with open(tmp_path / "pn_pdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_center", "density"]
    assert len(rows) == 102


# Traced allocation peaks of the measure-pn pipeline on 2**19 samples, in
# bytes per sample (numpy 2.4, scipy 1.17), in the order measure-pn runs
# them: 11.5 for the probe's phase (8 of them the phase itself, the rest the
# channel's 2**14-sample block temporaries), 1.2 for the PSD (its real FFT's
# half spectra), 4.4 for the PDF (np.histogram's blocks of 65,536 samples)
# and under 0.1 for the in-place fit. The bounds add 20 % and round up; a
# full-size float temporary anywhere adds 8.
PROBE_PHASE_BYTES_PER_SAMPLE = 14
PSD_BYTES_PER_SAMPLE = 2
PDF_BYTES_PER_SAMPLE = 6
FIT_BYTES_PER_SAMPLE = 1


def test_measure_pn_pipeline_memory_per_sample():
    n = 1 << 19
    cfg = ChannelConfig(taps=(1.0, 0.2), snr_db=30.0)
    tone = cfg.sample_rate_hz / 8
    warm = single_tone_probe(tone, 1 << 14, cfg, 3)   # warm caches
    psd_welch(warm, cfg.sample_rate_hz)
    phase_pdf(warm)
    gaussian_fit_in_place(warm)
    stages = [lambda phase: psd_welch(phase, cfg.sample_rate_hz), phase_pdf,
              gaussian_fit_in_place]
    tracemalloc.start()
    try:
        phase = single_tone_probe(tone, n, cfg, 3)
        held, probe_peak = tracemalloc.get_traced_memory()
        peaks = []
        for stage in stages:
            tracemalloc.reset_peak()
            stage(phase)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert probe_peak / n <= PROBE_PHASE_BYTES_PER_SAMPLE
    psd_peak, pdf_peak, fit_peak = peaks
    assert psd_peak / n <= PSD_BYTES_PER_SAMPLE
    assert pdf_peak / n <= PDF_BYTES_PER_SAMPLE
    assert fit_peak / n <= FIT_BYTES_PER_SAMPLE
