import importlib.machinery
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from helpers import band_power_fraction, channel_row
from mmwavelink import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel,
                        PhaseNoiseProcess, apply_channel, gaussian_fit_in_place, psd_welch,
                        single_tone_probe)
from mmwavelink.channel import (PN_CORNER_RATIO, _butter_sos, _load_sosfilt, _shaping_filter,
                                _sosfilt)

FS = 25.0e6
FAST = settings(max_examples=40, deadline=None)

CLEAN_PN = PhaseNoiseConfig(sigma=0.0, model=PhaseNoiseModel.NONE)


def clean_cfg(**kw):
    base = dict(taps=(1.0 + 0.0j,), snr_db=math.inf, phase_noise=CLEAN_PN, seed=0)
    base.update(kw)
    return ChannelConfig(**base)


def test_impairment_free_channel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=256) + 1j * rng.normal(size=256)
    y, theta = channel_row(x, clean_cfg())
    np.testing.assert_array_equal(y, x)
    np.testing.assert_array_equal(theta, np.zeros(256))


def test_apply_channel_deterministic():
    x = np.ones(512, dtype=complex)
    cfg = ChannelConfig(seed=3)
    y1, t1 = channel_row(x, cfg)
    y2, t2 = channel_row(x, cfg)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(t1, t2)


def test_taps_normalized_to_unit_energy():
    cfg = ChannelConfig(taps=(3.0, 4.0j))
    taps = np.asarray(cfg.taps)
    assert abs(np.sum(np.abs(taps) ** 2) - 1.0) < 1e-12
    np.testing.assert_allclose(taps, [0.6, 0.8j], atol=1e-12)


def test_impulse_reveals_taps():
    cfg = clean_cfg(taps=(3.0, 4.0j))
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    y, _ = channel_row(x, cfg)
    np.testing.assert_allclose(y[:2], [0.6, 0.8j], atol=1e-12)
    np.testing.assert_allclose(y[2:], 0.0, atol=1e-15)


def test_phase_noise_multiplies_unit_magnitude():
    rng = np.random.default_rng(1)
    x = rng.normal(size=400) + 1j * rng.normal(size=400)
    cfg = ChannelConfig(taps=(1.0,), snr_db=math.inf, seed=9)
    y, theta = channel_row(x, cfg)
    np.testing.assert_array_equal(y, x * np.exp(1j * theta))
    np.testing.assert_allclose(np.abs(y), np.abs(x), atol=1e-12)


def test_cfo_rotation():
    n = np.arange(64)
    x = np.ones(64, dtype=complex)
    cfg = clean_cfg(cfo_hz=1.0e5)
    y, _ = channel_row(x, cfg)
    np.testing.assert_allclose(y, np.exp(2j * np.pi * 1.0e5 * n / FS), atol=1e-12)


def test_snr_calibration():
    x = np.ones(200_000, dtype=complex)
    cfg = ChannelConfig(taps=(1.0,), snr_db=20.0, phase_noise=CLEAN_PN, seed=4)
    y, _ = channel_row(x, cfg)
    noise_db = 10.0 * np.log10(np.mean(np.abs(y - x) ** 2))
    assert abs(noise_db - (-20.0)) < 0.2


def test_apply_channel_rejects_bad_input():
    cfg = clean_cfg()
    with pytest.raises(ValueError):
        apply_channel(np.zeros((1, 0), dtype=complex), cfg, [0])
    with pytest.raises(ValueError):
        apply_channel(np.zeros(4, dtype=complex), cfg, [0])
    with pytest.raises(ValueError):
        apply_channel(np.zeros((2, 4), dtype=complex), cfg, [0])


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(taps=())
    with pytest.raises(ValueError):
        ChannelConfig(taps=(0.0,))
    with pytest.raises(ValueError):
        ChannelConfig(sample_rate_hz=0.0)
    # Tap energy that overflows a float would normalize the taps to zeros.
    for taps in ((1e200, 1e200), (1e308 + 1e308j,)):
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            ChannelConfig(taps=taps)
    # The noise power 10**(-snr_db/10) must be a finite float; inf disables noise.
    for snr_db in (-1e308, -3100.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="noise power"):
            ChannelConfig(snr_db=snr_db)
    ChannelConfig(snr_db=math.inf)
    ChannelConfig(snr_db=-3000.0)
    # Phase-noise ranges are checked against the channel's own sample rate.
    for pn, fs in ((PhaseNoiseConfig(sigma=-0.1), FS), (PhaseNoiseConfig(bandwidth_hz=0.0), FS),
                   (PhaseNoiseConfig(bandwidth_hz=5e6), 10e6)):
        with pytest.raises(ValueError):
            ChannelConfig(phase_noise=pn, sample_rate_hz=fs)
    ChannelConfig(phase_noise=PhaseNoiseConfig(bandwidth_hz=0.0, model=PhaseNoiseModel.NONE))
    # A CFO at or beyond fs/2 aliases, as the probe tone would.
    for cfo_hz, fs in ((1e308, FS), (12.5e6, FS), (-2e7, FS), (math.nan, FS), (5e6, 10e6)):
        with pytest.raises(ValueError, match="cfo_hz"):
            ChannelConfig(cfo_hz=cfo_hz, sample_rate_hz=fs)
    ChannelConfig(cfo_hz=-12.4e6)


@FAST
@pytest.mark.parametrize("model", [PhaseNoiseModel.FILTERED_GAUSSIAN,
                                   PhaseNoiseModel.RANDOM_WALK])
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 3.0),
       chunks=st.lists(st.integers(0, 700), min_size=1, max_size=6))
@example(seed=5, sigma=0.26, chunks=[300, 0, 700])
@example(seed=5, sigma=0.26, chunks=[1000])
def test_generator_chunked_equals_one_shot(model, seed, sigma, chunks):
    # Any split of a trajectory, empty draws included, equals one draw.
    cfg = PhaseNoiseConfig(sigma=sigma, bandwidth_hz=1e6, model=model)
    one = PhaseNoiseProcess(cfg, FS, seed=seed).generate(sum(chunks))
    p = PhaseNoiseProcess(cfg, FS, seed=seed)
    split = np.concatenate([p.generate(n) for n in chunks])
    np.testing.assert_array_equal(split, one)


@pytest.mark.parametrize("model", [PhaseNoiseModel.FILTERED_GAUSSIAN,
                                   PhaseNoiseModel.RANDOM_WALK])
def test_generator_deterministic(model):
    cfg = PhaseNoiseConfig(model=model)
    a = PhaseNoiseProcess(cfg, FS, seed=6).generate(2048)
    b = PhaseNoiseProcess(cfg, FS, seed=6).generate(2048)
    np.testing.assert_array_equal(a, b)


def test_generator_zero_sigma_is_silent():
    for model in (PhaseNoiseModel.FILTERED_GAUSSIAN, PhaseNoiseModel.RANDOM_WALK):
        p = PhaseNoiseProcess(PhaseNoiseConfig(sigma=0.0, model=model), FS, seed=0)
        np.testing.assert_array_equal(p.generate(128), np.zeros(128))


def test_generator_validation():
    with pytest.raises(ValueError):
        PhaseNoiseProcess(PhaseNoiseConfig(sigma=-0.1), FS, seed=0)
    with pytest.raises(ValueError):
        PhaseNoiseProcess(PhaseNoiseConfig(bandwidth_hz=0.0), FS, seed=0)
    with pytest.raises(ValueError):
        PhaseNoiseProcess(PhaseNoiseConfig(bandwidth_hz=FS), FS, seed=0)
    with pytest.raises(ValueError):
        PhaseNoiseProcess(PhaseNoiseConfig(), FS, seed=0).generate(-1)


def test_generator_empty_request():
    p = PhaseNoiseProcess(PhaseNoiseConfig(), FS, seed=0)
    assert p.generate(0).shape == (0,)


def test_filtered_gaussian_std_calibration():
    theta = PhaseNoiseProcess(PhaseNoiseConfig(sigma=0.26), FS, seed=7).generate(1_000_000)
    fit = gaussian_fit_in_place(theta)
    assert 0.26 * 0.95 <= fit.std <= 0.26 * 1.05
    assert abs(fit.mean) < 0.005


def test_filtered_gaussian_power_stays_in_band():
    theta = PhaseNoiseProcess(PhaseNoiseConfig(), FS, seed=7).generate(2 ** 18)
    est = psd_welch(theta, FS)
    assert band_power_fraction(est, 1.0e6) >= 0.85


def test_random_walk_increment_scaling():
    # The increment std over RANDOM_WALK_SPAN = 80 samples is sigma.
    cfg = PhaseNoiseConfig(sigma=0.26, model=PhaseNoiseModel.RANDOM_WALK)
    theta = PhaseNoiseProcess(cfg, FS, seed=8).generate(80 * 20000)
    inc = theta[80::80] - theta[:-80:80]
    assert abs(inc.std() / 0.26 - 1.0) < 0.05


def test_slow_phase_noise_nearly_constant_within_a_symbol():
    # At bandwidth/fs = 1e-4 the trajectory barely moves across 16 samples.
    cfg = PhaseNoiseConfig(sigma=0.26, bandwidth_hz=2.5e3)
    theta = PhaseNoiseProcess(cfg, FS, seed=2).generate(2 ** 16)
    drift = theta[16:] - theta[:-16]
    assert drift.std() < 0.05 * 0.26


def test_single_tone_probe_clean():
    # Through a clean channel the tone mixes down to a constant phase.
    phase = single_tone_probe(FS / 8.0, 64, clean_cfg())
    assert phase.shape == (64,) and phase.dtype == float
    np.testing.assert_allclose(phase, np.zeros(64), atol=1e-12)


def test_single_tone_probe_recovers_phase_noise():
    # Noiseless, one tap, no CFO: the phase is the channel's own theta, whose
    # random walk passes +-pi, less its mean.
    cfg = clean_cfg(phase_noise=PhaseNoiseConfig(sigma=1.0, model=PhaseNoiseModel.RANDOM_WALK),
                    seed=4)
    theta = channel_row(np.ones(5000, dtype=complex), cfg)[1]
    assert np.ptp(theta) > 2 * np.pi
    np.testing.assert_allclose(single_tone_probe(FS / 8.0, 5000, cfg), theta - theta.mean(),
                               atol=1e-9)


def test_single_tone_probe_ignores_constant_offset():
    # A tap's constant rotation leaves with the mean.
    cfg = clean_cfg(taps=(np.exp(1j * 0.9),))
    np.testing.assert_allclose(single_tone_probe(1.0e6, 2000, cfg), np.zeros(2000), atol=1e-12)


def test_single_tone_probe_zero_samples():
    # An empty probe has an empty phase, and takes no mean of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase = single_tone_probe(1.0e6, 0, clean_cfg(snr_db=30.0))
    assert phase.shape == (0,) and phase.dtype == float


def test_single_tone_probe_validation():
    cfg = clean_cfg()
    with pytest.raises(ValueError):
        single_tone_probe(FS / 2.0, 16, cfg)
    with pytest.raises(ValueError):
        single_tone_probe(-FS / 2.0, 16, cfg)
    with pytest.raises(ValueError):
        single_tone_probe(1.0e6, -1, cfg)


def butter_bands():
    """(band, fs) pairs: log-uniform bands from far below fs up to fs/2, more
    in the range where _cplxreal counts the conjugate pair as real, and 1 uHz
    at 25 MHz, which is in that range."""
    rng = np.random.default_rng(17)
    for fs in (1.0, 7.0, 1e3, FS, 1e9, 1e300):
        top = math.log10(fs / 2)
        bands = np.concatenate([10 ** rng.uniform(top - 300, top, 150),
                                10 ** rng.uniform(top - 16, top - 12, 50)])
        yield from ((band, fs) for band in bands if 0 < band < fs / 2)
    yield 1e-6, FS


def test_butter_port_equals_scipy_butter():
    pairings = {True: [], False: []}
    for band, fs in butter_bands():
        sos = _butter_sos(band / PN_CORNER_RATIO, fs)
        ref = signal.butter(3, band / PN_CORNER_RATIO, fs=fs, output="sos")
        assert sos.tobytes() == ref.tobytes(), (band, fs)
        # zpk2sos counts a pole as real within 100 eps of its magnitude.
        poles = signal.butter(3, band / PN_CORNER_RATIO, fs=fs, output="zpk")[1]
        all_real = bool(np.all(abs(poles.imag) <= 100 * np.finfo(float).eps * abs(poles)))
        pairings[all_real].append((band, fs))
    assert len(pairings[False]) >= 50 and len(pairings[True]) >= 50
    assert (1e-6, FS) in pairings[True]


def test_butter_port_zero_corner_has_zero_gain():
    # scipy rejects a corner that rounds to 0; the port gives a zero gain, so
    # a zero impulse energy, which the underflow rule rejects.
    with pytest.raises(ValueError, match="greater than 0"):
        signal.butter(3, 5e-324 / PN_CORNER_RATIO, fs=FS, output="sos")
    sos, _, energy = _shaping_filter(5e-324, FS)
    assert not sos[0, :3].any() and energy == 0.0
    with pytest.raises(ValueError, match="underflows"):
        ChannelConfig(phase_noise=PhaseNoiseConfig(bandwidth_hz=5e-324))


def sosfilt_in_place(sosfilt, sos, x, zi):
    """Filter a copy of x with the kernel, zi in scipy's (sections, F, 2)."""
    y, state = x.copy(), zi.transpose(1, 0, 2).copy()
    sosfilt(sos, y, state)
    return y, state.transpose(1, 0, 2)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("band", [1e6, 1e-6])
def test_sosfilt_equals_scipy_sosfilt(rows, band):
    rng = np.random.default_rng(rows)
    sos = _shaping_filter(band, FS)[0]
    x = rng.standard_normal((rows, 3000))
    y = sosfilt_in_place(_sosfilt, sos, x, np.zeros((2, rows, 2)))[0]
    assert y.tobytes() == signal.sosfilt(sos, x).tobytes()
    zi = rng.standard_normal((2, rows, 2))
    y, zf = sosfilt_in_place(_sosfilt, sos, x, zi)
    ref, ref_zf = signal.sosfilt(sos, x, zi=zi)
    assert y.tobytes() == ref.tobytes()
    assert zf.tobytes() == ref_zf.tobytes()


def test_sosfilt_import_fallback_gives_the_same_bytes(monkeypatch):
    # With no extension file found, the loader imports scipy.signal's kernel.
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    fallback = _load_sosfilt()
    sos = _shaping_filter(1e6, FS)[0]
    x = np.random.default_rng(4).standard_normal((3, 2000))
    zi = np.random.default_rng(5).standard_normal((2, 3, 2))
    loaded = sosfilt_in_place(_sosfilt, sos, x, zi)
    for a, b in zip(sosfilt_in_place(fallback, sos, x, zi), loaded):
        assert a.tobytes() == b.tobytes()
