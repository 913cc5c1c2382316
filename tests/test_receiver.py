import math

import numpy as np
import pytest

from helpers import channel_row
from mmwavelink import (ChannelConfig, ChannelEstimate, Modulation, OfdmConfig,
                        PhaseNoiseConfig, PhaseNoiseModel, build_frames, build_plan,
                        decode_frames, equalize, estimate_channel_ls, genie_evm_db,
                        slice_indices, training_bins)

CLEAN_PN = PhaseNoiseConfig(sigma=0.0, model=PhaseNoiseModel.NONE)


def default_cfg():
    return OfdmConfig(plan=build_plan(64, 3, 26), cp_len=16, sample_rate_hz=25.0e6)


def frame_samples(bits, modulation, cfg, n_payload_symbols):
    """One frame's buffer, built as a stack of one."""
    return build_frames([bits], modulation, cfg, n_payload_symbols)[0].ravel()


def decode_one(samples, cfg, modulation, pnc_enabled=True):
    """The DecodeReport of one frame buffer, decoded as a stack of one."""
    return decode_frames(np.asarray(samples)[None], cfg, modulation, pnc_enabled)


def genie_of(report, bits, modulation=Modulation.QPSK):
    """The genie EVM of a decoded stack of one frame."""
    return genie_evm_db(report.points, np.asarray(bits)[None], report.erased, modulation)[0]


def signed_to_fft(plan):
    signed = np.arange(-plan.used_band, plan.used_band + 1)
    return signed, np.mod(signed, plan.n_fft)


def test_ls_identity_channel():
    cfg = default_cfg()
    t = training_bins(cfg)
    est = estimate_channel_ls(np.stack([t, t]), t, cfg.plan)
    assert est.h_freq.shape == (53,)
    np.testing.assert_allclose(est.h_freq, np.ones(53), atol=1e-12)
    assert est.noise_floor_est == 0.0


def test_ls_recovers_frequency_response():
    cfg = default_cfg()
    plan = cfg.plan
    t = training_bins(cfg)
    signed, fft_idx = signed_to_fft(plan)
    # Smooth two-tap response sampled on the used band.
    h = 0.9 + 0.3 * np.exp(-2j * np.pi * signed / plan.n_fft)
    rx = np.zeros((2, plan.n_fft), dtype=complex)
    rx[:, fft_idx] = t[fft_idx] * h
    est = estimate_channel_ls(rx, t, plan)
    known = np.abs(t[fft_idx]) > 0
    np.testing.assert_allclose(est.h_freq[known], h[known], atol=1e-12)
    # Guard bins carry no training; they are interpolated, not exact.
    assert np.all(np.isfinite(est.h_freq))
    assert np.max(np.abs(est.h_freq[~known] - h[~known])) < 0.05


def test_ls_noise_floor_from_repeat_spread():
    cfg = default_cfg()
    plan = cfg.plan
    t = training_bins(cfg)
    signed, fft_idx = signed_to_fft(plan)
    known = np.abs(t[fft_idx]) > 0
    rx = np.stack([t, t]).astype(complex)
    delta = 0.02 + 0.01j
    bump = fft_idx[known][5]
    rx[1, bump] += delta
    est = estimate_channel_ls(rx, t, plan)
    expect = (np.abs(delta / t[bump]) ** 2) / (2.0 * known.sum())
    assert est.noise_floor_est == pytest.approx(expect, rel=1e-9)


def test_ls_input_validation():
    cfg = default_cfg()
    t = training_bins(cfg)
    with pytest.raises(ValueError):
        estimate_channel_ls(np.stack([t, t, t]), t, cfg.plan)
    with pytest.raises(ValueError):
        estimate_channel_ls(np.stack([t, t]), t[:32], cfg.plan)
    bad = t.copy()
    bad[cfg.plan.payload_indices[0]] = 0.0
    with pytest.raises(ValueError):
        estimate_channel_ls(np.stack([bad, bad]), bad, cfg.plan)


def test_equalize_divides_and_erases():
    cfg = default_cfg()
    plan = cfg.plan
    h = np.full(53, 2.0, dtype=complex)
    h[0] = 0.0  # signed subcarrier -26, payload position 0
    est = ChannelEstimate(h_freq=h, noise_floor_est=0.0, plan=plan)
    bins = np.zeros(plan.n_fft, dtype=complex)
    bins[list(plan.payload_indices)] = 2.0 * (1.0 + 1.0j)
    z, erased = equalize(bins, est)
    assert erased[0] and erased.sum() == 1
    assert z[0] == 0.0
    np.testing.assert_allclose(z[1:], 1.0 + 1.0j, atol=1e-12)
    with pytest.raises(ValueError):
        equalize(bins[:-1], est)


@pytest.mark.parametrize("pnc_enabled", [True, False])
@pytest.mark.parametrize("mod", list(Modulation))
def test_decode_clean_frame_is_exact(mod, pnc_enabled):
    cfg = default_cfg()
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, 46 * mod.bits_per_symbol * 4, dtype=np.uint8)
    report = decode_one(frame_samples(bits, mod, cfg, 4), cfg, mod, pnc_enabled=pnc_enabled)
    np.testing.assert_array_equal(report.bits[0], bits)
    assert report.evm_db[0] == -120.0
    assert report.n_erased[0] == 0


def test_decode_multipath_noiseless_is_exact():
    cfg = default_cfg()
    rng = np.random.default_rng(11)
    taps = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
    channel = ChannelConfig(taps=taps, snr_db=math.inf, phase_noise=CLEAN_PN)
    bits = rng.integers(0, 2, 92 * 4, dtype=np.uint8)
    y, _ = channel_row(frame_samples(bits, Modulation.QPSK, cfg, 4), channel, 1)
    report = decode_one(y, cfg, Modulation.QPSK, pnc_enabled=False)
    np.testing.assert_array_equal(report.bits[0], bits)
    assert report.evm_db[0] <= -40.0
    assert genie_of(report, bits) <= -40.0


def test_decode_constant_rotation_absorbed_by_ls():
    cfg = default_cfg()
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, 92 * 3, dtype=np.uint8)
    y = frame_samples(bits, Modulation.QPSK, cfg, 3) * np.exp(1j * 0.7)
    report = decode_one(y, cfg, Modulation.QPSK, pnc_enabled=False)
    np.testing.assert_array_equal(report.bits[0], bits)
    assert report.evm_db[0] == -120.0
    assert report.residual_phase_std[0] < 1e-9


def test_frame_evm_is_rms_of_per_symbol_evm():
    cfg = default_cfg()
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, 92 * 6, dtype=np.uint8)
    channel = ChannelConfig(taps=(1.0,), snr_db=25.0, phase_noise=CLEAN_PN)
    y, _ = channel_row(frame_samples(bits, Modulation.QPSK, cfg, 6), channel, 2)
    report = decode_one(y, cfg, Modulation.QPSK, pnc_enabled=False)
    assert report.n_erased[0] == 0
    # Each symbol's EVM against the frame's mean decided-point power.
    points = report.points[0]
    decisions = Modulation.QPSK.constellation[slice_indices(points, Modulation.QPSK)]
    per_symbol = np.mean(np.abs(points - decisions) ** 2, axis=-1) \
        / np.mean(np.abs(decisions) ** 2)
    combined = 10.0 * np.log10(np.mean(per_symbol))
    assert abs(report.evm_db[0] - combined) < 1e-9
    # The linear-domain sums must reproduce the reported dB value.
    assert report.evm_db[0] == pytest.approx(
        10.0 * np.log10(report.error_power[0] / report.reference_power[0]), abs=1e-9)


def test_decode_genie_evm_tracks_true_bits():
    cfg = default_cfg()
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, 92 * 2, dtype=np.uint8)
    report = decode_one(frame_samples(bits, Modulation.QPSK, cfg, 2), cfg, Modulation.QPSK)
    assert genie_of(report, bits) == -120.0
    # Against other bits the points are off by whole constellation steps.
    assert genie_of(report, 1 - bits) > -5.0


def test_decode_frame_validation():
    cfg = default_cfg()
    with pytest.raises(ValueError, match="multiple of 80"):
        decode_frames(np.zeros((1, 161), dtype=complex), cfg, Modulation.QPSK)
    with pytest.raises(ValueError, match="shorter than the preamble"):
        decode_frames(np.zeros((1, 80), dtype=complex), cfg, Modulation.QPSK)
    with pytest.raises(ValueError, match="multiple of 80"):
        decode_frames(np.zeros(160, dtype=complex), cfg, Modulation.QPSK)
