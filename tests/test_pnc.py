import numpy as np
import pytest

from mmwavelink import (PILOT_INDEX, PILOT_VALUE, ChannelConfig, Modulation, OfdmConfig, aggregate_evm_db,
                        cancel, estimate_phase, frame_bits_rng, run_frames,
                        wrap_phase)
from mmwavelink.pnc import DEGENERATE_EPS


def default_cfg():
    return OfdmConfig(64, 3, 26, 16)


def pilot_only_body(cfg):
    bins = np.zeros(64, dtype=complex)
    bins[PILOT_INDEX] = PILOT_VALUE
    return np.fft.ifft(bins, norm="ortho")


@pytest.mark.parametrize("b", [-3, -1, 0, 2, 3])
def test_estimate_exact_for_in_band_phase_ramp(b):
    # A phase ramp at an integer bin within +-k_guard lands entirely inside
    # the kept window, so the estimate is exact up to float rounding.
    cfg = default_cfg()
    n = np.arange(64)
    theta = 2.0 * np.pi * b * n / 64.0 + 0.3
    body = pilot_only_body(cfg) * np.exp(1j * theta)
    est = estimate_phase(body, cfg)
    err = wrap_phase(est.per_sample_phase - theta)
    assert np.max(np.abs(err)) < 1e-6
    assert est.degenerate_samples == 0


def test_estimate_zero_phase_with_payload_present():
    # Payload bins sit outside the kept window; with no phase noise the
    # recovered trajectory is flat zero.
    cfg = default_cfg()
    rng = np.random.default_rng(0)
    bins = np.zeros(64, dtype=complex)
    idx = cfg.payload_indices
    bins[idx] = np.exp(2j * np.pi * rng.uniform(size=len(idx)))
    bins[PILOT_INDEX] = PILOT_VALUE
    body = np.fft.ifft(bins, norm="ortho")
    est = estimate_phase(body, cfg)
    assert np.max(np.abs(est.per_sample_phase)) < 1e-12


def test_estimate_all_zero_body_degenerates_to_zero_phase():
    cfg = default_cfg()
    est = estimate_phase(np.zeros(64, dtype=complex), cfg)
    assert est.degenerate_samples == 64
    np.testing.assert_array_equal(est.per_sample_phase, np.zeros(64))


def test_estimate_forward_fills_nulls_mid_symbol():
    # bins 0 and +2 with opposite signs null the band-limited field at
    # n = 0 and n = 32; those samples hold the previous phase.
    cfg = default_cfg()
    bins = np.zeros(64, dtype=complex)
    bins[0] = 1.0
    bins[2] = -1.0
    body = np.fft.ifft(bins, norm="ortho")
    assert np.abs(body[0]) < DEGENERATE_EPS and np.abs(body[32]) < DEGENERATE_EPS
    est = estimate_phase(body, cfg)
    assert est.degenerate_samples == 2
    assert est.per_sample_phase[0] == 0.0
    assert est.per_sample_phase[32] == est.per_sample_phase[31]


def test_estimate_rejects_wrong_length():
    with pytest.raises(ValueError):
        estimate_phase(np.zeros(80, dtype=complex), default_cfg())


def test_cancel_counter_rotates_and_keeps_magnitude():
    cfg = default_cfg()
    n = np.arange(64)
    theta = 2.0 * np.pi * 1 * n / 64.0
    clean = pilot_only_body(cfg)
    noisy = clean * np.exp(1j * theta)
    est = estimate_phase(noisy, cfg)
    out = cancel(noisy, est)
    np.testing.assert_allclose(out, clean, atol=1e-9)
    np.testing.assert_allclose(np.abs(out), np.abs(noisy), atol=1e-12)


def test_cancel_rejects_length_mismatch():
    cfg = default_cfg()
    est = estimate_phase(np.zeros(64, dtype=complex), cfg)
    with pytest.raises(ValueError):
        cancel(np.zeros(63, dtype=complex), est)


def run_stack(k_guard, n_frames, run_seed):
    """Frames 0 .. n_frames - 1 of a QPSK run with PNC, as one stack."""
    cfg = OfdmConfig(64, k_guard, 26, 16)
    capacity = 12 * cfg.payload_indices.size * 2
    bits = [frame_bits_rng(run_seed, i).integers(0, 2, capacity, dtype=np.uint8)
            for i in range(n_frames)]
    return run_frames(bits, Modulation.QPSK, cfg, ChannelConfig(), True, 12, run_seed)


def test_tracking_residual_at_default_calibration():
    stack = run_stack(3, 25, 7)
    d = wrap_phase(stack.theta_true_bodies - stack.theta_est)
    assert (d - d.mean(axis=-1, keepdims=True)).std() < 0.12


def stack_evm_db(stack):
    return aggregate_evm_db(stack.report.error_power, stack.report.reference_power)


def test_guard_band_beats_pilot_only_tracking():
    evm_k0 = stack_evm_db(run_stack(0, 20, 11))
    evm_k3 = stack_evm_db(run_stack(3, 20, 11))
    assert evm_k3 < evm_k0 - 0.5
