import numpy as np
import pytest

from mmwavelink import (Modulation, OfdmConfig, build_frames, build_plan,
                        frame_capacity_bits, map_bits, modulate_symbol, training_bins)
from mmwavelink.ofdm import N_PREAMBLE_SYMBOLS, _padded_rows


def default_cfg(k_guard=3):
    return OfdmConfig(plan=build_plan(64, k_guard, 26), cp_len=16,
                      sample_rate_hz=25.0e6)


def build_one(bits, modulation, cfg, n_payload_symbols):
    """One frame as a stack of one: its (symbols, symbol_len) and padded bits."""
    symbols, padded = build_frames([bits], modulation, cfg, n_payload_symbols)
    return symbols[0], padded[0]


def demodulate(samples, cfg):
    """The receiver's transform of one symbol: drop the CP, unitary FFT."""
    return np.fft.fft(samples[cfg.cp_len:], norm="ortho")


def test_plan_counts_default():
    plan = build_plan(64, 3, 26)
    assert plan.pilot_index == 0
    assert len(plan.guard_indices) == 6
    assert len(plan.payload_indices) == 46
    assert len(plan.null_indices) == 11


def test_plan_counts_no_guard():
    plan = build_plan(64, 0, 26)
    assert len(plan.guard_indices) == 0
    assert len(plan.payload_indices) == 52


def test_plan_partitions_all_bins():
    plan = build_plan(64, 3, 26)
    groups = [(plan.pilot_index,), plan.guard_indices,
              plan.payload_indices, plan.null_indices]
    flat = [k for g in groups for k in g]
    assert sorted(flat) == list(range(64))
    assert len(flat) == len(set(flat))


def test_payload_indices_ascend_by_signed_subcarrier():
    plan = build_plan(64, 3, 26)
    assert plan.payload_indices[0] == (-26) % 64
    assert plan.payload_indices[-1] == 26
    signed = [k if k <= 32 else k - 64 for k in plan.payload_indices]
    assert signed == sorted(signed)
    assert all(abs(k) > 3 for k in signed)


@pytest.mark.parametrize("n_fft,k_guard,used_band", [
    (48, 3, 20),   # not a power of two
    (4, 0, 1),     # too small
    (64, 26, 26),  # k_guard not < used_band
    (64, 3, 32),   # used_band past n_fft/2 - 1
    (64, -1, 26),
])
def test_build_plan_rejects_bad_geometry(n_fft, k_guard, used_band):
    with pytest.raises(ValueError):
        build_plan(n_fft, k_guard, used_band)


def test_ofdm_config_validation():
    plan = build_plan(64, 3, 26)
    with pytest.raises(ValueError):
        OfdmConfig(plan=plan, cp_len=64, sample_rate_hz=25e6)
    with pytest.raises(ValueError):
        OfdmConfig(plan=plan, cp_len=-1, sample_rate_hz=25e6)
    with pytest.raises(ValueError):
        OfdmConfig(plan=plan, cp_len=16, sample_rate_hz=0.0)
    with pytest.raises(ValueError):
        OfdmConfig(plan=plan, cp_len=16, sample_rate_hz=25e6, pilot_value=0.0)


def test_derived_quantities():
    cfg = default_cfg()
    assert cfg.symbol_len == 80
    assert cfg.subcarrier_spacing_hz == pytest.approx(390625.0)


def test_modulate_all_zero_bins():
    cfg = default_cfg()
    out = modulate_symbol(np.zeros(64, dtype=complex), cfg)
    assert out.shape == (80,)
    np.testing.assert_array_equal(out, np.zeros(80, dtype=complex))


def test_modulate_dc_only_gives_constant():
    # Unitary IFFT of a lone DC bin is 1/sqrt(N) everywhere, CP included.
    cfg = default_cfg()
    bins = np.zeros(64, dtype=complex)
    bins[0] = 1.0
    out = modulate_symbol(bins, cfg)
    np.testing.assert_allclose(out, np.full(80, 1.0 / 8.0), atol=1e-15)


@pytest.mark.parametrize("k", [1, 5, -7, 26, -26])
def test_modulate_single_tone_matches_dft_ramp(k):
    cfg = default_cfg()
    bins = np.zeros(64, dtype=complex)
    bins[k % 64] = 1.0
    body = modulate_symbol(bins, cfg)[16:]
    n = np.arange(64)
    np.testing.assert_allclose(body, np.exp(2j * np.pi * k * n / 64) / 8.0,
                               atol=1e-14)


def test_modulate_demodulate_round_trip():
    cfg = default_cfg()
    rng = np.random.default_rng(5)
    bins = rng.normal(size=64) + 1j * rng.normal(size=64)
    np.testing.assert_allclose(demodulate(modulate_symbol(bins, cfg), cfg), bins, atol=1e-12)


def test_unitary_transform_preserves_energy():
    cfg = default_cfg()
    rng = np.random.default_rng(6)
    bins = rng.normal(size=64) + 1j * rng.normal(size=64)
    body = modulate_symbol(bins, cfg)[16:]
    assert abs(np.sum(np.abs(bins) ** 2) - np.sum(np.abs(body) ** 2)) < 1e-9


def test_cp_is_tail_copy():
    cfg = default_cfg()
    rng = np.random.default_rng(8)
    bins = rng.normal(size=64) + 1j * rng.normal(size=64)
    out = modulate_symbol(bins, cfg)
    np.testing.assert_array_equal(out[:16], out[64:])


def test_modulate_rejects_wrong_bin_count():
    with pytest.raises(ValueError):
        modulate_symbol(np.zeros(63, dtype=complex), default_cfg())


def test_training_bins_layout():
    cfg = default_cfg()
    bins = training_bins(cfg)
    assert bins.shape == (64,)
    assert bins[0] == cfg.pilot_value
    np.testing.assert_array_equal(bins[list(cfg.plan.guard_indices)], 0.0)
    np.testing.assert_array_equal(bins[list(cfg.plan.null_indices)], 0.0)
    payload = bins[list(cfg.plan.payload_indices)]
    np.testing.assert_allclose(np.abs(payload), 1.0, atol=1e-12)


def test_training_bins_deterministic():
    cfg = default_cfg()
    np.testing.assert_array_equal(training_bins(cfg), training_bins(cfg))


def test_frame_capacity():
    cfg = default_cfg()
    assert frame_capacity_bits(cfg, Modulation.QPSK, 1) == 92
    assert frame_capacity_bits(cfg, Modulation.QPSK, 12) == 1104
    assert frame_capacity_bits(cfg, Modulation.QAM64, 12) == 3312


def test_pad_bits():
    out = _padded_rows([[1, 0, 1]], 6)
    np.testing.assert_array_equal(out, [[1, 0, 1, 0, 0, 0]])
    with pytest.raises(ValueError):
        _padded_rows([np.ones(7, dtype=np.uint8)], 6)


def test_build_frames_pads_short_frames_and_rejects_over_capacity():
    cfg = default_cfg()
    symbols, padded = build_frames([[1, 1], np.ones(92, dtype=np.uint8), []],
                                   Modulation.QPSK, cfg, 1)
    assert symbols.shape == (3, N_PREAMBLE_SYMBOLS + 1, 80)
    np.testing.assert_array_equal(padded, [np.r_[1, 1, np.zeros(90)], np.ones(92), np.zeros(92)])
    with pytest.raises(ValueError, match="93 bits exceed frame capacity 92"):
        build_frames([np.ones(92, dtype=np.uint8), np.ones(93, dtype=np.uint8)],
                     Modulation.QPSK, cfg, 1)


def test_build_frame_structure():
    cfg = default_cfg()
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, 92, dtype=np.uint8)
    symbols, padded = build_one(bits, Modulation.QPSK, cfg, 1)
    assert symbols.shape == (N_PREAMBLE_SYMBOLS + 1, 80)
    np.testing.assert_array_equal(symbols[0], symbols[1])
    np.testing.assert_array_equal(padded, bits)


def test_build_frame_payload_spectrum():
    cfg = default_cfg()
    bits = np.zeros(92, dtype=np.uint8)
    symbols, _ = build_one(bits, Modulation.QPSK, cfg, 1)
    bins = demodulate(symbols[N_PREAMBLE_SYMBOLS], cfg)
    plan = cfg.plan
    expect = map_bits(bits, Modulation.QPSK)
    np.testing.assert_allclose(bins[list(plan.payload_indices)], expect, atol=1e-12)
    np.testing.assert_allclose(bins[plan.pilot_index], cfg.pilot_value, atol=1e-12)
    np.testing.assert_allclose(bins[list(plan.guard_indices)], 0.0, atol=1e-12)


def test_build_frame_pads_short_bits():
    cfg = default_cfg()
    _, padded = build_one([1, 1], Modulation.QPSK, cfg, 1)
    assert padded.size == 92
    np.testing.assert_array_equal(padded[:2], [1, 1])
    assert padded[2:].sum() == 0


def test_build_frame_rejects_overflow():
    cfg = default_cfg()
    with pytest.raises(ValueError):
        build_one(np.ones(93, dtype=np.uint8), Modulation.QPSK, cfg, 1)


def test_build_frame_preamble_only():
    cfg = default_cfg()
    symbols, padded = build_one([], Modulation.QPSK, cfg, 0)
    assert padded.size == 0
    assert symbols.shape == (N_PREAMBLE_SYMBOLS, 80)
