import dataclasses

import numpy as np
import pytest

from mmwavelink import (Modulation, OfdmConfig, build_frames,
                        frame_capacity_bits, map_bits, modulate_symbol, training_bins)
from mmwavelink.ofdm import N_PREAMBLE_SYMBOLS, PILOT_INDEX, PILOT_VALUE, _padded_rows


def default_cfg(k_guard=3):
    return OfdmConfig(64, k_guard, 26, 16)


def build_one(bits, modulation, cfg, n_payload_symbols):
    """One frame as a stack of one: its (symbols, symbol_len) and padded bits."""
    symbols, padded = build_frames([bits], modulation, cfg, n_payload_symbols)
    return symbols[0], padded[0]


def demodulate(samples, cfg):
    """The receiver's transform of one symbol: drop the CP, unitary FFT."""
    return np.fft.fft(samples[cfg.cp_len:], norm="ortho")


def reference_layout(n_fft, k_guard, used_band):
    """Guard, payload and null bins as lists, laid out subcarrier by
    subcarrier: the pilot on DC, +-k_guard around it, payload to +-used_band,
    nulls past it."""
    guard = [k % n_fft for k in range(-k_guard, k_guard + 1) if k != 0]
    payload = [k % n_fft for k in range(-used_band, used_band + 1) if abs(k) > k_guard]
    assigned = {PILOT_INDEX} | set(guard) | set(payload)
    return guard, payload, [k for k in range(n_fft) if k not in assigned]


def null_bins(cfg):
    return reference_layout(cfg.n_fft, cfg.k_guard, cfg.used_band)[2]


@pytest.mark.parametrize("n_fft,k_guard,used_band", [
    (8, 0, 1), (8, 1, 3), (16, 2, 7), (32, 0, 5), (64, 0, 26), (64, 3, 26),
    (64, 8, 26), (64, 30, 31), (128, 5, 40), (256, 12, 100),
])
def test_layout_matches_subcarrier_reference(n_fft, k_guard, used_band):
    cfg = OfdmConfig(n_fft, k_guard, used_band, 0)
    guard, payload, _ = reference_layout(n_fft, k_guard, used_band)
    band = [k % n_fft for k in range(-used_band, used_band + 1)]
    assert cfg.band_indices.tolist() == band
    assert cfg.guard_indices.tolist() == guard
    assert cfg.payload_indices.tolist() == payload
    assert [band[p] for p in cfg.payload_positions] == payload
    for name in ("band_indices", "guard_indices", "payload_indices", "payload_positions"):
        assert getattr(cfg, name).dtype.kind == "i", name


def test_layout_arrays_are_read_only_and_shared():
    cfg = default_cfg()
    for name in ("band_indices", "guard_indices", "payload_indices", "payload_positions"):
        first = getattr(cfg, name)
        with pytest.raises(ValueError):
            first[0] = 1
        assert getattr(cfg, name) is first, name


def test_config_fields_are_the_layout_only():
    assert [f.name for f in dataclasses.fields(OfdmConfig)] == [
        "n_fft", "k_guard", "used_band", "cp_len"]
    cfg = default_cfg()
    assert cfg == OfdmConfig(64, 3, 26, 16) and hash(cfg) == hash(OfdmConfig(64, 3, 26, 16))
    cfg.payload_indices   # a derived array changes neither equality nor the hash
    assert cfg == OfdmConfig(64, 3, 26, 16) and hash(cfg) == hash(OfdmConfig(64, 3, 26, 16))
    assert dataclasses.replace(cfg, k_guard=0).payload_indices.size == 52


def test_plan_counts_default():
    cfg = default_cfg()
    assert PILOT_INDEX == 0
    assert len(cfg.guard_indices) == 6
    assert len(cfg.payload_indices) == 46
    assert len(null_bins(cfg)) == 11


def test_plan_counts_no_guard():
    cfg = default_cfg(k_guard=0)
    assert len(cfg.guard_indices) == 0
    assert len(cfg.payload_indices) == 52


def test_plan_partitions_all_bins():
    cfg = default_cfg()
    groups = [(PILOT_INDEX,), cfg.guard_indices, cfg.payload_indices, null_bins(cfg)]
    flat = [k for g in groups for k in g]
    assert sorted(flat) == list(range(64))
    assert len(flat) == len(set(flat))


def test_payload_indices_ascend_by_signed_subcarrier():
    cfg = default_cfg()
    assert cfg.payload_indices[0] == (-26) % 64
    assert cfg.payload_indices[-1] == 26
    signed = [k if k <= 32 else k - 64 for k in cfg.payload_indices]
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
    message = "n_fft must be a power of two" if n_fft in (48, 4) else "need 0 <= k_guard"
    with pytest.raises(ValueError, match=message):
        OfdmConfig(n_fft, k_guard, used_band, 0)


def test_ofdm_config_validation():
    for cp_len in (64, -1):
        with pytest.raises(ValueError, match=r"cp_len must be in \[0, n_fft\)"):
            OfdmConfig(64, 3, 26, cp_len)


def test_derived_quantities():
    cfg = default_cfg()
    assert cfg.symbol_len == 80


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
    assert bins[0] == PILOT_VALUE
    np.testing.assert_array_equal(bins[cfg.guard_indices], 0.0)
    np.testing.assert_array_equal(bins[null_bins(cfg)], 0.0)
    payload = bins[cfg.payload_indices]
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
    expect = map_bits(bits, Modulation.QPSK)
    np.testing.assert_allclose(bins[cfg.payload_indices], expect, atol=1e-12)
    np.testing.assert_allclose(bins[PILOT_INDEX], PILOT_VALUE, atol=1e-12)
    np.testing.assert_allclose(bins[cfg.guard_indices], 0.0, atol=1e-12)


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
