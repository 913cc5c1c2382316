import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavelink import Modulation, demap_hard, evm_db, map_bits

ALL_MODS = list(Modulation)
FAST = settings(max_examples=40, deadline=None)


def test_bits_per_symbol():
    assert [m.bits_per_symbol for m in ALL_MODS] == [1, 2, 4, 6]


@pytest.mark.parametrize("mod", ALL_MODS)
def test_constellation_unit_mean_energy(mod):
    c = mod.constellation
    assert len(c) == 2 ** mod.bits_per_symbol
    assert abs(np.mean(np.abs(c) ** 2) - 1.0) < 1e-12


def test_bpsk_mapping():
    np.testing.assert_array_equal(map_bits([0, 1], Modulation.BPSK),
                                  [-1.0 + 0.0j, 1.0 + 0.0j])


def test_qpsk_mapping():
    s = 1.0 / np.sqrt(2.0)
    got = map_bits([0, 0, 0, 1, 1, 0, 1, 1], Modulation.QPSK)
    np.testing.assert_allclose(
        got, np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * s, atol=1e-15)


def test_qam16_corner_points():
    s = 1.0 / np.sqrt(10.0)
    # First I/Q bit picks the half-axis (0 -> positive), second Gray-codes
    # the magnitude within it.
    np.testing.assert_allclose(map_bits([0, 0, 0, 0], Modulation.QAM16),
                               [(1 + 1j) * s], atol=1e-15)
    np.testing.assert_allclose(map_bits([0, 1, 0, 1], Modulation.QAM16),
                               [(3 + 3j) * s], atol=1e-15)
    np.testing.assert_allclose(map_bits([1, 0, 1, 1], Modulation.QAM16),
                               [(-1 - 3j) * s], atol=1e-15)


def test_qam64_levels_against_axis_table():
    s = 1.0 / np.sqrt(42.0)
    np.testing.assert_allclose(map_bits([0, 0, 0, 0, 0, 0], Modulation.QAM64),
                               [(3 + 3j) * s], atol=1e-15)
    np.testing.assert_allclose(map_bits([0, 1, 1, 0, 0, 0], Modulation.QAM64),
                               [(7 + 3j) * s], atol=1e-15)
    np.testing.assert_allclose(map_bits([1, 1, 1, 0, 0, 1], Modulation.QAM64),
                               [(-7 + 1j) * s], atol=1e-15)


@pytest.mark.parametrize("mod", ALL_MODS)
def test_gray_property_nearest_neighbors_differ_by_one_bit(mod):
    """Every minimum-distance pair of constellation points differs in 1 bit."""
    c = mod.constellation
    d = np.abs(c[:, None] - c[None, :])
    d[np.eye(len(c), dtype=bool)] = np.inf
    dmin = d.min()
    for i, j in zip(*np.where(np.isclose(d, dmin))):
        assert bin(i ^ j).count("1") == 1


@FAST
@pytest.mark.parametrize("mod", ALL_MODS)
@given(bits=st.lists(st.integers(0, 1), max_size=600).map(lambda v: np.array(v, dtype=np.uint8)))
def test_map_demap_round_trip(mod, bits):
    # Any whole number of symbols round-trips; a partial symbol is rejected.
    whole = bits[:bits.size // mod.bits_per_symbol * mod.bits_per_symbol]
    out = demap_hard(map_bits(whole, mod), mod)
    np.testing.assert_array_equal(out, whole)
    assert out.dtype == np.uint8
    if whole.size < bits.size:
        with pytest.raises(ValueError, match="not a multiple"):
            map_bits(bits, mod)


@pytest.mark.parametrize("mod", ALL_MODS)
def test_demap_matches_exhaustive_nearest_point(mod):
    rng = np.random.default_rng(7)
    symbols = rng.normal(size=200) + 1j * rng.normal(size=200)
    const = mod.constellation
    k = mod.bits_per_symbol
    got = demap_hard(symbols, mod).reshape(-1, k)
    for s, bits in zip(symbols, got):
        d2 = np.abs(s - const) ** 2
        idx = int(np.argmin(d2))  # argmin takes the first (lowest) index on ties
        expect = [(idx >> (k - 1 - b)) & 1 for b in range(k)]
        assert list(bits) == expect


def test_demap_tie_breaks_to_lower_index():
    # Equidistant from all four QPSK points; index 0 wins.
    np.testing.assert_array_equal(demap_hard([0.0 + 0.0j], Modulation.QPSK),
                                  [0, 0])
    # On the I axis, between indices 0 (1+1j) and 1 (1-1j).
    np.testing.assert_array_equal(
        demap_hard([1.0 / np.sqrt(2.0) + 0.0j], Modulation.QPSK), [0, 0])


def test_evm_db_known_ratio():
    # rx = 1.1, ref = 1: error power 0.01 -> -20 dB.
    assert abs(evm_db([1.1 + 0.0j], [1.0 + 0.0j]) - (-20.0)) < 1e-9


def test_evm_db_floor_for_exact_match():
    assert evm_db([1 + 1j, 2 - 1j], [1 + 1j, 2 - 1j]) == -120.0


def test_evm_db_scale_invariance():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=64) + 1j * rng.normal(size=64)
    rx = ref + 0.05 * (rng.normal(size=64) + 1j * rng.normal(size=64))
    a = 7.3 - 2.1j
    assert abs(evm_db(rx, ref) - evm_db(a * rx, a * ref)) < 1e-9


def test_evm_db_clamps_at_floor():
    # -180 dB true ratio clamps to the reporting floor.
    assert evm_db([1.0 + 1e-9j], [1.0 + 0.0j]) == -120.0


@pytest.mark.parametrize("bits,mod", [
    ([0, 1, 1], Modulation.QPSK),        # not a multiple of k
    ([0, 2], Modulation.BPSK),           # non-binary
])
def test_map_bits_rejects_bad_input(bits, mod):
    with pytest.raises(ValueError):
        map_bits(bits, mod)


def test_map_bits_rejects_2d():
    with pytest.raises(ValueError):
        map_bits(np.zeros((2, 2), dtype=int), Modulation.QPSK)


def test_evm_db_rejects_degenerate_input():
    with pytest.raises(ValueError):
        evm_db([], [])
    with pytest.raises(ValueError):
        evm_db([1 + 0j], [1 + 0j, 0j])
    with pytest.raises(ValueError):
        evm_db([1 + 0j], [0j])
