"""The exact fast forms on the simulate chunk path, each against the plain
numpy expression it replaced, bit for bit: wrap_phase's mod, the bit table of
indices_to_bits, the AWGN add of the channel, the PNC guard-window mask and
the CSV kernel's gather of its text bytes."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmwavelink import Modulation, OfdmConfig, estimate_phase, indices_to_bits, wrap_phase
from mmwavelink.channel import _add_noise
from mmwavelink.metrics import _FloatRows, _numeric_columns
from mmwavelink.ofdm import PILOT_INDEX
from mmwavelink.pnc import DEGENERATE_EPS

FAST = settings(max_examples=100, deadline=None)

shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


def bits(a) -> np.ndarray:
    """The bytes of a float or complex array, as uint64 words."""
    return np.ascontiguousarray(a).view(np.uint64)


# wrap_phase


def wrap_phase_reference(x):
    x = np.asarray(x, dtype=float)
    wrapped = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def with_warnings(f, x):
    """f(x) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(x)
    return out, [str(w.message) for w in caught]


PHASE_EDGES = [np.pi, -np.pi, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 2 * np.pi,
               -2 * np.pi, 3 * np.pi, -3 * np.pi, np.nextafter(np.pi, 4), np.nextafter(-np.pi, -4),
               1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308]

phase_inputs = st.one_of(
    hnp.arrays(np.float64, shapes, elements=st.floats() | st.sampled_from(PHASE_EDGES)),
    st.floats() | st.sampled_from(PHASE_EDGES),
    st.lists(st.floats(-1e6, 1e6) | st.integers(-10, 10), max_size=6),
)


@FAST
@given(x=phase_inputs)
@example(x=PHASE_EDGES)
@example(x=np.array(PHASE_EDGES).reshape(1, -1))
@example(x=np.array(-np.pi))
@example(x=np.empty((0, 3)))
@example(x=[])
@example(x=-0.0)
def test_wrap_phase_equals_mod_form(x):
    new, new_warnings = with_warnings(wrap_phase, x)
    old, old_warnings = with_warnings(wrap_phase_reference, x)
    assert type(new) is np.ndarray and new.dtype == old.dtype and new.shape == old.shape
    np.testing.assert_array_equal(bits(new), bits(old))
    assert new_warnings == old_warnings


def test_wrap_phase_leaves_its_input():
    x = np.array([-10.0, 0.5, 10.0])
    wrap_phase(x)
    assert x.tolist() == [-10.0, 0.5, 10.0]


# indices_to_bits


def indices_to_bits_reference(idx, modulation):
    k = modulation.bits_per_symbol
    shifts = np.arange(k, dtype=np.uint8)[::-1]
    return (np.asarray(idx).astype(np.uint8)[..., None] >> shifts) & np.uint8(1)


@st.composite
def indices(draw):
    modulation = draw(st.sampled_from(list(Modulation)))
    dtype = draw(st.sampled_from([np.intp, np.int32, np.uint8, np.uint64]))
    top = (1 << modulation.bits_per_symbol) - 1
    idx = draw(hnp.arrays(dtype, shapes, elements=st.integers(0, top)))
    return modulation, idx


@FAST
@given(case=indices())
def test_indices_to_bits_equals_shift_form(case):
    modulation, idx = case
    new = indices_to_bits(idx, modulation)
    old = indices_to_bits_reference(idx, modulation)
    assert new.dtype == old.dtype == np.uint8 and new.shape == old.shape
    np.testing.assert_array_equal(new, old)
    new[...] = 0   # a fresh array, not a view of the table


@pytest.mark.parametrize("modulation", list(Modulation))
def test_indices_to_bits_accepts_lists_and_empty_input(modulation):
    k = modulation.bits_per_symbol
    top = (1 << k) - 1
    np.testing.assert_array_equal(indices_to_bits([0, top], modulation),
                                  indices_to_bits_reference([0, top], modulation))
    assert indices_to_bits([], modulation).shape == (0, k)
    assert indices_to_bits(np.int64(top), modulation).tolist() == [1] * k


@pytest.mark.parametrize("modulation", list(Modulation))
def test_indices_to_bits_rejects_indices_outside_the_table(modulation):
    size = 1 << modulation.bits_per_symbol
    for bad in ([size], [0, -1], [256], [2 ** 40], np.array([[0, size]]), [0.5], [np.nan]):
        with pytest.raises(ValueError):
            indices_to_bits(bad, modulation)
    with pytest.raises(ValueError):
        indices_to_bits(np.array([0, size - 1, size], dtype=np.uint8), modulation)


# The channel's AWGN add


def add_noise_reference(s, real, imag, scale):
    """s += scale * (real + 1j * imag) through a complex buffer, as four complex passes."""
    buf = np.empty(s.shape, complex)
    np.add(real, np.multiply(1j, imag, out=buf), out=buf)
    np.add(s, np.multiply(scale, buf, out=buf), out=s)


finite = st.floats(-1e100, 1e100)


@st.composite
def noise_blocks(draw):
    rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    s = draw(hnp.arrays(np.complex128, (rows, n),
                        elements=st.complex_numbers(max_magnitude=1e100) |
                        st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)])))
    real = draw(hnp.arrays(np.float64, (rows, n), elements=finite))
    imag = draw(hnp.arrays(np.float64, (rows, n), elements=finite))
    scale = draw(hnp.arrays(np.float64, (rows, 1),
                            elements=st.sampled_from([0.0, 5e-324, 1e-170]) | st.floats(0, 1e100)))
    return s, real, imag, scale


@FAST
@given(block=noise_blocks())
@example(block=(np.full((2, 3), complex(-0.0, -0.0)), np.array([[1.0, -1.0, 0.5]] * 2),
                np.array([[-2.0, 1.0, -0.5]] * 2), np.array([[0.0], [1e-200]])))
def test_add_noise_equals_complex_form(block):
    s, real, imag, scale = block
    new, old = s.copy(), s.copy()
    _add_noise(new, real.copy(), imag.copy(), scale)
    add_noise_reference(old, real, imag, scale)
    # Part by part; the one exception the docstring names is a -0.0 part of s
    # whose scaled noise term is a zero.
    for new_part, old_part, s_part, term in ((new.real, old.real, s.real, scale * real),
                                             (new.imag, old.imag, s.imag, scale * imag)):
        differs = bits(new_part) != bits(old_part)
        allowed = (s_part == 0) & np.signbit(s_part) & (term == 0)
        assert not (differs & ~allowed).any()
        np.testing.assert_array_equal(new_part, old_part)


def test_add_noise_is_exact_on_normal_draws_at_scale_zero():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
    real, imag = rng.standard_normal((2, 3, 50))
    scale = np.array([[0.0], [1e-3], [2.5]])
    new, old = s.copy(), s.copy()
    _add_noise(new, real.copy(), imag.copy(), scale)
    add_noise_reference(old, real, imag, scale)
    np.testing.assert_array_equal(bits(new), bits(old))


# The PNC guard window


def estimate_phase_reference(body, cfg):
    """estimate_phase with the bins outside the window zeroed by a boolean mask."""
    body = np.asarray(body, dtype=complex)
    n = cfg.n_fft
    bins = np.fft.fft(body, norm="ortho", axis=-1)
    keep = np.zeros(n, dtype=bool)
    keep[np.append(cfg.guard_indices, PILOT_INDEX)] = True
    bins[..., ~keep] = 0.0
    raw = np.fft.ifft(bins, norm="ortho", axis=-1)
    degenerate = np.abs(raw) < DEGENERATE_EPS
    phase = np.angle(raw)
    phase[phase == -np.pi] = np.pi
    if degenerate.any():
        last_valid = np.where(~degenerate, np.arange(n), -1)
        np.maximum.accumulate(last_valid, axis=-1, out=last_valid)
        held = np.take_along_axis(phase, np.maximum(last_valid, 0), axis=-1)
        phase = np.where(last_valid >= 0, held, 0.0)
    return phase, int(degenerate.sum())


@settings(max_examples=40, deadline=None)
@given(k_guard=st.sampled_from([0, 1, 3, 8, 25]),
       shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
       seed=st.integers(0, 2 ** 32 - 1), zero_rows=st.booleans())
def test_estimate_phase_mask_equals_boolean_assignment(k_guard, shape, seed, zero_rows):
    cfg = OfdmConfig(64, k_guard, 26, 16)
    rng = np.random.default_rng(seed)
    body = rng.standard_normal(shape + (64,)) + 1j * rng.standard_normal(shape + (64,))
    if zero_rows and body.ndim > 1:
        body[..., :1, 20:] = 0.0   # degenerate samples to hold
    est = estimate_phase(body, cfg)
    phase, degenerate = estimate_phase_reference(body, cfg)
    np.testing.assert_array_equal(bits(est.per_sample_phase), bits(phase))
    assert est.degenerate_samples == degenerate


# The CSV kernel's gather


FALLBACK_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e12, -1e-5, 5e-324, 9999999999.5,
                   1234567890.5, 2.5e-5]


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(1, 4).flatmap(lambda c: st.lists(
    hnp.arrays(np.float64, st.shared(st.integers(1, 40), key="rows"),
               elements=st.floats(-1e9, 1e9) | st.sampled_from(FALLBACK_FLOATS)),
    min_size=c, max_size=c)))
def test_csv_kernel_text_equals_boolean_gather(columns):
    block, row_format = _numeric_columns(columns)
    n_columns, n = len(block), block[0].size
    rows = _FloatRows(n_columns, n)
    text = rows(block, row_format)
    # The kernel's buffers as the call left them: each row's text and its
    # kept bytes, printf rows to be spliced in.
    ok = rows.ok[:n_columns * n].reshape(n_columns, n).all(axis=0)
    keep = rows.keep[:n].copy()
    keep[~ok] = 0
    gathered = rows.text[:n][keep.view(bool)].tobytes().decode("ascii")
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    expected = [gathered[start:end] if ok[r] else
                row_format % tuple(float(c[r]) for c in block)
                for r, (start, end) in enumerate(zip([0] + ends, ends))]
    assert text == "".join(expected)
    assert text == "".join(row_format % row for row in zip(*[c.tolist() for c in block]))
