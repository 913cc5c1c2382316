"""The batched and cached paths equal their per-row, per-frame and uncached
forms exactly, bit for bit."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from helpers import channel_row
from mmwavelink import (ChannelConfig, ChannelEstimate, DecodeReport, Modulation, OfdmConfig,
                        PhaseNoiseConfig, PhaseNoiseModel, PhaseNoiseProcess, apply_channel,
                        build_frames, build_plan, cancel, decode_frames,
                        equalize, estimate_channel_ls, estimate_phase, derived_seed,
                        frame_bits_rng, frame_capacity_bits, genie_evm_db, indices_to_bits,
                        map_bits, modulate_symbol, run_frame, run_frames, slice_indices,
                        training_bins)
from mmwavelink import channel as channel_module
from mmwavelink.channel import (PN_CORNER_RATIO, SAMPLE_BLOCK, phasor, sample_blocks,
                                single_tone_probe, tone)
from mmwavelink.link import aggregate_evm_db
from mmwavelink.modulation import evm_db_from_powers
from mmwavelink.metrics import (CSV_BLOCK_ROWS, append_series_csv, psd_welch, std_in_place,
                                write_csv_header, write_series_csv)
from mmwavelink.ofdm import N_PREAMBLE_SYMBOLS

FS = 25.0e6
FAST = settings(max_examples=40, deadline=None)


def ofdm_cfg(k_guard=3):
    return OfdmConfig(plan=build_plan(64, k_guard, 26), cp_len=16, sample_rate_hz=FS)


def mid_symbol_null_body():
    # Pilot and bin +2 with opposite signs: the band-limited field is exactly
    # zero at n = 0 and n = 32 when bin 2 is kept (k_guard >= 2).
    bins = np.zeros(64, dtype=complex)
    bins[0] = 1.0
    bins[2] = -1.0
    return np.fft.ifft(bins, norm="ortho")


@FAST
@given(seed=st.integers(0, 2**32 - 1), k_guard=st.integers(0, 5),
       kinds=st.lists(st.sampled_from(["noise", "zero", "null"]), min_size=1, max_size=6))
def test_batched_estimate_phase_equals_per_row(seed, k_guard, kinds):
    cfg = ofdm_cfg(k_guard)
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "noise":
            rows.append(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        elif kind == "zero":
            rows.append(np.zeros(64, dtype=complex))
        else:
            rows.append(mid_symbol_null_body())
    bodies = np.stack(rows)
    batched = estimate_phase(bodies, cfg)
    singles = [estimate_phase(row, cfg) for row in bodies]
    np.testing.assert_array_equal(batched.per_sample_phase,
                                  np.stack([s.per_sample_phase for s in singles]))
    assert batched.degenerate_samples == sum(s.degenerate_samples for s in singles)
    np.testing.assert_array_equal(cancel(bodies, batched),
                                  np.stack([cancel(r, s) for r, s in zip(bodies, singles)]))


def test_degenerate_hold_stays_within_its_row():
    # An all-degenerate row after a normal row starts from 0, not from the
    # normal row's last phase; the mid-symbol nulls hold their own row's phase.
    cfg = ofdm_cfg(3)
    normal = np.exp(1j * 0.7) * np.fft.ifft(np.eye(64)[0], norm="ortho")
    bodies = np.stack([normal, np.zeros(64, dtype=complex), mid_symbol_null_body()])
    est = estimate_phase(bodies, cfg)
    np.testing.assert_allclose(est.per_sample_phase[0], 0.7, atol=1e-12)
    np.testing.assert_array_equal(est.per_sample_phase[1], np.zeros(64))
    assert est.per_sample_phase[2, 0] == 0.0
    assert est.per_sample_phase[2, 32] == est.per_sample_phase[2, 31]
    assert est.degenerate_samples == 64 + 2


def test_estimate_phase_accepts_higher_rank_stacks():
    cfg = ofdm_cfg()
    rng = np.random.default_rng(3)
    bodies = rng.standard_normal((2, 3, 64)) + 1j * rng.standard_normal((2, 3, 64))
    flat = estimate_phase(bodies.reshape(6, 64), cfg)
    np.testing.assert_array_equal(estimate_phase(bodies, cfg).per_sample_phase,
                                  flat.per_sample_phase.reshape(2, 3, 64))
    with pytest.raises(ValueError):
        estimate_phase(bodies[..., :63], cfg)


@pytest.mark.parametrize("cp_len", [0, 16])
def test_batched_modulate_symbol_equals_per_row(cp_len):
    cfg = OfdmConfig(plan=build_plan(64, 3, 26), cp_len=cp_len, sample_rate_hz=FS)
    rng = np.random.default_rng(4)
    bins = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    batched = modulate_symbol(bins, cfg)
    assert batched.shape == (5, 64 + cp_len)
    np.testing.assert_array_equal(batched, np.stack([modulate_symbol(b, cfg) for b in bins]))


@FAST
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 6),
       n_weak=st.integers(0, 4))
def test_batched_equalize_equals_per_row(seed, n_rows, n_weak):
    plan = ofdm_cfg().plan
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(53) + 1j * rng.standard_normal(53)
    h[rng.choice(53, n_weak, replace=False)] *= 1e-9   # erased bins
    est = ChannelEstimate(h_freq=h, noise_floor_est=0.0, plan=plan)
    bins = rng.standard_normal((n_rows, 64)) + 1j * rng.standard_normal((n_rows, 64))
    z, erased = equalize(bins, est)
    assert z.shape == erased.shape == (n_rows, len(plan.payload_indices))
    for row, z_row, erased_row in zip(bins, z, erased):
        z_one, erased_one = equalize(row, est)
        np.testing.assert_array_equal(z_row, z_one)
        np.testing.assert_array_equal(erased_row, erased_one)


@pytest.mark.parametrize("pnc_enabled", [True, False])
def test_run_frame_phase_estimate_equals_per_symbol_oracle(pnc_enabled):
    cfg = ofdm_cfg()
    # Taps that move by an ulp when normalized again: the row equals the
    # channel on the same config only if run_frame normalizes them once.
    channel = ChannelConfig(taps=(1.0, 0.2), snr_db=30.0)
    bits = frame_bits_rng(7, 2).integers(0, 2, 46 * 2 * 5, dtype=np.uint8)
    result = run_frame(bits, Modulation.QPSK, cfg, channel, pnc_enabled, 5, 7, 2)

    symbols, _ = build_frames([bits], Modulation.QPSK, cfg, 5)
    y, theta = channel_row(symbols.ravel(), channel, derived_seed(7, 2, 0))
    est, true = [], []
    for s in range(N_PREAMBLE_SYMBOLS, N_PREAMBLE_SYMBOLS + 5):
        start = s * cfg.symbol_len + cfg.cp_len
        est.append(estimate_phase(y[start:start + 64], cfg).per_sample_phase)
        true.append(theta[start:start + 64])
    np.testing.assert_array_equal(result.theta_est, np.concatenate(est)[None])
    np.testing.assert_array_equal(result.theta_true_bodies, np.concatenate(true)[None])

    report = decode_frames(y[None], cfg, Modulation.QPSK, pnc_enabled)
    np.testing.assert_array_equal(report.bits, result.report.bits)
    if pnc_enabled:
        np.testing.assert_array_equal(report.phase[0], np.stack(est))
    else:
        assert report.phase is None


def reference_trajectory(sigma, bandwidth_hz, seed, n):
    """Filtered-Gaussian theta(n) with the shaping filter designed from scratch."""
    rng = np.random.default_rng(seed)
    sos = signal.butter(3, bandwidth_hz / PN_CORNER_RATIO, fs=FS, output="sos")
    poles = np.concatenate([np.roots(section[3:6]) for section in sos])
    slowest = min(max(np.abs(poles)), 1.0 - 1e-12)
    n_settle = int(min(max(np.ceil(-12.0 / np.log(slowest)), 64), 2 ** 22))
    impulse = np.zeros(n_settle)
    impulse[0] = 1.0
    energy = float(np.sum(signal.sosfilt(sos, impulse) ** 2))
    drive_std = sigma / np.sqrt(energy)
    _, zi = signal.sosfilt(sos, drive_std * rng.standard_normal(n_settle),
                           zi=np.zeros((sos.shape[0], 2)))
    theta, _ = signal.sosfilt(sos, drive_std * rng.standard_normal(n), zi=zi)
    return theta


@FAST
@given(draws=st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.26, 1.5]),
                                st.sampled_from([2.0e5, 1.0e6, 3.0e6]),
                                st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=5))
def test_phase_noise_trajectory_matches_uncached_design(draws):
    # Repeated bandwidths with other sigmas hit the cached filter design;
    # new bandwidths miss it. Both must give the uncached trajectory.
    for sigma, bandwidth_hz, seed in draws:
        process = PhaseNoiseProcess(PhaseNoiseConfig(sigma=sigma, bandwidth_hz=bandwidth_hz),
                                    FS, [seed])
        np.testing.assert_array_equal(process.generate(300)[0],
                                      reference_trajectory(sigma, bandwidth_hz, seed, 300))


def test_phase_noise_rows_equal_per_process_across_warm_up_blocks():
    # Two successive draws of a stacked process equal, row by row, one draw of
    # that row alone, for every model. At 10 kHz the 152,789-sample warm-up
    # spans 9 SAMPLE_BLOCK blocks, each filtered for all rows in one call, so
    # every block's final state must carry into the next and into the draws;
    # the first row must also equal a warm-up filtered in one piece.
    seeds, lengths = [3, 4, 5], (500, 300)
    settle = channel_module._shaping_filter(1.0e4, FS)[1]
    assert settle == 152_789 and len(sample_blocks(settle)) == 9
    for bandwidth_hz in (PhaseNoiseConfig().bandwidth_hz, 1.0e4):
        for model in PhaseNoiseModel:
            config = PhaseNoiseConfig(sigma=0.26, bandwidth_hz=bandwidth_hz, model=model)
            expect = np.concatenate([PhaseNoiseProcess(config, FS, [s]).generate(sum(lengths))
                                     for s in seeds])
            stacked = PhaseNoiseProcess(config, FS, seeds)
            draws = [stacked.generate(n) for n in lengths]
            np.testing.assert_array_equal(np.concatenate(draws, axis=1), expect)
        np.testing.assert_array_equal(
            PhaseNoiseProcess(PhaseNoiseConfig(bandwidth_hz=bandwidth_hz), FS, seeds)
            .generate(sum(lengths))[0],
            reference_trajectory(0.26, bandwidth_hz, seeds[0], sum(lengths)))


def test_training_bins_is_a_read_only_cache():
    cfg = ofdm_cfg()
    first = training_bins(cfg)
    frame_before, _ = build_frames([np.zeros(92, dtype=np.uint8)], Modulation.QPSK, cfg, 1)
    with pytest.raises(ValueError):
        first[:] = 0.0
    assert training_bins(ofdm_cfg()) is first
    assert np.count_nonzero(first) == 1 + len(cfg.plan.payload_indices)
    frame_after, _ = build_frames([np.zeros(92, dtype=np.uint8)], Modulation.QPSK, cfg, 1)
    np.testing.assert_array_equal(frame_after, frame_before)


def csv_writer_reference(path, header, columns):
    """write_series_csv as it was written with csv.writer, value by value."""
    columns = [np.asarray(c).ravel() for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.10g}" if isinstance(v, (float, np.floating)) else v
                             for v in row])


def neighbours(x: float, ulps: int = 3) -> list:
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[1:] + [x] + above[1:]


def kernel_edge_floats() -> list:
    """Doubles on which the float kernel's "%.10g" is easy to get wrong; plain
    st.floats() almost never draws them."""
    edges = []
    # Powers of ten, where log10 can be off by one; 1e-4 and 1e10 bound the
    # kernel's range.
    for j in range(-5, 12):
        edges += neighbours(float(f"1e{j}"))
    # Roundings that carry across a power of ten (9.9999999997 -> 10), and
    # the ties where they start.
    for j in range(-5, 10):
        edges += neighbours(float(f"9.9999999995e{j}"))
        edges += [float(f"9.9999999997e{j}"), float(f"9.99999999999e{j}")]
    # Exact ties at the 11th significant digit: k / 2^(j + 1) with k odd and
    # k 5^(j + 1) of eleven digits is k 5^(j + 1) 10^-(j + 1), ending in 5.
    for j in range(14):
        low = -(-10 ** 10 // 5 ** (j + 1)) | 1
        edges += [k / 2 ** (j + 1) for k in range(low, low + 6, 2)]
    return edges


KERNEL_EDGE_FLOATS = kernel_edge_floats()
SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                  0.1, 123456789012345.0, -2.5e-17] + KERNEL_EDGE_FLOATS

column_strategy = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS),
             max_size=30).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(width=32), max_size=30).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=30).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=30).map(lambda v: np.array(v, dtype=bool)),
)


@settings(max_examples=60, deadline=None)
@given(columns=st.lists(column_strategy, max_size=4))
def test_write_series_csv_matches_csv_writer(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(columns))]
    write_series_csv(tmp / "new.csv", header, columns)
    csv_writer_reference(tmp / "old.csv", header, columns)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_write_series_csv_matches_csv_writer_across_chunks(tmp_path):
    rng = np.random.default_rng(5)
    n = 10_001   # spans several write blocks (CSV_BLOCK_ROWS rows each)
    columns = [np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
               np.resize(np.array(SPECIAL_FLOATS), n), np.array([], dtype=float)]
    header = ["frame", "value, with comma", "special", "empty"]
    for cols in (columns[:3], columns):
        write_series_csv(tmp_path / "new.csv", header[:len(cols)], cols)
        csv_writer_reference(tmp_path / "old.csv", header[:len(cols)], cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_kernel_edge_floats_are_ties_and_carries():
    ties = [v for v in KERNEL_EDGE_FLOATS if (d := repr(v).replace(".", "").strip("0"))
            and len(d) == 11 and d.endswith("5")]
    assert len(ties) >= 40
    assert f"{9.9999999997:.10g}" == "10" and f"{9.9999999997e9:.10g}" == "1e+10"


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_write_series_csv_kernel_edges_match_csv_writer(tmp_path, dtype):
    edges = np.array(KERNEL_EDGE_FLOATS + [0.0, np.nan, np.inf])
    with np.errstate(over="ignore"):   # float16 overflows to inf
        column = np.concatenate([edges, -edges]).astype(dtype)
    columns = [column, column[::-1].copy()]
    write_series_csv(tmp_path / "new.csv", ["a", "b"], columns)
    csv_writer_reference(tmp_path / "old.csv", ["a", "b"], columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_series_csv_long_float_columns_with_fallback_rows(tmp_path):
    # Float columns across three kernel blocks, with printf rows at and
    # between the block edges.
    n = 2 * CSV_BLOCK_ROWS + 7
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal(n), rng.standard_normal(n) * 1e3
    for i, v in zip([0, 1, 17, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3000,
                     n - 1], [0.0, np.nan, -np.inf, 1e-5, 1e12, 1234567890.5, -0.0, 9999999999.5]):
        a[i] = v
    b[2 * CSV_BLOCK_ROWS] = 0.0
    b[5] = 2.5e-5
    write_series_csv(tmp_path / "new.csv", ["a", "b"], [a, b])
    csv_writer_reference(tmp_path / "old.csv", ["a", "b"], [a, b])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    with open(tmp_path / "parts.csv", "w", newline="") as fh:
        write_csv_header(fh, ["a", "b"])
        for start in range(0, n, 1000):
            append_series_csv(fh, [a[start:start + 1000], b[start:start + 1000]])
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_write_series_csv_rejects_non_numeric_columns(tmp_path):
    with pytest.raises(TypeError):
        write_series_csv(tmp_path / "s.csv", ["s"], [np.array(["a,b"])])
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("parts", [[0, 16, 32, 37, 2500], [0, 1, 2, 1030, 2500], [0, 2500]])
def test_appended_parts_equal_one_write(tmp_path, parts):
    # simulate appends its rows one chunk at a time.
    rng = np.random.default_rng(6)
    columns = [np.arange(2500), rng.standard_normal(2500), rng.standard_normal(2500)]
    write_series_csv(tmp_path / "whole.csv", ["frame", "a", "b"], columns)
    with open(tmp_path / "parts.csv", "w", newline="") as fh:
        write_csv_header(fh, ["frame", "a", "b"])
        for a, b in zip(parts, parts[1:]):
            append_series_csv(fh, [c[a:b] for c in columns])
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def assert_row_equals(stack, f, single):
    """Row f of a FrameStack equals the one row of the stack `single`, bit for
    bit, in every field."""
    rows = [(getattr(stack.report, field.name), getattr(single.report, field.name))
            for field in dataclasses.fields(DecodeReport)]
    rows += [(getattr(stack, name), getattr(single, name))
             for name in ("tx_bits", "theta_est", "theta_true_bodies")]
    for a, b in rows:
        if a is None or b is None:   # the PNC phase, with PNC off
            assert a is None and b is None
        else:
            assert len(b) == 1
            assert_same_bytes(np.asarray(a[f]), np.asarray(b[0]))
    assert stack.samples_per_frame == single.samples_per_frame


def null_taps(k0):
    """Two taps whose response is zero on subcarrier k0."""
    return (1.0, -np.exp(2j * np.pi * k0 / 64))


TAPS = st.one_of(
    st.just((1.0,)),
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=4).map(
        lambda v: (1.0,) + tuple(complex(re, im) for re, im in v[1:])),
    st.sampled_from([null_taps(6), null_taps(-9)]),
)


@settings(max_examples=60, deadline=None)
@given(modulation=st.sampled_from(list(Modulation)), pnc_enabled=st.booleans(),
       taps=TAPS, cfo_hz=st.sampled_from([0.0, 5000.0, 40000.0]),
       model=st.sampled_from(list(PhaseNoiseModel)),
       sigma=st.sampled_from([0.0, 0.05, 0.26]), snr_db=st.sampled_from([None, 8.0, 35.0]),
       k_guard=st.integers(0, 4), n_payload_symbols=st.integers(1, 3),
       run_seed=st.integers(0, 2**32 - 1), first_frame=st.integers(0, 10_000),
       fills=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_run_frames_equals_run_frame(modulation, pnc_enabled, taps, cfo_hz, model, sigma,
                                     snr_db, k_guard, n_payload_symbols, run_seed,
                                     first_frame, fills):
    # A frame's result must not depend on the batch it ran in, at any offset.
    cfg = ofdm_cfg(k_guard)
    channel = ChannelConfig(taps=taps, snr_db=math.inf if snr_db is None else snr_db,
                            phase_noise=PhaseNoiseConfig(sigma=sigma, model=model),
                            cfo_hz=cfo_hz)
    capacity = frame_capacity_bits(cfg, modulation, n_payload_symbols)
    rng = np.random.default_rng(run_seed)
    bits = [rng.integers(0, 2, int(fill * capacity), dtype=np.uint8) for fill in fills]
    batched = run_frames(bits, modulation, cfg, channel, pnc_enabled, n_payload_symbols,
                         run_seed, first_frame)
    assert len(batched.tx_bits) == len(bits)
    for f in range(len(bits)):
        single = run_frame(bits[f], modulation, cfg, channel, pnc_enabled, n_payload_symbols,
                           run_seed, first_frame + f)
        assert_row_equals(batched, f, single)


def old_power_db(err_power, ref_power):
    """The dB formula of the per-symbol loop the batched decoder replaced,
    here applied to a whole frame."""
    if err_power <= 0.0 or ref_power <= 0.0:
        return -120.0
    return max(10.0 * float(np.log10(err_power / ref_power)), -120.0)


def frame_evm_reference(y, cfg, modulation, pnc_enabled):
    """A frame's EVM as masked means over its decided points."""
    bodies = y.reshape(-1, cfg.symbol_len)[:, cfg.cp_len:]
    if pnc_enabled:
        bodies = cancel(bodies, estimate_phase(bodies, cfg))
    bins = np.fft.fft(bodies, norm="ortho", axis=-1)
    est = estimate_channel_ls(bins[:N_PREAMBLE_SYMBOLS], training_bins(cfg), cfg.plan)
    points, erased = equalize(bins[N_PREAMBLE_SYMBOLS:], est)
    bits = indices_to_bits(slice_indices(points, modulation), modulation)
    bits[erased] = 0
    decided = map_bits(bits.reshape(-1), modulation).reshape(points.shape)
    ok = ~erased
    ref = float(np.mean(np.abs(decided[ok]) ** 2)) if ok.any() else 1.0
    err = float(np.mean(np.abs(points[ok] - decided[ok]) ** 2)) if ok.any() else 0.0
    return old_power_db(err, ref), int(erased.sum())


@pytest.mark.parametrize("taps,pn,erasures", [
    ((1.0, 0.3 + 0.2j), PhaseNoiseConfig(sigma=0.26), False),
    (null_taps(6), PhaseNoiseConfig(sigma=0.0, model=PhaseNoiseModel.NONE), True),
])
@pytest.mark.parametrize("pnc_enabled", [True, False])
def test_frame_evm_matches_masked_means(taps, pn, erasures, pnc_enabled):
    # Row sums without erasures, masked sums with them; the frame sums keep
    # their bytes either way (golden tests), and the frame EVM agrees with
    # masked means over the frame's decided points.
    cfg = ofdm_cfg(3)
    channel = ChannelConfig(taps=taps, snr_db=math.inf if erasures else 25.0, phase_noise=pn)
    bits = frame_bits_rng(9, 4).integers(0, 2, 46 * 4 * 5, dtype=np.uint8)
    symbols, _ = build_frames([bits], Modulation.QAM16, cfg, 5)
    y, _ = channel_row(symbols.ravel(), channel, derived_seed(9, 4, 0))
    report = decode_frames(y[None], cfg, Modulation.QAM16, pnc_enabled)
    expect, n_erased = frame_evm_reference(y, cfg, Modulation.QAM16, pnc_enabled)
    assert report.n_erased[0] == n_erased and (n_erased > 0) == erasures
    np.testing.assert_allclose(report.evm_db[0], expect, rtol=0.0, atol=1e-12)


def table_argmin(z, modulation):
    """The distance-table demapper the slicer replaced."""
    with np.errstate(all="ignore"):
        return np.argmin(np.abs(z[:, None] - modulation.constellation[None, :]) ** 2, axis=1)


def axis_specials():
    """Levels and thresholds of every modulation's axes, zeros and far values."""
    values = {0.0, -0.0, 1e6, -1e6, 5e-324, -5e-324}
    for mod in Modulation:
        for levels in (np.unique(mod.constellation.real), np.unique(mod.constellation.imag)):
            values.update(levels.tolist())
            values.update(((levels[1:] + levels[:-1]) / 2.0).tolist())
    return sorted(values)


SPECIALS = axis_specials()
COORDINATE = st.one_of(
    st.sampled_from(SPECIALS),
    st.tuples(st.sampled_from(SPECIALS),
              st.sampled_from([5e-324, -5e-324, 1e-310, -2.2e-308, 1e-16, -1e-16, 1e-9])).map(
        lambda v: v[0] + v[1]),
    st.sampled_from(SPECIALS).map(lambda v: float(np.nextafter(v, np.inf))),
    st.sampled_from(SPECIALS).map(lambda v: float(np.nextafter(v, -np.inf))),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(modulation=st.sampled_from(list(Modulation)),
       coords=st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1, max_size=40))
def test_slicer_equals_table_argmin(modulation, coords):
    z = np.array([complex(re, im) for re, im in coords])
    with np.errstate(all="ignore"):
        got = slice_indices(z, modulation)
    np.testing.assert_array_equal(got, table_argmin(z, modulation))


@pytest.mark.parametrize("modulation", list(Modulation))
def test_slicer_equals_table_argmin_on_noisy_points(modulation):
    rng = np.random.default_rng(17)
    sent = modulation.constellation[rng.integers(0, len(modulation.constellation), 20_000)]
    for scale in (0.01, 0.2, 1.0, 5.0):
        z = sent + scale * (rng.standard_normal(sent.size) + 1j * rng.standard_normal(sent.size))
        np.testing.assert_array_equal(slice_indices(z, modulation), table_argmin(z, modulation))
    # Shapes are kept, and erased 0+0j points take the lower table index.
    assert slice_indices(np.zeros((2, 3), dtype=complex), modulation).shape == (2, 3)
    assert slice_indices(np.zeros(1, dtype=complex), modulation)[0] == table_argmin(
        np.zeros(1, dtype=complex), modulation)[0]


def assert_same_bytes(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def reference_probe(freq_hz, n_samples, cfg, seed, measured_power=False):
    """single_tone_probe's input tone, received samples and phase noise, in
    the whole-buffer expressions of the one-shot channel. The SNR's signal
    power is the tone's closed form, as the probe takes it, or with
    measured_power np.mean of |s|^2, as apply_channel takes it.

    Each complex product is a call np.multiply(s, t): numpy computes the
    operator's `s * t` as `t * s` when the temporary t is large enough to
    reuse, and the two orders round differently.
    """
    n = np.arange(n_samples)
    x = phasor(n * (2 * np.pi * freq_hz / cfg.sample_rate_hz))
    h = np.asarray(cfg.taps, dtype=complex)
    theta = PhaseNoiseProcess(cfg.phase_noise, cfg.sample_rate_hz,
                              [channel_module._stream_seed(seed, 0)]).generate(n_samples)[0]
    s = np.convolve(x, h)[:n_samples] if h.size > 1 else x * h[0]
    if cfg.cfo_hz:
        np.multiply(s, phasor(n * (2 * np.pi * cfg.cfo_hz / cfg.sample_rate_hz)), out=s)
    y = np.multiply(s, phasor(theta))
    if math.isfinite(cfg.snr_db):
        signal_power = (np.mean(np.abs(s) ** 2) if measured_power
                        else channel_module._tone_power(freq_hz, n_samples, cfg))
        noise_var = signal_power * 10.0 ** (-cfg.snr_db / 10.0)
        rng = np.random.default_rng(channel_module._stream_seed(seed, 1))
        w = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
        )
        y = y + w
    return x, y, theta


def reference_tone_phase(y, x):
    """The phase of y mixed down by the conjugate of the sent tone x."""
    phase = np.unwrap(np.angle(np.multiply(y, np.conjugate(x))))
    return phase - phase.mean()


def test_sample_blocks_fold_the_tail_into_the_last_block():
    assert sample_blocks(0) == [(0, 0)]
    assert sample_blocks(2 * SAMPLE_BLOCK - 1) == [(0, 2 * SAMPLE_BLOCK - 1)]
    assert sample_blocks(2 * SAMPLE_BLOCK + 5) == [(0, SAMPLE_BLOCK),
                                                   (SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 5)]


BLOCK_SIZES = [k * SAMPLE_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@pytest.mark.parametrize("block", [1000, 4096])
def test_channel_and_phase_noise_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    # Every operation is elementwise in one operand order, so blocks of any
    # size give the bytes of SAMPLE_BLOCK's. At 10 kHz the block size also
    # splits the phase noise warm-up (152,789 samples) differently.
    x = np.exp(0.01j * np.arange(3 * 20_000)).reshape(3, -1)
    for bandwidth_hz in (PhaseNoiseConfig().bandwidth_hz, 1.0e4):
        cfg = ChannelConfig(taps=(1.0, 0.3 + 0.2j, 0.1), snr_db=20.0, cfo_hz=5000.0,
                            phase_noise=PhaseNoiseConfig(bandwidth_hz=bandwidth_hz))
        expect = single_tone_probe(1.3e6, 20_000, cfg, 3), *apply_channel(x, cfg, [1, 2, 3])
        monkeypatch.setattr(channel_module, "SAMPLE_BLOCK", block)
        assert len(sample_blocks(20_000)) == 20_000 // block
        got = single_tone_probe(1.3e6, 20_000, cfg, 3), *apply_channel(x, cfg, [1, 2, 3])
        monkeypatch.undo()
        for a, b in zip(got, expect):
            assert_same_bytes(a, b)


@settings(max_examples=30, deadline=None)
@given(n_samples=st.one_of(st.sampled_from(BLOCK_SIZES), st.integers(1, 3000)),
       taps=TAPS, cfo_hz=st.sampled_from([0.0, 5000.0]),
       model=st.sampled_from(list(PhaseNoiseModel)), snr_db=st.sampled_from([None, 8.0, 30.0]),
       tone_hz=st.sampled_from([FS / 8, -1.3e6, 0.0, -0.0]), seed=st.integers(0, 2**32 - 1))
def test_blocked_probe_and_phase_equal_one_shot(n_samples, taps, cfo_hz, model, snr_db,
                                                tone_hz, seed):
    cfg = ChannelConfig(taps=taps, snr_db=math.inf if snr_db is None else snr_db,
                        phase_noise=PhaseNoiseConfig(sigma=0.26, model=model),
                        cfo_hz=cfo_hz)
    x, y_ref, theta_ref = reference_probe(tone_hz, n_samples, cfg, seed)
    assert_same_bytes(single_tone_probe(tone_hz, n_samples, cfg, seed),
                      reference_tone_phase(y_ref, x))
    # The channel on a stack of one takes the same blocked path from an array,
    # and measures the signal power.
    _, y_ref, _ = reference_probe(tone_hz, n_samples, cfg, seed, measured_power=True)
    y, theta = channel_row(x, cfg, seed)
    assert_same_bytes(y, y_ref)
    assert_same_bytes(theta, theta_ref)


# Signed zeros, subnormals, the extremes and the values around pi.
PHASOR_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                   -2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                   -1.7976931348623157e308, np.pi, -np.pi, 2 * np.pi, 1e6, -1e6]

EPS = np.finfo(float).eps


def assert_phasors_close(got, expect, phase_error):
    """|got - expect| within phase_error (rad, per sample) plus 2 eps, the
    rounding of a cos or sin of magnitude at most 1 on either side."""
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.all(np.abs(got - expect) <= phase_error + 2 * EPS)


@FAST
@given(theta=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300),
       sign=st.sampled_from([1, -1]))
def test_phasor_equals_complex_exp(theta, sign):
    # phasor and np.exp take the same phase, so only the cos and sin
    # roundings differ.
    theta = np.array(theta + PHASOR_SPECIALS)
    expect = np.exp(1j * theta) if sign > 0 else np.exp(-1j * theta)
    assert_phasors_close(phasor(theta, sign), expect, 0.0)
    # A strided (F, n) view, as the channel's blocks of a stack are.
    rows = np.stack([theta, theta[::-1]])[:, 1:]
    expect = np.exp(1j * rows) if sign > 0 else np.exp(-1j * rows)
    assert_phasors_close(phasor(rows, sign), expect, 0.0)


TONE_FREQS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, FS / 8, -FS / 8]),
                       st.floats(-FS / 2, FS / 2, exclude_min=True, exclude_max=True))


def tone_phase_error(freq_hz, n):
    """Bound on |tone's phase - np.exp's| at samples n. tone's phase
    n * (2 pi f / fs) and np.exp's 2j pi f n / fs are each rounded three
    times, each rounding within eps / 2 of its result, so they differ by at
    most about 3 eps |phase|, 3 to 6 ulps of the phase; the bound is 4 eps."""
    return 4 * EPS * np.abs(2 * np.pi * freq_hz / FS * n)


@FAST
@given(freq_hz=TONE_FREQS, start=st.integers(0, 2**22), length=st.integers(1, 2**17),
       sign=st.sampled_from([1, -1]))
@example(freq_hz=-FS / 8, start=0, length=3, sign=1)
@example(freq_hz=-5e-324, start=0, length=1, sign=1)
@example(freq_hz=-0.0, start=0, length=2, sign=-1)
@example(freq_hz=0.0, start=0, length=2, sign=1)
def test_tone_equals_complex_exp(freq_hz, start, length, sign):
    n = np.arange(start, start + length)
    expect = np.exp(sign * 2j * np.pi * freq_hz * n / FS)
    assert_phasors_close(tone(sign * freq_hz, start, start + length, FS), expect,
                         tone_phase_error(freq_hz, n))


@FAST
@given(freq_hz=TONE_FREQS, start=st.integers(0, 2**22), length=st.integers(1, 2**17))
@example(freq_hz=-0.0, start=0, length=2)
@example(freq_hz=5e-324, start=3, length=2)
@example(freq_hz=FS / 8, start=0, length=3)
def test_tone_conjugate_equals_negated_tone(freq_hz, start, length):
    # The probe mixes down by the tone's conjugate: the tone at -freq_hz.
    n = np.arange(start, start + length)
    t = tone(freq_hz, start, start + length, FS)
    expect = np.exp(-2j * np.pi * freq_hz * n / FS)
    assert_phasors_close(np.conjugate(t), expect, tone_phase_error(freq_hz, n))
    assert_phasors_close(tone(-freq_hz, start, start + length, FS), expect,
                         tone_phase_error(freq_hz, n))


# The closed form sums at most 8 partial sums, and the explicit mean sums
# n_samples values of |s|^2, each rounded in the convolution, the CFO product
# and the square, so the two differ in rounding only, in units of the largest
# power the taps can give, (sum |h_l|)^2. Over 3,000 random draws of a
# prototype (1-8 real or complex taps, some summing to zero, tones at 0,
# -0.0, +-fs/8, -1.3 MHz and uniform in (-fs/2, fs/2), CFO 0 or 5 kHz, 1 to
# 3 * SAMPLE_BLOCK samples) the largest difference was 2.9 eps of that unit;
# the bound is 16 eps.
TONE_POWER_TOLERANCE = 16 * EPS
CLOSED_FORM_TAPS = st.one_of(
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.lists(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=8),
).filter(lambda taps: np.sum(np.abs(np.array(taps)) ** 2) > 1e-100)


@FAST
@given(taps=CLOSED_FORM_TAPS, tone_hz=TONE_FREQS, cfo_hz=st.sampled_from([0.0, 5000.0]),
       n_samples=st.one_of(st.integers(1, 8), st.integers(1, 3 * SAMPLE_BLOCK)))
@example(taps=[1.0, 0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.3], tone_hz=-0.0, cfo_hz=5000.0,
         n_samples=3)
@example(taps=[0.5, -0.5], tone_hz=0.0, cfo_hz=0.0, n_samples=SAMPLE_BLOCK)
@example(taps=[1.0, 0.3j, -0.2], tone_hz=FS / 8, cfo_hz=5000.0, n_samples=3 * SAMPLE_BLOCK)
@example(taps=[1.0, 0.2], tone_hz=-1.3e6, cfo_hz=0.0, n_samples=1)
def test_tone_power_equals_mean_power_of_the_sent_tone(taps, tone_hz, cfo_hz, n_samples):
    # The probe's SNR power, in closed form, against np.mean of |s|^2 of the
    # tone convolved with the taps and rotated by the CFO.
    cfg = ChannelConfig(taps=tuple(taps), cfo_hz=cfo_hz)
    h = np.asarray(cfg.taps)
    s = np.convolve(tone(tone_hz, 0, n_samples, FS), h)[:n_samples]
    if cfo_hz:
        s *= tone(cfo_hz, 0, n_samples, FS)
    expect = np.mean(np.abs(s) ** 2)
    got = channel_module._tone_power(tone_hz, n_samples, cfg)
    assert abs(got - expect) <= TONE_POWER_TOLERANCE * np.sum(np.abs(h)) ** 2


DENSE_N = 3 * SAMPLE_BLOCK + 1234


def test_tone_phase_with_dense_wraps_equals_np_unwrap():
    # A CFO of fs/1024 turns the baseband phase once per 1,024 samples, and
    # the tap's phase makes it pass pi halfway between samples k*1024 - 1
    # and k*1024: a wrap falls on every block's first sample.
    cfg = ChannelConfig(taps=(np.exp(1j * (np.pi + np.pi / 1024)),), snr_db=math.inf,
                        phase_noise=PhaseNoiseConfig(model=PhaseNoiseModel.NONE),
                        cfo_hz=FS / 1024)
    x, y, _ = reference_probe(FS / 8, DENSE_N, cfg, 0)
    dd = np.diff(np.angle(y * np.conjugate(x)))
    for a, _ in sample_blocks(DENSE_N)[1:]:
        assert not abs(dd[a - 1]) < np.pi
    assert np.count_nonzero(~(abs(dd) < np.pi)) > 3 * SAMPLE_BLOCK // 1024
    assert_same_bytes(single_tone_probe(FS / 8, DENSE_N, cfg, 0), reference_tone_phase(y, x))
    # A probe at 0 dB SNR, whose noise makes jumps at random samples.
    cfg = ChannelConfig(snr_db=0.0)
    x, y, _ = reference_probe(FS / 8, DENSE_N, cfg, 11)
    assert_same_bytes(single_tone_probe(FS / 8, DENSE_N, cfg, 11), reference_tone_phase(y, x))


def reference_psd_welch(samples, sample_rate_hz, nfft):
    """psd_welch through scipy.signal.welch."""
    freqs, density = signal.welch(samples, fs=sample_rate_hz, window="hann", nperseg=nfft,
                                  noverlap=int(round(nfft * 0.5)), detrend="constant",
                                  return_onesided=False, scaling="density")
    order = np.argsort(freqs)
    return freqs[order], 10.0 * np.log10(np.maximum(density[order], 1e-300))


# psd_welch sums 8 segments per real FFT call and mirrors the sum, and
# scipy.signal.welch averages all of them at once with a complex FFT, so the
# two differ in rounding only. The sum in another order moves a bin by about
# n_segments * eps (2.4e-13 at 1,100 segments), and an FFT's rounding is
# about eps * log2(nfft) of its segment's norm, which weighs more in the weak
# bins of these random walks, 100 dB below the strongest. The largest
# difference seen over 400 such inputs was 6.4e-13 dB (8.5e-12 dB with a
# complex FFT in psd_welch); WELCH_TOLERANCE_DB, a relative power difference
# of 2.3e-10, is about 100 times the latter.
WELCH_TOLERANCE_DB = 1e-9


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(
           st.tuples(st.one_of(st.integers(16, 4096), st.sampled_from([16, 1024, 4096])),
                     st.integers(1, 140)),
           st.tuples(st.just(16), st.one_of(st.sampled_from([256, 257, 975, 1031]),
                                            st.integers(141, 1100)))),
       extra=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
@example(shape=(16, 256), extra=0, seed=1)
@example(shape=(16, 257), extra=3, seed=2)
@example(shape=(16, 975), extra=7, seed=3)
@example(shape=(16, 1031), extra=15, seed=4)
@example(shape=(3, 200), extra=1, seed=5)
@example(shape=(17, 140), extra=2, seed=6)
def test_blocked_psd_welch_equals_scipy_welch(shape, extra, seed):
    nfft, n_segments = shape
    hop = nfft - round(nfft / 2)
    rng = np.random.default_rng(seed)
    n = nfft + hop * (n_segments - 1) + extra
    x = np.cumsum(rng.standard_normal(n)) + 3.0
    est = psd_welch(x, FS, nfft=nfft)
    freqs, power_db = reference_psd_welch(x, FS, nfft)
    assert_same_bytes(est.freqs_hz, freqs)
    np.testing.assert_allclose(est.power_db, power_db, rtol=0, atol=WELCH_TOLERANCE_DB)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_psd_welch_rejects_complex_samples(dtype):
    # The Welch sum runs a real FFT; complex samples, even with zero
    # imaginary parts, are refused rather than silently mirrored.
    with pytest.raises(ValueError, match="real samples"):
        psd_welch(np.ones(64, dtype=dtype), FS, nfft=16)


# Full 16-frame chunks of 12 payload symbols: a (16, 1120) complex stack is
# past numpy's 256 KiB threshold for reusing temporaries, so a stacked
# expression whose operand order flips there differs from the one-frame run.
# Rows of (2 + 205) * 80 = 16,560 samples are past it on their own, and rows
# of (2 + 420) * 80 = 33,760 span two of the channel's SAMPLE_BLOCK blocks.
@pytest.mark.parametrize("pnc_enabled,cfo_hz,n_frames,n_payload_symbols", [
    (False, 0.0, 16, 12), (True, 0.0, 16, 12), (False, 5000.0, 16, 12),
    (True, 5000.0, 16, 12), (False, 5000.0, 2, 205), (True, 5000.0, 2, 205),
    (False, 5000.0, 2, 420), (True, 5000.0, 2, 420)])
def test_full_chunk_run_frames_equals_run_frame(pnc_enabled, cfo_hz, n_frames,
                                                n_payload_symbols):
    cfg = ofdm_cfg(3 if pnc_enabled else 0)
    channel = ChannelConfig(taps=(1.0, 0.3 + 0.2j, 0.1), snr_db=35.0,
                            phase_noise=PhaseNoiseConfig(sigma=0.26), cfo_hz=cfo_hz)
    capacity = frame_capacity_bits(cfg, Modulation.QAM64, n_payload_symbols)
    bits = [frame_bits_rng(9, i).integers(0, 2, capacity, dtype=np.uint8)
            for i in range(n_frames)]
    batched = run_frames(bits, Modulation.QAM64, cfg, channel, pnc_enabled,
                         n_payload_symbols, 9, 32)
    assert len(batched.tx_bits) == n_frames
    for f in range(n_frames):
        single = run_frame(bits[f], Modulation.QAM64, cfg, channel, pnc_enabled,
                           n_payload_symbols, 9, 32 + f)
        assert_row_equals(batched, f, single)


@pytest.mark.parametrize("modulation,channel,pnc_enabled", [
    (Modulation.QPSK, ChannelConfig(taps=(1.0, 0.3 + 0.2j, 0.1), snr_db=30.0), True),
    (Modulation.QAM64, ChannelConfig(taps=(1.0, 0.2), snr_db=25.0), False),
    # A noiseless null on subcarrier 6: every frame has erased bins.
    (Modulation.QAM16, ChannelConfig(taps=null_taps(6), phase_noise=PhaseNoiseConfig(
        sigma=0.0, model=PhaseNoiseModel.NONE), snr_db=math.inf), True),
])
def test_stacked_genie_equals_per_frame_genie(modulation, channel, pnc_enabled):
    # simulate takes the genie EVM of a whole chunk in one call; each frame's
    # value must equal the one of that frame alone, erased bins included.
    cfg = ofdm_cfg(3)
    capacity = frame_capacity_bits(cfg, modulation, 4)
    bits = [frame_bits_rng(8, i).integers(0, 2, capacity, dtype=np.uint8) for i in range(16)]
    result = run_frames(bits, modulation, cfg, channel, pnc_enabled, 4, 8)
    stacks = [result.report.points, result.tx_bits, result.report.erased]
    stacked = genie_evm_db(*stacks, modulation)
    assert stacked.shape == (16,)
    assert stacks[2].reshape(16, -1).any(axis=-1).all() == (modulation is Modulation.QAM16)
    for f in range(16):
        assert genie_evm_db(*[s[f:f + 1] for s in stacks], modulation)[0] == stacked[f]


@FAST
@given(shape=st.sampled_from([(1, 1), (3, 768), (37, 384), (400, 768), (5000,)]),
       scale=st.sampled_from([1e-3, 1.0, 3.0]), offset=st.sampled_from([0.0, 0.4, -2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_std_in_place_equals_np_std(shape, scale, offset, seed):
    # simulate takes the residual phase std of a whole run (ddof 0), and
    # measure-pn the fitted std of its phase (ddof 1), in the array's own
    # buffer; summary.json and pn_fit.json must keep np.std's exact value.
    x = offset + scale * np.random.default_rng(seed).standard_normal(shape)
    for ddof in (0, 1):
        if x.size > ddof:
            expected = float(np.std(x, ddof=ddof))
            assert std_in_place(x.copy(), ddof) == expected


@FAST
@given(powers=st.lists(st.tuples(st.floats(0.0, 1e6),
                                 st.one_of(st.just(0.0), st.floats(1e-3, 1e6))), max_size=40))
# math.fsum, like sum() from Python 3.12, gives another EVM here.
@example(powers=[(1e16, 1e16), (1.0, 3.0), (1.0, 3.0)])
@example(powers=[(0.0, 0.0)])
def test_aggregate_evm_db_sums_left_to_right(powers):
    # summary.json, ksweep.csv and stream_report.json keep their bytes on
    # every Python: the power sums run left to right, as a += loop does.
    error, reference = np.array(powers).reshape(-1, 2).T
    if not powers:
        assert aggregate_evm_db(error, reference) is None
        return
    total = [0.0, 0.0]
    for e, r in powers:
        total[0] += e
        total[1] += r
    assert aggregate_evm_db(error, reference) == evm_db_from_powers(*total)
