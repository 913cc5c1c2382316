"""The batched and cached per-frame paths equal their per-row, uncached forms
exactly, bit for bit."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from mmwavelink import (ChannelConfig, ChannelEstimate, Modulation, OfdmConfig,
                        PhaseNoiseConfig, PhaseNoiseProcess, apply_channel,
                        build_frame, build_plan, cancel, decode_frame, equalize,
                        estimate_phase, frame_bits_rng, frame_channel_cfg,
                        modulate_symbol, run_frame, training_bins)
from mmwavelink.channel import PN_CORNER_RATIO, PN_FILTER_ORDER
from mmwavelink.metrics import write_series_csv
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
    np.testing.assert_array_equal(batched.raw_complex,
                                  np.stack([s.raw_complex for s in singles]))
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
    channel = frame_channel_cfg(ChannelConfig(taps=(1.0, 0.3 + 0.2j), snr_db=30.0), 7, 2)
    bits = frame_bits_rng(7, 2).integers(0, 2, 46 * 2 * 5, dtype=np.uint8)
    result = run_frame(bits, Modulation.QPSK, cfg, channel, pnc_enabled, 5)

    frame = build_frame(bits, Modulation.QPSK, cfg, 5)
    y, theta = apply_channel(frame.samples(), channel)
    est, true = [], []
    for s in range(N_PREAMBLE_SYMBOLS, N_PREAMBLE_SYMBOLS + 5):
        start = s * cfg.symbol_len + cfg.cp_len
        est.append(estimate_phase(y[start:start + 64], cfg).per_sample_phase)
        true.append(theta[start:start + 64])
    np.testing.assert_array_equal(result.theta_est, np.concatenate(est))
    np.testing.assert_array_equal(result.theta_true_bodies, np.concatenate(true))

    report, phase = decode_frame(y, cfg, Modulation.QPSK, pnc_enabled, return_phase=True)
    np.testing.assert_array_equal(report.bits, result.report.bits)
    if pnc_enabled:
        np.testing.assert_array_equal(phase, np.stack(est))
    else:
        assert phase is None


def reference_trajectory(sigma, bandwidth_hz, seed, n):
    """Filtered-Gaussian theta(n) with the shaping filter designed from scratch."""
    rng = np.random.default_rng(seed)
    sos = signal.butter(PN_FILTER_ORDER, bandwidth_hz / PN_CORNER_RATIO, fs=FS, output="sos")
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
                                    FS, seed)
        np.testing.assert_array_equal(process.generate(300),
                                      reference_trajectory(sigma, bandwidth_hz, seed, 300))


def test_training_bins_copy_protects_the_cache():
    cfg = ofdm_cfg()
    first = training_bins(cfg)
    frame_before = build_frame(np.zeros(92, dtype=np.uint8), Modulation.QPSK, cfg, 1)
    first[:] = 0.0
    np.testing.assert_array_equal(training_bins(cfg), training_bins(ofdm_cfg()))
    assert np.count_nonzero(training_bins(cfg)) == 1 + len(cfg.plan.payload_indices)
    frame_after = build_frame(np.zeros(92, dtype=np.uint8), Modulation.QPSK, cfg, 1)
    np.testing.assert_array_equal(frame_after.samples(), frame_before.samples())


def csv_writer_reference(path, header, columns):
    """write_series_csv as it was written with csv.writer, value by value."""
    columns = [np.asarray(c).ravel() for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.10g}" if isinstance(v, (float, np.floating)) else v
                             for v in row])


SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                  0.1, 123456789012345.0, -2.5e-17]

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
    n = 10_001   # spans several write chunks (CSV_CHUNK_ROWS rows each)
    columns = [np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
               np.resize(np.array(SPECIAL_FLOATS), n), np.array([], dtype=float)]
    header = ["frame", "value, with comma", "special", "empty"]
    for cols in (columns[:3], columns):
        write_series_csv(tmp_path / "new.csv", header[:len(cols)], cols)
        csv_writer_reference(tmp_path / "old.csv", header[:len(cols)], cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_series_csv_rejects_non_numeric_columns(tmp_path):
    with pytest.raises(TypeError):
        write_series_csv(tmp_path / "s.csv", ["s"], [np.array(["a,b"])])
