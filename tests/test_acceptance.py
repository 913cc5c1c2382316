"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them) and then
asserts, so the suite doubles as a readable checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import band_power_fraction
from mmwavelink import (PILOT_VALUE, ChannelConfig, Modulation, OfdmConfig, PhaseNoiseConfig,
                        PhaseNoiseModel, PhaseNoiseProcess, aggregate_evm_db, build_plan,
                        estimate_phase, gaussian_fit_in_place, psd_welch, run_seeded_frames,
                        stream_bytes, verify_packet, wrap_phase)
from mmwavelink.cli import main
from mmwavelink.linklayer import decode_packet, encode_packet, make_packet

FS = 25.0e6
CLEAN_PN = PhaseNoiseConfig(sigma=0.0, model=PhaseNoiseModel.NONE)
CLEAN_CHANNEL = ChannelConfig(taps=(1.0,), snr_db=math.inf, phase_noise=CLEAN_PN)


def _report(num, name, ok, detail=""):
    line = f"C{num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


# Ensemble checks. One seed cannot tell a change that moves the physics from
# one that only reshuffles the draws, so C03, C04, C06, C07 and C08 each run
# again on the 8 run seeds ENSEMBLE_SEEDS. For each per-seed value the check
# takes the mean m and the 99 % Student-t interval m +- T_99 * sd / sqrt(8)
# (sd with ddof=1). The interval must lie on the claim's side of the claim's
# own bound, so the claim holds for the expected value and not only for one
# draw, and it must contain HEAD_MEANS, so a change that moves the expected
# value by more than seed noise fails.
#
# HEAD_MEANS are the means over the 64 run seeds 100-163, disjoint from
# ENSEMBLE_SEEDS, measured on the code as of the commit that added these
# checks; the per-seed sd over those seeds follows each value. Each is
# rounded to well under its standard error (sd / 8). The interval's
# half-width is about 1.2 sd, so a shift of the expected value by about one
# per-seed sd fails.
ENSEMBLE_SEEDS = range(8)
T_99 = 3.4995   # Student t, 99.5th percentile, 7 degrees of freedom
HEAD_MEANS = {
    "pn_std": 0.2603,                  # rad, sd 0.0022
    "pn_mean": 0.0,                    # rad, sd 0.0038 (measured 2.8e-5)
    "pn_out_of_band": 1.827e-7,        # sd 3.6e-9
    "residual_std": 0.06318,           # rad, sd 0.0014
    "evm_on": -23.41,                  # dB, sd 0.19
    "evm_off": -9.629,                 # dB, sd 0.21
    "evm_gain": 13.78,                 # dB, sd 0.27
    "k3_minus_k8": -0.6075,            # dB, sd 0.28
    "k3_minus_k0": -2.170,             # dB, sd 0.31
}


def _ensemble(num, name, values, key, lo=-math.inf, hi=math.inf):
    """Whether the 99 % interval of values' mean lies in [lo, hi] and holds
    HEAD_MEANS[key]; prints the check's line."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    half = T_99 * float(values.std(ddof=1)) / math.sqrt(values.size)
    ok = lo <= mean - half and mean + half <= hi and mean - half <= HEAD_MEANS[key] <= mean + half
    return _report(num, f"ensemble {name}, {values.size} seeds", ok,
                   f"mean {mean:.5g} +- {half:.2g}, head {HEAD_MEANS[key]:.5g}, "
                   f"bounds [{lo:.5g}, {hi:.5g}]")


def default_ofdm(k_guard=3):
    return OfdmConfig(plan=build_plan(64, k_guard, 26), cp_len=16,
                      sample_rate_hz=FS)


def run_frames(ofdm_cfg, channel, modulation, n_frames, run_seed, pnc_enabled,
               n_payload_symbols=12):
    """The run's FrameStacks, CHUNK_FRAMES frames each."""
    return list(run_seeded_frames(modulation, ofdm_cfg, channel, pnc_enabled,
                                  n_payload_symbols, run_seed, n_frames))


def run_evm_db(stacks):
    """The RMS EVM of a run from the power sums of its stacks."""
    return aggregate_evm_db(*[np.concatenate([getattr(s.report, name) for s in stacks])
                              for name in ("error_power", "reference_power")])


def test_c01_loopback_exactness():
    ofdm_cfg = default_ofdm()
    start = time.monotonic()
    exact = True
    for modulation in Modulation:
        for stack in run_frames(ofdm_cfg, CLEAN_CHANNEL, modulation, 100,
                                run_seed=5, pnc_enabled=True):
            exact &= bool(np.array_equal(stack.report.bits, stack.tx_bits))
            exact &= bool((stack.report.evm_db <= -100.0).all())
    elapsed = time.monotonic() - start
    ok = exact and elapsed < 10.0
    assert _report(1, "loopback exact bits, 4 modulations x 100 frames", ok,
                   f"exact={exact}, {elapsed:.1f}s")


def test_c02_multipath_equalization():
    ofdm_cfg = default_ofdm()
    worst = -np.inf
    for n_taps in (2, 8, 16):
        rng = np.random.default_rng(100 + n_taps)
        taps = tuple(rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps))
        channel = ChannelConfig(taps=taps, snr_db=math.inf, phase_noise=CLEAN_PN)
        for stack in run_frames(ofdm_cfg, channel, Modulation.QPSK, 20,
                                run_seed=6, pnc_enabled=False):
            worst = max(worst, float(stack.report.evm_db.max()))
    ok = worst <= -40.0
    assert _report(2, "noiseless multipath EVM per frame", ok,
                   f"worst {worst:.1f} dB for L in (2, 8, 16)")


@pytest.fixture(scope="module")
def pn_trajectory():
    process = PhaseNoiseProcess(PhaseNoiseConfig(sigma=0.26), FS, [7])
    return process.generate(1_000_000)[0]


def test_c03_phase_noise_std_calibration(pn_trajectory):
    fit = gaussian_fit_in_place(pn_trajectory.copy())   # C04 reads the fixture too
    ok = 0.26 * 0.95 <= fit.std <= 0.26 * 1.05 and abs(fit.mean) < 0.005
    assert _report(3, "phase noise sigma=0.26 calibration", ok,
                   f"std {fit.std:.4f} rad, mean {fit.mean:+.5f} rad")


def test_c04_phase_noise_power_in_band(pn_trajectory):
    frac = band_power_fraction(psd_welch(pn_trajectory, FS), 1.0e6)
    ok = frac >= 0.85
    assert _report(4, "phase noise power below 1 MHz", ok, f"fraction {frac:.4f}")


@pytest.fixture(scope="module")
def pn_ensemble():
    """(std, mean, out-of-band power fraction) of C03's trajectory per seed."""
    values = []
    for seed in ENSEMBLE_SEEDS:
        theta = PhaseNoiseProcess(PhaseNoiseConfig(sigma=0.26), FS, [seed]).generate(1_000_000)[0]
        out_of_band = 1.0 - band_power_fraction(psd_welch(theta, FS), 1.0e6)
        fit = gaussian_fit_in_place(theta)
        values.append((fit.std, fit.mean, out_of_band))
    return np.array(values).T


def test_c03_ensemble_phase_noise_std_calibration(pn_ensemble):
    std, mean, _ = pn_ensemble
    ok = _ensemble(3, "phase noise std", std, "pn_std", 0.26 * 0.95, 0.26 * 1.05)
    assert _ensemble(3, "phase noise mean", mean, "pn_mean", -0.005, 0.005) and ok


def test_c04_ensemble_phase_noise_power_in_band(pn_ensemble):
    assert _ensemble(4, "phase noise power above 1 MHz", pn_ensemble[2], "pn_out_of_band",
                     hi=0.15)


def test_c05_estimator_oracle():
    ofdm_cfg = default_ofdm()
    n = np.arange(64)
    bins = np.zeros(64, dtype=complex)
    bins[0] = PILOT_VALUE
    pilot_body = np.fft.ifft(bins, norm="ortho")

    errors = []
    for b in range(-3, 4):
        theta = 2.0 * np.pi * b * n / 64.0 + 0.25 * b
        est = estimate_phase(pilot_body * np.exp(1j * theta), ofdm_cfg)
        errors.append(wrap_phase(est.per_sample_phase - theta))
    rmse_clean = float(np.sqrt(np.mean(np.concatenate(errors) ** 2)))

    rng = np.random.default_rng(99)
    body_power = np.mean(np.abs(pilot_body) ** 2)
    noise_std = np.sqrt(body_power * 10.0 ** (-30.0 / 10.0) / 2.0)
    errors = []
    for _ in range(300):
        b = rng.integers(-3, 4)
        theta = 2.0 * np.pi * b * n / 64.0 + rng.uniform(-np.pi, np.pi)
        noisy = pilot_body * np.exp(1j * theta) + noise_std * (
            rng.standard_normal(64) + 1j * rng.standard_normal(64))
        est = estimate_phase(noisy, ofdm_cfg)
        errors.append(wrap_phase(est.per_sample_phase - theta))
    rmse_noisy = float(np.sqrt(np.mean(np.concatenate(errors) ** 2)))

    ok = rmse_clean < 1e-6 and rmse_noisy < 0.05
    assert _report(5, "phase estimator on payload-free symbols", ok,
                   f"rmse {rmse_clean:.2e} noiseless, {rmse_noisy:.4f} at 30 dB")


@pytest.fixture(scope="module")
def paired_run():
    ofdm_cfg = default_ofdm()
    channel = ChannelConfig()
    start = time.monotonic()
    with_pnc = run_frames(ofdm_cfg, channel, Modulation.QPSK, 200,
                          run_seed=7, pnc_enabled=True)
    without_pnc = run_frames(ofdm_cfg, channel, Modulation.QPSK, 200,
                             run_seed=7, pnc_enabled=False)
    return with_pnc, without_pnc, time.monotonic() - start


def residual_std(stacks) -> float:
    """Std of the tracking residual, each symbol's mean removed."""
    residuals = []
    for stack in stacks:
        d = wrap_phase(stack.theta_true_bodies - stack.theta_est)
        residuals.append(d - d.mean(axis=-1, keepdims=True))
    return float(np.concatenate(residuals).std())


@pytest.fixture(scope="module")
def paired_ensemble():
    """(residual std, EVM with PNC, EVM without) of C06/C07's runs per seed."""
    values = []
    for seed in ENSEMBLE_SEEDS:
        with_pnc, without_pnc = (run_frames(default_ofdm(), ChannelConfig(), Modulation.QPSK,
                                            200, run_seed=seed, pnc_enabled=pnc)
                                 for pnc in (True, False))
        values.append((residual_std(with_pnc), run_evm_db(with_pnc), run_evm_db(without_pnc)))
    return np.array(values).T


def test_c06_residual_phase_std(paired_run):
    resid = residual_std(paired_run[0])
    ok = resid <= 0.12
    assert _report(6, "tracking residual over 2400 symbols", ok,
                   f"residual std {resid:.4f} rad vs sigma 0.26")


def test_c07_evm_improvement(paired_run):
    with_pnc, without_pnc, elapsed = paired_run
    evm_on = run_evm_db(with_pnc)
    evm_off = run_evm_db(without_pnc)
    ok = (-11.0 <= evm_off <= -5.0 and evm_on <= -18.0
          and evm_off - evm_on >= 10.0 and elapsed < 120.0)
    assert _report(7, "EVM improvement from cancellation, 200 paired frames", ok,
                   f"{evm_off:.2f} -> {evm_on:.2f} dB in {elapsed:.1f}s")


def test_c06_ensemble_residual_phase_std(paired_ensemble):
    assert _ensemble(6, "tracking residual std", paired_ensemble[0], "residual_std", hi=0.12)


def test_c07_ensemble_evm_improvement(paired_ensemble):
    _, evm_on, evm_off = paired_ensemble
    ok = _ensemble(7, "EVM without PNC", evm_off, "evm_off", -11.0, -5.0)
    ok &= _ensemble(7, "EVM with PNC", evm_on, "evm_on", hi=-18.0)
    assert _ensemble(7, "EVM gain from PNC", evm_off - evm_on, "evm_gain", lo=10.0) and ok


def guard_count_evms(run_seed: int) -> dict:
    """C08's run EVM for K in (0, 3, 8)."""
    return {k: run_evm_db(run_frames(default_ofdm(k), ChannelConfig(), Modulation.QPSK, 100,
                                     run_seed=run_seed, pnc_enabled=True))
            for k in (0, 3, 8)}


def test_c08_guard_count_sufficiency():
    evm = guard_count_evms(11)
    ok = abs(evm[3] - evm[8]) <= 1.0 and evm[3] < evm[0]
    assert _report(8, "K=3 within 1 dB of K=8 and better than K=0", ok,
                   f"K0 {evm[0]:.2f}, K3 {evm[3]:.2f}, K8 {evm[8]:.2f} dB")


def test_c08_ensemble_guard_count_sufficiency():
    evms = [guard_count_evms(seed) for seed in ENSEMBLE_SEEDS]
    ok = _ensemble(8, "EVM K=3 minus K=8", [e[3] - e[8] for e in evms], "k3_minus_k8",
                   -1.0, 1.0)
    assert _ensemble(8, "EVM K=3 minus K=0", [e[3] - e[0] for e in evms], "k3_minus_k0",
                     hi=0.0) and ok


def test_c09_streaming_one_megabyte():
    data = np.random.default_rng(3).integers(0, 256, 1_000_000,
                                             dtype=np.uint8).tobytes()
    ofdm_cfg = default_ofdm()

    recovered, report = stream_bytes(data, ofdm_cfg, ChannelConfig(),
                                     seed=42)
    checks = [report.mean_evm_db <= -18.0, len(recovered) == len(data)]
    if report.packets_crc_fail == 0:
        checks.append(recovered == data)

    clean_recovered, _ = stream_bytes(data, ofdm_cfg, CLEAN_CHANNEL, seed=42)
    checks.append(clean_recovered == data)

    ok = all(checks)
    assert _report(9, "1 MB stream", ok,
                   f"evm {report.mean_evm_db:.2f} dB, "
                   f"{report.packets_crc_fail}/{report.packets_sent} crc fails, "
                   f"clean run byte-identical={clean_recovered == data}")


def test_c10_crc_detects_all_single_bit_errors():
    payload = bytes((5 * i + 1) % 256 for i in range(64))
    wire = encode_packet(make_packet(9, payload))
    n_bits = len(wire) * 8
    detected = 0
    for bit in range(n_bits):
        corrupted = bytearray(wire)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        if not verify_packet(decode_packet(bytes(corrupted))):
            detected += 1
    ok = detected == n_bits and n_bits >= 512
    assert _report(10, "CRC detects every single-bit corruption", ok,
                   f"{detected}/{n_bits} positions")


def test_c11_artifact_determinism(tmp_path):
    def run(tag):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({"n_frames": 5,
                                   "probe": {"n_samples": 8192}}))
        src = tmp_path / f"{tag}.bin"
        src.write_bytes(np.random.default_rng(50).integers(
            0, 256, 500, dtype=np.uint8).tobytes())
        out = tmp_path / tag
        args = ["--config", str(cfg), "--out", str(out)]
        assert main(["simulate", *args]) == 0
        assert main(["measure-pn", *args]) == 0
        assert main(["sweep-k", *args, "--k-list", "0,3"]) == 0
        assert main(["stream", *args, "--input", str(src)]) == 0
        return out

    a = run("a")
    b = run("b")
    names = ["evm.csv", "constellation.csv", "summary.json", "pn_pdf.csv",
             "pn_psd.csv", "pn_fit.json", "ksweep.csv", "stream_report.json",
             "recovered.bin"]
    same = {name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in names}
    ok = all(same.values())
    assert _report(11, "re-run artifacts bit-identical", ok,
                   f"{sum(same.values())}/{len(names)} files match")
