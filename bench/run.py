"""mmwavelink benchmark: one workload, each invocation a fresh CLI process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's config JSON (and, for `stream`, its input
bytes) from the seed, then runs `mmwavelink.cli.main` through `child.py` in a
fresh process, one invocation at a time, until S seconds have passed (at
least MIN_INVOCATIONS times). Each invocation's artifacts are checked against
`reference.json` (see `check_outputs`); repeats must reproduce the first
invocation's bytes.

--trace 0 prints the end-to-end metrics, medians over the invocations.
Times are scaled to the reference host speed (see CALIBRATE_REF_S); each
`invocation` line also gives the raw wall times.
--trace 1 alternates untraced and traced invocations and prints per-layer
metrics from the spans `spans.Tracer` records, plus the tracing overhead.
Span times are raw wall times; a layer or result a workload does not
exercise reads 0.
The last stdout line is the JSON result; earlier lines give the environment
and each metric with its unit. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

sys.path.insert(0, str(BENCH))
from spans import LAYERS, span_stats  # noqa: E402

MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60
# Median seconds of child.calibrate() on the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs). Timings are reported as wall seconds
# times CALIBRATE_REF_S over the mean of the invocation's two calibrate()
# seconds: seconds on that machine at its median speed.
CALIBRATE_REF_S = 0.29
# One BLAS/OpenMP thread per process: the plain single-threaded baseline,
# and no oversubscription of the machine's cores.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

TAPS = [1.0, [0.3, 0.2], 0.1]
N_PAYLOAD_SYMBOLS = 12
# Two training symbols plus the payload symbols, each n_fft + cp_len samples.
SAMPLES_PER_FRAME = (2 + N_PAYLOAD_SYMBOLS) * (64 + 16)
PACKET_OVERHEAD = 10        # u32 seq + u16 length + u32 CRC
PN_SIGMA = 0.26
# A seed listed in reference.json must reproduce its reference values within
# these tolerances (floats; integers exactly). The slack is for floating-point
# reordering such as batched FFTs; a change to the simulated physics moves the
# values far more.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Inputs:
    argv: list          # CLI arguments, without --out
    frames: int         # frames through run_frame (packets for stream)
    samples: int        # channel samples simulated
    seed: int
    size: int
    data: bytes = b""   # stream input


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def prepare_simulate(seed: int, size: int, workdir: Path) -> Inputs:
    cfg = {"channel": {"taps": TAPS, "snr_db": 35.0, "sigma": PN_SIGMA,
                       "bandwidth_hz": 1.0e6},
           "phy": {"k_guard": 3}, "modulation": "qpsk", "pnc_enabled": True,
           "n_frames": size, "n_payload_symbols": N_PAYLOAD_SYMBOLS, "seed": seed}
    config = _write_config(workdir / "config.json", cfg)
    return Inputs(["simulate", "--config", config], size, size * SAMPLES_PER_FRAME,
                  seed, size)


def stream_payload_bytes() -> int:
    """Packet payload per frame: K=0 leaves 52 bins of 6 bits in 12 symbols."""
    return N_PAYLOAD_SYMBOLS * 52 * 6 // 8 - PACKET_OVERHEAD


def prepare_stream(seed: int, size: int, workdir: Path) -> Inputs:
    cfg = {"channel": {"taps": TAPS, "snr_db": 35.0, "sigma": 0.03,
                       "bandwidth_hz": 1.0e6},
           "phy": {"k_guard": 0}, "modulation": "qam64", "pnc_enabled": False,
           "n_payload_symbols": N_PAYLOAD_SYMBOLS, "seed": seed}
    config = _write_config(workdir / "config.json", cfg)
    data = random.Random(seed).randbytes(size)
    (workdir / "input.bin").write_bytes(data)
    packets = math.ceil(size / stream_payload_bytes())
    return Inputs(["stream", "--config", config, "--input", str(workdir / "input.bin")],
                  packets, packets * SAMPLES_PER_FRAME, seed, size, data)


def prepare_measure_pn(seed: int, size: int, workdir: Path) -> Inputs:
    cfg = {"channel": {"sigma": PN_SIGMA, "bandwidth_hz": 1.0e6},
           "probe": {"tone_hz": None, "n_samples": size}, "seed": seed}
    config = _write_config(workdir / "config.json", cfg)
    return Inputs(["measure-pn", "--config", config], 0, size, seed, size)


class CheckError(Exception):
    pass


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite number {text} in JSON")
    return value


def _reject_constant(name: str):
    raise CheckError(f"{name} in JSON")


def read_json(path: Path) -> dict:
    """Parse strictly: NaN, Infinity and overflowing numbers are errors."""
    try:
        return json.loads(path.read_text(), parse_float=_finite,
                          parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}")


def check_csv(path: Path, header: str, rows: int) -> None:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(str(exc))
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header is not {header!r}")
    if len(lines) - 1 != rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    text = "\n".join(lines[1:]).lower()
    if "nan" in text or "inf" in text:
        raise CheckError(f"{path.name}: non-finite value")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def values_simulate(out: Path, inp: Inputs) -> dict:
    s = read_json(out / "summary.json")
    expect(s.get("n_frames") == inp.size, "summary n_frames")
    expect(s.get("n_payload_symbols") == N_PAYLOAD_SYMBOLS, "summary n_payload_symbols")
    expect(s.get("modulation") == "qpsk" and s.get("pnc_enabled") is True
           and s.get("k_guard") == 3 and s.get("seed") == inp.seed,
           "summary does not echo the config")
    expect(s.get("n_erased") == 0, "summary n_erased")
    check_csv(out / "evm.csv", "frame,evm_db,residual_phase_std", inp.size)
    # K=3 leaves 46 of the 52 used bins for payload.
    check_csv(out / "constellation.csv", "re,im", inp.size * N_PAYLOAD_SYMBOLS * 46)
    keys = ("evm_db", "evm_db_genie_mean", "residual_phase_std",
            "residual_phase_std_true")
    expect(all(isinstance(s.get(k), float) for k in keys), "summary values missing")
    return {k: s[k] for k in keys}


def values_stream(out: Path, inp: Inputs) -> dict:
    r = read_json(out / "stream_report.json")
    sent, ok, fail = r.get("packets_sent"), r.get("packets_ok"), r.get("packets_crc_fail")
    expect(sent == inp.frames, f"packets_sent {sent}, expected {inp.frames}")
    expect(isinstance(ok, int) and isinstance(fail, int) and ok + fail == sent,
           "packets_ok + packets_crc_fail != packets_sent")
    expect(abs(r.get("per", -1.0) - fail / sent) < 1e-12, "per != crc_fail / sent")
    try:
        recovered = (out / "recovered.bin").read_bytes()
    except OSError as exc:
        raise CheckError(str(exc))
    # Every OK packet's bytes sit at their input offset; every other slot is
    # zero-filled with the full payload length.
    step = stream_payload_bytes()
    matched = 0
    for seq in range(sent):
        want = inp.data[seq * step:(seq + 1) * step]
        got = recovered[seq * step:seq * step + len(want)]
        if got == want:
            matched += 1
        elif got.count(0) != len(want):
            raise CheckError(f"packet {seq}: bytes differ from the input and are not zero-filled")
    expect(matched == ok, f"{matched} packets match the input, report says {ok} OK")
    expect(len(recovered) in (len(inp.data), sent * step), "recovered length")
    keys = ("per", "mean_evm_db", "goodput_bits_per_channel_use")
    expect(all(isinstance(r.get(k), float) for k in keys), "report values missing")
    return {**{k: r[k] for k in keys}, "packets_crc_fail": fail}


def values_measure_pn(out: Path, inp: Inputs) -> dict:
    f = read_json(out / "pn_fit.json")
    expect(f.get("sample_count") == inp.size, "pn_fit sample_count")
    expect(isinstance(f.get("mean"), float) and abs(f["mean"]) < 1e-9,
           "pn_fit mean is not removed")
    expect(isinstance(f.get("std"), float), "pn_fit std missing")
    check_csv(out / "pn_pdf.csv", "bin_center,density", 101)
    check_csv(out / "pn_psd.csv", "freq_hz,power_db", 4096)
    return {"std": f["std"]}


@dataclass(frozen=True)
class Workload:
    name: str
    size: int          # full size: frames, input bytes or probe samples
    tiny_size: int     # for the self-test
    prepare: object
    values: object


WORKLOADS = {w.name: w for w in (
    Workload("simulate-qpsk-pnc", 300, 4, prepare_simulate, values_simulate),
    Workload("stream-qam64-nopnc", 256 * 1024, 2000, prepare_stream, values_stream),
    Workload("measure-pn-long", 2_000_000, 8192, prepare_measure_pn, values_measure_pn),
)}


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def check_outputs(workload: Workload, out: Path, inp: Inputs, reference) -> dict:
    """Check one invocation's artifacts; raises CheckError. Returns the values.

    `reference` is one size entry of reference.json, or None to skip the
    comparison. A seed it lists must reproduce that seed's values: integers
    exactly, floats within REL_TOL (ABS_TOL near zero). Any other seed's
    values must lie within the envelope over the listed seeds.
    """
    values = workload.values(out, inp)
    if reference is None:
        return values
    expected = reference["values"].get(str(inp.seed))
    if expected is None:
        for key, (lo, hi) in reference["envelope"].items():
            expect(lo <= values[key] <= hi, f"{key}={values[key]} outside [{lo}, {hi}]")
        return values
    expect(set(values) == set(expected), "values do not match the reference's keys")
    for key, want in expected.items():
        got = values[key]
        same = (got == want if isinstance(want, int)
                else math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        expect(same, f"{key}={got!r} differs from seed {inp.seed}'s reference {want!r}")
    return values


def artifact_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@dataclass
class Invocation:
    trace: bool
    setup_s: float = math.nan    # calibrated, see CALIBRATE_REF_S
    run_s: float = math.nan
    wall_setup_s: float = math.nan
    wall_run_s: float = math.nan
    calibrate_s: tuple = (math.nan, math.nan)
    rss_mb: float = math.nan
    spans: list = None
    hashes: dict = None
    values: dict = None
    problem: str = ""


def invoke(workload: Workload, inp: Inputs, workdir: Path, index: int, trace: bool,
           reference) -> Invocation:
    out = workdir / f"out{index}"
    result_path = workdir / f"child{index}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(result_path),
           "1" if trace else "0", "--", *inp.argv, "--out", str(out)]
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    inv = Invocation(trace)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        inv.problem = f"timed out after {CHILD_TIMEOUT_S} s"
        return inv
    if proc.returncode != 0:
        inv.problem = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return inv
    child = json.loads(result_path.read_text())
    result_path.unlink()
    if child["t_first"] is None:
        inv.problem = "run_frame, stream_bytes or single_tone_probe was never called"
        return inv
    if not child["restored"]:
        inv.problem = "module bindings were not restored"
        return inv
    inv.calibrate_s = tuple(child["calibrate_s"])
    inv.wall_setup_s = child["t_first"] - started - inv.calibrate_s[0]
    inv.wall_run_s = child["t_end"] - child["t_first"]
    speed = CALIBRATE_REF_S / statistics.mean(inv.calibrate_s)
    inv.setup_s = inv.wall_setup_s * speed
    inv.run_s = inv.wall_run_s * speed
    inv.rss_mb = child["maxrss_kb"] / 1024.0
    inv.spans = child["spans"]
    try:
        inv.values = check_outputs(workload, out, inp, reference)
        inv.hashes = artifact_hashes(out)
    except CheckError as exc:
        inv.problem = f"output check: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return inv


def run_invocations(workload, inp, workdir, seconds, reference, trace_mode):
    """Invoke until `seconds` have passed; returns the list of invocations.

    In trace mode, untraced and traced invocations alternate. Every
    invocation's artifacts must equal the first successful one's byte for
    byte, traced or not.
    """
    invocations = []
    reference_hashes = None
    start = time.monotonic()
    while (time.monotonic() - start < seconds
           or len(invocations) < (2 * (MIN_INVOCATIONS - 1) if trace_mode else MIN_INVOCATIONS)):
        trace = trace_mode and len(invocations) % 2 == 1
        inv = invoke(workload, inp, workdir, len(invocations), trace, reference)
        if not inv.problem:
            if reference_hashes is None:
                reference_hashes = inv.hashes
            elif inv.hashes != reference_hashes:
                inv.problem = "artifacts differ from the first invocation's"
        invocations.append(inv)
        print(f"invocation {len(invocations) - 1} trace={int(trace)} setup_s={inv.setup_s:.4f} "
              f"run_s={inv.run_s:.4f} wall_setup_s={inv.wall_setup_s:.4f} "
              f"wall_run_s={inv.wall_run_s:.4f} calibrate_s={inv.calibrate_s[0]:.4f},"
              f"{inv.calibrate_s[1]:.4f} rss_mb={inv.rss_mb:.1f} {inv.problem or 'ok'}")
    return invocations


def end_to_end_metrics(good, inp: Inputs) -> dict:
    return {
        "setup_s": (statistics.median(i.setup_s for i in good), "s"),
        "run_s": (statistics.median(i.run_s for i in good), "s"),
        "sim_samples_per_s": (statistics.median(inp.samples / i.run_s for i in good), "1/s"),
        "peak_rss_mb": (statistics.median(i.rss_mb for i in good), "MB"),
    }


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def per(count, n):
    return count / n if n else 0.0


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)]


def traced_metrics(spans, inp: Inputs, values: dict) -> tuple:
    """Per-layer metrics of one traced invocation: (timings, counts).

    Counts must repeat exactly across invocations; timings are medianed.
    """
    stats = span_stats(spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []}

    def get(name):
        return stats.get(name, empty)

    frames = get("link.run_frame")["calls"]
    packets = get("linklayer.decode_packet")["calls"]

    def us_per_frame(name, key="total_ns"):
        return per(get(name)[key] / 1e3, frames)

    def ms(name):
        return get(name)["total_ns"] / 1e6

    timings, counts = {}, {}
    for layer in LAYERS:
        names = [n for n in stats if n.startswith(layer + ".")]
        timings[f"{layer}.self_ms"] = (sum(stats[n]["self_ns"] for n in names) / 1e6, "ms")
        counts[f"{layer}.calls"] = (sum(stats[n]["calls"] for n in names), "count")

    durations = sorted(get("link.run_frame")["durations_ns"])
    tail = next((p for p in TAIL_PERCENTILES if len(durations) * (1 - p / 100) >= 10), 50.0)
    counts["link.frames"] = (frames, "count")
    counts["link.run_frame.ptail_pct"] = (tail, "pct")
    timings.update({
        "link.run_frame.self_us_per_frame": (us_per_frame("link.run_frame", "self_ns"), "us"),
        "link.run_frame.p50_us": (_percentile(durations, 50.0) / 1e3 if durations else 0.0, "us"),
        "link.run_frame.ptail_us": (_percentile(durations, tail) / 1e3 if durations else 0.0, "us"),
        "ofdm.build_frame.us_per_frame": (us_per_frame("ofdm.build_frame"), "us"),
        "channel.apply_channel.us_per_frame": (us_per_frame("channel.apply_channel"), "us"),
        "channel.pn_init.us_per_frame": (us_per_frame("channel.pn_init"), "us"),
        "channel.single_tone_probe.ms": (ms("channel.single_tone_probe"), "ms"),
        "pnc.estimate_phase.us_per_frame": (us_per_frame("pnc.estimate_phase"), "us"),
        "pnc.cancel.us_per_frame": (us_per_frame("pnc.cancel"), "us"),
        "receiver.decode_frame.self_us_per_frame":
            (us_per_frame("receiver.decode_frame", "self_ns"), "us"),
        "receiver.equalize.us_per_frame": (us_per_frame("receiver.equalize"), "us"),
        "receiver.estimate_channel_ls.us_per_frame":
            (us_per_frame("receiver.estimate_channel_ls"), "us"),
        "modulation.demap_hard.us_per_frame": (us_per_frame("modulation.demap_hard"), "us"),
        "modulation.map_bits.us_per_frame": (us_per_frame("modulation.map_bits"), "us"),
        "linklayer.packetize.ms": (ms("linklayer.packetize"), "ms"),
        "linklayer.decode_packet.us_per_packet":
            (per(get("linklayer.decode_packet")["total_ns"] / 1e3, packets), "us"),
        "linklayer.depacketize.ms": (ms("linklayer.depacketize"), "ms"),
        "metrics.write_series_csv.ms": (ms("metrics.write_series_csv"), "ms"),
        "metrics.extract_tone_phase.ms": (ms("metrics.extract_tone_phase"), "ms"),
        "metrics.psd_welch.ms": (ms("metrics.psd_welch"), "ms"),
        "metrics.phase_pdf.ms": (ms("metrics.phase_pdf"), "ms"),
    })
    counts.update({
        "ofdm.training_bins.calls_per_frame": (per(get("ofdm.training_bins")["calls"], frames), "count"),
        "channel.pn_init.calls_per_frame": (per(get("channel.pn_init")["calls"], frames), "count"),
        "pnc.estimate_phase.calls_per_frame":
            (per(get("pnc.estimate_phase")["calls"], frames), "count"),
        "receiver.equalize.calls_per_frame": (per(get("receiver.equalize")["calls"], frames), "count"),
        "linklayer.packets": (packets, "count"),
        "linklayer.packets_crc_fail": (values.get("packets_crc_fail", 0), "count"),
        "trace.spans": (len(spans), "count"),
    })
    return timings, counts


def accuracy_metrics(values: dict) -> dict:
    """The deterministic physics results, which the output check bounds."""
    return {
        "receiver.evm_db": (values.get("evm_db", values.get("mean_evm_db", 0.0)), "dB"),
        "linklayer.packet_error_rate": (values.get("per", 0.0), "fraction"),
        "metrics.pn_sigma_err_rad": (abs(values["std"] - PN_SIGMA) if "std" in values
                                     else 0.0, "rad"),
    }


def per_layer_metrics(good, inp: Inputs) -> tuple:
    """Per-layer metrics over the traced invocations; (metrics, problem)."""
    untraced = [i for i in good if not i.trace]
    traced = [i for i in good if i.trace]
    if not untraced or not traced:
        return {}, "no successful traced and untraced pair"
    per_inv = [traced_metrics(i.spans, inp, i.values) for i in traced]
    counts = per_inv[0][1]
    if any(c != counts for _, c in per_inv[1:]):
        return {}, "call counts differ between traced invocations"
    metrics = dict(counts)
    for name, (_, unit) in per_inv[0][0].items():
        metrics[name] = (statistics.median(t[name][0] for t, _ in per_inv), unit)
    run_untraced = statistics.median(i.run_s for i in untraced)
    run_traced = statistics.median(i.run_s for i in traced)
    metrics["trace.overhead_frac"] = (run_traced / run_untraced - 1.0, "fraction")
    metrics["link.frames_per_s"] = (per(inp.frames, run_untraced), "1/s")
    metrics.update(accuracy_metrics(untraced[0].values))
    return metrics, ""


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "threads": THREAD_ENV["OMP_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="run the self-test size instead of the full size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmwavelink" / "cli.py").is_file():
        print(f"error: no mmwavelink sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "full"
    reference = load_reference()[workload.name][size_name]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inp = workload.prepare(args.seed, workload.tiny_size if args.tiny else workload.size,
                               workdir)
        invocations = run_invocations(workload, inp, workdir, args.seconds, reference,
                                      args.trace == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    good = [i for i in invocations if not i.problem]
    failed = len(invocations) - len(good)
    metrics, problem = {}, ""
    if args.trace:
        metrics, problem = per_layer_metrics(good, inp)
    elif good:
        metrics = end_to_end_metrics(good, inp)
    else:
        problem = "no invocation succeeded"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed={args.seed} size={inp.size} "
          f"frames={inp.frames} samples={inp.samples} invocations={len(invocations)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problem,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
