"""Run the benchmark over seeds and summarise it, or rebuild its references.

    python3 bench/collect.py runs [--seeds 0-9] [--trace 0] [--trajectory]
    python3 bench/collect.py reference [--seeds 0-63]

`runs` starts `run.py` once per (workload, seed), every workload for the
run_seconds of BENCHMARK.json, one at a time, and prints each metric's
median, quartiles and spread (interquartile distance over the median) across
the seeds. With --trajectory the summary is appended to `trajectory.json` as
a new point, together with the environment.

`reference` runs each workload once per seed, untimed, at the full and the
self-test size, and writes `reference.json`: every checked output value of
every seed, and for seeds not listed, the range [min - 2 sd, max + 2 sd] over
the listed ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else None}


def cmd_runs(args) -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = parse_seeds(args.seeds)
    summary, failures = {}, 0
    for name in run.WORKLOADS:
        per_metric: dict = {}
        for seed in seeds:
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                failures += 1
                print(f"{name} seed {seed}: FAILED {proc.stderr.strip()[-400:]}")
                continue
            print(f"{name} seed {seed}: {time.monotonic() - started:.1f} s, "
                  f"{result['attempted']} invocations", flush=True)
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, ([], entry["unit"]))[0].append(entry["value"])
        summary[name] = {metric: {**summarise(values), "unit": unit}
                         for metric, (values, unit) in per_metric.items()}
    for name, metrics in summary.items():
        print(f"\n{name}")
        for metric, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:45s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread} {s['unit']}")
    if args.trajectory:
        path = run.BENCH / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({"date": time.strftime("%Y-%m-%d", time.gmtime()),
                       "env": run.environment(), "seconds": seconds,
                       "trace": args.trace, "seeds": args.seeds, "workloads": summary})
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 1 if failures else 0


def cmd_reference(args) -> int:
    seeds = parse_seeds(args.seeds)
    reference = {}
    for workload in run.WORKLOADS.values():
        reference[workload.name] = {}
        for size_name, size in (("full", workload.size), ("tiny", workload.tiny_size)):
            samples, by_seed = {}, {}
            for seed in seeds:
                workdir = run.WORK / f"reference-{workload.name}-{seed}"
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                try:
                    inp = workload.prepare(seed, size, workdir)
                    inv = run.invoke(workload, inp, workdir, 0, False, None)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                if inv.problem:
                    print(f"{workload.name} {size_name} seed {seed}: {inv.problem}")
                    return 1
                by_seed[str(seed)] = inv.values
                for key, value in inv.values.items():
                    samples.setdefault(key, []).append(value)
            envelope = {}
            for key, values in samples.items():
                sd = statistics.stdev(values)
                envelope[key] = [min(values) - 2 * sd, max(values) + 2 * sd]
            reference[workload.name][size_name] = {"size": size, "seeds": args.seeds,
                                                   "envelope": envelope, "values": by_seed}
            print(f"{workload.name} {size_name}: {envelope}", flush=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trajectory", action="store_true")
    p.set_defaults(func=cmd_runs)
    p = sub.add_parser("reference")
    p.add_argument("--seeds", default="0-63")
    p.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
