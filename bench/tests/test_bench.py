"""Self-test of the benchmark: python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer, snapshot, span_stats  # noqa: E402

import mmwavelink.cli as cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def produce(workload_name, tmp_path, trace=False):
    """Run one tiny invocation in this process; returns (workload, inputs, out)."""
    workload = run.WORKLOADS[workload_name]
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    inp = workload.prepare(5, workload.tiny_size, workdir)
    out = tmp_path / ("traced" if trace else "plain")
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        assert cli.main([*inp.argv, "--out", str(out)]) == 0
    finally:
        tracer.restore()
    return workload, inp, out, tracer.spans


def reference(workload):
    return run.load_reference()[workload.name]["tiny"]


def test_output_check_accepts_then_rejects_corrupted_summary(tmp_path):
    workload, inp, out, _ = produce("simulate-qpsk-pnc", tmp_path)
    run.check_outputs(workload, out, inp, reference(workload))
    summary = out / "summary.json"
    text = summary.read_text()
    summary.write_text(text.replace('"n_erased": 0', '"n_erased": NaN'))
    with pytest.raises(run.CheckError, match="NaN"):
        run.check_outputs(workload, out, inp, reference(workload))
    data = json.loads(text)
    data["evm_db"] = -5.0
    summary.write_text(json.dumps(data))
    with pytest.raises(run.CheckError, match="evm_db"):
        run.check_outputs(workload, out, inp, reference(workload))


def test_output_check_holds_listed_seeds_to_their_own_values(tmp_path):
    workload, inp, out, _ = produce("simulate-qpsk-pnc", tmp_path)
    ref = reference(workload)
    assert str(inp.seed) in ref["values"]
    summary = out / "summary.json"
    data = json.loads(summary.read_text())
    data["evm_db"] *= 1 + 1e-6
    summary.write_text(json.dumps(data))
    with pytest.raises(run.CheckError, match="evm_db"):
        run.check_outputs(workload, out, inp, ref)
    # A seed without its own entry falls back to the wider envelope.
    unlisted = {**ref, "values": {}}
    run.check_outputs(workload, out, inp, unlisted)


def test_output_check_rejects_corrupted_stream_bytes(tmp_path):
    workload, inp, out, _ = produce("stream-qam64-nopnc", tmp_path)
    run.check_outputs(workload, out, inp, reference(workload))
    recovered = bytearray((out / "recovered.bin").read_bytes())
    step = run.stream_payload_bytes()
    seq = next(s for s in range(inp.frames)
               if recovered[s * step:(s + 1) * step] == inp.data[s * step:(s + 1) * step])
    recovered[seq * step] ^= 0x01
    (out / "recovered.bin").write_bytes(bytes(recovered))
    with pytest.raises(run.CheckError, match=f"packet {seq}"):
        run.check_outputs(workload, out, inp, reference(workload))


def test_output_check_rejects_infinite_fit(tmp_path):
    workload, inp, out, _ = produce("measure-pn-long", tmp_path)
    run.check_outputs(workload, out, inp, reference(workload))
    fit = json.loads((out / "pn_fit.json").read_text())
    (out / "pn_fit.json").write_text(json.dumps({**fit, "std": 12345.5}).replace("12345.5", "1e400"))
    with pytest.raises(run.CheckError, match="non-finite"):
        run.check_outputs(workload, out, inp, reference(workload))
    (out / "pn_fit.json").write_text(json.dumps({**fit, "std": float("inf")}))
    with pytest.raises(run.CheckError, match="Infinity"):
        run.check_outputs(workload, out, inp, reference(workload))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tracing_keeps_artifacts_and_restores_bindings(workload, tmp_path):
    before = snapshot()
    _, _, plain, _ = produce(workload, tmp_path)
    _, _, traced, spans = produce(workload, tmp_path, trace=True)
    (tmp_path / "again").mkdir()
    _, _, _, again = produce(workload, tmp_path / "again", trace=True)
    assert all(getattr(m, a) is o for m, a, o in before)
    assert run.artifact_hashes(plain) == run.artifact_hashes(traced)
    stats, stats_again = span_stats(spans), span_stats(again)
    assert {n: s["calls"] for n, s in stats.items()} == \
        {n: s["calls"] for n, s in stats_again.items()}
    assert stats["cli.main"]["calls"] == 1
    assert all(0 <= parent < i for i, (*_, parent) in enumerate(spans) if parent != -1)
