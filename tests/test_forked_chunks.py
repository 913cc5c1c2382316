"""The CLI's ordered chunk map, link.map_chunks: with 2 or more CPUs a forked
worker computes a run's even chunks from 2 and this process the others,
reading the worker's results from a pipe in chunk order; with one CPU every
chunk runs in this process. Both paths must write the same bytes, and a failure on either
side must leave no process, no changed affinity and no open file behind.

The one-CPU path comes from os.sched_getaffinity patched to {0}, as
`taskset -c 0` would give. On a runner with one CPU the fork-path cases skip.
"""

import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import mmwavelink
import mmwavelink.cli
from mmwavelink.cli import main
from mmwavelink import CHUNK_FRAMES, ChannelConfig, OfdmConfig, stream_bytes
from mmwavelink.link import RESULTS_PIPE_BYTES, map_chunks
from test_golden import GOLDEN, run_command

FORKS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) >= 2)
NO_FORK = ("the fork path needs os.fork and an affinity set of 2 or more CPUs; "
           "on this runner every chunk runs in-process")
needs_fork = pytest.mark.skipif(not FORKS, reason=NO_FORK)
# The affinity call itself, which one_cpu patches.
affinity = os.sched_getaffinity if FORKS else None

# 37 frames: chunks 0-15, 16-31 and 32-36. The parent runs chunks 0 and 1,
# the worker chunk 2.
THREE_CHUNKS = {"n_frames": 37, "n_payload_symbols": 2}


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@contextlib.contextmanager
def leaves_nothing():
    """After the block: no child process to reap, the affinity set as it
    was, and no warning, a ResourceWarning from an unclosed spool or staged
    CSV included."""
    before = affinity(0) if FORKS else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [str(w.message) for w in caught] == []
    if hasattr(os, "waitpid"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    if FORKS:
        assert affinity(0) == before


def wrap_run_frame(monkeypatch, log: Path, act=None):
    """Rebind cli.run_frame so that each call appends "pid start" to log, then
    runs act(frames) in the calling process, if given, before the frames."""
    original = mmwavelink.cli.run_frame

    def logged(*args, **kwargs):
        frames = args[-1]
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {frames.start}\n")
        if act is not None:
            act(frames)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmwavelink.cli, "run_frame", logged)


def calls_by_pid(log: Path) -> dict:
    """{pid: [chunk start, ...]} from wrap_run_frame's log."""
    calls = {}
    for line in log.read_text().splitlines():
        pid, start = map(int, line.split())
        calls.setdefault(pid, []).append(start)
    return calls


def run_simulate(tmp_path: Path, tag: str, capsys, n_frames: int = 37) -> tuple:
    """main on a simulate of three chunks, or of n_frames: (exit code,
    stderr, files left in out)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**THREE_CHUNKS, "n_frames": n_frames}))
    out = tmp_path / tag
    capsys.readouterr()
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    return rc, capsys.readouterr().err, sorted(p.name for p in out.iterdir())


# -- failures on either side ------------------------------------------------

@needs_fork
def test_worker_exception_exits_as_in_process(tmp_path, monkeypatch, capsys):
    # The worker's chunk 2 raises: the parent raises the same exception type
    # and message, so main gives the in-process exit code and stderr line.
    def fail(frames):
        if frames.start == 32:
            raise ValueError(f"no frames from {frames.start}")

    wrap_run_frame(monkeypatch, tmp_path / "forked.log", fail)
    with leaves_nothing():
        forked = run_simulate(tmp_path, "forked", capsys)
    calls = calls_by_pid(tmp_path / "forked.log")
    assert calls.pop(os.getpid()) == [0, 16] and list(calls.values()) == [[32]]

    with monkeypatch.context() as m:
        one_cpu(m)
        wrap_run_frame(m, tmp_path / "one.log", fail)
        with leaves_nothing():
            in_process = run_simulate(tmp_path, "one", capsys)
    assert calls_by_pid(tmp_path / "one.log") == {os.getpid(): [0, 16, 32]}
    assert forked == in_process == (2, "error: no frames from 32\n", [])


def test_exceptions_in_both_processes_raise_in_chunk_order():
    # Chunk 2 (the worker) and chunk 3 (this process) both raise: chunk 2's
    # exception comes first, as in one process, though this process meets
    # chunk 3's first.
    def fail(c):
        if c >= 2:
            raise ValueError(f"chunk {c}")
        return c

    with leaves_nothing():
        chunks = map_chunks(fail, 5)
        assert [next(chunks), next(chunks)] == [0, 1]
        with pytest.raises(ValueError, match="^chunk 2$"):
            next(chunks)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@needs_fork
def test_unpicklable_worker_exception_raises_runtime_error():
    parent = os.getpid()

    def fn(c):
        if os.getpid() != parent:
            raise Unpicklable("lost")
        return c

    with leaves_nothing():
        with pytest.raises(RuntimeError, match=r"^the chunk worker exited with status 1 "
                           r"without a result for chunk 2$"):
            list(map_chunks(fn, 4))


@needs_fork
def test_killed_worker_exits_2_with_runtime_error(tmp_path, monkeypatch, capsys):
    # 70 frames: the worker runs chunks 2 and 4 and dies in chunk 4, after
    # writing chunk 2's result.
    def die(frames):
        if frames.start == 64:
            os.kill(os.getpid(), signal.SIGKILL)

    wrap_run_frame(monkeypatch, tmp_path / "calls.log", die)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**THREE_CHUNKS, "n_frames": 70}))
    out = tmp_path / "out"
    with leaves_nothing():
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: the chunk worker was killed by signal {int(signal.SIGKILL)} "
        "without a result for chunk 4\n")
    assert list(out.iterdir()) == []
    calls = calls_by_pid(tmp_path / "calls.log")
    assert calls.pop(os.getpid()) == [0, 16, 48] and list(calls.values()) == [[32, 64]]


@needs_fork
@pytest.mark.parametrize("exc", [ValueError("parent failed"), KeyboardInterrupt()])
def test_parent_exception_kills_and_reaps_the_worker(tmp_path, monkeypatch, capsys, exc):
    # 70 frames in 5 chunks. The parent raises in chunk 3 once the worker has
    # started chunk 4, where it sleeps far past the test's bound: only a kill
    # ends it in time. The ValueError is raised after chunk 2's result, in
    # chunk order; the KeyboardInterrupt at once.
    parent, log = os.getpid(), tmp_path / "calls.log"

    def act(frames):
        if os.getpid() != parent:
            if frames.start == 64:
                time.sleep(60)
        elif frames.start == 48:
            deadline = time.monotonic() + 20
            while sum(map(len, calls_by_pid(log).values())) < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise exc

    wrap_run_frame(monkeypatch, log, act)
    started = time.monotonic()
    with leaves_nothing():
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_simulate(tmp_path, "out", capsys, n_frames=70)
        else:
            assert run_simulate(tmp_path, "out", capsys, n_frames=70) == (
                2, "error: parent failed\n", [])
    assert time.monotonic() - started < 30
    assert sorted(calls_by_pid(log).values()) == [[0, 16, 48], [32, 64]]


def sleeps_in_chunk_4(c):
    # The worker returns chunk 2 at once and sleeps in chunk 4.
    if c == 4:
        time.sleep(60)
    return c


@needs_fork
def test_closing_the_map_early_kills_and_reaps_the_worker():
    started = time.monotonic()
    with leaves_nothing():
        chunks = map_chunks(sleeps_in_chunk_4, 5)
        assert [next(chunks), next(chunks), next(chunks)] == [0, 1, 2]
        chunks.close()
    assert time.monotonic() - started < 30


@needs_fork
def test_consumer_exception_kills_and_reaps_the_worker():
    # An exception in the loop over the map, outside the map itself, drops
    # the generator, whose close kills the worker.
    started = time.monotonic()
    with leaves_nothing():
        with pytest.raises(ZeroDivisionError):
            for c in map_chunks(sleeps_in_chunk_4, 5):
                if c == 2:
                    c / 0
    assert time.monotonic() - started < 30


@needs_fork
def test_a_failed_fork_runs_every_chunk_in_process(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    with leaves_nothing():
        assert list(map_chunks(lambda c: (c, os.getpid()), 5)) == [
            (c, os.getpid()) for c in range(5)]


# -- the same bytes on both paths --------------------------------------------

# simulate: 37 frames in 3 chunks; stream: 36 packets in 3 chunks; sweep-k: 3
# K values of 5 frames each, one chunk per K.
SAME_BYTES_RUNS = [("qpsk_multipath_pnc_chunks", "simulate"),
                   ("qam64_stream_chunks", "stream"),
                   ("qpsk_multipath_pnc", "sweep-k")]


@pytest.mark.parametrize("name, command", SAME_BYTES_RUNS)
def test_both_paths_write_the_golden_bytes(tmp_path, monkeypatch, capsys, name, command):
    # Artifact hashes, golden values and stdout of each path; the fork path
    # must fork once, the in-process path not at all.
    runs, forks, fork = {}, [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    for path in ("in_process", "forked"):
        if path == "forked" and not FORKS:
            pytest.skip(NO_FORK)
        (tmp_path / path).mkdir()
        with monkeypatch.context() as m, leaves_nothing():
            if path == "in_process":
                one_cpu(m)
            capsys.readouterr()
            hashes, values = run_command(tmp_path / path, name, command)
            runs[path] = hashes, values, capsys.readouterr().out
        assert len(forks) == (path == "forked")
    assert runs["in_process"][0] == GOLDEN[name][command]
    assert runs["forked"] == runs["in_process"]


@needs_fork
def test_simulate_csv_text_buffered_at_fork_is_written_once(tmp_path, monkeypatch):
    # At the fork the parent's staged evm.csv handle holds its header and
    # chunk 0's rows in its buffer, none of it on disk yet: a worker that
    # flushed that buffer on exit would write the text twice.
    out = tmp_path / "qpsk_multipath_pnc_chunks-simulate"

    def look(frames):
        if frames.start == 32:
            with open(tmp_path / "staged.txt", "w") as fh:
                fh.write(f"{os.getpid()} {os.path.getsize(out / '.evm.csv.partial')}")

    wrap_run_frame(monkeypatch, tmp_path / "calls.log", look)
    with leaves_nothing():
        hashes, _ = run_command(tmp_path, "qpsk_multipath_pnc_chunks", "simulate")
    pid, size = map(int, (tmp_path / "staged.txt").read_text().split())
    assert pid != os.getpid() and size == 0
    assert hashes == GOLDEN["qpsk_multipath_pnc_chunks"]["simulate"]
    lines = (out / "evm.csv").read_text().splitlines()
    assert lines[0] == "frame,evm_db,residual_phase_std"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(37))
    assert (out / "constellation.csv").read_text().count("re,im") == 1


def test_one_cpu_runs_every_chunk_in_process(tmp_path, monkeypatch, capsys):
    one_cpu(monkeypatch)
    wrap_run_frame(monkeypatch, tmp_path / "calls.log")
    with leaves_nothing():
        rc, err, files = run_simulate(tmp_path, "out", capsys)
    assert (rc, err, files) == (0, "", ["constellation.csv", "evm.csv", "summary.json"])
    assert calls_by_pid(tmp_path / "calls.log") == {os.getpid(): [0, 16, 32]}


@needs_fork
def test_the_worker_leaves_the_parents_cpu_but_while_the_parent_waits():
    # The worker runs on the parent's affinity set less the CPU the parent
    # ran on at the fork, but on the whole set while the parent waits for
    # its result; the parent's set is untouched. Each chunk looks at its
    # set before and after a sleep: chunk 2 (worker) sleeps past chunk 3
    # (parent), so the parent waits for it; chunk 4 (worker) looks while
    # chunk 5 (parent) still runs.
    parent, full = os.getpid(), affinity(0)

    def fn(c):
        time.sleep({4: 0.2}.get(c, 0))
        seen = [frozenset(affinity(0))]
        time.sleep({2: 0.6, 3: 0.2, 5: 0.6}.get(c, 0))
        return c, os.getpid(), seen + [frozenset(affinity(0))]

    with leaves_nothing():
        results = list(map_chunks(fn, 6))
    assert [r[0] for r in results] == list(range(6))
    assert all(results[c][1:] == (parent, [full, full]) for c in (0, 1, 3, 5))
    (worker,) = {results[c][1] for c in (2, 4)}
    (pinned, waited), (again, again_after) = results[2][2], results[4][2]
    assert worker != parent and pinned < full and len(pinned) == len(full) - 1
    assert waited == full and again == again_after == pinned


@needs_fork
def test_results_larger_than_the_pipe_buffer():
    size = 3 * RESULTS_PIPE_BYTES
    with leaves_nothing():
        results = list(map_chunks(lambda c: bytes([c]) * size, 5))
    assert results == [bytes([c]) * size for c in range(5)]


def test_library_stream_bytes_runs_in_process(monkeypatch):
    # The library runs its chunks in its own process: only the CLI forks.
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 0)
    with leaves_nothing():
        recovered, report = stream_bytes(bytes(range(256)) * 20, OfdmConfig(64, 3, 26, 16),
                                         ChannelConfig(), n_payload_symbols=2)
    assert report.packets_sent > 2 * CHUNK_FRAMES and forks == []


@pytest.mark.parametrize("n_chunks", [0, 1, 2, 3, 5])
def test_map_yields_every_chunk_in_order(n_chunks):
    with leaves_nothing():
        assert list(map_chunks(lambda c: (c, [c] * c), n_chunks)) == [
            (c, [c] * c) for c in range(n_chunks)]


def test_cli_run_lets_no_warning_escape(tmp_path):
    # A fresh interpreter with every warning an error and OPENBLAS_NUM_THREADS
    # unset, so that numpy's OpenBLAS may start its thread pool: from Python
    # 3.12, os.fork warns in a process with more than one thread, and the map
    # filters that one message around its fork.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THREE_CHUNKS))
    package_root = Path(mmwavelink.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root),
                                                      env.get("PYTHONPATH")]))
    code = "import sys; from mmwavelink.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, "simulate",
                           "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("simulate: 37 frames")
