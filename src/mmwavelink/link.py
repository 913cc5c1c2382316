"""Frame engine shared by the CLI and the packet layer: transmit, channel and
decode for a stack of frames at once; and the CLI's chunk map, which may run
a run's chunks in two processes."""

from __future__ import annotations

import functools
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, _generators, apply_channel, seed_states, seeded_generators
from .modulation import Modulation, evm_db_from_powers
from .ofdm import (N_PREAMBLE_SYMBOLS, OfdmConfig, build_frames, frame_capacity_bits,
                   symbol_bodies)
from .pnc import estimate_phase
from .receiver import DecodeReport, decode_frames

# Frames per run_frames call in the loops over whole runs. Sixteen spread the
# per-call Python dispatch thin; larger chunks ran no faster and hold more
# memory at once.
CHUNK_FRAMES = 16
# map_chunks: the buffer size asked for the pipe the worker's results come
# through, room for its lead of a chunk or more.
RESULTS_PIPE_BYTES = 1 << 20


@dataclass
class FrameStack:
    """Consecutive frames of a run, sent and decoded together; every array is
    indexed by frame first."""
    report: DecodeReport
    tx_bits: np.ndarray            # (F, capacity), each frame's bits zero-padded
    theta_true_bodies: np.ndarray  # (F, S * n_fft) ground truth aligned with theta_est
    samples_per_frame: int
    # () -> the estimator run on the received payload bodies, (F, S, n_fft):
    # theta_est's oracle with PNC off, made only when first read.
    _oracle: object = field(repr=False)

    @functools.cached_property
    def theta_est(self) -> np.ndarray:   # (F, S * n_fft), the PNC track or the oracle
        phase = self._oracle() if self.report.phase is None else self.report.phase
        return phase.reshape(len(phase), -1)


def _payload_bodies(x, cfg: OfdmConfig) -> np.ndarray:
    """(..., n_payload_symbols, n_fft) view of frame buffers (..., n), preamble dropped."""
    return symbol_bodies(x, cfg)[..., N_PREAMBLE_SYMBOLS:, :]


def _send(bits, modulation: Modulation, ofdm_cfg: OfdmConfig, channel_cfg: ChannelConfig,
          pnc_enabled: bool, n_payload_symbols: int, channel_seeds: list) -> FrameStack:
    """The frames carrying `bits`, built, sent through the channel with
    channel_seeds[f] for row f, and decoded as one stack."""
    symbols, padded = build_frames(bits, modulation, ofdm_cfg, n_payload_symbols)
    y, theta = apply_channel(symbols.reshape(len(channel_seeds), -1), channel_cfg,
                             channel_seeds)
    del symbols   # not needed past the channel; frees the chunk's largest buffer
    return FrameStack(
        report=decode_frames(y, ofdm_cfg, modulation, pnc_enabled), tx_bits=padded,
        theta_true_bodies=_payload_bodies(theta, ofdm_cfg).reshape(len(channel_seeds), -1),
        samples_per_frame=y.shape[1],
        _oracle=lambda: estimate_phase(_payload_bodies(y, ofdm_cfg), ofdm_cfg).per_sample_phase)


def run_frames(bits, modulation: Modulation, ofdm_cfg: OfdmConfig,
               channel_cfg: ChannelConfig, pnc_enabled: bool, n_payload_symbols: int,
               run_seed: int, first_frame: int = 0) -> FrameStack:
    """Frames first_frame .. first_frame + F - 1 of a run, built, sent and
    decoded together as (F, symbols, n_fft) stacks.

    `bits[f]` is the payload of frame first_frame + f, whose channel draws
    use a seed derived from (run_seed, first_frame + f), so row f equals
    run_frames on that frame in a stack of one, bit for bit.
    """
    frames = range(first_frame, first_frame + len(bits))
    seeds = seed_states([(run_seed, i, 0) for i in frames], 1)[:, 0].tolist()
    return _send(bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled, n_payload_symbols, seeds)


def run_frame(modulation: Modulation, ofdm_cfg: OfdmConfig, channel_cfg: ChannelConfig,
              pnc_enabled: bool, n_payload_symbols: int, run_seed: int,
              frames: range) -> FrameStack:
    """Frames `frames` of a run whose frame i carries frame_bits_rng(run_seed, i)
    bits, drawn here and run as one stack, as run_frames runs them.

    The (run_seed, i, 1) bit seeds and the (run_seed, i, 0) channel seeds
    are hashed together: a channel seed is the first word of its row's state.
    """
    capacity = frame_capacity_bits(ofdm_cfg, modulation, n_payload_symbols)
    states = seed_states([(run_seed, i, b) for b in (1, 0) for i in frames], 4)
    bits = [rng.integers(0, 2, capacity, dtype=np.uint8)
            for rng in _generators(states[:len(frames)])]
    return _send(bits, modulation, ofdm_cfg, channel_cfg, pnc_enabled, n_payload_symbols,
                 states[len(frames):, 0].tolist())


def _chunks(n_frames: int) -> list:
    """The frame ranges of a run of n_frames, CHUNK_FRAMES at a time."""
    return [range(start, min(start + CHUNK_FRAMES, n_frames))
            for start in range(0, n_frames, CHUNK_FRAMES)]


def map_chunks(fn, n_chunks: int):
    """Yield fn(0), ..., fn(n_chunks - 1), in that order: the chunk loop of
    the CLI's simulate, sweep-k and stream, which may fork. The library's
    functions run their chunks in their own process.

    fn(c) must depend on c alone and return a picklable result, as the CLI's
    chunk functions do: a chunk's draws come from (seed, frame) alone, so
    its result has the same bytes in whichever process computes it.

    Chunk 0 runs in this process. Then, where _worker_cpus allows it, one
    forked worker on a CPU other than this process's computes the even
    chunks from 2 and writes each pickled result to a pipe, and this process
    computes each odd chunk c before it reads the worker's chunk c - 1, so
    that its chunk 1 covers the worker's start. Each process runs the same
    chunks in every run, and the pipe bounds the worker's lead, so memory
    does not grow with the run's length. While this process waits for a
    result, the worker may also run on this process's CPU, so that a worker
    slowed by a busy CPU can finish there. Otherwise every chunk runs here.
    An exception in either process is raised here in chunk order, with its
    type and message; a worker that ends without a result raises
    RuntimeError. An exception here, or closing the generator early, kills
    and reaps the worker.
    """
    if n_chunks < 1:
        return
    yield fn(0)
    cpus = _worker_cpus(n_chunks)
    if cpus is None:
        yield from map(fn, range(1, n_chunks))
        return
    import fcntl   # POSIX only, as is os.fork; loaded already with the CLI

    every = os.sched_getaffinity(0)
    results_fd, worker_fd = os.pipe()
    try:   # room for a simulate chunk's result, so that the worker need not wait
        fcntl.fcntl(worker_fd, fcntl.F_SETPIPE_SZ, RESULTS_PIPE_BYTES)
    except OSError:
        pass   # the default size: the worker waits more often, with the same bytes
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with more than one thread forks.
        # Only the CLI forks, and the only other thread in its process is
        # OpenBLAS's pool, which numpy starts when OPENBLAS_NUM_THREADS is
        # unset: OpenBLAS stops it around fork in its atfork handler, and no
        # other Python thread runs (_worker_cpus), so the worker inherits no
        # lock another thread holds.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:   # no process to spare: every chunk runs here
            pid = None
    if pid == 0:
        os.close(results_fd)
        _work(fn, range(2, n_chunks, 2), worker_fd, cpus)   # never returns
    results = open(results_fd, "rb")
    try:
        os.close(worker_fd)
        if pid is None:
            yield from map(fn, range(1, n_chunks))
            return
        for c in range(1, n_chunks + 1, 2):   # this process's chunk c, the worker's c - 1
            outcomes = [_outcome(fn, c)] if c < n_chunks else []
            if c > 1:
                _place(pid, every)   # while this process waits
                try:
                    outcomes.insert(0, pickle.load(results))
                except (EOFError, pickle.UnpicklingError):
                    status, pid = os.waitpid(pid, 0)[1], None
                    code = os.waitstatus_to_exitcode(status)
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    raise RuntimeError(f"the chunk worker {how} without a result for "
                                       f"chunk {c - 1}")
                _place(pid, cpus)
            for kind, value in outcomes:
                if kind == "raised":
                    raise value
                yield value
        os.waitpid(pid, 0)
        pid = None
    finally:
        results.close()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker_cpus(n_chunks: int):
    """The CPUs a chunk worker may run on: this process's affinity set less
    the CPU it runs on. None, so that every chunk runs in this process,
    without os.fork or os.sched_getaffinity, with fewer than 2 CPUs or 3
    chunks, off the main thread or with another Python thread alive, or
    where this process's CPU cannot be read: a worker left free to share
    that CPU ran slower than one process."""
    if (n_chunks < 3 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.current_thread() is not threading.main_thread()
            or threading.active_count() > 1):
        return None
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    try:   # field 39 of /proc/self/stat: the CPU this process last ran on
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None
    return cpus - {cpu}


def _outcome(fn, c: int) -> tuple:
    """("ok", fn(c)), or ("raised", exception) for an Exception, which is
    then raised in chunk order."""
    try:
        return "ok", fn(c)
    except Exception as exc:
        return "raised", exc


def _place(pid: int, cpus) -> None:
    """Set the worker's affinity; a worker that has ended is left as it is."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def _work(fn, chunks: range, fd: int, cpus) -> None:
    """The worker: write ("ok", fn(c)) for each chunk, pickled, to the pipe
    fd, or ("raised", exception) and stop. It leaves only through os._exit,
    so it flushes no buffer it inherited, such as a staged CSV's text; a
    result or exception that cannot be pickled ends it with status 1 and
    nothing written for its chunk."""
    code = 1
    try:
        with open(fd, "wb") as out:
            os.sched_setaffinity(0, cpus)
            for c in chunks:
                try:
                    record = ("ok", fn(c))
                except BaseException as exc:   # sent to the parent, which raises it
                    record = ("raised", exc)
                # Pickled whole before any byte is written: a failure leaves
                # no partial record.
                out.write(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
                out.flush()
                if record[0] == "raised":
                    break
        code = 0
    finally:
        os._exit(code)


def frame_bits_rng(run_seed: int, frame_idx: int) -> np.random.Generator:
    """np.random.default_rng(np.random.SeedSequence([run_seed, frame_idx, 1]))."""
    return seeded_generators([(run_seed, frame_idx, 1)])[0]


def _add_powers(totals: np.ndarray, error_power, reference_power) -> np.ndarray:
    """totals, (2,), plus each frame's error and reference power, added in
    place one frame after another as np.cumsum adds them: carried over a
    run's chunks, they equal one np.cumsum over the run, bit for bit."""
    powers = np.stack([error_power, reference_power], axis=-1)
    totals[:] = np.cumsum(np.concatenate([totals[None], powers]), axis=0)[-1]
    return totals


def aggregate_evm_db(error_power, reference_power) -> float | None:
    """RMS (linear-domain) EVM over frames from their (F,) power sums, each
    added left to right (_add_powers); None without any decided points."""
    return evm_db_from_powers(*_add_powers(np.zeros(2), error_power, reference_power))
