"""One benchmark invocation in a fresh process: `mmwavelink.cli.main(argv)`.

Usage: python3 bench/child.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...

Writes RESULT_JSON with the exit code, the monotonic clock at the first
call of `run_frame`, `stream_bytes` or `single_tone_probe` (after config
loading and, for `stream`, reading the input) and at the return of `main`,
the process's peak RSS, the seconds `calibrate` took just before and just
after `main` and, with TRACE=1, every recorded span. The parent reads the clock before it starts
this process, so setup time includes interpreter start and imports; it
subtracts the first calibration.
"""

import json
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops, small FFTs and array
    passes: the kinds of work the workloads do, none of it package code.

    The host's speed swings by tens of percent within seconds and minutes;
    timings scaled by this, taken in the same process around the run, swing
    less. The FFT length is one the package does not use, so none of the
    package's FFT plans are warmed, and the arrays stay far below any
    workload's peak RSS.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    small = np.ones(60, dtype=complex)
    for _ in range(6000):
        small = np.fft.ifft(np.fft.fft(small))
    mid = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(80):
        mid = np.cos(mid) * mid
    return time.perf_counter() - start


class FirstCall:
    """Notes the clock at the first call of any of `sites`, then unbinds itself."""

    def __init__(self, sites):
        self.at = None
        self._originals = [(m, a, getattr(m, a)) for m, a in sites]
        for module, attr, original in self._originals:
            setattr(module, attr, self._hook(original))

    def _hook(self, original):
        def first(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            self.restore()
            return original(*args, **kwargs)
        return first

    def restore(self):
        for module, attr, original in self._originals:
            setattr(module, attr, original)


def main(argv) -> int:
    src_dir, result_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src_dir)
    import mmwavelink.cli as cli
    from spans import Tracer, snapshot

    calibrated_before = calibrate()
    before = snapshot()
    tracer = Tracer()
    if trace:
        tracer.install()
    first = FirstCall([(cli, "run_frame"), (cli, "stream_bytes"),
                       (cli, "single_tone_probe")])
    try:
        rc = cli.main(cli_args)
    finally:
        end = time.monotonic()
        first.restore()
        tracer.restore()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rc": rc,
        "t_first": first.at,
        "t_end": end,
        "maxrss_kb": maxrss_kb,
        "calibrate_s": [calibrated_before, calibrate()],
        "restored": all(getattr(m, a) is o for m, a, o in before),
        "spans": tracer.spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
