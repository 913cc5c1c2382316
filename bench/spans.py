"""Span tracing of the mmwavelink layers, installed from outside the package.

Each layer is one module of the package. `Tracer.install` rebinds every
public function a layer defines, at every module that binds it (its own
module included, so intra-module calls are seen too), to a wrapper that
records a span. `PhaseNoiseProcess` construction is recorded as
`channel.pn_init`. Spans stay in memory as `[name, start_ns, end_ns,
parent_index]` lists until the run ends; `restore` puts the original
bindings back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "link", "ofdm", "channel", "pnc", "receiver", "modulation",
          "linklayer", "metrics")

# Classes are left alone except this one: its constructor designs the
# shaping filter and runs the settle warm-up once per frame.
CONSTRUCTOR_SPANS = {("channel", "PhaseNoiseProcess"): "channel.pn_init"}


def layer_modules():
    return [sys.modules[f"mmwavelink.{layer}"] for layer in LAYERS]


def snapshot():
    """Every callable binding of every layer module, to check a restore against."""
    return [(m, a, o) for m in layer_modules() for a, o in vars(m).items()
            if callable(o)]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = layer_modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for (layer, attr), span in CONSTRUCTOR_SPANS.items():
            cls = getattr(sys.modules[f"mmwavelink.{layer}"], attr)
            wrappers[id(cls)] = (cls, self._wrap(cls, span))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def restore(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved = []


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive ns, self ns and each call's duration.

    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                        "durations_ns": []})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
        entry["durations_ns"].append(end - start)
    return stats
