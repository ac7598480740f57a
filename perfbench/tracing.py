"""Spans around the public functions of the lyricstats modules, kept in memory.

`instrument` replaces each public module-level function of the layer modules
with a wrapper that records a span (name, start, end, parent). It rebinds every
module-level name that refers to the original, in the layer modules and in the
package namespace, so the names that `lyricstats.cli` and the library look up
at call time reach the wrapper. No library file changes.

`summarize` turns the spans into per-name counts, total time and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("corpus", "style", "embeddings", "weat", "cli")


class Recorder:
    """Spans as [name, start, end, parent index] lists, parent -1 at the top.

    The stack of open spans is shared, so spans nest correctly only when the
    traced functions run on one thread, as they do in every benchmark command.

    `measure` maps a span name to a function of the traced call's result, such
    as `len`; `sizes[name]` is the sum of its values over the calls. A result
    it cannot measure adds nothing, so a changed return type never fails the
    traced program.
    """

    def __init__(self, measure: dict | None = None) -> None:
        self.spans: list[list] = []
        self.sizes: dict[str, int] = {}
        self._measure = measure or {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        sizes, measure = self.sizes, self._measure.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if measure is not None:
                try:
                    sizes[name] = sizes.get(name, 0) + measure(result)
                except (TypeError, AttributeError):
                    pass
            return result

        return traced


def instrument(recorder: Recorder) -> None:
    """Wrap the public functions of each layer module."""
    modules = [importlib.import_module(f"lyricstats.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for module in (importlib.import_module("lyricstats"), *modules):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, s (summed duration), self_s (duration minus the
    part of it that child spans cover) and the list of durations."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        duration = end - start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - _covered(children.get(i, []), start, end)
        entry["durations"].append(duration)
    return out


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail(durations: list[float]) -> tuple[float, float]:
    """(pct, value) of the highest percentile in TAIL_LADDER with at least ten
    samples beyond it; (0, 0) when there are too few samples."""
    ordered = sorted(durations)
    for pct in TAIL_LADDER:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct)
    return 0.0, 0.0
