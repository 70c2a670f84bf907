"""Span tracing around the toolkit's public functions, from outside it.

``patch`` replaces a module-level function with a wrapper in every
``amner`` namespace that holds the original, because modules bind some
names at import (``amner.train`` imports ``encode_forward`` and
``encode_backward`` from ``amner.model``), and a call through such a name
would otherwise escape the wrapper.  ``Tracer.install`` patches a function
with one that records a span (name, start, end, parent) per call.

Spans stay in memory until ``write`` saves them.  The benchmark runs in
one thread, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def patch(target: str, make_wrapper) -> None:
    """Replace ``target`` ("module.function" relative to ``amner``) by
    ``make_wrapper(original)`` wherever an ``amner`` module binds it."""
    module_name, func_name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(f"amner.{module_name}"), func_name)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name != "amner" and not name.startswith("amner."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])

        return traced

    def install(self, target: str) -> None:
        """Trace ``target`` ("module.function" relative to ``amner``)."""
        patch(target, lambda fn: self._wrap(target, fn))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
