"""Spans recorded from outside the program, around calls into its layers.

A traced run wraps the public entry points of each layer (the
``SegmentDatabase`` facade, the engine classes, ``Pager.fetch`` and the
kernel functions the engines call) for the length of its timed phase
and restores them afterwards; no program file changes.  Spans stay in
memory: per span name the recorder keeps the call count, total time,
self time (duration minus child spans) and *outer* time (only calls
with no enclosing span of the same layer, so a layer's time is never
counted twice), plus every top-level span.  :meth:`SpanRecorder.dump`
writes them out when the run ends.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Dict, List, Tuple


class SpanRecorder:
    def __init__(self):
        self._stack: List[list] = []   # [child seconds] per open span
        self._active: Dict[str, int] = {}
        self.stats: Dict[str, list] = {}  # name -> [count, total, self, outer]
        self.layer_outer: Dict[str, float] = {}
        self.top: List[Tuple[str, float, float]] = []  # (name, start, dur)
        self._patched: List[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        stack, active, stats = self._stack, self._active, self.stats
        layer_outer, top = self.layer_outer, self.top

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth = active.get(layer, 0)
            active[layer] = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[layer] = depth
                if stack:
                    stack[-1][0] += dur
                else:
                    top.append((name, t0, dur))
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if depth == 0:
                    entry[3] += dur
                    layer_outer[layer] = layer_outer.get(layer, 0.0) + dur

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, layer: str, start: float, dur: float) -> None:
        """Record a top-level span timed by the caller."""
        self.top.append((name, start, dur))
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur
        entry[3] += dur
        self.layer_outer[layer] = self.layer_outer.get(layer, 0.0) + dur

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        self._patched.append((owner, attr, own, original))
        setattr(owner, attr, self.wrap(name, layer, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def outer_s(self, *names: str) -> float:
        return sum(self.stats[n][3] for n in names if n in self.stats)

    def top_s(self) -> float:
        return sum(dur for _, _, dur in self.top)

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "spans": {name: dict(zip(("count", "total_s", "self_s",
                                          "outer_s"), entry))
                          for name, entry in sorted(self.stats.items())},
                "layers_outer_s": self.layer_outer,
                "top": self.top,
            }, fh)


def patch_layers(recorder: SpanRecorder) -> None:
    """Wrap the facade, both paper engines, the pager and the kernels."""
    from repro.core import api
    from repro.core.solution1 import index as sol1
    from repro.core.solution2 import index as sol2
    from repro.geometry import kernels
    from repro.iosim import pager

    for method in ("query", "query_batch", "insert", "delete"):
        recorder.patch(api.SegmentDatabase, method, f"facade.{method}",
                       "facade")
    for cls in (sol1.TwoLevelBinaryIndex, sol2.TwoLevelIntervalIndex):
        for method in ("query", "query_batch", "insert", "delete"):
            recorder.patch(cls, method, f"engine.{method}", "engine")
    recorder.patch(pager.Pager, "fetch", "pager.fetch", "fetch")
    for name in ("page_classify_summary", "gkey_sign_table"):
        recorder.patch(kernels, name, f"kernel.{name}", "kernel")
    for module in (sol1, sol2):
        recorder.patch(module, "page_query_hits", "kernel.page_query_hits",
                       "kernel")
