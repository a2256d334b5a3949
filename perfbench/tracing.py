"""In-memory spans for the benchmark's traced run.

A span is ``(id, name, start_ns, end_ns, request, parent)``.  The name's
prefix before the first dot is the layer (``core``, ``active``, ``aio``,
``loadsim``), named after the ``repro`` package whose public call the span
surrounds.  Spans are opened and closed by the benchmark's own wrappers
around those calls; nothing inside ``repro`` is instrumented.

The current span lives in a :class:`contextvars.ContextVar`, so every
asyncio task and every thread sees its own parent chain.  Spans that end
on another thread (a delegated task's completion, observed through
``LightFuture.add_done_callback`` on the server thread) are recorded whole
with :meth:`Tracer.record`.  ``list.append`` and ``next(itertools.count())``
are single C calls, so concurrent recorders never tear an entry.

Wait spans cover an interval in which the request is parked on the layer
(an ``aio.wait_until`` until its predicate holds, an ``active.complete``
from submission to the done callback).  They still cover their parent's
interval, so the parent's self time excludes them, but their own length is
reported as waiting, not as the layer's self time.
"""

from __future__ import annotations

import contextvars
import gzip
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

#: span names whose duration is time parked on the layer, not work in it
WAIT_SPANS = frozenset({"aio.wait_until", "active.complete"})

LAYERS = ("core", "active", "aio", "loadsim")

_now = time.perf_counter_ns


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them when a run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        #: (span id, request id) of the innermost open span, or None
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    def start(self, name: str, req=None) -> tuple:
        """Open a span; ``req`` defaults to the enclosing span's request."""
        outer = self._current.get()
        parent = None
        if outer is not None:
            parent = outer[0]
            if req is None:
                req = outer[1]
        sid = next(self._ids)
        token = self._current.set((sid, req))
        return (sid, name, req, parent, token, _now())

    def end(self, handle: tuple) -> None:
        sid, name, req, parent, token, t0 = handle
        t1 = _now()
        self._current.reset(token)
        self.spans.append((sid, name, t0, t1, req, parent))

    def record(self, name: str, t0: int, t1: int, req, parent) -> None:
        """Record a finished span measured elsewhere (e.g. another thread)."""
        self.spans.append((next(self._ids), name, t0, t1, req, parent))

    # ------------------------------------------------------------- analysis
    def durations_us(self, name: str) -> list[float]:
        return [(s[3] - s[2]) / 1e3 for s in self.spans if s[1] == name]

    def self_times_us(self, name: str) -> list[float]:
        """Self time of every span called ``name``, in microseconds."""
        children = self._children()
        return [(t1 - t0 - _covered(t0, t1, children.get(sid, ()))) / 1e3
                for sid, n, t0, t1, _req, _parent in self.spans if n == name]

    def _children(self) -> dict:
        children: dict = defaultdict(list)
        for s in self.spans:
            if s[5] is not None:
                children[s[5]].append((s[2], s[3]))
        return children

    def layer_times_us(self) -> tuple[dict, dict]:
        """Per-layer (self time, wait time) totals in microseconds.

        Self time of a span is its duration minus the part of it that its
        child spans cover; wait spans add to the wait total instead.  Spans
        of concurrent requests overlap, so under concurrency a stall in one
        request also lengthens the self time of the spans open beside it.
        """
        children = self._children()
        busy = dict.fromkeys(LAYERS, 0.0)
        wait = dict.fromkeys(LAYERS, 0.0)
        for sid, name, t0, t1, _req, _parent in self.spans:
            layer = name.split(".", 1)[0]
            if name in WAIT_SPANS:
                wait[layer] = wait.get(layer, 0.0) + (t1 - t0) / 1e3
                continue
            covered = _covered(t0, t1, children.get(sid, ()))
            busy[layer] = busy.get(layer, 0.0) + (t1 - t0 - covered) / 1e3
        return busy, wait

    def dump(self, path: Path) -> None:
        """Write every span as one gzip-compressed JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for sid, name, t0, t1, req, parent in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                    "request": req, "parent": parent}) + "\n")


def _covered(t0: int, t1: int, intervals) -> int:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    total = 0
    reach = t0
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total
