"""In-process tracing of horoflow's public functions, from outside the package.

A Tracer replaces a function at the name its callers resolve (a module
global such as ``flow.geometry_from_graph``, or a class attribute such as
``ConeSampler.points``) with a wrapper that records a span: name, start,
end, and the span that caused it.  Spans nest per thread; worker threads
started by ``parallel.map_rows`` adopt the ``map_rows`` span as their
parent.  Aggregates (calls, busy time, time covered by child spans, and
byte/row counters) are kept for every span; the raw spans are kept only
while ``keep_spans`` is set, so a long run does not hold millions of tuples.

Names that a later version of the package no longer has are skipped, so
their metrics read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter


class _Stat:
    __slots__ = ("calls", "busy", "child")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    """Span recorder with per-name aggregates; install() patches, restore() undoes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.keep_spans = True
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, _Stat] = {}
        self.counters: Counter = Counter()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else getattr(self._local, "adopted", 0)
        frame = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = _Stat()
            stat.calls += 1
            stat.busy += duration
            stat.child += child
            if self.keep_spans:
                self.spans.append((span_id, parent, name, start, end))

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def reset(self) -> None:
        """Drop the aggregates (spans are kept; see keep_spans)."""
        with self._lock:
            self.stats.clear()
            self.counters.clear()

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span; after(args, kwargs) runs on success."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def wrap_map_rows(self, fn, name: str):
        """Span around map_rows that counts rows and parents the worker spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(block_fn, array, *args, **kwargs):
            frame = tracer._enter(name)
            parent = frame[0]

            def adopted(block):
                local = tracer._local
                saved = getattr(local, "adopted", 0)
                local.adopted = parent
                try:
                    return block_fn(block)
                finally:
                    local.adopted = saved

            try:
                return fn(adopted, array, *args, **kwargs)
            finally:
                tracer._exit(frame)
                tracer.count(name + ".rows", int(array.shape[0]))

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace owner.attr by wrapper_factory(original); skip it when absent."""
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- views ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def busy_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.busy if stat else 0.0

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.busy - stat.child if stat else 0.0

    def us_per_call(self, name: str) -> float:
        stat = self.stats.get(name)
        return 1e6 * stat.busy / stat.calls if stat and stat.calls else 0.0

    def write_spans(self, path: str) -> None:
        """Write the kept spans as CSV: span_id,parent_id,name,start_s,end_s."""
        rows = ["span_id,parent_id,name,start_s,end_s"]
        rows.extend(f"{s},{p},{n},{a!r},{b!r}" for s, p, n, a, b in self.spans)
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def _file_bytes(tracer: Tracer, key: str, path_index: int):
    """after-hook adding the size of the file named by positional argument path_index."""

    def after(args, kwargs):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        tracer.count(key, os.path.getsize(path))

    return after


def install(tracer: Tracer, horoflow_modules: dict) -> None:
    """Patch every traced name; horoflow_modules maps module names to modules."""
    cli = horoflow_modules["cli"]
    curvalg = horoflow_modules["curvalg"]
    flow = horoflow_modules["flow"]
    graphgeom = horoflow_modules["graphgeom"]
    monitors = horoflow_modules["monitors"]

    def plain(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    # (owner, attribute, span name): each owner is where the caller resolves it.
    simple = [
        (cli, "parse_config", "cli.parse_config"),
        (curvalg, "solve_pinching_constants", "curvalg.solve_pinching_constants"),
        (flow, "solve_pinching_constants", "curvalg.solve_pinching_constants"),
        (curvalg, "speed", "curvalg.speed"),
        (graphgeom, "speed", "curvalg.speed"),
        (curvalg, "speed_gradient", "curvalg.speed_gradient"),
        (flow, "speed_gradient", "curvalg.speed_gradient"),
        (curvalg, "gradient_floor", "curvalg.gradient_floor"),
        (curvalg, "hessian_ceiling", "curvalg.hessian_ceiling"),
        (curvalg, "balance_function", "curvalg.balance_function"),
        (curvalg.ConeSampler, "points", "curvalg.ConeSampler.points"),
        (graphgeom, "geometry_from_graph", "graphgeom.geometry_from_graph"),
        (flow, "geometry_from_graph", "graphgeom.geometry_from_graph"),
        (graphgeom.GraphState, "__init__", "graphgeom.GraphState"),
        (flow, "stable_dt", "flow.stable_dt"),
        (flow, "run", "flow.run"),
        (monitors, "record", "monitors.record"),
        (flow, "support_offset", "oracle.support_offset"),
    ]
    for owner, attr, name in simple:
        tracer.patch(owner, attr, plain(name))
    tracer.patch(
        flow,
        "save_snapshot",
        plain("graphgeom.save_snapshot", _file_bytes(tracer, "graphgeom.snapshot_bytes", 1)),
    )
    tracer.patch(
        monitors.DiagnosticsRecorder,
        "write_csv",
        plain("monitors.write_csv", _file_bytes(tracer, "monitors.diagnostics_bytes", 1)),
    )
    tracer.patch(curvalg, "map_rows", lambda fn: tracer.wrap_map_rows(fn, "parallel.map_rows"))
