"""Spans around the engine's module entry points, recorded from outside.

``Tracer.recording()`` replaces a fixed set of functions and methods with
timing wrappers, opens a root span for the query, and puts the originals
back on exit, so nothing outside one query is traced.  A span is
``[name, start_ns, end_ns, parent]``; its layer is the part of the name
before the first dot, which is the ``multimodel`` module it belongs to.
Wrappers patch the name where the caller looks it up: the executor imports
most entry points into its own namespace.
"""

from __future__ import annotations

import contextlib
import time

from multimodel import array_engine, executor
from multimodel.array_store import StoredArray
from multimodel.bridge import JoinStats
from multimodel.buffer_pool import BufferPool

ROOT = "executor.query"
LAYERS = ("script", "planner", "models", "rd_engine", "bridge",
          "array_engine", "array_store", "buffer_pool")

# (owner, attribute, span name, note) -- note(tracer, result) records
# counts taken from the call's result
_PATCHES = [
    (executor, "bind_script", "script.bind", None),
    (executor, "partition", "planner.partition", None),
    (executor, "topo_order", "planner.topo_order", None),
    (executor, "dag_to_trees", "planner.dag_to_trees", None),
    (executor.Catalog, "load_table", "models.load_table",
     lambda t, res: t.add("records_loaded", len(res.rows))),
    (executor.Catalog, "load_collection", "models.load_collection",
     lambda t, res: t.add("records_loaded", len(res.docs))),
    (executor.Catalog, "load_array", "array_store.load", None),
    (executor, "execute_tree", "rd_engine.execute_tree",
     lambda t, res: t.add("rows_out", len(res))),
    (executor, "to_array", "bridge.to_array", None),
    (array_engine, "rand", "array_engine.rand", None),
    (array_engine, "matmul", "array_engine.matmul", None),
    (array_engine, "ewise", "array_engine.ewise", None),
    (array_engine, "transpose", "array_engine.transpose", None),
    (BufferPool, "add", "buffer_pool.add", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.joins: list[dict] = []
        self._stack: list[int] = []

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- span recording ----------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        self.spans[i][1] = time.perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if note is not None:
                note(tracer, res)
            return res

        return traced

    def _wrap_pin(self, fn):
        tracer = self

        def pin(arr, tc):
            key = tuple(int(x) for x in tc)
            reads = arr.disk_reads.get(key, 0)
            i = tracer._open("array_store.pin")
            try:
                return fn(arr, tc)
            finally:
                tracer._close(i)
                tracer.add("tile_reads", arr.disk_reads.get(key, 0) - reads)

        return pin

    def _wrap_join(self, fn):
        tracer = self

        def dispatch_join(records, arr, *args, **kwargs):
            before = dict(arr.pin_counts)
            i = tracer._open("bridge.join")
            try:
                return fn(records, arr, *args, **kwargs)
            finally:
                tracer._close(i)
                grew = [n - before.get(tc, 0)
                        for tc, n in arr.pin_counts.items()
                        if n != before.get(tc, 0)]
                stats = kwargs.get("stats") or JoinStats()
                tracer.joins.append({
                    "pins": sum(grew), "tiles": len(grew),
                    "build_s": stats.build_seconds,
                    "probe_s": stats.probe_seconds,
                    "records": stats.n_records,
                    "output_rows": stats.output_rows})

        return dispatch_join

    @contextlib.contextmanager
    def recording(self):
        """Install every wrapper, time the body as the root span, restore."""
        patches = [(owner, attr, self._wrap(getattr(owner, attr), name, note))
                   for owner, attr, name, note in _PATCHES]
        patches.append((StoredArray, "pin", self._wrap_pin(StoredArray.pin)))
        patches.append((executor, "dispatch_join",
                        self._wrap_join(executor.dispatch_join)))
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            root = self._open(ROOT)
            try:
                yield self
            finally:
                self._close(root)
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self) -> list[int]:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its children."""
        dur = self.durations()
        own = list(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def inclusive_s(self, *names: str) -> float:
        """Seconds spent in spans with these names, counting a span nested
        in another of the same name once."""
        total = 0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in ("executor",) + LAYERS}
        for (name, _, _, _), own in zip(self.spans, self.self_times()):
            out[name.partition(".")[0]] += own / 1e9
        return out

    def to_json(self, query: int) -> list[list]:
        return [[query, name, start, end, parent]
                for name, start, end, parent in self.spans]
