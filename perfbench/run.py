"""Seeded end-to-end benchmark of the multimodel engine.

    for w in recommend recommend_tight tile_join; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a source checkout: the engine is imported from
``src/``.  The run writes the workload's inputs from the seed, builds the
oracle, then runs the workload's script through ``Engine.run`` as a
single-client closed loop (a fresh ``Engine`` per query, inputs read from
disk) for ``--seconds``, checking every result.  Scratch files live in
``.perfbench/`` at the checkout root and are removed at exit, apart from the
run's record (``result-*.json`` or ``trace-*.json``, with the machine's
nproc, Python, numpy and BLAS build).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced queries and prints the per-layer metrics, taken by
timing the calls into each engine module from outside (see ``spans.py``).
Every metric is printed as ``name value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Counts repeat exactly for a seed.

``query_s`` is the run's fastest query.  On a shared 2-CPU x86_64 host,
queries ran up to 1.7x slower for whole runs at a time, with CPU time
tracking wall time.  Across ten seeds the per-run median query spread by
15-27 % (interquartile range over median) and the fastest query by 6-13 %,
less the shorter the query, so the inputs are sized for ~0.4 s queries.
Every query's wall time is kept in the run's record, and the median is
printed on the summary line.  ``setup_s`` is the median of the run's
set-ups: after each query the inputs are written again, into a scratch
dir, until set-up has had SETUP_SHARE of the run's time, so the set-up
samples spread over the run like the queries.

``python3 perfbench/selftest.py`` checks the harness itself at small scale.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SHARE = 0.2     # share of a run's time spent on repeated set-ups
MIN_QUERIES = 3       # timed queries per run, even past --seconds
MB = 1e6

END_TO_END = {
    "query_s": "s",
    "peak_heap_mb": "MB",
    "io_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "script.bind_s": "s",
    "planner.plan_s": "s",
    "models.load_s": "s",
    "models.records_loaded": "count",
    "rd_engine.exec_s": "s",
    "rd_engine.rows_out": "count",
    "bridge.to_array_s": "s",
    "bridge.join_s": "s",
    "bridge.join_build_s": "s",
    "bridge.join_probe_s": "s",
    "bridge.join_unreported_s": "s",
    "bridge.records_probed": "count",
    "bridge.output_rows": "count",
    "bridge.pins_per_tile": "ratio",
    "array_engine.matmul_s": "s",
    "array_engine.ewise_s": "s",
    "array_engine.transpose_s": "s",
    "array_engine.rand_s": "s",
    "array_store.pin_s": "s",
    "array_store.pins": "count",
    "array_store.tile_reads": "count",
    "array_store.spill_files_left": "count",
    "array_store.spill_mb": "MB",
    "buffer_pool.adds": "count",
    "buffer_pool.add_s": "s",
    "buffer_pool.add_us": "us",
    "buffer_pool.hit_ratio": "ratio",
    "buffer_pool.evictions": "count",
    "buffer_pool.resident_mb": "MB",
    "executor.self_s": "s",
    "script.self_s": "s",
    "planner.self_s": "s",
    "models.self_s": "s",
    "rd_engine.self_s": "s",
    "bridge.self_s": "s",
    "array_engine.self_s": "s",
    "array_store.self_s": "s",
    "buffer_pool.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _import_engine() -> None:
    """Import ``multimodel`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import multimodel
    except ImportError as e:
        sys.exit(f"perfbench: cannot import the engine from {SRC}: {e}")
    if not os.path.abspath(multimodel.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: multimodel was imported from "
                 f"{multimodel.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def io_bytes() -> tuple[int, int]:
    """Bytes this process has read and written through system calls, and
    the length of this reading, which the next reading will include."""
    with open("/proc/self/io", encoding="ascii") as f:
        text = f.read()
    fields = dict(line.split(": ") for line in text.splitlines())
    return int(fields["rchar"]) + int(fields["wchar"]), len(text)


def io_since(start: tuple[int, int]) -> int:
    return io_bytes()[0] - start[0] - start[1]


@dataclass
class Query:
    wall_s: float
    io_bytes: int
    error: str | None
    spill_files: int
    spill_bytes: int
    pool: object = None               # PoolStats after the query
    layers: dict = field(default_factory=dict)


def empty_spool(spool: str) -> tuple[int, int]:
    """Remove every file the query left in the spool dir: (count, bytes)."""
    names = os.listdir(spool)
    size = 0
    for n in names:
        p = os.path.join(spool, n)
        size += os.path.getsize(p)
        os.remove(p)
    return len(names), size


def run_query(wl, text: str, data_dir: str, spool: str, seed: int, check,
              tracer=None) -> Query:
    """One query: script text to a checked result, with a fresh Engine.
    Only Engine construction and ``run`` are timed."""
    from multimodel import Engine

    cfg = wl.config(data_dir, spool, seed)
    eng = None
    gc.collect()  # the query does not pay for collecting earlier garbage
    io0 = io_bytes()
    t0 = time.perf_counter()
    try:
        with tracer.recording() if tracer else contextlib.nullcontext():
            eng = Engine(cfg)
            res = eng.run(text)
        wall = time.perf_counter() - t0
        io = io_since(io0)
        error = check(res)
    except Exception as e:  # counted as a failed query, never dropped
        wall, io = time.perf_counter() - t0, io_since(io0)
        error = f"{type(e).__name__}: {e}"
    files, size = empty_spool(spool)
    q = Query(wall, io, error, files, size,
              eng.pool.stats() if eng is not None else None)
    if tracer is not None and error is None:
        q.layers = layer_metrics(tracer, q)
    return q


def layer_metrics(tr, q: Query) -> dict[str, float]:
    from spans import LAYERS

    wall = tr.durations()[0] / 1e9
    own = tr.layer_self_s()
    count = tr.counts.get
    adds = tr.calls("buffer_pool.add")
    add_s = tr.inclusive_s("buffer_pool.add")
    join_s = tr.inclusive_s("bridge.join")
    build = sum(j["build_s"] for j in tr.joins)
    probe = sum(j["probe_s"] for j in tr.joins)
    join_pins = sum(j["pins"] for j in tr.joins)
    join_tiles = sum(j["tiles"] for j in tr.joins)
    st = q.pool
    m = {
        "script.bind_s": tr.inclusive_s("script.bind"),
        "planner.plan_s": tr.inclusive_s("planner.partition",
                                          "planner.topo_order",
                                          "planner.dag_to_trees"),
        "models.load_s": tr.inclusive_s("models.load_table",
                                         "models.load_collection"),
        "models.records_loaded": count("records_loaded", 0),
        "rd_engine.exec_s": tr.inclusive_s("rd_engine.execute_tree"),
        "rd_engine.rows_out": count("rows_out", 0),
        "bridge.to_array_s": tr.inclusive_s("bridge.to_array"),
        "bridge.join_s": join_s,
        "bridge.join_build_s": build,
        "bridge.join_probe_s": probe,
        "bridge.join_unreported_s": join_s - build - probe,
        "bridge.records_probed": sum(j["records"] for j in tr.joins),
        "bridge.output_rows": sum(j["output_rows"] for j in tr.joins),
        "bridge.pins_per_tile": join_pins / join_tiles if join_tiles else 0.0,
        "array_engine.matmul_s": tr.inclusive_s("array_engine.matmul"),
        "array_engine.ewise_s": tr.inclusive_s("array_engine.ewise"),
        "array_engine.transpose_s": tr.inclusive_s("array_engine.transpose"),
        "array_engine.rand_s": tr.inclusive_s("array_engine.rand"),
        "array_store.pin_s": tr.inclusive_s("array_store.pin"),
        "array_store.pins": tr.calls("array_store.pin"),
        "array_store.tile_reads": count("tile_reads", 0),
        "array_store.spill_files_left": q.spill_files,
        "array_store.spill_mb": q.spill_bytes / MB,
        "buffer_pool.adds": adds,
        "buffer_pool.add_s": add_s,
        "buffer_pool.add_us": add_s / adds * 1e6 if adds else 0.0,
        "buffer_pool.hit_ratio": st.hits / max(1, st.hits + st.misses),
        "buffer_pool.evictions": st.evictions,
        "buffer_pool.resident_mb": st.resident_bytes / MB,
        "executor.self_s": own["executor"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    m["trace.wall_s"] = wall
    m["trace.coverage"] = 1 - own["executor"] / wall
    return m


def timed_setup(wl, seed: int, out: str):
    """Write the workload's inputs into ``out``: (seconds, data)."""
    t0 = time.perf_counter()
    data = wl.generate(seed, out, wl.sizes)
    return time.perf_counter() - t0, data


def measure(wl, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """One benchmark run; returns the record printed and saved."""
    from spans import Tracer

    data_dir = os.path.join(work, "data")
    first, data = timed_setup(wl, seed, data_dir)
    setup_walls = [first]
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    check = wl.make_check(data, seed, data_dir, spool)
    empty_spool(spool)
    text = wl.script_text()

    def one(tracer=None) -> Query:
        q = run_query(wl, text, data_dir, spool, seed, check, tracer)
        queries.append(q)
        if q.error is not None:
            print(f"query {len(queries)} failed: {q.error}", file=sys.stderr)
        return q

    queries: list[Query] = []
    timed, traced, tracers = [], [], []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds or len(timed) < MIN_QUERIES:
        timed.append(one())
        if trace:
            tracers.append(Tracer())
            traced.append(one(tracers[-1]))
            continue
        while sum(setup_walls) < SETUP_SHARE * (time.perf_counter() - start):
            scratch = os.path.join(work, "setup")
            setup_walls.append(timed_setup(wl, seed, scratch)[0])
            shutil.rmtree(scratch)
    ok = [q for q in timed if q.error is None] or timed
    record = {"queries": len(timed), "spans": []}
    if trace:
        ok_traced = [q for q in traced if q.error is None]
        metrics = {k: statistics.median(q.layers[k] for q in ok_traced)
                   if ok_traced else 0.0 for k in PER_LAYER
                   if k not in ("trace.untraced_s", "trace.overhead")}
        untraced = statistics.median(q.wall_s for q in ok)
        metrics["trace.untraced_s"] = untraced
        metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced - 1
        record["spans"] = [s for i, t in enumerate(tracers)
                           for s in t.to_json(i)]
        units = PER_LAYER
    else:
        tracemalloc.start()  # its own untimed pass: it slows allocation
        try:
            one()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics = {
            "query_s": min(q.wall_s for q in ok),
            "peak_heap_mb": peak / MB,
            "io_mb": statistics.median(q.io_bytes for q in ok) / MB,
            "setup_s": statistics.median(setup_walls),
        }
        units = END_TO_END
    failed = sum(q.error is not None for q in queries)
    record.update({
        "correct": failed == 0,
        "attempted": len(queries),
        "failed": failed,
        "error_frac": failed / len(queries),
        "query_walls_s": [q.wall_s for q in timed],
        "setup_walls_s": setup_walls,
        "spill_mb": statistics.median(q.spill_bytes for q in ok) / MB,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_engine()
    from workloads import workloads

    table = workloads()
    if args.workload not in table:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(table)}")
    wl = table[args.workload]
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)  # anything written to a relative path stays in here
    try:
        record = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    kind = "trace" if args.trace else "result"
    out = os.path.join(base, f"{kind}-{wl.name}-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "span_fields": ["query", "name", "start_ns", "end_ns",
                                   "parent"], **record}, f)
    print(f"# {wl.name} seed={args.seed} queries={record['queries']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_frac={record['error_frac']:g} "
          f"query_median_s={statistics.median(record['query_walls_s']):.4f} "
          f"spill_mb={record['spill_mb']:.3f} {json.dumps(env)}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
