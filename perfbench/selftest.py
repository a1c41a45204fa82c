"""Self-test of the benchmark harness on small inputs.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names every metric the harness prints, with the
same unit; that every workload passes its oracle and that each oracle
rejects a corrupted result; that counts repeat exactly for one seed; that
the tracer restores what it patched and its spans nest; and that the
per-layer self times plus ``executor.self_s`` add up to the traced wall
time.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEED = 5
SECONDS = 0.5
# metrics that count work or data, which repeat exactly for a seed
EXACT = {"io_mb"} | {name for name, unit in run.PER_LAYER.items()
                     if unit in ("count", "MB") or name.endswith("_ratio")
                     or name == "bridge.pins_per_tile"}


def fail(msg: str) -> None:
    sys.exit(f"selftest: FAIL: {msg}")


def check_benchmark_json(names) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != table:
            fail(f"BENCHMARK.json {key} differs from the harness: "
                 f"{sorted(set(listed.items()) ^ set(table.items()))}")
    listed = [w["name"] for w in doc["workloads"]]
    if listed != list(names):
        fail(f"BENCHMARK.json workloads {listed} != harness {list(names)}")
    print("ok: BENCHMARK.json lists every metric with the harness's unit")


def check_record(name: str, rec: dict, units: dict) -> None:
    if not rec["correct"] or rec["failed"] or rec["attempted"] < 1:
        fail(f"{name}: {rec['failed']} of {rec['attempted']} queries failed")
    got = {k: m["unit"] for k, m in rec["metrics"].items()}
    if got != units:
        fail(f"{name}: printed metrics differ: "
             f"{sorted(set(got.items()) ^ set(units.items()))}")


def check_oracle_rejects(wl, data, work: str) -> None:
    """The oracle accepts the engine's result and rejects it corrupted."""
    from multimodel import Engine
    from multimodel.models import Relation

    spool = os.path.join(work, "spool")
    check = wl.oracle(data, SEED, wl.sizes)
    res = Engine(wl.config(work, spool, SEED)).run(wl.script_text())
    if check(res) is not None:
        fail(f"{wl.name}: oracle rejects the engine: {check(res)}")
    run.empty_spool(spool)
    last = res.rows[-1]
    bad = last[:-1] + (last[-1] * 1.5 + 1,)
    if check(Relation(res.schema, res.rows[:-1] + [bad])) is None:
        fail(f"{wl.name}: oracle accepts a corrupted last row {bad}")
    if check(Relation(res.schema, res.rows[:-1])) is None:
        fail(f"{wl.name}: oracle accepts a result missing a row")


def check_trace(wl, work: str, check) -> None:
    """Patches are restored, spans nest, self times sum to the wall time."""
    from multimodel import array_engine, executor
    from multimodel.array_store import StoredArray
    from multimodel.buffer_pool import BufferPool
    from spans import LAYERS, Tracer

    spool = os.path.join(work, "spool")
    before = (executor.bind_script, executor.dispatch_join,
              array_engine.matmul, StoredArray.pin, BufferPool.add)
    tr = Tracer()
    q = run.run_query(wl, wl.script_text(), work, spool, SEED, check, tr)
    after = (executor.bind_script, executor.dispatch_join,
             array_engine.matmul, StoredArray.pin, BufferPool.add)
    if before != after:
        fail(f"{wl.name}: the tracer left a wrapper installed")
    if q.error is not None:
        fail(f"{wl.name}: traced query failed: {q.error}")
    for name, start, end, parent in tr.spans:
        if end < start:
            fail(f"{wl.name}: span {name} ends before it starts")
        if parent >= 0:
            _, ps, pe, _ = tr.spans[parent]
            if start < ps or end > pe:
                fail(f"{wl.name}: span {name} lies outside its parent")
    wall = q.layers["trace.wall_s"]
    total = q.layers["executor.self_s"] + sum(
        q.layers[f"{layer}.self_s"] for layer in LAYERS)
    if abs(total - wall) > 1e-6 * wall:
        fail(f"{wl.name}: self times sum to {total}, traced wall is {wall}")
    if not 0 < wall <= q.wall_s:
        fail(f"{wl.name}: traced wall {wall} outside the query's {q.wall_s}")
    print(f"ok: {wl.name}: {len(tr.spans)} spans nest and self times sum "
          f"to the traced wall {wall:.4f} s")


def exact_metrics(rec: dict) -> dict:
    return {k: m["value"] for k, m in rec["metrics"].items() if k in EXACT}


def main() -> int:
    run._import_engine()
    from workloads import workloads

    table = workloads(small=True)
    check_benchmark_json(table)
    base = os.path.join(run.ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        for name, wl in table.items():
            work = os.path.join(base, name)
            spool = os.path.join(work, "spool")
            os.makedirs(spool)
            data = wl.generate(SEED, work, wl.sizes)
            check_oracle_rejects(wl, data, work)
            check_trace(wl, work, wl.make_check(data, SEED, work, spool))
            records = []
            for trace in (False, False, True, True):
                sub = os.path.join(work, f"run{len(records)}")
                os.makedirs(sub)
                rec = run.measure(wl, SEED, SECONDS, trace, sub)
                check_record(name, rec,
                             run.PER_LAYER if trace else run.END_TO_END)
                records.append(rec)
            for a, b in (records[:2], records[2:]):
                first, second = exact_metrics(a), exact_metrics(b)
                if first != second:
                    diff = {k: (first[k], second[k]) for k in first
                            if first[k] != second[k]}
                    fail(f"{name}: counts differ between two runs of one "
                         f"seed: {diff}")
            print(f"ok: {name}: oracle passes, "
                  f"{len(exact_metrics(records[0]) | first)} counts repeat")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
