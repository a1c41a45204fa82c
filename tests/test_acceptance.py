"""Shipping checklist: one test per acceptance criterion, in order.

Each test name carries its criterion number so the verbose pytest report
reads as the pass/fail line for that criterion.  Tolerances and budgets are
pinned as module constants next to the criterion that uses them.
"""

import csv
import json
import math
import os
import random
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from multimodel import Engine, EngineConfig
from multimodel.array_store import StoredArray
from multimodel.bench import bench_bufferpool, bench_mshj
from multimodel.bridge import (DimBinding, JoinStats, JoinTrace,
                               join_probe_only, mshj, to_array, to_relation)
from multimodel.buffer_pool import BufferObject, BufferPool
from multimodel.models import (BOOL, FLOAT, INT, ArrayMeta, CellSchema,
                               Relation)
from multimodel.planner import MODELS, alias_key, dag_to_trees, partition, \
    topo_order
from plan_oracles import (check_partitioning, check_topo, random_plan,
                          symbolic_dag, symbolic_tree)
from test_bridge import FIVE, build_array
from test_buffer_pool import SimPool

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")

N_RANDOM_JOINS = 200          # criterion 1: at least this many instances
JOIN_SWEEP_BUDGET_S = 120     # criterion 1: wall budget
BUILD_SWEEP_BUDGET_S = 180    # criterion 4: wall budget
BUILD_LINEARITY_R2 = 0.98     # criterion 4: minimum goodness of fit
N_RANDOM_DAGS = 500           # criterion 6
N_POOL_EVENTS = 10_000        # criterion 8
N_ROUND_TRIPS = 100           # criterion 9


# ---------------------------------------------------------------------------
# shared corpus for criteria 1 and 3: random joins, all checked against a
# nested-loop oracle, with full traces retained

_LAYOUTS = {2: ["dense", "coo", "csr"], 3: ["dense", "coo"],
            4: ["dense", "coo"]}


def _join_instance(d: int, layout: str, seed: int) -> dict:
    rng = random.Random(seed)
    vals_rng = np.random.Generator(np.random.Philox(seed))
    hi = {2: 40, 3: 14, 4: 8}[d]
    size = tuple(rng.randint(3, hi) for _ in range(d))
    tile = tuple(rng.randint(1, s) for s in size)
    total = int(np.prod(size))

    m = rng.randint(1, max(1, min(total // 2, 300)))
    flat = vals_rng.choice(total, size=m, replace=False)
    coords = np.stack(np.unravel_index(flat, size), axis=1)
    cell_vals = vals_rng.random(m)
    cells = {tuple(int(x) for x in coords[k]): (float(cell_vals[k]),)
             for k in range(m)}
    arr = build_array(BufferPool(64 << 20), size, tile, cells, layout,
                      dims=tuple(f"d{k}" for k in range(d)))

    # mostly small relations, occasionally the 1e4-row ceiling
    n = rng.randint(2000, 10_000) if rng.random() < 0.1 else rng.randint(1, 400)
    rows = []
    for i in range(n):
        slack = 3 if rng.random() < 0.02 else 0  # a few out-of-range probes
        rows.append(tuple(rng.randint(0, s - 1 + slack) for s in size) + (i,))
    rel = Relation([(f"a{k}", INT) for k in range(d)] + [("rid", INT)], rows)

    stats, trace = JoinStats(), JoinTrace()
    res = mshj(rel, arr, DimBinding(tuple(f"a{k}" for k in range(d))),
               stats=stats, trace=trace)
    expected = [r + cells[r[:d]] for r in rows if r[:d] in cells]
    return {
        "d": d, "layout": layout, "n": n,
        "match": Counter(res.rows) == Counter(expected),
        "schema_ok": [c for c, _ in res.schema] ==
                     [f"a{k}" for k in range(d)] + ["rid", "val"],
        "pins": [tuple(p) for p in trace.pins],
        "referenced": {tuple(tc) for tc in trace.tcs},
        "block_scans": stats.block_scans,
    }


@lru_cache(maxsize=1)
def _join_corpus() -> tuple[list[dict], float]:
    t0 = time.perf_counter()
    runs = []
    k = 0
    while len(runs) < N_RANDOM_JOINS:
        d = (2, 3, 4)[k % 3]
        layout = _LAYOUTS[d][(k // 3) % len(_LAYOUTS[d])]
        runs.append(_join_instance(d, layout, seed=1000 + k))
        k += 1
    return runs, time.perf_counter() - t0


def test_criterion_1_random_mshj_matches_nested_loop_oracle():
    runs, elapsed = _join_corpus()
    assert len(runs) >= N_RANDOM_JOINS
    bad = [r for r in runs if not (r["match"] and r["schema_ok"])]
    assert not bad, f"{len(bad)} mismatching joins, first: {bad[0]}"
    combos = {(r["d"], r["layout"]) for r in runs}
    assert combos == {(2, "dense"), (2, "coo"), (2, "csr"), (3, "dense"),
                      (3, "coo"), (4, "dense"), (4, "coo")}
    assert any(r["n"] >= 2000 for r in runs)
    assert elapsed < JOIN_SWEEP_BUDGET_S
    print(f"criterion 1: PASS ({len(runs)} joins in {elapsed:.1f}s)")


def test_criterion_2_five_record_trace_matches_hand_computation(pool):
    arr = build_array(pool, (30, 10), (10, 5),
                      {(23, 8): (1.5,), (5, 2): (2.5,), (15, 1): (3.5,)})
    trace = JoinTrace()
    mshj(FIVE, arr, DimBinding(("v0", "v1")), trace=trace)
    assert trace.stage_buckets[0] == [[1, 3], [2, 4], [0]]
    assert trace.stage_buckets[1] == [[1, 3, 2, 4], [0]]
    assert trace.probe_order == [1, 3, 2, 4, 0]
    assert [tuple(t) for t in trace.tcs] == \
        [(0, 0), (0, 0), (1, 0), (1, 0), (2, 1)]
    assert [tuple(c) for c in trace.ccs] == \
        [(5, 2), (7, 4), (5, 1), (2, 3), (3, 3)]
    # record (23, 8) resolves to tile (2, 1), in-tile cell (3, 3)
    assert (tuple(trace.tcs[-1]), tuple(trace.ccs[-1])) == ((2, 1), (3, 3))
    assert [tuple(p) for p in trace.pins] == [(0, 0), (1, 0), (2, 1)]
    print("criterion 2: PASS")


def test_criterion_3_tiles_pinned_exactly_once(tmp_path):
    runs, _ = _join_corpus()
    for r in runs:
        counts = Counter(r["pins"])
        assert set(counts) == r["referenced"]
        assert all(c == 1 for c in counts.values()), \
            f"tile pinned twice in d={r['d']} {r['layout']} n={r['n']}"

    # under a one-tile cache, an unordered probe re-reads what it revisits
    cells = {(x, y): (float(x * 8 + y),) for x in range(8) for y in range(8)}
    arr = build_array(BufferPool(64 << 20), (8, 8), (4, 4), cells)
    path = str(tmp_path / "grid.m2ar")
    arr.save(path)
    tile_bytes = 0
    probe = StoredArray.load(path, BufferPool(64 << 20))
    for tc in probe.tile_coords():
        t = probe.pin(tc)
        tile_bytes = max(tile_bytes, t.nbytes)
        probe.unpin(tc)

    rng = random.Random(5)
    rows = [(rng.randrange(8), rng.randrange(8), i) for i in range(200)]
    rel = Relation([("a0", INT), ("a1", INT), ("rid", INT)], rows)
    binding = DimBinding(("a0", "a1"))
    reads = {}
    for strat, fn in (("mshj", mshj), ("probe-only", join_probe_only)):
        cold = StoredArray.load(path, BufferPool(tile_bytes))
        trace = JoinTrace()
        fn(rel, cold, binding, trace=trace)
        assert len(set(map(tuple, trace.pins))) == 4  # revisits occurred
        reads[strat] = sum(cold.disk_reads.values())
    assert reads["mshj"] == 4
    assert reads["probe-only"] > reads["mshj"]
    print(f"criterion 3: PASS (cold reads {reads})")


def test_criterion_4_build_phase_is_linear_in_n():
    t0 = time.perf_counter()
    pool = BufferPool(64 << 20)
    rng = np.random.Generator(np.random.Philox(77))
    size = (64, 64, 64)
    flat = rng.choice(64 ** 3, size=4000, replace=False)
    coords = np.stack(np.unravel_index(flat, size), axis=1)
    cells = {tuple(int(x) for x in coords[k]): (1.0,) for k in range(4000)}
    arr = build_array(pool, size, (16, 16, 16), cells,
                      dims=("d0", "d1", "d2"))
    binding = DimBinding(("a0", "a1", "a2"))

    ns = [10_000, 30_000, 100_000, 300_000, 1_000_000]
    times = []
    for n in ns:
        probe_coords = rng.integers(0, 64, size=(n, 3))
        rel = Relation([("a0", INT), ("a1", INT), ("a2", INT)],
                       [tuple(r) for r in probe_coords.tolist()])
        best = math.inf
        for _ in range(2):
            stats = JoinStats()
            mshj(rel, arr, binding, stats=stats)
            assert stats.block_scans == 4  # three stages plus the probe
            best = min(best, stats.build_seconds)
        times.append(best)

    xs, ys = np.asarray(ns, dtype=float), np.asarray(times)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - fitted) ** 2) / np.sum((ys - ys.mean()) ** 2)
    elapsed = time.perf_counter() - t0
    assert r2 >= BUILD_LINEARITY_R2, f"build times {times} fit r2={r2:.4f}"
    assert elapsed < BUILD_SWEEP_BUDGET_S
    print(f"criterion 4: PASS (r2={r2:.4f}, {elapsed:.1f}s)")


def test_criterion_5_mshj_beats_conversion_at_small_n():
    # 100^3 extent, 20^3 tiles (the benchmark's 3-D shape); the conversion
    # strategy pays an array-to-relation cost before it can join at all.
    # No crossover point is asserted: only the small-N comparison and that
    # the conversion cost is measured separately and is nonzero.
    rows = bench_mshj(3, "dense", "500:2000:2", "all", seed=3, repeat=1)
    n_min = min(r["n"] for r in rows)
    by = {(r["strategy"], r["n"]): r for r in rows}
    fast = by[("mshj", n_min)]
    slow = by[("convert", n_min)]
    assert fast["wall_ms"] < slow["wall_ms"]
    assert slow["convert_ms"] > 0
    assert fast["convert_ms"] == 0
    for n in {r["n"] for r in rows}:
        sums = {r["checksum"] for r in rows if r["n"] == n}
        assert len(sums) == 1
    print(f"criterion 5: PASS (n={n_min}: mshj {fast['wall_ms']}ms vs "
          f"convert {slow['wall_ms']}ms, convert cost "
          f"{slow['convert_ms']}ms)")


def _replay_partitions(plan, pd):
    """Symbolic executor over the decomposed plan: relational/document
    partitions run through dag_to_trees (externally consumed nodes
    exported), everything else node by node."""
    env = {}
    cons = plan.consumers()
    for part in topo_order(pd):
        if part.model in ("relational", "document"):
            exports = [nid for nid in part.node_ids
                       if any(c not in part.node_ids for c in cons[nid])]
            main, trees = dag_to_trees(plan, part, exports=exports)
            for key, tree in trees:
                env[key] = symbolic_tree(tree, env)
            env[alias_key(part.output_node)] = symbolic_tree(main, env)
        else:
            local = {}
            for nid in sorted(part.node_ids):
                n = plan.node(nid)
                local[nid] = (n.op, tuple(
                    local[i] if i in part.node_ids else env[alias_key(i)]
                    for i in n.inputs))
                env[alias_key(nid)] = local[nid]
    return env


def test_criterion_6_random_dags_partition_and_reexecute():
    rng = random.Random(666)
    sizes = []
    for _ in range(N_RANDOM_DAGS):
        plan = random_plan(rng, max_nodes=30, models=MODELS)
        sizes.append(len(plan))
        pd = partition(plan)
        check_partitioning(plan, pd)
        check_topo(pd, topo_order(pd))
        env = _replay_partitions(plan, pd)
        for p in pd.partitions:
            assert env[alias_key(p.output_node)] == \
                symbolic_dag(plan, p.output_node)
        # every value the decomposition materialized is the DAG's value
        for key, got in env.items():
            assert got == symbolic_dag(plan, int(key[1:]))
    assert max(sizes) <= 30
    print(f"criterion 6: PASS ({N_RANDOM_DAGS} DAGs, "
          f"max {max(sizes)} nodes)")


def _flat_reference(seed: int):
    """The recommendation pipeline with plain numpy and dicts."""
    with open(os.path.join(DATA, "order.jsonl")) as f:
        cid_of = {d["oid"]: d["cid"]
                  for d in (json.loads(l) for l in f) if True}
    with open(os.path.join(DATA, "review.jsonl")) as f:
        ratings = [(cid_of[d["oid"]], d["pid"], d["rating"])
                   for d in (json.loads(l) for l in f)]
    X = np.zeros((20, 15))
    for cid, pid, rating in ratings:
        X[cid, pid] = rating
    W = np.random.Generator(np.random.Philox(seed)).random((20, 10))
    H = np.random.Generator(np.random.Philox(seed + 1)).random((10, 15))
    W = W * ((X @ H.T) / (W @ H @ H.T))
    H = H * ((W.T @ X) / (W.T @ W @ H))
    filled = W @ H
    with open(os.path.join(DATA, "interest.csv")) as f:
        interest = [(int(r["cid"]), int(r["pid"])) for r in csv.DictReader(f)]
    rows = [(c, p, float(filled[c, p])) for c, p in interest if c == 3]
    rows.sort()
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows[:10]


def test_criterion_7_pipeline_script_matches_flat_reference():
    eng = Engine(EngineConfig(data_dir=DATA, seed=11))
    with open(os.path.join(DATA, "recommend.m2s")) as f:
        res = eng.run(f.read())
    expected = _flat_reference(11)
    assert [c for c, _ in res.schema] == ["cid", "pid", "rating"]
    assert len(res.rows) == 10
    assert res.rows == expected  # row for row, exact values
    assert eng.join_stats and eng.join_stats[0].strategy == "mshj"
    print("criterion 7: PASS")


def test_criterion_8_pool_matches_simulator_and_policy_comparison():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        cap = 10_000
        pool, sim = BufferPool(cap), SimPool(cap)
        pinned: set = set()
        evicted: list = []
        next_id = 0
        for _ in range(N_POOL_EVENTS):
            resident = sim.order  # both pools agree or the test fails anyway
            roll = rng.random()
            if roll < 0.40 or not resident:
                oid = f"o{next_id}"
                next_id += 1
                size = rng.randint(200, 1500)
                assert sim.add(oid, size) == "ok"
                pool.add(BufferObject(
                    id=oid, size=size,
                    is_evictable=lambda o=oid: o not in pinned,
                    do_eviction=lambda o=oid: evicted.append(o)))
            elif roll < 0.65:
                oid = rng.choice(resident) if rng.random() < 0.8 \
                    else f"o{rng.randrange(next_id)}"
                assert (pool.get(oid) is not None) == sim.get(oid)
            elif roll < 0.80:
                oid = rng.choice(resident)
                pool.touch(oid)
                sim.touch(oid)
            elif roll < 0.92:
                oid = rng.choice(resident)
                if oid in pinned:
                    pinned.discard(oid)
                    sim.pinned.discard(oid)
                elif sum(sim.sizes[p] for p in pinned) < 3000:
                    pinned.add(oid)
                    sim.pinned.add(oid)
            else:
                oid = rng.choice(resident)
                pinned.discard(oid)
                sim.pinned.discard(oid)
                pool.drop(oid)
                sim.drop(oid)
            pool._audit()  # the full recount agrees with the O(1) counters
        assert evicted == sim.log
        assert sorted(pool.resident_ids()) == sorted(sim.order)
        st = pool.stats()
        assert (st.hits, st.misses) == (sim.hits, sim.misses)

    # the motivating comparison: one shared budget vs. fixed per-model splits
    rows, _ = bench_bufferpool(100_000, "both", seed=8)
    by = {(r["scenario"], r["strategy"]): r["pool_evictions"] for r in rows}
    assert by[("pool-tight", "unified")] == 0
    assert by[("pool-tight", "split")] > 0
    assert by[("pool-roomy", "unified")] == by[("pool-roomy", "split")] == 0
    print(f"criterion 8: PASS (split evictions: "
          f"{by[('pool-tight', 'split')]})")


def test_criterion_9_array_round_trip_preserves_relations():
    rng = random.Random(99)
    vals_rng = np.random.Generator(np.random.Philox(99))
    pool = BufferPool(64 << 20)
    for i in range(N_ROUND_TRIPS):
        d = rng.randint(1, 3)
        size = tuple(rng.randint(2, 12) for _ in range(d))
        total = int(np.prod(size))
        m = rng.randint(0, min(total, 200))
        flats = rng.sample(range(total), m)
        coords = [np.unravel_index(f, size) for f in flats]

        n_vals = rng.randint(1, 2)
        types = [rng.choice((FLOAT, INT, BOOL)) for _ in range(n_vals)]
        def draw(t):
            if t is FLOAT:
                return float(vals_rng.random())
            if t is INT:
                return int(vals_rng.integers(-50, 50))
            return bool(vals_rng.integers(0, 2))
        rows = [tuple(int(x) for x in c) + tuple(draw(t) for t in types)
                for c in coords]
        dims = [f"d{k}" for k in range(d)]
        vals = [f"v{k}" for k in range(n_vals)]
        rel = Relation([(n, INT) for n in dims] + list(zip(vals, types)), rows)

        meta = ArrayMeta(CellSchema(tuple(dims), tuple(vals), tuple(types)),
                         size, tuple(rng.randint(1, s) for s in size),
                         rng.choice(["dense", "coo"]))
        back = to_relation(to_array(rel, dims, vals, meta, pool))
        assert Counter(back.rows) == Counter(rel.rows), f"round trip {i}"
        assert [c for c, _ in back.schema] == dims + vals
    print(f"criterion 9: PASS ({N_ROUND_TRIPS} relations)")
