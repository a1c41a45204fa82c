"""Reproducible micro-benchmarks: join strategies and buffer-pool policies.

Every row in a report is re-runnable from its recorded seed.  Join runs are
cold: each repetition reloads the array into a fresh pool so tile-read and
pool counters are deterministic.  The first repetition is a warm-up and is
discarded; the reported wall time and each phase time are medians over
the rest.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import statistics
import tempfile
import time
from functools import partial

import numpy as np

from .array_store import ArrayBuilder, StoredArray
from .bridge import STRATEGIES, JoinStats, dispatch_join, to_relation
from .buffer_pool import BufferObject, BufferPool
from .errors import ConfigError
from .models import (FLOAT, INT, ArrayMeta, CellSchema, Collection, Column,
                     Relation)
from .predicates import parse_predicate

REPORT_COLUMNS = [
    "scenario", "strategy", "n", "d", "layout", "wall_ms", "extract_ms",
    "build_ms", "probe_ms", "emit_ms", "convert_ms", "tile_pins", "tile_reads",
    "block_scans", "stages", "preads", "pool_hits", "pool_misses",
    "pool_evictions", "seed", "checksum",
]

# array shape per dimensionality: (extent, tile extent)
SHAPES = {
    2: ((1000, 1000), (100, 100)),
    3: ((100, 100, 100), (20, 20, 20)),
    4: ((30, 30, 30, 30), (10, 10, 10, 10)),
}

_FILL = 0.25  # fraction of cells present
_MAX_CELLS = 250_000


def parse_sweep(text: str) -> list[int]:
    """``lo:hi:steps`` -> distinct integer record counts."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"sweep needs integers, got {text!r}") from None
    if lo < 1 or hi < lo or steps < 1:
        raise ConfigError(f"bad sweep range {text!r}")
    ns = sorted({int(round(x)) for x in np.linspace(lo, hi, steps)})
    return ns


def checksum(result) -> str:
    """Order-insensitive digest of a join result, for cross-strategy
    comparison."""
    h = hashlib.sha1()
    if isinstance(result, StoredArray):
        result = to_relation(result)
    if isinstance(result, Relation):
        items = sorted(repr(r) for r in result.rows)
    elif isinstance(result, Collection):
        items = sorted(repr(sorted(d.items())) for d in result.docs)
    else:
        items = [repr(result)]
    for it in items:
        h.update(it.encode())
        h.update(b"\n")
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# join benchmark

def build_bench_array(d: int, layout: str, seed: int, path: str, *,
                      size=None, tile=None) -> None:
    """Materialize the benchmark array on disk: ~25% of cells populated,
    coordinates drawn without replacement."""
    size = tuple(size or SHAPES[d][0])
    tile = tuple(tile or SHAPES[d][1])
    rng = np.random.Generator(np.random.Philox(seed))
    total = int(np.prod(size))
    m = max(1, min(int(total * _FILL), _MAX_CELLS))
    flat = rng.choice(total, size=m, replace=False)
    coords = np.stack(np.unravel_index(flat, size), axis=1)
    values = rng.random(m)
    meta = ArrayMeta(CellSchema(tuple(f"a{i}" for i in range(d)),
                                ("val",), (FLOAT,)),
                     size, tile, layout)
    builder = ArrayBuilder(meta, BufferPool(1 << 30))
    builder.add_cells(coords, [values])
    builder.finish().save(path)


def _gen_records(n: int, d: int, size, seed: int) -> Relation:
    rng = np.random.Generator(np.random.Philox(seed))
    coords = rng.integers(0, np.asarray(size), size=(n, d))
    schema = [(f"a{i}", INT) for i in range(d)] + [("rid", INT)]
    return Relation.from_columns(
        schema, [Column(np.ascontiguousarray(coords[:, i])) for i in range(d)]
        + [Column(np.arange(n, dtype=np.int64))])


def _max_tile_bytes(path: str) -> int:
    pool = BufferPool(1 << 30)
    arr = StoredArray.load(path, pool)
    worst = 0
    for tc in arr.tile_coords():
        with arr.pinned(tc) as t:
            worst = max(worst, t.nbytes)
    return worst


def _median_ms(timed: list[JoinStats], phase: str) -> float:
    return round(statistics.median(
        getattr(s, f"{phase}_seconds") for s in timed) * 1000.0, 3)


def bench_mshj(dims: int = 2, layout: str = "dense",
               n_sweep: str = "1000:100000:5", strategy: str = "all", *,
               seed: int = 0, capacity_tiles: int = 0, repeat: int = 3,
               size=None, tile=None, workdir: str | None = None) -> list[dict]:
    """Sweep record counts over one array shape; returns report rows."""
    if dims not in SHAPES:
        raise ConfigError(f"dims must be one of {sorted(SHAPES)}")
    if layout == "csr" and dims != 2:
        raise ConfigError("csr layout is 2-D only")
    if layout not in ("dense", "coo", "csr"):
        raise ConfigError(f"unknown layout {layout!r}")
    if strategy != "all" and strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    strategies = STRATEGIES if strategy == "all" else (strategy,)
    pred = parse_predicate(" and ".join(f"rec.a{i} = arr.a{i}" for i in range(dims)))
    ns = parse_sweep(n_sweep)
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="m2bench-")
    path = os.path.join(workdir, f"bench-{dims}d-{layout}.m2ar")
    try:
        build_bench_array(dims, layout, seed, path, size=size, tile=tile)
        capacity = (capacity_tiles * _max_tile_bytes(path)
                    if capacity_tiles > 0 else 1 << 30)
        scenario = f"mshj-{dims}d-{layout}"
        asize = tuple(size or SHAPES[dims][0])
        rows = []
        for n in ns:
            rel = _gen_records(n, dims, asize, seed + n)
            for strat in strategies:
                walls, timed = [], []
                for rep in range(repeat + 1):
                    pool = BufferPool(capacity)
                    arr = StoredArray.load(path, pool)
                    stats = JoinStats()
                    t0 = time.perf_counter()
                    res = dispatch_join(rel, arr, pred, strategy=strat,
                                        stats=stats)
                    dt = (time.perf_counter() - t0) * 1000.0
                    if rep > 0:
                        walls.append(dt)
                        timed.append(stats)
                ps = pool.stats()
                rows.append({
                    "scenario": scenario,
                    "strategy": strat,
                    "n": n,
                    "d": dims,
                    "layout": layout,
                    "wall_ms": round(statistics.median(walls), 3),
                    "extract_ms": _median_ms(timed, "extract"),
                    "build_ms": _median_ms(timed, "build"),
                    "probe_ms": _median_ms(timed, "probe"),
                    "emit_ms": _median_ms(timed, "emit"),
                    "convert_ms": _median_ms(timed, "convert"),
                    "tile_pins": stats.tile_pins,
                    "tile_reads": arr.total_reads,
                    "block_scans": stats.block_scans,
                    "stages": stats.stages,
                    "preads": stats.preads,
                    "pool_hits": ps.hits,
                    "pool_misses": ps.misses,
                    "pool_evictions": ps.evictions,
                    "seed": seed,
                    "checksum": checksum(res),
                })
        return rows
    finally:
        if own_dir:
            try:
                os.remove(path)
                os.rmdir(workdir)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# buffer-pool benchmark

def pool_workload(capacity: int, seed: int = 0) -> list[tuple]:
    """Two phased access traces as ``(scenario, owner, id, size)`` events.

    ``tight``: the two owners' working sets total ~90% of capacity but the
    relational one alone (~65%) overflows a half-capacity pool.  ``roomy``:
    each set fits in half the capacity.
    """
    rng = random.Random(seed)
    unit = max(1, capacity // 20)
    plans = {"tight": {"rel": 13, "array": 5},
             "roomy": {"rel": 4, "array": 4}}
    events = []
    for scen, owners in plans.items():
        for _ in range(8):  # rounds
            for owner, count in owners.items():
                ids = [f"{scen}-{owner}{k}" for k in range(count)]
                rng.shuffle(ids)
                for oid in ids:
                    events.append((scen, owner, oid, unit))
    return events


def replay_events(events, pools: dict[str, BufferPool], scenario: str,
                  evicted: list | None = None) -> None:
    """Replay one scenario's events, each in its owner's pool: a lookup,
    and on a miss an add.  Ids a pool evicts are appended to `evicted`, in
    eviction order, through each object's do_eviction."""
    evicted = [] if evicted is None else evicted
    for scen, owner, oid, size in events:
        if scen != scenario:
            continue
        pool = pools[owner]
        if pool.get(oid) is None:
            pool.add(BufferObject(id=oid, size=size,
                                  do_eviction=partial(evicted.append, oid)))


def bench_bufferpool(capacity: int, mode: str = "both", *,
                     seed: int = 0) -> tuple[list[dict], list[tuple]]:
    """One pool for both owners vs. physically split pools of half the
    capacity each, on the same traces.  Returns (report rows, the event
    trace) so callers can replay it."""
    modes = ["unified", "split"] if mode == "both" else [mode]
    if any(m not in ("unified", "split") for m in modes):
        raise ConfigError(f"unknown pool mode {mode!r}")
    least = 2 if "split" in modes else 1  # split mode makes two pools
    if capacity < least:
        raise ConfigError(f"pool capacity must be at least {least}, "
                          f"got {capacity}")
    events = pool_workload(capacity, seed)
    rows = []
    for scen in ("tight", "roomy"):
        n_events = sum(1 for e in events if e[0] == scen)
        for m in modes:
            pools = ([BufferPool(capacity // 2),
                      BufferPool(capacity - capacity // 2)]
                     if m == "split" else [BufferPool(capacity)])
            evicted: list = []
            t0 = time.perf_counter()
            replay_events(events, {"rel": pools[0], "array": pools[-1]},
                          scen, evicted)
            dt = (time.perf_counter() - t0) * 1000.0
            ps = [p.stats() for p in pools]
            rows.append({
                "scenario": f"pool-{scen}",
                "strategy": m,
                "n": n_events,
                "d": 0,
                "layout": "-",
                "wall_ms": round(dt, 3),
                "extract_ms": 0.0,
                "build_ms": 0.0,
                "probe_ms": 0.0,
                "emit_ms": 0.0,
                "convert_ms": 0.0,
                "tile_pins": 0,
                "tile_reads": 0,
                "block_scans": 0,
                "stages": 0,
                "preads": 0,
                "pool_hits": sum(s.hits for s in ps),
                "pool_misses": sum(s.misses for s in ps),
                "pool_evictions": sum(s.evictions for s in ps),
                "seed": seed,
                "checksum": hashlib.sha1(
                    repr(evicted).encode()).hexdigest()[:12],
            })
    return rows, events


def write_report(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        w.writerows(rows)
