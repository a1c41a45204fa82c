"""Seeded inputs, engine settings and oracles of the benchmark workloads.

Each workload writes its inputs as catalog files (CSV tables, JSONL
collections, an ``.m2ar`` array) from a seed; the engine sees only those
files.  The oracle is built once per run from the generated values, outside
the timed loop, and returns a description of the first mismatch, or None.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from multimodel import Engine, EngineConfig
from multimodel.array_engine import rand, to_grid
from multimodel.array_store import ArrayBuilder
from multimodel.buffer_pool import BufferPool
from multimodel.models import INT, ArrayMeta, CellSchema

HERE = os.path.dirname(os.path.abspath(__file__))
MiB = 1 << 20
# generation and oracle pools hold every tile; they never evict
_UNBOUNDED_POOL = 1 << 34
# tiled matmul accumulates in another order than one numpy matmul
_RATING_RTOL = 1e-9


def _script(name: str) -> str:
    with open(os.path.join(HERE, name), encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------- recommend

@dataclass(frozen=True)
class RecommendSizes:
    customers: int = 1000
    products: int = 500
    reviews: int = 12_500   # distinct (customer, product) pairs
    interests: int = 20     # distinct products per customer
    tile: int = 125         # EngineConfig.default_tile
    rank: int = 10          # fixed by recommend.m2s
    top_cid: int = 3        # fixed by recommend.m2s
    top_k: int = 10         # fixed by recommend.m2s


@dataclass
class RecommendData:
    ratings: np.ndarray     # dense (customers, products); 0 where unrated
    interest: np.ndarray    # (customers * interests, 2) of (cid, pid)


def generate_recommend(seed: int, out: str,
                       s: RecommendSizes = RecommendSizes()) -> RecommendData:
    """Customers, products, one order per customer, reviews on distinct
    (customer, product) pairs and a per-customer interest list."""
    rng = np.random.default_rng([seed, 1])
    os.makedirs(out, exist_ok=True)
    n_pairs = s.customers * s.products
    # the last pair is always reviewed so the ratings matrix has full extent
    pairs = np.append(rng.choice(n_pairs - 1, s.reviews - 1, replace=False),
                      n_pairs - 1)
    cid, pid = pairs // s.products, pairs % s.products
    halves = rng.integers(2, 11, size=s.reviews)   # ratings 1.0 .. 5.0
    oid = 100_000 + rng.permutation(s.customers)   # order id of each customer
    picks = rng.random((s.customers, s.products)).argpartition(
        s.interests, axis=1)[:, :s.interests]

    _write(os.path.join(out, "customer.csv"), "cid,name\n" + "".join(
        f"{c},customer-{c}\n" for c in range(s.customers)))
    _write(os.path.join(out, "product.csv"), "pid,label\n" + "".join(
        f"{p},product-{p}\n" for p in range(s.products)))
    _write(os.path.join(out, "order.jsonl"), "".join(
        f'{{"oid": {o}, "cid": {c}}}\n' for c, o in enumerate(oid.tolist())))
    _write(os.path.join(out, "review.jsonl"), "".join(
        f'{{"oid": {o}, "pid": {p}, "rating": {h / 2:.1f}}}\n'
        for o, p, h in zip(oid[cid].tolist(), pid.tolist(), halves.tolist())))
    interest = np.column_stack([np.repeat(np.arange(s.customers), s.interests),
                                picks.ravel()])
    _write(os.path.join(out, "interest.csv"), "cid,pid\n" + "".join(
        f"{c},{p}\n" for c, p in interest.tolist()))

    ratings = np.zeros((s.customers, s.products))
    ratings[cid, pid] = halves / 2
    return RecommendData(ratings, interest)


def _engine_start(size, tile: int, seed: int) -> np.ndarray:
    """The engine's own random start matrix, as a dense numpy grid."""
    pool = BufferPool(_UNBOUNDED_POOL)
    arr = rand(size, tuple(min(tile, x) for x in size), seed, pool)
    _, (grid,) = to_grid(arr)
    return grid


def recommend_oracle(data: RecommendData, seed: int,
                     s: RecommendSizes = RecommendSizes()):
    """One NMF step in numpy from the engine's start matrices, then the top
    interests of one customer by filled-in rating."""
    X = data.ratings
    # rand() calls are seeded config.seed, config.seed + 1, ... in script order
    W = _engine_start((s.customers, s.rank), s.tile, seed)
    H = _engine_start((s.rank, s.products), s.tile, seed + 1)
    W = W * ((X @ H.T) / (W @ H @ H.T))
    H = H * ((W.T @ X) / (W.T @ W @ H))
    filled = W @ H
    pids = data.interest[data.interest[:, 0] == s.top_cid, 1]
    score = {int(p): float(filled[s.top_cid, p]) for p in pids}
    want = min(s.top_k, len(score))

    def check(res) -> str | None:
        names = [n for n, _ in res.schema]
        if names != ["cid", "pid", "rating"]:
            return f"columns {names}"
        if len(res.rows) != want:
            return f"{len(res.rows)} rows, expected {want}"
        seen = set()
        for c, p, r in res.rows:
            if c != s.top_cid or p not in score or p in seen:
                return f"row {(c, p, r)} is not a distinct interest of " \
                       f"customer {s.top_cid}"
            seen.add(p)
            if not math.isclose(r, score[p], rel_tol=_RATING_RTOL):
                return f"rating of {(c, p)} is {r!r}, expected {score[p]!r}"
        got = [r for _, _, r in res.rows]
        if any(a < b for a, b in zip(got, got[1:])):
            return f"ratings not in descending order: {got}"
        left = [v for p, v in score.items() if p not in seen]
        if left and max(left) > got[-1] * (1 + _RATING_RTOL):
            return f"rating {max(left)!r} left out of the top {want}"
        return None

    return check


# ---------------------------------------------------------------- tile_join

@dataclass(frozen=True)
class TileJoinSizes:
    side: int = 500         # the array is side x side
    tile: int = 10          # tiles are tile x tile
    fill: float = 0.25      # share of cells present
    probes: int = 25_000    # probe rows (r, c, w)
    weights: int = 100      # w is uniform in [0, weights)
    groups: int = 97        # rows of the group table, keys k = 0 .. groups-1
    labels: int = 13        # distinct group labels g


@dataclass
class TileJoinData:
    present: np.ndarray     # (side, side) bool
    values: np.ndarray      # (side, side) int64
    probe: np.ndarray       # (probes, 3) of (r, c, w)
    label: np.ndarray       # (groups,) label g of key k


def generate_tile_join(seed: int, out: str,
                       s: TileJoinSizes = TileJoinSizes()) -> TileJoinData:
    """A sparse int array stored as ``cells.m2ar``, probe rows and a group
    table."""
    rng = np.random.default_rng([seed, 2])
    os.makedirs(out, exist_ok=True)
    present = rng.random((s.side, s.side)) < s.fill
    values = rng.integers(1, 1000, size=(s.side, s.side), dtype=np.int64)
    probe = np.column_stack([rng.integers(0, s.side, size=(s.probes, 2)),
                             rng.integers(0, s.weights, size=s.probes)])
    label = rng.integers(0, s.labels, size=s.groups)

    meta = ArrayMeta(CellSchema(("r", "c"), ("v",), (INT,)),
                     (s.side, s.side), (s.tile, s.tile), "dense")
    builder = ArrayBuilder(meta, BufferPool(_UNBOUNDED_POOL), name="cells")
    builder.add_cells(np.argwhere(present), [values[present]])
    builder.finish().save(os.path.join(out, "cells.m2ar"))
    _write(os.path.join(out, "probe.csv"), "r,c,w\n" + "".join(
        f"{r},{c},{w}\n" for r, c, w in probe.tolist()))
    _write(os.path.join(out, "grp.csv"), "k,g\n" + "".join(
        f"{k},{g}\n" for k, g in enumerate(label.tolist())))
    return TileJoinData(present, values, probe, label)


def tile_join_oracle(data: TileJoinData, seed: int,
                     s: TileJoinSizes = TileJoinSizes()):
    """numpy lookup of the probed cells, then a count and sum per label."""
    r, c, w = data.probe.T
    keep = (w >= 5) & (w < 90) & (w < s.groups)
    hit = keep & data.present[r, c]
    g = data.label[w[hit]]
    n = np.bincount(g, minlength=s.labels)
    total = np.zeros(s.labels, dtype=np.int64)
    np.add.at(total, g, data.values[r[hit], c[hit]])
    want = [(k, int(n[k]), int(total[k])) for k in range(s.labels) if n[k]]

    def check(res) -> str | None:
        names = [n for n, _ in res.schema]
        if names != ["g", "n", "total"]:
            return f"columns {names}"
        if res.rows != want:
            return f"rows {res.rows[:3]}... differ from {want[:3]}..."
        return None

    return check


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    script: str             # file name in this directory
    pool_bytes: int         # EngineConfig.buffer_bytes
    default_tile: int       # EngineConfig.default_tile
    sizes: RecommendSizes | TileJoinSizes
    # generate(seed, out_dir, sizes) -> data
    generate: Callable[..., object]
    # oracle(data, seed, sizes) -> check(result) -> mismatch or None
    oracle: Callable[..., Callable[..., str | None]]
    # a run with this pool must give the identical result (None: no such run)
    reference_pool: int | None = None

    def config(self, data_dir: str, spool_dir: str, seed: int,
               pool_bytes: int | None = None) -> EngineConfig:
        return EngineConfig(data_dir=data_dir, seed=seed,
                            buffer_bytes=pool_bytes or self.pool_bytes,
                            default_tile=self.default_tile,
                            spool_dir=spool_dir)

    def script_text(self) -> str:
        return _script(self.script)

    def make_check(self, data, seed: int, data_dir: str, spool_dir: str):
        """The oracle, plus an exact match against a run with the reference
        pool when the workload has one."""
        check = self.oracle(data, seed, self.sizes)
        if self.reference_pool is None:
            return check
        cfg = self.config(data_dir, spool_dir, seed, self.reference_pool)
        ref = Engine(cfg).run(self.script_text())

        def check_same(res) -> str | None:
            bad = check(res)
            if bad is None and (res.schema != ref.schema or
                                res.rows != ref.rows):
                bad = "result differs from the run with a " \
                      f"{self.reference_pool >> 10} KiB pool"
            return bad

        return check_same


def workloads(small: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``small`` shrinks every input, keeping the
    pool-to-working-set ratios, for the harness self-test."""
    rs = RecommendSizes(200, 100, 500, 20, 25) if small else RecommendSizes()
    ts = TileJoinSizes(side=100, probes=2000) if small else TileJoinSizes()
    # the small inputs have 1/25 of the cells, so 1/25 of the pool
    k = 25 if small else 1
    return {
        "recommend": Workload(
            "recommend", "recommend.m2s", 16 * MiB // k, rs.tile, rs,
            generate_recommend, recommend_oracle),
        "recommend_tight": Workload(
            "recommend_tight", "recommend.m2s", 2 * MiB // k, rs.tile, rs,
            generate_recommend, recommend_oracle,
            reference_pool=16 * MiB // k),
        "tile_join": Workload(
            "tile_join", "tile_join.m2s", MiB // 2 // k, 0, ts,
            generate_tile_join, tile_join_oracle),
    }
