"""The layout ``toArray`` infers and the layouts the operators give.

With no metadata, ``to_array`` stores its cells sparsely (csr for 2-D, coo
otherwise) when that encoding is strictly smaller than dense.  The choice
must not show in any result: every cell, and every consumer's result, is
bit-identical to that of the same cells forced dense through an explicit
``ArrayMeta``.  Binary operators pin one operand tile at a time, so a pool
with room for one tile runs them, with the results of an unbounded one."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import Engine, EngineConfig, array_engine
from multimodel.array_store import ArrayBuilder, StoredArray
from multimodel.bridge import STRATEGIES, dispatch_join, to_array, to_relation
from multimodel.buffer_pool import BufferPool
from multimodel.errors import ShapeError
from multimodel.models import (BOOL, FLOAT, INT, UINT, ArrayMeta, CellSchema,
                               Relation)

from conftest import built_tile, dims_pred

UNBOUNDED = 1 << 30
TYPES = {"int": INT, "float": FLOAT, "bool": BOOL}
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


def _encoded(arr) -> str:
    """The layout whose encoding of `arr`'s cells is smaller, found by
    encoding every stored tile both ways with ``Tile.to_bytes``: the sparse
    layout (csr for 2-D, coo otherwise) when strictly smaller and no sparse
    tile takes more of the pool (``Tile.nbytes``) than a dense tile, else
    dense."""
    sparse = "csr" if arr.meta.d == 2 else "coo"
    total = dict.fromkeys(("dense", sparse), 0)
    largest = dict.fromkeys(("dense", sparse), 0)
    for tc in arr.tile_coords():
        with arr.pinned(tc) as tile:
            cc, values = tile.cells()
        for layout in total:
            made = built_tile(tc, arr.meta.tile_size, arr.valid_extent(tc),
                              arr.attr_dtypes, layout, cc, values)
            total[layout] += len(made.to_bytes())
            largest[layout] = max(largest[layout], made.nbytes)
    return sparse if total[sparse] < total["dense"] and \
        largest[sparse] <= largest["dense"] else "dense"


@st.composite
def cell_sets(draw, ds=(1, 3), kinds=tuple(TYPES), max_attrs=2):
    """(relation of cells, dim names, value names, default tile): 1-7 per
    dimension, each tile empty, full or filled at a drawn rate (so both
    sides of the sparse/dense crossover), the far corner always set."""
    d = draw(st.integers(*ds))
    size = tuple(draw(st.integers(1, 7)) for _ in range(d))
    tile = draw(st.integers(1, 7))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_attrs))
    fill = draw(st.sampled_from([0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random(size) < fill
    ts = tuple(min(tile, s) for s in size)
    for tc in itertools.product(*(range(-(-s // t)) for s, t in zip(size, ts))):
        box = tuple(slice(c * t, (c + 1) * t) for c, t in zip(tc, ts))
        mode = rng.integers(4)  # 0: empty, 1: full, else as drawn
        if mode < 2:
            present[box] = bool(mode)
    present[tuple(s - 1 for s in size)] = True  # fixes the extent
    coords = np.argwhere(present)
    dims = [f"d{i}" for i in range(d)]
    names = [f"v{j}" for j in range(len(kinds))]
    cols = []
    for kind in kinds:
        if kind == "int":
            cols.append(rng.integers(-50, 50, len(coords)).tolist())
        elif kind == "float":
            cols.append((rng.integers(-400, 400, len(coords)) / 8).tolist())
        else:
            cols.append((rng.random(len(coords)) < 0.5).tolist())
    rel = Relation([(n, UINT) for n in dims] +
                   [(n, TYPES[k]) for n, k in zip(names, kinds)],
                   [tuple(map(int, c)) + tuple(v) for c, *v in
                    zip(coords, *cols)])
    return rel, dims, names, tile


def _pair(case, pool, spool_dir):
    """The cells of `case` through ``to_array`` left to the rule, and the
    same cells forced dense through an explicit ``ArrayMeta``."""
    rel, dims, names, tile = case
    rule = to_array(rel, dims, names, None, pool, default_tile=tile,
                    spool_dir=spool_dir)
    dense = to_array(rel, dims, names, replace(rule.meta, layout="dense"),
                     pool, spool_dir=spool_dir)
    return rule, dense


def _cells(arr) -> str:
    return repr(to_relation(arr).rows)


def _grid(arr):
    """(meta, mask bytes, value bytes per attribute) of the whole array."""
    mask, values = array_engine.to_grid(arr)
    return arr.meta, mask.tobytes(), [v.tobytes() for v in values]


# ------------------------------------------------------------- the rule

@SETTINGS
@given(cell_sets())
def test_inferred_layout_is_the_smaller_encoding(tmp_path, case):
    rule, dense = _pair(case, BufferPool(UNBOUNDED), str(tmp_path))
    assert rule.meta == replace(dense.meta, layout=_encoded(dense))
    assert _cells(rule) == _cells(dense)
    # and through a save and a load, as a file's tiles
    path = str(tmp_path / "a.m2ar")
    rule.save(path)
    back = StoredArray.load(path, BufferPool(UNBOUNDED))
    assert back.meta == rule.meta and _cells(back) == _cells(dense)


@pytest.mark.parametrize("size, tile, cells, layout", [
    # 2-D float, 4x4 tiles: 144 bytes dense, 48 + 16 per cell as csr
    ((4, 4), 4, 5, "csr"),
    ((4, 4), 4, 6, "dense"),    # 144 either way: a tie stays dense
    ((4, 4), 4, 7, "dense"),
    # 1-D float, 8-cell tiles: 72 bytes dense, 8 + 16 per cell as coo
    ((8,), 8, 3, "coo"),
    ((8,), 8, 4, "dense"),      # a tie
    # 3-D float, 2x2x2 tiles: 72 bytes dense, 8 + 32 per cell as coo
    ((2, 2, 2), 2, 1, "coo"),
    ((2, 2, 2), 2, 2, "dense"),
])
def test_layout_at_the_crossover(size, tile, cells, layout, pool):
    coords = list(itertools.product(*map(range, size)))[-cells:]
    dims = [f"d{i}" for i in range(len(size))]
    rel = Relation([(n, UINT) for n in dims] + [("v", FLOAT)],
                   [c + (1.5,) for c in coords])
    arr = to_array(rel, dims, ["v"], None, pool, default_tile=tile)
    assert arr.meta.tile_size == size and arr.meta.layout == layout


@SETTINGS
@given(cell_sets())
def test_a_pool_with_room_for_a_dense_tile_runs_every_inferred_layout(
        tmp_path, case):
    """Whatever layout the rule takes, a pool with room for one dense tile
    builds the array and reads every tile back."""
    rel, dims, names, tile = case
    dense = _pair(case, BufferPool(UNBOUNDED), str(tmp_path))[1]
    pool = BufferPool(_largest_tile([dense]))
    arr = to_array(rel, dims, names, None, pool, default_tile=tile,
                   spool_dir=str(tmp_path))
    assert _cells(arr) == _cells(dense)


def test_a_crowded_tile_keeps_an_array_dense(tmp_path):
    """A 6x6 table in 5x5 tiles, its 5x5 corner full and one cell in each
    other tile, encodes smaller as csr (672 bytes against 900), but its
    corner tile would take 464 bytes of the pool against a dense tile's
    289: it stays dense, and a pool of one dense tile runs a matmul on it."""
    coords = [(r, c) for r in range(5) for c in range(5)] + \
        [(0, 5), (5, 0), (5, 5)]
    rel = Relation([("r", UINT), ("c", UINT), ("v", FLOAT)],
                   [(r, c, 1.0 + r - c) for r, c in coords])
    spool = str(tmp_path)
    want = None
    for capacity in (UNBOUNDED, 289):
        pool = BufferPool(capacity)
        x = to_array(rel, ["r", "c"], ["v"], None, pool, default_tile=5,
                     spool_dir=spool)
        assert x.meta.layout == "dense"
        got = _grid(array_engine.matmul(
            x, array_engine.rand((6, 2), (5, 2), 7, pool, spool_dir=spool)))
        want = want or got
        assert got == want


def test_explicit_layout_is_kept(pool):
    rel = Relation([("r", UINT), ("c", UINT), ("v", FLOAT)],
                   [(r, c, 1.0) for r in range(4) for c in range(4)])
    for layout in ("dense", "coo", "csr"):
        meta = ArrayMeta(CellSchema(("r", "c"), ("v",), (FLOAT,)), (4, 4),
                         (2, 2), layout)
        assert to_array(rel, ["r", "c"], ["v"], meta, pool).meta == meta


def test_a_tile_too_large_to_number_is_refused(pool):
    """A sparse layout holds few cells in a huge box, but its cells are
    keyed by 64-bit row-major numbers: a box past them is refused, not
    wrapped."""
    big = 1 << 40
    rel = Relation([("r", UINT), ("c", UINT), ("v", FLOAT)],
                   [(big - 1, big - 1, 1.0), (0, 5, 2.0)])
    with pytest.raises(ShapeError, match="holds more than"):
        to_array(rel, ["r", "c"], ["v"], None, pool)


# ---------------------------------------------------- operator layouts

# op -> result layout for (a, b) layouts (dense, dense), (dense, csr),
# (csr, dense), (csr, csr)
RESULT_LAYOUT = {
    "*": ("dense", "csr", "csr", "csr"),
    "join": ("dense", "csr", "csr", "csr"),
    "/": ("dense", "csr", "dense", "csr"),
    "+": ("dense", "dense", "dense", "csr"),
    "-": ("dense", "dense", "dense", "csr"),
}
PAIRS = [("dense", "dense"), ("dense", "csr"), ("csr", "dense"), ("csr", "csr")]


def _array(layout, pool, seed, size=(5, 4), tile=(2, 3), name="v",
           spool_dir=None):
    rng = np.random.default_rng(seed)
    coords = np.argwhere(rng.random(size) < 0.5)
    meta = ArrayMeta(CellSchema(("i", "j"), (name,), (FLOAT,)), size, tile,
                     layout)
    b = ArrayBuilder(meta, pool, spool_dir=spool_dir)
    b.add_cells(coords, [rng.integers(-20, 20, len(coords)) / 4])
    return b.finish()


@pytest.mark.parametrize("op", sorted(RESULT_LAYOUT))
def test_result_layout_follows_the_supports(op, pool):
    for (la, lb), want in zip(PAIRS, RESULT_LAYOUT[op]):
        a, b = _array(la, pool, 1), _array(lb, pool, 2, name="w")
        out = (array_engine.spatial_join_array(a, b) if op == "join"
               else array_engine.ewise(op, a, b))
        assert out.meta.layout == want, (op, la, lb)
        # the layout never changes what the result holds
        da, db = _array("dense", pool, 1), _array("dense", pool, 2, name="w")
        ref = (array_engine.spatial_join_array(da, db) if op == "join"
               else array_engine.ewise(op, da, db))
        assert _cells(out) == _cells(ref)


@pytest.mark.parametrize("layout", ["dense", "coo", "csr"])
def test_transpose_keeps_and_matmul_drops_the_layout(layout, pool):
    a = _array(layout, pool, 3)
    assert array_engine.transpose(a).meta.layout == layout
    b = _array(layout, pool, 4, size=(4, 6), tile=(3, 2))
    assert array_engine.matmul(a, b).meta.layout == "dense"


# ------------------------------------------- every consumer, both layouts

def _consumers(x, pool, spool_dir, other_layout, seed):
    """Every operator reading 2-D array `x`: name -> its result's grid (or
    rows, for the joins with records), on operands made in `pool`; and
    every array made."""
    (r, c), (tr, tc) = x.meta.size, x.meta.tile_size
    k, tk = 3, 2
    made = []

    def rand(size, tile, s):
        made.append(array_engine.rand(size, tile, seed + s, pool,
                                      spool_dir=spool_dir))
        return made[-1]

    other = _array(other_layout, pool, seed, size=(r, c), tile=(tr, tc),
                   name="w", spool_dir=spool_dir)
    mm = array_engine.matmul
    out = {
        "x @ b": mm(x, rand((c, k), (tc, tk), 1)),
        "x.T @ b": mm(x, rand((r, k), (tr, tk), 2), transpose_a=True),
        "a @ x": mm(rand((k, r), (tk, tr), 3), x),
        "a @ x.T": mm(rand((k, c), (tk, tc), 4), x, transpose_b=True),
        "x.T": array_engine.transpose(x),
        "x join w": array_engine.spatial_join_array(x, other),
        "w join x": array_engine.spatial_join_array(other, x),
    }
    for op in "+-*/":
        out[f"x {op} w"] = array_engine.ewise(op, x, other)
        out[f"w {op} x"] = array_engine.ewise(op, other, x)
    got = {name: _grid(arr) for name, arr in out.items()}
    rng = np.random.default_rng(seed)
    records = Relation([("p", INT), ("q", INT), ("tag", INT)], [
        (int(rng.integers(r + 1)), int(rng.integers(c + 1)), i)
        for i in range(12)])
    pred = dims_pred(x, ("p", "q"))
    for strategy in STRATEGIES:
        got[strategy] = repr(dispatch_join(records, x, pred,
                                           strategy=strategy).rows)
    return got, [other, *made, *out.values()]


def _largest_tile(arrays) -> int:
    sizes = [64]
    for arr in arrays:
        for tc in arr.tile_coords():
            with arr.pinned(tc) as tile:
                sizes.append(tile.nbytes)
    return max(sizes)


def _same_but_layout(got, want):
    """`got` equals `want` bit for bit, the arrays' layouts aside."""
    assert got.keys() == want.keys()
    for name, g in got.items():
        w = want[name]
        if isinstance(g, tuple):  # (meta, mask, values) of an array
            g = (replace(g[0], layout="dense"), *g[1:])
            w = (replace(w[0], layout="dense"), *w[1:])
        assert g == w, name


@SETTINGS
@given(cell_sets(ds=(2, 2), kinds=("int", "float"), max_attrs=1),
       st.sampled_from(["dense", "csr"]), st.integers(0, 1000))
def test_consumers_agree_across_layouts_and_pools(tmp_path, case,
                                                  other_layout, seed):
    """Each consumer of a ``toArray`` left to the rule gives what it gives
    for the same cells forced dense, bit for bit, under an unbounded pool
    and under a pool with room for only the largest tile."""
    spool = str(tmp_path)
    results, arrays = {}, []
    for variant in (0, 1):
        pool = BufferPool(UNBOUNDED)
        x = _pair(case, pool, spool)[variant]
        results[variant], made = _consumers(x, pool, spool, other_layout, seed)
        arrays += [x, *made]
    _same_but_layout(results[0], results[1])
    one = _largest_tile(arrays)
    for variant in (0, 1):
        pool = BufferPool(one)
        x = _pair(case, pool, spool)[variant]
        got, _ = _consumers(x, pool, spool, other_layout, seed)
        assert got == results[variant], variant


def test_one_tile_pool_runs_a_matmul_script(tmp_path):
    """rand({5, 4}) @ rand({4, 6}) in 2x2 tiles (100 bytes each) under
    pools of one tile up to just short of two."""
    text = "execute(rand({5, 4}) @ rand({4, 6}))\n"
    config = dict(data_dir=str(tmp_path), default_tile=2, seed=3,
                  spool_dir=str(tmp_path / "spool"))
    want = _grid(Engine(EngineConfig(**config)).run(text))
    for capacity in (100, 125, 150, 199):
        got = Engine(EngineConfig(**config, buffer_bytes=capacity)).run(text)
        assert _grid(got) == want, capacity
