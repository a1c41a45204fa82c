from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from multimodel import array_engine as ae
from multimodel.array_store import ArrayBuilder, StoredArray
from multimodel.buffer_pool import BufferPool
from multimodel.errors import ShapeError
from multimodel.models import ABSENT

from conftest import array_meta


def cells_dict(arr: StoredArray) -> dict:
    out = {}
    for coords, vals in arr.iter_cells():
        for i in range(len(coords)):
            out[tuple(int(x) for x in coords[i])] = tuple(v[i].item() for v in vals)
    return out


def from_cells(pool, size, ts, cells: dict, layout="dense", attrs=(("value", "float"),),
               name=""):
    meta = array_meta(size, ts, layout=layout, attrs=attrs)
    b = ArrayBuilder(meta, pool, name=name)
    if cells:
        coords = np.array(sorted(cells), dtype=np.int64)
        n_attr = len(attrs)
        cols = [np.array([cells[tuple(c)][j] for c in coords]) for j in range(n_attr)]
        b.add_cells(coords, cols)
    return b.finish()


def from_dense(pool, grid: np.ndarray, ts, layout="dense", attrs=(("value", "float"),)):
    cells = {tuple(c): (grid[tuple(c)].item(),) for c in np.argwhere(np.ones_like(grid, bool))}
    return from_cells(pool, grid.shape, ts, cells, layout=layout, attrs=attrs)


def grid_of(arr: StoredArray) -> np.ndarray:
    mask, (v,) = ae.to_grid(arr)
    return np.where(mask, v, 0)


# ------------------------------------------------------------------- ewise

def test_add_zero_array_is_identity(pool):
    rng = np.random.default_rng(0)
    g = rng.random((8, 6))
    a = from_dense(pool, g, (3, 4))
    z = from_dense(pool, np.zeros((8, 6)), (3, 4))
    out = ae.ewise("+", a, z)
    assert np.allclose(grid_of(out), g)


def test_ewise_mul_matches_reference(pool):
    ga = np.arange(16, dtype=float).reshape(4, 4)
    gb = (np.arange(16, dtype=float)[::-1]).reshape(4, 4)
    a = from_dense(pool, ga, (2, 2))
    b = from_dense(pool, gb, (2, 2))
    assert np.array_equal(grid_of(ae.ewise("*", a, b)), ga * gb)


def test_ewise_division_keeps_divisor_support(pool):
    a = from_cells(pool, (4, 4), (2, 2), {(0, 0): (8.0,), (1, 1): (9.0,)})
    b = from_cells(pool, (4, 4), (2, 2), {(0, 0): (2.0,), (2, 2): (5.0,)})
    out = cells_dict(ae.ewise("/", a, b))
    # (1,1): divisor absent -> no output cell; (2,2): dividend absent -> 0/5
    assert out == {(0, 0): (4.0,), (2, 2): (0.0,)}


def test_ewise_division_by_zero_propagates_inf(pool):
    a = from_cells(pool, (2, 2), (2, 2), {(0, 0): (1.0,)})
    b = from_cells(pool, (2, 2), (2, 2), {(0, 0): (0.0,)})
    out = cells_dict(ae.ewise("/", a, b))
    assert math.isinf(out[(0, 0)][0])


def test_ewise_shape_mismatch(pool):
    a = from_dense(pool, np.ones((4, 4)), (2, 2))
    b = from_dense(pool, np.ones((4, 5)), (2, 2))
    with pytest.raises(ShapeError):
        ae.ewise("+", a, b)


def test_ewise_sparse_union_support(pool):
    a = from_cells(pool, (4, 4), (4, 4), {(0, 0): (1.0,)})
    b = from_cells(pool, (4, 4), (4, 4), {(3, 3): (2.0,)})
    assert cells_dict(ae.ewise("+", a, b)) == {(0, 0): (1.0,), (3, 3): (2.0,)}
    assert cells_dict(ae.ewise("*", a, b)) == {}


# ------------------------------------------------------------------ matmul

def test_matmul_identity(pool):
    rng = np.random.default_rng(1)
    g = rng.random((6, 6))
    a = from_dense(pool, g, (3, 3))
    eye = from_dense(pool, np.eye(6), (3, 3))
    assert np.allclose(grid_of(ae.matmul(a, eye)), g)


def _triple_loop(ga, gb):
    n, k = ga.shape
    _, m = gb.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += ga[i, t] * gb[t, j]
            out[i, j] = s
    return out


@pytest.mark.parametrize("tsa,tsb", [((10, 5), (5, 10)), ((7, 6), (4, 3))])
def test_matmul_matches_triple_loop(pool, tsa, tsb):
    rng = np.random.default_rng(2)
    ga = rng.random((30, 20))
    gb = rng.random((20, 10))
    a = from_dense(pool, ga, tsa)
    b = from_dense(pool, gb, tsb)
    out = ae.matmul(a, b)
    assert out.meta.tile_size == (tsa[0], tsb[1])
    expect = _triple_loop(ga, gb)
    got = grid_of(out)
    assert np.allclose(got, expect, rtol=1e-9, atol=0)


@pytest.mark.parametrize("ta,tb", [((7, 6), (4, 3)), ((4, 4), (4, 2)),
                                   ((5, 3), (2, 5))])
def test_matmul_any_inner_tiling_under_any_pool(tmp_path, ta, tb):
    """Operands tiled differently along the inner extent, either one read
    transposed, a subset of the output tiles, and pools from one tile to
    unbounded: every output tile is numpy's product to rounding, the same
    bits under every pool, and a subset computes only its tiles, as in the
    whole product."""
    rng = np.random.default_rng(4)
    ga, gb = rng.random((13, 11)), rng.random((11, 9))
    out_tile = 64 + ta[0] * tb[1] * 9  # a dense float tile: mask and values
    for flip_a, flip_b in itertools.product((False, True), repeat=2):
        paths = []
        for g, ts, flip, name in ((ga, ta, flip_a, "a"), (gb, tb, flip_b, "b")):
            arr = from_dense(BufferPool(1 << 30), g.T if flip else g,
                             ts[::-1] if flip else ts)
            paths.append(str(tmp_path / f"{name}.m2ar"))
            arr.save(paths[-1])
        one = max(out_tile, *(_largest_tile(p) for p in paths))
        grids = []
        for capacity in (one, 2 * one, 1 << 30):
            pool = BufferPool(capacity)
            a, b = (StoredArray.load(p, pool, spool_dir=str(tmp_path))
                    for p in paths)
            out = ae.matmul(a, b, transpose_a=flip_a, transpose_b=flip_b)
            assert out.meta.tile_size == (ta[0], tb[1])
            grids.append(grid_of(out))
            some = ae.matmul(a, b, transpose_a=flip_a, transpose_b=flip_b,
                             tiles=[0, 5])
            assert some.tile_coords() == [(0, 0), divmod(5, out.meta.grid[1])]
            mask, (v,) = ae.to_grid(some)
            assert np.array_equal(v[mask], grids[-1][mask])
        assert all(np.array_equal(g, grids[0]) for g in grids)
        assert np.allclose(grids[0], ga @ gb, rtol=1e-12, atol=0)


def test_matmul_adopts_full_tile_accumulators(pool, monkeypatch):
    """A full output tile installs matmul's accumulator as its block, and
    only an edge tile is copied by ``block_tile``; either way a tile holds
    the bytes, and takes the pool bytes, that ``block_tile`` gives for the
    same cells."""
    rng = np.random.default_rng(6)
    a = from_dense(pool, rng.random((13, 11)), (5, 4))
    b = from_dense(pool, rng.random((11, 9)), (4, 4))
    copied, block_tile = [], ae.block_tile

    def spy(tc, *args):
        copied.append(tuple(tc))
        return block_tile(tc, *args)

    monkeypatch.setattr(ae, "block_tile", spy)
    before = pool.stats().resident_bytes
    out = ae.matmul(a, b)
    ts = out.meta.tile_size
    assert sorted(copied) == [tc for tc in out.tile_coords()
                              if out.valid_extent(tc) != ts]
    assert len(copied) < len(out.tile_coords())
    total = 0
    for tc in out.tile_coords():
        r, c = out.valid_extent(tc)
        with out.pinned(tc) as tile:
            _, (v,) = tile.to_scratch()
            want = block_tile(tc, ts, (r, c), out.attr_dtypes, "dense",
                              np.ones((r, c), bool), [v[:r, :c].copy()])
            assert tile.to_bytes() == want.to_bytes(), tc
            assert tile.nbytes == want.nbytes, tc
        total += want.nbytes
    assert pool.stats().resident_bytes - before == total


def _largest_tile(path: str) -> int:
    arr = StoredArray.load(path, BufferPool(1 << 30))
    return max(arr.pin(tc).nbytes for tc in arr.tile_coords())


def test_matmul_shape_error(pool):
    a = from_dense(pool, np.ones((3, 4)), (2, 2))
    b = from_dense(pool, np.ones((3, 4)), (2, 2))
    with pytest.raises(ShapeError):
        ae.matmul(a, b)


def test_matmul_associative_at_tolerance(pool):
    rng = np.random.default_rng(3)
    mats = [from_dense(pool, rng.random((20, 20)), (8, 8)) for _ in range(3)]
    x, y, z = mats
    left = grid_of(ae.matmul(ae.matmul(x, y), z))
    right = grid_of(ae.matmul(x, ae.matmul(y, z)))
    assert np.max(np.abs(left - right)) <= 1e-6


def test_sparse_matmul_full_output(pool):
    a = from_cells(pool, (4, 4), (2, 2), {(0, 0): (2.0,)}, layout="coo")
    b = from_cells(pool, (4, 4), (2, 2), {(0, 1): (3.0,)}, layout="coo")
    out = ae.matmul(a, b)
    expect = np.zeros((4, 4))
    expect[0, 1] = 6.0
    assert np.array_equal(grid_of(out), expect)
    assert out.cell_count() == 16  # matmul materializes a dense product


# --------------------------------------------------------------- transpose

def test_transpose_involution(pool):
    cells = {(0, 3): (1.0,), (2, 1): (2.0,), (4, 0): (3.0,)}
    a = from_cells(pool, (5, 4), (2, 3), cells, layout="coo")
    back = ae.transpose(ae.transpose(a))
    assert cells_dict(back) == cells


def test_transpose_swaps_coordinates(pool):
    cells = {(0, 3): (1.0,), (2, 1): (2.0,)}
    a = from_cells(pool, (5, 4), (2, 3), cells, layout="coo")
    t = ae.transpose(a)
    assert t.meta.size == (4, 5)
    assert t.meta.tile_size == (3, 2)
    assert cells_dict(t) == {(c, r): v for (r, c), v in cells.items()}


def test_transpose_row_vector(pool):
    a = from_dense(pool, np.arange(5, dtype=float).reshape(1, 5), (1, 5))
    t = ae.transpose(a)
    assert t.meta.size == (5, 1)
    assert np.array_equal(grid_of(t), np.arange(5, dtype=float).reshape(5, 1))


def test_transpose_requires_2d(pool):
    a = from_cells(pool, (4, 4, 4), (2, 2, 2), {(0, 0, 0): (1.0,)}, layout="coo")
    with pytest.raises(ShapeError):
        ae.transpose(a)


# -------------------------------------------------------------------- rand

def test_rand_is_deterministic(pool):
    a = ae.rand((9, 7), (4, 4), 42, pool)
    b = ae.rand((9, 7), (4, 4), 42, pool)
    assert a.meta.seed == 42
    assert np.array_equal(grid_of(a), grid_of(b))
    c = ae.rand((9, 7), (4, 4), 43, pool)
    assert not np.array_equal(grid_of(a), grid_of(c))


def test_rand_fills_dense_unit_interval(pool):
    a = ae.rand((10, 10), (5, 5), 7, pool)
    assert a.cell_count() == 100
    g = grid_of(a)
    assert (g >= 0).all() and (g < 1).all()


# -------------------------------------------------------------- spatial join

def test_spatial_join_self_duplicates_attrs(pool):
    cells = {(0, 1): (3.0,), (2, 2): (5.0,)}
    a = from_cells(pool, (3, 3), (3, 3), cells, layout="coo")
    out = ae.spatial_join_array(a, a)
    assert out.meta.schema.attr_names == ("value", "value_r")
    assert cells_dict(out) == {k: (v[0], v[0]) for k, v in cells.items()}


def test_spatial_join_disjoint_is_empty(pool):
    a = from_cells(pool, (4, 4), (2, 2), {(0, 0): (1.0,)})
    b = from_cells(pool, (4, 4), (2, 2), {(3, 3): (2.0,)})
    assert cells_dict(ae.spatial_join_array(a, b)) == {}


def test_spatial_join_matches_set_intersection(pool):
    rng = random.Random(12)
    ca = {(rng.randrange(8), rng.randrange(8)): (float(rng.randint(0, 9)),)
          for _ in range(25)}
    cb = {(rng.randrange(8), rng.randrange(8)): (float(rng.randint(0, 9)),)
          for _ in range(25)}
    a = from_cells(pool, (8, 8), (3, 3), ca, layout="coo")
    b = from_cells(pool, (8, 8), (3, 3), cb, layout="coo")
    got = cells_dict(ae.spatial_join_array(a, b))
    expect = {k: (ca[k][0], cb[k][0]) for k in set(ca) & set(cb)}
    assert got == expect


# ------------------------------------------------------------- NMF behavior

def _nmf_step(pool, seed=5):
    rng = np.random.default_rng(seed)
    x_grid = rng.random((6, 4)) + 0.1  # strictly positive ratings
    x = from_dense(pool, x_grid, (3, 2))
    w = ae.rand((6, 2), (3, 2), 100, pool)
    h = ae.rand((2, 4), (2, 2), 101, pool)
    gw, gh = grid_of(w), grid_of(h)

    num_w = ae.matmul(x, ae.transpose(h))
    den_w = ae.matmul(ae.matmul(w, h), ae.transpose(h))
    w1 = ae.ewise("/", ae.ewise("*", w, num_w), den_w)
    num_h = ae.matmul(ae.transpose(w1), x)
    den_h = ae.matmul(ae.matmul(ae.transpose(w1), w1), h)
    h1 = ae.ewise("/", ae.ewise("*", h, num_h), den_h)

    # flat reference of the same multiplicative-update step
    rw = gw * (x_grid @ gh.T) / (gw @ gh @ gh.T)
    rh = gh * (rw.T @ x_grid) / (rw.T @ rw @ gh)
    return (grid_of(w1), rw), (grid_of(h1), rh)


def test_nmf_update_matches_flat_reference(pool):
    (w1, rw), (h1, rh) = _nmf_step(pool)
    assert np.allclose(w1, rw, rtol=1e-9)
    assert np.allclose(h1, rh, rtol=1e-9)


def test_nmf_update_preserves_nonnegativity(pool):
    (w1, _), (h1, _) = _nmf_step(pool, seed=8)
    assert (w1 >= 0).all() and (h1 >= 0).all()


# ------------------------------------------------------ tile-size independence

def zeroed_cells(arr: StoredArray) -> dict:
    """cells_dict(arr), after checking that every tile's blocks hold zero
    wherever the mask is false."""
    for tc in arr.tile_coords():
        with arr.pinned(tc) as tile:
            mask, values = tile.to_scratch()
        assert all((v[~mask] == 0).all() for v in values), (arr.name, tc)
    return cells_dict(arr)


@pytest.mark.parametrize("ts", [(2, 2), (5, 4), (7, 3), (12, 9)])
def test_results_independent_of_tile_size(pool, ts):
    """Every operator gives the same cells at any tile size in every layout.
    b lacks some of a's cells, so the spatial join sees values of a under a
    false output mask, which dense tiles must zero."""
    rng = random.Random(13)
    cells = [{(rng.randrange(12), rng.randrange(9)): (float(rng.randint(1, 9)),)
              for _ in range(35)} for _ in range(2)]
    assert set(cells[0]) - set(cells[1])

    def results(tile, layout):
        a, b = (from_cells(pool, (12, 9), tile, c, layout=layout) for c in cells)
        outs = [ae.ewise(op, a, b) for op in "+-*/"]
        outs += [ae.transpose(a), ae.spatial_join_array(a, b),
                 ae.matmul(a, ae.transpose(b))]  # conforming inner tiling
        return [zeroed_cells(out) for out in outs]

    want = results((4, 4), "coo")
    for layout in ("dense", "coo", "csr"):
        assert results(ts, layout) == want, layout


def test_grid_round_trip(pool):
    cells = {(0, 0): (1.5,), (3, 2): (2.5,), (7, 7): (-3.0,)}
    a = from_cells(pool, (8, 8), (3, 3), cells, layout="coo")
    mask, (grid,) = ae.to_grid(a)
    assert {tuple(c): (grid[tuple(c)],) for c in np.argwhere(mask).tolist()} == cells
    assert not grid[~mask].any()  # zero where no cell is stored
