"""``ArrayBuilder`` against a reference built tile by tile from a dense mask.

The builder places every cell through the tiling's one locator and orders
each tile's cells by row-major key.  Whatever the shape, layout, tile size
or order the cells are added in, each tile and the saved file must be
byte-identical to ``block_tile`` over the same cells held as a dense mask.
Grids and tile boxes of 255, 256 and 257 on one dimension put the tile ids
and cell keys on either side of a key-width boundary.  A cell added twice
names the later one; a cell outside the array names itself."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel.array_store import ArrayBuilder, StoredArray, block_tile
from multimodel.buffer_pool import BufferPool
from multimodel.errors import BoundsError, DuplicateCellError

from conftest import array_meta

ATTRS = (("value0", "int"), ("value1", "float"))
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@st.composite
def shapes(draw):
    """(size, tile size, layout): 1-3 dimensions, tile extents from 1 to
    the array's; or a first dimension of 255-257 cells in tiles of 1 or of
    the whole extent."""
    d = draw(st.integers(1, 3))
    size = [draw(st.integers(1, 6)) for _ in range(d)]
    ts = [draw(st.integers(1, s)) for s in size]
    if draw(st.booleans()):
        size[0] = draw(st.sampled_from([255, 256, 257]))
        ts[0] = draw(st.sampled_from([1, size[0]]))
    layout = draw(st.sampled_from(["dense", "coo"] + (["csr"] if d == 2 else [])))
    return tuple(size), tuple(ts), layout


@st.composite
def batches(draw, size, unique=True):
    """Cells as flat row-major indices, split into add_cells batches (some
    empty); often led by the last cell, whose tile id and key are the
    largest."""
    total = math.prod(size)
    flat = draw(st.lists(st.integers(0, total - 1), max_size=min(total, 40),
                         unique=unique))
    if draw(st.booleans()):
        flat = [total - 1, *(f for f in flat if f != total - 1 or not unique)]
    cuts = sorted(draw(st.lists(st.integers(0, len(flat)), max_size=3)))
    return [flat[i:j] for i, j in zip([0, *cuts], [*cuts, len(flat)])]


def _add(builder, size, batch, start):
    coords = np.array(np.unravel_index(np.asarray(batch, dtype=np.int64), size),
                      dtype=np.int64).T.reshape(-1, len(size))
    idx = np.arange(start, start + len(batch))
    builder.add_cells(coords, [idx * 7 - 3, idx / 4])


def _build(size, ts, layout, parts, pool):
    builder = ArrayBuilder(array_meta(size, ts, layout, ATTRS), pool)
    start = 0
    for batch in parts:
        _add(builder, size, batch, start)
        start += len(batch)
    return builder


def _reference(size, ts, layout, parts, pool):
    """The same cells as a dense mask and value grids, each tile built by
    ``block_tile`` from its slice of them."""
    mask = np.zeros(size, dtype=bool)
    grids = [np.zeros(size, np.int64), np.zeros(size, np.float64)]
    for i, flat in enumerate(itertools.chain(*parts)):
        cc = np.unravel_index(flat, size)
        mask[cc], grids[0][cc], grids[1][cc] = True, i * 7 - 3, i / 4
    ref = StoredArray(array_meta(size, ts, layout, ATTRS), pool)
    tiles = {}
    for tc in itertools.product(*(range(g) for g in ref.meta.grid)):
        sl = tuple(slice(c * t, c * t + v)
                   for c, t, v in zip(tc, ts, ref.valid_extent(tc)))
        tiles[tc] = block_tile(tc, ts, ref.valid_extent(tc), ref.attr_dtypes,
                               layout, mask[sl], [g[sl] for g in grids])
        if mask[sl].any():
            ref.write_tile(tc, tiles[tc])
    return ref, tiles


@SETTINGS
@given(st.data())
def test_builder_matches_block_tile_reference(tmp_path, data):
    size, ts, layout = data.draw(shapes(), label="shape")
    parts = data.draw(batches(size), label="batches")
    pool = BufferPool(1 << 30)
    got = _build(size, ts, layout, parts, pool).finish()
    ref, tiles = _reference(size, ts, layout, parts, pool)
    for tc, want in tiles.items():
        with got.pinned(tc) as tile:
            assert tile.layout == layout
            assert tile.to_bytes() == want.to_bytes(), tc
    cells = {}
    for coords, (v0, v1) in got.iter_cells():
        for c, a, b in zip(coords.tolist(), v0.tolist(), v1.tolist()):
            cells[tuple(c)] = (a, b)
    flat = list(itertools.chain(*parts))
    assert cells == {tuple(int(x) for x in np.unravel_index(f, size)):
                     (i * 7 - 3, i / 4) for i, f in enumerate(flat)}
    got.save(str(tmp_path / "got.m2ar"))
    ref.save(str(tmp_path / "ref.m2ar"))
    assert (tmp_path / "got.m2ar").read_bytes() == \
        (tmp_path / "ref.m2ar").read_bytes()


def _first_duplicate(size, ts, flat):
    """The later-added cell of the first pair added twice, in (tile id, cell
    key) order, and that cell's tile, by Python arithmetic."""
    grid = [-(-s // t) for s, t in zip(size, ts)]

    def key(i):
        cc = np.unravel_index(flat[i], size)
        tc = [int(c) // t for c, t in zip(cc, ts)]
        cell = [int(c) % t for c, t in zip(cc, ts)]
        tid = cid = 0
        for q, g, r, t in zip(tc, grid, cell, ts):
            tid, cid = tid * g + q, cid * t + r
        return tid, cid

    keyed = sorted((key(i), i) for i in range(len(flat)))
    for (k0, _), (k1, i) in zip(keyed, keyed[1:]):
        if k0 == k1:
            cc = tuple(int(c) for c in np.unravel_index(flat[i], size))
            return i, cc, tuple(c // t for c, t in zip(cc, ts))
    return None


@SETTINGS
@given(st.data())
def test_builder_names_the_later_duplicate(data):
    size, ts, layout = data.draw(shapes(), label="shape")
    parts = data.draw(batches(size, unique=False), label="batches")
    flat = list(itertools.chain(*parts))
    want = _first_duplicate(size, ts, flat)
    builder = _build(size, ts, layout, parts, BufferPool(1 << 30))
    if want is None:
        builder.finish()
        return
    i, cc, tc = want
    with pytest.raises(DuplicateCellError,
                       match=re.escape(f"duplicate cell {cc} in tile {tc}")) as e:
        builder.finish()
    assert e.value.index == i


@SETTINGS
@given(st.data())
def test_builder_names_a_cell_outside_the_array(data):
    size, ts, layout = data.draw(shapes(), label="shape")
    parts = data.draw(batches(size), label="batches")
    d = len(size)
    bad = data.draw(st.tuples(*(st.integers(-2, s + 2) for s in size)).filter(
        lambda c: any(not 0 <= x < s for x, s in zip(c, size))), label="bad")
    at = data.draw(st.integers(0, len(parts[-1])), label="at")
    builder = _build(size, ts, layout, parts[:-1], BufferPool(1 << 30))
    before = sum(map(len, parts[:-1]))
    last = np.array(np.unravel_index(np.asarray(parts[-1], dtype=np.int64), size),
                    dtype=np.int64).T.reshape(-1, d)
    coords = np.insert(last, at, bad, axis=0)
    with pytest.raises(BoundsError, match=re.escape(f"coordinate {bad} outside")) as e:
        builder.add_cells(coords, [np.zeros(len(coords), np.int64),
                                   np.zeros(len(coords))])
    assert e.value.index == before + at
