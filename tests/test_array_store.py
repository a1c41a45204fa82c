from __future__ import annotations

import hashlib
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimodel.array_store import (
    MAGIC,
    ArrayBuilder,
    StoredArray,
    Tile,
    block_tile,
)
from multimodel.buffer_pool import BufferPool
from multimodel.errors import (BoundsError, CapacityError, DuplicateCellError,
                               InternalError)
from multimodel.executor import Catalog, format_result
from multimodel.models import ABSENT

from conftest import array_meta, built_tile

I8 = np.dtype("<i8")
F8 = np.dtype("<f8")


def _dense_linear_tile(ts=(10, 5)):
    cc = [(r, c) for r in range(ts[0]) for c in range(ts[1])]
    vals = [r * ts[1] + c for r, c in cc]
    return built_tile((0, 0), ts, ts, [I8], "dense", cc, [vals])


def cell(tile, cc):
    """Values of one cell through the batch lookup, or ABSENT."""
    found, vals = tile.lookup(tuple(np.array([c]) for c in cc))
    return tuple(v[0].item() for v in vals) if found[0] else ABSENT


# ------------------------------------------------------------------- tiles

def test_dense_positional_access():
    t = _dense_linear_tile()
    assert cell(t, (3, 3)) == (18,)
    assert cell(t, (0, 0)) == (0,)
    assert cell(t, (9, 4)) == (49,)


def test_coo_membership_matches_construction_set():
    rng = random.Random(3)
    ts = (8, 7)
    cells = {(r, c) for r in range(8) for c in range(7) if rng.random() < 0.4}
    cc = sorted(cells)
    t = built_tile((0, 0), ts, ts, [F8], "coo",
                   cc, [[float(r * 10 + c) for r, c in cc]])
    for r in range(8):
        for c in range(7):
            got = cell(t, (r, c))
            if (r, c) in cells:
                assert got == (float(r * 10 + c),)
            else:
                assert got is ABSENT


def test_layout_equivalence():
    # same logical cells in all three layouts answer lookups identically
    rng = random.Random(5)
    ts = (6, 9)
    cc = sorted({(rng.randrange(6), rng.randrange(9)) for _ in range(20)})
    vals = [float(i) for i in range(len(cc))]
    tiles = [built_tile((0, 0), ts, ts, [F8], lay, cc, [vals])
             for lay in ("dense", "coo", "csr")]
    for r in range(6):
        for c in range(9):
            answers = {repr(cell(t, (r, c))) for t in tiles}
            assert len(answers) == 1


def test_coo_sorted_even_with_shuffled_input():
    cc = [(2, 1), (0, 3), (1, 0), (0, 1)]
    t = built_tile((0, 0), (4, 4), (4, 4), [I8], "coo", cc, [[1, 2, 3, 4]])
    coords, vals = t.cells()
    assert [tuple(x) for x in coords] == [(0, 1), (0, 3), (1, 0), (2, 1)]
    assert list(vals[0]) == [4, 2, 3, 1]
    assert (t.index[1:] > t.index[:-1]).all()  # strictly increasing keys


def test_csr_row_pointer_invariant():
    cc = [(0, 2), (0, 4), (2, 1)]
    t = built_tile((0, 0), (4, 5), (4, 5), [I8], "csr", cc, [[1, 2, 3]])
    buf = t.to_bytes()  # cell count, then TS_0 + 1 row pointers
    indptr = np.frombuffer(buf, "<u8", 5, 8)
    assert len(buf) == 8 + 5 * 8 + 3 * 8 + 3 * 8
    assert (np.diff(indptr.astype(np.int64)) >= 0).all()
    assert list(indptr) == [0, 2, 2, 3, 3]
    assert cell(t, (0, 4)) == (2,)
    assert cell(t, (1, 0)) is ABSENT


def _held_bytes(tile) -> int:
    return 64 + sum(a.nbytes for v in vars(tile).values()
                    for a in (v if isinstance(v, list) else [v])
                    if isinstance(a, np.ndarray))


@pytest.mark.parametrize("layout", ["dense", "coo", "csr"])
def test_nbytes_counts_every_array_a_tile_holds(layout):
    cc = [(0, 2), (0, 4), (2, 1), (3, 3)]
    t = built_tile((0, 0), (4, 5), (4, 5), [I8, F8], layout, cc,
                   [[1, 2, 3, 4], [0.5, 1.5, 2.5, 3.5]])
    assert t.nbytes == _held_bytes(t)
    for use in (lambda: t.lookup(tuple(np.array(cc).T)), t.cells,
                t.to_scratch, t.to_bytes):
        use()
        assert t.nbytes == _held_bytes(t)
    back = Tile.from_bytes(t.to_bytes(), layout, (4, 5), [I8, F8])
    assert back.nbytes == _held_bytes(back) == t.nbytes


def test_duplicate_cell_rejected():
    with pytest.raises(DuplicateCellError):
        built_tile((0, 0), (4, 4), (4, 4), [I8], "coo",
                   [(1, 1), (1, 1)], [[1, 2]])


def test_builder_rejects_a_cell_past_an_edge_tiles_extent(pool):
    # tile (1, 0)'s box holds row 7, its valid extent ends at row 5
    b = ArrayBuilder(array_meta((6, 4), (4, 4)), pool)
    with pytest.raises(BoundsError, match=r"\(7, 0\) outside") as e:
        b.add_cells(np.array([[5, 3], [7, 0]]), [np.array([1.0, 2.0])])
    assert e.value.index == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tile_serialization_round_trip_is_byte_identical(data):
    d = data.draw(st.integers(1, 3), label="d")
    ts = tuple(data.draw(st.integers(2, 5), label=f"ts{i}") for i in range(d))
    layouts = ["dense", "coo"] + (["csr"] if d == 2 else [])
    layout = data.draw(st.sampled_from(layouts), label="layout")
    n_box = int(np.prod(ts))
    k = data.draw(st.integers(0, n_box), label="cells")
    linear = data.draw(
        st.lists(st.integers(0, n_box - 1), min_size=k, max_size=k, unique=True))
    cc = []
    for lin in linear:
        coord = []
        for extent in reversed(ts):
            coord.append(lin % extent)
            lin //= extent
        cc.append(tuple(reversed(coord)))
    vals = data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=k, max_size=k))
    t = built_tile((0,) * d, ts, ts, [F8], layout, cc, [vals])
    buf = t.to_bytes()
    t2 = Tile.from_bytes(buf, layout, ts, [F8])
    assert t2.to_bytes() == buf
    c1, v1 = t.cells()
    c2, v2 = t2.cells()
    assert np.array_equal(c1, c2) and np.array_equal(v1[0], v2[0])

    # the block path agrees with the coordinate path, in every layout and
    # for a block smaller than ts; junk under a false mask is not a cell
    mask, block = np.zeros(ts, dtype=bool), np.full(ts, 7.5)
    idx = tuple(np.asarray(cc, dtype=np.intp).reshape(k, d).T)
    mask[idx], block[idx] = True, vals
    lo = np.max(idx, axis=1) + 1 if k else np.ones(d, dtype=int)
    sub = tuple(slice(0, data.draw(st.integers(int(n), s), label=f"block{i}"))
                for i, (n, s) in enumerate(zip(lo, ts)))
    for lay in layouts:
        want = built_tile((0,) * d, ts, ts, [F8], lay, cc, [vals])
        for m, v in ((mask, block), (mask[sub], block[sub])):
            got = block_tile((0,) * d, ts, ts, [F8], lay, m, [v])
            assert got.to_bytes() == want.to_bytes(), lay
        m, (v,) = want.to_scratch()
        assert np.array_equal(m, mask)
        assert np.array_equal(v, np.where(mask, block, 0))
    m, (v,) = built_tile((0,) * d, ts, ts, [F8], "dense", cc, [vals]).to_scratch()
    for view in (m, v):
        with pytest.raises(ValueError):
            view[(0,) * d] = 1


# ------------------------------------------------------------- stored arrays

def _filled_array(pool, size=(30, 10), ts=(10, 5), layout="dense", seed=2):
    """One cell per tile plus scattered extras, saved nowhere yet."""
    rng = random.Random(seed)
    meta = array_meta(size, ts, layout=layout, attrs=(("value", "int"),))
    b = ArrayBuilder(meta, pool, name="fix")
    coords = set()
    for tr in range(meta.grid[0]):
        for tc in range(meta.grid[1]):
            coords.add((tr * ts[0], tc * ts[1]))  # anchor cell per tile
    while len(coords) < 25:
        coords.add((rng.randrange(size[0]), rng.randrange(size[1])))
    coords = sorted(coords)
    b.add_cells(np.array(coords), [np.arange(len(coords))])
    return b.finish()


def _cells_dict(arr: StoredArray) -> dict:
    out = {}
    for coords, vals in arr.iter_cells():
        for i in range(len(coords)):
            out[tuple(int(x) for x in coords[i])] = tuple(v[i].item() for v in vals)
    return out


def test_save_load_round_trip(tmp_path, pool):
    arr = _filled_array(pool)
    path = tmp_path / "a.m2ar"
    arr.save(str(path))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    back = StoredArray.load(str(path), pool)
    assert back.meta == arr.meta
    assert _cells_dict(back) == _cells_dict(arr)


@pytest.mark.parametrize("layout,digest", [
    ("dense", "4b6fc172c9ca3716cf858efbb9a555da0caf1da384183e145d2aeb73a738f08c"),
    ("coo", "4f59d3bfdeac83e1405d290dc4169edc29d7028b312eb04693ada7120bc09958"),
    ("csr", "e8c35acaff2768a14ecd45768b3fc4845e0372229a5a44c2fd2cffa23ec0a5dc"),
])
def test_saved_bytes_are_pinned(tmp_path, pool, layout, digest):
    # encode and decode could drift together and still round-trip; the file
    # format may not
    path = tmp_path / "a.m2ar"
    _filled_array(pool, layout=layout).save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_save_twice_is_byte_identical(tmp_path, pool):
    arr = _filled_array(pool)
    p1, p2 = tmp_path / "a1.bin", tmp_path / "a2.bin"
    arr.save(str(p1))
    back = StoredArray.load(str(p1), pool)
    back.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("layout", ["dense", "coo", "csr"])
def test_save_load_all_layouts(tmp_path, pool, layout):
    arr = _filled_array(pool, layout=layout)
    path = tmp_path / f"{layout}.bin"
    arr.save(str(path))
    back = StoredArray.load(str(path), pool)
    assert back.meta.layout == layout
    assert _cells_dict(back) == _cells_dict(arr)


def test_pin_twice_single_read(tmp_path, pool):
    arr = _filled_array(pool)
    path = tmp_path / "a.bin"
    arr.save(str(path))
    fresh = StoredArray.load(str(path), pool)
    fresh.pin((0, 0))
    fresh.pin((0, 0))
    assert fresh.pin_counts[(0, 0)] == 2
    assert fresh.disk_reads[(0, 0)] == 1
    fresh.unpin((0, 0))
    fresh.unpin((0, 0))


def test_pin_access_string_reads_each_distinct_tile_once(tmp_path, pool):
    arr = _filled_array(pool)  # 3x2 grid
    path = tmp_path / "a.bin"
    arr.save(str(path))
    fresh = StoredArray.load(str(path), pool)
    seq = [(2, 1), (0, 0), (1, 0), (2, 1)]
    for tc in seq:
        fresh.pin(tc)
        fresh.unpin(tc)
    assert fresh.total_pins == 4
    assert set(fresh.pin_counts) == {(2, 1), (0, 0), (1, 0)}
    assert fresh.disk_reads == {(2, 1): 1, (0, 0): 1, (1, 0): 1}


def test_pin_out_of_bounds():
    pool = BufferPool(1 << 20)
    arr = _filled_array(pool)
    with pytest.raises(BoundsError):
        arr.pin((3, 0))
    with pytest.raises(BoundsError):
        arr.pin((0, 2))


def test_absent_tile_is_empty_and_free(pool):
    meta = array_meta((20, 20), (10, 10), attrs=(("value", "int"),))
    b = ArrayBuilder(meta, pool)
    b.add_cells(np.array([[0, 0]]), [np.array([7])])
    arr = b.finish()
    t = arr.pin((1, 1))  # never written
    assert t.cell_count() == 0
    assert cell(t, (3, 3)) is ABSENT
    arr.unpin((1, 1))
    assert arr.disk_reads.get((1, 1), 0) == 0


def test_pinned_tiles_block_eviction(tmp_path):
    arr0 = _filled_array(BufferPool(64 << 20))
    path = tmp_path / "a.bin"
    arr0.save(str(path))
    tile_bytes = arr0.pin((0, 0)).nbytes
    arr0.unpin((0, 0))

    small = BufferPool(tile_bytes)  # room for exactly one tile
    fresh = StoredArray.load(str(path), small)
    fresh.pin((0, 0))  # held
    with pytest.raises(CapacityError):
        fresh.pin((1, 0))
    fresh.unpin((0, 0))
    fresh.pin((1, 0))  # now (0,0) is evictable
    fresh.unpin((1, 0))


def test_reads_match_capacity_one_cache_simulation(tmp_path):
    arr0 = _filled_array(BufferPool(64 << 20))
    path = tmp_path / "a.bin"
    arr0.save(str(path))
    tile_bytes = arr0.pin((0, 0)).nbytes
    arr0.unpin((0, 0))

    pool = BufferPool(tile_bytes)
    fresh = StoredArray.load(str(path), pool)
    rng = random.Random(17)
    grid = fresh.meta.grid
    string = [(rng.randrange(grid[0]), rng.randrange(grid[1])) for _ in range(300)]

    expect: dict = {}
    last = None
    for tc in string:  # reference: cache of exactly one tile
        if tc != last:
            expect[tc] = expect.get(tc, 0) + 1
            last = tc
    for tc in string:
        fresh.pin(tc)
        fresh.unpin(tc)
    assert fresh.disk_reads == expect
    assert fresh.total_reads <= fresh.total_pins


def test_dirty_tile_spills_and_reloads(tmp_path):
    meta = array_meta((20, 10), (10, 5), attrs=(("value", "int"),))
    tile_bytes = None
    pool_big = BufferPool(64 << 20)
    probe = ArrayBuilder(meta, pool_big)
    probe.add_cells(np.array([[0, 0]]), [np.array([1])])
    tile_bytes = probe.finish().pin((0, 0)).nbytes

    pool = BufferPool(tile_bytes)
    b = ArrayBuilder(meta, pool, name="spilly", spool_dir=str(tmp_path))
    b.add_cells(np.array([[1, 1], [12, 3]]), [np.array([5, 9])])
    arr = b.finish()  # writing tile (1,0) evicted dirty tile (0,0) -> spill
    t = arr.pin((0, 0))  # read back from the spill file
    assert cell(t, (1, 1)) == (5,)
    arr.unpin((0, 0))
    assert arr.disk_reads[(0, 0)] == 1
    assert list(tmp_path.glob("*.spill"))


def _spilled_array(tmp_path):
    """Two tiles through a one-tile pool: (0, 0) spilled, (1, 0) dirty."""
    meta = array_meta((20, 10), (10, 5), attrs=(("value", "int"),))
    probe = ArrayBuilder(meta, BufferPool(64 << 20))
    probe.add_cells(np.array([[0, 0]]), [np.array([1])])
    pool = BufferPool(probe.finish().pin((0, 0)).nbytes)
    b = ArrayBuilder(meta, pool, name="spilly", spool_dir=str(tmp_path))
    b.add_cells(np.array([[1, 1], [12, 3]]), [np.array([5, 9])])
    return b.finish(), pool


def test_release_drops_tiles_unspilled_and_deletes_the_spill_file(
        tmp_path, monkeypatch):
    arr, pool = _spilled_array(tmp_path)
    assert len(list(tmp_path.glob("*.spill"))) == 1
    assert len(pool.resident_ids()) == 1
    spills = []
    monkeypatch.setattr(StoredArray, "_spill",
                        lambda self, tile, slot: spills.append(tile))
    arr.release()
    assert spills == []  # the dirty resident tile was dropped, not written
    assert pool.resident_ids() == []
    assert list(tmp_path.glob("*")) == []
    assert arr.tile_coords() == [] and arr.cell_count() == 0


def test_release_keeps_the_file_an_array_was_loaded_from(tmp_path, pool):
    path = str(tmp_path / "a.m2ar")
    _filled_array(pool).save(path)
    own = BufferPool(64 << 20)
    arr = StoredArray.load(path, own)
    assert arr.cell_count() == 25 and own.resident_ids()
    arr.release()
    assert own.resident_ids() == [] and os.path.isfile(path)


def test_tile_read_is_one_exact_length_pread(tmp_path, pool, monkeypatch):
    path = str(tmp_path / "a.m2ar")
    _filled_array(pool).save(path)
    arr = StoredArray.load(path, pool)
    reads = []
    preadv = os.preadv

    def spy(fd, buffers, offset):
        reads.append((sum(len(b) for b in buffers), offset))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    arr.pin((1, 1))
    arr.unpin((1, 1))
    i = arr._tile_id((1, 1))
    assert reads == [(arr._length[i], arr._offset[i])]


def test_short_tile_read_is_internal_error(tmp_path, pool):
    path = str(tmp_path / "a.m2ar")
    _filled_array(pool).save(path)
    arr = StoredArray.load(path, pool)
    last = max(arr.tile_coords(), key=lambda tc: arr._offset[arr._tile_id(tc)])
    os.truncate(path, arr._offset[arr._tile_id(last)] + 1)
    with pytest.raises(InternalError, match="short read"):
        arr.pin(last)
    assert arr.active_pins.get(last, 0) == 0


def test_no_tile_left_pinned_after_iteration(pool):
    arr = _filled_array(pool)
    _ = _cells_dict(arr)
    assert all(v == 0 for v in arr.active_pins.values())


def test_builder_rejects_out_of_range_coordinate(pool):
    meta = array_meta((10, 10), (5, 5))
    b = ArrayBuilder(meta, pool)
    with pytest.raises(BoundsError):
        b.add_cells(np.array([[10, 0]]), [np.array([1.0])])


def test_builder_errors_give_the_cell_as_added(pool):
    b = ArrayBuilder(array_meta((10, 10), (5, 5)), pool)
    b.add_cells(np.array([[7, 8], [1, 1]]), [np.array([1.0, 2.0])])
    with pytest.raises(BoundsError) as e:
        b.add_cells(np.array([[0, 10]]), [np.array([3.0])])
    assert e.value.index == 2
    b.add_cells(np.array([[3, 3], [7, 8]]), [np.array([5.0, 6.0])])
    with pytest.raises(DuplicateCellError,
                       match=r"cell \(7, 8\) in tile \(1, 1\)") as e:
        b.finish()
    assert e.value.index == 3


def test_coo_csv_round_trip(tmp_path, pool):
    arr = _filled_array(pool)
    text = format_result(arr)
    header = text.splitlines()[0]
    assert header == "dim0,dim1,value"
    src = tmp_path / "cells.csv"
    src.write_text(text)
    catalog = Catalog(str(tmp_path))
    catalog.ingest("coo", str(src), "back", size=arr.meta.size,
                   tile=arr.meta.tile_size)
    back = catalog.load_array("back", pool)
    assert _cells_dict(back) == _cells_dict(arr)
