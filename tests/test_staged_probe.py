"""The staged probe of mshj and probe-only: results do not depend on the pool
capacity, stage reads stay within the pool's free space and out of the pool,
the I/O counters add up, and a failed read leaks no fd and no pin."""

from __future__ import annotations

import os
import random
import re

import numpy as np
import pytest

from multimodel.array_store import ArrayBuilder, StoredArray
from multimodel.bridge import JoinStats, dispatch_join
from multimodel.buffer_pool import BufferPool
from multimodel.errors import InternalError
from multimodel.models import FLOAT, INT, ArrayMeta, CellSchema, Relation

from conftest import built_tile, dims_pred

UNBOUNDED = 1 << 30
SHAPES = {2: ((30, 20), (6, 5)), 3: ((12, 10, 8), (4, 5, 4))}
CASES = [(2, "dense"), (2, "coo"), (2, "csr"), (3, "coo")]


def _meta(d, layout):
    size, tile = SHAPES[d]
    return ArrayMeta(CellSchema(tuple(f"x{i}" for i in range(d)),
                                ("v", "w"), (FLOAT, INT)), size, tile, layout)


def _cells(d, seed=0):
    rng = np.random.default_rng(seed)
    size = SHAPES[d][0]
    present = rng.random(size) < 0.4
    present[tuple(slice(0, t) for t in SHAPES[d][1])] = False  # absent tile
    coords = np.argwhere(present)
    return coords, [rng.random(len(coords)), np.arange(len(coords))]


def _build(d, layout, pool, spool_dir=None):
    b = ArrayBuilder(_meta(d, layout), pool, name="a", spool_dir=spool_dir)
    b.add_cells(*_cells(d))
    return b.finish()


def _records(d, n=400, seed=1):
    """Coordinates in random order, some repeated, some outside the array."""
    rng = random.Random(seed)
    size = SHAPES[d][0]
    rows = [tuple(rng.randrange(s + 2) for s in size) + (i,) for i in range(n)]
    return Relation([(f"x{i}", INT) for i in range(d)] + [("tag", INT)], rows)


def _tile_bytes(d, layout):
    arr = _build(d, layout, BufferPool(UNBOUNDED))
    sizes = []
    for tc in arr.tile_coords():
        with arr.pinned(tc) as t:
            sizes.append(t.nbytes)
    return max(sizes)


def _source(kind, d, layout, capacity, tmp_path):
    """The array under a pool of `capacity` bytes: loaded from an .m2ar
    file, or built in the pool (spilling whatever does not fit)."""
    pool = BufferPool(capacity)
    if kind == "file":
        path = str(tmp_path / f"a{d}{layout}.m2ar")
        if not os.path.exists(path):
            _build(d, layout, BufferPool(UNBOUNDED)).save(path)
        return StoredArray.load(path, pool)
    return _build(d, layout, pool, spool_dir=str(tmp_path / "spool"))


@pytest.mark.parametrize("kind", ["file", "built"])
@pytest.mark.parametrize("d, layout", CASES)
def test_rows_do_not_depend_on_pool_capacity(tmp_path, monkeypatch, kind, d,
                                             layout):
    one = _tile_bytes(d, layout)
    rel = _records(d)
    attrs = [f"x{i}" for i in range(d)]
    stage_bytes = []
    read_stage = StoredArray._read_stage

    def spy(self, reads, fds):
        stage_bytes.append((len(reads), self.pool.stats().resident_bytes
                            + sum(64 + slot.length for _, slot in reads)))
        return read_stage(self, reads, fds)

    monkeypatch.setattr(StoredArray, "_read_stage", spy)
    for strategy in ("mshj", "probe-only"):
        want = None
        for capacity in (UNBOUNDED, one, 2 * one, 7 * one):
            arr = _source(kind, d, layout, capacity, tmp_path)
            before = arr.pool.stats()
            resident = arr.pool.resident_ids()
            stats = JoinStats()
            stage_bytes.clear()
            rows = dispatch_join(rel, arr, dims_pred(arr, attrs),
                                 strategy=strategy, stats=stats).rows
            if want is None:
                want = rows
                assert len(rows) > 0
            assert rows == want, (strategy, capacity)
            assert max(arr.disk_reads.values(), default=0) <= stats.stages
            # stage tiles stay out of the pool: nothing added or evicted
            assert arr.pool.resident_ids() == resident
            assert arr.pool.stats().evictions == before.evictions
            # resident plus stage bytes within capacity, unless the stage
            # is the one tile every stage holds at least
            assert all(n == 1 or used <= capacity for n, used in stage_bytes)
            assert all(n == 0 for n in arr.active_pins.values())
            arr.release()


def test_in_memory_array_reads_nothing():
    arr = _build(2, "dense", BufferPool(UNBOUNDED))
    rel = _records(2)
    stats = JoinStats()
    got = dispatch_join(rel, arr, dims_pred(arr, ("x0", "x1")),
                        strategy="mshj", stats=stats)
    assert len(got) > 0
    assert (stats.preads, stats.bytes_read, arr.total_reads) == (0, 0, 0)
    assert stats.stages == 1
    assert arr.pool.stats().hits == stats.tile_pins - 1  # one tile absent


def _saved(tmp_path, d=2, layout="dense"):
    path = str(tmp_path / "a.m2ar")
    _build(d, layout, BufferPool(UNBOUNDED)).save(path)
    return path


def _slot_bytes(path, tcs):
    ref = StoredArray.load(path, BufferPool(UNBOUNDED))
    total = 0
    for tc, n in tcs.items():
        with ref.pinned(tc) as t:
            total += n * len(t.to_bytes())
    return total


@pytest.mark.parametrize("layout", ["dense", "coo"])
def test_join_stats_identities(tmp_path, layout):
    path = _saved(tmp_path, layout=layout)
    rel = _records(2, n=600)
    for strategy, capacity in (("mshj", _tile_bytes(2, layout)),
                               ("mshj", UNBOUNDED), ("probe-only", 3000)):
        arr = StoredArray.load(path, BufferPool(capacity))
        stats = JoinStats()
        dispatch_join(rel, arr, dims_pred(arr, ("x0", "x1")),
                      strategy=strategy, stats=stats)
        read = arr.total_reads
        assert 0 < stats.preads <= read
        assert stats.bytes_read == _slot_bytes(path, arr.disk_reads)
        if layout == "dense" and strategy == "mshj" and capacity < UNBOUNDED:
            # a one-tile pool: one stage per distinct tile read (the absent
            # tile costs no bytes and rides along with the next one)
            assert stats.stages == len(arr.disk_reads) == read
            assert stats.tile_pins == len(arr.pin_counts) == read + 1
        if capacity == UNBOUNDED:
            # one stage; the tiles are adjacent in the file: one pread
            assert (stats.stages, stats.preads) == (1, 1)
            assert read == len(arr.tile_coords())


def test_mixed_layout_file_joins_like_its_cells(tmp_path):
    """A file whose tiles mix dense and sparse encodings: the stage reads
    both into one buffer and looks each kind up as one block."""
    meta = _meta(2, "dense")
    arr = _build(2, "dense", BufferPool(UNBOUNDED))
    for i, tc in enumerate(arr.tile_coords()):
        if i % 3 == 1:
            with arr.pinned(tc) as t:
                cc, vals = t.cells()
            arr.write_tile(tc, built_tile(tc, meta.tile_size,
                                          arr.valid_extent(tc), arr.attr_dtypes,
                                          "coo", cc, vals))
    path = str(tmp_path / "mixed.m2ar")
    arr.save(path)
    rel = _records(2)
    pred = dims_pred(arr, ("x0", "x1"))
    want = dispatch_join(rel, arr, pred, strategy="mshj").rows
    for strategy in ("mshj", "probe-only"):
        loaded = StoredArray.load(path, BufferPool(UNBOUNDED))
        stats = JoinStats()
        got = dispatch_join(rel, loaded, pred, strategy=strategy,
                            stats=stats).rows
        assert sorted(got) == sorted(want)
        assert stats.stages == 1


def test_stage_keys_past_32_bits_leave_resident_runs_alone(tmp_path):
    """Sparse tiles of 2**32 cells key a stage's records in int64; the run
    on a resident tile, which the stage leaves out, keeps what the resident
    lookup found."""
    t = 1 << 16
    meta = ArrayMeta(CellSchema(("x0", "x1"), ("v",), (FLOAT,)),
                     (t, 3 * t), (t, t), "coo")
    b = ArrayBuilder(meta, BufferPool(UNBOUNDED), name="a")
    b.add_cells(np.array([[5, 7], [5, t + 7], [9, 2 * t + 3]]),
                [np.array([1.5, 2.5, 3.5])])
    path = str(tmp_path / "huge.m2ar")
    b.finish().save(path)
    arr = StoredArray.load(path, BufferPool(UNBOUNDED))
    stats = JoinStats()
    with arr.pinned((0, 0)):  # resident: looked up in place
        found, (v,) = arr.lookup_runs(
            np.array([0, 1, 2]), np.ones(3, np.int64),
            np.array([5 * t + 7, 5 * t + 7, 9 * t + 3]), stats)
    assert found.tolist() == [True, True, True]
    assert v.tolist() == [1.5, 2.5, 3.5]
    assert (stats.stages, arr.total_reads) == (1, 3)  # the pin's, 2 staged


def test_one_stage_of_many_dense_tiles_finds_every_cell(tmp_path):
    """Ten dense tiles of 10 x 10 cells read in one stage: a record's tile
    rank (up to 9) and cell (up to 99) address ranks * cells past a byte,
    and every cell is found with its value, also beside a run on a resident
    tile that the stage leaves out."""
    meta = ArrayMeta(CellSchema(("x0", "x1"), ("v",), (FLOAT,)),
                     (10, 100), (10, 10), "dense")
    grid = np.arange(1000.0).reshape(10, 100) + 0.5
    b = ArrayBuilder(meta, BufferPool(UNBOUNDED), name="a")
    b.add_cells(np.argwhere(np.ones(grid.shape, bool)), [grid.ravel()])
    path = str(tmp_path / "dense.m2ar")
    b.finish().save(path)
    arr = StoredArray.load(path, BufferPool(UNBOUNDED))
    tiles = np.arange(10)
    cells = np.tile(np.arange(100), 10)
    want = grid.reshape(10, 10, 10).transpose(1, 0, 2).ravel()
    for resident in (None, (0, 3)):
        stats = JoinStats()
        if resident is None:
            found, (v,) = arr.lookup_runs(tiles, np.full(10, 100), cells, stats)
        else:
            with arr.pinned(resident):
                found, (v,) = arr.lookup_runs(tiles, np.full(10, 100), cells,
                                              stats)
        assert found.all()
        assert v.tobytes() == want.tobytes()
        assert stats.stages == 1


@pytest.mark.parametrize("layout", ["coo", "csr"])
def test_a_stage_of_one_sparse_tile_keys_its_cells_alone(tmp_path, layout):
    """A stage whose one tile is sparse and of 16 x 16 cells: the stage's
    keys are the cells 0 .. 255, a byte's range exactly, and every cell is
    found, beside a run on a resident tile that the stage leaves out."""
    meta = ArrayMeta(CellSchema(("x0", "x1"), ("v",), (FLOAT,)),
                     (32, 16), (16, 16), layout)
    coords = np.array([[0, 0], [0, 15], [15, 0], [15, 15], [16, 0], [31, 15]])
    b = ArrayBuilder(meta, BufferPool(UNBOUNDED), name="a")
    b.add_cells(coords, [np.arange(6) + 0.5])
    path = str(tmp_path / f"{layout}.m2ar")
    b.finish().save(path)
    arr = StoredArray.load(path, BufferPool(UNBOUNDED))
    stats = JoinStats()
    found, (v,) = arr.lookup_runs(np.array([0]), np.array([5]),
                                  np.array([0, 15, 240, 255, 17]), stats)
    assert found.tolist() == [True, True, True, True, False]
    assert v[:4].tolist() == [0.5, 1.5, 2.5, 3.5]
    assert (stats.stages, stats.preads) == (1, 1)
    with arr.pinned((1, 0)):  # resident; the stage reads tile (0, 0) alone
        found, (v,) = arr.lookup_runs(np.array([0, 1]), np.array([2, 2]),
                                      np.array([255, 17, 0, 255]), JoinStats())
    assert found.tolist() == [True, False, True, True]
    assert v[found].tolist() == [3.5, 4.5, 5.5]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("strategy", ["mshj", "probe-only"])
def test_truncated_file_names_the_tile_and_leaks_nothing(tmp_path, strategy):
    path = _saved(tmp_path)
    arr = StoredArray.load(path, BufferPool(UNBOUNDED))
    last = arr.tile_coords()[-1]
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 100)
    for tc in arr.tile_coords()[:3]:  # resident: pinned by the probe
        with arr.pinned(tc):
            pass
    fds = _open_fds()
    with pytest.raises(InternalError, match=re.escape(f"tile {last} ")):
        dispatch_join(_records(2, n=2000), arr, dims_pred(arr, ("x0", "x1")),
                      strategy=strategy)
    assert _open_fds() == fds
    assert arr.pin_counts and not arr.active_pins
