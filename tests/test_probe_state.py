"""mshj's per-record probe state.  Stage keys, tile ids and cells are held
in the narrowest unsigned dtype that fits.  On both sides of each dtype's
limit they give the values and the bucket order of int64 arithmetic, and
every strategy returns the same rows.  The join's heap peak per record
stays bounded."""

from __future__ import annotations

import gc
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel.array_store import ArrayBuilder, StoredArray
from multimodel.bench import SHAPES, _gen_records, build_bench_array
from multimodel.bridge import (JoinStats, _bucket_order, _tile_cells,
                               dispatch_join)
from multimodel.buffer_pool import BufferPool
from multimodel.models import (INT, ArrayMeta, CellSchema, Collection,
                               Relation)

from conftest import dims_pred

# tiles (or cells) along one dimension on both sides of the uint8 and uint16
# limits; two dimensions of 65,536 or more cross the uint32 limit
LIMITS = (255, 256, 257, 65_535, 65_536, 65_537)
EDGES = (0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536)


def _narrowest(top: int) -> np.dtype:
    """Unsigned up to 32 bits; past that int64, never uint64, which numpy
    mixes with int64 into float64."""
    return np.min_scalar_type(top) if top < 1 << 32 else np.dtype(np.int64)


def _meta(size, tile, layout="coo") -> ArrayMeta:
    d = len(size)
    return ArrayMeta(CellSchema(tuple(f"x{i}" for i in range(d)), ("v",),
                                (INT,)), tuple(size), tuple(tile), layout)


@st.composite
def _dimension(draw, counts):
    """(extent, tile extent): a grid of ``counts`` tiles, the last one
    possibly partial."""
    g = draw(st.sampled_from(counts))
    t = draw(st.sampled_from((1, 2, 3, 16) + LIMITS))
    return g * t - draw(st.integers(0, t - 1)), t


def _near_edges(extent, t):
    """A coordinate, drawn often at a tile or cell index next to a limit."""
    g = -(-extent // t)
    def at(q, r):
        return min(q * t + r, extent - 1)
    edge_q = [q for q in EDGES + (g - 1,) if q < g]
    edge_r = [r for r in EDGES + (t - 1,) if r < t]
    return st.one_of(st.integers(0, extent - 1),
                     st.builds(at, st.sampled_from(edge_q),
                               st.sampled_from(edge_r)))


@st.composite
def located(draw):
    """An array shape (no storage) and int64 coordinates inside it."""
    d = draw(st.integers(1, 3))
    dims = [draw(_dimension((1, 2, 3) + LIMITS)) for _ in range(d)]
    meta = _meta([e for e, _ in dims], [t for _, t in dims])
    n = draw(st.integers(0, 40))
    cols = [np.array(draw(st.lists(_near_edges(e, t), min_size=n,
                                   max_size=n)), dtype=np.int64)
            for e, t in dims]
    return meta, cols


def _int64_reference(meta, cols):
    """Tile coordinates, linear tile ids, cells and the D-stage stable order,
    all in int64 arithmetic."""
    tq = [c // t for c, t in zip(cols, meta.tile_size)]
    ids = np.zeros(len(cols[0]), np.int64)
    cells = np.zeros(len(cols[0]), np.int64)
    for c, q, t, g in zip(cols, tq, meta.tile_size, meta.grid):
        ids, cells = ids * g + q, cells * t + c % t
    order = np.arange(len(cols[0]), dtype=np.int64)
    for keys in tq:
        order = order[np.argsort(keys[order], kind="stable")]
    return tq, ids, cells, order


@settings(max_examples=300, deadline=None)
@given(located())
def test_narrow_keys_give_the_int64_values_and_order(case):
    meta, cols = case
    tq, ids, cells = _tile_cells(cols, meta)
    want_tq, want_ids, want_cells, want_order = _int64_reference(meta, cols)
    for q, want, g in zip(tq, want_tq, meta.grid):
        assert q.dtype == _narrowest(g - 1)
        assert q.tolist() == want.tolist()
    assert ids.dtype == _narrowest(math.prod(meta.grid) - 1)
    assert cells.dtype == _narrowest(math.prod(meta.tile_size) - 1)
    assert ids.tolist() == want_ids.tolist()
    assert cells.tolist() == want_cells.tolist()
    order = _bucket_order(None, tq, None, JoinStats(), None)
    assert order.tolist() == want_order.tolist()


def test_the_dtypes_switch_at_the_limits():
    one = np.array([0, 1], np.int64)
    for grid, want in ((255, np.uint8), (256, np.uint8), (257, np.uint16),
                       (65_536, np.uint16), (65_537, np.uint32)):
        tq, ids, cells = _tile_cells([one], _meta((grid,), (1,)))
        assert tq[0].dtype == ids.dtype == want and cells.dtype == np.uint8
        _, ids, cells = _tile_cells([one], _meta((1, grid), (1, grid)))
        assert ids.dtype == np.uint8 and cells.dtype == want
    big = _meta((65_537, 65_537), (1, 1))  # more tiles than uint32 numbers
    _, ids, _ = _tile_cells([one, one], big)
    assert ids.dtype == np.int64 and ids.tolist() == [0, 65_538]


def _searchsorted_as_numpy_1(a, v, *args, **kwargs):
    """``np.searchsorted`` as numpy < 2 runs it: both sides in their common
    dtype, which is float64 for uint64 against int64."""
    common = np.result_type(a, v)
    return SEARCHSORTED(np.asarray(a, common), np.asarray(v, common),
                        *args, **kwargs)


SEARCHSORTED = np.searchsorted


def test_cells_past_float64_precision_probe_exactly(tmp_path, monkeypatch):
    """One coo tile of 2**56 cells, read by a stage or resident in the pool:
    cells 2**56 - 1 and 2**56 - 2 differ, which they would not as float64,
    also where a search of int64 keys in uint64 ones goes through float64."""
    side = 1 << 28
    meta = _meta((side, side), (side, side))
    cells = [(side - 1, side - 1), (side - 1, side - 2), (0, 3)]
    builder = ArrayBuilder(meta, BufferPool(1 << 30))
    builder.add_cells(np.array(cells), [np.array([1, 2, 3])])
    path = str(tmp_path / "a.m2ar")
    built = builder.finish()  # its tile is resident
    built.save(path)
    rel = Relation([("x0", INT), ("x1", INT)], cells + [(side - 1, side - 3)])
    pred = dims_pred(built, ("x0", "x1"))
    want = [(0, 3, 3), (side - 1, side - 2, 2), (side - 1, side - 1, 1)]
    for search in (SEARCHSORTED, _searchsorted_as_numpy_1):
        monkeypatch.setattr(np, "searchsorted", search)
        for arr in (StoredArray.load(path, BufferPool(1 << 20)), built):
            for strategy in ("mshj", "probe-only"):
                assert sorted(dispatch_join(rel, arr, pred,
                                            strategy=strategy).rows) == want


# --------------------------------------------------- strategies agree

@st.composite
def joins(draw):
    """A sparse coo array with one dimension of 255 to 65,537 tiles and a
    few cells, and records near the tile and cell limits, some outside the
    array or repeated; document or relation records; the array resident
    or loaded from its file."""
    d = draw(st.integers(1, 2))
    big = draw(st.integers(0, d - 1))
    dims = [draw(_dimension(LIMITS)) if j == big else
            draw(_dimension((1, 2, 3))) for j in range(d)]
    meta = _meta([e for e, _ in dims], [t for _, t in dims])
    coord = st.tuples(*(_near_edges(e, t) for e, t in dims))
    cells = draw(st.lists(coord, max_size=12, unique=True))
    probes = draw(st.lists(st.one_of(
        coord, st.sampled_from(cells) if cells else coord,
        st.tuples(*(st.integers(e, e + 2) for e, _ in dims))), max_size=30))
    return meta, cells, probes, draw(st.booleans()), draw(st.booleans())


def _rows(res) -> list:
    if isinstance(res, Relation):
        return sorted(res.rows)
    return sorted(repr(sorted(doc.items())) for doc in res.docs)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(joins())
def test_strategies_agree_across_the_limits(case):
    meta, cells, probes, documents, from_file = case
    builder = ArrayBuilder(meta, BufferPool(1 << 30))
    builder.add_cells(np.array(cells, np.int64).reshape(-1, meta.d),
                      [np.arange(len(cells), dtype=np.int64)])
    arr = builder.finish()
    if from_file:  # no tile resident: the stages read every tile
        with tempfile.TemporaryDirectory() as tmp:
            arr.save(os.path.join(tmp, "a.m2ar"))
            arr = StoredArray.load(os.path.join(tmp, "a.m2ar"),
                                   BufferPool(1 << 30))
            _check_strategies_agree(meta, arr, probes, documents)
    else:
        _check_strategies_agree(meta, arr, probes, documents)


def _check_strategies_agree(meta, arr, probes, documents):
    names = [f"x{j}" for j in range(meta.d)]
    if documents:
        recs = Collection("recs", [dict(zip(names, p), tag=i)
                                   for i, p in enumerate(probes)])
        out = "document"
    else:
        recs = Relation([(n, INT) for n in names] + [("tag", INT)],
                        [p + (i,) for i, p in enumerate(probes)])
        out = "relational"
    pred = dims_pred(arr, names)
    stats = JoinStats()
    got = _rows(dispatch_join(recs, arr, pred, out, strategy="mshj",
                              stats=stats))
    in_order = _rows(dispatch_join(recs, arr, pred, out,
                                   strategy="probe-only"))
    # last: the conversion pins every tile, so they become resident
    want = _rows(dispatch_join(recs, arr, pred, out, strategy="convert"))
    assert got == in_order == want
    assert stats.output_rows == len(want)


# --------------------------------------------------- bounded heap per record

N_RECORDS = 100_000
BYTES_PER_RECORD = 70


@pytest.mark.parametrize("d, layout", [(2, "dense"), (3, "coo")])
def test_mshj_heap_peak_per_record_is_bounded(tmp_path, d, layout):
    """On the ``bench mshj`` shapes, mshj's traced heap peak over a pool of
    four of the array's tiles, less that capacity (the most its stage
    reads take), stays within BYTES_PER_RECORD per relation record."""
    path = os.path.join(tmp_path, "a.m2ar")
    build_bench_array(d, layout, 0, path)
    rel = _gen_records(N_RECORDS, d, SHAPES[d][0], 1)
    probe = StoredArray.load(path, BufferPool(1 << 30))
    largest = 0
    for tc in probe.tile_coords():
        with probe.pinned(tc) as tile:
            largest = max(largest, tile.nbytes)
    capacity = 4 * largest
    arr = StoredArray.load(path, BufferPool(capacity))
    pred = dims_pred(arr, [f"a{i}" for i in range(d)])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = dispatch_join(rel, arr, pred, strategy="mshj")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < len(res) < N_RECORDS
    assert peak - capacity <= BYTES_PER_RECORD * N_RECORDS
