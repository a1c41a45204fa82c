import random
import time
from collections import Counter

import numpy as np
import pytest

from multimodel.array_store import ArrayBuilder
from multimodel.bridge import (STRATEGIES, JoinStats, JoinTrace, dispatch_join,
                               to_array, to_relation)
from multimodel.errors import (BindingError, BoundsError, DuplicateCellError,
                               OutputSpecError)
from multimodel.models import (BOOL, FLOAT, INT, UINT, ArrayMeta, CellSchema,
                               Collection, Relation)
from multimodel.predicates import parse_predicate

from conftest import dims_pred


def build_array(pool, size, tile_size, cells, layout="dense",
                dims=("d0", "d1"), attrs=(("val", FLOAT),)):
    """cells: {coords: (attr values...)}"""
    meta = ArrayMeta(CellSchema(tuple(dims)[: len(size)],
                                tuple(n for n, _ in attrs),
                                tuple(t for _, t in attrs)),
                     size, tile_size, layout)
    b = ArrayBuilder(meta, pool)
    coords = list(cells)
    cols = list(zip(*(cells[c] for c in coords))) if coords else \
        [[] for _ in attrs]
    b.add_cells(np.asarray(coords, dtype=np.int64).reshape(-1, len(size)), cols)
    return b.finish()


def cells_of(arr):
    out = {}
    for coords, vals in arr.iter_cells():
        for k in range(len(coords)):
            out[tuple(int(x) for x in coords[k])] = \
                tuple(v[k].item() for v in vals)
    return out


def nested_loop_oracle(rel, attrs, arr):
    cells = cells_of(arr)
    idx = [rel.attr_index(a) for a in attrs]
    return [row + cells[tuple(row[i] for i in idx)]
            for row in rel.rows if tuple(row[i] for i in idx) in cells]


def multiset(rows):
    return Counter(map(repr, rows))


# ----------------------------------------------------------- worked example
# five records against a 30x10 array tiled 10x5

FIVE = Relation([("v0", INT), ("v1", INT), ("tag", INT)],
                [(23, 8, 0), (5, 2, 1), (15, 1, 2), (7, 4, 3), (12, 3, 4)])


@pytest.fixture
def small_array(pool):
    # cells exist at three of the five record coordinates
    return build_array(pool, (30, 10), (10, 5),
                       {(23, 8): (1.5,), (5, 2): (2.5,), (15, 1): (3.5,)})


def test_building_stages_bucket_by_tile_extent(pool, small_array):
    trace = JoinTrace()
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="mshj", trace=trace)
    # stage 0: floor(v0/10) -> 3 buckets; record 0 (v0=23) lands in bucket 2
    assert trace.stage_buckets[0] == [[1, 3], [2, 4], [0]]
    # stage 1: floor(v1/5) -> 2 buckets, previous order preserved
    assert trace.stage_buckets[1] == [[1, 3, 2, 4], [0]]
    assert trace.probe_order == [1, 3, 2, 4, 0]


def test_probe_coordinates_and_single_pins(pool, small_array):
    trace = JoinTrace()
    stats = JoinStats()
    out = dispatch_join(FIVE, small_array,
                        dims_pred(small_array, ("v0", "v1")), strategy="mshj",
                        stats=stats, trace=trace)
    assert trace.tcs == [(0, 0), (0, 0), (1, 0), (1, 0), (2, 1)]
    assert trace.ccs == [(5, 2), (7, 4), (5, 1), (2, 3), (3, 3)]
    # last probed record is (23, 8): tile (2,1), cell (3,3)
    assert trace.tcs[-1] == (2, 1) and trace.ccs[-1] == (3, 3)
    assert trace.pins == [(0, 0), (1, 0), (2, 1)]
    assert all(n == 1 for n in small_array.pin_counts.values())
    assert set(small_array.pin_counts) == {(0, 0), (1, 0), (2, 1)}
    assert stats.tile_pins == 3
    # only the records whose cell exists are emitted
    assert multiset(out.rows) == multiset([
        (5, 2, 1, 2.5), (15, 1, 2, 3.5), (23, 8, 0, 1.5)])
    assert out.schema == [("v0", INT), ("v1", INT), ("tag", INT),
                          ("val", FLOAT)]


def test_block_scans_are_dims_plus_one(pool, small_array):
    stats = JoinStats()
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="mshj", stats=stats)
    assert stats.block_scans == 3  # 2 building stages + 1 probe pass

    stats = JoinStats()
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="probe-only", stats=stats)
    assert stats.block_scans == 1


def test_probe_only_in_input_order_revisits_tiles(pool, small_array):
    stats = JoinStats()
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="mshj", stats=stats)
    base = stats.tile_pins

    small_array.reset_io_stats()
    stats2 = JoinStats()
    # input order revisits tiles: (2,1),(0,0),(1,0),(0,0),(1,0)
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="probe-only", stats=stats2)
    assert stats2.tile_pins == 5 > base


def test_probe_only_on_presorted_records_matches_mshj_pins(pool, small_array):
    trace = JoinTrace()
    stats = JoinStats()
    dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0", "v1")),
                  strategy="mshj", stats=stats, trace=trace)
    presorted = Relation(FIVE.schema, [FIVE.rows[i] for i in trace.probe_order])
    stats2 = JoinStats()
    out = dispatch_join(presorted, small_array,
                        dims_pred(small_array, ("v0", "v1")),
                        strategy="probe-only", stats=stats2)
    assert stats2.tile_pins == stats.tile_pins
    assert len(out.rows) == 3


def test_empty_relation_gives_empty_output(pool, small_array):
    empty = Relation(FIVE.schema, [])
    out = dispatch_join(empty, small_array,
                        dims_pred(small_array, ("v0", "v1")), strategy="mshj")
    assert out.rows == [] and out.schema[:3] == FIVE.schema

    arr_out = dispatch_join(empty, small_array,
                            dims_pred(small_array, ("v0", "v1")), "array",
                            strategy="mshj")
    assert arr_out.cell_count() == 0

    col_out = dispatch_join(Collection("c", []), small_array,
                            dims_pred(small_array, ("v0", "v1")), "document",
                            strategy="mshj")
    assert col_out.docs == []


def test_binding_errors(pool, small_array):
    bad = Relation([("v0", INT), ("v1", INT)], [(1, -2)])
    with pytest.raises(BindingError):
        dispatch_join(bad, small_array, dims_pred(small_array, ("v0", "v1")),
                      strategy="mshj")
    mixed = Relation([("v0", INT), ("v1", INT)], [(1, "x")])
    with pytest.raises(BindingError):
        dispatch_join(mixed, small_array, dims_pred(small_array, ("v0", "v1")),
                      strategy="mshj")
    booly = Relation([("v0", INT), ("v1", INT)], [(1, True)])
    with pytest.raises(BindingError):
        dispatch_join(booly, small_array, dims_pred(small_array, ("v0", "v1")),
                      strategy="mshj")
    with pytest.raises(BindingError):
        dispatch_join(FIVE, small_array, dims_pred(small_array, ("v0",)),
                      strategy="mshj")
    with pytest.raises(BindingError):
        dispatch_join(FIVE, small_array,
                      dims_pred(small_array, ("v0", "nope")), strategy="mshj")


@pytest.mark.parametrize("bad", [-1, True, 1.0, "3", None])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_dimension_check_names_first_bad_value(pool, small_array, bad, at):
    col = [1] * 9 + [-7]  # a later bad value is not the one named
    col[at] = bad
    with pytest.raises(BindingError) as err:
        dispatch_join(Relation([("v0", INT), ("v1", INT)],
                               [(v, 2) for v in col]),
                      small_array, dims_pred(small_array, ("v0", "v1")),
                      strategy="mshj")
    assert str(err.value) == (f"row {at}: dimension attribute 'v0' must be "
                              f"a non-negative integer, got {bad!r}")
    with pytest.raises(BindingError) as err:
        dispatch_join(Collection("c", [{"v0": v, "v1": 2} for v in col]),
                      small_array, dims_pred(small_array, ("v0", "v1")),
                      "document", strategy="mshj")
    assert str(err.value) == (f"document {at}: path 'v0' must be a "
                              f"non-negative integer, got {bad!r}")


@pytest.mark.parametrize("big", [2**63, 2**70])
def test_dimension_beyond_int64_is_binding_error(pool, small_array, big):
    pairs = [(1, 2), (big, 2)]
    rel = Relation([("v0", INT), ("v1", INT)], pairs)
    docs = Collection("c", [{"v0": a, "v1": b} for a, b in pairs])
    on_row = (f"row 1: dimension attribute 'v0' must fit in a signed 64-bit "
              f"integer, got {big!r}")
    on_doc = (f"document 1: path 'v0' must fit in a signed 64-bit integer, "
              f"got {big!r}")
    calls = [
        (lambda: to_array(rel, ["v0", "v1"], [], None, pool), on_row),
        (lambda: to_array(docs, ["v0", "v1"], [], None, pool), on_doc),
        (lambda: dispatch_join(rel, small_array,
                               dims_pred(small_array, ("v0", "v1")),
                               strategy="mshj"), on_row),
        (lambda: dispatch_join(docs, small_array,
                               dims_pred(small_array, ("v0", "v1")),
                               "document", strategy="mshj"), on_doc),
    ]
    for call, message in calls:
        with pytest.raises(BindingError) as err:
            call()
        assert str(err.value) == message


def test_join_phases_fit_in_its_wall_time(pool):
    rng = random.Random(8)
    rel, arr = _random_instance(pool, rng, 2, "dense", n_rows=3000)
    stats = JoinStats()
    t0 = time.perf_counter()
    dispatch_join(rel, arr, dims_pred(arr, ("a0", "a1")), strategy="mshj",
                  stats=stats)
    wall = time.perf_counter() - t0
    phases = (stats.extract_seconds, stats.build_seconds, stats.probe_seconds)
    assert all(p > 0 for p in phases)
    assert sum(phases) <= wall


def test_out_of_range_records_are_dropped(pool, small_array):
    rel = Relation([("v0", INT), ("v1", INT)], [(5, 2), (99, 2), (5, 77)])
    out = dispatch_join(rel, small_array, dims_pred(small_array, ("v0", "v1")),
                        strategy="mshj")
    assert out.rows == [(5, 2, 2.5)]


# ----------------------------------------------------- randomized vs oracle

def _random_instance(pool, rng, d, layout, n_rows=200, out_of_range=True):
    size = tuple(rng.randint(6, 14) for _ in range(d))
    tile = tuple(rng.randint(2, 5) for _ in range(d))
    n_cells = rng.randint(0, min(60, int(np.prod(size))))
    coords = set()
    while len(coords) < n_cells:
        coords.add(tuple(rng.randrange(s) for s in size))
    cells = {c: (round(rng.uniform(0, 9), 3),) for c in coords}
    arr = build_array(pool, size, tile, cells, layout,
                      dims=tuple(f"d{i}" for i in range(d)))
    hi = [s + (3 if out_of_range else 0) for s in size]
    rows = [tuple(rng.randrange(h) for h in hi) + (i,)
            for i in range(n_rows)]
    rel = Relation([(f"a{i}", INT) for i in range(d)] + [("tag", INT)], rows)
    return rel, arr


@pytest.mark.parametrize("layout", ["dense", "coo", "csr"])
def test_mshj_matches_nested_loop_oracle_2d(pool, layout):
    rng = random.Random(hash(layout) % 10_000)
    for trial in range(6):
        rel, arr = _random_instance(pool, rng, 2, layout)
        attrs = ("a0", "a1")
        got = dispatch_join(rel, arr, dims_pred(arr, attrs), strategy="mshj")
        assert multiset(got.rows) == multiset(nested_loop_oracle(rel, attrs, arr))


@pytest.mark.parametrize("d", [1, 3])
def test_mshj_matches_nested_loop_oracle_other_dims(pool, d):
    rng = random.Random(17 * d)
    for trial in range(5):
        rel, arr = _random_instance(pool, rng, d, "coo")
        attrs = tuple(f"a{i}" for i in range(d))
        got = dispatch_join(rel, arr, dims_pred(arr, attrs), strategy="mshj")
        assert multiset(got.rows) == multiset(nested_loop_oracle(rel, attrs, arr))


def _unique_records(rng, size, n):
    """Records at n distinct in-range coordinates (array output forbids
    duplicate cells), tagged by position."""
    coords = rng.sample([(i, j) for i in range(size[0])
                         for j in range(size[1])], n)
    return Relation([("a0", INT), ("a1", INT), ("tag", INT)],
                    [c + (k,) for k, c in enumerate(coords)])


def test_strategies_agree_everywhere(pool):
    rng = random.Random(99)
    doc_key = lambda d: repr(sorted(d.items()))
    for trial in range(5):
        rel, arr = _random_instance(pool, rng, 2, "dense", n_rows=80)
        pred = dims_pred(arr, ("a0", "a1"))
        r1, r2, r3 = (dispatch_join(rel, arr, pred, strategy=s)
                      for s in STRATEGIES)
        assert multiset(r1.rows) == multiset(r2.rows) == multiset(r3.rows)
        assert r1.schema == r2.schema == r3.schema

        docs = [dispatch_join(rel, arr, pred, "document", strategy=s).docs
                for s in STRATEGIES]
        assert len({tuple(sorted(map(doc_key, d))) for d in docs}) == 1
        assert len(docs[0]) == len(r1.rows)

        uniq = _unique_records(rng, arr.meta.size, 30)
        arrays = [dispatch_join(uniq, arr, pred, "array", strategy=s)
                  for s in STRATEGIES]
        assert cells_of(arrays[0]) == cells_of(arrays[1]) == cells_of(arrays[2])
        assert len({a.meta for a in arrays}) == 1


def test_probe_order_is_radix_sorted(pool):
    rng = random.Random(4)
    rel, arr = _random_instance(pool, rng, 3, "dense", n_rows=300)
    trace = JoinTrace()
    dispatch_join(rel, arr, dims_pred(arr, ("a0", "a1", "a2")),
                  strategy="mshj", trace=trace)
    keys = [tuple(reversed(tc)) for tc in trace.tcs]
    assert keys == sorted(keys)
    # grouped by tile: each distinct tile forms one contiguous run
    assert len(trace.pins) == len(set(trace.pins))


def test_referenced_tiles_pinned_once_others_never(pool):
    rng = random.Random(12)
    rel, arr = _random_instance(pool, rng, 2, "coo", n_rows=150)
    arr.reset_io_stats()
    trace = JoinTrace()
    dispatch_join(rel, arr, dims_pred(arr, ("a0", "a1")), strategy="mshj",
                  trace=trace)
    referenced = set(trace.tcs)
    assert set(arr.pin_counts) == referenced
    assert all(c == 1 for c in arr.pin_counts.values())


def test_shuffled_probe_only_reads_exceed_distinct_tiles(pool):
    rng = random.Random(5)
    rel, arr = _random_instance(pool, rng, 2, "dense", n_rows=300,
                                out_of_range=False)
    trace = JoinTrace()
    stats = JoinStats()
    dispatch_join(rel, arr, dims_pred(arr, ("a0", "a1")),
                  strategy="probe-only", stats=stats, trace=trace)
    k = len(set(trace.tcs))
    assert stats.tile_pins >= k
    revisits = stats.tile_pins - len(set(trace.pins))
    if revisits:  # random order essentially always revisits
        assert stats.tile_pins > k


# ------------------------------------------------------------- array output

def test_join_to_array_output(pool):
    rng = random.Random(31)
    _, arr = _random_instance(pool, rng, 2, "dense", n_rows=0,
                              out_of_range=False)
    rel = _unique_records(rng, arr.meta.size, 40)
    out = dispatch_join(rel, arr, dims_pred(arr, ("a0", "a1")), "array",
                        strategy="mshj")
    assert out.meta.schema.dim_names == ("a0", "a1")
    assert out.meta.schema.attr_names == ("tag", "val")
    oracle = {(r[0], r[1]): (r[2], r[3]) for r in
              nested_loop_oracle(rel, ("a0", "a1"), arr)}
    assert cells_of(out) == oracle
    assert out.meta.size == arr.meta.size
    assert out.meta.tile_size == arr.meta.tile_size


def test_array_output_duplicate_coordinates(pool, small_array):
    dup = Relation([("v0", INT), ("v1", INT)], [(5, 2), (5, 2)])
    with pytest.raises(DuplicateCellError):
        dispatch_join(dup, small_array, dims_pred(small_array, ("v0", "v1")),
                      "array", strategy="mshj")


def test_attr_name_collision_gets_suffix(pool):
    rel = Relation([("d0", INT), ("d1", INT), ("val", INT)], [(0, 0, 7)])
    arr = build_array(pool, (4, 4), (2, 2), {(0, 0): (1.5,)})
    out = dispatch_join(rel, arr, dims_pred(arr, ("d0", "d1")),
                        strategy="mshj")
    assert [n for n, _ in out.schema] == ["d0", "d1", "val", "val_r"]
    assert out.rows == [(0, 0, 7, 1.5)]


# ---------------------------------------------------------------- documents

DOCS = Collection("m", [
    {"who": {"cid": 0}, "item": {"pid": 1}, "w": 2.0},
    {"who": {"cid": 3}, "item": {"pid": 0}, "w": 4.0},
    {"who": {"cid": 1}},  # no item.pid: dropped
])


def test_document_side_join_merges_cell_into_doc(pool):
    arr = build_array(pool, (4, 4), (2, 2),
                      {(0, 1): (9.5,), (2, 2): (1.0,)},
                      dims=("cid", "pid"), attrs=(("rating", FLOAT),))
    out = dispatch_join(DOCS, arr, dims_pred(arr, ("who.cid", "item.pid")),
                        strategy="mshj")
    assert out.docs == [{"who": {"cid": 0}, "item": {"pid": 1}, "w": 2.0,
                         "cid": 0, "pid": 1, "rating": 9.5}]


def test_document_join_keeps_left_value_on_collision(pool):
    arr = build_array(pool, (4,), (2,), {(1,): (5.5,)},
                      dims=("x",), attrs=(("rating", FLOAT),))
    col = Collection("c", [{"x": 1, "rating": "mine"}])
    out = dispatch_join(col, arr, dims_pred(arr, ("x",)), strategy="mshj")
    assert out.docs == [{"x": 1, "rating": "mine"}]


def test_document_join_strategies_agree(pool):
    arr = build_array(pool, (4, 4), (2, 2),
                      {(0, 1): (9.5,), (3, 0): (2.5,), (1, 1): (4.0,)},
                      dims=("cid", "pid"), attrs=(("rating", FLOAT),))
    flat = Collection("m", [{"cid": i % 4, "pid": (i * 7) % 4, "n": i}
                            for i in range(12)])
    pred = dims_pred(arr, ("cid", "pid"))
    a = dispatch_join(flat, arr, pred, strategy="mshj")
    c = dispatch_join(flat, arr, pred, strategy="convert")
    key = lambda d: sorted(d.items(), key=repr)
    assert sorted(map(key, a.docs)) == sorted(map(key, c.docs))


# --------------------------------------------------------------- dispatcher

def test_dispatch_full_equi_uses_mshj(pool, small_array):
    pred = parse_predicate("r.v0 = a.d0 and r.v1 = a.d1")
    stats = JoinStats()
    out = dispatch_join(FIVE, small_array, pred, rec_name="r", arr_name="a",
                        stats=stats)
    assert stats.strategy == "mshj"
    assert len(out.rows) == 3


def test_dispatch_partial_or_non_equi_converts(pool, small_array):
    stats = JoinStats()
    pred = parse_predicate("r.v0 = a.d0")  # one dimension unbound
    dispatch_join(FIVE, small_array, pred, rec_name="r", arr_name="a",
                  stats=stats)
    assert stats.strategy == "convert"

    stats = JoinStats()
    pred = parse_predicate("r.v0 = a.d0 and r.v1 < a.d1")
    out = dispatch_join(FIVE, small_array, pred, rec_name="r", arr_name="a",
                        stats=stats)
    assert stats.strategy == "convert"
    oracle = [r + c[2:] for r in FIVE.rows
              for c in to_relation(small_array).rows
              if r[0] == c[0] and r[1] < c[1]]
    assert multiset(out.rows) == multiset(oracle)


def test_dispatch_forced_mshj_needs_full_binding(pool, small_array):
    pred = parse_predicate("r.v0 = a.d0")
    for strategy in ("mshj", "probe-only"):
        with pytest.raises(BindingError):
            dispatch_join(FIVE, small_array, pred, rec_name="r",
                          arr_name="a", strategy=strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_unknown_or_impossible_output_model_is_refused(pool, small_array,
                                                          strategy):
    pred = dims_pred(small_array, ("v0", "v1"))
    with pytest.raises(OutputSpecError, match="unknown output model 'bogus'"):
        dispatch_join(FIVE, small_array, pred, "bogus", strategy=strategy)
    docs = Collection("c", [{"v0": 5, "v1": 2}])
    for out in ("relational", "array"):
        with pytest.raises(OutputSpecError, match="DOCUMENT output only"):
            dispatch_join(docs, small_array, pred, out, strategy=strategy)


def test_match_binding_orders_by_dimension(pool, small_array):
    pred = parse_predicate("a.d1 = r.v1 and r.v0 = a.d0")  # swapped, reversed
    stats, trace = JoinStats(), JoinTrace()
    out = dispatch_join(FIVE, small_array, pred, rec_name="r", arr_name="a",
                        stats=stats, trace=trace)
    assert stats.strategy == "mshj"
    # v0 binds d0 and v1 binds d1: the worked example's cells and rows
    assert trace.ccs == [(5, 2), (7, 4), (5, 1), (2, 3), (3, 3)]
    assert len(out.rows) == 3
    dispatch_join(FIVE, small_array, parse_predicate("a.d0 = a.d1"),
                  rec_name="r", arr_name="a", stats=stats)
    assert stats.strategy == "convert"


# -------------------------------------------------------------- conversions

def test_to_array_single_row_and_round_trip(pool):
    rel = Relation([("x", UINT), ("y", UINT), ("v", FLOAT)], [(0, 0, 1.5)])
    meta = ArrayMeta(CellSchema(("x", "y"), ("v",), (FLOAT,)), (4, 4), (2, 2))
    arr = to_array(rel, ["x", "y"], ["v"], meta, pool)
    assert cells_of(arr) == {(0, 0): (1.5,)}
    back = to_relation(arr)
    assert multiset(back.rows) == multiset(rel.rows)
    assert back.schema == [("x", UINT), ("y", UINT), ("v", FLOAT)]


def test_to_array_full_grid(pool):
    rows = [(i, j, float(i * 4 + j)) for i in range(4) for j in range(4)]
    rel = Relation([("x", UINT), ("y", UINT), ("v", FLOAT)], rows)
    meta = ArrayMeta(CellSchema(("x", "y"), ("v",), (FLOAT,)), (4, 4), (2, 2))
    arr = to_array(rel, ["x", "y"], ["v"], meta, pool)
    assert arr.cell_count() == 16
    assert multiset(to_relation(arr).rows) == multiset(rows)


def test_to_array_errors(pool):
    meta = ArrayMeta(CellSchema(("x",), ("v",), (FLOAT,)), (4,), (2,))
    with pytest.raises(BoundsError):
        to_array(Relation([("x", INT), ("v", FLOAT)], [(9, 1.0)]),
                 ["x"], ["v"], meta, pool)
    with pytest.raises(DuplicateCellError):
        to_array(Relation([("x", INT), ("v", FLOAT)], [(1, 1.0), (1, 2.0)]),
                 ["x"], ["v"], meta, pool)
    with pytest.raises(BindingError):
        to_array(Relation([("x", INT), ("v", FLOAT)], [(-1, 1.0)]),
                 ["x"], ["v"], meta, pool)


def test_to_array_refuses_values_it_cannot_store(pool):
    """A null value or an int beyond int64 under an INT attribute is a
    binding error naming the first such kept record, for a relation and a
    collection alike; a null in a dropped record is no error."""
    big = 2 ** 63
    cases = [
        (Relation([("x", INT), ("v", INT)], [(0, 0), (1, big)]),
         f"row 1: value attribute 'v' must fit in a signed 64-bit integer, "
         f"got {big!r}"),
        (Collection("c", [{"x": 0, "v": 0}, {"x": 1, "v": big}]),
         f"document 1: value attribute 'v' must fit in a signed 64-bit "
         f"integer, got {big!r}"),
        (Collection("c", [{"x": 0, "v": 0}, {"x": 1, "v": -big - 1}]),
         f"document 1: value attribute 'v' must fit in a signed 64-bit "
         f"integer, got {-big - 1!r}"),
        (Relation([("x", INT), ("v", FLOAT)], [(0, 1.5), (1, None)]),
         "row 1 has a null value attribute 'v'"),
        (Relation([("x", INT), ("v", BOOL)], [(0, True), (1, None)]),
         "row 1 has a null value attribute 'v'"),
        (Collection("c", [{"x": 0, "v": True}, {"x": 1, "v": None}]),
         "document 1 has a null value attribute 'v'"),
        (Collection("c", [{"x": 0, "v": 1.5}, {"x": 1}, {"x": 2, "v": None}]),
         "document 1 has no value attribute 'v'"),
    ]
    for src, message in cases:
        with pytest.raises(BindingError) as err:
            to_array(src, ["x"], ["v"], None, pool)
        assert str(err.value) == message
    # a float column holds an int beyond int64 as a float
    arr = to_array(Collection("c", [{"x": 0, "v": 0.5}, {"x": 1, "v": big}]),
                   ["x"], ["v"], None, pool)
    assert cells_of(arr) == {(0,): (0.5,), (1,): (float(big),)}
    arr = to_array(Collection("c", [{"v": None}, {"x": 0, "v": 1}]),
                   ["x"], ["v"], None, pool)
    assert cells_of(arr) == {(0,): (1,)}


def test_to_array_membership_oracle(pool):
    rng = random.Random(3)
    coords = rng.sample([(i, j) for i in range(10) for j in range(8)], 30)
    rows = [c + (float(k), k % 2 == 0) for k, c in enumerate(coords)]
    rel = Relation([("i", UINT), ("j", UINT), ("v", FLOAT), ("ok", BOOL)], rows)
    meta = ArrayMeta(CellSchema(("i", "j"), ("v", "ok"),
                                (FLOAT, BOOL)), (10, 8), (3, 3), "coo")
    arr = to_array(rel, ["i", "j"], ["v", "ok"], meta, pool)
    got = cells_of(arr)
    assert got == {c: (float(k), k % 2 == 0) for k, c in enumerate(coords)}


def test_to_array_inferred_meta(pool):
    rel = Relation([("x", UINT), ("y", UINT), ("v", INT), ("ok", BOOL)],
                   [(0, 6, 1, True), (2, 1, 2, False)])
    arr = to_array(rel, ["x", "y"], ["v", "ok"], None, pool, default_tile=4)
    # each cell alone in a 3x4 tile: 2 x 12 x (1 + 8 + 1) = 240 bytes dense,
    # 2 x (8 + 4 x 8) + 2 x (8 + 8 + 1) = 114 as csr
    assert arr.meta == ArrayMeta(CellSchema(("x", "y"), ("v", "ok"),
                                            (INT, BOOL)), (3, 7), (3, 4), "csr")
    assert cells_of(arr) == {(0, 6): (1, True), (2, 1): (2, False)}
    # no record becomes a cell: a 1-cell extent, typed FLOAT, left empty
    docs = Collection("c", [{"x": 1, "v": 2}, {"y": 2, "v": "a"}])
    empty = to_array(docs, ["x", "y"], ["v"], None, pool)
    assert (empty.meta.size, empty.meta.schema.attr_types) == ((1, 1),
                                                               (FLOAT,))
    assert empty.meta.layout == "dense"  # 0 bytes either way: a tie
    assert empty.cell_count() == 0


def test_to_relation_empty_array(pool):
    meta = ArrayMeta(CellSchema(("x", "y"), ("v",), (FLOAT,)), (4, 4), (2, 2))
    arr = ArrayBuilder(meta, pool).finish()
    rel = to_relation(arr)
    assert rel.rows == []
    assert rel.schema == [("x", UINT), ("y", UINT), ("v", FLOAT)]


def test_to_relation_is_tile_major(pool):
    cells = {(0, 0): (1.0,), (0, 3): (2.0,), (3, 0): (3.0,), (3, 3): (4.0,)}
    arr = build_array(pool, (4, 4), (2, 2), cells)
    rel = to_relation(arr)
    assert [r[:2] for r in rel.rows] == [(0, 0), (0, 3), (3, 0), (3, 3)]
