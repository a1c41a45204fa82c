"""Engine-managed lifetimes: intermediates are freed after their last
consumer, pins are released on error, and spill files do not outlive a run."""

from __future__ import annotations

import os
import weakref
from collections import Counter

import pytest

from multimodel import Engine, EngineConfig
from multimodel.array_store import StoredArray, Tile
from multimodel.buffer_pool import BufferPool
from multimodel.executor import Catalog, format_result

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")
with open(os.path.join(DATA, "recommend.m2s"), encoding="utf-8") as _f:
    RECOMMEND = _f.read()

# 4x4 tiles through a 4 KiB pool: hundreds of evictions, dirty intermediates spill
TIGHT = dict(buffer_bytes=4 << 10, default_tile=4)

# the recommender's transposes all fold into matmuls; this one has no
# matmul to fold into, so it runs: 30 tiles of rand, then 30 of transpose
TRANSPOSE = "execute(rand({24, 20}).T)\n"


def engine(spool, **kw) -> Engine:
    return Engine(EngineConfig(data_dir=DATA, seed=11, spool_dir=str(spool),
                               **kw))


def test_tight_pool_leaves_no_spill_file_and_matches_roomy_pool(tmp_path):
    roomy = engine(tmp_path / "roomy", default_tile=4).run(RECOMMEND)
    eng = engine(tmp_path / "tight", **TIGHT)
    tight = eng.run(RECOMMEND)
    assert eng.pool.stats().evictions > 100
    assert os.path.isdir(tmp_path / "tight")  # intermediates did spill
    assert os.listdir(tmp_path / "tight") == []
    assert tight.schema == roomy.schema and tight.rows == roomy.rows
    assert eng.pool.stats().resident_bytes == 0  # the result is a relation


def test_recommend_is_bit_identical_under_every_pool_capacity(
        tmp_path, monkeypatch):
    """From a pool with room for the largest tile up: partition order and
    pool capacity change where results live, never what they are."""
    sizes = []
    add = BufferPool.add

    def sized_add(self, obj):
        sizes.append(obj.size)
        add(self, obj)

    monkeypatch.setattr(BufferPool, "add", sized_add)
    engine(tmp_path / "sizing", default_tile=4).run(RECOMMEND)
    one = max(sizes)
    results = []
    for capacity in (one, 2 * one, 5 * one, 4 << 10, 64 << 10, 1 << 30):
        res = engine(tmp_path / str(capacity), default_tile=4,
                     buffer_bytes=capacity).run(RECOMMEND)
        results.append((res.schema, repr(res.rows)))
    assert len(results[0][1]) > 2
    assert results == [results[-1]] * len(results)


@pytest.fixture
def node_outputs(monkeypatch):
    """Every value an array or inter-model node returns, in run order, and
    the number of release() calls per array."""
    outputs: list = []
    released: Counter = Counter()
    for name in ("_array_node", "_bridge_node"):
        orig = getattr(Engine, name)

        def spy(self, n, reg, _orig=orig, **kw):
            out = _orig(self, n, reg, **kw)
            outputs.append(out)
            return out

        monkeypatch.setattr(Engine, name, spy)
    release = StoredArray.release

    def counting_release(self):
        released[id(self)] += 1
        release(self)

    monkeypatch.setattr(StoredArray, "release", counting_release)
    return outputs, released


def test_every_intermediate_is_freed_once_and_the_target_never(
        tmp_path, node_outputs):
    outputs, released = node_outputs
    script = ("a, b = rand({6, 4}), rand({4, 5})\n"
              "c = a @ b\n"
              "d = c + c\n"
              "execute(d.T)\n")
    res = engine(tmp_path, default_tile=2).run(script)
    assert [type(v) for v in outputs] == [StoredArray] * 5
    assert outputs[-1] is res
    assert [released[id(v)] for v in outputs] == [1, 1, 1, 1, 0]
    assert res.cell_count() == 30  # the target keeps its tiles


def test_pipeline_frees_every_array_it_made(tmp_path, node_outputs):
    outputs, released = node_outputs
    eng = engine(tmp_path, default_tile=4)
    eng.run(RECOMMEND)
    arrays = [v for v in outputs if isinstance(v, StoredArray)]
    assert len(arrays) > 10
    assert all(released[id(a)] == 1 for a in arrays)
    assert eng.pool.stats().resident_bytes == 0


# the operator each injected failure below must hit, and the join strategy
# that routes the run through it
FAILS_INSIDE = {
    ("lookup", 1): ("_probe", "auto", RECOMMEND),  # the mshj probe (one stage)
    ("to_scratch", 5): ("transpose", "auto", TRANSPOSE),  # one tile pinned
    ("to_scratch", 17): ("matmul", "auto", RECOMMEND),    # two tiles pinned
    ("cells", 4): ("to_relation", "convert", RECOMMEND),  # the conversion scan
}


@pytest.mark.parametrize("method, nth", list(FAILS_INSIDE))
def test_pins_are_released_when_a_run_fails(tmp_path, monkeypatch,
                                            method, nth):
    arrays: list = []
    init = StoredArray.__init__

    def track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        arrays.append(self)

    calls = Counter()
    orig = getattr(Tile, method)

    def fail_on_nth(self, *args, **kwargs):
        calls[method] += 1
        if calls[method] == nth:
            raise RuntimeError(f"injected failure in Tile.{method}")
        return orig(self, *args, **kwargs)

    inside, strategy, script = FAILS_INSIDE[method, nth]
    monkeypatch.setattr(StoredArray, "__init__", track)
    monkeypatch.setattr(Tile, method, fail_on_nth)
    with pytest.raises(RuntimeError, match="injected") as failure:
        engine(tmp_path, strategy=strategy, **TIGHT).run(script)
    assert inside in [e.name for e in failure.traceback]
    assert arrays
    for arr in arrays:
        assert all(n == 0 for n in arr.active_pins.values()), arr.name


def test_failed_run_deletes_the_spill_files_of_its_arrays(tmp_path,
                                                         monkeypatch):
    def fail(self, cc):
        raise RuntimeError("injected failure in the join probe")

    monkeypatch.setattr(Tile, "lookup", fail)
    with pytest.raises(RuntimeError, match="injected"):
        engine(tmp_path, **TIGHT).run(RECOMMEND)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("nth, inside", [
    (20, "finish"),      # toArray's ArrayBuilder
    (47, "rand"),
    (59, "transpose"),   # in TRANSPOSE, not the recommender
    (86, "matmul"),
    (150, "ewise"),
])
def test_operator_failing_mid_build_deletes_its_partial_spill(
        tmp_path, monkeypatch, nth, inside):
    """The array an operator is still building is not registered with the
    run yet, so the operator itself frees it.  ``nth`` counts write_tile
    calls in the run; each is the last or next to last one its operator
    makes there."""
    calls = Counter()
    write_tile = StoredArray.write_tile

    def fail_on_nth(self, tc, tile):
        calls["write_tile"] += 1
        if calls["write_tile"] == nth:
            raise RuntimeError("injected failure in StoredArray.write_tile")
        write_tile(self, tc, tile)

    monkeypatch.setattr(StoredArray, "write_tile", fail_on_nth)
    eng = engine(tmp_path, **TIGHT)
    with pytest.raises(RuntimeError, match="injected") as failure:
        eng.run(TRANSPOSE if inside == "transpose" else RECOMMEND)
    assert inside in [e.name for e in failure.traceback]
    assert os.listdir(tmp_path) == []
    assert eng.pool.stats().resident_bytes == 0  # unspilled tiles freed too


def test_rerun_after_ingest_reads_the_new_data(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("k,v\n1,10\n2,20\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path / "cat")))
    eng.catalog.ingest("csv", str(src), "t")
    script = "execute(openTable('t').sort('k'))"
    assert eng.run(script).rows == [(1, 10), (2, 20)]
    src.write_text("k,v\n7,70\n")
    eng.catalog.ingest("csv", str(src), "t")
    assert eng.run(script).rows == [(7, 70)]


def test_each_dataset_is_loaded_once_per_run(tmp_path, monkeypatch):
    (tmp_path / "t.csv").write_text("r,c,v\n0,0,1.5\n1,1,2.5\n")
    loads = Counter()
    load_table = Catalog.load_table

    def counting(self, name):
        loads[name] += 1
        return load_table(self, name)

    monkeypatch.setattr(Catalog, "load_table", counting)
    # the table's one scan is read by the conversion and again by the join,
    # which runs after the array partition in between
    script = ("a = openTable('t').toArray({'r', 'c'}, {'v'})\n"
              "b = a + a\n"
              "execute(b.join(openTable('t'), 't.r = b.r AND t.c = b.c', "
              "RELATIONAL))\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    first = eng.run(script)
    assert loads["t"] == 1 and len(first.rows) == 2
    eng.run(script)
    assert loads["t"] == 2  # a new run loads again


def test_join_stats_hold_the_last_run_only(tmp_path):
    (tmp_path / "t.csv").write_text("r,c,v\n0,0,1.5\n1,1,2.5\n")
    script = ("a = openTable('t').toArray({'r', 'c'}, {'v'})\n"
              "execute(a.join(openTable('t'), 't.r = a.r AND t.c = a.c', "
              "RELATIONAL))\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    for _ in range(3):
        assert len(eng.run(script).rows) == 2
        assert len(eng.join_stats) == 1


def test_dataset_is_freed_after_the_last_partition_that_scans_it(
        tmp_path, monkeypatch):
    loaded = {}
    load_collection = Catalog.load_collection

    def keep_ref(self, name):
        col = load_collection(self, name)
        loaded[name] = weakref.ref(col)
        return col

    alive_at_conversion = {}
    bridge_node = Engine._bridge_node

    def check(self, n, reg):
        if n.op == "to_array":  # the ratings partition has run
            alive_at_conversion.update(
                (name, ref() is not None) for name, ref in loaded.items())
        return bridge_node(self, n, reg)

    monkeypatch.setattr(Catalog, "load_collection", keep_ref)
    monkeypatch.setattr(Engine, "_bridge_node", check)
    engine(tmp_path, default_tile=4).run(RECOMMEND)
    assert alive_at_conversion == {"review": False, "order": False}


def test_a_table_opened_twice_is_one_scan_loaded_once(tmp_path, monkeypatch):
    (tmp_path / "t.csv").write_text("k,v\n1,10\n2,20\n1,30\n")
    loads = Counter()
    load_table = Catalog.load_table

    def counting(self, name):
        loads[name] += 1
        return load_table(self, name)

    monkeypatch.setattr(Catalog, "load_table", counting)
    script = "execute(openTable('t').join(openTable('t'), 't.k = t.k'))\n"
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    doc = eng.explain(script)
    for plan in (doc, doc["bound"]):
        assert [n["op"] for n in plan["nodes"]].count("scan") == 1
    assert format_result(eng.run(script)) == (
        "t.k,t.v,t.k#1,t.v#1\n1,10,1,10\n1,10,1,30\n2,20,2,20\n"
        "1,30,1,10\n1,30,1,30\n")
    assert loads["t"] == 1


def test_an_array_opened_twice_is_one_stored_array(tmp_path, monkeypatch):
    (tmp_path / "cells.csv").write_text("r,c,v\n0,1,4\n1,0,9\n")
    Catalog(str(tmp_path)).ingest("coo", str(tmp_path / "cells.csv"),
                                  "cells", size=(2, 2), tile=(1, 1))
    made = []
    load = StoredArray.load

    def counting(cls, *args, **kw):
        made.append(load(*args, **kw))
        return made[-1]

    monkeypatch.setattr(StoredArray, "load", classmethod(counting))
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    res = eng.run("a = openArray('cells')\nb = openArray('cells')\n"
                  "execute(a + b)\n")
    assert len(made) == 1
    assert format_result(res) == "r,c,v\n0,1,8\n1,0,18\n"
