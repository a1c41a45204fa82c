"""Demand-driven array tiles: a matmul whose one reader is a record–array
join computes only the tiles the join probes, once the join's records have
run.  Results, errors and the partitions that raise them are those of the
run that computes every tile, under every strategy, tiling and pool
capacity; a matmul with another reader, or that is the target, computes
every tile."""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import Engine, EngineConfig, array_engine
from multimodel.buffer_pool import BufferPool
from multimodel.errors import BindingError, EngineError
from multimodel.planner import LogicalPlan, partition
from multimodel.predicates import parse_predicate

UNBOUNDED = 1 << 30
STRATEGIES = ("auto", "mshj", "probe-only", "convert")


def _values(arr, tc) -> np.ndarray:
    with arr.pinned(tc) as tile:
        return tile.to_scratch()[1][0]


@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("tile", [1, 2, 3, 5, 7])
def test_matmul_computes_only_the_demanded_tiles(tile, transpose_b):
    pool = BufferPool(UNBOUNDED)
    a = array_engine.rand((7, 5), (tile, tile), 1, pool)
    b = array_engine.rand((6, 5) if transpose_b else (5, 6), (tile, tile), 2,
                          pool)
    full = array_engine.matmul(a, b, transpose_b=transpose_b)
    n = int(np.prod(full.meta.grid))
    rng = np.random.default_rng(tile)
    for tiles in ([], [0], [n - 1], rng.choice(n, (n + 1) // 2, False),
                  range(n)):
        part = array_engine.matmul(a, b, transpose_b=transpose_b,
                                   tiles=tiles)
        assert part.meta == full.meta
        want = [tuple(int(c) for c in np.unravel_index(t, full.meta.grid))
                for t in sorted(set(tiles))]
        assert part.tile_coords() == want
        for tc in want:
            got, exp = _values(part, tc), _values(full, tc)
            assert got.tobytes() == exp.tobytes()
        part.release()


# ------------------------------------------------ scripts joining W @ H

def _matmul_spy():
    """A patch recording, per matmul, (tiles asked for, tiles computed,
    tiles in its grid)."""
    calls = []
    matmul = array_engine.matmul

    def spy(*args, **kw):
        out = matmul(*args, **kw)
        calls.append((kw.get("tiles"), len(out.tile_coords()),
                      int(np.prod(out.meta.grid))))
        return out

    return calls, mock.patch.object(array_engine, "matmul", spy)


def _eager():
    """A patch under which no matmul is given a tile demand."""
    return mock.patch.object(Engine, "_tile_demand", lambda *a: None)


def _outcome(eng: Engine, text: str):
    """The result of a run, or its error's type, message and partition."""
    try:
        res = eng.run(text)
    except EngineError as e:
        return (type(e), str(e), e.partition)
    return ("ok", type(res), getattr(res, "schema", None),
            repr(res.rows) if hasattr(res, "rows") else repr(res.docs))


def _rows(res) -> Counter:
    return Counter(map(repr, res.rows if hasattr(res, "rows") else
                       [sorted(d.items()) for d in res.docs]))


VALUES = [0, 1, 2, 3, 4, 5, 6, 9, -1, None, 1.5, "x", True]


def _csv_cell(v) -> str:
    return "" if v is None else "true" if v is True else str(v)


@st.composite
def demand_cases(draw):
    """(script, records, model): W @ H, H read transposed or not, joined
    to records on both of its dimensions, the records scanned or, from a
    partition after the matmul's, themselves the output of a join."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    model = draw(st.sampled_from(["relational", "document"]))
    pos = st.integers(0, 7)  # past the extent now and then
    bound = st.sampled_from(VALUES) if draw(st.integers(0, 3)) == 0 else pos
    records = [{"a": draw(bound), "b": draw(bound), "c": i}
               for i in range(draw(st.integers(0, 10)))]
    if model == "document":  # absent paths
        records = [{key: v for key, v in r.items()
                    if draw(st.integers(0, 4))} for r in records]
    h = f"rand({{{n}, {k}}}).T" if draw(st.booleans()) \
        else f"rand({{{k}, {n}}})"
    out = "DOCUMENT" if model == "document" else "RELATIONAL"
    opener = "openTable" if model == "relational" else "openCollection"
    lines = [f"r = {opener}('r')", f"W, H = rand({{{m}, {k}}}), {h}",
             "filled = W @ H"]
    if draw(st.booleans()):  # records from a later partition
        lines += [f"g = rand({{{m}, {n}}})",
                  f"r = g.join(r, 'r.a = g.dim0 AND r.b = g.dim1', {out})"]
    pred = draw(st.sampled_from([
        "r.a = filled.dim0 AND r.b = filled.dim1",
        "filled.dim1 = r.b AND filled.dim0 = r.a"]))
    lines.append(f"execute(filled.join(r, '{pred}', {out}))")
    return "\n".join(lines) + "\n", records, model, max(m, k, n)


def _write(path, records, model) -> None:
    if model == "relational":
        with open(os.path.join(path, "r.csv"), "w") as f:
            f.write("a,b,c\n" + "".join(
                ",".join(_csv_cell(r[key]) for key in "abc") + "\n"
                for r in records))
    else:
        with open(os.path.join(path, "r.jsonl"), "w") as f:
            f.write("".join(json.dumps(r) + "\n" for r in records))


def _largest_tile(config: EngineConfig, text: str) -> int:
    """The largest tile a run that computes every tile puts in the pool."""
    sizes = []
    add = BufferPool.add

    def sized_add(self, obj):
        sizes.append(obj.size)
        add(self, obj)

    with mock.patch.object(BufferPool, "add", sized_add), _eager():
        try:
            Engine(config).run(text)
        except EngineError:
            pass  # after every array was made
    return max(sizes)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(demand_cases(), st.data())
def test_demanded_tiles_give_the_results_and_errors_of_every_tile(case, data):
    text, records, model, extent = case
    with tempfile.TemporaryDirectory() as path:
        _write(path, records, model)
        tile = data.draw(st.integers(1, extent), label="tile")
        config = EngineConfig(data_dir=path, default_tile=tile,
                              spool_dir=os.path.join(path, "spool"),
                              buffer_bytes=UNBOUNDED)
        one = _largest_tile(config, text)
        config.buffer_bytes = data.draw(st.sampled_from(
            [one, 2 * one, 5 * one, UNBOUNDED]), label="capacity")
        got = {}
        for strategy in STRATEGIES:
            config.strategy = strategy
            calls, spy = _matmul_spy()
            with spy:
                got[strategy] = _outcome(Engine(config), text)
            with _eager():
                assert _outcome(Engine(config), text) == got[strategy], \
                    (text, strategy)
            (tiles, computed, grid), = calls
            if tiles is None:
                assert computed == grid
            else:
                assert strategy != "convert" and "g = rand" not in text
                assert computed == len(tiles) <= grid
        spool = os.path.join(path, "spool")
        assert not os.path.isdir(spool) or os.listdir(spool) == []
        # where mshj and convert both succeed, they keep the same rows
        config.strategy = "convert"
        if got["convert"][0] == "ok":
            want = Engine(config).run(text)
            for strategy in ("mshj", "probe-only"):
                if got[strategy][0] == "ok":
                    config.strategy = strategy
                    assert _rows(Engine(config).run(text)) == _rows(want)


# ------------------------------------------------------------ fixed cases

JOIN = ("r = openTable('r')\nW, H = rand({6, 2}), rand({2, 4})\n"
        "filled = W @ H\n"
        "execute(filled.join(r, 'r.a = filled.dim0 AND r.b = filled.dim1', "
        "RELATIONAL))\n")


@pytest.mark.parametrize("strategy", ["auto", "mshj", "probe-only"])
@pytest.mark.parametrize("rows, message", [
    ("1,2\n-1,0\n", "row 1: dimension attribute 'a' must be a non-negative "
                    "integer, got -1"),
    ("1,2\n3,\n", "row 1: dimension attribute 'b' must be a non-negative "
                  "integer, got None")])
def test_a_bad_record_fails_the_join_as_before(tmp_path, strategy, rows,
                                               message):
    (tmp_path / "r.csv").write_text("a,b\n" + rows)
    config = EngineConfig(data_dir=str(tmp_path), default_tile=2,
                          strategy=strategy)
    calls, spy = _matmul_spy()
    with spy, pytest.raises(BindingError) as demand:
        Engine(config).run(JOIN)
    assert [c[0] for c in calls] == [None]  # extraction failed: no demand
    with _eager(), pytest.raises(BindingError) as eager:
        Engine(config).run(JOIN)
    assert str(demand.value) == str(eager.value) == message
    assert demand.value.partition == eager.value.partition
    eng = Engine(config)
    plan, _ = eng.plan_script(JOIN)
    ops = [plan.node(i).op for i in
           partition(plan).partitions[demand.value.partition].node_ids]
    assert ops == ["join_rel_array"]


def test_the_join_computes_the_tiles_its_records_fall_in(tmp_path):
    (tmp_path / "r.csv").write_text("a,b\n5,3\n0,0\n5,2\n9,9\n")
    calls, spy = _matmul_spy()
    with spy:
        res = Engine(EngineConfig(data_dir=str(tmp_path),
                                  default_tile=2)).run(JOIN)
    assert len(res) == 3
    # (0, 0) in tile 0; (5, 2) and (5, 3) in tile (2, 1); (9, 9) outside
    (tiles, computed, grid), = calls
    assert list(tiles) == [0, 5] and (computed, grid) == (2, 6)


def _plan(second_reader: bool):
    """scan r joined to rand @ rand; a second reader of the matmul, an
    element-wise sum, when asked.  Returns (plan, join id, matmul id)."""
    plan = LogicalPlan()
    rec = plan.add("scan", "relational", name="r", qualifier="r")
    w = plan.add("rand", "array", size=[6, 2], seed=1)
    h = plan.add("rand", "array", size=[2, 4], seed=2)
    mm = plan.add("matmul", "array", [w, h])
    join = plan.add("join_rel_array", "inter-model", [rec, mm],
                    pred=parse_predicate(
                        "r.a = filled.dim0 AND r.b = filled.dim1"),
                    rec_name="r", arr_name="filled", out_model="relational")
    if second_reader:
        plan.add("ewise", "array", [mm, mm], fn="+")
    return plan, join.id, mm.id


@pytest.mark.parametrize("second_reader, target", [
    (True, "join"), (False, "matmul")])
def test_a_matmul_with_another_reader_or_that_is_the_target_computes_all(
        tmp_path, second_reader, target):
    (tmp_path / "r.csv").write_text("a,b\n0,0\n")
    plan, join, mm = _plan(second_reader)
    eng = Engine(EngineConfig(data_dir=str(tmp_path), default_tile=2))
    calls, spy = _matmul_spy()
    with spy:
        eng.run_plan(plan, join if target == "join" else mm)
    assert calls == [(None, 6, 6)]
    assert len(eng.join_stats) == 1  # the join did run


def test_the_join_alone_reading_the_matmul_gets_a_demand(tmp_path):
    (tmp_path / "r.csv").write_text("a,b\n0,0\n")
    plan, join, _ = _plan(False)
    calls, spy = _matmul_spy()
    with spy:
        Engine(EngineConfig(data_dir=str(tmp_path),
                            default_tile=2)).run_plan(plan, join)
    assert [(list(t), c, g) for t, c, g in calls] == [([0], 1, 6)]
