"""Filters pushed below record–array joins (``planner.rewrite``).

A conjunct that compares, by ``=`` or ``!=``, attributes the join binds
moves onto the join's records.  The plan that runs must then raise only
where the plan as bound raises, and where that one succeeds give the same
rows, order and schema.  Where both raise, they raise the same error,
unless the moved filter drops the records the join failed on and an
operator reading the join fails instead."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import Engine, EngineConfig
from multimodel.executor import format_result
from multimodel.array_store import ArrayBuilder
from multimodel.buffer_pool import BufferPool
from multimodel.errors import BindingError, EngineError, PlanError
from multimodel.models import INT, ArrayMeta, CellSchema, Relation
from multimodel.planner import LogicalPlan, partition, rewrite
from multimodel.predicates import format_predicate, parse_predicate
from multimodel.script import bind_script

from test_script import write_names_catalog

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")
with open(os.path.join(DATA, "recommend.m2s"), encoding="utf-8") as _f:
    RECOMMEND = _f.read()

JOIN = "interest.cid = filled.cid AND interest.pid = filled.pid"


def _join_plan(filters, *, pred=JOIN, out="relational", rec_op="scan"):
    """scan interest (through ``rec_op``) joined to a rand array, then the
    filters in turn; returns (plan, the last node's id).  Predicates are
    given as text and parsed, as the binder parses them."""
    plan = LogicalPlan()
    rec = plan.add("scan", "relational", name="interest",
                   qualifier="interest")
    if rec_op == "join":
        other = plan.add("scan", "relational", name="x", qualifier="x")
        rec = plan.add("join", "relational", [rec, other],
                       pred=parse_predicate("interest.cid = x.cid"))
    arr = plan.add("rand", "array", size=[4, 4], seed=0)
    top = plan.add("join_rel_array", "inter-model", [rec, arr],
                   pred=parse_predicate(pred),
                   rec_name="interest", arr_name="filled", out_model=out)
    for f in filters:
        top = plan.add("filter", out, [top], pred=parse_predicate(f))
    return plan, top.id


def _filters(plan):
    """(pred as text, op of its input) of each filter, in plan order."""
    return [(format_predicate(n.params["pred"]), plan.node(n.inputs[0]).op)
            for n in plan.nodes if n.op == "filter"]


def test_bound_equalities_move_below_the_join_and_the_rest_stay():
    plan, target = rewrite(*_join_plan(
        ["rating > 0.5 AND cid = 3 AND NOT (pid = 2 OR pid != cid)"]))
    assert _filters(plan) == [
        ("cid = 3 AND (NOT (pid = 2 OR pid != cid))", "scan"),
        ("rating > 0.5", "join_rel_array")]
    assert plan.node(target).op == "filter"


@pytest.mark.parametrize("pred", [
    "interest.cid = 3",  # the plan does not know the records' qualifiers
    "cid < 3",           # an order comparison may raise on a dropped record
    "cid = rating",      # rating is the array's
    "cid = 3 OR rating = 1",
])
def test_other_conjuncts_stay_above_the_join(pred):
    bound = _join_plan([pred])
    assert rewrite(*bound)[0].nodes == bound[0].nodes


@pytest.mark.parametrize("kw", [
    {"pred": "cid = filled.cid AND interest.pid = filled.pid"},
    {"out": "array"},
    {"rec_op": "join"},  # a bare name may be ambiguous inside the tree
])
def test_only_attributes_the_join_binds_by_name_move(kw):
    bound = _join_plan(["cid = 3 AND pid = 1"], **kw)
    moved = [p for p, op in _filters(rewrite(*bound)[0])
             if op != "join_rel_array"]
    assert moved == (["pid = 1"] if "pred" in kw else [])


def test_a_join_with_other_readers_or_that_is_the_target_keeps_its_filter():
    plan, f = _join_plan(["cid = 3"])
    join = plan.node(f).inputs[0]
    assert rewrite(plan, join)[0].nodes == plan.nodes
    plan.add("filter", "relational", [join], pred=parse_predicate("pid = 1"))
    assert rewrite(plan, f)[0].nodes == plan.nodes


def test_only_the_filter_directly_above_the_join_moves():
    plan, target = rewrite(*_join_plan(["cid = 3 AND rating > 0", "pid = 2"]))
    assert _filters(plan) == [("cid = 3", "scan"),
                              ("rating > 0", "join_rel_array"),
                              ("pid = 2", "filter")]
    plan, target = rewrite(*_join_plan(["cid = 3", "pid = 2"]))
    assert _filters(plan) == [("cid = 3", "scan"),
                              ("pid = 2", "join_rel_array")]
    assert plan.node(target).params["pred"] == parse_predicate("pid = 2")


@pytest.mark.parametrize("model", ["RELATIONAL", "DOCUMENT"])
def test_a_target_filter_that_moved_whole_leaves_its_join_the_target(
        tmp_path, model):
    plan, target = rewrite(*_join_plan(["cid = 3"], out=model.lower()))
    assert _filters(plan) == [("cid = 3", "scan")]
    assert plan.node(target).op == "join_rel_array"

    write_names_catalog(tmp_path)
    script = ("t, cells = openTable('t'), openArray('cells')\n"
              "execute(cells.join(t, 't.r = cells.r AND t.c = cells.c', "
              f"{model}).filter('r = 0'))\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    doc = eng.explain(script)
    assert [n["op"] for n in doc["nodes"] if n["id"] == doc["target"]] == [
        "join_rel_array"]
    got = format_result(eng.run(script))
    assert got and got == format_result(
        eng.run_plan(*bind_script(script, eng.catalog, eng.config)))


def test_a_filter_moves_onto_records_that_are_a_filtered_sorted_scan(
        tmp_path):
    """Filters and sorts lead from the join's records to a scan, so a bare
    name reads them as it reads the join's output, and the bound equality
    moves onto them."""
    write_names_catalog(tmp_path)
    script = ("t, cells = openTable('t'), openArray('cells')\n"
              "s = t.filter('w != 4').sort('w DESC')\n"
              "execute(cells.join(s, 's.r = cells.r AND s.c = cells.c', "
              "RELATIONAL).filter('c = 1 AND v > 1'))\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    assert _filters(eng.plan_script(script)[0]) == [
        ("w != 4", "scan"), ("c = 1", "sort"), ("v > 1", "join_rel_array")]
    got = eng.run(script)
    want = eng.run_plan(*bind_script(script, eng.catalog, eng.config))
    assert got.rows == [(0, 1, 5, 3.5)]
    _same(got, want)


def test_explain_shows_the_filter_above_the_join_as_bound_and_below_as_run():
    doc = Engine(EngineConfig(data_dir=DATA)).explain(RECOMMEND)

    def reader_of_filter(nodes):
        by_id = {n["id"]: n for n in nodes}
        (f,) = [n for n in nodes if n["op"] == "filter"]
        assert f["params"]["pred"] == "cid = 3"
        return by_id[f["inputs"][0]]["op"]

    assert reader_of_filter(doc["bound"]["nodes"]) == "join_rel_array"
    assert reader_of_filter(doc["nodes"]) == "scan"
    json.dumps(doc)  # still a JSON document


def test_recommend_probes_only_the_filtered_interests():
    eng = Engine(EngineConfig(data_dir=DATA, default_tile=4))
    got = eng.run(RECOMMEND)
    with open(os.path.join(DATA, "interest.csv"), encoding="utf-8") as f:
        n = sum(line.startswith("3,") for line in f)
    assert [(s.n_records, s.output_rows) for s in eng.join_stats] == [(n, n)]
    want = eng.run_plan(*bind_script(RECOMMEND, eng.catalog, eng.config))
    assert eng.join_stats[0].n_records > n
    # the plan as bound also keeps its matmul order: floats within rounding
    assert got.schema == want.schema
    assert [r[:2] for r in got.rows] == [r[:2] for r in want.rows]
    np.testing.assert_allclose([r[2] for r in got.rows],
                               [r[2] for r in want.rows], rtol=1e-12)


def test_a_relation_lacking_a_bound_attribute_fails_at_the_moved_filter(
        tmp_path):
    """The one place the error differs: mshj names the missing attribute
    with a BindingError, which the moved filter preempts with a PlanError;
    both runs fail."""
    (tmp_path / "r.csv").write_text("a\n1\n")
    _write_array(tmp_path, (2, 2), [(1, 1)], [5], (1, 1))
    text = ("r = openTable('r')\narr = openArray('arr')\n"
            "execute(arr.join(r, 'r.a = arr.i AND r.b = arr.j', RELATIONAL)"
            ".filter('b = 1'))\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    with pytest.raises(BindingError):
        eng.run_plan(*bind_script(text, eng.catalog, eng.config))
    with pytest.raises(PlanError):
        eng.run(text)


QUALIFIED = ("t = openTable('r')\narr = openArray('arr')\n"
             "execute(arr.join(t, 't.a = arr.i AND t.b = arr.j', RELATIONAL)"
             "{})\n")


def test_a_column_named_like_a_qualified_bound_reference_is_not_read(
        tmp_path):
    """``t.a`` in the join predicate is t's own ``a`` under every strategy:
    a relation with a column literally named ``t.a`` and no ``a`` fails the
    join as bound, under convert too, where the relational join would read
    that column; the rewritten plan fails at the moved filter."""
    (tmp_path / "r.csv").write_text("t.a,t.b\n1,1\n")
    _write_array(tmp_path, (2, 2), [(1, 1)], [5], (1, 1), attr="a")
    text = QUALIFIED.format(".filter('a = 5')")
    for strategy in ("auto", "mshj", "probe-only", "convert"):
        eng = Engine(EngineConfig(data_dir=str(tmp_path), strategy=strategy))
        with pytest.raises(BindingError,
                           match="relation has no attribute 'a'"):
            eng.run_plan(*bind_script(text, eng.catalog, eng.config))
        with pytest.raises(PlanError):
            eng.run(text)


@pytest.mark.parametrize("csv, rows", [
    ("t.a,t.b\n1,1\n", None), ("t.a,b,a\n0,1,1\n", [(0, 1, 1, 5)])])
def test_every_strategy_reads_the_qualified_bound_reference_alike(
        tmp_path, csv, rows):
    """The record's own ``a``, never the column ``t.a``: each strategy
    fails alike without one, and joins on it alike with one."""
    (tmp_path / "r.csv").write_text(csv)
    _write_array(tmp_path, (2, 2), [(1, 1)], [5], (1, 1), attr="v")
    got = []
    for strategy in ("auto", "mshj", "probe-only", "convert"):
        eng = Engine(EngineConfig(data_dir=str(tmp_path), strategy=strategy))
        try:
            res = eng.run(QUALIFIED.format(""))
            got.append((res.schema, res.rows))
        except EngineError as e:
            got.append((type(e), str(e)))
    assert got == [got[0]] * 4
    if rows is None:
        assert got[0] == (BindingError, "relation has no attribute 'a'")
    else:
        assert got[0][1] == rows


# ------------------------------------------ agreement over generated joins

VALUES = [0, 1, 2, 3, -1, None, 1.5, "x", True]
LITERALS = ["0", "1", "2", "0", "1", "-1", "null", "1.5", '"x"', "true"]


def _write_array(path, size, coords, values, tile, attr="v") -> None:
    meta = ArrayMeta(CellSchema(("i", "j"), (attr,), (INT,)), size, tile)
    b = ArrayBuilder(meta, BufferPool(1 << 30))
    b.add_cells(np.array(coords, dtype=np.int64).reshape(-1, 2),
                [np.array(values, dtype=np.int64)])
    b.finish().save(os.path.join(path, "arr.m2ar"))


def _csv_cell(v) -> str:
    return "" if v is None else "true" if v is True else str(v)


@st.composite
def join_cases(draw):
    """(catalog writer returning the script): records, as a relation or a
    collection, joined on two bound attributes to a small stored array and
    filtered by a drawn predicate."""
    model = draw(st.sampled_from(["relational", "document"]))
    a, b = draw(st.sampled_from([("a", "b"), ("i", "j"), ("v", "b")]))
    c = draw(st.sampled_from(["c", "v"])) if a != "v" else "c"
    keys = [a, b, c]
    n = draw(st.integers(0, 8))
    # a bound attribute holds coordinates, or in a few datasets anything
    bound = st.sampled_from(VALUES) if draw(st.integers(0, 3)) == 0 \
        else st.integers(0, 3)
    records = [{k: draw(bound if k != c else st.sampled_from(VALUES))
                for k in keys} for _ in range(n)]
    if model == "document":  # absent paths
        records = [{k: v for k, v in r.items() if draw(st.booleans()) or
                    draw(st.booleans())} for r in records]
    size = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    tile = (draw(st.integers(1, size[0])), draw(st.integers(1, size[1])))
    cells = [(i, j) for i in range(size[0]) for j in range(size[1])
             if draw(st.integers(0, 3))]  # absent cells: a quarter
    values = [draw(st.integers(0, 3)) for _ in cells]

    rec = draw(st.sampled_from(["r", "t"]))  # t: not the dataset's name
    sides = [(f"{rec}.{a}", "arr.i"), (f"{rec}.{b}", "arr.j")]
    pred = " AND ".join(
        f"{x} = {y}" if draw(st.booleans()) else f"{y} = {x}"
        for x, y in draw(st.permutations(sides)))
    out = "DOCUMENT" if model == "document" or draw(st.booleans()) \
        else "RELATIONAL"
    join = (f"arr.join({rec}, '{pred}', {out})" if draw(st.booleans())
            else f"{rec}.join(arr, '{pred}', {out})")

    lit = st.sampled_from(LITERALS)
    pushable = st.one_of(
        st.builds(lambda k, op, x: f"{k} {op} {x}",
                  st.sampled_from([a, b]), st.sampled_from(["=", "!="]), lit),
        st.builds(lambda op: f"{a} {op} {b}", st.sampled_from(["=", "!="])))
    compare = st.builds(lambda k, op, x: f"{k} {op} {x}",
                        st.sampled_from([a, b, c, "v"]),
                        st.sampled_from(["<", ">=", "=", "!="]), lit)
    # r qualifies the records above the join, arr the array's attribute
    qualified = st.builds(lambda k, op, x: f"{k} {op} {x}",
                          st.sampled_from([f"r.{a}", f"r.{b}", f"r.{c}",
                                           "arr.v"]),
                          st.sampled_from(["=", "!=", ">="]), lit)
    other = st.one_of(compare, compare, compare, qualified,
                      st.builds(lambda x: f"{rec}.{a} != {x}", lit))
    conjunct = st.recursive(
        st.one_of(pushable, other),
        lambda inner: st.one_of(
            st.builds(lambda x: f"NOT ({x})", inner),
            st.builds(lambda x, y: f"({x}) OR ({y})", inner, inner),
            st.builds(lambda x, y: f"({x}) AND ({y})", inner, inner)),
        max_leaves=3)
    where = " AND ".join(draw(st.lists(conjunct, min_size=1, max_size=3)))
    opener = "openTable" if model == "relational" else "openCollection"
    text = (f"{rec} = {opener}('r')\narr = openArray('arr')\n"
            f"execute({join}.filter('{where}'))\n")

    def write(path) -> str:
        if model == "relational":
            with open(os.path.join(path, "r.csv"), "w") as f:
                f.write(",".join(keys) + "\n" + "".join(
                    ",".join(_csv_cell(r[k]) for k in keys) + "\n"
                    for r in records))
        else:
            with open(os.path.join(path, "r.jsonl"), "w") as f:
                f.write("".join(json.dumps(r) + "\n" for r in records))
        _write_array(path, size, cells, values, tile)
        return text

    return write


def _same(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, Relation):
        assert got.schema == want.schema
        assert repr(got.rows) == repr(want.rows)
    else:
        assert got.name == want.name
        assert repr(got.docs) == repr(want.docs)


def _failed_in(plan, error):
    """The nodes of the partition a run of ``plan`` failed in."""
    return [plan.node(i) for i in
            partition(plan).partitions[error.partition].node_ids]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(join_cases())
def test_pushed_filters_agree_with_the_plan_as_bound(write):
    with tempfile.TemporaryDirectory() as path:
        text = write(path)
        for strategy in ("mshj", "probe-only", "convert"):
            eng = Engine(EngineConfig(data_dir=path, strategy=strategy,
                                      spool_dir=os.path.join(path, "spool")))
            bound = bind_script(text, eng.catalog, eng.config)
            try:
                want = eng.run_plan(*bound)
            except EngineError as e:
                try:
                    eng.run(text)
                except EngineError as got:
                    if type(got) is not type(e):
                        # the join failed on records the moved filter drops,
                        # and an operator reading the join fails instead
                        assert any(n.op == "join_rel_array"
                                   for n in _failed_in(bound[0], e)), text
                        plan = eng.plan_script(text)[0]
                        assert any(plan.node(i).op == "join_rel_array"
                                   for n in _failed_in(plan, got)
                                   for i in n.inputs), (text, strategy)
                continue
            _same(eng.run(text), want)
