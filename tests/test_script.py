import ast
import hashlib
import json
import os
import warnings
from collections import Counter

import pytest

from multimodel import (
    BindingError,
    Catalog,
    Collection,
    Engine,
    EngineConfig,
    NotFoundError,
    OutputSpecError,
    PlanError,
    Relation,
    ScriptError,
    partition,
    plan_to_dict,
)
from multimodel.executor import format_result
from multimodel.script import parse_script

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")
with open(os.path.join(DATA, "recommend.m2s"), encoding="utf-8") as _f:
    RECOMMEND = _f.read()
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def engine(tmp_path, seed=0, **kw):
    return Engine(EngineConfig(data_dir=str(tmp_path), seed=seed, **kw))


def write_points(tmp_path):
    (tmp_path / "points.csv").write_text(
        "x,y\n1,10\n4,2\n3,7\n9,1\n5,5\n")


def write_events(tmp_path):
    docs = [
        {"who": "ann", "tags": ["a", "b"], "n": 1},
        {"who": "bo", "tags": ["b"], "n": 2},
        {"who": "cal", "tags": ["a"], "n": 4},
    ]
    (tmp_path / "events.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs))


# ---------------------------------------------------------------- parsing

def test_parse_basic_shapes():
    stmts = parse_script(
        "a, b = openTable('t'), 3\n"
        "for i in range(2):\n"
        "  a = a.filter('x = 1')\n"
        "execute(a)\n")
    assert [type(s) for s in stmts] == [ast.Assign, ast.For, ast.Expr]
    assert [t.id for t in stmts[0].targets[0].elts] == ["a", "b"]
    assert len(stmts[1].body) == 1


def test_parse_reports_position():
    with pytest.raises(ScriptError) as e:
        parse_script("a = openTable('t')\nb = a ? 1\nexecute(b)")
    assert "line 2" in str(e.value)
    assert e.value.line == 2


def test_parse_rejects_stray_indent():
    with pytest.raises(ScriptError, match="indent"):
        parse_script("a = openTable('t')\n  b = a\nexecute(a)")


def test_parse_empty_loop_body():
    with pytest.raises(ScriptError) as e:
        parse_script("for i in range(2):\nexecute(a)")
    assert e.value.line == 2


def test_parse_comments_and_blank_lines_ignored():
    stmts = parse_script("# header\n\na = openTable('t')  # tail\nexecute(a)\n")
    assert len(stmts) == 2


# ---------------------------------------------------------------- binding

def test_undefined_name_is_named(tmp_path):
    write_points(tmp_path)
    with pytest.raises(ScriptError, match="'kept'"):
        engine(tmp_path).plan_script("t = openTable('points')\nexecute(kept)")


def test_missing_dataset(tmp_path):
    with pytest.raises(NotFoundError, match="'nope'"):
        engine(tmp_path).plan_script("t = openTable('nope')\nexecute(t)")


def test_execute_required_and_unique(tmp_path):
    write_points(tmp_path)
    eng = engine(tmp_path)
    with pytest.raises(ScriptError, match="execute"):
        eng.plan_script("t = openTable('points')\n")
    with pytest.raises(ScriptError, match="exactly once"):
        eng.plan_script("t = openTable('points')\nexecute(t)\nexecute(t)")


def test_count_on_scan_is_a_bind_time_int(tmp_path):
    write_points(tmp_path)
    plan, target = engine(tmp_path).plan_script(
        "n = openTable('points').count()\n"
        "t = openTable('points')\n"
        "execute(t.limit(n - 3))\n")
    limit = plan.node(target)
    assert limit.op == "limit" and limit.params["n"] == 2
    # the scan opened only for counting must not survive pruning
    assert sum(1 for n in plan.nodes if n.op == "scan") == 1


def test_count_downstream_stays_lazy(tmp_path):
    write_points(tmp_path)
    eng = engine(tmp_path)
    res = eng.run("t = openTable('points')\n"
                  "execute(t.filter('x >= 4').count())\n")
    assert isinstance(res, Relation)
    assert res.rows == [(3,)]


def test_rand_seeds_assigned_in_bind_order(tmp_path):
    plan, _ = engine(tmp_path, seed=40).plan_script(
        "a, b = rand({4, 4}), rand({4, 4})\nexecute(a.matmul(b))")
    seeds = [n.params["seed"] for n in plan.nodes if n.op == "rand"]
    assert seeds == [40, 41]


def test_loop_unrolls(tmp_path):
    plan, _ = engine(tmp_path).plan_script(
        "a = rand({3, 3})\n"
        "for i in range(3):\n"
        "  a = a @ a\n"
        "execute(a)\n")
    assert sum(1 for n in plan.nodes if n.op == "matmul") == 3


def test_bad_predicate_reported_at_bind(tmp_path):
    write_points(tmp_path)
    with pytest.raises(ScriptError, match="predicate"):
        engine(tmp_path).plan_script(
            "t = openTable('points')\nexecute(t.filter('x >'))")


def test_scalar_folding(tmp_path):
    write_points(tmp_path)
    plan, target = engine(tmp_path).plan_script(
        "k = 2 * 3 - 4\n"
        "t = openTable('points')\n"
        "execute(t.limit(k))\n")
    assert plan.node(target).params["n"] == 2


# ---------------------------------------------------------------- running

def test_relational_pipeline_single_partition(tmp_path):
    write_points(tmp_path)
    eng = engine(tmp_path)
    plan, target = eng.plan_script(
        "t = openTable('points')\n"
        "execute(t.filter('x >= 3').sort('x DESC').limit(2))\n")
    assert len(partition(plan).partitions) == 1
    res = eng.run_plan(plan, target)
    assert res.rows == [(9, 1), (5, 5)]


def test_document_pipeline(tmp_path):
    write_events(tmp_path)
    res = engine(tmp_path).run(
        "e = openCollection('events')\n"
        "flat = e.unwind('tags')\n"
        "execute(flat.aggregate('tags', 'count(*) as c, sum(n) as total'))\n")
    assert isinstance(res, Relation)
    assert sorted(res.rows) == [("a", 2, 5), ("b", 2, 3)]


def test_projection_and_union(tmp_path):
    write_points(tmp_path)
    res = engine(tmp_path).run(
        "t = openTable('points')\n"
        "lo = t.filter('x <= 3').project('x')\n"
        "hi = t.filter('x >= 9').project('x')\n"
        "execute(lo.union(hi).sort('x ASC'))\n")
    assert res.rows == [(1,), (3,), (9,)]


def test_array_round_trip_through_script(tmp_path):
    (tmp_path / "cells.csv").write_text(
        "r,c,v\n0,0,1.5\n0,2,2.0\n3,1,4.5\n")
    res = engine(tmp_path).run(
        "t = openTable('cells')\n"
        "a = t.toArray({'r', 'c'}, {'v'})\n"
        "b = a.join(t.toArray({'r', 'c'}, {'v'}))\n"
        "execute(b)\n")
    from multimodel.bridge import to_relation
    rows = sorted(to_relation(res).rows)
    assert rows == [(0, 0, 1.5, 1.5), (0, 2, 2.0, 2.0), (3, 1, 4.5, 4.5)]


def write_visits(tmp_path, dropped_value="n/a"):
    # two documents lack a dimension path; by default one of them holds a
    # string value, which must not reach the inferred value type
    docs = [{"r": 0, "c": 1, "v": 1.5}, {"r": 4, "c": 2, "v": 2},
            {"r": 2, "v": dropped_value}, {"c": 7, "v": 3.0},
            {"r": 1, "c": 0, "v": 0.5}]
    (tmp_path / "visits.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs))


def test_to_array_infers_meta_from_kept_records(tmp_path):
    write_visits(tmp_path)
    res = engine(tmp_path, default_tile=2).run(
        "execute(openCollection('visits').toArray({'r', 'c'}, {'v'}))\n")
    from multimodel.models import FLOAT, ArrayMeta, CellSchema
    # extent: bounding box of the kept documents; tiles capped at 2; dense,
    # as its 3 cells in two 2x2 tiles take 2 x 4 x 9 = 72 bytes dense and
    # 2 x (8 + 3 x 8) + 3 x 16 = 112 as csr
    assert res.meta == ArrayMeta(CellSchema(("r", "c"), ("v",), (FLOAT,)),
                                 (5, 3), (2, 2), "dense")
    from multimodel.bridge import to_relation
    assert sorted(to_relation(res).rows) == [(0, 1, 1.5), (1, 0, 0.5),
                                             (4, 2, 2.0)]


def test_to_array_walks_records_once(tmp_path, monkeypatch):
    from multimodel import bridge, executor
    write_visits(tmp_path, dropped_value=9.0)
    walks = []
    walk = bridge._extract_dims

    def spy(*args, **kwargs):
        walks.append(args[1].attrs)
        return walk(*args, **kwargs)

    for mod in (bridge, executor):  # wherever the walk is looked up
        if getattr(mod, "_extract_dims", None) is walk:
            monkeypatch.setattr(mod, "_extract_dims", spy)
    engine(tmp_path, default_tile=2).run(
        "execute(openCollection('visits').toArray({'r', 'c'}, {'v'}))\n")
    assert walks == [("r", "c")]


def test_document_group_keys_are_typed_by_their_values(tmp_path):
    docs = [{"g": 0, "p": 1, "v": 2.0}, {"g": 1, "p": 0, "v": 1.0},
            {"g": 0, "p": 1, "v": 0.5}]
    (tmp_path / "ev.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs))
    res = engine(tmp_path).run(
        "execute(openCollection('ev').aggregate('g, p', 'sum(v) as s')"
        ".toArray({'p'}, {'g'}))\n")
    from multimodel.bridge import to_relation
    from multimodel.models import INT
    assert res.meta.schema.attr_types == (INT,)
    assert sorted(to_relation(res).rows) == [(0, 1), (1, 0)]


def test_document_paths_split_once_per_operator(tmp_path, monkeypatch):
    from multimodel import models
    splits = []
    split = models._split_path

    def spy(path):
        splits.append(path)
        return split(path)

    monkeypatch.setattr(models, "_split_path", spy)
    script = ("execute(openCollection('grid').filter('v >= 0 and c < 10')"
              ".project('r, c, v').toArray({'r', 'c'}, {'v'}))\n")
    counts = []
    for n in (20, 2000):
        (tmp_path / "grid.jsonl").write_text("".join(
            json.dumps({"r": i // 10, "c": i % 10, "v": i / 2}) + "\n"
            for i in range(n)))
        splits.clear()
        res = engine(tmp_path).run(script)
        assert res.cell_count() == n
        counts.append(len(splits))
    assert 0 < counts[0] == counts[1]


@pytest.mark.parametrize("model", ["table", "collection"])
def test_missing_value_attribute_is_one_error(tmp_path, pool, model):
    (tmp_path / "cells.csv").write_text("r,c,v\n0,0,1.5\n1,2,2.0\n")
    write_visits(tmp_path)
    name, opener = (("cells", "openTable") if model == "table"
                    else ("visits", "openCollection"))
    with pytest.raises(BindingError, match="'w'") as scripted:
        engine(tmp_path).run(
            f"execute({opener}('{name}').toArray({{'r', 'c'}}, {{'w'}}))\n")
    from multimodel.bridge import to_array
    eng = engine(tmp_path)
    records = (eng.catalog.load_table(name) if model == "table"
               else eng.catalog.load_collection(name))
    with pytest.raises(BindingError) as direct:
        to_array(records, ["r", "c"], ["w"], None, pool)
    assert str(direct.value) == str(scripted.value)


def test_node_shared_across_partitions(tmp_path):
    # f is consumed inside its partition (by sort) *and* by a conversion in
    # another one; the engine must publish its value, not just the output's
    (tmp_path / "cells.csv").write_text(
        "r,c,v\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n")
    res = engine(tmp_path).run(
        "t = openTable('cells')\n"
        "f = t.filter('v >= 2')\n"
        "a = f.toArray({'r', 'c'}, {'v'})\n"
        "g = f.sort('v ASC')\n"
        "execute(g.join(a, 'g.r = a.r AND g.c = a.c'))\n")
    assert isinstance(res, Relation)
    assert sorted(res.rows) == [(0, 1, 2.0, 2.0), (1, 0, 3.0, 3.0),
                                (1, 1, 4.0, 4.0)]


def write_pairs(tmp_path):
    """Tables a(k, x), b(k, y) and collections da, db of the same rows."""
    (tmp_path / "a.csv").write_text("k,x\n1,10\n2,20\n")
    (tmp_path / "b.csv").write_text("k,y\n1,7\n2,8\n")
    (tmp_path / "da.jsonl").write_text(
        '{"k": 1, "x": 10}\n{"k": 2, "x": 20}\n')
    (tmp_path / "db.jsonl").write_text('{"k": 1, "y": 7}\n{"k": 2, "y": 8}\n')


def test_a_join_read_twice_keeps_its_qualifiers(tmp_path):
    # j has two readers, so it is materialized once and read back by both;
    # each still reads a.x as a's column
    write_pairs(tmp_path)
    eng = engine(tmp_path)
    j = "a, b = openTable('a'), openTable('b')\nj = a.join(b, 'a.k = b.k')\n"
    one = eng.run(j + "execute(j.filter('a.x = 10'))")
    assert one.rows == [(1, 10, 1, 7)]
    two = eng.run(j + "execute(j.filter('a.x = 10')"
                  ".union(j.filter('b.y = 7')))")
    assert [c for c, _ in two.schema] == ["a.k", "x", "b.k", "y"]
    assert two.rows == [(1, 10, 1, 7)] * 2


def test_a_document_join_read_twice_keeps_its_qualifiers(tmp_path):
    write_pairs(tmp_path)
    res = engine(tmp_path).run(
        "a, b = openCollection('da'), openCollection('db')\n"
        "j = a.join(b, 'da.k = db.k')\n"
        "execute(j.filter('da.x = 10').union(j.filter('db.y = 7')))\n")
    assert res.docs == [{"k": 1, "x": 10, "y": 7}] * 2


def test_a_dataset_named_like_a_node_is_not_that_node(tmp_path):
    # hits is node 3; a table named n3 is read as itself, beside the hits
    (tmp_path / "pts.csv").write_text("r,c,w\n0,1,7\n1,0,8\n")
    (tmp_path / "cells.csv").write_text("r,c,v\n0,1,4\n1,0,9\n")
    (tmp_path / "n3.csv").write_text("r,c,w,v\n5,5,5,5\n")
    Catalog(str(tmp_path)).ingest("coo", str(tmp_path / "cells.csv"), "arr",
                                  size=(2, 2), tile=(1, 1))
    eng = engine(tmp_path)
    text = ("pts = openTable('pts').filter('w > 0')\n"
            "arr = openArray('arr')\n"
            "hits = arr.join(pts, 'pts.r = arr.r AND pts.c = arr.c', "
            "RELATIONAL)\n"
            "execute(hits.union(openTable('n3')))\n")
    plan, _ = eng.plan_script(text)
    assert [n.op for n in plan.nodes][3] == "join_rel_array"
    res = eng.run(text)
    assert sorted(res.rows) == [(0, 1, 7, 4), (1, 0, 8, 9), (5, 5, 5, 5)]


def test_a_filter_pushed_onto_an_aggregate_reads_its_numbered_names(tmp_path):
    # the aggregate names its two key columns x and x#1, so the filter moved
    # below the join reads x as the join's records do
    (tmp_path / "nest.jsonl").write_text(
        '{"a": {"x": 0}, "b": {"x": 1}}\n' * 2 +
        '{"a": {"x": 1}, "b": {"x": 0}}\n')
    (tmp_path / "cnt.csv").write_text("x,n,v\n0,2,5\n1,1,6\n")
    Catalog(str(tmp_path)).ingest("coo", str(tmp_path / "cnt.csv"), "cnt",
                                  size=(3, 3), tile=(3, 3))
    eng = engine(tmp_path)
    text = ("g = openCollection('nest').aggregate('a.x, b.x', "
            "'count(*) as n')\n"
            "arr = openArray('cnt')\n"
            "execute(arr.join(g, 'g.x = arr.x AND g.n = arr.n', RELATIONAL)"
            ".filter('x = 0'))\n")
    plan, _ = eng.plan_script(text)
    moved = next(n for n in plan.nodes if n.op == "filter")
    assert plan.node(moved.inputs[0]).op == "aggregate"
    res = eng.run(text)
    assert [c for c, _ in res.schema] == ["x", "x#1", "n", "v"]
    assert res.rows == [(0, 1, 2, 5)]


# ------------------------------------- names above a record–array join

JOIN_STRATEGIES = ("auto", "mshj", "probe-only", "convert")


def write_names_catalog(path):
    """t(r, c, w), g(k, z), a(r, c, v), a2(r, c, k), b(k), and 2 x 2 arrays
    cells and cv with a value v and ck with a value k, one cell per tile."""
    (path / "t.csv").write_text("r,c,w\n0,0,3\n1,1,4\n0,1,5\n")
    (path / "g.csv").write_text("k,z\n3,30\n4,40\n5,50\n")
    (path / "a.csv").write_text("r,c,v\n0,0,3\n1,1,4\n")
    (path / "a2.csv").write_text("r,c,k\n0,0,3\n1,1,4\n")
    (path / "b.csv").write_text("k\n3\n4\n")
    for name, attr in (("cells", "v"), ("cv", "v"), ("ck", "k")):
        (path / f"{name}.csv").write_text(
            f"r,c,{attr}\n0,0,1.5\n1,1,2.5\n0,1,3.5\n1,0,4.5\n")
        Catalog(str(path)).ingest("coo", str(path / f"{name}.csv"), name,
                                  size=(2, 2), tile=(1, 1))


def _rows_of(res):
    """The names and the rows of a result, rows in a fixed order."""
    if isinstance(res, Relation):
        return res.schema, sorted(map(repr, res.rows))
    return None, sorted(json.dumps(d) for d in res.docs)


NAMES = ("t, g = openTable('t'), openTable('g')\n"
         "cells = openArray('cells')\n")
ARRAY_SIDE = "h = cells.join(t, 't.r = cells.r AND t.c = cells.c', {m})\n"
RECORD_SIDE = "h = t.join(g, 't.w = g.k')\n"


@pytest.mark.parametrize("model", ["RELATIONAL", "DOCUMENT"])
@pytest.mark.parametrize("qualified, plain", [
    (ARRAY_SIDE + "execute(h.filter('t.w = 3'))",
     ARRAY_SIDE + "execute(h.filter('w = 3'))"),
    (ARRAY_SIDE + "execute(h.filter('cells.v = 1.5'))",
     ARRAY_SIDE + "execute(h.filter('v = 1.5'))"),
    (ARRAY_SIDE + "execute(h.join(g, 't.w = g.k'))",
     ARRAY_SIDE + "execute(h.join(g, 'w = g.k'))"),
    (RECORD_SIDE + "execute(cells.join(h, 't.r = cells.r AND "
     "t.c = cells.c', {m}))",
     RECORD_SIDE + "execute(cells.join(h, 'r = cells.r AND c = cells.c', "
     "{m}))"),
    (RECORD_SIDE + "execute(cells.join(h, 'h.r = cells.r AND "
     "h.c = cells.c', {m}).filter('g.z = 30'))",
     RECORD_SIDE + "execute(cells.join(h, 'h.r = cells.r AND "
     "h.c = cells.c', {m}).filter('z = 30'))"),
], ids=["filter t.w", "filter cells.v", "join on t.w", "bound t.r",
        "filter g.z"])
def test_qualified_names_above_a_record_array_join(tmp_path, model,
                                                   qualified, plain):
    """Records keep their qualifiers through a record–array join, and the
    array's attributes take its name: a qualified name reads what its bare
    form reads, under either output model and every strategy."""
    write_names_catalog(tmp_path)
    got = {}
    for strategy in JOIN_STRATEGIES:
        eng = engine(tmp_path, strategy=strategy)
        want = _rows_of(eng.run(NAMES + plain.format(m=model) + "\n"))
        assert want[1], strategy  # the bare form finds rows
        got[strategy] = _rows_of(eng.run(NAMES + qualified.format(m=model)
                                         + "\n"))
        assert got[strategy] == want, strategy
    assert len(set(map(repr, got.values()))) == 1


@pytest.mark.parametrize("script, printed", [
    # an array attribute a record column prints under takes `_r`
    ("a, cv = openTable('a'), openArray('cv')\n"
     "execute(cv.join(a, 'a.r = cv.r AND a.c = cv.c', {m}))\n",
     {"RELATIONAL": "r,c,v,v_r\n0,0,3,1.5\n1,1,4,2.5\n",
      "DOCUMENT": '{"r": 0, "c": 0, "v": 3, "v_r": 1.5}\n'
                  '{"r": 1, "c": 1, "v": 4, "v_r": 2.5}\n'}),
    # record columns a2.k and b.k keep their printed names; the array's k
    # prints as it is
    ("a2, b, ck = openTable('a2'), openTable('b'), openArray('ck')\n"
     "h = a2.join(b, 'a2.k = b.k')\n"
     "execute(ck.join(h, 'h.r = ck.r AND h.c = ck.c', {m}))\n",
     {"RELATIONAL": "r,c,a2.k,b.k,k\n0,0,3,3,1.5\n1,1,4,4,2.5\n",
      "DOCUMENT": '{"r": 0, "c": 0, "a2.k": 3, "b.k": 3, "k": 1.5}\n'
                  '{"r": 1, "c": 1, "a2.k": 4, "b.k": 4, "k": 2.5}\n'}),
], ids=["v beside v", "a2.k, b.k beside k"])
@pytest.mark.parametrize("model", ["RELATIONAL", "DOCUMENT"])
@pytest.mark.parametrize("strategy", JOIN_STRATEGIES)
def test_names_that_collide_at_a_record_array_join_print_as_before(
        tmp_path, script, printed, model, strategy):
    write_names_catalog(tmp_path)
    res = engine(tmp_path, strategy=strategy).run(script.format(m=model))
    assert format_result(res) == printed[model]


def _as_dicts(res) -> list[dict]:
    if isinstance(res, Relation):
        names = [n for n, _ in res.schema]
        return [dict(zip(names, row)) for row in res.rows]
    return res.docs


@pytest.mark.parametrize("query", [
    "j.filter('a.k = 3')",
    "j.join(g, 'a.k = g.x')",
    "j.aggregate('a.k', 'count(*) as n')",
    "j.sort('a.k')",
])
@pytest.mark.parametrize("strategy", JOIN_STRATEGIES)
def test_a_colliding_column_reads_alike_under_document_output(
        tmp_path, strategy, query):
    """Above a record–array join, `a.k` is the records' column printed
    `a.k` under either output model, not the cell's bare `k`: the cells'
    `k` runs against `a.k`, so reading one for the other changes every
    answer."""
    (tmp_path / "a.csv").write_text("r,c,k\n0,0,3\n1,1,4\n0,1,5\n")
    (tmp_path / "b.csv").write_text("k,z\n3,30\n4,40\n")
    (tmp_path / "g.csv").write_text("x,tag\n3,p\n4,q\n")
    (tmp_path / "cells.csv").write_text("r,c,k\n0,0,8\n1,1,7\n")
    Catalog(str(tmp_path)).ingest("coo", str(tmp_path / "cells.csv"),
                                  "cells", size=(2, 2), tile=(1, 1))
    script = ("a, b, g = openTable('a'), openTable('b'), openTable('g')\n"
              "cells = openArray('cells')\n"
              "h = a.join(b, 'a.k = b.k')\n"
              "j = cells.join(h, 'h.r = cells.r AND h.c = cells.c', {m})\n"
              f"execute({query})\n")
    eng = engine(tmp_path, strategy=strategy)
    rel, doc = (_as_dicts(eng.run(script.format(m=m)))
                for m in ("RELATIONAL", "DOCUMENT"))
    assert rel and doc == rel


@pytest.mark.parametrize("script", ["recommend", "tile_join"])
def test_only_the_result_is_made_public(tmp_path, monkeypatch, script):
    """Records reach the bridge, and leave it, as frames: a run turns one
    frame into a public value, its result."""
    from multimodel import bridge, executor, rd_engine
    if script == "recommend":
        write_recommend_catalog(tmp_path)
        text = RECOMMEND
    else:
        write_tile_join_catalog(tmp_path)
        with open(os.path.join(PERFBENCH, "tile_join.m2s"),
                  encoding="utf-8") as f:
            text = f.read()
    made = []
    public = rd_engine.frame_to_public

    def spy(frame):
        made.append(public(frame))
        return made[-1]

    for mod in (rd_engine, executor, bridge):  # wherever it is looked up
        if getattr(mod, "frame_to_public", None) is public:
            monkeypatch.setattr(mod, "frame_to_public", spy)
    res = engine(tmp_path, default_tile=2).run(text)
    assert len(made) == 1 and made[0] is res and len(res) > 0


def test_runtime_errors_carry_partition_index(tmp_path):
    write_points(tmp_path)
    eng = engine(tmp_path)
    with pytest.raises(PlanError) as e:
        eng.run("t = openTable('points')\nexecute(t.filter('zz = 1'))")
    assert getattr(e.value, "partition", None) == 0


# ------------------------------------------------------- the mixed pipeline

def recommend_engine(seed=7, **kw):
    return Engine(EngineConfig(data_dir=DATA, seed=seed, **kw))


def test_recommend_partition_shape():
    doc = recommend_engine().explain(RECOMMEND)
    models = Counter(p["model"] for p in doc["partitions"])
    assert len(doc["partitions"]) == 6
    assert models == {"relational": 2, "document": 1, "array": 1,
                      "inter-model": 2}
    # topological order respects the edges
    pos = {ix: k for k, ix in enumerate(doc["order"])}
    assert all(pos[a] < pos[b] for a, b in doc["edges"])


def test_recommend_result_shape():
    res = recommend_engine().run(RECOMMEND)
    assert [c for c, _ in res.schema] == ["cid", "pid", "rating"]
    assert len(res.rows) == 10
    assert all(r[0] == 3 for r in res.rows)
    ratings = [r[2] for r in res.rows]
    assert ratings == sorted(ratings, reverse=True)


def test_recommend_same_result_any_strategy():
    base = recommend_engine().run(RECOMMEND)
    forced = recommend_engine(strategy="convert").run(RECOMMEND)
    assert base.rows == forced.rows


def write_recommend_catalog(path, customers=8, products=6):
    """The recommender's five datasets at a small scale: one order per
    customer, reviews on some (customer, product) pairs, the last pair
    always among them so the ratings matrix has the full extent."""
    (path / "customer.csv").write_text("cid,name\n" + "".join(
        f"{c},c{c}\n" for c in range(customers)))
    (path / "product.csv").write_text("pid,label\n" + "".join(
        f"{p},p{p}\n" for p in range(products)))
    (path / "order.jsonl").write_text("".join(
        json.dumps({"oid": 100 + c, "cid": c}) + "\n"
        for c in range(customers)))
    pairs = [(c, p) for c in range(customers) for p in range(products)
             if (c * 7 + p * 3) % 4 == 0 or (c, p) == (customers - 1,
                                                       products - 1)]
    (path / "review.jsonl").write_text("".join(
        json.dumps({"oid": 100 + c, "pid": p, "rating": 1.0 + (c + p) % 5})
        + "\n" for c, p in pairs))
    (path / "interest.csv").write_text("cid,pid\n" + "".join(
        f"{c},{p}\n" for c in range(customers) for p in (0, products - 1)))


def test_recommend_builds_no_document_dicts(tmp_path, monkeypatch):
    """Collections stay columns from the loader to toArray: the pipeline
    runs with ``Collection.docs`` unusable, and so does a bind-time count
    of a collection."""
    write_recommend_catalog(tmp_path)
    want = engine(tmp_path, seed=11).run(RECOMMEND)

    def no_docs(self):
        raise AssertionError("a collection was turned back into dicts")

    monkeypatch.setattr(Collection, "docs", property(no_docs))
    eng = engine(tmp_path, seed=11)
    res = eng.run(RECOMMEND)
    assert res.schema == want.schema and res.rows == want.rows
    assert [c for c, _ in res.schema] == ["cid", "pid", "rating"]
    assert 0 < len(res) <= 10 and eng.join_stats[0].strategy == "mshj"
    assert eng.catalog.count("review", "document") == 12


def test_explain_round_trips_through_plan_json():
    doc = json.loads(json.dumps(recommend_engine().explain(RECOMMEND)))
    plan = recommend_engine().plan_script(RECOMMEND)[0]
    assert doc["nodes"] == plan_to_dict(plan)["nodes"]
    # and the plan partitions as the document says
    pd = partition(plan)
    assert [sorted(p.node_ids) for p in pd.partitions] == \
        [p["nodes"] for p in doc["partitions"]]


def test_document_model_join_in_script(tmp_path):
    write_events(tmp_path)
    (tmp_path / "people.jsonl").write_text(
        json.dumps({"who": "ann", "age": 41}) + "\n"
        + json.dumps({"who": "bo", "age": 29}) + "\n")
    res = engine(tmp_path).run(
        "e = openCollection('events')\n"
        "p = openCollection('people')\n"
        "execute(e.join(p, 'events.who = people.who').project('who, age, n'))\n")
    assert isinstance(res, Collection)
    assert sorted((d["who"], d["age"], d["n"]) for d in res.docs) == \
        [("ann", 41, 1), ("bo", 29, 2)]


@pytest.mark.parametrize("model", ["RELATIONAL", "ARRAY"])
@pytest.mark.parametrize("strategy", ["auto", "probe-only", "convert"])
def test_document_records_join_to_document_output_only(tmp_path, strategy,
                                                       model):
    (tmp_path / "cells.csv").write_text("r,c,v\n0,0,1.5\n1,2,2.0\n")
    (tmp_path / "visits.jsonl").write_text(
        json.dumps({"r": 0, "c": 0, "who": "ann"}) + "\n"
        + json.dumps({"r": 1, "c": 2, "who": "bo"}) + "\n")
    with pytest.raises(OutputSpecError,
                       match="document records join to DOCUMENT output only"):
        engine(tmp_path, strategy=strategy).run(
            "a = openTable('cells').toArray({'r', 'c'}, {'v'})\n"
            "d = openCollection('visits')\n"
            f"execute(a.join(d, 'd.r = a.r AND d.c = a.c', {model}))\n")


# ------------------------------------------------- the language's boundary

@pytest.mark.parametrize("line, call", [
    ("x = t.filter('x > 1', 'y < 5')", "filter"),
    ("x = t.project('x', 'y')", "project"),
    ("x = t.sort('x', 'y DESC')", "sort"),
    ("x = t.union(t, t)", "union"),
    ("x = t.filter()", "filter"),
    ("x = t.limit(n=2)", "limit"),
    ("x = t.count(1)", "count"),
    ("x = t.join(t, 'x = y', RELATIONAL, 1)", "join"),
    ("x = openTable('points', 'other')", "openTable"),
    ("x = rand({2, 2}, 3)", "rand"),
    ("x = rand({2, 2}).transpose(t)", "transpose"),
    ("x = rand({2, 2}).matmul(**t)", "matmul"),
    ("for i in range(1, 2):\n  x = t", "range"),
    ("execute(t, t)", "execute"),
])
def test_call_arguments_are_counted(tmp_path, line, call):
    write_points(tmp_path)
    with pytest.raises(ScriptError, match=rf"{call}\(\)") as e:
        engine(tmp_path).plan_script(
            f"t = openTable('points')\n{line}\nexecute(t)\n")
    assert (e.value.line, e.value.col) == (2, line.index(call) + 1)


@pytest.mark.parametrize("line", [
    "import os",
    "def f(): pass",
    "if 1:\n  x = t",
    "while 1:\n  x = t",
    "for i in t:\n  x = t",
    "for i in range(2):\n  x = t\nelse:\n  x = t",
    "x = y = t",
    "n += 1",
    "x = -3",
    "x = True",
    "x = None",
    "x = 1j",
    "x = f'{n}'",
    "x = b'a'",
    "x = rand({'a': 1})",
    "x = t[0]",
    "x = t.X",
    "x = t < t",
    "x = lambda: 0",
    "x = openTable(*n)",
    "x = openTable(name='points')",
])
def test_python_outside_the_language_is_refused(tmp_path, line):
    write_points(tmp_path)
    with pytest.raises(ScriptError) as e:
        engine(tmp_path).plan_script(
            f"t, n = openTable('points'), 2\n{line}\nexecute(t)\n")
    assert 2 <= e.value.line <= 2 + line.count("\n")  # within the construct


@pytest.mark.parametrize("expr", [
    "rand({})", "openTable('points').toArray({}, {'x'})"])
def test_an_array_needs_a_dimension(tmp_path, expr):
    write_points(tmp_path)
    with pytest.raises(ScriptError, match="dim") as e:
        engine(tmp_path).plan_script(f"execute({expr})\n")
    assert e.value.line == 1


def test_string_literals_follow_python(tmp_path):
    write_points(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under -W error
        plan, target = engine(tmp_path).plan_script(
            "t = openTable('points')\n"
            "execute(t.project('a\\d, b\\\\, c\\'d'))\n")
    # an unknown escape keeps its backslash; \\ and \' are one character
    assert plan.node(target).params["cols"] == ["a\\d", "b\\", "c'd"]


def write_tile_join_catalog(path):
    (path / "probe.csv").write_text("r,c,w\n0,1,7\n2,3,50\n3,3,95\n")
    (path / "grp.csv").write_text("k,g\n7,1\n50,2\n")
    (path / "cells.csv").write_text("r,c,v\n0,1,4\n2,3,9\n")
    Catalog(str(path)).ingest("coo", str(path / "cells.csv"), "cells",
                              size=(4, 4), tile=(2, 2))


@pytest.mark.parametrize("script, digest", [
    # the interest scan (partition 3) runs before the arrays: records first
    ("recommend", "9e70ef210045ddc78ac8678c1b1547f580a6e668b5ac44efff3e6302302a0629"),
    ("tile_join", "41d69e31cd9eee10b76b1064a179210d3c98cc233530ab2d4b67319f7bbc5469"),
])
def test_shipped_scripts_bind_to_pinned_plans(tmp_path, script, digest):
    if script == "recommend":
        eng, text = recommend_engine(seed=3), RECOMMEND
    else:
        write_tile_join_catalog(tmp_path)
        eng = engine(tmp_path, seed=3)
        with open(os.path.join(PERFBENCH, "tile_join.m2s"),
                  encoding="utf-8") as f:
            text = f.read()
    doc = json.dumps(eng.explain(text)["bound"], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_positions_count_characters(tmp_path):
    write_points(tmp_path)
    line = "x = t.project('é, ü').sort('x', 'y')"
    with pytest.raises(ScriptError) as e:
        engine(tmp_path).plan_script(
            f"t = openTable('points')\r\n{line}\r\nexecute(t)\n")
    assert (e.value.line, e.value.col) == (2, line.index("sort") + 1)
