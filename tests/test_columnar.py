"""The column-at-a-time record operators against the row-wise reference
(``rowwise.py``): the same trees over random tables and collections must
give equal schemas and rows, or equal documents with the same key order, or
raise the same error type.

Tables mix nulls, ints around +-2**53 and beyond int64, floats, bools and
strings, and now and then a value of another type than its column's, which
makes the column an object array.  Documents draw their keys in random order,
leave some out, and hold the same scalars, nulls, lists and nested documents.
Floats leave out NaN: a NaN is never equal to itself, so no result holding
one compares equal.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rowwise
from multimodel.errors import TypeMismatchError
from multimodel.models import (BOOL, FLOAT, INT, STRING, UINT, Collection,
                               Relation)
from multimodel.predicates import And, Cmp, Lit, Not, Or, Ref, parse_predicate
from multimodel.rd_engine import execute_tree, node

BIG = 2 ** 53
INTS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [BIG, BIG + 1, -BIG - 1, 2 ** 62, 2 ** 63 - 1, -2 ** 63, 2 ** 63, 10 ** 20]))
FLOATS = st.one_of(st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, -2.5, float(BIG), 2.0 ** 63, 1e300]),
    st.floats(-4, 4, allow_nan=False))
VALUES = {"int": INTS, "float": FLOATS, "bool": st.booleans(),
          "string": st.sampled_from(["", "a", "b"])}
TYPES = {"int": INT, "float": FLOAT, "bool": BOOL, "string": STRING}
ANY = st.one_of(*VALUES.values())
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw, names, max_rows=8):
    """A relation over ``names``: each column of one random type, its values
    mostly of that type, some null and a few of any type."""
    kinds = [draw(st.sampled_from(sorted(VALUES))) for _ in names]
    value = {k: st.one_of(VALUES[k], VALUES[k], VALUES[k], st.none(), ANY)
             for k in kinds}
    rows = draw(st.lists(st.tuples(*(value[k] for k in kinds)),
                         max_size=max_rows))
    return Relation([(n, TYPES[k]) for n, k in zip(names, kinds)], rows)


def predicates(refs):
    operand = st.one_of(st.sampled_from(refs).map(Ref),
                        st.one_of(ANY, st.none()).map(Lit))
    cmp = st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                    st.sampled_from(refs).map(Ref), operand)
    return st.recursive(cmp, lambda kids: st.one_of(
        kids.map(Not),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs)))),
        max_leaves=6)


def same(tree, reg):
    """Column operators and row-wise reference agree on ``tree``."""
    try:
        want = rowwise.run(tree, reg)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(Exception) as got:
            execute_tree(tree, reg)
        assert type(got.value) is type(e), (got.value, e)
        return
    out = execute_tree(tree, reg)
    if isinstance(out, Collection):
        assert out.docs == want
        assert [list(d) for d in out.docs] == [list(d) for d in want]
        return
    assert (out.schema, out.rows) == want
    assert len(out) == len(want[1])


def scan(name, qualifier=None):
    return node("scan", name=name, qualifier=qualifier)


@SETTINGS
@given(tables(["x", "y", "s"]))
def test_relation_round_trips_its_rows(rel):
    rows = rel.rows
    assert Relation(rel.schema, rows).rows == rows
    assert Relation(rel.schema, rows) == rel
    assert [type(v) for r in rows for v in r] == \
        [type(v) for r in Relation(rel.schema, rows).rows for v in r]


@SETTINGS
@given(tables(["x", "y", "s"]), predicates(["x", "y", "s"]))
def test_filter_matches_reference(rel, pred):
    same(node("filter", scan("t"), pred=pred), {"t": rel})


JOINS = ["l.k = r.k", "l.k = r.k AND l.a = r.b", "r.k = l.k AND a < b",
         "l.k = r.k AND (a = 1 OR NOT b > 0)", "a < b", "l.k != r.k OR a = b"]


@SETTINGS
@given(tables(["k", "a"]), tables(["k", "b"]), st.sampled_from(JOINS))
def test_join_matches_reference(left, right, text):
    same(node("join", scan("l", "l"), scan("r", "r"),
              pred=parse_predicate(text)), {"l": left, "r": right})


@SETTINGS
@given(tables(["k", "a"]), tables(["k", "b"]), predicates(["a", "b"]))
def test_join_residual_matches_reference(left, right, residual):
    pred = And((parse_predicate("l.k = r.k"), residual))
    same(node("join", scan("l", "l"), scan("r", "r"), pred=pred),
         {"l": left, "r": right})


AGGS = [("count", None, "n"), ("count", "x", "nx"), ("sum", "x", "sx"),
        ("avg", "x", "ax"), ("min", "x", "lo"), ("max", "x", "hi"),
        ("min", "s", "ls"), ("sum", "y", "sy")]


@SETTINGS
@given(tables(["g", "h", "x", "y", "s"], max_rows=12),
       st.lists(st.sampled_from(["g", "h"]), unique=True, max_size=2),
       st.lists(st.sampled_from(AGGS), min_size=1, max_size=3,
                unique_by=lambda a: a[2]))
def test_aggregate_matches_reference(rel, keys, aggs):
    same(node("aggregate", scan("t"), keys=keys, aggs=aggs), {"t": rel})


@SETTINGS
@given(tables(["x", "y", "s"], max_rows=12),
       st.lists(st.tuples(st.sampled_from(["x", "y", "s"]), st.booleans()),
                max_size=2),
       st.integers(0, 12), st.permutations(["x", "y", "s"]))
def test_sort_limit_project_match_reference(rel, keys, k, cols):
    tree = node("limit", node("sort", scan("t"), keys=keys), n=k)
    same(node("project", tree, cols=cols[:2]), {"t": rel})


@SETTINGS
@given(tables(["x", "s"]), tables(["x", "s"]))
def test_union_matches_reference(a, b):
    same(node("union", scan("a"), scan("b")), {"a": a, "b": b})


# ------------------------------------------------------------ documents

DOC_VALUES = st.one_of(
    st.integers(0, 2), ANY, st.none(),
    st.lists(st.one_of(ANY, st.none()), max_size=2),
    st.dictionaries(st.sampled_from("cd"), st.one_of(ANY, st.none()),
                    max_size=2))
# join and group keys: mostly a few small ints, so that keys meet
KEY_VALUES = st.one_of(*[st.integers(0, 2)] * 3, DOC_VALUES)


@st.composite
def collections(draw, keys, max_docs=8):
    """Documents over some of ``keys`` in random order, each value a scalar,
    null, list or nested document; ``k`` and ``g`` hold mostly small ints."""
    docs = []
    for _ in range(draw(st.integers(0, max_docs))):
        names = [k for k in draw(st.permutations(keys))
                 if draw(st.integers(0, 3))]  # each present 3 times in 4
        docs.append({k: draw(KEY_VALUES if k in ("k", "g") else DOC_VALUES)
                     for k in names})
    return Collection("c", docs)


DOC_REFS = ["a", "b", "b.c", "k", "t.a", "t.b.d"]


@SETTINGS
@given(collections(["a", "b", "k"]), predicates(DOC_REFS))
def test_document_filter_matches_reference(col, pred):
    same(node("filter", scan("t"), pred=pred), {"t": col})


@SETTINGS
@given(collections(["a", "b", "k"], max_docs=12),
       st.lists(st.tuples(st.sampled_from(["a", "b", "b.c", "t.k"]),
                          st.booleans()), max_size=2),
       st.integers(0, 12))
def test_document_sort_limit_matches_reference(col, keys, k):
    same(node("limit", node("sort", scan("t"), keys=keys), n=k), {"t": col})


@SETTINGS
@given(collections(["k", "a", "x"]), collections(["k", "b", "x"]),
       st.sampled_from(JOINS + ["l.k = r.k AND x = r.x", "l.x = r.k"]))
def test_document_join_matches_reference(left, right, text):
    same(node("join", scan("l", "l"), scan("r", "r"),
              pred=parse_predicate(text)), {"l": left, "r": right})


@SETTINGS
@given(collections(["k", "a", "x"]), collections(["k", "b", "x"]),
       predicates(["a", "b", "x", "b.c", "l.x", "r.x"]))
def test_document_join_residual_matches_reference(left, right, residual):
    pred = And((parse_predicate("l.k = r.k"), residual))
    same(node("join", scan("l", "l"), scan("r", "r"), pred=pred),
         {"l": left, "r": right})


@SETTINGS
@given(tables(["k", "a"]), collections(["k", "b", "a"]),
       st.sampled_from(["l.k = r.k", "r.k = l.k AND a < b", "a < b"]),
       st.booleans())
def test_relation_collection_join_matches_reference(rel, col, text, flip):
    sides = [scan("l", "l"), scan("r", "r")]
    same(node("join", *(sides[::-1] if flip else sides),
              pred=parse_predicate(text)), {"l": rel, "r": col})


DOC_AGGS = [("count", None, "n"), ("count", "x", "nx"), ("sum", "x", "sx"),
            ("avg", "x", "ax"), ("min", "x", "lo"), ("max", "x", "hi"),
            ("min", "s", "ls"), ("max", "g.c", "hc")]


@SETTINGS
@given(collections(["g", "x", "s"], max_docs=12),
       st.lists(st.sampled_from(["g", "g.c", "s"]), unique=True, max_size=2),
       st.lists(st.sampled_from(DOC_AGGS), min_size=1, max_size=3,
                unique_by=lambda a: a[2]))
def test_document_aggregate_matches_reference(col, keys, aggs):
    same(node("aggregate", scan("t"), keys=keys, aggs=aggs), {"t": col})


# ------------------------------------------------------ stated semantics

def run_filter(rel, text):
    return execute_tree(node("filter", scan("t"), pred=parse_predicate(text)),
                        {"t": rel}).rows


def test_int_and_float_compare_exactly():
    rel = Relation([("x", INT)], [(BIG,), (BIG + 1,)])
    assert run_filter(rel, f"x > {float(BIG)!r}") == [(BIG + 1,)]
    assert run_filter(rel, f"x = {float(BIG)!r}") == [(BIG,)]


def test_bool_is_never_equal_to_an_int():
    rel = Relation([("f", BOOL)], [(True,), (False,)])
    assert run_filter(rel, "f = 1") == []
    assert run_filter(rel, "f != 1") == [(True,), (False,)]
    with pytest.raises(TypeMismatchError):
        run_filter(rel, "f < 1")


def test_junction_stops_where_the_row_wise_form_stops():
    rel = Relation([("a", INT), ("b", STRING)], [(1, "x"), (2, "y")])
    assert run_filter(rel, "a > 5 AND b < 3") == []
    assert run_filter(rel, "a < 5 OR b < 3") == [(1, "x"), (2, "y")]
    with pytest.raises(TypeMismatchError):
        run_filter(rel, "b < 3 AND a > 5")


def test_int_sums_do_not_wrap():
    rel = Relation([("x", INT)], [(2 ** 62,)] * 3 + [(-1,)])
    out = execute_tree(node("aggregate", scan("t"),
                            aggs=[("sum", "x", "s"), ("avg", "x", "a")]),
                       {"t": rel})
    assert out.rows == [(3 * 2 ** 62 - 1, (3 * 2 ** 62 - 1) / 4)]


def test_null_keys_form_one_group_in_first_appearance_order():
    rel = Relation([("g", INT), ("x", INT)],
                   [(2, 1), (None, 2), (1, 3), (None, 4), (2, 5)])
    out = execute_tree(node("aggregate", scan("t"), keys=["g"],
                            aggs=[("sum", "x", "s")]), {"t": rel})
    assert out.rows == [(2, 6), (None, 6), (1, 3)]


def test_min_max_fold_floats_in_input_order():
    rel = Relation([("x", FLOAT)], [(0.0,), (-0.0,), (1.5,)])
    out = execute_tree(node("aggregate", scan("t"),
                            aggs=[("min", "x", "lo"), ("max", "x", "hi")]),
                       {"t": rel})
    assert [str(v) for v in out.rows[0]] == ["0.0", "1.5"]  # the first zero


# ------------------------------------------------------------------- union

def union(a, b):
    return execute_tree(node("union", scan("a"), scan("b")), {"a": a, "b": b})


def test_union_int_with_uint_is_int():
    out = union(Relation([("a", INT)], [(-1,)]),
                Relation([("a", UINT)], [(2,)]))
    assert out.schema == [("a", INT)] and out.rows == [(-1,), (2,)]


def test_union_int_with_float_is_float_of_floats():
    out = union(Relation([("a", INT)], [(1,), (None,), (BIG + 1,)]),
                Relation([("a", FLOAT)], [(1.5,)]))
    assert out.schema == [("a", FLOAT)]
    assert out.rows == [(1.0,), (None,), (float(BIG + 1),), (1.5,)]
    assert all(type(v) is float for (v,) in out.rows if v is not None)
    out = union(Relation([("a", FLOAT)], [(0.5,)]),
                Relation([("a", UINT)], [(3,)]))
    assert out.schema == [("a", FLOAT)] and out.rows == [(0.5,), (3.0,)]


def test_union_of_other_types_names_the_column():
    s = Relation([("a", INT), ("b", STRING)], [(1, "x")])
    t = Relation([("a", STRING), ("b", INT)], [("foo", 3)])
    with pytest.raises(TypeMismatchError, match=r"'a': int vs string"):
        union(s, t)
    with pytest.raises(TypeMismatchError, match=r"'b': bool vs int"):
        union(Relation([("b", BOOL)], []), Relation([("b", INT)], []))


def test_union_mismatch_through_a_script(tmp_path):
    from multimodel import Engine, EngineConfig
    (tmp_path / "s.csv").write_text("a,b\n1,x\n")
    (tmp_path / "t.csv").write_text("a,b\nfoo,3\n")
    (tmp_path / "f.csv").write_text("a\n1.5\n")
    (tmp_path / "i.csv").write_text("a\n1\n")
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    with pytest.raises(TypeMismatchError, match="'a'"):
        eng.run("execute(openTable('s').union(openTable('t')))")
    out = eng.run("execute(openTable('i').union(openTable('f')))")
    assert out.schema == [("a", FLOAT)] and out.rows == [(1.0,), (1.5,)]
