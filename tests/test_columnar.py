"""The column-at-a-time record operators against the row-wise reference
(``rowwise.py``): the same trees over random tables and collections must
give equal schemas and rows, or equal documents with the same key order, or
raise the same error type.

Values compare by exact type as well (``1``, ``1.0`` and ``True`` differ,
and so do ``0.0`` and ``-0.0``), and documents key by key in order, nested
documents and lists included.

Tables mix nulls, ints around +-2**53 and beyond int64, floats, bools and
strings, and now and then a value of another type than its column's, which
makes the column an object array.  Collections do the same per key: each key
has one dominant type (a scalar, a list or a nested document), a document
leaves some keys out and draws the rest in random order, and a value of
another type now and then makes the key's column an object array.  Floats
leave out NaN: a NaN is never equal to itself, so no result holding one
compares equal.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rowwise
from multimodel.array_store import ArrayBuilder, dtype_for, smaller_layout
from multimodel.bridge import to_array, to_relation
from multimodel.buffer_pool import BufferPool
from multimodel import Engine, EngineConfig
from multimodel.errors import EngineError, TypeMismatchError
from multimodel.models import (BOOL, FLOAT, INT, STRING, UINT, ArrayMeta,
                               CellSchema, Collection, Relation,
                               collection_to_jsonl, relation_to_csv)
from multimodel.predicates import (And, Cmp, Lit, Not, Or, Ref,
                                   format_predicate, parse_predicate)
from multimodel.rd_engine import execute_tree, frame_to_public, node

BIG = 2 ** 53
INTS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [BIG, BIG + 1, -BIG - 1, 2 ** 62, 2 ** 63 - 1, -2 ** 63, 2 ** 63, 10 ** 20]))
FLOATS = st.one_of(st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, -2.5, float(BIG), 2.0 ** 63, 1e300]),
    st.floats(-4, 4, allow_nan=False))
VALUES = {"int": INTS, "float": FLOATS, "bool": st.booleans(),
          "string": st.sampled_from(["", "a", "b"])}
TYPES = {"int": INT, "float": FLOAT, "bool": BOOL, "string": STRING,
         "key": INT}
ANY = st.one_of(*VALUES.values())
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw, names, max_rows=8, kinds=None):
    """A relation over ``names``: each column of one random type, its values
    mostly of that type, some null and a few of any type.  ``kinds`` maps a
    name to the types its column is drawn from, ``"key"`` among them: an
    int column of 0 to 2 and nulls only, where joins and comparisons
    meet."""
    kinds = [draw(st.sampled_from((kinds or {}).get(n, sorted(VALUES))))
             for n in names]
    value = {k: st.one_of(VALUES[k], VALUES[k], VALUES[k], st.none(), ANY)
             for k in kinds if k != "key"}
    value["key"] = st.one_of(st.integers(0, 2), st.none())
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


def identical(a, b) -> bool:
    """Equal values of the same exact types: dicts key by key in the same
    order, lists and tuples item by item, and a float zero with its sign."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return a == b


def same(tree, reg):
    """Column operators and row-wise reference agree on ``tree``."""
    try:
        want = rowwise.run(tree, reg)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(Exception) as got:
            run_tree(tree, reg)
        assert type(got.value) is type(e), (got.value, e)
        return
    out = run_tree(tree, reg)
    if isinstance(out, Collection):
        assert identical(out.docs, want), (out.docs, want)
        assert len(out) == len(want)
        return
    assert out.schema == want[0]
    assert identical(out.rows, want[1]), (out.rows, want[1])
    assert len(out) == len(want[1])


def test_identical_tells_types_key_order_and_zero_signs_apart():
    assert identical([{"a": 1, "b": [1.0, {"c": None}]}],
                     [{"a": 1, "b": [1.0, {"c": None}]}])
    for a, b in [({"a": 1}, {"a": True}), ({"a": 1}, {"a": 1.0}),
                 ({"a": 1, "b": 2}, {"b": 2, "a": 1}), ([0.0], [-0.0]),
                 ({"a": {"c": 1}}, {"a": {"c": True}}),
                 ((1, [2]), (1, [2.0]))]:
        assert not identical(a, b)


def scan(name, qualifier=None):
    return node("scan", name=name, qualifier=qualifier)


def run_tree(tree, registry):
    """The tree's frame as the public Relation or Collection it renders."""
    return frame_to_public(execute_tree(tree, registry))


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

LISTS = st.lists(st.one_of(ANY, st.none()), max_size=2)
NESTED = st.dictionaries(st.sampled_from("cd"), st.one_of(ANY, st.none()),
                         max_size=2)
DOC_VALUES = st.one_of(st.integers(0, 2), ANY, st.none(), LISTS, NESTED)
# the dominant type of a key: any value kind, or for join and group keys a
# few small numbers or nested documents of them, so that keys meet; "dim"
# is a coordinate
KINDS = dict(VALUES, list=LISTS, doc=NESTED, key=st.integers(0, 2),
             fkey=st.sampled_from([0.0, 1.0, 2.0, 0.5]),
             kdoc=st.dictionaries(st.sampled_from("cd"), st.integers(0, 2),
                                  max_size=2),
             dim=st.integers(0, 9))
DOC_KINDS = ["int", "float", "bool", "string", "list", "doc"]
KEY_KINDS = ["key", "fkey", "bool", "kdoc"]


@st.composite
def collections(draw, keys, max_docs=8, kinds=None, always=()):
    """Documents over ``keys``: each key present 3 times in 4 (always for
    the keys in ``always``), in random order per document.  A key's values
    are of one kind drawn from ``kinds[key]`` (key kinds for ``k`` and
    ``g``, value kinds for the rest): only that kind, that kind and now and
    then null, or also now and then any other value."""
    kinds = kinds or {}
    value = {}
    for k in keys:
        kind = KINDS[draw(st.sampled_from(kinds.get(
            k, KEY_KINDS if k in ("k", "g") else DOC_KINDS)))]
        value[k] = draw(st.sampled_from([
            kind, st.one_of(*[kind] * 6, st.none()),
            st.one_of(*[kind] * 6, st.none(), DOC_VALUES)]))
    docs = []
    for _ in range(draw(st.integers(0, max_docs))):
        names = [k for k in draw(st.permutations(keys))
                 if k in always or draw(st.integers(0, 3))]
        docs.append({k: draw(value[k]) for k in names})
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


@SETTINGS
@given(collections(["k", "a", "x"]), collections(["x", "b", "k"]),
       st.sampled_from(["x", "k", "a", "b", "b.c"]), st.booleans())
def test_document_union_sort_filter_match_reference(a, b, key, desc):
    """Two collections' shapes and columns, typed or not, in one."""
    tree = node("union", scan("a"), scan("b"))
    same(tree, {"a": a, "b": b})
    tree = node("filter", tree, pred=parse_predicate(f"{key} >= 1"))
    same(node("sort", tree, keys=[(key, desc)]), {"a": a, "b": b})


SECOND_READER_REFS = ["a.k", "a.x", "b.k", "b.y", "x", "y"]
# predicates that often hold: a comparison with a key value, or a
# reference equal to itself (true where it is not null)
OFTEN_TRUE = st.one_of(
    st.builds(Cmp, st.sampled_from(["=", "!=", "<=", ">="]),
              st.sampled_from(SECOND_READER_REFS).map(Ref),
              st.integers(0, 2).map(Lit)),
    st.sampled_from(SECOND_READER_REFS).map(
        lambda r: Cmp("=", Ref(r), Ref(r))))


@SETTINGS
@given(st.data(), st.booleans(),
       st.sampled_from(["a.k = b.k", "a.k <= b.k",
                        "a.k = b.k AND a.x != b.y"]),
       OFTEN_TRUE, st.one_of(OFTEN_TRUE, predicates(SECOND_READER_REFS)))
def test_a_second_reader_of_a_join_changes_nothing(data, docs, on, p, q):
    """``execute(j.filter(p).union(j.filter(q)))`` gives exactly the rows
    of ``execute(j.filter(p))`` and then those of ``execute(j.filter(q))``.
    With two readers the join is materialized once and read back by both,
    and each reads its qualified references as one reader does.  Where the
    first filter alone raises, so does the union; where only the union
    raises, the second filter raises on its own."""
    sides = (("a", "x"), ("b", "y"))
    if docs:
        files = {f"{n}.jsonl": collection_to_jsonl(data.draw(collections(
            ["k", v], kinds={"k": ["key"], v: ["key", "float", "string"]})))
            for n, v in sides}
    else:
        files = {f"{n}.csv": relation_to_csv(data.draw(tables(
            ["k", v], kinds={"k": ["key"], v: ["key", "float", "string"]})))
            for n, v in sides}
    opened = "openCollection" if docs else "openTable"
    head = (f"a, b = {opened}('a'), {opened}('b')\n"
            f"j = a.join(b, {on!r})\n")
    p, q = (f"j.filter({format_predicate(c)!r})" for c in (p, q))
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                f.write(text)
        eng = Engine(EngineConfig(data_dir=d))
        try:
            want = eng.run(head + f"execute({p})")
        except EngineError as e:
            with pytest.raises(type(e)):
                eng.run(head + f"execute({p}.union({q}))")
            return
        try:
            got = eng.run(head + f"execute({p}.union({q}))")
        except EngineError:
            with pytest.raises(EngineError):
                eng.run(head + f"execute({q})")
            return
        rest = eng.run(head + f"execute({q})")
    if docs:
        assert identical(got.docs, want.docs + rest.docs)
    else:
        assert got.schema == want.schema == rest.schema
        assert identical(got.rows, want.rows + rest.rows)


PROJECT_REFS = ["a", "b", "b.c", "k", "t.a", "t.b", "t.b.d", "z"]


@SETTINGS
@given(collections(["a", "b", "k"]),
       st.lists(st.sampled_from(PROJECT_REFS), min_size=1, max_size=4),
       st.one_of(st.none(), st.lists(st.sampled_from("pqa"), min_size=4,
                                     max_size=4)))
def test_document_project_matches_reference(col, cols, names):
    """Paths a document lacks are left out; a repeated output name takes
    its first present position and its last present value."""
    same(node("project", scan("t"), cols=cols,
              names=names and names[:len(cols)]), {"t": col})


@SETTINGS
@given(collections(["a", "b", "k"], kinds={"a": ["list"], "b": ["doc"]}),
       st.sampled_from(["a", "b", "b.c", "k"]))
def test_document_unwind_matches_reference(col, path):
    same(node("unwind", scan("t"), path=path), {"t": col})


@SETTINGS
@given(collections(["x", "y", "v"], kinds={"x": ["dim"], "y": ["dim"],
                                           "v": ["int", "float", "bool"]},
                   always=("v",)),
       st.sampled_from([["x", "y"], ["y"], ["x", "v"]]),
       st.sampled_from([["v"], [], ["v", "x"]]))
# two faults, an extent past int64 and a column mixing int and bool: the
# value type is refused first, whichever order the two sides find them
@example(Collection("c", [{"x": 0, "y": 0, "v": 0},
                          {"v": False, "x": 1 << 62, "y": 1}]),
         ["x", "y"], ["v"])
def test_document_to_array_matches_reference(col, dims, values):
    """``to_array`` over a collection, without metadata, builds the array
    that the row-wise records-to-cells walk gives the array builder."""
    values = [v for v in values if v not in dims]
    pool = BufferPool(1 << 20)
    try:
        coords, cols, types, size = rowwise.records_to_cells(
            col.docs, dims, values)
        # one tile holds every cell: its layout is the one encoding smaller
        layout = smaller_layout([len(coords)] if len(coords) else [], size,
                                [dtype_for(t) for t in types])
        meta = ArrayMeta(CellSchema(tuple(dims), tuple(values), tuple(types)),
                         size, size, layout)
        builder = ArrayBuilder(meta, pool)
        builder.add_cells(coords, [np.asarray(c) for c in cols])
        want = builder.finish()
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(Exception) as got:
            to_array(col, dims, values, None, pool)
        assert type(got.value) is type(e), (got.value, e)
        return
    got = to_array(col, dims, values, None, pool)
    assert got.meta == want.meta
    a, b = to_relation(got), to_relation(want)
    assert a.schema == b.schema and repr(a.rows) == repr(b.rows)


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
    return run_tree(node("filter", scan("t"), pred=parse_predicate(text)),
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
    out = run_tree(node("aggregate", scan("t"),
                            aggs=[("sum", "x", "s"), ("avg", "x", "a")]),
                       {"t": rel})
    assert out.rows == [(3 * 2 ** 62 - 1, (3 * 2 ** 62 - 1) / 4)]


def test_null_keys_form_one_group_in_first_appearance_order():
    rel = Relation([("g", INT), ("x", INT)],
                   [(2, 1), (None, 2), (1, 3), (None, 4), (2, 5)])
    out = run_tree(node("aggregate", scan("t"), keys=["g"],
                            aggs=[("sum", "x", "s")]), {"t": rel})
    assert out.rows == [(2, 6), (None, 6), (1, 3)]


def test_min_max_fold_floats_in_input_order():
    rel = Relation([("x", FLOAT)], [(0.0,), (-0.0,), (1.5,)])
    out = run_tree(node("aggregate", scan("t"),
                            aggs=[("min", "x", "lo"), ("max", "x", "hi")]),
                       {"t": rel})
    assert [str(v) for v in out.rows[0]] == ["0.0", "1.5"]  # the first zero


# ------------------------------------------------------------------- union

def union(a, b):
    return run_tree(node("union", scan("a"), scan("b")), {"a": a, "b": b})


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
