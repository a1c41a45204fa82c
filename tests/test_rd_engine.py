from __future__ import annotations

import random
from collections import Counter

import pytest

from multimodel.errors import NotFoundError, PlanError, TypeMismatchError
from multimodel.models import Collection, Relation, ValueType
from multimodel.predicates import parse_predicate
from multimodel.rd_engine import execute_tree, node

INT = ValueType("int")
FLOAT = ValueType("float")
STRING = ValueType("string")


def scan(name, qualifier=None):
    return node("scan", name=name, qualifier=qualifier)


def multiset(rows):
    return Counter(map(repr, rows))


# ------------------------------------------------------------------ fixtures

REVIEWS = Collection("review", [
    {"oid": 1, "pid": 10, "rating": 4.5},
    {"oid": 2, "pid": 11, "rating": 3.0},
    {"oid": 9, "pid": 12, "rating": 5.0},
])
ORDERS = Collection("order", [
    {"oid": 1, "cid": 100},
    {"oid": 2, "cid": 101},
    {"oid": 7, "cid": 102},
])


def test_doc_join_then_project_two_rows():
    # hand-joined: only oid 1 and 2 appear on both sides
    tree = node("project",
                node("join", scan("review"), scan("order"),
                     pred=parse_predicate("review.oid = order.oid")),
                cols=["cid", "pid", "rating"])
    out = execute_tree(tree, {"review": REVIEWS, "order": ORDERS})
    assert out.docs == [
        {"cid": 100, "pid": 10, "rating": 4.5},
        {"cid": 101, "pid": 11, "rating": 3.0},
    ]


def test_doc_join_merge_keeps_left_value():
    left = Collection("l", [{"k": 1, "x": "left"}])
    right = Collection("r", [{"k": 1, "x": "right", "y": 2}])
    tree = node("join", scan("l"), scan("r"), pred=parse_predicate("l.k = r.k"))
    out = execute_tree(tree, {"l": left, "r": right})
    assert out.docs == [{"k": 1, "x": "left", "y": 2}]


def test_qualified_refs_resolve_after_merge():
    tree = node("filter",
                node("join", scan("review"), scan("order"),
                     pred=parse_predicate("review.oid = order.oid")),
                pred=parse_predicate("order.cid = 101"))
    out = execute_tree(tree, {"review": REVIEWS, "order": ORDERS})
    assert [d["cid"] for d in out.docs] == [101]


def test_filter_empty_relation_keeps_schema():
    rel = Relation([("a", INT), ("b", STRING)], [])
    out = execute_tree(node("filter", scan("t"), pred=parse_predicate("a = 1")),
                       {"t": rel})
    assert out.schema == rel.schema
    assert out.rows == []


def test_relational_equi_join_matches_nested_loop_oracle():
    rng = random.Random(21)
    left = Relation([("k", INT), ("a", INT)],
                    [(rng.randrange(8), rng.randrange(100)) for _ in range(50)])
    right = Relation([("k", INT), ("b", INT)],
                     [(rng.randrange(8), rng.randrange(100)) for _ in range(50)])
    tree = node("join", scan("l", "l"), scan("r", "r"),
                pred=parse_predicate("l.k = r.k"))
    got = execute_tree(tree, {"l": left, "r": right})
    oracle = [lr + rr for lr in left.rows for rr in right.rows if lr[0] == rr[0]]
    assert multiset(got.rows) == multiset(oracle)
    assert [n for n, _ in got.schema] == ["l.k", "a", "r.k", "b"]


def test_join_with_nulls_never_matches():
    left = Relation([("k", INT)], [(None,), (1,)])
    right = Relation([("k", INT)], [(None,), (1,)])
    tree = node("join", scan("l", "l"), scan("r", "r"),
                pred=parse_predicate("l.k = r.k"))
    out = execute_tree(tree, {"l": left, "r": right})
    assert out.rows == [(1, 1)]


def test_non_equi_join_nested_loop():
    left = Relation([("a", INT)], [(1,), (5,), (9,)])
    right = Relation([("b", INT)], [(3,), (7,)])
    tree = node("join", scan("l", "l"), scan("r", "r"),
                pred=parse_predicate("a < b"))
    out = execute_tree(tree, {"l": left, "r": right})
    oracle = [(a, b) for (a,) in left.rows for (b,) in right.rows if a < b]
    assert multiset(out.rows) == multiset(oracle)


def test_join_equi_plus_residual():
    left = Relation([("k", INT), ("v", INT)], [(1, 10), (1, 2), (2, 10)])
    right = Relation([("k", INT), ("w", INT)], [(1, 5), (2, 50)])
    tree = node("join", scan("l", "l"), scan("r", "r"),
                pred=parse_predicate("l.k = r.k and v > w"))
    out = execute_tree(tree, {"l": left, "r": right})
    assert out.rows == [(1, 10, 1, 5)]


# -------------------------------------------------------------------- unwind

def test_unwind_splits_lists():
    col = Collection("c", [{"a": [1, 2], "id": 7}])
    out = execute_tree(node("unwind", scan("c"), path="a"), {"c": col})
    assert out.docs == [{"a": 1, "id": 7}, {"a": 2, "id": 7}]


def test_unwind_drops_docs_without_path():
    col = Collection("c", [{"a": [1]}, {"b": 2}])
    out = execute_tree(node("unwind", scan("c"), path="a"), {"c": col})
    assert out.docs == [{"a": 1}]


def test_unwind_non_list_is_type_error():
    col = Collection("c", [{"a": 3}])
    with pytest.raises(TypeMismatchError):
        execute_tree(node("unwind", scan("c"), path="a"), {"c": col})


def test_unwind_nested_path_preserves_other_fields():
    col = Collection("c", [{"m": {"tags": ["x", "y"], "n": 1}, "id": 4}])
    out = execute_tree(node("unwind", scan("c"), path="m.tags"), {"c": col})
    assert out.docs == [
        {"m": {"tags": "x", "n": 1}, "id": 4},
        {"m": {"tags": "y", "n": 1}, "id": 4},
    ]


def test_unwind_count_matches_counting_oracle():
    rng = random.Random(4)
    docs = []
    for i in range(60):
        d = {"id": i}
        if rng.random() < 0.7:
            d["xs"] = [rng.random() for _ in range(rng.randrange(4))]
        docs.append(d)
    out = execute_tree(node("unwind", scan("c"), path="xs"),
                       {"c": Collection("c", docs)})
    expect = sum(len(d["xs"]) for d in docs if "xs" in d)
    assert len(out.docs) == expect


# ----------------------------------------------------------------- aggregate

def test_count_star():
    rel = Relation([("id", INT)], [(i,) for i in range(7)])
    out = execute_tree(node("aggregate", scan("t"),
                            aggs=[("count", None, "count")]), {"t": rel})
    assert out.rows == [(7,)]


def test_aggregate_empty_input_identity_row():
    rel = Relation([("x", INT)], [])
    out = execute_tree(
        node("aggregate", scan("t"),
             aggs=[("count", None, "n"), ("sum", "x", "s")]), {"t": rel})
    assert out.rows == [(0, None)]


def test_count_star_includes_nulls_sum_excludes():
    rel = Relation([("x", INT)], [(1,), (None,), (3,)])
    out = execute_tree(
        node("aggregate", scan("t"),
             aggs=[("count", None, "n"), ("count", "x", "nx"),
                   ("sum", "x", "s"), ("avg", "x", "a")]), {"t": rel})
    assert out.rows == [(3, 2, 4, 2.0)]


def test_grouped_aggregate_matches_reference():
    rng = random.Random(30)
    rows = [(rng.randrange(5), rng.randrange(20), rng.choice([None, 1.5, 2.5]))
            for _ in range(200)]
    rel = Relation([("g", INT), ("x", INT), ("y", FLOAT)], rows)
    out = execute_tree(
        node("aggregate", scan("t"), keys=["g"],
             aggs=[("count", None, "n"), ("sum", "x", "sx"),
                   ("min", "x", "mn"), ("max", "x", "mx"),
                   ("avg", "y", "ay")]), {"t": rel})

    expect = {}
    for g, x, y in rows:  # independent dict-based aggregation
        e = expect.setdefault(g, {"n": 0, "sx": 0, "mn": None, "mx": None,
                                  "ys": [], })
        e["n"] += 1
        e["sx"] += x
        e["mn"] = x if e["mn"] is None else min(e["mn"], x)
        e["mx"] = x if e["mx"] is None else max(e["mx"], x)
        if y is not None:
            e["ys"].append(y)
    got = {r[0]: r[1:] for r in out.rows}
    assert set(got) == set(expect)
    for g, e in expect.items():
        avg = sum(e["ys"]) / len(e["ys"]) if e["ys"] else None
        assert got[g] == (e["n"], e["sx"], e["mn"], e["mx"], pytest.approx(avg))


def test_sum_on_strings_is_type_error():
    rel = Relation([("s", STRING)], [("a",)])
    with pytest.raises(TypeMismatchError):
        execute_tree(node("aggregate", scan("t"), aggs=[("sum", "s", "x")]),
                     {"t": rel})


def test_aggregate_on_documents():
    col = Collection("c", [{"g": "a", "v": 1}, {"g": "a", "v": 3}, {"g": "b"}])
    out = execute_tree(
        node("aggregate", scan("c"), keys=["g"],
             aggs=[("count", None, "n"), ("sum", "v", "s")]), {"c": col})
    assert out.rows == [("a", 2, 4), ("b", 1, None)]


def test_aggregate_output_types():
    BOOL = ValueType("bool")
    rel = Relation([("g", INT), ("f", FLOAT), ("b", BOOL)],
                   [(1, 2, True), (2, 2.5, False), (2, None, True)])
    out = execute_tree(
        node("aggregate", scan("t"), keys=["g"],
             aggs=[("sum", "f", "s"), ("min", "f", "mn"), ("max", "b", "mb"),
                   ("min", "b", "nb"), ("count", "f", "n"),
                   ("avg", "f", "a")]), {"t": rel})
    # a relation's sum/min/max keep the column's declared type, whatever
    # the first group's result looks like
    assert [t for _, t in out.schema] == [INT, FLOAT, FLOAT, BOOL, BOOL, INT,
                                          FLOAT]
    assert out.rows == [(1, 2.0, 2.0, True, True, 1, 2.0),
                        (2, 2.5, 2.5, True, False, 1, 2.5)]
    # documents: the type of all group results, FLOAT when every one is null
    col = Collection("c", [{"g": "a", "v": 2, "ok": True},
                           {"g": "b", "v": 2.5, "ok": False}, {"g": "c"}])
    out = execute_tree(
        node("aggregate", scan("c"), keys=["g"],
             aggs=[("sum", "v", "s"), ("max", "ok", "m"),
                   ("min", "none", "z")]), {"c": col})
    assert [t for _, t in out.schema][1:] == [FLOAT, BOOL, FLOAT]


# --------------------------------------------------------------- sort/limit

def test_sort_desc_limit_is_prefix_of_full_sort():
    rng = random.Random(31)
    rows = [(i, rng.choice([None, rng.random() * 5])) for i in range(40)]
    rel = Relation([("id", INT), ("rating", FLOAT)], rows)
    full = execute_tree(node("sort", scan("t"), keys=[("rating", True)]),
                        {"t": rel})
    top = execute_tree(node("limit",
                            node("sort", scan("t"), keys=[("rating", True)]),
                            n=10), {"t": rel})
    assert top.rows == full.rows[:10]
    ratings = [r[1] for r in full.rows]
    non_null = [r for r in ratings if r is not None]
    assert non_null == sorted(non_null, reverse=True)
    assert ratings[len(non_null):] == [None] * (len(ratings) - len(non_null))


def test_sort_nulls_last_ascending_too():
    rel = Relation([("x", INT)], [(None,), (2,), (1,)])
    out = execute_tree(node("sort", scan("t"), keys=[("x", False)]), {"t": rel})
    assert out.rows == [(1,), (2,), (None,)]


def test_sort_ties_broken_by_full_row():
    rel = Relation([("k", INT), ("v", STRING)],
                   [(1, "b"), (1, "a"), (0, "z")])
    out = execute_tree(node("sort", scan("t"), keys=[("k", False)]), {"t": rel})
    assert out.rows == [(0, "z"), (1, "a"), (1, "b")]


def test_multi_key_sort():
    rel = Relation([("a", INT), ("b", INT)],
                   [(1, 3), (0, 9), (1, 1), (0, 2)])
    out = execute_tree(node("sort", scan("t"),
                            keys=[("a", False), ("b", True)]), {"t": rel})
    assert out.rows == [(0, 9), (0, 2), (1, 3), (1, 1)]


# ----------------------------------------------------------- plumbing / misc

def test_union_concatenates():
    a = Relation([("x", INT)], [(1,), (2,)])
    b = Relation([("x", INT)], [(2,), (3,)])
    out = execute_tree(node("union", scan("a"), scan("b")), {"a": a, "b": b})
    assert multiset(out.rows) == multiset([(1,), (2,), (2,), (3,)])


def test_union_arity_mismatch():
    a = Relation([("x", INT)], [(1,)])
    b = Relation([("x", INT), ("y", INT)], [(1, 2)])
    with pytest.raises(TypeMismatchError):
        execute_tree(node("union", scan("a"), scan("b")), {"a": a, "b": b})


def test_missing_dataset():
    with pytest.raises(NotFoundError):
        execute_tree(scan("nope"), {})


def test_unresolved_alias_is_plan_error():
    with pytest.raises(PlanError):
        execute_tree(node("alias_ref", key="n3"), {})


def test_alias_ref_resolves_registry_entry():
    rel = Relation([("x", INT)], [(5,)])
    out = execute_tree(node("alias_ref", key="n3"), {"n3": rel})
    assert out.rows == [(5,)]


def test_unknown_column_is_plan_error():
    rel = Relation([("x", INT)], [(5,)])
    with pytest.raises(PlanError):
        execute_tree(node("filter", scan("t"), pred=parse_predicate("y = 1")),
                     {"t": rel})


def test_unknown_column_fails_on_empty_input_and_behind_false_conjunct():
    for rows in ([], [(1,), (2,)]):
        rel = Relation([("x", INT)], rows)
        with pytest.raises(PlanError, match="nosuch"):
            execute_tree(node("filter", scan("t"), pred=parse_predicate(
                "x > 5 and nosuch = 1")), {"t": rel})


def test_not_drops_null_rows_like_not_equal():
    # three-valued logic: "x = 3" is unknown on a null x, and so is its NOT
    rel = Relation([("x", INT)], [(3,), (4,), (None,)])
    for text in ("not x = 3", "x != 3", "not (x = 3 and x = x)"):
        out = execute_tree(node("filter", scan("t"),
                                pred=parse_predicate(text)), {"t": rel})
        assert out.rows == [(4,)], text


def test_join_keeps_only_pairs_where_condition_is_true():
    left = Relation([("k", INT), ("v", INT)], [(1, None), (1, 2)])
    right = Relation([("k", INT), ("w", INT)], [(1, 5)])
    for text in ("l.k = r.k and not v > w", "not v > w"):  # hashed, nested
        out = execute_tree(node("join", scan("l", "l"), scan("r", "r"),
                                pred=parse_predicate(text)),
                           {"l": left, "r": right})
        assert out.rows == [(1, 2, 1, 5)], text


def test_int_keys_beyond_float_precision_stay_distinct():
    big = 2**53  # big + 1 rounds to big as a float
    left = Relation([("k", INT)], [(big,), (1,)])
    right = Relation([("k", FLOAT)], [(big + 1,), (big,), (1.0,)])
    for text in ("l.k = r.k", "l.k <= r.k and l.k >= r.k"):  # hashed, nested
        out = execute_tree(node("join", scan("l", "l"), scan("r", "r"),
                                pred=parse_predicate(text)),
                           {"l": left, "r": right})
        assert out.rows == [(big, big), (1, 1.0)], text
    rel = Relation([("k", INT)], [(big,), (big + 1,), (big,)])
    out = execute_tree(node("aggregate", scan("t"), keys=["k"],
                            aggs=[("count", None, "n")]), {"t": rel})
    assert sorted(out.rows) == [(big, 2), (big + 1, 1)]


def test_column_references_resolve_once_per_operator(monkeypatch):
    from multimodel import rd_engine
    calls = []
    resolve = rd_engine._col_index

    def spy(frame, path):
        calls.append(path)
        return resolve(frame, path)

    monkeypatch.setattr(rd_engine, "_col_index", spy)
    tree = node("aggregate", scan("t"), keys=["g"],
                aggs=[("sum", "v", "s"), ("max", "v", "m")])
    counts = []
    for n in (100, 10_000):
        rel = Relation([("g", INT), ("v", INT)],
                       [(i % 7, i) for i in range(n)])
        calls.clear()
        out = execute_tree(tree, {"t": rel})
        assert len(out.rows) == 7
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1]


def test_predicate_type_mismatch_is_type_error():
    rel = Relation([("x", STRING)], [("a",)])
    with pytest.raises(TypeMismatchError):
        execute_tree(node("filter", scan("t"), pred=parse_predicate("x > 3")),
                     {"t": rel})


def test_project_renames():
    rel = Relation([("x", INT), ("y", INT)], [(1, 2)])
    out = execute_tree(node("project", scan("t"), cols=["y", "x"],
                            names=["first", "second"]), {"t": rel})
    assert out.schema == [("first", INT), ("second", INT)]
    assert out.rows == [(2, 1)]


def test_random_operator_pipeline_matches_reference():
    rng = random.Random(77)
    rows = [(rng.randrange(10), rng.randrange(50), rng.random())
            for _ in range(300)]
    rel = Relation([("g", INT), ("x", INT), ("w", FLOAT)], rows)
    tree = node("limit",
                node("sort",
                     node("project",
                          node("filter", scan("t"),
                               pred=parse_predicate("x >= 10 and g != 3")),
                          cols=["g", "w"]),
                     keys=[("w", True)]),
                n=25)
    got = execute_tree(tree, {"t": rel})
    ref = [(g, w) for g, x, w in rows if x >= 10 and g != 3]
    ref.sort(key=lambda r: (r[0], r[1]))
    ref.sort(key=lambda r: r[1], reverse=True)
    assert got.rows == ref[:25]
