from __future__ import annotations

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import Engine, EngineConfig
from multimodel.errors import PlanError, ScriptError, TypeMismatchError
from multimodel.models import (column_of, compile_path, infer_column_type,
                               object_column)
from multimodel.predicates import (
    And,
    Cmp,
    Lit,
    Not,
    Or,
    Ref,
    compare_values,
    compile_columns,
    equi_conjuncts,
    format_predicate,
    parse_predicate,
    parse_sort_spec,
    universal_key,
)


def test_parse_simple_comparison():
    assert parse_predicate("a = 1") == Cmp("=", Ref("a"), Lit(1))
    assert parse_predicate("x.y >= 2.5") == Cmp(">=", Ref("x.y"), Lit(2.5))


def test_parse_precedence_and_binds_tighter_than_or():
    got = parse_predicate("a = 1 or b = 2 and c = 3")
    assert isinstance(got, Or)
    assert isinstance(got.items[1], And)


def test_parse_parens_override():
    got = parse_predicate("(a = 1 or b = 2) and c = 3")
    assert isinstance(got, And)
    assert isinstance(got.items[0], Or)


def test_parse_not():
    got = parse_predicate("not a = 1 and b = 2")
    assert isinstance(got, And)
    assert isinstance(got.items[0], Not)


def test_parse_literals():
    assert parse_predicate("a = 'it''s'".replace("''", "\\'")) == \
        Cmp("=", Ref("a"), Lit("it's"))
    assert parse_predicate("a != true").right == Lit(True)
    assert parse_predicate("a = null").right == Lit(None)
    assert parse_predicate("a = -3").right == Lit(-3)


def test_parse_errors_carry_position():
    with pytest.raises(ScriptError) as e:
        parse_predicate("a = $")
    assert "col 5" in str(e.value)
    with pytest.raises(ScriptError):
        parse_predicate("a =")
    with pytest.raises(ScriptError):
        parse_predicate("a = 1 extra")


def test_sort_spec():
    assert parse_sort_spec("rating DESC") == [("rating", True)]
    assert parse_sort_spec("a, b desc, c asc") == [
        ("a", False), ("b", True), ("c", False)]
    with pytest.raises(ScriptError):
        parse_sort_spec("a sideways")


# ---------------------------------------------------------------- evaluation

def test_null_comparisons_are_all_false():
    for op in ("=", "!=", "<", "<=", ">", ">="):
        assert compare_values(op, None, 1) is False
        assert compare_values(op, 1, None) is False
        assert compare_values(op, None, None) is False


def test_numeric_cross_type_equality():
    assert compare_values("=", 1, 1.0) is True
    assert compare_values("<", 1, 1.5) is True


def test_incomparable_types():
    assert compare_values("=", 1, "1") is False
    assert compare_values("!=", 1, "1") is True
    with pytest.raises(TypeMismatchError):
        compare_values("<", 1, "1")


def compiled(pred, records, column=object_column, get=dict.get):
    """``compile_columns`` over one column per path, built by ``column``
    from ``get(record, path)`` of every record: ``rows -> [True, False or
    None (unknown) for each row]``."""
    def resolve(path):
        col = column([get(r, path) for r in records])
        return lambda rows: (col.values[rows],
                             None if col.null is None else col.null[rows])
    keep = compile_columns(pred, resolve)

    def evaluate(rows):
        t, unknown = keep(np.asarray(rows, dtype=np.int64))
        return [None if u else x for x, u in zip(t.tolist(), unknown.tolist())]
    return evaluate


def test_ordering_documents_is_type_mismatch():
    assert compare_values("=", {"a": 1}, {"a": 1}) is True
    for a, b in (({"a": 1}, {"a": 2}), ([1], ["x"])):
        with pytest.raises(TypeMismatchError):
            compare_values("<", a, b)
        evaluate = compiled(parse_predicate("a < b"), [{"a": a, "b": b}])
        with pytest.raises(TypeMismatchError):
            evaluate([0])
    evaluate = compiled(parse_predicate("a = b"),
                        [{"a": {"a": 1}, "b": {"a": 1}}, {"a": [1], "b": ["x"]}])
    assert evaluate([0, 1]) == [True, False]


def test_eval_with_lookup():
    evaluate = compiled(parse_predicate("cid = 3 and rating > 2"),
                        [{"cid": 3, "rating": 4.5}, {"cid": 3, "rating": 1.0},
                         {"cid": 3, "rating": None}])
    assert evaluate([0, 1, 2]) == [True, False, None]
    assert evaluate([2, 0]) == [None, True]


def test_universal_key_total_order():
    vals = [None, False, True, -3, 2.5, 7, "a", "b", [1], {"k": 1}]
    keys = [universal_key(v) for v in vals]
    assert keys == sorted(keys)


# ------------------------------------------------------------------ analysis

def test_equi_conjuncts_full():
    pairs, rest = equi_conjuncts(parse_predicate("a.x = b.x and a.y = b.y"))
    assert pairs == [("a.x", "b.x"), ("a.y", "b.y")]
    assert rest is None


def test_equi_conjuncts_with_residual():
    pairs, rest = equi_conjuncts(parse_predicate("a.x = b.x and a.y > 3"))
    assert pairs == [("a.x", "b.x")]
    assert rest == Cmp(">", Ref("a.y"), Lit(3))


def test_or_yields_no_pairs():
    pairs, rest = equi_conjuncts(parse_predicate("a.x = b.x or a.y = b.y"))
    assert pairs == []
    assert rest is not None


def test_literal_equality_is_not_a_pair():
    pairs, rest = equi_conjuncts(parse_predicate("a.x = 3"))
    assert pairs == []
    assert rest == Cmp("=", Ref("a.x"), Lit(3))


_LEAVES = st.one_of(
    st.builds(Ref, st.from_regex(r"[a-z_][a-z0-9_]{0,3}(\.[a-z_]{1,3})?",
                                 fullmatch=True).filter(
        lambda p: p.split(".")[0].lower() not in
        ("and", "or", "not", "true", "false", "null"))),
    st.builds(Lit, st.one_of(st.none(), st.booleans(), st.integers(),
                             st.floats(allow_nan=False), st.text(max_size=6))))
_PREDICATES = st.recursive(
    st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              _LEAVES, _LEAVES),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(inner, min_size=2, max_size=3).map(tuple))),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_PREDICATES)
def test_formatted_predicates_parse_back_to_themselves(pred):
    text = format_predicate(pred)
    assert parse_predicate(text) == pred, text


def test_formatting_parenthesizes_only_compound_items():
    pred = parse_predicate(
        "a = 1 and (b != \"it's\" or not c < -2.5e-7) and d = null")
    assert format_predicate(pred) == \
        "a = 1 AND (b != 'it\\'s' OR (NOT c < -2.5e-07)) AND d = null"


# ------------------------------------------------- three-valued evaluation

def test_kleene_truth_tables():
    # x is null, so "x = 1" is unknown; "y = 1" is true, "y = 2" false
    row = {"x": None, "y": 1}

    def ev(text):
        return compiled(parse_predicate(text), [row])([0])[0]

    assert ev("x = 1") is None and ev("x != 1") is None
    assert ev("not x = 1") is None
    assert ev("x = 1 and y = 2") is False
    assert ev("x = 1 and y = 1") is None
    assert ev("x = 1 or y = 1") is True
    assert ev("x = 1 or y = 2") is None
    assert ev("not (x = 1 or y = 2)") is None
    assert ev("y = null") is None


def test_compiled_predicate_resolves_each_reference_once():
    resolved = []

    columns = {"a": object_column([1, 2, 3]), "b": object_column([1, 1, 1])}

    def resolve(path):
        resolved.append(path)
        return lambda rows: (columns[path].values[rows], None)

    pred = compile_columns(parse_predicate("a = 1 or (a = 2 and b > 0)"),
                           resolve)
    assert resolved == ["a", "a", "b"]
    for rows in ([0, 1, 2], [2, 1]):
        t, _ = pred(np.array(rows))
        assert t.tolist() == [r < 2 for r in rows]
    assert resolved == ["a", "a", "b"]


# ------------------------------------------------------ property tests

OPS = ("=", "!=", "<", "<=", ">", ">=")
VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.floats(-3, 3, allow_nan=False), st.sampled_from("abc"))
F, U, T = 0, 1, 2  # Kleene truth values ordered so that AND=min, OR=max


def reference_kleene(node, lookup) -> int:
    """Evaluates every operand, no short cuts: AND is the minimum, OR the
    maximum and NOT the mirror image of F < U < T."""
    if isinstance(node, Cmp):
        a, b = (lookup(n.path) if isinstance(n, Ref) else n.value
                for n in (node.left, node.right))
        if a is None or b is None:
            return U
        return T if compare_values(node.op, a, b) else F
    if isinstance(node, Not):
        return T - reference_kleene(node.item, lookup)
    vals = [reference_kleene(n, lookup) for n in node.items]
    return min(vals) if isinstance(node, And) else max(vals)


def predicates(paths):
    operand = st.one_of(st.sampled_from(paths).map(Ref), VALUES.map(Lit))
    cmp = st.builds(Cmp, st.sampled_from(OPS), operand, operand)
    return st.recursive(cmp, lambda kids: st.one_of(
        kids.map(Not),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs)))),
        max_leaves=8)


def check_against_reference(pred, records, column, get, lookup):
    """Each record alone, then all together: the compiled predicate gives
    the reference's value wherever the reference orders no incomparable
    types, and raises only where the reference raises too (the reference
    evaluates every operand, the compiled form stops where a row is
    settled)."""
    want = []
    for rec in records:
        try:
            truth = reference_kleene(pred, lambda p: lookup(rec, p))
            want.append({F: False, U: None, T: True}[truth])
        except TypeMismatchError:
            want.append(TypeMismatchError)
    evaluate = compiled(pred, records, column, get)
    for i, w in enumerate(want):
        try:
            got = evaluate([i])
        except TypeMismatchError:
            assert w is TypeMismatchError
            continue
        assert w is TypeMismatchError or got == [w]
    if TypeMismatchError not in want:
        assert evaluate(range(len(records))) == want


COLS = ("a", "b", "c")


def typed_column(values):
    """int64, float64 or bool when the values allow, else object."""
    return column_of(values, infer_column_type(values))


@settings(max_examples=200, deadline=None)
@given(predicates(list(COLS)),
       st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=6))
def test_compiled_matches_reference_over_rows(pred, rows):
    lookup = lambda row, p: row[COLS.index(p)]  # noqa: E731
    check_against_reference(pred, rows, typed_column, lookup, lookup)


def documents():
    leaf = VALUES
    inner = st.dictionaries(st.sampled_from("cd"), leaf, max_size=2)
    return st.fixed_dictionaries({}, optional={
        "a": leaf, "b": st.one_of(leaf, inner)})


def walk(doc, path):
    """Reference path walk: null for anything missing along the way."""
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


@settings(max_examples=200, deadline=None)
@given(predicates(["a", "b", "b.c", "b.d", "e"]),
       st.lists(documents(), max_size=6))
def test_compiled_matches_reference_over_documents(pred, docs):
    check_against_reference(pred, docs, object_column,
                            lambda doc, p: compile_path(p, None)(doc), walk)


# --------------------------------------- ternary logic partitioning (TLP)

TLP_LITS = {"x": st.integers(-3, 3), "y": st.floats(-3, 3, allow_nan=False),
            "s": st.sampled_from("abc")}


@st.composite
def tlp_predicates(draw):
    def cmp():
        col = draw(st.sampled_from(sorted(TLP_LITS)))
        if draw(st.booleans()) and col != "s":  # number against number
            right = Ref("y" if col == "x" else "x")
        else:
            right = Lit(draw(st.one_of(st.none(), TLP_LITS[col])))
        return Cmp(draw(st.sampled_from(OPS)), Ref(col), right)

    def tree(depth):
        kind = draw(st.sampled_from(["cmp", "not", "and", "or"])) \
            if depth < 3 else "cmp"
        if kind == "cmp":
            return cmp()
        if kind == "not":
            return Not(tree(depth + 1))
        items = tuple(tree(depth + 1) for _ in range(2))
        return And(items) if kind == "and" else Or(items)
    return tree(0)


def render(node) -> str:
    if isinstance(node, Ref):
        return node.path
    if isinstance(node, Lit):
        v = node.value
        return ("null" if v is None else f'"{v}"' if isinstance(v, str)
                else repr(v))
    if isinstance(node, Cmp):
        return f"{render(node.left)} {node.op} {render(node.right)}"
    if isinstance(node, Not):
        return f"NOT ({render(node.item)})"
    joiner = " AND " if isinstance(node, And) else " OR "
    return "(" + joiner.join(render(n) for n in node.items) + ")"


def test_render_round_trips():
    pred = parse_predicate('NOT (x < 1.5 OR s = "b") AND y != null')
    assert parse_predicate(render(pred)) == pred


TLP_ROW = st.tuples(st.one_of(st.none(), TLP_LITS["x"]),
                    st.one_of(st.none(), TLP_LITS["y"]),
                    st.one_of(st.none(), TLP_LITS["s"]))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tlp_predicates(), st.lists(TLP_ROW, max_size=8))
def test_filter_partitions_rows_by_truth_value(pred, rows):
    """filter(p), filter(NOT p) and the rows where p is unknown together
    give back the input, and each part is the one the reference picks."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "t.csv"), "w") as f:
            f.write("x,y,s\n")
            for row in rows:  # an empty cell is a null
                f.write(",".join("" if v is None else str(v) for v in row)
                        + "\n")
        eng = Engine(EngineConfig(data_dir=d))
        table = eng.catalog.load_table("t")
        text = render(pred)
        parts = [eng.run(f"execute(openTable('t').filter('{p}'))").rows
                 for p in (text, f"NOT ({text})")]
    cols = [n for n, _ in table.schema]
    truth = [reference_kleene(pred, lambda p, r=r: r[cols.index(p)])
             for r in table.rows]
    unknown = [r for r, t in zip(table.rows, truth) if t == U]
    assert Counter(parts[0]) == Counter(
        r for r, t in zip(table.rows, truth) if t == T)
    assert Counter(parts[1]) == Counter(
        r for r, t in zip(table.rows, truth) if t == F)
    assert Counter(parts[0]) + Counter(parts[1]) + Counter(unknown) == \
        Counter(table.rows)


# ------------------------------------------------- reference resolution

@pytest.mark.parametrize("rows", ["", "1\n7\n"])
def test_unresolvable_reference_fails_before_any_row(tmp_path, rows):
    (tmp_path / "t.csv").write_text("id\n" + rows)
    eng = Engine(EngineConfig(data_dir=str(tmp_path)))
    # on an empty table, and behind a conjunct that is false on every row
    with pytest.raises(PlanError, match="nosuch"):
        eng.run("execute(openTable('t').filter('id > 5 AND nosuch = 1'))")
