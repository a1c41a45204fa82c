"""Row-at-a-time reference for the relational operators.

The engine runs relations a column at a time (``rd_engine``).  This module
keeps the row-wise form those operators replaced: a frame holds a list of row
tuples, every operator runs one row at a time through ``itemgetter``s, and
``compile_predicate`` evaluates filter and join conditions row by row, so an
AND or OR stops at the first item that settles a row.  ``run`` executes the
same plan trees over relations; ``test_columnar.py`` compares the two.

Column resolution (``_col_index``, ``_split_equi``) is shared with the engine:
it is not what the comparison tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from operator import itemgetter

from multimodel.errors import PlanError, TypeMismatchError
from multimodel.models import FLOAT, INT
from multimodel.predicates import compile_predicate, universal_key
from multimodel.rd_engine import _col_index, _public_names, _split_equi


@dataclass
class RowFrame:
    cols: list  # [(qualifier | None, name)]
    types: list
    rows: list  # [tuple]


def run(tree, registry: dict) -> tuple[list, list]:
    """Execute a plan tree of relational operators over the registry's
    relations, a row at a time: the result's schema and row tuples."""
    f = _exec(tree, registry)
    return list(zip(_public_names(f.cols), f.types)), f.rows


def _exec(n, reg):
    if n.op == "scan":
        rel = reg[n.params["name"]]
        q = n.params.get("qualifier") or n.params["name"]
        return RowFrame([(q, name) for name, _ in rel.schema],
                        [t for _, t in rel.schema], list(rel.rows))
    kids = [_exec(c, reg) for c in n.children]
    p = n.params
    if n.op == "filter":
        return _filter(kids[0], p["pred"])
    if n.op == "project":
        return _project(kids[0], p["cols"], p.get("names"))
    if n.op == "sort":
        return _sort(kids[0], p["keys"])
    if n.op == "limit":
        return RowFrame(kids[0].cols, kids[0].types, kids[0].rows[:p["n"]])
    if n.op == "aggregate":
        return _aggregate(kids[0], p.get("keys", []), p["aggs"])
    if n.op == "union":
        return _union(kids[0], kids[1])
    if n.op == "join":
        return _join(kids[0], kids[1], p["pred"])
    raise PlanError(f"unknown operator {n.op!r}")


def _resolver(f):
    return lambda path: itemgetter(_col_index(f, path))


def _filter(f, pred):
    keep = compile_predicate(pred, _resolver(f))
    return RowFrame(f.cols, f.types, [r for r in f.rows if keep(r)])


def _project(f, cols, names):
    out_names = names or [c.rpartition(".")[2] for c in cols]
    idx = [_col_index(f, c) for c in cols]
    return RowFrame([(None, n) for n in out_names], [f.types[i] for i in idx],
                    [tuple(r[i] for i in idx) for r in f.rows])


def _sort_key(v, desc: bool):
    # nulls sort last under both directions
    null_rank = (0 if desc else 1) if v is None else (1 if desc else 0)
    return (null_rank, universal_key(v))


def _sort(f, keys):
    rows = sorted(f.rows, key=lambda r: tuple(universal_key(v) for v in r))
    for ref, desc in reversed(keys):
        i = _col_index(f, ref)
        rows.sort(key=lambda r: _sort_key(r[i], desc), reverse=desc)
    return RowFrame(f.cols, f.types, rows)


def _union(a, b):
    if len(a.cols) != len(b.cols):
        raise TypeMismatchError(
            f"union arity mismatch: {len(a.cols)} vs {len(b.cols)}")
    types, convert = [], []
    for (_, name), ta, tb in zip(a.cols, a.types, b.types):
        kinds = {ta.kind, tb.kind}
        if ta == tb:
            t = ta
        elif kinds == {"int", "uint"}:
            t = INT
        elif kinds <= {"int", "uint", "float"}:
            t = FLOAT
        else:
            raise TypeMismatchError(f"union column {name!r}: {ta} vs {tb}")
        types.append(t)
        convert.append((t.kind == "float" and ta.kind != "float",
                        t.kind == "float" and tb.kind != "float"))

    def typed(rows, side):
        return [tuple(float(v) if c[side] and v is not None else v
                      for v, c in zip(r, convert)) for r in rows]
    return RowFrame(a.cols, types, typed(a.rows, 0) + typed(b.rows, 1))


_STAR = object()  # count(*) marker: counts rows, nulls included


def _aggregate(f, keys, aggs):
    for func, ref, _ in aggs:
        if ref is None and func != "count":
            raise PlanError(f"{func}(*) is not defined; name an attribute")
    key_gets = [itemgetter(_col_index(f, k)) for k in keys]
    val_gets = [(func, (lambda r: _STAR) if ref is None
                 else itemgetter(_col_index(f, ref)))
                for func, ref, _ in aggs]
    groups: dict = {}  # insertion order == first appearance
    for r in f.rows:
        kv = tuple(get(r) for get in key_gets)
        gk = tuple(universal_key(v) for v in kv)
        if gk not in groups:
            groups[gk] = (kv, [{"n": 0, "value": None} for _ in aggs])
        for acc, (func, get) in zip(groups[gk][1], val_gets):
            _acc_add(acc, func, get(r))
    out = []
    if not keys and not f.rows:  # no grouping over no rows: identity row
        out.append(tuple(_acc_final({"n": 0, "value": None}, func)
                         for func, _, _ in aggs))
    for kv, accs in groups.values():
        out.append(kv + tuple(_acc_final(acc, func)
                              for acc, (func, _, _) in zip(accs, aggs)))
    cols = [(None, k.rpartition(".")[2]) for k in keys] + \
        [(None, name) for _, _, name in aggs]
    types = [f.types[_col_index(f, k)] for k in keys] + [
        INT if func == "count" else FLOAT if func == "avg" else
        f.types[_col_index(f, ref)] for func, ref, _ in aggs]
    return RowFrame(cols, types, out)


def _acc_add(acc, func, v):
    if func == "count":
        if v is _STAR or v is not None:
            acc["n"] += 1
        return
    if v is None:
        return  # nulls never feed sum/min/max/avg
    if func in ("sum", "avg"):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeMismatchError(f"{func} needs numeric input, got {v!r}")
        acc["n"] += 1
        acc["value"] = v if acc["value"] is None else acc["value"] + v
    elif func in ("min", "max"):
        cur = acc["value"]
        if cur is not None and type(cur) is not type(v) and not (
                isinstance(cur, (int, float)) and isinstance(v, (int, float))):
            raise TypeMismatchError(f"{func} over mixed types")
        acc["value"] = v if cur is None else (
            min(cur, v) if func == "min" else max(cur, v))
    else:
        raise PlanError(f"unknown aggregate {func!r}")


def _acc_final(acc, func):
    if func == "count":
        return acc["n"]
    if func == "avg":
        return None if acc["n"] == 0 else acc["value"] / acc["n"]
    return acc["value"]


def _join(left, right, pred):
    out = RowFrame(left.cols + right.cols, left.types + right.types, [])

    def has(f):
        def side_has(path):
            try:
                _col_index(f, path)
            except PlanError:
                return False
            return True
        return side_has

    keyed, residual = _split_equi(pred, has(left), has(right))
    lgets = [itemgetter(_col_index(left, a)) for a, _ in keyed]
    rgets = [itemgetter(_col_index(right, b)) for _, b in keyed]
    cond = residual if keyed else pred
    keep = (lambda rec: True) if cond is None else \
        compile_predicate(cond, _resolver(out))

    def key(rec, gets):  # None when a key is null: it matches nothing
        kv = [get(rec) for get in gets]
        return None if None in kv else tuple(map(universal_key, kv))

    table: dict = {}
    for rr in right.rows:
        k = key(rr, rgets)
        if k is not None:
            table.setdefault(k, []).append(rr)
    for lr in left.rows:
        for rr in table.get(key(lr, lgets), ()):
            rec = operator.add(lr, rr)
            if keep(rec):
                out.rows.append(rec)
    return out
