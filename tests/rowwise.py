"""Row-at-a-time reference for the relational and document operators.

The engine runs both record models a column at a time (``rd_engine``): a
collection is one column per top-level key.  This module keeps the row-wise
forms those operators replaced: a relation frame holds a list of row tuples,
a document frame a list of dicts, and every operator runs one record at a
time through getters.  ``compile_predicate`` evaluates filter and join
conditions record by record, so an AND or OR stops at the first item that
settles a record; a document sort orders by ``universal_key`` of the whole
document and then by each key in turn; a document join hashes its keys into
a dict and merges each pair left first.  ``run`` executes the same plan
trees; ``test_columnar.py`` compares the two.

A document path is read from each dict by ``compile_path`` (``_doc_value``),
a relation joins a collection as one dict per row (``_rel_to_doc``),
``_unwind`` copies a document once per list element, and
``records_to_cells`` is the walk over documents that ``to_array`` feeds to
the array builder.  Column reference resolution (``_col_index``,
``_split_equi``) and the dimension checks are shared with the engine: they
are not what the comparison tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from multimodel.bridge import _dim_problem, _is_dim
from multimodel.errors import BindingError, PlanError, TypeMismatchError
from multimodel.models import (ABSENT, FLOAT, INT, Collection,
                               compile_path, compile_set, infer_column_type)
from multimodel.predicates import (And, Cmp, Lit, Not, Or, Ref,
                                   compare_values, universal_key)
from multimodel.rd_engine import _col_index, _public_names, _split_equi


@dataclass
class RowFrame:
    cols: list  # [(qualifier | None, name)]
    types: list
    rows: list  # [tuple]


@dataclass
class DocRows:
    quals: tuple
    docs: list  # [dict]


def run(tree, registry: dict):
    """Execute a plan tree over the registry's relations and collections, a
    record at a time: a relation's schema and row tuples, or a collection's
    documents."""
    f = _exec(tree, registry)
    if isinstance(f, DocRows):
        return f.docs
    return list(zip(_public_names(f.cols), f.types)), f.rows


def _exec(n, reg):
    if n.op == "scan":
        obj = reg[n.params["name"]]
        q = n.params.get("qualifier") or n.params["name"]
        if isinstance(obj, Collection):
            return DocRows((q,), list(obj.docs))
        return RowFrame([(q, name) for name, _ in obj.schema],
                        [t for _, t in obj.schema], list(obj.rows))
    kids = [_exec(c, reg) for c in n.children]
    p = n.params
    if n.op == "filter":
        return _filter(kids[0], p["pred"])
    if n.op == "project":
        return _project(kids[0], p["cols"], p.get("names"))
    if n.op == "sort":
        return _sort(kids[0], p["keys"])
    if n.op == "limit":
        return _like(kids[0], _records(kids[0])[:p["n"]])
    if n.op == "aggregate":
        return _aggregate(kids[0], p.get("keys", []), p["aggs"])
    if n.op == "union":
        return _union(kids[0], kids[1])
    if n.op == "join":
        return _join(kids[0], kids[1], p["pred"])
    if n.op == "unwind":
        return _unwind(kids[0], p["path"])
    raise PlanError(f"unknown operator {n.op!r}")


def _records(f) -> list:
    return f.docs if isinstance(f, DocRows) else f.rows


def _like(f, records: list):
    """A frame of the same model and columns as ``f`` over ``records``."""
    if isinstance(f, DocRows):
        return DocRows(f.quals, records)
    return RowFrame(f.cols, f.types, records)


def _doc_value(quals: tuple, path: str, absent=None):
    """``doc -> value`` (``absent`` when missing).  A path whose head is one
    of the frame's qualifiers falls back to the rest of it."""
    head, _, rest = path.partition(".")
    if not (rest and head in quals):
        return compile_path(path, absent)
    get, get_rest = compile_path(path), compile_path(rest, absent)
    return lambda doc: get_rest(doc) if (v := get(doc)) is ABSENT else v


def _getter(f, path: str):
    """``record -> value`` of a path, None for null or absent."""
    if isinstance(f, DocRows):
        return _doc_value(f.quals, path)
    return itemgetter(_col_index(f, path))


# ------------------------------------------------------------- predicates

def compile_predicate(node, resolve: Callable[[str], Callable]):
    """Compile a predicate into ``record -> True | False | None`` (None is
    unknown).  ``resolve(path)`` is called once per reference and returns
    the getter ``record -> value`` (None for null) that every record then
    uses.  An AND or OR stops at the first item that settles the record."""
    if isinstance(node, Cmp):
        op = node.op
        left = _operand(node.left, resolve)
        right = _operand(node.right, resolve)

        def cmp(rec):
            a, b = left(rec), right(rec)
            if a is None or b is None:
                return None
            return compare_values(op, a, b)
        return cmp
    if isinstance(node, (And, Or)):
        items = [compile_predicate(n, resolve) for n in node.items]
        decisive = isinstance(node, Or)  # the value that settles the result

        def junction(rec):
            unknown = False
            for item in items:
                v = item(rec)
                if v is None:
                    unknown = True
                elif v == decisive:
                    return decisive
            return None if unknown else not decisive
        return junction
    if isinstance(node, Not):
        item = compile_predicate(node.item, resolve)
        return lambda rec: None if (v := item(rec)) is None else not v
    raise ValueError(f"not a predicate node: {node!r}")


def _operand(node, resolve):
    if isinstance(node, Lit):
        return lambda rec, v=node.value: v
    if isinstance(node, Ref):
        return resolve(node.path)
    raise ValueError(f"not an operand: {node!r}")


# -------------------------------------------------------------- operators

def _filter(f, pred):
    keep = compile_predicate(pred, lambda path: _getter(f, path))
    return _like(f, [r for r in _records(f) if keep(r)])


def _project(f, cols, names):
    out_names = names or [c.rpartition(".")[2] for c in cols]
    if isinstance(f, DocRows):  # a path a document lacks is left out
        gets = [(n, _doc_value(f.quals, c, ABSENT))
                for c, n in zip(cols, out_names)]
        return DocRows(f.quals, [
            {n: v for n, get in gets if (v := get(d)) is not ABSENT}
            for d in f.docs])
    idx = [_col_index(f, c) for c in cols]
    return RowFrame([(None, n) for n in out_names], [f.types[i] for i in idx],
                    [tuple(r[i] for i in idx) for r in f.rows])


def _sort_key(v, desc: bool):
    # nulls sort last under both directions
    null_rank = (0 if desc else 1) if v is None else (1 if desc else 0)
    return (null_rank, universal_key(v))


def _sort(f, keys):
    """The whole record's ``universal_key`` order (each attribute in turn
    for a row), then a stable sort by each key from the last to the first."""
    whole = universal_key if isinstance(f, DocRows) else \
        (lambda r: tuple(map(universal_key, r)))
    recs = sorted(_records(f), key=whole)
    for ref, desc in reversed(keys):
        get = _getter(f, ref)
        recs.sort(key=lambda r: _sort_key(get(r), desc), reverse=desc)
    return _like(f, recs)


def _union(a, b):
    if isinstance(a, DocRows) and isinstance(b, DocRows):
        return DocRows(tuple(dict.fromkeys(a.quals + b.quals)),
                       a.docs + b.docs)
    if isinstance(a, DocRows) or isinstance(b, DocRows):
        raise TypeMismatchError("cannot union a relation with a collection")
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


def _unwind(f, path: str):
    """One copy of each document per element of the list at ``path``, the
    element in the list's place; a document lacking the path gives none."""
    if not isinstance(f, DocRows):
        raise TypeMismatchError("unwind applies to collections")
    get, set_value = compile_path(path), compile_set(path)
    docs = []
    for d in f.docs:
        v = get(d)
        if v is ABSENT:
            continue
        if not isinstance(v, list):
            raise TypeMismatchError(f"unwind path {path!r} is not a list")
        docs.extend(set_value(d, elem) for elem in v)
    return DocRows(f.quals, docs)


_STAR = object()  # count(*) marker: counts rows, nulls included


def _aggregate(f, keys, aggs):
    """Groups in first-appearance order, keyed on ``universal_key``.  A
    relation's columns keep their declared types; over documents each output
    column has the type of the values it holds."""
    for func, ref, _ in aggs:
        if ref is None and func != "count":
            raise PlanError(f"{func}(*) is not defined; name an attribute")
    key_gets = [_getter(f, k) for k in keys]
    val_gets = [(func, (lambda r: _STAR) if ref is None else _getter(f, ref))
                for func, ref, _ in aggs]
    groups: dict = {}  # insertion order == first appearance
    for r in _records(f):
        kv = tuple(get(r) for get in key_gets)
        gk = tuple(universal_key(v) for v in kv)
        if gk not in groups:
            groups[gk] = (kv, [{"n": 0, "value": None} for _ in aggs])
        for acc, (func, get) in zip(groups[gk][1], val_gets):
            _acc_add(acc, func, get(r))
    out = []
    if not keys and not _records(f):  # no grouping over no rows: identity row
        out.append(tuple(_acc_final({"n": 0, "value": None}, func)
                         for func, _, _ in aggs))
    for kv, accs in groups.values():
        out.append(kv + tuple(_acc_final(acc, func)
                              for acc, (func, _, _) in zip(accs, aggs)))
    cols = [(None, k.rpartition(".")[2]) for k in keys] + \
        [(None, name) for _, _, name in aggs]
    funcs = [None] * len(keys) + [func for func, _, _ in aggs]
    if isinstance(f, DocRows):
        values = list(zip(*out)) or [()] * len(cols)
        types = [INT if func == "count" else FLOAT if func == "avg" else
                 infer_column_type(vs) for func, vs in zip(funcs, values)]
    else:
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
        try:
            acc["value"] = v if cur is None else (
                min(cur, v) if func == "min" else max(cur, v))
        except TypeError:  # documents, or lists of incomparable values
            raise TypeMismatchError(f"{func} cannot order "
                                    f"{type(v).__name__} values") from None
    else:
        raise PlanError(f"unknown aggregate {func!r}")


def _acc_final(acc, func):
    if func == "count":
        return acc["n"]
    if func == "avg":
        return None if acc["n"] == 0 else acc["value"] / acc["n"]
    return acc["value"]


# ------------------------------------------------------------------ joins

def _hash_join(lrecs, rrecs, lgets, rgets, combine, keep):
    """Each pair of records whose keys are equal and not null, combined,
    where ``keep`` is true; without keys every pair, left-major."""
    def key(rec, gets):  # None when a key is null: it matches nothing
        kv = [get(rec) for get in gets]
        return None if None in kv else tuple(map(universal_key, kv))

    table: dict = {}
    for rr in rrecs:
        k = key(rr, rgets)
        if k is not None:
            table.setdefault(k, []).append(rr)
    out = []
    for lr in lrecs:
        for rr in table.get(key(lr, lgets), ()):
            rec = combine(lr, rr)
            if keep(rec):
                out.append(rec)
    return out


def _join(left, right, pred):
    if isinstance(left, RowFrame) and isinstance(right, RowFrame):
        return _join_rows(left, right, pred)
    return _join_docs(_as_docs(left), _as_docs(right), pred)


def _join_rows(left, right, pred):
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
    cond = residual if keyed else pred
    keep = (lambda rec: True) if cond is None else \
        compile_predicate(cond, lambda path: _getter(out, path))
    out.rows = _hash_join(left.rows, right.rows,
                          [_getter(left, a) for a, _ in keyed],
                          [_getter(right, b) for _, b in keyed],
                          operator.add, keep)
    return out


def _as_docs(f) -> DocRows:
    """A relation as one document per row, keyed by the names its public
    Relation gives its columns; a null stays a None value."""
    if isinstance(f, DocRows):
        return f
    quals = tuple(dict.fromkeys(q for q, _ in f.cols if q))
    names = _public_names(f.cols)
    return DocRows(quals, [dict(zip(names, r)) for r in f.rows])


def _join_docs(left: DocRows, right: DocRows, pred):
    quals = tuple(dict.fromkeys(left.quals + right.quals))

    def strip(path: str, side: DocRows) -> str:
        head, _, rest = path.partition(".")
        return rest if rest and head in side.quals else path

    def has(side: DocRows, other: DocRows):
        def side_has(p):
            head = p.partition(".")[0]
            if head in side.quals or head in other.quals:
                return head in side.quals
            get = _doc_value(side.quals, p)
            return any(get(d) is not None for d in side.docs)
        return side_has

    keyed, residual = _split_equi(pred, has(left, right), has(right, left))

    def merged(ld, rd):  # the left's keys, then the right's it lacks
        out = dict(ld)
        for k, v in rd.items():
            if k not in out:
                out[k] = v
        return out

    cond = residual if keyed else pred
    keep = (lambda rec: True) if cond is None else \
        compile_predicate(cond, lambda p: _doc_value(quals, p))
    return DocRows(quals, _hash_join(
        left.docs, right.docs,
        [_doc_value(left.quals, strip(a, left)) for a, _ in keyed],
        [_doc_value(right.quals, strip(b, right)) for _, b in keyed],
        merged, keep))


# ------------------------------------------------------ records to cells

def records_to_cells(docs, dim_paths, value_paths):
    """What ``to_array`` hands the array builder for a list of documents,
    one document at a time: the coordinates of the documents that have
    every dimension path, their values at ``value_paths``, each value
    column's inferred type and the tight extent.  Scanning a document's
    dimension paths in order, a missing one drops it and a value that is
    no coordinate before that is a BindingError; a kept document lacking a
    value path or holding null there is one too, and so is an int beyond
    int64 in a value column inferred INT."""
    coords, kept = [], []
    dim_gets = [(p, compile_path(p)) for p in dim_paths]
    for r, doc in enumerate(docs):
        row = []
        for path, get in dim_gets:
            v = get(doc)
            if v is ABSENT:
                break
            if not _is_dim(v):
                raise BindingError(f"document {r}: path {path!r} "
                                   f"{_dim_problem(v)}")
            row.append(v)
        else:
            coords.append(row)
            kept.append(r)
    values = []
    for path in value_paths:
        get = compile_path(path)
        values.append([get(docs[r]) for r in kept])
    for r, vs in zip(kept, zip(*values)):
        for path, v in zip(value_paths, vs):
            if v is ABSENT or v is None:
                what = "no" if v is ABSENT else "a null"
                raise BindingError(f"document {r} has {what} value attribute "
                                   f"{path!r}")
    types = [infer_column_type(v) for v in values]
    for path, vt, vs in zip(value_paths, types, values):
        for r, v in zip(kept, vs):
            if vt == INT and not -2 ** 63 <= v < 2 ** 63:
                raise BindingError(f"document {r}: value attribute {path!r} "
                                   f"must fit in a signed 64-bit integer, "
                                   f"got {v!r}")
    size = tuple(max(c) + 1 for c in zip(*coords)) if coords else \
        (1,) * len(dim_paths)
    return (np.asarray(coords, dtype=np.int64).reshape(len(coords),
                                                        len(dim_paths)),
            values, types, size)
