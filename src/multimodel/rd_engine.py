"""Relational and document executor.

Operator-at-a-time evaluation of the planner's trees (``TreeNode``): scan,
filter, project, sort, limit, aggregate, union, join, unwind, plus
alias-refs into a registry of materialized results keyed by node id. One
executor serves both record models; documents use dotted paths wherever
relations use column references.

Both models run a column at a time.  A Relation holds one Column per
attribute; a Collection holds one per top-level key, and each document's
shape, the tuple of its keys (see models).  A path read from a collection
is its key's column, absent read as null, and below the top-level key it
is read per value.  Filter, sort, limit, aggregate and
the join's pairing have one body for both models: filter evaluates the
compiled predicate over whole columns with Kleene logic on masks; the
equi-join and grouping key on column codes; sort and limit order and cut
through index vectors.  Per-value work is left only where the values are
objects.  Project, union and the join's output change a value's shape
and stay model-specific: over documents they select, gather and overlay
columns, and map each input shape (or pair of shapes) to an output shape.
Dicts are built only to unwind and for a document sort's tie-break.

Column references carry optional qualifiers ("review.oid"): a bare name must
resolve to exactly one column, a qualified name matches its source relation.
A scan qualifies each column by the scan's qualifier, and a collection's
paths by its ``quals``; joins keep both sides' qualifiers so collisions stay
addressable.  A node's value is the Relation or Collection its tree made, a
record–array join's included (``bridge``), and every reader of the node, in
its own tree or in another partition or as the run's result, sees the same
columns and qualifiers.  Project and aggregate name their columns without a
qualifier and number a repeated name the way ``Relation.schema`` prints it
("x", "x#1"), so a relation never holds two unqualified columns of one
name; ``schema`` prints colliding qualified names as "qualifier.name".

Each operator resolves its references once, when it starts, into column
getters and compiled predicates; an unknown or ambiguous column raises
PlanError there, even on empty input.  A document path always resolves: a
document that lacks it reads null.

Null semantics are SQL's three-valued logic (see predicates): filters and
join conditions keep only the rows where the predicate is true.  Sorting
places nulls last under either direction, with full-row lexicographic order
(a whole document's universal_key) as the deterministic tie-break.  A join
of documents merges each pair into one document, the left's keys first and
then the right's keys that the left lacks.  Join output is in left input order, then
right input order; groups keep the order of their first rows.  Values keep
Python's semantics throughout: ints compare and sum exactly, a bool never
equals a number, and a float NaN matches nothing and groups alone.
"""

from __future__ import annotations

import numpy as np

from .errors import BindingError, NotFoundError, PlanError, TypeMismatchError
from .models import (ABSENT, FLOAT, INT, Collection, Column, Relation,
                     _numbered, object_column, column_of, compile_path,
                     compile_set, infer_column_type)
from .planner import TreeNode
from .predicates import (And, Cmp, Ref, compile_columns, equi_conjuncts,
                         universal_key)

__all__ = ["execute_tree", "node"]


def node(op: str, *children: TreeNode, **params) -> TreeNode:
    return TreeNode(op, params, children)


# ------------------------------------------------------------ ref resolution

def _col_index(rel: Relation, path: str) -> int:
    head, _, rest = path.partition(".")
    if rest:
        matches = [i for i, (q, n) in enumerate(rel.cols)
                   if q == head and n == rest]
        if not matches:  # a column literally named with the dotted path
            matches = [i for i, (_, n) in enumerate(rel.cols) if n == path]
    else:
        matches = [i for i, (_, n) in enumerate(rel.cols) if n == path]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise PlanError(f"cannot resolve column {path!r}")
    raise PlanError(f"ambiguous column reference {path!r}")


def _path(f: Collection, path: str) -> tuple[Column, np.ndarray]:
    """A document path's column and the mask of the rows that have it.  In
    the rows that lack the full path, a dotted path falls back to a
    top-level key spelled as the whole path (``a.k``, as ``_rel_to_doc``
    keys a colliding column), and then, when its head is one of the
    collection's qualifiers, to the rest of it."""
    col, present = f.path(path)
    head, _, rest = path.partition(".")
    if rest and path in f.columns and not present.all():
        other, has_other = f.columns[path], f.has(path)
        col, present = _overlay(col, present, other), present | has_other
    if rest and head in f.quals and not present.all():
        other, has_other = f.path(rest)
        col, present = _overlay(col, present, other), present | has_other
    return col, present


def _present(f, path: str) -> tuple[Column, np.ndarray]:
    """A path's column in either model and the mask of the rows that have
    it, every row of a relation; for the bridge, which reports a relation's
    name that resolves to no one column as a BindingError."""
    if isinstance(f, Collection):
        return _path(f, path)
    try:
        return f.columns[_col_index(f, path)], np.ones(f.n, dtype=bool)
    except PlanError:
        raise BindingError(f"relation has no attribute {path!r}") from None


def _overlay(a: Column, mask: np.ndarray, b: Column) -> Column:
    """a's value in the rows of ``mask``, b's in the others."""
    if mask.all():
        return a
    if not mask.any():
        return b
    va, vb = a.values, b.values
    if va.dtype != vb.dtype:
        va, vb = (np.fromiter(c.tolist(), object, len(c)) for c in (a, b))
    return Column(np.where(mask, va, vb),
                  np.where(mask, a.null_mask(), b.null_mask()))


def _getter(col: Column):
    """``rows -> (values, null mask or None)`` of one column."""
    if col.null is None:
        return lambda rows: (col.values[rows], None)
    return lambda rows: (col.values[rows], col.null[rows])


def _column(f, path: str):
    """``(Column, declared type)`` of a path in either model.  A document
    path has no declared type, and reads null where it is absent (an object
    column then holds None there)."""
    if isinstance(f, Relation):
        i = _col_index(f, path)
        return f.columns[i], f.types[i]
    col, present = _path(f, path)
    if present.all():
        return col, None
    values = col.values
    if values.dtype == object:
        values = np.where(present, values, None)
    return Column(values, col.null_mask() | ~present), None


def _row_columns(f) -> list:
    """The columns whose ranks, in turn, order whole rows: a relation's
    attributes, or a collection's documents, built as dicts, as one object
    column."""
    return f.columns if isinstance(f, Relation) else [object_column(f.docs)]


def _resolver(f):
    """``path -> column getter`` over a relation or collection."""
    return lambda path: _getter(_column(f, path)[0])


# ----------------------------------------------------------------- execution

def execute_tree(tree: TreeNode, registry: dict | None = None):
    """Run a plan tree; returns its root's Relation or Collection.

    A scan reads the Relation or Collection the registry holds under its
    dataset name, under the scan's qualifier.  An alias_ref reads the value
    it holds under the leaf's node id as it is, with the columns and
    qualifiers its maker gave it."""
    return _exec(tree, registry or {})


def _exec(n: TreeNode, reg: dict):
    op = n.op
    if op == "scan":
        return _scan(n.params, reg)
    if op == "alias_ref":
        nid = n.params["id"]
        if nid not in reg:
            raise PlanError(f"no value for node {nid}")
        return reg[nid]

    kids = [_exec(c, reg) for c in n.children]
    if op == "filter":
        return _filter(kids[0], n.params["pred"])
    if op == "project":
        return _project(kids[0], n.params["cols"], n.params.get("names"))
    if op == "sort":
        return _sort(kids[0], n.params["keys"])
    if op == "limit":
        return _limit(kids[0], n.params["n"])
    if op == "aggregate":
        return _aggregate(kids[0], n.params.get("keys", []), n.params["aggs"])
    if op == "union":
        return _union(kids[0], kids[1])
    if op == "join":
        return _join(kids[0], kids[1], n.params["pred"])
    if op == "unwind":
        return _unwind(kids[0], n.params["path"])
    raise PlanError(f"unknown operator {op!r}")


def _scan(params: dict, reg: dict):
    name = params["name"]
    if name not in reg:
        raise NotFoundError(f"dataset {name!r} not found")
    return _qualify(reg[name], params.get("qualifier") or name)


def _qualify(obj, qualifier: str):
    """A copy of a relation or collection that shares its columns, under
    ``qualifier``."""
    if isinstance(obj, Relation):
        return Relation.qualified([(qualifier, n) for n in obj.attr_names],
                                  obj.types, list(obj.columns), len(obj))
    if isinstance(obj, Collection):
        return Collection.from_columns(obj.name, obj.shapes, obj.shape_ids,
                                       obj.columns, (qualifier,))
    raise PlanError(f"cannot scan object of type {type(obj).__name__}")


def _filter(f, pred):
    keep = compile_columns(pred, _resolver(f))
    t, _ = keep(np.arange(len(f)))
    return f.take(np.flatnonzero(t))


def _project(f, cols, names):
    out_names = names or [c.rpartition(".")[2] for c in cols]
    if isinstance(f, Relation):
        idx = [_col_index(f, c) for c in cols]
        return Relation.qualified([(None, n) for n in _numbered(out_names)],
                                  [f.types[i] for i in idx],
                                  [f.columns[i] for i in idx], f.n)
    # a document keeps the names of the paths it has, a repeated name at its
    # first such position and with its last such value; rows of one input
    # shape that have the same paths share an output shape
    paths = [_path(f, c) for c in cols]
    group, first = _group([Column(f.shape_ids)] +
                          [Column(present) for _, present in paths])
    has = np.stack([present[first] for _, present in paths], axis=1)
    shapes: dict = {}
    shape_of = [shapes.setdefault(tuple(dict.fromkeys(
        n for n, h in zip(out_names, row) if h)), len(shapes))
        for row in has.tolist()]
    columns: dict = {}
    for n, (col, present) in zip(out_names, paths):
        columns[n] = _overlay(col, present, columns[n]) if n in columns \
            else col
    shape_ids = np.asarray(shape_of, dtype=np.int64)[group]
    return Collection.from_columns(f.name, list(shapes), shape_ids, columns,
                                   f.quals)


def _sort(f, keys):
    by = []
    for ref, desc in keys:
        col = _column(f, ref)[0]
        rank, top = _rank(col)
        k = top - 1 - rank if desc else rank
        by.append(k if col.null is None else np.where(col.null, top, k))
    ties = [_rank(c)[0] for c in _row_columns(f)]  # the whole-row tie-break
    # lexsort's primary key is its last: the sort keys, then the tie-break
    order = np.lexsort(ties[::-1] + by[::-1]) if ties else np.arange(len(f))
    return f.take(order)


def _rank(col: Column) -> tuple[np.ndarray, int]:
    """Dense rank of each value in universal_key order, and an int above
    every rank; a null ranks below every value."""
    v = col.values
    if v.dtype == object:
        keys = list(map(universal_key, v.tolist()))
        ids = {k: r for r, k in enumerate(sorted(set(keys)))}
        return np.fromiter(map(ids.__getitem__, keys), np.int64,
                           len(keys)), len(ids)
    distinct, rank = np.unique(v, return_inverse=True)
    if col.null is not None:
        rank[col.null] = -1
    return rank, len(distinct)


def _limit(f, k: int):
    return f.take(np.arange(len(f))[:k])


def _union(a, b):
    if isinstance(a, Relation) and isinstance(b, Relation):
        if len(a.cols) != len(b.cols):
            raise TypeMismatchError(
                f"union arity mismatch: {len(a.cols)} vs {len(b.cols)}")
        types = [_union_type(n, ta, tb)
                 for (_, n), ta, tb in zip(a.cols, a.types, b.types)]
        columns = [_concat(_as_type(ca, ta, t), _as_type(cb, tb, t), t)
                   for ca, cb, ta, tb, t in zip(a.columns, b.columns, a.types,
                                                b.types, types)]
        return Relation.qualified(a.cols, types, columns, a.n + b.n)
    if isinstance(a, Collection) and isinstance(b, Collection):
        return _concat_docs(a, b)
    raise TypeMismatchError("cannot union a relation with a collection")


_NUMERIC = {"int", "uint", "float"}


def _union_type(name: str, ta, tb):
    """Equal types pass; int with uint is int, and any other pair of
    numeric types, which then includes float, is float."""
    if ta == tb:
        return ta
    kinds = {ta.kind, tb.kind}
    if kinds == {"int", "uint"}:
        return INT
    if kinds <= _NUMERIC:
        return FLOAT
    raise TypeMismatchError(f"union column {name!r}: {ta} vs {tb}")


def _as_type(col: Column, vt, to) -> Column:
    """A union input column in the union's type: values become floats
    (``float()``) when an int column meets a float one."""
    if to.kind != "float" or vt.kind == "float":
        return col
    if col.values.dtype == np.int64:
        return Column(col.values.astype(np.float64), col.null)
    return column_of([None if v is None else float(v) for v in col.tolist()],
                     to)


def _concat(a: Column, b: Column, vt) -> Column:
    if a.values.dtype == b.values.dtype != object:
        return Column(np.concatenate([a.values, b.values]),
                      np.concatenate([a.null_mask(), b.null_mask()]))
    values = a.tolist() + b.tolist()
    return column_of(values, vt) if vt is not None else object_column(values)


def _concat_docs(a: Collection, b: Collection) -> Collection:
    """b's documents after a's, under both's qualifiers: one shape table,
    and each key's column over both, a filler where one side has no such
    key."""
    shapes = {s: i for i, s in enumerate(dict.fromkeys(a.shapes + b.shapes))}
    shape_ids = np.concatenate([
        np.asarray([shapes[s] for s in c.shapes], np.int64)[c.shape_ids]
        if len(c) else c.shape_ids for c in (a, b)])
    columns = {}
    for k in dict.fromkeys([*a.columns, *b.columns]):
        dtype = (a.columns[k] if k in a.columns else b.columns[k]).values.dtype
        ca, cb = (c.columns[k] if k in c.columns else
                  Column(np.zeros(len(c), dtype)) for c in (a, b))
        columns[k] = _concat(ca, cb, None)
    return Collection.from_columns(a.name, list(shapes), shape_ids, columns,
                                   tuple(dict.fromkeys(a.quals + b.quals)))


def _unwind(f, path: str):
    if not isinstance(f, Collection):
        raise TypeMismatchError("unwind applies to collections")
    get, set_value = compile_path(path), compile_set(path)
    docs = []
    for d in f.docs:
        v = get(d)
        if v is ABSENT:
            continue  # documents lacking the path contribute nothing
        if not isinstance(v, list):
            raise TypeMismatchError(f"unwind path {path!r} is not a list")
        for elem in v:
            docs.append(set_value(d, elem))
    return Collection(f.name, docs, f.quals)


# ---------------------------------------------------------------- aggregate

def _aggregate(f, keys, aggs):
    for func, ref, _ in aggs:
        if ref is None and func != "count":
            raise PlanError(f"{func}(*) is not defined; name an attribute")
    # a document path has no declared type: it is typed below by the values
    # it yields
    key_cols, types = map(list, zip(*(_column(f, k) for k in keys))) \
        if keys else ([], [])
    vals = [(None, None) if ref is None else _column(f, ref)
            for _, ref, _ in aggs]
    if keys:
        codes, first = _group(key_cols)
        key_cols = [c.take(first) for c in key_cols]
        ngroups = len(first)
    else:  # one group, even over no rows: the identity row
        codes, ngroups = np.zeros(len(f), dtype=np.int64), 1
    types = [vt or infer_column_type(c.tolist())
             for c, vt in zip(key_cols, types)]
    # count is INT and avg FLOAT; sum, min and max keep the aggregated
    # column's declared type, or for documents the type of the group results
    out = list(key_cols)
    for (func, _, _), (col, vt) in zip(aggs, vals):
        res = _agg(func, col, codes, ngroups)
        vt = INT if func == "count" else FLOAT if func == "avg" else vt
        if vt is None:
            vt = infer_column_type(res.tolist() if isinstance(res, Column)
                                   else res)
        if not isinstance(res, Column):
            res = column_of(res, vt)
        types.append(vt)
        out.append(res)
    names = [k.rpartition(".")[2] for k in keys] + \
        [name for _, _, name in aggs]
    return Relation.qualified([(None, n) for n in _numbered(names)], types,
                              out, ngroups)


def _group(cols: list[Column]) -> tuple[np.ndarray, np.ndarray]:
    """Group number of each row, groups numbered by first appearance, and
    the first row of each group."""
    code = _codes(cols[0])
    for col in cols[1:]:
        c = _codes(col)
        code = np.unique(code * (int(c.max(initial=0)) + 1) + c,
                         return_inverse=True)[1]
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    renumber = np.empty(len(order), dtype=np.int64)
    renumber[order] = np.arange(len(order))
    return renumber[code], first[order]


def _codes(col: Column) -> np.ndarray:
    """Non-negative codes, equal where universal_key is: null is one group,
    and each NaN of a float column is a group of its own."""
    v = col.values
    if v.dtype == object:
        ids: dict = {}
        return np.fromiter((ids.setdefault(k, len(ids))
                            for k in map(universal_key, v.tolist())),
                           np.int64, len(v))
    if v.dtype != np.float64 and len(v) and \
            int(v.max()) - int(v.min()) < len(v):  # bools, dense ints
        code = v.astype(np.int64) - int(v.min()) + 1
    else:
        code = np.unique(v, return_inverse=True)[1] + 1
    if col.null is not None:
        code[col.null] = 0
    if v.dtype.kind == "f":
        nan = np.isnan(v) & ~col.null_mask()
        code[nan] = code.max(initial=0) + 1 + np.arange(np.count_nonzero(nan))
    return code


def _agg(func: str, col: Column | None, codes: np.ndarray, ngroups: int):
    """One aggregate per group: a Column, or for an object column a list of
    Python values accumulated in input order."""
    if func == "count":
        if col is not None and col.null is not None:
            codes = codes[~col.null]
        return Column(np.bincount(codes, minlength=ngroups).astype(np.int64))
    if func not in ("sum", "avg", "min", "max"):
        raise PlanError(f"unknown aggregate {func!r}")
    v = col.values
    if v.dtype == object:
        accs = [_new_acc() for _ in range(ngroups)]
        for g, x in zip(codes.tolist(), v.tolist()):
            _acc_add(accs[g], func, x)
        return [_acc_final(acc, func) for acc in accs]
    if col.null is not None:
        codes, v = codes[~col.null], v[~col.null]
    if func in ("sum", "avg") and v.dtype == bool and len(v):
        raise TypeMismatchError(f"{func} needs numeric input, got "
                                f"{bool(v[0])!r}")
    count = np.bincount(codes, minlength=ngroups)
    empty = count == 0
    if func in ("min", "max"):
        return Column(_extreme(func, codes, v, ngroups), empty)
    if v.dtype == np.float64:  # -0.0 + x is x, so a lone -0.0 stays -0.0
        total = np.full(ngroups, -0.0)
        np.add.at(total, codes, v)  # in input order, one value at a time
        return Column(total / np.maximum(count, 1) if func == "avg"
                      else total, empty)
    total = _int_sums(codes, v, ngroups)
    if func == "sum":
        if total.dtype == object:
            return column_of([None if e else t for t, e in
                              zip(total.tolist(), empty.tolist())], INT)
        return Column(total, empty)
    if total.dtype != object and np.abs(total).max(initial=0) <= 2 ** 53:
        return Column(total / np.maximum(count, 1), empty)  # as Python does
    return Column(np.array([t / c if c else 0.0 for t, c in
                            zip(total.tolist(), count.tolist())]), empty)


def _int_sums(codes, v, ngroups) -> np.ndarray:
    """Exact per-group sums of int64 values: int64 when no partial sum can
    wrap, else Python ints in an object array."""
    bound = max(-int(v.min()), int(v.max())) * len(v) if len(v) else 0
    total = np.zeros(ngroups, dtype=np.int64 if bound < 2 ** 63 else object)
    np.add.at(total, codes, v if total.dtype != object else v.astype(object))
    return total


def _extreme(func, codes, v, ngroups) -> np.ndarray:
    """min or max per group as Python's ``min(cur, x)`` folds it in input
    order: the first of the equal extremes, and NaN when a group's first
    value is NaN (nothing compares below or above it)."""
    if v.dtype != np.float64:
        acc = np.zeros(ngroups, dtype=v.dtype)
        acc[codes] = v  # some member of each group as the start value
        (np.minimum if func == "min" else np.maximum).at(acc, codes, v)
        return acc
    acc = np.full(ngroups, np.nan)
    (np.fmin if func == "min" else np.fmax).at(acc, codes, v)  # NaN skipped
    hit = v == acc[codes]
    first = _first_rows(codes[hit], np.flatnonzero(hit), ngroups)
    g = np.flatnonzero(first >= 0)
    acc[g] = v[first[g]]  # the first extreme: its sign, for a zero
    first = _first_rows(codes, np.arange(len(v)), ngroups)
    g = np.flatnonzero(first >= 0)
    acc[g[np.isnan(v[first[g]])]] = np.nan
    return acc


def _first_rows(codes, rows, ngroups) -> np.ndarray:
    """The first of ``rows`` in each group, -1 for none."""
    first = np.full(ngroups, np.iinfo(np.int64).max)
    np.minimum.at(first, codes, rows)
    first[first == np.iinfo(np.int64).max] = -1
    return first


def _new_acc():
    return {"n": 0, "value": None}


def _acc_add(acc, func, v):
    if v is None:
        return  # nulls never feed sum/min/max/avg
    if func in ("sum", "avg"):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeMismatchError(f"{func} needs numeric input, got {v!r}")
        acc["n"] += 1
        acc["value"] = v if acc["value"] is None else acc["value"] + v
    else:
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


def _acc_final(acc, func):
    if func == "avg":
        return None if acc["n"] == 0 else acc["value"] / acc["n"]
    return acc["value"]


# --------------------------------------------------------------------- joins

def _join(left, right, pred):
    if isinstance(left, Relation) and isinstance(right, Relation):
        return _join_rel(left, right, pred)
    ldoc = left if isinstance(left, Collection) else _rel_to_doc(left)
    rdoc = right if isinstance(right, Collection) else _rel_to_doc(right)
    return _join_doc(ldoc, rdoc, pred)


def _rel_to_doc(f: Relation) -> Collection:
    """The relation's columns as documents of one shape, keyed by the names
    its schema prints (``a.k`` and ``b.k`` for two columns k), under the
    relation's qualifiers; a null stays a stored null."""
    quals = tuple(dict.fromkeys(q for q, _ in f.cols if q))
    columns = dict(zip(f.attr_names, f.columns))
    return Collection.from_columns("", [tuple(columns)],
                                   np.zeros(f.n, np.int64), columns, quals)


def _resolvable_rel(f: Relation, path: str) -> bool:
    try:
        _col_index(f, path)
        return True
    except PlanError:
        return False


def _split_equi(pred, left_has, right_has):
    """Assign each ref=ref conjunct to sides; unassignable ones go residual."""
    pairs, residual = equi_conjuncts(pred)
    keyed, rest = [], []
    for a, b in pairs:
        if left_has(a) and right_has(b) and not (left_has(b) and right_has(a)):
            keyed.append((a, b))
        elif left_has(b) and right_has(a) and not (left_has(a) and right_has(b)):
            keyed.append((b, a))
        elif left_has(a) and right_has(b):
            keyed.append((a, b))  # resolvable both ways; keep written order
        else:
            rest.append(("=", a, b))
    if rest:
        extra = tuple(Cmp(op, Ref(a), Ref(b)) for op, a, b in rest)
        residual = And(extra + ((residual,) if residual else ())) \
            if len(extra) + (residual is not None) > 1 else extra[0]
    return keyed, residual


# candidate pairs tested at a time by a join without equi-keys
_CROSS_BATCH = 1 << 16


def _join_rel(left: Relation, right: Relation, pred):
    """Candidate row pairs (equal keys, or all pairs), kept where the rest
    of the condition is true, then the output columns gathered once.  The
    condition reads its columns through the candidates' row indices."""
    out = Relation.qualified(left.cols + right.cols, left.types + right.types,
                             left.columns + right.columns, 0)
    keyed, residual = _split_equi(
        pred, lambda p: _resolvable_rel(left, p),
        lambda p: _resolvable_rel(right, p))
    keys = [(left.columns[_col_index(left, a)],
             right.columns[_col_index(right, b)]) for a, b in keyed]
    cond = residual if keyed else pred
    pair = [None, None]  # left and right row of each candidate under test

    def resolve(path):
        i = _col_index(out, path)
        side, get = int(i >= len(left.cols)), _getter(out.columns[i])
        return lambda rows: get(pair[side][rows])

    keep = None if cond is None else compile_columns(cond, resolve)
    lidx, ridx = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for li, ri in ([_equi_pairs(keys)] if keys else
                   _cross_pairs(left.n, right.n)):
        if keep is not None:
            pair[:] = li, ri
            t, _ = keep(np.arange(len(li)))
            li, ri = li[t], ri[t]
        lidx.append(li)
        ridx.append(ri)
    lidx, ridx = np.concatenate(lidx), np.concatenate(ridx)
    return Relation.qualified(
        out.cols, out.types, [c.take(lidx) for c in left.columns] +
        [c.take(ridx) for c in right.columns], len(lidx))


def _cross_pairs(nl: int, nr: int):
    """Every (left, right) row pair in left-major order, in batches."""
    step = max(1, _CROSS_BATCH // max(nr, 1))
    for lo in range(0, nl, step):
        li = np.arange(lo, min(lo + step, nl))
        yield np.repeat(li, nr), np.tile(np.arange(nr), len(li))


def _equi_pairs(keys: list[tuple[Column, Column]]):
    """Row pairs whose key columns are all equal (and not null), in left
    row order, then right row order."""
    code = None
    for a, b in keys:
        c = _join_codes(a, b)
        if code is not None:  # pairs of codes, renumbered
            bad = (code < 0) | (c < 0)
            code = np.unique(code * (int(c.max(initial=0)) + 1) + c,
                             return_inverse=True)[1]
            code[bad] = -1
        else:
            code = c
    lk, rk = code[:len(keys[0][0])], code[len(keys[0][0]):]
    order = np.flatnonzero(rk >= 0)
    order = order[np.argsort(rk[order], kind="stable")]
    # codes are dense: right rows per code, and where each code's run starts
    size = np.bincount(rk[order], minlength=int(code.max(initial=-1)) + 1)
    hit = lk >= 0
    at = np.where(hit, lk, 0)
    lo = (np.cumsum(size) - size)[at] if len(size) else at
    count = np.where(hit, size[at] if len(size) else 0, 0)
    li = np.repeat(np.arange(len(lk)), count)
    offset = np.arange(len(li)) - np.repeat(np.cumsum(count) - count, count)
    return li, order[np.repeat(lo, count) + offset]


def _join_codes(a: Column, b: Column) -> np.ndarray:
    """Codes of a's values then b's, equal where universal_key is; -1 for
    a value that can match nothing (null, NaN, a float no int equals)."""
    ka, kb = a.values.dtype.kind, b.values.dtype.kind
    n = len(a) + len(b)
    if "O" in (ka, kb):
        ids: dict = {}
        return np.fromiter((-1 if v is None else
                            ids.setdefault(universal_key(v), len(ids))
                            for v in a.tolist() + b.tolist()), np.int64, n)
    if ka != kb and "b" in (ka, kb):
        return np.full(n, -1, dtype=np.int64)  # a bool never equals a number
    values = [a.values, b.values]
    bad = [a.null_mask(), b.null_mask()]
    if ka != kb:  # int64 against float64: compare in int64 where exact
        j = int(kb == "f")
        f = values[j]
        exact = (np.floor(f) == f) & (f >= -2.0 ** 63) & (f < 2.0 ** 63)
        values[j] = np.where(exact, f, 0).astype(np.int64)
        bad[j] = bad[j] | ~exact
    v = np.concatenate(values)
    code = np.unique(v, return_inverse=True)[1]
    bad = np.concatenate(bad)
    if v.dtype.kind == "f":
        bad |= np.isnan(v)
    code[bad] = -1
    return code


def _join_doc(left: Collection, right: Collection, pred):
    """Candidate pairs as ``_join_rel`` takes them, from key columns of the
    document paths, kept where the rest of the condition is true over the
    merged pairs of each batch; the output is the kept pairs merged."""
    quals = tuple(dict.fromkeys(left.quals + right.quals))

    def strip(path: str, side: Collection) -> str:  # a top-level key stays
        head, _, rest = path.partition(".")
        return rest if rest and head in side.quals and \
            path not in side.columns else path

    def has(side: Collection, other: Collection):
        def side_has(p):  # a qualifier names the side, else a non-null value
            head = p.partition(".")[0]
            if head in side.quals or head in other.quals:
                return head in side.quals
            col, present = _path(side, p)
            return bool((present & ~col.null_mask()).any())
        return side_has

    keyed, residual = _split_equi(pred, has(left, right), has(right, left))
    keys = [(_column(left, strip(a, left))[0],
             _column(right, strip(b, right))[0]) for a, b in keyed]
    cond = residual if keyed else pred
    lidx, ridx = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for li, ri in ([_equi_pairs(keys)] if keys else
                   _cross_pairs(len(left), len(right))):
        if cond is not None:
            pairs = _merged(left, right, li, ri, quals)
            t, _ = compile_columns(cond, _resolver(pairs))(np.arange(len(li)))
            li, ri = li[t], ri[t]
        lidx.append(li)
        ridx.append(ri)
    return _merged(left, right, np.concatenate(lidx), np.concatenate(ridx),
                   quals)


def _merged(lc: Collection, rc: Collection, li: np.ndarray, ri: np.ndarray,
            quals: tuple) -> Collection:
    """Row pairs (li, ri) as one document each: the left's keys, then the
    right's keys the left lacks.  Both sides' columns are gathered at the
    pairs, a key on both sides takes the left value where the left row has
    the key, and each (left shape, right shape) pair maps to one merged
    shape."""
    pair = lc.shape_ids[li] * len(rc.shapes) + rc.shape_ids[ri]
    pairs, inverse = np.unique(pair, return_inverse=True)
    shapes: dict = {}
    shape_of = []
    for p in pairs.tolist():
        ls, rs = lc.shapes[p // len(rc.shapes)], rc.shapes[p % len(rc.shapes)]
        shape_of.append(shapes.setdefault(
            ls + tuple(k for k in rs if k not in ls), len(shapes)))
    columns = {k: c.take(li) for k, c in lc.columns.items()}
    for k, c in rc.columns.items():
        c = c.take(ri)
        columns[k] = _overlay(columns[k], lc.has(k)[li], c) \
            if k in columns else c
    shape_ids = np.asarray(shape_of, dtype=np.int64)[inverse]
    return Collection.from_columns(lc.name, list(shapes), shape_ids, columns,
                                   quals)
