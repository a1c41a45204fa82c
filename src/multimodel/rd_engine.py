"""Relational and document executor.

Operator-at-a-time evaluation of tree-shaped plans: scan, filter, project,
sort, limit, aggregate, union, join, unwind, plus alias-refs into a registry
of materialized results. One executor serves both record models; documents
use dotted paths wherever relations use column references.

Column references carry optional qualifiers ("review.oid"): a bare name must
resolve to exactly one column, a qualified name matches its source relation.
Joins preserve qualifiers so collisions stay addressable; converting back to a
public Relation renders colliding names as "qualifier.name".

Each operator resolves its references once, when it starts, into getters
and compiled predicates that every row then runs through; an unknown or
ambiguous column raises PlanError there, even on empty input.

Null semantics are SQL's three-valued logic (see predicates): filters and
join conditions keep only the rows where the predicate is true.  Sorting
places nulls last under either direction, with full-row lexicographic order
as the deterministic tie-break.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import NotFoundError, PlanError, TypeMismatchError
from .models import (ABSENT, FLOAT, INT, Collection, Relation, compile_path,
                     compile_set, infer_column_type)
from .predicates import (And, Cmp, Ref, compile_predicate, equi_conjuncts,
                         universal_key)

__all__ = ["RdNode", "RelFrame", "DocFrame", "execute_tree", "node",
           "frame_to_public", "relation_frame", "collection_frame"]


@dataclass
class RdNode:
    op: str
    params: dict = field(default_factory=dict)
    children: list = field(default_factory=list)


def node(op: str, *children: RdNode, **params) -> RdNode:
    return RdNode(op, params, list(children))


@dataclass
class RelFrame:
    cols: list  # [(qualifier | None, name)]
    types: list
    rows: list  # [tuple]


@dataclass
class DocFrame:
    quals: tuple
    docs: list


def relation_frame(rel: Relation, qualifier: str | None = None) -> RelFrame:
    return RelFrame([(qualifier, n) for n, _ in rel.schema],
                    [t for _, t in rel.schema], list(rel.rows))


def collection_frame(col: Collection, qualifier: str | None = None) -> DocFrame:
    return DocFrame((qualifier or col.name,), list(col.docs))


def frame_to_public(f):
    if isinstance(f, DocFrame):
        return Collection("result", f.docs)
    names = _public_names(f.cols)
    return Relation(list(zip(names, f.types)), list(f.rows))


def _public_names(cols) -> list[str]:
    bare = [n for _, n in cols]
    names = []
    for q, n in cols:
        names.append(n if bare.count(n) == 1 or q is None else f"{q}.{n}")
    # belt and braces: force uniqueness even if qualifiers collide
    seen: dict[str, int] = {}
    out = []
    for n in names:
        k = seen.get(n, 0)
        seen[n] = k + 1
        out.append(n if k == 0 else f"{n}#{k}")
    return out


# ------------------------------------------------------------ ref resolution

def _col_index(frame: RelFrame, path: str) -> int:
    head, _, rest = path.partition(".")
    if rest:
        matches = [i for i, (q, n) in enumerate(frame.cols)
                   if q == head and n == rest]
        if not matches:  # a column literally named with the dotted path
            matches = [i for i, (_, n) in enumerate(frame.cols) if n == path]
    else:
        matches = [i for i, (_, n) in enumerate(frame.cols) if n == path]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise PlanError(f"cannot resolve column {path!r}")
    raise PlanError(f"ambiguous column reference {path!r}")


def _doc_value(quals: tuple, path: str, absent=None):
    """Compiled ``doc -> value`` (``absent`` when missing).  A path whose
    head is one of the frame's qualifiers falls back to the rest of it."""
    head, _, rest = path.partition(".")
    if not (rest and head in quals):
        return compile_path(path, absent)
    get, get_rest = compile_path(path), compile_path(rest, absent)
    return lambda doc: get_rest(doc) if (v := get(doc)) is ABSENT else v


def _resolver(f):
    """``path -> getter`` over the frame's rows or documents."""
    if isinstance(f, RelFrame):
        return lambda path: itemgetter(_col_index(f, path))
    return lambda path: _doc_value(f.quals, path)


# ----------------------------------------------------------------- execution

def execute_tree(tree: RdNode, registry: dict | None = None):
    """Run a plan tree; returns a Relation or Collection."""
    return frame_to_public(_exec(tree, registry or {}))


def _exec(n: RdNode, reg: dict):
    op = n.op
    if op == "scan":
        return _scan(n.params, reg)
    if op == "alias_ref":
        key = n.params["key"]
        if key not in reg:
            raise PlanError(f"unresolved alias {key!r}")
        return _as_frame(reg[key], n.params.get("qualifier"))

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
    return _as_frame(reg[name], params.get("qualifier") or name)


def _as_frame(obj, qualifier):
    if isinstance(obj, Relation):
        return relation_frame(obj, qualifier)
    if isinstance(obj, Collection):
        return collection_frame(obj, qualifier)
    if isinstance(obj, RelFrame):
        return RelFrame(list(obj.cols), list(obj.types), list(obj.rows))
    if isinstance(obj, DocFrame):
        return DocFrame(obj.quals, list(obj.docs))
    raise PlanError(f"cannot scan object of type {type(obj).__name__}")


def _filter(f, pred):
    keep = compile_predicate(pred, _resolver(f))
    if isinstance(f, RelFrame):
        return RelFrame(f.cols, f.types, [r for r in f.rows if keep(r)])
    return DocFrame(f.quals, [d for d in f.docs if keep(d)])


def _project(f, cols, names):
    out_names = names or [c.rpartition(".")[2] for c in cols]
    if isinstance(f, RelFrame):
        idx = [_col_index(f, c) for c in cols]
        rows = [tuple(r[i] for i in idx) for r in f.rows]
        return RelFrame([(None, n) for n in out_names],
                        [f.types[i] for i in idx], rows)
    gets = [(n, _doc_value(f.quals, c, ABSENT))
            for c, n in zip(cols, out_names)]
    docs = [{n: v for n, get in gets if (v := get(d)) is not ABSENT}
            for d in f.docs]
    return DocFrame(f.quals, docs)


def _sort(f, keys):
    if isinstance(f, RelFrame):
        rows = sorted(f.rows, key=lambda r: tuple(universal_key(v) for v in r))
        for ref, desc in reversed(keys):
            i = _col_index(f, ref)
            rows.sort(key=lambda r: _sort_key(r[i], desc), reverse=desc)
        return RelFrame(f.cols, f.types, rows)
    docs = sorted(f.docs, key=universal_key)
    for ref, desc in reversed(keys):
        get = _doc_value(f.quals, ref)
        docs.sort(key=lambda d: _sort_key(get(d), desc), reverse=desc)
    return DocFrame(f.quals, docs)


def _sort_key(v, desc: bool):
    # nulls sort last under both directions
    null_rank = (0 if desc else 1) if v is None else (1 if desc else 0)
    return (null_rank, universal_key(v))


def _limit(f, k: int):
    if isinstance(f, RelFrame):
        return RelFrame(f.cols, f.types, f.rows[:k])
    return DocFrame(f.quals, f.docs[:k])


def _union(a, b):
    if isinstance(a, RelFrame) and isinstance(b, RelFrame):
        if len(a.cols) != len(b.cols):
            raise TypeMismatchError(
                f"union arity mismatch: {len(a.cols)} vs {len(b.cols)}")
        return RelFrame(a.cols, a.types, a.rows + b.rows)
    if isinstance(a, DocFrame) and isinstance(b, DocFrame):
        return DocFrame(tuple(dict.fromkeys(a.quals + b.quals)), a.docs + b.docs)
    raise TypeMismatchError("cannot union a relation with a collection")


def _unwind(f, path: str):
    if not isinstance(f, DocFrame):
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
    return DocFrame(f.quals, docs)


# ---------------------------------------------------------------- aggregate

_STAR = object()  # count(*) marker: counts rows, nulls included


def _aggregate(f, keys, aggs):
    for func, ref, _ in aggs:
        if ref is None and func != "count":
            raise PlanError(f"{func}(*) is not defined; name an attribute")
    resolve = _resolver(f)
    key_gets = [resolve(k) for k in keys]
    val_gets = [(func, (lambda r: _STAR) if ref is None else resolve(ref))
                for func, ref, _ in aggs]
    rows_iter = f.rows if isinstance(f, RelFrame) else f.docs

    groups: dict = {}  # insertion order == first appearance
    for r in rows_iter:
        kv = tuple(get(r) for get in key_gets)
        gk = tuple(universal_key(v) for v in kv)
        if gk not in groups:
            groups[gk] = (kv, [_new_acc() for _ in aggs])
        _, accs = groups[gk]
        for acc, (func, get) in zip(accs, val_gets):
            _acc_add(acc, func, get(r))

    out_rows = []
    if not keys and not rows_iter:
        # aggregate over empty input with no grouping -> one identity row
        out_rows.append(tuple(_acc_final(_new_acc(), func)
                              for func, _, _ in aggs))
    for kv, accs in groups.values():
        out_rows.append(tuple(kv) + tuple(
            _acc_final(acc, func) for acc, (func, _, _) in zip(accs, aggs)))

    cols = [(None, k.rpartition(".")[2]) for k in keys] + \
           [(None, name) for _, _, name in aggs]
    # group keys keep a relation's column types; document keys are typed by
    # the values of their groups
    if isinstance(f, RelFrame):
        key_types = [f.types[_col_index(f, k)] for k in keys]
    else:
        key_types = [infer_column_type(kv[i] for kv, _ in groups.values())
                     for i in range(len(keys))]
    # count is INT and avg FLOAT; sum, min and max keep the aggregated
    # column's declared type, or for documents the type of the group results
    agg_types = []
    for i, (func, ref, _) in enumerate(aggs):
        if func in ("count", "avg"):
            agg_types.append(INT if func == "count" else FLOAT)
        elif isinstance(f, RelFrame):
            agg_types.append(f.types[_col_index(f, ref)])
        else:
            agg_types.append(infer_column_type(
                accs[i]["value"] for _, accs in groups.values()))
    return RelFrame(cols, key_types + agg_types, out_rows)


def _new_acc():
    return {"n": 0, "value": None}


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


# --------------------------------------------------------------------- joins

def _join(left, right, pred):
    if isinstance(left, RelFrame) and isinstance(right, RelFrame):
        return _join_rel(left, right, pred)
    ldoc = left if isinstance(left, DocFrame) else _rel_to_doc(left)
    rdoc = right if isinstance(right, DocFrame) else _rel_to_doc(right)
    return _join_doc(ldoc, rdoc, pred)


def _rel_to_doc(f: RelFrame) -> DocFrame:
    quals = tuple(dict.fromkeys(q for q, _ in f.cols if q))
    docs = [{n: v for (_, n), v in zip(f.cols, r) if v is not None}
            for r in f.rows]
    return DocFrame(quals, docs)


def _resolvable_rel(f: RelFrame, path: str) -> bool:
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


def _hash_join(lrecs, rrecs, keys, combine, cond, resolve):
    """Each pair of records whose keys (``(left getter, right getter)``
    pairs) are equal and not null, combined, where ``cond`` is true.
    Without keys every pair is a candidate: a nested loop in input order."""
    keep = (lambda rec: True) if cond is None else \
        compile_predicate(cond, resolve)
    lgets, rgets = [lg for lg, _ in keys], [rg for _, rg in keys]

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


def _join_rel(left: RelFrame, right: RelFrame, pred):
    out = RelFrame(list(left.cols) + list(right.cols),
                   list(left.types) + list(right.types), [])
    keyed, residual = _split_equi(
        pred, lambda p: _resolvable_rel(left, p),
        lambda p: _resolvable_rel(right, p))
    keys = [(itemgetter(_col_index(left, a)), itemgetter(_col_index(right, b)))
            for a, b in keyed]
    out.rows = _hash_join(left.rows, right.rows, keys, operator.add,
                          residual if keyed else pred, _resolver(out))
    return out


def _join_doc(left: DocFrame, right: DocFrame, pred):
    quals = tuple(dict.fromkeys(left.quals + right.quals))

    def strip(path: str, side: DocFrame) -> str:
        head, _, rest = path.partition(".")
        return rest if rest and head in side.quals else path

    def has(side: DocFrame, other: DocFrame):
        def side_has(p):
            head = p.partition(".")[0]
            if head in side.quals or head in other.quals:
                return head in side.quals
            get = _doc_value(side.quals, p)
            return any(get(d) is not None for d in side.docs)
        return side_has

    keyed, residual = _split_equi(pred, has(left, right), has(right, left))

    def merged(ld, rd):
        out = dict(ld)
        for k, v in rd.items():
            if k not in out:
                out[k] = v
        return out

    keys = [(_doc_value(left.quals, strip(a, left)),
             _doc_value(right.quals, strip(b, right))) for a, b in keyed]
    return DocFrame(quals, _hash_join(
        left.docs, right.docs, keys, merged, residual if keyed else pred,
        lambda p: _doc_value(quals, p)))
