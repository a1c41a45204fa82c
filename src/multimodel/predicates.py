"""Predicate mini-language for filters and join conditions.

Comparisons (=, !=, <, <=, >, >=) over dotted references and literals,
combined with AND/OR/NOT and parentheses — exactly expressive enough for
method-chain scripts and benchmark filters.

Null semantics follow SQL's three-valued (Kleene) logic.  A comparison with
a null operand is unknown; AND is false if any operand is false, OR is true
if any operand is true, and otherwise either is unknown when an operand is;
NOT unknown is unknown.  A filter or join keeps only the rows where the
predicate is true, so ``NOT x = 3`` and ``x != 3`` both drop a null ``x``.
A predicate is compiled once per operator by ``compile_columns``, the one
evaluator for both record models, and runs a column at a time over masks:
typed comparisons over int64, float64 and bool columns, whether a
relation's or a collection's, and one comparison per value over object
columns.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ScriptError, TypeMismatchError

__all__ = [
    "Lit", "Ref", "Cmp", "And", "Or", "Not",
    "parse_predicate", "format_predicate", "parse_sort_spec",
    "compile_columns", "equi_conjuncts", "bound_names", "universal_key",
    "compare_values",
]


@dataclass(frozen=True)
class Lit:
    value: Any


@dataclass(frozen=True)
class Ref:
    path: str  # dotted


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: Any


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<str>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*)
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "true", "false", "null"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ScriptError(f"bad character {text[pos]!r} in predicate", col=pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        val = m.group()
        if kind == "ident" and val.lower() in _KEYWORDS:
            kind = val.lower()
        out.append((kind, val, m.start()))
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ScriptError(f"expected {kind}, got {t[1]!r} in predicate",
                              col=t[2] + 1)
        return t

    def parse(self):
        node = self.or_expr()
        if self.peek() != "eof":
            t = self.toks[self.i]
            raise ScriptError(f"unexpected {t[1]!r} in predicate", col=t[2] + 1)
        return node

    def or_expr(self):
        items = [self.and_expr()]
        while self.peek() == "or":
            self.next()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self):
        items = [self.not_expr()]
        while self.peek() == "and":
            self.next()
            items.append(self.not_expr())
        return items[0] if len(items) == 1 else And(tuple(items))

    def not_expr(self):
        if self.peek() == "not":
            self.next()
            return Not(self.not_expr())
        return self.primary()

    def primary(self):
        if self.peek() == "lp":
            self.next()
            node = self.or_expr()
            self.expect("rp")
            return node
        left = self.operand()
        t = self.next()
        if t[0] != "op":
            raise ScriptError(f"expected comparison operator, got {t[1]!r}",
                              col=t[2] + 1)
        right = self.operand()
        return Cmp(t[1], left, right)

    def operand(self):
        kind, val, start = self.next()
        if kind == "num":
            return Lit(float(val) if any(c in val for c in ".eE") else int(val))
        if kind == "str":
            body = val[1:-1]
            return Lit(re.sub(r"\\(.)", r"\1", body))
        if kind == "true":
            return Lit(True)
        if kind == "false":
            return Lit(False)
        if kind == "null":
            return Lit(None)
        if kind == "ident":
            return Ref(val)
        raise ScriptError(f"expected value or reference, got {val!r}", col=start + 1)


def parse_predicate(text: str):
    return _Parser(text).parse()


def format_predicate(node) -> str:
    """Predicate text that ``parse_predicate`` reads back as ``node``; each
    item of an AND or OR, and the item of a NOT, is parenthesized unless it
    is a comparison."""
    if isinstance(node, Cmp):
        return f"{_operand_text(node.left)} {node.op} " \
               f"{_operand_text(node.right)}"
    if isinstance(node, Not):
        return f"NOT {_item_text(node.item)}"
    word = " AND " if isinstance(node, And) else " OR "
    return word.join(map(_item_text, node.items))


def _item_text(node) -> str:
    text = format_predicate(node)
    return text if isinstance(node, Cmp) else f"({text})"


def _operand_text(node) -> str:
    if isinstance(node, Ref):
        return node.path
    v = node.value
    if v is None or isinstance(v, bool):
        return {None: "null", True: "true", False: "false"}[v]
    if isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(v, float) and math.isinf(v):  # a literal past float range
        return "-1e999" if v < 0 else "1e999"
    return repr(v)


def parse_sort_spec(text: str) -> list[tuple[str, bool]]:
    """"rating DESC, name" -> [("rating", True), ("name", False)]."""
    keys = []
    for part in text.split(","):
        words = part.split()
        if not words or len(words) > 2:
            raise ScriptError(f"bad sort key {part.strip()!r}")
        desc = False
        if len(words) == 2:
            if words[1].upper() not in ("ASC", "DESC"):
                raise ScriptError(f"bad sort direction {words[1]!r}")
            desc = words[1].upper() == "DESC"
        keys.append((words[0], desc))
    return keys


# ----------------------------------------------------------------- evaluation

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_SCALARS = {bool, int, float, str}  # same-type pairs that always compare


def universal_key(v):
    """Total order over all values: used for deterministic tie-breaking and
    as the hash key of joins and groups.  Numbers key on their exact value
    (Python compares and hashes int and float exactly), so ``1 == 1.0`` but
    ``2**53 != 2**53 + 1``."""
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, v)
    if isinstance(v, (int, float)):
        return (2, v)
    if isinstance(v, str):
        return (3, v)
    if isinstance(v, list):
        return (4, tuple(universal_key(x) for x in v))
    if isinstance(v, dict):
        return (5, tuple(sorted((k, universal_key(x)) for k, x in v.items())))
    return (6, repr(v))


def _comparable(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)


def compare_values(op: str, a, b) -> bool:
    """Two-valued comparison: a null operand gives False.  Compiled
    predicates test for null first and make such a comparison unknown."""
    if a is None or b is None:
        return False
    if op not in _OPS:
        raise ValueError(f"unknown comparison {op!r}")
    if _comparable(a, b):
        try:
            return _OPS[op](a, b)
        except TypeError:  # documents, or lists of incomparable values
            pass
    elif op in ("=", "!="):
        return op == "!="
    raise TypeMismatchError(
        f"cannot order {type(a).__name__} against {type(b).__name__}")


def _compare(op, fn, a, b):
    """Comparison of two non-null values."""
    if type(a) is type(b) and type(a) in _SCALARS:
        return fn(a, b)
    return compare_values(op, a, b)


# ------------------------------------------------------- column evaluation

_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_KIND_NAMES = {"i": "int", "f": "float", "b": "bool"}
_INT64 = np.iinfo(np.int64)


def compile_columns(node, resolve: Callable[[str], Callable]):
    """Compile a predicate into ``rows -> (true, unknown)``, two bool masks
    over the row indices ``rows`` (false where neither is set).
    ``resolve(path)`` is called once per reference and returns the getter
    ``rows -> (values, null mask or None)``.

    An AND or OR evaluates each item only on the rows that its earlier
    items left undecided, as a row-at-a-time evaluation stops at the first
    item that settles a row; so a comparison that cannot be made raises
    only where such an evaluation would reach it."""
    if isinstance(node, Cmp):
        op = node.op
        left = _column_operand(node.left, resolve)
        right = _column_operand(node.right, resolve)
        return lambda rows: _compare_columns(op, *left(rows), *right(rows),
                                             len(rows))
    if isinstance(node, (And, Or)):
        first, *rest = [compile_columns(n, resolve) for n in node.items]
        is_or = isinstance(node, Or)  # True settles an OR, False an AND

        def junction(rows):
            t, unknown = first(rows)
            settled = t.copy() if is_or else ~(t | unknown)
            unknown = unknown.copy()
            todo = np.flatnonzero(~settled)  # positions still undecided
            for item in rest:
                if not len(todo):
                    break
                t, u = item(rows[todo])
                hit = t if is_or else ~(t | u)
                settled[todo[hit]] = True
                unknown[todo[u]] = True
                todo = todo[~hit]
            unknown &= ~settled
            return (settled if is_or else ~settled & ~unknown), unknown
        return junction
    if isinstance(node, Not):
        item = compile_columns(node.item, resolve)

        def negate(rows):
            t, unknown = item(rows)
            return ~t & ~unknown, unknown
        return negate
    raise ValueError(f"not a predicate node: {node!r}")


def _column_operand(node, resolve):
    if isinstance(node, Ref):
        return resolve(node.path)
    if not isinstance(node, Lit):
        raise ValueError(f"not an operand: {node!r}")
    v = node.value
    if type(v) is int and _INT64.min <= v <= _INT64.max:
        v = np.int64(v)
    elif type(v) in (float, bool):
        v = np.array(v)[()]  # numpy scalar: its dtype gives the kind
    null = None if v is not None else True
    return lambda rows: (v, null)


def _kind(v) -> str:
    """i, f, b for int64, float64 and bool operands; O for any other."""
    kind = getattr(v, "dtype", None)
    return kind.kind if kind is not None and kind.kind in "ifb" else "O"


def _compare_columns(op, a, a_null, b, b_null, n):
    """One comparison over ``n`` rows; an operand is a column slice or a
    literal scalar, and a null mask of None means no nulls (True: all)."""
    unknown = np.zeros(n, dtype=bool)
    for null in (a_null, b_null):
        if null is not None:
            unknown |= null
    ka, kb = _kind(a), _kind(b)
    if "O" in (ka, kb):
        known = np.flatnonzero(~unknown)
        xs, ys = (v[known].tolist() if np.ndim(v) else
                  [v.item() if isinstance(v, np.generic) else v] * len(known)
                  for v in (a, b))
        res = np.zeros(n, dtype=bool)
        fn = _OPS[op]
        res[known] = [_compare(op, fn, x, y) for x, y in zip(xs, ys)]
        return res, unknown
    if ka == kb:
        res = _OPS[op](a, b)
    elif {ka, kb} == {"i", "f"}:
        res = (_int_float(op, a, b) if ka == "i"
               else _int_float(_MIRROR[op], b, a))
    elif op in ("=", "!="):  # bool against a number: never equal
        res = op == "!="
    elif (~unknown).any():
        raise TypeMismatchError(f"cannot order {_KIND_NAMES[ka]} against "
                                f"{_KIND_NAMES[kb]}")
    else:
        res = False
    return np.broadcast_to(res, (n,)) & ~unknown, unknown


def _int_float(op, i, f):
    """``i op f`` compared exactly, as Python compares int and float: an
    int64 past 2**53 is not rounded to the float it is compared with."""
    fi = np.asarray(i, dtype=np.float64)
    lt, gt = fi < f, fi > f
    # rounding keeps order, so only equal-after-rounding pairs need the exact
    # test; there f is integral, and 2**63 is above every int64
    tie = fi == f
    top = np.asarray(f) >= 2.0 ** 63
    fint = np.where(tie & ~top, f, 0).astype(np.int64)
    lt = lt | (tie & (top | (i < fint)))
    gt = gt | (tie & ~top & (i > fint))
    eq = tie & ~top & (i == fint)
    return {"=": eq, "!=": ~eq, "<": lt, "<=": lt | eq, ">": gt,
            ">=": gt | eq}[op]


# ------------------------------------------------------------------- analysis

def equi_conjuncts(node):
    """Split a predicate into ref=ref equality conjuncts plus a residual.

    Returns (pairs, residual) where pairs is a list of (left_ref, right_ref)
    path strings and residual is a predicate AST or None. Anything not shaped
    as a top-level AND of comparisons contributes no pairs.
    """
    conjuncts = list(node.items) if isinstance(node, And) else [node]
    pairs, rest = [], []
    for c in conjuncts:
        if isinstance(c, Cmp) and c.op == "=" and \
                isinstance(c.left, Ref) and isinstance(c.right, Ref):
            pairs.append((c.left.path, c.right.path))
        else:
            rest.append(c)
    residual = None
    if rest:
        residual = rest[0] if len(rest) == 1 else And(tuple(rest))
    return pairs, residual


def bound_names(pred, rec: str, arr: str) -> list[str]:
    """The names x that ``pred`` equates at its top level, written
    ``<rec>.x``, with a reference into the other input, written
    ``<arr>.y``; none when the two inputs share a name."""
    if rec == arr:
        return []
    names = []
    for pair in equi_conjuncts(pred)[0]:
        for r, a in (pair, pair[::-1]):
            head, _, x = r.partition(".")
            if head == rec and x and a.startswith(arr + "."):
                names.append(x)
    return names
