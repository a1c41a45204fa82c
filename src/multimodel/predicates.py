"""Predicate mini-language for filters and join conditions.

Comparisons (=, !=, <, <=, >, >=) over dotted references and literals,
combined with AND/OR/NOT and parentheses — exactly expressive enough for
method-chain scripts and benchmark filters.

Null semantics follow SQL's three-valued (Kleene) logic.  A comparison with
a null operand is unknown; AND is false if any operand is false, OR is true
if any operand is true, and otherwise either is unknown when an operand is;
NOT unknown is unknown.  A filter or join keeps only the rows where the
predicate is true, so ``NOT x = 3`` and ``x != 3`` both drop a null ``x``.
A predicate is compiled once per operator (``compile_predicate``) and then
evaluated per row.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ScriptError, TypeMismatchError

__all__ = [
    "Lit", "Ref", "Cmp", "And", "Or", "Not",
    "parse_predicate", "parse_sort_spec", "compile_predicate",
    "equi_conjuncts", "predicate_refs", "universal_key", "compare_values",
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


def compile_predicate(node, resolve: Callable[[str], Callable]):
    """Compile a predicate into ``row -> True | False | None`` (None is
    unknown).  ``resolve(path)`` is called once per reference and returns
    the getter ``row -> value`` (None for null) that every row then uses."""
    if isinstance(node, Cmp):
        fn, op = _OPS[node.op], node.op
        left = _operand(node.left, resolve)
        right = _operand(node.right, resolve)

        def cmp(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if type(a) is type(b) and type(a) in _SCALARS:
                return fn(a, b)
            return compare_values(op, a, b)
        return cmp
    if isinstance(node, (And, Or)):
        items = [compile_predicate(n, resolve) for n in node.items]
        decisive = isinstance(node, Or)  # the value that settles the result

        def junction(row):
            unknown = False
            for item in items:
                v = item(row)
                if v is None:
                    unknown = True
                elif v == decisive:
                    return decisive
            return None if unknown else not decisive
        return junction
    if isinstance(node, Not):
        item = compile_predicate(node.item, resolve)
        return lambda row: None if (v := item(row)) is None else not v
    raise ValueError(f"not a predicate node: {node!r}")


def _operand(node, resolve):
    if isinstance(node, Lit):
        return lambda row, v=node.value: v
    if isinstance(node, Ref):
        return resolve(node.path)
    raise ValueError(f"not an operand: {node!r}")


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


def predicate_refs(node) -> list[str]:
    """All reference paths mentioned, in first-appearance order."""
    out: list[str] = []

    def walk(n):
        if isinstance(n, Ref):
            if n.path not in out:
                out.append(n.path)
        elif isinstance(n, Cmp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (And, Or)):
            for x in n.items:
                walk(x)
        elif isinstance(n, Not):
            walk(n.item)

    walk(node)
    return out
