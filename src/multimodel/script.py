"""The query-script language: Python syntax over datasets.

A script is a sequence of assignments over opened datasets, closed by a
single ``execute(target)``.  Python's own :mod:`ast` parser reads it, and
:class:`Binder` walks the statements, accepting only these constructs:

- statements: ``name = expr``, ``a, b = x, y``, ``for i in range(n):``
  without ``else``, and ``execute(expr)``;
- expressions: int, float and string literals, names, ``{...}`` lists,
  calls of the open functions and ``rand``, method calls, ``.T`` and
  ``+ - * / @``.

Any other node is refused with a :class:`ScriptError` at its line and
column.  Scripts bind to a :class:`LogicalPlan`; dataset expressions become
plan nodes while plain integers stay bind-time values, so loops unroll and
``rand({rows, rank})`` receives concrete shapes.  A dataset is one scan
node: opening it again gives the node the first ``open*`` call made.
Predicates, sort specs and aggregate lists are parsed here, once: a plan
holds the predicate's tree, ``(path, descending)`` sort keys and
``(func, attr, name)`` aggregates.  ``count()`` directly on an opened
dataset is evaluated at bind time for the same reason.

Example::

    t = openTable('points')
    kept = t.filter('x >= 3').sort('x DESC').limit(5)
    execute(kept)
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from typing import Any

from .errors import NotFoundError, ScriptError
from .planner import LogicalPlan
from .predicates import parse_predicate, parse_sort_spec

_REL, _DOC, _ARR = "relational", "document", "array"


def parse_script(text: str) -> list[ast.stmt]:
    """Parse a script with Python's parser; returns its statements."""
    try:
        with warnings.catch_warnings():
            # an unknown escape such as '\d' keeps both characters, with no
            # warning to turn into an error under -W error
            warnings.simplefilter("ignore")
            return ast.parse(text).body
    except SyntaxError as e:
        raise ScriptError(e.msg, e.lineno or 0, e.offset or 0) from None


def _brace(e: ast.expr) -> list | None:
    """The items of a ``{...}`` list (``{}`` parses as an empty dict), or
    None when ``e`` is not one."""
    if isinstance(e, ast.Set):
        return e.elts
    if isinstance(e, ast.Dict) and not e.keys:
        return []
    return None


def _is_str(e: ast.expr) -> bool:
    return isinstance(e, ast.Constant) and isinstance(e.value, str)


# ---------------------------------------------------------------------------
# binding: Python statements -> LogicalPlan

@dataclass(frozen=True)
class NodeRef:
    """A dataset-valued script expression: plan node id plus the data model
    of the value it produces (an inter-model node still *produces* one)."""

    id: int
    model: str


_OPEN_KINDS = {"openTable": _REL, "openCollection": _DOC, "openArray": _ARR}
_OUT_MODELS = {"RELATIONAL": _REL, "DOCUMENT": _DOC, "ARRAY": _ARR}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.MatMult: "@"}
_AGG_ITEM = re.compile(r"^\s*(\w+)\s*\(\s*(\*|[\w.]+)\s*\)\s+as\s+([\w.]+)\s*$")

# (fewest, most) positional arguments of every function and method
_ARITY = {
    "openTable": (1, 1), "openCollection": (1, 1), "openArray": (1, 1),
    "rand": (1, 1), "range": (1, 1), "execute": (1, 1),
    "filter": (1, 1), "project": (1, 1), "sort": (1, 1), "limit": (1, 1),
    "unwind": (1, 1), "union": (1, 1), "aggregate": (2, 2), "count": (0, 0),
    "toArray": (2, 2), "matmul": (1, 1), "transpose": (0, 0), "join": (1, 3),
}


class Binder:
    """Walks parsed statements, folding scalars and growing the plan."""

    def __init__(self, catalog, config):
        self.catalog = catalog
        self.config = config
        self.plan = LogicalPlan()
        self.env: dict[str, Any] = {}
        self.rand_count = 0
        self.opened: dict[tuple[str, str], NodeRef] = {}  # (model, name)
        self.target: int | None = None
        self.lines: list[str] = []

    def bind(self, text: str) -> tuple[LogicalPlan, int]:
        self.lines = re.split(r"\r\n?|\n", text)  # as Python counts lines
        for s in parse_script(text):
            self._stmt(s)
        if self.target is None:
            raise ScriptError("script never calls execute()")
        return self._pruned(), self.target

    def _pruned(self) -> LogicalPlan:
        """Drop nodes the execute target never reads (e.g. datasets opened
        only to be counted at bind time)."""
        keep: set[int] = set()
        stack = [self.target]
        while stack:
            nid = stack.pop()
            if nid in keep:
                continue
            keep.add(nid)
            stack.extend(self.plan.node(nid).inputs)
        return LogicalPlan([n for n in self.plan.nodes if n.id in keep])

    def _err(self, msg: str, node: ast.AST) -> ScriptError:
        """A ScriptError at ``node``; for ``x.name`` and ``x.name(...)``, at
        ``name``."""
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Attribute):
            line, end = node.end_lineno, node.end_col_offset
            back = len(node.attr)
        else:
            line, end, back = node.lineno, node.col_offset, 0
        # ast counts UTF-8 bytes into the line; a ScriptError, characters
        col = len(self.lines[line - 1].encode()[:end].decode()) - back
        return ScriptError(msg, line, col + 1)

    def _args(self, call: ast.Call, name: str) -> list[ast.expr]:
        """The positional arguments of ``call``, refused when they are keyword
        or starred, or too few or too many for ``name``."""
        lo, hi = _ARITY[name]
        if call.keywords:
            raise self._err(f"{name}() takes no keyword arguments", call)
        if any(isinstance(a, ast.Starred) for a in call.args):
            raise self._err(f"{name}() takes no *arguments", call)
        if not lo <= len(call.args) <= hi:
            want = lo if lo == hi else f"{lo} to {hi}"
            s = "" if hi == 1 else "s"
            raise self._err(f"{name}() takes {want} argument{s}, "
                            f"got {len(call.args)}", call)
        return call.args

    # -- statements ---------------------------------------------------------

    def _stmt(self, s: ast.stmt) -> None:
        if isinstance(s, ast.Assign):
            if len(s.targets) != 1:
                raise self._err("one '=' per assignment", s)
            target = s.targets[0]
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for t in names:
                if not isinstance(t, ast.Name):
                    raise self._err("assignment target must be a name", t)
            exprs = s.value.elts if isinstance(s.value, ast.Tuple) \
                else [s.value]
            vals = [self._expr(e) for e in exprs]
            if len(names) != len(vals):
                raise self._err(
                    f"{len(names)} targets but {len(vals)} values", s)
            for t, v in zip(names, vals):
                self.env[t.id] = v
        elif isinstance(s, ast.For):
            it = s.iter
            if not isinstance(s.target, ast.Name):
                raise self._err("expected a loop variable", s.target)
            if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range"):
                raise self._err("only 'range(n)' loops are supported", it)
            if s.orelse:
                raise self._err("a for-loop takes no else", s)
            n = self._expr(self._args(it, "range")[0])
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise self._err("range() needs a non-negative integer known "
                                "at bind time", it)
            for k in range(n):
                self.env[s.target.id] = k
                for b in s.body:
                    self._stmt(b)
        elif isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
                and isinstance(s.value.func, ast.Name) \
                and s.value.func.id == "execute":
            arg = self._args(s.value, "execute")[0]
            if self.target is not None:
                raise self._err("execute() must appear exactly once", s)
            v = self._expr(arg)
            if not isinstance(v, NodeRef):
                raise self._err("execute() needs a dataset expression", s)
            self.target = v.id
        else:
            raise self._err("expected an assignment, for-loop or execute()", s)

    # -- expressions ----------------------------------------------------------

    def _expr(self, e: ast.expr):
        if isinstance(e, ast.Constant):
            if type(e.value) in (int, float):
                return e.value
            if isinstance(e.value, str):
                raise self._err("string literal outside an argument "
                                "position", e)
            raise self._err(f"unsupported literal {e.value!r}", e)
        if isinstance(e, ast.Name):
            try:
                return self.env[e.id]
            except KeyError:
                raise self._err(f"undefined name {e.id!r}", e) from None
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
            return self._call(e)
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Attribute):
            return self._method(e)
        if isinstance(e, ast.Attribute):
            if e.attr != "T":
                raise self._err(f"{e.attr!r} is not callable without "
                                f"parentheses (only .T is an attribute)", e)
            return self._m_transpose(e, self._expr(e.value))
        if isinstance(e, ast.BinOp) and type(e.op) in _BINOPS:
            return self._binop(e, _BINOPS[type(e.op)])
        if _brace(e) is not None:
            raise self._err("brace list outside an argument position", e)
        raise self._err(f"unsupported expression ({type(e).__name__})", e)

    def _call(self, e: ast.Call):
        func = e.func.id
        if func in _OPEN_KINDS:
            self._args(e, func)
            name = self._arg_str(e, 0)
            model = _OPEN_KINDS[func]
            if (model, name) not in self.opened:
                if not self.catalog.exists(name, model):
                    raise NotFoundError(f"dataset {name!r} not found "
                                        f"(line {e.lineno})")
                op = "scan_array" if model == _ARR else "scan"
                n = self.plan.add(op, model, name=name, qualifier=name)
                self.opened[model, name] = NodeRef(n.id, model)
            return self.opened[model, name]
        if func == "rand":
            items = _brace(self._args(e, func)[0])
            if not items:
                raise self._err("rand takes a {dim, ...} size list", e)
            size = [self._expr(x) for x in items]
            for s in size:
                if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                    raise self._err("rand sizes must be positive integers "
                                    "known at bind time", e)
            seed = self.config.seed + self.rand_count
            self.rand_count += 1
            n = self.plan.add("rand", _ARR, size=size, seed=seed)
            return NodeRef(n.id, _ARR)
        raise self._err(f"unknown function {func!r}", e)

    def _binop(self, e: ast.BinOp, op: str):
        l, r = self._expr(e.left), self._expr(e.right)
        if isinstance(l, (int, float)) and isinstance(r, (int, float)):
            if op == "@":
                raise self._err("'@' applies to arrays", e)
            if op == "/" and r == 0:
                raise self._err("division by zero", e)
            return {"+": l + r, "-": l - r, "*": l * r, "/": l / r}[op]
        if isinstance(l, NodeRef) and isinstance(r, NodeRef) \
                and l.model == _ARR and r.model == _ARR:
            if op == "@":
                n = self.plan.add("matmul", _ARR, inputs=[l.id, r.id])
            else:
                n = self.plan.add("ewise", _ARR, inputs=[l.id, r.id], fn=op)
            return NodeRef(n.id, _ARR)
        raise self._err(f"cannot apply {op!r} to these operands", e)

    # -- methods --------------------------------------------------------------

    def _method(self, m: ast.Call):
        name = m.func.attr
        recv = self._expr(m.func.value)
        handler = getattr(self, f"_m_{name}", None)
        if handler is None or not isinstance(recv, NodeRef):
            raise self._err(f"unknown method .{name}()", m)
        self._args(m, name)
        return handler(m, recv)

    def _need_model(self, v, model, what, node) -> None:
        if not isinstance(v, NodeRef):
            raise self._err(f".{what} needs a dataset", node)
        models = (model,) if isinstance(model, str) else model
        if v.model not in models:
            raise self._err(f".{what} does not apply to {v.model} data", node)

    def _arg_str(self, m, i) -> str:
        if not _is_str(m.args[i]):
            raise self._err(f"argument {i + 1} must be a quoted string", m)
        return m.args[i].value

    def _checked(self, parse, what: str, text: str, m):
        """``parse(text)``, its ScriptError raised at the call ``m``."""
        try:
            return parse(text)
        except ScriptError as e:
            raise self._err(f"bad {what}: {e.args[0]}", m) from None

    def _syntactic_name(self, expr, ref: NodeRef, fallback: str) -> str:
        if isinstance(expr, ast.Name):
            return expr.id
        node = self.plan.node(ref.id)
        return node.params.get("name", fallback)

    def _m_filter(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "filter", m)
        pred = self._checked(parse_predicate, "predicate",
                             self._arg_str(m, 0), m)
        n = self.plan.add("filter", recv.model, inputs=[recv.id], pred=pred)
        return NodeRef(n.id, recv.model)

    def _m_project(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "project", m)
        cols = [c.strip() for c in self._arg_str(m, 0).split(",")
                if c.strip()]
        if not cols:
            raise self._err("project needs at least one column", m)
        n = self.plan.add("project", recv.model, inputs=[recv.id], cols=cols)
        return NodeRef(n.id, recv.model)

    def _m_sort(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "sort", m)
        keys = self._checked(parse_sort_spec, "sort spec",
                             self._arg_str(m, 0), m)
        n = self.plan.add("sort", recv.model, inputs=[recv.id], keys=keys)
        return NodeRef(n.id, recv.model)

    def _m_limit(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "limit", m)
        k = self._expr(m.args[0])
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise self._err("limit needs a non-negative integer", m)
        n = self.plan.add("limit", recv.model, inputs=[recv.id], n=k)
        return NodeRef(n.id, recv.model)

    def _m_unwind(self, m, recv):
        self._need_model(recv, _DOC, "unwind", m)
        n = self.plan.add("unwind", _DOC, inputs=[recv.id],
                          path=self._arg_str(m, 0))
        return NodeRef(n.id, _DOC)

    def _m_union(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "union", m)
        other = self._expr(m.args[0])
        if not isinstance(other, NodeRef) or other.model != recv.model:
            raise self._err("union needs a dataset of the same model", m)
        n = self.plan.add("union", recv.model, inputs=[recv.id, other.id])
        return NodeRef(n.id, recv.model)

    def _m_aggregate(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "aggregate", m)
        keys = [k.strip() for k in self._arg_str(m, 0).split(",")
                if k.strip()]
        aggs = []
        for part in self._arg_str(m, 1).split(","):
            g = _AGG_ITEM.match(part)
            if g is None:
                raise self._err(f"bad aggregate {part.strip()!r}; expected "
                                f"func(attr) as name", m)
            func, ref, out = g.groups()
            aggs.append((func, None if ref == "*" else ref, out))
        n = self.plan.add("aggregate", recv.model, inputs=[recv.id],
                          keys=keys, aggs=aggs)
        return NodeRef(n.id, _REL)

    def _m_count(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "count", m)
        node = self.plan.node(recv.id)
        if node.op == "scan":
            # sizing value, needed at bind time (e.g. rand shapes)
            return self.catalog.count(node.params["name"], recv.model)
        n = self.plan.add("aggregate", recv.model, inputs=[recv.id],
                          keys=[], aggs=[("count", None, "count")])
        return NodeRef(n.id, _REL)

    def _m_toArray(self, m, recv):
        self._need_model(recv, (_REL, _DOC), "toArray", m)

        def strings(arg):
            items = _brace(arg)
            if items is None:
                raise self._err("toArray takes {'dim', ...}, "
                                "{'value', ...}", m)
            for item in items:
                if not _is_str(item):
                    raise self._err("toArray names must be quoted "
                                    "strings", item)
            return [item.value for item in items]

        dims = strings(m.args[0])
        if not dims:
            raise self._err("toArray needs at least one dimension", m)
        n = self.plan.add("to_array", "inter-model", inputs=[recv.id],
                          dims=dims, values=strings(m.args[1]))
        return NodeRef(n.id, _ARR)

    def _m_matmul(self, m, recv):
        self._need_model(recv, _ARR, "matmul", m)
        other = self._expr(m.args[0])
        if not isinstance(other, NodeRef) or other.model != _ARR:
            raise self._err("matmul needs an array argument", m)
        n = self.plan.add("matmul", _ARR, inputs=[recv.id, other.id])
        return NodeRef(n.id, _ARR)

    def _m_transpose(self, m, recv):
        self._need_model(recv, _ARR, "transpose", m)
        n = self.plan.add("transpose", _ARR, inputs=[recv.id])
        return NodeRef(n.id, _ARR)

    def _m_join(self, m, recv):
        other = self._expr(m.args[0])
        if not isinstance(other, NodeRef):
            raise self._err("join needs a dataset argument", m)
        out_model = None
        if len(m.args) == 3:
            tok = m.args[2]
            if not isinstance(tok, ast.Name) or tok.id not in _OUT_MODELS:
                raise self._err("join output model must be RELATIONAL, "
                                "DOCUMENT or ARRAY", m)
            out_model = _OUT_MODELS[tok.id]

        l, r = recv, other
        if l.model == _ARR and r.model == _ARR:
            if len(m.args) != 1:
                raise self._err("array-array joins match on coordinates; "
                                "no predicate applies", m)
            n = self.plan.add("spatial_join", _ARR, inputs=[l.id, r.id])
            return NodeRef(n.id, _ARR)
        if len(m.args) < 2:
            raise self._err("join needs a predicate string", m)
        pred = self._checked(parse_predicate, "predicate",
                             self._arg_str(m, 1), m)
        if _ARR in (l.model, r.model):
            if l.model == _ARR:
                arr, rec = l, r
                arr_expr, rec_expr = m.func.value, m.args[0]
            else:
                arr, rec = r, l
                arr_expr, rec_expr = m.args[0], m.func.value
            model = out_model or rec.model
            n = self.plan.add(
                "join_rel_array", "inter-model", inputs=[rec.id, arr.id],
                pred=pred,
                rec_name=self._syntactic_name(rec_expr, rec, "rec"),
                arr_name=self._syntactic_name(arr_expr, arr, "arr"),
                out_model=model)
            return NodeRef(n.id, model)
        model = _DOC if _DOC in (l.model, r.model) else _REL
        if out_model is not None and out_model != model:
            raise self._err(f"a {model} join cannot emit {out_model} "
                            f"output", m)
        n = self.plan.add("join", model, inputs=[l.id, r.id], pred=pred)
        return NodeRef(n.id, model)


def bind_script(text: str, catalog, config) -> tuple[LogicalPlan, int]:
    """Parse and bind a script; returns (plan, execute-target node id)."""
    return Binder(catalog, config).bind(text)
