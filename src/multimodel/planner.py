"""Logical plans, model-based partitioning, and DAG-to-tree decomposition.

A query becomes a :class:`LogicalPlan`: an append-only DAG of operation
nodes, each tagged with the data model it runs under.  ``partition`` groups
nodes into single-model partitions via bottom-up merging, ``topo_order``
schedules the partitions, and ``dag_to_trees`` rewrites a relational or
document partition into executable trees, materializing any subtree that is
consumed more than once or by another partition.  Before any of that,
``rewrite`` turns the plan as bound into the plan that runs: matmul chains
in their cheapest order, transposes read by the matmuls that consume them,
and filters on the attributes a record–array join binds moved below the
join, onto its records.  Plans hold parsed values (a predicate's tree, sort
keys as ``(path, descending)``); ``plan_to_dict`` writes them as text.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from . import array_engine
from .errors import InternalError, PlanError, ShapeError
from .models import ArrayMeta
from .predicates import And, Lit, Not, Or, bound_names, format_predicate

MODELS = ("relational", "document", "array", "inter-model")


@dataclass(frozen=True)
class PlanNode:
    id: int
    op: str
    model: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple[int, ...] = ()


class LogicalPlan:
    """Operation DAG; every edge runs from an input node to its consumer."""

    def __init__(self, nodes: Iterable[PlanNode] = ()):
        self._nodes: dict[int, PlanNode] = {}
        for n in nodes:
            if n.model not in MODELS:
                raise PlanError(f"unknown model tag {n.model!r}")
            if n.id in self._nodes:
                raise PlanError(f"duplicate node id {n.id}")
            self._nodes[n.id] = n
        for n in self._nodes.values():
            for i in n.inputs:
                if i not in self._nodes:
                    raise PlanError(f"node {n.id} reads undefined node {i}")
        self._next_id = max(self._nodes, default=-1) + 1

    def add(self, op: str, model: str,
            inputs: Iterable["PlanNode | int"] = (), **params) -> PlanNode:
        """Append a node; inputs must already be in the plan, so ``add``
        alone can never build a cycle."""
        if model not in MODELS:
            raise PlanError(f"unknown model tag {model!r}")
        ids = tuple(i.id if isinstance(i, PlanNode) else int(i) for i in inputs)
        for i in ids:
            if i not in self._nodes:
                raise PlanError(f"input node {i} not in plan")
        node = PlanNode(self._next_id, op, model, dict(params), ids)
        self._nodes[node.id] = node
        self._next_id += 1
        return node

    def node(self, nid: int) -> PlanNode:
        try:
            return self._nodes[nid]
        except KeyError:
            raise PlanError(f"no node {nid} in plan") from None

    @property
    def nodes(self) -> list[PlanNode]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def consumers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {nid: [] for nid in self._nodes}
        for n in self.nodes:
            for i in n.inputs:
                out[i].append(n.id)
        return out

    def is_acyclic(self) -> bool:
        indeg = {nid: len(n.inputs) for nid, n in self._nodes.items()}
        ready = [nid for nid, d in indeg.items() if d == 0]
        done = 0
        cons = self.consumers()
        while ready:
            nid = ready.pop()
            done += 1
            for c in cons[nid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return done == len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass(frozen=True)
class Partition:
    """A maximal single-model node group.  ``index`` is the creation index
    (ascending smallest-member id), used for deterministic tie-breaks."""

    index: int
    model: str
    node_ids: frozenset[int]
    output_node: int


@dataclass(frozen=True)
class PartitionDag:
    partitions: tuple[Partition, ...]
    edges: frozenset[tuple[int, int]]  # (producer index, consumer index)


def partition(plan: LogicalPlan) -> PartitionDag:
    """Group plan nodes into single-model partitions.

    Starts from singletons and walks depth-first from producer-less
    partitions, merging a partition into an adjacent consumer whenever the
    pair (1) shares a model, (2) would keep exactly one output node, and
    (3) would not create a cycle in the partition graph.  Passes repeat
    until no merge fires, so no adjacent mergeable pair survives.
    """
    nodes = plan.nodes
    if not plan.is_acyclic():
        raise PlanError("plan graph is cyclic")
    cons_node = plan.consumers()

    # partition key == smallest node id it contains (kept through merges)
    parts: dict[int, set[int]] = {n.id: {n.id} for n in nodes}
    part_of: dict[int, int] = {n.id: n.id for n in nodes}
    pmodel: dict[int, str] = {n.id: n.model for n in nodes}

    def succ(key: int) -> list[int]:
        seen: list[int] = []
        for nid in sorted(parts[key]):
            for c in cons_node[nid]:
                ck = part_of[c]
                if ck != key and ck not in seen:
                    seen.append(ck)
        return seen

    def has_producer(key: int) -> bool:
        return any(part_of[i] != key
                   for nid in parts[key] for i in plan.node(nid).inputs)

    def indirect_path(a: int, b: int) -> bool:
        # some path a -> ... -> b through a third partition?
        stack = [s for s in succ(a) if s != b]
        seen = set(stack)
        while stack:
            k = stack.pop()
            if k == b:
                return True
            for s in succ(k):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    def can_merge(a: int, b: int) -> bool:
        if pmodel[a] != pmodel[b] or pmodel[a] == "inter-model":
            return False
        union = parts[a] | parts[b]
        outs = [nid for nid in union
                if not any(c in union for c in cons_node[nid])]
        if len(outs) != 1:
            return False
        return not indirect_path(a, b)

    def do_merge(a: int, b: int) -> int:
        key = min(a, b)
        union = parts.pop(a) | parts.pop(b)
        parts[key] = union
        for nid in union:
            part_of[nid] = key
        return key

    while True:
        changed = False
        visited: set[int] = set()
        roots = [k for k in sorted(parts) if not has_producer(k)]
        stack = list(reversed(roots))
        while stack:
            key = stack.pop()
            if key not in parts or key in visited:
                continue
            visited.add(key)
            merged = True
            while merged:
                merged = False
                for c in succ(key):
                    if can_merge(key, c):
                        key = do_merge(key, c)
                        visited.add(key)
                        changed = merged = True
                        break
            for c in reversed(succ(key)):
                stack.append(c)
        if not changed:
            break

    keys = sorted(parts)
    index_of = {k: i for i, k in enumerate(keys)}
    plist = []
    for i, k in enumerate(keys):
        ids = parts[k]
        outs = [nid for nid in ids
                if not any(c in ids for c in cons_node[nid])]
        if len(outs) != 1:
            raise InternalError(f"partition {k} has {len(outs)} output nodes")
        plist.append(Partition(i, pmodel[k], frozenset(ids), outs[0]))
    edges = set()
    for n in nodes:
        for i in n.inputs:
            a, b = part_of[i], part_of[n.id]
            if a != b:
                edges.add((index_of[a], index_of[b]))
    return PartitionDag(tuple(plist), frozenset(edges))


RECORD_MODELS = ("relational", "document")


def topo_order(pd: PartitionDag) -> list[Partition]:
    """Producers before consumers.  Of the partitions ready to run,
    relational and document ones go first, then array and inter-model ones;
    ties are broken by creation index.  What a record partition loads is
    freed when it ends, while an array result stays in the pool until its
    last consumer runs, so a small record result is made before arrays
    fill the pool rather than while they hold it."""
    key = {p.index: (p.model not in RECORD_MODELS, p.index)
           for p in pd.partitions}
    succ: dict[int, list[int]] = {p.index: [] for p in pd.partitions}
    indeg = dict.fromkeys(succ, 0)
    for a, b in sorted(pd.edges):
        succ[a].append(b)
        indeg[b] += 1
    ready = [key[i] for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for c in succ[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, key[c])
    if len(order) != len(pd.partitions):
        raise InternalError("partition graph contains a cycle")
    by_index = {p.index: p for p in pd.partitions}
    return [by_index[i] for i in order]


# ---------------------------------------------------------------------------
# plan rewrites

Tree = Any  # an operand position, or a (left, right) pair of trees

# operands a reordered chain may have: the dynamic program is cubic in
# them, and a longer chain keeps its written order
MAX_CHAIN = 32


def chain_order(extents) -> tuple[int, Tree]:
    """The cheapest order of a matrix chain by the classic dynamic program
    (CLRS 15.2; Hu & Shing find the same order faster): ``extents`` are the
    operands' (rows, columns), the cost is the count of scalar multiplies.
    Returns (cost, tree).  Among equal costs the split furthest right wins,
    so ties evaluate left to right."""
    n = len(extents)
    p = [extents[0][0]] + [c for _, c in extents]
    cost = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            cost[i][j], split[i][j] = min(
                (cost[i][k] + cost[k + 1][j] + p[i] * p[k + 1] * p[j + 1], -k)
                for k in range(i, j))
            split[i][j] *= -1

    def tree(i: int, j: int) -> Tree:
        if i == j:
            return i
        k = split[i][j]
        return (tree(i, k), tree(k + 1, j))

    return cost[0][n - 1], tree(0, n - 1)


def tree_cost(tree: Tree, extents) -> tuple[int, tuple[int, int]]:
    """(scalar multiplies, result extent) of evaluating ``tree``."""
    if isinstance(tree, int):
        return 0, tuple(extents[tree])
    (ca, (r, k)), (cb, (_, c)) = (tree_cost(t, extents) for t in tree)
    return ca + cb + r * k * c, (r, c)


def tree_meta(tree: Tree, metas: list[ArrayMeta]) -> ArrayMeta:
    """The result metadata of evaluating ``tree``, by matmul's own rule."""
    if isinstance(tree, int):
        return metas[tree]
    return array_engine.matmul_meta(*(tree_meta(t, metas) for t in tree))


def _known_meta(n: PlanNode, metas: dict) -> ArrayMeta | None:
    """Node n's array metadata when bind time fixes it: a ``rand``, and a
    ``transpose`` or ``matmul`` of such arrays.  Tile sizes are set at run
    time; a chain's result tiling does not depend on its order, so each
    array here counts as one tile."""
    ins = [metas[i] for i in n.inputs]
    if None in ins:
        return None
    try:
        if n.op == "rand":
            return array_engine.rand_meta(n.params["size"], n.params["size"])
        if n.op == "transpose":
            return array_engine.transposed_meta(ins[0])
        if n.op == "matmul":
            return array_engine.matmul_meta(*ins)
    except ShapeError:
        pass  # the run raises it, as written
    return None


def _written(plan: LogicalPlan, nid: int, inner: Callable[[int], bool],
             leaves: list[int]) -> Tree:
    """The chain rooted at matmul nid as written: its tree over positions
    into ``leaves``, which collects the operand node ids in order."""
    sides = []
    for i in plan.node(nid).inputs:
        if inner(i):
            sides.append(_written(plan, i, inner, leaves))
        else:
            leaves.append(i)
            sides.append(len(leaves) - 1)
    return tuple(sides)


def _record_model(n: PlanNode) -> str:
    """The model of the records node n produces: an aggregate gives a
    relation and a record–array join its output model, whatever model
    their partition runs under."""
    if n.op == "aggregate":
        return "relational"
    return n.params["out_model"] if n.op == "join_rel_array" else n.model


def _bound_attrs(params: Mapping[str, Any]) -> set[str]:
    """The record attributes x that a record–array join's predicate
    equates at its top level, written ``<rec_name>.x``, with a reference
    into the array, written ``<arr_name>.y``.  Every strategy reads that x
    as the record's own attribute or top-level key, so a record the join
    keeps has x, not null, and the join's output carries it unchanged
    under the bare name x."""
    return {x for x in bound_names(params["pred"], params["rec_name"],
                                   params["arr_name"])
            if "." not in x}


def _pushable(pred, attrs: set[str]) -> bool:
    """Whether ``pred`` only compares, by ``=`` and ``!=`` under any AND, OR
    and NOT, literals and bare references to ``attrs``.  (The plan does not
    know the records' qualifiers, which name the same columns above the
    join; an order comparison can raise on a record the join drops.)"""
    if isinstance(pred, (And, Or)):
        return all(_pushable(p, attrs) for p in pred.items)
    if isinstance(pred, Not):
        return _pushable(pred.item, attrs)
    return pred.op in ("=", "!=") and all(
        isinstance(o, Lit) or o.path in attrs for o in (pred.left, pred.right))


def _plain_names(plan: LogicalPlan, nid: int, model: str) -> bool:
    """Whether a bare name reads the rows of node nid, inside the tree of a
    ``model`` filter on them, as it reads the records the node produces.
    Always for documents.  For a relation, when filters, sorts and limits
    lead from nid to a scan, or to a node of another model: a relational
    join may hold two columns of one bare name, which a record–array join's
    output names apart (``bridge``), while a scan's columns and an
    aggregate's (see ``rd_engine``) are named apart already."""
    if model == "document":
        return True
    n = plan.node(nid)
    while n.model == model and n.op in ("filter", "sort", "limit"):
        n = plan.node(n.inputs[0])
    return n.model != model or n.op == "scan"


def _conjoin(items: list):
    return items[0] if len(items) == 1 else And(tuple(items))


def rewrite(plan: LogicalPlan, target: int) -> tuple[LogicalPlan, int]:
    """The plan to run for a bound plan, as a fresh plan whose node ids
    follow the bound order with inputs before consumers.

    Chain order: a maximal tree of matmuls whose extents bind time fixes
    (see ``_known_meta``), each inner one read by its parent alone and not
    the target, is rebuilt in the order ``chain_order`` finds cheapest.  It
    keeps its written order unless that order costs strictly more, the
    reordered result has the same metadata (names, kind, extent) and the
    chain has at most ``MAX_CHAIN`` operands.
    Folded transposes: a transpose read only by matmuls is dropped, and each
    of those matmuls reads its input with ``transpose_a``/``transpose_b``.
    Filter pushdown: when a filter is the only reader of a record–array join
    with relational or document output that is not the target, each
    conjunct of its top-level AND that ``_pushable`` accepts moves into a new
    filter on the join's records (see ``_bound_attrs``, ``_plain_names``);
    the rest stay above the join, and a filter left with none is dropped;
    when that filter is the target, its join becomes the target.  A moved
    conjunct reads a record's value as the join emits it and never raises,
    so the plan that runs raises only where the plan as bound raises, and
    where that one succeeds both give the same rows, order and schema.
    """
    cons = plan.consumers()
    metas: dict[int, ArrayMeta | None] = {}
    for n in plan.nodes:
        metas[n.id] = _known_meta(n, metas)

    def in_chain(nid: int) -> bool:
        return plan.node(nid).op == "matmul" and metas[nid] is not None

    def inner(nid: int) -> bool:
        return (in_chain(nid) and nid != target and len(cons[nid]) == 1
                and in_chain(cons[nid][0]))

    # node key -> [op, model, params, input keys]; new nodes get keys < 0
    specs = {n.id: [n.op, n.model, dict(n.params), list(n.inputs)]
             for n in plan.nodes}
    fresh = itertools.count(-1, -1)
    for n in plan.nodes:
        if not in_chain(n.id) or inner(n.id):
            continue
        members, stack = [], [n.id]  # the chain's matmuls
        while stack:
            members.append(stack.pop())
            stack.extend(i for i in plan.node(members[-1]).inputs if inner(i))
        if not 2 <= len(members) < MAX_CHAIN:
            continue
        leaves: list[int] = []
        written = _written(plan, n.id, inner, leaves)
        extents = [metas[i].size for i in leaves]
        cost, best = chain_order(extents)
        lmetas = [metas[i] for i in leaves]
        if (cost >= tree_cost(written, extents)[0]
                or tree_meta(best, lmetas) != tree_meta(written, lmetas)):
            continue
        for i in members[1:]:
            del specs[i]

        def build(tree: Tree, key: int) -> int:
            if isinstance(tree, int):
                return leaves[tree]
            specs[key] = ["matmul", "array", {},
                          [build(t, next(fresh)) for t in tree]]
            return key

        build(best, n.id)

    folded = {n.id for n in plan.nodes
              if n.op == "transpose" and n.id != target and cons[n.id]
              and all(plan.node(c).op == "matmul" for c in cons[n.id])}
    for op, _, params, ins in specs.values():
        for j, key in enumerate(ins):
            if op == "matmul" and key in folded:
                ins[j] = specs[key][3][0]
                params["transpose_" + "ab"[j]] = True
    for key in folded:
        del specs[key]

    forward: dict[int, int] = {}  # a dropped filter -> the join it read
    for j in plan.nodes:
        if j.op != "join_rel_array" or j.id == target \
                or j.params["out_model"] not in RECORD_MODELS \
                or len(cons[j.id]) != 1:
            continue
        f, rec = cons[j.id][0], j.inputs[0]
        model = _record_model(plan.node(rec))
        attrs = _bound_attrs(j.params)
        if plan.node(f).op != "filter" or not attrs \
                or not _plain_names(plan, rec, model):
            continue
        pred = plan.node(f).params["pred"]
        items = list(pred.items) if isinstance(pred, And) else [pred]
        moved = [c for c in items if _pushable(c, attrs)]
        kept = [c for c in items if not _pushable(c, attrs)]
        if not moved:
            continue
        key = next(fresh)
        specs[key] = ["filter", model, {"pred": _conjoin(moved)}, [rec]]
        specs[j.id][3][0] = key
        if kept:
            specs[f][2]["pred"] = _conjoin(kept)
        else:
            del specs[f]
            forward[f] = j.id
    for spec in specs.values():
        spec[3] = [forward.get(i, i) for i in spec[3]]
    target = forward.get(target, target)

    order: list[int] = []  # bound order; new nodes just before their reader

    def place(key: int) -> None:
        for i in specs[key][3]:
            if i < 0:  # a new node: read by this one alone
                place(i)
        order.append(key)

    for key in sorted(k for k in specs if k >= 0):
        place(key)
    ids = {k: i for i, k in enumerate(order)}
    return LogicalPlan(
        PlanNode(ids[k], op, model, params, tuple(ids[i] for i in ins))
        for k in order for op, model, params, ins in [specs[k]]), ids[target]


# ---------------------------------------------------------------------------
# tree decomposition

@dataclass(frozen=True)
class TreeNode:
    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    children: tuple["TreeNode", ...] = ()


def dag_to_trees(plan: LogicalPlan, part: Partition
                 ) -> tuple[TreeNode, list[tuple[int, TreeNode]]]:
    """Rewrite a relational/document partition into executable trees.

    Returns the main tree (rooted at the partition's output node) plus an
    ordered list of ``(node id, tree)`` entries to materialize first: every
    node other than the output that is read more than once inside the
    partition, or read by another partition, is detached, and its readers
    inside get ``alias_ref`` leaves.  Inputs from other partitions become
    ``alias_ref`` leaves too.  A leaf holds only its node's id: it reads
    the value that node's own tree made, with the columns and qualifiers
    that tree gave it.
    """
    if part.model not in RECORD_MODELS:
        raise PlanError(
            f"cannot decompose a {part.model} partition into operator trees")
    inside = part.node_ids
    cons = plan.consumers()  # a self-join reads its input twice
    built: dict[int, TreeNode] = {}
    tree_list: list[tuple[int, TreeNode]] = []
    for nid in sorted(inside):  # inputs precede consumers, so this is bottom-up
        n = plan.node(nid)
        t = TreeNode(n.op, n.params, tuple(
            built[i] if i in built else TreeNode("alias_ref", {"id": i})
            for i in n.inputs))
        shared = sum(c in inside for c in cons[nid]) > 1 or \
            any(c not in inside for c in cons[nid])
        if shared and nid != part.output_node:
            tree_list.append((nid, t))
        else:
            built[nid] = t
    return built[part.output_node], tree_list


# ---------------------------------------------------------------------------
# serialization (the --explain document)

def plan_to_dict(plan: LogicalPlan) -> dict:
    """The plan as JSON values: a predicate as ``format_predicate`` writes
    it, sort keys as ``"path ASC|DESC, ..."`` and aggregates as lists."""
    def params(n: PlanNode) -> dict:
        p = dict(n.params)
        if "pred" in p:
            p["pred"] = format_predicate(p["pred"])
        if n.op == "sort":
            p["keys"] = ", ".join(f"{path} {'DESC' if desc else 'ASC'}"
                                  for path, desc in p["keys"])
        if "aggs" in p:
            p["aggs"] = [list(a) for a in p["aggs"]]
        return p

    return {"nodes": [{"id": n.id, "op": n.op, "model": n.model,
                       "params": params(n), "inputs": list(n.inputs)}
                      for n in plan.nodes]}


def partition_dag_to_dict(pd: PartitionDag) -> dict:
    return {
        "partitions": [{"index": p.index, "model": p.model,
                        "nodes": sorted(p.node_ids), "output": p.output_node}
                       for p in pd.partitions],
        "edges": sorted(map(list, pd.edges)),
        "order": [p.index for p in topo_order(pd)],
    }
