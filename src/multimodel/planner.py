"""Logical plans, model-based partitioning, and DAG-to-tree decomposition.

A query becomes a :class:`LogicalPlan`: an append-only DAG of operation
nodes, each tagged with the data model it runs under.  ``partition`` groups
nodes into single-model partitions via bottom-up merging, ``topo_order``
schedules the partitions, and ``dag_to_trees`` rewrites a relational or
document partition into executable trees, materializing any subtree that is
consumed more than once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import InternalError, PlanError

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
        nid = max(self._nodes, default=-1) + 1
        node = PlanNode(nid, op, model, dict(params), ids)
        self._nodes[nid] = node
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


def topo_order(pd: PartitionDag) -> list[Partition]:
    """Producers before consumers; ties broken by creation index."""
    indeg = {p.index: 0 for p in pd.partitions}
    succ: dict[int, list[int]] = {p.index: [] for p in pd.partitions}
    for a, b in sorted(pd.edges):
        succ[a].append(b)
        indeg[b] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in succ[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(pd.partitions):
        raise InternalError("partition graph contains a cycle")
    by_index = {p.index: p for p in pd.partitions}
    return [by_index[i] for i in order]


# ---------------------------------------------------------------------------
# tree decomposition

@dataclass(frozen=True)
class TreeNode:
    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    children: tuple["TreeNode", ...] = ()


def alias_key(node_id: int) -> str:
    return f"n{node_id}"


def _qualifier(plan: LogicalPlan, nid: int) -> str | None:
    """The qualifier node nid's rows carry in their own tree: their scan's,
    through any filter, sort or limit; none for any other producer."""
    n = plan.node(nid)
    while n.op in ("filter", "sort", "limit"):
        n = plan.node(n.inputs[0])
    if n.op != "scan":
        return None
    return n.params.get("qualifier") or n.params["name"]


def dag_to_trees(plan: LogicalPlan, part: Partition,
                 exports: Iterable[int] = ()
                 ) -> tuple[TreeNode, list[tuple[str, TreeNode]]]:
    """Rewrite a relational/document partition into executable trees.

    Returns the main tree (rooted at the partition's output node) plus an
    ordered list of ``(key, tree)`` entries to materialize first: every node
    consumed more than once inside the partition is detached and its
    consumers replaced with ``alias_ref`` leaves.  Inputs arriving from
    other partitions become ``alias_ref`` leaves keyed by producer node id.
    Each leaf keeps the qualifier its rows had where they were produced.

    A partition's output node is merely the node no one consumes *inside*;
    other nodes may still feed other partitions.  Callers that must expose
    those values list them in ``exports`` and they are detached as well, so
    materializing the tree list leaves each one under its alias key.
    """
    if part.model not in ("relational", "document"):
        raise PlanError(
            f"cannot decompose a {part.model} partition into operator trees")
    inside = part.node_ids
    exports = set(exports) & inside
    fanout = {nid: 0 for nid in inside}
    for nid in inside:
        for i in plan.node(nid).inputs:
            if i in inside:
                fanout[i] += 1  # duplicated input (self-join) counts twice

    built: dict[int, TreeNode] = {}
    detached: set[int] = set()
    tree_list: list[tuple[str, TreeNode]] = []

    def ref(i: int) -> TreeNode:
        if i not in inside or i in detached:
            return TreeNode("alias_ref", {"key": alias_key(i),
                                          "qualifier": _qualifier(plan, i)})
        return built[i]

    for nid in sorted(inside):  # inputs precede consumers, so this is bottom-up
        n = plan.node(nid)
        t = TreeNode(n.op, n.params, tuple(ref(i) for i in n.inputs))
        if (fanout[nid] > 1 or nid in exports) and nid != part.output_node:
            tree_list.append((alias_key(nid), t))
            detached.add(nid)
        built[nid] = t
    return built[part.output_node], tree_list


# ---------------------------------------------------------------------------
# serialization (the --explain document)

def plan_to_dict(plan: LogicalPlan) -> dict:
    return {"nodes": [{"id": n.id, "op": n.op, "model": n.model,
                       "params": dict(n.params), "inputs": list(n.inputs)}
                      for n in plan.nodes]}


def partition_dag_to_dict(pd: PartitionDag) -> dict:
    return {
        "partitions": [{"index": p.index, "model": p.model,
                        "nodes": sorted(p.node_ids), "output": p.output_node}
                       for p in pd.partitions],
        "edges": sorted(map(list, pd.edges)),
        "order": [p.index for p in topo_order(pd)],
    }
