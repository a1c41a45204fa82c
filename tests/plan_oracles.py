"""Reference checkers for partitioning and tree decomposition tests.

Everything here is deliberately brute-force and independent of the
implementation under test.
"""

from __future__ import annotations

import random

from multimodel.planner import LogicalPlan, MODELS, PartitionDag


def random_plan(rng: random.Random, max_nodes: int = 30,
                models=MODELS) -> LogicalPlan:
    plan = LogicalPlan()
    n = rng.randint(1, max_nodes)
    for i in range(n):
        k = rng.randint(0, min(3, i))
        inputs = rng.sample(range(i), k) if k else []
        plan.add(f"op{i}", rng.choice(models), inputs=inputs)
    return plan


def _union_mergeable(plan: LogicalPlan, pd: PartitionDag,
                     a, b) -> bool:
    """Re-derive the three merge conditions for adjacent partitions a, b."""
    if a.model != b.model or a.model == "inter-model":
        return False
    union = a.node_ids | b.node_ids
    cons = plan.consumers()
    outs = [nid for nid in union if not any(c in union for c in cons[nid])]
    if len(outs) != 1:
        return False
    # merging must not create a cycle: no indirect path a -> ... -> b
    succ: dict[int, set[int]] = {p.index: set() for p in pd.partitions}
    for x, y in pd.edges:
        succ[x].add(y)
    stack = [s for s in succ[a.index] if s != b.index]
    seen = set(stack)
    while stack:
        k = stack.pop()
        if k == b.index:
            return False
        for s in succ[k]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return True


def check_partitioning(plan: LogicalPlan, pd: PartitionDag) -> None:
    """Assert every contract a partitioning must satisfy."""
    all_ids = {n.id for n in plan.nodes}
    cons = plan.consumers()

    # conservation and disjointness
    seen: set[int] = set()
    for p in pd.partitions:
        assert not (p.node_ids & seen), "partitions overlap"
        seen |= p.node_ids
    assert seen == all_ids, "partitions do not cover the plan"

    for p in pd.partitions:
        # single model per partition
        models = {plan.node(nid).model for nid in p.node_ids}
        assert models == {p.model}
        # exactly one output node
        outs = [nid for nid in p.node_ids
                if not any(c in p.node_ids for c in cons[nid])]
        assert outs == [p.output_node]
        # inter-model nodes stay singletons
        if p.model == "inter-model":
            assert len(p.node_ids) == 1

    # edges mirror the node-level data flow exactly
    part_of = {nid: p.index for p in pd.partitions for nid in p.node_ids}
    expect_edges = {(part_of[i], part_of[n.id])
                    for n in plan.nodes for i in n.inputs
                    if part_of[i] != part_of[n.id]}
    assert set(pd.edges) == expect_edges

    # partition graph acyclic (independent Kahn)
    indeg = {p.index: 0 for p in pd.partitions}
    for _, b in pd.edges:
        indeg[b] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for x, y in pd.edges:
            if x == i:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
    assert done == len(pd.partitions), "partition graph has a cycle"

    # maximality: no adjacent pair still satisfies all three conditions
    by_index = {p.index: p for p in pd.partitions}
    for x, y in pd.edges:
        assert not _union_mergeable(plan, pd, by_index[x], by_index[y]), \
            f"partitions {x} and {y} could still merge"


def check_topo(pd: PartitionDag, order) -> None:
    pos = {p.index: i for i, p in enumerate(order)}
    assert sorted(pos) == sorted(p.index for p in pd.partitions)
    for a, b in pd.edges:
        assert pos[a] < pos[b], f"edge {a}->{b} violates the order"


def symbolic_dag(plan: LogicalPlan, nid: int):
    """Direct DAG evaluation into nested (op, child-values) tuples."""
    n = plan.node(nid)
    return (n.op, tuple(symbolic_dag(plan, i) for i in n.inputs))


def symbolic_tree(tree, env: dict):
    if tree.op == "alias_ref":
        return env[tree.params["id"]]
    return (tree.op, tuple(symbolic_tree(c, env) for c in tree.children))


def run_decomposed(main, tree_list, env: dict | None = None) -> object:
    """Evaluate tree-list entries in order, then the main tree.  env may
    carry alias values produced by other partitions."""
    env = dict(env) if env else {}
    for nid, tree in tree_list:
        env[nid] = symbolic_tree(tree, env)
    return symbolic_tree(main, env)
