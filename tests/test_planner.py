import random
from collections import Counter

import pytest

from multimodel.errors import InternalError, PlanError
from multimodel.planner import (LogicalPlan, Partition, PartitionDag, PlanNode,
                                dag_to_trees, partition, partition_dag_to_dict,
                                topo_order)
from plan_oracles import (check_partitioning, check_topo, random_plan,
                          run_decomposed, symbolic_dag)


def test_linear_relational_chain_is_one_partition():
    plan = LogicalPlan()
    prev = plan.add("scan", "relational", name="t")
    for op in ("filter", "project", "sort", "limit"):
        prev = plan.add(op, "relational", inputs=[prev])
    pd = partition(plan)
    assert len(pd.partitions) == 1
    assert pd.partitions[0].node_ids == frozenset(range(5))
    assert pd.partitions[0].output_node == 4
    assert not pd.edges


def test_mixed_pipeline_partitions_like_a_rating_query():
    # document prep, conversion, array math, relational probe + post-filter
    plan = LogicalPlan()
    order = plan.add("scan", "document", name="order")
    review = plan.add("scan", "document", name="review")
    joined = plan.add("join", "document", inputs=[order, review])
    ratings = plan.add("project", "document", inputs=[joined])
    as_array = plan.add("to_array", "inter-model", inputs=[ratings])
    w0 = plan.add("rand", "array")
    h0 = plan.add("rand", "array")
    num = plan.add("matmul", "array", inputs=[as_array, h0])
    den = plan.add("matmul", "array", inputs=[w0, h0])
    w1 = plan.add("ewise", "array", inputs=[w0, num])
    h1 = plan.add("ewise", "array", inputs=[h0, den])
    filled = plan.add("matmul", "array", inputs=[w1, h1])
    interest = plan.add("scan", "relational", name="interest")
    xjoin = plan.add("join_rel_array", "inter-model", inputs=[interest, filled])
    flt = plan.add("filter", "relational", inputs=[xjoin])
    srt = plan.add("sort", "relational", inputs=[flt])
    plan.add("limit", "relational", inputs=[srt])

    pd = partition(plan)
    check_partitioning(plan, pd)
    assert len(pd.partitions) == 6
    assert Counter(p.model for p in pd.partitions) == Counter(
        {"relational": 2, "inter-model": 2, "document": 1, "array": 1})
    doc = next(p for p in pd.partitions if p.model == "document")
    assert doc.node_ids == frozenset([order.id, review.id, joined.id, ratings.id])
    arr = next(p for p in pd.partitions if p.model == "array")
    assert arr.output_node == filled.id


def test_cyclic_plan_rejected():
    nodes = [PlanNode(0, "a", "relational", {}, (1,)),
             PlanNode(1, "b", "relational", {}, (0,))]
    with pytest.raises(PlanError):
        partition(LogicalPlan(nodes))


def test_add_validates_inputs_and_model():
    plan = LogicalPlan()
    with pytest.raises(PlanError):
        plan.add("scan", "graph")
    with pytest.raises(PlanError):
        plan.add("filter", "relational", inputs=[7])


def test_added_ids_run_on_from_the_largest_given_id():
    plan = LogicalPlan([PlanNode(9, "scan", "array", {}),
                        PlanNode(2, "scan", "relational", {}),
                        PlanNode(5, "filter", "relational", {}, (2,))])
    first = plan.add("transpose", "array", inputs=[9])
    with pytest.raises(PlanError):  # a refused node takes no id
        plan.add("filter", "relational", inputs=[7])
    ids = [first.id] + [plan.add("limit", "relational", inputs=[5]).id
                        for _ in range(3)]
    assert ids == [10, 11, 12, 13]
    assert [n.id for n in plan.nodes] == [2, 5, 9, 10, 11, 12, 13]
    assert LogicalPlan().add("scan", "array").id == 0


def test_duplicate_node_id_rejected():
    nodes = [PlanNode(0, "a", "relational"), PlanNode(0, "b", "relational")]
    with pytest.raises(PlanError):
        LogicalPlan(nodes)


def test_inter_model_nodes_never_merge():
    plan = LogicalPlan()
    a = plan.add("convert", "inter-model")
    plan.add("convert", "inter-model", inputs=[a])
    pd = partition(plan)
    assert len(pd.partitions) == 2


def test_fanout_blocking_merge_keeps_single_output_rule():
    # s feeds two independent sinks: {s, a} would have two outputs
    plan = LogicalPlan()
    s = plan.add("scan", "relational")
    plan.add("filter", "relational", inputs=[s])
    plan.add("project", "relational", inputs=[s])
    pd = partition(plan)
    check_partitioning(plan, pd)
    for p in pd.partitions:
        cons = plan.consumers()
        outs = [n for n in p.node_ids
                if not any(c in p.node_ids for c in cons[n])]
        assert len(outs) == 1


def test_diamond_merges_to_single_partition():
    plan = LogicalPlan()
    s = plan.add("scan", "relational")
    a = plan.add("filter", "relational", inputs=[s])
    b = plan.add("project", "relational", inputs=[s])
    plan.add("union", "relational", inputs=[a, b])
    pd = partition(plan)
    check_partitioning(plan, pd)
    assert len(pd.partitions) == 1


@pytest.mark.parametrize("seed", range(8))
def test_random_dags_satisfy_all_conditions(seed):
    rng = random.Random(1000 + seed)
    for _ in range(12):
        plan = random_plan(rng)
        pd = partition(plan)
        check_partitioning(plan, pd)
        check_topo(pd, topo_order(pd))


def test_partitioning_is_deterministic():
    rng = random.Random(5)
    plan = random_plan(rng)
    assert partition(plan) == partition(plan)


def test_topo_singleton_and_diamond():
    single = PartitionDag((Partition(0, "relational", frozenset([0]), 0),),
                          frozenset())
    assert [p.index for p in topo_order(single)] == [0]

    parts = tuple(Partition(i, "array", frozenset([i]), i) for i in range(4))
    pd = PartitionDag(parts, frozenset([(0, 1), (0, 2), (1, 3), (2, 3)]))
    order = [p.index for p in topo_order(pd)]
    assert order[0] == 0 and order[-1] == 3
    check_topo(pd, topo_order(pd))


def test_ready_record_partitions_run_before_ready_array_partitions():
    models = ["array", "inter-model", "relational", "document", "relational"]
    parts = tuple(Partition(i, m, frozenset([i]), i)
                  for i, m in enumerate(models))
    # 2 and 3 are ready beside 0 and run first; 4 waits for 1 and 3
    pd = PartitionDag(parts, frozenset([(0, 1), (2, 1), (1, 4), (3, 4)]))
    assert [p.index for p in topo_order(pd)] == [2, 3, 0, 1, 4]
    check_topo(pd, topo_order(pd))
    # a record partition that becomes ready passes a lower ready array one
    parts = tuple(Partition(i, m, frozenset([i]), i) for i, m in
                  enumerate(["array", "inter-model", "array", "relational"]))
    pd = PartitionDag(parts, frozenset([(0, 1), (1, 3)]))
    assert [p.index for p in topo_order(pd)] == [0, 1, 3, 2]


def test_topo_detects_invariant_breach():
    parts = (Partition(0, "array", frozenset([0]), 0),
             Partition(1, "array", frozenset([1]), 1))
    pd = PartitionDag(parts, frozenset([(0, 1), (1, 0)]))
    with pytest.raises(InternalError):
        topo_order(pd)


# ------------------------------------------------------------ dag_to_trees

def _whole_plan_partition(plan, model="relational"):
    cons = plan.consumers()
    ids = frozenset(n.id for n in plan.nodes)
    outs = [nid for nid in ids if not cons[nid]]
    assert len(outs) == 1
    return Partition(0, model, ids, outs[0])


def test_tree_partition_decomposes_to_itself():
    plan = LogicalPlan()
    s = plan.add("scan", "document", name="c")
    u = plan.add("unwind", "document", inputs=[s], path="a")
    plan.add("project", "document", inputs=[u])
    main, trees = dag_to_trees(plan, _whole_plan_partition(plan, "document"))
    assert trees == []
    assert main.op == "project"
    assert main.children[0].op == "unwind"
    assert main.children[0].children[0].op == "scan"


def test_shared_scan_detaches_once_with_two_aliases():
    plan = LogicalPlan()
    s = plan.add("scan", "relational", name="t")
    j1 = plan.add("join", "relational", inputs=[s, s])
    f = plan.add("filter", "relational", inputs=[s])
    plan.add("join", "relational", inputs=[j1, f])
    main, trees = dag_to_trees(plan, _whole_plan_partition(plan))
    assert len(trees) == 1
    nid, tree = trees[0]
    assert nid == s.id and tree.op == "scan"
    aliases = []

    def walk(t):
        if t.op == "alias_ref":
            aliases.append(t.params)
        for c in t.children:
            walk(c)

    walk(main)
    # twice in the self-join, once in filter, each holding only the node id
    assert aliases == [{"id": s.id}] * 3


def test_cross_partition_inputs_become_alias_refs():
    plan = LogicalPlan()
    conv = plan.add("to_relation", "inter-model")
    flt = plan.add("filter", "relational", inputs=[conv])
    pd = partition(plan)
    rel = next(p for p in pd.partitions if p.model == "relational")
    main, trees = dag_to_trees(plan, rel)
    assert trees == []
    assert main.op == "filter"
    assert main.children[0].op == "alias_ref"
    assert main.children[0].params == {"id": conv.id}
    assert flt.id in rel.node_ids


def test_exported_node_detaches_even_without_internal_fanout():
    # a node consumed only once inside may still feed *other* partitions;
    # such a reader must hoist it into the materialized tree list
    plan = LogicalPlan()
    s = plan.add("scan", "relational", name="t")
    f = plan.add("filter", "relational", inputs=[s])
    srt = plan.add("sort", "relational", inputs=[f])
    part = Partition(0, "relational", frozenset([s.id, f.id, srt.id]), srt.id)
    main, trees = dag_to_trees(plan, part)
    assert trees == [] and main.children[0].op == "filter"

    plan.add("to_array", "inter-model", inputs=[f])
    main, trees = dag_to_trees(plan, part)
    assert [nid for nid, _ in trees] == [f.id]
    assert trees[0][1].op == "filter"
    assert main.op == "sort" and main.children[0].op == "alias_ref"
    assert main.children[0].params == {"id": f.id}

    # a reader in another partition of the output node changes nothing
    plan.add("to_array", "inter-model", inputs=[srt])
    same_main, same_trees = dag_to_trees(plan, part)
    assert [nid for nid, _ in same_trees] == [f.id]
    assert same_main == main


def test_array_partition_refuses_tree_decomposition():
    plan = LogicalPlan()
    plan.add("rand", "array")
    pd = partition(plan)
    with pytest.raises(PlanError):
        dag_to_trees(plan, pd.partitions[0])


def test_decomposed_trees_have_no_shared_subtrees():
    rng = random.Random(9)
    plan = random_plan(rng, models=("relational",))
    sinks = [n.id for n in plan.nodes if not plan.consumers()[n.id]]
    out = plan.add("collect", "relational", inputs=sinks)
    part = _whole_plan_partition(plan)
    main, trees = dag_to_trees(plan, part)

    seen_ids = set()

    def walk(t):
        if t.op != "alias_ref":
            assert id(t) not in seen_ids, "subtree appears twice"
            seen_ids.add(id(t))
        for c in t.children:
            walk(c)

    walk(main)
    for _, t in trees:
        walk(t)
    assert out.id == part.output_node


@pytest.mark.parametrize("seed", range(10))
def test_decomposition_matches_reference_dag_interpreter(seed):
    rng = random.Random(400 + seed)
    for _ in range(10):
        plan = random_plan(rng, models=("document",))
        sinks = [n.id for n in plan.nodes if not plan.consumers()[n.id]]
        plan.add("collect", "document", inputs=sinks)
        part = _whole_plan_partition(plan, "document")
        main, trees = dag_to_trees(plan, part)

        fanout = Counter()
        for n in plan.nodes:
            for i in n.inputs:
                fanout[i] += 1
        assert len(trees) == sum(1 for c in fanout.values() if c > 1)
        assert run_decomposed(main, trees) == symbolic_dag(plan, part.output_node)


# ------------------------------------------------------------ serialization

def test_partition_dag_document_shape():
    plan = LogicalPlan()
    s = plan.add("scan", "relational")
    c = plan.add("to_array", "inter-model", inputs=[s])
    plan.add("transpose", "array", inputs=[c])
    doc = partition_dag_to_dict(partition(plan))
    assert [p["model"] for p in doc["partitions"]] == [
        "relational", "inter-model", "array"]
    assert doc["order"] == [0, 1, 2]
    assert doc["edges"] == [[0, 1], [1, 2]]
