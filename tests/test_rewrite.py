"""Array plan rewrites: matrix-chain order and transposes folded into
matmul.  The plan that runs must give what the plan as bound gives: the
same schema always, the same ints exactly, floats within rounding; and its
results must not depend on the pool's capacity."""

from __future__ import annotations

import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import Engine, EngineConfig, array_engine
from multimodel.array_store import ArrayBuilder
from multimodel.buffer_pool import BufferPool
from multimodel.models import FLOAT, INT, ArrayMeta, CellSchema
from multimodel.planner import (MAX_CHAIN, chain_order, rewrite, tree_cost,
                                tree_meta)
from multimodel.script import bind_script

from conftest import built_tile

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")
with open(os.path.join(DATA, "recommend.m2s"), encoding="utf-8") as _f:
    RECOMMEND = _f.read()


def _paren(tree) -> str:
    if isinstance(tree, int):
        return f"A{tree + 1}"
    return f"({_paren(tree[0])}{_paren(tree[1])})"


def _matmuls(plan):
    return [n for n in plan.nodes if n.op == "matmul"]


def _plan(tmp_path, text, **kw):
    eng = Engine(EngineConfig(data_dir=str(tmp_path), **kw))
    return eng, bind_script(text, eng.catalog, eng.config)


# ------------------------------------------------------- the dynamic program

@pytest.mark.parametrize("dims, cost, order", [
    # CLRS 15.2: the six-matrix example
    ([30, 35, 15, 5, 10, 20, 25], 15_125, "((A1(A2A3))((A4A5)A6))"),
    ([10, 100, 5, 50], 7_500, "((A1A2)A3)"),
    ([10, 1, 10, 1], 20, "(A1(A2A3))"),
    # ties keep left-to-right order
    ([4, 4, 4, 4, 4], 192, "(((A1A2)A3)A4)"),
    ([2, 3, 2, 3], 24, "((A1A2)A3)"),
    ([5, 7], 0, "A1"),
])
def test_chain_order_table(dims, cost, order):
    extents = list(zip(dims, dims[1:]))
    got_cost, tree = chain_order(extents)
    assert (got_cost, _paren(tree)) == (cost, order)
    assert tree_cost(tree, extents) == (cost, (dims[0], dims[-1]))


def test_chain_is_reordered_and_ties_keep_the_written_order(tmp_path):
    _, bound = _plan(tmp_path, "a, b, c = rand({10, 1}), rand({1, 10}), "
                               "rand({10, 1})\nexecute(a @ b @ c)\n")
    plan, target = rewrite(*bound)
    (bc, abc) = _matmuls(plan)
    assert plan.node(target) is abc
    assert [plan.node(i).params["size"] for i in bc.inputs] == [[1, 10],
                                                               [10, 1]]
    assert abc.inputs == (0, bc.id)
    # square operands: every order costs the same, so none changes
    for text in ("a, b, c = rand({3, 3}), rand({3, 3}), rand({3, 3})\n"
                 "execute(a @ b @ c)\n",
                 "a, b, c = rand({3, 3}), rand({3, 3}), rand({3, 3})\n"
                 "execute(a @ (b @ c))\n"):
        _, bound = _plan(tmp_path, text)
        assert rewrite(*bound)[0].nodes == bound[0].nodes


@pytest.mark.parametrize("matmuls, reordered", [(3, True),
                                                 (MAX_CHAIN - 1, True),
                                                 (MAX_CHAIN, False)])
def test_a_chain_past_the_cap_keeps_its_order(tmp_path, matmuls, reordered):
    """Square products, then a vector: right to left is cheapest."""
    text = (f"c = rand({{9, 9}})\nfor i in range({matmuls - 1}):\n"
            "  c = c @ rand({9, 9})\nexecute(c @ rand({9, 1}))\n")
    _, bound = _plan(tmp_path, text)
    plan, target = rewrite(*bound)
    assert (plan.nodes != bound[0].nodes) == reordered
    assert len(_matmuls(plan)) == matmuls


def test_unknown_extent_splits_the_chain(tmp_path):
    (tmp_path / "t.csv").write_text("r,c,v\n0,0,1.0\n9,0,2.0\n")
    text = ("a, b = rand({10, 1}), rand({1, 10})\n"
            "x = openTable('t').toArray({'r', 'c'}, {'v'})\n"
            "execute(a @ b @ x)\n")
    eng, bound = _plan(tmp_path, text)
    plan, _ = rewrite(*bound)
    ab = [n for n in _matmuls(plan)
          if all(plan.node(i).op == "rand" for i in n.inputs)]
    assert len(ab) == 1  # (a @ b) @ x as written: x's extent is a run's
    assert eng.run(text).meta.size == (10, 1)


def test_inner_matmul_with_two_consumers_is_not_absorbed(tmp_path):
    text = ("a, b, c = rand({10, 1}), rand({1, 10}), rand({10, 1})\n"
            "ab = a @ b\n"
            "execute(ab @ c + ab @ c)\n")
    _, bound = _plan(tmp_path, text)
    plan, _ = rewrite(*bound)
    assert plan.nodes == bound[0].nodes


def test_chain_keeps_its_order_when_the_reordered_schema_differs(
        tmp_path, monkeypatch):
    """matmul's naming is not associative: with A (i, k) 'a', B (k, i) 'b'
    and C (i, j) 'c', (AB)C is named (dim0, j) 'c' and A(BC) (i, j) 'a'.
    Only arrays whose extent bind time cannot fix carry such names, so the
    operands here are rand nodes whose metadata is renamed."""
    names = {(10, 2): (("i", "k"), "a"), (2, 9): (("k", "i"), "b"),
             (9, 1): (("i", "j"), "c")}

    def named(size, tile_size, seed=None):
        dims, attr = names[tuple(size)]
        return ArrayMeta(CellSchema(dims, (attr,), (FLOAT,)), tuple(size),
                         tuple(tile_size))

    text = ("a, b, c = rand({10, 2}), rand({2, 9}), rand({9, 1})\n"
            "execute(a @ b @ c)\n")
    _, bound = _plan(tmp_path, text)
    leaves = [array_engine.rand_meta(s, s) for s in names]
    assert tree_cost((0, (1, 2)), [m.size for m in leaves])[0] < \
        tree_cost(((0, 1), 2), [m.size for m in leaves])[0]
    reordered = rewrite(*bound)[0]
    assert reordered.nodes != bound[0].nodes  # auto names: reordered

    monkeypatch.setattr(array_engine, "rand_meta", named)
    leaves = [named(s, s) for s in names]
    assert tree_meta(((0, 1), 2), leaves).schema == \
        CellSchema(("dim0", "j"), ("c",), (FLOAT,))
    assert tree_meta((0, (1, 2)), leaves).schema == \
        CellSchema(("i", "j"), ("a",), (FLOAT,))
    assert rewrite(*bound)[0].nodes == bound[0].nodes


def test_transpose_folds_only_when_every_reader_is_a_matmul(tmp_path):
    text = ("a, b = rand({4, 3}), rand({4, 5})\n"
            "t = a.T\n"
            "execute(t @ b)\n")
    _, bound = _plan(tmp_path, text)
    plan, target = rewrite(*bound)
    assert [n.op for n in plan.nodes] == ["rand", "rand", "matmul"]
    assert plan.node(target).params == {"transpose_a": True}
    for text in ("a = rand({4, 3})\nt = a.T\nexecute(t @ a + t @ a)\n",
                 "a = rand({4, 3})\nt = a.T\nexecute(t @ a @ t)\n"):
        _, bound = _plan(tmp_path, text)
        ops = Counter(n.op for n in rewrite(*bound)[0].nodes)
        assert ops["transpose"] == 0
    # read by an ewise too, or the target itself: the transpose runs
    for text in ("a = rand({3, 3})\nt = a.T\nexecute(t @ a + t)\n",
                 "a = rand({3, 3})\nexecute(a.T)\n"):
        _, bound = _plan(tmp_path, text)
        ops = Counter(n.op for n in rewrite(*bound)[0].nodes)
        assert ops["transpose"] == 1


# ------------------------------------------------------- the recommender

def test_recommend_runs_no_transpose_and_no_ratings_sized_chain_link(
        monkeypatch):
    eng = Engine(EngineConfig(data_dir=DATA, seed=7))
    doc = eng.explain(RECOMMEND)
    ops = Counter(n["op"] for n in doc["nodes"])
    assert ops["transpose"] == 0 and ops["matmul"] == 7
    assert Counter(n["op"] for n in doc["bound"]["nodes"])["transpose"] == 4
    assert set(doc["bound"]) == set(doc) - {"bound"}
    # W @ H @ H.T runs as W @ (H @ H.T): the only customers x products
    # matmul is `filled`, which the join reads
    sizes = []
    matmul = array_engine.matmul

    def spy(*args, **kwargs):
        out = matmul(*args, **kwargs)
        sizes.append(out.meta.size)
        return out

    monkeypatch.setattr(array_engine, "matmul", spy)
    eng.run(RECOMMEND)
    assert sizes.count((20, 15)) == 1 and sizes[-1] == (20, 15)
    sizes.clear()
    eng.run_plan(*bind_script(RECOMMEND, eng.catalog, eng.config))
    assert sizes.count((20, 15)) == 2


# ------------------------------------------- agreement over generated chains

UNBOUNDED = 1 << 30
NAMES = [(("dim0", "dim1"), "value"), (("i", "j"), "v"), (("j", "i"), "v"),
         (("i", "k"), "w"), (("k", "j"), "v")]


@st.composite
def operand(draw, rows, cols):
    """How an operand of extent (rows, cols) is made: ``rand``, or a table
    through ``toArray``, or a stored array (drawn tiling), each of the
    latter two with drawn names, int or float values and absent cells."""
    kind = draw(st.sampled_from(["rand", "table", "array"]))
    if kind == "rand":
        return (kind,)
    dims, attr = draw(st.sampled_from(NAMES))
    is_int = draw(st.booleans())
    cells = draw(st.lists(st.booleans(), min_size=rows * cols,
                          max_size=rows * cols))
    cells[-1] = True  # the far corner fixes a table's extent
    coords = [divmod(i, cols) for i, keep in enumerate(cells) if keep]
    values = draw(st.lists(st.integers(0, 40), min_size=len(coords),
                           max_size=len(coords)))
    values = values if is_int else [v / 8 for v in values]
    tile = (draw(st.integers(1, rows)), draw(st.integers(1, cols)))
    return kind, dims, attr, is_int, coords, values, tile


def _make(data_dir, name, spec, rows, cols) -> str:
    """Write what operand `spec` needs into the catalog; its script text."""
    if spec[0] == "rand":
        return f"rand({{{rows}, {cols}}})"
    kind, dims, attr, is_int, coords, values, tile = spec
    if kind == "table":
        with open(os.path.join(data_dir, name + ".csv"), "w") as f:
            f.write(f"{dims[0]},{dims[1]},{attr}\n" + "".join(
                f"{r},{c},{v}\n" for (r, c), v in zip(coords, values)))
        return (f"openTable('{name}').toArray({{'{dims[0]}', '{dims[1]}'}}, "
                f"{{'{attr}'}})")
    meta = ArrayMeta(CellSchema(dims, (attr,), (INT if is_int else FLOAT,)),
                     (rows, cols), tile)
    b = ArrayBuilder(meta, BufferPool(UNBOUNDED))
    b.add_cells(np.array(coords, dtype=np.int64).reshape(-1, 2),
                [np.array(values, dtype=np.int64 if is_int else np.float64)])
    b.finish().save(os.path.join(data_dir, name + ".m2ar"))
    return f"openArray('{name}')"


@st.composite
def chain_scripts(draw):
    """(catalog writer returning the script, default tile): a chain of 2-5
    operands with extents 1-6, multiplied in a drawn order, each operand
    and product maybe written transposed."""
    k = draw(st.integers(2, 5))
    p = draw(st.lists(st.integers(1, 6), min_size=k + 1, max_size=k + 1))
    operands, leaves = [], []
    for i in range(k):
        flip = draw(st.booleans())
        rows, cols = (p[i + 1], p[i]) if flip else (p[i], p[i + 1])
        operands.append((f"o{i}", draw(operand(rows, cols)), rows, cols))
        leaves.append(f"o{i}.T" if flip else f"o{i}")

    def tree(lo, hi):
        if lo == hi:
            return leaves[lo]
        mid = draw(st.integers(lo, hi - 1))
        left, right = tree(lo, mid), tree(mid + 1, hi)
        if draw(st.integers(0, 3)) == 0:  # (R.T @ L.T).T == L @ R
            return f"({right}.T @ {left}.T).T"
        return f"({left} @ {right})"

    expr = tree(0, k - 1)
    if draw(st.booleans()):
        expr = f"{expr}.T"

    def write(data_dir) -> str:
        return "".join(f"{name} = {_make(data_dir, name, *rest)}\n"
                       for name, *rest in operands) + f"execute({expr})\n"

    return write, draw(st.integers(0, 6))


def _tile_bytes(t: int) -> int:
    """The most memory a t x t tile of one 8-byte value takes: dense, or
    sparse with every cell set (toArray may store a full tile sparsely
    when its other tiles are nearly empty)."""
    cc = np.argwhere(np.ones((t, t), bool))
    return max(built_tile((0, 0), (t, t), (t, t), [np.dtype("<f8")], layout,
                          cc, [np.zeros(len(cc))]).nbytes
               for layout in ("dense", "csr"))


def _grid(arr):
    mask, (values,) = array_engine.to_grid(arr)
    return mask, values


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_scripts())
def test_rewritten_plan_agrees_with_the_plan_as_bound(case):
    write, tile = case
    with tempfile.TemporaryDirectory() as data_dir:
        text = write(data_dir)
        config = dict(data_dir=data_dir, seed=5, default_tile=tile,
                      spool_dir=os.path.join(data_dir, "spool"))
        eng = Engine(EngineConfig(**config))
        want = eng.run_plan(*bind_script(text, eng.catalog, eng.config))
        got = eng.run(text)
        assert got.meta == want.meta, text
        (gm, gv), (wm, wv) = _grid(got), _grid(want)
        assert np.array_equal(gm, wm), text
        if got.meta.schema.attr_types[0] == INT:
            assert np.array_equal(gv, wv), text
        else:
            np.testing.assert_allclose(gv, wv, rtol=1e-9, atol=0,
                                       err_msg=text)
        # operators pin one tile at a time: from one tile's room up
        one = _tile_bytes(6)  # the largest tile any operand can have
        for capacity in (one, 2 * one, 3 * one, 5 * one, 16 * one):
            small = Engine(EngineConfig(**config,
                                        buffer_bytes=capacity)).run(text)
            sm, sv = _grid(small)
            assert small.meta == got.meta
            assert sm.tobytes() == gm.tobytes() and \
                sv.tobytes() == gv.tobytes(), (text, capacity)
