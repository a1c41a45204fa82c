"""The benchmark's workloads at their small scale, run through ``Engine.run``
as ``perfbench/run.py`` runs them: a change that breaks a benchmark result
fails here, and not only when the benchmark runs."""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest

from multimodel import Engine, array_engine, models
from multimodel.executor import Catalog

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
SEED = 5


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``'s workloads at small scale, imported
    without writing bytecode there."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads").workloads(small=True)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["recommend", "recommend_tight",
                                  "tile_join"])
def test_workload_passes_its_oracle(workloads, name, tmp_path):
    wl = workloads[name]
    data_dir, spool = str(tmp_path / "data"), str(tmp_path / "spool")
    os.makedirs(spool)
    data = wl.generate(SEED, data_dir, wl.sizes)
    # the oracle, and for recommend_tight the match with the roomy pool
    check = wl.make_check(data, SEED, data_dir, spool)
    assert (wl.reference_pool is not None) == (name == "recommend_tight")
    eng = Engine(wl.config(data_dir, spool, SEED))
    assert check(eng.run(wl.script_text())) is None
    assert os.listdir(spool) == []
    if name == "recommend":
        # the join reads only the interests of the customer it keeps
        n = int((data.interest[:, 0] == wl.sizes.top_cid).sum())
        assert n > 0
        assert [(s.n_records, s.output_rows) for s in eng.join_stats] == \
            [(n, n)]


def test_recommend_computes_only_the_tiles_its_join_probes(
        workloads, tmp_path, monkeypatch):
    """``filled = W @ H`` computes the tiles customer 3's interests fall in,
    and no other; every other matmul computes all of its tiles."""
    wl = workloads["recommend"]
    data_dir, spool = str(tmp_path / "data"), str(tmp_path / "spool")
    os.makedirs(spool)
    data = wl.generate(SEED, data_dir, wl.sizes)
    check = wl.make_check(data, SEED, data_dir, spool)
    computed = []  # (tile demand, tiles computed, tiles in the grid)
    matmul = array_engine.matmul

    def counting_matmul(*args, **kw):
        out = matmul(*args, **kw)
        computed.append((kw.get("tiles"), len(out.tile_coords()),
                         int(np.prod(out.meta.grid))))
        return out

    monkeypatch.setattr(array_engine, "matmul", counting_matmul)
    eng = Engine(wl.config(data_dir, spool, SEED))
    assert check(eng.run(wl.script_text())) is None
    s = wl.sizes
    pids = data.interest[data.interest[:, 0] == s.top_cid, 1]
    want = np.unique((s.top_cid // s.tile) * -(-s.products // s.tile)
                     + pids // s.tile)
    (tiles, n, grid), = [c for c in computed if c[0] is not None]
    assert list(tiles) == list(want)
    assert (n, grid) == (4, 32)
    assert all(n == grid for tiles, n, grid in computed if tiles is None)


@pytest.mark.parametrize("name, tables, collections", [
    ("recommend", ["interest"], ["order", "review"]),
    ("recommend_tight", ["interest"], ["order", "review"]),
    ("tile_join", ["grp", "probe"], []),
])
def test_workload_inputs_take_the_fast_readers(workloads, name, tables,
                                               collections, tmp_path,
                                               monkeypatch):
    """Every table a workload loads is read by the all-integer reader, and
    every collection through its line template, with neither
    ``csv.reader`` nor ``np.loadtxt``; the other tables are only counted.
    A change to the generated data or to the readers' guards that drops a
    fast path fails here."""
    wl = workloads[name]
    data_dir, spool = str(tmp_path / "data"), str(tmp_path / "spool")
    os.makedirs(spool)
    wl.generate(SEED, data_dir, wl.sizes)
    loaded = {"load_table": [], "load_collection": []}
    for method, names in loaded.items():
        def record(cat, name, _load=getattr(Catalog, method), _names=names):
            _names.append(name)
            return _load(cat, name)
        monkeypatch.setattr(Catalog, method, record)

    def refuse(*args, **kwargs):
        raise AssertionError("a workload input left its fast reader")

    monkeypatch.setattr(models.np, "loadtxt", refuse)
    with monkeypatch.context() as m:
        m.setattr(models.csv, "reader", refuse)
        m.setattr(models, "_decode_lines", refuse)
        Engine(wl.config(data_dir, spool, SEED)).run(wl.script_text())
    assert sorted(loaded["load_table"]) == tables
    assert sorted(loaded["load_collection"]) == collections
    for table in tables:
        assert len(Catalog(data_dir).load_table(table)) > 0
