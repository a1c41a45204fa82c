"""Engine-managed lifetimes: intermediates are freed after their last
consumer, pins are released on error, and spill files do not outlive a run."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from multimodel import Engine, EngineConfig
from multimodel.array_store import StoredArray, Tile

DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")
with open(os.path.join(DATA, "recommend.m2s"), encoding="utf-8") as _f:
    RECOMMEND = _f.read()

# 4x4 tiles through a 4 KiB pool: hundreds of evictions, dirty intermediates spill
TIGHT = dict(buffer_bytes=4 << 10, default_tile=4)


def engine(spool, **kw) -> Engine:
    return Engine(EngineConfig(data_dir=DATA, seed=11, spool_dir=str(spool),
                               **kw))


def test_tight_pool_leaves_no_spill_file_and_matches_roomy_pool(tmp_path):
    roomy = engine(tmp_path / "roomy", default_tile=4).run(RECOMMEND)
    eng = engine(tmp_path / "tight", **TIGHT)
    tight = eng.run(RECOMMEND)
    assert eng.pool.stats().evictions > 100
    assert os.path.isdir(tmp_path / "tight")  # intermediates did spill
    assert os.listdir(tmp_path / "tight") == []
    assert tight.schema == roomy.schema and tight.rows == roomy.rows
    assert eng.pool.stats().resident_bytes == 0  # the result is a relation


@pytest.fixture
def node_outputs(monkeypatch):
    """Every value an array or inter-model node returns, in run order, and
    the number of release() calls per array."""
    outputs: list = []
    released: Counter = Counter()
    for name in ("_array_node", "_bridge_node"):
        orig = getattr(Engine, name)

        def spy(self, n, reg, _orig=orig):
            out = _orig(self, n, reg)
            outputs.append(out)
            return out

        monkeypatch.setattr(Engine, name, spy)
    release = StoredArray.release

    def counting_release(self):
        released[id(self)] += 1
        release(self)

    monkeypatch.setattr(StoredArray, "release", counting_release)
    return outputs, released


def test_every_intermediate_is_freed_once_and_the_target_never(
        tmp_path, node_outputs):
    outputs, released = node_outputs
    script = ("a, b = rand({6, 4}), rand({4, 5})\n"
              "c = a @ b\n"
              "d = c + c\n"
              "execute(d.T)\n")
    res = engine(tmp_path, default_tile=2).run(script)
    assert [type(v) for v in outputs] == [StoredArray] * 5
    assert outputs[-1] is res
    assert [released[id(v)] for v in outputs] == [1, 1, 1, 1, 0]
    assert res.cell_count() == 30  # the target keeps its tiles


def test_pipeline_frees_every_array_it_made(tmp_path, node_outputs):
    outputs, released = node_outputs
    eng = engine(tmp_path, default_tile=4)
    eng.run(RECOMMEND)
    arrays = [v for v in outputs if isinstance(v, StoredArray)]
    assert len(arrays) > 10
    assert all(released[id(a)] == 1 for a in arrays)
    assert eng.pool.stats().resident_bytes == 0


@pytest.mark.parametrize("method, nth", [
    ("lookup", 3),      # inside the mshj probe
    ("to_scratch", 5),  # inside matmul / ewise, two tiles pinned
    ("cells", 4),       # inside transpose
])
def test_pins_are_released_when_a_run_fails(tmp_path, monkeypatch,
                                            method, nth):
    arrays: list = []
    init = StoredArray.__init__

    def track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        arrays.append(self)

    calls = Counter()
    orig = getattr(Tile, method)

    def fail_on_nth(self, *args, **kwargs):
        calls[method] += 1
        if calls[method] == nth:
            raise RuntimeError(f"injected failure in Tile.{method}")
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(StoredArray, "__init__", track)
    monkeypatch.setattr(Tile, method, fail_on_nth)
    with pytest.raises(RuntimeError, match="injected"):
        engine(tmp_path, **TIGHT).run(RECOMMEND)
    assert arrays
    for arr in arrays:
        assert all(n == 0 for n in arr.active_pins.values()), arr.name


def test_failed_run_deletes_the_spill_files_of_its_arrays(tmp_path,
                                                         monkeypatch):
    def fail(self, cc):
        raise RuntimeError("injected failure in the join probe")

    monkeypatch.setattr(Tile, "lookup", fail)
    with pytest.raises(RuntimeError, match="injected"):
        engine(tmp_path, **TIGHT).run(RECOMMEND)
    assert os.listdir(tmp_path) == []
