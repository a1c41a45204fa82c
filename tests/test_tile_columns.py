"""The array store's per-tile columns: the ``registered`` mask tracks the
pool exactly, staged lookups and ``release`` ask the pool only about
registered tiles, and a corrupt array file is refused with a typed error
that names the file."""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimodel.array_store import ArrayBuilder, StoredArray
from multimodel.bridge import JoinStats, dispatch_join, to_relation
from multimodel.buffer_pool import BufferPool
from multimodel.cli import main
from multimodel.errors import ArrayFileError, CapacityError, EngineError
from multimodel.models import INT, Relation

from conftest import array_meta, built_tile, dims_pred

SIZE, TS = (12, 10), (4, 5)  # a 3 x 2 grid
NTILES = 6


def _build(pool, seed=0, name="a", spool_dir=None):
    rng = np.random.default_rng(seed)
    present = rng.random(SIZE) < 0.5
    present[0, 0] = present[4, 0] = present[8, 5] = True
    b = ArrayBuilder(array_meta(SIZE, TS, attrs=(("value", "int"),)), pool,
                     name=name, spool_dir=spool_dir)
    coords = np.argwhere(present)
    b.add_cells(coords, [np.arange(len(coords))])
    return b.finish()


def _tile_bytes():
    arr = _build(BufferPool(1 << 30))
    return max(arr.pin(tc).nbytes for tc in arr.tile_coords())


def _fresh_tile(arr, tc, seed):
    """A tile of 0-3 random cells at tile coords `tc`."""
    rng = np.random.default_rng(seed)
    valid = arr.valid_extent(tc)
    cc = {tuple(int(rng.integers(v)) for v in valid)
          for _ in range(int(rng.integers(4)))}
    return built_tile(tc, TS, valid, arr.attr_dtypes, "dense", sorted(cc),
                      [list(range(len(cc)))])


def _check_registered(*arrays):
    for arr in arrays:
        got = [arr.pool.contains(arr._key(i)) for i in range(NTILES)]
        assert arr._registered.tolist() == got, arr.name


STEPS = st.lists(st.one_of(
    st.tuples(st.just("pin"), st.integers(0, NTILES - 1)),
    st.tuples(st.just("unpin"), st.just(0)),
    st.tuples(st.just("write"), st.integers(0, NTILES - 1)),
    st.tuples(st.just("lookup"), st.lists(st.integers(0, NTILES - 1),
                                          min_size=1, max_size=8)),
    st.tuples(st.just("release"), st.just(0)),
    st.tuples(st.just("other"), st.integers(0, NTILES - 1)),
), max_size=25)


@pytest.mark.parametrize("tiles", [1, 3, None])
@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_registered_mask_is_pool_membership(tiles, steps):
    """After every step, a tile is registered exactly when the pool holds
    it: pins (some held), writes, staged lookups, release, and evictions
    forced by a second array's adds, under pools of one tile, a few tiles
    and unbounded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.m2ar")
        _build(BufferPool(1 << 30)).save(path)
        pool = BufferPool(tiles * _tile_bytes() if tiles else 1 << 30)
        arr = StoredArray.load(path, pool, spool_dir=tmp)
        other = StoredArray(arr.meta, pool, name="b", spool_dir=tmp)
        held = []
        for n, (op, arg) in enumerate(steps):
            tc = arr._coords([arg])[0] if op != "lookup" else None
            try:
                if op == "pin":
                    arr.pin(tc)
                    held.append(tc)
                elif op == "unpin" and held:
                    arr.unpin(held.pop(0))
                elif op == "write":
                    arr.write_tile(tc, _fresh_tile(arr, tc, n))
                elif op == "lookup":
                    ids = np.array(arg, dtype=np.int64)
                    arr.lookup_runs(ids, np.ones(len(ids), np.int64),
                                    np.zeros(len(ids), np.int64), JoinStats())
                elif op == "release" and not held:
                    arr.release()
                elif op == "other":
                    other.write_tile(tc, _fresh_tile(other, tc, n))
            except CapacityError:
                pass  # every resident tile pinned: nothing was added
            _check_registered(arr, other)
        for tc in held:
            arr.unpin(tc)
        arr.release()
        other.release()
        _check_registered(arr, other)
        assert pool.resident_ids() == []


def test_nonresident_file_array_asks_the_pool_nothing(tmp_path, monkeypatch):
    """With nothing resident, a staged lookup and a release make no
    ``BufferPool.get`` or ``drop`` call."""
    path = str(tmp_path / "a.m2ar")
    _build(BufferPool(1 << 30)).save(path)
    arr = StoredArray.load(path, BufferPool(1 << 30))
    calls = []
    for name in ("get", "drop"):
        real = getattr(BufferPool, name)
        monkeypatch.setattr(BufferPool, name, lambda self, id, real=real,
                            name=name: calls.append(name) or real(self, id))
    ids = np.arange(NTILES, dtype=np.int64)
    stats = JoinStats()
    found, _ = arr.lookup_runs(ids, np.ones(NTILES, np.int64),
                               np.zeros(NTILES, np.int64), stats)
    arr.release()
    assert calls == []
    assert found.any() and stats.bytes_read > 0 and arr.total_reads > 0


# ----------------------------------------------------------- corrupt files

def _saved(tmp_path):
    path = tmp_path / "a.m2ar"
    _build(BufferPool(1 << 30)).save(str(path))
    raw = bytearray(path.read_bytes())
    d = struct.unpack_from("<I", raw, 8)[0]
    (desc_len,) = struct.unpack_from("<I", raw, 12 + 16 * d)
    tags = 16 + 16 * d + desc_len  # then the (offset, length) directory
    return path, raw, tags, tags + NTILES


def _entry(raw, directory, i):
    return struct.unpack_from("<QQ", raw, directory + 16 * i)


def _cut_in_directory(raw, tags, directory):
    return raw[:directory + 16 * 3 + 5]


def _unknown_tag(raw, tags, directory):
    raw[tags + 1] = 9
    return raw


def _empty_present_tile(raw, tags, directory):
    i = next(i for i in range(NTILES) if raw[tags + i])
    off, _ = _entry(raw, directory, i)
    struct.pack_into("<QQ", raw, directory + 16 * i, off, 0)
    return raw


def _entry_beyond_the_file(raw, tags, directory):
    i = next(i for i in range(NTILES) if raw[tags + i])
    _, length = _entry(raw, directory, i)
    struct.pack_into("<QQ", raw, directory + 16 * i, len(raw) - 3, length)
    return raw


@pytest.mark.parametrize("corrupt, what", [
    (_cut_in_directory, "truncated"),
    (_unknown_tag, "unknown layout tag 9"),
    (_empty_present_tile, "with a 0-byte slot"),
    (_entry_beyond_the_file, "ends beyond the file"),
])
def test_corrupt_array_file_is_a_typed_error(tmp_path, corrupt, what):
    path, raw, tags, directory = _saved(tmp_path)
    path.write_bytes(bytes(corrupt(raw, tags, directory)))
    with pytest.raises(ArrayFileError, match=what) as e:
        StoredArray.load(str(path), BufferPool(1 << 30))
    assert str(path) in str(e.value)
    assert isinstance(e.value, EngineError) and isinstance(e.value, ValueError)


def test_corrupt_array_file_through_the_cli_is_one_line(tmp_path, capsys):
    path, raw, tags, directory = _saved(tmp_path)
    path.write_bytes(bytes(_unknown_tag(raw, tags, directory)))
    script = tmp_path / "q.m2s"
    script.write_text("execute(openArray('a'))\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "a.m2ar" in err[0] and "unknown layout tag 9" in err[0]


def _sparse_slot(tmp_path, layout):
    """A saved one-tile 2 x 2 array of `layout` holding cells (0, 0) and
    (1, 1), its bytes and its slot's offset."""
    b = ArrayBuilder(array_meta((2, 2), (2, 2), layout), BufferPool(1 << 30))
    b.add_cells([(0, 0), (1, 1)], [np.array([1.5, 2.5])])
    path = tmp_path / f"{layout}.m2ar"
    b.finish().save(str(path))
    return path, bytearray(path.read_bytes()), StoredArray.load(
        str(path), BufferPool(1 << 30))._offset[0]


# a sparse slot's bytes after its cell count: COO, the coordinates; CSR, the
# 3 row pointers, then the column indices (u64 each)
@pytest.mark.parametrize("layout, at, words, what", [
    ("coo", 0, [3], "not hold the 3 cells"),
    ("coo", 8, [0, 9], "coordinate outside the tile"),
    ("coo", 8, [1, 1, 0, 0], "not strictly increasing"),
    ("coo", 8, [1, 1, 1, 1], "not strictly increasing"),
    ("csr", 0, [1], "not hold the 1 cells"),
    ("csr", 32, [9], "column index outside the tile"),
    ("csr", 8, [1, 1, 2], "row pointers"),
    ("csr", 8, [0, 2, 1], "row pointers"),
    ("csr", 8, [0, 1, 3], "row pointers"),
    ("csr", 8, [0, 2, 2, 1, 0], "not strictly increasing"),
])
def test_corrupt_sparse_slot_is_refused_where_it_is_read(tmp_path, layout, at,
                                                         words, what):
    """Each way a tile is read decodes the slot and refuses it, naming the
    file and the tile, rather than reading wrong or no cells."""
    path, raw, off = _sparse_slot(tmp_path, layout)
    struct.pack_into(f"<{len(words)}Q", raw, off + at, *words)
    path.write_bytes(bytes(raw))
    rel = Relation([("x", INT), ("y", INT)], [(0, 0), (1, 1)])
    reads = {
        "pin": lambda arr: arr.pin((0, 0)),
        "staged probe": lambda arr: dispatch_join(rel, arr,
                                                  dims_pred(arr, ("x", "y")),
                                                  strategy="mshj"),
        "to_relation": to_relation,
    }
    for how, read in reads.items():
        arr = StoredArray.load(str(path), BufferPool(1 << 30))
        with pytest.raises(ArrayFileError, match=what) as e:
            read(arr)
        assert f"{path}: tile (0, 0): " in str(e.value), how
        assert not arr.active_pins and not arr.pool.resident_ids(), how
