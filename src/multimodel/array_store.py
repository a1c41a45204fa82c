"""Tiled array storage.

Arrays are partitioned into fixed-size rectangular tiles. A tile holds an
``index`` and one ``values`` array per attribute. A dense tile's index is a
validity mask over the tile box and its values are box-shaped blocks, zero
where the mask is false. A sparse tile's index is the strictly increasing
row-major keys of its cells within the box, binary searched, and each value
column lines up with it. Sparse tiles have two byte encodings, which is all
that tells them apart: COO (cell coordinates) and CSR (2-D only: row pointers
+ column indices), each checked when it is decoded. Tiles are the unit of
I/O, and ``StoredArray._read_stage`` reads every slot: a pin's miss reads one
and caches its tile in the shared buffer pool, which makes it non-evictable
until unpinned; dirty tiles spill to disk on eviction. The record-array join
reads through ``StoredArray.lookup_runs`` instead: pool-sized stages of tiles
read with coalesced preads and looked up a stage at once, never entering the
pool. ``release()`` frees a whole array: its tiles leave the pool without
being spilled and its spill file is deleted.
A cell's place is decided in one place, ``_tile_cells``: its tile's row-major
id and its row-major key in the tile, each narrow; the record-array join
probes by them.  ``_ravel`` keys a cell in its tile, and ``Tile.lookup``
finds cells: in a resident tile, or in the one dense and one coo tile whose
rows are a stage's tiles.  ``ArrayBuilder`` orders cells by (tile, key) and
installs each tile from its keys, as ``block_tile`` does a sparse tile from a
block.
Operators build tiles from blocks and read them as blocks
(``Tile.to_scratch``: a dense tile's own, as read-only views).

A ``StoredArray`` keeps per-tile state in columns indexed by row-major
linear tile id, O(grid) like the file's directory: the slot table (layout
tag; source: absent with no cells, the file loaded from, the spill file, or
mem, dirty in the pool only; offset; length), pin, read and current-pin
counts, and a ``registered`` mask, set once ``pool.add`` succeeds and cleared
by eviction and ``pool.drop``. Loading reads no tile; staged lookups and
``release()`` ask the pool only about registered tiles.

On-disk format (one file per array, little-endian):
magic "M2AR" | u32 version=1 | u32 d | u64 size[d] | u64 tile_size[d]
| u32 desc_len | desc JSON | u8 layout_tag per tile (row-major)
| (u64 offset, u64 length) per tile | tile blocks.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import replace

import numpy as np

from .buffer_pool import BufferObject, BufferPool
from .errors import (ArrayFileError, BoundsError, DuplicateCellError, EngineError,
                     InternalError, ShapeError, TypeMismatchError)
from .models import ArrayMeta, CellSchema, ValueType

__all__ = [
    "Tile",
    "StoredArray",
    "ArrayBuilder",
    "block_tile",
    "smaller_layout",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"M2AR"
FORMAT_VERSION = 1

_DTYPES = {
    "int": np.dtype("<i8"),
    "uint": np.dtype("<u8"),
    "float": np.dtype("<f8"),
    "bool": np.dtype("|b1"),
}


def dtype_for(vt: ValueType) -> np.dtype:
    try:
        return _DTYPES[vt.kind]
    except KeyError:
        raise TypeMismatchError(f"arrays cannot store {vt} attributes") from None


_MAX_CELLS = np.iinfo(np.intp).max  # cells of a box, keyed 0 .. n-1


def _narrow(top: int) -> np.dtype:
    """The narrowest unsigned dtype holding 0..top; int64 past 32 bits, as
    numpy promotes uint64 with int64 to float64."""
    return np.min_scalar_type(top) if top >> 32 == 0 else np.dtype(np.int64)


def _ravel(parts, box, dt=None) -> np.ndarray:
    """Row-major linear index of per-dimension `parts` inside `box`, in `dt`
    or the ``_narrow`` dtype holding it, built in a copy of the first part.
    A box with more cells than an int64 can number is refused, not wrapped."""
    if (n := math.prod(box)) > _MAX_CELLS:
        raise ShapeError(f"extent {tuple(box)} holds more than {_MAX_CELLS} cells")
    dt, out = _narrow(n - 1) if dt is None else dt, None
    for p, b in zip(parts, box):  # extent 1 adds nothing; skipping it keeps b inside dt
        if b > 1 and out is None:
            out = p.astype(dt)  # a copy: callers reuse their parts
        elif b > 1:
            out *= b
            np.add(out, p, out=out, dtype=dt, casting="unsafe")  # p fits dt
    return np.zeros(len(parts[0]), dt) if out is None else out


def _tile_cells(dims, meta: ArrayMeta):
    """Each row's tile coordinate per dimension, its row-major linear tile
    id and its row-major cell within the tile, from one divmod per
    dimension of ``dims`` (one int64 array per dimension), each narrow."""
    tq, rq = [], []
    for col, t, g in zip(dims, meta.tile_size, meta.grid):
        q, r = np.divmod(col, t)
        tq.append(q.astype(_narrow(g - 1)))
        rq.append(r.astype(_narrow(t - 1)))
    return tq, _ravel(tq, meta.grid), _ravel(rq, meta.tile_size)


class Tile:
    """One tile of an array: its layout and two payload attributes, ``index``
    and ``values``; see the module docstring."""

    def __init__(self, layout, ts, attr_dtypes, index, values):
        self.layout = layout
        self.ts = tuple(ts)
        self.attr_dtypes = list(attr_dtypes)
        self.index: np.ndarray = index
        self.values: list[np.ndarray] = values

    # -- introspection ----------------------------------------------------

    def cell_count(self) -> int:
        if self.layout == "dense":
            return int(np.count_nonzero(self.index))
        return len(self.index)

    @property
    def nbytes(self) -> int:
        return 64 + self.index.nbytes + sum(v.nbytes for v in self.values)

    # -- batch access -----------------------------------------------------

    def lookup(self, parts):
        """Batch probe of the cells at `parts`, one coordinate array per
        dimension (as ``np.nonzero`` and ``np.unravel_index`` give them).
        Returns (found bool array, value arrays); value entries where found
        is False are meaningless."""
        if self.layout == "dense":
            return self.index[parts], [v[parts] for v in self.values]
        if len(self.index) == 0:
            k = len(parts[0])
            return np.zeros(k, dtype=bool), [np.zeros(k, dt) for dt in self.attr_dtypes]
        # in the index's dtype: int64 against uint64 would search as float64
        keys = _ravel(parts, self.ts).astype(self.index.dtype, copy=False)
        pos = np.searchsorted(self.index, keys)
        np.minimum(pos, len(self.index) - 1, out=pos)
        return self.index[pos] == keys, [v[pos] for v in self.values]

    def cells(self):
        """All cells as (coords (M,d) ascending lexicographic, value arrays)."""
        if self.layout == "dense":
            keys = np.flatnonzero(self.index)  # C-order scan == lexicographic
            return _delinearize(keys, self.ts), [v.reshape(-1)[keys] for v in self.values]
        return _delinearize(self.index, self.ts), self.values

    def to_scratch(self):
        """(mask over the full ts, value arrays), values zero where the mask
        is false. A dense tile returns read-only views of its own blocks;
        coo/csr tiles scatter their cells into fresh ones."""
        if self.layout == "dense":
            return _readonly(self.index), [_readonly(v) for v in self.values]
        return _scatter(self.ts, self.attr_dtypes, self.index, self.values)

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Dense: the mask, then each value block. COO: the cell count, the
        (M, d) coordinates, then each value column. CSR: the cell count,
        ts[0]+1 row pointers, the column indices, then each value column.
        All little-endian."""
        if self.layout == "dense":
            head, arrays = b"", [self.index]
        else:
            head = struct.pack("<Q", len(self.index))
            if self.layout == "coo":
                arrays = [_delinearize(self.index, self.ts)]
            else:
                rows, cols = np.divmod(self.index, np.uint64(self.ts[1]))
                starts = np.arange(self.ts[0] + 1, dtype=np.uint64)
                arrays = [np.searchsorted(rows, starts).astype(np.uint64), cols]
        return head + b"".join(
            np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()
            for a in [*arrays, *self.values])

    @staticmethod
    def from_bytes(buf, layout, ts, attr_dtypes) -> "Tile":
        """The tile that ``to_bytes`` encoded in `buf`.  A sparse slot is
        checked first: ``ArrayFileError`` says what is wrong with it."""
        if layout == "dense":
            shape = ts
            index = np.frombuffer(buf, "|b1", math.prod(ts)).reshape(ts).copy()
            off = index.nbytes
        else:
            (m,) = struct.unpack_from("<Q", buf) if len(buf) >= 8 else (None,)
            off = 8 + (8 * (ts[0] + 1) if layout == "csr" else 0)
            per_cell = 8 * (len(ts) if layout == "coo" else 1) + sum(
                dt.itemsize for dt in attr_dtypes)
            if m is None or len(buf) != off + m * per_cell:
                raise ArrayFileError(f"a {len(buf)}-byte {layout} slot does "
                                     f"not hold the {m} cells it counts")
            if layout == "coo":
                coords = np.frombuffer(buf, "<u8", m * len(ts), off).reshape(m, len(ts))
                if m and coords.max() >= min(ts) and any(  # else every one fits
                        c.max() >= t for c, t in zip(coords.T, ts)):
                    raise ArrayFileError(f"a coordinate outside the tile {ts}")
                off += coords.nbytes
                index = _ravel(coords.T, ts, np.dtype(np.uint64))
            else:
                indptr = np.frombuffer(buf, "<u8", ts[0] + 1, 8)
                cols = np.frombuffer(buf, "<u8", m, off)
                if indptr[0] != 0 or indptr[-1] != m or (indptr[1:] < indptr[:-1]).any():
                    raise ArrayFileError(f"row pointers not rising from 0 to {m}")
                if m and cols.max() >= ts[1]:
                    raise ArrayFileError(f"a column index outside the tile {ts}")
                off += cols.nbytes
                # each cell's key: its row's first key, repeated over the row, + column
                index = np.repeat(np.arange(0, ts[0] * ts[1], ts[1], dtype=np.uint64),
                                  np.diff(indptr).astype(np.int64))
                index += cols
            if (index[1:] <= index[:-1]).any():
                raise ArrayFileError("cell keys not strictly increasing")
            shape = (m,)
        values = []
        for dt in attr_dtypes:
            values.append(np.frombuffer(buf, dt, math.prod(shape), off)
                          .reshape(shape).copy())
            off += values[-1].nbytes
        return Tile(layout, ts, attr_dtypes, index, values)


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


def _stage_bounds(inv: np.ndarray, size: np.ndarray, free: int):
    """Cut runs into stages, greedily: a stage takes runs while the summed
    `size` of the distinct tiles it reads (`inv`: each run's tile) fits in
    `free`, and at least one run.  Returns the stage bounds as run indices
    and, per run, the index of the previous run on its tile (-1 if
    none)."""
    n = len(inv)
    by_tile = np.argsort(inv, kind="stable")
    again = inv[by_tile[1:]] == inv[by_tile[:-1]]
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_tile[1:][again]] = by_tile[:-1][again]
    run_size = size[inv]
    bounds, width = [0], 64
    while bounds[-1] < n:
        s = bounds[-1]
        while True:  # widen the window until the stage ends inside it
            hi = min(s + width, n)
            cum = np.cumsum(np.where(prev[s:hi] < s, run_size[s:hi], 0))
            e = int(np.searchsorted(cum, free, "right"))
            if e < hi - s or hi == n:
                break
            width *= 2
        bounds.append(s + max(e, 1))
    return bounds, prev


def _delinearize(keys: np.ndarray, box: tuple[int, ...]) -> np.ndarray:
    """The (M, d) coordinates of row-major linear keys within the given box."""
    return np.stack(np.unravel_index(keys, box), axis=1).astype(np.uint64)


def _scatter(ts, attr_dtypes, keys, cols):
    """Fresh ts-shaped (mask, value blocks) holding the cells at row-major
    `keys`."""
    mask = np.zeros(ts, dtype=bool)
    values = [np.zeros(ts, dt) for dt in attr_dtypes]
    mask.reshape(-1)[keys] = True
    for out, col in zip(values, cols):
        out.reshape(-1)[keys] = col
    return mask, values


def _keyed_tile(ts, attr_dtypes, layout, keys, cols) -> Tile:
    """A tile of extent `ts` holding the cells at strictly increasing
    row-major `keys` with value columns `cols`: a dense scatter, or the keys
    as uint64 for a sparse tile."""
    if layout == "dense":
        return Tile(layout, ts, attr_dtypes, *_scatter(ts, attr_dtypes, keys, cols))
    # copies: a sparse tile holds no view of its builder's columns
    return Tile(layout, ts, attr_dtypes, keys.astype(np.uint64),
                [np.array(c, dt) for c, dt in zip(cols, attr_dtypes)])


def block_tile(tc, ts, valid, attr_dtypes, layout, mask, values) -> Tile:
    """Build a tile from a mask and value blocks of shape at most ts, anchored
    at the tile origin. Dense tiles copy them into fresh ts-shaped blocks,
    zero where the mask is false; coo/csr tiles take the set cells."""
    if np.count_nonzero(mask[tuple(slice(0, v) for v in valid)]) != np.count_nonzero(mask):
        raise BoundsError(f"cells outside valid extent {valid} of tile {tuple(tc)}")
    if layout != "dense":
        cc = np.nonzero(mask)  # row-major in the block, so in the tile box
        return _keyed_tile(ts, attr_dtypes, layout, _ravel(cc, ts), [v[cc] for v in values])
    box = tuple(slice(0, n) for n in mask.shape)
    index = np.zeros(ts, dtype=bool)
    index[box] = mask
    blocks = [np.zeros(ts, dt) for dt in attr_dtypes]
    for out, v in zip(blocks, values):
        np.copyto(out[box], v, where=mask)
    return Tile(layout, ts, attr_dtypes, index, blocks)


def smaller_layout(tile_cells, ts, attr_dtypes) -> str:
    """csr (2-D) or coo when the ``Tile.to_bytes`` encodings of the
    non-empty tiles holding `tile_cells` cells each, of extent `ts`, take
    strictly fewer bytes in all sparse than dense, and the fullest tile
    takes no more of the pool (``Tile.nbytes``) sparse than a dense tile
    does; else dense.  So a pool with room for a dense tile holds any tile
    of the array."""
    tiles, cells = len(tile_cells), int(np.sum(tile_cells))
    width = sum(dt.itemsize for dt in attr_dtypes)
    dense_tile = math.prod(ts) * (1 + width)
    if len(ts) == 2:  # per tile the count and row pointers, per cell a column
        layout, sparse = "csr", tiles * 8 * (ts[0] + 2) + cells * (8 + width)
    else:  # per tile the count, per cell its coordinates
        layout, sparse = "coo", tiles * 8 + cells * (8 * len(ts) + width)
    # in the pool a sparse cell is its 8-byte key and its values
    fits = int(np.max(tile_cells, initial=0)) * (8 + width) <= dense_tile
    return layout if sparse < tiles * dense_tile and fits else "dense"


# ---------------------------------------------------------------------------

_LAYOUTS = ("absent", "dense", "coo", "csr")  # index: the on-disk layout tag
_DENSE = 1
_ABSENT, _FILE, _SPILL, _MEM = range(4)  # slot sources: see the docstring
_SLOT = np.dtype([("tag", "u1"), ("src", "u1"), ("offset", "<i8"), ("length", "<i8")])
_READ = np.dtype((np.record, [("tile", "<i8"), ("slot", _SLOT)]))  # a stage's reads

_uid_counter = itertools.count(1)


class _TileCounts(Mapping):
    """Read-only {tile coords: count} view of a per-tile counter column of
    a StoredArray, listing the tiles whose count is not 0."""

    def __init__(self, arr: "StoredArray", col):
        self._arr, self._col = arr, col

    def __getitem__(self, tc) -> int:
        try:
            n = self._col[self._arr._tile_id(tc)]
        except BoundsError:
            raise KeyError(tc) from None
        if not n:
            raise KeyError(tc)
        return int(n)

    def __iter__(self):
        return iter(self._arr._coords(np.flatnonzero(self._col)))

    def __len__(self) -> int:
        return sum(1 for _ in self)


class StoredArray:
    """A tiled array whose tiles are cached in the shared buffer pool.

    Tiles are read one at a time through pin()/unpin() (or the ``pinned``
    context), which cache them in the pool, or a stage at a time through
    ``lookup_runs``, which reads the tiles that are not resident without
    entering them in the pool.  ``pin_counts``, ``disk_reads`` and
    ``active_pins`` view per-tile columns as read-only mappings keyed by
    tile coordinates, for tests and for the benchmark harness.
    """

    def __init__(self, meta: ArrayMeta, pool: BufferPool, *, name: str = "",
                 spool_dir: str | None = None):
        self.meta = meta
        self.pool = pool
        self.name = name or f"array{next(_uid_counter)}"
        self.uid = next(_uid_counter)
        self.spool_dir = spool_dir
        self.attr_dtypes = [dtype_for(t) for t in meta.schema.attr_types]
        self._grid = meta.grid
        n = math.prod(self._grid)
        self._slots = np.zeros(n, _SLOT)  # tag 0 and source _ABSENT: no cells
        self._tag, self._src, self._offset, self._length = (
            self._slots[f] for f in _SLOT.names)  # the slot columns, as views
        self._registered = np.zeros(n, bool)   # resident in the pool
        self._pins = np.zeros(n, np.int64)     # since reset_io_stats
        self._reads = np.zeros(n, np.int64)
        self._active = np.zeros(n, np.int64)   # pinned now
        self.pin_counts = _TileCounts(self, self._pins)
        self.disk_reads = _TileCounts(self, self._reads)
        self.active_pins = _TileCounts(self, self._active)
        self._path: str | None = None          # the file loaded from
        self._spill_path: str | None = None

    # -- geometry ---------------------------------------------------------

    def _tile_id(self, tc) -> int:
        """Row-major linear id of tile coordinate `tc`."""
        i = 0
        if len(tc) == len(self._grid):
            for c, g in zip(tc, self._grid):
                if not 0 <= c < g:
                    break
                i = i * g + int(c)
            else:
                return i
        raise BoundsError(f"tile coord {tuple(int(x) for x in tc)} outside "
                          f"grid {self._grid}")

    def _coords(self, ids) -> list[tuple]:
        """Tile coordinates of linear ids (an array or a non-empty list)."""
        return list(zip(*(c.tolist() for c in np.unravel_index(ids, self._grid))))

    def valid_extent(self, tc) -> tuple[int, ...]:
        return tuple(min(t, s - c * t) for c, s, t in
                     zip(tc, self.meta.size, self.meta.tile_size))

    def tile_coords(self) -> list[tuple]:
        """Coordinates of stored (non-empty) tiles in row-major order."""
        return self._coords(np.flatnonzero(self._src))

    def _key(self, i: int):
        return ("tile", self.uid, i)

    # -- pin / unpin --------------------------------------------------------

    def pin(self, tc) -> Tile:
        i = self._tile_id(tc)
        self._pins[i] += 1
        src = self._src[i]
        if src == _ABSENT:
            # absent tile == tile with zero cells; nothing read, nothing cached
            tile = _keyed_tile(self.meta.tile_size, self.attr_dtypes,
                               self.meta.layout, np.zeros(0, np.uint64),
                               [np.zeros(0, dt) for dt in self.attr_dtypes])
        elif (obj := self.pool.get(self._key(i))) is not None:
            tile = obj.payload
        else:
            if src == _MEM:
                raise InternalError(f"in-memory tile {self._coords([i])[0]} "
                                    "lost without a spill")
            reads, fds = np.array([(i, self._slots[i])], _READ), {}
            try:
                buf, _, _ = self._read_stage(reads, fds)
            finally:
                for fd in fds.values():
                    os.close(fd)
            self._register(i, tile := self._decode(buf, _LAYOUTS[self._tag[i]], reads, 0))
        self._active[i] += 1
        return tile

    def unpin(self, tc) -> None:
        i = self._tile_id(tc)
        if not self._active[i]:
            raise InternalError(f"unpin without pin for tile {self._coords([i])[0]}")
        self._active[i] -= 1

    @contextlib.contextmanager
    def pinned(self, tc):
        """pin(tc) for the body of a ``with``; unpinned however it ends."""
        tile = self.pin(tc)
        try:
            yield tile
        finally:
            self.unpin(tc)

    def _register(self, i: int, tile: Tile) -> None:
        def on_evict() -> None:
            if self._src[i] == _MEM:  # dirty: no copy on disk
                self._spill(tile, i)
            self._registered[i] = False

        self.pool.add(BufferObject(
            id=self._key(i), size=tile.nbytes, payload=tile,
            is_evictable=lambda: not self._active[i], do_eviction=on_evict))
        self._registered[i] = True

    def _spill(self, tile: Tile, i: int) -> None:
        if self._spill_path is None:
            base = self.spool_dir or "."
            os.makedirs(base, exist_ok=True)
            self._spill_path = os.path.join(base, f"{self.name}-{self.uid}.spill")
        buf = tile.to_bytes()
        with open(self._spill_path, "ab") as f:
            self._offset[i] = f.tell()
            f.write(buf)
        self._length[i], self._src[i] = len(buf), _SPILL

    # -- staged lookups ----------------------------------------------------

    def lookup_runs(self, run_tiles: np.ndarray, run_lengths: np.ndarray,
                    cells: np.ndarray, stats):
        """Look up cells given as runs of records on one tile, a stage at a
        time.  ``run_tiles`` holds each run's row-major linear tile id,
        ``run_lengths`` its record count and ``cells`` each record's
        row-major cell within its tile.  Returns (found, value columns),
        one entry per record.

        Each run counts as a pin of its tile.  Runs are cut into stages
        whose distinct non-resident tiles fit the pool's free space, at
        least one run per stage.  Resident tiles (the registered ones) are
        used in place, pinned for the whole call.  A stage's other tiles
        are read and looked up by ``_lookup_stage``, never registered in
        the pool, so the scan evicts nothing.  ``stats`` (a ``JoinStats``)
        gains the stages, preads and bytes read.
        """
        n = int(run_lengths.sum())
        found = np.zeros(n, dtype=bool)
        values = [np.zeros(n, dt) for dt in self.attr_dtypes]
        uniq, inv, runs_per_tile = np.unique(run_tiles, return_inverse=True,
                                             return_counts=True)
        self._pins[uniq] += runs_per_tile
        src, held = self._src[uniq], self._registered[uniq]
        if (lost := uniq[(src == _MEM) & ~held]).size:
            raise InternalError(f"in-memory tile {self._coords(lost)[0]} "
                                "lost without a spill")
        read = (src != _ABSENT) & ~held
        size = np.where(read, 64 + self._length[uniq], 0)  # decoded, at most
        bounds, prev = _stage_bounds(inv, size, self.pool.capacity
                                     - self.pool.stats().resident_bytes)
        starts = np.concatenate(([0], np.cumsum(run_lengths)))
        # the runs that read their tile: by stage, dense first, by file, offset
        stage_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        fresh = np.flatnonzero(read[inv] & (prev < np.take(bounds, stage_of)))
        t = uniq[inv[fresh]]
        fresh = fresh[np.lexsort((self._offset[t], self._src[t],
                                  self._tag[t] != _DENSE, stage_of[fresh]))]
        seg = np.searchsorted(stage_of[fresh], np.arange(len(bounds))).tolist()
        rank = np.full(len(uniq), -1)  # read order in the tile's last stage
        table = np.empty(len(uniq), _READ)  # (tile, slot) of each tile
        table["tile"], table["slot"] = uniq, self._slots[uniq]
        fds: dict[str, int] = {}
        held_ids = uniq[held]
        resident = dict(zip(np.flatnonzero(held).tolist(), (
            self.pool.get(self._key(t)).payload for t in held_ids.tolist())))
        self._active[held_ids] += 1
        try:
            for r in np.flatnonzero(held[inv]).tolist():
                lo, hi = starts[r], starts[r + 1]
                found[lo:hi], vals = resident[inv[r]].lookup(
                    np.unravel_index(cells[lo:hi], self.meta.tile_size))
                for out, v in zip(values, vals):
                    out[lo:hi] = v
            for k, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
                if seg[k] == seg[k + 1]:
                    continue  # nothing to read
                stage = inv[fresh[seg[k]:seg[k + 1]]]
                rank[stage] = np.arange(len(stage))
                lo, hi = starts[s], starts[e]
                self._lookup_stage(table.take(stage), rank[inv[s:e]], run_lengths[s:e],
                                   cells[lo:hi], found[lo:hi],
                                   [v[lo:hi] for v in values], fds, stats)
            stats.stages += len(bounds) - 1
        finally:
            for fd in fds.values():
                os.close(fd)
            self._active[held_ids] -= 1
        return found, values

    def _lookup_stage(self, reads, run_rank, run_lengths, cells, found, values,
                      fds, stats) -> None:
        """One stage of ``lookup_runs``: read the tiles of `reads` (``_READ``
        records) into one buffer in that order (dense ones first), then look
        up the records of the runs whose `run_rank`, the rank of their tile
        in `reads`, is not -1.  Each record takes its run's rank in the
        ``_narrow`` dtype, ``len(reads)`` for the records left out.  The
        dense tiles are probed as the rows of one dense ``Tile`` viewing the
        buffer; the sparse ones, decoded, as the rows of one coo ``Tile``
        over their concatenated keys.  Writes into `found` and `values`."""
        buf, at, preads = self._read_stage(reads, fds)
        stats.preads += preads
        stats.bytes_read += at[-1]
        ts, dtypes = self.meta.tile_size, self.attr_dtypes
        ncell, n = math.prod(ts), len(reads)
        every = run_rank.min() >= 0  # every run is on a tile of the stage
        rank = np.repeat((run_rank if every else np.where(run_rank < 0, n, run_rank)
                          ).astype(_narrow(n)), run_lengths)

        def look(block: Tile, first: int) -> None:  # row r: the tile ranked first + r
            hi = first + block.ts[0]  # m: the records on tiles ranked first .. hi - 1
            m = (slice(None) if first == 0 and hi == n and every else
                 (rank < hi) if first == 0 else (rank >= first) & (rank < hi))
            found[m], vals = block.lookup((rank[m] - first if first else rank[m], cells[m]))
            for out, v in zip(values, vals):
                out[m] = v
        tags = reads["slot"]["tag"].tolist()
        n_dense = tags.count(_DENSE)
        if n_dense:  # each dense tile's bytes: its mask, then each value block
            rows = buf[:at[n_dense]].reshape(n_dense, -1)
            cut = list(itertools.accumulate([ncell] + [ncell * t.itemsize for t in dtypes]))
            look(Tile("dense", (n_dense, ncell), dtypes, rows[:, :ncell].view(bool),
                      [rows[:, lo:hi].view(t) for lo, hi, t in zip(cut, cut[1:], dtypes)]), 0)
        if n_dense < n:
            sparse = [self._decode(buf[at[k]:at[k + 1]], _LAYOUTS[tags[k]], reads, k)
                      for k in range(n_dense, n)]
            dt = _narrow((n - n_dense) * ncell - 1)
            block = Tile("coo", (n - n_dense, ncell), dtypes, np.concatenate(
                [t.index.astype(dt) + r * ncell for r, t in enumerate(sparse)]),
                [np.concatenate(col) for col in zip(*(t.values for t in sparse))])
            del sparse  # the block holds their cells
            look(block, n_dense)

    def _read_stage(self, reads, fds):
        """Read the slots of `reads` (``_READ`` records: tile id, slot) into
        one buffer, in the given order: each run of slots adjacent in one
        file takes one pread (more only if the kernel returns short), over
        one fd per file kept in `fds`; counts a disk read of each tile.
        Returns the buffer, each slot's start in it (plus the end), preads."""
        src, offset, length = (reads["slot"][f] for f in ("src", "offset", "length"))
        at = list(itertools.accumulate(length.tolist(), initial=0))
        buf = np.empty(at[-1], dtype=np.uint8)
        view = memoryview(buf)
        cut = (np.flatnonzero((src[1:] != src[:-1]) | (offset[1:] != offset[:-1]
                                                       + length[:-1])) + 1
               ).tolist() if len(reads) > 1 else []  # one slot: one run
        edges, preads = [0, *cut, len(reads)], 0
        for i, j in zip(edges[:-1], edges[1:]):
            path = self._file(src[i])
            if path not in fds:
                fds[path] = os.open(path, os.O_RDONLY)
            lo, hi, pos = at[i], at[j], int(offset[i])
            while lo < hi:
                got = os.preadv(fds[path], [view[lo:hi]], pos)
                preads += 1
                if got == 0:
                    k = bisect.bisect_right(at, lo) - 1
                    tc = self._coords(reads["tile"][k:k + 1])[0]
                    raise InternalError(f"short read of tile {tc} from {path}: "
                                        f"{lo - at[k]} of {length[k]} bytes")
                lo += got
                pos += got
        self._reads[reads["tile"]] += 1
        return buf, at, preads

    def _file(self, src) -> str | None:
        """The file a slot of source `src` (``_FILE`` or ``_SPILL``) is in."""
        return self._path if src == _FILE else self._spill_path

    def _decode(self, buf, layout: str, reads, k: int) -> Tile:
        """The `layout` tile in `buf`, slot `k` of `reads` (``_READ`` records);
        a bad slot raises ``ArrayFileError`` naming its file and tile."""
        try:
            return Tile.from_bytes(buf, layout, self.meta.tile_size, self.attr_dtypes)
        except ArrayFileError as e:
            tile, slot = reads[k]
            raise ArrayFileError(f"{self._file(slot['src'])}: tile "
                                 f"{self._coords([tile])[0]}: {e}") from None

    # -- writing -------------------------------------------------------------

    def write_tile(self, tc, tile: Tile) -> None:
        """Install a freshly built tile (replaces any previous content); a
        tile the pool refuses is not stored, and the tile reads as empty."""
        i = self._tile_id(tc)
        if self._registered[i]:
            self.pool.drop(self._key(i))
            self._registered[i] = False
        self._slots[i] = 0  # absent: a tile with zero cells
        if tile.cell_count():
            self._register(i, tile)
            self._slots[i] = (_LAYOUTS.index(tile.layout), _MEM, 0, 0)

    # -- whole-array iteration -------------------------------------------

    def iter_cells(self):
        """Yield (global coords (M,d), value arrays) per stored tile, tiles in
        row-major order, cells in lexicographic order within each tile."""
        ts = np.array(self.meta.tile_size, dtype=np.uint64)
        for tc in self.tile_coords():
            with self.pinned(tc) as tile:
                cc, vals = tile.cells()
            yield np.asarray(tc, dtype=np.uint64) * ts + cc, vals

    def cell_count(self) -> int:
        return sum(len(cc) for cc, _ in self.iter_cells())

    # -- persistence -----------------------------------------------------

    def descriptor(self) -> dict:
        sch = self.meta.schema
        return {
            "dims": list(sch.dim_names),
            "attrs": [[n, str(t)] for n, t in zip(sch.attr_names, sch.attr_types)],
            "layout": self.meta.layout,
            "seed": self.meta.seed,
        }

    def save(self, path: str) -> None:
        meta, n = self.meta, len(self._tag)
        desc = json.dumps(self.descriptor(), separators=(",", ":")).encode()
        head = struct.pack(f"<4sII{2 * meta.d}QI", MAGIC, FORMAT_VERSION,
                           meta.d, *meta.size, *meta.tile_size, len(desc))
        blocks = []
        for tc in self.tile_coords():
            with self.pinned(tc) as tile:
                blocks.append(tile.to_bytes())
        directory = np.zeros((n, 2), dtype="<u8")  # (offset, length) per tile
        length = directory[:, 1]
        length[self._src != _ABSENT] = [len(b) for b in blocks]
        directory[:, 0] = np.where(length, len(head) + len(desc) + 17 * n
                                   + np.cumsum(length) - length, 0)
        with open(path, "wb") as f:
            f.write(head + desc + self._tag.tobytes() + directory.tobytes())
            for buf in blocks:
                f.write(buf)

    @classmethod
    def load(cls, path: str, pool: BufferPool, *, name: str = "",
             spool_dir: str | None = None) -> "StoredArray":
        """Open an array file: read its header, layout tags and directory
        (never a tile) and check them; ``ArrayFileError`` names the file
        and what is wrong with it."""
        def read(n: int, at: int) -> bytes:
            buf = os.pread(fd, n, at) if at + n <= size else b""
            if len(buf) != n:
                raise ArrayFileError(f"{path}: truncated: {size} bytes, "
                                     f"the header and directory need {at + n}")
            return buf

        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if os.pread(fd, 4, 0) != MAGIC:
                raise ArrayFileError(f"{path}: not an array file (bad magic)")
            version, d = struct.unpack("<II", read(8, 4))
            if version != FORMAT_VERSION:
                raise ArrayFileError(f"{path}: unsupported version {version}")
            *shape, desc_len = struct.unpack(f"<{2 * d}QI", read(16 * d + 4, 12))
            # a zero tile extent is refused by ArrayMeta below
            ntiles = math.prod(-(-s // max(t, 1)) for s, t in zip(shape[:d], shape[d:]))
            rest = read(desc_len + 17 * ntiles, 16 + 16 * d)
        finally:
            os.close(fd)
        try:
            desc = json.loads(rest[:desc_len])
            meta = ArrayMeta(CellSchema(
                dim_names=tuple(desc["dims"]),
                attr_names=tuple(n for n, _ in desc["attrs"]),
                attr_types=tuple(ValueType.parse(t) for _, t in desc["attrs"]),
            ), tuple(shape[:d]), tuple(shape[d:]),
                layout=desc.get("layout", "dense"), seed=desc.get("seed"))
        except (ValueError, KeyError, TypeError, EngineError) as e:
            raise ArrayFileError(f"{path}: bad header or descriptor: {e}") from None
        arr = cls(meta, pool, name=name or os.path.basename(path), spool_dir=spool_dir)
        tags = np.frombuffer(rest, np.uint8, ntiles, desc_len)
        offset, length = np.frombuffer(rest, "<u8", 2 * ntiles,
                                       desc_len + ntiles).reshape(-1, 2).T
        unknown = tags >= len(_LAYOUTS)
        width = math.prod(shape[d:]) * (1 + sum(t.itemsize for t in arr.attr_dtypes))
        skewed = ((tags == 0) != (length == 0)) | (tags == _DENSE) & (length != width)
        if (bad := np.flatnonzero(unknown | skewed | (length > size) |
                                  (offset > size - length))).size:
            k = int(bad[0])
            raise ArrayFileError(f"{path}: tile {arr._coords([k])[0]}: " + (
                f"unknown layout tag {tags[k]}" if unknown[k] else
                f"layout tag {tags[k]} with a {length[k]}-byte slot" if skewed[k]
                else f"slot of {length[k]} bytes at {offset[k]} ends beyond "
                     f"the file's {size} bytes"))
        arr._tag[:], arr._offset[:], arr._length[:] = tags, offset, length
        arr._src[tags != 0] = _FILE
        arr._path = path
        return arr

    # -- bookkeeping -------------------------------------------------------

    @contextlib.contextmanager
    def release_on_error(self):
        """For the body of a ``with`` that fills this array: if it raises,
        release the partial array, then re-raise."""
        try:
            yield
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        """Free the array: drop its tiles from the pool without spilling
        them, delete its spill file, and forget every tile (it reads as
        empty afterwards).  Files the array was loaded from stay."""
        for i in np.flatnonzero(self._registered).tolist():
            self.pool.drop(self._key(i))
        self._registered[:] = self._slots[:] = 0
        if self._spill_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._spill_path)
            self._spill_path = None

    def reset_io_stats(self) -> None:
        self._pins[:] = self._reads[:] = 0

    @property
    def total_pins(self) -> int:
        return int(self._pins.sum())

    @property
    def total_reads(self) -> int:
        return int(self._reads.sum())


class ArrayBuilder:
    """Builds a StoredArray from cells in arbitrary order: orders them by
    (tile, cell), both row-major, then writes tile-at-a-time.  A cell added
    twice is refused, naming the later one."""

    def __init__(self, meta: ArrayMeta, pool: BufferPool, *, name: str = "",
                 spool_dir: str | None = None):
        self.arr = StoredArray(meta, pool, name=name, spool_dir=spool_dir)
        self._coords: list[np.ndarray] = []
        self._values: list[list[np.ndarray]] = []

    def add_cells(self, coords, values) -> None:
        """coords: (M, d) global coordinates; values: one column per attr."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, self.arr.meta.d)
        if len(coords) == 0:
            return
        size = np.array(self.arr.meta.size, dtype=np.int64)
        if coords.min() < 0 or (coords >= size).any():
            i = int(np.argmax((coords < 0).any(1) | (coords >= size).any(1)))
            raise BoundsError(f"coordinate {tuple(int(x) for x in coords[i])} outside array size {self.arr.meta.size}",
                              index=sum(map(len, self._coords)) + i)
        self._coords.append(coords)
        self._values.append([np.asarray(v, dt) for v, dt in
                             zip(values, self.arr.attr_dtypes)])

    def finish(self, *, choose_layout: bool = False) -> StoredArray:
        """The array of the added cells; with ``choose_layout`` in the
        layout whose tiles encode smaller (``smaller_layout``) for them."""
        arr, meta = self.arr, self.arr.meta
        if self._coords:
            coords = np.concatenate(self._coords)
            tq, tid, cell = _tile_cells(list(coords.T), meta)
            # by (tile, cell), ties as added: two stable sorts of narrow keys
            order = np.argsort(cell, kind="stable")
            order = order[np.argsort(tid[order], kind="stable")]
            tid, cell = tid[order], cell[order]
            same = tid[1:] == tid[:-1]
            if (dup := np.flatnonzero(same & (cell[1:] == cell[:-1]))).size:
                i = int(order[dup[0] + 1])
                raise DuplicateCellError(
                    f"duplicate cell {tuple(coords[i].tolist())} in tile "
                    f"{tuple(int(q[i]) for q in tq)}", index=i)
            cols = [np.concatenate(parts)[order] for parts in zip(*self._values)]
            bounds = [0, *(np.flatnonzero(~same) + 1).tolist(), len(tid)]
            if choose_layout:
                arr.meta = meta = replace(meta, layout=smaller_layout(
                    np.diff(bounds), meta.tile_size, arr.attr_dtypes))
            with arr.release_on_error():  # non-empty: add_cells skips empty batches
                for tc, lo, hi in zip(arr._coords(tid[bounds[:-1]]), bounds, bounds[1:]):
                    arr.write_tile(tc, _keyed_tile(meta.tile_size, arr.attr_dtypes,
                                                   meta.layout, cell[lo:hi],
                                                   [c[lo:hi] for c in cols]))
        self._coords, self._values = [], []
        return arr
