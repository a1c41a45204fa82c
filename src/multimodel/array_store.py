"""Tiled array storage.

Arrays are partitioned into fixed-size rectangular tiles. A tile holds an
``index`` and one ``values`` array per attribute. A dense tile's index is a
validity mask over the tile box and its values are box-shaped blocks, zero
where the mask is false. A sparse tile's index is the strictly increasing
row-major keys of its cells within the box, binary searched, and each value
column lines up with it. Sparse tiles have two byte encodings, which is all
that tells them apart: COO (cell coordinates) and CSR (2-D only: row pointers
+ column indices). Tiles are the unit of I/O: readers pin a tile
through the shared buffer pool, which makes it non-evictable until unpinned;
dirty tiles spill to disk on eviction. The record-array join reads through
``StoredArray.lookup_runs`` instead: pool-sized stages of tiles read with
coalesced preads and looked up a stage at once, never entering the pool.
``release()`` frees a whole array: its tiles leave the pool without being
spilled and its spill file is deleted.
Operators build tiles from blocks (``block_tile``) and read them as blocks
(``Tile.to_scratch``: a dense tile's own, as read-only views).

A ``StoredArray`` keeps per-tile state in columns indexed by row-major
linear tile id, O(grid) like the file's directory: the slot table (layout
tag; source: absent with no cells, the file loaded from, the spill file, or
mem, dirty in the pool only; offset; length), pin, read and active-pin
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

import numpy as np

from .buffer_pool import BufferObject, BufferPool
from .errors import (ArrayFileError, BoundsError, DuplicateCellError, EngineError,
                     InternalError, TypeMismatchError)
from .models import ArrayMeta, CellSchema, ValueType

__all__ = [
    "Tile",
    "StoredArray",
    "ArrayBuilder",
    "make_tile",
    "block_tile",
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


def _linearize(cc: np.ndarray, box: tuple[int, ...]) -> np.ndarray:
    """Row-major linear key of each coordinate row within the given box."""
    key = cc[:, 0].astype(np.uint64)
    for i in range(1, len(box)):
        key *= np.uint64(box[i])
        key += cc[:, i].astype(np.uint64)
    return key


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

    def lookup(self, cc: np.ndarray):
        """Batch probe: cc is (k, d). Returns (found bool array, value arrays);
        value entries where found is False are meaningless."""
        k = len(cc)
        if self.layout == "dense" and k:
            idx = tuple(cc.T)
            return self.index[idx], [v[idx] for v in self.values]
        if k == 0 or len(self.index) == 0:
            return (np.zeros(k, dtype=bool),
                    [np.zeros(k, dt) for dt in self.attr_dtypes])
        keys = _linearize(cc, self.ts)
        pos = np.minimum(np.searchsorted(self.index, keys), len(self.index) - 1)
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
    def from_bytes(buf: bytes, layout, ts, attr_dtypes) -> "Tile":
        if layout == "dense":
            shape = ts
            index = np.frombuffer(buf, "|b1", math.prod(ts)).reshape(ts).copy()
            off = index.nbytes
        else:
            (m,) = struct.unpack_from("<Q", buf)
            off = 8
            if layout == "coo":
                coords = np.frombuffer(buf, "<u8", m * len(ts), off).reshape(m, len(ts))
                off += coords.nbytes
                index = _linearize(coords, ts)
            else:
                indptr = np.frombuffer(buf, "<u8", ts[0] + 1, off)
                cols = np.frombuffer(buf, "<u8", m, off + indptr.nbytes)
                off += indptr.nbytes + cols.nbytes
                rows = np.repeat(np.arange(ts[0], dtype=np.uint64),
                                 np.diff(indptr).astype(np.int64))
                index = rows * np.uint64(ts[1]) + cols
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


def make_tile(tc, ts, valid, attr_dtypes, layout, cc, values) -> Tile:
    """Build a tile from cell coordinates (relative to the tile) and value
    columns. Rejects out-of-extent coordinates and duplicate cells."""
    cc = np.asarray(cc, dtype=np.int64).reshape(len(cc), len(ts))
    if len(cc):
        if cc.min() < 0 or (cc >= np.array(valid, dtype=np.int64)).any():
            raise BoundsError(
                f"cell coords outside valid extent {valid} of tile {tuple(tc)}"
            )
    if layout not in ("dense", "coo", "csr"):
        raise InternalError(f"unknown layout {layout!r}")
    if layout == "csr" and len(ts) != 2:
        raise InternalError("csr tiles are 2-D only")
    keys = _linearize(cc, ts)
    order = np.argsort(keys, kind="stable")  # row-major order == lexicographic
    keys = keys[order]
    cols = [np.asarray(v, dtype=dt)[order] for v, dt in zip(values, attr_dtypes)]
    dup = keys[1:] == keys[:-1]
    if dup.any():
        first = cc[order[1:][dup][0]]
        raise DuplicateCellError(f"duplicate cell {tuple(int(x) for x in first)} in tile {tuple(tc)}")
    if layout == "dense":
        return Tile(layout, ts, attr_dtypes, *_scatter(ts, attr_dtypes, keys, cols))
    return Tile(layout, ts, attr_dtypes, keys, cols)


def block_tile(tc, ts, valid, attr_dtypes, layout, mask, values) -> Tile:
    """Build a tile from a mask and value blocks of shape at most ts, anchored
    at the tile origin. Dense tiles copy them into fresh ts-shaped blocks,
    zero where the mask is false; coo/csr tiles take the set cells."""
    if layout != "dense":
        cc = np.argwhere(mask)
        return make_tile(tc, ts, valid, attr_dtypes, layout, cc,
                         [v[tuple(cc.T)] for v in values])
    if np.count_nonzero(mask[tuple(slice(0, v) for v in valid)]) != np.count_nonzero(mask):
        raise BoundsError(f"cells outside valid extent {valid} of tile {tuple(tc)}")
    box = tuple(slice(0, n) for n in mask.shape)
    index = np.zeros(ts, dtype=bool)
    index[box] = mask
    blocks = [np.zeros(ts, dt) for dt in attr_dtypes]
    for out, v in zip(blocks, values):
        np.copyto(out[box], v, where=mask)
    return Tile(layout, ts, attr_dtypes, index, blocks)


# ---------------------------------------------------------------------------

_LAYOUTS = ("absent", "dense", "coo", "csr")  # index: the on-disk layout tag
_DENSE = 1
_ABSENT, _FILE, _SPILL, _MEM = range(4)  # slot sources: see the docstring
_SLOT = np.dtype([("tag", "u1"), ("src", "u1"), ("offset", "<i8"), ("length", "<i8")])
_READ = np.dtype((np.record, [("tile", "<i8"), ("slot", _SLOT)]))  # a stage's reads

_uid_counter = itertools.count(1)


class _TileCounts(Mapping):
    """Read-only {tile coords: count} view of a per-tile counter column or
    list of a StoredArray, listing the tiles whose entry is not `unlisted`."""

    def __init__(self, arr: "StoredArray", col, unlisted=0):
        self._arr, self._col, self._unlisted = arr, col, unlisted

    def __getitem__(self, tc) -> int:
        try:
            n = self._col[self._arr._tile_id(tc)]
        except BoundsError:
            raise KeyError(tc) from None
        if n == self._unlisted:
            raise KeyError(tc)
        return int(n)

    def __iter__(self):
        listed = np.flatnonzero(np.not_equal(self._col, self._unlisted))
        return iter(self._arr._coords(listed))

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
        self._active: list[int | None] = [None] * n  # None: never pinned
        self.pin_counts = _TileCounts(self, self._pins)
        self.disk_reads = _TileCounts(self, self._reads)
        self.active_pins = _TileCounts(self, self._active, None)
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
            tile = make_tile(tc, self.meta.tile_size, self.valid_extent(tc),
                             self.attr_dtypes, self.meta.layout, [],
                             [[] for _ in self.attr_dtypes])
        elif (obj := self.pool.get(self._key(i))) is not None:
            tile = obj.payload
        else:
            if src == _MEM:
                raise InternalError(f"in-memory tile {self._coords([i])[0]} "
                                    "lost without a spill")
            tile = self._read_tile(i)
            self._reads[i] += 1
            self._register(i, tile)
        self._active[i] = (self._active[i] or 0) + 1
        return tile

    def unpin(self, tc) -> None:
        i = self._tile_id(tc)
        n = self._active[i]
        if not n:
            raise InternalError(f"unpin without pin for tile {self._coords([i])[0]}")
        self._active[i] = n - 1

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

    def _read_tile(self, i: int) -> Tile:
        # one exact-length read: a buffered file would read a whole block
        path = self._path if self._src[i] == _FILE else self._spill_path
        offset, length = int(self._offset[i]), int(self._length[i])
        fd = os.open(path, os.O_RDONLY)
        try:
            buf = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        if len(buf) != length:
            raise InternalError(f"short read of tile {self._coords([i])[0]} "
                                f"from {path}: {len(buf)} of {length} bytes")
        return Tile.from_bytes(buf, _LAYOUTS[self._tag[i]],
                               self.meta.tile_size, self.attr_dtypes)

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
        held_ids = uniq[held].tolist()
        resident = dict(zip(np.flatnonzero(held).tolist(), (
            self.pool.get(self._key(t)).payload for t in held_ids)))
        for t in held_ids:
            self._active[t] = (self._active[t] or 0) + 1
        try:
            for r in np.flatnonzero(held[inv]).tolist():
                lo, hi = starts[r], starts[r + 1]
                cc = np.column_stack(np.unravel_index(cells[lo:hi],
                                                      self.meta.tile_size))
                found[lo:hi], vals = resident[inv[r]].lookup(cc)
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
            for t in held_ids:
                self._active[t] -= 1
        return found, values

    def _lookup_stage(self, reads, run_rank, run_lengths, cells, found, values,
                      fds, stats) -> None:
        """One stage of ``lookup_runs``: read the tiles of `reads` (``_READ``
        records) into one buffer in that order (dense ones first), then look
        up the records of the runs whose `run_rank`, the rank of their tile
        in `reads`, is not -1.  The dense tiles are looked up as one dense
        tile viewing the buffer, over the box (tiles, cells of a tile), the
        sparse ones decoded into one sparse tile over the same box.  Writes
        into `found` and `values`."""
        buf, at = self._read_stage(reads, fds, stats)
        rec_rank = np.repeat(run_rank, run_lengths)
        def look(block: Tile, first: int) -> None:  # every record on a block tile?
            m = (slice(None) if block.ts[0] == len(reads) and run_rank.min() >= 0
                 else (rec_rank >= first) & (rec_rank < first + block.ts[0]))
            found[m], vals = block.lookup(
                np.column_stack((rec_rank[m] - first, cells[m])))
            for out, v in zip(values, vals):
                out[m] = v
        ts, dtypes = self.meta.tile_size, self.attr_dtypes
        ncell = math.prod(ts)
        tags = reads["slot"]["tag"].tolist()
        n_dense = tags.count(_DENSE)
        if n_dense:  # each dense tile's bytes: its mask, then each value block
            width = ncell * (1 + sum(dt.itemsize for dt in dtypes))
            block = buf[:n_dense * width].reshape(n_dense, width)
            cols, off = [], ncell
            for dt in dtypes:
                cols.append(block[:, off:off + ncell * dt.itemsize].view(dt))
                off += ncell * dt.itemsize
            look(Tile("dense", (n_dense, ncell), dtypes,
                      block[:, :ncell].view(bool), cols), 0)
        if n_dense < len(reads):
            view = memoryview(buf)
            sparse = [Tile.from_bytes(view[at[k]:at[k + 1]], _LAYOUTS[tag],
                                      ts, dtypes)
                      for k, tag in enumerate(tags) if k >= n_dense]
            keys = np.concatenate([t.index + np.uint64(j * ncell)
                                   for j, t in enumerate(sparse)])
            cols = [np.concatenate(c) for c in zip(*(t.values for t in sparse))]
            look(Tile("coo", (len(sparse), ncell), dtypes, keys, cols), n_dense)

    def _read_stage(self, reads, fds, stats):
        """Read the slots of `reads` (``_READ`` records: tile id, slot) into
        one buffer, in the given order: each run of slots adjacent in one
        file takes one pread (more only if the kernel returns short), over
        one fd per file kept in `fds`.  Returns the buffer and each slot's
        start in it (plus the end)."""
        src, offset, length = (reads["slot"][f] for f in ("src", "offset", "length"))
        at = list(itertools.accumulate(length.tolist(), initial=0))
        buf = np.empty(at[-1], dtype=np.uint8)
        view = memoryview(buf)
        cut = (np.flatnonzero((src[1:] != src[:-1]) | (offset[1:] != offset[:-1]
                                                       + length[:-1])) + 1
               ).tolist() if len(reads) > 1 else []  # one slot: one run
        edges = [0, *cut, len(reads)]
        for i, j in zip(edges[:-1], edges[1:]):
            path = self._path if src[i] == _FILE else self._spill_path
            if path not in fds:
                fds[path] = os.open(path, os.O_RDONLY)
            lo, hi, pos = at[i], at[j], int(offset[i])
            while lo < hi:
                got = os.preadv(fds[path], [view[lo:hi]], pos)
                stats.preads += 1
                if got == 0:
                    k = bisect.bisect_right(at, lo) - 1
                    tc = self._coords(reads["tile"][k:k + 1])[0]
                    raise InternalError(f"short read of tile {tc} from {path}: "
                                        f"{lo - at[k]} of {length[k]} bytes")
                lo += got
                pos += got
        self._reads[reads["tile"]] += 1
        stats.bytes_read += at[-1]
        return buf, at

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
    """Builds a StoredArray from cells in arbitrary order: groups cells by
    tile, then writes tile-at-a-time in row-major order."""

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
            bad = coords[(coords < 0).any(1) | (coords >= size).any(1)][0]
            raise BoundsError(f"coordinate {tuple(int(x) for x in bad)} outside array size {self.arr.meta.size}")
        self._coords.append(coords)
        self._values.append([np.asarray(v, dt) for v, dt in
                             zip(values, self.arr.attr_dtypes)])

    def finish(self) -> StoredArray:
        arr = self.arr
        if self._coords:
            coords = np.concatenate(self._coords)
            ts = np.array(arr.meta.tile_size, dtype=np.int64)
            tid = np.ravel_multi_index((coords // ts).T, arr._grid)
            order = np.argsort(tid, kind="stable")  # tiles in row-major order
            coords, tid = coords[order], tid[order]
            cols = [np.concatenate(parts)[order] for parts in zip(*self._values)]
            bounds = np.flatnonzero(np.diff(tid, prepend=-1, append=-1)).tolist()
            with arr.release_on_error():  # non-empty: add_cells skips empty batches
                for tc, lo, hi in zip(arr._coords(tid[bounds[:-1]]), bounds, bounds[1:]):
                    arr.write_tile(tc, make_tile(
                        tc, arr.meta.tile_size, arr.valid_extent(tc), arr.attr_dtypes,
                        arr.meta.layout, coords[lo:hi] - ts * tc,
                        [c[lo:hi] for c in cols]))
        self._coords, self._values = [], []
        return arr
