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
from dataclasses import dataclass

import numpy as np

from .buffer_pool import BufferObject, BufferPool
from .errors import BoundsError, DuplicateCellError, InternalError, TypeMismatchError
from .models import ArrayMeta, CellSchema, ValueType

__all__ = [
    "Tile",
    "StoredArray",
    "ArrayBuilder",
    "make_tile",
    "block_tile",
    "array_to_coo_csv",
    "array_from_coo_csv",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"M2AR"
FORMAT_VERSION = 1

_LAYOUT_TAGS = {"absent": 0, "dense": 1, "coo": 2, "csr": 3}
_TAG_LAYOUTS = {v: k for k, v in _LAYOUT_TAGS.items()}

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

    def __init__(self, tc, layout, ts, attr_dtypes, index, values):
        self.tc = tuple(int(x) for x in tc)
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
    def from_bytes(buf: bytes, tc, layout, ts, attr_dtypes) -> "Tile":
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
        return Tile(tc, layout, ts, attr_dtypes, index, values)


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
        return Tile(tc, layout, ts, attr_dtypes, *_scatter(ts, attr_dtypes, keys, cols))
    return Tile(tc, layout, ts, attr_dtypes, keys, cols)


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
    return Tile(tc, layout, ts, attr_dtypes, index, blocks)


# ---------------------------------------------------------------------------


@dataclass
class _Slot:
    """Where the newest bytes of one tile live."""

    layout: str
    source: str  # file | spill | mem
    path: str | None = None
    offset: int = 0
    length: int = 0
    dirty: bool = False


_uid_counter = itertools.count(1)


class StoredArray:
    """A tiled array whose tiles are cached in the shared buffer pool.

    pin()/unpin() (or the ``pinned`` context) are the only read path; per-tile
    pin and disk-read counters are kept for tests and for the benchmark
    harness.
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
        self._slots: dict[tuple, _Slot] = {}
        self.pin_counts: dict[tuple, int] = {}
        self.disk_reads: dict[tuple, int] = {}
        self.active_pins: dict[tuple, int] = {}
        self._spill_path: str | None = None

    # -- geometry ---------------------------------------------------------

    def _check_tc(self, tc):
        grid = self._grid
        if len(tc) != len(grid) or any(c < 0 or c >= g for c, g in zip(tc, grid)):
            raise BoundsError(f"tile coord {tuple(tc)} outside grid {grid}")

    def valid_extent(self, tc) -> tuple[int, ...]:
        return tuple(
            min(t, s - c * t)
            for c, s, t in zip(tc, self.meta.size, self.meta.tile_size)
        )

    def tile_coords(self) -> list[tuple]:
        """Coordinates of stored (non-empty) tiles in row-major order."""
        return sorted(self._slots.keys())

    def _key(self, tc):
        return ("tile", self.uid, tc)

    # -- pin / unpin --------------------------------------------------------

    def pin(self, tc) -> Tile:
        tc = tuple(int(x) for x in tc)
        self._check_tc(tc)
        self.pin_counts[tc] = self.pin_counts.get(tc, 0) + 1
        slot = self._slots.get(tc)
        if slot is None:
            # absent tile == tile with zero cells; nothing read, nothing cached
            tile = make_tile(tc, self.meta.tile_size, self.valid_extent(tc),
                             self.attr_dtypes, self.meta.layout, [],
                             [[] for _ in self.attr_dtypes])
            self.active_pins[tc] = self.active_pins.get(tc, 0) + 1
            return tile
        obj = self.pool.get(self._key(tc))
        if obj is not None:
            tile = obj.payload
        else:
            if slot.source == "mem":
                raise InternalError(f"in-memory tile {tc} lost without a spill")
            tile = self._read_slot(tc, slot)
            self.disk_reads[tc] = self.disk_reads.get(tc, 0) + 1
            self._register(tc, tile, slot)
        self.active_pins[tc] = self.active_pins.get(tc, 0) + 1
        return tile

    def unpin(self, tc) -> None:
        tc = tuple(int(x) for x in tc)
        n = self.active_pins.get(tc, 0)
        if n <= 0:
            raise InternalError(f"unpin without pin for tile {tc}")
        self.active_pins[tc] = n - 1

    @contextlib.contextmanager
    def pinned(self, tc):
        """pin(tc) for the body of a ``with``; unpinned however it ends."""
        tile = self.pin(tc)
        try:
            yield tile
        finally:
            self.unpin(tc)

    def _register(self, tc, tile: Tile, slot: _Slot) -> None:
        def evictable() -> bool:
            return self.active_pins.get(tc, 0) == 0

        def on_evict() -> None:
            if slot.dirty:
                self._spill(tile, slot)

        self.pool.add(BufferObject(
            id=self._key(tc), size=tile.nbytes, payload=tile,
            is_evictable=evictable, do_eviction=on_evict,
        ))

    def _read_slot(self, tc, slot: _Slot) -> Tile:
        # one exact-length read: a buffered file would read a whole block
        fd = os.open(slot.path, os.O_RDONLY)
        try:
            buf = os.pread(fd, slot.length, slot.offset)
        finally:
            os.close(fd)
        if len(buf) != slot.length:
            raise InternalError(f"short read of tile {tc} from {slot.path}: "
                                f"{len(buf)} of {slot.length} bytes")
        return Tile.from_bytes(buf, tc, slot.layout, self.meta.tile_size,
                               self.attr_dtypes)

    def _spill(self, tile: Tile, slot: _Slot) -> None:
        if self._spill_path is None:
            base = self.spool_dir or "."
            os.makedirs(base, exist_ok=True)
            self._spill_path = os.path.join(base, f"{self.name}-{self.uid}.spill")
        buf = tile.to_bytes()
        with open(self._spill_path, "ab") as f:
            slot.offset = f.tell()
            f.write(buf)
        slot.path = self._spill_path
        slot.length = len(buf)
        slot.source = "spill"
        slot.dirty = False

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
        least one run per stage.  Resident tiles are used in place, pinned
        for the whole call.  A stage's other tiles are read into one
        buffer (``_read_stage``) and never registered in the pool, so the
        scan evicts nothing; its dense tiles are looked up as one dense
        tile over the box (tiles, cells), its sparse ones as one sparse
        tile over the same box.  ``stats`` (a ``JoinStats``) gains the
        stages, preads and bytes read.
        """
        n = int(run_lengths.sum())
        found = np.zeros(n, dtype=bool)
        values = [np.zeros(n, dt) for dt in self.attr_dtypes]
        if n == 0:
            return found, values
        uniq, inv, runs_per_tile = np.unique(run_tiles, return_inverse=True,
                                             return_counts=True)
        tcs = [tuple(t) for t in
               np.transpose(np.unravel_index(uniq, self._grid)).tolist()]
        slots = [self._slots.get(tc) for tc in tcs]
        for tc, k in zip(tcs, runs_per_tile.tolist()):
            self.pin_counts[tc] = self.pin_counts.get(tc, 0) + k
        resident: dict[int, Tile] = {}
        size = np.zeros(len(uniq), dtype=np.int64)  # decoded bytes, at most
        for u, (tc, slot) in enumerate(zip(tcs, slots)):
            if slot is None:
                continue  # absent: a tile with zero cells, nothing to read
            obj = self.pool.get(self._key(tc))
            if obj is not None:
                resident[u] = obj.payload
            elif slot.source == "mem":
                raise InternalError(f"in-memory tile {tc} lost without a spill")
            else:
                size[u] = 64 + slot.length
        bounds, prev = _stage_bounds(inv, size, self.pool.capacity
                                     - self.pool.stats().resident_bytes)
        starts = np.concatenate(([0], np.cumsum(run_lengths)))
        pos = np.empty(len(uniq), dtype=np.int64)  # stage position per tile
        fds: dict[str, int] = {}
        for u in resident:
            self.active_pins[tcs[u]] = self.active_pins.get(tcs[u], 0) + 1
        try:
            for s, e in zip(bounds[:-1], bounds[1:]):
                lo, hi = starts[s], starts[e]
                stage = inv[s:e][prev[s:e] < s]  # first runs on each tile
                pos[stage] = np.arange(len(stage))
                self._lookup_stage(
                    [(tcs[u], slots[u], resident.get(u)) for u in stage.tolist()],
                    pos[inv[s:e]], run_lengths[s:e], cells[lo:hi],
                    found[lo:hi], [v[lo:hi] for v in values], fds, stats)
            stats.stages += len(bounds) - 1
        finally:
            for fd in fds.values():
                os.close(fd)
            for u in resident:
                self.active_pins[tcs[u]] -= 1
        return found, values

    def _lookup_stage(self, tiles, run_pos, run_lengths, cells, found,
                      values, fds, stats) -> None:
        """One stage of ``lookup_runs``: `tiles` holds (tc, slot or None,
        resident tile or None) per stage position, `run_pos` each run's
        stage position and `run_lengths` its records.  Writes into `found`
        and `values`."""
        reads = [p for p, (_, slot, tile) in enumerate(tiles)
                 if slot is not None and tile is None]
        reads.sort(key=lambda p: (tiles[p][1].layout != "dense",
                                  tiles[p][1].path, tiles[p][1].offset))
        if reads:
            buf, at = self._read_stage([tiles[p][:2] for p in reads], fds,
                                       stats)
            rank = np.full(len(tiles), -1, dtype=np.int64)
            rank[reads] = np.arange(len(reads))
            rec_rank = np.repeat(rank[run_pos], run_lengths)
            for block, first in self._stage_blocks([tiles[p] for p in reads],
                                                   buf, at):
                last = first + block.ts[0]
                m = (slice(None) if last - first == len(tiles)
                     else (rec_rank >= first) & (rec_rank < last))
                found[m], vals = block.lookup(
                    np.column_stack((rec_rank[m] - first, cells[m])))
                for out, v in zip(values, vals):
                    out[m] = v
        if len(reads) < len(tiles):  # resident or absent tiles
            held = np.array([tile is not None for _, _, tile in tiles])
            starts = np.concatenate(([0], np.cumsum(run_lengths)))
            for r in np.flatnonzero(held[run_pos]).tolist():
                lo, hi = starts[r], starts[r + 1]
                cc = np.column_stack(np.unravel_index(cells[lo:hi],
                                                      self.meta.tile_size))
                found[lo:hi], vals = tiles[run_pos[r]][2].lookup(cc)
                for out, v in zip(values, vals):
                    out[lo:hi] = v

    def _stage_blocks(self, reads, buf, at):
        """The tiles read into `buf` (dense ones first) as at most two
        tiles over the box (tiles, cells of a tile), each with the rank of
        its first tile: the dense ones as one dense tile viewing the buffer,
        the sparse ones decoded into one sparse tile whose keys are offset
        by each tile's rank among them."""
        ts, dtypes = self.meta.tile_size, self.attr_dtypes
        ncell = math.prod(ts)
        n_dense = sum(slot.layout == "dense" for _, slot, _ in reads)
        blocks = []
        if n_dense:
            width = ncell * (1 + sum(dt.itemsize for dt in dtypes))
            for tc, slot, _ in reads[:n_dense]:
                if slot.length != width:
                    raise InternalError(
                        f"dense tile {tc} has a {slot.length}-byte slot, "
                        f"expected {width}")
            block = buf[:n_dense * width].reshape(n_dense, width)
            cols, off = [], ncell
            for dt in dtypes:
                cols.append(block[:, off:off + ncell * dt.itemsize].view(dt))
                off += ncell * dt.itemsize
            blocks.append((Tile((), "dense", (n_dense, ncell), dtypes,
                                block[:, :ncell].view(bool), cols), 0))
        if n_dense < len(reads):
            view = memoryview(buf)
            sparse = [Tile.from_bytes(view[at[k]:at[k + 1]], tc, slot.layout,
                                      ts, dtypes)
                      for k, (tc, slot, _) in enumerate(reads) if k >= n_dense]
            keys = np.concatenate([t.index + np.uint64(j * ncell)
                                   for j, t in enumerate(sparse)])
            cols = [np.concatenate(c) for c in zip(*(t.values for t in sparse))]
            blocks.append((Tile((), "coo", (len(sparse), ncell), dtypes,
                                keys, cols), n_dense))
        return blocks

    def _read_stage(self, reads, fds, stats):
        """Read the slots of `reads` [(tc, slot)] into one buffer, in the
        given order: each run of slots adjacent in one file takes one pread
        (more only if the kernel returns short), over one fd per file kept
        in `fds`.  Returns the buffer and each slot's start in it (plus the
        end)."""
        at = list(itertools.accumulate((slot.length for _, slot in reads),
                                       initial=0))
        buf = np.empty(at[-1], dtype=np.uint8)
        view = memoryview(buf)
        i = 0
        while i < len(reads):
            path, offset = reads[i][1].path, reads[i][1].offset
            j = i + 1
            while (j < len(reads) and reads[j][1].path == path and
                   reads[j][1].offset == offset + at[j] - at[i]):
                j += 1
            if path not in fds:
                fds[path] = os.open(path, os.O_RDONLY)
            lo, hi = at[i], at[j]
            while lo < hi:
                got = os.preadv(fds[path], [view[lo:hi]], offset)
                stats.preads += 1
                if got == 0:
                    k = bisect.bisect_right(at, lo) - 1
                    tc, slot = reads[k]
                    raise InternalError(
                        f"short read of tile {tc} from {path}: "
                        f"{lo - at[k]} of {slot.length} bytes")
                lo += got
                offset += got
            i = j
        for tc, _ in reads:
            self.disk_reads[tc] = self.disk_reads.get(tc, 0) + 1
        stats.bytes_read += at[-1]
        return buf, at

    # -- writing -------------------------------------------------------------

    def write_tile(self, tc, tile: Tile) -> None:
        """Install a freshly built tile (replaces any previous content)."""
        tc = tuple(int(x) for x in tc)
        self._check_tc(tc)
        if tile.cell_count() == 0:
            self._slots.pop(tc, None)
            self.pool.drop(self._key(tc))
            return
        self.pool.drop(self._key(tc))
        slot = _Slot(layout=tile.layout, source="mem", dirty=True)
        self._slots[tc] = slot
        self._register(tc, tile, slot)

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
        total = 0
        for tc in self.tile_coords():
            with self.pinned(tc) as tile:
                total += tile.cell_count()
        return total

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
        meta = self.meta
        grid = meta.grid
        all_tcs = list(itertools.product(*[range(g) for g in grid]))
        desc = json.dumps(self.descriptor(), separators=(",", ":")).encode()
        blocks: list[bytes] = []
        tags = bytearray(len(all_tcs))
        directory = []
        header_len = (
            4 + 4 + 4 + 8 * meta.d * 2 + 4 + len(desc) + len(all_tcs) + 16 * len(all_tcs)
        )
        pos = header_len
        for i, tc in enumerate(all_tcs):
            if tc not in self._slots:
                directory.append((0, 0))
                continue
            with self.pinned(tc) as tile:
                buf = tile.to_bytes()
            tags[i] = _LAYOUT_TAGS[tile.layout]
            directory.append((pos, len(buf)))
            blocks.append(buf)
            pos += len(buf)
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, meta.d))
            f.write(struct.pack(f"<{meta.d}Q", *meta.size))
            f.write(struct.pack(f"<{meta.d}Q", *meta.tile_size))
            f.write(struct.pack("<I", len(desc)))
            f.write(desc)
            f.write(bytes(tags))
            for off, ln in directory:
                f.write(struct.pack("<QQ", off, ln))
            for buf in blocks:
                f.write(buf)

    @classmethod
    def load(cls, path: str, pool: BufferPool, *, name: str = "",
             spool_dir: str | None = None) -> "StoredArray":
        with open(path, "rb") as f:
            head = f.read(12)
            if head[:4] != MAGIC:
                raise ValueError(f"{path}: not an array file (bad magic)")
            version, d = struct.unpack("<II", head[4:])
            if version != FORMAT_VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            size = struct.unpack(f"<{d}Q", f.read(8 * d))
            ts = struct.unpack(f"<{d}Q", f.read(8 * d))
            (desc_len,) = struct.unpack("<I", f.read(4))
            desc = json.loads(f.read(desc_len))
            grid = tuple(-(-s // t) for s, t in zip(size, ts))
            ntiles = int(np.prod(grid)) if grid else 0
            tags = f.read(ntiles)
            directory = [struct.unpack("<QQ", f.read(16)) for _ in range(ntiles)]
        schema = CellSchema(
            dim_names=tuple(desc["dims"]),
            attr_names=tuple(n for n, _ in desc["attrs"]),
            attr_types=tuple(ValueType.parse(t) for _, t in desc["attrs"]),
        )
        meta = ArrayMeta(schema, tuple(int(s) for s in size),
                         tuple(int(t) for t in ts),
                         layout=desc.get("layout", "dense"),
                         seed=desc.get("seed"))
        arr = cls(meta, pool, name=name or os.path.basename(path), spool_dir=spool_dir)
        all_tcs = itertools.product(*[range(g) for g in grid])
        for i, tc in enumerate(all_tcs):
            off, ln = directory[i]
            if ln == 0:
                continue
            arr._slots[tc] = _Slot(layout=_TAG_LAYOUTS[tags[i]], source="file",
                                   path=path, offset=off, length=ln)
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
        for tc in self._slots:
            self.pool.drop(self._key(tc))
        self._slots.clear()
        if self._spill_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._spill_path)
            self._spill_path = None

    def reset_io_stats(self) -> None:
        self.pin_counts.clear()
        self.disk_reads.clear()

    @property
    def total_pins(self) -> int:
        return sum(self.pin_counts.values())

    @property
    def total_reads(self) -> int:
        return sum(self.disk_reads.values())


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
            raise BoundsError(f"coordinate {tuple(int(x) for x in bad)} outside array size {tuple(size)}")
        self._coords.append(coords)
        self._values.append([np.asarray(v, dt) for v, dt in
                             zip(values, self.arr.attr_dtypes)])

    def finish(self) -> StoredArray:
        if self._coords:
            coords = np.concatenate(self._coords)
            cols = [np.concatenate(parts) for parts in zip(*self._values)]
            ts = np.array(self.arr.meta.tile_size, dtype=np.int64)
            tcs = coords // ts
            order = np.lexsort(tcs.T[::-1])
            coords, tcs = coords[order], tcs[order]
            cols = [c[order] for c in cols]
            with self.arr.release_on_error():  # non-empty: add_cells skips empty batches
                change = np.flatnonzero((tcs[1:] != tcs[:-1]).any(axis=1)) + 1
                bounds = np.concatenate(([0], change, [len(coords)]))
                for i in range(len(bounds) - 1):
                    lo, hi = int(bounds[i]), int(bounds[i + 1])
                    tc = tuple(int(x) for x in tcs[lo])
                    cc = coords[lo:hi] - tcs[lo] * ts
                    tile = make_tile(tc, self.arr.meta.tile_size,
                                     self.arr.valid_extent(tc), self.arr.attr_dtypes,
                                     self.arr.meta.layout, cc,
                                     [c[lo:hi] for c in cols])
                    self.arr.write_tile(tc, tile)
        self._coords = []
        self._values = []
        return self.arr


# -- COO CSV text format ------------------------------------------------------

def array_to_coo_csv(arr: StoredArray) -> str:
    import csv as _csv
    import io as _io

    sch = arr.meta.schema
    buf = _io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(list(sch.dim_names) + list(sch.attr_names))
    for coords, vals in arr.iter_cells():
        for i in range(len(coords)):
            row = [int(c) for c in coords[i]]
            row += [v[i].item() for v in vals]
            w.writerow(row)
    return buf.getvalue()


def array_from_coo_csv(text: str, meta: ArrayMeta, pool: BufferPool, *,
                       name: str = "", spool_dir: str | None = None) -> StoredArray:
    import csv as _csv
    import io as _io

    rows = list(_csv.reader(_io.StringIO(text)))
    if not rows:
        raise ValueError("COO CSV needs a header row")
    header, body = rows[0], rows[1:]
    sch = meta.schema
    expect = list(sch.dim_names) + list(sch.attr_names)
    if header != expect:
        raise ValueError(f"COO CSV header {header} does not match schema {expect}")
    d = sch.d
    builder = ArrayBuilder(meta, pool, name=name, spool_dir=spool_dir)
    if body:
        coords = np.array([[int(x) for x in r[:d]] for r in body], dtype=np.int64)
        cols = []
        for j, vt in enumerate(sch.attr_types):
            py = [float(r[d + j]) if vt.kind == "float" else int(r[d + j]) for r in body]
            cols.append(np.asarray(py, dtype=dtype_for(vt)))
        builder.add_cells(coords, cols)
    return builder.finish()
