"""Tiled array storage.

Arrays are partitioned into fixed-size rectangular tiles, each stored in one
of three layouts: dense (positional values plus a validity mask, coordinates
implicit), sorted-COO (cell coordinates sorted lexicographically, binary
searched), or CSR (2-D only: row pointers + column indices). Tiles are the
unit of I/O: readers pin a tile through the shared buffer pool, which makes it
non-evictable until unpinned; dirty tiles spill to disk on eviction.
``release()`` frees a whole array: its tiles leave the pool without being
spilled and its spill file is deleted.

On-disk format (one file per array, little-endian):
magic "M2AR" | u32 version=1 | u32 d | u64 size[d] | u64 tile_size[d]
| u32 desc_len | desc JSON | u8 layout_tag per tile (row-major)
| (u64 offset, u64 length) per tile | tile blocks.
"""

from __future__ import annotations

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


def _lex_order(cc: np.ndarray) -> np.ndarray:
    """Stable permutation sorting coordinate rows lexicographically."""
    if len(cc) == 0:
        return np.empty(0, dtype=np.int64)
    return np.lexsort(tuple(cc[:, i] for i in range(cc.shape[1] - 1, -1, -1)))


def _linearize(cc: np.ndarray, box: tuple[int, ...]) -> np.ndarray:
    """Row-major linear key of each coordinate row within the given box."""
    key = np.zeros(len(cc), dtype=np.uint64)
    for i, extent in enumerate(box):
        key = key * np.uint64(extent) + cc[:, i].astype(np.uint64)
    return key


class Tile:
    """One tile of an array. Payload depends on layout; see module docstring."""

    def __init__(self, tc, layout, ts, attr_dtypes):
        self.tc = tuple(int(x) for x in tc)
        self.layout = layout
        self.ts = tuple(ts)
        self.attr_dtypes = list(attr_dtypes)
        # dense
        self.mask = None
        self.dense_values: list[np.ndarray] | None = None
        # coo
        self.coords = None
        self.keys = None
        self.coo_values: list[np.ndarray] | None = None
        # csr
        self.indptr = None
        self.cols = None
        self.csr_values: list[np.ndarray] | None = None
        self._csr_keys = None

    # -- introspection ----------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.ts)

    def cell_count(self) -> int:
        if self.layout == "dense":
            return int(self.mask.sum())
        if self.layout == "coo":
            return len(self.keys)
        return len(self.cols)

    @property
    def nbytes(self) -> int:
        total = 64
        for a in self._arrays():
            total += a.nbytes
        return total

    def _arrays(self):
        if self.layout == "dense":
            return [self.mask, *self.dense_values]
        if self.layout == "coo":
            return [self.coords, *self.coo_values]
        return [self.indptr, self.cols, *self.csr_values]

    # -- batch access -----------------------------------------------------

    def lookup(self, cc: np.ndarray):
        """Batch probe: cc is (k, d). Returns (found bool array, value arrays);
        value entries where found is False are meaningless."""
        k = len(cc)
        if k == 0:
            return (np.zeros(0, dtype=bool),
                    [np.zeros(0, dt) for dt in self.attr_dtypes])
        if self.layout == "dense":
            idx = tuple(cc[:, i] for i in range(self.d))
            found = self.mask[idx]
            return found, [v[idx] for v in self.dense_values]
        if self.layout == "coo":
            keys, table, values = _linearize(cc, self.ts), self.keys, self.coo_values
        else:
            if self._csr_keys is None:
                rows = np.repeat(
                    np.arange(self.ts[0], dtype=np.uint64),
                    np.diff(self.indptr).astype(np.int64),
                )
                self._csr_keys = rows * np.uint64(self.ts[1]) + self.cols.astype(np.uint64)
            keys, table, values = _linearize(cc, self.ts), self._csr_keys, self.csr_values
        if len(table) == 0:
            return (np.zeros(k, dtype=bool),
                    [np.zeros(k, dt) for dt in self.attr_dtypes])
        pos = np.searchsorted(table, keys)
        inside = pos < len(table)
        pos_c = np.where(inside, pos, 0)
        found = inside & (table[pos_c] == keys)
        return found, [v[pos_c] for v in values]

    def cells(self):
        """All cells as (coords (M,d) ascending lexicographic, value arrays)."""
        if self.layout == "dense":
            cc = np.argwhere(self.mask)  # C-order scan == lexicographic
            idx = tuple(cc[:, i] for i in range(self.d))
            return cc.astype(np.uint64), [v[idx] for v in self.dense_values]
        if self.layout == "coo":
            return self.coords, self.coo_values
        rows = np.repeat(np.arange(self.ts[0], dtype=np.uint64),
                         np.diff(self.indptr).astype(np.int64))
        cc = np.stack([rows, self.cols.astype(np.uint64)], axis=1)
        return cc, self.csr_values

    def to_scratch(self):
        """Dense scratch copy: (mask over full ts, zero-filled value arrays)."""
        mask = np.zeros(self.ts, dtype=bool)
        values = [np.zeros(self.ts, dt) for dt in self.attr_dtypes]
        cc, vals = self.cells()
        idx = tuple(cc[:, i].astype(np.int64) for i in range(self.d))
        mask[idx] = True
        for out, col in zip(values, vals):
            out[idx] = col
        return mask, values

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = []
        if self.layout == "dense":
            parts.append(self.mask.astype("|b1").tobytes())
            for v in self.dense_values:
                parts.append(np.ascontiguousarray(v).tobytes())
        elif self.layout == "coo":
            parts.append(struct.pack("<Q", len(self.keys)))
            parts.append(np.ascontiguousarray(self.coords.astype("<u8")).tobytes())
            for v in self.coo_values:
                parts.append(np.ascontiguousarray(v).tobytes())
        else:
            parts.append(struct.pack("<Q", len(self.cols)))
            parts.append(np.ascontiguousarray(self.indptr.astype("<u8")).tobytes())
            parts.append(np.ascontiguousarray(self.cols.astype("<u8")).tobytes())
            for v in self.csr_values:
                parts.append(np.ascontiguousarray(v).tobytes())
        return b"".join(parts)

    @staticmethod
    def from_bytes(buf: bytes, tc, layout, ts, attr_dtypes) -> "Tile":
        t = Tile(tc, layout, ts, attr_dtypes)
        n_box = math.prod(ts)
        off = 0
        if layout == "dense":
            t.mask = np.frombuffer(buf, "|b1", n_box, off).reshape(ts).copy()
            off += n_box
            t.dense_values = []
            for dt in attr_dtypes:
                t.dense_values.append(
                    np.frombuffer(buf, dt, n_box, off).reshape(ts).copy()
                )
                off += n_box * dt.itemsize
        elif layout == "coo":
            (m,) = struct.unpack_from("<Q", buf, off)
            off += 8
            d = len(ts)
            t.coords = np.frombuffer(buf, "<u8", m * d, off).reshape(m, d).copy()
            off += m * d * 8
            t.coo_values = []
            for dt in attr_dtypes:
                t.coo_values.append(np.frombuffer(buf, dt, m, off).copy())
                off += m * dt.itemsize
            t.keys = _linearize(t.coords, ts)
        else:
            (m,) = struct.unpack_from("<Q", buf, off)
            off += 8
            t.indptr = np.frombuffer(buf, "<u8", ts[0] + 1, off).copy()
            off += (ts[0] + 1) * 8
            t.cols = np.frombuffer(buf, "<u8", m, off).copy()
            off += m * 8
            t.csr_values = []
            for dt in attr_dtypes:
                t.csr_values.append(np.frombuffer(buf, dt, m, off).copy())
                off += m * dt.itemsize
        return t


def make_tile(tc, ts, valid, attr_dtypes, layout, cc, values, *, sort=True) -> Tile:
    """Build a tile from cell coordinates (relative to the tile) and value
    columns. Rejects out-of-extent coordinates and duplicate cells."""
    cc = np.asarray(cc, dtype=np.int64).reshape(len(cc), len(ts))
    if len(cc):
        if cc.min() < 0 or (cc >= np.array(valid, dtype=np.int64)).any():
            raise BoundsError(
                f"cell coords outside valid extent {valid} of tile {tuple(tc)}"
            )
    cols = [np.asarray(v, dtype=dt) for v, dt in zip(values, attr_dtypes)]
    if sort and len(cc):
        order = _lex_order(cc)
        cc = cc[order]
        cols = [c[order] for c in cols]
    keys = _linearize(cc, ts)
    if len(keys) > 1 and (keys[1:] == keys[:-1]).any():
        dup = cc[1:][keys[1:] == keys[:-1]][0]
        raise DuplicateCellError(f"duplicate cell {tuple(int(x) for x in dup)} in tile {tuple(tc)}")
    t = Tile(tc, layout, ts, attr_dtypes)
    if layout == "dense":
        t.mask = np.zeros(ts, dtype=bool)
        t.dense_values = [np.zeros(ts, dt) for dt in attr_dtypes]
        idx = tuple(cc[:, i] for i in range(len(ts)))
        t.mask[idx] = True
        for out, col in zip(t.dense_values, cols):
            out[idx] = col
    elif layout == "coo":
        t.coords = cc.astype(np.uint64)
        t.keys = keys
        t.coo_values = cols
    elif layout == "csr":
        if len(ts) != 2:
            raise InternalError("csr tiles are 2-D only")
        counts = np.bincount(cc[:, 0], minlength=ts[0]) if len(cc) else np.zeros(ts[0], int)
        t.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.uint64)
        t.cols = cc[:, 1].astype(np.uint64)
        t.csr_values = cols
    else:
        raise InternalError(f"unknown layout {layout!r}")
    return t


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
            id=self._key(tc), size=tile.nbytes, owner="array",
            payload=tile, is_evictable=evictable, do_eviction=on_evict,
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
            order = np.lexsort(tuple(tcs[:, i] for i in range(tcs.shape[1] - 1, -1, -1)))
            coords, tcs = coords[order], tcs[order]
            cols = [c[order] for c in cols]
            if len(coords):
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
