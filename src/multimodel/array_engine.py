"""Array operators over tiled storage.

The operators a script can reach: element-wise arithmetic, matrix
multiplication, transposition, deterministic random initialization, and
array-array spatial join. Operators pin tiles through the buffer pool with
``StoredArray.pinned``, which unpins however the body ends, and read each tile
as blocks through ``Tile.to_scratch``; results are new StoredArrays, whose
tiles are installed as blocks by ``_write_block``. An operator that fails
releases its partial result before the error propagates.

Sparse semantics: an absent cell counts as 0 for + - *; division keeps the
divisor's support (absent divisor -> absent output) so missing cells never
manufacture NaNs. Division by a present zero propagates IEEE inf/nan.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .array_store import StoredArray, block_tile, dtype_for
from .buffer_pool import BufferPool
from .errors import ShapeError
from .models import ArrayMeta, CellSchema, ValueType

__all__ = [
    "ewise", "matmul", "transpose", "rand", "spatial_join_array", "to_grid",
    "from_grid",
]

_AUTO_NAME = re.compile(r"^(dim\d+|value\d*)$")


def _is_auto(name: str) -> bool:
    return bool(_AUTO_NAME.match(name))


def _merge_name(left: str, right: str) -> str:
    """Explicit names beat auto-generated ones; left wins ties."""
    if _is_auto(left) and not _is_auto(right):
        return right
    return left


def _merge_schema(a: CellSchema, b: CellSchema) -> CellSchema:
    dims = tuple(_merge_name(x, y) for x, y in zip(a.dim_names, b.dim_names))
    attrs = tuple(_merge_name(x, y) for x, y in zip(a.attr_names, b.attr_names))
    if len(set(dims) | set(attrs)) != len(dims) + len(attrs):
        return a  # merged names collide; fall back to the left schema
    return CellSchema(dims, attrs, a.attr_types)


def _auto_schema(d: int) -> CellSchema:
    return CellSchema(tuple(f"dim{i}" for i in range(d)), ("value",),
                      (ValueType("float"),))


# ------------------------------------------------------- grid materialization

def to_grid(arr: StoredArray):
    """Materialize the whole array: (presence mask over AS, value grids)."""
    size = arr.meta.size
    mask = np.zeros(size, dtype=bool)
    values = [np.zeros(size, dt) for dt in arr.attr_dtypes]
    ts = arr.meta.tile_size
    for tc in arr.tile_coords():
        with arr.pinned(tc) as tile:
            m, vs = tile.to_scratch()
        sl = tuple(slice(c * t, c * t + v)
                   for c, t, v in zip(tc, ts, arr.valid_extent(tc)))
        box = tuple(slice(0, v) for v in arr.valid_extent(tc))
        mask[sl] = m[box]
        for grid, v in zip(values, vs):
            grid[sl] = v[box]
    return mask, values


def from_grid(meta: ArrayMeta, mask: np.ndarray, values, pool: BufferPool, *,
              name: str = "", spool_dir: str | None = None) -> StoredArray:
    """Tile a full-size grid into a new StoredArray (tile-at-a-time)."""
    arr = StoredArray(meta, pool, name=name, spool_dir=spool_dir)
    ts = meta.tile_size
    with arr.release_on_error():
        for tc in itertools.product(*[range(g) for g in meta.grid]):
            sl = tuple(slice(c * t, c * t + v)
                       for c, t, v in zip(tc, ts, arr.valid_extent(tc)))
            _write_block(arr, tc, mask[sl], [v[sl] for v in values])
    return arr


def _write_block(out: StoredArray, tc, mask: np.ndarray, values) -> None:
    """Install a mask and value blocks anchored at tile `tc`'s origin as that
    tile of `out`; an all-false mask writes nothing."""
    if mask.any():
        out.write_tile(tc, block_tile(tc, out.meta.tile_size, out.valid_extent(tc),
                                      out.attr_dtypes, out.meta.layout, mask, values))


# --------------------------------------------------------------- element-wise

def ewise(op: str, a: StoredArray, b: StoredArray, *, name: str = "") -> StoredArray:
    if op not in ("+", "-", "*", "/"):
        raise ValueError(f"unknown element-wise operator {op!r}")
    if a.meta.size != b.meta.size or a.meta.tile_size != b.meta.tile_size:
        raise ShapeError(
            f"element-wise operands disagree: {a.meta.size}/{a.meta.tile_size} "
            f"vs {b.meta.size}/{b.meta.tile_size}")
    if len(a.attr_dtypes) != 1 or len(b.attr_dtypes) != 1:
        raise ShapeError("element-wise arithmetic needs single-attribute arrays")
    kind = "float" if op == "/" or "float" in (a.meta.schema.attr_types[0].kind,
                                               b.meta.schema.attr_types[0].kind) else "int"
    sch = _merge_schema(a.meta.schema, b.meta.schema)
    sch = CellSchema(sch.dim_names, sch.attr_names, (ValueType(kind),))
    meta = ArrayMeta(sch, a.meta.size, a.meta.tile_size,
                     layout=a.meta.layout)
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)

    if op == "*":
        tcs = sorted(set(a.tile_coords()) & set(b.tile_coords()))
    elif op == "/":
        tcs = b.tile_coords()
    else:
        tcs = sorted(set(a.tile_coords()) | set(b.tile_coords()))
    dt = dtype_for(ValueType(kind))
    with out.release_on_error():
        for tc in tcs:
            with a.pinned(tc) as ta, b.pinned(tc) as tb:
                ma, (va,) = ta.to_scratch()
                mb, (vb,) = tb.to_scratch()
            va = va.astype(dt, copy=False)
            vb = vb.astype(dt, copy=False)
            if op == "+":
                om, ov = ma | mb, va + vb
            elif op == "-":
                om, ov = ma | mb, va - vb
            elif op == "*":
                om, ov = ma & mb, va * vb
            else:
                om = mb
                with np.errstate(divide="ignore", invalid="ignore"):
                    ov = np.divide(va, vb, where=mb,
                                   out=np.zeros_like(va, dtype=np.float64))
            _write_block(out, tc, om, [ov])
    return out


# -------------------------------------------------------------------- matmul

def matmul(a: StoredArray, b: StoredArray, *, name: str = "") -> StoredArray:
    if a.meta.d != 2 or b.meta.d != 2:
        raise ShapeError("matmul requires 2-D arrays")
    if a.meta.size[1] != b.meta.size[0]:
        raise ShapeError(
            f"inner dimensions disagree: {a.meta.size} @ {b.meta.size}")
    if len(a.attr_dtypes) != 1 or len(b.attr_dtypes) != 1:
        raise ShapeError("matmul needs single-attribute arrays")
    kind = "float" if "float" in (a.meta.schema.attr_types[0].kind,
                                  b.meta.schema.attr_types[0].kind) else "int"
    dt = dtype_for(ValueType(kind))
    dims = (a.meta.schema.dim_names[0], b.meta.schema.dim_names[1])
    attr = _merge_name(a.meta.schema.attr_names[0], b.meta.schema.attr_names[0])
    if dims[0] == dims[1] or attr in dims:
        dims, attr = ("dim0", "dim1"), "value"
    sch = CellSchema(dims, (attr,), (ValueType(kind),))
    size = (a.meta.size[0], b.meta.size[1])
    ts = (a.meta.tile_size[0], b.meta.tile_size[1])
    meta = ArrayMeta(sch, size, ts, layout="dense")

    if a.meta.tile_size[1] != b.meta.tile_size[0]:
        # mixed tile sizes: no shared inner tiling, go through full grids
        _, (ga,) = to_grid(a)
        _, (gb,) = to_grid(b)
        prod = ga.astype(dt, copy=False) @ gb.astype(dt, copy=False)
        return from_grid(meta, np.broadcast_to(True, size), [prod], a.pool,
                         name=name, spool_dir=a.spool_dir)
    # conforming inner tiling: one dense block per output tile
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)
    kt = a.meta.grid[1]
    with out.release_on_error():
        for i in range(meta.grid[0]):
            ri = out.valid_extent((i, 0))[0]
            for j in range(meta.grid[1]):
                cj = out.valid_extent((0, j))[1]
                acc = np.zeros((ri, cj), dtype=dt)
                for k in range(kt):
                    with a.pinned((i, k)) as ta, b.pinned((k, j)) as tb:
                        _, (va,) = ta.to_scratch()
                        _, (vb,) = tb.to_scratch()
                    va = va[: a.valid_extent((i, k))[0], : a.valid_extent((i, k))[1]]
                    vb = vb[: b.valid_extent((k, j))[0], : b.valid_extent((k, j))[1]]
                    acc += va.astype(dt, copy=False) @ vb.astype(dt, copy=False)
                _write_block(out, (i, j), np.broadcast_to(True, acc.shape), [acc])
    return out


# ----------------------------------------------------------------- transpose

def transpose(a: StoredArray, *, name: str = "") -> StoredArray:
    if a.meta.d != 2:
        raise ShapeError("transpose requires a 2-D array")
    sch = a.meta.schema
    dims = (sch.dim_names[1], sch.dim_names[0])
    if all(_is_auto(n) for n in dims):
        dims = ("dim0", "dim1")
    meta = ArrayMeta(CellSchema(dims, sch.attr_names, sch.attr_types),
                     (a.meta.size[1], a.meta.size[0]),
                     (a.meta.tile_size[1], a.meta.tile_size[0]),
                     layout=a.meta.layout)
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)
    with out.release_on_error():
        for tc in a.tile_coords():
            with a.pinned(tc) as tile:
                m, vals = tile.to_scratch()
            _write_block(out, (tc[1], tc[0]), m.T, [v.T for v in vals])
    return out


# ---------------------------------------------------------------------- rand

def rand(size, tile_size, seed: int, pool: BufferPool, *, name: str = "",
         spool_dir: str | None = None) -> StoredArray:
    """Dense uniform [0,1) array from a counter-based deterministic generator;
    the seed is recorded in the array metadata."""
    size = tuple(int(s) for s in size)
    sch = _auto_schema(len(size))
    meta = ArrayMeta(sch, size, tuple(int(t) for t in tile_size),
                     layout="dense", seed=int(seed))
    gen = np.random.Generator(np.random.Philox(seed))
    grid = gen.random(size)
    return from_grid(meta, np.broadcast_to(True, size), [grid], pool,
                     name=name, spool_dir=spool_dir)


# ---------------------------------------------------------------- array join

def spatial_join_array(a: StoredArray, b: StoredArray, *, name: str = "") -> StoredArray:
    """Inner join on identical coordinates; attributes concatenated."""
    if a.meta.size != b.meta.size or a.meta.tile_size != b.meta.tile_size:
        raise ShapeError(
            f"spatial join operands disagree: {a.meta.size}/{a.meta.tile_size} "
            f"vs {b.meta.size}/{b.meta.tile_size}")
    sa, sb = a.meta.schema, b.meta.schema
    names = list(sa.attr_names)
    for n in sb.attr_names:
        names.append(n if n not in names and n not in sa.dim_names else f"{n}_r")
    if len(set(names)) != len(names):
        raise ShapeError(f"cannot disambiguate attribute names {names}")
    sch = CellSchema(sa.dim_names, tuple(names),
                     tuple(sa.attr_types) + tuple(sb.attr_types))
    meta = ArrayMeta(sch, a.meta.size, a.meta.tile_size,
                     layout=a.meta.layout)
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)
    with out.release_on_error():
        for tc in sorted(set(a.tile_coords()) & set(b.tile_coords())):
            with a.pinned(tc) as ta, b.pinned(tc) as tb:
                ma, va = ta.to_scratch()
                mb, vb = tb.to_scratch()
            _write_block(out, tc, ma & mb, [*va, *vb])
    return out
