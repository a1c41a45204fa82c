"""Array operators over tiled storage.

The operators a script can reach: element-wise arithmetic, matrix
multiplication, transposition, deterministic random initialization, and
array-array spatial join. Operators read each tile as blocks through
``_read``, which pins it through the buffer pool only while
``Tile.to_scratch`` takes them, so an operator holds one pin at a time
and a pool with room for its largest tile runs it; ``matmul`` cuts the
inner extent at both operands' tile edges, so mixed tilings take the same
loop. Results are new StoredArrays, whose tiles are installed as blocks by
``_write_block``; ``matmul`` installs a full tile's fresh accumulator as it
is. An operator that fails releases its partial result before the error
propagates.

Sparse semantics: an absent cell counts as 0 for + - *; division keeps the
divisor's support (absent divisor -> absent output) so missing cells never
manufacture NaNs. Division by a present zero propagates IEEE inf/nan.

A result's layout follows the supports that bound it (``_output_layout``):
``*`` and the spatial join are sparse when either operand is, ``/`` takes
the divisor's layout, ``+`` and ``-`` are sparse only when both operands
are, ``transpose`` keeps its operand's and ``matmul`` is dense.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .array_store import StoredArray, Tile, block_tile, dtype_for
from .buffer_pool import BufferPool
from .errors import ShapeError
from .models import ArrayMeta, CellSchema, ValueType

__all__ = [
    "ewise", "matmul", "matmul_meta", "transpose", "transposed_meta", "rand",
    "rand_meta", "spatial_join_array", "to_grid",
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


def _read(arr: StoredArray, tc):
    """Tile `tc` of `arr` as (mask, value blocks) through ``to_scratch``,
    pinned only while it is read."""
    with arr.pinned(tc) as tile:
        return tile.to_scratch()


# ------------------------------------------------------- grid materialization

def to_grid(arr: StoredArray):
    """Materialize the whole array: (presence mask over AS, value grids)."""
    size = arr.meta.size
    mask = np.zeros(size, dtype=bool)
    values = [np.zeros(size, dt) for dt in arr.attr_dtypes]
    ts = arr.meta.tile_size
    for tc in arr.tile_coords():
        m, vs = _read(arr, tc)
        sl = tuple(slice(c * t, c * t + v)
                   for c, t, v in zip(tc, ts, arr.valid_extent(tc)))
        box = tuple(slice(0, v) for v in arr.valid_extent(tc))
        mask[sl] = m[box]
        for grid, v in zip(values, vs):
            grid[sl] = v[box]
    return mask, values


def _write_block(out: StoredArray, tc, mask: np.ndarray, values) -> None:
    """Install a mask and value blocks anchored at tile `tc`'s origin as that
    tile of `out`; an all-false mask writes nothing."""
    if mask.any():
        out.write_tile(tc, block_tile(tc, out.meta.tile_size, out.valid_extent(tc),
                                      out.attr_dtypes, out.meta.layout, mask, values))


# --------------------------------------------------------------- element-wise

def _output_layout(op: str, a: StoredArray, b: StoredArray) -> str:
    """The layout of ``a op b`` (``op`` "join" for the spatial join): the
    sparse operand's where the result's support lies within it, else
    dense."""
    la, lb = a.meta.layout, b.meta.layout
    if op == "/":
        return lb
    if op in ("+", "-"):
        return "dense" if "dense" in (la, lb) else la
    return la if la != "dense" else lb


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
                     layout=_output_layout(op, a, b))
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
            ma, (va,) = _read(a, tc)
            mb, (vb,) = _read(b, tc)
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

def matmul_meta(a: ArrayMeta, b: ArrayMeta) -> ArrayMeta:
    """The metadata of ``a @ b``: dims are a's rows and b's columns, the
    attribute the merged name, float if either operand is; clashing names
    fall back to auto names.  Raises ShapeError for operands matmul
    refuses."""
    if a.d != 2 or b.d != 2:
        raise ShapeError("matmul requires 2-D arrays")
    if a.size[1] != b.size[0]:
        raise ShapeError(f"inner dimensions disagree: {a.size} @ {b.size}")
    if len(a.schema.attr_names) != 1 or len(b.schema.attr_names) != 1:
        raise ShapeError("matmul needs single-attribute arrays")
    kind = "float" if "float" in (a.schema.attr_types[0].kind,
                                  b.schema.attr_types[0].kind) else "int"
    dims = (a.schema.dim_names[0], b.schema.dim_names[1])
    attr = _merge_name(a.schema.attr_names[0], b.schema.attr_names[0])
    if dims[0] == dims[1] or attr in dims:
        dims, attr = ("dim0", "dim1"), "value"
    return ArrayMeta(CellSchema(dims, (attr,), (ValueType(kind),)),
                     (a.size[0], b.size[1]), (a.tile_size[0], b.tile_size[1]),
                     layout="dense")


def _block(v: np.ndarray, arr: StoredArray, tc, flip: bool, dt) -> np.ndarray:
    """Tile `tc`'s values block `v` cut to its valid extent, as `dt`; a
    transposed view when `flip`."""
    r, c = arr.valid_extent(tc)
    v = v[:r, :c]
    return (v.T if flip else v).astype(dt, copy=False)


def matmul(a: StoredArray, b: StoredArray, *, transpose_a: bool = False,
           transpose_b: bool = False, tiles=None,
           name: str = "") -> StoredArray:
    """``a @ b``; ``transpose_a`` / ``transpose_b`` multiply by that
    operand's transpose, reading its tile (k, i) as tile (i, k), so the
    result is ``transpose(a) @ b`` without building ``transpose(a)``.
    Each output tile sums one product per piece of the inner extent, cut at
    both operands' tile edges: with one inner tiling, one per tile pair.
    Given ``tiles`` (linear ids), only those output tiles are computed, each
    as without it."""
    ma = transposed_meta(a.meta) if transpose_a else a.meta
    mb = transposed_meta(b.meta) if transpose_b else b.meta
    meta = matmul_meta(ma, mb)
    dt = dtype_for(meta.schema.attr_types[0])
    ta, tb, n = ma.tile_size[1], mb.tile_size[0], ma.size[1]
    cuts = sorted({*range(0, n, ta), *range(0, n, tb), n})
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)
    ts = meta.tile_size
    wanted = None if tiles is None else set(np.asarray(tiles).tolist())
    with out.release_on_error():
        for i in range(meta.grid[0]):
            ri = out.valid_extent((i, 0))[0]
            for j in range(meta.grid[1]):
                if wanted is not None and i * meta.grid[1] + j not in wanted:
                    continue
                cj = out.valid_extent((0, j))[1]
                acc = np.zeros((ri, cj), dtype=dt)
                for lo, hi in zip(cuts, cuts[1:]):
                    ka = (lo // ta, i) if transpose_a else (i, lo // ta)
                    kb = (j, lo // tb) if transpose_b else (lo // tb, j)
                    pa = slice(lo % ta, lo % ta + hi - lo)  # the piece in each tile
                    pb = slice(lo % tb, lo % tb + hi - lo)
                    _, (va,) = _read(a, ka)
                    _, (vb,) = _read(b, kb)
                    acc += _block(va, a, ka, transpose_a, dt)[:, pa] @ \
                        _block(vb, b, kb, transpose_b, dt)[pb]
                if acc.shape == ts:  # a full tile takes its fresh acc as it is
                    out.write_tile((i, j), Tile("dense", ts, out.attr_dtypes,
                                                np.ones(ts, bool), [acc]))
                else:
                    _write_block(out, (i, j), np.broadcast_to(True, acc.shape),
                                 [acc])
    return out


# ----------------------------------------------------------------- transpose

def transposed_meta(meta: ArrayMeta) -> ArrayMeta:
    """The metadata of a 2-D array's transpose: dims and extents swapped,
    all-auto dim names renumbered ``dim0, dim1``."""
    if meta.d != 2:
        raise ShapeError("transpose requires a 2-D array")
    sch = meta.schema
    dims = (sch.dim_names[1], sch.dim_names[0])
    if all(_is_auto(n) for n in dims):
        dims = ("dim0", "dim1")
    return ArrayMeta(CellSchema(dims, sch.attr_names, sch.attr_types),
                     meta.size[::-1], meta.tile_size[::-1], layout=meta.layout)


def transpose(a: StoredArray, *, name: str = "") -> StoredArray:
    out = StoredArray(transposed_meta(a.meta), a.pool, name=name,
                      spool_dir=a.spool_dir)
    with out.release_on_error():
        for tc in a.tile_coords():
            m, vals = _read(a, tc)
            _write_block(out, (tc[1], tc[0]), m.T, [v.T for v in vals])
    return out


# ---------------------------------------------------------------------- rand

def rand_meta(size, tile_size, seed: int | None = None) -> ArrayMeta:
    """The metadata of a ``rand`` array: auto names, one float value."""
    size = tuple(int(s) for s in size)
    sch = CellSchema(tuple(f"dim{i}" for i in range(len(size))), ("value",),
                     (ValueType("float"),))
    return ArrayMeta(sch, size,
                     tuple(int(t) for t in tile_size), layout="dense",
                     seed=None if seed is None else int(seed))


def rand(size, tile_size, seed: int, pool: BufferPool, *, name: str = "",
         spool_dir: str | None = None) -> StoredArray:
    """Dense uniform [0,1) array from a counter-based deterministic generator;
    the seed is recorded in the array metadata."""
    meta = rand_meta(size, tile_size, seed)
    grid = np.random.Generator(np.random.Philox(seed)).random(meta.size)
    arr = StoredArray(meta, pool, name=name, spool_dir=spool_dir)
    with arr.release_on_error():
        for tc in itertools.product(*map(range, meta.grid)):
            block = grid[tuple(slice(c * t, c * t + v) for c, t, v in
                               zip(tc, meta.tile_size, arr.valid_extent(tc)))]
            _write_block(arr, tc, np.broadcast_to(True, block.shape), [block])
    return arr


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
                     layout=_output_layout("join", a, b))
    out = StoredArray(meta, a.pool, name=name, spool_dir=a.spool_dir)
    with out.release_on_error():
        for tc in sorted(set(a.tile_coords()) & set(b.tile_coords())):
            ma, va = _read(a, tc)
            mb, vb = _read(b, tc)
            _write_block(out, tc, ma & mb, [*va, *vb])
    return out
