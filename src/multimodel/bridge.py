"""Inter-model operations: conversions and relation/collection-to-array joins.

The centerpiece is the multi-stage hash join (``mshj``): records are
re-ordered to match the array's tiling through D stable bucketing stages
(one per dimension, bucket index ``floor(v_d / TS_d)``), then probed in
bucket order so that every referenced tile is pinned exactly once.
``join_probe_only`` runs the same probe in input record order.
``join_via_conversion`` turns the array into a relation and runs a plain
relational join.  All three hand their result to one emit step, which
returns relational, document or array output; array output is always built
by ``to_array``.  Document records join to document output only.

``to_array`` is the one way records become an array.  A single walk over
the records (``_extract_dims``) yields the bound coordinates, the kept
records and the value columns; when no metadata is given, the extent,
value types and tiling are derived from that same walk.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .array_store import ArrayBuilder, StoredArray
from .errors import BindingError, OutputSpecError
from .models import (ABSENT, UINT, ArrayMeta, CellSchema, Collection,
                     Relation, compile_path, infer_column_type, tile_extent)
from .predicates import equi_conjuncts
from .rd_engine import execute_tree, node


@dataclass(frozen=True)
class DimBinding:
    """Record attributes (or dotted paths), one per array dimension, in
    dimension order."""

    attrs: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.attrs)) != len(self.attrs):
            raise BindingError(f"duplicate binding attributes {self.attrs}")


@dataclass(frozen=True)
class JoinOutputSpec:
    """Target model of a record-array join.  Relational and array output
    hold the record columns first, then the array's value attributes."""

    model: str = "relational"  # relational | document | array

    def __post_init__(self):
        if self.model not in ("relational", "document", "array"):
            raise OutputSpecError(f"unknown output model {self.model!r}")


@dataclass
class JoinStats:
    strategy: str = ""
    n_records: int = 0
    block_scans: int = 0
    tile_pins: int = 0
    output_rows: int = 0
    extract_seconds: float = 0.0  # dimension extraction and extent check
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    convert_seconds: float = 0.0


@dataclass
class JoinTrace:
    """Step-by-step record of one join run, for inspection and tests."""

    stage_buckets: list = field(default_factory=list)  # per stage: bucket -> record idx
    probe_order: list = field(default_factory=list)    # original record indices
    tcs: list = field(default_factory=list)            # tile coords, probe order
    ccs: list = field(default_factory=list)            # cell coords, probe order
    pins: list = field(default_factory=list)           # tile pin sequence


# ---------------------------------------------------------------------------
# dimension extraction

_MAX_DIM = int(np.iinfo(np.int64).max)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_dim(v) -> bool:
    """A coordinate: a non-negative integer that fits in int64."""
    if type(v) is int:  # the common case, without the ABC check
        return 0 <= v <= _MAX_DIM
    return _is_int(v) and 0 <= v <= _MAX_DIM


def _dim_error(where: str, v) -> BindingError:
    if _is_int(v) and v > _MAX_DIM:
        return BindingError(f"{where} must fit in a signed 64-bit integer, "
                            f"got {v!r}")
    return BindingError(f"{where} must be a non-negative integer, got {v!r}")


def _attr_index(rel: Relation, attr: str) -> int:
    try:
        return rel.attr_index(attr)
    except KeyError:
        raise BindingError(f"relation has no attribute {attr!r}") from None


def _extract_dims(records, binding: DimBinding, value_paths=()):
    """One walk over the records: bound dimension values as an (N, d) int64
    matrix, plus the values at ``value_paths`` of the same records.

    Returns (dims, kept, values) where kept maps matrix rows back to record
    indices and values holds one list per value path, aligned with the rows.
    Documents missing a bound path are dropped (inner join); anything
    non-integer, negative or beyond int64, and a missing value attribute,
    is a binding error.  A relation column of plain ints is checked by its
    minimum and maximum; any other column is checked value by value.
    """
    if isinstance(records, Relation):
        idx = [_attr_index(records, a) for a in binding.attrs]
        vidx = [_attr_index(records, a) for a in value_paths]
        n = len(records.rows)
        dims = np.empty((n, len(idx)), dtype=np.int64)
        for j, i in enumerate(idx):
            col = list(map(itemgetter(i), records.rows))
            if (set(map(type, col)) != {int} or min(col) < 0
                    or max(col) > _MAX_DIM):
                for r, v in enumerate(col):  # find the first bad value
                    if not _is_dim(v):
                        raise _dim_error(f"row {r}: dimension attribute "
                                         f"{binding.attrs[j]!r}", v)
            dims[:, j] = col
        values = [list(map(itemgetter(i), records.rows)) for i in vidx]
        return dims, np.arange(n, dtype=np.int64), values

    kept, coords = [], []
    values = [[] for _ in value_paths]
    dim_gets = [(p, compile_path(p)) for p in binding.attrs]
    value_gets = [(p, compile_path(p), col)
                  for p, col in zip(value_paths, values)]
    for r, doc in enumerate(records.docs):
        row = []
        for path, get in dim_gets:
            v = get(doc)
            if v is ABSENT:
                break
            if not _is_dim(v):
                raise _dim_error(f"document {r}: path {path!r}", v)
            row.append(v)
        else:
            for path, get, col in value_gets:
                v = get(doc)
                if v is ABSENT:
                    raise BindingError(
                        f"document {r} has no value attribute {path!r}")
                col.append(v)
            kept.append(r)
            coords.append(row)
    dims = np.asarray(coords, dtype=np.int64).reshape(len(kept),
                                                      len(binding.attrs))
    return dims, np.asarray(kept, dtype=np.int64), values


# ---------------------------------------------------------------------------
# output assembly

def _dedupe(names: list[str], taken: set[str]) -> list[str]:
    out = []
    for n in names:
        while n in taken:
            n = n + "_r"
        taken.add(n)
        out.append(n)
    return out


def _output_model(records, out: JoinOutputSpec | None) -> str:
    """The requested output model; records keep their own model by default.
    Document records have no fixed columns to lay out as rows or cells, so
    they join to document output only."""
    if out is None:
        return "document" if isinstance(records, Collection) else "relational"
    if isinstance(records, Collection) and out.model != "document":
        raise OutputSpecError(
            f"document records join to DOCUMENT output only, not "
            f"{out.model.upper()}")
    return out.model


def _joined_records(records, arr: StoredArray, idx: np.ndarray,
                    coords: np.ndarray, vals: list[np.ndarray]):
    """Each matched record extended with its cell.  Rows gain the cell's
    value attributes as columns (renamed with ``_r`` on a collision);
    documents gain the cell's dimensions and values under keys they do not
    already have."""
    schema = arr.meta.schema
    cols = [v.tolist() for v in vals]
    if isinstance(records, Relation):
        names = _dedupe(list(schema.attr_names), set(records.attr_names))
        rows = [records.rows[i] + tuple(c[k] for c in cols)
                for k, i in enumerate(idx.tolist())]
        return Relation(list(records.schema) +
                        list(zip(names, schema.attr_types)), rows)
    coords = coords.tolist()
    docs = []
    for k, i in enumerate(idx.tolist()):
        merged = dict(records.docs[i])
        for dn, c in zip(schema.dim_names, coords[k]):
            merged.setdefault(dn, c)
        for an, c in zip(schema.attr_names, cols):
            merged.setdefault(an, c[k])
        docs.append(merged)
    return Collection("joined", docs)


def _emit(joined, arr: StoredArray, binding: DimBinding | None, model: str):
    """Turn a join result into the requested output model; every strategy
    ends here.  Array output keeps the input array's extent, tiling and
    layout: each row becomes the cell at its bound coordinates, and every
    other column becomes a value attribute."""
    if isinstance(joined, Collection) or model == "relational":
        return joined
    if model == "document":
        return Collection("joined", [dict(zip(joined.attr_names, r))
                                     for r in joined.rows])
    if binding is None:
        raise OutputSpecError("array output needs a dimension binding")
    values = [n for n in joined.attr_names if n not in binding.attrs]
    types = [joined.schema[joined.attr_index(n)][1] for n in values]
    meta = ArrayMeta(CellSchema(binding.attrs, tuple(values), tuple(types)),
                     arr.meta.size, arr.meta.tile_size, arr.meta.layout)
    return to_array(joined, list(binding.attrs), values, meta, arr.pool,
                    name="joined", spool_dir=arr.spool_dir)


# ---------------------------------------------------------------------------
# the join strategies

def _probe(arr: StoredArray, dims: np.ndarray, kept: np.ndarray,
           order: np.ndarray, stats: JoinStats, trace: JoinTrace | None):
    """Scan records in `order`, pinning each tile once per contiguous run.

    Returns the matched record indices, their cell coordinates and the
    cells' value columns, in probe order.
    """
    ts = np.asarray(arr.meta.tile_size, dtype=np.int64)
    dims = dims[order]
    tcs = dims // ts
    ccs = (dims % ts).astype(np.uint64)
    rec = kept[order]
    if trace is not None:
        trace.probe_order.extend(int(i) for i in rec)
        trace.tcs.extend(tuple(int(x) for x in t) for t in tcs)
        trace.ccs.extend(tuple(int(x) for x in c) for c in ccs)
    stats.block_scans += 1
    found = np.zeros(len(rec), dtype=bool)
    vals = [np.zeros(len(rec), dt) for dt in arr.attr_dtypes]
    change = np.flatnonzero((tcs[1:] != tcs[:-1]).any(axis=1)) + 1
    bounds = np.concatenate(([0], change, [len(rec)])) if len(rec) else []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        tc = tuple(int(x) for x in tcs[lo])
        with arr.pinned(tc) as tile:
            stats.tile_pins += 1
            if trace is not None:
                trace.pins.append(tc)
            f, v = tile.lookup(ccs[lo:hi])
        found[lo:hi] = f
        for col, part in zip(vals, v):
            col[lo:hi] = part
    return rec[found], dims[found], [v[found] for v in vals]


def _drop_out_of_range(dims, kept, size):
    ok = (dims < np.asarray(size, dtype=np.int64)).all(axis=1)
    return dims[ok], kept[ok]


def _probe_join(strategy: str, probe_order, records, arr: StoredArray,
                binding: DimBinding, out: JoinOutputSpec | None,
                stats: JoinStats | None, trace: JoinTrace | None):
    """The probe path of mshj and probe-only: extract the bound dimensions,
    drop records outside the array, probe in ``probe_order(...)`` and emit.
    Records probing an absent cell produce no output."""
    model = _output_model(records, out)
    stats = stats if stats is not None else JoinStats()
    stats.strategy = strategy
    _check_binding(arr, binding)
    t0 = time.perf_counter()
    dims, kept, _ = _extract_dims(records, binding)
    stats.n_records = len(dims)
    dims, kept = _drop_out_of_range(dims, kept, arr.meta.size)
    stats.extract_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    order = probe_order(arr, dims, kept, stats, trace)
    stats.build_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    idx, coords, vals = _probe(arr, dims, kept, order, stats, trace)
    joined = _joined_records(records, arr, idx, coords, vals)
    stats.probe_seconds += time.perf_counter() - t0
    stats.output_rows = len(idx)
    return _emit(joined, arr, binding, model)


def _bucket_order(arr: StoredArray, dims, kept, stats: JoinStats,
                  trace: JoinTrace | None) -> np.ndarray:
    """D stable bucketing stages, one per dimension, by ``floor(v_d / TS_d)``."""
    ts = np.asarray(arr.meta.tile_size, dtype=np.int64)
    order = np.arange(len(dims), dtype=np.int64)
    for d in range(arr.meta.d):
        keys = dims[order, d] // ts[d]
        order = order[np.argsort(keys, kind="stable")]
        stats.block_scans += 1
        if trace is not None:
            buckets = [[] for _ in range(arr.meta.grid[d])]
            for i in order:
                buckets[int(dims[i, d] // ts[d])].append(int(kept[i]))
            trace.stage_buckets.append(buckets)
    return order


def _input_order(arr: StoredArray, dims, kept, stats: JoinStats,
                 trace: JoinTrace | None) -> np.ndarray:
    return np.arange(len(dims), dtype=np.int64)


def mshj(records, arr: StoredArray, binding: DimBinding,
         out: JoinOutputSpec | None = None, *,
         stats: JoinStats | None = None, trace: JoinTrace | None = None):
    """Multi-stage hash join: D bucketing stages, then a tile-ordered probe.

    Each stage stably re-orders records by ``floor(v_d / TS_d)``; after the
    last stage the scan order is grouped by tile, so the probe pins every
    referenced tile exactly once.  Records outside the array extent or
    probing an absent cell produce no output.
    """
    return _probe_join("mshj", _bucket_order, records, arr, binding, out,
                       stats, trace)


def join_probe_only(records, arr: StoredArray, binding: DimBinding,
                    out: JoinOutputSpec | None = None, *,
                    stats: JoinStats | None = None,
                    trace: JoinTrace | None = None):
    """Baseline: mshj's probe in input record order (no bucketing).
    A tile is still pinned once per contiguous run, so scattered orders pin
    the same tile repeatedly."""
    return _probe_join("probe-only", _input_order, records, arr, binding, out,
                       stats, trace)


def join_via_conversion(records, arr: StoredArray, binding: DimBinding | None,
                        out: JoinOutputSpec | None = None, *,
                        pred=None, rec_name: str = "rec", arr_name: str = "arr",
                        stats: JoinStats | None = None):
    """Baseline: array → relation, then an ordinary relational/document join.

    `pred` may be any predicate over the two inputs (qualified by `rec_name`
    / `arr_name`); when omitted it is derived from `binding` as an equi-join
    on every dimension.
    """
    model = _output_model(records, out)
    stats = stats if stats is not None else JoinStats()
    stats.strategy = "convert"
    if pred is None:
        if binding is None:
            raise BindingError("conversion join needs a binding or a predicate")
        from .predicates import parse_predicate
        parts = [f"{rec_name}.{a} = {arr_name}.{d}"
                 for a, d in zip(binding.attrs, arr.meta.schema.dim_names)]
        pred = parse_predicate(" and ".join(parts))
    stats.n_records = len(records)

    t0 = time.perf_counter()
    arel = to_relation(arr)
    stats.convert_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    tree = node("join",
                node("scan", name="__rec", qualifier=rec_name),
                node("scan", name="__arr", qualifier=arr_name),
                pred=pred)
    schema = arr.meta.schema
    if isinstance(records, Relation):
        taken = set(records.attr_names)
        attr_out = _dedupe(list(schema.attr_names), taken)
        cols = [f"{rec_name}.{c}" for c in records.attr_names] + \
               [f"{arr_name}.{a}" for a in schema.attr_names]
        tree = node("project", tree, cols=cols,
                    names=records.attr_names + attr_out)
    joined = execute_tree(tree, {"__rec": records, "__arr": arel})
    stats.probe_seconds += time.perf_counter() - t0
    stats.output_rows = len(joined)
    return _emit(joined, arr, binding, model)


def _check_binding(arr: StoredArray, binding: DimBinding) -> None:
    if len(binding.attrs) != arr.meta.d:
        raise BindingError(
            f"binding has {len(binding.attrs)} attributes for a "
            f"{arr.meta.d}-dimensional array")


# ---------------------------------------------------------------------------
# dispatcher

def match_all_dims_binding(pred, arr: StoredArray, rec_name: str,
                           arr_name: str) -> DimBinding | None:
    """If `pred` is a pure equi-join binding every array dimension exactly
    once, return the record-side binding (in dimension order); else None."""
    pairs, residual = equi_conjuncts(pred)
    if residual is not None or not pairs:
        return None
    dim_names = arr.meta.schema.dim_names
    bound: dict[str, str] = {}

    def split(ref: str):
        if "." in ref:
            q, _, tail = ref.partition(".")
            return q, tail
        return None, ref

    for a, b in pairs:
        qa, ta = split(a)
        qb, tb = split(b)
        a_is_dim = qa == arr_name and ta in dim_names
        b_is_dim = qb == arr_name and tb in dim_names
        if a_is_dim == b_is_dim:
            return None  # dim=dim or rec=rec: not an all-dims binding
        dim, rec = (ta, b) if a_is_dim else (tb, a)
        q, tail = split(rec)
        if q == arr_name or dim in bound:
            return None
        bound[dim] = tail if q in (None, rec_name) else rec
    if set(bound) != set(dim_names):
        return None
    return DimBinding(tuple(bound[d] for d in dim_names))


def dispatch_join(records, arr: StoredArray, pred,
                  out: JoinOutputSpec | None = None, *,
                  rec_name: str = "rec", arr_name: str = "arr",
                  strategy: str = "auto", stats: JoinStats | None = None,
                  trace: JoinTrace | None = None):
    """Route an inter-model join: all-dimension equi-joins go to mshj, any
    other predicate falls back to the conversion strategy."""
    binding = match_all_dims_binding(pred, arr, rec_name, arr_name)
    if strategy == "auto":
        strategy = "mshj" if binding is not None else "convert"
    if strategy in ("mshj", "probe-only") and binding is None:
        raise BindingError(
            "mshj requires an equi-join over every array dimension")
    if strategy == "mshj":
        return mshj(records, arr, binding, out, stats=stats, trace=trace)
    if strategy == "probe-only":
        return join_probe_only(records, arr, binding, out, stats=stats,
                               trace=trace)
    if strategy == "convert":
        return join_via_conversion(records, arr, binding, out, pred=pred,
                                   rec_name=rec_name, arr_name=arr_name,
                                   stats=stats)
    raise OutputSpecError(f"unknown join strategy {strategy!r}")


# ---------------------------------------------------------------------------
# model conversions

def to_array(src, dim_names: list[str], value_names: list[str],
             meta: ArrayMeta | None, pool, *, name: str = "",
             spool_dir: str | None = None,
             default_tile: int = 0) -> StoredArray:
    """One cell per record at the bound coordinates; records lacking a bound
    path are dropped.  Coordinates must be unique unsigned integers inside
    the extent.

    With ``meta=None`` the array is dense, its extent is the tight bounding
    box of the kept records (1 per dimension when none is kept), its value
    types come from the relation schema or from the document values that
    become cells, and its tiles are capped at ``default_tile``
    (``tile_extent``)."""
    if meta is not None and (len(dim_names) != meta.d or
                             len(value_names) != len(meta.schema.attr_names)):
        raise OutputSpecError("dim/value name count does not match the array schema")
    binding = DimBinding(tuple(dim_names))
    dims, _, cols = _extract_dims(src, binding, value_names)
    if meta is None:
        if isinstance(src, Relation):
            types = [src.schema[_attr_index(src, vn)][1] for vn in value_names]
        else:
            types = [infer_column_type(c) for c in cols]
        size = (tuple(int(x) + 1 for x in dims.max(axis=0)) if len(dims)
                else (1,) * len(dim_names))
        meta = ArrayMeta(CellSchema(binding.attrs, tuple(value_names),
                                    tuple(types)),
                         size, tile_extent(size, default_tile))
    builder = ArrayBuilder(meta, pool, name=name, spool_dir=spool_dir)
    builder.add_cells(dims, [np.asarray(c) for c in cols])
    return builder.finish()


def to_relation(arr: StoredArray) -> Relation:
    """All cells as rows: dimension columns (unsigned) then value attributes,
    tile-major order."""
    schema = [(n, UINT) for n in arr.meta.schema.dim_names] + \
        list(zip(arr.meta.schema.attr_names, arr.meta.schema.attr_types))
    rows = []
    for coords, vals in arr.iter_cells():
        coord_cols = coords.tolist()
        val_cols = [v.tolist() for v in vals]
        for k in range(len(coord_cols)):
            rows.append(tuple(coord_cols[k]) + tuple(c[k] for c in val_cols))
    return Relation(schema, rows)
