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

Each record's tile coordinates, linear tile id and cell within the tile
are computed once, before ordering.  The probe (``StoredArray.lookup_runs``)
cuts the ordered runs of records on one tile into stages whose tiles'
decoded bytes fit the pool's free space, at least one run per stage.
Resident tiles are used in place.  A stage's other tiles are read in file
order into one buffer, one ``pread`` per run of adjacent slots over one fd
per file held for the probe; its dense tiles are looked up as one
(tiles, cells) block by one fancy index and its sparse tiles through one
``searchsorted`` over their concatenated keys.  Stage tiles never enter
the pool, so the join evicts nothing.

``to_array`` is the one way records become an array.  One pass over the
records' columns (``_extract_dims``) yields the bound coordinates, the kept
records and the value columns; when no metadata is given, the extent,
value types and tiling are derived from that same pass.  Relations and
collections both hold typed columns, so for either the pass is a dtype and
minimum check of the bound int64 columns, and a join emits relational or
document output as columns gathered at the matched rows.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .array_store import ArrayBuilder, StoredArray
from .errors import BindingError, OutputSpecError
from .models import (BOOL, FLOAT, INT, UINT, ArrayMeta, CellSchema,
                     Collection, Column, Relation, column_from_array,
                     infer_column_type, tile_extent)
from .predicates import equi_conjuncts
from .rd_engine import _overlay, execute_tree, node


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
    build_seconds: float = 0.0  # tile ids and cells, probe order
    probe_seconds: float = 0.0
    emit_seconds: float = 0.0  # matched records to the output model
    convert_seconds: float = 0.0
    stages: int = 0  # probe stages (mshj and probe-only)
    preads: int = 0
    bytes_read: int = 0  # slot bytes the stages read


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

_MIN_INT = int(np.iinfo(np.int64).min)
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


def _noun(records) -> str:
    return "row" if isinstance(records, Relation) else "document"


def _attr_index(rel: Relation, attr: str) -> int:
    try:
        return rel.attr_index(attr)
    except KeyError:
        raise BindingError(f"relation has no attribute {attr!r}") from None


def _record_path(records, path: str):
    """``(Column, mask of the records that have it)`` of a relation
    attribute or a document path."""
    if isinstance(records, Relation):
        return (records.columns[_attr_index(records, path)],
                np.ones(len(records), dtype=bool))
    return records.path(path)


def _dims_ok(col: Column) -> np.ndarray | None:
    """Mask of the coordinates in a column (None when all are): an int64
    column without nulls is checked by its minimum, any other int64 column
    by its signs and nulls, and an object column value by value."""
    v = col.values
    if v.dtype == np.int64:
        if col.null is None and (not len(v) or v.min() >= 0):
            return None
        return (v >= 0) & ~col.null_mask()
    if v.dtype == object:
        return np.fromiter(map(_is_dim, v.tolist()), bool, len(v))
    return np.zeros(len(v), dtype=bool)  # floats and bools are no coordinates


def _first_bad(bads: list) -> tuple[int, int] | None:
    """(row, index into ``bads``) of the first row any mask sets, taking the
    lowest index within that row; None when no mask sets any."""
    firsts = [(int(np.argmax(b)), j) for j, b in enumerate(bads) if b.any()]
    return min(firsts) if firsts else None


def _extract_dims(records, binding: DimBinding, value_paths=()):
    """Bound dimension values as an (N, d) int64 matrix, the records they
    come from, and the records' value columns, from one pass over columns.

    Returns (dims, kept, values) where kept maps matrix rows back to record
    indices and values holds one Column per value path, gathered at kept.
    A document lacking a bound path is dropped (inner join).  Taking a
    record's bound paths in order, a value before any missing path that is
    not a non-negative integer within int64 is a binding error, and so is a
    kept record lacking a value path or holding null there; the first such
    record is named.
    """
    n = len(records)
    label = "row {}: dimension attribute {!r}" \
        if isinstance(records, Relation) else "document {}: path {!r}"
    reach = np.ones(n, dtype=bool)  # records with every earlier bound path
    cols, bads = [], []
    for attr in binding.attrs:
        col, present = _record_path(records, attr)
        reach = reach & present
        ok = _dims_ok(col)
        bads.append(np.zeros(n, bool) if ok is None else reach & ~ok)
        cols.append(col)
    if (bad := _first_bad(bads)) is not None:
        r, j = bad
        raise _dim_error(label.format(r, binding.attrs[j]),
                         cols[j].tolist()[r])
    kept = np.flatnonzero(reach)
    dims = np.empty((len(kept), len(binding.attrs)), dtype=np.int64)
    for j, col in enumerate(cols):
        dims[:, j] = col.values[kept]
    values, absent, bads = [], [], []
    for path in value_paths:
        col, present = _record_path(records, path)
        values.append(col.take(kept))
        absent.append(~present[kept])
        bads.append(absent[-1] | values[-1].null_mask())
    if (bad := _first_bad(bads)) is not None:
        r, j = bad
        what = "no" if absent[j][r] else "a null"
        raise BindingError(f"{_noun(records)} {kept[r]} has {what} value "
                           f"attribute {value_paths[j]!r}")
    return dims, kept, values


def _check_ints(records, kept, names, types, values: list[Column]) -> None:
    """Raise a binding error naming the first record whose value is an int
    beyond int64 under an INT attribute; only an object column holds one."""
    for name, vt, col in zip(names, types, values):
        if vt.kind != "int" or col.values.dtype != object:
            continue
        vs = col.tolist()
        bad = next((i for i, v in enumerate(vs)
                    if _is_int(v) and not _MIN_INT <= v <= _MAX_DIM), None)
        if bad is not None:
            raise BindingError(
                f"{_noun(records)} {kept[bad]}: value attribute {name!r} "
                f"must fit in a signed 64-bit integer, got {vs[bad]!r}")


_TYPE_OF = {"i": INT, "f": FLOAT, "b": BOOL}


def _value_type(col: Column):
    """The type of the values a null-free column holds: its dtype's, or
    for an object or empty column ``infer_column_type``'s."""
    if col.values.dtype == object or not len(col):
        return infer_column_type(col.tolist())
    return _TYPE_OF[col.values.dtype.kind]


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
    """Each matched record extended with its cell: the records' columns
    gathered at the matched rows, and the cell's dimensions and values as
    columns.  A relation appends them (renamed with ``_r`` on a
    collision); a document gains each cell key that its shape lacks, after
    its own keys, and keeps its own value of a key it has."""
    schema = arr.meta.schema
    cells = [column_from_array(v, t) for v, t in zip(vals, schema.attr_types)]
    if isinstance(records, Relation):
        names = _dedupe(list(schema.attr_names), set(records.attr_names))
        return Relation.from_columns(
            list(records.schema) + list(zip(names, schema.attr_types)),
            [c.take(idx) for c in records.columns] + cells, len(idx))
    docs = records.take(idx)
    cells = dict(zip(schema.dim_names + schema.attr_names,
                     [Column(coords[:, j]) for j in range(schema.d)] + cells))
    columns = dict(docs.columns)
    for k, c in cells.items():
        columns[k] = _overlay(columns[k], docs.has(k), c) \
            if k in columns else c
    shapes = [s + tuple(k for k in cells if k not in s) for s in docs.shapes]
    return Collection.from_columns("joined", shapes, docs.shape_ids, columns)


def _emit(joined, arr: StoredArray, binding: DimBinding | None, model: str):
    """Turn a join result into the requested output model; every strategy
    ends here.  Array output keeps the input array's extent, tiling and
    layout: each row becomes the cell at its bound coordinates, and every
    other column becomes a value attribute."""
    if isinstance(joined, Collection) or model == "relational":
        return joined
    if model == "document":  # one shape: every row has every attribute
        return Collection.from_columns(
            "joined", [tuple(joined.attr_names)],
            np.zeros(len(joined), np.int64),
            dict(zip(joined.attr_names, joined.columns)))
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

def _tile_cells(dims: np.ndarray, meta: ArrayMeta):
    """Each row's tile coordinate per dimension, its row-major linear tile
    id and its row-major cell within the tile, from one divmod per
    dimension."""
    tq = []
    tile_ids = np.zeros(len(dims), dtype=np.int64)
    cells = np.zeros(len(dims), dtype=np.int64)
    for j, (t, g) in enumerate(zip(meta.tile_size, meta.grid)):
        q, r = np.divmod(dims[:, j], t)
        tq.append(q)
        tile_ids = tile_ids * g + q
        cells = cells * t + r
    return tq, tile_ids, cells


def _probe(arr: StoredArray, tile_ids: np.ndarray, cells: np.ndarray,
           stats: JoinStats, trace: JoinTrace | None):
    """Probe the records, given by tile id and cell in probe order; each run
    of records on one tile is one pin.  The array reads the runs in stages
    (``StoredArray.lookup_runs``).  Returns found and the value columns,
    in probe order."""
    stats.block_scans += 1
    n = len(tile_ids)
    starts = np.flatnonzero(tile_ids[1:] != tile_ids[:-1]) + 1
    starts = np.concatenate(([0], starts)) if n else starts
    run_tiles = tile_ids[starts]
    stats.tile_pins += len(run_tiles)
    if trace is not None:
        grid, ts = arr.meta.grid, arr.meta.tile_size
        trace.tcs.extend(map(tuple, np.transpose(
            np.unravel_index(tile_ids, grid)).tolist()))
        trace.ccs.extend(map(tuple, np.transpose(
            np.unravel_index(cells, ts)).tolist()))
        trace.pins.extend(map(tuple, np.transpose(
            np.unravel_index(run_tiles, grid)).tolist()))
    return arr.lookup_runs(run_tiles, np.diff(np.append(starts, n)), cells,
                           stats)


def _drop_out_of_range(dims, kept, size):
    ok = np.ones(len(dims), dtype=bool)
    for j, extent in enumerate(size):  # a column at a time: no (N, d) mask
        ok &= dims[:, j] < extent
    return (dims, kept) if ok.all() else (dims[ok], kept[ok])


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
    tq, tile_ids, cells = _tile_cells(dims, arr.meta)
    order = probe_order(arr, tq, kept, stats, trace)
    stats.build_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    if trace is not None:
        trace.probe_order.extend(kept[order].tolist())
    found, vals = _probe(arr, tile_ids[order], cells[order], stats, trace)
    stats.probe_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    hit = order[found]
    joined = _joined_records(records, arr, kept[hit], dims[hit],
                             [v[found] for v in vals])
    stats.output_rows = len(hit)
    res = _emit(joined, arr, binding, model)
    stats.emit_seconds += time.perf_counter() - t0
    return res


def _bucket_order(arr: StoredArray, tq, kept, stats: JoinStats,
                  trace: JoinTrace | None) -> np.ndarray:
    """D stable bucketing stages, one per dimension, by ``floor(v_d / TS_d)``
    (the tile coordinates `tq`)."""
    order = np.arange(len(kept), dtype=np.int64)
    for d, keys in enumerate(tq):
        order = order[np.argsort(keys[order], kind="stable")]
        stats.block_scans += 1
        if trace is not None:
            buckets = [[] for _ in range(arr.meta.grid[d])]
            for i in order.tolist():
                buckets[int(keys[i])].append(int(kept[i]))
            trace.stage_buckets.append(buckets)
    return order


def _input_order(arr: StoredArray, tq, kept, stats: JoinStats,
                 trace: JoinTrace | None) -> np.ndarray:
    return np.arange(len(kept), dtype=np.int64)


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
    t0 = time.perf_counter()
    res = _emit(joined, arr, binding, model)
    stats.emit_seconds += time.perf_counter() - t0
    return res


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
    types come from the relation schema or from the document columns that
    become cells, and its tiles are capped at ``default_tile``
    (``tile_extent``)."""
    if meta is not None and (len(dim_names) != meta.d or
                             len(value_names) != len(meta.schema.attr_names)):
        raise OutputSpecError("dim/value name count does not match the array schema")
    binding = DimBinding(tuple(dim_names))
    dims, kept, cols = _extract_dims(src, binding, value_names)
    if meta is None:
        if isinstance(src, Relation):
            types = [src.schema[_attr_index(src, vn)][1] for vn in value_names]
        else:
            types = [_value_type(c) for c in cols]
        size = (tuple(int(x) + 1 for x in dims.max(axis=0)) if len(dims)
                else (1,) * len(dim_names))
        meta = ArrayMeta(CellSchema(binding.attrs, tuple(value_names),
                                    tuple(types)),
                         size, tile_extent(size, default_tile))
    _check_ints(src, kept, value_names, meta.schema.attr_types, cols)
    builder = ArrayBuilder(meta, pool, name=name, spool_dir=spool_dir)
    # a typed column as it is, an object column through its Python values
    builder.add_cells(dims, [c.values if c.values.dtype != object
                             else np.asarray(c.tolist()) for c in cols])
    return builder.finish()


def to_relation(arr: StoredArray) -> Relation:
    """All cells as a relation, built column by column: dimension columns
    (unsigned) then value attributes, cells in tile-major order."""
    sch = arr.meta.schema
    cells = list(arr.iter_cells())
    coords = np.concatenate([c for c, _ in cells]) if cells else \
        np.zeros((0, sch.d), dtype=np.uint64)
    values = [np.concatenate(parts) for parts in zip(*(v for _, v in cells))] \
        if cells else [np.zeros(0, dt) for dt in arr.attr_dtypes]
    return Relation.from_columns(
        [(n, UINT) for n in sch.dim_names] +
        list(zip(sch.attr_names, sch.attr_types)),
        [column_from_array(coords[:, j], UINT) for j in range(sch.d)] +
        [column_from_array(v, t) for v, t in zip(values, sch.attr_types)],
        len(coords))
