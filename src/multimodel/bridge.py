"""Inter-model operations: conversions and relation/collection-to-array joins.

``dispatch_join`` is the one record–array join.  It takes the script's
predicate and output model and routes the join (``_route``): an equi-join
binding every array dimension runs the multi-stage hash join (mshj), any
other predicate turns the array into a relation and runs a plain relational
join (convert).  mshj re-orders the records to match the array's tiling
through D stable bucketing stages (one per dimension, bucket index
``floor(v_d / TS_d)``), then probes them in bucket order so that every
referenced tile is pinned exactly once; probe-only, which a caller can
force, runs the same probe in input record order.  One record attribute may
bind several dimensions (``rec.v = arr.d0 AND rec.v = arr.d1`` joins on the
diagonal); a dimension bound twice converts.  Every strategy hands its
result to one emit step, which returns relational, document or array
output; array output is always built by ``to_array``.  Document records
join to document output only.  A join takes its records, a Relation or
a Collection, as they are, with the qualifiers their tree gave them (a
reference under ``rec_name`` reads the records' own column), and returns
one of the two in the same way.

Each record's tile coordinates (the stage keys), linear tile id and cell
within the tile are computed once, before ordering, by the locator that
places ``ArrayBuilder``'s cells too (``array_store._tile_cells``), each in
the narrowest unsigned dtype that holds it (numpy sorts 16-bit keys by
radix); ids and cells are kept in probe order only.  No coordinate matrix is
built: bound columns are read in place, and document output reads the
matched records' coordinates.  The probe (``StoredArray.lookup_runs``)
cuts the ordered runs of records on one tile into stages whose tiles'
decoded bytes fit the pool's free space, at least one run per stage.
A stage's tiles that are not resident are read in file order into one
buffer, one ``pread`` per run of adjacent slots over one fd per file held
for the probe.  ``Tile.lookup`` finds every cell: in a resident tile as it
is, or in the one dense and one coo tile whose rows are the stage's tiles.
Stage tiles never enter the pool, so the join evicts nothing.

``to_array`` is the one way records become an array.  One pass over the
records' columns (``_extract_dims``) yields the bound coordinates, the kept
records and the value columns; when no metadata is given, the extent,
value types and tiling are derived from that same pass, and the builder
chooses the layout from its per-tile cell counts.  Relations and
collections both hold typed columns, so for either the pass is a dtype and
minimum check of the bound int64 columns, and a join emits relational or
document output as columns gathered at the matched rows.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .array_store import ArrayBuilder, StoredArray, _tile_cells
from .errors import BindingError, EngineError, OutputSpecError
from .models import (BOOL, FLOAT, INT, UINT, ArrayMeta, CellSchema,
                     Collection, Column, Relation, column_from_array,
                     infer_column_type, tile_extent)
from .predicates import And, Cmp, Not, Or, Ref, equi_conjuncts
from .rd_engine import (_col_index, _column, _join, _merged, _path, _present,
                        _qualify, _rel_to_doc)


STRATEGIES = ("mshj", "convert", "probe-only")  # "auto" picks one of them


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


def _dim_problem(v) -> str:
    if _is_int(v) and v > _MAX_DIM:
        return f"must fit in a signed 64-bit integer, got {v!r}"
    return f"must be a non-negative integer, got {v!r}"


def _noun(records) -> str:
    return "row" if isinstance(records, Relation) else "document"


def _record_error(records, i: int, detail: str) -> BindingError:
    """A binding error about record ``i``, named in the message; ``index``
    and ``detail`` let ``Catalog.ingest`` name its line instead."""
    return BindingError(f"{_noun(records)} {i}: {detail}", index=i,
                        detail=detail)


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


def _at(kept, i):
    """The record index of kept row(s) ``i``; None keeps every record."""
    return i if kept is None else kept[i]


def _extract_dims(records, binding: tuple, value_paths=()):
    """Bound dimension values (one int64 array per dimension), the records
    they come from and the records' value columns, from one pass over them.
    ``binding`` names the record path of each dimension, in dimension
    order; one path may bind several dimensions.

    Returns (dims, kept, values) where kept maps rows back to record indices
    (None when every record is kept; an int64 column is then used in place)
    and values holds one Column per value path, gathered at kept.
    A document lacking a bound path is dropped (inner join).  Taking a
    record's bound paths in order, a value before any missing path that is
    not a non-negative integer within int64 is a binding error, and so is a
    kept record lacking a value path or holding null there; the first such
    record is named.
    """
    n = len(records)
    label = "dimension attribute {!r}" if isinstance(records, Relation) \
        else "path {!r}"
    reach = np.ones(n, dtype=bool)  # records with every earlier bound path
    cols, bads = [], []
    for attr in binding:
        col, present = _present(records, attr)
        reach = reach & present
        ok = _dims_ok(col)
        bads.append(np.zeros(n, bool) if ok is None else reach & ~ok)
        cols.append(col)
    if (bad := _first_bad(bads)) is not None:
        r, j = bad
        raise _record_error(records, r, f"{label.format(binding[j])} "
                                        f"{_dim_problem(cols[j].tolist()[r])}")
    kept = None if reach.all() else np.flatnonzero(reach)
    dims = [np.asarray(c.values if kept is None else c.values[kept], np.int64)
            for c in cols]
    values, absent, bads = [], [], []
    for path in value_paths:
        col, present = _present(records, path)
        if kept is not None:
            col, present = col.take(kept), present[kept]
        values.append(col)
        absent.append(~present)
        bads.append(absent[-1] | col.null_mask())
    if (bad := _first_bad(bads)) is not None:
        r, j = bad
        what = "no" if absent[j][r] else "a null"
        raise BindingError(f"{_noun(records)} {_at(kept, r)} has {what} value "
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
            raise _record_error(
                records, int(_at(kept, bad)), f"value attribute {name!r} must "
                f"fit in a signed 64-bit integer, got {vs[bad]!r}")


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


def _output_model(records, out: str | None) -> str:
    """The requested output model; records keep their own model by default.
    Document records have no fixed columns to lay out as rows or cells, so
    they join to document output only."""
    if out is None:
        return "document" if isinstance(records, Collection) else "relational"
    if out not in ("relational", "document", "array"):
        raise OutputSpecError(f"unknown output model {out!r}")
    if isinstance(records, Collection) and out != "document":
        raise OutputSpecError(
            f"document records join to DOCUMENT output only, not "
            f"{out.upper()}")
    return out


def _rel_output(records: Relation, schema: CellSchema, arr_name: str,
                columns: list[Column]) -> Relation:
    """A relational join's output: each record column under its qualifier
    and the name it prints as (``a.k`` beside ``b.k``), then each cell value
    under ``arr_name`` and its attribute name, ``_r`` appended while taken."""
    names = records.attr_names
    return Relation.qualified(
        [(q, p) for (q, _), p in zip(records.cols, names)] +
        [(arr_name, a) for a in _dedupe(list(schema.attr_names), set(names))],
        records.types + list(schema.attr_types), columns, len(columns[0]))


def _joined_records(records, arr: StoredArray, idx: np.ndarray,
                    binding: tuple, vals: list[np.ndarray],
                    arr_name: str):
    """Each matched record extended with its cell: the records' columns
    gathered at the matched rows, and the cell's values as columns.  A
    relation appends them (``_rel_output``); a document also gets the cell's
    dimensions from its bound paths, gains each cell key its shape lacks,
    after its own keys, and keeps its own value of a key."""
    schema = arr.meta.schema
    cells = [column_from_array(v, t) for v, t in zip(vals, schema.attr_types)]
    if isinstance(records, Relation):
        return _rel_output(records, schema, arr_name,
                           [c.take(idx) for c in records.columns] + cells)
    coords = [Column(np.asarray(_path(records, a)[0].values[idx], np.int64))
              for a in binding]
    keys = schema.dim_names + schema.attr_names
    cell_docs = Collection.from_columns(
        "", [keys], np.zeros(len(idx), np.int64),
        dict(zip(keys, coords + cells)), (arr_name,))
    return _merged(records, cell_docs, idx, np.arange(len(idx)),
                   tuple(dict.fromkeys(records.quals + (arr_name,))))


def _emit(joined, arr: StoredArray, binding: tuple | None, model: str):
    """Turn a join result into the requested output model; every strategy
    ends here.  Array output keeps the input array's extent, tiling and
    layout: each row becomes the cell at its bound coordinates, and every
    other column becomes a value attribute, so each dimension needs a
    record attribute of its own."""
    if model == "document" and isinstance(joined, Relation):
        joined = _rel_to_doc(joined)
    if model != "array":
        return joined
    if binding is None or len(set(binding)) < len(binding):
        raise OutputSpecError("array output needs each dimension bound to a "
                              "record attribute of its own")
    at = [_col_index(joined, a) for a in binding]
    rest = [i for i in range(len(joined.cols)) if i not in at]
    dims, values = ([joined.cols[i][1] for i in ix] for ix in (at, rest))
    meta = ArrayMeta(CellSchema(tuple(dims), tuple(values),
                                tuple(joined.types[i] for i in rest)),
                     arr.meta.size, arr.meta.tile_size, arr.meta.layout)
    return to_array(joined, dims, values, meta, arr.pool,
                    name="joined", spool_dir=arr.spool_dir)


# ---------------------------------------------------------------------------
# the join strategies

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
    ok = np.ones(len(dims[0]), dtype=bool)
    for col, extent in zip(dims, size):
        ok &= col < extent
    return (dims, kept) if ok.all() else \
        ([c[ok] for c in dims], _at(kept, np.flatnonzero(ok)))


def _locate(records, binding: tuple, meta: ArrayMeta,
            stats: JoinStats):
    """Where the probe reads each record inside an array with ``meta``: its
    index (None when every record is read), tile coordinates, linear tile
    id and cell."""
    t0 = time.perf_counter()
    dims, kept, _ = _extract_dims(records, binding)
    stats.n_records = len(dims[0])
    dims, kept = _drop_out_of_range(dims, kept, meta.size)
    t1 = time.perf_counter()
    stats.extract_seconds += t1 - t0
    tq, tile_ids, cells = _tile_cells(dims, meta)
    stats.build_seconds += time.perf_counter() - t1
    return kept, tq, tile_ids, cells


def _probe_join(strategy: str, records, arr: StoredArray, binding: tuple,
                stats: JoinStats, trace: JoinTrace | None, arr_name: str):
    """The probe path of mshj and probe-only: extract the bound dimensions,
    drop records outside the array, probe and join each hit to its cell.
    mshj probes in bucket order, so every referenced tile is pinned once;
    probe-only probes in record order, pinning a tile once per run of its
    records.  Records probing an absent cell produce no output."""
    kept, tq, tile_ids, cells = _locate(records, binding, arr.meta, stats)
    t0 = time.perf_counter()
    order = _bucket_order(arr, tq, kept, stats, trace) if strategy == "mshj" \
        else np.arange(len(tile_ids), dtype=np.int64)
    stats.build_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    if trace is not None:
        trace.probe_order.extend(_at(kept, order).tolist())
    tile_ids, cells = tile_ids[order], cells[order]  # the only copies left
    found, vals = _probe(arr, tile_ids, cells, stats, trace)
    stats.probe_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    hit = order[found]
    joined = _joined_records(records, arr, _at(kept, hit), binding,
                             [v[found] for v in vals], arr_name)
    stats.output_rows = len(hit)
    stats.emit_seconds += time.perf_counter() - t0
    return joined


def _bucket_order(arr: StoredArray, tq, kept, stats: JoinStats,
                  trace: JoinTrace | None) -> np.ndarray:
    """D stable bucketing stages, one per dimension, by ``floor(v_d / TS_d)``
    (the tile coordinates `tq`; numpy sorts keys of 16 bits by radix)."""
    order = np.arange(len(tq[0]), dtype=np.int64)
    for d, keys in enumerate(tq):
        order = order[np.argsort(keys[order], kind="stable")]
        stats.block_scans += 1
        if trace is not None:
            buckets = [[] for _ in range(arr.meta.grid[d])]
            for i in order.tolist():
                buckets[int(keys[i])].append(int(_at(kept, i)))
            trace.stage_buckets.append(buckets)
    return order


def _convert_join(records, arr: StoredArray, pred, stats: JoinStats,
                  rec_name: str, arr_name: str):
    """Array → relation, then an ordinary relational or document join on
    `pred`, which may be any predicate over the records (qualified by their
    own qualifiers or `rec_name`) and the array (by `arr_name`)."""
    stats.n_records = len(records)
    t0 = time.perf_counter()
    arel = _qualify(to_relation(arr), arr_name)
    stats.convert_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    schema = arr.meta.schema
    if isinstance(records, Collection):  # a path under rec_name is theirs
        c = _join(Collection.from_columns(
            records.name, records.shapes, records.shape_ids, records.columns,
            records.quals + (rec_name,)), arel, pred)
        joined = Collection.from_columns(
            c.name, c.shapes, c.shape_ids, c.columns,
            tuple(dict.fromkeys(records.quals + (arr_name,))))
    else:
        left = Relation.qualified(
            [(q or rec_name, n) for q, n in records.cols], records.types,
            records.columns, records.n)
        joined = _join(left, arel, _own_refs(pred, left, rec_name))
        del joined.columns[len(records.cols):len(records.cols) + schema.d]
        joined = _rel_output(records, schema, arr_name, joined.columns)
    stats.probe_seconds += time.perf_counter() - t0
    stats.output_rows = len(joined)
    return joined


def _own_refs(p, records: Relation, rec_name: str):
    """``p`` with each ``<rec_name>.x`` written ``q.x``, the name of the
    column x resolves to among the records (each has a qualifier): the
    records' own x, as mshj reads it, and never a column literally named
    ``<rec_name>.x``.  An x the records lack is a binding error."""
    if isinstance(p, (And, Or)):
        return type(p)(tuple(_own_refs(i, records, rec_name) for i in p.items))
    if isinstance(p, Not):
        return Not(_own_refs(p.item, records, rec_name))
    if isinstance(p, Cmp):
        return Cmp(p.op, _own_refs(p.left, records, rec_name),
                   _own_refs(p.right, records, rec_name))
    head, _, x = p.path.partition(".") if isinstance(p, Ref) else ("",) * 3
    if head != rec_name or not x:
        return p
    _present(records, x)  # raises for an x the records lack
    return Ref("{}.{}".format(*records.cols[_col_index(records, x)]))


# ---------------------------------------------------------------------------
# dispatcher

def _match_all_dims_binding(pred, dim_names, rec_name: str,
                            arr_name: str) -> tuple | None:
    """If `pred` is a pure equi-join binding each array dimension in
    `dim_names` once, return the record path bound to each (in their
    order); one path may bind several dimensions."""
    pairs, residual = equi_conjuncts(pred)
    if residual is not None or not pairs:
        return None
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
    return tuple(bound[d] for d in dim_names)


def _route(pred, dim_names, rec_name: str, arr_name: str, strategy: str):
    """(strategy run, binding of `pred` or None): ``auto`` probes an
    equi-join binding every array dimension and converts otherwise."""
    binding = _match_all_dims_binding(pred, dim_names, rec_name, arr_name)
    if strategy == "auto":
        strategy = "mshj" if binding is not None else "convert"
    if strategy in ("mshj", "probe-only") and binding is None:
        raise BindingError("mshj requires an equi-join over every array dimension")
    if strategy not in STRATEGIES:
        raise OutputSpecError(f"unknown join strategy {strategy!r}")
    return strategy, binding


def join_tiles(records, meta: ArrayMeta, pred, *, rec_name: str,
               arr_name: str, strategy: str) -> np.ndarray | None:
    """The sorted linear ids of the tiles that ``dispatch_join`` of
    `records` to an array with `meta` probes, or None when it reads every
    tile (convert) or raises before it probes."""
    try:
        strategy, binding = _route(pred, meta.schema.dim_names, rec_name,
                                   arr_name, strategy)
        if strategy == "convert":
            return None
        return np.unique(_locate(records, binding, meta, JoinStats())[2])
    except EngineError:
        return None


def dispatch_join(records, arr: StoredArray, pred, out: str | None = None, *,
                  rec_name: str = "rec", arr_name: str = "arr",
                  strategy: str = "auto", stats: JoinStats | None = None,
                  trace: JoinTrace | None = None):
    """The record–array join of `records` (qualified by their own qualifiers
    or `rec_name`) to `arr` (by `arr_name`) on `pred`, in output model `out`
    (relational, document or array; by default the records' own).
    ``_route`` picks the strategy: an equi-join binding every dimension
    probes (mshj), any other predicate converts the array to a relation and
    joins it; `strategy` forces one of ``STRATEGIES``."""
    strategy, binding = _route(pred, arr.meta.schema.dim_names, rec_name,
                               arr_name, strategy)
    model = _output_model(records, out)
    stats = stats if stats is not None else JoinStats()
    stats.strategy = strategy
    if strategy == "convert":
        joined = _convert_join(records, arr, pred, stats, rec_name, arr_name)
    else:
        joined = _probe_join(strategy, records, arr, binding, stats, trace,
                             arr_name)
    t0 = time.perf_counter()
    res = _emit(joined, arr, binding, model)
    stats.emit_seconds += time.perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# model conversions

def to_array(src, dim_names: list[str], value_names: list[str],
             meta: ArrayMeta | None, pool, *, name: str = "",
             spool_dir: str | None = None,
             default_tile: int = 0) -> StoredArray:
    """One cell per record at the bound coordinates; records lacking a bound
    path are dropped.  Coordinates must be unique unsigned integers inside
    the extent.

    With ``meta=None`` the extent is the tight bounding box of the kept
    records (1 per dimension when none is kept), the value types come from
    the relation schema or from the document columns that become cells,
    and the tiles are capped at ``default_tile`` (``tile_extent``).  The
    layout is the one whose tiles encode smaller (``smaller_layout``): csr
    for a 2-D array or coo otherwise when that is strictly smaller than
    dense and no tile takes more of the pool than a dense one, else dense.
    An explicit ``meta`` keeps its layout."""
    if meta is not None and (len(dim_names) != meta.d or
                             len(value_names) != len(meta.schema.attr_names)):
        raise OutputSpecError("dim/value name count does not match the array schema")
    binding = tuple(dim_names)
    if len(set(binding)) != len(binding):
        raise BindingError(f"duplicate binding attributes {binding}")
    dims, kept, cols = _extract_dims(src, binding, value_names)
    inferred = meta is None
    if inferred:  # a relation's declared types, else the values' own
        types = [_column(src, vn)[1] for vn in value_names] \
            if isinstance(src, Relation) else list(map(_value_type, cols))
        size = (tuple(int(c.max()) + 1 for c in dims) if len(dims[0])
                else (1,) * len(dim_names))
        meta = ArrayMeta(CellSchema(binding, tuple(value_names),
                                    tuple(types)),
                         size, tile_extent(size, default_tile))
    _check_ints(src, kept, value_names, meta.schema.attr_types, cols)
    builder = ArrayBuilder(meta, pool, name=name, spool_dir=spool_dir)
    try:
        # a typed column as it is, an object column through its Python values
        builder.add_cells(np.column_stack(dims), [
            c.values if c.values.dtype != object else np.asarray(c.tolist())
            for c in cols])
        return builder.finish(choose_layout=inferred)
    except EngineError as e:
        if e.index is not None:  # a cell's position; name its record
            e.index = int(_at(kept, e.index))
        raise


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
