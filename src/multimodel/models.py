"""Core data model: relations, documents/collections and array metadata.

Three value families live here. Relational data is a schema (name, type pairs)
plus one column per attribute: int, uint, float and bool attributes are int64,
float64 or bool numpy arrays with a null mask, and every other attribute, or
one whose values do not all fit that array, is an object array of plain
Python values.  Row tuples are built only on request (``Relation.rows``).
A collection is shredded the same way, one column per top-level key: a key's
column is int64, float64 or bool when every value the documents store under
it is exactly that Python type (and an int fits int64), else an object array.
Each document has a shape, the tuple of its keys in document order, so the
shape table gives both which keys a document lacks and their order, and
nested documents and lists stay Python values in an object column.  Dicts
are built only on request (``Collection.docs``).  Arrays carry only metadata
here (storage is in array_store). Values are restricted to: int, unsigned
int, 64-bit float, str, bool, None, list, nested dict.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, PathError

__all__ = [
    "ABSENT",
    "ValueType",
    "INT",
    "UINT",
    "FLOAT",
    "STRING",
    "BOOL",
    "Column",
    "column_of",
    "object_column",
    "column_from_array",
    "Relation",
    "Collection",
    "CellSchema",
    "ArrayMeta",
    "compile_path",
    "compile_set",
    "relation_to_csv",
    "relation_from_csv",
    "csv_row_count",
    "collection_to_jsonl",
    "collection_from_jsonl",
    "infer_column_type",
    "tile_extent",
]


class _Absent:
    """Marker distinct from None: 'no such cell / key', not 'null value'."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


ABSENT = _Absent()


@dataclass(frozen=True)
class ValueType:
    """Attribute type. kind is one of int|uint|float|string|bool|list|doc;
    elem declares the single element type of a list attribute in a relation."""

    kind: str
    elem: "ValueType | None" = None

    def __post_init__(self):
        if self.kind not in ("int", "uint", "float", "string", "bool", "list", "doc"):
            raise ValueError(f"unknown value kind {self.kind!r}")
        if self.elem is not None and self.kind != "list":
            raise ValueError("only list types take an element type")

    def __str__(self):
        if self.kind == "list" and self.elem is not None:
            return f"list<{self.elem}>"
        return self.kind

    @staticmethod
    def parse(text: str) -> "ValueType":
        text = text.strip()
        if text.startswith("list<") and text.endswith(">"):
            return ValueType("list", ValueType.parse(text[5:-1]))
        return ValueType(text)


INT = ValueType("int")
UINT = ValueType("uint")
FLOAT = ValueType("float")
STRING = ValueType("string")
BOOL = ValueType("bool")


class Column:
    """One attribute's values.  ``values`` is an int64, float64 or bool
    array, or an object array of Python values (None for null); ``null``
    marks the null rows, and is None when there are none.  A typed array
    holds a filler (0 or False) under each null."""

    __slots__ = ("values", "null")

    def __init__(self, values: np.ndarray, null: np.ndarray | None = None):
        self.values = values
        self.null = null if null is not None and null.any() else None

    def __len__(self):
        return len(self.values)

    def null_mask(self) -> np.ndarray:
        """``null`` as an array, all False when there is no null."""
        return np.zeros(len(self), bool) if self.null is None else self.null

    def take(self, idx) -> "Column":
        return Column(self.values[idx],
                      None if self.null is None else self.null[idx])

    def tolist(self) -> list:
        out = self.values.tolist()
        if self.null is not None and self.values.dtype != object:
            for i in np.flatnonzero(self.null).tolist():
                out[i] = None
        return out


# kind -> (array dtype, the one Python type its values must all have)
_TYPED = {"int": (np.dtype(np.int64), int), "uint": (np.dtype(np.int64), int),
          "float": (np.dtype(np.float64), float),
          "bool": (np.dtype(np.bool_), bool)}


def object_column(values: list) -> Column:
    """The values as they are, in an object array (None for null)."""
    arr = np.fromiter(values, dtype=object, count=len(values))
    return Column(arr, np.equal(arr, None))


def column_of(values: list, vt: "ValueType") -> Column:
    """The column of a list of Python values declared ``vt``: a typed array
    when every non-null value has the type's Python type (and an int fits
    int64), else an object array."""
    typed = _TYPED.get(vt.kind)
    if typed is not None:
        dtype, pytype = typed
        types = set(map(type, values))
        if types <= {pytype, type(None)}:
            return _typed_column(values, dtype, type(None) in types)
    return object_column(values)


def _typed_column(values: list, dtype, nulls: bool) -> Column:
    """The values, all of dtype's Python type or None, in a typed array; an
    object array when an int does not fit int64."""
    try:
        if not nulls:
            return Column(np.array(values, dtype=dtype))
        col = object_column(values)
        col.values[col.null] = 0
        return Column(col.values.astype(dtype), col.null)
    except OverflowError:
        return object_column(values)


def column_from_array(arr: np.ndarray, vt: "ValueType") -> Column:
    """The column of a null-free numpy array declared ``vt`` (array cells,
    coordinates); the array is used as it is when it has the column's
    dtype."""
    typed = _TYPED.get(vt.kind)
    if typed is not None and arr.dtype == typed[0]:
        return Column(arr)
    if arr.dtype.kind == "u" and typed is not None and typed[1] is int \
            and (not len(arr) or arr.max() <= np.iinfo(np.int64).max):
        return Column(arr.astype(np.int64))
    return column_of(arr.tolist(), vt)


class Relation:
    """Schema plus one Column per attribute; treat instances as immutable.

    ``Relation(schema, rows)`` takes row tuples, and ``rows`` builds them
    again; ``from_columns`` and ``columns`` skip the tuples.  ``len()``
    counts rows without building them."""

    __slots__ = ("schema", "columns", "_n")
    __hash__ = None

    def __init__(self, schema: list[tuple[str, ValueType]], rows=()):
        rows = rows if isinstance(rows, list) else list(rows)
        if set(map(len, rows)) - {len(schema)}:
            bad = next(r for r in rows if len(r) != len(schema))
            raise ValueError(f"row {bad!r} has {len(bad)} values for "
                             f"{len(schema)} attributes")
        cols = list(zip(*rows)) or [()] * len(schema)
        self._init(schema, [column_of(list(c), vt)
                            for c, (_, vt) in zip(cols, schema)], len(rows))

    @classmethod
    def from_columns(cls, schema, columns: list[Column],
                     n: int | None = None) -> "Relation":
        """A relation over existing columns (shared, not copied); ``n`` is
        needed only when there is no column."""
        rel = cls.__new__(cls)
        rel._init(schema, columns, len(columns[0]) if columns else n or 0)
        return rel

    def _init(self, schema, columns, n):
        names = [name for name, _ in schema]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        self.schema, self.columns, self._n = list(schema), columns, n

    @property
    def rows(self) -> list[tuple]:
        if not self.columns:
            return [()] * self._n
        return list(zip(*(c.tolist() for c in self.columns)))

    @property
    def attr_names(self) -> list[str]:
        return [n for n, _ in self.schema]

    def attr_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.schema):
            if n == name:
                return i
        raise KeyError(name)

    def __len__(self):
        return self._n

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self.rows == other.rows

    def __repr__(self):
        return f"Relation(schema={self.schema!r}, rows={self.rows!r})"


# the Python type of a document value -> the dtype of a column of such values
_DTYPE_OF = {pytype: dtype for dtype, pytype in _TYPED.values()}


def _value_column(values: list) -> Column:
    """The column of a document key's values: typed when every non-null
    value has one Python type that a typed column holds exactly (an int
    within int64), else an object array; so 1, 1.0 and True stay apart."""
    types = set(map(type, values))
    kinds = types - {type(None)}
    dtype = _DTYPE_OF.get(kinds.pop()) if len(kinds) == 1 else None
    if dtype is None:
        return object_column(values)
    return _typed_column(values, dtype, len(types) > 1)


class Collection:
    """A named sequence of documents, held as one Column per top-level key;
    treat instances as immutable.

    ``shapes`` lists the distinct key tuples, each in document order, and
    ``shape_ids`` (int64) gives each document's.  A document has a key
    exactly when its shape does, so a column's ``null`` marks stored nulls
    only; under a document that lacks the key a column holds a filler.
    ``Collection(name, docs)`` shreds dicts and ``docs`` builds them again;
    ``from_columns``, ``take``, ``has`` and ``path`` skip the dicts, and
    ``len()`` counts documents without building them."""

    __slots__ = ("name", "shapes", "shape_ids", "columns", "__weakref__")
    __hash__ = None

    def __init__(self, name: str, docs=()):
        docs = docs if isinstance(docs, list) else list(docs)
        # each document's shape as the row where it first appears, then
        # shapes numbered in that order
        first: dict = {}
        at = np.fromiter(map(first.setdefault, map(tuple, docs),
                             itertools.count()), np.int64, len(docs))
        self.name, self.shapes = name, list(first)
        self.shape_ids = np.unique(at, return_inverse=True)[1].astype(np.int64)
        self.columns = _shred(docs, self.shapes, self.shape_ids)

    @classmethod
    def from_columns(cls, name: str, shapes: list, shape_ids: np.ndarray,
                     columns: dict) -> "Collection":
        """A collection over existing columns (shared, not copied)."""
        col = cls.__new__(cls)
        col.name, col.shapes, col.shape_ids, col.columns = \
            name, shapes, shape_ids, columns
        return col

    def __len__(self):
        return len(self.shape_ids)

    def take(self, idx) -> "Collection":
        return Collection.from_columns(
            self.name, self.shapes, self.shape_ids[idx],
            {k: c.take(idx) for k, c in self.columns.items()})

    def has(self, key: str) -> np.ndarray:
        """Mask of the documents that have the top-level key."""
        return np.array([key in s for s in self.shapes],
                        dtype=bool)[self.shape_ids]

    def path(self, path: str) -> tuple[Column, np.ndarray]:
        """The values at a dotted path and the mask of the documents that
        have it.  Below the top-level key the path is read per value, and
        only an object column can hold a nested document."""
        head, *rest = _split_path(path)
        n = len(self)
        col = self.columns.get(head)
        if col is None or rest and col.values.dtype != object:
            return Column(np.full(n, None, dtype=object)), np.zeros(n, bool)
        present = self.has(head)
        if not rest:
            return col, present
        get = compile_path(".".join(rest))
        values = list(map(get, col.values.tolist()))
        present &= np.fromiter((v is not ABSENT for v in values), bool, n)
        values = np.fromiter((None if v is ABSENT else v for v in values),
                             dtype=object, count=n)
        return Column(values, np.equal(values, None) & present), present

    @property
    def docs(self) -> list[dict]:
        n = len(self)
        values = {k: c.tolist() for k, c in self.columns.items()}
        out: list = [None] * n
        groups = [range(n)] if len(self.shapes) == 1 else \
            [r.tolist() for r in _shape_rows(self.shape_ids, len(self.shapes))]
        for rows, shape in zip(groups, self.shapes):
            cols = [list(map(values[k].__getitem__, rows)) for k in shape]
            for i, vs in zip(rows, zip(*cols) if cols else
                             itertools.repeat(())):
                out[i] = dict(zip(shape, vs))
        return out

    def __eq__(self, other):
        if not isinstance(other, Collection):
            return NotImplemented
        return self.name == other.name and self.docs == other.docs

    def __repr__(self):
        return f"Collection(name={self.name!r}, docs={self.docs!r})"


def _shape_rows(shape_ids: np.ndarray, nshapes: int) -> list[np.ndarray]:
    """The rows of each shape, in row order."""
    order = np.argsort(shape_ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(shape_ids,
                                                 minlength=nshapes))[:-1])


def _shred(docs: list[dict], shapes: list, shape_ids: np.ndarray) -> dict:
    """One column per key: each shape's documents give their values of each
    of its keys through one ``itemgetter``, and a key that not every
    document has is scattered to its documents' rows."""
    n = len(docs)
    if len(shapes) == 1:
        groups = [(None, docs)]
    else:
        groups = [(rows, [docs[i] for i in rows.tolist()])
                  for rows in _shape_rows(shape_ids, len(shapes))]
    parts: dict = {}  # key -> [(rows or None for all, values)]
    for (rows, group), shape in zip(groups, shapes):
        for key in shape:
            parts.setdefault(key, []).append(
                (rows, list(map(operator.itemgetter(key), group))))
    columns = {}
    for key, got in parts.items():
        if got[0][0] is None:  # one shape: every document has the key
            columns[key] = _value_column(got[0][1])
            continue
        col = _value_column([v for _, vs in got for v in vs])
        rows = np.concatenate([r for r, _ in got])
        values = np.zeros(n, dtype=col.values.dtype)
        values[rows] = col.values
        null = None
        if col.null is not None:
            null = np.zeros(n, dtype=bool)
            null[rows] = col.null
        columns[key] = Column(values, null)
    return columns


@dataclass(frozen=True)
class CellSchema:
    """Cell layout of an array: dimension names first, then value attributes."""

    dim_names: tuple[str, ...]
    attr_names: tuple[str, ...]
    attr_types: tuple[ValueType, ...]

    def __post_init__(self):
        if len(self.dim_names) < 1:
            raise ValueError("arrays need at least one dimension")
        all_names = self.dim_names + self.attr_names
        if len(set(all_names)) != len(all_names):
            raise ValueError(f"names not unique across dims and attrs: {all_names}")
        if len(self.attr_names) != len(self.attr_types):
            raise ValueError("attr_names and attr_types length mismatch")

    @property
    def d(self) -> int:
        return len(self.dim_names)


@dataclass(frozen=True)
class ArrayMeta:
    """Declared array extent and tiling. Coordinates are 0-based and must be
    strictly below size per dimension; size is metadata, never derived from
    the cells actually present."""

    schema: CellSchema
    size: tuple[int, ...]       # AS: length per dimension
    tile_size: tuple[int, ...]  # TS: tile extent per dimension
    layout: str = "dense"       # dense | coo | csr (per-array creation choice)
    seed: int | None = None     # recorded by rand() for reproducibility

    def __post_init__(self):
        d = self.schema.d
        if len(self.size) != d or len(self.tile_size) != d:
            raise ValueError("size/tile_size arity must match dimension count")
        if any(s < 0 for s in self.size) or any(t <= 0 for t in self.tile_size):
            raise ValueError("size must be >= 0 and tile_size positive")
        if self.layout not in ("dense", "coo", "csr"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.layout == "csr" and d != 2:
            raise ValueError("csr layout is 2-D only")

    @property
    def d(self) -> int:
        return self.schema.d

    @property
    def grid(self) -> tuple[int, ...]:
        """Tile count per dimension: ceil(size / tile_size)."""
        return tuple(-(-s // t) for s, t in zip(self.size, self.tile_size))


def tile_extent(size, default_tile: int) -> tuple[int, ...]:
    """Tile extent per dimension for an array the engine creates: each
    dimension's extent capped at ``default_tile``; 0 means one tile."""
    if default_tile <= 0:
        return tuple(size)
    return tuple(min(default_tile, s) for s in size)


def _split_path(path: str) -> list[str]:
    if not isinstance(path, str) or not path:
        raise PathError(f"empty path {path!r}")
    parts = path.split(".")
    if any(p == "" for p in parts):
        raise PathError(f"malformed path {path!r} (empty segment)")
    return parts


def compile_path(path: str, absent=ABSENT):
    """``doc -> value`` for a dotted path, split and validated here once
    rather than on every lookup.

    ``absent`` (ABSENT by default) comes back when a key along the path is
    missing or an intermediate value is not a document; a stored null comes
    back as None, which is different.
    """
    parts = _split_path(path)
    if len(parts) == 1:
        key = parts[0]
        return lambda doc: doc.get(key, absent) if isinstance(doc, dict) \
            else absent

    def get(doc):
        cur = doc
        for part in parts:
            if not isinstance(cur, dict) or part not in cur:
                return absent
            cur = cur[part]
        return cur
    return get


def compile_set(path: str):
    """``(doc, value) -> copy of doc with the value at path replaced``; the
    path must resolve."""
    *heads, last = _split_path(path)

    def set_value(doc: dict, value) -> dict:
        out = dict(doc)
        cur = out
        for part in heads:
            nxt = dict(cur[part])
            cur[part] = nxt
            cur = nxt
        cur[last] = value
        return out
    return set_value


# --- canonical text formats ------------------------------------------------

def _cell_to_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, dict)):
        return json.dumps(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _strict_bool(text: str) -> bool:
    # ValueError unless the text is true or false
    return bool(("false", "true").index(text.strip().lower()))


def _uint(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError(f"{text!r} is negative")
    return v


# cell text -> value for a declared type; an empty cell is null whatever the
# type, and a string cell is its text
_FROM_TEXT = {
    "int": int,
    "uint": _uint,
    "float": float,
    "bool": lambda t: t.strip().lower() == "true",
    "list": json.loads,
    "doc": json.loads,
}


def _convert(col: list[str], conv, vt: ValueType) -> Column:
    """``conv`` over a column of cell texts into a column of ``vt``, null
    for each empty cell.  Without an empty cell a typed column is filled
    straight from the conversions, as ``conv`` returns the type's own Python
    type."""
    if conv is None:  # string
        return object_column([t or None for t in col] if "" in col else col)
    if "" in col:
        return column_of([None if t == "" else conv(t) for t in col], vt)
    if vt.kind in _TYPED:
        try:
            return Column(np.fromiter(map(conv, col), _TYPED[vt.kind][0],
                                      len(col)))
        except OverflowError:  # an int beyond int64
            pass
    return column_of(list(map(conv, col)), vt)


def _infer_column(col: list[str]) -> tuple[ValueType, Column]:
    """Type and column of a column's cell texts: the first of bool, int and
    float that converts every non-empty cell, else string (also for no such
    cell).  The conversion that succeeds is the type check, so no cell is
    parsed again once its type is known."""
    if any(col):
        for vt, conv in ((BOOL, _strict_bool), (INT, int), (FLOAT, float)):
            try:
                return vt, _convert(col, conv, vt)
            except ValueError:
                pass
    return STRING, _convert(col, None, STRING)


def relation_to_csv(rel: Relation) -> str:
    """RFC-4180 CSV with the header row carrying attribute names."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(rel.attr_names)
    for row in rel.rows:
        w.writerow([_cell_to_text(v) for v in row])
    return buf.getvalue()


def infer_column_type(values) -> ValueType:
    """Cheapest type that holds every non-null Python value; FLOAT when
    there is none, and STRING for a mix no other type holds."""
    kinds = set()
    for t in set(map(type, values)) - {type(None)}:  # each type once
        if issubclass(t, bool):
            kinds.add("bool")
        elif issubclass(t, numbers.Integral):
            kinds.add("int")
        elif issubclass(t, numbers.Real):
            kinds.add("float")
        elif issubclass(t, str):
            kinds.add("string")
        elif issubclass(t, list):
            kinds.add("list")
        else:
            kinds.add("doc")
    if kinds == {"int"}:
        return INT
    if kinds <= {"int", "float"}:
        return FLOAT
    if kinds == {"bool"}:
        return BOOL
    if kinds == {"list"}:
        return ValueType("list")
    if kinds == {"doc"}:
        return ValueType("doc")
    return STRING


# rows taken from csv.reader at a time: only one chunk of row lists is held
# beside the column lists they are moved into, and a chunk stays below the
# 700 live containers (gc.get_threshold()[0]) that start a young collection
_CSV_CHUNK = 512


def _csv_row_line(text: str, index: int) -> int:
    """1-based first line of the index-th non-blank CSV row (0 is the
    header): the error path's way from a row back to its line."""
    reader = csv.reader(io.StringIO(text))
    start = 1
    for row in reader:
        if row:
            if index == 0:
                return start
            index -= 1
        start = reader.line_num + 1
    raise IndexError(index)


# the bytes of an all-integer CSV cell, taken out of the body to leave its
# commas and newlines, and a minus sign the C reader would read as 0
_INT_CELL_BYTES = b"0123456789-"
_BARE_MINUS = re.compile(rb"-(?![0-9])")
_INT64_MAX = np.iinfo(np.int64).max


def _read_ints(data: bytes, count: int) -> np.ndarray | None:
    """The ``count`` comma-separated ints of ``data`` read by one
    ``np.fromstring`` into int64, or None if it reads another number of
    them: numpy < 2 warns and stops short at an empty cell where numpy 2
    raises.  The reader gives int64's maximum for every int beyond int64,
    of either sign."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            values = np.fromstring(data, np.int64, sep=",")
    except ValueError:
        return None
    return values if len(values) == count else None


def _int_relation(text: str) -> Relation | None:
    """The relation of a CSV text whose cells are all integers, read by one
    ``np.fromstring`` over the body with its newlines turned into commas,
    or None for any other text, which then takes the Python path (and that
    names the line of a malformed row).

    The header line holds no quote or carriage return.  Guards hold the
    reader to what ``int()`` reads: (a) the body, outer blank lines dropped,
    less its digits and minus signs is ``k - 1`` commas and a newline per
    row for ``k`` header names, so it holds no other byte, ragged row or
    blank line; (b) every minus sign is followed by a digit, as the reader
    takes a lone one for 0; (c) the reader gives ``k`` values a row, as
    numpy < 2 warns and stops short at an empty cell where numpy 2 raises;
    (d) no value is int64's maximum, which the reader gives for every int
    beyond int64."""
    head, _, body = text.partition("\n")
    body = body.strip("\n")
    if not head or '"' in head or "\r" in head or not body \
            or not body.isascii():
        return None
    header = head.split(",")
    data = body.encode("ascii") + b"\n"
    row = b"," * (len(header) - 1) + b"\n"
    nrows = data.count(b"\n")
    if len(set(header)) != len(header) \
            or data.translate(None, _INT_CELL_BYTES) != row * nrows \
            or b"-" in data and _BARE_MINUS.search(data):
        return None
    values = _read_ints(data.replace(b"\n", b","), nrows * len(header))
    if values is None or (values == _INT64_MAX).any():
        return None
    return Relation.from_columns(
        [(h, INT) for h in header],
        [Column(c.copy()) for c in values.reshape(nrows, -1).T])


def relation_from_csv(text: str,
                      schema: list[tuple[str, ValueType]] | None = None,
                      name: str = "") -> Relation:
    """Parse canonical CSV a column at a time.

    Blank lines are skipped; every other row must have as many fields as
    the header.  An empty cell is null.  Without a declared schema each
    column's type is inferred (bool, then int, then float, else string),
    and so is each column a declared schema types ``None``.
    Malformed text raises DataFormatError with ``name`` and the 1-based
    line of the offending row.

    Without a declared schema, a text whose cells are all integers is read
    by one ``np.fromstring`` (``_int_relation``, under guards that hold it
    to ``int()``) into the same int64 columns; every other text, and every
    malformed one, takes the Python path.
    """
    if schema is None and (rel := _int_relation(text)) is not None:
        return rel
    reader = csv.reader(io.StringIO(text))
    try:
        rows = filter(None, reader)  # csv yields [] for a blank line
        header = next(rows, None)
        if header is None:
            raise DataFormatError("CSV needs at least a header row", name, 1)
        if len(set(header)) != len(header):
            raise DataFormatError(f"duplicate column names in {header}",
                                  name, reader.line_num)
        if schema is not None and [n for n, _ in schema] != header:
            raise DataFormatError("declared schema does not match CSV header",
                                  name, reader.line_num)
        ncols = len(header)
        cols: list = [[] for _ in header]  # cell texts, then Columns
        n = 0
        while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
            if set(map(len, chunk)) != {ncols}:
                bad = next(i for i, r in enumerate(chunk) if len(r) != ncols)
                raise DataFormatError(f"{len(chunk[bad])} fields, header has "
                                      f"{ncols}", name,
                                      _csv_row_line(text, n + bad + 1))
            for col, cells in zip(cols, zip(*chunk)):
                col.extend(cells)
            n += len(chunk)
    except csv.Error as e:
        raise DataFormatError(str(e), name, reader.line_num) from None
    types = [None] * ncols if schema is None else [vt for _, vt in schema]
    for j, (hname, vt) in enumerate(zip(header, types)):
        if vt is None:
            types[j], cols[j] = _infer_column(cols[j])
            continue
        conv = _FROM_TEXT.get(vt.kind)
        try:
            cols[j] = _convert(cols[j], conv, vt)
        except ValueError:
            bad = next(i for i, t in enumerate(cols[j])
                       if not _converts(conv, t))
            raise DataFormatError(f"column {hname!r}: {cols[j][bad]!r} is "
                                  f"not {vt}", name,
                                  _csv_row_line(text, bad + 1)) from None
    return Relation.from_columns(list(zip(header, types)), cols, n)


def csv_row_count(text: str, name: str = "") -> int:
    """``len(relation_from_csv(text, name=name))``.  A plain text is
    counted by its lines without being parsed: one without a quote, carriage
    return or NUL, whose header names are unique, whose every non-blank line
    has the header's comma count, and none longer than the csv module's
    field limit.  Newlines and commas are found by numpy over the text's
    UTF-8 bytes, where neither byte occurs inside another character.  Every
    other text is parsed, so a malformed one raises as the loader does."""
    data = text.encode("utf-8")
    if not any(c in data for c in (b'"', b"\r", b"\0")):
        b = np.frombuffer(data, np.uint8)
        ends = np.append(np.flatnonzero(b == ord("\n")), len(b))
        starts = np.append(0, ends[:-1] + 1)
        full = ends > starts
        starts, ends = starts[full], ends[full]
        if len(starts):
            commas = np.flatnonzero(b == ord(","))
            per_line = commas.searchsorted(ends) - commas.searchsorted(starts)
            header = data[starts[0]:ends[0]].decode().split(",")
            limit = csv.field_size_limit()
            long = (ends - starts) > limit  # in bytes; the limit is in chars
            if len(set(header)) == len(header) and \
                    (per_line == len(header) - 1).all() and \
                    all(len(data[i:j].decode()) <= limit
                        for i, j in zip(starts[long], ends[long])):
                return len(starts) - 1
    return len(relation_from_csv(text, name=name))


def _converts(conv, text: str) -> bool:
    try:
        conv(text)
    except ValueError:
        return False
    return True


def collection_to_jsonl(col: Collection) -> str:
    return "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in col.docs)


# A member of a flat object of numbers, after "{" or ",": the key, then its
# number (group 2) with the fraction (group 3) a float has, then "," or "}".
# A key holds no escape and none of "{}," so no literal piece of a line
# template can turn up in a line anywhere but in its own place.
_MEMBER = re.compile(r'[ \t]*"([^"\\\x00-\x1f{},]*)"[ \t]*:[ \t]*'
                     r'(-?(?:0|[1-9][0-9]*)(\.[0-9]+)?)[ \t]*([,}])')
# an int of at most 15 digits and a float without an exponent, both in the
# JSON number grammar; possessive, as the text after a number is never a
# digit or ".", so no match gives any of them back
_INT_LITERAL = "-?+(?:0|[1-9][0-9]{0,14}+)"
_FLOAT_LITERAL = r"-?+(?:0|[1-9][0-9]*+)\.[0-9]++"
# the bytes a number or a separator of the numbers is made of, and all others;
# the translate that keeps the first turns each newline into a comma
_NUMBER_CHARS = re.compile("[-.0-9]")
_NOT_NUMBER = bytes(sorted(set(range(256)) - set(b"0123456789.-,\n")))
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
# 10.0 ** w for the fraction widths w whose power float64 holds exactly
_POW10 = np.array([float(10 ** w) for w in range(23)])
# characters of whole lines read at a time: a chunk's copies of its text and
# its number arrays are the loader's transient memory beside the columns
_TEMPLATE_CHUNK = 1 << 17


def _line_template(line: str) -> tuple[list, list, list] | None:
    """(keys, whether each value is a float, literal pieces) of a line that
    is a flat JSON object of distinct plain keys and numbers without an
    exponent, else None.  ``pieces[i]`` is the text before the i-th value,
    and ``pieces[-1]`` the text after the last.  The template's regex then
    holds every line, the first included, to its literals."""
    if not line.startswith("{"):
        return None
    keys, floats, pieces = [], [], []
    start, pos, end = 0, 1, ","  # start: where the current piece begins
    while end == ",":
        m = _MEMBER.match(line, pos)
        if m is None or m[1] in keys:
            return None
        keys.append(m[1])
        floats.append(m[3] is not None)
        pieces.append(line[start:m.start(2)])
        start, pos, end = m.end(2), m.end(), m[4]
    if pos != len(line):
        return None
    pieces.append(line[start:])
    return keys, floats, pieces


def _template_collection(text: str, name: str) -> Collection | None:
    """The collection of a JSONL text whose every line has the shape of its
    first, read into typed columns without a dict, or None for any other
    text.

    The first line, taken as it is written, gives the template
    (``_line_template``): its key spellings, its separators and an int or
    float literal per value.  The text is read a chunk of whole lines at a
    time.  One regex of the template checks the chunk's lines.  The
    template's pieces are then cut out by one ``bytes.translate`` of its
    UTF-8 text that keeps only digits, ``.``, ``-`` and commas, newlines
    turned into commas; a piece whose key holds one of the first three is
    first replaced by its separator with ``str.replace`` (each piece turns
    up only in its own place, see ``_MEMBER``).  ``_number_columns`` reads
    the numbers.  The columns are those the per-line path gives."""
    first = text.find("\n")
    template = _line_template(text if first < 0 else text[:first])
    if template is None:
        return None
    keys, floats, pieces = template
    line = "".join(re.escape(p) + (_FLOAT_LITERAL if f else _INT_LITERAL)
                   for p, f in zip(pieces, floats)) + re.escape(pieces[-1])
    # possessive (Python 3.11): a greedy * keeps sre state for each line
    # until the match ends, some 14 bytes a character
    lines = re.compile(f"(?:{line}\n)*+(?:{line})?+")
    last = len(pieces) - 1
    # pieces whose key would survive the translate, and their separators
    cut = [(p, "," if 0 < i < last else "") for i, p in enumerate(pieces)
           if _NUMBER_CHARS.search(p)]
    parts = []  # each chunk's columns
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _TEMPLATE_CHUNK) + 1 or len(text)
        if lines.fullmatch(text, pos, end) is None:
            return None
        chunk = text[pos:end]
        for piece, sep in cut:
            chunk = chunk.replace(piece, sep)
        numbers = chunk.encode("utf-8", "surrogatepass").translate(
            _NEWLINE_TO_COMMA, _NOT_NUMBER)
        if (read := _number_columns(numbers, floats)) is None:
            return None
        parts.append(read)
        pos = end
    columns = [np.concatenate(c) for c in zip(*parts)]
    return Collection.from_columns(
        name, [tuple(keys)], np.zeros(len(columns[0]), np.int64),
        {k: Column(c) for k, c in zip(keys, columns)})


def _number_columns(numbers: bytes, floats: list[bool]) \
        -> list[np.ndarray] | None:
    """The columns of ``numbers``: JSON ints and exponent-free floats, each
    but perhaps the last ended by a comma, ``len(floats)`` to a row, the
    float ones where ``floats`` says.  None if the int reader gives another
    number of values.

    Every number is read, its ``.`` deleted, by one int64 ``_read_ints``.
    An int column is those values.  A float value is its mantissa ``m``
    over ``10.0 ** w`` for its ``w`` fraction digits, found from the k-th
    ``.``, which is the k-th float value's: that one division is the
    correctly rounded value when ``|m| <= 2 ** 53`` and ``w <= 22``, as
    both operands are then exact (Clinger's fast path).  Any other float,
    a saturated read (int64's maximum) among them, is read by ``float()``
    from its own bytes, and a zero mantissa written with ``-`` is -0.0."""
    b = np.frombuffer(numbers, np.uint8)
    ends = np.flatnonzero(b == ord(","))
    if not numbers.endswith(b","):
        ends = np.append(ends, len(b))
    values = _read_ints(numbers.translate(None, b"."), len(ends))
    if values is None:
        return None
    k = len(floats)
    values, at = values.reshape(-1, k), ends.reshape(-1, k)
    dots = iter(np.flatnonzero(b == ord(".")).reshape(len(values), -1).T)
    columns = []
    for j, f in enumerate(floats):
        m = values[:, j]
        if not f:
            columns.append(m)
            continue
        w = at[:, j] - next(dots) - 1
        x = m / _POW10[np.minimum(w, len(_POW10) - 1)]
        odd = np.flatnonzero((w >= len(_POW10)) | (np.abs(m) > 2 ** 53))
        for r, lo, hi in zip(odd.tolist(), _starts(ends, odd * k + j).tolist(),
                             at[odd, j].tolist()):
            x[r] = float(numbers[lo:hi])
        zero = np.flatnonzero(m == 0)
        x[zero[b[_starts(ends, zero * k + j)] == ord("-")]] = -0.0
        columns.append(x)
    return columns


def _starts(ends: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Where the values numbered ``v`` begin, given where each one ends."""
    return np.where(v > 0, ends[v - 1] + 1, 0)


def collection_from_jsonl(text: str, name: str = "") -> Collection:
    """One JSON object per line.

    Lines split on "\\n" only, so U+2028, U+0085 and the other breaks that
    ``str.splitlines`` knows stay inside a string.  Blank lines are skipped
    and " \\t\\r" around a line is ignored.  A line that is not exactly one
    JSON object raises DataFormatError with ``name`` and its 1-based line.

    A text whose lines all have the shape of its first, a flat object of
    ints and floats, is read through that line as a template
    (``_template_collection``) into the same columns, and no dict is built;
    every other text, and every malformed one, is decoded line by line.
    """
    col = _template_collection(text, name)
    return col if col is not None else _decode_lines(text, name)


def _decode_lines(text: str, name: str) -> Collection:
    """``collection_from_jsonl`` a line at a time: each line's dict from
    ``json``'s scanner, then the dicts shredded into columns."""
    scan = json.JSONDecoder().scan_once  # json.loads' C scanner
    docs = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip(" \t\r")
        if not line:
            continue
        try:
            doc, end = scan(line, 0)
        except StopIteration as e:
            msg, pos = "Expecting value", e.value
        except json.JSONDecodeError as e:
            msg, pos = e.msg, e.pos
        else:
            if end == len(line) and type(doc) is dict:
                docs.append(doc)
                continue
            msg, pos = (("Extra data", end) if end != len(line) else
                        (f"a JSON {type(doc).__name__}, not an object", 0))
        col = len(raw) - len(raw.lstrip(" \t\r")) + pos + 1
        raise DataFormatError(f"{msg} (column {col})", name, lineno)
    return Collection(name, docs)
