from __future__ import annotations

import numpy as np
import pytest

from multimodel.array_store import ArrayBuilder
from multimodel.buffer_pool import BufferPool
from multimodel.models import ArrayMeta, CellSchema, ValueType
from multimodel.predicates import parse_predicate


@pytest.fixture
def pool():
    # plenty of room: most tests don't want eviction in the way
    return BufferPool(64 << 20)


def cell_schema(d: int = 2, attrs=(("value", "float"),)) -> CellSchema:
    return CellSchema(
        dim_names=tuple(f"dim{i}" for i in range(d)),
        attr_names=tuple(n for n, _ in attrs),
        attr_types=tuple(ValueType.parse(t) for _, t in attrs),
    )


def array_meta(size, tile_size, layout="dense", attrs=(("value", "float"),), seed=None):
    return ArrayMeta(cell_schema(len(size), attrs), tuple(size), tuple(tile_size),
                     layout=layout, seed=seed)


def dims_pred(arr, attrs):
    """The equi-join binding each of `arr`'s dimensions to the record
    attribute (or path) in its place in `attrs`, ``rec.<attr> = arr.<dim>``,
    under ``dispatch_join``'s default names."""
    return parse_predicate(" and ".join(
        f"rec.{a} = arr.{d}"
        for a, d in zip(attrs, arr.meta.schema.dim_names)))


_KINDS = {"i": "int", "u": "uint", "f": "float", "b": "bool"}


def built_tile(tc, ts, valid, attr_dtypes, layout, cc, values):
    """Tile `tc` of extent `ts` and valid extent `valid`, holding value
    columns `values` at the tile-relative coordinates `cc`, as
    ``ArrayBuilder`` builds it: the last tile of an array with no other
    cells."""
    size = tuple(c * t + v for c, t, v in zip(tc, ts, valid))
    attrs = tuple((f"value{k}", _KINDS[np.dtype(dt).kind])
                  for k, dt in enumerate(attr_dtypes))
    builder = ArrayBuilder(array_meta(size, ts, layout, attrs), BufferPool(1 << 40))
    cc = np.asarray(cc, dtype=np.int64).reshape(-1, len(ts))
    builder.add_cells(cc + np.multiply(tc, ts), values)
    with builder.finish().pinned(tc) as tile:
        return tile
