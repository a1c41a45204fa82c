"""Tiled, pool-managed arrays.

An array is declared metadata (size, tile extent, per-tile layout) plus a set
of populated cells. Tiles live in the shared buffer pool and spill to disk
under pressure; readers pin a tile, work on it, and unpin. The same logical
content can be stored dense, as coordinate lists, or CSR per tile.

Run with:  python3 demos/02_tiled_arrays.py
"""

import tempfile

import numpy as np

from multimodel import (
    ArrayBuilder,
    ArrayMeta,
    BufferPool,
    CellSchema,
    StoredArray,
    matmul,
    to_relation,
    transpose,
)
from multimodel.models import FLOAT

pool = BufferPool(64 << 20)
schema = CellSchema(dim_names=("row", "col"), attr_names=("val",),
                    attr_types=(FLOAT,))

rng = np.random.default_rng(7)
coords = rng.choice(40 * 40, size=120, replace=False)
coords = np.stack([coords // 40, coords % 40], axis=1)
vals = rng.random(120)

arrays = {}
for layout in ("dense", "coo", "csr"):
    meta = ArrayMeta(schema, size=(40, 40), tile_size=(16, 16), layout=layout)
    b = ArrayBuilder(meta, pool, name=f"m_{layout}")
    b.add_cells(coords, [vals])
    arrays[layout] = b.finish()

for layout, a in arrays.items():
    sizes = [a.pin(tc).nbytes for tc in a.tile_coords()]
    for tc in a.tile_coords():
        a.unpin(tc)
    print(f"{layout:>5}: grid={a.meta.grid} cells={a.cell_count()} "
          f"tile bytes={sizes}")

# identical content regardless of layout
assert (to_relation(arrays["dense"]) == to_relation(arrays["coo"])
        == to_relation(arrays["csr"]))
print("all three layouts hold the same cells")

# point lookups pin exactly one tile
a = arrays["csr"]
a.reset_io_stats()
tc = tuple(int(c) // 16 for c in coords[0])
tile = a.pin(tc)
found, (value,) = tile.lookup(tuple(coords[:1].T % 16))  # one array per dim
print("cell", tuple(map(int, coords[0])), "->",
      value[0] if found[0] else "absent")
a.unpin(tc)
print("pins for one lookup:", a.total_pins)

# -- persistence --------------------------------------------------------------

with tempfile.TemporaryDirectory() as d:
    path = f"{d}/m.m2ar"
    arrays["coo"].save(path)
    back = StoredArray.load(path, pool)
    assert to_relation(back) == to_relation(arrays["coo"])
    print("save/load round-trips; descriptor:", back.descriptor())

# -- operators ----------------------------------------------------------------
# matmul pins tile pairs along the shared axis; nothing is ever fully
# materialized as one numpy array.

pool.reset_stats()
prod = matmul(arrays["dense"], transpose(arrays["dense"]))
print(f"A @ A.T -> size={prod.meta.size} cells={prod.cell_count()} "
      f"pool evictions={pool.stats().evictions}")
