"""One buffer pool for everything.

Every engine in this package registers its memory objects (array tiles, hash
partitions, scratch blocks) with a single capacity-bounded LRU pool instead
of carving out private caches. This walks the core behaviours: recency-based
eviction, pinning via the is_evictable callback, and how one shared pool
compares with physically split pools of the same total size.

Run with:  python3 demos/01_buffer_pool.py
"""

from multimodel import BufferObject, BufferPool

spilled = []


def obj(oid, size, pinned=lambda: False):
    return BufferObject(oid, size, is_evictable=lambda: not pinned(),
                        do_eviction=lambda: spilled.append(oid))


# -- LRU eviction -------------------------------------------------------------

pool = BufferPool(capacity=1000)
pool.add(obj("a", 400))
pool.add(obj("b", 400))
pool.get("a")                      # refresh "a": now "b" is least recent
pool.add(obj("c", 400))            # needs 200 bytes -> evicts "b"
print("resident after adding c:", sorted(pool.resident_ids()))
print("evicted so far:         ", spilled)

# -- pinning ------------------------------------------------------------------

hold = {"on": True}
pool.add(obj("d", 400, pinned=lambda: hold["on"]))   # evicts "a" to fit
pool.add(obj("e", 400))            # "c" goes; "d" is pinned and skipped
print("pinned d survives:      ", sorted(pool.resident_ids()))
hold["on"] = False
pool.add(obj("f", 900))            # now everything else must go
print("after unpinning:        ", sorted(pool.resident_ids()))

s = pool.stats()
print(f"stats: hits={s.hits} misses={s.misses} evictions={s.evictions}")

# -- unified vs split ---------------------------------------------------------
# The same mixed workload, run once against a shared pool and once against
# one private pool per owner, each half the size. The split pools evict even
# though total demand fits.

workload = [("rel", f"r{i}", 120) for i in range(6)] + \
           [("arr", f"a{i}", 120) for i in range(2)]

shared = BufferPool(1000)
for label, pools in [("unified", {"rel": shared, "arr": shared}),
                     ("split", {"rel": BufferPool(500), "arr": BufferPool(500)})]:
    for owner, oid, size in workload:
        pools[owner].add(BufferObject(oid, size))
    stats = [p.stats() for p in set(pools.values())]
    print(f"{label:>7}: evictions={sum(s.evictions for s in stats)} "
          f"resident={sum(s.resident_bytes for s in stats)}B of 1000B")
