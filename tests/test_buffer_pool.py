"""Buffer pool behavior against a reference LRU-with-skip simulator.

The simulator below is written from the documented contract (list kept in
least-recently-used order, pinned entries skipped, partial evictions persist
even when the request ultimately fails) and deliberately shares no code with
the implementation.
"""

from __future__ import annotations

import random

import pytest

from multimodel.buffer_pool import BufferObject, BufferPool
from multimodel.errors import CapacityError, InternalError, TooLargeError


class SimPool:
    """Reference pool: ids in a plain list, LRU first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.order: list = []
        self.sizes: dict = {}
        self.pinned: set = set()
        self.log: list = []
        self.hits = 0
        self.misses = 0
        self.freed = 0  # bytes the last add evicted

    def free(self) -> int:
        return self.capacity - sum(self.sizes[i] for i in self.order)

    def _evict(self, need: int) -> str:
        self.freed = 0
        if self.free() >= need:
            return "ok"
        for i in list(self.order):
            if i in self.pinned:
                continue
            self.order.remove(i)
            self.freed += self.sizes.pop(i)
            self.log.append(i)
            if self.free() >= need:
                return "ok"
        return "capacity-error"

    def add(self, i, size: int) -> str:
        if size > self.capacity:
            return "too-large"
        status = self._evict(size)
        if status != "ok":
            return status
        self.order.append(i)
        self.sizes[i] = size
        return "ok"

    def get(self, i) -> bool:
        if i in self.sizes:
            self.hits += 1
            self.order.remove(i)
            self.order.append(i)
            return True
        self.misses += 1
        return False

    def drop(self, i) -> None:
        if i in self.sizes:
            self.order.remove(i)
            del self.sizes[i]


def _add(pool: BufferPool, i, size, pinned: set | None = None,
         log: list | None = None):
    """Register i; its eviction appends i to `log`."""
    evictable = (lambda: i not in pinned) if pinned is not None else (lambda: True)
    evict = (lambda: log.append(i)) if log is not None else (lambda: None)
    pool.add(BufferObject(id=i, size=size, is_evictable=evictable,
                          do_eviction=evict))


# ------------------------------------------------------------------ basics

def test_add_evicts_lru_first():
    pool, log = BufferPool(100), []
    _add(pool, "a", 60, log=log)
    _add(pool, "b", 60, log=log)
    assert pool.resident_ids() == ["b"]
    assert log == ["a"]


def test_add_pinned_blocks_eviction():
    pool = BufferPool(100)
    pinned = {"a"}
    _add(pool, "a", 60, pinned)
    with pytest.raises(CapacityError):
        _add(pool, "b", 60, pinned)
    assert pool.resident_ids() == ["a"]


def test_add_too_large():
    pool = BufferPool(100)
    with pytest.raises(TooLargeError):
        _add(pool, "a", 101)


def test_add_duplicate_id_is_internal_error():
    pool = BufferPool(100)
    _add(pool, "a", 10)
    with pytest.raises(InternalError):
        _add(pool, "a", 10)


def test_evict_strict_lru_order():
    pool, log = BufferPool(100), []
    for i in range(4):
        _add(pool, i, 25, log=log)
    _add(pool, "new", 50, log=log)
    assert log == [0, 1]
    assert pool.resident_ids() == [2, 3, "new"]


def test_evict_skips_unevictable_head():
    pool, log = BufferPool(100), []
    pinned = {"old"}
    _add(pool, "old", 40, pinned, log=log)
    _add(pool, "new", 40, pinned, log=log)
    _add(pool, "next", 30, pinned, log=log)
    assert log == ["new"]
    assert pool.resident_ids() == ["old", "next"]


def test_evict_reports_freed_on_failure():
    pool, log = BufferPool(100), []
    pinned = {"b"}
    _add(pool, "a", 30, pinned, log=log)
    _add(pool, "b", 30, pinned, log=log)
    with pytest.raises(CapacityError) as info:
        _add(pool, "c", 80, pinned, log=log)
    assert info.value.freed == 30
    assert log == ["a"]
    assert pool.resident_ids() == ["b"]


def test_evict_noop_when_already_free():
    pool, log = BufferPool(100), []
    _add(pool, "a", 10, log=log)
    _add(pool, "b", 50, log=log)
    assert log == [] and pool.stats().evictions == 0
    assert pool.resident_ids() == ["a", "b"]


# a hit is how an engine touches an object: it refreshes recency

def test_touch_changes_victim():
    pool, log = BufferPool(100), []
    _add(pool, "a", 50, log=log)
    _add(pool, "b", 50, log=log)
    assert pool.get("a") is not None
    _add(pool, "c", 1, log=log)
    assert log == ["b"]


def test_touch_unknown_id():
    pool = BufferPool(100)
    _add(pool, "a", 10)
    assert pool.get("ghost") is None
    assert pool.resident_ids() == ["a"]
    assert pool.stats().misses == 1


def test_touch_after_eviction_is_not_found():
    pool = BufferPool(100)
    _add(pool, "a", 60)
    _add(pool, "b", 60)
    assert pool.get("a") is None
    assert not pool.contains("a")


def test_get_counts_hits_and_misses():
    pool = BufferPool(100)
    _add(pool, "a", 10)
    assert pool.get("a") is not None
    assert pool.get("zz") is None
    s = pool.stats()
    assert (s.hits, s.misses) == (1, 1)


def test_do_eviction_called_exactly_once():
    pool = BufferPool(100)
    calls: list = []
    pool.add(BufferObject(id="a", size=60, do_eviction=lambda: calls.append("a")))
    pool.add(BufferObject(id="b", size=60, do_eviction=lambda: calls.append("b")))
    assert calls == ["a"]
    assert pool.stats().evictions == 1


def test_drop_skips_do_eviction():
    pool = BufferPool(100)
    calls: list = []
    pool.add(BufferObject(id="a", size=60, do_eviction=lambda: calls.append("a")))
    pool.drop("a")
    assert calls == []
    assert pool.resident_ids() == []


def test_do_eviction_never_called_when_unevictable():
    pool = BufferPool(100)
    calls: list = []
    pool.add(BufferObject(id="a", size=40, is_evictable=lambda: False,
                          do_eviction=lambda: calls.append("a")))
    _add(pool, "b", 40)
    with pytest.raises(CapacityError):
        _add(pool, "c", 70)
    assert calls == []
    assert pool.resident_ids() == ["a"]


# ---------------------------------------------- one pool vs. split pools
# a split pool is one BufferPool per owner, its quota as its capacity

def test_quota_confines_eviction_to_owner():
    def run(pools):
        log = []
        for owner, oid, size in [("rd", "r1", 40), ("arr", "a1", 30),
                                 ("arr", "a2", 30), ("arr", "a3", 30)]:
            _add(pools[owner], oid, size, log=log)
        return log

    unified = BufferPool(100)
    assert run({"arr": unified, "rd": unified}) == ["r1"]  # the LRU object
    arr, rd = BufferPool(60), BufferPool(40)
    assert run({"arr": arr, "rd": rd}) == ["a1"]  # never the other owner's
    assert (arr.resident_ids(), rd.resident_ids()) == (["a2", "a3"], ["r1"])


def test_quota_too_large_against_owner_cap():
    _add(BufferPool(100), "r", 50)
    with pytest.raises(TooLargeError):
        _add(BufferPool(40), "r", 50)


def test_split_fails_where_unified_succeeds():
    # same workload, same total capacity: split pools hit a capacity error
    def run(pool):
        pinned = {"a1", "a2"}
        _add(pool, "a1", 40, pinned)
        _add(pool, "a2", 40, pinned)

    run(BufferPool(100))  # fits: 80 <= 100
    with pytest.raises(CapacityError):
        run(BufferPool(50))  # the array owner's half


# -------------------------------------------------- simulator equivalence

def _add_as_sim(pool: BufferPool, sim: SimPool, i, size, pinned, log):
    """Add i to both pools; the outcome and the bytes evicted must agree."""
    expect = sim.add(i, size)
    try:
        _add(pool, i, size, pinned, log=log)
        got = "ok"
    except TooLargeError:
        got = "too-large"
    except CapacityError as e:
        got = "capacity-error"
        assert e.freed == sim.freed
    assert got == expect


def _mixed_workload(seed: int, events: int = 1000, capacity: int = 100):
    rng = random.Random(seed)
    pool = BufferPool(capacity)
    sim = SimPool(capacity)
    pinned: set = set()
    sim.pinned = pinned
    log: list = []
    next_id = 0

    for _ in range(events):
        op = rng.choices(
            ["add", "get", "pin", "unpin", "big-add", "drop"],
            weights=[40, 30, 10, 10, 5, 5],
        )[0]
        if op in ("add", "big-add"):
            i, next_id = next_id, next_id + 1
            # a big add may exceed the pool or need most of it freed
            size = rng.randint(1, 40 if op == "add" else capacity + 10)
            _add_as_sim(pool, sim, i, size, pinned, log)
        elif op == "get":
            i = rng.randrange(next_id) if next_id else 0
            assert (pool.get(i) is not None) == sim.get(i)
        elif op == "pin":
            ids = pool.resident_ids()
            if ids:
                pinned.add(rng.choice(ids))
        elif op == "unpin":
            if pinned:
                pinned.discard(rng.choice(sorted(pinned)))
        else:
            i = rng.randrange(next_id) if next_id else 0
            sim.drop(i)
            pool.drop(i)

        assert pool.resident_ids() == sim.order  # recency order, LRU first
        pool._audit()  # the full recount agrees with the O(1) counters

    return pool, sim, log


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_workload_matches_simulator(seed):
    pool, sim, log = _mixed_workload(seed)
    assert log == sim.log  # doEviction call sequence
    s = pool.stats()
    assert (s.hits, s.misses) == (sim.hits, sim.misses)
    assert s.resident_bytes == sum(sim.sizes[i] for i in sim.order)


# ------------------------------------------------------ O(1) bookkeeping

class _Counted(BufferObject):
    """Counts every attribute read the pool makes on a registered object."""

    reads = 0

    def __getattribute__(self, name):
        _Counted.reads += 1
        return object.__getattribute__(self, name)


def _visits_per_call(resident: int, calls: int = 200) -> tuple[int, int]:
    """Attribute reads of `calls` evicting adds and of `calls` hits on a
    full pool of `resident` objects."""
    pool = BufferPool(resident * 10)
    for i in range(resident):
        pool.add(_Counted(id=i, size=10))
    _Counted.reads = 0
    for i in range(resident, resident + calls):
        pool.add(_Counted(id=i, size=10))  # evicts the LRU object
    adds = _Counted.reads
    _Counted.reads = 0
    for i in range(resident, resident + calls):
        pool.get(i)
    return adds, _Counted.reads


def test_add_and_touch_visit_as_many_objects_at_1k_as_at_16k():
    small, large = _visits_per_call(1_000), _visits_per_call(16_000)
    assert small == large
    assert small[0] > 0


def test_raising_do_eviction_leaves_accounting_whole():
    pool, log = BufferPool(100), []

    def boom():
        raise RuntimeError("spill failed")

    _add(pool, "a", 30, log=log)
    pool.add(BufferObject(id="b", size=30, do_eviction=boom))
    _add(pool, "c", 30, log=log)
    with pytest.raises(RuntimeError):
        _add(pool, "d", 80, log=log)
    assert log == ["a"]  # evicted before the failure, and gone
    assert pool.resident_ids() == ["b", "c"]
    assert pool.stats().evictions == 1
    pool._audit()


@pytest.mark.parametrize("seed", [4, 5])
def test_split_pool_counters_match_full_recount(seed):
    rng = random.Random(seed)
    pools = {"arr": BufferPool(60), "rd": BufferPool(40)}
    pinned: set = set()
    for i in range(1500):
        op = rng.choice(["add", "add", "get", "pin", "big-add", "drop"])
        pool = pools[rng.choice(sorted(pools))]
        ids = pool.resident_ids()
        try:
            if op in ("add", "big-add"):
                size = rng.randint(1, 30 if op == "add" else pool.capacity)
                _add(pool, i, size, pinned)
            elif op == "get" and ids:
                pool.get(rng.choice(ids))
            elif op == "pin" and ids:
                pinned.symmetric_difference_update({rng.choice(ids)})
            elif op == "drop" and ids:
                pool.drop(rng.choice(ids))
        except CapacityError:
            pass
        for p in pools.values():
            p._audit()
