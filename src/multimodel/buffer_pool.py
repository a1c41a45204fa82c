"""Unified buffer pool: one capacity-bounded LRU registry shared by every engine.

Engines register memory objects with a size and two callbacks:
``is_evictable`` (consulted before eviction; pinned tiles return False) and
``do_eviction`` (spill/teardown, invoked exactly once per evicted object).
Recency is the registry's order (an ``OrderedDict``, least recently used
first), so tests are deterministic.

Bookkeeping is O(1) per call: resident bytes are counted as objects come and
go, a hit moves one entry to the MRU end, and eviction walks from the LRU end
only as far as it must.  ``add`` checks only the O(1) invariant (resident
bytes within capacity); ``_audit()`` recounts everything and is
the oracle the simulator tests call after every operation.

Callbacks run while the pool holds its internal lock and therefore must not
call back into the pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable

from .errors import CapacityError, InternalError, TooLargeError

__all__ = ["BufferObject", "BufferPool", "PoolStats"]


def _always() -> bool:
    return True


def _noop() -> None:
    return None


@dataclass
class BufferObject:
    """A registered memory object. id must be hashable and unique."""

    id: Any
    size: int
    payload: Any = None
    is_evictable: Callable[[], bool] = _always
    do_eviction: Callable[[], None] = _noop

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("buffer object size must be positive")


@dataclass
class PoolStats:
    capacity: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    resident_bytes: int = 0
    resident_count: int = 0

    def snapshot(self) -> "PoolStats":
        return replace(self)


class BufferPool:
    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._objects: OrderedDict[Any, BufferObject] = OrderedDict()  # LRU first
        self._stats = PoolStats(capacity=capacity)

    # -- helpers (lock held) --------------------------------------------

    def _insert(self, obj: BufferObject) -> None:
        self._objects[obj.id] = obj
        self._stats.resident_bytes += obj.size
        self._stats.resident_count += 1

    def _remove(self, obj: BufferObject) -> None:
        del self._objects[obj.id]
        self._stats.resident_bytes -= obj.size
        self._stats.resident_count -= 1

    def _check(self) -> None:
        """The O(1) invariant: the pool within capacity."""
        used = self._stats.resident_bytes
        if used > self.capacity:
            raise InternalError(f"resident {used} exceeds capacity {self.capacity}")

    def _audit(self) -> None:
        """Recount every resident object and compare with the counters."""
        total = sum(o.size for o in self._objects.values())
        if (total, len(self._objects)) != (self._stats.resident_bytes,
                                           self._stats.resident_count):
            raise InternalError("resident byte accounting drifted")
        if total > self.capacity:
            raise InternalError(f"resident {total} exceeds capacity {self.capacity}")

    def _evict_locked(self, need: int) -> None:
        """Walk LRU order, skipping objects whose is_evictable() says no,
        until free space >= need."""
        free = self.capacity - self._stats.resident_bytes
        if free >= need:
            return
        victims: list[BufferObject] = []
        freed = 0
        try:
            for obj in self._objects.values():  # LRU -> MRU
                if not obj.is_evictable():
                    continue
                obj.do_eviction()
                victims.append(obj)
                freed += obj.size
                if free + freed >= need:
                    return
        finally:
            # the walk must not change the dict it iterates; a raising
            # do_eviction still leaves the objects evicted before it removed
            for obj in victims:
                self._remove(obj)
            self._stats.evictions += len(victims)
        raise CapacityError(
            f"cannot free {need} bytes (freed {freed}, nothing else evictable)",
            freed=freed,
        )

    # -- public API ------------------------------------------------------

    def add(self, obj: BufferObject) -> None:
        """Register obj, evicting first if the capacity would be exceeded."""
        with self._lock:
            if obj.id in self._objects:
                raise InternalError(f"duplicate buffer object id {obj.id!r}")
            if obj.size > self.capacity:
                raise TooLargeError(
                    f"object of {obj.size} bytes exceeds capacity {self.capacity}")
            self._evict_locked(obj.size)
            self._insert(obj)
            self._check()

    def get(self, id: Any) -> BufferObject | None:
        """Lookup with hit/miss accounting; a hit refreshes recency."""
        with self._lock:
            obj = self._objects.get(id)
            if obj is None:
                self._stats.misses += 1
                return None
            self._stats.hits += 1
            self._objects.move_to_end(id)
            return obj

    def contains(self, id: Any) -> bool:
        with self._lock:
            return id in self._objects

    def drop(self, id: Any) -> None:
        """Deregister without invoking do_eviction (owner-initiated release)."""
        with self._lock:
            obj = self._objects.get(id)
            if obj is not None:
                self._remove(obj)

    def resident_ids(self) -> list[Any]:
        """Ids in LRU -> MRU order (oldest first)."""
        with self._lock:
            return list(self._objects.keys())

    def stats(self) -> PoolStats:
        with self._lock:
            return self._stats.snapshot()

    def reset_stats(self) -> None:
        with self._lock:
            s = self._stats
            s.hits = s.misses = s.evictions = 0
