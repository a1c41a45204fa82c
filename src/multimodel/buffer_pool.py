"""Unified buffer pool: one capacity-bounded LRU registry shared by every engine.

Engines register memory objects with size, owner tag and two callbacks:
``is_evictable`` (consulted before eviction; pinned tiles return False) and
``do_eviction`` (spill/teardown, invoked exactly once per evicted object).
Recency is the registry dict's insertion order, so tests are deterministic.

Callbacks run while the pool holds its internal lock and therefore must not
call back into the pool.

An optional per-owner quota map simulates physically split pools: with quotas,
capacity accounting and eviction scans are confined to the owner's objects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .errors import CapacityError, InternalError, NotFoundError, TooLargeError

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
    owner: str = "anon"
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
    def __init__(self, capacity: int, quotas: dict[str, int] | None = None):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        if quotas is not None and sum(quotas.values()) > capacity:
            raise ValueError("owner quotas exceed pool capacity")
        self.capacity = capacity
        self.quotas = dict(quotas) if quotas else None
        self._lock = threading.Lock()
        self._objects: dict[Any, BufferObject] = {}  # insertion order == LRU order
        self._stats = PoolStats(capacity=capacity)
        self.eviction_log: list[Any] = []  # ids in eviction order, for test oracles

    # -- helpers (lock held) --------------------------------------------

    def _scope_cap(self, owner: str) -> int:
        if self.quotas is None:
            return self.capacity
        try:
            return self.quotas[owner]
        except KeyError:
            raise ValueError(f"owner {owner!r} has no quota in split mode") from None

    def _scope_bytes(self, owner: str) -> int:
        if self.quotas is None:
            return self._stats.resident_bytes
        return sum(o.size for o in self._objects.values() if o.owner == owner)

    def _to_mru(self, obj: BufferObject) -> None:
        # dict preserves insertion order; re-insert to move to MRU position
        del self._objects[obj.id]
        self._objects[obj.id] = obj

    def _audit(self) -> None:
        total = sum(o.size for o in self._objects.values())
        if total != self._stats.resident_bytes:
            raise InternalError("resident byte accounting drifted")
        if total > self.capacity:
            raise InternalError(f"resident {total} exceeds capacity {self.capacity}")
        if self.quotas is not None:
            for owner, cap in self.quotas.items():
                used = self._scope_bytes(owner)
                if used > cap:
                    raise InternalError(f"owner {owner!r} exceeds quota: {used} > {cap}")

    def _evict_locked(self, need: int, owner: str | None) -> int:
        """Walk LRU order (restricted to owner under quotas), skipping objects
        whose is_evictable() says no, until free space >= need."""
        cap = self.capacity if owner is None else self._scope_cap(owner)
        used = self._stats.resident_bytes if owner is None else self._scope_bytes(owner)
        freed = 0
        if cap - used >= need:
            return 0
        for obj in list(self._objects.values()):  # dict order == LRU -> MRU
            if owner is not None and self.quotas is not None and obj.owner != owner:
                continue
            if not obj.is_evictable():
                continue
            obj.do_eviction()
            self._stats.evictions += 1
            self.eviction_log.append(obj.id)
            del self._objects[obj.id]
            self._stats.resident_bytes -= obj.size
            self._stats.resident_count -= 1
            freed += obj.size
            used -= obj.size
            if cap - used >= need:
                return freed
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
            cap = self._scope_cap(obj.owner)
            if obj.size > cap:
                raise TooLargeError(f"object of {obj.size} bytes exceeds capacity {cap}")
            scope = None if self.quotas is None else obj.owner
            self._evict_locked(obj.size, scope)
            self._objects[obj.id] = obj
            self._stats.resident_bytes += obj.size
            self._stats.resident_count += 1
            self._audit()

    def evict(self, need: int, owner: str | None = None) -> int:
        """Free at least `need` bytes; returns bytes actually freed."""
        with self._lock:
            cap = self.capacity
            if owner is not None and self.quotas is not None:
                cap = self._scope_cap(owner)
            if need > cap:
                raise CapacityError(f"need {need} exceeds capacity {cap}", freed=0)
            freed = self._evict_locked(need, owner)
            self._audit()
            return freed

    def touch(self, id: Any) -> None:
        """Mark object as most recently used."""
        with self._lock:
            obj = self._objects.get(id)
            if obj is None:
                raise NotFoundError(f"buffer object {id!r} not registered")
            self._to_mru(obj)
            self._audit()

    def get(self, id: Any) -> BufferObject | None:
        """Lookup with hit/miss accounting; a hit refreshes recency."""
        with self._lock:
            obj = self._objects.get(id)
            if obj is None:
                self._stats.misses += 1
                return None
            self._stats.hits += 1
            self._to_mru(obj)
            return obj

    def contains(self, id: Any) -> bool:
        with self._lock:
            return id in self._objects

    def drop(self, id: Any) -> None:
        """Deregister without invoking do_eviction (owner-initiated release)."""
        with self._lock:
            obj = self._objects.pop(id, None)
            if obj is not None:
                self._stats.resident_bytes -= obj.size
                self._stats.resident_count -= 1
            self._audit()

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
            self.eviction_log.clear()
