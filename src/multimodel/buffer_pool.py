"""Unified buffer pool: one capacity-bounded LRU registry shared by every engine.

Engines register memory objects with size, owner tag and two callbacks:
``is_evictable`` (consulted before eviction; pinned tiles return False) and
``do_eviction`` (spill/teardown, invoked exactly once per evicted object).
Recency is the registry's order (an ``OrderedDict``, least recently used
first), so tests are deterministic.

Bookkeeping is O(1) per call: resident bytes are counted in total and per
owner, a hit or touch moves one entry to the MRU end, and eviction walks
from the LRU end only as far as it must.  ``add``/``evict``/``touch``/
``drop`` check only the O(1) invariants (resident bytes within capacity,
each owner within its quota); ``_audit()`` recounts everything and is the
oracle the simulator tests call after every operation.

Callbacks run while the pool holds its internal lock and therefore must not
call back into the pool.

An optional per-owner quota map simulates physically split pools: with quotas,
capacity accounting and eviction scans are confined to the owner's objects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
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
        self._objects: OrderedDict[Any, BufferObject] = OrderedDict()  # LRU first
        self._owner_bytes: dict[str, int] = {}
        self._stats = PoolStats(capacity=capacity)

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
        return self._owner_bytes.get(owner, 0)

    def _insert(self, obj: BufferObject) -> None:
        self._objects[obj.id] = obj
        self._owner_bytes[obj.owner] = self._owner_bytes.get(obj.owner, 0) + obj.size
        self._stats.resident_bytes += obj.size
        self._stats.resident_count += 1

    def _remove(self, obj: BufferObject) -> None:
        del self._objects[obj.id]
        self._owner_bytes[obj.owner] -= obj.size
        self._stats.resident_bytes -= obj.size
        self._stats.resident_count -= 1

    def _check(self, owner: str) -> None:
        """The O(1) invariants: the pool within capacity, `owner` within its
        quota."""
        used = self._stats.resident_bytes
        if used > self.capacity:
            raise InternalError(f"resident {used} exceeds capacity {self.capacity}")
        if self.quotas is not None and owner in self.quotas:
            used, cap = self._owner_bytes.get(owner, 0), self.quotas[owner]
            if used > cap:
                raise InternalError(f"owner {owner!r} exceeds quota: {used} > {cap}")

    def _audit(self) -> None:
        """Recount every resident object and compare with the counters."""
        total, count, by_owner = 0, 0, {}
        for o in self._objects.values():
            total += o.size
            count += 1
            by_owner[o.owner] = by_owner.get(o.owner, 0) + o.size
        if (total, count) != (self._stats.resident_bytes, self._stats.resident_count):
            raise InternalError("resident byte accounting drifted")
        if by_owner != {k: v for k, v in self._owner_bytes.items() if v}:
            raise InternalError("per-owner byte accounting drifted")
        if total > self.capacity:
            raise InternalError(f"resident {total} exceeds capacity {self.capacity}")
        for owner, cap in (self.quotas or {}).items():
            if by_owner.get(owner, 0) > cap:
                raise InternalError(
                    f"owner {owner!r} exceeds quota: {by_owner[owner]} > {cap}")

    def _evict_locked(self, need: int, owner: str | None) -> int:
        """Walk LRU order (restricted to owner under quotas), skipping objects
        whose is_evictable() says no, until free space >= need."""
        cap = self.capacity if owner is None else self._scope_cap(owner)
        used = self._stats.resident_bytes if owner is None else self._scope_bytes(owner)
        if cap - used >= need:
            return 0
        scoped = owner is not None and self.quotas is not None
        victims: list[BufferObject] = []
        freed = 0
        try:
            for obj in self._objects.values():  # LRU -> MRU
                if scoped and obj.owner != owner:
                    continue
                if not obj.is_evictable():
                    continue
                obj.do_eviction()
                victims.append(obj)
                freed += obj.size
                if cap - (used - freed) >= need:
                    return freed
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
            cap = self._scope_cap(obj.owner)
            if obj.size > cap:
                raise TooLargeError(f"object of {obj.size} bytes exceeds capacity {cap}")
            scope = None if self.quotas is None else obj.owner
            self._evict_locked(obj.size, scope)
            self._insert(obj)
            self._check(obj.owner)

    def evict(self, need: int, owner: str | None = None) -> int:
        """Free at least `need` bytes; returns bytes actually freed."""
        with self._lock:
            cap = self.capacity
            if owner is not None and self.quotas is not None:
                cap = self._scope_cap(owner)
            if need > cap:
                raise CapacityError(f"need {need} exceeds capacity {cap}", freed=0)
            freed = self._evict_locked(need, owner)
            self._check(owner)
            return freed

    def touch(self, id: Any) -> None:
        """Mark object as most recently used."""
        with self._lock:
            obj = self._objects.get(id)
            if obj is None:
                raise NotFoundError(f"buffer object {id!r} not registered")
            self._objects.move_to_end(id)
            self._check(obj.owner)

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
                self._check(obj.owner)

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
