"""Thread-safe LRU cache for compiled plans, keyed by canonical fingerprint.

Compilation (lower → saturate → extract → lift) is orders of magnitude more
expensive than a cache probe, so a service that sees the same handful of
workload shapes over and over should pay for saturation once per shape.
The cache key is the canonical structural fingerprint of the expression
(:func:`repro.canonical.fingerprint.signature_of`): input names are
abstracted away, dimension sizes and sparsity hints are part of the key, so
"same shape of computation at the same data regime" is exactly one entry.

The cache is a plain LRU over an :class:`~collections.OrderedDict` guarded
by a re-entrant lock.  It counts only what it alone decides — its own LRU
evictions; whether a request was a hit, a template hit or a miss is known
only once the :class:`~repro.api.session.Session` has resolved it, so the
session counts those, once, in the :class:`CacheStats` it reports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class CacheStats:
    """How a :class:`~repro.api.session.Session`'s plan cache has been used."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: plans recompiled because observed input statistics drifted away from
    #: the hints the cost model optimized under
    recompiles: int = 0
    #: instance misses served by specializing a cached plan template of the
    #: same size-free digest (each also counts as a hit: the request was
    #: served from cached state, saturation was skipped)
    template_hits: int = 0
    #: adoptions of a pinned variant, and returns to the unpinned entry, by
    #: the plans of the entries cached now (an evicted entry takes its
    #: moves with it)
    pin_adoptions: int = 0
    pin_reverts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class PlanCache(Generic[T]):
    """A bounded, thread-safe LRU mapping fingerprints to cached plans.

    Lookup is **two-level** since the plan-template refactor: the primary
    map is still instance-digest → entry, but every insert may also
    register its entry under a size-free *template* digest.  An instance
    miss can then scan :meth:`template_candidates` for a guarded template
    of the same shape and insert a cheap specialization — the caller (the
    Session) owns the guard check; the cache only maintains the index.  The
    template index holds no entries of its own: it tracks exactly the
    instance keys currently cached, so eviction and :meth:`clear` keep both
    levels consistent.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        #: entries dropped by the LRU bound
        self.evictions = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, T]" = OrderedDict()
        #: template digest -> instance keys currently cached (insert order)
        self._templates: Dict[str, "OrderedDict[str, None]"] = {}
        #: instance key -> template digest it is registered under
        self._template_of: Dict[str, str] = {}

    def lookup(self, key: str) -> Optional[T]:
        """Return the cached value, refreshing its recency, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def insert(
        self, key: str, value: T, template_key: Optional[str] = None
    ) -> Tuple[T, bool]:
        """Insert ``value`` unless ``key`` is already present.

        Returns ``(entry, inserted)``: if another thread won the race the
        existing entry is returned and ``inserted`` is ``False``, so every
        caller ends up sharing one plan per fingerprint.  Evicts the least
        recently used entry when over capacity.  ``template_key`` registers
        the entry in the template index so later instance misses of the
        same size-free shape can find it.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing, False
            self._entries[key] = value
            if template_key:
                self._templates.setdefault(template_key, OrderedDict())[key] = None
                self._template_of[key] = template_key
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._unregister_template_locked(evicted_key)
                self.evictions += 1
            return value, True

    def _unregister_template_locked(self, key: str) -> None:
        """Drop one instance key from the template index (lock held)."""
        template_key = self._template_of.pop(key, None)
        if template_key is None:
            return
        members = self._templates.get(template_key)
        if members is not None:
            members.pop(key, None)
            if not members:
                del self._templates[template_key]

    def template_candidates(self, template_key: str) -> List[T]:
        """Cached entries registered under a template digest, newest first.

        The caller scans these for one whose guard admits the requested
        instance; "newest first" makes the scan touch the most recently
        compiled (and most likely still-relevant) specialization first.
        """
        with self._lock:
            members = self._templates.get(template_key)
            if not members:
                return []
            return [
                self._entries[key]
                for key in reversed(members)
                if key in self._entries
            ]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._templates.clear()
            self._template_of.clear()

    def values(self) -> List[T]:
        """Cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def keys(self) -> List[str]:
        """Fingerprints currently cached, least recently used first."""
        with self._lock:
            return list(self._entries.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
