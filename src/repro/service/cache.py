"""Keyed plan cache: repeated query shapes skip the planner search.

Production traffic repeats itself — the same dashboard query arrives
from the same tenant every few minutes — and the planner's
branch-and-bound search is the most expensive CPU stage of a submission.
The cache keys each planned query by
:func:`repro.planner.serialize.query_fingerprint`: a SHA-256 over the
**normalized** query IR (simplified AST, line numbers stripped) plus
every environment field that can steer planning (device count, ε/δ,
sensitivity, encoding, element range, budget class, scheme
availability). Collisions are exact-shape by construction: anything that
could change the chosen plan changes the key.

The executor's gate checks every plan the cache returns.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..planner.search import PlanningResult

# The service keys its lookups with this name, looked up on this module:
# bench/trace.py wraps it here for ``planner.serialize_s``.
from ..planner.serialize import query_fingerprint  # noqa: F401  verify: allow(no-unused-imports)


@dataclass
class CacheStatistics:
    """Counters for the keyed plan cache (part of ServiceStatistics)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    capacity_evictions: int = 0


class PlanCache:
    """LRU cache of planning results, keyed by query fingerprint."""

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, PlanningResult]" = OrderedDict()
        self.statistics = CacheStatistics()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str) -> Optional[PlanningResult]:
        """Return the cached planning result for ``key``, or None."""
        with self._lock:
            planning = self._entries.get(key)
            if planning is None:
                self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return planning

    def store(self, key: str, planning: PlanningResult) -> None:
        """Cache ``planning`` under ``key``, evicting the least recent past
        ``max_entries``."""
        with self._lock:
            self._entries[key] = planning
            self._entries.move_to_end(key)
            self.statistics.inserts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.capacity_evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
