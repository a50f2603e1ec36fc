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

Safety gate — a stale plan can never bypass the verifier
--------------------------------------------------------

A cache is a second way for a plan to reach the executor, so it gets the
same fail-closed treatment as plan transport (PR 6): every entry records
the :class:`PrivacyCertificate` digest observed at insertion, and every
**hit re-derives the certificate** from the cached planning result and
compares digests (through :func:`repro.verify.gate`, the same check the
executor runs). Any mismatch — a tampered cached plan, a certificate
that no longer describes its plan, an analyzer upgrade that changed the
proof semantics — **evicts the entry and reports a miss**, forcing a
fresh plan; the stale plan is never returned, let alone executed. (The
executor's own pre-execution gate still runs afterwards; the cache check
just guarantees the planner search is only skipped for plans whose proof
still re-derives bit-identically.) The gate costs about 0.5 ms a plan
(plan checker plus dataflow pass) — two orders of magnitude cheaper than
the search it skips.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..analysis.types import QueryEnvironment
from ..planner.search import PlanningResult
from ..planner.serialize import query_fingerprint


@dataclass
class CacheStatistics:
    """Counters for the keyed plan cache (part of ServiceStatistics)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    stale_evictions: int = 0
    capacity_evictions: int = 0


@dataclass
class CacheEntry:
    planning: PlanningResult
    #: PrivacyCertificate digest recorded when the entry was stored;
    #: every hit must re-derive a certificate with this exact digest.
    certificate_digest: str


class PlanCache:
    """LRU cache of planning results, keyed by query fingerprint."""

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.statistics = CacheStatistics()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprint(self, source: str, env: QueryEnvironment) -> str:
        return query_fingerprint(source, env)

    # -------------------------------------------------------------- lookup

    def lookup(self, key: str) -> Optional[PlanningResult]:
        """Return the cached planning result for ``key``, re-validated.

        A hit re-derives the privacy certificate from the cached planning
        result and compares its digest against the one recorded at
        insertion; on mismatch the entry is evicted and the lookup is a
        miss (``stale_evictions`` counts it). The caller re-plans.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            if not self._validate(entry):
                del self._entries[key]
                self.statistics.stale_evictions += 1
                self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return entry.planning

    def _validate(self, entry: CacheEntry) -> bool:
        # The executor's gate: a dirty plan, or an attached certificate that
        # no longer re-derives, is a miss. The certificate it vouches for
        # must also be the one recorded at insertion. Import is local to
        # keep service importable without the verify stack at module-import
        # time (mirrors planner.search).
        from ..verify import PlanVerificationError, gate

        try:
            certificate = gate(entry.planning)
        except PlanVerificationError:
            return False
        return certificate.digest() == entry.certificate_digest

    # -------------------------------------------------------------- insert

    def store(self, key: str, planning: PlanningResult) -> bool:
        """Cache ``planning`` under ``key``; returns False if uncacheable.

        Only results carrying a derived privacy certificate are cached —
        without one there is nothing to re-validate hits against, so the
        plan must take the full planner + verifier path every time.
        """
        certificate = planning.privacy_certificate
        if certificate is None:
            return False
        with self._lock:
            self._entries[key] = CacheEntry(planning, certificate.digest())
            self._entries.move_to_end(key)
            self.statistics.inserts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.capacity_evictions += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
