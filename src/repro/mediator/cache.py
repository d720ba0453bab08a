"""Subanswer memoization for wrapper subqueries.

Federated engines win by *reusing* work across subqueries (Odyssey-style
answer reuse): two Submit nodes with the same structural fingerprint
(:func:`repro.core.history.plan_fingerprint`) sent to the same wrapper
return the same rows, so the second dispatch can be answered from memory
at zero wrapper and communication cost.  The cache is keyed by
``(wrapper, fingerprint)`` — the same identity the §4.3.1 query-scope
history uses — and persists across queries within one executor, so
repeated federated queries stop re-shipping identical subanswers.

Hits are *not* re-recorded in the submit log: history already holds the
measured cost of the execution that populated the entry, and a zero-time
hit would corrupt those measurements.

Fault-tolerance contract (see ``docs/resilience.md``): only *complete,
successful* subanswers may enter the cache — a timed-out, transiently
failed, or mid-answer-truncated attempt must never be stored (the
scheduler only calls :meth:`SubanswerCache.store` on success, and
:meth:`store` refuses ``faulted=True`` as defense in depth).  Serving a
hit, on the other hand, deliberately bypasses the circuit breaker:
memoized rows came from a past healthy execution, and answering from
memory while the source is down is exactly the degraded-mode win.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.algebra.logical import PlanNode
from repro.core.history import plan_fingerprint
from repro.sources.pages import Row


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced in ``QueryResult`` and ``explain``."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def __str__(self) -> str:
        return f"{self.hits} hits / {self.misses} misses"


@dataclass
class CacheEntry:
    """One memoized subanswer."""

    rows: list[Row]
    #: Wrapper response time of the execution that filled the entry —
    #: kept for diagnostics; a hit charges none of it.
    wrapper_time_ms: float = 0.0
    uses: int = 0


class SubanswerCache:
    """Memoizes wrapper subanswers by plan fingerprint.

    ``max_entries`` bounds memory; insertion beyond the bound evicts the
    oldest entry (FIFO — deterministic, no clock dependence).
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Per-wrapper hit/miss breakdown (observability: the metrics
        #: registry exports cache behaviour per source, not just globally).
        self.stats_by_wrapper: dict[str, CacheStats] = {}
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        #: One cache may be shared by every query task of the serving
        #: layer; the lock keeps entry/stat mutation safe under
        #: interleaved multi-query access (the fair-share scheduler runs
        #: every task on one thread, so the lock is uncontended there —
        #: it protects direct multi-threaded use).
        self._lock = threading.Lock()

    def _wrapper_stats(self, wrapper: str) -> CacheStats:
        stats = self.stats_by_wrapper.get(wrapper)
        if stats is None:
            stats = self.stats_by_wrapper[wrapper] = CacheStats()
        return stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_for(wrapper: str, subplan: PlanNode) -> tuple[str, str]:
        return (wrapper, plan_fingerprint(subplan))

    def lookup(self, wrapper: str, subplan: PlanNode) -> CacheEntry | None:
        """Return the entry for a subquery, counting a hit or miss."""
        key = self.key_for(wrapper, subplan)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self._wrapper_stats(wrapper).misses += 1
                return None
            self.stats.hits += 1
            self._wrapper_stats(wrapper).hits += 1
            entry.uses += 1
            return entry

    def store(
        self,
        wrapper: str,
        subplan: PlanNode,
        rows: list[Row],
        wrapper_time_ms: float = 0.0,
        faulted: bool = False,
    ) -> CacheEntry:
        if faulted:
            # Defense in depth: rows from a timed-out or failed attempt
            # are an unusable prefix and must never be memoized.
            raise ValueError(
                "refusing to cache a subanswer from a faulted attempt "
                f"(wrapper {wrapper!r})"
            )
        key = self.key_for(wrapper, subplan)
        entry = CacheEntry(rows=list(rows), wrapper_time_ms=wrapper_time_ms)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = entry
        return entry

    def invalidate_wrapper(self, wrapper: str) -> int:
        """Drop every entry of one wrapper (re-registration changes data)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == wrapper]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubanswerCache({len(self)} entries, {self.stats})"
