"""The serving layer's plan cache.

``Mediator.query`` re-parses and re-optimizes every call, even for
byte-identical SQL.  The serving layer memoizes
:class:`~repro.mediator.optimizer.OptimizationResult` objects keyed by

* the :func:`~repro.mediator.queryspec.spec_fingerprint` of the
  normalized query (so ``FROM a, b`` and ``FROM b, a`` share one entry),
  and
* the :attr:`~repro.mediator.catalog.MediatorCatalog.version` the plan
  was optimized under — re-registering a wrapper bumps the version, so
  every plan chosen against the old statistics/cost rules is stale and
  is evicted on its next lookup.

A second, cheaper map short-circuits *parsing* too: byte-identical SQL
text resolves straight to its fingerprint without touching the SQL front
end (name resolution depends on the catalog, so this map is also
version-guarded).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.mediator.optimizer import OptimizationResult


@dataclass
class PlanCacheStats:
    """Hit/miss/invalidation counters of one plan cache."""

    hits: int = 0
    misses: int = 0
    #: Lookups that found an entry optimized under a stale catalog
    #: version (counted *in addition to* the miss they become).
    invalidations: int = 0
    #: SQL-text lookups that skipped the parser.
    sql_hits: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.invalidations} invalidated)"
        )


@dataclass
class _Entry:
    version: int
    optimized: OptimizationResult
    uses: int = 0


@dataclass
class _SqlEntry:
    version: int
    fingerprint: str


@dataclass
class PlanCache:
    """fingerprint → optimized plan, guarded by the catalog version."""

    max_entries: int = 256
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")
        self._plans: dict[str, _Entry] = {}
        self._sql: dict[str, _SqlEntry] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    # -- plans ---------------------------------------------------------------

    def lookup(self, fingerprint: str, version: int) -> OptimizationResult | None:
        """The cached plan for a fingerprint, if optimized under the
        current catalog version; stale entries are evicted on sight.

        A hit refreshes the entry's recency (dicts preserve insertion
        order, so re-inserting moves it to the end), making capacity
        eviction LRU rather than FIFO: a hot plan re-used every query is
        never the eviction victim.
        """
        with self._lock:
            entry = self._plans.get(fingerprint)
            if entry is not None and entry.version != version:
                del self._plans[fingerprint]
                self._drop_sql_for(fingerprint)
                self.stats.invalidations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            entry.uses += 1
            del self._plans[fingerprint]
            self._plans[fingerprint] = entry
            return entry.optimized

    def store(
        self, fingerprint: str, version: int, optimized: OptimizationResult
    ) -> None:
        with self._lock:
            if (
                fingerprint not in self._plans
                and len(self._plans) >= self.max_entries
            ):
                oldest = next(iter(self._plans))
                del self._plans[oldest]
                # Any SQL text still pointing at the evicted fingerprint
                # would resolve to a guaranteed plan miss (a dangling
                # fingerprint skips the parser only to miss the plan map);
                # drop those entries so the SQL falls back to a full
                # parse-and-store.
                self._drop_sql_for(oldest)
            self._plans[fingerprint] = _Entry(version=version, optimized=optimized)

    def _drop_sql_for(self, fingerprint: str) -> None:
        """Remove SQL-text entries resolving to an evicted fingerprint
        (caller holds the lock)."""
        dangling = [
            sql
            for sql, entry in self._sql.items()
            if entry.fingerprint == fingerprint
        ]
        for sql in dangling:
            del self._sql[sql]

    # -- the parse-skipping SQL text map --------------------------------------

    def fingerprint_for_sql(self, sql: str, version: int) -> str | None:
        """The fingerprint of byte-identical, already-seen SQL text.

        Hits refresh recency here too, so the SQL map's capacity
        eviction is LRU in step with the plan map.
        """
        with self._lock:
            entry = self._sql.get(sql)
            if entry is None or entry.version != version:
                return None
            self.stats.sql_hits += 1
            del self._sql[sql]
            self._sql[sql] = entry
            return entry.fingerprint

    def remember_sql(self, sql: str, fingerprint: str, version: int) -> None:
        with self._lock:
            if sql not in self._sql and len(self._sql) >= self.max_entries:
                oldest = next(iter(self._sql))
                del self._sql[oldest]
            self._sql[sql] = _SqlEntry(version=version, fingerprint=fingerprint)
