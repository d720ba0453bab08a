"""The mediator catalog (§2.1).

"Schema and cost information are stored in the mediator catalog."  The
catalog remembers, per registered wrapper: which collections it serves,
its capabilities, and its exported statistics; plus the attribute lists
needed to resolve unqualified names in queries.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.statistics import CollectionStats, StatisticsCatalog
from repro.errors import UnknownAttributeError, UnknownCollectionError
from repro.mediator.calibration import (
    CalibrationOverlay,
    CalibrationState,
    CoefficientKey,
    CoefficientUpdate,
)
from repro.wrappers.base import Wrapper

#: Sentinel "wrapper" name carried by the logical entry of a partitioned
#: collection that has no physical collection of its own.  Never a real
#: wrapper — the optimizer routes partitioned collections through the
#: scatter access path before any wrapper lookup happens.
PARTITIONED_WRAPPER = "<partitioned>"


@dataclass
class CollectionEntry:
    """What the catalog knows about one collection."""

    name: str
    wrapper: str
    attributes: tuple[str, ...] = ()
    has_statistics: bool = False


@dataclass(frozen=True)
class Shard:
    """One physical fragment of a partitioned collection."""

    #: Physical collection name the shard's wrapper serves.
    collection: str
    #: Wrapper instance holding the fragment.
    wrapper: str


@dataclass(frozen=True)
class PartitionScheme:
    """Hash or range partitioning of one logical collection over N shards.

    ``kind="hash"`` routes a shard-key value to ``shard_index(value)``;
    only equality predicates on the shard key prune.  ``kind="range"``
    splits the key domain at ``boundaries`` (ascending; ``len(shards)-1``
    values; shard *i* holds ``boundaries[i-1] <= v < boundaries[i]``), so
    both equality and range predicates prune.
    """

    collection: str
    shard_key: str
    shards: tuple[Shard, ...]
    kind: str = "hash"
    boundaries: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError(f"partition of {self.collection!r} needs >= 1 shard")
        if self.kind not in ("hash", "range"):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.kind == "range":
            if len(self.boundaries) != len(self.shards) - 1:
                raise ValueError(
                    f"range partition of {self.collection!r} needs "
                    f"{len(self.shards) - 1} boundaries, got {len(self.boundaries)}"
                )
            if list(self.boundaries) != sorted(self.boundaries):
                raise ValueError("range boundaries must be ascending")
        elif self.boundaries:
            raise ValueError("hash partitions take no boundaries")
        names = [shard.collection for shard in self.shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard collections in {names}")

    def shard_index(self, value: Any) -> int:
        """The shard owning a shard-key value.

        Hashing is deterministic across processes (builtin ``hash`` is
        salted per run): integers route by modulo, everything else by
        CRC-32 of the string form.
        """
        n = len(self.shards)
        if self.kind == "range":
            return bisect.bisect_right(list(self.boundaries), value)
        if isinstance(value, bool) or not isinstance(value, int):
            return zlib.crc32(str(value).encode("utf-8")) % n
        return value % n

    def shards_for_equality(self, value: Any) -> tuple[int, ...]:
        """Shard indices that may hold rows with ``shard_key == value``."""
        return (self.shard_index(value),)

    def shards_for_range(
        self, low: Any | None, high: Any | None
    ) -> tuple[int, ...]:
        """Shard indices overlapping ``low <= shard_key <= high``.

        Conservative (never drops a shard that could match); open bounds
        are ``None``.  Hash partitioning cannot prune ranges: all shards.
        """
        if self.kind != "range":
            return tuple(range(len(self.shards)))
        lo = 0 if low is None else self.shard_index(low)
        hi = len(self.shards) - 1 if high is None else self.shard_index(high)
        return tuple(range(lo, hi + 1))


@dataclass
class MediatorCatalog:
    """Registered wrappers and the global collection namespace."""

    statistics: StatisticsCatalog = field(default_factory=StatisticsCatalog)
    _wrappers: dict[str, Wrapper] = field(default_factory=dict)
    _collections: dict[str, CollectionEntry] = field(default_factory=dict)
    _partitions: dict[str, PartitionScheme] = field(default_factory=dict)
    #: Monotonic change counter, bumped on every mutation that can alter
    #: what the optimizer would choose (wrapper/collection membership,
    #: statistics, calibration overlays).  Plan caches key on it: a
    #: cached plan is only valid while the catalog version it was
    #: optimized under is current.
    version: int = 0
    #: Versioned online-calibration overlay history (§4.3 feedback loop).
    calibration: CalibrationState = field(default_factory=CalibrationState)
    #: Replica sets: primary wrapper name -> ordered replica wrapper names.
    _replicas: dict[str, list[str]] = field(default_factory=dict)
    #: Reverse map: replica member name -> its primary.
    _replica_primary: dict[str, str] = field(default_factory=dict)

    # -- calibration -------------------------------------------------------------

    def apply_calibration(
        self,
        updates: "dict[CoefficientKey, float] | list[CoefficientUpdate]",
        note: str = "",
    ) -> CalibrationOverlay:
        """Install a new calibration overlay version.

        Bumps :attr:`version`: every cached plan was costed under the
        previous coefficients and is now stale.
        """
        overlay = self.calibration.apply(updates, note=note)
        self.version += 1
        return overlay

    def rollback_calibration(self, version: int) -> CalibrationOverlay:
        """Re-activate a prior overlay version (0 = identity/seed).

        Bumps :attr:`version` for the same staleness reason as apply.
        """
        overlay = self.calibration.rollback(version)
        self.version += 1
        return overlay

    # -- wrappers ---------------------------------------------------------------

    def add_wrapper(self, wrapper: Wrapper) -> None:
        self.version += 1
        self._wrappers[wrapper.name] = wrapper

    def wrapper(self, name: str) -> Wrapper:
        try:
            return self._wrappers[name]
        except KeyError:
            raise UnknownCollectionError(f"no wrapper named {name!r}") from None

    def wrapper_names(self) -> list[str]:
        return sorted(self._wrappers)

    def remove_wrapper(self, name: str) -> None:
        self.version += 1
        self._wrappers.pop(name, None)
        for collection in [
            c for c, e in self._collections.items() if e.wrapper == name
        ]:
            del self._collections[collection]
            self.statistics.remove(collection)
        # A partition scheme losing any shard's wrapper is gone wholesale:
        # a scatter over a missing shard could never be planned.
        for logical in [
            c
            for c, scheme in self._partitions.items()
            if any(shard.wrapper == name for shard in scheme.shards)
        ]:
            del self._partitions[logical]
            entry = self._collections.get(logical)
            if entry is not None and entry.wrapper == PARTITIONED_WRAPPER:
                del self._collections[logical]
                self.statistics.remove(logical)
        # Replica bookkeeping: a removed replica leaves its set; a removed
        # primary dissolves the whole set (the replicas stay registered as
        # plain wrappers but no longer serve the primary's collections).
        primary = self._replica_primary.pop(name, None)
        if primary is not None and primary in self._replicas:
            self._replicas[primary] = [
                r for r in self._replicas[primary] if r != name
            ]
            if not self._replicas[primary]:
                del self._replicas[primary]
        replicas = self._replicas.pop(name, None)
        if replicas is not None:
            for replica in replicas:
                self._replica_primary.pop(replica, None)

    # -- replicas ---------------------------------------------------------------

    def add_replica(self, primary: str, replica: str) -> None:
        """Attach a registered wrapper as a replica of ``primary``.

        Both names must already be registered wrappers.  Bumps
        :attr:`version`: replica-blind cached plans are stale.
        """
        if primary not in self._wrappers:
            raise UnknownCollectionError(
                f"replica primary {primary!r} is not registered"
            )
        if replica not in self._wrappers:
            raise UnknownCollectionError(
                f"replica wrapper {replica!r} is not registered"
            )
        if replica == primary:
            raise UnknownCollectionError(
                f"wrapper {primary!r} cannot replicate itself"
            )
        if primary in self._replica_primary:
            raise UnknownCollectionError(
                f"{primary!r} is itself a replica of "
                f"{self._replica_primary[primary]!r}; replica sets do not nest"
            )
        if replica in self._replica_primary or replica in self._replicas:
            raise UnknownCollectionError(
                f"wrapper {replica!r} is already part of a replica set"
            )
        self.version += 1
        self._replicas.setdefault(primary, []).append(replica)
        self._replica_primary[replica] = primary

    def has_replicas(self) -> bool:
        """True when any replica set exists (the fast gate: every replica
        code path stands down entirely when this is False)."""
        return bool(self._replicas)

    def replicas_of(self, wrapper: str) -> tuple[str, ...]:
        """Replica members attached to ``wrapper`` (empty when none)."""
        return tuple(self._replicas.get(wrapper, ()))

    def replica_members(self, wrapper: str) -> tuple[str, ...]:
        """The full replica set a wrapper belongs to, primary first.

        A wrapper outside any replica set is its own 1-member set.
        """
        primary = self._replica_primary.get(wrapper, wrapper)
        replicas = self._replicas.get(primary)
        if not replicas:
            return (wrapper,)
        return (primary, *replicas)

    def replica_primary(self, wrapper: str) -> str:
        """The primary of a wrapper's replica set (itself when plain)."""
        return self._replica_primary.get(wrapper, wrapper)

    # -- collections --------------------------------------------------------------

    def add_collection(
        self,
        name: str,
        wrapper: str,
        attributes: tuple[str, ...] = (),
        stats: CollectionStats | None = None,
    ) -> None:
        if name in self._collections and self._collections[name].wrapper != wrapper:
            raise UnknownCollectionError(
                f"collection {name!r} already registered by wrapper "
                f"{self._collections[name].wrapper!r}"
            )
        self.version += 1
        self._collections[name] = CollectionEntry(
            name=name,
            wrapper=wrapper,
            attributes=attributes,
            has_statistics=stats is not None,
        )
        if stats is not None:
            self.statistics.put(stats)

    # -- partitions ---------------------------------------------------------------

    def add_partition(
        self,
        scheme: PartitionScheme,
        attributes: tuple[str, ...] = (),
        stats: CollectionStats | None = None,
    ) -> None:
        """Register a partition scheme for a logical collection.

        Every shard's physical collection must already be registered to
        the wrapper the scheme names.  When the logical name is not
        itself a physical collection (the usual S>1 layout), a logical
        :class:`CollectionEntry` is created under the
        :data:`PARTITIONED_WRAPPER` sentinel so name resolution and
        statistics lookups work; when it *is* one (a 1-shard overlay),
        the existing physical entry is left untouched.

        Bumps :attr:`version` — cached plans against the unsharded
        layout are stale.
        """
        for shard in scheme.shards:
            if shard.wrapper not in self._wrappers:
                raise UnknownCollectionError(
                    f"shard wrapper {shard.wrapper!r} is not registered"
                )
            shard_entry = self._collections.get(shard.collection)
            if shard_entry is None or shard_entry.wrapper != shard.wrapper:
                raise UnknownCollectionError(
                    f"shard collection {shard.collection!r} is not registered "
                    f"by wrapper {shard.wrapper!r}"
                )
        self.version += 1
        self._partitions[scheme.collection] = scheme
        if scheme.collection not in self._collections:
            self._collections[scheme.collection] = CollectionEntry(
                name=scheme.collection,
                wrapper=PARTITIONED_WRAPPER,
                attributes=attributes,
                has_statistics=stats is not None,
            )
        if stats is not None:
            self.statistics.put(stats)

    def remove_partition(self, collection: str) -> None:
        scheme = self._partitions.pop(collection, None)
        if scheme is None:
            return
        self.version += 1
        entry = self._collections.get(collection)
        if entry is not None and entry.wrapper == PARTITIONED_WRAPPER:
            del self._collections[collection]
            self.statistics.remove(collection)

    def is_partitioned(self, collection: str) -> bool:
        return collection in self._partitions

    def partition(self, collection: str) -> PartitionScheme:
        try:
            return self._partitions[collection]
        except KeyError:
            raise UnknownCollectionError(
                f"collection {collection!r} is not partitioned"
            ) from None

    def partitioned_collections(self) -> list[str]:
        return sorted(self._partitions)

    def entry(self, collection: str) -> CollectionEntry:
        try:
            return self._collections[collection]
        except KeyError:
            raise UnknownCollectionError(
                f"unknown collection {collection!r} "
                f"(known: {sorted(self._collections)})"
            ) from None

    def wrapper_for(self, collection: str) -> str:
        return self.entry(collection).wrapper

    def wrapper_of(self, collection: str) -> Wrapper:
        return self.wrapper(self.wrapper_for(collection))

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def __contains__(self, collection: str) -> bool:
        return collection in self._collections

    # -- name resolution ---------------------------------------------------------------

    def attributes_of(self, collection: str) -> tuple[str, ...]:
        entry = self.entry(collection)
        if entry.attributes:
            return entry.attributes
        if collection in self.statistics:
            return tuple(self.statistics.get(collection).attributes)
        return ()

    def resolve_attribute(
        self, attribute: str, collections: list[str]
    ) -> str:
        """Find which of ``collections`` owns an unqualified attribute.

        Raises if the attribute is ambiguous or unknown.  Collections with
        no attribute information match nothing (queries against them must
        qualify names).
        """
        owners = [
            collection
            for collection in collections
            if attribute in self.attributes_of(collection)
        ]
        if len(owners) == 1:
            return owners[0]
        if not owners:
            raise UnknownAttributeError(
                f"attribute {attribute!r} not found in any of {collections}"
            )
        raise UnknownAttributeError(
            f"attribute {attribute!r} is ambiguous across {owners}; qualify it"
        )

    def describe(self) -> str:
        """Human-readable catalog summary."""
        lines = []
        for name in self.collection_names():
            entry = self._collections[name]
            stats_note = "stats" if entry.has_statistics else "no stats"
            lines.append(
                f"{name} @ {entry.wrapper} ({stats_note}; "
                f"attrs: {', '.join(entry.attributes) or '?'})"
            )
        for name in self.partitioned_collections():
            scheme = self._partitions[name]
            lines.append(
                f"{name} partitioned by {scheme.kind}({scheme.shard_key}) "
                f"over {len(scheme.shards)} shards"
            )
        for primary in sorted(self._replicas):
            lines.append(
                f"{primary} replicated by {', '.join(self._replicas[primary])}"
            )
        return "\n".join(lines)
