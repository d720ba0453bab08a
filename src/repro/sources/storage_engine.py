"""The shared paged storage engine behind the simulated data sources.

Both the ObjectStore stand-in (:mod:`repro.sources.objectdb`) and the
relational engine (:mod:`repro.sources.relationaldb`) are flavours of the
same substrate: collections of rows packed onto pages (``PagedFile``) with
optional B+tree secondary indexes, accessed through two physical
operators:

* **sequential scan** — reads every page once and touches every object;
* **index scan** — walks the B+tree for the qualifying keys, then fetches
  the *distinct* pages holding the matching objects, in key order.

All physical work charges the owning :class:`~repro.sources.clock.SimClock`,
so "measured" response times are deterministic functions of pages read and
objects produced — the structure the paper's §5 experiment measures on
real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.core.statistics import AttributeStats, CollectionStats
from repro.errors import StorageError
from repro.sources.btree import BPlusTree
from repro.sources.clock import SimClock
from repro.sources.pages import (
    DEFAULT_FILL_FACTOR,
    DEFAULT_PAGE_SIZE,
    BufferPool,
    ClusteredPlacement,
    PagedFile,
    PlacementPolicy,
    Rid,
    Row,
    ScatteredPlacement,
    SequentialPlacement,
)

#: CPU charged per B+tree node visited during an index descent (ms).
INDEX_VISIT_MS = 0.1


def make_placement(spec: str | PlacementPolicy | None) -> PlacementPolicy:
    """Resolve a placement spec: ``None``/'sequential', 'scattered',
    'clustered:<attr>', or an explicit policy object."""
    if spec is None or spec == "sequential":
        return SequentialPlacement()
    if isinstance(spec, PlacementPolicy):
        return spec
    if spec == "scattered":
        return ScatteredPlacement()
    if spec.startswith("clustered:"):
        return ClusteredPlacement(spec.split(":", 1)[1])
    raise StorageError(f"unknown placement spec {spec!r}")


@dataclass
class StoredCollection:
    """One collection: its heap file, indexes, and loading metadata."""

    name: str
    file: PagedFile
    rows: list[Row]
    rids: list[Rid]
    indexes: dict[str, BPlusTree] = field(default_factory=dict)
    object_size: int = 0
    pool: BufferPool | None = None

    @property
    def count(self) -> int:
        return len(self.rows)


class StorageEngine:
    """Paged collections with sequential and index access paths.

    ``buffer_pages`` > 0 puts an LRU buffer pool of that many pages in
    front of every collection: repeated accesses to resident pages stop
    charging I/O, modelling a warm cache.  The default of 0 keeps the
    cold-cache behaviour the §5 experiment measures (every distinct page
    of an operation is charged exactly once).
    """

    def __init__(
        self, clock: SimClock | None = None, buffer_pages: int = 0
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.buffer_pages = buffer_pages
        self._collections: dict[str, StoredCollection] = {}

    # -- DDL / loading -------------------------------------------------------

    def create_collection(
        self,
        name: str,
        rows: Iterable[Row],
        *,
        object_size: int | Callable[[Row], int] = 100,
        indexed_attributes: Iterable[str] = (),
        placement: str | PlacementPolicy | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> StoredCollection:
        """Load a collection and build its indexes (no time charged —
        loading is out of scope for the experiments)."""
        if name in self._collections:
            raise StorageError(f"collection {name!r} already exists")
        materialized = [dict(row) for row in rows]
        file = PagedFile(page_size=page_size, fill_factor=fill_factor)
        rids = file.bulk_load(materialized, object_size, make_placement(placement))
        average = (
            file.total_bytes // max(1, file.record_count) if materialized else 0
        )
        collection = StoredCollection(
            name=name,
            file=file,
            rows=materialized,
            rids=rids,
            object_size=average,
            pool=(
                BufferPool(file, self.clock, capacity=self.buffer_pages)
                if self.buffer_pages > 0
                else None
            ),
        )
        for attribute in indexed_attributes:
            self._build_index(collection, attribute)
        self._collections[name] = collection
        return collection

    def _build_index(self, collection: StoredCollection, attribute: str) -> None:
        tree = BPlusTree()
        for row, rid in zip(collection.rows, collection.rids):
            if attribute not in row:
                raise StorageError(
                    f"cannot index {collection.name}.{attribute}: missing in a row"
                )
            tree.insert(row[attribute], rid)
        collection.indexes[attribute] = tree

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    # -- introspection ----------------------------------------------------------

    def collection(self, name: str) -> StoredCollection:
        try:
            return self._collections[name]
        except KeyError:
            raise StorageError(f"no collection {name!r}") from None

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def has_index(self, name: str, attribute: str) -> bool:
        return attribute in self.collection(name).indexes

    def page_count(self, name: str) -> int:
        return self.collection(name).file.page_count

    # -- physical operators -------------------------------------------------------

    def _read_page(self, collection: StoredCollection, page_id: int) -> None:
        """Charge one page access, through the buffer pool when present."""
        if collection.pool is not None:
            collection.pool.access(page_id)
        else:
            self.clock.charge_page_read()

    def seq_scan(self, name: str) -> Iterator[Row]:
        """Read every page once, touch every object."""
        collection = self.collection(name)
        self.clock.charge_seek()
        charge_object = self.clock.charge_objects
        for page in collection.file.pages:
            self._read_page(collection, page.page_id)
            for row in page.records:
                charge_object()
                yield row

    def index_scan(
        self,
        name: str,
        attribute: str,
        *,
        value: Any = None,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Row]:
        """Fetch matching objects through the B+tree.

        Pass ``value`` for an exact match, or ``low``/``high`` for a range.
        Pages are charged once per *distinct* page touched — the physical
        behaviour Yao's formula predicts.
        """
        collection = self.collection(name)
        tree = collection.indexes.get(attribute)
        if tree is None:
            raise StorageError(f"no index on {name}.{attribute}")
        if value is not None and (low is not None or high is not None):
            raise StorageError("pass either value or a range, not both")
        if value is not None:
            rids, visits = tree.lookup(value)
            self.clock.advance(INDEX_VISIT_MS * visits)
            rid_groups: Iterable[list[Rid]] = [rids]
        else:
            probe = low if low is not None else high
            if probe is not None:
                self.clock.advance(INDEX_VISIT_MS * tree.visits_for(probe))
            rid_groups = (
                rids
                for _key, rids in tree.range_search(
                    low,
                    high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
            )
        charge_object, fetch = self.clock.charge_objects, collection.file.fetch
        seen_pages: set[int] = set()
        for rids in rid_groups:
            for rid in rids:
                page_id = rid[0]
                if page_id not in seen_pages:
                    seen_pages.add(page_id)
                    self._read_page(collection, page_id)
                charge_object()
                yield fetch(rid)

    # -- statistics export (§3.2) ----------------------------------------------------

    def export_statistics(self, name: str) -> CollectionStats:
        """Compute the §3.2 statistics triplets from the stored data."""
        collection = self.collection(name)
        stats = CollectionStats(
            name=name,
            count_object=collection.count,
            total_size=collection.file.total_bytes,
            object_size=collection.object_size,
        )
        attributes: set[str] = set()
        for row in collection.rows[:1]:
            attributes.update(row.keys())
        for attribute in sorted(attributes):
            values = [
                row[attribute]
                for row in collection.rows
                if attribute in row and row[attribute] is not None
            ]
            if not values:
                continue
            comparable = all(isinstance(v, (int, float)) for v in values) or all(
                isinstance(v, str) for v in values
            )
            stats.add_attribute(
                AttributeStats(
                    name=attribute,
                    indexed=attribute in collection.indexes,
                    count_distinct=len(set(values)),
                    min_value=min(values) if comparable else None,
                    max_value=max(values) if comparable else None,
                )
            )
        return stats
