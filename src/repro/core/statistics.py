"""Statistics exported by wrappers and stored in the mediator catalog.

Section 3.2 of the paper defines exactly which statistics a wrapper may
export through the two ``cardinality`` methods:

* ``extent(out CountObject, out TotalSize, out ObjectSize)`` — per
  collection: the number of objects, the total size in bytes, and the
  average object size in bytes.
* ``attribute(in AttributeName, out Indexed, out CountDistinct,
  out Min, out Max)`` — per attribute: whether an index exists, the number
  of distinct values, and the minimum and maximum values.

Because ``Min``/``Max`` may be of any type, the paper wraps them in a
polymorphic ``Constant``; :class:`Constant` plays that role here, ordering
numbers numerically and strings lexicographically, and exposing a numeric
projection so selectivity arithmetic works on either.

Figure 7 fixes the naming scheme under which formulas reference these
values (``C.CountObject``, ``C.A.CountDistinct``, ...); that scheme is
implemented by :meth:`CollectionStats.lookup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import UnknownStatisticError

#: Statistic names valid at collection level (Figure 7).
COLLECTION_STATISTICS = ("CountObject", "TotalSize", "ObjectSize")

#: Statistic names valid at attribute level (Figure 7).
ATTRIBUTE_STATISTICS = ("Indexed", "CountDistinct", "Min", "Max")

#: Statistics assumed for collections and attributes absent from the
#: catalog (§6: "In case they are not provided, standard values are given").
STANDARD_COUNT_OBJECT = 1000
STANDARD_OBJECT_SIZE = 100
STANDARD_COUNT_DISTINCT = 100


class Constant:
    """Polymorphic constant for attribute Min/Max values (§3.2).

    Wraps either a number or a string.  Comparisons require both operands
    to be of the same kind, mirroring typed attributes.  ``as_number``
    maps strings onto a numeric scale using their first characters so the
    uniform-selectivity estimate of the generic cost model can interpolate
    over string ranges too (a standard optimizer trick).
    """

    __slots__ = ("value",)

    def __init__(self, value: float | int | str | "Constant") -> None:
        if isinstance(value, Constant):
            value = value.value
        if not isinstance(value, (int, float, str)):
            raise TypeError(f"Constant must wrap a number or string, got {value!r}")
        self.value = value

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float))

    def as_number(self) -> float:
        """Project the constant onto a numeric axis.

        Numbers map to themselves.  Strings map to a base-256 fraction of
        their first eight characters, which preserves lexicographic order:
        ``Constant("a").as_number() < Constant("b").as_number()``.
        """
        if isinstance(self.value, (int, float)):
            return float(self.value)
        total = 0.0
        for position, char in enumerate(self.value[:8]):
            total += min(ord(char), 255) / (256.0 ** (position + 1))
        return total

    def _check_comparable(self, other: object) -> "Constant":
        other_const = other if isinstance(other, Constant) else Constant(other)  # type: ignore[arg-type]
        if self.is_numeric != other_const.is_numeric:
            raise TypeError(
                f"cannot compare {self.value!r} with {other_const.value!r}"
            )
        return other_const

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Constant, int, float, str)):
            return NotImplemented
        other_const = other if isinstance(other, Constant) else Constant(other)
        return self.value == other_const.value

    def __lt__(self, other: object) -> bool:
        return self.value < self._check_comparable(other).value  # type: ignore[operator]

    def __le__(self, other: object) -> bool:
        return self.value <= self._check_comparable(other).value  # type: ignore[operator]

    def __gt__(self, other: object) -> bool:
        return self.value > self._check_comparable(other).value  # type: ignore[operator]

    def __ge__(self, other: object) -> bool:
        return self.value >= self._check_comparable(other).value  # type: ignore[operator]

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass
class AttributeStats:
    """Statistics of one attribute of one collection (§3.2).

    Attributes:
        name: the attribute name.
        indexed: whether the source maintains an index on the attribute.
        count_distinct: number of distinct values in the extent.
        min_value: smallest value, or ``None`` when unknown.
        max_value: largest value, or ``None`` when unknown.
    """

    name: str
    indexed: bool = False
    count_distinct: int | None = None
    min_value: Constant | None = None
    max_value: Constant | None = None

    def __post_init__(self) -> None:
        if self.min_value is not None and not isinstance(self.min_value, Constant):
            self.min_value = Constant(self.min_value)
        if self.max_value is not None and not isinstance(self.max_value, Constant):
            self.max_value = Constant(self.max_value)
        if self.count_distinct is not None and self.count_distinct < 0:
            raise ValueError(
                f"CountDistinct must be non-negative, got {self.count_distinct}"
            )

    def lookup(self, statistic: str) -> float | bool | Constant:
        """Resolve an attribute-level statistic by its Figure 7 name."""
        if statistic == "Indexed":
            return self.indexed
        if statistic == "CountDistinct":
            if self.count_distinct is None:
                raise UnknownStatisticError(
                    f"CountDistinct unknown for attribute {self.name!r}"
                )
            return float(self.count_distinct)
        if statistic == "Min":
            if self.min_value is None:
                raise UnknownStatisticError(f"Min unknown for attribute {self.name!r}")
            return self.min_value
        if statistic == "Max":
            if self.max_value is None:
                raise UnknownStatisticError(f"Max unknown for attribute {self.name!r}")
            return self.max_value
        raise UnknownStatisticError(
            f"{statistic!r} is not an attribute statistic "
            f"(expected one of {ATTRIBUTE_STATISTICS})"
        )

    @property
    def has_range(self) -> bool:
        """True when both Min and Max are known."""
        return self.min_value is not None and self.max_value is not None


@dataclass
class CollectionStats:
    """Statistics of one collection, as returned by the two cardinality
    methods of §3.2 plus the per-attribute map.

    Attributes:
        name: collection name as exported by the wrapper.
        count_object: number of objects in the extent.
        total_size: extent size in bytes.
        object_size: average object size in bytes.
        attributes: per-attribute statistics keyed by attribute name.
    """

    name: str
    count_object: int
    total_size: int
    object_size: int
    attributes: dict[str, AttributeStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count_object < 0:
            raise ValueError(f"CountObject must be non-negative: {self.count_object}")
        if self.total_size < 0:
            raise ValueError(f"TotalSize must be non-negative: {self.total_size}")
        if self.object_size < 0:
            raise ValueError(f"ObjectSize must be non-negative: {self.object_size}")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_extent(
        cls,
        name: str,
        count_object: int,
        object_size: int,
        attributes: Iterable[AttributeStats] = (),
    ) -> "CollectionStats":
        """Build stats deriving TotalSize from count and average size."""
        return cls(
            name=name,
            count_object=count_object,
            total_size=count_object * object_size,
            object_size=object_size,
            attributes={attr.name: attr for attr in attributes},
        )

    def add_attribute(self, stats: AttributeStats) -> None:
        self.attributes[stats.name] = stats

    def attribute(self, name: str) -> AttributeStats:
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownStatisticError(
                f"collection {self.name!r} has no statistics for attribute {name!r}"
            ) from None

    # -- Figure 7 name resolution ---------------------------------------------

    def lookup(
        self, statistic: str, attribute: str | None = None
    ) -> float | bool | Constant:
        """Resolve ``C.Statistic`` or ``C.Attribute.Statistic`` (Figure 7)."""
        if attribute is None:
            if statistic == "CountObject":
                return float(self.count_object)
            if statistic == "TotalSize":
                return float(self.total_size)
            if statistic == "ObjectSize":
                return float(self.object_size)
            raise UnknownStatisticError(
                f"{statistic!r} is not a collection statistic "
                f"(expected one of {COLLECTION_STATISTICS})"
            )
        return self.attribute(attribute).lookup(statistic)

    @property
    def page_estimate(self) -> int:
        """Number of pages the extent occupies at 4096-byte pages.

        Only an estimate for formulas that need ``CountPage`` but whose
        wrapper did not export a page size; the Figure 13 rule computes its
        own page count from ``TotalSize / PageSize``.
        """
        return max(1, math.ceil(self.total_size / 4096))


class StatisticsCatalog:
    """All collection statistics known to a mediator, keyed by name.

    The catalog is filled during the registration phase (§2.1) and consulted
    by the cost estimator whenever a formula references a statistic path.
    Collection names are unique mediator-wide; the mediator catalog proper
    (``repro.mediator.catalog``) additionally remembers which wrapper owns
    which collection.
    """

    def __init__(self) -> None:
        self._collections: dict[str, CollectionStats] = {}

    def put(self, stats: CollectionStats) -> None:
        """Insert or replace statistics for a collection."""
        self._collections[stats.name] = stats

    def get(self, name: str) -> CollectionStats:
        try:
            return self._collections[name]
        except KeyError:
            raise UnknownStatisticError(
                f"no statistics registered for collection {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __iter__(self) -> Iterator[CollectionStats]:
        return iter(self._collections.values())

    def __len__(self) -> int:
        return len(self._collections)

    def names(self) -> list[str]:
        return sorted(self._collections)

    def remove(self, name: str) -> None:
        """Drop a collection's statistics (e.g. wrapper re-registration)."""
        self._collections.pop(name, None)
