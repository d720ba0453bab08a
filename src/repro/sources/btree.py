"""An in-memory B+tree used as the secondary-index structure of the
simulated data sources.

Keys are any totally ordered Python values (per index, keys must be
mutually comparable); values are lists of rids, so duplicate keys are
supported.  The tree provides exact lookups and inclusive/exclusive range
scans in key order — what the object store's index scan needs to produce
the rid list whose distinct-page count Yao's formula models.

This is a real B+tree (internal nodes with separators, leaf chaining,
splits on overflow) rather than a sorted list, so index height and node
visits are meaningful quantities the sources may charge time for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import IndexError_

Rid = tuple[int, int]

#: Maximum number of keys per node before a split.
DEFAULT_ORDER = 64


@dataclass
class _Leaf:
    keys: list[Any] = field(default_factory=list)
    values: list[list[Rid]] = field(default_factory=list)
    next: "_Leaf | None" = None

    @property
    def is_leaf(self) -> bool:
        return True


@dataclass
class _Internal:
    keys: list[Any] = field(default_factory=list)  # separator keys
    children: list["_Leaf | _Internal"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return False


def _bisect_right(keys: list[Any], key: Any) -> int:
    low, high = 0, len(keys)
    while low < high:
        mid = (low + high) // 2
        if key < keys[mid]:
            high = mid
        else:
            low = mid + 1
    return low


def _bisect_left(keys: list[Any], key: Any) -> int:
    low, high = 0, len(keys)
    while low < high:
        mid = (low + high) // 2
        if keys[mid] < key:
            low = mid + 1
        else:
            high = mid
    return low


class BPlusTree:
    """B+tree index from keys to rid lists."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise IndexError_(f"B+tree order must be >= 3, got {order}")
        self.order = order
        self._root: _Leaf | _Internal = _Leaf()
        self._first_leaf: _Leaf = self._root  # for full scans
        self.key_count = 0  # distinct keys
        self.entry_count = 0  # total rids

    # -- insertion ----------------------------------------------------------------

    def insert(self, key: Any, rid: Rid) -> None:
        """Add one (key, rid) entry; duplicate keys accumulate rids."""
        if key is None:
            raise IndexError_("cannot index a None key")
        split = self._insert(self._root, key, rid)
        if split is not None:
            separator, right = split
            new_root = _Internal(keys=[separator], children=[self._root, right])
            self._root = new_root
        self.entry_count += 1

    def _insert(
        self, node: _Leaf | _Internal, key: Any, rid: Rid
    ) -> tuple[Any, _Leaf | _Internal] | None:
        if node.is_leaf:
            return self._insert_leaf(node, key, rid)  # type: ignore[arg-type]
        assert isinstance(node, _Internal)
        index = _bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, rid)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self.order:
            return None
        return self._split_internal(node)

    def _insert_leaf(
        self, leaf: _Leaf, key: Any, rid: Rid
    ) -> tuple[Any, _Leaf] | None:
        index = _bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index].append(rid)
            return None
        leaf.keys.insert(index, key)
        leaf.values.insert(index, [rid])
        self.key_count += 1
        if len(leaf.keys) <= self.order:
            return None
        return self._split_leaf(leaf)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf(
            keys=leaf.keys[middle:],
            values=leaf.values[middle:],
            next=leaf.next,
        )
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal(
            keys=node.keys[middle + 1 :],
            children=node.children[middle + 1 :],
        )
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    # -- lookup ------------------------------------------------------------------------

    def _descend(self, key: Any) -> tuple[_Leaf, int]:
        """The leaf that would hold ``key``, and the node-visit count."""
        node = self._root
        visits = 1
        while not node.is_leaf:
            assert isinstance(node, _Internal)
            node = node.children[_bisect_right(node.keys, key)]
            visits += 1
        return node, visits  # type: ignore[return-value]

    def lookup(self, key: Any) -> tuple[list[Rid], int]:
        """One descent: the rids of all entries with exactly ``key``
        (empty when absent) and the node visits it took to reach them.
        The list is the tree's own — callers must not mutate it."""
        leaf, visits = self._descend(key)
        index = _bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index], visits
        return [], visits

    def search(self, key: Any) -> list[Rid]:
        """Rids of all entries with exactly ``key`` (empty when absent)."""
        return self.lookup(key)[0]

    def range_search(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, list[Rid]]]:
        """All (key, rids) with ``low <= key <= high`` in key order.

        Either bound may be ``None`` for an open end.  The rid lists are
        the tree's own — callers must not mutate them.
        """
        if low is None:
            leaf: _Leaf | None = self._first_leaf
            index = 0
        else:
            leaf, _ = self._descend(low)
            index = (
                _bisect_left(leaf.keys, low)
                if low_inclusive
                else _bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None:
                    if high_inclusive and high < key:
                        return
                    if not high_inclusive and not (key < high):
                        return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def height(self) -> int:
        """Number of levels from root to leaves (1 for a lone leaf)."""
        node = self._root
        levels = 1
        while not node.is_leaf:
            assert isinstance(node, _Internal)
            node = node.children[0]
            levels += 1
        return levels

    def visits_for(self, key: Any) -> int:
        """Node visits to reach ``key``'s leaf (for index-cost charging)."""
        _, visits = self._descend(key)
        return visits

    def keys(self) -> Iterator[Any]:
        """All distinct keys in order."""
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    def __len__(self) -> int:
        return self.entry_count

    @classmethod
    def build(
        cls, entries: Iterator[tuple[Any, Rid]] | list[tuple[Any, Rid]], order: int = DEFAULT_ORDER
    ) -> "BPlusTree":
        """Bulk-construct from (key, rid) pairs."""
        tree = cls(order=order)
        for key, rid in entries:
            tree.insert(key, rid)
        return tree
