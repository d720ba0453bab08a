"""A logical-plan interpreter over a storage engine.

Wrappers receive algebraic subplans from the mediator (§2.2 Step 4) and
execute them against their data source.  This interpreter implements the
full mediator algebra over :class:`~repro.sources.storage_engine.
StorageEngine` primitives, choosing the access path the way a real source
does: a selection directly over a scan of an indexed attribute becomes an
index scan; everything else pipelines over a sequential scan.

All row processing charges the engine's simulated clock, so execution
"measures" the response times the cost model is trying to predict.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.algebra.expressions import (
    AttributeRef,
    Comparison,
    Literal,
    Or,
    Predicate,
    conjunction,
)
from repro.algebra.logical import PlanNode, Scan, Select, Submit
from repro.algebra.rowops import eval_charge, handlers, select_rows, test
from repro.errors import CapabilityError, PlanError
from repro.sources.pages import Row
from repro.sources.storage_engine import StorageEngine


class EngineExecutor:
    """Executes logical plans against one storage engine."""

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine
        self.clock = engine.clock
        #: ``type(node) → handler``: the shared row operators over
        #: ``self._run(child)``; scans and selections pick an access path.
        self._handlers = {
            **handlers(self._run, self.clock),
            Scan: lambda node: engine.seq_scan(node.collection),
            Select: self._run_select,
        }

    # -- entry point ---------------------------------------------------------

    def execute(self, plan: PlanNode) -> list[Row]:
        """Run a plan to completion and return its rows."""
        return list(self._run(plan))

    def _run(self, node: PlanNode) -> Iterator[Row]:
        if isinstance(node, Submit):
            raise CapabilityError("wrappers do not execute submit nodes")
        handler = self._handlers.get(type(node))
        if handler is None:
            raise PlanError(f"cannot execute operator {node.operator_name!r}")
        return handler(node)

    # -- selection with access-path choice ---------------------------------------

    def _index_access(
        self, node: Select
    ) -> tuple[str, str, dict[str, Any], list[Predicate]] | None:
        """If the select sits on a scan of an indexed attribute, return
        (collection, attribute, index_scan kwargs, residual conjuncts).

        All conjuncts restricting one indexed attribute combine into a
        single index probe (``a >= 100 AND a <= 599`` becomes one range
        scan), as any real source would evaluate them.
        """
        if not isinstance(node.child, Scan):
            return None
        collection = node.child.collection
        conjuncts = list(node.predicate.conjuncts())
        if not conjuncts:
            return None
        # Group the index-usable comparisons by attribute.
        usable: dict[str, list[int]] = {}
        for index, conjunct in enumerate(conjuncts):
            if not isinstance(conjunct, Comparison):
                continue
            comparison = conjunct.normalized()
            if not comparison.is_attr_value or comparison.op == "!=":
                continue
            attribute = comparison.left
            assert isinstance(attribute, AttributeRef)
            if self.engine.has_index(collection, attribute.name):
                usable.setdefault(attribute.name, []).append(index)
        if not usable:
            return None
        # Prefer the attribute with the most restrictions (equality or a
        # two-sided range beats a single bound).
        attribute_name = max(usable, key=lambda name: len(usable[name]))
        chosen = usable[attribute_name]
        kwargs = self._combined_index_kwargs(
            [conjuncts[i].normalized() for i in chosen]  # type: ignore[attr-defined]
        )
        if kwargs is None:
            return None
        residual = [c for i, c in enumerate(conjuncts) if i not in chosen]
        return collection, attribute_name, kwargs, residual

    @staticmethod
    def _combined_index_kwargs(
        comparisons: list[Comparison],
    ) -> dict[str, Any] | None:
        """Merge comparisons on one attribute into index_scan kwargs."""
        low: Any = None
        high: Any = None
        low_inclusive = True
        high_inclusive = True
        for comparison in comparisons:
            literal = comparison.right
            assert isinstance(literal, Literal)
            value = literal.value
            op = comparison.op
            if op == "=":
                return {"value": value}
            if op in ("<", "<="):
                if high is None or value < high or (value == high and op == "<"):
                    high = value
                    high_inclusive = op == "<="
            elif op in (">", ">="):
                if low is None or value > low or (value == low and op == ">"):
                    low = value
                    low_inclusive = op == ">="
        if low is None and high is None:
            return None
        kwargs: dict[str, Any] = {}
        if low is not None:
            kwargs["low"] = low
            kwargs["low_inclusive"] = low_inclusive
        if high is not None:
            kwargs["high"] = high
            kwargs["high_inclusive"] = high_inclusive
        return kwargs

    def _disjunctive_index_access(
        self, node: Select
    ) -> tuple[str, str, list[Any], list[Predicate]] | None:
        """Key-set selections: an OR-chain (or single conjunct) of
        equalities on one indexed attribute — the shape bind-join probes
        take — answered by one index lookup per key.

        Returns (collection, attribute, values, residual conjuncts) where
        the residual applies on top of the keyed lookups.
        """
        if not isinstance(node.child, Scan):
            return None
        collection = node.child.collection
        conjuncts = list(node.predicate.conjuncts())
        for index, conjunct in enumerate(conjuncts):
            values = _equality_key_set(conjunct)
            if values is None:
                continue
            attribute, keys = values
            if len(keys) < 2:
                continue  # single equality is the plain index path
            if not self.engine.has_index(collection, attribute):
                continue
            residual = conjuncts[:index] + conjuncts[index + 1 :]
            return collection, attribute, keys, residual
        return None

    def _run_select(self, node: Select) -> Iterator[Row]:
        disjunctive = self._disjunctive_index_access(node)
        if disjunctive is not None:
            collection, attribute, keys, residual = disjunctive
            return self._index_rows(
                collection, attribute, [{"value": key} for key in keys], residual
            )
        access = self._index_access(node)
        if access is not None:
            collection, attribute, kwargs, residual = access
            return self._index_rows(collection, attribute, [kwargs], residual)
        return select_rows(node, self._run(node.child), self.clock)

    def _index_rows(
        self,
        collection: str,
        attribute: str,
        probes: list[dict[str, Any]],
        residual: list[Predicate],
    ) -> Iterator[Row]:
        """One index scan per probe; the residual conjuncts (if any) are
        evaluated — and charged — per fetched row."""
        advance, cost = eval_charge(self.clock)
        passes = test(conjunction(residual)) if residual else None
        for probe in probes:
            for row in self.engine.index_scan(collection, attribute, **probe):
                if passes is not None:
                    advance(cost)
                    if not passes(row):
                        continue
                yield row


def _equality_key_set(predicate: Predicate) -> tuple[str, list[Any]] | None:
    """If ``predicate`` is ``a = v`` or an OR-chain of equalities on one
    attribute, return (attribute, values); otherwise None."""
    if isinstance(predicate, Or):
        left = _equality_key_set(predicate.left)
        right = _equality_key_set(predicate.right)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1] + right[1]
    if isinstance(predicate, Comparison):
        comparison = predicate.normalized()
        if comparison.op == "=" and comparison.is_attr_value:
            attribute = comparison.left
            literal = comparison.right
            assert isinstance(attribute, AttributeRef)
            assert isinstance(literal, Literal)
            return attribute.name, [literal.value]
    return None
