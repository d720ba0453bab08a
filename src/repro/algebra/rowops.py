"""The row-operator kernel: one definition of each operator's row logic.

The mediator's composition engine (§2.2 Steps 4–6) and the wrapper-side
interpreter both run select / project / sort / distinct / aggregate /
join / union over in-memory rows; they differ only in where rows come
from (subanswers vs. a storage engine) and whose clock is charged.
Each operator here takes ``(node, child iterator(s), clock)`` and does
everything that depends only on the *node* — attribute getters, the
collision labels of a join, the bound predicate, the charge — once per
execution, not once per row.  Charging itself stays per row, in order:
``TimeFirst`` is read mid-loop when the first row leaves a streaming
operator (see ``docs/execution.md``, "Row pipeline and charging
contract").
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.algebra.expressions import (
    And,
    AttributeRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    Predicate,
    Row,
)
from repro.algebra.logical import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Join,
    Project,
    Select,
    Sort,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (sources import the algebra)
    from repro.sources.clock import SimClock

Handler = Callable[[Any], Iterator[Row]]


def getter(ref: AttributeRef | str) -> Callable[[Row], Any]:
    """``AttributeRef.evaluate`` with the name resolution hoisted: the
    spelled name is a plain dict read; anything else falls back to the
    reference's own qualified / suffix search (and its ``PlanError``)."""
    if isinstance(ref, str):
        ref = AttributeRef(ref)
    name, qualified, search = ref.name, ref.qualified, ref.evaluate

    def get(row: Row) -> Any:
        if qualified in row:
            return row[qualified]
        if name in row:
            return row[name]
        return search(row)

    return get


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def test(predicate: Predicate) -> Callable[[Row], bool]:
    """``Predicate.evaluate`` with the tree walk hoisted: one pass over
    the predicate returns a closure per node.  ``Predicate.evaluate``
    stays the reference definition — the left operand is read before
    the right, ``None`` on either side compares ``False``, ``And`` /
    ``Or`` short-circuit — and any predicate class not known here runs
    through its own ``evaluate``."""
    kind = type(predicate)
    if kind is Comparison:
        compare = _COMPARE[predicate.op]
        left, right = predicate.left, predicate.right
        if type(left) is AttributeRef and type(right) is Literal and right.value is not None:
            # The shape of every pushed-down filter: one closure, the
            # getter's name resolution inlined.
            name, qualified, search = left.name, left.qualified, left.evaluate
            constant = right.value

            def attribute_passes(row: Row) -> bool:
                if qualified in row:
                    value = row[qualified]
                elif name in row:
                    value = row[name]
                else:
                    value = search(row)
                return value is not None and compare(value, constant)

            return attribute_passes
        left_of, right_of = _scalar(left), _scalar(right)

        def passes(row: Row) -> bool:
            left, right = left_of(row), right_of(row)
            return left is not None and right is not None and compare(left, right)

        return passes
    if kind is And:
        first, second = test(predicate.left), test(predicate.right)
        return lambda row: first(row) and second(row)
    if kind is Or:
        first, second = test(predicate.left), test(predicate.right)
        return lambda row: first(row) or second(row)
    if kind is Not:
        operand = test(predicate.operand)
        return lambda row: not operand(row)
    return predicate.evaluate


def _scalar(expression: Expression) -> Callable[[Row], Any]:
    if type(expression) is AttributeRef:
        return getter(expression)
    return expression.evaluate


def row_key(attributes: Iterable[AttributeRef | str]) -> Callable[[Row], tuple]:
    """The tuple of the named attributes' values, as one bound callable."""
    getters = [getter(attribute) for attribute in attributes]
    if not getters:
        return lambda row: ()
    if len(getters) == 1:
        (only,) = getters
        return lambda row: (only(row),)
    return lambda row: tuple([get(row) for get in getters])


def eval_charge(clock: SimClock) -> tuple[Callable[[float], None], float]:
    """``(advance, cost)`` of one operator step over one row."""
    return clock.advance, clock.profile.cpu_ms_per_eval


def timed_rows(stream: Iterator[Row], clock: SimClock, start: float) -> tuple[list, float, float]:
    """Drain a plan's root iterator: ``(rows, TimeFirst, TotalTime)`` since
    ``start``.  ``TimeFirst`` is read as the first row arrives; an empty answer
    took the whole execution to discover, so its ``TimeFirst`` is the total."""
    rows = list(islice(stream, 1))
    time_first = clock.elapsed_since(start) if rows else None
    rows.extend(stream)
    total = clock.elapsed_since(start)
    return rows, total if time_first is None else time_first, total


def merge_rows(left: Row, right: Row, left_label: str, right_label: str) -> Row:
    """Combine two joined rows, qualifying colliding attribute names
    with the side's label."""
    merged = dict(left)
    for key, value in right.items():
        if key in merged and merged[key] != value:
            merged[f"{left_label}.{key}"] = merged.pop(key)
            merged[f"{right_label}.{key}"] = value
        else:
            merged[key] = value
    return merged


Fold = tuple[Callable[[], Any], Callable[[Any, Row], Any], Callable[[Any], Any]]


def _fold(spec: AggregateSpec) -> Fold:
    """``(start, step, finish)`` of one aggregate over an attribute
    (``COUNT(*)`` is the group's row count): ``step(state, row)``
    folds a row into the running state as it arrives, nulls skipped.
    Only ``sum`` / ``avg`` keep anything per row — the non-null values,
    totalled by one ``sum()`` at the end, so a float result is the one
    ``sum()`` over the materialised group gives."""
    get = getter(spec.attribute)
    if spec.function == "count":
        return int, lambda count, row: count + (get(row) is not None), _identity
    if spec.function in ("sum", "avg"):

        def collect(values: list, row: Row) -> list:
            value = get(row)
            if value is not None:
                values.append(value)
            return values

        if spec.function == "sum":
            return list, collect, lambda values: sum(values) if values else None
        return list, collect, lambda values: sum(values) / len(values) if values else None
    # min / max keep the first of equal extremes, as the builtins do.
    beats = operator.lt if spec.function == "min" else operator.gt

    def extreme(best: Any, row: Row) -> Any:
        value = get(row)
        if value is None or (best is not None and not beats(value, best)):
            return best
        return value

    return _none, extreme, _identity


def _identity(state: Any) -> Any:
    return state


def _none() -> None:
    return None


def aggregate_value(spec: AggregateSpec, rows: list[Row]) -> Any:
    if spec.attribute is None:  # COUNT(*)
        return len(rows)
    start, step, finish = _fold(spec)
    return finish(reduce(step, rows, start()))


# -- operators: (node, rows, clock) -> rows -----------------------------------


def select_rows(node: Select, rows: Iterable[Row], clock: SimClock) -> Iterator[Row]:
    advance, cost = eval_charge(clock)
    passes = test(node.predicate)
    for row in rows:
        advance(cost)
        if passes(row):
            yield row


def project_rows(node: Project, rows: Iterable[Row], clock: SimClock) -> Iterator[Row]:
    advance, cost = eval_charge(clock)
    columns = [(name, getter(node.source_of(name))) for name in node.attributes]
    for row in rows:
        advance(cost)
        yield {name: get(row) for name, get in columns}


def sort_rows(node: Sort, rows: Iterable[Row], clock: SimClock) -> Iterator[Row]:
    advance, cost = eval_charge(clock)
    rows = list(rows)
    advance(cost * len(rows))
    yield from sorted(rows, key=row_key(node.keys), reverse=node.descending)


def distinct_rows(node: Distinct, rows: Iterable[Row], clock: SimClock) -> Iterator[Row]:
    advance, cost = eval_charge(clock)
    seen: set[tuple] = set()
    for row in rows:
        advance(cost)
        fingerprint = tuple(sorted(row.items()))
        if fingerprint not in seen:
            seen.add(fingerprint)
            yield row


def aggregate_rows(node: Aggregate, rows: Iterable[Row], clock: SimClock) -> Iterator[Row]:
    advance, cost = eval_charge(clock)
    group_of = row_key(node.group_by)
    # A group's state: its row count — all COUNT(*) needs, kept inline —
    # then one running fold per aggregate over an attribute.
    starts: list[Callable[[], Any]] = [int]
    steps, outputs = [], []
    for spec in node.aggregates:
        if spec.attribute is None:
            outputs.append((spec.alias, 0, _identity))
            continue
        start, step, finish = _fold(spec)
        outputs.append((spec.alias, len(starts), finish))
        steps.append((len(starts), step))
        starts.append(start)
    groups: dict[tuple, list] = {}

    def new_group(key: tuple) -> list:
        groups[key] = states = [start() for start in starts]
        return states

    for row in rows:
        advance(cost)
        key = group_of(row)
        states = groups.get(key)
        if states is None:
            states = new_group(key)
        states[0] += 1
        for slot, step in steps:
            states[slot] = step(states[slot], row)
    if not groups and not node.group_by:
        new_group(())
    for key, states in groups.items():
        result = dict(zip(node.group_by, key))
        for alias, slot, finish in outputs:
            result[alias] = finish(states[slot])
        yield result


def join_rows(
    node: Join, left: Iterable[Row], right: Iterable[Row], clock: SimClock
) -> Iterator[Row]:
    """Hash join on the equi-join attribute: build on the right input,
    probe (and stream) from the left."""
    advance, cost = eval_charge(clock)
    left_key, right_key = getter(node.left_attribute), getter(node.right_attribute)
    left_label = node.left.primary_collection() or "left"
    right_label = node.right.primary_collection() or "right"
    table: dict[Any, list[Row]] = {}
    for row in right:
        advance(cost)
        table.setdefault(right_key(row), []).append(row)
    matches = table.get
    for row in left:
        advance(cost)
        for match in matches(left_key(row), ()):
            yield merge_rows(row, match, left_label, right_label)


def handlers(run: Handler, clock: SimClock) -> dict[type, Handler]:
    """The ``type(node) → handler`` table of the operators above, bound
    to an interpreter's ``run`` (node → row iterator) and clock.  A
    handler *returns* the operator's iterator; nothing runs until the
    first row is pulled."""

    def unary(operator: Callable[..., Iterator[Row]]) -> Handler:
        return lambda node: operator(node, run(node.child), clock)

    return {
        Select: unary(select_rows),
        Project: unary(project_rows),
        Sort: unary(sort_rows),
        Distinct: unary(distinct_rows),
        Aggregate: unary(aggregate_rows),
        Join: lambda node: join_rows(node, run(node.left), run(node.right), clock),
        Union: lambda node: chain(run(node.left), run(node.right)),
    }
