"""Oracles that are not the mediator.

Every expected answer is computed from the *source's own data* by plain
Python (or, for SQLite, by direct SQL on the wrapper's database file) —
never by parsing, planning or executing through the program under test.
A statement carries its expected row count (checked on every timed
operation) and a ``verify`` callable comparing the full row multiset
(run in set-up and on every operation of the traced run).
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

Row = dict[str, Any]


@dataclass
class Statement:
    """One distinct statement of a workload and its oracle."""

    label: str  # operation class, e.g. "lookup", "q7", "join"
    sql: str
    expected_count: int
    verify: Callable[[list[Row]], bool]
    #: Which of the workload's mediators serves it (plan_mix has several).
    target: str = "main"
    #: Set by plan_mix's verified pass: the pre-parsed spec and the
    #: plan every timed operation must choose again.
    spec: Any = None
    plan_estimate: float = 0.0
    plan_fingerprint: str = ""


def multiset(rows: Iterable[Row]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


def same_rows(expected: list[Row]) -> Callable[[list[Row]], bool]:
    """Order-insensitive full-row comparison against ``expected``."""
    want = multiset(expected)
    return lambda rows: multiset(rows) == want


def count_only(expected_count: int) -> Callable[[list[Row]], bool]:
    return lambda rows: len(rows) == expected_count


def rows_statement(
    label: str, sql: str, expected: list[Row], target: str = "main"
) -> Statement:
    return Statement(label, sql, len(expected), same_rows(expected), target)


def project(rows: Iterable[Row], columns: tuple[str, ...]) -> list[Row]:
    return [{column: row[column] for column in columns} for row in rows]


def hash_join(
    left: Iterable[Row], right: Iterable[Row], left_key: str, right_key: str
) -> list[Row]:
    """Inner equi-join of rows with no colliding column names."""
    table: dict[Any, list[Row]] = {}
    for row in right:
        table.setdefault(row[right_key], []).append(row)
    return [
        {**row, **match} for row in left for match in table.get(row[left_key], ())
    ]


def sorted_by(rows: list[Row], key: str) -> bool:
    return all(a[key] <= b[key] for a, b in zip(rows, rows[1:]))


def engine_rows(wrapper, collection: str) -> list[Row]:
    """The stored rows of a simulated source, read past the wrapper."""
    return wrapper.unwrap().engine.collection(collection).rows


def sqlite_rows(path: str, sql: str) -> list[Row]:
    """Direct SQL on a SQLite wrapper's own database file."""
    connection = sqlite3.connect(path)
    try:
        connection.row_factory = sqlite3.Row
        return [dict(row) for row in connection.execute(sql)]
    finally:
        connection.close()


def verified_pass(statements, answer, lap) -> None:
    """Set-up's pass over every distinct statement: ``answer(statement)``
    must satisfy the statement's oracle.  One lap per statement."""
    for statement in statements:
        if not statement.verify(answer(statement)):
            raise AssertionError(f"oracle mismatch: {statement.sql}")
        lap()
