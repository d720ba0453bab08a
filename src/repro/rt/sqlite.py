"""A real relational source: the oo7 dataset in an actual SQLite file.

:func:`load_oo7_sqlite` materializes the generated oo7 extents as SQLite
tables (with real indexes on the attributes the simulated object store
indexes); :class:`SQLiteWrapper` serves pushed-down mediator subplans by
translating them to SQL and exports the §2.1 registration payload —
statistics computed by SQL aggregate queries over the live tables, and
cost rules whose coefficients are **calibrated from timed probes**
against this machine's SQLite, so the estimates are in genuine
wall-clock milliseconds (the E16 benchmark regresses them against
measured time).

Execution is measured, not simulated: ``total_time_ms`` is the wall time
SQLite took to run the translated query and fetch the rows.  Connections
are per-thread (SQLite connections must not cross threads), so the
wrapper is safe under :class:`~repro.rt.backend.RealTimeBackend` waves.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import time
from typing import Any, Sequence

from repro.algebra.expressions import (
    And,
    AttributeRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.algebra.logical import (
    Aggregate,
    Distinct,
    PlanNode,
    Project,
    Scan,
    Select,
    Sort,
    strip_submits,
)
from repro.core.calibration import fit_line
from repro.core.statistics import AttributeStats, CollectionStats
from repro.errors import PlanError
from repro.oo7 import generator, schema
from repro.sources.pages import Row
from repro.wrappers.base import CostInfoExport, ExecutionResult, Wrapper

#: Operators the wrapper pushes down.  Joins and unions stay at the
#: mediator: cross-collection composition is its job in the E16 setup.
SQLITE_OPERATIONS = frozenset(
    {"scan", "select", "project", "sort", "distinct", "aggregate"}
)

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _quote(identifier: str) -> str:
    if '"' in identifier:
        raise PlanError(f"invalid identifier {identifier!r}")
    return f'"{identifier}"'


def _affinity(value: Any) -> str:
    if isinstance(value, bool) or isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "REAL"
    return "TEXT"


def load_oo7_sqlite(
    path: str,
    config: schema.OO7Config = schema.TINY,
    seed: int = 7,
    extents: Sequence[str] | None = None,
) -> list[str]:
    """Generate oo7 data and load it into the SQLite file at ``path``.

    Returns the loaded table names.  Indexes are created on the same
    attributes :data:`~repro.oo7.generator.EXTENT_LAYOUT` marks indexed,
    so the exported statistics describe real access paths.
    """
    data = generator.generate(config, seed)
    loaded: list[str] = []
    connection = sqlite3.connect(path)
    try:
        for name, rows in data.extent_rows().items():
            if extents is not None and name not in extents:
                continue
            if not rows:
                continue
            columns = list(rows[0])
            declarations = ", ".join(
                f"{_quote(column)} {_affinity(rows[0][column])}"
                for column in columns
            )
            connection.execute(f"DROP TABLE IF EXISTS {_quote(name)}")
            connection.execute(f"CREATE TABLE {_quote(name)} ({declarations})")
            placeholders = ", ".join("?" for _ in columns)
            connection.executemany(
                f"INSERT INTO {_quote(name)} VALUES ({placeholders})",
                [tuple(row[column] for column in columns) for row in rows],
            )
            _, indexed = generator.EXTENT_LAYOUT[name]
            for attribute in indexed:
                if attribute in columns:
                    connection.execute(
                        f"CREATE INDEX IF NOT EXISTS "
                        f"{_quote(f'idx_{name}_{attribute}')} "
                        f"ON {_quote(name)} ({_quote(attribute)})"
                    )
            loaded.append(name)
        connection.execute("ANALYZE")
        connection.commit()
    finally:
        connection.close()
    return loaded


class SQLiteWrapper(Wrapper):
    """Wrapper over an oo7 dataset stored in a real SQLite database file."""

    def __init__(
        self,
        name: str,
        path: str | None = None,
        config: schema.OO7Config = schema.TINY,
        seed: int = 7,
        extents: Sequence[str] | None = ("AtomicParts", "Connections"),
        calibration_repeats: int = 3,
    ) -> None:
        super().__init__(name, SQLITE_OPERATIONS)
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro_oo7_", suffix=".db")
            os.close(handle)
            self._owns_path = True
        else:
            self._owns_path = False
        self.path = path
        self.tables = load_oo7_sqlite(path, config, seed, extents)
        self._local = threading.local()
        self._statistics = {
            table: self._compute_statistics(table) for table in self.tables
        }
        #: Per-table ``(fixed_ms, per_row_ms)`` fitted from timed probes.
        self.coefficients = {
            table: self._calibrate(table, max(1, calibration_repeats))
            for table in self.tables
        }

    # -- connection management ----------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(self.path)
            connection.row_factory = sqlite3.Row
            self._local.connection = connection
        return connection

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None
        if self._owns_path and os.path.exists(self.path):
            os.unlink(self.path)

    # -- registration-time exports -------------------------------------------

    def _compute_statistics(self, table: str) -> CollectionStats:
        connection = self._connection()
        count = connection.execute(
            f"SELECT COUNT(*) FROM {_quote(table)}"
        ).fetchone()[0]
        object_size, indexed = generator.EXTENT_LAYOUT[table]
        columns = [
            row[1]
            for row in connection.execute(f"PRAGMA table_info({_quote(table)})")
        ]
        attributes = []
        for column in columns:
            distinct, low, high = connection.execute(
                f"SELECT COUNT(DISTINCT {_quote(column)}), "
                f"MIN({_quote(column)}), MAX({_quote(column)}) "
                f"FROM {_quote(table)}"
            ).fetchone()
            attributes.append(
                AttributeStats(
                    name=column,
                    indexed=column in indexed,
                    count_distinct=max(1, distinct),
                    min_value=low,
                    max_value=high,
                )
            )
        return CollectionStats.from_extent(
            table, count, object_size, attributes
        )

    def _calibrate(
        self, table: str, repeats: int
    ) -> tuple[float, float]:
        """Fit ``total_ms = fixed + rows * per_row`` on timed probes.

        Probes run the same SQL path :meth:`execute` uses: a full scan
        plus range selects on the table's first indexed numeric
        attribute at a few selectivities.  The per-point minimum over
        ``repeats`` runs suppresses scheduler noise; the fit is
        :func:`repro.core.calibration.fit_line`.
        """
        stats = self._statistics[table]
        points: list[tuple[float, float]] = []
        points.append(self._probe(f"SELECT * FROM {_quote(table)}", (), repeats))
        probe_column = next(
            (
                a
                for a in stats.attributes.values()
                if a.indexed
                and a.min_value is not None
                and a.min_value.is_numeric
                and a.max_value is not None
                and a.max_value.is_numeric
            ),
            None,
        )
        if probe_column is not None:
            low = probe_column.min_value.as_number()  # type: ignore[union-attr]
            high = probe_column.max_value.as_number()  # type: ignore[union-attr]
            for fraction in (0.1, 0.3, 0.6):
                threshold = low + fraction * (high - low)
                points.append(
                    self._probe(
                        f"SELECT * FROM {_quote(table)} "
                        f"WHERE {_quote(probe_column.name)} <= ?",
                        (threshold,),
                        repeats,
                    )
                )
        return fit_line([rows for rows, _ in points], [ms for _, ms in points])

    def _probe(
        self, sql: str, params: tuple, repeats: int
    ) -> tuple[float, float]:
        connection = self._connection()
        best = float("inf")
        rows = 0
        for _ in range(repeats):
            start = time.perf_counter()
            rows = len(connection.execute(sql, params).fetchall())
            best = min(best, (time.perf_counter() - start) * 1000.0)
        return (float(rows), best)

    def cost_rules_cdl(self) -> str:
        parts = [
            f"// Cost rules calibrated against SQLite by wrapper {self.name!r}"
            f" ({sqlite3.sqlite_version})."
        ]
        for table in self.tables:
            fixed, per_row = self.coefficients[table]
            stats = self._statistics[table]
            parts.append(
                f"costrule scan({table}) {{\n"
                f"    TimeFirst = {fixed:.6f};\n"
                f"    TotalTime = {fixed:.6f}"
                f" + {table}.CountObject * {per_row:.6f};\n"
                f"}}"
            )
            for attribute in stats.attributes.values():
                if not attribute.indexed:
                    continue
                column = attribute.name
                parts.append(
                    f"costrule select({table}, {column} = V) {{\n"
                    f"    CountObject = {table}.CountObject"
                    f" / {table}.{column}.CountDistinct;\n"
                    f"    TotalSize = CountObject * {table}.ObjectSize;\n"
                    f"    TotalTime = {fixed:.6f} + CountObject * {per_row:.6f};\n"
                    f"    TimeFirst = {fixed:.6f};\n"
                    f"}}"
                )
                span = f"({table}.{column}.Max - {table}.{column}.Min)"
                for op in ("<", "<=", ">", ">="):
                    if op in ("<", "<="):
                        fraction = f"(V - {table}.{column}.Min) / {span}"
                    else:
                        fraction = f"({table}.{column}.Max - V) / {span}"
                    parts.append(
                        f"costrule select({table}, {column} {op} V) {{\n"
                        f"    CountObject = {table}.CountObject"
                        f" * clamp01({fraction});\n"
                        f"    TotalSize = CountObject * {table}.ObjectSize;\n"
                        f"    TotalTime = {fixed:.6f}"
                        f" + CountObject * {per_row:.6f};\n"
                        f"    TimeFirst = {fixed:.6f};\n"
                        f"}}"
                    )
        return "\n".join(parts)

    def export_cost_info(self) -> CostInfoExport:
        return CostInfoExport(
            statistics=list(self._statistics.values()),
            cdl_source=self.cost_rules_cdl(),
        )

    # -- query-time execution -------------------------------------------------

    def execute(self, plan: PlanNode) -> ExecutionResult:
        plan = strip_submits(plan)
        self.check_capabilities(plan)
        sql, params = self.translate(plan)
        connection = self._connection()
        start = time.perf_counter()
        cursor = connection.execute(sql, params)
        time_first: float | None = None
        rows: list[Row] = []
        for fetched in cursor:
            if time_first is None:
                time_first = (time.perf_counter() - start) * 1000.0
            rows.append(dict(fetched))
        total = (time.perf_counter() - start) * 1000.0
        return ExecutionResult(
            rows=rows,
            total_time_ms=total,
            time_first_ms=time_first if time_first is not None else total,
            device_stats={"sql_rows": len(rows)},
        )

    # -- plan -> SQL translation ----------------------------------------------

    def translate(self, plan: PlanNode) -> tuple[str, list]:
        """The subplan as one (possibly nested) SQL statement."""
        params: list = []
        sql = self._translate(plan, params)
        return sql, params

    def _translate(self, node: PlanNode, params: list) -> str:
        if isinstance(node, Scan):
            if node.collection not in self.tables:
                raise PlanError(
                    f"wrapper {self.name!r} has no table {node.collection!r}"
                )
            return f"SELECT * FROM {_quote(node.collection)}"
        if isinstance(node, Select):
            inner = self._translate(node.child, params)
            condition = self._predicate_sql(node.predicate, params)
            return f"SELECT * FROM ({inner}) WHERE {condition}"
        if isinstance(node, Project):
            inner = self._translate(node.child, params)
            outputs = ", ".join(
                f"{_quote(node.source_of(name))} AS {_quote(name)}"
                for name in node.attributes
            )
            return f"SELECT {outputs} FROM ({inner})"
        if isinstance(node, Sort):
            inner = self._translate(node.child, params)
            direction = " DESC" if node.descending else ""
            keys = ", ".join(f"{_quote(key)}{direction}" for key in node.keys)
            return f"SELECT * FROM ({inner}) ORDER BY {keys}"
        if isinstance(node, Distinct):
            inner = self._translate(node.child, params)
            return f"SELECT DISTINCT * FROM ({inner})"
        if isinstance(node, Aggregate):
            inner = self._translate(node.child, params)
            outputs = [_quote(key) for key in node.group_by]
            for spec in node.aggregates:
                argument = (
                    _quote(spec.attribute) if spec.attribute is not None else "*"
                )
                outputs.append(
                    f"{spec.function.upper()}({argument}) AS {_quote(spec.alias)}"
                )
            sql = f"SELECT {', '.join(outputs)} FROM ({inner})"
            if node.group_by:
                sql += " GROUP BY " + ", ".join(
                    _quote(key) for key in node.group_by
                )
            return sql
        raise PlanError(
            f"wrapper {self.name!r} cannot translate {node.operator_name!r}"
        )

    def _predicate_sql(self, predicate: Predicate, params: list) -> str:
        if isinstance(predicate, TruePredicate):
            return "1 = 1"
        if isinstance(predicate, Comparison):
            left = self._operand_sql(predicate.left, params)
            right = self._operand_sql(predicate.right, params)
            return f"{left} {_SQL_OPS[predicate.op]} {right}"
        if isinstance(predicate, And):
            return (
                f"({self._predicate_sql(predicate.left, params)}"
                f" AND {self._predicate_sql(predicate.right, params)})"
            )
        if isinstance(predicate, Or):
            return (
                f"({self._predicate_sql(predicate.left, params)}"
                f" OR {self._predicate_sql(predicate.right, params)})"
            )
        if isinstance(predicate, Not):
            return f"(NOT {self._predicate_sql(predicate.operand, params)})"
        raise PlanError(f"cannot translate predicate {predicate!r} to SQL")

    @staticmethod
    def _operand_sql(expression: Any, params: list) -> str:
        if isinstance(expression, AttributeRef):
            return _quote(expression.name)
        if isinstance(expression, Literal):
            params.append(expression.value)
            return "?"
        raise PlanError(f"cannot translate expression {expression!r} to SQL")
