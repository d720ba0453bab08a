"""Per-query cost attribution — the flight recorder's core join.

A :class:`QueryProfile` answers, for **one** executed query, the question
the whole paper is about: *where did the simulated time go, and which
cost rule predicted it badly?*  It joins the three records the pipeline
already produces:

* the **span tree** (``QueryResult.trace``) — the simulated timeline of
  phases, waves, submits and mediator-side compose operators;
* the **submit log** (``ExecutionResult.submit_log``) — the measured
  wrapper-side executions, exactly what §4.3.1 history learns from;
* the **estimate provenance** (``PlanEstimate.nodes``) — per-plan-node
  predicted values and the ``scope[source]: rule`` that produced each.

The result is a per-operator attribution table (estimated vs simulated
cost, per wave and per shard) plus a *blame ranking*: the per-(scope,
rule) q-errors of this query alone, worst first — a single-query slice
of the lifetime :class:`~repro.obs.accuracy.DriftTracker`.

Attribution invariant: every span under the ``execute`` phase becomes a
row whose ``self_ms`` is its *exclusive* simulated time (duration minus
children).  Exclusive times telescope, so the rows sum to the execute
span's duration — which **is** the query's measured ``TotalTime``.  The
sum holds for sequential, parallel-wave and scatter executions alike
(wave branches overlap on the wrapper side, so their ``self_ms`` is 0
and the wave row carries the makespan).

Profiles are built by :meth:`~repro.obs.QueryTelemetry.record_query`
when observability is on, attached to ``QueryResult.profile``, and
rendered as text by :meth:`QueryProfile.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.accuracy import DriftTracker, parse_provenance, q_error
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.mediator import QueryResult
    from repro.wrappers.base import ExecutionResult


@dataclass
class OperatorRow:
    """One span of the execute phase, joined against its estimate."""

    name: str
    kind: str
    start_ms: float
    #: Inclusive simulated duration of the span.
    duration_ms: float
    #: Exclusive simulated time (duration minus children) — the share of
    #: ``TotalTime`` attributed to this operator itself.
    self_ms: float
    #: Plan-node identity, when the span carries one (submit rows point
    #: at the wrapper-side subquery root, compose rows at their node).
    node_id: int | None = None
    operator: str | None = None
    wrapper: str | None = None
    #: Shard identity of scatter-branch submits.
    shard: int | None = None
    shard_of: str | None = None
    #: Ordinal of the enclosing wave span (document order), if any.
    wave: int | None = None
    #: Measured values: rows produced and — for submits — the wrapper's
    #: own response time (the overlap a zero-length wave-branch span
    #: cannot show).
    rows: int | None = None
    wrapper_ms: float | None = None
    #: Estimated values of the joined plan node.
    estimated_ms: float | None = None
    estimated_rows: float | None = None
    #: q-errors of the estimate against this row's measurement.
    q_time: float | None = None
    q_rows: float | None = None
    #: ``variable -> "scope[source]: rule"`` of the joined estimate.
    provenance: dict[str, str] = field(default_factory=dict)


@dataclass
class QueryProfile:
    """The per-operator attribution of one executed query."""

    sql: str | None
    elapsed_ms: float
    estimated_ms: float
    operators: list[OperatorRow] = field(default_factory=list)
    #: Per-wave summary (ordinal, branches, makespan, saved time).
    waves: list[dict[str, Any]] = field(default_factory=list)
    #: Per-(collection, shard, wrapper) summary of scatter submits.
    shards: list[dict[str, Any]] = field(default_factory=list)
    #: Per-member replica-dispatch summary (selected/failover/hedge
    #: counts) when the catalog has replica sets; empty otherwise.
    replication: list[dict[str, Any]] = field(default_factory=list)
    #: Per-(scope, rule, variable) q-errors of this query, worst mean
    #: first — the blame ranking.
    blame: list[dict[str, Any]] = field(default_factory=list)
    #: Lifecycle events outside the execute phase — the serving layer
    #: appends admission events (admit/queue/reject, with tenant labels)
    #: and start/finish marks here.
    timeline: list[dict[str, Any]] = field(default_factory=list)
    #: Executed submits with no plan estimate (runtime-built bind-join
    #: probes) — excluded from the blame ranking, never silently.
    unmatched_submits: int = 0

    @property
    def attributed_ms(self) -> float:
        """Sum of exclusive operator times; equals ``elapsed_ms`` up to
        float rounding (the attribution invariant)."""
        return sum(row.self_ms for row in self.operators)

    @property
    def q_total(self) -> float:
        """Whole-query q-error: estimated vs simulated TotalTime."""
        return q_error(self.estimated_ms, self.elapsed_ms)

    def worst_blame(self, variable: str = "TotalTime") -> dict[str, Any] | None:
        """The worst-mispredicting (scope, rule) for one variable."""
        candidates = [b for b in self.blame if b["variable"] == variable]
        if not candidates:
            return None
        return max(candidates, key=lambda b: b["max_q_error"])

    # -- pretty text -----------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"QueryProfile: {self.sql or '(plan)'}",
            (
                f"simulated TotalTime {self.elapsed_ms:.1f} ms, "
                f"estimated {self.estimated_ms:.1f} ms "
                f"(q-error {self.q_total:.2f}); "
                f"attributed {self.attributed_ms:.1f} ms over "
                f"{len(self.operators)} operators"
            ),
            "",
            _table(
                (
                    "operator",
                    "kind",
                    "wave",
                    "shard",
                    "self ms",
                    "total ms",
                    "rows",
                    "wrapper ms",
                    "est ms",
                    "est rows",
                    "q(time)",
                ),
                [
                    (
                        _clip(row.operator or row.name, 36),
                        row.kind,
                        _opt(row.wave),
                        _opt(row.shard),
                        f"{row.self_ms:.1f}",
                        f"{row.duration_ms:.1f}",
                        _opt(row.rows),
                        _opt_f(row.wrapper_ms),
                        _opt_f(row.estimated_ms),
                        _opt_f(row.estimated_rows),
                        _opt_f(row.q_time, "{:.2f}"),
                    )
                    for row in self.operators
                ],
            ),
        ]
        if self.waves:
            lines += [
                "",
                "waves:",
                _table(
                    ("wave", "branches", "makespan ms", "saved ms", "cached", "failed"),
                    [
                        (
                            str(w.get("wave")),
                            str(w.get("branches")),
                            f"{w.get('makespan_ms', 0.0):.1f}",
                            f"{w.get('saved_ms', 0.0):.1f}",
                            str(w.get("cached_branches", 0)),
                            str(w.get("failed_branches", 0)),
                        )
                        for w in self.waves
                    ],
                ),
            ]
        if self.shards:
            lines += [
                "",
                "shards:",
                _table(
                    ("collection", "shard", "wrapper", "submits", "rows", "wrapper ms"),
                    [
                        (
                            str(s.get("collection")),
                            str(s.get("shard")),
                            str(s.get("wrapper")),
                            str(s.get("submits")),
                            str(s.get("rows")),
                            f"{s.get('wrapper_ms', 0.0):.1f}",
                        )
                        for s in self.shards
                    ],
                ),
            ]
        if self.replication:
            lines += [
                "",
                "replication:",
                _table(
                    ("member", "selected", "failovers", "hedges", "hedge wins"),
                    [
                        (
                            str(r.get("wrapper")),
                            str(r.get("selected", 0)),
                            str(r.get("failovers", 0)),
                            str(r.get("hedges_launched", 0)),
                            str(r.get("hedges_won", 0)),
                        )
                        for r in self.replication
                    ],
                ),
            ]
        if self.blame:
            lines += [
                "",
                "blame ranking (per-(scope, rule) q-error, worst mean first):",
                _table(
                    ("scope", "source", "rule", "variable", "n", "mean q", "max q"),
                    [
                        (
                            b["scope"],
                            b["source"] or "-",
                            _clip(b["rule"], 44),
                            b["variable"],
                            str(b["count"]),
                            f"{b['mean_q_error']:.2f}",
                            f"{b['max_q_error']:.2f}",
                        )
                        for b in self.blame
                    ],
                ),
            ]
        if self.unmatched_submits:
            lines.append(
                f"({self.unmatched_submits} runtime-built submits without a "
                "plan estimate were excluded from the blame ranking)"
            )
        if self.timeline:
            lines += ["", "timeline:"]
            for entry in self.timeline:
                at = entry.get("at_ms")
                prefix = f"  {at:.1f} ms  " if isinstance(at, (int, float)) else "  "
                detail = ", ".join(
                    f"{key}={value}"
                    for key, value in entry.items()
                    if key not in ("at_ms", "event")
                )
                lines.append(f"{prefix}{entry.get('event')}  {detail}")
        return "\n".join(lines)


# -- building ------------------------------------------------------------------


def build_query_profile(
    result: "QueryResult", execution: "ExecutionResult"
) -> QueryProfile | None:
    """Join one answered query's trace, submit log and estimate.

    Returns ``None`` when the result carries no trace (observability off
    or ``trace=False``) — the profile is a view over recorded telemetry,
    never a new measurement.
    """
    trace = result.trace
    if trace is None:
        return None
    execute = next(iter(trace.find(kind="phase", name="execute")), None)
    root = execute if execute is not None else trace
    estimate_nodes = result.estimate.nodes if result.estimate is not None else {}

    profile = QueryProfile(
        sql=result.sql,
        elapsed_ms=result.elapsed_ms,
        estimated_ms=(
            result.estimate.total_time if result.estimate is not None else 0.0
        ),
    )
    wave_counter = 0

    def visit(span: Span, wave: int | None) -> None:
        nonlocal wave_counter
        this_wave = wave
        if span.kind == "wave":
            wave_counter += 1
            this_wave = wave_counter
            profile.waves.append(
                {
                    "wave": this_wave,
                    "branches": span.attributes.get("branches"),
                    "makespan_ms": span.attributes.get("makespan_ms", 0.0),
                    "sequential_ms": span.attributes.get("sequential_ms", 0.0),
                    "saved_ms": span.attributes.get("saved_ms", 0.0),
                    "cached_branches": span.attributes.get("cached_branches", 0),
                    "failed_branches": span.attributes.get("failed_branches", 0),
                }
            )
        profile.operators.append(_row_for(span, this_wave, estimate_nodes))
        for child in span.children:
            visit(child, this_wave)

    visit(root, None)
    profile.shards = _shard_summary(profile.operators)
    profile.replication = _replication_summary(execution)
    profile.blame, profile.unmatched_submits = _blame_ranking(result, execution)
    return profile


def _replication_summary(execution: "ExecutionResult") -> list[dict[str, Any]]:
    """Per-member replica-dispatch rows from the execution's counters."""
    rep = getattr(execution, "replication", None)
    if rep is None:
        return []
    members = sorted(
        set(rep.selected)
        | set(rep.failovers)
        | set(rep.hedges_launched)
        | set(rep.hedges_won)
    )
    return [
        {
            "wrapper": member,
            "selected": rep.selected.get(member, 0),
            "failovers": rep.failovers.get(member, 0),
            "hedges_launched": rep.hedges_launched.get(member, 0),
            "hedges_won": rep.hedges_won.get(member, 0),
        }
        for member in members
    ]


def _row_for(
    span: Span, wave: int | None, estimate_nodes: dict[int, Any]
) -> OperatorRow:
    attrs = span.attributes
    row = OperatorRow(
        name=span.name,
        kind=span.kind,
        start_ms=span.start_ms,
        duration_ms=span.duration_ms,
        self_ms=span.duration_ms
        - sum(child.duration_ms for child in span.children),
        wave=wave,
        wrapper=attrs.get("wrapper"),
        shard=attrs.get("shard"),
        shard_of=attrs.get("shard_of"),
        rows=attrs.get("rows"),
        wrapper_ms=attrs.get("wrapper_ms"),
    )
    if span.kind == "submit":
        # The wrapper-side measurement corresponds to the Submit *child*
        # (the subtree the wrapper ran) — the same join the DriftTracker
        # makes — so the row's estimate columns come from the child node.
        row.node_id = attrs.get("child_node_id")
        row.operator = attrs.get("subquery")
    else:
        row.node_id = attrs.get("node_id")
        row.operator = attrs.get("node")
    node_estimate = (
        estimate_nodes.get(row.node_id) if row.node_id is not None else None
    )
    if node_estimate is None:
        return row
    estimated_time = node_estimate.values.get("TotalTime")
    estimated_rows = node_estimate.values.get("CountObject")
    if isinstance(estimated_time, (int, float)):
        row.estimated_ms = float(estimated_time)
    if isinstance(estimated_rows, (int, float)):
        row.estimated_rows = float(estimated_rows)
    row.provenance = {
        variable: text
        for variable, text in node_estimate.provenance.items()
        if variable in ("TotalTime", "CountObject")
    }
    # Submit rows compare the wrapper's measured response time; compose
    # and phase rows compare the span's inclusive simulated duration
    # (node estimates are cumulative over their subtree, as are spans).
    # Zero-duration markers (instant events) carry no measurement, so
    # they get estimate columns but no q-error.
    measured_time = row.wrapper_ms if span.kind == "submit" else row.duration_ms
    if row.estimated_ms is not None and measured_time:
        row.q_time = q_error(row.estimated_ms, measured_time)
    if row.estimated_rows is not None and row.rows is not None:
        row.q_rows = q_error(row.estimated_rows, float(row.rows))
    return row


def _shard_summary(operators: list[OperatorRow]) -> list[dict[str, Any]]:
    groups: dict[tuple, dict[str, Any]] = {}
    for row in operators:
        if row.kind != "submit" or row.shard is None:
            continue
        key = (row.shard_of, row.shard, row.wrapper)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "collection": row.shard_of,
                "shard": row.shard,
                "wrapper": row.wrapper,
                "submits": 0,
                "rows": 0,
                "wrapper_ms": 0.0,
            }
        group["submits"] += 1
        group["rows"] += row.rows or 0
        group["wrapper_ms"] += row.wrapper_ms or 0.0
    return [groups[key] for key in sorted(groups, key=lambda k: (str(k[0]), k[1]))]


def _blame_ranking(
    result: "QueryResult", execution: "ExecutionResult"
) -> tuple[list[dict[str, Any]], int]:
    """A single-query DriftTracker pass: per-(scope, rule) q-errors of
    this execution alone, worst mean first."""
    if result.estimate is None:
        return [], 0
    tracker = DriftTracker()
    tracker.observe_plan(result.estimate, execution.submit_log)
    blame = [
        {
            "scope": aggregate.scope,
            "source": aggregate.source,
            "rule": aggregate.rule,
            "variable": aggregate.variable,
            "count": aggregate.count,
            "mean_q_error": aggregate.mean_q,
            "max_q_error": aggregate.max_q,
            "last_estimated": aggregate.last_estimated,
            "last_actual": aggregate.last_actual,
        }
        for aggregate in tracker.aggregates()
    ]
    return blame, tracker.unmatched_submits


# -- small formatting helpers --------------------------------------------------


def _table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _opt(value: Any) -> str:
    return "-" if value is None else str(value)


def _opt_f(value: float | None, fmt: str = "{:.1f}") -> str:
    return "-" if value is None else fmt.format(value)


__all__ = [
    "OperatorRow",
    "QueryProfile",
    "build_query_profile",
    "parse_provenance",
]
