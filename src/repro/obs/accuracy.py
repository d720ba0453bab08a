"""Per-scope cost-model drift tracking — estimate-vs-actual q-error.

The paper's claim is that the blended cost model (the §4 scope hierarchy
``query > predicate > collection > wrapper > local > default``) predicts
execution better than the generic model alone.  This module makes that
claim *measurable per rule*: every executed wrapper subquery is joined
against the estimate the optimizer produced for it, and the resulting
q-errors are aggregated by the ``(scope, rule)`` that supplied each
variable — the provenance :class:`~repro.core.estimator.NodeEstimate`
already records (``"predicate[oo7]: select(AtomicParts, Id = V)"``).

A drift report then answers the paper-specific question directly: *which
exported cost rule is mispredicting*, and at which scope level.  A
wrapper-scope rule with q-error 40 while the collection-scope rule of the
same source sits at 1.2 is a pinpointed calibration bug.

The tracker only learns from **measured** executions: it consumes the
executor's ``submit_log``, which by construction excludes subanswer-cache
hits (a zero-time hit would poison the actuals exactly as it would
poison §4.3.1 history recording).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.algebra.logical import Submit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import PlanEstimate
    from repro.wrappers.base import ExecutionResult

#: The provenance format written by ``_Estimation._compute``:
#: ``scope[source]: rule name``.
_PROVENANCE = re.compile(r"^(?P<scope>[a-z]+)\[(?P<source>[^\]]*)\]: (?P<rule>.*)$")


def parse_provenance(text: str) -> tuple[str, str, str]:
    """Split a provenance string into (scope, source, rule).

    Strings that do not follow the scoped format (``"derived"``,
    ``"pruned (§4.3.2 bound exceeded)"``) fall into a synthetic
    ``internal`` scope so they still aggregate somewhere visible.
    """
    match = _PROVENANCE.match(text)
    if match is None:
        return ("internal", "", text)
    return (match.group("scope"), match.group("source"), match.group("rule"))


def q_error(estimated: float, actual: float, floor: float = 1e-9) -> float:
    """The symmetric multiplicative error ``max(est/act, act/est)``.

    1.0 is a perfect prediction; 10.0 means an order of magnitude off in
    either direction.  Values are floored to keep zero-cost corner cases
    (empty subanswers) finite.
    """
    est = max(float(estimated), floor)
    act = max(float(actual), floor)
    return max(est / act, act / est)


def log_ratio(estimated: float, actual: float, floor: float = 1e-9) -> float:
    """The *directional* error ``log(actual / estimate)``.

    q-error is symmetric by design, which is right for ranking
    mispredictions but useless for correcting them: a calibrator needs
    to know whether the model under- or over-estimates.  Summing this
    log ratio over a window gives the geometric-mean correction factor
    ``exp(sum / n)`` the fitter applies.
    """
    est = max(float(estimated), floor)
    act = max(float(actual), floor)
    return math.log(act / est)


@dataclass
class DriftObservation:
    """One (estimate, measurement) pair for one variable of one submit."""

    scope: str
    source: str
    rule: str
    variable: str
    estimated: float
    actual: float
    #: The wrapper that executed the submit — the owner of the drift,
    #: regardless of which scope's rule priced it (a default-scope
    #: generic rule has source ``__mediator__`` but the work still ran
    #: on exactly one wrapper).
    wrapper: str = ""

    @property
    def q_error(self) -> float:
        return q_error(self.estimated, self.actual)

    @property
    def log_ratio(self) -> float:
        return log_ratio(self.estimated, self.actual)


@dataclass
class RuleDrift:
    """Aggregated q-error of one (scope, rule) pair for one variable."""

    scope: str
    source: str
    rule: str
    variable: str
    wrapper: str = ""
    count: int = 0
    sum_q: float = 0.0
    max_q: float = 0.0
    #: Directional drift: summed ``log(actual / estimate)``.  The
    #: window's geometric-mean correction is ``exp(sum / count)``.
    sum_log_ratio: float = 0.0
    last_estimated: float = 0.0
    last_actual: float = 0.0

    def fold(self, observation: DriftObservation) -> None:
        q = observation.q_error
        self.count += 1
        self.sum_q += q
        self.max_q = max(self.max_q, q)
        self.sum_log_ratio += observation.log_ratio
        self.last_estimated = observation.estimated
        self.last_actual = observation.actual

    @property
    def mean_q(self) -> float:
        return self.sum_q / self.count if self.count else 0.0


class DriftTracker:
    """Joins executed submits against their estimates, per (scope, rule).

    Feed it with :meth:`observe_plan` after each execution; read
    :meth:`report` (text table) or :meth:`snapshot` (JSON-ready dicts).
    """

    #: Variables joined against actuals: predicted response time and
    #: predicted cardinality, the two the executor can measure directly.
    VARIABLES = ("TotalTime", "CountObject")

    def __init__(self) -> None:
        self._aggregates: dict[tuple[str, str, str, str, str], RuleDrift] = {}
        #: Guards aggregate lookup-and-fold and the observation counters:
        #: real-backend executions can report drift from pool threads.
        self._lock = threading.Lock()
        #: Submits executed but absent from the estimated plan (runtime-
        #: built bind-join probes): counted, never silently dropped.
        self.unmatched_submits = 0
        self.observations = 0
        #: Wrappers the federation *expects* drift data for (registered
        #: sources).  A wrapper in this set with no aggregates gets an
        #: explicit ``count=0`` snapshot row, so downstream consumers
        #: (calibrator, CLI) can tell "no data" from "perfect fit".
        self.expected_wrappers: set[str] = set()

    def __len__(self) -> int:
        return len(self._aggregates)

    # -- feeding ---------------------------------------------------------------

    def expect_wrapper(self, name: str) -> None:
        """Declare a wrapper whose drift should be reported even when no
        submit has been measured yet (zero-sample row)."""
        self.expected_wrappers.add(name)

    def observe_submit(
        self,
        estimate: "PlanEstimate",
        submit: Submit,
        result: "ExecutionResult",
    ) -> list[DriftObservation]:
        """Join one executed submit against the plan estimate.

        The wrapper-side measurement corresponds to the Submit *child*
        (the subtree the wrapper ran); the mediator-side Submit node adds
        communication the wrapper never sees.
        """
        node_estimate = estimate.nodes.get(submit.child.node_id)
        if node_estimate is None:
            # Bind-join probe batches are constructed at run time; the
            # estimated plan holds the BindJoin node, not these Submits.
            with self._lock:
                self.unmatched_submits += 1
            return []
        actuals = {
            "TotalTime": float(result.total_time_ms),
            "CountObject": float(result.count),
        }
        observations: list[DriftObservation] = []
        for variable in self.VARIABLES:
            if variable not in node_estimate.values:
                continue
            estimated = node_estimate.values[variable]
            if not isinstance(estimated, (int, float)):
                continue
            scope, source, rule = parse_provenance(
                node_estimate.provenance.get(variable, "internal")
            )
            observation = DriftObservation(
                scope=scope,
                source=source,
                rule=rule,
                variable=variable,
                estimated=float(estimated),
                actual=actuals[variable],
                wrapper=submit.wrapper,
            )
            key = (scope, source, rule, variable, submit.wrapper)
            with self._lock:
                aggregate = self._aggregates.get(key)
                if aggregate is None:
                    aggregate = RuleDrift(
                        scope=scope,
                        source=source,
                        rule=rule,
                        variable=variable,
                        wrapper=submit.wrapper,
                    )
                    self._aggregates[key] = aggregate
                aggregate.fold(observation)
                self.observations += 1
            observations.append(observation)
        return observations

    def observe_plan(
        self,
        estimate: "PlanEstimate",
        submit_log: "Iterable[tuple[Submit, ExecutionResult]]",
    ) -> int:
        """Fold every measured submit of one execution in; returns the
        number of observations recorded."""
        recorded = 0
        for submit, result in submit_log:
            recorded += len(self.observe_submit(estimate, submit, result))
        return recorded

    # -- reading ---------------------------------------------------------------

    def aggregates(self) -> list[RuleDrift]:
        """All (scope, rule, variable) aggregates, worst mean q-error first."""
        return sorted(
            self._aggregates.values(), key=lambda a: a.mean_q, reverse=True
        )

    def worst(self, variable: str = "TotalTime") -> RuleDrift | None:
        """The most-mispredicting rule for one variable."""
        candidates = [a for a in self.aggregates() if a.variable == variable]
        return candidates[0] if candidates else None

    def report(self) -> str:
        """An aligned text table of per-(scope, rule) drift."""
        return render_drift_snapshot(self.snapshot())

    def snapshot(self) -> dict:
        """Plain-dict form, grouped per (scope, rule, wrapper).

        Expected wrappers with no measured submits contribute explicit
        ``count=0`` rows — "no data" must never be confused with
        "perfect fit" by a consumer folding over the rows.
        """
        rows = [
            {
                "scope": a.scope,
                "source": a.source,
                "rule": a.rule,
                "variable": a.variable,
                "wrapper": a.wrapper,
                "count": a.count,
                "mean_q_error": a.mean_q,
                "max_q_error": a.max_q,
                "sum_log_ratio": a.sum_log_ratio,
                "last_estimated": a.last_estimated,
                "last_actual": a.last_actual,
            }
            for a in self.aggregates()
        ]
        measured = {a.wrapper for a in self._aggregates.values()}
        for wrapper in sorted(self.expected_wrappers - measured):
            for variable in self.VARIABLES:
                rows.append(
                    {
                        "scope": "none",
                        "source": wrapper,
                        "rule": "(no measured submits)",
                        "variable": variable,
                        "wrapper": wrapper,
                        "count": 0,
                        "mean_q_error": 0.0,
                        "max_q_error": 0.0,
                        "sum_log_ratio": 0.0,
                        "last_estimated": 0.0,
                        "last_actual": 0.0,
                    }
                )
        return {
            "observations": self.observations,
            "unmatched_submits": self.unmatched_submits,
            "rules": rows,
        }


def render_drift_snapshot(snapshot: dict) -> str:
    """The drift report table, built from a :meth:`DriftTracker.snapshot`
    dict (``tracker.report()``)."""
    headers = (
        "scope",
        "source",
        "wrapper",
        "rule",
        "variable",
        "n",
        "mean q",
        "max q",
    )
    rows = [
        (
            r["scope"],
            r["source"] or "-",
            r.get("wrapper") or "-",
            r["rule"] if len(r["rule"]) <= 48 else r["rule"][:45] + "...",
            r["variable"],
            str(r["count"]),
            f"{r['mean_q_error']:.2f}" if r["count"] else "-",
            f"{r['max_q_error']:.2f}" if r["count"] else "-",
        )
        for r in snapshot.get("rules", ())
    ]
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
    unmatched = snapshot.get("unmatched_submits", 0)
    if unmatched:
        lines.append(
            f"({unmatched} runtime-built submits without a "
            "plan estimate were skipped)"
        )
    return "\n".join(lines)
