"""The multi-source federation scenario behind experiments E2 and E3.

Four sources spanning the heterogeneity spectrum of §1:

* ``oo7`` — the simulated ObjectStore with OO7 data (slow device,
  25 ms/page), able to export full Yao cost rules;
* ``sales`` — a relational engine (Suppliers, Orders; fast device);
* ``api`` — a high-latency remote source (Tickets);
* ``files`` — a flat file (AuditLog) that can at best export sampled
  statistics.

Three mediator configurations embody the paper's comparison:

* ``generic`` — wrappers export *names only*: the mediator runs on its
  generic model with §6 "standard values" everywhere;
* ``calibrated`` — wrappers export statistics and the mediator's
  coefficients are fitted per source by the [DKS92]/[GST96] probing
  procedure (the state of the art the paper improves on);
* ``blended`` — calibration *plus* wrapper-exported cost rules,
  blended through the scope hierarchy (the paper's contribution).

``run_federation_experiment`` optimizes and executes a fixed workload
under each configuration, recording estimated and actual response times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.calibration import calibrate_wrapper
from repro.errors import CalibrationError
from repro.mediator.mediator import Mediator
from repro.oo7 import SMALL, OO7Config, load_database
from repro.sources.relationaldb import RelationalDatabase
from repro.wrappers import (
    FlatFileWrapper,
    ObjectStoreWrapper,
    RelationalWrapper,
    WebSourceWrapper,
)

MODELS = ("generic", "calibrated", "blended")


@dataclass
class Engines:
    """The shared data sources (engines persist across configurations)."""

    oo7_db: object
    sales_db: RelationalDatabase
    audit_rows: list[dict]
    ticket_rows: list[dict]


def build_engines(config: OO7Config = SMALL, seed: int = 7) -> Engines:
    oo7_db = load_database(
        config, seed, extents=("AtomicParts", "CompositeParts")
    )
    sales_db = RelationalDatabase()
    sales_db.create_table(
        "Suppliers",
        [
            {"sid": i, "partType": f"type{i % 10:03d}", "city": f"city{i % 5}"}
            for i in range(200)
        ],
        row_size=48,
        indexed_columns=["sid"],
    )
    sales_db.create_table(
        "Orders",
        [
            {"oid": i, "supplier": i % 200, "qty": (i * 13) % 500}
            for i in range(5000)
        ],
        row_size=32,
        indexed_columns=["oid", "supplier"],
    )
    audit_rows = [
        {"entry": i, "supplier": i % 200, "severity": i % 4} for i in range(6000)
    ]
    ticket_rows = [
        {"tid": i, "supplier": i % 200, "status": "open" if i % 3 else "closed"}
        for i in range(400)
    ]
    return Engines(
        oo7_db=oo7_db,
        sales_db=sales_db,
        audit_rows=audit_rows,
        ticket_rows=ticket_rows,
    )


def build_mediator(model: str, engines: Engines) -> Mediator:
    """Assemble a mediator in one of the three configurations."""
    if model not in MODELS:
        raise ValueError(f"unknown model configuration {model!r}")
    with_stats = model != "generic"
    with_rules = model == "blended"

    oo7 = ObjectStoreWrapper("oo7", engines.oo7_db, export_rules=with_rules)
    oo7.export_statistics = with_stats
    sales = RelationalWrapper("sales", engines.sales_db, export_rules=with_rules)
    sales.export_statistics = with_stats
    api = WebSourceWrapper("api", latency_ms=800.0)
    if "Tickets" not in api.engine.collection_names():
        api.add_collection(
            "Tickets", engines.ticket_rows, indexed_attributes=["tid"]
        )
    if not with_rules:
        api.cost_rules_cdl = lambda: None  # type: ignore[method-assign]
    api.export_statistics = with_stats
    files = FlatFileWrapper(
        "files",
        "AuditLog",
        rows=engines.audit_rows,
        export_statistics=with_stats,  # "sampled once" in the richer configs
    )

    mediator = Mediator()
    for wrapper in (oo7, sales, api, files):
        mediator.register(wrapper)

    if model in ("calibrated", "blended"):
        for wrapper in (oo7, sales, api, files):
            try:
                fitted = calibrate_wrapper(wrapper)
            except CalibrationError:
                continue
            mediator.coefficients.set_source(wrapper.name, fitted.coefficients)
    return mediator


#: The E2/E3 workload: selections, cross-source joins, same-wrapper joins,
#: a no-stats source join, and an aggregate.
WORKLOAD: tuple[tuple[str, str], ...] = (
    (
        "point",
        "SELECT * FROM AtomicParts WHERE Id = 4321",
    ),
    (
        "range",
        "SELECT * FROM AtomicParts WHERE Id BETWEEN 100 AND 599",
    ),
    (
        "cross-join",
        "SELECT * FROM AtomicParts, Suppliers "
        "WHERE AtomicParts.type = Suppliers.partType "
        "AND Suppliers.city = 'city1' AND AtomicParts.Id < 500",
    ),
    (
        "local-join",
        "SELECT * FROM Orders, Suppliers "
        "WHERE Orders.supplier = Suppliers.sid AND Suppliers.city = 'city0'",
    ),
    (
        "file-join",
        "SELECT * FROM AuditLog, Suppliers "
        "WHERE AuditLog.supplier = Suppliers.sid "
        "AND AuditLog.severity = 3 AND Suppliers.city = 'city2'",
    ),
    (
        "remote-join",
        "SELECT * FROM Tickets, Suppliers "
        "WHERE Tickets.supplier = Suppliers.sid AND Tickets.status = 'closed'",
    ),
    (
        "three-way",
        "SELECT * FROM Orders, Suppliers, Tickets "
        "WHERE Orders.supplier = Suppliers.sid "
        "AND Tickets.supplier = Suppliers.sid "
        "AND Tickets.status = 'closed' AND Orders.qty < 50",
    ),
    (
        "audit-chain",
        # Join-order sensitive: the good order filters Suppliers first;
        # the bad one builds the 150 000-row AuditLog x Orders
        # intermediate.  Without statistics the orders are estimated as
        # equals, so the generic configuration can pick either.
        "SELECT * FROM AuditLog, Orders, Suppliers "
        "WHERE AuditLog.supplier = Suppliers.sid "
        "AND Orders.supplier = Suppliers.sid AND Suppliers.city = 'city3'",
    ),
    (
        "aggregate",
        "SELECT type, COUNT(*) AS n FROM AtomicParts GROUP BY type",
    ),
)


@dataclass
class QueryRecord:
    """One (configuration, query) measurement."""

    model: str
    label: str
    estimated_ms: float
    actual_ms: float
    rows: int
    candidates: int
    pruned: int


@dataclass
class FederationExperiment:
    """All measurements of one experiment run."""

    records: list[QueryRecord] = field(default_factory=list)

    def for_model(self, model: str) -> list[QueryRecord]:
        return [r for r in self.records if r.model == model]

    def labels(self) -> list[str]:
        """The workload's query labels, in run order."""
        return [r.label for r in self.for_model(MODELS[0])]

    def total_actual(self, model: str) -> float:
        return sum(r.actual_ms for r in self.for_model(model))

    def record_for(self, model: str, label: str) -> QueryRecord:
        for record in self.records:
            if record.model == model and record.label == label:
                return record
        raise KeyError((model, label))


def run_federation_experiment(
    config: OO7Config = SMALL,
    seed: int = 7,
    workload: tuple[tuple[str, str], ...] = WORKLOAD,
    models: tuple[str, ...] = MODELS,
) -> FederationExperiment:
    """Run the workload under every configuration."""
    experiment = FederationExperiment()
    for model in models:
        engines = build_engines(config, seed)
        mediator = build_mediator(model, engines)
        for label, sql in workload:
            result = mediator.query(sql)
            experiment.records.append(
                QueryRecord(
                    model=model,
                    label=label,
                    estimated_ms=result.estimated_ms,
                    actual_ms=result.elapsed_ms,
                    rows=result.count,
                    candidates=result.optimizer_stats.candidates_considered,
                    pruned=result.optimizer_stats.candidates_pruned,
                )
            )
    return experiment
