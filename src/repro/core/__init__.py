"""The paper's primary contribution: the extensible blended cost model."""

from repro.core.estimator import (
    ConflictPolicy,
    CostEstimator,
    EstimatorOptions,
    NodeEstimate,
    PlanEstimate,
    SourceEnvironment,
)
from repro.core.generic import (
    CoefficientSet,
    GenericCoefficients,
    install_generic_model,
    install_local_model,
    standard_repository,
)
from repro.core.history import HistoryStore, plan_fingerprint
from repro.core.rules import (
    CostRule,
    OperatorPattern,
    join_pattern,
    rule,
    scan_pattern,
    select_eq_pattern,
    select_pattern,
    var,
)
from repro.core.scopes import RuleRepository, Scope
from repro.core.selectivity import EquiDepthHistogram, EquiWidthHistogram
from repro.core.statistics import (
    AttributeStats,
    CollectionStats,
    Constant,
    StatisticsCatalog,
)

__all__ = [
    "AttributeStats",
    "CoefficientSet",
    "CollectionStats",
    "ConflictPolicy",
    "Constant",
    "CostEstimator",
    "CostRule",
    "EquiDepthHistogram",
    "EquiWidthHistogram",
    "EstimatorOptions",
    "GenericCoefficients",
    "HistoryStore",
    "NodeEstimate",
    "OperatorPattern",
    "PlanEstimate",
    "RuleRepository",
    "Scope",
    "SourceEnvironment",
    "StatisticsCatalog",
    "install_generic_model",
    "install_local_model",
    "join_pattern",
    "plan_fingerprint",
    "rule",
    "scan_pattern",
    "select_eq_pattern",
    "select_pattern",
    "standard_repository",
    "var",
]
