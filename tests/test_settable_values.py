"""The settable values of every option and policy dataclass, by name.

A knob that no driver sets only multiplies the paths that must be kept
correct, so the fields below are pinned exactly.  A driver is one of
the experiments of ``python -m repro.bench``, an ``examples/*.py``
script or a ``benchmarks/e2e`` workload.  A change that adds a field
adds it here too, with a comment naming the driver that sets it to a
non-default value; a value that only tests set belongs in code as a
constant.
"""

import dataclasses

from repro.core.estimator import EstimatorOptions
from repro.mediator.calibration import CalibrationPolicy
from repro.mediator.executor import ExecutorOptions
from repro.mediator.optimizer import OptimizerOptions
from repro.mediator.resilience import BreakerPolicy, ResilienceOptions, RetryPolicy
from repro.service.admission import TenantPolicy
from repro.service.calibration import CalibrationOptions
from repro.service.service import ServiceOptions

FIELDS = {
    ExecutorOptions: (
        "parallel_submits",
        "max_concurrency",
        "cache_subanswers",
        "resilience",
        "backend",
    ),
    ResilienceOptions: ("retry", "breaker", "mode", "seed", "hedge_delay_ms"),
    RetryPolicy: (
        "max_attempts",
        "backoff_base_ms",
        "backoff_multiplier",
        "backoff_max_ms",
        "jitter_ratio",
        "deadline_ms",
    ),
    BreakerPolicy: ("failure_threshold", "cooldown_ms"),
    OptimizerOptions: ("use_pruning", "use_bind_join"),
    EstimatorOptions: ("conflict_policy", "propagate_required"),
    ServiceOptions: (
        "max_concurrent_queries",
        "max_outstanding_ms",
        "plan_cache",
        "plan_cache_entries",
        "calibration",
    ),
    TenantPolicy: ("quota", "max_concurrent", "max_outstanding_ms", "max_queue_depth"),
    CalibrationOptions: ("cadence_queries", "policy"),
    CalibrationPolicy: (
        "min_samples",
        "alpha",
        "max_step",
        "clamp_min",
        "clamp_max",
        "min_change",
        "variables",
    ),
}


def test_each_class_has_exactly_its_pinned_fields():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__


def test_forty_settable_values_in_ten_classes():
    assert len(FIELDS) == 10
    assert sum(len(dataclasses.fields(cls)) for cls in FIELDS) == 40
