"""Experiment E7 — dependent (bind) joins for expensive sources (§7).

The paper's closing motivation: "the problem of cost evaluation is
crucial, for example to avoid processing a large number of images by
first selecting a few images from other data source."  This experiment
builds exactly that situation — an image library whose objects cost
80 ms each to produce, and a small tag catalog — and compares, as the
tag filter's selectivity varies:

* **classic plan** — ship the whole image collection to the mediator and
  hash-join (cost independent of the filter);
* **bind join** — fetch the matching tags first, then probe the image
  library with just those keys.

The crossover is the point the cost model must find: below it the bind
join wins by orders of magnitude, above it probing every key one by one
loses to the bulk scan.  The experiment reports, per selectivity, both
measured times, both estimates, and which plan the optimizer picked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.algebra.builders import scan
from repro.algebra.expressions import attr
from repro.algebra.logical import BindJoin, PlanNode
from repro.bench.harness import format_table
from repro.mediator.mediator import Mediator
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.base import StorageWrapper

#: The expensive source: 80 ms to produce one image object.
IMAGE_DEVICE = CostProfile(io_ms=20.0, cpu_ms_per_object=80.0, cpu_ms_per_eval=1.0)

IMAGE_COUNT = 2000
TAG_COUNT = 1000


def build_mediator() -> Mediator:
    """An image library + a tag catalog whose ``weight`` column lets the
    workload dial the number of outer keys from a handful to all."""
    mediator = Mediator()
    images = StorageEngine(SimClock(IMAGE_DEVICE))
    images.create_collection(
        "Images",
        [
            {"img": i, "label": f"type{i % 10:03d}", "bytes": 10_000}
            for i in range(IMAGE_COUNT)
        ],
        object_size=400,
        indexed_attributes=["img"],
        placement="scattered",
    )
    mediator.register(StorageWrapper("media", images))

    tags = StorageEngine(SimClock(CostProfile(io_ms=2.0, cpu_ms_per_object=0.2)))
    tags.create_collection(
        "Tags",
        [
            {"tagged": (i * 97) % IMAGE_COUNT, "weight": i}
            for i in range(TAG_COUNT)
        ],
        object_size=24,
        indexed_attributes=["tagged", "weight"],
    )
    mediator.register(StorageWrapper("meta", tags))

    # Calibrate both sources: without fitted coefficients the generic
    # model underprices the 80 ms/object image scan by an order of
    # magnitude and the classic/bind comparison is meaningless.
    from repro.mediator.probe_fit import calibrate_wrapper

    for name in ("media", "meta"):
        wrapper = mediator.catalog.wrapper(name)
        fitted = calibrate_wrapper(wrapper)
        mediator.coefficients.set_source(name, fitted.coefficients)
    return mediator


def classic_plan(weight_below: int) -> PlanNode:
    return (
        scan("Tags")
        .where(_weight_filter(weight_below))
        .submit_to("meta")
        .join(scan("Images").submit_to("media"), "tagged", "img")
        .build()
    )


def _weight_filter(weight_below: int):
    from repro.algebra.expressions import Comparison, lit

    return Comparison("<", attr("weight"), lit(weight_below))


def bind_plan(weight_below: int) -> PlanNode:
    outer = (
        scan("Tags").where(_weight_filter(weight_below)).submit_to("meta").build()
    )
    return BindJoin(
        outer=outer,
        outer_attribute=attr("tagged", "Tags"),
        inner_collection="Images",
        inner_attribute=attr("img", "Images"),
        wrapper="media",
    )


@dataclass
class BindJoinPoint:
    outer_keys: int
    classic_measured_ms: float
    bind_measured_ms: float
    classic_estimated_ms: float
    bind_estimated_ms: float
    optimizer_choice: str
    choice_correct: bool


@dataclass
class BindJoinResult:
    points: list[BindJoinPoint] = field(default_factory=list)

    def report(self) -> str:
        table = format_table(
            (
                "outer keys",
                "classic meas",
                "bind meas",
                "classic est",
                "bind est",
                "optimizer picked",
                "correct",
            ),
            [
                [
                    p.outer_keys,
                    p.classic_measured_ms,
                    p.bind_measured_ms,
                    p.classic_estimated_ms,
                    p.bind_estimated_ms,
                    p.optimizer_choice,
                    "yes" if p.choice_correct else "NO",
                ]
                for p in self.points
            ],
            title="E7 — bind join vs classic join (ms)",
        )
        return (
            f"{table}\n\nmax bind-join speedup: {self.max_speedup():.0f}x; "
            f"optimizer correct everywhere: {self.all_choices_correct}"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E7",
            "all_choices_correct": self.all_choices_correct,
            "points": [asdict(p) for p in self.points],
        }

    @property
    def all_choices_correct(self) -> bool:
        return all(p.choice_correct for p in self.points)

    def max_speedup(self) -> float:
        return max(
            p.classic_measured_ms / max(1e-9, p.bind_measured_ms)
            for p in self.points
        )


def run_bindjoin_experiment(
    key_counts: tuple[int, ...] = (10, 50, 200, 1000),
) -> BindJoinResult:
    result = BindJoinResult()
    for keys in key_counts:
        mediator = build_mediator()
        classic = classic_plan(keys)
        bind = bind_plan(keys)
        classic_est = mediator.estimator.estimate(classic).total_time
        bind_est = mediator.estimator.estimate(bind).total_time
        classic_ms = mediator.executor.execute(classic).total_time_ms
        bind_ms = mediator.executor.execute(bind).total_time_ms
        sql = (
            "SELECT * FROM Tags, Images "
            f"WHERE Tags.tagged = Images.img AND Tags.weight < {keys}"
        )
        optimized = mediator.plan(sql)
        chose_bind = any(isinstance(n, BindJoin) for n in optimized.plan.walk())
        better_is_bind = bind_ms < classic_ms
        result.points.append(
            BindJoinPoint(
                outer_keys=keys,
                classic_measured_ms=classic_ms,
                bind_measured_ms=bind_ms,
                classic_estimated_ms=classic_est,
                bind_estimated_ms=bind_est,
                optimizer_choice="bind" if chose_bind else "classic",
                choice_correct=(chose_bind == better_is_bind),
            )
        )
    return result
