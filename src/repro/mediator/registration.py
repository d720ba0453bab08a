"""The registration phase (§2.1, Figure 1).

"During the registration phase, mediators contact wrappers and upload all
the information required to use the wrapper, including cost information."
For each wrapper this module:

1. pulls its :class:`~repro.wrappers.base.CostInfoExport` (Step 2),
2. compiles the CDL document (the §2.4 code-shipping step — compilation
   happens once here, never during query processing),
3. stores schema and statistics in the mediator catalog,
4. integrates the cost rules into the rule repository at their derived
   scopes, and registers wrapper variables/functions with the estimator.

Re-registration (the administrative interface §2.1 envisions "when the
cost formulas are improved ... or the statistics become out of date")
first removes everything the wrapper previously exported.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.estimator import CostEstimator, SourceEnvironment
from repro.core.scopes import RuleRepository
from repro.core.statistics import AttributeStats, CollectionStats
from repro.errors import RegistrationError
from repro.mediator.catalog import MediatorCatalog, PartitionScheme
from repro.wrappers.base import Wrapper


def register_wrapper(
    wrapper: Wrapper,
    catalog: MediatorCatalog,
    repository: RuleRepository,
    estimator: CostEstimator,
) -> int:
    """Run the registration phase for one wrapper.

    Returns the number of cost rules integrated.  Raises
    :class:`RegistrationError` if the wrapper's export fails to compile.
    """
    try:
        export = wrapper.export_cost_info()
        compiled = export.compiled()
    except Exception as exc:
        raise RegistrationError(
            f"wrapper {wrapper.name!r} export failed: {exc}"
        ) from exc

    # Re-registration: drop everything the wrapper exported before.
    if wrapper.name in catalog.wrapper_names():
        catalog.remove_wrapper(wrapper.name)
        repository.remove_source(wrapper.name)

    catalog.add_wrapper(wrapper)
    stats_by_name = {stats.name: stats for stats in compiled.statistics}
    for collection in export.collection_names():
        stats = stats_by_name.get(collection)
        attributes: tuple[str, ...] = ()
        if collection in compiled.schema:
            attributes = tuple(compiled.schema[collection].attribute_names())
        if not attributes and stats is not None:
            attributes = tuple(stats.attributes)
        if not attributes:
            # Last resort: peek at the wrapper engine's rows (a mediator
            # administrator would configure this by hand).
            engine = getattr(wrapper, "engine", None)
            if engine is not None and collection in engine.collection_names():
                rows = engine.collection(collection).rows
                if rows:
                    attributes = tuple(rows[0].keys())
        catalog.add_collection(collection, wrapper.name, attributes, stats)

    repository.add_wrapper_rules(wrapper.name, compiled.rules)
    estimator.register_environment(
        SourceEnvironment(
            name=wrapper.name,
            variables=dict(compiled.variables),
            functions=dict(compiled.functions),
        )
    )
    return len(compiled.rules)


def register_replica(
    wrapper: Wrapper,
    of: str,
    catalog: MediatorCatalog,
    repository: RuleRepository,
    estimator: CostEstimator,
) -> int:
    """Register a wrapper as a replica of an already-registered primary.

    The replica runs the normal §2.1 upload — compiled cost rules under
    its own source scope, variables/functions as its own estimator
    environment — but does **not** claim collections: the primary owns
    the collection namespace and its statistics stay canonical.  The
    replica must actually serve every collection the primary does (it is
    interchangeable at dispatch time) and is validated against the
    primary's engine-visible collections.

    Returns the number of cost rules integrated.  Bumps the catalog
    version (via ``add_wrapper`` + ``add_replica``) so replica-blind
    cached plans evict.
    """
    primary = catalog.wrapper(of)
    try:
        export = wrapper.export_cost_info()
        compiled = export.compiled()
    except Exception as exc:
        raise RegistrationError(
            f"replica {wrapper.name!r} export failed: {exc}"
        ) from exc
    if wrapper.name in catalog.wrapper_names():
        raise RegistrationError(
            f"wrapper {wrapper.name!r} is already registered; replicas "
            "register once, via register_replica"
        )
    served = set(export.collection_names())
    missing = [
        name for name in primary.collection_names() if name not in served
    ]
    if missing:
        raise RegistrationError(
            f"replica {wrapper.name!r} does not serve {missing} exported "
            f"by primary {of!r}; replicas must be interchangeable"
        )

    catalog.add_wrapper(wrapper)
    catalog.add_replica(of, wrapper.name)
    repository.add_wrapper_rules(wrapper.name, compiled.rules)
    estimator.register_environment(
        SourceEnvironment(
            name=wrapper.name,
            variables=dict(compiled.variables),
            functions=dict(compiled.functions),
        )
    )
    return len(compiled.rules)


def register_partitioned_collection(
    scheme: PartitionScheme,
    catalog: MediatorCatalog,
) -> CollectionStats | None:
    """Register a partition scheme plus aggregated logical statistics.

    Every shard's wrapper and physical collection must already be
    registered (the normal §2.1 flow runs first, shard by shard).  The
    logical collection gets statistics synthesized from the per-shard
    exports — counts and sizes sum; the shard key's distinct count sums
    (shards hold disjoint key sets) while other attributes keep the
    maximum; Min/Max widen to the union of the shard ranges — so the
    generic cost model prices the logical collection as one extent.

    Returns the aggregated statistics (``None`` when some shard exported
    no statistics).  Bumps the catalog version via
    :meth:`MediatorCatalog.add_partition`, invalidating cached plans.
    """
    for shard in scheme.shards:
        if shard.collection not in catalog:
            raise RegistrationError(
                f"shard collection {shard.collection!r} is not registered; "
                "register the shard wrappers before the partition scheme"
            )
    attributes: list[str] = []
    for shard in scheme.shards:
        for attribute in catalog.attributes_of(shard.collection):
            if attribute not in attributes:
                attributes.append(attribute)
    shard_stats = [
        catalog.statistics.get(shard.collection)
        for shard in scheme.shards
        if shard.collection in catalog.statistics
    ]
    aggregated: CollectionStats | None = None
    if len(shard_stats) == len(scheme.shards):
        aggregated = _aggregate_shard_stats(scheme, shard_stats)
    catalog.add_partition(scheme, tuple(attributes), aggregated)
    return aggregated


def _aggregate_shard_stats(
    scheme: PartitionScheme, shard_stats: list[CollectionStats]
) -> CollectionStats:
    if len(shard_stats) == 1:
        # 1-shard schemes (including the overlay layout used by the
        # equivalence suite) keep the physical statistics verbatim.
        return replace(shard_stats[0], name=scheme.collection)
    count_object = sum(stats.count_object for stats in shard_stats)
    total_size = sum(stats.total_size for stats in shard_stats)
    object_size = round(total_size / count_object) if count_object else 0
    names: list[str] = []
    for stats in shard_stats:
        for name in stats.attributes:
            if name not in names:
                names.append(name)
    merged: dict[str, AttributeStats] = {}
    for name in names:
        per_shard = [
            stats.attributes[name]
            for stats in shard_stats
            if name in stats.attributes
        ]
        distinct: int | None = None
        if all(attr.count_distinct is not None for attr in per_shard):
            counts = [attr.count_distinct for attr in per_shard]
            # Shards partition the key domain, so distinct shard-key
            # values are disjoint and sum; any other attribute may repeat
            # across shards — the max is a sound lower bound.
            distinct = sum(counts) if name == scheme.shard_key else max(counts)
        mins = [attr.min_value for attr in per_shard if attr.min_value is not None]
        maxs = [attr.max_value for attr in per_shard if attr.max_value is not None]
        merged[name] = AttributeStats(
            name=name,
            indexed=all(attr.indexed for attr in per_shard),
            count_distinct=distinct,
            min_value=(
                min(mins, key=lambda c: c.as_number())
                if len(mins) == len(per_shard)
                else None
            ),
            max_value=(
                max(maxs, key=lambda c: c.as_number())
                if len(maxs) == len(per_shard)
                else None
            ),
        )
    return CollectionStats(
        name=scheme.collection,
        count_object=count_object,
        total_size=total_size,
        object_size=object_size,
        attributes=merged,
    )
