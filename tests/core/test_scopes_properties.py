"""Property: the compiled dispatch table answers exactly like the linear
scan it replaces.

``RuleRepository(use_dispatch_index=True)`` resolves the scope hierarchy
once per (source, operator) and rebuilds lazily after a change to the
rule set; ``use_dispatch_index=False`` filters and sorts all rules on
every lookup.  Whatever sequence of registrations, query-rule recordings,
source removals and re-registrations happens, and whenever a lookup falls
between them, both must return the same rules in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import Join, Project, Scan, Select, Submit
from repro.core.rules import (
    OperatorPattern,
    SelectPredPattern,
    join_pattern,
    project_pattern,
    rule,
    scan_pattern,
    select_pattern,
    unary_pattern,
    var,
)
from repro.core.scopes import RuleRepository

SOURCES = ("w1", "w2")
VARIABLES = ("TotalTime", "CountObject", "TotalSize")

NODES = (
    Scan("A"),
    Scan("B"),
    Select(Scan("A"), Comparison("=", attr("x"), lit(1))),
    Select(Scan("A"), Comparison("<", attr("x"), lit(2))),
    Select(Scan("B"), Comparison("=", attr("y"), lit(2))),
    Select(Select(Scan("A"), Comparison("=", attr("y"), lit(1))),
           Comparison("=", attr("x"), lit(2))),
    Project(Scan("A"), ["x"]),
    Join(Scan("A"), Scan("B"), Comparison("=", attr("x", "A"), attr("y", "B"))),
    Submit(Scan("A"), "w1"),
)

collection_args = st.sampled_from(["A", "B", var("C")])
attribute_args = st.sampled_from(["x", "y", var("At")])
value_args = st.sampled_from([1, 2, var("V")])

select_heads = st.one_of(
    collection_args.map(select_pattern),  # select(C, P): free predicate
    st.builds(
        lambda collection, attribute, op, value: OperatorPattern(
            "select", (collection,), SelectPredPattern(attribute, op, value)
        ),
        collection_args,
        attribute_args,
        st.sampled_from(["=", "<"]),
        value_args,  # all three bound: a fully pinned select
    ),
)
heads = st.one_of(
    collection_args.map(scan_pattern),
    select_heads,
    collection_args.map(project_pattern),
    st.builds(join_pattern, collection_args, collection_args),
    st.builds(
        join_pattern, collection_args, collection_args, attribute_args, attribute_args
    ),
    collection_args.map(lambda c: unary_pattern("submit", c)),
)
bodies = st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True)
rules = st.builds(
    lambda head, targets: rule(head, [f"{target} = 1" for target in targets]),
    heads,
    bodies,
)

operations = st.one_of(
    st.tuples(st.just("default"), rules),  # default scope
    st.tuples(st.just("local"), rules),  # local scope
    # wrapper / collection / predicate scope, by the head's bindings
    st.tuples(st.just("wrapper"), st.sampled_from(SOURCES), rules),
    st.tuples(st.just("query"), st.sampled_from(SOURCES), rules),  # query scope
    st.tuples(st.just("remove"), st.sampled_from(SOURCES)),
    st.tuples(
        st.just("reregister"), st.sampled_from(SOURCES), st.lists(rules, max_size=4)
    ),
)


def apply(repository: RuleRepository, operation: tuple) -> None:
    kind = operation[0]
    if kind == "default":
        repository.add_default_rule(operation[1])
    elif kind == "local":
        repository.add_local_rule(operation[1])
    elif kind == "wrapper":
        repository.add_wrapper_rule(operation[1], operation[2])
    elif kind == "query":
        repository.add_query_rule(operation[1], operation[2])
    elif kind == "remove":
        repository.remove_source(operation[1])
    else:
        repository.remove_source(operation[1])
        repository.add_wrapper_rules(operation[1], operation[2])


def described(matches) -> list[tuple]:
    return [
        (id(m.rule), m.scoped.scope, m.scoped.source, m.scoped.order, m.bindings)
        for m in matches
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, min_size=1, max_size=14))
def test_compiled_table_agrees_with_linear_scan(sequence):
    compiled = RuleRepository(use_dispatch_index=True)
    linear = RuleRepository(use_dispatch_index=False)
    for operation in sequence:
        # The same rule objects go to both: a repository leaves them as
        # they came.  A lookup round follows every change, so the table
        # is built, discarded and rebuilt along the way.
        apply(compiled, operation)
        apply(linear, operation)
        assert len(compiled) == len(linear)
        for node in NODES:
            for source in (None, *SOURCES):
                assert described(compiled.matches(node, source)) == described(
                    linear.matches(node, source)
                )
                for variable in VARIABLES:
                    assert described(
                        compiled.matches_providing(node, source, variable)
                    ) == described(linear.matches_providing(node, source, variable))
