"""Compiler from parsed CDL documents to cost-model objects (§4.1).

"Integration consists of compiling the rules written by the wrapper
implementor and transmitting the results of compilation to the mediator."
This module is that compiler: it lowers a :class:`~repro.cdl.cdl_ast.Document`
into :class:`~repro.core.statistics.CollectionStats`,
:class:`~repro.core.rules.CostRule` objects (with formula bodies already
compiled to closures), wrapper variables, and wrapper functions — the
payload shipped to the mediator at registration.

Binding resolution for rule heads follows a simple, predictable policy:

* a **collection argument** is bound iff its name is declared as an
  ``interface`` in the same document (or passed via ``known_collections``);
  any other identifier is a free variable — so ``select(Collection, ...)``
  in Figure 13 has a free ``Collection`` exactly as the paper intends;
* an **attribute position** is bound iff the name is a declared attribute
  of some interface in scope; ``Id`` binds when the document declares it,
  ``A`` stays free;
* a **value position** is bound iff it is a literal; identifiers are free
  variables (``V``, ``value``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cdl.cdl_ast import Document, HeadArg, InterfaceDef, RuleDef
from repro.cdl.parser import parse_document
from repro.core.formulas import (
    BUILTIN_FUNCTIONS,
    MappingContext,
    Value,
    parse_expression,
    parse_formula,
)
from repro.core.rules import (
    AnyPredicate,
    CollectionArg,
    CostRule,
    JoinPredPattern,
    OperatorPattern,
    PATTERN_OPERATORS,
    SelectPredPattern,
    Var,
)
from repro.core.statistics import AttributeStats, CollectionStats
from repro.errors import CdlCompileError, FormulaError


@dataclass
class CompiledCostInfo:
    """Everything a CDL document exports, ready for mediator registration."""

    statistics: list[CollectionStats] = field(default_factory=list)
    rules: list[CostRule] = field(default_factory=list)
    variables: dict[str, Value] = field(default_factory=dict)
    functions: dict[str, Callable[..., Value]] = field(default_factory=dict)
    schema: dict[str, InterfaceDef] = field(default_factory=dict)


def compile_document(
    document: Document,
    known_collections: set[str] | None = None,
    known_attributes: set[str] | None = None,
) -> CompiledCostInfo:
    """Lower a parsed document.  Extra ``known_*`` names extend binding
    resolution beyond the document's own interfaces (useful when cost rules
    are registered separately from the schema)."""
    compiler = _Compiler(document, known_collections or set(), known_attributes or set())
    return compiler.run()


def compile_source(source: str, **kwargs) -> CompiledCostInfo:
    """Parse and compile CDL source text in one step."""
    return compile_document(parse_document(source), **kwargs)


class _Compiler:
    def __init__(
        self,
        document: Document,
        known_collections: set[str],
        known_attributes: set[str],
    ) -> None:
        self.document = document
        self.collections = document.collection_names() | known_collections
        self.attributes = set(known_attributes)
        for interface in document.interfaces:
            self.attributes.update(interface.attribute_names())
            self.attributes.update(s.attribute for s in interface.attribute_stats)

    def run(self) -> CompiledCostInfo:
        result = CompiledCostInfo()
        for interface in self.document.interfaces:
            result.schema[interface.name] = interface
            stats = self._collection_stats(interface)
            if stats is not None:
                result.statistics.append(stats)
        for declaration in self.document.variables:
            result.variables[declaration.name] = declaration.value
        for definition in self.document.functions:
            result.functions[definition.name] = self._compile_function(
                definition.name,
                definition.parameters,
                definition.body,
                result.variables,
                result.functions,
            )
        for index, rule_def in enumerate(self.document.rules):
            result.rules.append(self._compile_rule(rule_def, index))
        return result

    # -- statistics ----------------------------------------------------------

    def _collection_stats(self, interface: InterfaceDef) -> CollectionStats | None:
        if interface.extent is None:
            return None
        extent = interface.extent
        object_size = extent.object_size
        total_size = extent.total_size
        if total_size is None and object_size is not None:
            total_size = extent.count_object * object_size
        if object_size is None and total_size is not None:
            object_size = total_size // max(1, extent.count_object)
        if total_size is None:
            raise CdlCompileError(
                f"interface {interface.name}: extent needs TotalSize or ObjectSize"
            )
        stats = CollectionStats(
            name=interface.name,
            count_object=extent.count_object,
            total_size=int(total_size),
            object_size=int(object_size or 0),
        )
        declared = {d.attribute for d in interface.attribute_stats}
        for decl in interface.attribute_stats:
            stats.add_attribute(
                AttributeStats(
                    name=decl.attribute,
                    indexed=decl.indexed,
                    count_distinct=decl.count_distinct,
                    min_value=decl.min_value,  # type: ignore[arg-type]
                    max_value=decl.max_value,  # type: ignore[arg-type]
                )
            )
        for attribute in interface.attributes:
            if attribute.name not in declared:
                stats.add_attribute(AttributeStats(name=attribute.name))
        return stats

    # -- functions -------------------------------------------------------------

    def _compile_function(
        self,
        name: str,
        parameters: list[str],
        body: str,
        variables: dict[str, Value],
        functions: dict[str, Callable[..., Value]],
    ) -> Callable[..., Value]:
        try:
            expression = parse_expression(body).compile()
        except FormulaError as exc:
            raise CdlCompileError(f"function {name}: {exc}") from exc
        function_table = dict(BUILTIN_FUNCTIONS)
        function_table.update(functions)  # earlier definitions visible

        def call(*args: Value) -> Value:
            if len(args) != len(parameters):
                raise FormulaError(
                    f"function {name} expects {len(parameters)} argument(s), "
                    f"got {len(args)}"
                )
            values: dict[str, Value] = dict(variables)
            values.update(zip(parameters, args))
            return expression(MappingContext(values, function_table))

        call.__name__ = name
        return call

    # -- rules -------------------------------------------------------------------

    def _compile_rule(self, rule_def: RuleDef, index: int) -> CostRule:
        if rule_def.operator not in PATTERN_OPERATORS:
            raise CdlCompileError(
                f"line {rule_def.line}: unknown operator {rule_def.operator!r} "
                f"(expected one of {sorted(PATTERN_OPERATORS)})"
            )
        head_collections = list(rule_def.collections)
        trailing_predicate_var: str | None = None
        expected = 2 if rule_def.operator in ("join", "union") else 1
        if (
            rule_def.predicate is None
            and len(head_collections) == expected + 1
            and head_collections[-1].kind == "name"
            and str(head_collections[-1].value) not in self.collections
        ):
            # ``select(C, P)`` / ``join(C1, C2, P)``: a trailing free name
            # is a whole-predicate variable, not a collection.
            trailing_predicate_var = str(head_collections.pop().value)
        collections = tuple(self._collection_arg(arg) for arg in head_collections)
        predicate = self._predicate_pattern(rule_def)
        if trailing_predicate_var is not None:
            predicate = AnyPredicate(Var(trailing_predicate_var))
        try:
            pattern = OperatorPattern(rule_def.operator, collections, predicate)
        except Exception as exc:
            raise CdlCompileError(f"line {rule_def.line}: {exc}") from exc
        formulas = []
        for text in rule_def.formulas:
            try:
                formulas.append(parse_formula(text))
            except FormulaError as exc:
                raise CdlCompileError(f"line {rule_def.line}: {exc}") from exc
        if not formulas:
            raise CdlCompileError(
                f"line {rule_def.line}: cost rule {pattern} has an empty body"
            )
        return CostRule(head=pattern, formulas=formulas, name=str(pattern), order=index)

    def _collection_arg(self, arg: HeadArg) -> CollectionArg:
        if arg.kind == "literal":
            return str(arg.value)
        name = str(arg.value)
        if name in self.collections:
            return name
        return Var(name)

    def _attribute_arg(self, arg: HeadArg) -> str | Var:
        name = str(arg.value)
        if arg.kind == "literal" or name in self.attributes:
            return name
        return Var(name)

    def _value_arg(self, arg: HeadArg):
        if arg.kind == "literal":
            return arg.value
        return Var(str(arg.value))

    def _predicate_pattern(self, rule_def: RuleDef):
        head_pred = rule_def.predicate
        if head_pred is None:
            # An omitted predicate means "any predicate" for operators that
            # carry one; the pattern machinery handles operators without
            # predicates through a None pattern.
            if rule_def.operator == "select":
                return AnyPredicate(Var("P"))
            if rule_def.operator == "join":
                return None
            return None
        if rule_def.operator == "join":
            if head_pred.op != "=":
                raise CdlCompileError(
                    f"line {rule_def.line}: join predicates must use '='"
                )
            return JoinPredPattern(
                self._attribute_arg(head_pred.left),
                self._attribute_arg(head_pred.right),
            )
        if rule_def.operator == "select":
            return SelectPredPattern(
                self._attribute_arg(head_pred.left),
                head_pred.op,
                self._value_arg(head_pred.right),
            )
        raise CdlCompileError(
            f"line {rule_def.line}: operator {rule_def.operator!r} takes no predicate"
        )
