"""The ``repro`` packages are layered: no module-level import reaches up.

Bottom to top: ``errors < algebra < obs < core < cdl < sources < oo7 <
wrappers < mediator < {rt, service, sqlfe} < bench``.  A package imports
only from packages below it, so the package graph has no cycle and each
layer can be imported (and replaced) without the ones above it.
Imports inside functions are not module-level and are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LAYERS = ("errors", "algebra", "obs", "core", "cdl", "sources", "oo7",
          "wrappers", "mediator", ("rt", "service", "sqlfe"), "bench")
RANK = {name: rank for rank, layer in enumerate(LAYERS)
        for name in ((layer,) if isinstance(layer, str) else layer)}

#: Upward imports under ``if TYPE_CHECKING:`` (annotations only, never
#: executed).  This list may shrink; it may not grow.
TYPING_ONLY = {
    ("algebra/rowops.py", "repro.sources.clock"),
    ("core/history.py", "repro.mediator.catalog"),
    ("core/history.py", "repro.wrappers.base"),
    ("obs/__init__.py", "repro.mediator.mediator"),
    ("obs/__init__.py", "repro.mediator.resilience"),
    ("obs/__init__.py", "repro.wrappers.base"),
    ("obs/accuracy.py", "repro.core.estimator"),
    ("obs/accuracy.py", "repro.wrappers.base"),
    ("obs/profile.py", "repro.mediator.mediator"),
    ("obs/profile.py", "repro.wrappers.base"),
    ("wrappers/base.py", "repro.mediator.resilience"),
}


def module_level_imports(body, typing=False):
    """``(module, typing_only)`` for every import run at import time."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from ((alias.name, typing) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module, typing
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            guarded = isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
            yield from module_level_imports(getattr(node, "body", []), typing or guarded)
            for field in ("orelse", "handlers", "finalbody"):
                yield from module_level_imports(getattr(node, field, []), typing)


def upward_imports():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "__init__.py":  # the facade re-exports every layer
            continue
        package = module.split("/")[0].removesuffix(".py")
        tree = ast.parse(path.read_text())
        for imported, typing in module_level_imports(tree.body):
            parts = imported.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] != package:
                if RANK[parts[1]] >= RANK[package]:
                    yield module, imported, typing


def test_no_module_level_import_reaches_up():
    assert [(module, imported) for module, imported, typing in upward_imports()
            if not typing] == []


def test_typing_only_upward_imports_do_not_grow():
    typed = {(module, imported) for module, imported, typing in upward_imports() if typing}
    assert typed <= TYPING_ONLY
