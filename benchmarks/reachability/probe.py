#!/usr/bin/env python3
"""List every function under ``src/repro`` that no driver calls.

    python benchmarks/reachability/probe.py > benchmarks/reachability/unreached.txt

The drivers are the programs a reader runs: every experiment
(``python -m repro.bench --fast``), every ``examples/*.py`` and every
end-to-end workload (``benchmarks/e2e/run.py --smoke``).  Each runs with
this directory on ``PYTHONPATH``, so ``sitecustomize.py`` records the
code objects it calls.  An ``ast`` pass then prints the sorted
``path::qualname`` of every ``def`` whose code object no driver called.
Keys are qualnames, not line numbers, so unrelated edits do not move
the list.  A summary goes to standard error.  Takes about a minute.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def drivers(e2e_out: str) -> list[list[str]]:
    python = sys.executable
    examples = sorted((ROOT / "examples").glob("*.py"))
    return [
        [python, "-m", "repro.bench", "--fast"],
        *([python, str(path)] for path in examples),
        [python, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke",
         "--out-dir", e2e_out],
    ]


def called_lines(scratch: str) -> set[tuple[str, int]]:
    """Run every driver under the profile hook; return (path, first line)
    of every ``src/repro`` code object any of them called."""
    calls = os.path.join(scratch, "calls")
    os.mkdir(calls)
    env = dict(
        os.environ,
        REPRO_REACH_DIR=calls,
        PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]),
    )
    for command in drivers(os.path.join(scratch, "e2e")):
        done = subprocess.run(
            command, cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"driver failed: {' '.join(command)}")
    seen = set()
    for name in os.listdir(calls):
        with open(os.path.join(calls, name)) as handle:
            for line in handle:
                path, first = line.rstrip("\n").split("\t")
                seen.add((path, int(first)))
    return seen


def definitions(path: Path):
    """Yield (qualname, first line, last line) of every ``def`` in a file.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line when the function is decorated."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                yield qualname, first, child.end_lineno
                yield from visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(ast.parse(path.read_text(), str(path)), "")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        seen = called_lines(scratch)
    unreached, total, lines = [], 0, 0
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for qualname, first, last in definitions(path):
            total += 1
            if (rel, first) not in seen:
                unreached.append(f"{rel}::{qualname}")
                lines += last - first + 1
    print("# Functions under src/repro that no driver calls: python -m repro.bench"
          " --fast, examples/*.py, benchmarks/e2e/run.py --smoke.")
    print("# Regenerate: python benchmarks/reachability/probe.py"
          " > benchmarks/reachability/unreached.txt")
    for entry in sorted(unreached):
        print(entry)
    print(f"{len(unreached)} of {total} definitions unreached ({lines} lines)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
