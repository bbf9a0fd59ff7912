"""The statements of ``src/kocalc`` that the tier-1 suite never executes.

A stdlib-only line tracer: the suite runs in this process under
``sys.settrace``, line events are kept only for frames whose code lies
under ``src/kocalc``, and each module's unexecuted statements are printed
with the total.  A statement counts as executed when any line of it (for a
compound statement, of its header) ran; docstrings are not statements.
Hypothesis deadlines are lifted for this run only, since tracing slows every
example.  Code that the suite runs in a child process (``python -m kocalc``,
the demos) is not seen.

It is a tool, not a tier-1 test; a run takes a few minutes.  Extra
arguments go to pytest:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "kocalc"


def statements(source: str) -> dict[int, int]:
    """Maps each line that belongs to a statement to that statement's first
    line.  A compound statement owns its decorators and header, not its
    body; an ``except`` clause counts as a statement."""
    owner: dict[int, int] = {}
    fields = ("body", "handlers", "orelse", "finalbody")

    def visit(nodes: list, scope: bool) -> None:
        for i, node in enumerate(nodes):
            if (scope and i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
                continue  # a docstring
            inner = [c for field in fields for c in getattr(node, field, ())]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = max(node.lineno, min(c.lineno for c in inner) - 1) if inner else node.end_lineno
            for line in range(first, last + 1):
                owner.setdefault(line, node.lineno)
            is_scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for field in fields:
                visit(getattr(node, field, []), is_scope and field == "body")

    visit(ast.parse(source).body, True)
    return owner


class NoDeadlines:
    """A pytest plugin that lifts hypothesis deadlines before any test
    module is imported."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings
        settings.register_profile("line-coverage", deadline=None)
        settings.load_profile("line-coverage")


def main(pytest_args: list[str]) -> int:
    root = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = defaultdict(set)
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(root)
        return local if keep else None

    # Set before pytest imports kocalc, so that module bodies are traced too.
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(pytest_args or [str(REPO / "tests")])],
                           plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = statements(path.read_text())
        stmts = set(owner.values())
        ran = {owner[line] for line in executed.get(str(path), ()) if line in owner}
        left = sorted(stmts - ran)
        total += len(stmts)
        missed += len(left)
        print(f"{path.relative_to(REPO)}: {len(left)} of {len(stmts)} statements unexecuted"
              + (f": lines {', '.join(map(str, left))}" if left else ""))
    print(f"total: {missed} of {total} statements unexecuted")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
