"""Line coverage of the tier-1 suite over ``src/pfhx``, from the standard library alone.

Run it from anywhere:

    python tools/linecov.py

It runs ``pytest -q tests`` in this process under ``sys.settrace`` (and
``threading.settrace`` for threads the suite starts), records each line of
``src/pfhx/*.py`` that runs, and lists each statement that never ran.  The
statements come from ``ast``, docstrings left out; a statement ran when one
line of it ran, and for a compound statement (``def``, ``if``, ``with``, ...)
one line of its header, decorators included.

It exits 1 if a statement that never ran is not on the allowlist, with
pytest's own exit code if the suite fails, and 0 otherwise.  The allowlist
holds what a test process does not run:
- the body of ``if TYPE_CHECKING:``, which holds imports for annotations;
- statements that compile to no code: ``global`` and ``nonlocal``
  declarations, a bare annotation (``x: int``) inside a function, and a
  string that stands as a statement after the first (a field docstring);
- the console entry point: the body of ``def entry()`` and of
  ``if __name__ == "__main__":``.

Only this process is traced.  Tests that run pfhx in a subprocess (the
start-up tests, the CLI's subprocess tests) and sweep rows run by a process
pool's workers do not count toward coverage.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfhx"


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement that is its own: a compound statement's header."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def _is_docstring(node: ast.stmt, first: bool) -> bool:
    return (first and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _compiles_to_nothing(node: ast.stmt, in_function: bool) -> bool:
    """A declaration, a bare annotation of a local, or a string standing as a statement."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    if isinstance(node, ast.AnnAssign) and node.value is None:
        return in_function
    return _is_docstring(node, True)


def _is_main_guard(node: ast.stmt) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__")


def statements(source: str) -> list[tuple[int, int, str | None]]:
    """(first line, last line, why it may go unrun or None) of each statement in a module."""
    found = []

    def visit(body: list[ast.stmt], allowed: str | None, docstrings: bool,
              in_function: bool) -> None:
        for index, node in enumerate(body):
            if _is_docstring(node, docstrings and index == 0):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            why = allowed
            if why is None and _compiles_to_nothing(node, in_function):
                why = "no code"
            found.append((first, _header_end(node), why))
            inner = allowed
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                    and node.test.id == "TYPE_CHECKING":
                inner = inner or "TYPE_CHECKING"
            if _is_main_guard(node) or (isinstance(node, ast.FunctionDef) and node.name == "entry"):
                inner = inner or "entry point"
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            body_in_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                in_function and not isinstance(node, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner if field == "body" else allowed,
                      defines and field == "body", body_in_function if field == "body" else in_function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, allowed, False, in_function)
            for case in getattr(node, "cases", []):
                visit(case.body, allowed, False, in_function)

    visit(ast.parse(source).body, None, True, False)
    return found


def trace_suite(files: list[Path]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process; return its exit code and the lines run in each file."""
    hits: dict[str, set[int]] = {str(path): set() for path in files}

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    local_for = {name: recorder(lines) for name, lines in hits.items()}
    by_code_name: dict[str, object] = {}  # co_filename -> its local tracer, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_name:
            by_code_name[name] = local_for.get(os.path.realpath(name))
        return by_code_name[name]

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = int(pytest.main(["-q", "tests"]))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main() -> int:
    os.chdir(ROOT)
    files = sorted(Path(os.path.realpath(path)) for path in PACKAGE.glob("*.py"))
    code, hits = trace_suite(files)
    if code != 0:
        print(f"linecov: the suite failed (pytest exit code {code}); no coverage verdict")
        return code
    allowed = refused = 0
    for path in files:
        source = path.read_text()
        lines = source.splitlines()
        ran = hits[str(path)]
        for first, last, why in statements(source):
            if any(line in ran for line in range(first, last + 1)):
                continue
            where = f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}"
            if why is None:
                refused += 1
                print(f"never ran: {where}")
            else:
                allowed += 1
                print(f"never ran ({why}, allowed): {where}")
    print(f"linecov: {allowed + refused} statements never ran, {refused} of them not allowed")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
