"""pytest plugin: fail the session if a statement of the aggrex package never runs.

    PYTHONPATH=src:tests python -m pytest -q -p never_run

Every line the package's code runs is recorded through `sys.settrace`,
from before the first import of the package to the end of the session.
Then each statement of `src/aggrex/*.py` that ran on none of its lines is
listed as `module.function: statement text`, a key that does not move when
unrelated lines do, and the session fails if the listing is not empty.
Docstrings are not statements here, nor are `global` and `nonlocal`
(they compile to nothing). A compound statement counts as run when its
header line ran or any statement inside it did.

Lines that only random draws reach are not counted: tracing is off while
a hypothesis test runs, so each statement must be reached by a fixed
input. The listing is meant for a full run of the suite; a partial run
lists what it skipped. Tracing about doubles the suite's run time.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aggrex"
PREFIX = str(PACKAGE) + "/"

_lines: dict[str, set[int]] = {}  # file: the lines run in it


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(PREFIX):
        return None
    lines = _lines.setdefault(path, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # before the conftest files, which import the package
    sys.settrace(_trace)
    threading.settrace(_trace)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    random = item.get_closest_marker("hypothesis") is not None
    if random:
        sys.settrace(None)
    try:
        yield
    finally:
        if random:
            sys.settrace(_trace)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _unrun(body: list[ast.stmt], scope: str, lines: set[int], source: list[str], out: list[str]) -> bool:
    """Append the key of each statement in `body` that never ran to `out`; True if any of them ran."""
    any_ran = False
    for pos, node in enumerate(body):
        if (pos == 0 and _is_docstring(node)) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        blocks = [getattr(node, name, None) for name in ("body", "orelse", "finalbody")]
        inner = [block for block in blocks if block] + [handler.body for handler in getattr(node, "handlers", ())]
        # a compound statement's own lines are its header's, up to its first inner statement
        end = max(start, min(block[0].lineno for block in inner) - 1) if inner else node.end_lineno
        ran = any(line in lines for line in range(start, end + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner_scope = f"{scope}.{node.name}"
        else:
            inner_scope = scope
        for block in inner:
            ran |= _unrun(block, inner_scope, lines, source, out)
        if not ran:
            out.append(f"{scope}: {source[node.lineno - 1].strip()}")
        any_ran |= ran
    return any_ran


def unrun_statements() -> list[str]:
    """Keys of the package's statements that no traced line reached, file by file."""
    out: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = f"aggrex.{path.stem}" if path.stem != "__init__" else "aggrex"
        lines = _lines.get(str(path), set())
        _unrun(ast.parse(text).body, module, lines, text.splitlines(), out)
    return out


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    session.config._never_run = unrun_statements()
    if session.config._never_run and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    unrun = config._never_run
    terminalreporter.section("statements of src/aggrex never run")
    for key in unrun:
        terminalreporter.write_line(key)
    terminalreporter.write_line(f"{len(unrun)} never run")
