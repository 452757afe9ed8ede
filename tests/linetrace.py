"""Opt-in pytest plugin: list the `src/sarcse` lines a test run never executed.

Run it from the repository root with the tests directory importable:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces every line the package runs in this process (the `python -m
sarcse` subprocesses some tests start are not traced) and, after the
summary, prints each line of the package's compiled code that never ran.
Lines of `raise` statements are left out, so what it lists is code that
would run when nothing fails. The default test run does not load this file.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sarcse"
_PREFIX = str(PACKAGE)
_ran: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _code_lines(code) -> set[int]:
    """Every line of `code` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}     # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def never_ran(path: Path) -> list[int]:
    """Lines of `path` compiled to code that never ran, `raise` statements left out."""
    source = path.read_text(encoding="utf-8")
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            raised.update(range(node.lineno, node.end_lineno + 1))
    lines = _code_lines(compile(source, str(path), "exec")) - raised
    return sorted(line for line in lines if (str(path), line) not in _ran)


def pytest_configure(config):
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.write_sep("-", "src/sarcse lines never run (raise statements left out)")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in never_ran(path):
            terminalreporter.write_line(f"src/sarcse/{path.name}:{line}: {text[line - 1].strip()}")
