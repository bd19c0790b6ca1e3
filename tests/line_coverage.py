"""Line-coverage gate for the package, on the standard library alone.

    PYTHONPATH=src python tests/line_coverage.py [pytest options]

Runs the test suite in this process under sys.settrace and threading.settrace,
then prints, as file:line, every function-body line of the qhmeans package that
no test ran, and exits 1 if there is one or if the suite fails.  A
function-body line is the line of an instruction that a function, method,
lambda or comprehension runs after its prologue (up to and including RESUME);
so a def or decorator line, which the module's import runs, is not one, and
each arm of a conditional expression written over several lines is.  Module
and class bodies are not counted.  Lines are compiled by the running Python,
so the set is that version's: CI runs the gate on one version.  It needs
Python 3.11 or later, whose code objects end their prologue with RESUME.
"""

import dis
import importlib.util
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
# find_spec locates the package without importing it: its import runs traced.
PACKAGE = Path(importlib.util.find_spec("qhmeans").submodule_search_locations[0]).resolve()


def body_lines(code: types.CodeType) -> set:
    """The function-body lines of code and of the code objects nested in it."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        prologue = True
        for ins in dis.get_instructions(code):
            if not prologue and ins.positions.lineno is not None:
                lines.add(ins.positions.lineno)
            prologue = prologue and ins.opname != "RESUME"
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= body_lines(const)
    return lines


def main(argv) -> int:
    ran = set()  # (co_filename, line) of every line event in a package frame
    in_package = {}  # co_filename -> whether the file is one of the package's

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == PACKAGE
        return local if in_package[name] else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {}
    for name, line in ran:
        seen.setdefault(Path(name).resolve(), set()).add(line)
    root = PACKAGE.parent.parent
    missed = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in sorted(body_lines(compile(path.read_text(), str(path), "exec"))
                           - seen.get(path, set()))
    ]
    for entry in missed:
        print(entry)
    print(f"line coverage: {len(missed)} function-body line(s) of {PACKAGE.name} not run")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
