"""Print each line of the ``bgmo`` package that a pytest run never executes.

It needs no coverage package: ``sys.settrace`` (and ``threading.settrace``
for threads the run starts) records the lines executed in frames whose code
lives under ``src/bgmo``, and a module's executable lines are those its code
objects list in ``co_lines()``.  From the repository root:

    PYTHONPATH=src python tests/line_trace.py [pytest args]

The arguments go to ``pytest.main`` as they are; for example
``-q -p no:cacheprovider --deselect tests/test_sweeps.py`` leaves out the
slow identity sweeps.  The run is several times slower than the plain
suite.  Lines that run only in a subprocess (``python -m bgmo``) count as
never executed.  The exit code is pytest's.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bgmo"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in a module, in any of its nested code objects."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(args) -> int:
    run: dict[str, set[int]] = {}
    paths: dict[str, str | None] = {}  # a code object's file name -> its package path, or None

    def package_path(filename):
        if filename not in paths:
            full = os.path.abspath(filename)
            paths[filename] = full if full.startswith(str(PACKAGE) + os.sep) else None
        return paths[filename]

    def trace(frame, event, arg):
        path = package_path(frame.f_code.co_filename)
        if path is None:
            return None  # no line events for frames outside the package
        lines = run.setdefault(path, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - run.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} package lines never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
