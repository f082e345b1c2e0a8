#!/usr/bin/env python3
"""List the lines of covtest's modules that no tier-1 test runs.

Runs the test suite in this process under a ``sys.settrace`` line tracer
(``threading.settrace`` too, for the study's worker threads) that records the
lines executed in ``src/covtest``. A line is executable when the compiler
gives it bytecode; each one the tracer never saw is printed as
``path:line: source``, followed by the count. Only this process is traced:
a line that runs only in a test's subprocess, such as ``cli.run``'s exit
path, is listed too. Arguments are passed on to pytest; the exit code is
pytest's.

    python scripts/unreached_lines.py [pytest arguments]   # default: tests -q
"""

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covtest"


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that any of its code objects has bytecode on;
    a function's own ``def`` line is left to the code that defines it."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line is not None}
        lines |= own - ({code.co_firstlineno} if code.co_name != "<module>" else set())
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - seen.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/covtest not run in this process "
          "(lines run only in a test's subprocess are among them)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
