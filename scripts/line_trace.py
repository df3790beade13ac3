#!/usr/bin/env python3
"""Run the tier-1 suite under a line tracer and list the ``src/mongesol`` lines it leaves unrun.

A module's executable lines are the lines of its code objects' ``co_lines()``:
the module body and every class, function, lambda and comprehension in it.  A
line has run when the tracer saw a ``line`` event on it in a frame of its file.
A function's ``def`` line is run by the body that defines it, so an uncalled
function shows as its unrun body.  Code in a subprocess is not traced.

    PYTHONPATH=src python scripts/line_trace.py -q -W error::RuntimeWarning

The arguments go to ``pytest.main`` as given.  Prints each unrun line as
``path:line: source`` and then their count; exits with pytest's code if the
suite fails, else 1 if a line went unrun, else 0.  Uses the standard library
only (and pytest, which it runs).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mongesol"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's RESUME is line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    tracers = {}  # co_filename -> the local tracer of its file, or None if not ours

    def tracer_of(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = ran.get(os.path.realpath(name))
            tracers[name] = None if lines is None else tracer_of(lines)
        return tracers[name]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} unrun lines in {PACKAGE.relative_to(ROOT)}")
    if code != 0:
        return int(code)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
