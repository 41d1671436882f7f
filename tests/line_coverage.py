"""The executable lines of src/precfix/ that the test suite never runs.

Runs pytest in this process under a `sys.settrace` collector and prints
each unrun line as path:line, then the count of unrun and of executable
lines.  A line is executable when a code object compiled from the file
maps an instruction to it; a function's first line (its `def` or first
decorator) runs in the enclosing code, so only there.  Code the engine
generates (file name "<precfix>") is left out, and so is anything a test
runs in a subprocess.  Stdlib only; pytest does not collect this file.

    python tests/line_coverage.py [PYTEST_ARGS...]

PYTEST_ARGS default to the quiet tier-1 run, its end-to-end test files
last.  A code object stops being traced once every one of its lines has
run, so the suite takes two to three times its untraced time.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "precfix") + os.sep


def own_lines(code):
    """The lines of `code` itself that can report a line event."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def executable(path):
    """Every executable line of the source file at `path`."""
    with open(path, encoding="utf-8") as f:
        todo = [compile(f.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines |= own_lines(code)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


class Collector:
    """Line events of the package's code, each code object traced until
    all of its lines have run."""

    def __init__(self):
        # id of a package code object -> (the code, its local tracer, its
        # lines not yet run); holding the code keeps its id from reuse
        self.codes = {}

    def call(self, frame, event, arg):
        code = frame.f_code
        entry = self.codes.get(id(code))
        if entry is None:
            if not code.co_filename.startswith(PKG):
                return None
            left = own_lines(code)

            def line(frame, event, arg):
                if event == "line":
                    left.discard(frame.f_lineno)
                    if not left:
                        return None
                return line

            entry = self.codes[id(code)] = code, line, left
        return entry[1] if entry[2] else None

    def ran(self, path):
        """The lines of the file at `path` that have run."""
        return set().union(*(own_lines(code) - left
                             for code, _, left in self.codes.values()
                             if code.co_filename == path))


def suite_files():
    """tests/test_*.py, the end-to-end ones last: by the time they stream
    millions of samples, the unit tests have run every line of most hot
    functions, which are then no longer traced."""
    last = ["test_cli.py", "test_golden.py", "test_acceptance.py"]
    names = sorted(n for n in os.listdir(os.path.join(ROOT, "tests"))
                   if n.startswith("test_") and n.endswith(".py"))
    names = [n for n in names if n not in last] + [n for n in last
                                                   if n in names]
    return [os.path.join(ROOT, "tests", n) for n in names]


def main(argv):
    if any(name == "precfix" or name.startswith("precfix.")
           for name in sys.modules):
        sys.exit("precfix is already imported: its module lines would not "
                 "count")
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    collector = Collector()
    threading.settrace(collector.call)
    sys.settrace(collector.call)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider"]
                           + suite_files())
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = PKG + name
        lines = executable(path)
        missed = sorted(lines - collector.ran(path))
        total += len(lines)
        unrun += len(missed)
        for line in missed:
            print("%s:%d" % (os.path.relpath(path, ROOT), line))
    print("%d of %d executable lines of src/precfix/ unrun (pytest exit %d)"
          % (unrun, total, code))
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
