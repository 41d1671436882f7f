"""Detect and fix precision-specific floating-point operations.

The pipeline: run a TAC program with a high-precision shadow lane
alongside its native one, flag instructions whose per-sample relative
error is statistically too large, place precision barriers on them, and
evaluate the fixed program against a built-in high-precision oracle.

`import precfix` loads no layer: import each one by name, as in
`from precfix import engine`.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input: arguments, program text, numbers, or a program the
    engine cannot run.  The CLI exits 1 with its message."""
