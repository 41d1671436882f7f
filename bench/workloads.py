"""The benchmark's workloads: seeded inputs, the CLI commands that consume
them, and the check each command's output must pass.

A round is one pass over a workload's commands on fresh rows.  Rows are
uniform draws over each kernel's `domain`, taken from a generator seeded
with (workload, seed, round), so the same seed gives the same inputs.  The
program only sees them through `--input file:PATH`.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from precfix import corpus
from precfix import mpfloat as mp
from precfix.transcendental import FUNCTION_ARITY

import checks

DETECT_PRECISIONS = ["--p-orig", "53", "--p-shadow", "120",
                     "--p-oracle", "256"]
GENERIC_PRECISIONS = ["--p-orig", "24", "--p-shadow", "200"]

# Rows per round.  The short magic-constant kernels take many rows; accum
# runs 40 000 steps and emits 10 000 samples per row.
MAGIC_ROWS = {"round_kernel": 1500, "exp_kernel": 300, "sin_kernel": 300,
              "union_scale_kernel": 1500}
SWEEP_ROWS = {"accum_kernel": 24, "cancel_kernel": 3000}
TRACE_ROWS = {"round_kernel": 1500, "cancel_kernel": 1500, "accum_kernel": 1}
ORACLE_LINES_PER_FUNCTION = 10

# The barrier set the paper's fixer reaches on each magic-constant kernel.
FIXED_BARRIERS = {"round_kernel": {1}, "exp_kernel": {3}, "sin_kernel": {2},
                  "union_scale_kernel": {3}}
# Instruction id of accum_kernel's `s = fadd s, x`.
ACCUM_FADD_ID = 2

# Argument ranges for the oracle lines, chosen inside each function's
# domain and away from poles and zeros of the result.
_ORACLE_ARGS = {
    "acos": [(-0.99, 0.99)], "asin": [(-0.99, 0.99)],
    "atanh": [(-0.99, 0.99)], "acosh": [(1.01, 50.0)],
    "asinh": [(-10.0, 10.0)], "atan": [(-10.0, 10.0)],
    "atan2": [(-10.0, 10.0), (0.01, 10.0, "signed")],
    "cos": [(-10.0, 10.0)], "sin": [(-10.0, 10.0)], "tan": [(-10.0, 10.0)],
    "cosh": [(-10.0, 10.0)], "sinh": [(-10.0, 10.0)],
    "tanh": [(-10.0, 10.0)], "exp": [(-30.0, 30.0)],
    "exp2": [(-40.0, 40.0)], "exp10": [(-10.0, 10.0)],
    "fmod": [(-100.0, 100.0), (0.5, 10.0, "signed")],
    "hypot": [(-100.0, 100.0), (-100.0, 100.0)],
    "log": [(-3.0, 3.0, "pow10")], "log2": [(-3.0, 3.0, "pow10")],
    "log10": [(-3.0, 3.0, "pow10")],
    "pow": [(-1.0, 1.0, "pow10"), (-5.0, 5.0)], "sqrt": [(0.0, 1000.0)],
}


@dataclass(frozen=True)
class Command:
    kind: str        # "fix", "eval", "detect", "trace" or "oracle"
    kernel: str      # None for `oracle`
    inputs: list     # the rows as host floats; None for `oracle`
    argv: list       # precfix.cli.main arguments, --output included
    output: str
    rows: int        # input rows, or expression lines for `oracle`
    check: object    # callable(output text), raises checks.CheckFailed


class Probe(NamedTuple):
    """What the direct engine probes run: `rows` rows of `kernel` (the
    first round's, repeated if it has fewer) at (p_orig, p_shadow), and
    `fixed` for the per-run overhead."""
    kernel: str
    rows: int
    p_orig: int
    p_shadow: int
    fixed: str


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: tuple   # parsed during set-up
    plan: object     # callable(rng, workdir) -> [Command]
    probe: Probe


def _f32(x):
    return struct.unpack("<f", struct.pack("<f", x))[0]


def draw_rows(rng, kernel, count, p=53):
    """Uniform draws over the kernel's domain, as exact host floats at p
    bits (binary32 when p is 24)."""
    lo, hi, _ = corpus.get_kernel(kernel).domain
    lo, hi = float(lo), float(hi)
    xs = [rng.uniform(lo, hi) for _ in range(count)]
    return [_f32(x) for x in xs] if p == 24 else xs


def write_rows(workdir, kernel, xs, p):
    path = os.path.join(workdir, "%s.in" % kernel)
    corpus.write_inputs(path, [mp.from_float(x, p) for x in xs], p)
    return path


def _command(kind, kernel, xs, argv, workdir, rows, check):
    out = os.path.join(workdir, "%s.%s.out" % (kernel or "lines", kind))
    return Command(kind, kernel, xs, argv + ["--output", out], out, rows,
                   check)


def plan_magic(rng, workdir):
    cmds = []
    for kernel, n in MAGIC_ROWS.items():
        xs = draw_rows(rng, kernel, n)
        path = write_rows(workdir, kernel, xs, 53)
        src = ["--kernel", kernel, "--input", "file:" + path]
        barriers = FIXED_BARRIERS[kernel]
        cmds.append(_command(
            "fix", kernel, xs, ["fix"] + src + DETECT_PRECISIONS, workdir, n,
            partial(checks.check_fix, kernel=kernel,
                    expected_barriers=barriers)))
        if corpus.get_kernel(kernel).oracle_fn is not None:
            cmds.append(_command(
                "eval", kernel, xs,
                ["eval"] + src + DETECT_PRECISIONS
                + ["--barriers", ",".join(map(str, sorted(barriers))),
                   "--format", "json"], workdir, n,
                partial(checks.check_eval, kernel=kernel, rows=n)))
    return cmds


def plan_sweep(rng, workdir):
    cmds = []
    for kernel, n in SWEEP_ROWS.items():
        xs = draw_rows(rng, kernel, n)
        path = write_rows(workdir, kernel, xs, 53)
        counted = None
        if kernel == "accum_kernel":
            counted = (ACCUM_FADD_ID, checks.ACCUM_ITERATIONS * n)
        cmds.append(_command(
            "detect", kernel, xs,
            ["detect", "--sweep", "--kernel", kernel,
             "--input", "file:" + path] + DETECT_PRECISIONS, workdir, n,
            partial(checks.check_sweep, kernel=kernel, rows=n,
                    counted=counted)))
    return cmds


def oracle_lines(rng):
    lines = []
    for fn in sorted(FUNCTION_ARITY):
        specs = _ORACLE_ARGS[fn]
        if len(specs) != FUNCTION_ARITY[fn]:
            raise ValueError("argument ranges for %s do not match its arity"
                             % fn)
        for _ in range(ORACLE_LINES_PER_FUNCTION):
            args = []
            for lo, hi, *how in specs:
                v = rng.uniform(lo, hi)
                if how == ["signed"]:
                    v = rng.choice((-1.0, 1.0)) * v
                elif how == ["pow10"]:
                    v = 10.0 ** v
                args.append("%.15g" % v)
            lines.append(" ".join([fn] + args))
    return lines


def plan_generic(rng, workdir):
    cmds = []
    for kernel, n in TRACE_ROWS.items():
        xs = draw_rows(rng, kernel, n, 24)
        path = write_rows(workdir, kernel, xs, 24)
        cmds.append(_command(
            "trace", kernel, xs,
            ["run", "--trace", "--kernel", kernel, "--input", "file:" + path]
            + GENERIC_PRECISIONS, workdir, n,
            partial(checks.check_trace, kernel=kernel, xs=xs)))
    lines = oracle_lines(rng)
    path = os.path.join(workdir, "oracle.in")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cmds.append(_command(
        "oracle", None, None,
        ["oracle", "--file", path, "--precision", "256", "--digits", "30"],
        workdir, len(lines), partial(checks.check_oracle, lines=lines)))
    return cmds


WORKLOADS = {w.name: w for w in (
    Workload(
        "magic_pipeline",
        tuple(MAGIC_ROWS), plan_magic,
        Probe("exp_kernel", 100, 53, 120, "round_kernel")),
    Workload(
        "clean_sweep",
        tuple(SWEEP_ROWS), plan_sweep,
        Probe("accum_kernel", 3, 53, 120, "cancel_kernel")),
    Workload(
        "generic_precision",
        tuple(TRACE_ROWS), plan_generic,
        Probe("accum_kernel", 3, 24, 200, "round_kernel")),
)}


def round_rng(workload, seed, index):
    return random.Random("%s/%d/%d" % (workload, seed, index))
