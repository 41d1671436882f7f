"""The benchmark's output checks accept real output and reject wrong output.

    python3 -m pytest -q bench/test_checks.py

Each test produces a real output with the CLI on a few seeded rows, shows
that its checker accepts it, then feeds the checker one deliberately wrong
variant and asserts that the named check fails.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from precfix import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _run(tmp_path, kind, kernel, rows, p=53, extra=()):
    """Write seeded rows, run the CLI, return (output text, rows)."""
    rng = random.Random("test/%s/%s" % (kind, kernel))
    xs = workloads.draw_rows(rng, kernel, rows, p)
    path = workloads.write_rows(str(tmp_path), kernel, xs, p)
    out = str(tmp_path / ("%s.out" % kind))
    precisions = (workloads.GENERIC_PRECISIONS if p == 24
                  else workloads.DETECT_PRECISIONS)
    argv = {"trace": ["run", "--trace"]}.get(kind, [kind])
    argv += ["--kernel", kernel, "--input", "file:" + path] + precisions
    assert cli.main(argv + list(extra) + ["--output", out]) == 0
    with open(out) as fh:
        return fh.read(), xs


def _fails(check_name, fn, *args, **kw):
    with pytest.raises(CheckFailed) as info:
        fn(*args, **kw)
    assert info.value.check == check_name


def test_fix_rejects_wrong_barriers(tmp_path):
    text, _ = _run(tmp_path, "fix", "round_kernel", 60)
    checks.check_fix(text, "round_kernel", {1})
    data = json.loads(text)
    _fails("fix.barriers", checks.check_fix,
           json.dumps(dict(data, barriers=[2])), "round_kernel", {1})
    _fails("fix.converged", checks.check_fix,
           json.dumps(dict(data, converged=False)), "round_kernel", {1})


def test_eval_rejects_wrong_lane_ordering(tmp_path):
    text, _ = _run(tmp_path, "eval", "exp_kernel", 30,
                   extra=["--barriers", "3", "--format", "json"])
    checks.check_eval(text, "exp_kernel", 30)
    table = json.loads(text)[0]

    def variant(**avg):
        t = json.loads(json.dumps(table))
        t["average_error"].update(avg)
        return json.dumps([t])

    lost = json.loads(json.dumps(table))
    lost["percentages"]["M>=H"] = 96.0
    _fails("eval.M>=H", checks.check_eval, json.dumps([lost]),
           "exp_kernel", 30)
    _fails("eval.MP<OP", checks.check_eval,
           variant(MP=table["average_error"]["OP"]), "exp_kernel", 30)
    _fails("eval.HP>1e3*MP", checks.check_eval,
           variant(HP=table["average_error"]["MP"]), "exp_kernel", 30)
    _fails("eval.rows", checks.check_eval, text, "exp_kernel", 31)


def test_sweep_rejects_flagged_control(tmp_path):
    text, _ = _run(tmp_path, "detect", "cancel_kernel", 50, extra=["--sweep"])
    checks.check_sweep(text, "cancel_kernel", 50)
    data = json.loads(text)
    data[1]["report"]["instructions"][0]["flagged"] = True
    _fails("sweep.flagged", checks.check_sweep, json.dumps(data),
           "cancel_kernel", 50)
    _fails("sweep.runs", checks.check_sweep, text, "cancel_kernel", 49)


def test_sweep_rejects_wrong_sample_count(tmp_path):
    text, _ = _run(tmp_path, "detect", "accum_kernel", 1, extra=["--sweep"])
    counted = (workloads.ACCUM_FADD_ID, checks.ACCUM_ITERATIONS)
    checks.check_sweep(text, "accum_kernel", 1, counted)
    _fails("sweep.m", checks.check_sweep, text, "accum_kernel", 1,
           (workloads.ACCUM_FADD_ID, checks.ACCUM_ITERATIONS + 1))


def _replace_line(text, prefix, index, new_value):
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[hits[index]] = prefix + new_value
    return "\n".join(lines)


def test_trace_rejects_op_one_ulp_off(tmp_path):
    text, xs = _run(tmp_path, "trace", "cancel_kernel", 20, p=24)
    checks.check_trace(text, "cancel_kernel", xs)
    want = checks.f32_reference("cancel_kernel", xs)[3]
    up = np.nextafter(want, np.float32(np.inf))
    bad = _replace_line(text, "  OP: ", 3, repr(float(up)))
    _fails("trace.OP", checks.check_trace, bad, "cancel_kernel", xs)
    _fails("trace.rows", checks.check_trace, text, "cancel_kernel", xs[:-1])


def test_trace_rejects_inexact_accumulation(tmp_path):
    text, xs = _run(tmp_path, "trace", "accum_kernel", 1, p=24)
    checks.check_trace(text, "accum_kernel", xs)
    hp = [line for line in text.split("\n") if line.startswith("  HP: ")][0]
    mant, exp = hp[6:].split("e")
    last = "1" if mant[-1] != "1" else "2"
    bad = _replace_line(text, "  HP: ", 0, mant[:-1] + last + "e" + exp)
    _fails("trace.HP", checks.check_trace, bad, "accum_kernel", xs)


def test_oracle_rejects_wrong_digit(tmp_path):
    lines = workloads.oracle_lines(random.Random(0))
    path = tmp_path / "oracle.in"
    path.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "oracle.out")
    assert cli.main(["oracle", "--file", str(path), "--precision", "256",
                     "--digits", "30", "--output", out]) == 0
    with open(out) as fh:
        text = fh.read()
    checks.check_oracle(text, lines)
    results = text.split("\n")
    value = results[7]
    digits = [i for i, c in enumerate(value) if c.isdigit() and c != "0"]
    i = digits[20]   # a digit well inside the 29 that must agree
    results[7] = value[:i] + ("1" if value[i] != "1" else "2") + value[i + 1:]
    _fails("oracle.value", checks.check_oracle, "\n".join(results), lines)
    _fails("oracle.lines", checks.check_oracle, text, lines[:-1])
