"""Command-line interface tests via main(argv)."""

import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

import precfix
from precfix import cli, corpus, detector, engine, evaluator, tac
from precfix import mpfloat as mp, transcendental as tr
from mpmath_ref import rounded_fraction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_oracle_paper_value(tmp_path, capsys):
    f = tmp_path / "exprs.txt"
    f.write_text("exp -0.0277\n")
    code, out, err = run_cli(capsys, "oracle", "--file", str(f),
                             "--digits", "30")
    assert code == 0
    assert out.strip() == "0.972680127073139846902979085281"


def test_oracle_two_argument_line(tmp_path, capsys):
    f = tmp_path / "exprs.txt"
    f.write_text("# comment\nhypot 3 4\natan2 0 1\n")
    code, out, _ = run_cli(capsys, "oracle", "--file", str(f),
                           "--digits", "5")
    assert code == 0
    assert out.splitlines() == ["5.0000", "0.0000"]


def test_oracle_rejects_unknown_function(tmp_path, capsys):
    f = tmp_path / "exprs.txt"
    f.write_text("gamma 1\n")
    code, _, err = run_cli(capsys, "oracle", "--file", str(f))
    assert code == 1
    assert "unknown function" in err


def test_run_single_input_zero_error_trace(capsys):
    code, out, _ = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:2.0", "--trace")
    assert code == 0
    assert "RELATIVE ERROR: 0.00000000000000 * 10^0" in out
    assert "OP: 2.0000000000000000e0" in out


def test_detect_flags_magic_subtraction(capsys):
    code, out, _ = run_cli(capsys, "detect", "--kernel", "round_kernel",
                           "--grid=-50,50,101", "--e0", "1e-6",
                           "--p0", "0.5")
    assert code == 0
    d = json.loads(out)
    assert d["flagged"] == [1]
    assert d["first_flagged"] == 1


def test_detect_sweep_structure(capsys):
    code, out, _ = run_cli(capsys, "detect", "--kernel", "cancel_kernel",
                           "--grid=-10,10,50", "--sweep")
    assert code == 0
    entries = json.loads(out)
    assert [e["e0"] for e in entries] == [1e-2, 1e-4, 1e-6, 1e-8]
    assert all(e["report"]["flagged"] == [] for e in entries)


def test_fix_reports_barriers(capsys):
    code, out, _ = run_cli(capsys, "fix", "--kernel", "union_scale_kernel",
                           "--grid", "0.5,4,50")
    assert code == 0
    d = json.loads(out)
    assert d["barriers"] == [3]
    assert d["converged"] is True


def test_fix_emit_program(capsys):
    code, out, _ = run_cli(capsys, "fix", "--kernel", "union_scale_kernel",
                           "--grid", "0.5,4,50", "--emit-program")
    assert code == 0
    assert "reducePrec(&y, 3);" in out
    assert 'computeErr("y", &y, 3);' in out


def test_eval_auto_fix_equals_manual_barriers(capsys):
    args = ["--kernel", "exp_kernel", "--grid=-1,1,40",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, "eval", *args, "--auto-fix")
    code2, out2, _ = run_cli(capsys, "eval", *args, "--barriers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_outputs_are_deterministic(capsys):
    argv = ["detect", "--kernel", "sin_kernel", "--grid=-4,4,60"]
    _, a, _ = run_cli(capsys, *argv)
    _, b, _ = run_cli(capsys, *argv)
    assert a == b


def test_program_file_source(tmp_path, capsys, monkeypatch):
    calls = []
    real = tac.parse_program
    monkeypatch.setattr(tac, "parse_program",
                        lambda text: calls.append(text) or real(text))
    f = tmp_path / "prog.tac"
    f.write_text("func double_it(x) -> y\n  y = fadd x, x\n  ret y\n")
    code, out, _ = run_cli(capsys, "run", "--program", str(f),
                           "--input", "single:1.5")
    assert code == 0
    assert "OP: 3.0000000000000000e0" in out
    assert len(calls) == 1


def test_bad_kernel_name_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--kernel", "nope",
                           "--input", "single:1.0")
    assert code == 1
    assert "unknown kernel" in err


def test_bad_program_file_is_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.tac"
    f.write_text("func f(x) -> y\n  y = fadd x, z\n  ret y\n")
    code, _, err = run_cli(capsys, "run", "--program", str(f),
                           "--input", "single:1.0")
    assert code == 1
    assert "never assigned" in err


@pytest.mark.parametrize("argv, data", [
    (["run", "--kernel", "cancel_kernel", "--input", "file:{f}"],
     b"\xff\xfe1.0\n"),
    (["run", "--program", "{f}", "--input", "single:1"],
     b"func f(x) -> y\n  y = fmov x  # \xff\n  ret y\n"),
    # the byte is met mid-iteration, after a line has been evaluated
    (["oracle", "--file", "{f}"], b"exp 1\nexp \xff\n"),
], ids=["input", "program", "oracle"])
def test_undecodable_input_file_is_exit_1(tmp_path, capsys, argv, data):
    f = tmp_path / "bad"
    f.write_bytes(data)
    code, out, err = run_cli(capsys, *(a.format(f=f) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: " % f), err
    assert "can't decode byte 0xff" in err


def test_undecodable_stdin_is_the_decoders_error():
    # the interpreter reads stdin with surrogateescape, which once passed
    # the byte on as a literal: "bad decimal literal: '\udcff'"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "precfix.cli", "oracle"],
                          input=b"exp 1\nexp \xff\n", capture_output=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode().startswith(
        "error: <stdin>: 'utf-8' codec can't decode byte 0xff"), proc.stderr


@pytest.mark.parametrize("command", [["detect"], ["detect", "--sweep"],
                                     ["fix"], ["run"], ["run", "--trace"]])
def test_grid_rows_for_a_two_input_program_are_exit_1(tmp_path, capsys,
                                                      command):
    # a --grid row holds one input: the first row's arity check stops the
    # batch before anything is written
    f = tmp_path / "two.tac"
    f.write_text("func f(x, y) -> z\n  z = fadd x, y\n  ret z\n")
    code, out, err = run_cli(capsys, *command, "--program", str(f),
                             "--grid=-2,2,3")
    assert (code, out) == (1, "")
    assert err == "error: f takes 2 input(s), got 1\n"


def test_zero_max_iterations_is_exit_1(capsys):
    code, out, err = run_cli(capsys, "fix", "--kernel", "round_kernel",
                             "--grid=-5,5,21", "--max-iterations", "0")
    assert code == 1
    assert out == ""
    assert err == "error: max_iterations must be at least 1\n"


def test_bad_precision_order_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:1.0",
                           "--p-orig", "60", "--p-shadow", "53")
    assert code == 1


def test_bad_grid_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "detect", "--kernel", "round_kernel",
                           "--grid", "1,2")
    assert code == 1


def test_grid_past_the_largest_length_is_exit_1(capsys, monkeypatch):
    # 10**20 points cannot be a sequence's length; the grid is rejected
    # before any run, and without computing a point
    monkeypatch.setattr(corpus.Grid, "__getitem__",
                        lambda self, i: pytest.fail("a point was computed"))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "detect", "--kernel", "round_kernel",
                             "--grid=1,2,100000000000000000000")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (1, "")
    assert err.startswith("error: bad grid: count must be at most")


def test_barriers_out_of_range_is_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:1.0", "--barriers", "99")
    assert code == 1
    # both checks run before any row, so an input file without rows fails
    # too; instruction 2 is the ret
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n")
    for ids, want in (("99", "barrier id 99 names no instruction"),
                      ("-1", "barrier id -1 names no instruction"),
                      ("0,2", "instruction 2 has no destination")):
        code, out, err = run_cli(capsys, "run", "--kernel", "round_kernel",
                                 "--input", "file:%s" % empty,
                                 "--barriers", ids)
        assert (code, out) == (1, "")
        assert want in err
    code, out, _ = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "file:%s" % empty, "--barriers", "0")
    assert (code, out) == (0, "")


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "detect", "--kernel", "round_kernel",
                           "--grid=-5,5,21", "--output", str(out_path))
    assert code == 0
    assert out == ""
    d = json.loads(out_path.read_text())
    assert d["flagged"] == [1]


def test_eval_without_reference_is_exit_1(capsys):
    # at every precision pair, before a word operation can fail to compile
    for kernel in ("round_kernel", "accum_kernel", "cancel_kernel",
                   "union_scale_kernel"):
        for pair in (["53", "120"], ["24", "200"], ["113", "200"]):
            for fix in ([], ["--auto-fix"]):
                assert run_cli(capsys, "eval", *fix, "--kernel", kernel,
                               "--grid=-5,5,11", "--p-orig", pair[0],
                               "--p-shadow", pair[1]) == (
                    1, "", "error: kernel %s has no reference function\n"
                    % kernel)


def test_eval_auto_fix_without_reference_skips_the_fixer(capsys,
                                                        monkeypatch):
    def fix(*args, **kwargs):
        raise AssertionError("the fixer ran")

    monkeypatch.setattr(detector, "fix_iteratively", fix)
    code, out, err = run_cli(capsys, "eval", "--auto-fix", "--kernel",
                             "accum_kernel", "--grid=0,1,20")
    assert (code, out) == (1, "")
    assert err == "error: kernel accum_kernel has no reference function\n"


def test_repeated_commands_reuse_compiled_code(capsys, monkeypatch):
    from precfix import corpus, engine
    argv = ["detect", "--kernel", "cancel_kernel", "--grid=-10,10,20"]
    run_cli(capsys, *argv)
    cache = corpus.get_kernel("cancel_kernel").program.compiled
    size = len(cache)
    compiles = []
    real = engine._compile
    monkeypatch.setattr(engine, "_compile",
                        lambda *a: compiles.append(a) or real(*a))
    for _ in range(20):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(cache) == size
    assert compiles == []


def test_floor_of_non_finite_is_exit_1(tmp_path, capsys):
    f = tmp_path / "fl.tac"
    f.write_text("func fl(x) -> y\n  t = fmul x, x\n  y = ffloor t\n"
                 "  ret y\n")
    for argv in (["run", "--input", "single:1e300"],
                 ["detect", "--grid=1e200,1e300,4"]):
        code, _, err = run_cli(capsys, *argv, "--program", str(f))
        assert code == 1
        assert err == "error: floor needs a finite value\n"


@pytest.mark.parametrize("argv", [
    ["detect", "--kernel", "round_kernel", "--bogus"],
    # argparse reads -1,1,5 as an option; --grid=-1,1,5 is the spelling
    ["eval", "--kernel", "exp_kernel", "--grid", "-1,1,5"],
    # only eval has --format
    ["detect", "--kernel", "cancel_kernel", "--grid", "1,2,3",
     "--format", "csv"],
    ["fix", "--kernel", "cancel_kernel", "--grid", "1,2,3",
     "--format", "json"],
])
def test_usage_errors_are_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: precfix")
    assert "error:" in err


def test_one_parser_serves_every_command(tmp_path, capsys):
    # the parser is built on the first call and shared; a sequence of
    # different subcommands, a rejected one among them, gives the exit
    # codes and output of a parser built fresh for each command
    f = tmp_path / "exprs.txt"
    f.write_text("exp 1\n")
    commands = [
        ["run", "--kernel", "round_kernel", "--input", "single:2.5",
         "--trace"],
        ["detect", "--kernel", "cancel_kernel", "--grid=1,2,3", "--bogus"],
        ["detect", "--kernel", "cancel_kernel", "--grid=1,2,3", "--sweep"],
        ["eval", "--kernel", "exp_kernel", "--grid=-1,1,3", "--format",
         "csv"],
        ["fix", "--kernel", "round_kernel", "--grid=-5,5,11",
         "--emit-program"],
        ["oracle", "--file", str(f), "--digits", "12"],
        ["run", "--kernel", "cancel_kernel", "--grid", "-1,1,5"],
        ["eval", "--kernel", "exp_kernel", "--grid=-1,1,3"],
    ]
    cli.build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in commands]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 1, 0, 0, 0, 0, 1, 0]


def test_help_is_exit_0(capsys):
    code, out, _ = run_cli(capsys, "detect", "--help")
    assert code == 0
    assert out.startswith("usage: precfix detect")
    assert "--format" not in out


def test_trace_of_huge_exponents_is_fast(tmp_path, capsys):
    # the shadow of 1.5**(2**30) has a binary exponent near 6.3e8; mpmath
    # gives 4.88544011836443e+189076549
    f = tmp_path / "sq.tac"
    f.write_text("func sq(x) -> y\n" + "  x = fmul x, x\n" * 30
                 + "  y = fmov x\n  ret y\n")
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "run", "--program", str(f),
                           "--input", "single:1.5", "--trace")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert "SHADOW VALUE:   4.88544011836443 * 10^189076549" in out


def test_oracle_of_large_arguments(tmp_path, capsys):
    # 1e300 is read at the oracle's 256 bits; of that value mpmath gives
    # sin = -0.94244141112113469238 and cos = 0.33437133041575854902, and
    # exp(+-1e300) is beyond the exponent limit
    f = tmp_path / "exprs.txt"
    f.write_text("sin 1e300\ncos 1e300\nexp 1e300\nexp -1e300\n")
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", "--file", str(f),
                           "--digits", "20")
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert out.splitlines() == ["-0.94244141112113469238",
                                "0.33437133041575854902", "inf",
                                "0.0000000000000000000"]


def test_trig_argument_beyond_reduction_range_exits_1(tmp_path, capsys):
    f = tmp_path / "exprs.txt"
    f.write_text("sin 1e20000\n")
    code, _, err = run_cli(capsys, "oracle", "--file", str(f))
    assert code == 1
    assert "line 1: sin needs |x| < 2**65536" in err


def test_oracle_at_the_ends_of_asin_acos_and_atan2(tmp_path, capsys):
    # asin and acos at |a| = 1 take pi/2 without a square root; atan2 of
    # two negatives takes its quotient's atan minus pi
    f = tmp_path / "exprs.txt"
    f.write_text("asin 1\nasin -1\nacos -1\natan2 -1 -1\n")
    code, out, err = run_cli(capsys, "oracle", "--file", str(f),
                             "--digits", "60")
    assert (code, err) == (0, "")
    with mpmath.workprec(320):
        want = [mpmath.asin(1), mpmath.asin(-1), mpmath.acos(-1),
                mpmath.atan2(-1, -1)]
        for line, w in zip(out.splitlines(), want, strict=True):
            assert abs(mpmath.mpf(line) - w) <= abs(w) * mpmath.mpf(10) ** -59


@pytest.mark.parametrize("line, message", [
    ("atanh 1", "atanh needs |a| < 1"),
    ("pow -2 3", "pow needs a positive base"),
    ("sqrt -1", "sqrt needs a nonnegative argument")])
def test_oracle_domain_errors_are_exit_1(tmp_path, capsys, line, message):
    f = tmp_path / "exprs.txt"
    f.write_text("exp 1\n" + line + "\n")
    assert run_cli(capsys, "oracle", "--file", str(f)) \
        == (1, "", "error: line 2: %s\n" % message)


def test_literal_with_huge_decimal_exponent_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--p-orig", "24", "--p-shadow", "120",
                           "--input", "single:1e-30000000")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert out.startswith("input 1.00000002e-30000000\n")


ZEROS = "0" * 5000


@pytest.mark.parametrize("line, want", [
    ("log10 1" + ZEROS, "5000.000000"),
    ("log10 0." + ZEROS[1:] + "1", "-5000.000000"),
    ("log10 1" + ZEROS + "e-5000", "0.000000000"),
    ("exp 1e-1" + ZEROS[1:], "1.000000000"),
    ("exp -1e+00" + ZEROS[1:] + "1", "0.00004539992976"),
], ids=["int", "fraction", "exponent", "long-exponent", "padded-exponent"])
def test_oracle_reads_literals_of_thousands_of_digits(tmp_path, capsys, line,
                                                      want):
    # leading and trailing zeros count toward no limit, and an exponent of
    # 5000 digits saturates (here 10**-(10**4999), which is 0)
    f = tmp_path / "exprs.txt"
    f.write_text(line + "\n")
    code, out, err = run_cli(capsys, "oracle", "--file", str(f), "--digits",
                             "10")
    assert (code, out, err) == (0, want + "\n", "")


def test_literal_past_the_digit_bound_is_exit_1(tmp_path, capsys):
    f = tmp_path / "exprs.txt"
    f.write_text("exp 1" + ZEROS + "3\n")
    code, _, err = run_cli(capsys, "oracle", "--file", str(f))
    assert code == 1
    assert err == ("error: line 1: decimal literal with more than 4000 "
                   "significant digits\n")
    code, _, err = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:1" + ZEROS + "3")
    assert code == 1
    assert "more than 4000 significant digits" in err


@pytest.mark.parametrize("literal, want", [
    ("1" + ZEROS, "inf"), ("1e1" + ZEROS[1:], "inf"),
    ("-1e-1" + ZEROS[1:], "-0.0000000000000000e0"),
    ("0.25" + ZEROS, "2.5000000000000000e-1")],
    ids=["int", "long-exponent", "negative-exponent", "fraction"])
def test_run_reads_literals_of_thousands_of_digits(capsys, literal, want):
    code, out, _ = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:" + literal)
    assert code == 0
    assert out.startswith("input %s\n" % want)


def test_failing_row_leaves_earlier_rows_in_output(tmp_path, capsys):
    prog = tmp_path / "f.tac"
    prog.write_text("func f(x) -> y\n  y = ffloor x\n  ret y\n")
    inputs = tmp_path / "in.txt"
    inputs.write_text("1.5\n2.5\n1e400\n3.5\n")
    out_path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, "run", "--program", str(prog),
                             "--input", "file:%s" % inputs, "--output",
                             str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: floor needs a finite value\n"
    assert out_path.read_text().count("input ") == 2
    code, _, err = run_cli(capsys, "run", "--program", str(prog), "--input",
                           "single:1", "--output", str(tmp_path / "no" / "o"))
    assert code == 1 and "No such file" in err


FALL_TAC = """func f(x) -> y
  jump start
done:
  ret y
start:
  y = fmov x
  c = icmp lt, x, 0.0
  branch c, done
"""


def test_branch_off_the_end_fails_for_every_input(tmp_path, capsys):
    # the untaken branch falls off the end; the taken one does not
    path = tmp_path / "fall.tac"
    path.write_text(FALL_TAC)
    for x in ("-1", "1"):
        code, out, err = run_cli(capsys, "run", "--program", str(path),
                                 "--input", "single:" + x)
        assert (code, out) == (1, "")
        assert "MissingReturn(instr 4)" in err


BAD_LITERAL = "0x1p1" + "0" * 5000


def test_rejected_literals_are_quoted_clipped(tmp_path, capsys):
    exprs = tmp_path / "exprs.txt"
    exprs.write_text("exp %s\n" % BAD_LITERAL)
    inputs = tmp_path / "in.txt"
    inputs.write_text(BAD_LITERAL + "\n")
    prog = tmp_path / "p.tac"
    prog.write_text("func f(x) -> y\n  y = fmul x, 1.5%s\n  ret y\n"
                    % ("z" * 3000))
    for argv in (("oracle", "--file", str(exprs)),
                 ("run", "--kernel", "round_kernel", "--input",
                  "file:%s" % inputs),
                 ("run", "--program", str(prog), "--input", "single:1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert "characters)" in err


LONG = "q" * 3000


@pytest.mark.parametrize("body, message", [
    ("  y = %s x\n  ret y\n" % LONG, "unknown opcode"),
    ("  9%s = fmov x\n  ret x\n" % LONG, "bad destination"),
    ("  c = icmp %s, x, x\n  ret x\n" % LONG, "bad predicate"),
    ("%s:\n%s:\n  ret x\n" % (LONG, LONG), "duplicate label"),
    ("  const %s = 2.5\n  i = iconst %s\n  ret x\n" % (LONG, LONG),
     "is not integer"),
], ids=["opcode", "destination", "predicate", "label", "const"])
def test_long_tokens_in_syntax_errors_are_clipped(tmp_path, capsys, body,
                                                  message):
    path = tmp_path / "long.tac"
    path.write_text("func f(x) -> x\n" + body)
    code, out, err = run_cli(capsys, "run", "--program", str(path),
                             "--input", "single:1")
    assert (code, out) == (1, "")
    assert message in err and "characters)" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("params, quoted", [("x, 2.5", "'2.5'"),
                                            ("x,,y", "''")])
def test_bad_parameter_name_is_exit_1(tmp_path, capsys, params, quoted):
    path = tmp_path / "badparam.tac"
    path.write_text("func f(%s) -> y\n  y = fmov x\n  ret y\n" % params)
    code, out, err = run_cli(capsys, "run", "--program", str(path),
                             "--input", "single:1")
    assert (code, out) == (1, "")
    assert err == "error: BadName(instr -1): parameter %s is not a name\n" \
        % quoted


def _lifted_str(n):
    """str(n) with the interpreter's int-to-str digit limit lifted."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


def _exact_digits(v, digits):
    """The first `digits` digits of |v|, rounded half even, and the
    decimal exponent of the first, from exact rationals."""
    x = abs(Fraction(v.mant) * Fraction(2) ** (v.exp - v.prec + 1))
    d10 = math.floor(math.log10(v.to_float()))
    n = round(x / Fraction(10) ** (d10 - digits + 1))
    assert 10 ** (digits - 1) <= n < 10**digits
    return _lifted_str(n), d10


def test_run_prints_more_digits_than_int_str_allows(capsys):
    # HP at p_shadow 20000 has digits_for(20000) = 6022 digits
    code, out, err = run_cli(capsys, "run", "--kernel", "cancel_kernel",
                             "--input", "single:1", "--p-orig", "24",
                             "--p-shadow", "20000", "--p-oracle", "20000",
                             "--trace")
    assert (code, err) == (0, "")
    hp = out.splitlines()[2]
    shadow = engine.execute(corpus.get_kernel("cancel_kernel").program,
                            [mp.from_int(1)],
                            engine.EngineConfig(24, 20000)).result.shadow
    digits, d10 = _exact_digits(shadow, corpus.digits_for(20000))
    assert len(digits) == 6022
    assert hp == "  HP: %s.%se%d" % (digits[0], digits[1:], d10)


def test_oracle_prints_more_digits_than_int_str_allows(capsys,
                                                       monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("exp 1\n"))
    code, out, err = run_cli(capsys, "oracle", "--digits", "5000")
    assert (code, err) == (0, "")
    e = tr.derived_fn("exp", [mp.from_int(1, 256)], 256)
    digits, d10 = _exact_digits(e, 5000)
    assert d10 == 0
    assert out == "%s.%s\n" % (digits[0], digits[1:])


def loop_program(path, loops):
    """A one-input program of 1 + loops samples: a self-loop of one fadd."""
    path.write_text("func f(x) -> s\n  s = fmov x\n  i = iconst 0\n"
                    "  c = icmp lt, i, %d\n  branch c, top\n  ret s\n"
                    "top:\n  s = fadd s, x\n  i = iadd i, 1\n"
                    "  c = icmp lt, i, %d\n  branch c, top\n  ret s\n"
                    % (loops, loops))
    return tac.parse_program(path.read_text())


@pytest.mark.parametrize("loops", [0, 254, 255, 256, 511, 600])
def test_trace_rows_of_any_length_join_every_sample(tmp_path, capsys,
                                                    monkeypatch, loops):
    # 1 + loops samples, formatted as the engine makes them: past
    # cli._TRACE_CHUNK samples a row's text moves to its spool, which goes
    # to disk past cli._SPOOL_SIZE bytes (at once when that is 1).
    # Either way the row reads as a full-mode run's samples joined whole
    src = tmp_path / "loop.tac"
    prog = loop_program(src, loops)
    for p_orig, size in itertools.product((24, 53), (cli._SPOOL_SIZE, 1)):
        x = mp.from_decimal_string("0.1", p_orig, mp.policy_for(p_orig))
        samples = engine.execute(prog, [x],
                                 engine.EngineConfig(p_orig, 120)).samples
        assert len(samples) == 1 + loops
        monkeypatch.setattr(cli, "_SPOOL_SIZE", size)
        code, out, err = run_cli(capsys, "run", "--program", str(src),
                                 "--input", "single:0.1", "--p-orig",
                                 str(p_orig), "--trace")
        assert (code, err) == (0, "")
        head = out.split("\n\n", 1)[0] + "\n\n"
        assert out == head + "\n\n".join(map(engine.format_sample,
                                              samples)) + "\n"


def test_long_trace_rows_spill_to_disk_in_bounded_memory(tmp_path,
                                                         monkeypatch):
    # two rows of 6,001 samples, about 1 MB of text each: with the spool
    # held to 64 KiB in memory, each row's text goes through its disk file,
    # and the output equals the run held in memory.  The peak stays below
    # 2 MB; keeping a row's samples until it ends (about 0.6 KB each)
    # peaks near 7 MB
    src = tmp_path / "loop.tac"
    loop_program(src, 6000)
    rows = tmp_path / "rows.in"
    rows.write_text("0.1\n0.3\n")
    rolled = []
    real = tempfile.SpooledTemporaryFile.rollover
    monkeypatch.setattr(tempfile.SpooledTemporaryFile, "rollover",
                        lambda self: rolled.append(self) or real(self))

    def run(size, out):
        monkeypatch.setattr(cli, "_SPOOL_SIZE", size)
        assert cli.main(["run", "--program", str(src), "--input",
                         "file:%s" % rows, "--p-orig", "24", "--trace",
                         "--output", str(out)]) == 0

    run(1 << 40, tmp_path / "memory.out")
    assert rolled == []
    tracemalloc.start()
    try:
        run(1 << 16, tmp_path / "spool.out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rolled) == 1  # the first row's; the second's reuses it
    text = (tmp_path / "memory.out").read_text()
    assert text.count("RELATIVE ERROR") == 2 * 6001
    assert (tmp_path / "spool.out").read_text() == text
    assert peak < 2 << 20


def test_a_grid_endpoint_rounds_as_input_single_does(capsys):
    # read at 64 bits first, 0.1 would start the grid at p113 at
    # 1.00000000000000000001355252715606881e-1
    argv = ["run", "--kernel", "cancel_kernel", "--p-orig", "113",
            "--p-shadow", "200"]
    _, grid, _ = run_cli(capsys, *argv, "--grid=0.1,0.2,2")
    _, single, _ = run_cli(capsys, *argv, "--input", "single:0.1")
    assert grid.split("\n")[0] == single.split("\n")[0] \
        == "input 1.00000000000000000000000000000000005e-1"


def test_a_literal_rounds_once_at_p53(tmp_path, capsys):
    # just above the midpoint between 1 and the next binary64 value: a
    # first rounding at 300 bits would give the midpoint itself, then 1.0
    text = "1.00000000000000011102230246251565404236316680908203125" \
        + "0" * 300 + "1"
    prog = tmp_path / "c.tac"
    prog.write_text("func f(x) -> y\n  c = fconst %s\n  y = fadd x, c\n"
                    "  ret y\n" % text)
    code, out, _ = run_cli(capsys, "run", "--program", str(prog), "--input",
                           "single:0")
    assert code == 0 and float(text) == 1.0000000000000002
    assert out.split("\n")[1] == "  OP: 1.0000000000000002e0"


def test_repeated_commands_retain_no_memory(tmp_path):
    # a long-lived process: the second pass of a command matrix keeps
    # almost nothing the first did not, its caches being filled already
    out = str(tmp_path / "out")
    matrix = [[*cmd, "--kernel", k, "--grid=-1,1,8", "--output", out]
              for k in ("exp_kernel", "sin_kernel")
              for cmd in (["run", "--trace"], ["detect", "--sweep"],
                          ["fix"], ["eval"])]

    def once():
        for argv in matrix:
            assert cli.main(argv) == 0

    once()
    tracemalloc.start()
    try:
        once()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 8 << 10


def test_trace_of_a_row_without_float_writes(tmp_path, capsys):
    src = tmp_path / "id.tac"
    src.write_text("func f(x) -> x\n  ret x\n")
    code, out, _ = run_cli(capsys, "run", "--program", str(src), "--input",
                           "single:2", "--trace")
    assert code == 0
    assert out == ("input 2.0000000000000000e0\n  OP: 2.0000000000000000e0\n"
                   "  HP: 2.0000000000000000000000000000000000000e0\n\n\n")


def _sci15_of(q):
    """The positive rational q to 15 significant digits, ties to even, as
    engine._sci15 prints it, from exact rationals."""
    d10 = len(str(q.numerator // q.denominator)) - 1  # q >= 1 here
    n = round(q / Fraction(10) ** (d10 - 14))
    if n == 10**15:
        n, d10 = 10**14, d10 + 1
    return "%s.%s * 10^%d" % (str(n)[0], str(n)[1:], d10)


# (n + 1/2) * 10**j for a 15-digit n: rounded to p bits, each lies within
# a relative 2**-p of a 15-digit decimal tie, or on it when p bits hold it
_NEAR_TIES = ("1234567890123455e995", "1234567890123445e995",
              "1234567890123455e1995")


@pytest.mark.parametrize("p_orig", [200, 4000])
def test_printing_near_a_decimal_tie_widens_then_settles(tmp_path, capsys,
                                                        monkeypatch, p_orig):
    # past 10**992 the bounds on 5**|k| leave such a value open at first:
    # near 10**1010 the exact integers settle it after one widening, near
    # 10**2010 at 200 bits the widened bounds do.  At 4000 bits the first
    # two are exact ties, printed to even: ...346 and ...344
    src = tmp_path / "ties.tac"
    src.write_text("func f(x) -> y\n%s  y = fmov x\n  ret y\n" % "".join(
        "  c%d = fconst %s\n" % c for c in enumerate(_NEAR_TIES)))
    approx, tries = mp._round_scaled_approx, []

    def counted(m, e, k, w):
        tries.append((w, approx(m, e, k, w)))
        return tries[-1][1]

    monkeypatch.setattr(mp, "_round_scaled_approx", counted)
    p = str(p_orig + 1)
    code, out, err = run_cli(capsys, "run", "--trace", "--program", str(src),
                             "--input", "single:1", "--p-orig", str(p_orig),
                             "--p-shadow", p, "--p-oracle", p)
    assert (code, err) == (0, "")
    want = []
    for text in _NEAR_TIES:
        _, _, top, mant, _ = rounded_fraction(Fraction(text), p_orig)
        want.append(_sci15_of(mant * Fraction(2) ** (top - p_orig + 1)))
    assert [line[16:] for line in out.splitlines()
            if line.startswith("ORIGINAL:")][:3] == want
    # mpfloat's general printer takes the same paths at 15 digits
    assert [mp.to_sci_string(mp.from_decimal_string(text, p_orig), 15)
            for text in _NEAR_TIES] == [w.replace(" * 10^", "e")
                                        for w in want]
    assert (124, None) in tries
    if p_orig == 200:
        assert any(w == 248 and n is not None for w, n in tries)
    else:
        assert want[:2] == ["1.23456789012346 * 10^1010",
                            "1.23456789012344 * 10^1010"]


def test_closed_stdout_pipe_is_a_silent_exit_1():
    # 2,000 rows write far more than a pipe holds, so the writer is still
    # writing when the reader closes its end after one line
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "precfix.cli", "run", "--kernel",
         "cancel_kernel", "--grid=0.1,0.2,2000", "--p-orig", "113",
         "--p-shadow", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"input ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_closed_pipe_in_process_is_exit_1(monkeypatch, capsys):
    # capsys's stdout has no file descriptor to point at devnull
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setitem(cli._COMMANDS, "run", closed)
    assert run_cli(capsys, "run", "--kernel", "round_kernel") == (1, "", "")


def test_every_bad_input_error_is_an_input_error():
    # cli.main exits 1 on precfix.InputError alone
    for cls in (mp.ParseError, tac.TacSyntaxError, tac.TacValidationError,
                tr.DomainError, engine.EngineError, engine.BadBarrier,
                engine.StepBudgetExceeded, engine.NonFiniteFloor,
                detector.NoConvergence, evaluator.EvaluationError):
        assert issubclass(cls, precfix.InputError), cls
    assert issubclass(precfix.InputError, ValueError)
    assert issubclass(detector.NoConvergence, RuntimeError)


@pytest.mark.parametrize("layer, name, exc, argv", [
    (corpus, "digits_for", ValueError("no digits"),
     ["run", "--kernel", "exp_kernel", "--input", "single:1"]),
    (evaluator, "summarize", KeyError("M>=L"),
     ["eval", "--kernel", "exp_kernel", "--grid=0,1,3"]),
    (detector, "collect", RuntimeError("lost"),
     ["detect", "--kernel", "exp_kernel", "--grid=0,1,3"]),
])
def test_plain_errors_inside_a_layer_are_exit_2(capsys, monkeypatch, layer,
                                                name, exc, argv):
    """A layer's plain ValueError, KeyError or RuntimeError is a fault of
    precfix, not bad input."""
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(layer, name, fail)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: ")
    assert err == "internal error: %r\n" % (exc,)


# -- one batch per run, one per eval lane and chunk ---------------------------


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_comments_only_input_to_a_word_op_kernel_is_empty(tmp_path, capsys,
                                                          trace):
    # no row, so nothing is compiled: exp_kernel's word operations would
    # fail to compile at p_orig 24
    f = tmp_path / "in.txt"
    f.write_text("# nothing but comments\n\n# and blank lines\n")
    code, out, err = run_cli(capsys, "run", "--kernel", "exp_kernel",
                             "--input", "file:%s" % f, "--p-orig", "24",
                             "--p-shadow", "200", *trace)
    assert (code, out, err) == (0, "", "")


def _empty_report(e0="9.99999999999999954748111825886e-7"):
    return {"program": "exp_kernel", "runs": 0, "e0": e0, "p0": 0.5,
            "p1": 0.1, "flagged": [], "first_flagged": None,
            "instructions": []}


@pytest.mark.parametrize("argv", [["detect"], ["detect", "--sweep"], ["fix"],
                                  ["fix", "--emit-program"],
                                  ["eval", "--auto-fix"]],
                         ids=["detect", "sweep", "fix", "emit", "eval"])
def test_comments_only_input_to_a_word_op_kernel_is_an_empty_batch(
        tmp_path, capsys, argv):
    # every command admits a batch by one rule: without rows nothing is
    # compiled, so detect and fix report no runs, and eval has no inputs
    f = tmp_path / "in.txt"
    f.write_text("# nothing but comments\n\n# and blank lines\n")
    code, out, err = run_cli(capsys, *argv, "--kernel", "exp_kernel",
                             "--input", "file:%s" % f, "--p-orig", "24",
                             "--p-shadow", "200")
    if argv[0] == "eval":
        assert (code, out, err) == (1, "", "error: no inputs to evaluate\n")
        return
    assert (code, err) == (0, "")
    if "--emit-program" in argv:
        prog = corpus.get_kernel("exp_kernel").program
        assert out == tac.pretty_print(prog, frozenset())
    elif "--sweep" in argv:  # one empty report per threshold
        got = json.loads(out)
        assert len(got) == 4
        assert all(r["report"] == _empty_report(r["report"]["e0"])
                   for r in got)
    elif argv == ["fix"]:
        assert json.loads(out) == {"program": "exp_kernel", "barriers": [],
                                   "converged": True,
                                   "iterations": [_empty_report()]}
    else:
        assert json.loads(out) == _empty_report()


def test_arity_is_reported_before_a_compile_error(tmp_path, capsys):
    # every command checks the first row's arity before it compiles the
    # program, whose get_hi would not compile at p_orig 24
    prog = tmp_path / "two.tac"
    prog.write_text("func f(x, y) -> z\n  h = get_hi x\n  z = fadd x, y\n"
                    "  ret z\n")
    for argv in (["run"], ["run", "--trace"], ["detect"],
                 ["detect", "--sweep"], ["fix"]):
        for inputs in (["--input", "single:1"], ["--grid=-2,2,3"]):
            code, out, err = run_cli(capsys, *argv, "--program", str(prog),
                                     *inputs, "--p-orig", "24",
                                     "--p-shadow", "200")
            assert (code, out, err) == (
                1, "", "error: f takes 2 input(s), got 1\n"), argv + inputs


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_failing_middle_row_keeps_earlier_rows_on_stdout(tmp_path, capsys,
                                                         trace):
    prog = tmp_path / "f.tac"
    prog.write_text("func f(x) -> y\n  t = fmul x, 1e300\n  y = ffloor t\n"
                    "  ret y\n")
    good, rows = tmp_path / "good.txt", tmp_path / "rows.txt"
    good.write_text("1.5\n2.5\n")
    rows.write_text("1.5\n2.5\n1e10\n3.5\n")
    argv = ["run", "--program", str(prog), *trace, "--input"]
    code, want, _ = run_cli(capsys, *argv, "file:%s" % good)
    assert code == 0 and want.count("input ") == 2
    code, out, err = run_cli(capsys, *argv, "file:%s" % rows)
    assert (code, out, err) == (1, want, "error: floor needs a finite value\n")


# the HP lane's shadow stays finite; a barrier on z demotes it through
# set_hi's stale shadow, which overflows binary64 once x > 5e7, so the MP
# lane's floor fails; x > 1e20 then spins past the step budget in both
MPFAIL = """func mpfail(x) -> w
  t0 = fdiv x, 3.0
  t = fmul t0, 0x1p1000
  y = set_hi t, 1072693248
  z = fmul y, 1.0
  w = ffloor z
  c = icmp gt, x, 1e20
  branch c, spin
  ret w
spin:
  jump spin
"""
FLOOR_ERR = "error: floor needs a finite value\n"
STEPS_ERR = "error: mpfail exceeded 100 steps\n"


@pytest.mark.parametrize("chunk", [1, 2, 1024])
@pytest.mark.parametrize("rows, barriers, want", [
    ("1 2", "3", ""),
    ("1 1e9 1e30", "3", FLOOR_ERR),   # row 1's MP lane fails first
    ("1 1e30 1e9", "3", STEPS_ERR),   # row 1's HP lane, before its MP lane
    ("1 1e9 1e30", "", STEPS_ERR),    # no MP lane
])
def test_eval_reports_the_first_failing_rows_error(tmp_path, capsys,
                                                   monkeypatch, chunk, rows,
                                                   barriers, want):
    kernel = corpus.Kernel("mpfail", MPFAIL, "sqrt", ("1", "2", 3))
    monkeypatch.setattr(corpus, "get_kernel", lambda name: kernel)
    monkeypatch.setattr(cli, "_engine_cfg", lambda args: engine.EngineConfig(
        args.p_orig, args.p_shadow, max_steps=100))
    monkeypatch.setattr(evaluator, "_CHUNK", chunk)
    f = tmp_path / "in.txt"
    f.write_text(rows.replace(" ", "\n") + "\n")
    code, out, err = run_cli(capsys, "eval", "--kernel", "mpfail",
                             "--input", "file:%s" % f, "--format", "text",
                             *(["--barriers", barriers] if barriers else []))
    assert (code, err) == ((1, want) if want else (0, ""))
    assert (out == "") == bool(want)
