"""Command-line interface tests via main(argv)."""

import json
import time

import pytest

from precfix import cli, tac


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


def test_barriers_out_of_range_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--input", "single:1.0", "--barriers", "99")
    assert code == 1


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "detect", "--kernel", "round_kernel",
                           "--grid=-5,5,21", "--output", str(out_path))
    assert code == 0
    assert out == ""
    d = json.loads(out_path.read_text())
    assert d["flagged"] == [1]


def test_eval_without_reference_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--kernel", "round_kernel",
                           "--grid=-5,5,11")
    assert code == 1
    assert "reference" in err


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


def test_literal_with_huge_decimal_exponent_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "run", "--kernel", "round_kernel",
                           "--p-orig", "24", "--p-shadow", "120",
                           "--input", "single:1e-30000000")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert out.startswith("input 1.00000002e-30000000\n")
