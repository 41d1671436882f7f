"""What a precfix process imports, and that its exits do not depend on it.

`import precfix` loads no layer, and each CLI command loads only the
layers it runs, so each check here runs in a fresh interpreter."""

import io
import os
import re
import subprocess
import sys

import pytest

import precfix
from precfix import cli

SRC = os.path.dirname(os.path.dirname(precfix.__file__))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")
LAYERS = {"mpfloat", "transcendental", "tac", "engine", "detector",
          "corpus", "evaluator"}
RUN = {"mpfloat", "tac", "corpus", "engine"}
BAD_PROGRAM = "func f(x) -> y\n  y = bogus x\n  ret y\n"


def fresh(args, stdin=""):
    """(exit code, stdout, stderr) of a fresh interpreter given args."""
    proc = subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, proc.stdout, proc.stderr


def loaded_after(code, *argv, stdin=""):
    """The precfix layers in sys.modules after code runs fresh."""
    code += ("\nprint(*(m[8:] for m in __import__('sys').modules"
             " if m.startswith('precfix.')))")
    rc, out, err = fresh(["-c", code, *argv], stdin)
    assert rc == 0, err
    return set(out.splitlines()[-1].split())


def test_importing_the_package_loads_no_layer():
    # dir() lists every exported name without loading one
    assert loaded_after("import precfix\n"
                        "assert set(precfix.__all__) <= set(dir(precfix))"
                        ) == set()
    assert loaded_after("import precfix\nfrom precfix import corpus, tac"
                        ) == {"mpfloat", "tac", "corpus"}


@pytest.mark.parametrize("argv, layers", [
    (["run", "--kernel", "exp_kernel", "--input", "single:1"], RUN),
    (["run", "--kernel", "exp_kernel", "--input", "single:1", "--trace"],
     RUN),
    (["detect", "--kernel", "exp_kernel", "--grid=0,1,3"],
     RUN | {"detector"}),
    (["detect", "--kernel", "exp_kernel", "--grid=0,1,3", "--sweep"],
     RUN | {"detector"}),
    (["fix", "--kernel", "exp_kernel", "--grid=0,1,3"], RUN | {"detector"}),
    (["eval", "--kernel", "exp_kernel", "--grid=0,1,3"], LAYERS),
    (["oracle"], {"mpfloat", "transcendental"}),
])
def test_each_command_loads_only_its_layers(argv, layers):
    code = ("import contextlib, io, sys\nfrom precfix import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0")
    assert loaded_after(code, *argv, stdin="exp 1\n") == layers | {"cli"}


def test_package_names_resolve_lazily():
    assert precfix.__all__ == [
        "mpfloat", "transcendental", "tac", "engine", "detector", "corpus",
        "evaluator", "MPFloat", "relative_error", "EngineConfig",
        "DualValue", "execute", "DetectionConfig", "detect",
        "fix_iteratively", "builtin_kernels", "grid", "evaluate",
        "summarize"]
    assert set(precfix.__all__) <= set(dir(precfix))
    assert precfix.execute is precfix.engine.execute
    assert precfix.MPFloat is precfix.mpfloat.MPFloat
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        precfix.nope  # noqa: B018
    with pytest.raises(ImportError):
        from precfix import nope  # noqa: F401


@pytest.mark.parametrize("argv, stdin, err", [
    (["fix", "--kernel", "exp_kernel", "--max-iterations", "1"], "",
     "error: no convergence after 1 iterations on exp_kernel\n"),
    (["run", "--program", "{bad}", "--input", "single:1"], "",
     "error: line 2: unknown opcode 'bogus'\n"),
    (["run", "--kernel", "exp_kernel", "--p-orig", "24", "--p-shadow",
      "200"], "", "error: word operations need p_orig = 53\n"),
    (["oracle"], "log -1\n",
     "error: line 1: ln needs a positive argument\n"),
])
def test_errors_of_lazily_loaded_layers_exit_alike(tmp_path, capsys,
                                                   monkeypatch, argv, stdin,
                                                   err):
    """A fresh `python -m precfix.cli`, which imports the raising layer
    only when its command runs, exits as cli.main does in a process that
    has every layer loaded."""
    bad = tmp_path / "bad.tac"
    bad.write_text(BAD_PROGRAM)
    argv = [a.format(bad=bad) for a in argv]
    got = fresh(["-m", "precfix.cli", *argv], stdin)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    assert got == (code, out.out, out.err) == (1, "", err)


def test_console_script_target_runs():
    """pyproject's `precfix` console script names a function that runs the
    CLI; 3.10 has no tomllib, so the target is read with a regex."""
    with open(PYPROJECT) as fh:
        target = re.search(r'(?m)^precfix\s*=\s*"([\w.]+):(\w+)"',
                           fh.read())
    assert target, "no precfix script in pyproject.toml"
    code = ("import importlib, sys\n"
            "sys.exit(getattr(importlib.import_module(%r), %r)())"
            % target.groups())
    assert fresh(["-c", code, "oracle", "--digits", "12"], "exp 1\n") == (
        0, "2.71828182846\n", "")
