"""Command-line front end: run, detect, fix, eval, oracle.

Exit codes: 0 success, 1 for bad input and, silently, for a stdout whose
reader closed it, 2 for anything unexpected.  Bad input is a
`precfix.InputError`: each layer's errors for arguments, program text,
numbers, domain errors and programs the engine cannot run derive from it,
and the CLI raises it for what it rejects itself.
Diagnostics go to stderr; machine output goes to stdout or --output.

`run --trace` formats each sample as the engine makes it.  A row's header
needs the row's result, so its trace text is held until the row ends: in
a list of up to _TRACE_CHUNK samples, then in a spool that keeps
_SPOOL_SIZE bytes in memory and the rest in a temporary file.

Each command imports only the layers it runs, when it runs.  Calls go
through module attributes, so a wrapper set on a layer's function is seen.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import shutil
import sys
import tempfile

from . import InputError, mpfloat as mp


def _add_source(parser):
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--kernel", help="built-in kernel name")
    g.add_argument("--program", help="path to a TAC program file")


def _add_inputs(parser):
    g = parser.add_mutually_exclusive_group()
    g.add_argument("--input",
                   help="single:VALUE or file:PATH (decimal literals)")
    g.add_argument("--grid", help="LO,HI,COUNT uniform grid")


def _add_precisions(parser):
    parser.add_argument("--p-orig", type=int, default=53)
    parser.add_argument("--p-shadow", type=int, default=120)
    parser.add_argument("--p-oracle", type=int, default=256)


def _add_detection(parser):
    parser.add_argument("--e0", type=float, default=1e-6)
    parser.add_argument("--p0", type=float, default=0.5)
    parser.add_argument("--p1", type=float, default=0.1)
    parser.add_argument("--first-order", choices=("static", "dynamic"),
                        default="static")


def _add_output(parser):
    parser.add_argument("--output", help="write here instead of stdout")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and then shared: every
    call in the process returns the same parser."""
    ap = argparse.ArgumentParser(
        prog="precfix",
        description="detect and fix precision-specific operations in "
                    "TAC programs by dual-precision shadow execution")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a kernel, print results")
    _add_source(p)
    _add_inputs(p)
    _add_precisions(p)
    p.add_argument("--barriers", help="comma-separated instruction ids")
    p.add_argument("--trace", action="store_true",
                   help="print the per-instruction four-field error trace")
    p.add_argument("--output")

    p = sub.add_parser("detect", help="batch execution + detection report")
    _add_source(p)
    _add_inputs(p)
    _add_precisions(p)
    _add_detection(p)
    p.add_argument("--sweep", action="store_true",
                   help="report over the e0/p0 sweep instead of one point")
    _add_output(p)

    p = sub.add_parser("fix", help="iteratively add barriers until clean")
    _add_source(p)
    _add_inputs(p)
    _add_precisions(p)
    _add_detection(p)
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--emit-program", action="store_true",
                   help="print the barrier-annotated program text")
    _add_output(p)

    p = sub.add_parser("eval", help="compare OP/HP/MP against the oracle")
    _add_source(p)
    _add_inputs(p)
    _add_precisions(p)
    _add_detection(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--barriers", help="comma-separated instruction ids")
    g.add_argument("--auto-fix", action="store_true",
                   help="run the iterative fixer first")
    _add_output(p)
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="json")

    p = sub.add_parser("oracle",
                       help="evaluate `fn arg1 [arg2]` lines at high "
                            "precision")
    p.add_argument("--file", help="read expressions here instead of stdin")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--precision", type=int, default=256)
    p.add_argument("--output")
    return ap


def _undecodable(path, exc):
    """The bad-input error of a file with bytes its encoding cannot read."""
    return InputError("%s: %s" % (path, exc))


def _lines(fh):
    """fh's lines, an undecodable byte in them a bad-input error."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise _undecodable(fh.name, exc) from exc


def _load_source(args):
    from . import corpus, tac
    if args.kernel:
        try:
            return corpus.get_kernel(args.kernel)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
    if args.program:
        try:
            with open(args.program) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise _undecodable(args.program, exc) from exc
        prog = tac.parse_program(text)
        kernel = corpus.Kernel(prog.name, text, None, ("-1", "1", 1000))
        vars(kernel)["program"] = prog  # fill the cached property
        return kernel
    raise InputError("need --kernel or --program")


def _load_inputs(args, kernel, p_orig):
    from . import corpus
    if args.grid:
        parts = args.grid.split(",")
        if len(parts) != 3:
            raise InputError("--grid wants LO,HI,COUNT")
        try:
            return corpus.grid(parts[0], parts[1], int(parts[2]), p_orig)
        except ValueError as exc:
            raise InputError("bad grid: %s" % exc) from exc
    if args.input:
        kind, _, rest = args.input.partition(":")
        if kind == "single":
            return [mp.from_decimal_string(rest, p_orig,
                                           mp.policy_for(p_orig))]
        if kind == "file":
            try:
                return corpus.read_inputs(rest, p_orig)
            except OSError as exc:
                raise InputError(str(exc)) from exc
            except UnicodeDecodeError as exc:
                raise _undecodable(rest, exc) from exc
        raise InputError("--input wants single:VALUE or file:PATH")
    if args.kernel:
        return corpus.default_inputs(kernel, p_orig)
    raise InputError("need --input or --grid")


def _engine_cfg(args):
    from . import engine
    if not args.p_orig < args.p_shadow <= args.p_oracle:
        raise InputError("need p_orig < p_shadow <= oracle precision")
    return engine.EngineConfig(args.p_orig, args.p_shadow)


def _det_cfg(args):
    from . import detector
    kw = dict(e0=args.e0, p0=args.p0, p1=args.p1,
              first_order=args.first_order)
    if "max_iterations" in args:  # only `fix` sets the cap
        kw["max_iterations"] = args.max_iterations
    return detector.DetectionConfig(**kw)


def _parse_barriers(text, prog):
    from . import engine
    if not text:
        return frozenset()
    try:
        ids = frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise InputError("bad --barriers list") from exc
    engine.check_barriers(prog, ids)
    return ids


def _open_output(args):
    """--output opened for writing, or stdout (left open on exit)."""
    out = getattr(args, "output", None)
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _emit(args, text):
    with _open_output(args) as fh:
        fh.write(text)


# samples of a row's trace formatted and held as text at once; past this
# many the text moves to the row's spool
_TRACE_CHUNK = 256
# bytes of trace text a spool keeps in memory before it moves to disk
_SPOOL_SIZE = 2 << 20


class _TraceSpool:
    """The consumer `run --trace` hands engine.execute_rows: each
    ErrorSample is formatted as the engine makes it, and the row's text is
    held in a list of up to _TRACE_CHUNK samples, and past that in a
    temporary file that keeps _SPOOL_SIZE bytes in memory and the rest on
    disk.  A row's text is written after its header, which needs the row's
    result."""

    def __init__(self, file):
        from . import engine
        self.file = file
        self.texts = []
        self.format = engine.format_sample

    def append(self, sample):
        texts = self.texts
        if len(texts) == _TRACE_CHUNK:
            # a sample always follows what the file holds
            self.file.write("\n\n".join(texts) + "\n\n")
            texts.clear()
        texts.append(self.format(sample))

    def write_row(self, out, head):
        """head, then the row's samples, to out; the spool is then empty."""
        f = self.file
        if f.tell():
            out.write(head)
            f.seek(0)
            shutil.copyfileobj(f, out)
            f.seek(0)
            f.truncate()
            head = ""
        out.write(head + "\n\n".join(self.texts) + "\n")
        self.texts.clear()


def cmd_run(args):
    from . import corpus, engine
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    prog = kernel.program
    barriers = _parse_barriers(getattr(args, "barriers", None), prog)
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    digits = corpus.digits_for(cfg.p_orig)
    s_digits = corpus.digits_for(cfg.p_shadow)
    x = None  # the input of the row running now

    def rows():
        nonlocal x
        for x in inputs:
            yield (x,)

    def on_row(i, orig, shadow, stale):
        if cfg.p_orig == 53:  # the host-float original lane
            orig = mp.from_float(orig)
        head = "%sinput %s\n  OP: %s\n  HP: %s\n" % (
            "\n" if i else "", mp.to_sci_string(x, digits),
            mp.to_sci_string(orig, digits), mp.to_sci_string(shadow, s_digits))
        if args.trace:
            spool.write_row(out, head + "\n")
        else:
            out.write(head)

    # all rows run in one batch, each written once it has run: a failing
    # row leaves the rows before it in the output
    with _open_output(args) as out, \
            tempfile.SpooledTemporaryFile(_SPOOL_SIZE, "w+",
                                         encoding="utf-8") as file:
        spool = _TraceSpool(file) if args.trace else "none"
        engine.execute_rows(prog, rows(), cfg, barriers, spool, 0, on_row)
    return 0


def cmd_detect(args):
    from . import detector
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    det = _det_cfg(args)
    agg = detector.collect(kernel.program,
                           _load_inputs(args, kernel, cfg.p_orig), cfg,
                           thresholds=det.thresholds if args.sweep
                           else (det.e0,))
    if args.sweep:
        payload = [
            {"e0": r.e0, "p0": r.p0, "report": r.to_dict()}
            for r in detector.sweep(agg, det)
        ]
    else:
        payload = detector.detect(agg, det).to_dict()
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_fix(args):
    from . import detector, tac
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    det = _det_cfg(args)
    prog = kernel.program
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    result = detector.fix_iteratively(prog, inputs, cfg, det)
    if args.emit_program:
        _emit(args, tac.pretty_print(prog, result.barriers))
        return 0
    payload = {
        "program": prog.name,
        "barriers": sorted(result.barriers),
        "converged": True,  # no convergence raises NoConvergence
        "iterations": [r.to_dict() for r in result.iterations],
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_eval(args):
    from . import evaluator
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    prog = kernel.program
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    if args.auto_fix:
        from . import detector
        det = _det_cfg(args)
        if kernel.oracle_fn is None:  # before the fixer, not after it
            raise InputError("kernel %s has no reference function"
                             % kernel.name)
        barriers = detector.fix_iteratively(prog, inputs, cfg, det).barriers
    else:
        barriers = _parse_barriers(args.barriers, prog)
    rows, skipped = evaluator.evaluate(kernel, inputs, cfg, barriers,
                                       args.p_oracle)
    table = evaluator.summarize(kernel.name, rows, skipped, args.p_oracle)
    _emit(args, evaluator.report(table, args.format))
    return 0


def cmd_oracle(args):
    from . import transcendental as tr
    if args.digits < 1:
        raise InputError("--digits must be positive")
    if args.precision < 2:
        raise InputError("need p_s >= 2")
    if args.file:
        try:
            fh = open(args.file)
        except OSError as exc:
            raise InputError(str(exc)) from exc
    else:
        # as strict as a file: the interpreter reads stdin with
        # surrogateescape, which would pass an undecodable byte on as text
        buf = getattr(sys.stdin, "buffer", None)
        fh = sys.stdin if buf is None else io.TextIOWrapper(buf)
    out = []
    with fh:
        for line_no, line in enumerate(_lines(fh), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            fn, raw_args = parts[0], parts[1:]
            arity = tr.FUNCTION_ARITY.get(fn)
            if arity is None:
                raise InputError("line %d: unknown function %r"
                                 % (line_no, fn))
            if len(raw_args) != arity:
                raise InputError("line %d: %s takes %d argument(s)"
                                 % (line_no, fn, arity))
            try:
                vals = [mp.from_decimal_string(a, args.precision)
                        for a in raw_args]
            except mp.ParseError as exc:
                raise InputError("line %d: %s" % (line_no, exc)) from exc
            try:
                r = tr.derived_fn(fn, vals, args.precision)
            except tr.DomainError as exc:
                raise InputError("line %d: %s" % (line_no, exc)) from exc
            out.append(mp.to_decimal_string(r, args.digits))
    _emit(args, "\n".join(out) + "\n")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "detect": cmd_detect,
    "fix": cmd_fix,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage message
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # point fd 1 at devnull so that the interpreter's final flush of
        # stdout cannot fail again; an in-process stdout may have no fd
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print("internal error: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
