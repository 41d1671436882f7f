"""Command-line front end: run, detect, fix, eval, oracle.

Exit codes: 0 success, 1 for bad input (arguments, program text, domain
errors, programs the engine cannot run), 2 for anything unexpected.
Diagnostics go to stderr; machine output goes to stdout or --output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import mpfloat as mp
from . import tac, engine, detector, corpus, evaluator, transcendental as tr

ORACLE_PREC_ENV = "PRECFIX_ORACLE_PRECISION"


class CliError(Exception):
    pass


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
    parser.add_argument("--p-oracle", type=int,
                        default=int(os.environ.get(ORACLE_PREC_ENV, "256")))


def _add_detection(parser):
    parser.add_argument("--e0", type=float, default=1e-6)
    parser.add_argument("--p0", type=float, default=0.5)
    parser.add_argument("--p1", type=float, default=0.1)
    parser.add_argument("--first-order", choices=("static", "dynamic"),
                        default="static")


def _add_output(parser):
    parser.add_argument("--output", help="write here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")


def build_parser():
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

    p = sub.add_parser("oracle",
                       help="evaluate `fn arg1 [arg2]` lines at high "
                            "precision")
    p.add_argument("--file", help="read expressions here instead of stdin")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--precision", type=int,
                   default=int(os.environ.get(ORACLE_PREC_ENV, "256")))
    p.add_argument("--output")
    return ap


def _load_source(args):
    if args.kernel:
        try:
            return corpus.get_kernel(args.kernel)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    if args.program:
        try:
            with open(args.program) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(str(exc)) from exc
        prog = tac.parse_program(text)
        return corpus.Kernel(prog.name, text, None, ("-1", "1", 1000))
    raise CliError("need --kernel or --program")


def _load_inputs(args, kernel, p_orig):
    policy = mp.BINARY64 if p_orig == 53 else mp.UNBOUNDED
    if args.grid:
        parts = args.grid.split(",")
        if len(parts) != 3:
            raise CliError("--grid wants LO,HI,COUNT")
        try:
            return corpus.grid(parts[0], parts[1], int(parts[2]),
                               p_orig, policy)
        except (ValueError, mp.ParseError) as exc:
            raise CliError("bad grid: %s" % exc) from exc
    if args.input:
        kind, _, rest = args.input.partition(":")
        if kind == "single":
            try:
                return [mp.from_decimal_string(rest, p_orig, policy)]
            except mp.ParseError as exc:
                raise CliError(str(exc)) from exc
        if kind == "file":
            try:
                return corpus.read_inputs(rest, p_orig, policy)
            except (OSError, mp.ParseError) as exc:
                raise CliError(str(exc)) from exc
        raise CliError("--input wants single:VALUE or file:PATH")
    if args.kernel:
        return corpus.default_inputs(kernel, p_orig)
    raise CliError("need --input or --grid")


def _engine_cfg(args):
    if not args.p_orig < args.p_shadow <= args.p_oracle:
        raise CliError("need p_orig < p_shadow <= oracle precision")
    try:
        return engine.EngineConfig(args.p_orig, args.p_shadow)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _det_cfg(args, max_iterations=None):
    kw = dict(e0=args.e0, p0=args.p0, p1=args.p1,
              first_order=args.first_order)
    if max_iterations is not None:
        kw["max_iterations"] = max_iterations
    try:
        return detector.DetectionConfig(**kw)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_barriers(text, prog):
    if not text:
        return frozenset()
    try:
        ids = frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise CliError("bad --barriers list") from exc
    n = len(prog.instrs)
    for i in ids:
        if not 0 <= i < n:
            raise CliError("barrier id %d out of range" % i)
    return ids


def _emit(args, text):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args):
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    prog = kernel.program
    barriers = _parse_barriers(getattr(args, "barriers", None), prog)
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    digits = corpus.digits_for(cfg.p_orig)
    chunks = []
    for i, x in enumerate(inputs):
        tr_ = engine.execute(prog, [x], cfg, barriers, i,
                             "full" if args.trace else "none")
        chunks.append("input %s" % mp.to_sci_string(x, digits))
        chunks.append("  OP: %s" % mp.to_sci_string(tr_.result.orig, digits))
        chunks.append("  HP: %s" % mp.to_sci_string(
            tr_.result.shadow, corpus.digits_for(cfg.p_shadow)))
        if args.trace:
            chunks.append("")
            chunks.append(engine.format_trace(tr_))
        chunks.append("")
    _emit(args, "\n".join(chunks))
    return 0


def _aggregate_for(args, kernel, cfg, barriers=frozenset()):
    prog = kernel.program
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    return detector._run_aggregate(prog, inputs, cfg, barriers), inputs


def cmd_detect(args):
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    det = _det_cfg(args)
    agg, _ = _aggregate_for(args, kernel, cfg)
    if args.sweep:
        payload = [
            {"e0": e.e0, "p0": e.p0, "report": e.report.to_dict()}
            for e in detector.sweep(agg, det)
        ]
    else:
        payload = detector.detect(agg, det).to_dict()
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_fix(args):
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    det = _det_cfg(args, args.max_iterations)
    prog = kernel.program
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    result = detector.fix_iteratively(prog, inputs, cfg, det)
    if args.emit_program:
        _emit(args, tac.pretty_print(prog, result.barriers))
        return 0
    payload = {
        "program": prog.name,
        "barriers": sorted(result.barriers),
        "converged": result.converged,
        "iterations": [r.to_dict() for r in result.iterations],
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_eval(args):
    kernel = _load_source(args)
    cfg = _engine_cfg(args)
    prog = kernel.program
    inputs = _load_inputs(args, kernel, cfg.p_orig)
    if args.auto_fix:
        det = _det_cfg(args)
        barriers = detector.fix_iteratively(prog, inputs, cfg, det).barriers
    else:
        barriers = _parse_barriers(args.barriers, prog)
    ocfg = tr.OracleConfig(p_s=args.p_oracle)
    try:
        rows, skipped = evaluator.evaluate(kernel, inputs, cfg, barriers,
                                           ocfg)
        table = evaluator.summarize(kernel.name, rows, skipped, ocfg.p_s)
    except evaluator.EvaluationError as exc:
        raise CliError(str(exc)) from exc
    _emit(args, evaluator.report(table, args.format))
    return 0


def cmd_oracle(args):
    if args.digits < 1:
        raise CliError("--digits must be positive")
    try:
        ocfg = tr.OracleConfig(p_s=args.precision)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.file:
        try:
            fh = open(args.file)
        except OSError as exc:
            raise CliError(str(exc)) from exc
    else:
        fh = sys.stdin
    out = []
    with fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            fn, raw_args = parts[0], parts[1:]
            arity = tr.FUNCTION_ARITY.get(fn)
            if arity is None:
                raise CliError("line %d: unknown function %r"
                               % (line_no, fn))
            if len(raw_args) != arity:
                raise CliError("line %d: %s takes %d argument(s)"
                               % (line_no, fn, arity))
            try:
                vals = [mp.from_decimal_string(a, ocfg.p_s)
                        for a in raw_args]
            except mp.ParseError as exc:
                raise CliError("line %d: %s" % (line_no, exc)) from exc
            try:
                r = tr.derived_fn(fn, vals, ocfg)
            except tr.DomainError as exc:
                raise CliError("line %d: %s" % (line_no, exc)) from exc
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, tac.TacSyntaxError, tac.TacValidationError,
            mp.ParseError, tr.DomainError, detector.NoConvergence,
            engine.EngineError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print("internal error: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
