"""precfix benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The run makes its inputs from the seed, drives the real CLI
in-process with `precfix.cli.main([...])`, checks every output against an
independent reference (see checks.py), and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count CLI commands; a command fails when it exits
non-zero.  The line before it holds the run's provenance, every failed
command with its exit code and first stderr line, and every failed check.

With --trace 0 the metrics are the end-to-end figures, measured with no
wrapper installed:

  setup_s      median, over fresh interpreters timed between rounds, of
               importing precfix and parsing the workload's kernels;
  wall_ref     median over rounds of the round's command wall time, each
               command's time divided by the mean time of a fixed
               reference loop run just before and just after it (see
               host_reference_s);
  peak_rss_mb  peak RSS of this process after RSS_ROUNDS rounds.

Raw wall and CPU seconds of every round are in the line before the result.

With --trace 1 the run spends 40% of its time untraced, 40% with the span
tracer of spans.py installed, and the rest on the direct probes of
probes.py; it prints the per-layer figures.  Spans are written to
bench/.out/.  Exit code 0 means every command succeeded and every check
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
# Peak RSS is read after this many rounds: the engine's compile cache grows
# with every command, so a reading at the end of the run would depend on
# how many rounds the host's speed allowed.
RSS_ROUNDS = 5
TRACE_SHARE = 0.4   # of --seconds, for each of the untraced and traced passes

# Set-up in a fresh interpreter: import the package and parse the kernels.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import precfix
from precfix import corpus, tac
for name in sys.argv[2:]:
    tac.parse_program(corpus.get_kernel(name).source)
print(time.perf_counter() - t0)
"""

# per command kind: the metric for its rows per second
_RATE_METRICS = {"fix": "cli.fix_rows_per_s", "eval": "cli.eval_rows_per_s",
                 "detect": "cli.detect_rows_per_s",
                 "trace": "cli.trace_rows_per_s",
                 "oracle": "cli.oracle_calls_per_s"}


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "precfix", "__init__.py")):
        _fail("no package at %s; run from a precfix source checkout" % SRC)
    sys.path.insert(0, SRC)


def setup_once(kernels):
    """Seconds, in a fresh interpreter, to import precfix and parse the
    workload's kernels."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, SRC] + list(kernels),
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        _fail("set-up failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


def host_reference_s():
    """Seconds for a fixed pure-Python loop of big-integer and call work
    that does not touch precfix.  The host's speed drifts by a quarter over
    tens of seconds, in CPU time as much as in wall time; timing this loop
    around each command lets `wall_ref` divide that drift out."""
    t0 = time.perf_counter()
    x, acc = 0x1234567, 0
    for i in range(10000):
        y = divmod(x * 0x9E3779B97F4A7C15, 0xFFFFFFFB)
        acc ^= max(y) >> (i & 31)
        x = (x + i) & 0xFFFFFFFFFFFF
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of one workload and keeps their timings and failures."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rounds = []     # per round: {"wall", "cpu", "kinds": {...}}
        self.failures = []   # failed commands
        self.bad_checks = []
        self.attempted = 0
        self.peak_rss_mb = None

    def run_command(self, cmd):
        from precfix import cli
        err = io.StringIO()
        span = self.tracer.open("cli." + cmd.kind) if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(cmd.argv)
        except SystemExit as exc:   # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
            if code:
                self.tracer.count("cli.nonzero_exits")
        self.attempted += 1
        if code:
            lines = err.getvalue().splitlines()
            self.failures.append({
                "command": " ".join(cmd.argv), "exit": code,
                "stderr": lines[0] if lines else ""})
        return dt

    def check(self, cmd):
        from checks import CheckFailed
        try:
            with open(cmd.output) as fh:
                cmd.check(fh.read())
        except CheckFailed as exc:
            name, detail = exc.check, str(exc)
        # output missing or not shaped as the checker expects
        except (OSError, LookupError, TypeError, ValueError) as exc:
            name, detail = cmd.kind + ".output", repr(exc)
        else:
            return
        self.bad_checks.append({"check": name, "command": " ".join(cmd.argv),
                                "detail": detail})

    def run_round(self, index):
        from workloads import round_rng
        rng = round_rng(self.workload.name, self.seed, index)
        cmds = self.workload.plan(rng, self.workdir)
        if self.tracer is not None:
            self.tracer.round = index
        kinds = {}
        wall = wall_ref = cpu = 0.0
        ref = host_reference_s()
        for cmd in cmds:
            c0 = time.process_time()
            dt = self.run_command(cmd)
            cpu += time.process_time() - c0
            before, ref = ref, host_reference_s()
            wall += dt
            wall_ref += dt / (0.5 * (before + ref))
            rows, secs = kinds.get(cmd.kind, (0, 0.0))
            kinds[cmd.kind] = (rows + cmd.rows, secs + dt)
        for cmd in cmds:
            self.check(cmd)
        self.rounds.append({"wall": wall, "wall_ref": wall_ref, "cpu": cpu,
                            "kinds": kinds})
        if index < RSS_ROUNDS:
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return cmds

    def run_for(self, seconds, after_round=None):
        """Whole rounds until `seconds` have passed, at least one, calling
        `after_round` after each; returns the first round's commands."""
        t_end = time.perf_counter() + seconds
        first = self.run_round(0)
        index = 1
        while True:
            if after_round is not None:
                after_round()
            if time.perf_counter() >= t_end:
                return first
            self.run_round(index)
            index += 1

    def median(self, key):
        return statistics.median(r[key] for r in self.rounds)

    def rate(self, kind):
        rates = [r["kinds"][kind][0] / r["kinds"][kind][1]
                 for r in self.rounds if kind in r["kinds"]]
        return statistics.median(rates) if rates else 0.0


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "precfix")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(args, load):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": _source_digest(),
        "loadavg_start": load,
    }


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s):
    return {
        "setup_s": _m(setup_s, "s"),
        "wall_ref": _m(runner.median("wall_ref"), "ratio"),
        "peak_rss_mb": _m(runner.peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, tracer, probe_figures):
    from precfix.transcendental import FUNCTION_ARITY
    rounds = sorted(tracer.stats)
    first = tracer.stats[rounds[0]]

    def med(key, scale=1.0):
        return statistics.median(tracer.stats[r][key] for r in rounds) * scale

    def ratio(num, den, scale=1.0):
        n = sum(tracer.stats[r][num] for r in rounds)
        d = sum(tracer.stats[r][den] for r in rounds)
        return scale * n / d if d else 0.0

    out = {k: _m(v, "us") for k, v in probe_figures.items()}
    out.update({
        "corpus.read_inputs_us_per_row": _m(
            ratio("dur:corpus.read_inputs", "corpus.rows", 1e6), "us"),
        "tac.parse_calls": _m(first["n:tac.parse_program"], "count"),
        "tac.parse_ms": _m(med("dur:tac.parse_program", 1e3), "ms"),
        "engine.execute_calls": _m(first["n:engine.execute"], "count"),
        "engine.steps": _m(first["engine.steps"], "count"),
        "engine.busy_s": _m(med("dur:engine.execute"), "s"),
        "engine.failed_runs": _m(first["engine.failed_runs"], "count"),
        "detector.samples": _m(first["detector.samples"], "count"),
        "detector.inf_samples": _m(first["detector.inf_samples"], "count"),
        "detector.stored_samples": _m(first["detector.stored_samples"],
                                      "count"),
        "detector.detect_ms": _m(med("dur:detector.detect", 1e3), "ms"),
        "detector.sweep_ms": _m(med("dur:detector.sweep", 1e3), "ms"),
        "detector.fix_iterations": _m(first["detector.fix_iterations"],
                                      "count"),
        "transcendental.calls": _m(first["n:transcendental.derived_fn"],
                                   "count"),
        "transcendental.busy_s": _m(med("dur:transcendental.derived_fn"),
                                    "s"),
        "transcendental.domain_errors": _m(
            first["transcendental.domain_errors"], "count"),
        "evaluator.self_s": _m(med("self:evaluator.evaluate"), "s"),
        "evaluator.summarize_ms": _m(med("dur:evaluator.summarize", 1e3),
                                     "ms"),
        "evaluator.skipped": _m(first["evaluator.skipped"], "count"),
    })
    for fn in sorted(FUNCTION_ARITY):
        out["transcendental.us_per_call." + fn] = _m(
            ratio("oracle_s:" + fn, "oracle_n:" + fn, 1e6), "us")
    cli_self = [sum(v for k, v in tracer.stats[r].items()
                    if k.startswith("self:cli.")) for r in rounds]
    commands = sum(v for k, v in first.items() if k.startswith("n:cli."))
    out.update({
        "cli.self_s": _m(statistics.median(cli_self), "s"),
        "cli.commands": _m(commands, "count"),
        "cli.nonzero_exits": _m(first["cli.nonzero_exits"], "count"),
        "cli.failed_ratio": _m(
            first["cli.nonzero_exits"] / commands if commands else 0.0,
            "ratio"),
    })
    out["cli.wall_s"] = _m(untraced.median("wall"), "s")
    for kind, name in _RATE_METRICS.items():
        out[name] = _m(untraced.rate(kind), "1/s")
    out["trace.overhead_pct"] = _m(
        100.0 * (traced.median("wall_ref") / untraced.median("wall_ref")
                 - 1.0), "%")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail("unknown workload %r; have %s"
              % (args.workload, sorted(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    load = os.getloadavg()

    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(BENCH, ".work"))
    try:
        if args.trace:
            from spans import Tracer
            import probes
            untraced = Runner(workload, args.seed, workdir)
            first = untraced.run_for(args.seconds * TRACE_SHARE)
            tracer = Tracer()
            traced = Runner(workload, args.seed, workdir, tracer)
            tracer.install()
            try:
                traced.run_for(args.seconds * TRACE_SHARE)
            finally:
                tracer.uninstall()
            rows = {c.kernel: c.inputs for c in first if c.kernel}
            figures = probes.mpfloat_probes(
                [x for xs in rows.values() for x in xs],
                workload.probe.p_orig)
            figures.update(probes.engine_probes(workload.probe, rows))
            metrics = per_layer(untraced, traced, tracer, figures)
            out_dir = os.path.join(BENCH, ".out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                                      % (args.workload, args.seed)))
            runners = (untraced, traced)
        else:
            # set-up is timed between rounds, so that its median spans the
            # same stretch of host load as the rounds do
            setups = []
            runner = Runner(workload, args.seed, workdir)
            runner.run_for(args.seconds, lambda: setups.append(
                setup_once(workload.kernels)))
            while len(setups) < SETUP_REPEATS:
                setups.append(setup_once(workload.kernels))
            metrics = end_to_end(runner, statistics.median(setups))
            runners = (runner,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runners for f in r.failures]
    bad_checks = [c for r in runners for c in r.bad_checks]
    detail = {
        "provenance": provenance(args, load),
        "rounds": [{"wall_s": x["wall"], "wall_ref": x["wall_ref"],
                    "cpu_s": x["cpu"]}
                   for r in runners for x in r.rounds],
        "failures": failures, "failed_checks": bad_checks,
    }
    print(json.dumps(detail))
    for c in bad_checks:
        print("check failed: %s" % c["detail"], file=sys.stderr)
    correct = not bad_checks and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in runners),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
