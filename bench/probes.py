"""Direct timings for the layers whose calls cannot be wrapped.

The engine binds the mpfloat primitives at import and calls its compiled
closures directly, so wrapping `mpfloat.add` or the sample sink would not
see those calls.  These probes time them instead, on operands and rows from
the workload's first round.  Each figure is the median of REPEATS timed
passes.
"""

from __future__ import annotations

import statistics
import time

from precfix import corpus, detector, engine
from precfix import mpfloat as mp

REPEATS = 5
OPERANDS = 1000


def _median_us(fn, items, repeats=REPEATS):
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(*item)
        per_call.append((time.perf_counter() - t0) / len(items))
    return statistics.median(per_call) * 1e6


def _widen(xs, p):
    """Full-width p-bit operands derived from the rows (x/3 rounded)."""
    three = mp.from_int(3)
    return [mp.div(mp.from_float(x), three, p) for x in xs]


def mpfloat_probes(xs, p_orig):
    xs = (xs * (OPERANDS // max(len(xs), 1) + 1))[:OPERANDS + 1]
    b64 = [mp.from_float(x) for x in xs]
    w = {p: _widen(xs, p) for p in (24, 120, 200)}
    pairs = {p: list(zip(v, v[1:])) for p, v in w.items()}
    pairs[53] = list(zip(b64, b64[1:]))
    B, U = mp.BINARY64, mp.UNBOUNDED
    out = {}
    for op in ("add", "mul", "div"):
        fn = getattr(mp, op)
        out["mpfloat.%s_b64_us" % op] = _median_us(
            lambda a, b: fn(a, b, 53, B), pairs[53])
        out["mpfloat.%s_p120_us" % op] = _median_us(
            lambda a, b: fn(a, b, 120, U), pairs[120])
    out["mpfloat.add_p24_us"] = _median_us(
        lambda a, b: mp.add(a, b, 24, U), pairs[24])
    out["mpfloat.add_p200_us"] = _median_us(
        lambda a, b: mp.add(a, b, 200, U), pairs[200])
    out["mpfloat.mul_p200_us"] = _median_us(
        lambda a, b: mp.mul(a, b, 200, U), pairs[200])
    rel = [(v, mp.round_to(v, 24)) for v in w[200]]
    out["mpfloat.relative_error_us"] = _median_us(
        lambda e, a: mp.relative_error(e, a, 200), rel)
    out["mpfloat.to_sci_string_us"] = _median_us(
        lambda v: mp.to_sci_string(v, corpus.digits_for(200)),
        [(v,) for v in w[200]])
    policy = B if p_orig == 53 else U
    digits = corpus.digits_for(p_orig)
    text = [(mp.to_sci_string(mp.from_float(x, p_orig), digits),)
            for x in xs]
    out["mpfloat.from_decimal_string_us"] = _median_us(
        lambda s: mp.from_decimal_string(s, p_orig, policy), text)
    return out


def _run_rows(prog, rows, cfg, mode):
    steps = 0
    for i, x in enumerate(rows):
        steps += engine.execute(prog, [x], cfg, frozenset(), i, mode).steps
    return steps


def _median_s(prog, rows, cfg, mode):
    """Median over REPEATS of the seconds to run every row, and the steps
    of one pass."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        steps = _run_rows(prog, rows, cfg, mode)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), steps


def engine_probes(probe, rows_by_kernel):
    """Engine µs per step in each sample mode, the sink's cost per sample
    and the per-run overhead, for a workloads.Probe."""
    kernel, n, p_o, p_s, fixed = probe
    cfg = engine.EngineConfig(p_o, p_s)
    prog = corpus.get_kernel(kernel).program
    xs = rows_by_kernel[kernel]
    rows = [mp.from_float(xs[i % len(xs)], p_o) for i in range(n)]
    out = {}
    for mode in ("none", "full"):
        t, steps = _median_s(prog, rows, cfg, mode)
        out["engine.us_per_step_%s" % mode] = 1e6 * t / steps
    # the aggregate's add against a sink that does nothing, alternating so
    # that drift in the host's speed hits both alike
    sink_s, noop_s = [], []
    for _ in range(REPEATS):
        agg = detector.ErrorAggregate(prog.name)
        t0 = time.perf_counter()
        _run_rows(prog, rows, cfg, agg.add)
        t1 = time.perf_counter()
        _run_rows(prog, rows, cfg, lambda iid, dst, err: None)
        sink_s.append(t1 - t0)
        noop_s.append(time.perf_counter() - t1)
    samples = sum(a.m for a in agg.instrs.values())
    out["engine.us_per_step_stream"] = 1e6 * statistics.median(sink_s) / steps
    out["detector.add_us_per_sample"] = 1e6 * statistics.median(
        [a - b for a, b in zip(sink_s, noop_s)]) / samples
    fprog = corpus.get_kernel(fixed).program
    frows = [mp.from_float(x, p_o) for x in rows_by_kernel[fixed][:400]]
    t, _ = _median_s(fprog, frows, cfg, "none")
    out["engine.us_per_run_fixed"] = 1e6 * t / len(frows)
    return out
