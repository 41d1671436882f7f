"""Accuracy evaluation of kernels against the high-precision oracle.

Four values are compared per input x:

  OP  original-lane result at p_orig
  HP  shadow result with no barriers (everything at p_shadow)
  MP  shadow result with the fixed barrier set
  S   the oracle value of the kernel's reference function

Summary tables report how often each lane is at least as accurate as the
others, and the average relative error per lane.  Rows whose error is
infinite are excluded from averages and counted separately.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import mpfloat as mp
from . import engine as eng
from . import transcendental as tr


class EvaluationError(Exception):
    pass


@dataclass
class EvaluationRow:
    x: mp.MPFloat
    s: mp.MPFloat
    op: mp.MPFloat
    hp: mp.MPFloat
    mp_: mp.MPFloat
    err_op: mp.MPFloat
    err_hp: mp.MPFloat
    err_mp: mp.MPFloat


@dataclass
class SummaryTable:
    kernel: str
    rows: int
    skipped: int  # oracle domain errors
    pct: dict = field(default_factory=dict)   # "M>=L" etc. -> percent
    avg: dict = field(default_factory=dict)   # "OP"/"HP"/"MP" -> MPFloat|None
    inf_counts: dict = field(default_factory=dict)


def evaluate(kernel, inputs, engine_cfg=eng.EngineConfig(),
             barriers=frozenset(), oracle_cfg=tr.DEFAULT):
    """One EvaluationRow per input, with errors taken at oracle precision.
    The MP lane runs only when `barriers` is not empty; with none, its
    value is the HP run's shadow."""
    if kernel.oracle_fn is None:
        raise EvaluationError("kernel %s has no reference function"
                              % kernel.name)
    if not inputs:
        raise EvaluationError("no inputs to evaluate")
    prog = kernel.program
    p_s = oracle_cfg.p_s
    rows = []
    skipped = 0
    for x in inputs:
        hp_t = eng.execute(prog, [x], engine_cfg, sample_mode="none")
        op_v = hp_t.result.orig
        hp_v = hp_t.result.shadow
        if barriers:
            mp_v = eng.execute(prog, [x], engine_cfg, barriers,
                               sample_mode="none").result.shadow
        else:  # the same compiled function on the same row: the HP run
            mp_v = hp_v
        try:
            s_v = tr.derived_fn(kernel.oracle_fn,
                                [mp.extend(x, p_s)], oracle_cfg)
        except tr.DomainError:
            skipped += 1
            continue
        rows.append(EvaluationRow(
            x, s_v, op_v, hp_v, mp_v,
            mp.relative_error(s_v, op_v, p_s),
            mp.relative_error(s_v, hp_v, p_s),
            mp.relative_error(s_v, mp_v, p_s)))
    return rows, skipped


def _le(a, b):
    """a <= b for totalized errors (inf compares as larger than finite)."""
    c = mp.cmp(a, b)
    return c is not None and c <= 0


def _lt(a, b):
    c = mp.cmp(a, b)
    return c is not None and c < 0


def summarize(kernel_name, rows, skipped=0, p_s=256):
    """Lane-vs-lane percentages and per-lane average errors."""
    if not rows:
        raise EvaluationError("no evaluation rows for %s" % kernel_name)
    n = len(rows)
    t = SummaryTable(kernel_name, n, skipped)
    pairs = (
        ("M>=L", lambda r: _le(r.err_mp, r.err_op)),
        ("M>L", lambda r: _lt(r.err_mp, r.err_op)),
        ("M>=H", lambda r: _le(r.err_mp, r.err_hp)),
        ("M>H", lambda r: _lt(r.err_mp, r.err_hp)),
        ("H>=L", lambda r: _le(r.err_hp, r.err_op)),
        ("H>L", lambda r: _lt(r.err_hp, r.err_op)),
    )
    for key, pred in pairs:
        t.pct[key] = 100.0 * sum(1 for r in rows if pred(r)) / n
    for lane, get in (("OP", lambda r: r.err_op),
                      ("HP", lambda r: r.err_hp),
                      ("MP", lambda r: r.err_mp)):
        finite = [get(r) for r in rows if get(r).cls == mp.NORMAL
                  or get(r).cls == mp.ZERO]
        t.inf_counts[lane] = n - len(finite)
        if finite:
            total = mp.zero(p_s)
            for e in finite:
                total = mp.add(total, e, p_s)
            t.avg[lane] = mp.div(total, mp.from_int(len(finite)), p_s)
        else:
            t.avg[lane] = None
    return t


def _avg_str(v, digits=30):
    return None if v is None else mp.to_sci_string(v, digits)


def table_to_dict(t):
    return {
        "kernel": t.kernel,
        "rows": t.rows,
        "skipped": t.skipped,
        "percentages": dict(t.pct),
        "average_error": {k: _avg_str(v) for k, v in t.avg.items()},
        "infinite_errors": dict(t.inf_counts),
    }


def report(tables, fmt="text"):
    """Render one or more SummaryTable objects as text, json, or csv."""
    if isinstance(tables, SummaryTable):
        tables = [tables]
    if fmt == "json":
        return json.dumps([table_to_dict(t) for t in tables], indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        keys = ["M>=L", "M>L", "M>=H", "M>H", "H>=L", "H>L"]
        w = csv.writer(buf)
        w.writerow(["kernel", "rows", "skipped"] + keys
                   + ["avg_OP", "avg_HP", "avg_MP",
                      "inf_OP", "inf_HP", "inf_MP"])
        for t in tables:
            w.writerow([t.kernel, t.rows, t.skipped]
                       + ["%.2f" % t.pct[k] for k in keys]
                       + [_avg_str(t.avg[l]) for l in ("OP", "HP", "MP")]
                       + [t.inf_counts[l] for l in ("OP", "HP", "MP")])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for t in tables:
            lines.append("%s  (%d rows, %d skipped)"
                         % (t.kernel, t.rows, t.skipped))
            lines.append("  " + "  ".join("%s %6.2f%%" % (k, t.pct[k])
                                          for k in ("M>=L", "M>L", "M>=H",
                                                    "M>H", "H>=L", "H>L")))
            for lane in ("OP", "HP", "MP"):
                avg = t.avg[lane]
                lines.append("  avg %s: %s%s" % (
                    lane,
                    _avg_str(avg, 15) if avg is not None else "n/a",
                    "  (+%d inf)" % t.inf_counts[lane]
                    if t.inf_counts[lane] else ""))
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r" % fmt)
