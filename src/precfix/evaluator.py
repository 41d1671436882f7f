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
import itertools
import json
from collections import namedtuple

from . import InputError, mpfloat as mp
from . import engine as eng
from . import transcendental as tr


class EvaluationError(InputError):
    pass


class SummaryTable(namedtuple("SummaryTable",
                              "kernel rows skipped pct avg inf_counts")):
    """skipped counts oracle domain errors; pct maps "M>=L" etc. to a
    percent, avg "OP"/"HP"/"MP" to an MPFloat or None, and inf_counts each
    lane to its count of infinite errors.  A dict not given is a new one."""
    __slots__ = ()

    def __new__(cls, kernel, rows, skipped, pct=None, avg=None,
                inf_counts=None):
        return super().__new__(cls, kernel, rows, skipped,
                               {} if pct is None else pct,
                               {} if avg is None else avg,
                               {} if inf_counts is None else inf_counts)


# summarize's lane pairs (a, b), as indices into evaluate's rows, with the
# keys of the shares of rows whose error in lane a is at most, and below,
# that in lane b
_PAIRS = ((2, 0, "M>=L", "M>L"), (2, 1, "M>=H", "M>H"), (1, 0, "H>=L", "H>L"))
_KEYS = tuple(key for pair in _PAIRS for key in pair[2:])
_LANES = ("OP", "HP", "MP")

# rows each lane runs in one engine call: the lanes' results are held
# for this many rows at a time
_CHUNK = 1024


def evaluate(kernel, inputs, engine_cfg=eng.EngineConfig(),
             barriers=frozenset(), p_s=256):
    """(rows, skipped): one (err_op, err_hp, err_mp) row per input, the
    relative errors of the three lanes against the oracle, taken at the
    oracle precision of p_s bits; `skipped` counts inputs outside the
    oracle's domain.  The inputs run in chunks of _CHUNK rows, one engine
    call per lane and chunk.  The MP lane runs only when `barriers` is not
    empty; with none, err_mp is the err_hp object itself.  A failing run
    raises at once the error of the lowest-index failing row, its HP lane
    before its MP lane."""
    if kernel.oracle_fn is None:
        raise EvaluationError("kernel %s has no reference function"
                              % kernel.name)
    if not inputs:
        raise EvaluationError("no inputs to evaluate")
    prog = kernel.program
    host = engine_cfg.p_orig == 53  # originals come as host floats
    rows = []
    skipped = 0
    it = iter(inputs)
    while chunk := list(itertools.islice(it, _CHUNK)):
        hp = []
        try:
            _lane(prog, chunk, engine_cfg, frozenset(), hp)
        except Exception:
            if barriers:  # an MP failure on the rows before HP's goes first
                _lane(prog, chunk[:len(hp)], engine_cfg, barriers, [])
            raise
        mp_v = _lane(prog, chunk, engine_cfg, barriers, []) if barriers \
            else hp
        for x, (orig, shadow), (_, mp_shadow) in zip(chunk, hp, mp_v):
            try:
                s_v = tr.derived_fn(kernel.oracle_fn,
                                    [mp.extend(x, p_s)], p_s)
            except tr.DomainError:
                skipped += 1
                continue
            err_hp = mp.relative_error(s_v, shadow, p_s)
            err_mp = (mp.relative_error(s_v, mp_shadow, p_s) if barriers
                      else err_hp)
            if host:
                orig = mp.from_float(orig)
            rows.append((mp.relative_error(s_v, orig, p_s), err_hp, err_mp))
    return rows, skipped


def _lane(prog, xs, cfg, barriers, out):
    """out, with (orig, shadow) appended for each row of xs in one engine
    call, the original as the lane holds it (a host float at p_orig 53); a
    failing row raises, the rows before it appended."""
    eng.execute_rows(prog, ([x] for x in xs), cfg, barriers, "none",
                     on_row=lambda i, o, s, t: out.append((o, s)))
    return out


def summarize(kernel_name, rows, skipped=0, p_s=256):
    """Lane-vs-lane percentages and per-lane average errors of evaluate's
    (err_op, err_hp, err_mp) rows."""
    if not rows:
        raise EvaluationError("no evaluation rows for %s" % kernel_name)
    n = len(rows)
    t = SummaryTable(kernel_name, n, skipped)
    for a, b, le, lt in _PAIRS:
        # an unordered pair (a NaN) counts for neither key
        cs = [mp.cmp(r[a], r[b]) for r in rows]
        below = cs.count(-1)
        t.pct[le] = 100.0 * (below + cs.count(0)) / n
        t.pct[lt] = 100.0 * below / n
    for j, lane in enumerate(_LANES):
        finite = [r[j] for r in rows if r[j].cls == mp.NORMAL
                  or r[j].cls == mp.ZERO]
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


def report(t, fmt="text"):
    """Render a SummaryTable as text, json (a one-element list), or csv."""
    if fmt == "json":
        return json.dumps([table_to_dict(t)], indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["kernel", "rows", "skipped", *_KEYS]
                   + ["avg_" + lane for lane in _LANES]
                   + ["inf_" + lane for lane in _LANES])
        w.writerow([t.kernel, t.rows, t.skipped]
                   + ["%.2f" % t.pct[k] for k in _KEYS]
                   + [_avg_str(t.avg[lane]) for lane in _LANES]
                   + [t.inf_counts[lane] for lane in _LANES])
        return buf.getvalue()
    if fmt == "text":
        lines = ["%s  (%d rows, %d skipped)" % (t.kernel, t.rows, t.skipped),
                 "  " + "  ".join("%s %6.2f%%" % (k, t.pct[k])
                                  for k in _KEYS)]
        for lane in _LANES:
            avg = t.avg[lane]
            lines.append("  avg %s: %s%s" % (
                lane,
                _avg_str(avg, 15) if avg is not None else "n/a",
                "  (+%d inf)" % t.inf_counts[lane]
                if t.inf_counts[lane] else ""))
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r" % fmt)
