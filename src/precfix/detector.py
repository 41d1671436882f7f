"""Statistical detection of precision-specific operations.

An instruction is flagged when, over a batch of n runs, it executed m
times, produced k relative errors above the threshold e0, and

    k/m > p0    and    m/n >= p1    and    m > 0.

The iterative fixer adds a precision barrier on the first flagged
instruction, re-runs the batch, and repeats until nothing is flagged.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import InputError, mpfloat as mp
from . import engine as eng

DEFAULT_E0_SWEEP = (1e-2, 1e-4, 1e-6, 1e-8)
DEFAULT_P0_SWEEP = (0.7, 0.6, 0.5)


class NoConvergence(InputError, RuntimeError):
    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


class DetectionConfig(namedtuple(
        "DetectionConfig", "e0 p0 p1 first_order max_iterations")):
    """The detection rule's e0, p0 and p1, the fixer's first order
    ("static" or "dynamic") and its iteration cap; every config,
    `_replace`'s and `_make`'s too, is validated."""
    __slots__ = ()

    def __new__(cls, e0=1e-6, p0=0.5, p1=0.1, first_order="static",
                max_iterations=50):
        self = super().__new__(cls, e0, p0, p1, first_order, max_iterations)
        if not 0 < p0 < 1 or not 0 < p1 <= 1:
            raise InputError("p0 in (0,1), p1 in (0,1] required")
        if not all(e > 0 for e in self.thresholds):
            raise InputError("e0 and the e0 sweep must be positive")
        if first_order not in ("static", "dynamic"):
            raise InputError("first_order must be static or dynamic")
        if max_iterations < 1:
            raise InputError("max_iterations must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def thresholds(self):
        """Every e0 that detect and sweep can be asked about."""
        return (self.e0,) + DEFAULT_E0_SWEEP


# buffered samples past which their tallies are folded
FOLD_SIZE = 1 << 12
_SCALE = 1074  # every double is an integer multiple of 2**-1074


def _scaled(x):
    """A finite double times 2**1074, as an exact integer."""
    num, den = x.as_integer_ratio()
    return num << (_SCALE + 1 - den.bit_length())


def _exact_sum(xs, s):
    """The exact sum of the finite doubles in xs, times 2**1074, given
    s = math.fsum(xs) or None.  fsum rounds the exact sum once, so
    appending -s leaves a list whose exact sum is the rounding residual: a
    few calls peel the sum into doubles.  A sum past the float range is
    added up on integers instead.  Consumes xs."""
    total = 0
    try:
        while True:
            if s is None:
                s = math.fsum(xs)
            if not s:
                return total
            total += _scaled(s)
            xs.append(-s)
            s = None
    except OverflowError:
        pass
    return total + sum(map(_scaled, xs))


class _InstrAcc:
    """One instruction's tallies: its errors not yet folded in `errors`,
    and over the folded ones their count, the infinite ones, the largest
    finite one, their exact sum (times 2**1074) and the count above each
    threshold of the aggregate."""

    __slots__ = ("dst", "errors", "folded", "inf_count", "max_err", "total",
                 "ks")

    def __init__(self, dst, n_thresholds):
        self.dst = dst
        self.errors = []
        self.folded = 0
        self.inf_count = 0
        self.max_err = None
        self.total = 0
        self.ks = [0] * n_thresholds

    @property
    def m(self):
        return self.folded + len(self.errors)


class ErrorAggregate:
    """Per-instruction error tallies for one program over a batch, able to
    answer the detection rule at each of `thresholds` (by default those of
    DetectionConfig()) and at no other.  Errors enter through `add`, or
    straight from the engine's generated code (see `collect`); either way
    they are buffered and folded into bounded tallies.  `instrs` holds the
    instructions that produced a sample in the order of their first
    samples, the dynamic first order."""

    def __init__(self, program, thresholds=None):
        self.program = program
        self.n = 0
        self.instrs = {}
        self.thresholds = tuple(sorted(set(
            DetectionConfig().thresholds if thresholds is None
            else thresholds)))
        self._index = {t: j for j, t in enumerate(self.thresholds)}
        self._accs = {}

    def _acc(self, instr_id, dst):
        acc = self._accs.get(instr_id)
        if acc is None:
            acc = self._accs[instr_id] = _InstrAcc(dst, len(self.thresholds))
        return acc

    def add(self, instr_id, dst, err):
        acc = self.instrs.get(instr_id)
        if acc is None:
            acc = self.instrs[instr_id] = self._acc(instr_id, dst)
        acc.errors.append(err)
        if len(acc.errors) >= FOLD_SIZE:
            self._fold(acc)

    def sinks(self, sampled):
        """For the engine: the append of each sampled instruction's buffer,
        `sampled` being one tuple of (instr_id, dst) per sampling block."""
        return [self._acc(iid, dst).errors.append
                for block in sampled for iid, dst in block]

    def fold(self, taken=0):
        """Fold every buffered error into the tallies.  For the engine,
        after a row that brought its batch's samples to `taken`: the count
        at which to fold next."""
        for acc in self._accs.values():
            self._fold(acc)
        return taken + FOLD_SIZE

    def end_run(self, sampled, firsts, runs):
        """For the engine, after a batch through `sinks`: the indices into
        `sampled` of the blocks it entered, in the order of their first
        entries (see engine._compile), and its number of runs.  Each
        block's instructions not yet in `instrs` join it in that order."""
        for j in firsts:
            for iid, _ in sampled[j]:
                self.instrs.setdefault(iid, self._accs[iid])
        self.n += runs

    def _fold(self, acc):
        buf = acc.errors
        if not buf:
            return
        acc.folded += len(buf)
        try:
            s = math.fsum(buf)
        except OverflowError:
            s = None
        infs = 0
        if s is None or not s < math.inf:  # inf or NaN samples, or overflow
            kept = [e for e in buf if e < math.inf]
            infs = len(buf) - len(kept)
            acc.inf_count += infs
            buf[:] = kept
            s = None
        top = -math.inf
        if buf:
            top = max(buf)
            acc.max_err = top if acc.max_err is None else max(acc.max_err,
                                                              top)
        survivors = buf
        ks = acc.ks
        for j, t in enumerate(self.thresholds):
            if t >= top:  # sorted thresholds: none has survivors from here
                for i in range(j, len(ks)):
                    ks[i] += infs
                break
            survivors = [e for e in survivors if e > t]
            ks[j] += len(survivors) + infs
        acc.total += _exact_sum(buf, s)
        buf.clear()

    def k(self, acc, e0):
        """Errors of `acc` above e0, the infinite ones included."""
        j = self._index.get(e0)
        if j is None:
            raise ValueError("errors were not tallied at threshold %r"
                             % (e0,))
        return acc.ks[j]


def collect(prog, rows, engine_cfg, barriers=frozenset(), thresholds=None):
    """Run every input row of a batch in one engine call, with each error
    sample appended by the generated code to its instruction's buffer in
    one ErrorAggregate, which can answer at `thresholds`.  A failed run
    stops the batch and its EngineError propagates."""
    agg = ErrorAggregate(prog.name, thresholds)
    eng.execute_rows(prog, ([r] if isinstance(r, mp.MPFloat) else r
                            for r in rows), engine_cfg, barriers, agg)
    agg.fold()
    return agg


# mean_err is None without finite errors
InstrStats = namedtuple("InstrStats", "instr_id dst m k inf_count max_err "
                        "mean_err err_ratio exec_ratio flagged")


def _moments(acc):
    """(mean, max) of an instruction's folded errors; mean is None without
    finite errors."""
    finite = acc.folded - acc.inf_count
    if finite:
        try:
            mean = (acc.total / (1 << _SCALE)) / finite
        except OverflowError:  # astronomically large finite samples
            mean = math.inf
    else:
        mean = None
    mx = math.inf if acc.inf_count else (
        acc.max_err if acc.max_err is not None else 0.0)
    return mean, mx


def stats_for(agg, cfg):
    """Per-instruction statistics under the rule of cfg, a
    DetectionConfig, at its e0, p0 and p1, in static id order."""
    agg.fold()
    out = []
    for iid, acc in sorted(agg.instrs.items()):
        mean, mx = _moments(acc)
        k = agg.k(acc, cfg.e0)
        err_ratio = k / acc.m if acc.m else 0.0
        exec_ratio = acc.m / agg.n if agg.n else 0.0
        flagged = acc.m > 0 and err_ratio > cfg.p0 and exec_ratio >= cfg.p1
        out.append(InstrStats(iid, acc.dst, acc.m, k, acc.inf_count, mx,
                              mean, err_ratio, exec_ratio, flagged))
    return out


class DetectionReport(namedtuple("DetectionReport", "program n e0 p0 p1 "
                                 "stats flagged first_flagged")):
    """One detection's InstrStats, the ids it flags (a new list unless
    given) and the first of them to fix, None when none is."""
    __slots__ = ()

    def __new__(cls, program, n, e0, p0, p1, stats, flagged=None,
                first_flagged=None):
        return super().__new__(cls, program, n, e0, p0, p1, stats,
                               [] if flagged is None else flagged,
                               first_flagged)

    def to_dict(self):
        def err_str(x):
            if x is None:
                return None
            return mp.to_sci_string(mp.from_float(x), 30)

        return {
            "program": self.program,
            "runs": self.n,
            "e0": err_str(self.e0),
            "p0": self.p0,
            "p1": self.p1,
            "flagged": list(self.flagged),
            "first_flagged": self.first_flagged,
            "instructions": [
                {
                    "id": s.instr_id,
                    "dst": s.dst,
                    "m": s.m,
                    "k": s.k,
                    "infinite_errors": s.inf_count,
                    "max_error": err_str(s.max_err),
                    "mean_error": err_str(s.mean_err),
                    "error_ratio": s.err_ratio,
                    "execution_ratio": s.exec_ratio,
                    "flagged": s.flagged,
                }
                for s in self.stats
            ],
        }


def detect(agg, cfg=DetectionConfig()):
    """The report of the detection rule at cfg's e0, p0 and p1, its first
    flagged instruction in cfg's first order."""
    stats = stats_for(agg, cfg)
    flagged = [s.instr_id for s in stats if s.flagged]
    return DetectionReport(agg.program, agg.n, cfg.e0, cfg.p0, cfg.p1,
                           stats, flagged,
                           _first(flagged, agg, cfg.first_order))


def _first(ids, agg, first_order):
    """The instruction of `ids` to fix first: the lowest static id, or the
    one whose first sample came earliest, the first of them in
    `agg.instrs`; None when empty."""
    if not ids:
        return None
    if first_order == "static":
        return min(ids)
    return next(i for i in agg.instrs if i in ids)


def sweep(agg, cfg=DetectionConfig()):
    """For each e0 of DEFAULT_E0_SWEEP, the report at the strictest p0 of
    DEFAULT_P0_SWEEP that flags something (the last p0 otherwise)."""
    reports = []
    for e0 in DEFAULT_E0_SWEEP:
        for p0 in DEFAULT_P0_SWEEP:
            r = detect(agg, cfg._replace(e0=e0, p0=p0))
            if r.flagged:
                break
        reports.append(r)
    return reports


# iterations holds each iteration's DetectionReport, before its barrier
FixResult = namedtuple("FixResult", "barriers iterations")


def fix_iteratively(prog, inputs, engine_cfg=eng.EngineConfig(),
                    det_cfg=DetectionConfig()):
    """Detect-and-barrier loop: one new barrier per iteration until no
    instruction is flagged.  Raises NoConvergence past
    det_cfg.max_iterations."""
    barriers = set()
    log = []
    for _ in range(det_cfg.max_iterations):
        agg = collect(prog, inputs, engine_cfg, frozenset(barriers),
                      (det_cfg.e0,))
        report = detect(agg, det_cfg)
        log.append(report)
        first = _first([i for i in report.flagged if i not in barriers],
                       agg, det_cfg.first_order)
        if first is None:
            return FixResult(frozenset(barriers), log)
        barriers.add(first)
    raise NoConvergence("no convergence after %d iterations on %s"
                        % (det_cfg.max_iterations, prog.name), log)
