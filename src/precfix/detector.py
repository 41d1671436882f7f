"""Statistical detection of precision-specific operations.

An instruction is flagged when, over a batch of n runs, it executed m
times, produced k relative errors above the threshold e0, and

    k/m > p0    and    m/n >= p1    and    m > 0.

The iterative fixer adds a precision barrier on the first flagged
instruction, re-runs the batch, and repeats until nothing is flagged.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from . import mpfloat as mp
from . import engine as eng

DEFAULT_E0_SWEEP = (1e-2, 1e-4, 1e-6, 1e-8)
DEFAULT_P0_SWEEP = (0.7, 0.6, 0.5)


class NoConvergence(RuntimeError):
    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class DetectionConfig:
    e0: float = 1e-6
    p0: float = 0.5
    p1: float = 0.1
    e0_sweep: tuple = DEFAULT_E0_SWEEP
    p0_sweep: tuple = DEFAULT_P0_SWEEP
    first_order: str = "static"  # or "dynamic"
    max_iterations: int = 50

    def __post_init__(self):
        if not 0 < self.p0 < 1 or not 0 < self.p1 <= 1:
            raise ValueError("p0 in (0,1), p1 in (0,1] required")
        if self.e0 <= 0:
            raise ValueError("e0 must be positive")
        if self.first_order not in ("static", "dynamic"):
            raise ValueError("first_order must be static or dynamic")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class _InstrAcc:
    __slots__ = ("dst", "m", "inf_count", "errors", "first_ordinal")

    def __init__(self, dst):
        self.dst = dst
        self.m = 0
        self.inf_count = 0
        self.errors = array("d")
        self.first_ordinal = None


class ErrorAggregate:
    """Per-instruction error tallies for one program over a batch."""

    def __init__(self, program):
        self.program = program
        self.n = 0
        self.instrs = {}
        self._ordinal = 0

    def add(self, instr_id, dst, err):
        acc = self.instrs.get(instr_id)
        if acc is None:
            acc = self.instrs[instr_id] = _InstrAcc(dst)
        if acc.first_ordinal is None:
            acc.first_ordinal = self._ordinal
        self._ordinal += 1
        acc.m += 1
        if math.isinf(err) or err != err:
            acc.inf_count += 1
        else:
            acc.errors.append(err)


def collect(prog, rows, engine_cfg, barriers=frozenset()):
    """Run every input row of a batch and stream each error sample into
    one ErrorAggregate.  A failed run stops the batch and its EngineError
    propagates."""
    agg = ErrorAggregate(prog.name)
    add = agg.add
    for idx, row in enumerate(rows):
        if isinstance(row, mp.MPFloat):
            row = [row]
        eng.execute(prog, row, engine_cfg, barriers, idx, sample_mode=add)
        agg.n += 1
    return agg


@dataclass(frozen=True)
class InstrStats:
    instr_id: int
    dst: str
    n: int
    m: int
    k: int
    inf_count: int
    max_err: float
    mean_err: float | None
    err_ratio: float
    exec_ratio: float
    flagged: bool
    first_ordinal: int


def _moments(acc):
    """(mean, max) of an instruction's errors; mean is None without finite
    errors."""
    finite = len(acc.errors)
    if finite:
        try:
            mean = math.fsum(acc.errors) / finite
        except OverflowError:  # astronomically large finite samples
            mean = math.inf
    else:
        mean = None
    mx = math.inf if acc.inf_count else (max(acc.errors) if finite else 0.0)
    return mean, mx


def _stats_one(iid, acc, n, e0, p0, p1, memo):
    # what does not depend on p0 is computed once per memo: the moments
    # per instruction, k per instruction and threshold
    if iid not in memo:
        memo[iid] = _moments(acc)
    if (iid, e0) not in memo:
        memo[iid, e0] = acc.inf_count + sum(1 for e in acc.errors if e > e0)
    mean, mx = memo[iid]
    k = memo[iid, e0]
    err_ratio = k / acc.m if acc.m else 0.0
    exec_ratio = acc.m / n if n else 0.0
    flagged = acc.m > 0 and err_ratio > p0 and exec_ratio >= p1
    return InstrStats(iid, acc.dst, n, acc.m, k, acc.inf_count, mx, mean,
                      err_ratio, exec_ratio, flagged,
                      acc.first_ordinal if acc.first_ordinal is not None
                      else -1)


def stats_for(agg, e0, p0=0.5, p1=0.1, memo=None):
    """Per-instruction statistics at one threshold, in static id order.
    Callers that try many thresholds on one aggregate share a `memo` dict
    between the calls."""
    memo = {} if memo is None else memo
    return [_stats_one(iid, acc, agg.n, e0, p0, p1, memo)
            for iid, acc in sorted(agg.instrs.items())]


@dataclass
class DetectionReport:
    program: str
    n: int
    e0: float
    p0: float
    p1: float
    stats: list
    flagged: list = field(default_factory=list)
    first_flagged: int | None = None

    def to_dict(self):
        def err_str(x):
            if x is None:
                return None
            if math.isinf(x):
                return "inf"
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


def detect(agg, cfg=DetectionConfig(), e0=None, p0=None, memo=None):
    e0 = cfg.e0 if e0 is None else e0
    p0 = cfg.p0 if p0 is None else p0
    stats = stats_for(agg, e0, p0, cfg.p1, memo)
    flagged = [s.instr_id for s in stats if s.flagged]
    return DetectionReport(agg.program, agg.n, e0, p0, cfg.p1, stats,
                           flagged, _first(flagged, stats, cfg.first_order))


def _first(ids, stats, first_order):
    """The instruction of `ids` to fix first: the lowest static id, or the
    one whose first sample came earliest in the batch; None when empty."""
    if not ids:
        return None
    if first_order == "static":
        return min(ids)
    ordinal = {s.instr_id: s.first_ordinal for s in stats}
    return min(ids, key=ordinal.__getitem__)


@dataclass(frozen=True)
class SweepEntry:
    e0: float
    p0: float
    report: DetectionReport


def sweep(agg, cfg=DetectionConfig()):
    """For each e0, report at the strictest p0 that flags something (the
    last p0 otherwise)."""
    memo = {}
    entries = []
    for e0 in cfg.e0_sweep:
        chosen = None
        for p0 in cfg.p0_sweep:
            r = detect(agg, cfg, e0=e0, p0=p0, memo=memo)
            chosen = SweepEntry(e0, p0, r)
            if r.flagged:
                break
        entries.append(chosen)
    return entries


@dataclass
class FixResult:
    barriers: frozenset
    iterations: list  # DetectionReport per iteration, pre-barrier
    converged: bool


def fix_iteratively(prog, inputs, engine_cfg=eng.EngineConfig(),
                    det_cfg=DetectionConfig()):
    """Detect-and-barrier loop: one new barrier per iteration until no
    instruction is flagged.  Raises NoConvergence past
    det_cfg.max_iterations."""
    barriers = set()
    log = []
    for _ in range(det_cfg.max_iterations):
        agg = collect(prog, inputs, engine_cfg, frozenset(barriers))
        report = detect(agg, det_cfg)
        log.append(report)
        first = _first([i for i in report.flagged if i not in barriers],
                       report.stats, det_cfg.first_order)
        if first is None:
            return FixResult(frozenset(barriers), log, True)
        barriers.add(first)
    raise NoConvergence("no convergence after %d iterations on %s"
                        % (det_cfg.max_iterations, prog.name), log)
