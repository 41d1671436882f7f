"""Detection rule, sweeps, and the iterative fixer."""

import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from precfix import tac, engine, corpus, detector
from precfix import mpfloat as mp

CFG = engine.EngineConfig()


def synthetic_agg(per_instr, n, thresholds=None):
    """per_instr: {id: (dst, [errors])}"""
    agg = detector.ErrorAggregate("synthetic", thresholds)
    for iid, (dst, errs) in per_instr.items():
        for e in errs:
            agg.add(iid, dst, e)
    agg.n = n
    return agg


def test_flag_requires_strict_error_ratio():
    # k/m == p0 exactly must NOT flag (strict >)
    agg = synthetic_agg({0: ("a", [1.0] * 5 + [0.0] * 5)}, 10)
    r = detector.detect(agg, detector.DetectionConfig(e0=1e-6, p0=0.5))
    assert r.flagged == []
    agg = synthetic_agg({0: ("a", [1.0] * 6 + [0.0] * 4)}, 10)
    r = detector.detect(agg, detector.DetectionConfig(e0=1e-6, p0=0.5))
    assert r.flagged == [0]


def test_execution_ratio_is_inclusive():
    # m/n == p1 exactly passes (>=)
    agg = synthetic_agg({0: ("a", [1.0])}, 10)
    r = detector.detect(agg, detector.DetectionConfig(p1=0.1))
    assert r.flagged == [0]
    r = detector.detect(agg, detector.DetectionConfig(p1=0.2))
    assert r.flagged == []


def test_threshold_is_strict():
    agg = synthetic_agg({0: ("a", [1e-6, 1e-6])}, 2, (1e-6, 9.9e-7))
    stats = detector.stats_for(agg, 1e-6)
    assert stats[0].k == 0  # err == e0 does not count
    stats = detector.stats_for(agg, 9.9e-7)
    assert stats[0].k == 2


def test_infinite_errors_count_toward_k():
    agg = synthetic_agg({0: ("a", [math.inf, math.inf, 0.0])}, 3)
    stats = detector.stats_for(agg, 1e-6)
    assert stats[0].k == 2
    assert stats[0].inf_count == 2
    assert math.isinf(stats[0].max_err)
    assert stats[0].mean_err == 0.0  # mean over finite samples only


def test_first_flagged_static_order():
    agg = synthetic_agg({3: ("a", [1.0]), 1: ("b", [1.0])}, 1)
    r = detector.detect(agg, detector.DetectionConfig(p1=0.5))
    assert r.flagged == [1, 3]
    assert r.first_flagged == 1


def test_first_flagged_dynamic_order():
    agg = detector.ErrorAggregate("p")
    agg.add(3, "a", 1.0)  # id 3 fires first dynamically
    agg.add(1, "b", 1.0)
    agg.n = 1
    cfg = detector.DetectionConfig(first_order="dynamic", p1=0.5)
    r = detector.detect(agg, cfg)
    assert r.first_flagged == 3


def test_sweep_stops_at_strictest_flagging_p0():
    agg = synthetic_agg({0: ("a", [1.0] * 65 + [0.0] * 35)}, 100)
    entries = detector.sweep(agg, detector.DetectionConfig())
    for e in entries:
        # 0.65 ratio: misses p0=0.7, caught at 0.6
        assert e.p0 == 0.6
        assert e.flagged == [0]


def test_sweep_reports_empty_when_nothing_flags():
    agg = synthetic_agg({0: ("a", [0.0] * 100)}, 100)
    entries = detector.sweep(agg, detector.DetectionConfig())
    assert [e.flagged for e in entries] == [[]] * 4
    assert [e.e0 for e in entries] == [1e-2, 1e-4, 1e-6, 1e-8]


def test_collect_from_runs():
    k = corpus.get_kernel("round_kernel")
    xs = corpus.grid("-5", "5", 21)
    agg = detector.collect(k.program, xs, CFG)
    assert agg.n == 21
    assert agg.instrs[1].m == 21
    r = detector.detect(agg)
    assert r.flagged == [1]


def recorded(rows, read):
    """The rows, each index appended to `read` as the row is taken."""
    for i, row in enumerate(rows):
        read.append(i)
        yield row


def test_failed_runs_excluded_from_n():
    # A failed run stops the batch: collect raises and no aggregate, and so
    # no n, is returned; no row after the failing one is read, whether the
    # first row fails or a middle one.
    read = []
    k = corpus.get_kernel("accum_kernel")
    with pytest.raises(engine.StepBudgetExceeded):
        detector.collect(k.program, recorded(corpus.grid("0", "1", 3), read),
                         engine.EngineConfig(max_steps=5))
    assert read == [0]
    read.clear()
    prog = tac.parse_program("func f(x) -> y\n  t = fmul x, x\n"
                             "  y = ffloor t\n  ret y\n")
    rows = [mp.from_float(2.5), mp.inf(), mp.from_float(1.0)]
    with pytest.raises(engine.NonFiniteFloor):
        detector.collect(prog, recorded(rows, read), CFG)
    assert read == [0, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        detector.DetectionConfig(p0=0.0)
    with pytest.raises(ValueError):
        detector.DetectionConfig(p1=1.5)
    with pytest.raises(ValueError):
        detector.DetectionConfig(e0=-1.0)
    with pytest.raises(ValueError):
        detector.DetectionConfig(first_order="chronological")
    with pytest.raises(ValueError, match="max_iterations"):
        detector.DetectionConfig(max_iterations=0)


def test_report_serialization():
    agg = synthetic_agg({0: ("a", [0.25, 0.0])}, 2)
    d = detector.detect(agg, detector.DetectionConfig(p1=0.5)).to_dict()
    assert d["program"] == "synthetic"
    assert d["runs"] == 2
    row = d["instructions"][0]
    assert row["m"] == 2 and row["k"] == 1
    # errors rendered as 30-significant-digit decimal strings
    assert row["max_error"] == "2.50000000000000000000000000000e-1"


def test_fix_round_kernel():
    k = corpus.get_kernel("round_kernel")
    xs = corpus.grid("-100", "100", 250)
    res = detector.fix_iteratively(k.program, xs)
    assert res.converged
    assert res.barriers == frozenset({1})
    assert len(res.iterations) == 2
    assert res.iterations[1].flagged == []


def test_fix_clean_program_is_noop():
    k = corpus.get_kernel("cancel_kernel")
    xs = corpus.grid("-10", "10", 100)
    res = detector.fix_iteratively(k.program, xs)
    assert res.converged and res.barriers == frozenset()


def test_fix_adds_one_barrier_per_iteration():
    k = corpus.get_kernel("union_scale_kernel")
    xs = corpus.grid("0.5", "4", 50)
    res = detector.fix_iteratively(k.program, xs)
    assert res.barriers == frozenset({3})
    assert res.iterations[0].first_flagged == 3


def test_no_convergence_raises_with_log():
    k = corpus.get_kernel("round_kernel")
    xs = corpus.grid("-100", "100", 250)
    with pytest.raises(detector.NoConvergence) as exc:
        detector.fix_iteratively(k.program, xs, CFG,
                                 detector.DetectionConfig(max_iterations=1))
    assert len(exc.value.log) == 1


def test_barrier_ids_stay_within_program():
    k = corpus.get_kernel("round_kernel")
    res = detector.fix_iteratively(k.program, corpus.grid("-9", "9", 30))
    n = len(k.program.instrs)
    assert all(0 <= b < n for b in res.barriers)


SWEEP_CFG = detector.DetectionConfig()
# errors drawn on and around every sweep threshold, plus infinities
ERRORS = st.one_of(
    st.sampled_from(list(detector.DEFAULT_E0_SWEEP)
                   + [0.0, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(math.nextafter, st.sampled_from(detector.DEFAULT_E0_SWEEP),
              st.sampled_from([0.0, 1.0])))


def _linear_report(per_instr, n, e0, p0, p1):
    """(id, m, k, inf_count, max, mean, flagged) per instruction, straight
    from the lists of errors."""
    rows = []
    for iid, errs in sorted(per_instr.items()):
        finite = [e for e in errs if not (math.isinf(e) or e != e)]
        infs = len(errs) - len(finite)
        k = infs + sum(1 for e in finite if e > e0)
        mean = math.fsum(finite) / len(finite) if finite else None
        mx = math.inf if infs else max(finite, default=0.0)
        m = len(errs)
        rows.append((iid, m, k, infs, mx, mean,
                     k / m > p0 and m / n >= p1))
    return rows


@given(st.dictionaries(st.integers(0, 6),
                       st.lists(ERRORS, min_size=1, max_size=40),
                       min_size=1, max_size=5),
       st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_linear_detect(per_instr, n):
    # The aggregate keeps tallies, not the errors: each sweep entry must
    # agree with detect at its (e0, p0), with a plain recount of the
    # errors, and with a second sweep of the same aggregate.
    agg = synthetic_agg({i: ("d%d" % i, errs)
                         for i, errs in per_instr.items()}, n)
    entries = detector.sweep(agg, SWEEP_CFG)
    for entry in entries:
        linear = detector.detect(agg, SWEEP_CFG, entry.e0, entry.p0)
        assert entry.to_dict() == linear.to_dict()
        assert [(s.instr_id, s.m, s.k, s.inf_count, s.max_err, s.mean_err,
                 s.flagged) for s in entry.stats] \
            == _linear_report(per_instr, n, entry.e0, entry.p0,
                              SWEEP_CFG.p1)
    again = detector.sweep(agg, SWEEP_CFG)
    assert [e.to_dict() for e in again] \
        == [e.to_dict() for e in entries]


# errors for the tallies: zeros, subnormals, values whose sums overflow the
# float range, and infinite and NaN samples
TALLY_ERRORS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-6, 1.7e308,
                     sys.float_info.max, math.inf, math.nan]))
THRESHOLDS = st.lists(st.one_of(
    st.floats(min_value=5e-324, allow_nan=False),
    st.sampled_from([5e-324, 1e-8, 1e-6, 1.7e308, math.inf])),
    min_size=1, max_size=5)


@given(st.lists(TALLY_ERRORS, min_size=1, max_size=120), st.integers(1, 40),
       THRESHOLDS)
@settings(max_examples=400, deadline=None)
def test_tallies_match_a_linear_scan(errs, fold, thresholds):
    # folded in chunks of `fold`, the tallies give what the whole list gives
    with mock.patch.object(detector, "FOLD_SIZE", fold):
        agg = synthetic_agg({0: ("a", errs)}, 1, thresholds)
    finite = [e for e in errs if not (math.isinf(e) or e != e)]
    infs = len(errs) - len(finite)
    try:
        mean = math.fsum(finite) / len(finite) if finite else None
    except OverflowError:
        mean = math.inf
    for t in thresholds:
        (s,) = detector.stats_for(agg, t)
        assert (s.m, s.inf_count, s.k) \
            == (len(errs), infs, infs + sum(1 for e in finite if e > t))
        assert s.max_err == (math.inf if infs else max(finite, default=0.0))
        assert s.mean_err == mean


def test_untallied_threshold_raises():
    agg = synthetic_agg({0: ("a", [1.0, 1.0, 0.0])}, 3, (1e-6,))
    assert detector.detect(agg).flagged == [0]
    with pytest.raises(ValueError, match="not tallied"):
        detector.detect(agg, e0=1e-4)
    with pytest.raises(ValueError, match="not tallied"):
        detector.sweep(agg)
    k = corpus.get_kernel("round_kernel")
    agg = detector.collect(k.program, corpus.grid("-5", "5", 5), CFG,
                           thresholds=(1e-3,))
    with pytest.raises(ValueError, match="not tallied"):
        detector.detect(agg)


@pytest.mark.parametrize("name, rows", [("exp_kernel", 40), ("sin_kernel", 40),
                                        ("union_scale_kernel", 40),
                                        ("accum_kernel", 2)])
def test_fused_tallies_equal_added_ones(name, rows):
    # the generated code's appends, folded every few samples, in one batch
    # and in batches of one row, against the same errors passed one by one
    # to add
    k = corpus.get_kernel(name)
    xs = corpus.grid(k.domain[0], k.domain[1], rows)
    det = detector.DetectionConfig(first_order="dynamic")
    per_row = detector.ErrorAggregate(k.program.name, det.thresholds)
    with mock.patch.object(detector, "FOLD_SIZE", 7):
        fused = detector.collect(k.program, xs, CFG,
                                 thresholds=det.thresholds)
        for x in xs:
            engine.execute(k.program, [x], CFG, sample_mode=per_row)
    added = detector.ErrorAggregate(k.program.name, det.thresholds)
    for i, x in enumerate(xs):
        engine.execute(k.program, [x], CFG, run_index=i,
                       sample_mode=added.add)
    added.n = len(xs)
    for agg in (fused, per_row):
        for a, b in zip(detector.sweep(agg, det),
                        detector.sweep(added, det)):
            assert a.to_dict() == b.to_dict()
            assert a.first_flagged == b.first_flagged
        assert [(i, a.first_ordinal) for i, a in sorted(agg.instrs.items())] \
            == [(i, a.first_ordinal)
                for i, a in sorted(added.instrs.items())]


def _peak_bytes(prog, rows):
    tracemalloc.start()
    try:
        detector.collect(prog, rows, CFG)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collect_memory_does_not_grow_with_rows():
    # 100 samples a row: the buffers fold every 1000 samples, so ten times
    # the rows peaks within one buffer's size of the smaller batch
    prog = tac.parse_program(
        "func f(x) -> s\n  s = fconst 0.0\n  i = iconst 0\ntop:\n"
        "  s = fadd s, x\n  i = iadd i, 1\n  c = icmp lt, i, 100\n"
        "  branch c, top\n  ret s\n")
    rows = corpus.grid("0", "1", 300)
    with mock.patch.object(detector, "FOLD_SIZE", 1000):
        _peak_bytes(prog, rows[:2])  # compile outside the measurement
        small = _peak_bytes(prog, rows[:30])
        large = _peak_bytes(prog, rows)
    assert large - small < 1000 * 8
