"""Detection rule, sweeps, and the iterative fixer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from precfix import tac, engine, corpus, detector
from precfix import mpfloat as mp

CFG = engine.EngineConfig()


def synthetic_agg(per_instr, n):
    """per_instr: {id: (dst, [errors])}"""
    agg = detector.ErrorAggregate("synthetic")
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
    agg = synthetic_agg({0: ("a", [1e-6, 1e-6])}, 2)
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
        assert e.report.flagged == [0]


def test_sweep_reports_empty_when_nothing_flags():
    agg = synthetic_agg({0: ("a", [0.0] * 100)}, 100)
    entries = detector.sweep(agg, detector.DetectionConfig())
    assert [e.report.flagged for e in entries] == [[]] * 4
    assert [e.e0 for e in entries] == [1e-2, 1e-4, 1e-6, 1e-8]


def test_collect_from_runs():
    k = corpus.get_kernel("round_kernel")
    xs = corpus.grid("-5", "5", 21)
    agg = detector.collect(k.program, xs, CFG)
    assert agg.n == 21
    assert agg.instrs[1].m == 21
    r = detector.detect(agg)
    assert r.flagged == [1]


def test_failed_runs_excluded_from_n(monkeypatch):
    # A failed run stops the batch: collect raises and no aggregate, and so
    # no n, is returned; no row after the failing one is run.
    calls = []
    real = engine.execute
    monkeypatch.setattr(engine, "execute",
                        lambda *a, **kw: calls.append(a[4]) or real(*a, **kw))
    k = corpus.get_kernel("accum_kernel")
    with pytest.raises(engine.StepBudgetExceeded):
        detector.collect(k.program, corpus.grid("0", "1", 3),
                         engine.EngineConfig(max_steps=5))
    assert calls == [0]


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
    st.sampled_from(list(SWEEP_CFG.e0_sweep) + [0.0, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(math.nextafter, st.sampled_from(SWEEP_CFG.e0_sweep),
              st.sampled_from([0.0, 1.0])))


@given(st.dictionaries(st.integers(0, 6),
                       st.lists(ERRORS, min_size=1, max_size=40),
                       min_size=1, max_size=5),
       st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_linear_detect(per_instr, n):
    agg = synthetic_agg({i: ("d%d" % i, errs)
                         for i, errs in per_instr.items()}, n)
    order = {i: list(acc.errors) for i, acc in agg.instrs.items()}
    for entry in detector.sweep(agg, SWEEP_CFG):
        linear = detector.detect(agg, SWEEP_CFG, entry.e0, entry.p0)
        assert entry.report.to_dict() == linear.to_dict()
    assert {i: list(acc.errors) for i, acc in agg.instrs.items()} == order
