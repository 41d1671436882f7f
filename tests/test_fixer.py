"""The paper's fixer, `detector.fix_iteratively`, on random programs.

Programs come from test_programs' generator, at 53:120 and 24:200 and
under both first orders.  Each iteration's report is set against
`plain_aggregate` over the reference interpreter's samples under that
iteration's barriers, which a spy on `detector.collect` records.  With
every rounding instruction barriered, each shadow is its original.
"""

from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from precfix import detector, engine, tac
from precfix import mpfloat as mp
import ref_interp as ref
from test_programs import BODY_OPS, INPUTS, programs
from test_ref_interp import THRESHOLDS, key, plain_aggregate, stream_errors

E0 = 1e-300
J = THRESHOLDS.index(E0)
# word operations run only at p_orig 53
FLOAT_OPS = [op for op in BODY_OPS
             if op not in ("get_hi", "get_lo", "make_f", "set_hi", "set_lo")]


@st.composite
def fix_cases(draw, p_orig):
    prog = tac.parse_program(draw(programs(
        BODY_OPS if p_orig == 53 else FLOAT_OPS)))
    rows = [[mp.from_float(draw(st.sampled_from(INPUTS)))
             for _ in prog.params] for _ in range(4)]
    return prog, rows


def reference(prog, rows, cfg, barriers, det):
    """The ids that det's rule flags over the reference's samples, in
    static order, and every sampled id in the order of its first sample."""
    interp = ref.Interp(prog, cfg.p_orig, cfg.p_shadow, barriers)
    stream = [e for row in rows for e in stream_errors(interp.run(row), cfg)]
    n, instrs = plain_aggregate(stream, len(rows))
    flagged = sorted(iid for iid, (_, m, _, _, _, ks) in instrs
                     if ks[J] / m > det.p0 and m / n >= det.p1)
    return flagged, [iid for iid, _ in instrs]


def original_lane(prog, rows, cfg, barriers):
    """Each row's original result and exec counts."""
    out = []
    for row in rows:
        t = engine.execute_rows(prog, [row], cfg, barriers, "none")
        out.append((key(t.result.orig), t.exec_counts))
    return out


def check_fix(prog, rows, cfg, det):
    with mock.patch.object(detector, "collect",
                           wraps=detector.collect) as spy:
        try:
            res = detector.fix_iteratively(prog, rows, cfg, det)
        except engine.EngineError:
            event("engine error")
            return
    event("%d barrier(s)" % len(res.barriers))
    # each iteration adds exactly one barrier: the first of the flagged
    # ids not yet barriered, in static order or in the order of first
    # samples; the last iteration has none left to add
    sets = [call.args[3] for call in spy.call_args_list]
    assert len(sets) == len(res.iterations) == len(res.barriers) + 1
    assert sets[0] == frozenset() and sets[-1] == res.barriers
    for j, (barriers, report) in enumerate(zip(sets, res.iterations)):
        flagged, first_seen = reference(prog, rows, cfg, barriers, det)
        assert report.flagged == flagged
        todo = [i for i in flagged if i not in barriers]
        if j + 1 == len(sets):
            assert todo == []
            break
        want = min(todo) if det.first_order == "static" \
            else next(i for i in first_seen if i in todo)
        assert sets[j + 1] == barriers | {want}
    # re-collected with the final barriers, nothing outside them is flagged
    assert set(reference(prog, rows, cfg, res.barriers, det)[0]) \
        <= res.barriers
    # the original lane does not depend on the barriers
    assert original_lane(prog, rows, cfg, res.barriers) \
        == original_lane(prog, rows, cfg, frozenset())
    # one iteration is too few for a program that needs a barrier
    if res.barriers:
        with pytest.raises(detector.NoConvergence) as exc:
            detector.fix_iteratively(prog, rows, cfg,
                                     det._replace(max_iterations=1))
        assert [r.to_dict() for r in exc.value.log] \
            == [res.iterations[0].to_dict()]


@pytest.mark.parametrize("order", ["static", "dynamic"])
@pytest.mark.parametrize("p_orig, p_shadow", [(53, 120), (24, 200)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fixer_on_random_programs(p_orig, p_shadow, order, data):
    prog, rows = data.draw(fix_cases(p_orig))
    check_fix(prog, rows, engine.EngineConfig(p_orig, p_shadow),
              detector.DetectionConfig(e0=E0, first_order=order))



def _mp(v):
    return mp.from_float(v) if isinstance(v, float) else v


@pytest.mark.parametrize("p_orig, p_shadow", [(53, 120), (24, 200)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_rounding_instruction_barriered_flags_nothing(p_orig, p_shadow,
                                                            data):
    # rows and literals enter both lanes equal, so with every rounding
    # instruction demoted each shadow is its original; only a NaN, whose
    # error counts as inf, is flagged
    ops = [op for op in (BODY_OPS if p_orig == 53 else FLOAT_OPS)
           if op not in ("set_hi", "set_lo")]
    prog = tac.parse_program(data.draw(programs(ops)))
    rows = [[mp.from_float(data.draw(st.sampled_from(INPUTS)))
             for _ in prog.params] for _ in range(4)]
    cfg = engine.EngineConfig(p_orig, p_shadow)
    barriers = frozenset(instr.id for instr in prog.instrs
                         if instr.op in engine._DEMOTED)
    results = []
    try:
        trace = engine.execute_rows(
            prog, rows, cfg, barriers,
            on_row=lambda i, orig, shadow, stale: results.append(
                (key(_mp(orig)), key(shadow))))
    except engine.EngineError:
        event("engine error")
        return
    assert len(results) == len(rows)
    assert all(o == s for o, s in results)
    assert all(key(_mp(s.original)) == key(s.shadow) for s in trace.samples)
    nans = {s.instr_id for s in trace.samples
            if key(_mp(s.original)) == ("nan",)}
    event("NaN" if nans else "no NaN")
    agg = detector.collect(prog, rows, cfg, barriers, (E0,))
    assert set(detector.detect(agg, detector.DetectionConfig(e0=E0))
               .flagged) <= nans
