"""The engine against the reference interpreter of ref_interp.py.

Random programs from test_programs' generator run in both, with random
barriers, p_orig in {24, 53} and p_shadow from p_orig up to 400.  Result lanes,
staleness, exec counts, steps and every full-mode sample field must agree,
row by row and summed over one `execute_rows` call of the whole batch;
the stream errors, through a callable sink and through the aggregate that
`detector.collect` fills from the generated code, must be the engine's
host-float relative errors of the reference's lanes.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from precfix import corpus, detector, engine, tac
from precfix import mpfloat as mp
import ref_interp as ref
from test_programs import INPUTS, LOOP, NESTED as OUTER, programs

THRESHOLDS = (1e-300, 1e-16, 1e-8, 1e-2, 1.0, 1e300)


def rkey(x):
    """A libmp value as a comparable key; -0 and +0 differ."""
    if x == ref.NAN:
        return ("nan",)
    if x in (ref.INF, ref.NINF):
        return ("inf", x == ref.NINF)
    if x in (ref.ZERO, ref.NZERO):
        return ("zero", x == ref.NZERO)
    return ("num", x)


def key(v):
    return rkey(ref.from_mpfloat(v))


def to_mpfloat(x, p):
    """A libmp value of at most p bits as an MPFloat of precision p."""
    if x == ref.NAN:
        return mp.nan(p)
    if x in (ref.INF, ref.NINF):
        return mp.inf(-1 if x == ref.NINF else 1, p)
    if x in (ref.ZERO, ref.NZERO):
        return mp.zero(p, -1 if x == ref.NZERO else 1)
    sign, man, exp, bc = x
    return mp.MPFloat(mp.NORMAL, -1 if sign else 1, exp + bc - 1,
                      man << (p - bc), p)


def stream_errors(run, cfg):
    """(instr_id, dst, err) of the reference's samples, err as the
    engine's stream mode computes it from the two lanes."""
    p_o = 53 if cfg.p_orig == 53 else cfg.p_orig
    return [(s.instr_id, s.dst, mp._rel_err_float(
        to_mpfloat(s.shadow, cfg.p_shadow), to_mpfloat(s.original, p_o),
        cfg.p_shadow)) for s in run.samples]


def plain_aggregate(stream, n):
    """(id, (dst, m, inf count, max, mean, k per threshold)) per
    instruction, in the order of its first sample, from a list of every
    sample of a batch."""
    errs, dsts = {}, {}
    for iid, dst, e in stream:
        errs.setdefault(iid, []).append(e)
        dsts[iid] = dst
    out = []
    for iid, es in errs.items():
        finite = [e for e in es if e < math.inf]
        infs = len(es) - len(finite)
        try:
            mean = math.fsum(finite) / len(finite) if finite else None
        except OverflowError:
            mean = math.inf
        mx = math.inf if infs else max(finite, default=0.0)
        out.append((iid, (dsts[iid], len(es), infs, mx, mean,
                          [infs + sum(1 for e in finite if e > t)
                           for t in THRESHOLDS])))
    return n, out


def fused_aggregate(agg):
    """plain_aggregate's figures from the tallies, in the order of
    `agg.instrs`."""
    stats = {t: detector.stats_for(agg, detector.DetectionConfig(e0=t))
             for t in THRESHOLDS}
    out = {}
    for j, s in enumerate(stats[THRESHOLDS[0]]):
        out[s.instr_id] = (s.dst, s.m, s.inf_count, s.max_err, s.mean_err,
                           [stats[t][j].k for t in THRESHOLDS])
    return agg.n, [(iid, out[iid]) for iid in agg.instrs]


@st.composite
def ref_cases(draw):
    prog = tac.parse_program(draw(programs()))
    p_o = draw(st.sampled_from([24, 53]))
    p_s = draw(st.one_of(st.just(120), st.just(p_o), st.integers(p_o, 400)))
    fixable = [i.id for i in prog.instrs if i.dst is not None]
    barriers = frozenset(draw(st.lists(st.sampled_from(fixable),
                                       max_size=3)))
    rows = [[mp.from_float(draw(st.sampled_from(INPUTS)))
             for _ in prog.params] for _ in range(3)]
    return prog, engine.EngineConfig(p_o, p_s), barriers, rows


def check_run(prog, row, cfg, barriers, idx, want):
    """One row through the engine in every sample mode, against the
    reference's run `want`; returns its stream samples."""
    p_o = cfg.p_orig
    full = engine.execute(prog, row, cfg, barriers, idx)
    o, s, stale = full.result.orig, full.result.shadow, full.result.stale
    wo, ws, wstale = want.result
    wo = ref.from_host(wo) if p_o == 53 else wo
    assert (key(o), o.prec, key(s), s.prec, stale) \
        == (rkey(wo), p_o, rkey(ws), cfg.p_shadow, wstale)
    assert full.exec_counts == want.exec_counts
    assert full.steps == want.steps == sum(want.exec_counts)
    assert [(x.instr_id, x.run_index, x.dst, key(x.original),
             x.original.prec, key(x.shadow), x.shadow.prec, key(x.abs_err),
             x.abs_err.prec, key(x.rel_err), x.rel_err.prec)
            for x in full.samples] \
        == [(x.instr_id, idx, x.dst, rkey(x.original), p_o, rkey(x.shadow),
             cfg.p_shadow, rkey(x.abs_err), max(cfg.p_shadow, 60),
             rkey(x.rel_err), cfg.p_shadow) for x in want.samples]
    stream = stream_errors(want, cfg)
    got = []
    engine.execute(prog, row, cfg, barriers, idx,
                   lambda i, d, e: got.append((i, d, e)))
    assert got == stream
    none = engine.execute(prog, row, cfg, barriers, idx, "none")
    assert none.exec_counts == want.exec_counts and none.samples == []
    return stream


def check_batch(prog, cfg, barriers, rows):
    interp = ref.Interp(prog, cfg.p_orig, cfg.p_shadow, barriers)
    stream, wants = [], []
    for idx, row in enumerate(rows):
        try:
            want = interp.run(row)
        except ref.RefError:
            for mode in ("full", "none", lambda i, d, e: None):
                with pytest.raises(engine.EngineError):
                    engine.execute(prog, row, cfg, barriers, idx, mode)
            with pytest.raises(engine.EngineError):
                detector.collect(prog, rows, cfg, barriers, THRESHOLDS)
            return
        stream += check_run(prog, row, cfg, barriers, idx, want)
        wants.append(want)
    # one call runs every row: its exec counts are the sums of the rows',
    # they add up to the rows' steps, and each sample has its row's index
    batch = engine.execute_rows(prog, rows, cfg, barriers)
    assert batch.exec_counts \
        == [sum(c) for c in zip(*(w.exec_counts for w in wants))]
    assert sum(batch.exec_counts) == batch.steps \
        == sum(w.steps for w in wants)
    assert [(x.instr_id, x.run_index) for x in batch.samples] \
        == [(x.instr_id, i) for i, w in enumerate(wants) for x in w.samples]
    agg = detector.collect(prog, rows, cfg, barriers, THRESHOLDS)
    assert fused_aggregate(agg) == plain_aggregate(stream, len(rows))


@given(ref_cases())
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference(case):
    check_batch(*case)


# an instruction first runs in a later row, in a loop block with two
# samples, and blocks are first entered in an order unlike their ids
LATE = """
func f(x) -> y
  y = fmov x
  c = icmp gt, x, 1.0
  branch c, big
  y = fmul y, 3.0
  jump done
big:
  i = iconst 0
top:
  y = fdiv y, 3.0
  t = fadd y, 0.1
  i = iadd i, 1
  k = icmp lt, i, 3
  branch k, top
done:
  y = fadd y, x
  z = fsqrt y
  ret z
"""


@pytest.mark.parametrize("p_o, p_s", [(53, 120), (24, 200)])
@pytest.mark.parametrize("barriers", [frozenset(), frozenset({3, 7})])
def test_first_ordinals_of_instructions_first_run_late(p_o, p_s, barriers):
    prog = tac.parse_program(LATE)
    rows = [mp.from_float(x) for x in (0.5, -4.0, 2.0, 0.75, 5.0, 1e300)]
    cfg = engine.EngineConfig(p_o, p_s)
    check_batch(prog, cfg, barriers, [[x] for x in rows])
    agg = detector.collect(prog, rows, cfg, barriers, THRESHOLDS)
    # rows 0 and 1 sample instructions 0, 3, 11 and 12; row 2 then runs
    # 0, and 6 and 7 three times
    assert list(agg.instrs) == [0, 3, 11, 12, 6, 7]


# LATE's loop block entered twice per row by an outer loop: a block that
# branches to its own start, with two samples, first run in a later row
NESTED = """
func f(x) -> y
  y = fmov x
  c = icmp gt, x, 1.0
  branch c, big
  y = fmul y, 3.0
  jump done
big:
  j = iconst 0
outer:
  i = iconst 0
top:
  y = fdiv y, 3.0
  t = fadd y, 0.1
  i = iadd i, 1
  k = icmp lt, i, 3
  branch k, top
  j = iadd j, 1
  m = icmp lt, j, 2
  branch m, outer
done:
  y = fadd y, x
  z = fsqrt y
  ret z
"""


@pytest.mark.parametrize("p_o, p_s", [(53, 120), (24, 200)])
@pytest.mark.parametrize("barriers", [frozenset(), frozenset({3, 8})])
def test_first_ordinals_in_a_self_loop_entered_again(p_o, p_s, barriers):
    prog = tac.parse_program(NESTED)
    rows = [mp.from_float(x) for x in (0.5, -4.0, 2.0, 0.75, 5.0, 1e300)]
    cfg = engine.EngineConfig(p_o, p_s)
    check_batch(prog, cfg, barriers, [[x] for x in rows])
    agg = detector.collect(prog, rows, cfg, barriers, THRESHOLDS)
    # rows 0 and 1 sample instructions 0, 3, 15 and 16; row 2 then runs
    # 0, and 7 and 8 six times, before 15 and 16
    assert list(agg.instrs) == [0, 3, 15, 16, 7, 8]
    assert [agg.instrs[i].m for i in (0, 7, 8, 15)] == [6, 18, 18, 6]


@pytest.mark.parametrize("text", [LOOP, OUTER])
@pytest.mark.parametrize("p_o, p_s", [(53, 120), (24, 200)])
@pytest.mark.parametrize("barrier", [False, True])
def test_counted_loops_follow_reference_across_a_batch(text, p_o, p_s,
                                                       barrier):
    # test_programs' counted loop, and its self-loop that an outer loop
    # enters three times, over rows of one batch, with or without a
    # barrier on the loop's fadd
    prog = tac.parse_program(text)
    barriers = frozenset(i.id for i in prog.instrs
                         if barrier and i.op == "fadd")
    rows = [[mp.from_float(x)] for x in (0.1, -2.0, 0.0, 1e300, math.inf)]
    check_batch(prog, engine.EngineConfig(p_o, p_s), barriers, rows)


# a partial word write that leaves the shadow stale or replays it, whose
# staleness fabs, fneg and fmov carry to the result
STALE = """
func f(x) -> y
  a = fdiv x, 3.0
  h = get_hi a
  h2 = iadd h, 0x00100000
  b = set_hi a, h2
  l = get_lo b
  b = set_lo b, l
  c = fabs b
  d = fneg c
  y = fmov d
  ret y
"""


@pytest.mark.parametrize("barriers", [frozenset(), frozenset({0}),
                                      frozenset({3}), frozenset({5})])
def test_staleness_follows_reference(barriers):
    prog = tac.parse_program(STALE)
    rows = [[mp.from_float(x)] for x in (1.0, 0.0, -1.5, 6.0, 5e-324,
                                         math.inf, math.nan)]
    check_batch(prog, engine.EngineConfig(), barriers, rows)


# exact-zero sums and differences, whose shadow is zero, and the products
# and quotients of such a zero; signed zeros, specials and subnormals in
CANCEL = """
func f(x) -> y
  z = fsub x, x
  n = fneg x
  s = fadd x, n
  m = fmul z, x
  q = fdiv s, x
  y = fadd m, q
  ret y
"""


@pytest.mark.parametrize("p_o, p_s", [(53, 53), (53, 120), (24, 200)])
@pytest.mark.parametrize("barriers", [frozenset(), frozenset({0, 4})])
def test_exact_zero_sums_follow_reference(p_o, p_s, barriers):
    prog = tac.parse_program(CANCEL)
    rows = [[mp.from_float(x)] for x in (1.0, -2.5, 0.0, -0.0, 5e-324,
                                         1e300, math.inf, math.nan)]
    check_batch(prog, engine.EngineConfig(p_o, p_s), barriers, rows)


# -- the per-row hook --------------------------------------------------------

# a barrier per built-in kernel: the fixer's on the magic-constant kernels,
# accum's loop fadd and cancel's first add
KERNEL_BARRIERS = {"round_kernel": 1, "exp_kernel": 3, "sin_kernel": 2,
                   "union_scale_kernel": 3, "accum_kernel": 2,
                   "cancel_kernel": 0}
HOOK_INPUTS = (0.5, -2.75, 3.0, 1e300, -1e-310, 0.0, math.inf)


def hooked(prog, rows, cfg, barriers, mode, run_index=0):
    """What on_row receives from one execute_rows call, as comparable
    keys, and the call's trace.  The original comes as the lane holds it:
    a host float at p_orig 53."""
    got = []

    def on_row(i, o, s, t):
        if cfg.p_orig == 53:
            assert type(o) is float
            o = mp.from_float(o)
        got.append((i, key(o), o.prec, key(s), s.prec, t))

    trace = engine.execute_rows(prog, rows, cfg, barriers, mode, run_index,
                                on_row)
    return got, trace


@pytest.mark.parametrize("name", sorted(KERNEL_BARRIERS))
@pytest.mark.parametrize("p_o, p_s", [(53, 120), (24, 200), (113, 200)])
@pytest.mark.parametrize("barred", [False, True])
def test_on_row_hands_each_row_its_result(name, p_o, p_s, barred):
    # in every sample mode, row i's hook gets what execute gives for that
    # row alone and what the reference computes
    prog = corpus.get_kernel(name).program
    cfg = engine.EngineConfig(p_o, p_s)
    barriers = frozenset({KERNEL_BARRIERS[name]} if barred else ())
    xs = HOOK_INPUTS[:2] if name == "accum_kernel" else HOOK_INPUTS
    rows = [[mp.round_to(mp.from_float(x), p_o)] for x in xs]
    modes = ("none", "full", detector.ErrorAggregate(prog.name, THRESHOLDS))
    interp = ref.Interp(prog, p_o, p_s, barriers)
    try:
        wants = [interp.run(row) for row in rows]
    except ref.RefError:  # word operations below p_orig 53
        for mode in modes:
            with pytest.raises(engine.EngineError):
                hooked(prog, rows, cfg, barriers, mode)
        return
    want = []
    for i, (row, w) in enumerate(zip(rows, wants)):
        alone = engine.execute(prog, row, cfg, barriers,
                               sample_mode="none").result
        wo, ws, wstale = w.result
        wo = ref.from_host(wo) if p_o == 53 else wo
        assert (key(alone.orig), key(alone.shadow), alone.stale) \
            == (rkey(wo), rkey(ws), wstale)
        want.append((i, key(alone.orig), p_o, key(alone.shadow), p_s,
                     alone.stale))
    for mode in modes:
        got, trace = hooked(prog, rows, cfg, barriers, mode)
        assert got == want
        assert trace.steps == sum(w.steps for w in wants)


def test_on_row_full_mode_indices_run_on_across_rows():
    # each row's samples come before its hook and carry its index
    prog = tac.parse_program(LATE)
    rows = [[mp.from_float(x)] for x in (0.5, -4.0, 2.0, 5.0)]
    events = []

    class Consumer:
        def append(self, sample):
            events.append(("sample", sample.run_index))

    engine.execute_rows(prog, rows, engine.EngineConfig(), frozenset(),
                        Consumer(), 7, lambda i, o, s, t:
                        events.append(("row", i)))
    rows_seen = [i for kind, i in events if kind == "row"]
    assert rows_seen == [7, 8, 9, 10]
    row = iter(rows_seen)
    current = next(row)
    for kind, i in events:
        assert i == current
        if kind == "row":
            current = next(row, None)
    assert current is None


FLOOR = """
func f(x) -> y
  t = fmul x, 1e300
  y = ffloor t
  ret y
"""


@pytest.mark.parametrize("mode", ["none", "full", "aggregate"])
def test_a_failing_row_stops_the_batch_after_earlier_rows(mode):
    # 1e10 * 1e300 overflows: the third row fails, the first two were
    # handed over and the fourth never runs
    prog = tac.parse_program(FLOOR)
    if mode == "aggregate":
        mode = detector.ErrorAggregate(prog.name, THRESHOLDS)
    rows = [[mp.from_float(x)] for x in (1.5, 2.5, 1e10, 3.5)]
    got = []
    with pytest.raises(engine.NonFiniteFloor):
        engine.execute_rows(prog, rows, engine.EngineConfig(), frozenset(),
                            mode, 0, lambda i, o, s, t: got.append(i))
    assert got == [0, 1]


# -- rows admitted by the generated function ---------------------------------

ADMIT = """
func f(x, y) -> a
  a = fmov x
  b = fmov y
  ret a
"""


def dec(text, p):
    return mp.from_decimal_string(text, p)


# rows of values at other precisions and of every class, two per batch,
# each batch then given a third row of the wrong arity
ADMIT_ROWS = {
    (53, 120): [
        [[dec("0.1", 113), dec("0.1", 24)],
         [dec("1e-320", 113), mp.from_float(5e-324)]],
        [[mp.zero(53), mp.zero(53, -1)], [mp.inf(1), mp.inf(-1)]],
        [[mp.nan(), dec("1e400", 113)], [dec("-2.5e-310", 24),
                                         dec("1e-400", 113)]],
    ],
    (24, 200): [
        [[mp.from_float(0.1), mp.from_float(-1e300)],
         [mp.from_float(5e-324), mp.from_float(2.0**-1022 * 1.5)]],
        [[mp.zero(53, -1), mp.zero(24)], [mp.inf(-1, 113), mp.nan(113)]],
        [[dec("0.1", 113), dec("1e-400", 113)],
         [dec("16777217", 53), dec("-16777219", 200)]],
    ],
}


@pytest.mark.parametrize("p_o, p_s", sorted(ADMIT_ROWS))
@pytest.mark.parametrize("batch", [0, 1, 2])
@pytest.mark.parametrize("mode", ["none", "full", "aggregate"])
@pytest.mark.parametrize("bad", [1, 3])
def test_rows_are_admitted_as_make_dual_admits_a_value(p_o, p_s, batch,
                                                       mode, bad):
    # each row's inputs, admitted by the generated function, are the
    # lanes _admit and the reference give, sample by sample and in
    # the row's result; a third row of `bad` inputs stops the batch with
    # the arity message after the first two rows are handed over
    prog = tac.parse_program(ADMIT)
    cfg = engine.EngineConfig(p_o, p_s)
    rows = ADMIT_ROWS[p_o, p_s][batch]
    interp = ref.Interp(prog, p_o, p_s, frozenset())
    wants = [interp.run(row) for row in rows]

    def lanes(v):
        o, s = engine._admit(v, p_o, p_s, mp.policy_for(p_o))
        o = mp.from_float(o) if p_o == 53 else o
        return key(o), o.prec, key(s), s.prec

    def ref_lanes(o, s):
        return rkey(o), p_o, rkey(s), p_s

    for row, want in zip(rows, wants):
        assert [lanes(v) for v in row] \
            == [ref_lanes(x.original, x.shadow) for x in want.samples]
    samples = []
    if mode == "full":
        sample_mode = samples
    elif mode == "aggregate":
        sample_mode = detector.ErrorAggregate(prog.name, THRESHOLDS)
    else:
        sample_mode = mode
    with pytest.raises(engine.EngineError) as exc:
        hooked(prog, rows + [[rows[0][0]] * bad], cfg, frozenset(),
               sample_mode)
    assert str(exc.value) == "f takes 2 input(s), got %d" % bad
    if mode == "aggregate":
        sample_mode = detector.ErrorAggregate(prog.name, THRESHOLDS)
    got, trace = hooked(prog, rows, cfg, frozenset(), sample_mode)
    assert got == [(i,) + lanes(row[0]) + (False,)
                   for i, row in enumerate(rows)]
    assert got == [(i,) + ref_lanes(interp.exact(w.result[0]), w.result[1])
                   + (False,) for i, w in enumerate(wants)]
    assert trace.steps == sum(w.steps for w in wants)
    if mode == "full":
        # the failed batch's two rows, then the whole one's
        assert [(x.run_index, x.instr_id, key(x.original), x.original.prec,
                 key(x.shadow), x.shadow.prec) for x in samples] \
            == 2 * [(i, j) + lanes(v) for i, row in enumerate(rows)
                    for j, v in enumerate(row)]
    if mode == "aggregate":
        sample_mode.fold()
        assert fused_aggregate(sample_mode) == plain_aggregate(
            [e for w in wants for e in stream_errors(w, cfg)], len(rows))
