"""Shadow-engine semantics: dual lanes, barriers, word writes, controls."""

import decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from precfix import tac, engine, detector, corpus
from precfix import mpfloat as mp
from test_detector import recorded

CFG = engine.EngineConfig()


def dec(s, p=53):
    return mp.from_decimal_string(s, p, mp.BINARY64 if p == 53
                                  else mp.UNBOUNDED)


def run(text, *vals, cfg=CFG, barriers=frozenset(), mode="full"):
    prog = tac.parse_program(text)
    return engine.execute(prog, [dec(v, cfg.p_orig) for v in vals], cfg,
                          barriers, sample_mode=mode)


ROUND = """
func r(x) -> y
  const toint = 0x1.8p52
  t = fadd x, toint
  y = fsub t, toint
  ret y
"""


def test_lanes_diverge_on_magic_round():
    tr = run(ROUND, "2.6")
    assert tr.result.orig.to_float() == 3.0
    assert abs(tr.result.shadow.to_float() - 2.6) < 1e-15
    assert tr.samples[-1].rel_err.to_float() == pytest.approx(
        abs(2.6 - 3.0) / 2.6, rel=1e-12)


def test_round_kernel_paper_walkthrough():
    tr = run(ROUND, "13.75")
    assert tr.result.orig.to_float() == 14.0


def test_barrier_restores_agreement():
    tr = run(ROUND, "2.6", barriers=frozenset({0, 1}))
    assert tr.result.shadow.to_float() == 3.0
    assert all(s.rel_err.cls == mp.ZERO for s in tr.samples)


def test_barrier_on_nonfloat_instruction_rejected():
    prog = tac.parse_program("func f(x) -> y\n  y = fmov x\n  ret y\n")
    with pytest.raises(engine.BadBarrier):
        engine.execute(prog, [dec("1.0")], CFG, frozenset({1}))
    with pytest.raises(engine.BadBarrier):
        engine.execute(prog, [dec("1.0")], CFG, frozenset({99}))


def test_original_lane_identical_with_and_without_barriers():
    a = run(ROUND, "7.3")
    b = run(ROUND, "7.3", barriers=frozenset({0}))
    assert mp.to_binary64_bits(a.result.orig) \
        == mp.to_binary64_bits(b.result.orig)


def test_degenerate_shadow_precision_gives_zero_errors():
    cfg = engine.EngineConfig(p_orig=53, p_shadow=53)
    tr = run(ROUND, "2.6", cfg=cfg)
    assert all(s.rel_err.cls == mp.ZERO for s in tr.samples)


def test_control_flow_follows_original_lane():
    text = """
func f(x) -> y
  const toint = 0x1.8p52
  t = fadd x, toint
  r = fsub t, toint
  c = icmp gt, r, x
  branch c, up
  y = fconst 0.0
  ret y
up:
  y = fconst 1.0
  ret y
"""
    # 2.6 rounds up to 3.0 in the original lane; the shadow would say
    # otherwise, but branching must use the original result
    tr = run(text, "2.6")
    assert tr.result.orig.to_float() == 1.0


def test_word_split_and_rebuild():
    text = """
func f(x) -> y
  h = get_hi x
  l = get_lo x
  y = make_f h, l
  ret y
"""
    for s in ("1.5", "-0.1", "6.25e-3"):
        tr = run(text, s)
        assert mp.to_binary64_bits(tr.result.orig) \
            == mp.to_binary64_bits(dec(s))
        assert tr.result.shadow.to_float() == dec(s).to_float()


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=200, deadline=None)
def test_set_hi_set_lo_match_bit_surgery(bits):
    text = """
func f(x) -> y
  t = set_hi x, 0x40080000
  y = set_lo t, 0xDEADBEEF
  ret y
"""
    prog = tac.parse_program(text)
    x = mp.from_binary64_bits(bits)
    tr = engine.execute(prog, [x], CFG, sample_mode="none")
    want = (0x40080000 << 32) | 0xDEADBEEF
    assert mp.to_binary64_bits(tr.result.orig) == want


def test_partial_word_write_marks_shadow_stale():
    text = """
func f(x) -> y
  t = fdiv x, 3.0
  h = get_hi t
  h2 = iadd h, 0x00300000
  y = set_hi t, h2
  ret y
"""
    tr = run(text, "1.0")
    assert tr.result.stale
    # original got scaled by 8, shadow kept the old value
    assert tr.result.orig.to_float() == pytest.approx(8 / 3, rel=1e-12)
    assert tr.result.shadow.to_float() == pytest.approx(1 / 3, rel=1e-12)
    assert tr.samples[-1].rel_err.to_float() == pytest.approx(7.0, rel=1e-9)


def test_clean_word_write_keeps_shadow_in_sync():
    # source whose shadow equals its original exactly: replay the write
    text = """
func f(x) -> y
  const one = 1.0
  y = set_hi one, 0x40000000
  ret y
"""
    tr = run(text, "0.0")
    assert not tr.result.stale
    assert tr.result.orig.to_float() == 2.0
    assert tr.result.shadow.to_float() == 2.0
    assert tr.samples[-1].rel_err.cls == mp.ZERO


def test_barriered_word_write_uses_rounded_shadow():
    text = """
func f(x) -> y
  t = fdiv x, 3.0
  y = set_hi t, 0x40080000
  ret y
"""
    tr = run(text, "1.0", barriers=frozenset({1}))
    assert not tr.result.stale
    lo_bits = mp.to_binary64_bits(tr.result.shadow if False
                                  else tr.result.orig) & 0xFFFFFFFF
    assert mp.to_binary64_bits(mp.round_to(tr.result.shadow, 53,
                                           mp.BINARY64)) \
        == (0x40080000 << 32) | lo_bits


def test_integer_ops_two_complement():
    text = """
func f(x) -> y
  a = iconst 0xFFFFFFFF
  b = ixor a, 0x80000000
  b = isub b, 0x80000000
  c = ishr b, 1
  d = ishl c, 1
  e = iand d, 0xFFFFFFFF
  g = ior e, 0
  y = fmov x
  ret y
"""
    prog = tac.parse_program(text)
    tr = engine.execute(prog, [dec("0.0")], CFG, sample_mode="none")
    # 0xFFFFFFFF sign-extends to -1; -1 >> 1 stays -1 (arithmetic)
    assert tr.steps == 9


def test_sign_extension_idiom():
    text = """
func f(x) -> y
  const toint = 0x1.8p52
  t = fadd x, toint
  n = get_lo t
  n = ixor n, 0x80000000
  n = isub n, 0x80000000
  c = icmp lt, n, 0
  branch c, neg
  y = fconst 1.0
  ret y
neg:
  y = fconst -1.0
  ret y
"""
    assert run(text, "-7.2", mode="none").result.orig.to_float() == -1.0
    assert run(text, "7.2", mode="none").result.orig.to_float() == 1.0


def test_icmp_nan_unordered():
    text = """
func f(x) -> y
  t = fsqrt x
  c = icmp eq, t, t
  branch c, ordinary
  y = fconst 0.0
  ret y
ordinary:
  y = fconst 1.0
  ret y
"""
    assert run(text, "-1.0", mode="none").result.orig.to_float() == 0.0
    assert run(text, "4.0", mode="none").result.orig.to_float() == 1.0


def test_loop_and_step_budget():
    text = """
func f(x) -> s
  s = fconst 0.0
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 100
  branch c, top
  ret s
"""
    tr = run(text, "0.5", mode="none")
    assert tr.result.orig.to_float() == 50.0
    cfg = engine.EngineConfig(max_steps=10)
    prog = tac.parse_program(text)
    with pytest.raises(engine.StepBudgetExceeded):
        engine.execute(prog, [dec("0.5")], cfg, sample_mode="none")


def test_exec_counts():
    text = """
func f(x) -> s
  s = fconst 0.0
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 10
  branch c, top
  ret s
"""
    tr = run(text, "1.0", mode="none")
    assert tr.exec_counts[2] == 10
    assert tr.exec_counts[0] == 1


def test_determinism():
    a = run(ROUND, "2.6")
    b = run(ROUND, "2.6")
    text = [engine.format_sample(s) for s in a.samples]
    assert text and text == [engine.format_sample(s) for s in b.samples]


def test_run_batch_collects_failures():
    # The batch runner is detector.collect: the first failed run stops it
    # and its EngineError propagates, on the first row or a middle one,
    # and no row after it is read.
    read = []
    prog = tac.parse_program(ROUND)
    with pytest.raises(engine.StepBudgetExceeded):
        detector.collect(prog, recorded([dec("1.0"), dec("2.0")], read),
                         engine.EngineConfig(max_steps=1))
    assert read == [0]
    read.clear()
    prog = tac.parse_program("func f(x) -> y\n  t = fmul x, x\n"
                             "  y = ffloor t\n  ret y\n")
    with pytest.raises(engine.NonFiniteFloor):
        detector.collect(prog, recorded([dec("2.5"), mp.inf(), dec("1.0")],
                                        read), CFG)
    assert read == [0, 1]


def test_input_arity_checked():
    prog = tac.parse_program(ROUND)
    with pytest.raises(engine.EngineError):
        engine.execute(prog, [], CFG)


def test_wrong_arity_is_rejected_before_compiling():
    prog = tac.parse_program(ROUND)
    for mode in ("full", "none", detector.ErrorAggregate(prog.name)):
        with pytest.raises(engine.EngineError, match="takes 1 input"):
            engine.execute(prog, [dec("1.0"), dec("2.0")], CFG,
                           sample_mode=mode)
    assert prog.compiled == {}


def test_trace_format_layout():
    tr = run(ROUND, "2.6")
    text = engine.format_sample(tr.samples[-1])
    lines = text.splitlines()
    assert lines[0] == "y_id1"
    assert lines[1].startswith("ORIGINAL:       ")
    assert lines[2].startswith("SHADOW VALUE:   ")
    assert lines[3].startswith("ABSOLUTE ERROR: ")
    assert lines[4].startswith("RELATIVE ERROR: ")
    assert "* 10^" in lines[1]


def test_samples_emitted_for_every_float_destination():
    tr = run(ROUND, "2.6")
    assert [s.instr_id for s in tr.samples] == [0, 1]
    assert [s.dst for s in tr.samples] == ["t", "y"]


def test_streaming_mode_matches_full_mode():
    prog = tac.parse_program(ROUND)
    acc = []
    engine.execute(prog, [dec("2.6")], CFG,
                   sample_mode=lambda i, d, e: acc.append((i, d, e)))
    full = run(ROUND, "2.6")
    assert [(s.instr_id, s.dst) for s in full.samples] \
        == [(i, d) for i, d, _ in acc]
    for s, (_, _, e) in zip(full.samples, acc):
        exact = s.rel_err.to_float()
        assert e == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_config_validation():
    with pytest.raises(ValueError):
        engine.EngineConfig(p_orig=60, p_shadow=53)
    with pytest.raises(ValueError):
        engine.EngineConfig(p_orig=1)


def test_word_ops_require_binary64_lane():
    prog = tac.parse_program(
        "func f(x) -> y\n  h = get_hi x\n  y = fmov x\n  ret y\n")
    cfg = engine.EngineConfig(p_orig=24, p_shadow=60)
    with pytest.raises(engine.EngineError):
        engine.execute(prog, [dec("1.0", 24)], cfg)


def test_fconst_enters_both_lanes_rounded_once():
    text = "func f(x) -> y\n  y = fconst 0.1\n  ret y\n"
    tr = run(text, "0.0")
    assert tr.result.orig.to_float() == 0.1
    assert tr.samples[0].rel_err.cls == mp.ZERO


def test_non_finite_floor_fails_the_run():
    prog = tac.parse_program("func f(x) -> y\n  t = fmul x, x\n"
                             "  y = ffloor t\n  ret y\n")
    for cfg in (CFG, engine.EngineConfig(p_orig=24, p_shadow=60)):
        with pytest.raises(engine.NonFiniteFloor) as exc:
            engine.execute(prog, [mp.inf()], cfg)
        assert isinstance(exc.value, ValueError)
        tr = engine.execute(prog, [dec("2.5", cfg.p_orig)], cfg)
        assert tr.result.orig.to_float() == 6.0


def test_compile_cache_is_bounded():
    prog = tac.parse_program(ROUND)
    for budget in range(3, engine._CACHE_SIZE + 8):
        cfg = engine.EngineConfig(max_steps=budget)
        engine.execute(prog, [dec("2.6")], cfg)
    assert len(prog.compiled) == engine._CACHE_SIZE


def test_barriers_are_checked_on_a_cache_hit():
    # {True} and {1.0} equal {1}, so they find its compiled function
    prog = tac.parse_program(ROUND)
    engine.execute(prog, [dec("2.6")], barriers={1})
    for bad in ({True}, {1.0}):
        with pytest.raises(engine.BadBarrier):
            engine.execute(prog, [dec("2.6")], barriers=bad)


def test_bad_barriers_raise_on_every_call():
    prog = tac.parse_program(ROUND)
    good = frozenset({1})
    engine.execute(prog, [dec("2.6")], CFG, good, sample_mode="none")
    compiled = dict(prog.compiled)
    for _ in range(3):
        for bad in (frozenset({True}), frozenset({1.0}), frozenset({7})):
            with pytest.raises(engine.BadBarrier):
                engine.execute(prog, [dec("2.6")], CFG, bad,
                               sample_mode="none")
    # the bad sets compiled nothing, and an equal good set still runs
    assert prog.compiled == compiled
    tr = engine.execute(prog, [dec("2.6")], CFG, frozenset({1}),
                        sample_mode="none")
    assert tr.result.orig.to_float() == 3.0


def test_equal_barrier_sets_are_checked_once_per_set(monkeypatch):
    # the fixer builds new, equal sets; collect checks each once per batch,
    # not again for each row
    prog = tac.parse_program(ROUND)
    rows = [[dec(v)] for v in ("2.6", "-1.4", "0.5", "7.25")]
    checked = []
    check = engine.check_barriers
    monkeypatch.setattr(engine, "check_barriers",
                        lambda p, b: (checked.append(b), check(p, b)))
    first, second = frozenset({1}), frozenset([1])
    assert first == second and first is not second
    detector.collect(prog, rows, CFG, first)
    detector.collect(prog, rows, CFG, second)
    assert [b is first for b in checked] == [True, False]
    assert checked[1] is second
    # a bad set found by an equal good one still raises on every call
    for _ in range(2):
        with pytest.raises(engine.BadBarrier):
            detector.collect(prog, rows, CFG, frozenset({True}))
    assert len(checked) == 4


SKIP = """
func f(x) -> y
  c = icmp lt, x, 0.0
  branch c, skip
  t = fmov x
skip:
  y = fadd t, x
  ret y
"""


@pytest.mark.parametrize("x", ["1.0", "-1.0"])
def test_invalid_programs_fail_on_the_first_call(x):
    # An invalid program cannot be built, so no input reaches the engine
    # with one, whether or not it would avoid the bad read or the missing
    # label; the repaired program runs on every input.
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program(SKIP)
    assert [d.kind for d in exc.value.diagnostics] == ["UnassignedVariable"]
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program(SKIP.replace("fadd t, x", "fadd x, x")
                          .replace("skip:\n", ""))
    assert [d.kind for d in exc.value.diagnostics] == ["UndefinedLabel"]
    ok = tac.parse_program(SKIP.replace("fadd t, x", "fadd x, x"))
    assert engine.execute(ok, [dec(x)]).result.orig.to_float() \
        == 2 * float(x)


def test_a_compiled_program_cannot_be_changed():
    # the compile cache cannot outlive a change to its program, because
    # the program cannot change (see test_tac.py for every field)
    prog = tac.parse_program(SKIP.replace("fadd t, x", "fadd x, x"))
    engine.execute(prog, [dec("1.0")])
    cached = dict(prog.compiled)
    with pytest.raises(TypeError):
        del prog.labels["skip"]
    assert prog.compiled == cached
    assert engine.execute(prog, [dec("-1.0")]).result.orig.to_float() == -2.0


def _fields(v):
    return (v.cls, v.sign, v.exp, v.mant, v.prec)


@st.composite
def lane_pairs(draw):
    """(original at p_o bits, shadow at p_s bits, p_s), often far apart in
    magnitude, where shadow - original needs more than p_s bits."""
    p_o = draw(st.integers(2, 40))
    p_s = draw(st.integers(p_o + 1, 130))

    def value(p, exps):
        cls = draw(st.sampled_from([mp.NORMAL] * 6 + [mp.ZERO, mp.INF,
                                                      mp.NAN]))
        if cls != mp.NORMAL:
            return mp.MPFloat(cls, draw(st.sampled_from([1, -1])), 0, 0, p)
        mant = (1 << (p - 1)) | draw(st.integers(0, (1 << (p - 1)) - 1))
        return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])),
                          draw(exps), mant, p)

    s = value(p_s, st.integers(-3, 3))
    o = value(p_o, st.integers(-150, 3))
    return o, s, p_s


@given(lane_pairs())
@settings(max_examples=1500, deadline=None)
def test_full_sample_errors_are_the_defined_roundings(case):
    # the difference is formed once, at max(p_shadow, 60) bits; below 60
    # bits the relative error still takes shadow - original at p_shadow
    o, s, p_s = case
    sample = engine._full_sample(0, 0, "y", o, s, p_s)
    assert _fields(sample.abs_err) == _fields(mp.sub(s, o, max(p_s, 60)))
    assert _fields(sample.rel_err) == _fields(mp.relative_error(s, o, p_s))


# -- full-mode samples handed to a caller's consumer ------------------------


def sample_fields(s):
    return (s.instr_id, s.run_index, s.dst) + tuple(
        (v.cls, v.sign, v.exp, v.mant, v.prec)
        for v in (s.original, s.shadow, s.abs_err, s.rel_err))


class Texts:
    """A consumer that keeps each sample's trace text and nothing else."""

    def __init__(self):
        self.texts = []

    def append(self, sample):
        self.texts.append(engine.format_sample(sample))


# word operations need p_orig = 53
WORD_KERNELS = {name for name, k in corpus.builtin_kernels().items()
                if any(i.op in engine._WORD_OPS for i in k.program.instrs)}


@pytest.mark.parametrize("name, p_orig, p_shadow", [
    (name, p_o, p_s) for name in sorted(corpus.builtin_kernels())
    for p_o, p_s in ((53, 120), (24, 200))
    if p_o == 53 or name not in WORD_KERNELS])
def test_append_consumer_gets_the_full_mode_samples(name, p_orig, p_shadow):
    """An object with `append` passed as sample_mode receives, in order,
    the samples "full" mode keeps in RunTrace.samples, and the trace keeps
    none of them; the row's result and counts are the same."""
    k = corpus.get_kernel(name)
    cfg = engine.EngineConfig(p_orig, p_shadow)
    for i, x in enumerate(corpus.grid(k.domain[0], k.domain[1], 7, p_orig)):
        full = engine.execute(k.program, [x], cfg, frozenset(), i, "full")
        got, texts = [], Texts()
        for consumer in (got, texts):
            tr = engine.execute(k.program, [x], cfg, frozenset(), i,
                                consumer)
            assert tr.samples == []
            assert (tr.exec_counts, tr.steps) == (full.exec_counts,
                                                  full.steps)
            assert tr.result.orig.to_float() == full.result.orig.to_float()
        assert full.samples
        assert list(map(sample_fields, got)) \
            == list(map(sample_fields, full.samples))
        assert texts.texts == list(map(engine.format_sample, full.samples))


# -- the trace's 15-digit numbers against decimal ----------------------------


_DEC15 = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_EVEN,
                         Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def ref_sci15(v):
    """_sci15's text from decimal: the value's exact Fraction divided at 15
    digits, ties to even."""
    if v.cls == mp.NAN:
        return "nan"
    if v.cls == mp.INF:
        return "-inf" if v.sign < 0 else "inf"
    if v.cls == mp.ZERO:
        return "0.00000000000000 * 10^0"
    x = v.sign * Fraction(v.mant) * Fraction(2) ** (v.exp - v.prec + 1)
    q = _DEC15.divide(decimal.Decimal(x.numerator),
                      decimal.Decimal(x.denominator))
    sign, digits, exp = q.as_tuple()
    ds = "".join(map(str, digits)).ljust(15, "0")
    return "%s%s.%s * 10^%d" % ("-" if sign else "", ds[0], ds[1:],
                                exp + len(digits) - 1)


SCI_PRECISIONS = (24, 53, 113, 200, 1100)


@st.composite
def sci_values(draw):
    """Normal values at the trace's precisions: random significands, or
    short ones (n * 2**j, often an exact decimal), at exponents near 0,
    and past +-3,300, where the rounding takes _round_scaled (|k| > 992)."""
    p = draw(st.sampled_from(SCI_PRECISIONS))
    short = draw(st.integers(1, 1 << 20))
    mant = draw(st.one_of(
        st.integers(1 << (p - 1), (1 << p) - 1),
        st.just(short << (p - short.bit_length()))))
    exp = draw(st.one_of(st.integers(-80, 80), st.integers(-4000, 4000),
                         st.integers(-40000, 40000)))
    return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])), exp, mant,
                      p)


@given(sci_values())
@example(mp.MPFloat(mp.NORMAL, 1, 3400, (1 << 200) - 1, 200))
@example(mp.MPFloat(mp.NORMAL, -1, -3300, 1 << 1099, 1100))
@example(mp.MPFloat(mp.NORMAL, 1, 40000, 0xC00000, 24))
@example(mp.MPFloat(mp.NORMAL, 1, -40000, (1 << 53) - 1, 53))
@settings(max_examples=400, deadline=None)
def test_sci15_matches_decimal(v):
    assert engine._sci15(v) == ref_sci15(v)


@pytest.mark.parametrize("p", SCI_PRECISIONS)
def test_sci15_specials_and_ties(p):
    """Zeros print unsigned; exact decimal ties at 15 digits round to
    even: 2**-22 = 2.384185791015625e-7, and integers 10n + 5 of 16
    digits, below 2**53 so exact from p 53, of either sign."""
    for v, want in ((mp.zero(p), "0.00000000000000 * 10^0"),
                    (mp.zero(p, -1), "0.00000000000000 * 10^0"),
                    (mp.inf(1, p), "inf"), (mp.inf(-1, p), "-inf"),
                    (mp.nan(p), "nan")):
        assert engine._sci15(v) == ref_sci15(v) == want
    ties = [mp.MPFloat(mp.NORMAL, sign, -22, 1 << (p - 1), p)
            for sign in (1, -1)]
    if p >= 53:
        ties += [mp.from_int(n, p) for n in (
            1000000000000005, 1000000000000015, 4503599627370495,
            9007199254740985, -2718281828459045, -2718281828459055)]
    for v in ties:
        assert engine._sci15(v) == ref_sci15(v)
    assert [engine._sci15(v) for v in ties[:2]] == [
        "2.38418579101562 * 10^-7", "-2.38418579101562 * 10^-7"]
    if p >= 53:
        assert [engine._sci15(v) for v in ties[2:4]] == [
            "1.00000000000000 * 10^15", "1.00000000000002 * 10^15"]
