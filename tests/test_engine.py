"""Shadow-engine semantics: dual lanes, barriers, word writes, controls."""

import pytest
from hypothesis import given, settings, strategies as st

from precfix import tac, engine
from precfix import mpfloat as mp

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
    assert engine.format_trace(a) == engine.format_trace(b)


def test_run_batch_collects_failures():
    prog = tac.parse_program(ROUND)
    cfg = engine.EngineConfig(max_steps=1)
    traces = engine.run_batch(prog, [dec("1.0"), dec("2.0")], cfg)
    assert all(t.error is not None for t in traces)
    assert len(traces) == 2


def test_input_arity_checked():
    prog = tac.parse_program(ROUND)
    with pytest.raises(engine.EngineError):
        engine.execute(prog, [], CFG)


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
