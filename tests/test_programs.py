"""Random TAC programs through the parser, the printer and the engine.

The generator draws valid programs over every opcode in `tac.OPCODES`:
forward branches and jumps, early returns, a counted loop and an outer
counted loop around it, each optional, so every program terminates.  A
loop with no branch or label inside is one block that branches to its own
start, and the outer loop enters it again and again.  Variable names
include dotted names, Python keywords and builtins, and names shaped like
the engine's generated locals, none of which may reach the generated code.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from precfix import cli, detector, engine, tac
from precfix import mpfloat as mp

CFG = engine.EngineConfig()
EQ = engine.EngineConfig(53, 53)

NAMES = ["a.b", "x.y.z", "if", "None", "True", "lambda", "sum", "abs", "len",
         "print", "o1", "s2", "t0", "i3", "k40", "c0", "n", "b", "ro", "rs",
         "ins", "sink", "ri", "run", "inf", "nan", "_", "v"]
LABELS = ["L0", "L1", "if", "else", "o1", "c0", "b", "top_", "_"]
FLOAT_LITS = ["0.5", "-1.25", "3.0", "0.1", "1e-3", "-0.0", "7.0", "1e300",
              "0x1.8p52", "2.5e-310", "-2.0", "two"]
INT_LITS = ["0", "1", "3", "-1", "20", "63", "64", "0xFFFFFFFF",
            "0x80000000", "0x3FF00000"]
INPUTS = [0.0, -0.0, 1.0, -2.5, 0.1, 3.75, 1e-300, -1e300, 123456.789,
          4503599627370496.5, math.inf, math.nan, 5e-324]
# reserved for the loops, outside NAMES
LOOP_I, LOOP_C, LOOP_LABEL = "loop.i", "loop.c", "loop_top"
OUTER_I, OUTER_C, OUTER_LABEL = "outer.i", "outer.c", "outer_top"

BODY_OPS = [op for op, (_, d) in tac.OPCODES.items() if d is not None]


@st.composite
def programs(draw, ops=BODY_OPS):
    """TAC text of a valid, terminating program, its body drawn from
    `ops`."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=3, max_size=9,
                          unique=True))
    n_params = draw(st.integers(1, 2))
    params = names[:n_params]
    fvars = params + [v for v in names[n_params:] if draw(st.booleans())]
    ivars = [v for v in names[n_params:] if v not in fvars]

    def f_operand():
        if draw(st.integers(0, 3)):
            return draw(st.sampled_from(fvars))
        return draw(st.sampled_from(FLOAT_LITS))

    def i_operand():
        if ivars and draw(st.integers(0, 2)):
            return draw(st.sampled_from(ivars))
        return draw(st.sampled_from(INT_LITS))

    def instruction():
        op = draw(st.sampled_from(ops))
        kinds, dkind = tac.OPCODES[op]
        if dkind == "i" and not ivars:
            op, kinds, dkind = "fmov", ("f",), "f"
        dst = draw(st.sampled_from(fvars if dkind == "f" else ivars))
        if op == "icmp":
            pred = draw(st.sampled_from(tac.PREDS))
            pick = f_operand if draw(st.booleans()) else i_operand
            return "%s = icmp %s, %s, %s" % (dst, pred, pick(), pick())
        srcs = [draw(st.sampled_from(FLOAT_LITS)) if k == "flit"
                else draw(st.sampled_from(INT_LITS)) if k == "ilit"
                else f_operand() if k == "f" else i_operand()
                for k in kinds]
        return "%s = %s %s" % (dst, op, ", ".join(srcs))

    body = [instruction() for _ in range(draw(st.integers(1, 14)))]
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=3, unique=True))
    # a forward branch or jump to each label, or an early return
    lines = [[line] for line in body]
    for label in labels:
        src = draw(st.integers(0, len(lines) - 1))
        dst = draw(st.integers(src + 1, len(lines)))
        if draw(st.booleans()):
            lines[src].append("branch %s, %s" % (i_operand(), label))
        else:
            lines[src].append("jump %s" % label)
        lines.insert(dst, ["%s:" % label])
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     ["ret %s" % draw(st.sampled_from(fvars))])

    def counted_loop(i, c, label, lo, hi):
        """Run lines[lo:hi] 1 to 12 times, counting in i."""
        count = draw(st.integers(1, 12))
        lines.insert(hi, ["%s = iadd %s, 1" % (i, i),
                          "%s = icmp lt, %s, %d" % (c, i, count),
                          "branch %s, %s" % (c, label)])
        lines.insert(lo, ["%s = iconst 0" % i, "%s:" % label])

    # the outer loop holds the inner one, if any, whose two chunks then lie
    # at lo and hi - 1
    lo, hi = len(lines) - 1, 0
    if draw(st.booleans()):
        lo = draw(st.integers(0, len(lines) - 1))
        hi = draw(st.integers(lo + 1, len(lines)))
        counted_loop(LOOP_I, LOOP_C, LOOP_LABEL, lo, hi)
        hi += 2
    if draw(st.booleans()):
        lo = draw(st.integers(0, lo))
        hi = draw(st.integers(max(hi, lo + 1), len(lines)))
        counted_loop(OUTER_I, OUTER_C, OUTER_LABEL, lo, hi)
    init = ["%s = fconst %s" % (v, draw(st.sampled_from(FLOAT_LITS)))
            for v in fvars[n_params:]]
    init += ["%s = iconst %s" % (v, draw(st.sampled_from(INT_LITS)))
             for v in ivars + [LOOP_I, OUTER_I]]
    text = ["func f(%s) -> result" % ", ".join(params),
            "  const two = 2.0"]
    text += ["  " + ln for ln in init]
    text += [ln if ln.endswith(":") else "  " + ln
             for chunk in lines for ln in chunk]
    text.append("  ret %s" % draw(st.sampled_from(fvars)))
    return "\n".join(text) + "\n"


@st.composite
def cases(draw):
    text = draw(programs())
    prog = tac.parse_program(text)
    fixable = [i.id for i in prog.instrs if i.dst is not None]
    barriers = frozenset(draw(st.lists(st.sampled_from(fixable),
                                       max_size=3)))
    rows = [[mp.from_float(draw(st.sampled_from(INPUTS)))
             for _ in prog.params] for _ in range(3)]
    return text, barriers, rows


def _run(prog, row, cfg, barriers=frozenset(), mode="full"):
    try:
        return engine.execute(prog, row, cfg, barriers, sample_mode=mode)
    except engine.NonFiniteFloor:
        return None


def _in_binary64_range(v):
    return v.cls == mp.ZERO or v.cls == mp.INF or (
        v.cls == mp.NORMAL and -1022 <= v.exp <= 1023)


@given(cases())
@settings(max_examples=250, deadline=None)
def test_random_programs(case):
    text, barriers, rows = case
    prog = tac.parse_program(text)
    for b in (frozenset(), barriers):
        again = tac.parse_program(tac.pretty_print(prog, b))
        assert prog == again
    for row in rows:
        t = _run(prog, row, CFG)
        if t is None:
            continue
        assert sum(t.exec_counts) == t.steps
        assert len(t.exec_counts) == len(prog.instrs)
        # with p_shadow == p_orig the lanes agree, and every error is zero,
        # until a value leaves the binary64 range
        eq = _run(prog, row, EQ)
        for s in eq.samples if eq is not None else ():
            if not _in_binary64_range(s.shadow):
                break
            assert s.rel_err.cls == mp.ZERO
        # the original lane and the path do not depend on barriers
        tb = _run(prog, row, CFG, barriers)
        if tb is not None:
            assert tb.exec_counts == t.exec_counts
            assert mp.to_binary64_bits(tb.result.orig) \
                == mp.to_binary64_bits(t.result.orig)
            assert [mp.to_binary64_bits(s.original) for s in tb.samples] \
                == [mp.to_binary64_bits(s.original) for s in t.samples]
        # the stream sink sees the full-mode samples
        got = []
        _run(prog, row, CFG, mode=lambda i, d, e: got.append((i, d, e)))
        assert got == [(s.instr_id, s.dst,
                        mp._rel_err_float(s.shadow, s.original, 120))
                       for s in t.samples]


def test_five_thousand_blocks():
    # each branch ends a block and each label starts one: 5000 blocks
    lines = ["func f(x) -> y", "  y = fmov x", "  c = icmp gt, x, 0.0"]
    for k in range(2500):
        lines += ["  branch c, L%d" % k, "  y = fadd y, 1.0", "L%d:" % k,
                  "  y = fmul y, 1.0"]
    lines.append("  ret y")
    prog = tac.parse_program("\n".join(lines) + "\n")
    for x, adds in ((1.0, 0), (-1.0, 2500)):
        t = engine.execute(prog, [mp.from_float(x)], CFG, sample_mode="none")
        assert t.result.orig.to_float() == x + adds
        assert sum(t.exec_counts) == t.steps == 3 + 2500 * 2 + adds


def _signed(v):
    return v - (v >> 63 << 64)


MASK = (1 << 64) - 1
INT_REFERENCE = {
    "iadd": lambda x, y: (x + y) & MASK, "isub": lambda x, y: (x - y) & MASK,
    "iand": lambda x, y: x & y, "ior": lambda x, y: x | y,
    "ixor": lambda x, y: x ^ y,
    "ishl": lambda x, y: (x << (y & 63)) & MASK,
    "ishr": lambda x, y: (_signed(x) >> (y & 63)) & MASK,
}
PRED_REFERENCE = {"lt": "__lt__", "le": "__le__", "gt": "__gt__",
                  "ge": "__ge__", "eq": "__eq__", "ne": "__ne__"}
U64 = st.one_of(st.integers(0, MASK), st.sampled_from(
    [0, 1, 63, 64, (1 << 63) - 1, 1 << 63, MASK, MASK - 1, 0x80000000,
     0xFFFFFFFF]))


def _holds(lines):
    """1.0 when the program's last int register `c` is nonzero, else 0.0."""
    text = ("func f(x) -> y\n" + "".join("  %s\n" % ln for ln in lines)
            + "  branch c, yes\n  y = fconst 0.0\n  ret y\n"
              "yes:\n  y = fconst 1.0\n  ret y\n")
    t = engine.execute(tac.parse_program(text), [mp.from_float(0.0)],
                       sample_mode="none")
    return t.result.orig.to_float()


@given(st.sampled_from(sorted(INT_REFERENCE)), st.sampled_from(tac.PREDS),
       U64, U64)
@settings(max_examples=300, deadline=None)
def test_integer_ops_are_twos_complement(op, pred, x, y):
    want = INT_REFERENCE[op](x, y)
    assert _holds(["a = iconst %d" % x, "b = iconst %d" % y,
                   "r = %s a, b" % op, "c = icmp eq, r, %d" % want]) == 1.0
    holds = float(getattr(_signed(x), PRED_REFERENCE[pred])(_signed(y)))
    assert _holds(["a = iconst %d" % x, "c = icmp %s, a, %d" % (pred, y)]) \
        == holds
    assert _holds(["a = iconst %d" % x, "b = iconst %d" % y,
                   "c = icmp %s, a, b" % pred]) == holds


STRAIGHT = "func f(x) -> y\n  y = fadd x, x\n  y = fmul y, y\n  ret y\n"
LOOP = """
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


@pytest.mark.parametrize("text, steps", [(STRAIGHT, 3), (LOOP, 43)])
def test_step_budget_is_exact(text, steps):
    prog = tac.parse_program(text)
    x = [mp.from_float(0.5)]
    for mode in ("none", "full"):
        t = engine.execute(prog, x, engine.EngineConfig(max_steps=steps),
                           sample_mode=mode)
        assert t.steps == steps
        with pytest.raises(engine.StepBudgetExceeded):
            engine.execute(prog, x, engine.EngineConfig(max_steps=steps - 1),
                           sample_mode=mode)
    # the budget holds per row, not per batch
    for mode in ("none", "full", detector.ErrorAggregate(prog.name)):
        t = engine.execute_rows(prog, [x] * 3,
                                engine.EngineConfig(max_steps=steps), (),
                                mode)
        assert t.steps == 3 * steps
    with pytest.raises(engine.StepBudgetExceeded):
        detector.collect(prog, [x] * 3,
                         engine.EngineConfig(max_steps=steps - 1))


# a self-looping block entered three times, each time for ten passes
NESTED = """
func f(x) -> s
  s = fconst 0.0
  j = iconst 0
outer:
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 10
  branch c, top
  j = iadd j, 1
  d = icmp lt, j, 3
  branch d, outer
  ret s
"""


def test_step_budget_is_exact_in_a_self_loop_in_stream_mode():
    prog = tac.parse_program(NESTED)
    x = [mp.from_float(0.1)]
    steps = 2 + 3 * (1 + 4 * 10 + 3) + 1
    cfg = engine.EngineConfig(max_steps=steps)
    agg = detector.ErrorAggregate(prog.name)
    t = engine.execute(prog, x, cfg, sample_mode=agg)
    assert t.steps == steps
    assert t.exec_counts == [1, 1, 3, 30, 30, 30, 30, 3, 3, 3, 1]
    assert [agg.instrs[i].m for i in (0, 3)] == [1, 30]
    # the sampling blocks, s = fconst's and then the fadd's, in the order
    # of their first entries, and the index after the row
    run = engine._compiled(prog, cfg, frozenset(), "stream")
    out = run([x], agg.sinks(run.sampled), 0, None)
    assert out[4:] == ([0, 1], 1)
    # every smaller budget stops the run, inside the loop or out of it
    for budget in range(1, steps):
        cfg = engine.EngineConfig(max_steps=budget)
        with pytest.raises(engine.StepBudgetExceeded):
            engine.execute(prog, x, cfg,
                           sample_mode=detector.ErrorAggregate(prog.name))


def test_max_steps_must_be_positive():
    with pytest.raises(ValueError):
        engine.EngineConfig(max_steps=0)


def test_read_before_assignment_is_an_engine_error(tmp_path, capsys):
    # a program that may read before assigning cannot be built, so it
    # fails before any input, including one that avoids the bad read
    text = ("func f(x) -> y\n  c = icmp lt, x, 0.0\n  branch c, skip\n"
            "  t = fmov x\nskip:\n  y = fadd t, x\n  ret y\n")
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program(text)
    assert [(d.kind, d.instr_id) for d in exc.value.diagnostics] \
        == [("UnassignedVariable", 3)]
    path = tmp_path / "f.tac"
    path.write_text(text)
    code = cli.main(["run", "--program", str(path), "--input", "single:1"])
    assert code == 1
    assert "UnassignedVariable(instr 3)" in capsys.readouterr().err

    def faulty_sink(iid, dst, err):
        del err
        return err

    # the only assignment is never reached, so no path assigns `t`
    for text, iid in (("func f(x) -> y\n  y = fadd x, t\n  ret y\n"
                       "  t = fmov x\n", 0),
                      ("func f(x) -> y\n  jump over\n  t = fmov x\nover:\n"
                       "  y = fadd t, x\n  ret y\n", 2)):
        path.write_text(text)
        with pytest.raises(tac.TacValidationError,
                           match="UnassignedVariable"):
            tac.parse_program(text)
        code = cli.main(["run", "--program", str(path), "--input",
                         "single:1"])
        assert code == 1
        assert "UnassignedVariable(instr %d)" % iid \
            in capsys.readouterr().err

    # the same error raised by a sample sink is not the program's fault
    prog = tac.parse_program("func f(x) -> y\n  y = fadd x, x\n  ret y\n")
    with pytest.raises(UnboundLocalError):
        engine.execute(prog, [mp.from_float(1.0)], sample_mode=faulty_sink)


@pytest.mark.parametrize("body", ["", "  y = fmov x\n",
                                  "  y = fmov x\n  c = icmp eq, 0, 0\n"
                                  "  branch c, top\ntop:\n  y = fmov y\n"])
def test_unvalidated_program_without_ret_is_an_engine_error(body):
    # such a program cannot be built, so it never reaches the engine
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program("func f(x) -> y\n" + body)
    kinds = [d.kind for d in exc.value.diagnostics]
    assert kinds[-1] == "UnassignedReturn"
    assert kinds[:-1] == ([] if body == "" else ["MissingReturn"])
