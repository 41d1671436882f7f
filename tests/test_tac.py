"""Parser, validator, and printer tests for the TAC program format."""

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from precfix import engine, tac
from precfix import mpfloat as mp

SIMPLE = """
func round_kernel(x) -> y
  const toint = 0x1.8p52
  t1 = fadd x, toint
  y = fsub t1, toint
  ret y
"""

LOOP = """
func accum(x) -> s
  s = fconst 0.0
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 10000
  branch c, top
  ret s
"""


def diagnostics(text):
    """The diagnostics that reject the program `text`."""
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program(text)
    return exc.value.diagnostics


def test_parse_basic():
    p = tac.parse_program(SIMPLE)
    assert p.name == "round_kernel"
    assert p.params == ("x",)
    assert p.return_var == "y"
    assert [i.op for i in p.instrs] == ["fadd", "fsub", "ret"]
    assert [i.id for i in p.instrs] == [0, 1, 2]


def test_const_value_is_exact():
    p = tac.parse_program(SIMPLE)
    c = p.consts["toint"]
    assert c.fval.to_float() == 1.5 * 2 ** 52


def test_labels_map_to_instruction_ids():
    p = tac.parse_program(LOOP)
    assert p.labels == {"top": 2}


def test_comments_and_blank_lines_ignored():
    p = tac.parse_program("# hello\n\n" + SIMPLE + "\n# bye\n")
    assert len(p.instrs) == 3


def test_round_trip_plain():
    p = tac.parse_program(LOOP)
    q = tac.parse_program(tac.pretty_print(p))
    assert p == q


def test_round_trip_with_barriers():
    p = tac.parse_program(SIMPLE)
    text = tac.pretty_print(p, barriers={1})
    assert "reducePrec(&y, 1);" in text
    assert "resumePrec(&y, 1);" in text
    assert 'computeErr("y", &y, 1);' in text
    # annotations are tolerated on the way back in
    q = tac.parse_program(text)
    assert p == q


def test_float_literal_operands():
    p = tac.parse_program("func f(x) -> y\n  y = fmul x, 2.5\n  ret y\n")
    # a decimal literal's payload is its text, rounded when compiled
    assert p.instrs[0].srcs[1] == (tac.FLIT, "2.5", "2.5")


def test_negative_and_hex_int_literals():
    p = tac.parse_program(
        "func f(x) -> y\n  a = iconst -3\n  b = iand a, 0xFF\n"
        "  y = fmov x\n  ret y\n")
    assert p.instrs[0].srcs[0][1] == -3
    assert p.instrs[1].srcs[1][1] == 0xFF


def test_syntax_errors():
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program("not a header\n")
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program("func f(x) -> y\n  y = frobnicate x\n  ret y\n")
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program("func f(x) -> y\n  y = fadd x\n  ret y\n")  # arity
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program("func f(x) -> y\n  y = fadd x, 1.0, 2.0\n  ret y\n")
    # the last: a decimal literal past the digit bound, which the engine
    # could not round
    for body in ("  y =\n", "  = fmov x\n", "  y = ret x\n",
                 "  fmov x\n", "  y = fconst %s\n" % ("1" * 5000)):
        with pytest.raises(tac.TacSyntaxError):
            tac.parse_program("func f(x) -> y\n" + body + "  ret y\n")
    # text without a header, and a label with no instruction after it
    for text, message in (
            ("", "line 1: missing func header"),
            ("# a comment\n", "line 1: missing func header"),
            ("func f(x) -> y\n  y = fmov x\n  ret y\nend:\n",
             "line 4: label at end of function")):
        with pytest.raises(tac.TacSyntaxError, match=message):
            tac.parse_program(text)


def test_undefined_label_diagnostic():
    bad = "func f(x) -> y\n  c = iconst 1\n  branch c, nowhere\n" \
          "  y = fmov x\n  ret y\n"
    with pytest.raises(tac.TacValidationError) as exc:
        tac.parse_program(bad)
    assert any(d.kind == "UndefinedLabel" for d in exc.value.diagnostics)


def test_undefined_variable_diagnostic():
    bad = "func f(x) -> y\n  y = fadd x, z\n  ret y\n"
    diags = diagnostics(bad)
    assert any(d.kind == "UndefinedVariable" for d in diags)


def test_type_mismatch_diagnostic():
    bad = "func f(x) -> y\n  i = iconst 1\n  y = fadd x, i\n  ret y\n"
    diags = diagnostics(bad)
    assert any(d.kind == "TypeMismatch" for d in diags)


def test_icmp_mixed_types_rejected():
    bad = "func f(x) -> x\n  i = iconst 1\n  c = icmp lt, x, i\n  ret x\n"
    diags = diagnostics(bad)
    assert any(d.kind == "TypeMismatch" for d in diags)


def test_unassigned_return_on_some_path():
    bad = """
func f(x) -> y
  c = iconst 0
  branch c, skip
  y = fmov x
skip:
  ret y
"""
    diags = diagnostics(bad)
    assert any(d.kind == "UnassignedReturn" for d in diags)


@pytest.mark.parametrize("body, iid", [
    # a skipped branch
    ("  c = iconst 0\n  branch c, skip\n  t = fmov x\nskip:\n"
     "  y = fadd t, x\n  ret y\n", 3),
    # a read whose only assignment comes after the ret
    ("  y = fadd x, t\n  ret y\n  t = fmov x\n", 0),
    # a jumped-over assignment
    ("  jump over\n  t = fmov x\nover:\n  y = fadd t, x\n  ret y\n", 2),
], ids=["skipped_branch", "after_ret", "jumped_over"])
def test_read_before_assignment_diagnostic(body, iid):
    diags = diagnostics("func f(x) -> y\n" + body)
    assert [(d.kind, d.instr_id) for d in diags] \
        == [("UnassignedVariable", iid)]
    assert "'t' may be read before it is assigned" in str(diags[0])


def test_assigned_on_all_paths_is_clean():
    ok = """
func f(x) -> y
  c = iconst 0
  branch c, other
  y = fmov x
  ret y
other:
  y = fneg x
  ret y
"""
    assert tac.validate(tac.parse_program(ok)) == []


def test_missing_return_diagnostic():
    bad = "func f(x) -> y\n  y = fmov x\n"
    diags = diagnostics(bad)
    assert any(d.kind in ("MissingReturn", "UnassignedReturn")
               for d in diags)


FALL = """
func f(x) -> y
  jump start
done:
  ret y
start:
  y = fmov x
  c = icmp lt, x, 0.0
  branch c, done
"""


def test_branch_falling_off_the_end_is_a_missing_return():
    diags = diagnostics(FALL)
    assert [(d.kind, d.instr_id) for d in diags] == [("MissingReturn", 4)]


def test_jump_as_last_instruction_is_valid():
    ok = FALL.replace("  branch c, done\n", "  jump done\n")
    assert tac.validate(tac.parse_program(ok)) == []


@pytest.mark.parametrize("ret", ["i", "3"])
def test_integer_ret_is_a_type_mismatch(ret):
    bad = "func f(x) -> y\n  i = iconst 1\n  ret %s\n" % ret
    diags = diagnostics(bad)
    assert [(d.kind, d.instr_id) for d in diags] == [("TypeMismatch", 1)]
    # an integer const read as a float operand is its float value
    for operand in ("2.5", "k"):
        assert tac.validate(tac.parse_program(
            "func f(x) -> y\n  const k = 7\n  ret %s\n" % operand)) == []


def test_repeated_parameter_is_a_duplicate_name():
    bad = "func f(x, x) -> y\n  y = fadd x, x\n  ret y\n"
    diags = diagnostics(bad)
    assert [(d.kind, d.instr_id) for d in diags] == [("DuplicateName", -1)]
    assert "'x' is repeated" in diags[0].message
    # a parameter may not share a name with a const either
    diags = diagnostics("func f(k) -> y\n  const k = 1.0\n  y = fmov k\n"
                        "  ret y\n")
    assert [str(d) for d in diags] \
        == ["DuplicateName(instr -1): parameter 'k' shadows a const"]


def test_long_literals_are_quoted_clipped():
    for operand in ("1.5" + "z" * 3000, "0x1p" + "z" * 3000,
                    "1" + "z" * 3000):
        op = "iadd" if operand[1] == "z" else "fmul"
        with pytest.raises(tac.TacSyntaxError) as exc:
            tac.parse_program("func f(x) -> y\n  i = iconst 1\n"
                              "  y = %s x, %s\n  ret y\n" % (op, operand))
        assert len(str(exc.value)) < 150
        assert "(%d characters)" % len(operand) in str(exc.value)


def test_render_instr_forms():
    p = tac.parse_program(LOOP)
    assert tac.render_instr(p.instrs[0]) == "s = fconst 0.0"
    assert tac.render_instr(p.instrs[4]) == "c = icmp lt, i, 10000"
    assert tac.render_instr(p.instrs[5]) == "branch c, top"
    assert tac.render_instr(p.instrs[6]) == "ret s"


def test_ids_are_dense_across_labels_and_consts():
    p = tac.parse_program(LOOP)
    assert [i.id for i in p.instrs] == list(range(7))


def test_duplicate_label_rejected():
    bad = "func f(x) -> y\na:\n  y = fmov x\na:\n  ret y\n"
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program(bad)


def test_const_reference_in_int_context():
    p = tac.parse_program(
        "func f(x) -> y\n  const mask = 0xFF\n  h = get_hi x\n"
        "  h2 = iand h, mask\n  y = set_hi x, h2\n  ret y\n")
    assert p.instrs[1].srcs[1][:2] == (tac.ILIT, 0xFF)


def test_float_const_in_int_context_rejected():
    bad = "func f(x) -> y\n  const k = 1.5\n  a = iconst 1\n" \
          "  b = iadd a, k\n  y = fmov x\n  ret y\n"
    with pytest.raises(tac.TacSyntaxError):
        tac.parse_program(bad)


def test_exact_literal_precision_beyond_binary64():
    # all 27 significant digits survive parsing: nothing is rounded before
    # the engine rounds the text at p_orig
    p = tac.parse_program(
        "func f(x) -> y\n  y = fmul x, 0.100000001490116119384765625\n"
        "  ret y\n")
    lit = p.instrs[0].srcs[1][1]
    assert lit == "0.100000001490116119384765625"
    assert mp.to_decimal_string(mp.from_decimal_string(lit, 90), 27) == lit


def test_long_names_in_diagnostics_are_quoted_clipped():
    name = "q" * 3000
    for body in ("  c = iconst 1\n  branch c, %s\n  ret x\n" % name,
                 "  y = fadd x, %s\n  ret y\n" % name,
                 # TypeMismatch: an integer read as a float, a variable
                 # assigned as both types
                 "  %s = iconst 1\n  y = fadd x, %s\n  ret y\n" % (name, name),
                 "  %s = iconst 1\n  %s = fmov x\n  ret x\n" % (name, name)):
        with pytest.raises(tac.TacValidationError) as exc:
            tac.parse_program("func f(x) -> y\n" + body)
        assert len(str(exc.value)) < 150
        assert "(3000 characters)" in str(exc.value)


def test_strict_is_gone():
    with pytest.raises(TypeError):
        tac.parse_program(SIMPLE, strict=False)


def test_program_built_from_an_invalid_body_raises():
    # a program is built only from its text: its fields cannot be passed
    with pytest.raises(TypeError):
        tac.TacProgram("f", ["x"], [tac.TacInstr(0, "ret", None, (
            (tac.VAR, "x"),))], "x")
    head = "func f(x) -> y\n  y = fmov x\n"
    with pytest.raises(tac.TacValidationError) as exc:
        tac.TacProgram(head)
    assert [d.kind for d in exc.value.diagnostics] \
        == ["MissingReturn", "UnassignedReturn"]
    with pytest.raises(tac.TacValidationError) as exc:
        tac.TacProgram(head + "  jump nowhere\n")
    assert [d.kind for d in exc.value.diagnostics][0] == "UndefinedLabel"
    # a valid body gives a program whose fields are tuples and mappings
    p = tac.TacProgram(head + "  ret y\n")
    assert p == tac.parse_program(head + "  ret y\n")
    assert (p.params, len(p.instrs), dict(p.types)) \
        == (("x",), 2, {"x": "f", "y": "f"})


# The shape rule that TacProgram enforced on programs built from records,
# kept as the reference that every parsed program must meet: an operand
# is a (tag, payload[, text]) tuple of a tag its opcode's kind admits, with
# text only on literals and predicates from PREDS.
_OPERAND_TAGS = {"flit": (tac.FLIT,), "ilit": (tac.ILIT,),
                 "label": (tac.LABEL,), "pred": (tac.PRED,)}
_PAYLOADS = {tac.VAR: str, tac.FLIT: mp.MPFloat, tac.ILIT: int,
             tac.LABEL: str, tac.PRED: str}


def _operand_fits(kind, operand):
    if not isinstance(operand, tuple) or len(operand) not in (2, 3):
        return False
    tag, payload = operand[0], operand[1]
    if tag not in _OPERAND_TAGS.get(kind, (tac.VAR, tac.FLIT, tac.ILIT)):
        return False
    if len(operand) == 3 and not (tag in (tac.FLIT, tac.ILIT)
                                  and isinstance(operand[2], str)):
        return False
    if tag == tac.PRED:
        return payload in tac.PREDS
    if tag == tac.FLIT and isinstance(payload, str):  # a decimal's text
        try:
            mp._decimal(payload)
        except mp.ParseError:
            return False
        return True
    return isinstance(payload, _PAYLOADS[tag])


# operand texts: float and int variables, literals of every form, the
# consts k (integer) and h (float), labels and predicates, and text no
# operand may be
_FLOATS, _INTS = ["x", "y", "t"], ["i", "c"]
_DECIMALS = ["0.1", "-0", "1.5", "1e300", "2.5e-310", "3"]
_HEX_FLOATS = ["0x1.8p52", "-0x1p-1074", "0x1p1023"]
_INT_TEXTS = ["0", "3", "-1", "64", "0x3FF00000", "0x1" + "0" * 17]
_FITTING = {
    "flit": _DECIMALS + _HEX_FLOATS + ["h", "k"],
    "ilit": _INT_TEXTS + ["k"],
    "label": ["a", "b"],
    "pred": list(tac.PREDS),
    "i": _INTS + _INT_TEXTS + ["k"],
    "f": _FLOATS + ["x", "x"] + _DECIMALS + _HEX_FLOATS + ["h"],
}
_FITTING["v"] = _FLOATS + _DECIMALS + _HEX_FLOATS + ["h"]
_ANY_TEXT = sorted({t for ts in _FITTING.values() for t in ts}
                   | {"k", "zz", "bogus", "1e", "0x1p", "1.2.3", "0xZ",
                      "a-b", "2.5x", ""})
# each variable's first assignment, each line kept or not
_PRELUDE = ["  y = fmov x", "  t = fconst 0.5", "  i = iconst 3",
            "  c = iconst 1"]


@st.composite
def program_texts(draw):
    """TAC text drawn line by line from the opcode table: a header, consts,
    labels and instructions.  A third of the texts take any operand text,
    destination, opcode or operand count somewhere; the rest take operand
    texts that fit their kinds, so that many of them build."""
    bad = draw(st.integers(0, 2)) == 0
    params = ["x"] + draw(st.lists(st.sampled_from(["y", "t", "k"]),
                                   max_size=1))
    lines = ["func f(%s) -> y" % ", ".join(params)]
    lines += draw(st.lists(st.sampled_from(
        ["  const k = 3", "  const h = 0.5", "  const h = 0x1p-3"]),
        max_size=2, unique=True))
    lines += [line for line in _PRELUDE if draw(st.integers(0, 5))]
    ops = sorted(tac.OPCODES)
    labels = ["a", "b", "zz"]
    for _ in range(draw(st.integers(1, 7))):
        if labels and draw(st.integers(0, 3)) == 0:
            label = draw(st.sampled_from(labels))
            lines.append("%s:" % label)
            if not bad:
                labels.remove(label)
        op = draw(st.sampled_from(ops))
        kinds, dkind = tac.OPCODES[op]
        if bad and draw(st.booleans()):
            op = draw(st.one_of(st.just(op), st.sampled_from(["bogus",
                                                               "FADD"])))
            dst = draw(st.sampled_from([None, "y", "i", "2.5"]))
            srcs = draw(st.lists(st.sampled_from(_ANY_TEXT), max_size=4))
        else:
            dst = None if dkind is None else draw(st.sampled_from(
                _INTS if dkind == "i" else _FLOATS))
            # icmp compares two floats or two integers
            x = draw(st.sampled_from("fi"))
            srcs = [draw(st.sampled_from(_FITTING[x if k == "x" else k]))
                    for k in kinds]
        instr = "%s %s" % (op, ", ".join(srcs))
        lines.append("  " + (instr if dst is None else "%s = %s" % (dst,
                                                                   instr)))
    if not bad:
        lines.append("  ret %s" % draw(st.sampled_from(_FITTING["v"])))
    elif draw(st.booleans()):
        lines.append("  ret %s" % draw(st.sampled_from(_ANY_TEXT)))
    return "\n".join(lines) + "\n"


@given(program_texts(), st.sampled_from(["full", "none"]))
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_program_texts_build_and_run_or_fail_cleanly(text, mode):
    try:
        prog = tac.parse_program(text)
    except (tac.TacSyntaxError, tac.TacValidationError):
        event("rejected")
        return
    event("built")
    n = len(prog.instrs)
    assert [instr.id for instr in prog.instrs] == list(range(n))
    assert all(type(t) is int and 0 <= t < n for t in prog.labels.values())
    for instr in prog.instrs:
        kinds, dkind = tac.OPCODES[instr.op]
        assert (instr.dst is None) == (dkind is None)
        assert instr.dst is None or tac._NAME_RE.match(instr.dst)
        assert type(instr.srcs) is tuple and len(instr.srcs) == len(kinds)
        assert all(_operand_fits(kind, operand)
                   for kind, operand in zip(kinds, instr.srcs)), instr
    for precs in ((24, 60), (53, 120)):
        cfg = engine.EngineConfig(*precs, max_steps=500)
        for x in ("1.5", "-0", "1e300"):
            row = [mp.from_decimal_string(x, 53)] * len(prog.params)
            try:
                engine.execute_rows(prog, [row], cfg, sample_mode=mode)
            except engine.EngineError:
                event("engine error")


def test_parsed_program_cannot_be_changed():
    p = tac.parse_program(LOOP)
    with pytest.raises(TypeError):
        del p.labels["top"]
    with pytest.raises(TypeError):
        p.consts["k"] = None
    with pytest.raises(AttributeError):
        p.instrs.append(p.instrs[0])
    with pytest.raises(AttributeError):
        p.params.append("z")
    for field in ("name", "instrs", "labels", "params", "compiled"):
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(p, field))
    assert p.labels == {"top": 2} and len(p.instrs) == 7


def test_control_flow_blocks_and_reachability():
    p = tac.parse_program("""
func f(x) -> y
  y = fmov x
  i = iconst 0
top:
  i = iadd i, 1
  c = icmp lt, i, 3
  branch c, top
  d = icmp lt, x, 0.0
  branch d, neg
  ret y
  y = fneg y
neg:
  y = fneg y
  jump out
out:
  ret y
""")
    blocks, reached = tac.control_flow(p)
    # a branch lists its target before its fall-through; the block after
    # the first ret is reached by nothing
    assert blocks == [(0, 2, (1,)), (2, 5, (1, 2)), (5, 7, (5, 3)),
                      (7, 8, ()), (8, 9, (5,)), (9, 11, (6,)),
                      (11, 12, ())]
    assert reached == {0, 1, 2, 3, 5, 6}


def test_bad_parameter_names():
    for params, bad in (("x, 2.5", "2.5"), ("x,,y", ""), ("x, a-b", "a-b"),
                        ("x, 9" + "q" * 3000, "9" + "q" * 3000)):
        diags = diagnostics("func f(%s) -> y\n  y = fmov x\n  ret y\n"
                            % params)
        assert [(d.kind, d.instr_id) for d in diags] == [("BadName", -1)]
        assert str(diags[0]) == "BadName(instr -1): parameter %s is not " \
            "a name" % mp.quote(bad)
        assert len(str(diags[0])) < 150
    p = tac.parse_program("func f() -> y\n  y = fconst 1.5\n  ret y\n")
    assert p.params == ()


@pytest.mark.parametrize("text, kind, want", [
    ("k", "f", (tac.FLIT, 7)), ("k", "i", (tac.ILIT, 7)),
    ("k", "x", (tac.FLIT, 7)), ("k", "flit", (tac.FLIT, 7)),
    ("k", "ilit", (tac.ILIT, 7)), ("v", "f", (tac.VAR, "v")),
    ("v", "x", (tac.VAR, "v")), ("3", "x", (tac.ILIT, 3)),
    ("0x1F", "v", (tac.ILIT, 31)), ("3", "f", (tac.FLIT, "3")),
    ("3.5", "x", (tac.FLIT, "3.5")), ("1e2", "v", (tac.FLIT, "1e2")),
    ("-4", "i", (tac.ILIT, -4)), ("2", "flit", (tac.FLIT, "2")),
])
def test_one_operand_path(text, kind, want):
    # a decimal literal's payload is its text, a const's its value
    consts = {"k": tac.ConstDef("k", "7", mp.from_int(7), True, 7)}
    got = tac._parse_operand(text, kind, consts, 1)
    value = got[1].to_float() if isinstance(got[1], mp.MPFloat) else got[1]
    assert (got[0], value) == want


@pytest.mark.parametrize("text, kind, message", [
    ("v", "ilit", "bad integer literal 'v'"),
    ("v", "flit", "bad decimal literal"),
    ("h", "i", "const 'h' is not integer"),
    ("1.5", "i", "bad integer literal '1.5'"),
    ("zz", "pred", "bad predicate 'zz'"),
])
def test_operand_errors(text, kind, message):
    consts = {"h": tac.ConstDef("h", "0.5", mp.from_float(0.5), False)}
    with pytest.raises(tac.TacSyntaxError, match=message):
        tac._parse_operand(text, kind, consts, 1)
