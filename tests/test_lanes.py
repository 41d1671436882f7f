"""Differential tests for the engine's lanes.

At p_orig = 53 the original lane is a host float; every operation on it,
run as a generated one-instruction program, must give the same binary64
value, bit for bit, as the mpfloat BINARY64 policy.  The shadow of
fadd/fsub/fmul must round to nearest at p_shadow as mpmath does, and the
stream-mode error taken from a host float must equal the one taken from
its MPFloat.
"""

import functools
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from precfix import cli, corpus, engine, tac
from precfix import mpfloat as mp
import mpmath_ref
from mpmath_ref import fields

CFG = engine.EngineConfig()
B64 = mp.BINARY64
MP = {"fadd": mp.add, "fsub": mp.sub, "fmul": mp.mul, "fdiv": mp.div}


def float_of(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# encoding of a host-lane value, every NaN canonical as in mpfloat
host_bits = engine._float_bits


SPECIAL_BITS = [
    0, 1 << 63,                                  # +-0
    0x7FF0 << 48, 0xFFF0 << 48,                  # +-inf
    0x7FF8 << 48, 0xFFF8 << 48,                  # quiet NaNs
    0x7FF0000000000001, 0xFFF4000000000000,      # NaN payloads
    1, (1 << 63) | 1,                            # smallest subnormals
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,      # largest subnormals
    0x0010000000000000, 0x8010000000000000,      # smallest normals
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,      # largest normals
    0x3FF0000000000000, 0xBFF0000000000000,      # +-1
    0x4330000000000000, 0x4338000000000000,      # 2^52, 1.5 * 2^52
]

b64_bits = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.sampled_from(SPECIAL_BITS),
    st.builds(lambda s, f: (s << 63) | f, st.integers(0, 1),
              st.integers(min_value=1, max_value=(1 << 52) - 1)),
)


# -- host-lane operations against mpfloat BINARY64 ----------------------------


@functools.lru_cache(maxsize=None)
def _step(op, arity, p=120, p_o=53):
    """The generated function of the program `y = op a[, b]` at p_orig =
    p_o and p_shadow = p."""
    params = ", ".join("ab"[:arity])
    prog = tac.parse_program("func f(%s) -> y\n  y = %s %s\n  ret y\n"
                             % (params, op, params))
    return engine._compiled(prog, engine.EngineConfig(p_o, p), frozenset(),
                            "none")


def host_op(op, *xs):
    """The host-float original lane of `y = op xs...`, the host floats xs
    admitted as the row's inputs."""
    return _step(op, len(xs))([[mp.from_float(x) for x in xs]], None, 0,
                              None)[0]


@given(b64_bits, b64_bits, st.sampled_from(["fadd", "fsub", "fmul", "fdiv"]))
@settings(max_examples=1500, deadline=None)
def test_host_binary_ops_match_binary64(ba, bb, op):
    got = host_op(op, float_of(ba), float_of(bb))
    want = MP[op](mp.from_binary64_bits(ba), mp.from_binary64_bits(bb), 53,
                  B64)
    assert host_bits(got) == mp.to_binary64_bits(want)


def test_host_division_by_zero_and_specials():
    assert host_op("fdiv", 1.0, 0.0) == math.inf
    assert host_op("fdiv", 1.0, -0.0) == -math.inf
    assert host_op("fdiv", -2.0, 0.0) == -math.inf
    assert host_op("fdiv", -math.inf, -0.0) == math.inf
    assert math.isnan(host_op("fdiv", 0.0, 0.0))
    assert math.isnan(host_op("fdiv", math.nan, 0.0))
    assert math.isnan(host_op("fsub", math.inf, math.inf))
    assert host_bits(host_op("fadd", -0.0, -0.0)) == 1 << 63
    assert host_bits(host_op("fsub", 1.5, 1.5)) == 0
    assert math.isnan(host_op("fsqrt", -1.0))
    assert math.isnan(host_op("fsqrt", -math.inf))
    assert host_bits(host_op("fsqrt", -0.0)) == 1 << 63


@given(b64_bits)
@settings(max_examples=1000, deadline=None)
def test_host_unary_ops_match_binary64(bits):
    x = float_of(bits)
    v = mp.from_binary64_bits(bits)
    assert host_bits(host_op("fsqrt", x)) \
        == mp.to_binary64_bits(mp.sqrt(v, 53, B64))
    assert host_bits(host_op("fneg", x)) == mp.to_binary64_bits(mp.neg(v))
    assert host_bits(host_op("fabs", x)) == mp.to_binary64_bits(mp.abs_(v))
    if v.cls in (mp.INF, mp.NAN):
        with pytest.raises(ValueError):
            mp.round_to(mp.floor(v), 53, B64)
        with pytest.raises(ValueError):
            host_op("ffloor", x)
    else:
        assert host_bits(host_op("ffloor", x)) \
            == mp.to_binary64_bits(mp.round_to(mp.floor(v), 53, B64))


# the mp.cmp results (-1/0/1, None when unordered) each icmp predicate
# accepts, and a program per predicate that returns 1.0 when it holds
ACCEPTS = {"lt": (-1,), "le": (-1, 0), "gt": (1,), "ge": (0, 1),
           "eq": (0,), "ne": (-1, 1, None)}
CMP_PROGS = {pred: tac.parse_program(
    "func f(x, y) -> z\n  c = icmp %s, x, y\n  branch c, yes\n"
    "  z = fconst 0.0\n  ret z\nyes:\n  z = fconst 1.0\n  ret z\n" % pred)
    for pred in ACCEPTS}


@given(b64_bits, b64_bits)
@settings(max_examples=1000, deadline=None)
@example(0, 1 << 63)
@example(0x7FF8 << 48, 0x7FF8 << 48)
@example(0x7FF0 << 48, 0x7FF0 << 48)
@example(1, 0)
def test_host_compare_matches_binary64(ba, bb):
    """A float icmp at 53:120, run through the engine, against mp.cmp of
    the same binary64 values."""
    a, b = mp.from_binary64_bits(ba), mp.from_binary64_bits(bb)
    c = mp.cmp(a, b)
    for pred, prog in CMP_PROGS.items():
        got = engine.execute(prog, [a, b], CFG, sample_mode="none")
        assert got.result.orig.to_float() \
            == (1.0 if c in ACCEPTS[pred] else 0.0), pred


def test_icmp_on_nan_is_false_except_ne():
    for pred in ("lt", "le", "gt", "ge", "eq", "ne"):
        text = ("func f(x) -> y\n  t = fsqrt x\n  c = icmp %s, t, x\n"
                "  branch c, yes\n  y = fconst 0.0\n  ret y\n"
                "yes:\n  y = fconst 1.0\n  ret y\n" % pred)
        tr = engine.execute(tac.parse_program(text),
                            [mp.from_float(-4.0)], CFG, sample_mode="none")
        assert tr.result.orig.to_float() == (1.0 if pred == "ne" else 0.0)


def test_ffloor_of_non_finite_still_raises():
    prog = tac.parse_program("func f(x) -> y\n  y = ffloor x\n  ret y\n")
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            engine.execute(prog, [mp.from_float(x)], CFG)


# -- word operations and admission ------------------------------------------

WORDS = """
func f(x) -> y
  h = get_hi x
  l = get_lo x
  t = set_lo x, h
  y = set_hi t, l
  ret y
"""


@given(b64_bits)
@settings(max_examples=500, deadline=None)
def test_word_ops_match_binary64_encoding(bits):
    prog = tac.parse_program(WORDS)
    tr = engine.execute(prog, [mp.from_binary64_bits(bits)], CFG)
    x = mp.from_binary64_bits(bits)
    canon = mp.to_binary64_bits(x)  # every NaN reads as 0x7FF8 << 48
    h, l = canon >> 32, canon & 0xFFFFFFFF
    t = mp.from_binary64_bits((canon >> 32 << 32) | h)
    want = mp.from_binary64_bits((l << 32)
                                 | mp.to_binary64_bits(t) & 0xFFFFFFFF)
    assert fields(tr.result.orig) == fields(want)
    # a write is replayed on the shadow only while the lanes agree
    stale = x.cls == mp.NAN or t.cls == mp.NAN
    assert tr.result.stale == stale
    if not stale:
        assert fields(tr.result.shadow) == fields(mp.extend(want, 120))
    assert engine._float_bits(engine._bits_float(bits)) == canon


@given(mpmath_ref.mpfloats(300, st.integers(-1200, 1200)))
@settings(max_examples=500, deadline=None)
def test_admission_rounds_to_binary64(v):
    o, s = engine._admit(v, 53, 120, B64)
    want = mp.round_to(v, 53, B64)
    assert host_bits(o) == mp.to_binary64_bits(want)
    assert fields(s) == fields(mp.extend(want, 120))


@given(st.sampled_from([53, 24, 113]), st.sampled_from([1, -1]),
       st.integers(min_value=0), st.integers(-70, 8), st.booleans())
@settings(max_examples=500, deadline=None)
def test_admission_of_values_with_p_orig_bits(p, sign, frac, off, top):
    # next to the subnormals and the overflow threshold at 53 bits, next to
    # the exponent limit at any other precision
    if p == 53:
        exp = 1023 - off if top else -1022 + off
    else:
        exp = mp._EXP_LIMIT - off if top else -mp._EXP_LIMIT + off
    v = mp.MPFloat(mp.NORMAL, sign, exp, (1 << (p - 1)) | frac % (1 << (p - 1)),
                   p)
    o, s = engine._admit(v, p, 200, mp.policy_for(p))
    want = mp.round_to(v, p, mp.policy_for(p))
    orig = mp.from_float(o) if p == 53 else o
    assert fields(orig) == fields(want)
    assert fields(s) == fields(mp.extend(want, 200))


# -- the shadow of fadd/fsub/fmul -------------------------------------------


@given(st.integers(54, 400).flatmap(
    lambda p: mpmath_ref.cases(["add", "sub", "mul"], p, p)))
@settings(max_examples=1500, deadline=None)
def test_shadow_arith_matches_mpmath(case):
    # at p_orig = p_shadow = p the operands, of at most p bits, are
    # admitted exactly, and both lanes are the same mpfloat call
    op, p, a, b = case
    assert a.prec <= p and b.prec <= p
    orig, shadow = _step("f" + op, 2, p, p)([[a, b]], None, 0, None)[:2]
    assert fields(shadow) == mpmath_ref.reference(op, a, b, p)
    assert fields(orig) == fields(shadow)


# -- stream-mode errors -----------------------------------------------------


SHADOWS = mpmath_ref.mpfloats(1200, st.integers(-1200, 1200))


@st.composite
def lane_pairs(draw):
    """(shadow, host original, p_shadow) with the shadow near, far from, or
    equal to the original, in every class."""
    p_s = draw(st.integers(54, 1200))
    x = float_of(draw(b64_bits))
    kind = draw(st.sampled_from(["near", "far", "equal", "any"]))
    if kind == "any" or not (x == x and x - x == 0 and x):
        return draw(SHADOWS), x, p_s
    o = mp.extend(mp.from_float(x), p_s)
    if kind == "equal":
        return o, x, p_s
    if kind == "far":
        delta = draw(st.integers(-700, 700))
        low = p_s - 1
    else:
        delta = draw(st.integers(-1, 1))
        low = draw(st.integers(1, p_s - 1))
    frac = draw(st.integers(min_value=0)) % (1 << low)
    shadow = mp.MPFloat(mp.NORMAL, draw(st.sampled_from([o.sign, -o.sign])),
                        o.exp + delta, (o.mant ^ frac) | (1 << (p_s - 1)),
                        p_s)
    return shadow, x, p_s


@given(lane_pairs())
@settings(max_examples=1500, deadline=None)
def test_host_error_matches_mpfloat_error(pair):
    shadow, x, p_s = pair
    got = mp._rel_err_host(shadow, x, p_s)
    want = mp._rel_err_float(shadow, mp.from_float(x), p_s)
    assert struct.pack("<d", got) == struct.pack("<d", want)


@st.composite
def mp_lane_pairs(draw):
    """(shadow, MPFloat original, p_shadow): a shadow at p_shadow near, far
    from, or equal to an original of at most that precision, as the engine
    pairs them, or any two values; every class throughout."""
    p_s = draw(st.integers(2, 1200))
    o = draw(mpmath_ref.mpfloats(min(p_s, 300), st.integers(-1200, 1200)))
    kind = draw(st.sampled_from(["near", "far", "equal", "any"]))
    if kind == "any" or o.cls != mp.NORMAL:
        return mp.round_to(draw(SHADOWS), p_s), o, p_s
    s = mp.extend(o, p_s)
    if kind == "equal":
        return s, o, p_s
    flip = draw(st.integers(0, (1 << (p_s - 1)) - 1))
    delta = draw(st.integers(-700, 700) if kind == "far"
                 else st.integers(-1, 1))
    return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])) * s.sign,
                      s.exp + delta, s.mant ^ flip, p_s), o, p_s


def _relative_error(shadow, orig):
    """|shadow - orig| / |shadow| from mp.relative_error at 200 bits, far
    past the host float the engine returns."""
    return mp.relative_error(shadow, orig, 200).to_float()


def _close(got, want):
    """The same conventions (inf and 0), and values within the few
    roundings of a host-float quotient."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= 2.0**-49 * max(got, want) + 2.0**-1070


@given(mp_lane_pairs())
@settings(max_examples=600, deadline=None)
def test_float_error_matches_relative_error(pair):
    shadow, orig, p_s = pair
    got = mp._rel_err_float(shadow, orig, p_s)
    assert _close(got, _relative_error(shadow, orig)), got


@given(lane_pairs())
@settings(max_examples=600, deadline=None)
def test_host_error_matches_relative_error(pair):
    shadow, x, p_s = pair
    got = mp._rel_err_host(shadow, x, p_s)
    assert _close(got, _relative_error(shadow, mp.from_float(x))), got


def _quotient_error(shadow, orig, p_s):
    """The relative error of two normal lanes as the engine formed it
    before its far-apart closed form: the exact integer path when the
    lanes' lowest bits lie within 600 binades and fit a host float, else
    the difference rounded at p_shadow over the shadow, rounded to 53
    bits and then to a host float."""
    t = (shadow.exp - shadow.prec) - (orig.exp - orig.prec)
    if -600 < t < 600:
        a, b = shadow.mant, orig.mant
        if t >= 0:
            a <<= t
        else:
            b <<= -t
        d = a - b if shadow.sign == orig.sign else a + b
        if d == 0:
            return 0.0
        try:
            return float(abs(d)) / float(a)
        except OverflowError:
            pass
    d = mp.sub(shadow, orig, p_s)
    if d.cls == mp.ZERO:
        return 0.0
    q = abs(mp.div(d, shadow, 53).to_float())
    return q if q == q else math.inf


@st.composite
def far_pairs(draw):
    """(shadow, orig, p_shadow): normal lanes of either sign, powers of two
    among them, at p_shadow from 2 to 2000, whose leading bits lie on either side of the far-apart
    guard near p_shadow binades apart, 600 or more apart, or apart by about
    the float range, so that |orig| / |shadow| overflows or just fits."""
    p_s = draw(st.one_of(st.integers(2, 60), st.integers(53, 2000)))
    p_o = draw(st.one_of(st.just(min(53, p_s)), st.just(p_s),
                         st.integers(2, p_s)))
    p_sh = p_s + draw(st.one_of(st.just(0), st.integers(1, 80)))

    def value(p, e):
        frac = draw(st.one_of(st.just(0), st.just((1 << (p - 1)) - 1),
                              st.integers(0, (1 << (p - 1)) - 1)))
        return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])), e,
                          (1 << (p - 1)) | frac, p)

    gap = draw(st.one_of(st.integers(p_s - 3, p_s + 4),
                         st.integers(p_s + 590, p_s + 610),
                         st.integers(595, 700), st.integers(1018, 1030),
                         st.integers(0, 5000)))
    e = draw(st.integers(-1100, 1100))
    if draw(st.booleans()):
        return value(p_sh, e + gap), value(p_o, e), p_s
    return value(p_sh, e), value(p_o, e + gap), p_s


@given(far_pairs())
@settings(max_examples=800, deadline=None)
def test_far_apart_errors_match_the_quotient(pair):
    shadow, orig, p_s = pair
    want = struct.pack("<d", _quotient_error(shadow, orig, p_s))
    assert struct.pack("<d", mp._rel_err_float(shadow, orig, p_s)) \
        == want
    if orig.prec == 53 and -1022 <= orig.exp <= 1023:
        assert struct.pack("<d", mp._rel_err_host(
            shadow, orig.to_float(), p_s)) == want


@st.composite
def shadows_far_below(draw):
    """(shadow, host original, p_shadow) whose lowest bits lie 600 or more
    binades apart, the shadow below: its exponent next to the guard
    shadow.exp < orig.exp - p_shadow - 1 of the host quotient, on either
    side, or deeper down."""
    x = float_of(draw(b64_bits))
    assume(x == x and x - x == 0 and x)
    e = math.frexp(x)[1] - 1  # the exponent of mp.from_float(x)
    if draw(st.booleans()):
        # a power of two: past the guard, the difference at p_shadow can
        # round into the binade below
        x = math.ldexp(math.copysign(1.0, x), e)
    if draw(st.booleans()):
        # at the guard, lowest bits 600 binades apart take p_shadow >= 326
        # or a shadow wider than p_shadow
        p_s = draw(st.one_of(st.integers(54, 70), st.integers(330, 2000)))
        prec = max(p_s, 660 - p_s)
        exp = e - p_s - 1 + draw(st.integers(-4, 4))
    else:
        p_s = draw(st.integers(54, 2000))
        prec = draw(st.one_of(st.just(p_s), st.integers(2, p_s + 80)))
        exp = e - p_s - 2 - draw(st.integers(0, 3000))
    exp = min(exp, e - 53 - 600 + prec)  # t <= -600
    frac = draw(st.one_of(st.just(0), st.integers(0, (1 << (prec - 1)) - 1)))
    shadow = mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])), exp,
                        (1 << (prec - 1)) | frac, prec)
    return shadow, x, p_s


@given(shadows_far_below())
@settings(max_examples=800, deadline=None)
def test_host_error_of_a_shadow_far_below(pair):
    shadow, x, p_s = pair
    orig = mp.from_float(x)
    assert (shadow.exp - shadow.prec) - (orig.exp - orig.prec) <= -600
    got = mp._rel_err_host(shadow, x, p_s)
    assert struct.pack("<d", got) == struct.pack(
        "<d", mp._rel_err_float(shadow, orig, p_s))
    assert _close(got, _relative_error(shadow, orig)), got
    if shadow.exp < orig.exp - p_s - 1:
        # past the guard: |orig| / |shadow| rounded once
        q = Fraction(abs(x)) / (Fraction(shadow.mant)
                                * Fraction(2) ** (shadow.exp - shadow.prec + 1))
        try:
            want = float(q)
        except OverflowError:
            want = math.inf
        assert got == want


def test_rel_err_float_wide_shadow_takes_exact_fallback():
    # a 1100-bit shadow 2^500 times the original used to raise
    # OverflowError("int too large to convert to float")
    orig = mp.from_float(1.5)
    big = mp.extend(orig, 1100)
    shadow = mp.MPFloat(mp.NORMAL, 1, big.exp + 500, big.mant, 1100)
    assert mp._rel_err_float(shadow, orig, 1100) == 1.0
    assert mp._rel_err_host(shadow, 1.5, 1100) == 1.0


# Each class as a host float, in the order of NON_NORMAL's rows and columns.
CLASSES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -1.5]

# The error of each pair of classes that is not two normal numbers, shadow
# down and original across: 0 is 0.0, 1 is 1.0 and i is inf.
NON_NORMAL = """
        +0  -0  +inf -inf nan +1.5 -1.5
+0      0   0   i    i    i   i    i
-0      0   0   i    i    i   i    i
+inf    i   i   0    i    i   i    i
-inf    i   i   i    0    i   i    i
nan     i   i   i    i    i   i    i
+1.5    1   1   i    i    i   .    .
-1.5    1   1   i    i    i   .    .
"""


@pytest.mark.parametrize("p_s", [24, 53, 120])
def test_non_normal_pairs_take_the_conventions(p_s):
    """The error of every pair that is not both normal, written out rather
    than taken from relative_error, which _rel_err_float now calls for
    them."""
    value = {"0": 0.0, "1": 1.0, "i": math.inf}
    rows = [line.split()[1:] for line in NON_NORMAL.strip().splitlines()[1:]]
    checked = 0
    for s, row in zip(CLASSES, rows):
        shadow = mp.from_float(s, p_s)
        for x, cell in zip(CLASSES, row):
            if cell == ".":
                continue
            want = struct.pack("<d", value[cell])
            assert struct.pack("<d", mp._rel_err_float(
                shadow, mp.from_float(x), p_s)) == want, (s, x)
            assert struct.pack("<d", mp._rel_err_host(shadow, x, p_s)) \
                == want, (s, x)
            checked += 1
    assert checked == 45


HOST_MANT = 0x1B7E151628AED3  # an odd 53-bit significand


def _tie_mantissa(p, odd):
    """A p-bit mantissa whose rounding to 53 bits is a tie, which goes to
    even: down, or up when `odd` sets its 53rd bit."""
    return (1 << (p - 1)) | (int(odd) << (p - 53)) | (1 << (p - 54))


# float.hex of the error of a host original of significand HOST_MANT whose
# last bit lies t binades below the last bit of a p-bit shadow at exponent
# 0, by (p, odd, t): with the shadow's sign and with the other sign.  At
# t = 600 the lanes are far apart; below it the exact difference, whose
# rounding the original moves off the tie, decides.
BELOW_SHADOW = {
    (120, False, 1): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (120, False, 52): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (120, False, 599): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (120, False, 600): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (120, True, 1): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (120, True, 52): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (120, True, 599): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (120, True, 600): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (200, False, 1): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (200, False, 52): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (200, False, 599): ("0x1.0000000000000p+0", "0x1.0000000000001p+0"),
    (200, False, 600): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (200, True, 1): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (200, True, 52): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (200, True, 599): ("0x1.ffffffffffffep-1", "0x1.0000000000000p+0"),
    (200, True, 600): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
}


def _host_errors(shadow, x, p):
    """The error of the normal `shadow` against the host float `x` from
    the host float and from its MPFloat."""
    return [mp._rel_err_host(shadow, x, p),
            mp._rel_err_float(shadow, mp.from_float(x), p)]


@pytest.mark.parametrize("key", sorted(BELOW_SHADOW))
def test_host_original_below_the_shadows_last_bit(key):
    p, odd, t = key
    shadow = mp.MPFloat(mp.NORMAL, 1, 0, _tie_mantissa(p, odd), p)
    for sign, want in zip((1, -1), BELOW_SHADOW[key]):
        x = sign * math.ldexp(HOST_MANT, 1 - p - t)
        o = mp.from_float(x)
        assert (shadow.exp - shadow.prec) - (o.exp - o.prec) == t
        assert [e.hex() for e in _host_errors(shadow, x, p)] == [want] * 2


def test_host_original_equal_to_a_narrower_shadow():
    # a 24-bit shadow equal to the original, whose last bit lies 29
    # binades below the shadow's: the exact difference is 0
    x = 1.0 + 2.0**-23
    shadow = mp.from_float(x, 24)
    o = mp.from_float(x)
    assert (shadow.exp - shadow.prec) - (o.exp - o.prec) == 29
    assert [e.hex() for e in _host_errors(shadow, x, 24)] == ["0x0.0p+0"] * 2


# -- the fused shadow calls of stream mode at p_orig = 53 --------------------

FLIPS = {"add": 1, "sub": -1, "mul": 0}


def fused(op, a, b, p, orig=None, put=None):
    """The shadow call of `op`; with `put`, the fused one the engine
    generates in stream mode at p_orig = 53."""
    if op == "div":
        return mp.div(a, b, p, mp.UNBOUNDED, orig, put)
    return mp._nearest(a, b, FLIPS[op], p, orig, put)


@st.composite
def fused_cases(draw):
    """(op, p_shadow, a, b, host original): operands as mpmath_ref.cases
    draws them (every class, near-cancelling, at either end of the
    exponent range, far apart) or an exact-zero sum, at p_shadow 53, 120,
    1023 to 1025, where float(mant) overflows from 1024 on, or 1100; the
    original near the unfused result, at any binary64 exponent (far above
    or below it), subnormal, or any encoding."""
    p = draw(st.sampled_from([53, 120, 1023, 1024, 1025, 1100]))
    op, _, a, b = draw(mpmath_ref.cases(["add", "sub", "mul", "div"], p, p))
    if a.cls == mp.NORMAL and draw(st.integers(0, 7)) == 0:
        op = draw(st.sampled_from(["add", "sub"]))
        b = mp.neg(a) if op == "add" else a  # x + (-x), x - x
    want = fused(op, a, b, p)
    kind = draw(st.sampled_from(["near", "far", "subnormal", "any"]))
    if kind == "subnormal":
        return op, p, a, b, float_of(draw(st.integers(0, 1)) << 63
                                     | draw(st.integers(1, (1 << 52) - 1)))
    if kind == "any" or want.cls != mp.NORMAL:
        return op, p, a, b, float_of(draw(b64_bits))
    m = want.mant >> (want.prec - 53) if want.prec >= 53 \
        else want.mant << (53 - want.prec)
    e = want.exp if kind == "near" else draw(st.integers(-1074, 1023))
    try:
        x = math.ldexp(m + draw(st.integers(-2, 2)), e - 52)
    except OverflowError:
        x = math.inf
    return op, p, a, b, x if want.sign > 0 else -x


def check_fused(op, p, a, b, x):
    """The fused call's result equals the unfused one field for field, and
    it passes one error, mp._rel_err_host's of that result bit for bit."""
    want = fused(op, a, b, p)
    got = []
    assert fields(fused(op, a, b, p, x, got.append)) == fields(want)
    assert [struct.pack("<d", e) for e in got] \
        == [struct.pack("<d", mp._rel_err_host(want, x, p))]
    return got[0]


ONE = {p: mp.extend(mp.from_float(1.0), p) for p in (53, 120, 1024)}
TWO = mp.extend(mp.from_float(2.0), 120)
ALL_ONES = mp.MPFloat(mp.NORMAL, 1, 0, (1 << 1024) - 1, 1024)


@given(fused_cases())
# u, the original in units of the result's last bit, at 2**52, the inline
# case's lower bound, and just below it, where _rel_err_host takes it
@example(("mul", 53, ONE[53], ONE[53], 1.0))
@example(("mul", 53, ONE[53], ONE[53], math.nextafter(1.0, 0)))
@example(("add", 120, ONE[120], ONE[120], 2.0**-66))
@example(("add", 120, ONE[120], ONE[120], math.nextafter(2.0**-66, 0)))
# just below 2**652, the upper bound, and at it
@example(("mul", 53, ONE[53], ONE[53], math.nextafter(2.0**600, 0)))
@example(("mul", 53, ONE[53], ONE[53], 2.0**600))
@example(("sub", 120, TWO, ONE[120], -math.nextafter(2.0**533, 0)))
@example(("sub", 120, TWO, ONE[120], -(2.0**533)))
# past the upper bound, where the inline quotient of two rounded host
# floats would differ from the closed form in its last bit
@example(("mul", 120, mp.MPFloat(mp.NORMAL, 1, 0,
                                 0x82DB7307D4BEDC51431193E6C3F339, 120),
          ONE[120], float.fromhex("0x1.a648a06839eb9p+533")))
# at p_shadow 1024 float(mant) overflows inside the case, and at 2**652
# it would
@example(("mul", 1024, ALL_ONES, ONE[1024], 2.0**-400))
@example(("mul", 1024, ALL_ONES, ONE[1024], math.nextafter(2.0**-371, 0)))
@example(("mul", 1024, ALL_ONES, ONE[1024], 2.0**-371))
@settings(max_examples=2000, deadline=None)
def test_fused_calls_match_the_unfused_ones(case):
    check_fused(*case)


def test_fused_calls_on_the_edges():
    w = mp.extend(mp.from_float(1.5), 120)
    top = mp.MPFloat(mp.NORMAL, 1, mp._EXP_LIMIT // 2 + 1, 1 << 119, 120)
    low = mp.MPFloat(mp.NORMAL, 1, -mp._EXP_LIMIT // 2 - 1, 1 << 119, 120)
    nz = mp.zero(120, -1)
    for p in (53, 120, 1100):
        # an exact-zero sum still passes its error
        assert check_fused("add", p, w, mp.neg(w), 0.0) == 0.0
        assert check_fused("sub", p, w, w, -0.0) == 0.0
        assert check_fused("sub", p, w, w, 1.0) == math.inf
        assert check_fused("add", p, nz, nz, -0.0) == 0.0
        # specials
        assert check_fused("add", p, mp.inf(1, 120), w, math.inf) == 0.0
        assert check_fused("sub", p, mp.inf(1, 120), mp.inf(1, 120),
                           math.nan) == math.inf
        assert check_fused("div", p, w, mp.zero(120), math.inf) == 0.0
        assert check_fused("mul", p, mp.nan(120), w, 1.0) == math.inf
        # past the exponent limit: infinity and zero
        assert check_fused("mul", p, top, top, math.inf) == 0.0
        assert check_fused("mul", p, low, low, 0.0) == 0.0
        assert check_fused("div", p, top, low, 1.0) == math.inf
        assert check_fused("div", p, low, top, 5e-324) == math.inf
        # lanes far apart, on either side, and subnormal originals
        assert check_fused("mul", p, w, w, 1e300) == 1e300 / 2.25
        assert check_fused("mul", p, w, w, 1e-300) == 1.0
        assert check_fused("add", p, w, w, 5e-324) == 1.0
        check_fused("mul", p, low, top, 5e-324)
        check_fused("div", p, w, mp.extend(mp.from_float(3.0), 120), 0.5)


# -- the original in units of the shadow's last bit ---------------------------


def shadow_at(sign, exp, mant, p):
    return mp.MPFloat(mp.NORMAL, sign, exp, mant, p)


def scaled(v, k):
    """v times 2**k, exactly."""
    return shadow_at(v.sign, v.exp + k, v.mant, v.prec)


@st.composite
def unit_pairs(draw):
    """(shadow, host original, p_shadow): the original's last bit 2**t
    shadow units above the shadow's, with t near 0, near -600, near the
    lanes' being of one size, or anywhere from -700 to 50, at p_shadow 53
    to 1200 and around 1024, where the shadow's mantissa may not fit a
    host float; or an original of any encoding.  The shadow's mantissa is
    a power of two, all ones, or random bits, with which a quotient of two
    rounded host floats shows its double rounding."""
    p = draw(st.one_of(st.integers(53, 60), st.integers(53, 1200),
                       st.sampled_from([1023, 1024, 1025])))
    mant = (1 << (p - 1)) | draw(st.one_of(
        st.just(0), st.just((1 << (p - 1)) - 1),
        st.randoms(use_true_random=False).map(
            lambda r: r.getrandbits(p - 1))))
    sign = draw(st.sampled_from([1, -1]))
    x = float_of(draw(b64_bits))
    if not (x == x and x - x == 0 and x) or draw(st.integers(0, 7)) == 0:
        return shadow_at(sign, draw(st.integers(-1200, 1200)), mant, p), x, p
    t = draw(st.one_of(st.integers(-2, 2), st.integers(-603, -597),
                       st.integers(50 - p, 56 - p), st.integers(-700, 50)))
    # t = (exp - p) - (the exponent of x's last bit, frexp's e - 53)
    exp = t + p - 54 + math.frexp(x)[1]
    return shadow_at(sign, exp, mant, p), x, p


ONE53 = mp.from_float(1.0)
NEXT53 = mp.from_float(1.0000000000000002)
ONES = {p: shadow_at(1, 0, (1 << p) - 1, p) for p in (1023, 1024, 1025)}
POW2 = {p: shadow_at(1, 0, 1 << (p - 1), p) for p in (1023, 1024, 1025)}
W120 = mp.extend(mp.from_float(1.5), 120)


@given(unit_pairs())
# |x| at 2**52 (t = 0) and just below it (t = 1)
@example((ONE53, 1.0, 53))
@example((NEXT53, 1.0, 53))
@example((NEXT53, 0.9999999999999999, 53))
@example((mp.extend(NEXT53, 120), 2.0**-67, 120))
@example((mp.extend(NEXT53, 120), math.nextafter(2.0**-67, 0), 120))
# |x| just below 2**652 (t = -599) and at it (t = -600)
@example((ONE53, math.nextafter(2.0**600, 0), 53))
@example((ONE53, 2.0**600, 53))
@example((NEXT53, -math.nextafter(2.0**600, 0), 53))
@example((shadow_at(1, 0, 0xC000000000000134 << 56, 120), 1.25 * 2.0**533,
          120))
# p_shadow 1023 to 1025: the shadow's mantissa all ones, so that
# float(mant) overflows from 1024 on, inside and at the edge of the range
@example((ONES[1023], 2.0**-400, 1023))
@example((ONES[1024], 2.0**-400, 1024))
@example((ONES[1025], 2.0**-400, 1025))
@example((POW2[1023], 2.0**-370, 1023))
@example((POW2[1024], 2.0**-371, 1024))
@example((POW2[1024], math.nextafter(2.0**-371, 0), 1024))
@example((POW2[1025], 2.0**-372, 1025))
@example((ONES[1024], -2.0**-371, 1024))
# lanes of one size at p_shadow 1024 (t = -970), where the error is the
# quotient rounded twice, unlike float(|d|) / float(mant)
@example((mp.extend(mp.from_float(1.5), 1024), 0.3, 1024))
# ldexp overflows: a shadow near 2**-1000 against an original of 1.0
@example((scaled(ONE53, -1000), 1.0, 53))
@example((scaled(W120, -1000), -1.0, 120))
# subnormal, signed zero, infinite and NaN originals
@example((shadow_at(1, -1074, 1 << 52, 53), 5e-324, 53))
@example((shadow_at(-1, -1074, 1 << 52, 53), 5e-324, 53))
@example((scaled(W120, -1030), 1e-310, 120))
@example((W120, 5e-324, 120))
@example((W120, 0.0, 120))
@example((W120, -0.0, 120))
@example((W120, math.inf, 120))
@example((W120, -math.inf, 120))
@example((W120, math.nan, 120))
# an original of the opposite sign
@example((W120, -1.5, 120))
@example((mp.neg(W120), 1.5, 120))
@settings(max_examples=1500, deadline=None)
def test_host_error_in_shadow_units_matches_mpfloat_error(pair):
    """_rel_err_host and the fused calls whose exact result is the shadow
    give _rel_err_float's error bit for bit."""
    shadow, x, p = pair
    want = struct.pack("<d", mp._rel_err_float(shadow, mp.from_float(x), p))
    assert struct.pack("<d", mp._rel_err_host(shadow, x, p)) == want
    one = shadow_at(1, 0, 1 << (p - 1), p)
    for op, a, b in (("add", scaled(shadow, -1), scaled(shadow, -1)),
                     ("sub", scaled(shadow, 1), shadow),
                     ("mul", shadow, one), ("div", shadow, one)):
        got = []
        assert fields(fused(op, a, b, p, x, got.append)) == fields(shadow)
        assert [struct.pack("<d", e) for e in got] == [want]


@pytest.mark.parametrize("x", [1.5, 2.0**-400, 1.0, 5e-324, math.nan])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_a_raising_sink_is_called_once(op, x):
    """A sink's error propagates from a fused call, after one call, even
    an OverflowError, whichever path the original's error takes."""
    calls = []

    def put(e):
        calls.append(e)
        raise OverflowError("sink")

    a = scaled(W120, -1000) if x == 1.0 else W120
    with pytest.raises(OverflowError, match="sink"):
        fused(op, a, W120, 120, x, put)
    assert len(calls) == 1
    # and through a program's callable sink
    calls.clear()
    prog = tac.parse_program("func f(x) -> y\n  y = %s x, x\n  ret y\n"
                             % ("f" + op))
    with pytest.raises(OverflowError, match="sink"):
        engine.execute(prog, [mp.from_float(x)], CFG,
                       sample_mode=lambda i, d, e: put(e))
    assert len(calls) == 1


# x for a fused 1.5 + 1.5 at p_shadow p, and how many _rel_err_host calls
# form its error: 3.0 and 2.5 lie in _nearest's inline case; at p 1100 so
# does 2**-500, but its difference is too wide for a host float; 2**-400
# lies below the result's last bit, and a NaN or a zero has no units
INLINE = [(120, 3.0, 0), (120, 2.5, 0), (1100, 2.0**-500, 1),
          (120, 2.0**-400, 1), (120, math.nan, 1), (53, 0.0, 1)]


@pytest.mark.parametrize("p, x, calls", INLINE)
def test_a_fused_sample_is_formed_once(monkeypatch, p, x, calls):
    """_nearest forms the error of an original in its inline case itself,
    and of any other through one _rel_err_host call; the sink is called
    once, also when it raises an OverflowError inside the inline case."""
    w = mp.extend(mp.from_float(1.5), p)
    want = [struct.pack("<d", mp._rel_err_float(mp.add(w, w, p),
                                                mp.from_float(x), p))]
    real = mp._rel_err_host
    seen = []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(mp, "_rel_err_host", counted)
    got = []
    fused("add", w, w, p, x, got.append)
    assert [struct.pack("<d", e) for e in got] == want
    assert len(seen) == calls
    got.clear()

    def put(e):
        got.append(e)
        raise OverflowError("sink")

    with pytest.raises(OverflowError, match="sink"):
        fused("add", w, w, p, x, put)
    assert [struct.pack("<d", e) for e in got] == want
    assert len(seen) == 2 * calls


# -- whole programs ---------------------------------------------------------


@pytest.mark.parametrize("name", ["round_kernel", "exp_kernel", "sin_kernel",
                                  "union_scale_kernel", "cancel_kernel"])
def test_stream_errors_follow_full_mode_on_kernels(name):
    prog = corpus.get_kernel(name).program
    for x in corpus.grid(*corpus.get_kernel(name).domain[:2], 25):
        full = engine.execute(prog, [x], CFG)
        got = []
        engine.execute(prog, [x], CFG,
                       sample_mode=lambda i, d, e: got.append(e))
        want = [mp._rel_err_float(s.shadow, s.original, 120)
                for s in full.samples]
        assert got == want
        assert all(isinstance(s.original, mp.MPFloat) for s in full.samples)
        assert isinstance(full.result.orig, mp.MPFloat)


def test_bool_barrier_rejected():
    prog = tac.parse_program("func f(x) -> y\n  t = fmov x\n"
                             "  y = fmov t\n  ret y\n")
    with pytest.raises(engine.BadBarrier):
        engine.execute(prog, [mp.from_float(1.0)], CFG, {True})


def test_engine_errors_exit_1(capsys, tmp_path, monkeypatch):
    code = cli.main(["run", "--kernel", "exp_kernel", "--input",
                     "single:0.5", "--p-orig", "24"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: word operations need p_orig = 53\n"
    loop = tmp_path / "loop.tac"
    loop.write_text("func f(x) -> y\ntop:\n  y = fadd x, x\n"
                    "  c = icmp eq, y, y\n  branch c, top\n  ret y\n")
    real = engine.EngineConfig
    monkeypatch.setattr(engine, "EngineConfig",
                        lambda p_o, p_s: real(p_o, p_s, max_steps=100))
    code = cli.main(["run", "--program", str(loop), "--input", "single:1"])
    assert code == 1
    assert "exceeded 100 steps" in capsys.readouterr().err
