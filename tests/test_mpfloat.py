"""Tests for the arbitrary-precision float substrate.

The binary64 policy is checked bit-for-bit against the host's IEEE
doubles, and the unbounded policy field for field against mpmath; both
serve as independent reference implementations.
"""

import math
import random
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mpmath import libmp

from precfix import mpfloat as mp
import mpmath_ref


def bits_of(f):
    return struct.unpack("<Q", struct.pack("<d", f))[0]


def float_of(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# ---------------------------------------------------------------- encoding

def test_binary64_bits_round_trip_specials():
    for bits in (0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 1, 0x000FFFFFFFFFFFFF,
                 0x0010000000000000, 0x7FEFFFFFFFFFFFFF, bits_of(1.0),
                 bits_of(-0.1)):
        v = mp.from_binary64_bits(bits)
        assert mp.to_binary64_bits(v) == bits


def test_nan_encodes_canonically():
    v = mp.from_binary64_bits(0x7FF0000000000001)
    assert v.cls == mp.NAN
    assert mp.to_binary64_bits(v) == 0x7FF8000000000000


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=500, deadline=None)
def test_bits_round_trip_random(bits):
    v = mp.from_binary64_bits(bits)
    back = mp.to_binary64_bits(v)
    if v.cls == mp.NAN:
        assert back >> 51 == 0x7FF8000000000000 >> 51
    else:
        assert back == bits


def test_from_float_matches_bits():
    for f in (0.1, -2.5, 1e300, 5e-324, 0.0, math.inf):
        assert mp.to_binary64_bits(mp.from_float(f)) == bits_of(f)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=1000, deadline=None)
@example(1)  # the least subnormal
@example(0x800FFFFFFFFFFFFF)  # the largest negative subnormal
@example(0x0010000000000000)  # the least normal
@example(1 << 63)  # -0.0
def test_from_float_equals_decoding_its_bits(bits):
    v, w = mp.from_float(float_of(bits)), mp.from_binary64_bits(bits)
    assert (v.cls, v.sign, v.exp, v.mant, v.prec) \
        == (w.cls, w.sign, w.exp, w.mant, w.prec)


# ------------------------------------------------------------- arithmetic

def _host_ref(op, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_binary64_policy_matches_host(op):
    rng = random.Random(0xC0FFEE + len(op))
    fn = {"add": mp.add, "sub": mp.sub, "mul": mp.mul, "div": mp.div}[op]
    for _ in range(5000):
        ba = rng.getrandbits(64)
        bb = rng.getrandbits(64)
        a, b = float_of(ba), float_of(bb)
        ref = _host_ref(op, a, b)
        got = fn(mp.from_binary64_bits(ba), mp.from_binary64_bits(bb),
                 53, mp.BINARY64)
        if ref != ref:
            assert got.cls == mp.NAN
        else:
            assert mp.to_binary64_bits(got) == bits_of(ref), \
                "%s(%r, %r)" % (op, a, b)


def test_subnormal_arithmetic():
    tiny = mp.from_float(5e-324)
    two = mp.from_int(2)
    assert mp.mul(tiny, two, 53, mp.BINARY64).to_float() == 1e-323
    # halving the smallest subnormal rounds to even -> zero
    half = mp.from_decimal_string("0.5", 53)
    assert mp.mul(tiny, half, 53, mp.BINARY64).cls == mp.ZERO


def test_overflow_to_inf():
    big = mp.from_float(1.5e308)
    r = mp.add(big, big, 53, mp.BINARY64)
    assert r.cls == mp.INF and r.sign == 1
    r = mp.mul(mp.neg(big), big, 53, mp.BINARY64)
    assert r.cls == mp.INF and r.sign == -1


@given(mpmath_ref.cases(["add", "sub", "mul", "div", "sqrt"], 2, 2000))
@settings(max_examples=2000, deadline=None)
def test_unbounded_arithmetic_matches_mpmath(case):
    op, p, a, b = case
    got = mp.sqrt(a, p) if op == "sqrt" else getattr(mp, op)(a, b, p)
    assert mpmath_ref.fields(got) == mpmath_ref.reference(op, a, b, p)


# short divisors at their own width and tagged at 53 bits: the quotient's
# precision comes from the tags, not from the values
SHORT = [(2.0, 1), (2.0, 53), (0.5, 2), (3.0, 2), (3.0, 53), (-3.0, 53),
         (0.75, 2), (1.5, 53), (-1.0, 1)]


def _short(x, prec):
    return mp.extend(mp.round_to(mp.from_float(x), min(prec, 2)), prec)


@st.composite
def short_divisions(draw):
    """(a, b, p): a 120-bit value over a short divisor, or the reverse;
    some dividends exact multiples of the divisor, and some results next
    to either end of the exponent range."""
    b = _short(*draw(st.sampled_from(SHORT)))
    frac = draw(st.one_of(st.just(0), st.just((1 << 119) - 1),
                          st.integers(0, (1 << 119) - 1)))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["free", "exact", "top", "bottom"]))
    mid = mp._EXP_LIMIT // 2
    if kind == "exact":
        k = mp.from_int(draw(st.integers(1, 1 << 60)) * sign)
        a = mp.extend(mp.mul(k, b, 120), 120)
    else:
        e = {"free": st.integers(-1200, 1200), "top": st.integers(mid - 4,
             mid + 4), "bottom": st.integers(-mid - 4, -mid + 4)}[kind]
        a = mp.MPFloat(mp.NORMAL, sign, draw(e), (1 << 119) | frac, 120)
        if kind != "free":
            e = -mid if kind == "top" else mid
            b = mp.MPFloat(mp.NORMAL, b.sign, e + draw(st.integers(-4, 4)),
                           b.mant, b.prec)
    p = draw(st.one_of(st.integers(1, 8), st.integers(2, 200)))
    return (a, b, p) if draw(st.booleans()) else (b, a, p)


@given(short_divisions())
@settings(max_examples=1500, deadline=None)
def test_division_of_unequal_precisions_matches_mpmath(case):
    a, b, p = case
    got = mp.div(a, b, p)
    assert mpmath_ref.fields(got) == mpmath_ref.reference("div", a, b, p)


@pytest.mark.parametrize("num, den, p, want", [
    (5, 4, 2, 1.0), (7, 4, 2, 2.0), (3, 2, 1, 2.0), (5, 4, 3, 1.25),
    (1, 3, 2, 0.375), (6, 3, 2, 2.0), (-15, 8, 3, -2.0), (9, 8, 3, 1.0),
    (11, 8, 3, 1.5), (11, 8, 2, 1.5), (-27, 16, 3, -1.75)])
@pytest.mark.parametrize("tag", [0, 53, 120])
def test_division_ties_and_exact_quotients(num, den, p, want, tag):
    # at the operands' own width and widened; ties go to the even mantissa,
    # and 11/8 and 27/16 at p + 2 bits are just above a tie
    a, b = mp.from_int(num), mp.from_int(den)
    if tag:
        a, b = mp.extend(a, tag), mp.extend(b, tag)
    got = mp.div(a, b, p)
    assert got.to_float() == want and got.prec == p
    assert mpmath_ref.fields(got) == mpmath_ref.reference("div", a, b, p)


def test_binary64_rounding_far_below_subnormals_is_fast():
    # a shadow that underflowed near the exponent limit, demoted by a
    # barrier: no shift masks as wide as the exponent
    tiny = mp.MPFloat(mp.NORMAL, -1, -mp._EXP_LIMIT + 2, (1 << 199) | 5, 200)
    t0 = time.perf_counter()
    for v in (tiny, mp.neg(tiny)):
        r = mp.round_to(v, 53, mp.BINARY64)
        assert (r.cls, r.sign, r.prec) == (mp.ZERO, v.sign, 53)
    assert time.perf_counter() - t0 < 1.0
    # the boundary: half the smallest subnormal ties to 0, above it to 5e-324
    half = mp.from_binary64_bits(1)
    half = mp.MPFloat(mp.NORMAL, 1, half.exp - 1, half.mant, 53)
    assert mp.round_to(half, 53, mp.BINARY64).cls == mp.ZERO
    above = mp.MPFloat(mp.NORMAL, 1, half.exp, (1 << 52) | 1, 53)
    assert mp.round_to(above, 53, mp.BINARY64).to_float() == 5e-324


def test_adding_operands_far_apart_is_fast():
    t0 = time.perf_counter()
    one = mp.from_int(1, 120)
    tiny = mp.MPFloat(mp.NORMAL, 1, -mp._EXP_LIMIT + 10, 1 << 119, 120)
    for a, b in ((one, tiny), (tiny, one), (one, mp.neg(tiny))):
        for op in ("add", "sub"):
            got = getattr(mp, op)(a, b, 120)
            assert mpmath_ref.fields(got) == mpmath_ref.reference(op, a, b,
                                                                  120)
            got = getattr(mp, op)(a, b, 53, mp.BINARY64)
            assert got.to_float() == (-1.0 if a is tiny and op == "sub"
                                      else 1.0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("xprec,p", [(5000, 53), (53, 5000), (4500, 4500),
                                     (60, 6000)])
def test_add_far_apart_at_wide_precisions(xprec, p):
    # gaps around the two thresholds of the far-apart shortcut: low bits
    # more than 4096 binades apart, and a smaller operand below every bit
    # of the rounding; with p above 4096 the sum can depend on more than
    # the sign of an operand beyond the first
    rng = random.Random(xprec * 7 + p)
    for yprec in (2, 60):
        for edge in (max(xprec - 1, p + 2), 4096 + xprec - yprec):
            for gap in range(edge - 4, edge + 8):
                x = mp.MPFloat(mp.NORMAL, rng.choice([1, -1]), 10,
                               (1 << (xprec - 1)) | rng.getrandbits(
                                   xprec - 1), xprec)
                y = mp.MPFloat(mp.NORMAL, rng.choice([1, -1]), 10 - gap,
                               (1 << (yprec - 1)) | rng.getrandbits(
                                   yprec - 1), yprec)
                for op in ("add", "sub"):
                    for a, b in ((x, y), (y, x)):
                        got = getattr(mp, op)(a, b, p)
                        assert mpmath_ref.fields(got) == \
                            mpmath_ref.reference(op, a, b, p), (op, gap)


@given(mpmath_ref.mpfloats(200, st.integers(-1100, 1100)),
       st.integers(4000, 7000), st.integers(2, 200), st.booleans(),
       st.sampled_from([1, -1]))
@settings(max_examples=500, deadline=None)
def test_binary64_add_of_far_apart_operands(a, gap, prec, swap, flip):
    # against the exact sum of integer significands, rounded by _round: no
    # one-bit stand-in for the far smaller operand
    if a.cls != mp.NORMAL:
        return
    b = mp.MPFloat(mp.NORMAL, -a.sign, a.exp - gap, (1 << (prec - 1)) | 1,
                   prec)
    if swap:
        a, b = b, a
    ea, eb = a.exp - a.prec, b.exp - b.prec
    e = min(ea, eb)
    s = a.sign * (a.mant << (ea - e)) + flip * b.sign * (b.mant << (eb - e))
    want = mp._round(1 if s > 0 else -1, abs(s), e + 1, 53, mp.BINARY64)
    got = (mp.add if flip == 1 else mp.sub)(a, b, 53, mp.BINARY64)
    assert mpmath_ref.fields(got) == mpmath_ref.fields(want)


def value_of(v):
    return v.sign * Fraction(v.mant) * Fraction(2) ** (v.exp - v.prec + 1)


@st.composite
def binary64_cases(draw):
    """(op, a, b): normal operands of 1 to 120 bits whose exact result
    lies near the least subnormal, binary64's least normal or its top, a
    pair far apart in magnitude, or one such operand added to a zero."""
    def operand(exp):
        m = draw(st.integers(1, (1 << 120) - 1))
        if draw(st.booleans()):
            m |= (1 << m.bit_length()) - 1  # all ones: carries
        nb = m.bit_length()
        return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])), exp,
                          m << max(0, 2 - nb), max(2, nb))

    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    target = draw(st.sampled_from([-1075, -1074, -1023, -1022, 1023, 1024]))
    near = draw(st.integers(-3, 3))
    if draw(st.integers(0, 3)) == 0:  # far apart: the smaller one is tiny
        ea = target + near
        eb = ea - draw(st.integers(54, 5000))
    elif op in ("add", "sub"):
        ea, eb = target + near, target + draw(st.integers(-3, 3))
    else:
        ea = draw(st.integers(-600, 600))
        eb = target + near - ea if op == "mul" else ea - target - near
    a, b = operand(ea), operand(eb)
    if op in ("add", "sub") and draw(st.integers(0, 7)) == 0:
        b = mp.zero(draw(st.sampled_from([2, 53, 120])),
                    draw(st.sampled_from([1, -1])))
    return (op, b, a) if draw(st.booleans()) else (op, a, b)


@given(binary64_cases())
@settings(max_examples=3000, deadline=None)
# 3 * (2**-1022 - 2**-1076): a carry from below 2**-1022 up to it
@example(("mul", mp.from_int(3),
          mp.MPFloat(mp.NORMAL, 1, -1024, 6004799503160661, 53)))
# 2**-1023 + 2**-1075: a tie on the subnormal grid, to even
@example(("mul", mp.from_int(1),
          mp.MPFloat(mp.NORMAL, 1, -1023, (1 << 52) + 1, 53)))
# the largest double plus half its ulp: a tie that carries past 2**1024
@example(("add", mp.MPFloat(mp.NORMAL, 1, 1023, (1 << 53) - 1, 53),
          mp.MPFloat(mp.NORMAL, 1, 970, 1 << 52, 53)))
def test_binary64_arithmetic_matches_fractions(case):
    op, a, b = case
    x, y = value_of(a), value_of(b)
    exact = {"add": Fraction.__add__, "sub": Fraction.__sub__,
             "mul": Fraction.__mul__, "div": Fraction.__truediv__}[op](x, y)
    try:
        want = float(exact)
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    got = getattr(mp, op)(a, b, 53, mp.BINARY64)
    # exactly the double: to_binary64_bits rejects any other value
    assert got.prec == 53
    assert mp.to_binary64_bits(got) == bits_of(want), (op, a, b)


def test_unbounded_policy_has_no_overflow():
    big = mp.from_float(1.5e308)
    r = mp.mul(big, big, 53)
    assert r.cls == mp.NORMAL
    assert r.exp > 2000


def test_sqrt_matches_host():
    rng = random.Random(17)
    for _ in range(2000):
        f = abs(float_of(rng.getrandbits(64)))
        if f != f or f == math.inf:
            continue
        got = mp.sqrt(mp.from_float(f), 53, mp.BINARY64)
        assert mp.to_binary64_bits(got) == bits_of(math.sqrt(f))


def test_sqrt_of_negative_is_nan():
    assert mp.sqrt(mp.from_int(-4), 53).cls == mp.NAN


def test_floor_exact():
    assert mp.floor(mp.from_decimal_string("2.7", 53)).to_float() == 2.0
    assert mp.floor(mp.from_decimal_string("-2.1", 53)).to_float() == -3.0
    assert mp.floor(mp.from_decimal_string("0.3", 53)).cls == mp.ZERO
    assert mp.floor(mp.from_int(5)).to_float() == 5.0


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e15,
                 max_value=1e15))
@settings(max_examples=300, deadline=None)
def test_floor_matches_host(f):
    got = mp.floor(mp.from_float(f))
    assert got.to_float() == math.floor(f)


# ------------------------------------------------------------- precision

def test_round_to_drops_bits_nearest_even():
    # 0b1.0000001 at 8 bits -> 4 bits keeps 1.000 (tie goes to even)
    v = mp.from_int(0b10000001)
    r = mp.round_to(v, 4)
    assert r.mant == 0b1000 and r.exp == 7
    v = mp.from_int(0b10000011)
    r = mp.round_to(v, 4)
    assert r.mant == 0b1000 and r.exp == 7  # 0b1000.0011 -> 0b1000
    v = mp.from_int(0b10001100)
    r = mp.round_to(v, 4)
    assert r.mant == 0b1001 and r.exp == 7


def test_extend_is_exact():
    v = mp.from_decimal_string("0.1", 53)
    w = mp.extend(v, 120)
    assert w.prec == 120
    assert mp.cmp(v, w) == 0


def test_round_trip_through_extend():
    rng = random.Random(3)
    for _ in range(500):
        f = rng.uniform(-1e6, 1e6)
        v = mp.from_float(f)
        assert mp.cmp(mp.round_to(mp.extend(v, 200), 53, mp.BINARY64), v) == 0


def test_equal_values_hash_equal_across_precisions():
    tenth = mp.from_decimal_string("0.1", 53)
    # 11 as a 53-bit significand with 49 trailing zero bits
    eleven = mp.MPFloat(mp.NORMAL, 1, 3, 0b1011 << 49, 53)
    zero = mp.zero(53)
    for v, same in ((tenth, [mp.extend(tenth, 120), mp.extend(tenth, 1100)]),
                    (eleven, [mp.from_float(11.0, 24), mp.extend(eleven, 120),
                              mp.from_decimal_string("11", 1100)]),
                    (zero, [mp.zero(53, -1), mp.zero(1100, -1),
                            mp.zero(120)])):
        for w in same:
            assert v == w and hash(v) == hash(w), (v, w)
        assert len({v, *same}) == 1
    assert len({tenth, eleven, zero}) == 3


# -------------------------------------------------------------- rounding

def fraction_round(sign, m, e_lsb, p, policy):
    """(cls, sign, exp, mant, prec) of sign * m * 2**e_lsb rounded by
    Fraction's round, which ties to even: to p bits, or under BINARY64 to
    53 bits on a grid no finer than 2**-1074, then held to the policy's
    range."""
    top = e_lsb + m.bit_length() - 1
    if policy == mp.BINARY64:
        p, unit = 53, max(top - 52, -1074)
    else:
        unit = top - p + 1
    # the value in units of the last kept bit; below a quarter of one
    # (which keeps 2**(unit - e_lsb) small) it rounds to 0
    s = unit - e_lsb
    if s > m.bit_length() + 1:
        n = 0
    else:
        n = round(Fraction(m, 2 ** s) if s > 0 else Fraction(m * 2 ** -s))
    if n == 0:
        return (mp.ZERO, sign, 0, 0, p)
    while n >= 2 ** p:  # carried to the next binade: n is a power of two
        n, unit = n // 2, unit + 1
    top = unit + n.bit_length() - 1
    high = 1023 if policy == mp.BINARY64 else (1 << 31) - 1
    if top > high:
        return (mp.INF, sign, 0, 0, p)
    if policy == mp.UNBOUNDED and top <= -(1 << 31):
        return (mp.ZERO, sign, 0, 0, p)
    return (mp.NORMAL, sign, top, n * 2 ** (p - n.bit_length()), p)


ROUND_TOPS = st.sampled_from([-1080, -1075, -1074, -1073, -1023, -1022, 0,
                              1023, 1024, -(1 << 31), (1 << 31) - 1])


@given(st.integers(1, (1 << 300) - 1), ROUND_TOPS, st.integers(-3, 3),
       st.sampled_from([2, 11, 24, 53, 54, 113, 120, 200]),
       st.sampled_from([mp.UNBOUNDED, mp.BINARY64]),
       st.sampled_from([1, -1]), st.integers(0, 3))
@settings(max_examples=3000, deadline=None)
@example(0b1011, 0, 0, 2, mp.UNBOUNDED, 1, 0)  # carry to 2**p
@example(0b101, 0, 0, 2, mp.UNBOUNDED, -1, 0)  # tie to even, down
@example(0b111, 0, 0, 2, mp.UNBOUNDED, 1, 0)  # tie to even, up
@example(1, -1075, 0, 53, mp.BINARY64, 1, 0)  # half the least subnormal
@example(3, -1075, 0, 53, mp.BINARY64, 1, 0)  # just above it
def test_round_matches_fractions(m, top, off, p, policy, sign, tail):
    # `tail` low bits set or cleared make ties and carries common
    if tail == 1:
        m = m >> 8 << 8 | 0x80
    elif tail == 2:
        m |= 0xFF
    e_lsb = top + off - m.bit_length() + 1
    v = mp._round(sign, m, e_lsb, p, policy)
    assert (v.cls, v.sign, v.exp, v.mant, v.prec) \
        == fraction_round(sign, m, e_lsb, p, policy)


def host_of(sign, m, e_lsb):
    """sign * m * 2**e_lsb by float(Fraction): correctly rounded binary64,
    +-inf past its range."""
    try:
        return float(sign * Fraction(m) * Fraction(2) ** e_lsb)
    except OverflowError:
        return math.copysign(math.inf, sign)


def test_to_float_guard_zero_sticky_one():
    # 1 + 2**-52 + 2**-55 at 56 bits: the bit below the last kept one is 0,
    # so the sticky bit below it must not make a tie
    m = (1 << 55) | (1 << 3) | 1
    v = mp.MPFloat(mp.NORMAL, 1, 0, m, 56)
    assert v.to_float() == float.fromhex("0x1.0000000000001p+0") \
        == host_of(1, m, -55)


@given(st.integers(1, (1 << 120) - 1), st.integers(-1140, 1100),
       st.sampled_from([1, -1]))
@settings(max_examples=3000, deadline=None)
@example((1 << 56) - 1, -1074 - 56, 1)  # just below the least subnormal
@example((1 << 53) + 1, -1074 - 54, -1)  # above half of it: -2**-1074
@example(1, -1075, -1)  # half of it: -0.0
@example((1 << 54) - 1, -1076, 1)  # a subnormal rounding up to 2**-1022
@example((1 << 53) - 1, 971, 1)  # the largest double
@example((1 << 54) - 1, 970, 1)  # rounds past it: inf
@example((1 << 54) - 1, 970, -1)
def test_to_float_matches_fractions(m, e_lsb, sign):
    nb = m.bit_length()
    v = mp.MPFloat(mp.NORMAL, sign, e_lsb + nb - 1, m << max(0, 2 - nb),
                   max(2, nb))
    got, want = v.to_float(), host_of(sign, m, e_lsb)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


def test_to_float_of_other_classes():
    assert bits_of(mp.zero(120, -1).to_float()) == 1 << 63
    assert bits_of(mp.zero(24).to_float()) == 0
    assert mp.inf(-1, 200).to_float() == -math.inf
    assert math.isnan(mp.nan(120).to_float())
    # far below the subnormals and far above the range, at any precision
    tiny = mp.MPFloat(mp.NORMAL, -1, -(1 << 30), 3 << 118, 120)
    assert bits_of(tiny.to_float()) == 1 << 63
    assert mp.MPFloat(mp.NORMAL, 1, 1 << 30, 1 << 23, 24).to_float() \
        == math.inf


# ------------------------------------------------------ decimal conversion

def test_decimal_parse_quarter_precision():
    v = mp.from_decimal_string("0.1", 24)
    assert mp.to_decimal_string(v, 27) == "0.100000001490116119384765625"


def test_decimal_parse_matches_host():
    for s in ("0.1", "2.6", "-13.75", "1e-4", "999.9", "6.02e23", "0.45"):
        v = mp.from_decimal_string(s, 53, mp.BINARY64)
        assert v.to_float() == float(s)


def test_decimal_string_round_trip_17_digits():
    rng = random.Random(11)
    for _ in range(500):
        f = rng.uniform(-1, 1) * 10 ** rng.randint(-30, 30)
        v = mp.from_float(f)
        s = mp.to_sci_string(v, 17)
        assert mp.from_decimal_string(s, 53, mp.BINARY64).to_float() == f


def test_decimal_exponent_beyond_range_is_fast():
    t0 = time.perf_counter()
    for text, p, policy, cls, sign in [
            ("1e-30000000", 53, mp.BINARY64, mp.ZERO, 1),
            ("-1e-30000000", 53, mp.BINARY64, mp.ZERO, -1),
            ("1e30000000", 53, mp.BINARY64, mp.INF, 1),
            ("-0.001e-999999999999", 24, mp.UNBOUNDED, mp.ZERO, -1),
            ("12.5e999999999999", 24, mp.UNBOUNDED, mp.INF, 1),
            ("1e646456994", 24, mp.UNBOUNDED, mp.INF, 1),
            ("9.99e-646456995", 24, mp.UNBOUNDED, mp.ZERO, 1)]:
        v = mp.from_decimal_string(text, p, policy)
        want = mp.round_to(mp.MPFloat(cls, sign, 0, 0, p), p, policy)
        assert mpmath_ref.fields(v) == mpmath_ref.fields(want), text
    assert time.perf_counter() - t0 < 1.0
    # literals just inside the binary64 range still round as the host does
    for text in ("1.7976931348623157e308", "1.7976931348623159e308",
                 "9.99e308", "2.4703282292062328e-324", "2.47e-324",
                 "4.9e-324", "0.00001e-319"):
        v = mp.from_decimal_string(text, 53, mp.BINARY64)
        assert bits_of(v.to_float()) == bits_of(float(text)), text


@st.composite
def decimal_literals(draw):
    """(text, sign, d, e10): digits d and a decimal exponent far enough
    from 0 for the bounded path at the precisions below, or, for some
    negative exponents, a d that makes the value an exact tie at p bits."""
    p = draw(st.integers(2, 200))
    # 5**5500 has 3845 digits, below Python's 4300-digit int/str limit
    k = draw(st.integers(8 * (p + 64) + 1, 5500))
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        # (2q + 1) * 2**j * 10**-k with 2q + 1 of p + 1 bits
        odd = (1 << p) | (2 * draw(st.integers(0, (1 << (p - 1)) - 1)) + 1)
        d, e10 = odd * 5**k << draw(st.integers(0, 40)), -k
    else:
        d = draw(st.integers(1, 10**draw(st.integers(1, 60))))
        e10 = k * draw(st.sampled_from([1, -1]))
    text = "%s%de%d" % ("-" if sign < 0 else "", d, e10)
    return p, text, sign, d, e10


def decimal_value(sign, d, e10, den=1):
    return sign * Fraction(d) * Fraction(10) ** e10 / den


@given(decimal_literals(), st.sampled_from([mp.UNBOUNDED, mp.BINARY64]))
@settings(max_examples=300, deadline=None)
def test_bounded_literal_parsing_matches_exact(case, policy):
    p, text, sign, d, e10 = case
    got = mp.from_decimal_string(text, p, policy)
    want = mpmath_ref.rounded_fraction(decimal_value(sign, d, e10), p, policy)
    assert mpmath_ref.fields(got) == want, text


@given(decimal_literals(), st.integers(1, 2**63 - 1))
# a tie at p = 24, so the bounded path widens once, then gives way
@example((24, "", 1, ((1 << 24) | 1) * 5**710 * 3**61, -710), 3**61)
@settings(max_examples=300, deadline=None)
def test_decimal_rounding_paths_agree(case, den):
    # the bounded powers of five, widened until they decide, and the exact
    # integers behind them round sign * d * 10**e10 / den as Fractions do
    p, text, sign, d, e10 = case
    got = mp._round_decimal(sign, d, e10, p, mp.UNBOUNDED, den)
    assert mpmath_ref.fields(got) == mpmath_ref.rounded_fraction(
        decimal_value(sign, d, e10, den), p), (text, den)


@st.composite
def binary64_literals(draw):
    """(text, sign, d, e10) with d * 10**e10 the literal's magnitude:
    exactly printed halfway points between neighbouring binary64 values,
    subnormals among them, and literals of up to 4,000 digits from below
    the subnormals to past the overflow threshold."""
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        bits = draw(st.one_of(st.integers(1, (1 << 52) - 1),
                              st.integers(1, (0x7FE << 52) - 1)))
        lo = Fraction(float_of(bits)) + Fraction(float_of(bits + 1))
        # the midpoint is n / 2**k; n * 5**k / 10**k prints it exactly
        k = (lo / 2).denominator.bit_length() - 1
        d, e10 = (lo / 2).numerator * 5**k, -k
    else:
        n = draw(st.one_of(st.integers(1, 20), st.integers(1, 4000)))
        d = draw(st.integers(10**(n - 1), 10**n - 1))
        e10 = draw(st.integers(-330, 312)) - n
    text = "%s%de%d" % ("-" if sign < 0 else draw(st.sampled_from(["", "+"])),
                        d, e10)
    return text, sign, d, e10


@given(binary64_literals())
@example(("1e-400", 1, 1, -400))
@example(("-1.7976931348623159e308", -1, 17976931348623159, 292))
@example((str(2**1024 - 2**970), 1, 2**1024 - 2**970, 0))  # ties to inf
@settings(max_examples=400, deadline=None)
def test_binary64_literals_match_exact_rounding(case):
    text, sign, d, e10 = case
    got = mp.from_decimal_string(text, 53, mp.BINARY64)
    want = mpmath_ref.rounded_fraction(decimal_value(sign, d, e10), 53,
                                       mp.BINARY64)
    assert mpmath_ref.fields(got) == want, text


@pytest.mark.parametrize("text", ["-0", "-0.000e5", "-0e-999", "+0.0",
                                  "0" * 5000 + "e7", "-0." + "0" * 5000])
def test_binary64_zero_literals_keep_their_sign(text):
    got = mp.from_decimal_string(text, 53, mp.BINARY64)
    sign = -1 if text.startswith("-") else 1
    assert mpmath_ref.fields(got) == mpmath_ref.fields(mp.zero(53, sign))


def test_huge_in_range_decimal_exponent_is_fast():
    t0 = time.perf_counter()
    for text in ("1e-30000000", "-7.25e600000000", "3e-646456900",
                 "123456789e-300000000"):
        for p in (24, 120, 1000):
            v = mp.from_decimal_string(text, p)
            want = libmp.from_str(text, p, libmp.round_nearest)
            assert mpmath_ref.fields(v) == mpmath_ref._limited(want, p, 1)
    assert time.perf_counter() - t0 < 2.0


def test_hex_literal_parsing():
    v = mp.from_hex_string("0x1.8p52")
    assert v.to_float() == 1.5 * 2 ** 52
    v = mp.from_hex_string("0x1.71547652b82fep0")
    assert v.to_float() == float.fromhex("0x1.71547652b82fep0")
    v = mp.from_hex_string("-0x1.0p-3")
    assert v.to_float() == -0.125


def test_parse_errors():
    with pytest.raises(mp.ParseError):
        mp.from_decimal_string("zz", 53)
    with pytest.raises(mp.ParseError):
        mp.from_hex_string("0x.p3")


def test_sci_string_format():
    assert mp.to_sci_string(mp.from_int(12345), 4) == "1.234e4"
    assert mp.to_sci_string(mp.from_decimal_string("-0.002", 53), 3) \
        == "-2.00e-3"


@given(mpmath_ref.mpfloats(300, st.one_of(st.integers(7000, 40000),
                                          st.integers(-40000, -7000))),
       st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_bounded_decimal_digits_match_exact(v, digits):
    if v.cls != mp.NORMAL:
        return
    got = mp._decimal_digits(v, digits)  # |k| > 2000: bounded powers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp, "_round_scaled",
                      lambda m, e, k, digits: mp._round_scaled_exact(m, e, k))
        assert mp._decimal_digits(v, digits) == got


@given(mpmath_ref.mpfloats(300, st.integers(-1200, 1200)),
       st.integers(1, 40), st.integers(-2, 2), st.integers(40, 600))
@example(mp.MPFloat(mp.NORMAL, 1, -1, 2, 2), 1, -1, 40)  # 0.5: a tie
@settings(max_examples=1000, deadline=None)
def test_scaled_rounding_paths_agree(v, digits, off, w):
    if v.cls != mp.NORMAL:
        return
    k = digits - 1 - math.floor(v.exp * 0.3010299956639812) + off
    e = v.exp - v.prec + 1
    exact = mp._round_scaled_exact(v.mant, e, k)
    approx = mp._round_scaled_approx(v.mant, e, k, w)
    assert approx in (None, exact)
    if approx is None and w >= 4 * digits + 64:
        # at the starting width, open only within 2**-40 of a half-integer
        x = Fraction(v.mant) * Fraction(2) ** e * Fraction(10) ** k
        assert abs(x - math.floor(x) - Fraction(1, 2)) < Fraction(1, 1 << 40)


def ref_decimal_digits(v, digits):
    """_decimal_digits from exact rationals: round half even at the
    exponent of the leading digit, one exponent up when that carries."""
    x = abs(Fraction(v.mant) * Fraction(2) ** (v.exp - v.prec + 1))
    d10 = len(str(math.floor(x))) - 1 if x >= 1 else \
        -len(str(math.floor(1 / x)))
    while Fraction(10) ** d10 > x:
        d10 -= 1
    while Fraction(10) ** (d10 + 1) <= x:
        d10 += 1
    n = round(x / Fraction(10) ** (d10 - digits + 1))  # ties to even
    if n == 10**digits:
        n, d10 = n // 10, d10 + 1
    return v.sign, str(n), d10


@st.composite
def decimal_ties(draw):
    """(v, digits) with v exactly halfway between two `digits`-digit
    decimals: v = (n + 1/2) * 10**q with n of `digits` digits."""
    q = draw(st.integers(-60, 60))
    c = 2 * draw(st.integers(1, 10**12)) + 1
    t = c * 5 ** max(0, -q)  # 2n + 1, divisible by 5**-q
    mant = t * 5**q if q >= 0 else c  # v = mant * 2**(q - 1)
    prec = max(2, mant.bit_length())
    v = mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])),
                   q - 1 + mant.bit_length() - 1,
                   mant << (prec - mant.bit_length()), prec)
    return v, len(str(t // 2))


# binary64's normal and subnormal exponents, both ends of its range, and
# exponents whose k = digits - 1 - d10 lies on either side of the edge of
# the table of powers of five (|k| = 400)
PRINT_EXPS = st.one_of(st.integers(-1080, -1015), st.integers(1015, 1030),
                       st.integers(-1400, -1250), st.integers(1250, 1400),
                       st.integers(-80, 80))


@given(st.one_of(mpmath_ref.mpfloats(200, PRINT_EXPS),
                 mpmath_ref.mpfloats(53, st.integers(-1074, -1022))),
       st.integers(1, 62))
@example(mp.MPFloat(mp.NORMAL, 1, -1, 2, 2), 1)  # 0.5: a tie
@example(mp.from_float(5e-324), 17)
@example(mp.from_float(1.7976931348623157e308), 17)
@settings(max_examples=1500, deadline=None)
def test_decimal_digits_match_fractions(v, digits):
    if v.cls == mp.NORMAL:
        assert mp._decimal_digits(v, digits) == ref_decimal_digits(v, digits)


@given(decimal_ties())
@settings(max_examples=500, deadline=None)
def test_decimal_digits_round_exact_ties_to_even(case):
    v, digits = case
    got = mp._decimal_digits(v, digits)
    assert got == ref_decimal_digits(v, digits)
    assert int(got[1][-1]) % 2 == 0 or got[1] == "1" + "0" * (digits - 1)


@given(st.integers(1, (1 << 120) - 1), st.integers(-1500, 1500),
       st.one_of(st.integers(-420, 420), st.integers(380, 420),
                 st.integers(-420, -380)))
@example(1, -1, 0)  # 0.5 rounds to 0
@example(3, -1, 0)  # 1.5 rounds to 2
@example(5, -1, -1)  # 0.25 rounds to 0
@settings(max_examples=1500, deadline=None)
def test_round_scaled_exact_matches_fractions(m, e, k):
    x = Fraction(m) * Fraction(2) ** e * Fraction(10) ** k
    assert mp._round_scaled_exact(m, e, k) == round(x)


def ref_sci_string(v, digits):
    sign, ds, d10 = ref_decimal_digits(v, digits)
    return "%s%s%se%d" % ("-" if sign < 0 else "", ds[0],
                          "." + ds[1:] if digits > 1 else "", d10)


@given(st.one_of(mpmath_ref.mpfloats(200, PRINT_EXPS),
                 mpmath_ref.mpfloats(120, st.integers(-14000, 14000)),
                 mpmath_ref.mpfloats(24, st.integers(-150, 150)),
                 decimal_ties().map(lambda case: case[0])),
       st.integers(1, 70))
@example(mp.MPFloat(mp.NORMAL, 1, -1, 2, 2), 2)  # 0.5
@example(mp.from_int(99995), 4)  # carries to 1.000e5
@example(mp.from_int(-10**20), 2)
@example(mp.from_float(5e-324), 17)
@example(mp.from_float(-1.7976931348623157e308), 62)
@settings(max_examples=1500, deadline=None)
def test_sci_string_matches_fractions(v, digits):
    # the lean loop (2 to _STR_DIGITS digits) and the general path agree
    # with exact rationals on every normal value
    if v.cls == mp.NORMAL:
        assert mp.to_sci_string(v, digits) == ref_sci_string(v, digits)


@pytest.mark.parametrize("exp", [146964308, -146964308, 632557226,
                                 -632557226, 2**31 - 1, -2**31 + 1])
def test_decimal_digits_just_below_a_power_of_ten(exp):
    # exp * log10(2) lies within 1e-8 of an integer for these exponents;
    # v sits 2e-15 below a power of ten, where starting one decimal
    # exponent too high would accept the 15-digit rounding 10**14
    import mpmath
    with mpmath.workprec(600):
        d = mpmath.ceil(exp * mpmath.log10(2))
        x = mpmath.mpf(10) ** d * (1 - mpmath.mpf("2e-15"))
        man, e = mpmath.frexp(x)
        mant = int(mpmath.floor(man * 2**200))
        v = mp.MPFloat(mp.NORMAL, 1, e - 1, mant, 200)
        y = mpmath.mpf(mant) * mpmath.mpf(2) ** (e - 200)
        d10 = int(mpmath.floor(mpmath.log10(y)))
        n = int(mpmath.nint(y / mpmath.mpf(10) ** (d10 - 14)))
    if not -mp._EXP_LIMIT < v.exp < mp._EXP_LIMIT:
        pytest.skip("past the exponent limit")
    assert mp._decimal_digits(v, 15) == (1, str(n), d10)
    assert mp.to_sci_string(v, 15) == "%s.%se%d" % (str(n)[0], str(n)[1:],
                                                    d10)
    assert str(n).startswith("99999999999999")


def test_printing_near_the_exponent_limit_is_fast():
    t0 = time.perf_counter()
    for exp in (mp._EXP_LIMIT - 1, -mp._EXP_LIMIT + 1):
        v = mp.MPFloat(mp.NORMAL, 1, exp, (1 << 119) | 12345, 120)
        assert repr(v).startswith("MPFloat(")
        assert mp.to_sci_string(v, 40).count("e") == 1
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------- relative error

def test_relative_error_conventions():
    z = mp.zero()
    one = mp.from_int(1)
    assert mp.relative_error(z, z).cls == mp.ZERO
    assert mp.cmp(mp.relative_error(one, z), one) == 0
    assert mp.relative_error(z, one).cls == mp.INF
    assert mp.relative_error(mp.nan(), one).cls == mp.INF
    assert mp.relative_error(one, mp.nan()).cls == mp.INF


def test_relative_error_value():
    exact = mp.from_int(1000)
    approx = mp.from_decimal_string("999.90289306640625", 53)
    r = mp.relative_error(exact, approx)
    assert mp.to_sci_string(r, 13) == "9.710693359375e-5"


def test_relative_error_is_nonnegative():
    a = mp.from_float(-3.5)
    b = mp.from_float(-3.4)
    r = mp.relative_error(a, b)
    assert r.sign == 1


# ----------------------------------------------------------------- compare

def test_cmp_total_on_signed_zero():
    assert mp.cmp(mp.zero(sign=-1), mp.zero()) == 0


def test_cmp_nan_is_none():
    assert mp.cmp(mp.nan(), mp.from_int(1)) is None


def test_cmp_orders_magnitudes():
    vals = [mp.from_float(f) for f in (-2.0, -0.5, 0.0, 1e-10, 3.0)]
    for i in range(len(vals) - 1):
        assert mp.cmp(vals[i], vals[i + 1]) == -1
        assert mp.cmp(vals[i + 1], vals[i]) == 1


@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_cmp_matches_host(a, b):
    c = mp.cmp(mp.from_float(a), mp.from_float(b))
    assert c == (0 if a == b else (-1 if a < b else 1))
