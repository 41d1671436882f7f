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
    # the exact sum of integer significands, rounded by _round: _bounded's
    # own path before it learned to stand a far smaller operand in
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
    got = mp._bounded(a, b, flip, 53, mp.BINARY64)
    assert mpmath_ref.fields(got) == mpmath_ref.fields(want)


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


@given(decimal_literals(), st.sampled_from([mp.UNBOUNDED, mp.BINARY64]))
@settings(max_examples=300, deadline=None)
def test_bounded_literal_parsing_matches_exact(case, policy):
    p, text, sign, d, e10 = case
    got = mp.from_decimal_string(text, p, policy)
    want = mp._round_decimal_exact(sign, d, e10, p, policy)
    assert mpmath_ref.fields(got) == mpmath_ref.fields(want), text


@given(decimal_literals(), st.integers(40, 600))
@settings(max_examples=300, deadline=None)
def test_decimal_rounding_paths_agree(case, w):
    p, text, sign, d, e10 = case
    exact = mp._round_decimal_exact(sign, d, e10, p, mp.UNBOUNDED)
    approx = mp._round_decimal_approx(sign, d, e10, p, mp.UNBOUNDED, w)
    assert approx is None \
        or mpmath_ref.fields(approx) == mpmath_ref.fields(exact)


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
