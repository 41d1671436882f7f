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
