"""Oracle function tests, cross-checked against mpmath at higher working
precision so the reference is independent of the implementation."""

import math
import os
import random
import subprocess
import sys
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp

from precfix import cli
from precfix import mpfloat as mp
from precfix import transcendental as tr
import mpmath_ref

P = 256  # the oracle's default precision
TOL = mp.from_hex_string("0x1.0p-250")  # a few ulps of slack at p_S = 256


def _mpmath_ref(fn, x, prec=320):
    with mpmath.workprec(prec):
        return getattr(mpmath, fn)(mpmath.mpf(x))


def _as_mpf(v, prec=320):
    with mpmath.workprec(prec):
        return mpmath.mpf(v.sign * v.mant) * mpmath.mpf(2) ** (
            v.exp - v.prec + 1)


def _rel_vs_mpmath(got, ref):
    with mpmath.workprec(320):
        if ref == 0:
            return abs(_as_mpf(got))
        return abs((_as_mpf(got) - ref) / ref)


def test_exp_known_value_30_digits():
    x = mp.from_decimal_string("-0.0277", P)
    r = tr.exp_mp(x, P)
    assert mp.to_decimal_string(r, 30) == "0.972680127073139846902979085281"


def test_pi_30_digits():
    assert mp.to_decimal_string(tr.pi_const(P), 30) \
        == "3.14159265358979323846264338328"


@pytest.mark.parametrize("fn,name", [
    (tr.exp_mp, "exp"), (tr.ln_mp, "log"), (tr.sin_mp, "sin"),
    (tr.cos_mp, "cos"), (tr.atan_mp, "atan"),
])
def test_primitives_against_mpmath(fn, name):
    rng = random.Random(hash(name) & 0xFFFF)
    bound = 2 ** -256
    for _ in range(40):
        f = rng.uniform(-40, 40)
        if name == "log":
            f = abs(f) + 1e-9
        x = mp.from_float(f)
        got = fn(mp.extend(x, P), P)
        ref = _mpmath_ref(name, f)
        assert _rel_vs_mpmath(got, ref) < 4 * bound, (name, f)


def test_exp_of_zero_is_one():
    r = tr.exp_mp(mp.zero(P), P)
    assert mp.cmp(r, mp.from_int(1)) == 0


def test_ln_domain_error():
    with pytest.raises(tr.DomainError):
        tr.ln_mp(mp.from_int(-1), P)
    with pytest.raises(tr.DomainError):
        tr.ln_mp(mp.zero(P), P)


def test_pow_is_composed_from_exp_and_ln():
    twenty = mp.from_int(20)
    sixty5 = mp.from_int(65)
    p = tr.derived_fn("pow", [twenty, sixty5], P)
    via = tr.exp_mp(mp.mul(sixty5, tr.ln_mp(twenty, P), P), P)
    assert mp.cmp(p, via) == 0
    # within a couple of ulps of the true integer (last-bit correctness
    # is out of scope)
    exact = mp.from_int(20 ** 65)
    rel = mp.abs_(mp.div(mp.sub(p, exact, 300), exact, P))
    assert rel.cls == mp.ZERO \
        or mp.cmp(rel, mp.from_hex_string("0x1.0p-248")) < 0


def test_trig_identity_residual():
    rng = random.Random(99)
    bound = mp.from_hex_string("0x1.0p-252")
    one = mp.from_int(1)
    for _ in range(10):
        x = mp.extend(mp.from_float(rng.uniform(-10, 10)), P)
        s = tr.sin_mp(x, P)
        c = tr.cos_mp(x, P)
        total = mp.add(mp.mul(s, s, P), mp.mul(c, c, P),
                       P)
        resid = mp.abs_(mp.sub(total, one, P))
        assert resid.cls == mp.ZERO or mp.cmp(resid, bound) < 0


def test_ln_exp_round_trip():
    bound = mp.from_hex_string("0x1.0p-252")
    for f in (0.25, 1.0, -3.5, 17.0):
        x = mp.extend(mp.from_float(f), P)
        resid = mp.abs_(mp.sub(tr.ln_mp(tr.exp_mp(x, P), P), x,
                               P))
        rel = resid if f == 0 else mp.div(resid, mp.abs_(x), P)
        assert rel.cls == mp.ZERO or mp.cmp(rel, bound) < 0


@pytest.mark.parametrize("name,args,ref_fn", [
    ("acos", (0.3,), "acos"),
    ("asin", (-0.8,), "asin"),
    ("acosh", (2.5,), "acosh"),
    ("asinh", (1.7,), "asinh"),
    ("atanh", (0.4,), "atanh"),
    ("cosh", (2.2,), "cosh"),
    ("sinh", (-1.1,), "sinh"),
    ("tanh", (0.9,), "tanh"),
    ("tan", (1.2,), "tan"),
    ("log2", (7.5,), None),
    ("log10", (42.0,), None),
    ("exp2", (3.7,), None),
    ("exp10", (-1.3,), None),
    ("sqrt", (2.0,), "sqrt"),
])
def test_derived_against_mpmath(name, args, ref_fn):
    vals = [mp.extend(mp.from_float(a), P) for a in args]
    got = tr.derived_fn(name, vals, P)
    with mpmath.workprec(320):
        if ref_fn is not None:
            ref = getattr(mpmath, ref_fn)(*[mpmath.mpf(a) for a in args])
        elif name == "log2":
            ref = mpmath.log(args[0], 2)
        elif name == "log10":
            ref = mpmath.log(args[0], 10)
        elif name == "exp2":
            ref = mpmath.mpf(2) ** args[0]
        else:
            ref = mpmath.mpf(10) ** args[0]
    assert _rel_vs_mpmath(got, ref) < mpmath.mpf(2) ** -248, name


def test_two_argument_functions():
    a = mp.extend(mp.from_float(3.0), P)
    c = mp.extend(mp.from_float(4.0), P)
    h = tr.derived_fn("hypot", [a, c], P)
    assert mp.cmp(h, mp.from_int(5)) == 0
    at = tr.derived_fn("atan2", [mp.from_int(1), mp.from_int(1)], P)
    quarter_pi = mp.div(tr.pi_const(P), mp.from_int(4), P)
    assert mp.cmp(at, quarter_pi) == 0
    fm = tr.derived_fn("fmod", [mp.from_float(7.5), mp.from_int(2)], P)
    assert fm.to_float() == 1.5


def test_atan2_quadrants():
    pi = tr.pi_const(P)
    cases = [
        ((0.0, 1.0), 0.0),
        ((1.0, 0.0), math.pi / 2),
        ((0.0, -1.0), math.pi),
        ((-1.0, 0.0), -math.pi / 2),
        ((0.0, 0.0), 0.0),
    ]
    for (a, c), want in cases:
        r = tr.derived_fn("atan2", [mp.from_float(a), mp.from_float(c)],
                          P)
        assert abs(r.to_float() - want) < 1e-15, (a, c)
    del pi


def test_derived_domain_errors():
    with pytest.raises(tr.DomainError):
        tr.derived_fn("asin", [mp.from_int(2)], P)
    with pytest.raises(tr.DomainError):
        tr.derived_fn("acosh", [mp.from_float(0.5)], P)
    with pytest.raises(tr.DomainError):
        tr.derived_fn("fmod", [mp.from_int(1), mp.zero(P)], P)


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        tr.derived_fn("gamma", [mp.from_int(1)], P)


def test_arity_table_covers_derived_names():
    for name, arity in tr.FUNCTION_ARITY.items():
        lit = "2.5" if name == "acosh" else "0.5"
        args = [mp.extend(mp.from_decimal_string(lit, 53), P)
                for _ in range(arity)]
        r = tr.derived_fn(name, args, P)
        assert r.cls in (mp.NORMAL, mp.ZERO)


def test_oracle_config_validation(capsys):
    # the precision is the oracle's one setting, checked before any input
    # is read
    assert cli.main(["oracle", "--precision", "1"]) == 1
    assert capsys.readouterr() == ("", "error: need p_s >= 2\n")
    # Ziv's rounding test picks the guard bits: there is no knob for them
    with pytest.raises(TypeError):
        tr.derived_fn("exp", [mp.from_int(1)], 256, guard=64)


def test_reduced_precision_oracle_still_sane():
    r = tr.exp_mp(mp.from_int(1), 64)
    assert abs(r.to_float() - math.e) < 1e-15


# ------------------------------------------- correct rounding against mpmath

PRIMITIVES = {"exp": tr.exp_mp, "ln": tr.ln_mp, "sin": tr.sin_mp,
              "cos": tr.cos_mp, "atan": tr.atan_mp}
EVALUATORS = {"exp": tr._exp_fixed, "ln": tr._ln_fixed, "sin": tr._sin_fixed,
              "cos": tr._cos_fixed, "atan": tr._atan_fixed}
LIMIT = mpmath_ref.LIMIT


def _normal(sign, exp, mant, prec):
    return mp.MPFloat(mp.NORMAL, sign, exp, mant, prec)


@st.composite
def primitive_args(draw, max_prec=1100):
    """(name, x): a normal argument in the function's domain, at moderate
    magnitudes, anywhere in the exponent range, or at a hard case: ln near
    1, sin and cos near a multiple of pi/2, exp next to either end of the
    exponent range."""
    name = draw(st.sampled_from(sorted(PRIMITIVES)))
    kind = draw(st.sampled_from(["small", "wide", "hard"]))
    if kind == "hard" and name == "ln":
        # 1 + d * 2**(1 - prec) or 1 - d * 2**-prec, d of any bit length
        prec = draw(st.integers(2, max_prec))
        bits = draw(st.integers(1, prec - 1))
        d = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        if draw(st.booleans()):
            return name, _normal(1, 0, (1 << (prec - 1)) + d, prec)
        return name, _normal(1, -1, (1 << prec) - d, prec)
    if kind == "hard" and name in ("sin", "cos"):
        prec = draw(st.integers(2, max_prec))
        n = draw(st.integers(1, 1 << draw(st.integers(1, 1000))))
        r = libmp.mpf_mul(libmp.from_int(n), libmp.mpf_pi(prec + 1100),
                          prec, libmp.round_nearest)
        neg, man, e, bc = libmp.mpf_shift(r, -1)
        return name, mp._round(draw(st.sampled_from([1, -1])), man, e, prec,
                               mp.UNBOUNDED)
    if kind == "hard" and name == "exp":
        k = draw(st.sampled_from([LIMIT, -LIMIT])) + draw(st.integers(-3, 3))
        r = libmp.mpf_mul(libmp.mpf_add(libmp.from_int(k), libmp.from_float(
            draw(st.floats(-0.75, 0.75))), 200), libmp.mpf_ln2(300), 300)
        neg, man, e, bc = r
        return name, mp._round(-1 if neg else 1, man, e,
                               draw(st.integers(2, max_prec)), mp.UNBOUNDED)
    # mpmath needs pi and ln 2 to about as many bits as x has above its
    # point: exp past 2**40 is covered by test_exp_beyond_the_exponent_limit
    top = {"sin": 1000, "cos": 1000, "exp": 40}.get(name, LIMIT - 1)
    exps = st.integers(-40, 12) if kind == "small" else st.integers(
        -LIMIT + 1, top)
    x = draw(mpfloats_normal(max_prec, exps))
    return name, (mp.abs_(x) if name == "ln" else x)


def mpfloats_normal(max_prec, exps):
    return mpmath_ref.mpfloats(max_prec, exps).filter(
        lambda v: v.cls == mp.NORMAL)


@given(primitive_args(), st.integers(2, 1000))
@settings(max_examples=1000, deadline=None)
def test_primitives_are_correctly_rounded(case, p):
    name, x = case
    got = PRIMITIVES[name](x, p)
    assert mpmath_ref.fields(got) == mpmath_ref.fn_reference(name, x, p)


@given(primitive_args(max_prec=400), st.integers(34, 600))
@settings(max_examples=400, deadline=None)
def test_error_bounds_enclose_the_exact_value(case, w):
    # the bound each evaluator proves, checked against mpmath's directed
    # roundings at a precision well past w
    name, x = case
    if name == "exp" and x.exp >= 31:
        return
    v, err, e = EVALUATORS[name](x, w)
    wp = w + 64 + max(0, (v + err).bit_length() - w)
    xm = libmp.from_man_exp(x.sign * x.mant, x.exp - x.prec + 1)
    fn = mpmath_ref._MPF_FN[name]
    lo = libmp.from_man_exp(v - err, e)
    hi = libmp.from_man_exp(v + err, e)
    assert libmp.mpf_le(lo, fn(xm, wp, libmp.round_floor))
    assert libmp.mpf_le(fn(xm, wp, libmp.round_ceiling), hi)


@pytest.mark.parametrize("name,x", [
    ("exp", 0.0), ("ln", 1.0), ("sin", 0.0), ("sin", -0.0), ("cos", 0.0),
    ("cos", -0.0), ("atan", 0.0), ("atan", -0.0)])
def test_exact_cases(name, x):
    for p in (2, 53, 256):
        got = PRIMITIVES[name](mp.from_float(x), p)
        want = mp.from_int(1, p) if name in ("exp", "cos") else mp.zero(p)
        assert mpmath_ref.fields(got) == mpmath_ref.fields(want)


def test_hard_cases_match_mpmath():
    cases = []
    for p in (2, 24, 53, 256, 1000):
        for k in (1, 2, 30, p - 1, p, p + 1, 2 * p, 3000):
            # ln of 1 +- 2**-k, and of the values just around 1
            for x in (mp.add(mp.from_int(1), mp.from_hex_string(
                    "0x1p-%d" % k), k + 2), mp.sub(mp.from_int(1),
                    mp.from_hex_string("0x1p-%d" % k), k + 2)):
                cases.append(("ln", x, p))
            # tiny arguments
            tiny = mp.from_hex_string("0x1.8p-%d" % (k * 7))
            for name in ("exp", "sin", "cos", "atan"):
                cases += [(name, tiny, p), (name, mp.neg(tiny), p)]
        for e in (-LIMIT + 1, LIMIT - 1):
            v = _normal(1, e, (1 << 255) | 0x1234567, 256)
            cases += [("ln", v, p), ("atan", v, p), ("atan", mp.neg(v), p)]
        v = _normal(-1, -LIMIT + 1, 1 << 255, 256)
        cases += [(name, v, p) for name in ("exp", "sin", "cos", "atan")]
        # results just off a p-bit midpoint, where the first enclosure
        # straddles it: sin and atan of a midpoint x, with x**3 far below
        # it or close enough for more guard bits; exp of 2**-p and of
        # -2**-(p + 1), next to 1 +- a half ulp, and cos of 2**(-p / 2)
        for e in (-300, -5000, -LIMIT + 10):
            for sign in (1, -1):
                x = _normal(sign, e, (1 << p) | 1, p + 1)
                cases += [("sin", x, p), ("atan", x, p)]
        cases += [("exp", mp.from_hex_string("0x1p-%d" % p), p),
                  ("exp", mp.from_hex_string("-0x1p-%d" % (p + 1)), p),
                  ("cos", mp.from_hex_string("0x1p-%d" % (p // 2)), p)]
    t0 = time.perf_counter()
    for name, x, p in cases:
        got = PRIMITIVES[name](x, p)
        assert mpmath_ref.fields(got) == mpmath_ref.fn_reference(name, x, p), \
            (name, x, p)
    assert time.perf_counter() - t0 < 5.0


def _mpf_of(text, p=256):
    return libmp.from_str(text, p, libmp.round_nearest)


@pytest.mark.parametrize("x", [
    mp.from_decimal_string("1e300", 256),
    mp.from_decimal_string("-1e300", 256),
    _normal(1, 80, 1 << 255, 256),                  # 2**80
    _normal(1, 1000, (1 << 255) | 12345, 256),      # near 2**1000
    _normal(-1, 999, (1 << 255) | 99991, 256),
    mp.from_decimal_string("1e20", 53),
])
def test_large_arguments_are_fast_and_correctly_rounded(x):
    t0 = time.perf_counter()
    for name in ("sin", "cos", "exp"):
        got = PRIMITIVES[name](x, 256)
        assert mpmath_ref.fields(got) == mpmath_ref.fn_reference(
            name, x, 256), name
        assert time.perf_counter() - t0 < 1.0, name


def test_largest_trig_argument():
    # its reduction computes pi to 2**16 bits, once
    x = _normal(1, (1 << 16) - 1, (1 << 52) | 7, 53)
    t0 = time.perf_counter()
    for name in ("sin", "cos"):
        got = PRIMITIVES[name](x, 256)
        assert mpmath_ref.fields(got) == mpmath_ref.fn_reference(
            name, x, 256), name
    assert time.perf_counter() - t0 < 10.0


def test_exp_beyond_the_exponent_limit():
    for e in (31, 32, 1000, LIMIT - 1):
        for sign in (1, -1):
            x = _normal(sign, e, (1 << 255) | 3, 256)
            t0 = time.perf_counter()
            got = tr.exp_mp(x, 256)
            assert time.perf_counter() - t0 < 1.0
            want = mp.inf(1, 256) if sign > 0 else mp.zero(256)
            assert mpmath_ref.fields(got) == mpmath_ref.fields(want)
    # just inside |x| < 2**31, where x / ln 2 still crosses the limit
    for sign in (1, -1):
        x = _normal(sign, 30, (1 << 255) | 3, 256)
        assert mpmath_ref.fields(tr.exp_mp(x, 256)) == \
            mpmath_ref.fn_reference("exp", x, 256)


def test_trig_of_arguments_beyond_reduction_range_is_a_domain_error():
    x = _normal(1, 1 << 16, 1 << 52, 53)
    for fn in (tr.sin_mp, tr.cos_mp):
        with pytest.raises(tr.DomainError):
            fn(x)
    with pytest.raises(tr.DomainError):
        tr.derived_fn("tan", [x])


@pytest.mark.parametrize("name,ref", [("pi", libmp.mpf_pi),
                                      ("ln2", libmp.mpf_ln2),
                                      ("ln10", libmp.mpf_ln10)])
def test_constants_are_correctly_rounded(name, ref):
    for p in list(range(2, 80)) + [113, 256, 257, 1000, 3000]:
        got = tr._ziv(tr._const_fixed, name, p)
        assert mpmath_ref.fields(got) == mpmath_ref._limited(
            ref(p, libmp.round_nearest), p, 1), (name, p)


def test_constant_cache_keeps_one_widest_value():
    tr._CACHE.clear()
    for s in (300, 100, 2000, 50, 1999):
        v = tr._const("pi", s)
        exact = libmp.mpf_shift(libmp.mpf_pi(s + 64), s)
        diff = libmp.mpf_sub(libmp.from_int(v), exact, 80)
        assert libmp.mpf_lt(libmp.mpf_abs(diff), libmp.from_int(2))
    assert set(tr._CACHE) == {"pi"}
    assert tr._CACHE["pi"][0] >= 2000


def test_constants_are_not_computed_at_import():
    code = ("import precfix.transcendental as tr, precfix.cli; "
            "print(len(tr._CACHE))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             sys.path))).stdout
    assert out.strip() == "0"
