"""High-precision elementary functions used as the accuracy standard.

The primitives exp, ln, sin, cos and atan, and the constants pi, ln 2 and
ln 10, are correctly rounded (Ziv): each is evaluated on scaled Python
integers together with a proven bound on its error, and the result is
rounded to the oracle's precision of p bits (256 unless given, at least
2; nearest, ties to even) only when both ends of the bound round to the
same value; otherwise it is evaluated again with more bits.  Results keep
mpfloat's exponent limit, so exp beyond it gives inf or 0; sin and cos
reject |x| >= 2**65536, whose reduction would need pi to as many bits.
Derived functions compose the primitives at p, mirroring how a calculator
user would chain them; in particular pow(a, c) is literally exp(c * ln a)
so the identity pow(20, 65) == exp(65 * ln 20) holds bit-for-bit.

A fixed-point value V at scale s stands for V * 2**-s.  Each evaluator
returns (V, err, e): the exact result lies in [(V - err) * 2**e,
(V + err) * 2**e].
"""

from __future__ import annotations

import math

from . import InputError, mpfloat as mp
from .mpfloat import MPFloat


class DomainError(InputError):
    """Argument outside the mathematical domain of a function."""


_TRIG_EXP_LIMIT = 1 << 16  # sin and cos need |x| < 2**_TRIG_EXP_LIMIT


def _arc_inv(m, s, alt):
    """2**s * atan(1/m) (alt) or atanh(1/m), for m >= 3, within 2n + 2 after
    n terms: each power floor(2**s / m**k) is exact, as the floor of a
    floor, and each term adds less than 2."""
    m2 = m * m
    power = (1 << s) // m
    total, k = 0, 1
    while power:
        term = power // k
        total += -term if alt and k & 2 else term
        power //= m2
        k += 2
    return total


_CONSTANTS = {
    "ln2": lambda s: 2 * _arc_inv(3, s, False),
    "ln10": lambda s: 6 * _arc_inv(3, s, False) + 2 * _arc_inv(9, s, False),
    "pi": lambda s: 16 * _arc_inv(5, s, True) - 4 * _arc_inv(239, s, True),
}
_CACHE = {}  # name -> (s, constant * 2**s within 2): the widest so far


def _const(name, s):
    """The constant at scale s, within 2.  A request wider than the kept
    value replaces it (at 1.5 times its width at least); narrower ones
    shift it."""
    w, v = _CACHE.get(name, (0, 0))
    if w < s:
        w = max(s, w + w // 2)
        g = w.bit_length() + 7  # the series' error is below 2**g / 2
        v = _CONSTANTS[name](w + g) >> g
        _CACHE[name] = (w, v)
    return v >> (w - s)


def _const_fixed(name, w):
    return _const(name, w), 2, -w


def _scale2(v, n):
    if v.cls != mp.NORMAL or n == 0:
        return v
    return MPFloat(mp.NORMAL, v.sign, v.exp + n, v.mant, v.prec)


def _fixed(x, s):
    """(X, err): x * 2**s truncated to an integer, off by err."""
    sh = s + x.exp - x.prec + 1
    if sh >= 0:
        return x.sign * (x.mant << sh), 0
    return x.sign * (x.mant >> -sh), 1


def _square_err(v, err, s):
    """Error bound of (v * v) >> s when v is off by err."""
    return ((2 * abs(v) + err) * err >> s) + 2


def _product_err(a, ea, b, eb):
    """Error bound of a * b when a and b are off by ea and eb."""
    return abs(a) * eb + abs(b) * ea + ea * eb


def _ziv(evaluate, x, p):
    """The p-bit rounding of a value that evaluate(x, w) encloses ever more
    tightly as the working precision w grows: the first enclosure whose
    two ends round alike decides it."""
    w = p + 32
    while True:
        v, err, e = evaluate(x, w)
        lo, hi = v - err, v + err
        if lo > 0 or hi < 0:
            r = mp._round_enclosed(1 if lo > 0 else -1, abs(lo), abs(hi), e,
                                   p)
            if r is not None:
                return r
        w += w // 2


def _exp_fixed(x, w):
    """exp(x) = 2**n * exp(r)**(2**k) with r = x - n ln 2, |r| <= 0.35."""
    n = round(x.to_float() / 0.6931471805599453)
    s = w + n.bit_length() + 2
    X, err = _fixed(x, s)
    r = X - n * _const("ln2", s)
    err += 2 * abs(n)  # at scale s, so exp(r) is off by 2 * err
    # read at scale t = s + k, the same integer stands for r / 2**k
    k = math.isqrt(s) // 2
    t = s + k
    a = abs(r)
    total = term = 1 << t
    i = 1
    while term:  # every term is off by less than 2, the tail by 5
        term = (term * a >> t) // i
        total += -term if r < 0 and i & 1 else term
        i += 1
    err = 2 * i + 5 + 2 * err
    for _ in range(k):
        total, err = total * total >> t, _square_err(total, err, t)
    return total, err, n - t


def _ln_fixed(x, w):
    """ln x = k ln 2 + 2**(j + 1) atanh(u), where x = a * 2**k with a in
    [0.75, 1.5), b = a**(2**-j) and u = (b - 1) / (b + 1)."""
    k, sa = x.exp, x.prec - 1  # a = x.mant / 2**sa
    if x.mant > 3 << (sa - 1):
        k, sa = k + 1, sa + 1
    d = x.mant - (1 << sa)  # a - 1 at scale sa, exact
    td = sa + 1 - d.bit_length() if d else 0  # |a - 1| >= 2**-td
    j = max(0, math.isqrt(w) // 4 + 1 - td)  # square roots
    s = w + td + j + k.bit_length() + 4
    one = 1 << s
    sh = s - sa
    d, err = (d << sh, 0) if sh >= 0 else (d >> -sh, 1)
    if j:
        b = d + one
        for _ in range(j):  # the error shrinks by 0.58 at least, plus 1
            b = math.isqrt(b << s)
            err = (3 * err + 4) // 5 + 1
        d = b - one
    u = (d << s) // (d + 2 * one)
    err_u = (2 * err + 2) // 3 + 1  # |du/dd| <= 0.66
    # atanh(u) / u = sum z**i / (2i + 1), z = u * u <= 0.04, at scale w
    z = u * u >> (2 * s - w)
    total = power = 1 << w
    i = 1
    while power:
        power = power * z >> w
        total += power // (2 * i + 1)
        i += 1
    err_s = 2 * i + 4 + _square_err(u, err_u, 2 * s - w)
    v = (u * total << (j + 1)) + k * _const("ln2", s + w)
    err = (_product_err(u, err_u, total, err_s) << (j + 1)) + 2 * abs(k)
    return v, err, -(s + w)


def _sin_fixed(x, w, q=0):
    """sin(x + q pi/2) = +-sin(r) or +-cos(r), r = x - n pi/2, |r| <= pi/4,
    from pi at as many bits as x has above its point, widened until r has
    w bits above its error."""
    s = w + abs(x.exp) + 8
    while True:
        r, err = _fixed(x, s)
        n = 0
        if x.exp >= -1:
            half_pi = _const("pi", s - 1)
            n = (2 * r + half_pi) // (2 * half_pi)
            r -= n * half_pi
            err += 2 * abs(n)
        lack = w + err.bit_length() - abs(r).bit_length()
        if lack <= 0:
            break
        s += lack + 4
    q = (q + n) & 3
    z = r * r >> (2 * s - w)
    err_z = _square_err(r, err, 2 * s - w)
    total = term = 1 << w
    # cos r = sum (-z)**m / (2m)!, sin r / r = sum (-z)**m / (2m + 1)!
    i = 1 if q & 1 else 2
    while term:  # every term is off by less than 3, the tail by 5
        term = (term * z >> w) // (i * (i + 1))
        total += -term if (i + 1) & 2 else term
        i += 2
    err_t = 3 * i + 8 + err_z
    sign = -1 if q & 2 else 1
    if q & 1:
        return sign * total, err_t, -w
    return sign * r * total, _product_err(r, err, total, err_t), -(s + w)


def _cos_fixed(x, w):
    return _sin_fixed(x, w, 1)


def _atan_fixed(x, w):
    """atan |x| = 2**j atan(y), or pi/2 minus that for |x| >= 1, where y is
    |x| or 1/|x| halved j times by y -> y / (1 + sqrt(1 + y*y)) until
    y < 2**-h."""
    h = math.isqrt(w) // 4  # at least 1, so z < 1/4
    if x.exp >= 0:
        s = w + h + 8
        sh = s + x.prec - 1 - x.exp  # 1/|x| = 2**(prec - 1 - exp) / mant
        y, err = ((1 << sh) // x.mant if sh >= 0 else 0), 1
    else:
        s = w + h + 8 - x.exp
        y, err = _fixed(x, s)
        y = abs(y)
    j = 0
    while y.bit_length() > s - h:
        one = 1 << s
        y = (y << s) // (one + math.isqrt((one << s) + y * y))
        err = (err + 1) // 2 + 2  # |dy'/dy| <= 1/2, plus 1.25 of rounding
        j += 1
    # atan(y) / y = sum (-z)**i / (2i + 1), z = y * y, at scale w
    z = y * y >> (2 * s - w)
    total = power = 1 << w
    i = 1
    while power:
        power = power * z >> w
        total += -(power // (2 * i + 1)) if i & 1 else power // (2 * i + 1)
        i += 1
    err_a = 2 * i + 4 + _square_err(y, err, 2 * s - w)
    v = y * total << j
    err = _product_err(y, err, total, err_a) << j
    if x.exp >= 0:
        v, err = _const("pi", s + w - 1) - v, err + 2
    return x.sign * v, err, -(s + w)


# ---------------------------------------------------------------------------
# public primitives
# ---------------------------------------------------------------------------


def _check_finite(x, fn):
    if not x.is_finite():
        raise DomainError("%s needs a finite argument" % fn)


def exp_mp(x, p=256):
    _check_finite(x, "exp")
    if x.cls == mp.ZERO:
        return mp.from_int(1, p)
    if x.exp >= 31:  # |x| >= 2**31: 2**(x / ln 2) is beyond the limit
        return mp.inf(1, p) if x.sign > 0 else mp.zero(p)
    return _ziv(_exp_fixed, x, p)


def ln_mp(x, p=256):
    _check_finite(x, "ln")
    if x.cls == mp.ZERO or x.sign < 0:
        raise DomainError("ln needs a positive argument")
    if x.exp == 0 and x.mant == 1 << (x.prec - 1):
        return mp.zero(p)
    return _ziv(_ln_fixed, x, p)


def _check_trig(x, fn):
    _check_finite(x, fn)
    if x.cls == mp.NORMAL and x.exp >= _TRIG_EXP_LIMIT:
        raise DomainError("%s needs |x| < 2**%d" % (fn, _TRIG_EXP_LIMIT))


def _below_cube(x, p):
    """The p-bit rounding of x - eta, for every eta of x's sign with
    |eta| < 2**(3 * x.exp + 2), when 2 * x.exp < -(max(x.prec, p) + 4):
    then x and every rounding boundary near it are multiples of a power of
    two above both eta and the stand-in 2**(3 * x.exp + 1).  This rounds
    sin x and atan x of an x too small for Ziv's test to separate them from
    x, should x lie on a boundary."""
    return mp.sub(x, MPFloat(mp.NORMAL, x.sign, 3 * x.exp + 1, 2, 2), p)


def _tiny(x, p):
    return 2 * x.exp < -(max(x.prec, p) + 4)


def sin_mp(x, p=256):
    _check_trig(x, "sin")
    if x.cls == mp.ZERO:
        return mp.zero(p)
    if _tiny(x, p):  # |x - sin x| < |x|**3 / 6
        return _below_cube(x, p)
    return _ziv(_sin_fixed, x, p)


def cos_mp(x, p=256):
    _check_trig(x, "cos")
    if x.cls == mp.ZERO:
        return mp.from_int(1, p)
    return _ziv(_cos_fixed, x, p)


def atan_mp(x, p=256):
    _check_finite(x, "atan")
    if x.cls == mp.ZERO:
        return mp.zero(p)
    if _tiny(x, p):  # |x - atan x| < |x|**3 / 3
        return _below_cube(x, p)
    return _ziv(_atan_fixed, x, p)


def pi_const(p=256):
    return _ziv(_const_fixed, "pi", p)


def _ln2(p):
    return _ziv(_const_fixed, "ln2", p)


def _ln10(p):
    return _ziv(_const_fixed, "ln10", p)


# ---------------------------------------------------------------------------
# derived functions (scientific-library formula table)
# ---------------------------------------------------------------------------


def _asin(a, p):
    one = mp.from_int(1, p)
    c = mp.cmp(mp.abs_(a), one)
    if c is None or c > 0:
        raise DomainError("asin needs |a| <= 1")
    if c == 0:
        q = _scale2(pi_const(p), -1)
        return q if a.sign > 0 else mp.neg(q)
    denom = mp.sqrt(mp.sub(one, mp.mul(a, a, p), p), p)
    return atan_mp(mp.div(a, denom, p), p)


def _atan2(a, c, p):
    if c.cls == mp.ZERO:
        if a.cls == mp.ZERO:
            return mp.zero(p)
        q = _scale2(pi_const(p), -1)
        return q if a.sign > 0 else mp.neg(q)
    base = atan_mp(mp.div(a, c, p), p)
    if c.sign > 0:
        return base
    pi_v = pi_const(p)
    if a.cls != mp.ZERO and a.sign < 0:
        return mp.sub(base, pi_v, p)
    return mp.add(base, pi_v, p)


def derived_fn(name, args, p=256):
    """Evaluate one formula-table function over MPFloat arguments at p
    bits, p >= 2."""
    one = mp.from_int(1, p)
    if name not in FUNCTION_ARITY:
        raise ValueError("unknown function: %r" % (name,))
    if len(args) != FUNCTION_ARITY[name]:
        raise ValueError("%s takes %d argument(s)" % (name, FUNCTION_ARITY[name]))
    for v in args:
        _check_finite(v, name)
    a = args[0]

    if name == "asin":
        return _asin(a, p)
    if name == "acos":
        return mp.sub(_scale2(pi_const(p), -1), _asin(a, p), p)
    if name == "acosh":
        if mp.cmp(a, one) < 0:
            raise DomainError("acosh needs a >= 1")
        root = mp.sqrt(mp.sub(mp.mul(a, a, p), one, p), p)
        return ln_mp(mp.add(a, root, p), p)
    if name == "asinh":
        root = mp.sqrt(mp.add(mp.mul(a, a, p), one, p), p)
        return ln_mp(mp.add(a, root, p), p)
    if name == "atan":
        return atan_mp(a, p)
    if name == "atan2":
        return _atan2(a, args[1], p)
    if name == "atanh":
        c = mp.cmp(mp.abs_(a), one)
        if c is None or c >= 0:
            raise DomainError("atanh needs |a| < 1")
        ratio = mp.div(mp.add(one, a, p), mp.sub(one, a, p), p)
        return _scale2(ln_mp(ratio, p), -1)
    if name == "cos":
        return cos_mp(a, p)
    if name == "cosh":
        e = exp_mp(a, p)
        return _scale2(mp.add(e, mp.div(one, e, p), p), -1)
    if name == "exp":
        return exp_mp(a, p)
    if name == "exp2":
        return exp_mp(mp.mul(a, _ln2(p), p), p)
    if name == "exp10":
        return exp_mp(mp.mul(a, _ln10(p), p), p)
    if name == "fmod":
        c = args[1]
        if c.cls == mp.ZERO:
            raise DomainError("fmod needs a nonzero divisor")
        q = mp.floor(mp.div(a, c, p))
        return mp.sub(a, mp.mul(q, c, p), p)
    if name == "hypot":
        b = args[1]
        return mp.sqrt(mp.add(mp.mul(a, a, p), mp.mul(b, b, p), p), p)
    if name == "log":
        return ln_mp(a, p)
    if name == "log2":
        return mp.div(ln_mp(a, p), _ln2(p), p)
    if name == "log10":
        return mp.div(ln_mp(a, p), _ln10(p), p)
    if name == "pow":
        if a.cls == mp.ZERO or a.sign < 0:
            raise DomainError("pow needs a positive base")
        return exp_mp(mp.mul(args[1], ln_mp(a, p), p), p)
    if name == "sin":
        return sin_mp(a, p)
    if name == "sinh":
        e = exp_mp(a, p)
        return _scale2(mp.sub(e, mp.div(one, e, p), p), -1)
    if name == "sqrt":
        if a.cls == mp.NORMAL and a.sign < 0:
            raise DomainError("sqrt needs a nonnegative argument")
        return mp.sqrt(a, p)
    if name == "tan":
        c = cos_mp(a, p)
        if c.cls == mp.ZERO:
            raise DomainError("tan pole")
        return mp.div(sin_mp(a, p), c, p)
    if name == "tanh":
        e = exp_mp(a, p)
        ei = mp.div(one, e, p)
        return mp.div(mp.sub(e, ei, p), mp.add(e, ei, p), p)
    raise AssertionError(name)


FUNCTION_ARITY = {
    "acos": 1, "acosh": 1, "asin": 1, "asinh": 1, "atan": 1, "atan2": 2,
    "atanh": 1, "cos": 1, "cosh": 1, "exp": 1, "exp2": 1, "exp10": 1,
    "fmod": 2, "hypot": 2, "log": 1, "log2": 1, "log10": 1, "pow": 2,
    "sin": 1, "sinh": 1, "sqrt": 1, "tan": 1, "tanh": 1,
}
