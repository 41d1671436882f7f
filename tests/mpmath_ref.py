"""mpmath references and operand strategies for mpfloat's arithmetic and
the oracle's primitives.

`reference` computes what mpfloat's UNBOUNDED add, sub, mul, div and sqrt
must return, and `fn_reference` what the correctly rounded exp, ln, sin,
cos and atan of `transcendental` must return, with mpmath.libmp rounding to
nearest at p bits.  mpmath has neither an exponent limit nor signed zeros,
so the two mpfloat rules are applied here: a rounded exponent at or beyond
+-2^31 gives +-inf or +-0, and the sign of a zero follows IEEE 754.
"""

from hypothesis import strategies as st
from mpmath import libmp

from precfix import mpfloat as mp

LIMIT = mp._EXP_LIMIT
_MPF = {"add": libmp.mpf_add, "sub": libmp.mpf_sub, "mul": libmp.mpf_mul,
        "div": libmp.mpf_div}
_MPF_FN = {"exp": libmp.mpf_exp, "ln": libmp.mpf_log, "sin": libmp.mpf_sin,
           "cos": libmp.mpf_cos, "atan": libmp.mpf_atan}


def fields(v):
    return (v.cls, v.sign, v.exp, v.mant, v.prec)


def _to_mpf(v):
    if v.cls == mp.ZERO:
        return libmp.fzero
    if v.cls == mp.INF:
        return libmp.finf if v.sign > 0 else libmp.fninf
    if v.cls == mp.NAN:
        return libmp.fnan
    return libmp.from_man_exp(v.sign * v.mant, v.exp - v.prec + 1)


def _zero_sign(op, a, b):
    if op == "sqrt":
        return a.sign
    if op in ("mul", "div"):
        return a.sign * b.sign
    # a sum is -0 only for -0 + -0; an exact cancellation gives +0
    sb = b.sign if op == "add" else -b.sign
    both = a.cls == mp.ZERO and b.cls == mp.ZERO
    return -1 if both and a.sign < 0 and sb < 0 else 1


def reference(op, a, b, p):
    """Fields of mp.<op>(a, b, p) (mp.sqrt(a, p) for "sqrt") under the
    UNBOUNDED policy."""
    x = _to_mpf(a)
    if op == "sqrt":
        if a.sign < 0 and a.cls in (mp.NORMAL, mp.INF):
            r = libmp.fnan
        else:
            r = libmp.mpf_sqrt(x, p, libmp.round_nearest)
    elif op == "div" and b.cls == mp.ZERO:
        nan = a.cls in (mp.ZERO, mp.NAN)
        r = libmp.fnan if nan else (
            libmp.finf if a.sign * b.sign > 0 else libmp.fninf)
    else:
        r = _MPF[op](x, _to_mpf(b), p, libmp.round_nearest)
    return _limited(r, p, _zero_sign(op, a, b))


def fn_reference(name, x, p):
    """Fields of transcendental.<name>_mp(x) at p_s = p for a normal x in
    its domain, rounded to nearest with the exponent limit applied.

    mpmath's own results are not always correctly rounded: sin at 27 bits
    can be one ulp off, ln(0.25 + 2**-25) at 2 bits comes out as 2**-23,
    and exp(2**-256) at 320 bits rounds to 1 + 2**-256 both down and up.
    So the value is decided from mpmath's directed roundings at p + 64 bits
    or more, each widened by 4 ulps.  For sin and
    atan of an x so small that x**3 lies below every rounding boundary near
    x, only the direction of sin x - x counts, and x - x**3 / 8 stands in."""
    f = _MPF_FN[name]
    xm = _to_mpf(x)
    top = xm[2] + xm[3] - 1
    if name in ("sin", "atan") and 2 * top < -(max(xm[3], p) + 4):
        cube = libmp.mpf_mul(libmp.mpf_mul(xm, xm), xm)
        return _limited(libmp.mpf_sub(xm, libmp.mpf_shift(cube, -3), p,
                                      libmp.round_nearest), p, 1)
    wp = p + 64
    while True:
        lo = f(xm, wp, libmp.round_floor)
        hi = f(xm, wp, libmp.round_ceiling)
        if lo == libmp.fzero:  # ln 1, the one exact result
            return _limited(lo, p, 1)
        ulps = libmp.from_man_exp(4, lo[2] + lo[3] - wp)
        a = libmp.mpf_sub(lo, ulps, p, libmp.round_nearest)
        b = libmp.mpf_add(hi, ulps, p, libmp.round_nearest)
        if a == b:
            return _limited(a, p, 1)
        wp *= 2


def _limited(r, p, zero_sign):
    if r == libmp.fnan:
        return fields(mp.nan(p))
    if r in (libmp.finf, libmp.fninf):
        return fields(mp.inf(1 if r == libmp.finf else -1, p))
    if r == libmp.fzero:
        return fields(mp.zero(p, zero_sign))
    neg, man, exp, bc = r
    sign = -1 if neg else 1
    top = exp + bc - 1
    if top >= LIMIT:
        return fields(mp.inf(sign, p))
    if top <= -LIMIT:
        return fields(mp.zero(p, sign))
    return (mp.NORMAL, sign, top, man << (p - bc), p)


# -- operands ---------------------------------------------------------------


@st.composite
def mpfloats(draw, max_prec, exps):
    """Any MPFloat class at a precision in 2..max_prec; normal values
    three times as often as each other class."""
    cls = draw(st.sampled_from([mp.NORMAL] * 3 + [mp.ZERO, mp.INF, mp.NAN]))
    sign = draw(st.sampled_from([1, -1]))
    prec = draw(st.integers(2, max_prec))
    if cls != mp.NORMAL:
        return mp.MPFloat(cls, 1 if cls == mp.NAN else sign, 0, 0, prec)
    frac = draw(st.integers(0, (1 << (prec - 1)) - 1))
    return mp.MPFloat(mp.NORMAL, sign, draw(exps), (1 << (prec - 1)) | frac,
                      prec)


def _edge_exps(op, top):
    """Operand exponents whose exact result lies on either side of one end
    of the exponent range."""
    if op == "mul":
        mid = LIMIT // 2 if top else -LIMIT // 2
        return st.integers(mid - 4, mid + 4), st.integers(mid - 4, mid + 4)
    if op == "div":
        mid = LIMIT // 2 if top else -LIMIT // 2
        return st.integers(mid - 4, mid + 4), st.integers(-mid - 4, -mid + 4)
    if top:
        return st.integers(LIMIT - 9, LIMIT - 1), st.integers(LIMIT - 9,
                                                             LIMIT - 1)
    return st.integers(-LIMIT + 1, -LIMIT + 9), st.integers(-LIMIT + 1,
                                                           -LIMIT + 9)


def _far_exps():
    """(high, low) operand exponents: gaps near the operand precisions,
    around 4096 (where mpfloat's add starts to look for a far-apart
    shortcut) or up to the whole exponent range."""
    gap = st.one_of(st.integers(0, 2100), st.integers(4000, 6200),
                    st.integers(0, 2 * LIMIT - 2))
    return st.tuples(st.integers(-LIMIT + 1, LIMIT - 1), gap).map(
        lambda t: (t[0], max(t[0] - t[1], -LIMIT + 1)))


@st.composite
def cases(draw, ops, p_min, p_max):
    """(op, p, a, b): independent operands, near-cancelling ones, ones
    whose exact result lies at either end of the exponent range, or ones
    far apart in magnitude; mixed precisions up to p_max and every value
    class throughout."""
    op = draw(st.sampled_from(ops))
    p = draw(st.integers(p_min, p_max))
    kind = draw(st.sampled_from(["free", "cancel", "top", "bottom", "far"]))
    if kind in ("top", "bottom") and op != "sqrt":
        ea, eb = _edge_exps(op, kind == "top")
        return op, p, draw(mpfloats(p_max, ea)), draw(mpfloats(p_max, eb))
    if kind == "far" and op in ("add", "sub"):
        hi, lo = draw(_far_exps())
        a, b = draw(mpfloats(p_max, st.just(hi))), \
            draw(mpfloats(p_max, st.just(lo)))
        return (op, p, a, b) if draw(st.booleans()) else (op, p, b, a)
    a = draw(mpfloats(p_max, st.integers(-1200, 1200)))
    if kind == "cancel" and a.cls == mp.NORMAL:
        b = mp.round_to(a, draw(st.integers(2, p_max)))
        if draw(st.booleans()):
            b = mp.neg(b)
    else:
        b = draw(mpfloats(p_max, st.integers(-1200, 1200)))
    return op, p, a, b
