"""mpmath references and operand strategies for mpfloat's arithmetic.

`reference` computes what mpfloat's UNBOUNDED add, sub, mul, div and sqrt
must return, with mpmath.libmp rounding to nearest at p bits.  mpmath has
neither an exponent limit nor signed zeros, so the two mpfloat rules are
applied here: a rounded exponent at or beyond +-2^31 gives +-inf or +-0,
and the sign of a zero follows IEEE 754.
"""

from hypothesis import strategies as st
from mpmath import libmp

from precfix import mpfloat as mp

LIMIT = mp._EXP_LIMIT
_MPF = {"add": libmp.mpf_add, "sub": libmp.mpf_sub, "mul": libmp.mpf_mul,
        "div": libmp.mpf_div}


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
    if r == libmp.fnan:
        return fields(mp.nan(p))
    if r in (libmp.finf, libmp.fninf):
        return fields(mp.inf(1 if r == libmp.finf else -1, p))
    if r == libmp.fzero:
        return fields(mp.zero(p, _zero_sign(op, a, b)))
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


@st.composite
def cases(draw, ops, p_min, p_max):
    """(op, p, a, b): independent operands, near-cancelling ones, or ones
    whose exact result lies at either end of the exponent range; mixed
    precisions up to p_max and every value class throughout."""
    op = draw(st.sampled_from(ops))
    p = draw(st.integers(p_min, p_max))
    kind = draw(st.sampled_from(["free", "cancel", "top", "bottom"]))
    if kind in ("top", "bottom") and op != "sqrt":
        ea, eb = _edge_exps(op, kind == "top")
        return op, p, draw(mpfloats(p_max, ea)), draw(mpfloats(p_max, eb))
    a = draw(mpfloats(p_max, st.integers(-1200, 1200)))
    if kind == "cancel" and a.cls == mp.NORMAL:
        b = mp.round_to(a, draw(st.integers(2, p_max)))
        if draw(st.booleans()):
            b = mp.neg(b)
    else:
        b = draw(mpfloats(p_max, st.integers(-1200, 1200)))
    return op, p, a, b
