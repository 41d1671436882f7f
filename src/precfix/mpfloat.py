"""Arbitrary-precision binary floating point with round-to-nearest-even.

A value is (class, sign, exponent, mantissa, precision) where a normal
number equals sign * mantissa * 2**(exponent - precision + 1) and the
mantissa has exactly `precision` bits with the top bit set.  Two exponent
policies exist: UNBOUNDED (exponent limited only by sanity bounds) and
BINARY64 (IEEE double range: subnormal rounding, overflow to infinity).
One rounding rule serves both: `_round` rounds an exact sign * m * 2**e
nearest-even to p bits, its last kept bit raised to 2**-1074 under
BINARY64, then applies the policy's overflow and underflow limits;
`MPFloat.to_float` is its binary64 rounding as a host float.
Arithmetic forms each exact result in one place for both policies
(BINARY64 takes p = 53).  add, sub and mul of two normal values form an
exact integer result in `_nearest`, which the engine also calls directly;
an addend too far below the other to count beyond its sign stands in as
one bit (`_sticky`).  `div` of two normal values forms one integer
quotient of p + 1 or p + 2 bits, its remainder the sticky bit.  Both round
to p bits inline when the rounded exponent lies in binary64's normal
range, -1022 to 1023, where the two policies round alike; any other
result goes to `_round`, so the policy is read only there.
Every decimal (input row, TAC literal, `corpus.Grid` point) is rounded
once, exactly, by `_round_decimal`, or under BINARY64 by the host's parse.
All values are immutable; every operation returns a fresh value.

The relative error |shadow - original| / |shadow| as a host float, which
the engine samples in stream mode, is `_rel_err_float` for an MPFloat
original and `_rel_err_host` for a host-float one; the two agree bit for
bit.  Its conventions for a pair that is not both normal (0, 1 or inf)
live in `relative_error`, which `_rel_err_float` calls for such a pair;
`_rel_err_host` compares a shadow that is not normal with its original.
Two normal lanes whose lowest bits lie within 600 binades take the
exact integer difference; a host original whose last bit lies on or not
far above the shadow's is read as an integer count of the shadow's last
bit from one `math.ldexp` (`_rel_err_host`).  Lanes too far apart for the
exact integer difference take a closed form: 1 when the original lies
below half an ulp of the shadow at p_shadow, else |original| / |shadow|
rounded once, which a host original far above the shadow forms from its
own mantissa.  Given a host original and a sink, `_nearest` and `div`
pass that error for the value they have just rounded, from one
`_rel_err_host` call; `_nearest` forms the exact-integer case inline, from
the rounding's own fields, and calls `_rel_err_host` for any other result.
"""

from __future__ import annotations

import math
import re
import struct

from . import InputError

# value classes
ZERO = 0
NORMAL = 1
INF = 2
NAN = 3

# exponent policies
UNBOUNDED = "unbounded"
BINARY64 = "binary64"


def policy_for(p):
    """The exponent policy of a p-bit original lane: binary64's range at 53
    bits, unbounded at any other precision."""
    return BINARY64 if p == 53 else UNBOUNDED


# binary64 layout
_B64_EMAX = 1023
_B64_EMIN = -1022
_B64_QUANTUM = -1074  # lsb exponent of the smallest subnormal

_EXP_LIMIT = 1 << 31  # spec sanity bound on exponent magnitude

# significant digits a decimal literal may have; leading and trailing zeros
# do not count
MAX_DECIMAL_DIGITS = 4000
# exponent digits read; a longer exponent is past every range limit, so it
# stands in for any larger magnitude
_EXP_DIGITS = 12

_DEC_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?(?:[eE]([+-]?\d+))?$")
_HEX_RE = re.compile(
    r"^[+-]?0[xX]([0-9a-fA-F]+)(?:\.([0-9a-fA-F]*))?[pP]([+-]?\d+)$"
)


class NotRepresentable(ValueError):
    """Value does not fit the requested binary64 encoding."""


class ParseError(InputError):
    """Malformed numeric literal."""


def quote(text):
    """repr of a rejected literal for a diagnostic: past 40 characters, a
    prefix and the length."""
    if len(text) <= 40:
        return repr(text)
    return "%r... (%d characters)" % (text[:40], len(text))


class MPFloat:
    __slots__ = ("cls", "sign", "exp", "mant", "prec")

    def __init__(self, cls, sign, exp, mant, prec):
        self.cls = cls
        self.sign = sign
        self.exp = exp
        self.mant = mant
        self.prec = prec

    # -- predicates ---------------------------------------------------------

    def is_finite(self):
        return self.cls == ZERO or self.cls == NORMAL

    # -- equality is exact value equality (zero signs ignored, NaN != NaN) --

    def __eq__(self, other):
        if not isinstance(other, MPFloat):
            return NotImplemented
        r = cmp(self, other)
        return r == 0

    def __hash__(self):
        if self.cls == NORMAL:
            m, e = self.mant, self.exp - self.prec + 1
            tz = (m & -m).bit_length() - 1
            return hash((NORMAL, self.sign, e + tz, m >> tz))
        return hash((self.cls, self.sign if self.cls == INF else 0))

    def __repr__(self):
        if self.cls == ZERO:
            return "MPFloat(%s0 @%d)" % ("-" if self.sign < 0 else "+", self.prec)
        if self.cls == INF:
            return "MPFloat(%sinf @%d)" % ("-" if self.sign < 0 else "+", self.prec)
        if self.cls == NAN:
            return "MPFloat(nan @%d)" % self.prec
        return "MPFloat(%s @%d)" % (to_sci_string(self, 20), self.prec)

    def to_float(self):
        """The value rounded to binary64 as a host float: nearest even,
        subnormals below 2**-1022, +-inf past the range."""
        v = self
        if v.cls == NORMAL and not (v.prec <= 53
                                    and _B64_EMIN <= v.exp <= _B64_EMAX):
            v = _round(v.sign, v.mant, v.exp - v.prec + 1, 53, BINARY64)
        if v.cls == NORMAL:  # exact: at most 53 bits, not below 2**-1074
            return math.ldexp(v.sign * v.mant, v.exp - v.prec + 1)
        if v.cls == ZERO:
            return -0.0 if v.sign < 0 else 0.0
        return math.inf * v.sign if v.cls == INF else math.nan


# builds an MPFloat without __init__, its slots then set one by one
_new = object.__new__


def zero(prec=53, sign=1):
    return MPFloat(ZERO, sign, 0, 0, prec)


def inf(sign=1, prec=53):
    return MPFloat(INF, sign, 0, 0, prec)


def nan(prec=53):
    return MPFloat(NAN, 1, 0, 0, prec)


# ---------------------------------------------------------------------------
# rounding cores
# ---------------------------------------------------------------------------


def _round(sign, m, e_lsb, p, policy):
    """sign * m * 2**e_lsb (m > 0) rounded nearest-even to p bits, then
    held to the policy's range.  Under BINARY64 p is 53 and the last kept
    bit is never below 2**-1074, which gives the subnormals; a result
    above binary64's range is an infinity.  Under UNBOUNDED an exponent
    past +-2**31 gives an infinity or a zero."""
    top = e_lsb + m.bit_length() - 1
    if policy == BINARY64:
        p = 53
        unit = top - 52 if top >= _B64_EMIN else _B64_QUANTUM
    else:
        unit = top - p + 1
    sh = unit - e_lsb - 1
    if sh >= 0:
        # as in _nearest: q keeps the rounding bit as its lowest bit
        q = m >> sh
        if q & 1 and (q & 2 or m & ((1 << sh) - 1)):
            q = (q >> 1) + 1
        else:
            q >>= 1
        if not q:
            return zero(p, sign)
    else:
        q = m << (-1 - sh)
    n = q.bit_length()
    top = unit + n - 1
    q = q >> 1 if n > p else q << (p - n)  # n > p: carried to 2**p
    if policy == BINARY64:
        if top > _B64_EMAX:
            return inf(sign)
    elif not -_EXP_LIMIT < top < _EXP_LIMIT:
        return inf(sign, p) if top > 0 else zero(p, sign)
    return MPFloat(NORMAL, sign, top, q, p)


def _round_enclosed(sign, lo, hi, e, p, policy=UNBOUNDED):
    """The rounding shared by every value from sign * lo * 2**e to
    sign * hi * 2**e (lo, hi > 0), or None when the two ends round apart."""
    a = _round(sign, lo, e, p, policy)
    b = _round(sign, hi, e, p, policy)
    if a.cls == b.cls and a.exp == b.exp and a.mant == b.mant:
        return a
    return None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def from_int(n, p=None):
    if n == 0:
        return zero(p or 53)
    sign = 1 if n > 0 else -1
    m = abs(n)
    if p is None:
        p = max(2, m.bit_length())
    return _round(sign, m, 0, p, UNBOUNDED)


def from_binary64_bits(bits):
    """Decode any 64-bit pattern exactly; precision tag 53."""
    if not 0 <= bits < (1 << 64):
        raise ValueError("need a 64-bit pattern")
    sign = -1 if bits >> 63 else 1
    biased = (bits >> 52) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    if biased == 0x7FF:
        return nan() if frac else inf(sign)
    if biased == 0:
        if frac == 0:
            return zero(53, sign)
        nb = frac.bit_length()
        return MPFloat(NORMAL, sign, _B64_QUANTUM + nb - 1, frac << (53 - nb), 53)
    m = (1 << 52) | frac
    return MPFloat(NORMAL, sign, biased - 1023, m, 53)


def to_binary64_bits(v):
    """Inverse of from_binary64_bits; raises NotRepresentable otherwise.

    Only tests call it, as their strict binary64 reference: to_float
    rounds any value to a double, this refuses one that is not exactly a
    double, so comparing its bits also checks that a lane held one."""
    if v.cls == ZERO:
        return (1 << 63) if v.sign < 0 else 0
    if v.cls == INF:
        bits = 0x7FF << 52
        return bits | (1 << 63) if v.sign < 0 else bits
    if v.cls == NAN:
        return 0x7FF8 << 48
    sbit = (1 << 63) if v.sign < 0 else 0
    m, p, e = v.mant, v.prec, v.exp
    # normalize the mantissa to 53 bits, rejecting inexact values
    if p >= 53:
        if p > 53 and m & ((1 << (p - 53)) - 1):
            raise NotRepresentable("mantissa needs more than 53 bits")
        m53 = m >> (p - 53)
    else:
        m53 = m << (53 - p)
    if e > _B64_EMAX:
        raise NotRepresentable("exponent above binary64 range")
    if e >= _B64_EMIN:
        return sbit | ((e + 1023) << 52) | (m53 - (1 << 52))
    # subnormal encoding
    shift = _B64_EMIN - e
    if shift > 52 or m53 & ((1 << shift) - 1):
        raise NotRepresentable("value below binary64 subnormal grid")
    return sbit | (m53 >> shift)


def from_float(f, p=53):
    """Exact import of a python float, then one rounding to p bits."""
    if f and f - f == 0.0:  # finite, not zero: frexp's fraction is exact
        m, e = math.frexp(f)
        v = MPFloat(NORMAL, 1 if m > 0 else -1, e - 1,
                    int(abs(m) * 9007199254740992.0), 53)
    else:
        v = from_binary64_bits(struct.unpack("<Q", struct.pack("<d", f))[0])
    if p == 53:
        return v
    return round_to(v, p)


def from_decimal_string(s, p, policy=UNBOUNDED):
    """A decimal literal rounded once to p bits, under BINARY64 by the host."""
    sign, d, e10 = _decimal(s)
    if not d:
        return zero(p, sign)
    if policy == BINARY64:
        return from_float(float(s))
    return _round_decimal(sign, d, e10, p, policy)


def _decimal(s):
    """(sign, d, e10) of a decimal literal: its value sign * d * 10**e10."""
    m = _DEC_RE.match(s.strip())
    if not m:
        raise ParseError("bad decimal literal: %s" % quote(s.strip()))
    sign, int_part, frac_part, exp_part = m.groups("")
    digits = (int_part + frac_part).lstrip("0")
    sig = digits.rstrip("0")
    if len(sig) > MAX_DECIMAL_DIGITS:
        raise ParseError("decimal literal with more than %d significant "
                         "digits" % MAX_DECIMAL_DIGITS)
    return (-1 if sign == "-" else 1, int(sig or "0"),
            _exponent(exp_part) - len(frac_part) + len(digits) - len(sig))


def _exponent(text):
    """The value of a literal's exponent digits (optionally signed; empty
    for none), capped in magnitude at 10**_EXP_DIGITS."""
    if len(text) <= _EXP_DIGITS:  # the common case, read at once
        return int(text or 0)
    mag = text.lstrip("+-").lstrip("0")
    e = int(mag or "0") if len(mag) <= _EXP_DIGITS else 10**_EXP_DIGITS
    return -e if text.startswith("-") else e


def _round_decimal(sign, d, e10, p, policy, den=1):
    """sign * d * 10**e10 / den (d, den > 0) rounded once to p bits under
    the policy.  While |e10| exceeds 8 * w, w-bit bounds on 5**|e10|
    (_pow5_bounds) enclose the value, and w doubles until they decide the
    rounding; exact integers settle the rest, exact ties among them.  A
    value far past the policy's range is decided by the first bounds."""
    w = p + 64
    while 8 * w < abs(e10):
        lo, hi, s = _pow5_bounds(d, e10, w)
        # floor and ceiling of lo / den and hi / den, kept to w bits
        t = den.bit_length()
        v = _round_enclosed(sign, (lo << t) // den, -(-(hi << t) // den),
                            s + e10 - t, p, policy)
        if v is not None:
            return v
        w *= 2
    if e10 >= 0:
        d *= 5**e10
    else:
        den *= 5**-e10
    # a quotient of p + 2 bits or more; the remainder is the sticky bit
    shift = p + 2 - d.bit_length() + den.bit_length()
    q, r = divmod(d << shift, den) if shift >= 0 else divmod(d, den << -shift)
    return _round(sign, q << 1 | (1 if r else 0), e10 - shift - 1, p, policy)


def from_hex_string(s):
    """Hex-float literal like 0x1.8p52, exact: its precision is its
    significand's width (at least 2), its exponent held to +-2**31."""
    m = _HEX_RE.match(s.strip())
    if not m:
        raise ParseError("bad hex-float literal: %s" % quote(s))
    sign = -1 if s.lstrip().startswith("-") else 1
    int_digits, frac_digits = m.group(1), m.group(2) or ""
    e2 = _exponent(m.group(3))
    mant = int(int_digits + frac_digits, 16)
    if mant == 0:
        return zero(53, sign)
    e_lsb = e2 - 4 * len(frac_digits)
    return _round(sign, mant, e_lsb, max(2, mant.bit_length()), UNBOUNDED)


# ---------------------------------------------------------------------------
# precision movement
# ---------------------------------------------------------------------------


def round_to(v, p, policy=UNBOUNDED):
    """Nearest representable value at precision p (ties to even; p is 53
    under BINARY64).  A normal value of p bits inside the policy's normal
    range is already representable: it is returned as it is."""
    if v.cls != NORMAL:
        return MPFloat(v.cls, v.sign, 0, 0, 53 if policy == BINARY64 else p)
    if v.prec == p and (-_EXP_LIMIT < v.exp < _EXP_LIMIT
                        if policy == UNBOUNDED
                        else p == 53 and _B64_EMIN <= v.exp <= _B64_EMAX):
        return v
    return _round(v.sign, v.mant, v.exp - v.prec + 1, p, policy)


def extend(v, p):
    """Exactly re-tag v at a precision p >= prec(v)."""
    if p < v.prec:
        raise ValueError("extend cannot reduce precision")
    if v.cls != NORMAL:
        return MPFloat(v.cls, v.sign, 0, 0, p)
    return MPFloat(NORMAL, v.sign, v.exp, v.mant << (p - v.prec), p)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def _nearest(x, y, flip, p, orig=None, put=None, policy=UNBOUNDED):
    """x + y (flip 1), x - y (flip -1) or x * y (flip 0) at p bits, nearest
    even, under the policy (p is 53 under BINARY64).  For two normal
    operands the exact result is formed on integer significands and
    rounded here when the rounded exponent lies in binary64's normal range,
    where both policies round alike; any other result goes to _round, and
    other operand classes to _special.  Given `put`, the result's relative
    error against the host float `orig`, as _rel_err_host(result, orig, p)
    gives it, is passed to put, once, after the error is formed: inline,
    from the rounding's own fields, when the result is rounded here and
    orig lies in _rel_err_host's exact-integer case with a difference and
    mantissa that fit a host float, else from one _rel_err_host call."""
    if x.cls == 1 and y.cls == 1:  # NORMAL
        if flip:
            ex = x.exp - x.prec
            ey = y.exp - y.prec
            mx = x.mant if x.sign > 0 else -x.mant
            my = y.mant if y.sign == flip else -y.mant
            d = ex - ey
            if d >= 0:
                if d > 4096:  # far apart: maybe only y's sign counts
                    my, ey = _sticky(x, y, my, ey, p)
                    d = ex - ey
                m = (mx << d) + my
                e = ey + 1
            else:
                if d < -4096:
                    mx, ex = _sticky(y, x, mx, ex, p)
                    d = ex - ey
                m = mx + (my << -d)
                e = ex + 1
            sign = 1
            if m < 0:
                sign = -1
                m = -m
        else:
            sign = x.sign * y.sign
            m = x.mant * y.mant
            e = x.exp - x.prec + y.exp - y.prec + 2
        if m:
            nb = m.bit_length()
            top = e + nb - 1
            if nb > p:
                # q keeps the rounding bit as its lowest bit
                sh = nb - p - 1
                q = m >> sh
                if q & 1 and (q & 2 or m & ((1 << sh) - 1)):
                    q = (q >> 1) + 1
                    if q >> p:
                        q >>= 1
                        top += 1
                else:
                    q >>= 1
            else:
                q = m << (p - nb)
            if -1022 <= top <= 1023:
                v = _new(MPFloat)
                v.cls = 1
                v.sign = sign
                v.exp = top
                v.mant = q
                v.prec = p
                if put is None:
                    return v
                # _rel_err_host's exact-integer case, inline: u is orig in
                # units of v's last bit
                try:
                    u = math.ldexp(orig, p - 1 - top)
                except OverflowError:
                    u = math.inf
                if 4503599627370496.0 <= abs(u) < 2.0 ** 652:
                    b = int(u)
                    d = q - b if sign > 0 else q + b
                    try:
                        err = float(abs(d)) / float(q) if d else 0.0
                    except OverflowError:
                        pass  # too wide for a host float: the tail's _wide_error
                    else:
                        put(err)
                        return v
            else:
                v = _round(sign, m, e, p, policy)
        else:
            v = MPFloat(0, 1, 0, 0, p)  # zero(p)
    else:
        v = _special(x, y, flip, p, policy)
    if put is not None:
        put(_rel_err_host(v, orig, p))
    return v


def _sticky(x, y, my, ey, p):
    """(my, ey) of _nearest's addend y, or of a one-bit stand-in for it
    when y lies so far below x that only its sign can move the p-bit
    rounding of the sum: x and every rounding boundary near it are
    multiples of 2**g, and |y| < 2**g, so x + y and the stand-in
    x +- 2**(g - 2) lie strictly between the same two such multiples."""
    g = min(x.exp - x.prec + 1, x.exp - p - 2)
    if y.exp < g:
        return (1 if my > 0 else -1), g - 3
    return my, ey


def _special(a, b, flip, p, policy):
    """_nearest, under either policy, when an operand is not normal."""
    if a.cls == NAN or b.cls == NAN:
        return nan(p)
    if not flip:
        if a.cls == ZERO or b.cls == ZERO:
            if a.cls == INF or b.cls == INF:
                return nan(p)
            return zero(p, a.sign * b.sign)
        return inf(a.sign * b.sign, p)
    sb = b.sign * flip
    if a.cls == INF or b.cls == INF:
        if a.cls == b.cls:
            return inf(a.sign, p) if a.sign == sb else nan(p)
        return inf(a.sign if a.cls == INF else sb, p)
    if a.cls == b.cls:
        # -0 + -0 = -0, otherwise +0
        return zero(p, -1 if a.sign < 0 and sb < 0 else 1)
    if a.cls == ZERO:
        return _round(sb, b.mant, b.exp - b.prec + 1, p, policy)
    return round_to(a, p, policy)


def add(a, b, p, policy=UNBOUNDED):
    return _nearest(a, b, 1, p, policy=policy)


def sub(a, b, p, policy=UNBOUNDED):
    return _nearest(a, b, -1, p, policy=policy)


def mul(a, b, p, policy=UNBOUNDED):
    return _nearest(a, b, 0, p, policy=policy)


def div(a, b, p, policy=UNBOUNDED, orig=None, put=None):
    """a / b at p bits under the policy (p is 53 under BINARY64), rounded
    inline in binary64's normal range as in _nearest.  Given `put`, the
    result's error against the host float `orig` is passed to put once,
    from one _rel_err_host call."""
    if a.cls == 1 and b.cls == 1:  # NORMAL
        # the mantissa ratio lies in (2**(na-nb-1), 2**(na-nb+1)), so n has
        # p + 1 or p + 2 bits; the remainder is the sticky bit
        sh = p + 1 - a.prec + b.prec
        if sh >= 0:
            n, r = divmod(a.mant << sh, b.mant)
        else:
            n, r = divmod(a.mant, b.mant << -sh)
        top = a.exp - b.exp
        q = n
        if q >> (p + 1):
            r |= q & 1
            q >>= 1
        else:
            top -= 1
        # as in _nearest: q keeps the rounding bit as its lowest bit
        if q & 1 and (q & 2 or r):
            q = (q >> 1) + 1
            if q >> p:
                q >>= 1
                top += 1
        else:
            q >>= 1
        if -1022 <= top <= 1023:
            v = _new(MPFloat)
            v.cls = 1
            v.sign = a.sign * b.sign
            v.exp = top
            v.mant = q
            v.prec = p
        else:
            # a / b is n * 2**(a.exp - b.exp - p - 1) plus the remainder,
            # which stands in as one bit below n; r may also hold n's last
            # bit, which lies below the rounding bit too
            v = _round(a.sign * b.sign, n << 1 | (1 if r else 0),
                       a.exp - b.exp - p - 2, p, policy)
    else:
        v = _div_other(a, b, p)
    if put is not None:
        put(_rel_err_host(v, orig, p))
    return v


def _div_other(a, b, p):
    """div of operands that are not both normal."""
    if a.cls == NAN or b.cls == NAN:
        return nan(p)
    sign = a.sign * b.sign
    if a.cls == INF:
        return nan(p) if b.cls == INF else inf(sign, p)
    if b.cls == INF:
        return zero(p, sign)
    if b.cls == ZERO:
        return nan(p) if a.cls == ZERO else inf(sign, p)
    return zero(p, sign)  # a is zero


def sqrt(v, p, policy=UNBOUNDED):
    if v.cls == NAN:
        return nan(p)
    if v.cls == ZERO:
        return zero(p, v.sign)
    if v.sign < 0:
        return nan(p)
    if v.cls == INF:
        return inf(1, p)
    m = v.mant
    e = v.exp - v.prec + 1
    s = max(2 * p + 2 - m.bit_length(), 0)
    if (e - s) & 1:
        s += 1
    big = m << s
    r = math.isqrt(big)
    sig = (r << 1) | (1 if big - r * r else 0)
    return _round(1, sig, (e - s) // 2 - 1, p, policy)


def floor(v):
    """Greatest integer <= v, exact (precision widens as needed)."""
    if v.cls != NORMAL:
        if v.cls == ZERO:
            return zero(v.prec)
        raise ValueError("floor needs a finite value")
    e = v.exp - v.prec + 1
    if e >= 0:
        return v
    n = v.mant >> -e
    frac = v.mant & ((1 << -e) - 1)
    if v.sign < 0 and frac:
        n += 1
    if n == 0:
        return zero(v.prec)
    return from_int(v.sign * n, max(v.prec, n.bit_length()))


def neg(v):
    return MPFloat(v.cls, -v.sign if v.cls != NAN else 1, v.exp, v.mant, v.prec)


def abs_(v):
    """|v|: v itself when its sign is already positive (values are
    immutable)."""
    if v.sign > 0:
        return v
    return MPFloat(v.cls, 1, v.exp, v.mant, v.prec)


def cmp(a, b):
    """-1/0/1 total order on numbers (-0 == +0); None when NaN involved."""
    if a.cls == NAN or b.cls == NAN:
        return None
    if a.cls == ZERO and b.cls == ZERO:
        return 0
    if a.cls == ZERO:
        return -b.sign
    if b.cls == ZERO:
        return a.sign
    if a.sign != b.sign:
        return 1 if a.sign > b.sign else -1
    if a.cls == INF or b.cls == INF:
        if a.cls == b.cls:
            return 0
        mag = 1 if a.cls == INF else -1
        return mag * a.sign
    if a.exp != b.exp:
        mag = 1 if a.exp > b.exp else -1
        return mag * a.sign
    ma, mb = a.mant, b.mant
    if a.prec < b.prec:
        ma <<= b.prec - a.prec
    elif b.prec < a.prec:
        mb <<= a.prec - b.prec
    if ma == mb:
        return 0
    mag = 1 if ma > mb else -1
    return mag * a.sign


def relative_error(exact, approx, p_work=120, diff=None):
    """|exact - approx| / |exact| with totalizing conventions.

    exact == 0 and approx == 0 gives 0; exact == 0 otherwise gives +inf;
    two infinities of one sign give 0, any other infinity +inf; a NaN
    anywhere gives +inf (the "exceeds every threshold" sentinel).
    _rel_err_float takes the conventions from here; _rel_err_host repeats
    them for a shadow that is not normal, and tests pin the two alike.
    `diff`, when given, is exact - approx already rounded to p_work bits.
    """
    if exact.cls == NAN or approx.cls == NAN:
        return inf(1, p_work)
    if exact.cls == INF or approx.cls == INF:
        if exact.cls == INF and approx.cls == INF and exact.sign == approx.sign:
            return zero(p_work)
        return inf(1, p_work)
    if exact.cls == ZERO:
        if approx.cls == ZERO:
            return zero(p_work)
        return inf(1, p_work)
    d = sub(exact, approx, p_work) if diff is None else diff
    return abs_(div(d, exact, p_work))


def _rel_err_float(shadow, orig, p_shadow):
    """Relative error as a host float.  A pair that is not both normal
    takes relative_error's conventions (0, 1 or inf).  Two normal lanes
    whose lowest bits lie within 600 binades form the difference exactly
    on aligned integer significands, so the only inaccuracy is the final
    float division; lanes further apart take a closed form, and
    significands too wide for a host float take the quotient rounded at
    p_shadow and then to 53 bits."""
    if shadow.cls != NORMAL or orig.cls != NORMAL:
        return relative_error(shadow, orig, p_shadow).to_float()
    t = (shadow.exp - shadow.prec) - (orig.exp - orig.prec)
    if -600 < t < 600:
        if t >= 0:
            a = shadow.mant << t
            b = orig.mant
        else:
            a = shadow.mant
            b = orig.mant << -t
        d = a - b if shadow.sign == orig.sign else a + b
        if d == 0:
            return 0.0
        try:
            return float(abs(d)) / float(a)
        except OverflowError:
            pass  # too wide for a host float: take the quotient below
    # Far apart: a value below half the smaller ulp spacing at p_shadow
    # around the other, which p_shadow bits represent, leaves the rounded
    # difference equal to that other value.
    if shadow.prec <= p_shadow and orig.exp < shadow.exp - p_shadow - 1:
        return 1.0
    if orig.prec <= p_shadow and shadow.exp < orig.exp - p_shadow - 1:
        return _far_quotient(orig.mant, orig.prec, orig.exp, shadow)
    return _wide_error(shadow, orig, p_shadow)


def _wide_error(shadow, orig, p_shadow):
    """_rel_err_float of lanes whose exponents or significands lie beyond
    host-float range: the quotient first, of the difference rounded at
    p_shadow, then rounded to 53 bits."""
    return abs(div(sub(shadow, orig, p_shadow), shadow, 53).to_float())


def _rel_err_host(shadow, orig, p_shadow):
    """_rel_err_float(shadow, from_float(orig), p_shadow) for a host float
    `orig`, bit for bit, without building the MPFloat for the cases stream
    samples take.  `_nearest` forms the first case inline, from the fields
    it has just rounded, and calls this for every other result; `div` calls
    this for every result.

    For a normal shadow, x is orig in units of the shadow's last bit.  It
    is exact, and an integer, exactly when 2**52 <= |x| < 2**652: when
    orig's last bit lies on the shadow's or at most 599 binades above it,
    where _rel_err_float aligns orig to the shadow and divides the
    difference by the shadow's mantissa.  So the error is the same, bit for
    bit, without frexp or a shift.  A zero orig gives 1, and a shadow far
    below orig _rel_err_float's closed-form quotient.  An aligned
    difference or mantissa too wide for a host float (a shadow of 1,023
    bits or more) takes _rel_err_float's last resort, _wide_error, at once.
    A shadow that is not normal gives 0 for an equal orig (zeros of either
    sign, infinities of one sign), else inf, a NaN included: relative_error's
    conventions.  Everything else (orig's last bit below the shadow's or
    600 or more binades above it, a non-finite orig, an ldexp out of range)
    goes to _rel_err_float."""
    if shadow.cls != 1:  # not NORMAL
        return 0.0 if orig == shadow.to_float() else math.inf
    mant = shadow.mant
    exp = shadow.exp
    try:
        x = math.ldexp(orig, shadow.prec - 1 - exp)
    except OverflowError:
        x = math.inf
    if 4503599627370496.0 <= abs(x) < 2.0 ** 652:
        b = int(x)
        d = mant - b if shadow.sign > 0 else mant + b
        if not d:
            return 0.0
        try:
            return float(abs(d)) / float(mant)
        except OverflowError:
            # neither of _rel_err_float's far-apart forms applies to
            # lanes this close, so it would end in the same quotient
            return _wide_error(shadow, from_float(orig), p_shadow)
    if orig - orig == 0.0:
        if not orig:
            return 1.0
        f, e = math.frexp(orig)
        # as an MPFloat, orig has prec 53, exp e - 1 and mant |f| * 2**53
        if p_shadow >= 53 and exp < e - p_shadow - 2:
            # _rel_err_float's quotient for a shadow far below orig
            return _far_quotient(int(abs(f) * 9007199254740992.0), 53,
                                 e - 1, shadow)
    return _rel_err_float(shadow, from_float(orig), p_shadow)


def _far_quotient(m, prec, exp, shadow):
    """|orig| / |shadow| rounded once, for an original of prec-bit mantissa
    m and exponent exp: the mantissa quotient lies in (1/2, 2) once
    aligned, and int division rounds it correctly."""
    b = shadow.mant
    if shadow.prec > prec:
        m <<= shadow.prec - prec
    else:
        b <<= prec - shadow.prec
    try:
        return math.ldexp(m / b, exp - shadow.exp)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# decimal output
# ---------------------------------------------------------------------------

_LOG10_2 = math.log10(2)
# 5**k for every k that printing a value in binary64's range to at most
# 62 digits takes (k = digits - 1 - d10, -324 <= d10 <= 308), built once
_POW5_SIZE = 401
_POW5 = [5**k for k in range(_POW5_SIZE)]
# digits converted by one str(); below the smallest limit the interpreter
# accepts for int-to-str conversion (640)
_STR_DIGITS = 600


def _pow5_floor(k, w):
    """(F, f) with 5**k * (1 - k * 2**(1 - w)) <= F * 2**f <= 5**k: every
    product is truncated to w bits, and k bounds the number of truncations
    counted with the doubling that squaring gives their errors."""
    F, f, B, b = 1, 0, 5, 0
    while True:
        if k & 1:
            F, f = F * B, f + b
            s = F.bit_length() - w
            if s > 0:
                F, f = F >> s, f + s
        k >>= 1
        if not k:
            return F, f
        B, b = B * B, 2 * b
        s = B.bit_length() - w
        if s > 0:
            B, b = B >> s, b + s


def _round_scaled_exact(m, e, k):
    """m * 2**e * 10**k rounded to an integer, ties to even."""
    a = -k if k < 0 else k
    p5 = _POW5[a] if a < _POW5_SIZE else 5**a
    e += k
    if k < 0:
        # a quotient by 5**-k (times 2**-e): the remainder rounds it
        num, den = (m << e, p5) if e >= 0 else (m, p5 << -e)
        n, r = divmod(num, den)
        r <<= 1
        return n + 1 if r > den or (r == den and n & 1) else n
    m *= p5
    if e >= 0:
        return m << e
    # m / 2**-e: the quotient and one more bit, then the bits below them
    q = m >> (-e - 1)
    if q & 1 and (q & 2 or m & ((1 << (-e - 1)) - 1)):
        return (q >> 1) + 1
    return q >> 1


def _pow5_bounds(m, k, w):
    """(lo, hi, s) with lo * 2**s < m * 5**k <= hi * 2**s, from a w-bit
    bound on 5**|k|.  lo and hi have about w bits or more."""
    F, f = _pow5_floor(abs(k), w)
    # the bounds' relative error is below 2**-slack, and slack >= 1: w >= 66
    # and |k| < 2**41, a literal's exponent being capped and a value's held
    slack = w - abs(k).bit_length() - 2
    if k >= 0:
        a = m * F
        return a - 1, a + (a >> slack) + 1, f
    t = w + F.bit_length() - m.bit_length()
    q = (m << t) // F if t >= 0 else m // (F << -t)
    return q - (q >> slack) - 1, q + 1, -f - t


def _round_scaled_approx(m, e, k, w):
    """_round_scaled_exact from _pow5_bounds, or None when their error
    leaves the rounding open.  The exact value x lies in
    (lo * 2**s, hi * 2**s], and the rounding is decided when no
    half-integer does."""
    lo, hi, s = _pow5_bounds(m << w if k >= 0 else m, k, w)
    s += e + k - (w if k >= 0 else 0)
    if s >= 0:
        return None
    half = 1 << (-s - 1)
    n = (lo + half) >> -s
    return n if n == (hi + half) >> -s else None


def _round_scaled(m, e, k, digits):
    """m * 2**e * 10**k rounded to an integer, ties to even, in time that
    grows only with log |k|: from bounded-precision powers of five, widened
    until the rounding is decided.  Exact integers take over once the width
    passes |k| / 8, below which they cost no more (5**|k| has 2.3 |k|
    bits); they also settle exact ties."""
    w = 4 * digits + 64
    while 8 * w < abs(k):
        n = _round_scaled_approx(m, e, k, w)
        if n is not None:
            return n
        w *= 2
    return _round_scaled_exact(m, e, k)


def _decimal_digits(v, digits):
    """(sign, digit string of given length, decimal exponent of first digit)."""
    m, e = v.mant, v.exp - v.prec + 1
    # _round_scaled goes straight to _round_scaled_exact up to this |k|
    near = 32 * digits + 512
    # floor(log10 |v|) or one less: the float error of the logarithm is
    # far below the margin for every |exp| < 2**31, so the rounding never
    # has too few digits, and the loop only moves up, stopping at the
    # first exponent whose rounding has `digits` digits, the correctly
    # rounded one
    d10 = math.floor(math.log10(m) + e * _LOG10_2 - 1e-6)
    while True:
        k = digits - 1 - d10
        n = (_round_scaled_exact(m, e, k) if -near <= k <= near
             else _round_scaled(m, e, k, digits))
        if digits <= _STR_DIGITS:
            ds = str(n)
            if len(ds) == digits:
                return v.sign, ds, d10
        elif n < 10**digits:
            return v.sign, _digit_string(n, digits), d10
        d10 += 1


def _digit_string(n, width):
    """0 <= n < 10**width as `width` decimal digits, zero-padded, converted
    in pieces of at most _STR_DIGITS digits: the interpreter refuses to
    convert a longer integer at once (4,300 digits by default)."""
    if width <= _STR_DIGITS:
        return str(n).zfill(width)
    half = width // 2
    hi, lo = divmod(n, 10**half)
    return _digit_string(hi, width - half) + _digit_string(lo, half)


def to_decimal_string(v, digits):
    """Positional decimal with `digits` significant digits, correctly rounded."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if v.cls == NAN:
        return "nan"
    if v.cls == INF:
        return "-inf" if v.sign < 0 else "inf"
    if v.cls == ZERO:
        body = "0." + "0" * (digits - 1) if digits > 1 else "0"
        return ("-" if v.sign < 0 else "") + body
    sign, ds, d10 = _decimal_digits(v, digits)
    prefix = "-" if sign < 0 else ""
    if d10 < 0:
        return prefix + "0." + "0" * (-d10 - 1) + ds
    if d10 >= digits - 1:
        return prefix + ds + "0" * (d10 + 1 - digits)
    return prefix + ds[: d10 + 1] + "." + ds[d10 + 1 :]


def to_sci_string(v, digits):
    """Scientific form d.dddd...e<exp> with `digits` significant digits."""
    if v.cls != NORMAL:
        if v.cls == NAN:
            return "nan"
        if v.cls == INF:
            return "-inf" if v.sign < 0 else "inf"
        mant = "0." + "0" * (digits - 1) if digits > 1 else "0"
        return ("-" if v.sign < 0 else "") + mant + "e0"
    sign, ds, d10 = _decimal_digits(v, digits)
    return "%s%s%s%se%d" % ("-" if sign < 0 else "", ds[0],
                            "." if digits > 1 else "", ds[1:], d10)
