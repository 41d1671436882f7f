"""Arbitrary-precision binary floating point with round-to-nearest-even.

A value is (class, sign, exponent, mantissa, precision) where a normal
number equals sign * mantissa * 2**(exponent - precision + 1) and the
mantissa has exactly `precision` bits with the top bit set.  Two exponent
policies exist: UNBOUNDED (exponent limited only by sanity bounds) and
BINARY64 (IEEE double range: subnormal rounding, overflow to infinity).
Under UNBOUNDED, add, sub and mul of two normal values round their exact
integer result inline in `_nearest`, which the engine also calls directly;
an addend too far below the other to count beyond its sign stands in as
one bit (`_sticky`).
All values are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import math
import re
import struct

# value classes
ZERO = 0
NORMAL = 1
INF = 2
NAN = 3

# exponent policies
UNBOUNDED = "unbounded"
BINARY64 = "binary64"

# binary64 layout
_B64_EMAX = 1023
_B64_EMIN = -1022
_B64_QUANTUM = -1074  # lsb exponent of the smallest subnormal

_EXP_LIMIT = 1 << 31  # spec sanity bound on exponent magnitude
# (t_inf, t_zero) per policy: a decimal literal of magnitude at least
# 10**(t_inf - 1) overflows, one below 10**t_zero underflows
_DEC_LIMITS = {UNBOUNDED: (646456995, -646456994), BINARY64: (310, -324)}

_DEC_RE = re.compile(r"^[+-]?\d+(\.\d+)?([eE][+-]?\d+)?$")
_HEX_RE = re.compile(
    r"^[+-]?0[xX]([0-9a-fA-F]+)(?:\.([0-9a-fA-F]*))?[pP]([+-]?\d+)$"
)


class NotRepresentable(ValueError):
    """Value does not fit the requested binary64 encoding."""


class ParseError(ValueError):
    """Malformed numeric literal."""


class MPFloat:
    __slots__ = ("cls", "sign", "exp", "mant", "prec")

    def __init__(self, cls, sign, exp, mant, prec):
        self.cls = cls
        self.sign = sign
        self.exp = exp
        self.mant = mant
        self.prec = prec

    # -- predicates ---------------------------------------------------------

    def is_nan(self):
        return self.cls == NAN

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
        """Nearest python float; inf on overflow. For diagnostics only."""
        if self.cls == ZERO:
            return -0.0 if self.sign < 0 else 0.0
        if self.cls == INF:
            return math.inf * self.sign
        if self.cls == NAN:
            return math.nan
        m, p = self.mant, self.prec
        if p > 54:
            # keep a guard bit plus sticky so the ldexp rounding is sane
            sticky = 1 if m & ((1 << (p - 54)) - 1) else 0
            m = (m >> (p - 54)) | sticky
            p = 54
        try:
            return self.sign * math.ldexp(m, self.exp - p + 1)
        except OverflowError:
            return math.inf * self.sign


def zero(prec=53, sign=1):
    return MPFloat(ZERO, sign, 0, 0, prec)


def inf(sign=1, prec=53):
    return MPFloat(INF, sign, 0, 0, prec)


def nan(prec=53):
    return MPFloat(NAN, 1, 0, 0, prec)


# ---------------------------------------------------------------------------
# rounding cores
# ---------------------------------------------------------------------------


def _round_sig(sign, m, e_lsb, p):
    """Round sign*m*2**e_lsb (m > 0) to p bits, nearest-even, unbounded."""
    nb = m.bit_length()
    if nb <= p:
        return MPFloat(NORMAL, sign, e_lsb + nb - 1, m << (p - nb), p)
    shift = nb - p
    q = m >> shift
    rem = m & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    e_msb = e_lsb + nb - 1
    if rem > half or (rem == half and (q & 1)):
        q += 1
        if q == (1 << p):
            q >>= 1
            e_msb += 1
    return MPFloat(NORMAL, sign, e_msb, q, p)


def _round_sig_b64(sign, m, e_lsb):
    """Round sign*m*2**e_lsb exactly per IEEE binary64 (precision tag 53)."""
    nb = m.bit_length()
    e_msb = e_lsb + nb - 1
    if e_msb >= _B64_EMIN:
        v = _round_sig(sign, m, e_lsb, 53)
        if v.exp > _B64_EMAX:
            return inf(sign)
        return v
    # subnormal range: quantize to 2**-1074
    shift = _B64_QUANTUM - e_lsb
    if shift > nb:  # below half the smallest subnormal
        return zero(53, sign)
    if shift <= 0:
        n = m << -shift
    else:
        q = m >> shift
        rem = m & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        n = q
        if rem > half or (rem == half and (q & 1)):
            n += 1
    if n == 0:
        return zero(53, sign)
    nb2 = n.bit_length()
    return MPFloat(NORMAL, sign, _B64_QUANTUM + nb2 - 1, n << (53 - nb2), 53)


def _round(sign, m, e_lsb, p, policy):
    if policy == BINARY64:
        return _round_sig_b64(sign, m, e_lsb)
    v = _round_sig(sign, m, e_lsb, p)
    if v.exp >= _EXP_LIMIT:
        return inf(sign, p)
    if v.exp <= -_EXP_LIMIT:
        return zero(p, sign)
    return v


def _round_enclosed(sign, lo, hi, e, p, policy=UNBOUNDED):
    """The rounding shared by every value from sign * lo * 2**e to
    sign * hi * 2**e (lo, hi > 0), or None when the two ends round apart."""
    a = _round(sign, lo, e, p, policy)
    b = _round(sign, hi, e, p, policy)
    if a.cls == b.cls and a.exp == b.exp and a.mant == b.mant:
        return a
    return None


def _round_frac(sign, num, den, e2, p, policy):
    """Round sign * (num/den) * 2**e2 (num, den > 0) with one rounding."""
    shift = p + 2 - (num.bit_length() - den.bit_length())
    if shift >= 0:
        q, r = divmod(num << shift, den)
    else:
        q, r = divmod(num, den << -shift)
    sig = (q << 1) | (1 if r else 0)
    return _round(sign, sig, e2 - shift - 1, p, policy)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def from_int(n, p=None, policy=UNBOUNDED):
    if n == 0:
        return zero(p or 53)
    sign = 1 if n > 0 else -1
    m = abs(n)
    if p is None:
        p = max(2, m.bit_length())
    return _round(sign, m, 0, p, policy)


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
    """Inverse of from_binary64_bits; raises NotRepresentable otherwise."""
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


def from_float(f, p=53, policy=UNBOUNDED):
    """Exact import of a python float, then one rounding to p bits."""
    v = from_binary64_bits(struct.unpack("<Q", struct.pack("<d", f))[0])
    if p == 53:
        return v
    return round_to(v, p, policy)


def from_decimal_string(s, p, policy=UNBOUNDED):
    s = s.strip()
    if not _DEC_RE.match(s):
        raise ParseError("bad decimal literal: %r" % (s,))
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:]
    mant_part, _, exp_part = s.partition("e") if "e" in s else s.partition("E")
    e10 = int(exp_part) if exp_part else 0
    int_part, _, frac_part = mant_part.partition(".")
    digits = (int_part + frac_part).lstrip("0")
    if not digits:
        return zero(p, sign)
    d = int(digits)
    e10 -= len(frac_part)
    top = e10 + len(digits)  # 10**(top - 1) <= |value| < 10**top
    t_inf, t_zero = _DEC_LIMITS[policy]
    if top >= t_inf:
        return round_to(inf(sign), p, policy)
    if top <= t_zero:
        return round_to(zero(53, sign), p, policy)
    w = p + 64
    while 8 * w < abs(e10):
        v = _round_decimal_approx(sign, d, e10, p, policy, w)
        if v is not None:
            return v
        w *= 2
    return _round_decimal_exact(sign, d, e10, p, policy)


def _round_decimal_exact(sign, d, e10, p, policy):
    """sign * d * 10**e10 rounded once to p bits under the policy."""
    if e10 >= 0:
        return _round(sign, d * 5**e10, e10, p, policy)
    return _round_frac(sign, d, 5**-e10, e10, p, policy)


def _round_decimal_approx(sign, d, e10, p, policy, w):
    """_round_decimal_exact from _pow5_bounds, or None when their error
    leaves the rounding open."""
    bounds = _pow5_bounds(d, e10, w)
    if bounds is None:
        return None
    lo, hi, s = bounds
    return _round_enclosed(sign, lo, hi, s + e10, p, policy)


def from_hex_string(s, p=None, policy=UNBOUNDED):
    """Hex-float literal like 0x1.8p52. Exact unless p forces rounding."""
    m = _HEX_RE.match(s.strip())
    if not m:
        raise ParseError("bad hex-float literal: %r" % (s,))
    sign = -1 if s.lstrip().startswith("-") else 1
    int_digits, frac_digits, e2 = m.group(1), m.group(2) or "", int(m.group(3))
    mant = int(int_digits + frac_digits, 16)
    if mant == 0:
        return zero(p or 53, sign)
    e_lsb = e2 - 4 * len(frac_digits)
    if p is None:
        p = max(2, mant.bit_length())
    return _round(sign, mant, e_lsb, p, policy)


# ---------------------------------------------------------------------------
# precision movement
# ---------------------------------------------------------------------------


def round_to(v, p, policy=UNBOUNDED):
    """Nearest representable value at precision p (ties to even)."""
    if v.cls != NORMAL:
        out = MPFloat(v.cls, v.sign, 0, 0, 53 if policy == BINARY64 else p)
        return out
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


def _nearest(x, y, flip, p):
    """x + y (flip 1), x - y (flip -1) or x * y (flip 0) at p bits, nearest
    even, UNBOUNDED policy.  For two normal operands the exact result is
    formed on integer significands and rounded here; other operand classes
    go to _special."""
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
            if not m:
                return MPFloat(0, 1, 0, 0, p)  # zero(p)
        else:
            sign = x.sign * y.sign
            m = x.mant * y.mant
            e = x.exp - x.prec + y.exp - y.prec + 2
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
        if -_EXP_LIMIT < top < _EXP_LIMIT:
            return MPFloat(1, sign, top, q, p)
        return inf(sign, p) if top > 0 else zero(p, sign)
    return _special(x, y, flip, p, UNBOUNDED)


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


def _bounded(a, b, flip, p, policy):
    """_nearest under a bounded exponent policy."""
    if a.cls != NORMAL or b.cls != NORMAL:
        return _special(a, b, flip, p, policy)
    if not flip:
        return _round(a.sign * b.sign, a.mant * b.mant,
                      a.exp - a.prec + b.exp - b.prec + 2, p, policy)
    ea = a.exp - a.prec
    eb = b.exp - b.prec
    ma = a.sign * a.mant
    mb = b.sign * flip * b.mant
    # as in _nearest; the only bounded policy, BINARY64, rounds at 53 bits
    d = ea - eb
    if d >= 0:
        if d > 4096:
            mb, eb = _sticky(a, b, mb, eb, 53)
            d = ea - eb
        s = (ma << d) + mb
        e = eb
    else:
        if d < -4096:
            ma, ea = _sticky(b, a, ma, ea, 53)
            d = ea - eb
        s = ma + (mb << -d)
        e = ea
    if s == 0:
        return zero(p)
    return _round(1 if s > 0 else -1, abs(s), e + 1, p, policy)


def add(a, b, p, policy=UNBOUNDED):
    if policy == UNBOUNDED:
        return _nearest(a, b, 1, p)
    return _bounded(a, b, 1, p, policy)


def sub(a, b, p, policy=UNBOUNDED):
    if policy == UNBOUNDED:
        return _nearest(a, b, -1, p)
    return _bounded(a, b, -1, p, policy)


def mul(a, b, p, policy=UNBOUNDED):
    if policy == UNBOUNDED:
        return _nearest(a, b, 0, p)
    return _bounded(a, b, 0, p, policy)


def div(a, b, p, policy=UNBOUNDED):
    if a.cls == NAN or b.cls == NAN:
        return nan(p)
    sign = a.sign * b.sign
    if a.cls == INF:
        return nan(p) if b.cls == INF else inf(sign, p)
    if b.cls == INF:
        return zero(p, sign)
    if b.cls == ZERO:
        return nan(p) if a.cls == ZERO else inf(sign, p)
    if a.cls == ZERO:
        return zero(p, sign)
    ea = a.exp - a.prec + 1
    eb = b.exp - b.prec + 1
    return _round_frac(sign, a.mant, b.mant, ea - eb, p, policy)


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


def relative_error(exact, approx, p_work=120):
    """|exact - approx| / |exact| with totalizing conventions.

    exact == 0 and approx == 0 gives 0; exact == 0 otherwise gives +inf;
    a NaN anywhere gives +inf (the "exceeds every threshold" sentinel).
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
    d = sub(exact, approx, p_work)
    return abs_(div(d, exact, p_work))


# ---------------------------------------------------------------------------
# decimal output
# ---------------------------------------------------------------------------


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
    num, den = m, 1
    if k >= 0:
        num *= 5**k
    else:
        den = 5**-k
    e2 = e + k
    if e2 >= 0:
        num <<= e2
    else:
        den <<= -e2
    n, r = divmod(num, den)
    r2 = r << 1
    if r2 > den or (r2 == den and (n & 1)):
        n += 1
    return n


def _pow5_bounds(m, k, w):
    """(lo, hi, s) with lo * 2**s < m * 5**k <= hi * 2**s, from a w-bit
    bound on 5**|k|, or None when w leaves no room for one.  lo and hi have
    about w bits or more."""
    F, f = _pow5_floor(abs(k), w)
    # the relative error of the bounds is below 2**-slack
    slack = w - abs(k).bit_length() - 2
    if slack < 1:
        return None
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
    bounds = _pow5_bounds(m << w if k >= 0 else m, k, w)
    if bounds is None:
        return None
    lo, hi, s = bounds
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
    # first estimate of floor(log10 |v|), then correct by rescaling
    d10 = math.floor(v.exp * 0.3010299956639812)
    while True:
        n = _round_scaled(v.mant, v.exp - v.prec + 1, digits - 1 - d10,
                          digits)
        if n >= 10**digits:
            d10 += 1
            continue
        if n < 10 ** (digits - 1):
            d10 -= 1
            continue
        return v.sign, str(n), d10


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
    if v.cls == NAN:
        return "nan"
    if v.cls == INF:
        return "-inf" if v.sign < 0 else "inf"
    if v.cls == ZERO:
        mant = "0." + "0" * (digits - 1) if digits > 1 else "0"
        return ("-" if v.sign < 0 else "") + mant + "e0"
    sign, ds, d10 = _decimal_digits(v, digits)
    prefix = "-" if sign < 0 else ""
    mant = ds[0] + ("." + ds[1:] if digits > 1 else "")
    return "%s%se%d" % (prefix, mant, d10)
