"""Built-in TAC kernels and input generation.

The kernels come in three groups: programs built around the rounding
magic constant 1.5 * 2^52 (round, exp, sin), a program that scales a
float by rewriting its exponent word in place (union_scale), and two
negative controls whose errors stay well below any detection threshold
(accum, cancel).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Sequence

from . import mpfloat as mp
from . import tac

ROUND_KERNEL = """\
# nearest integer by adding and subtracting 1.5 * 2^52
func round_kernel(x) -> y
  const toint = 0x1.8p52
  t1 = fadd x, toint
  y = fsub t1, toint
  ret y
"""

EXP_KERNEL = """\
# exp via 2^n * exp(r): n is extracted from the low word of the magic
# sum, the scale 2^n is assembled by writing the exponent word of 1.0
func exp_kernel(x) -> result
  const log2e = 0x1.71547652b82fep0
  const three51 = 0x1.8p52
  const ln2hi = 0x1.62e42fee00000p-1
  const ln2lo = 0x1.a39ef35793c76p-33
  const one = 1.0
  t8 = fmul x, log2e
  t9 = fadd t8, three51
  y = fmov t9
  t10 = fsub y, three51
  h = fmul t10, ln2hi
  r = fsub x, h
  l = fmul t10, ln2lo
  r = fsub r, l
  term = fmov r
  s = fadd one, r
  term = fmul term, r
  term = fdiv term, 2.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 3.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 4.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 5.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 6.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 7.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 8.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 9.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 10.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 11.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 12.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 13.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 14.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 15.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 16.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 17.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 18.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 19.0
  s = fadd s, term
  term = fmul term, r
  term = fdiv term, 20.0
  s = fadd s, term
  nlo = get_lo y
  ns = ixor nlo, 0x80000000
  ns = isub ns, 0x80000000
  nsh = ishl ns, 20
  hi = iadd nsh, 0x3FF00000
  sc = set_hi one, hi
  result = fmul s, sc
  ret result
"""

SIN_KERNEL = """\
# sin with magic-constant quadrant reduction and two Taylor polynomials
func sin_kernel(x) -> result
  const invpio2 = 0x1.45f306dc9c883p-1
  const toint = 0x1.8p52
  const pio2hi = 0x1.921fb54400000p0
  const pio2lo = 0x1.0b4611a626331p-34
  const one = 1.0
  t0 = fmul x, invpio2
  t1 = fadd t0, toint
  fn = fsub t1, toint
  h = fmul fn, pio2hi
  r = fsub x, h
  l = fmul fn, pio2lo
  r = fsub r, l
  nlo = get_lo t1
  j = iand nlo, 3
  rr = fmul r, r
  sterm = fmov r
  s = fmov r
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 6.0
  s = fsub s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 20.0
  s = fadd s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 42.0
  s = fsub s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 72.0
  s = fadd s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 110.0
  s = fsub s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 156.0
  s = fadd s, sterm
  sterm = fmul sterm, rr
  sterm = fdiv sterm, 210.0
  s = fsub s, sterm
  cterm = fmov one
  c = fmov one
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 2.0
  c = fsub c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 12.0
  c = fadd c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 30.0
  c = fsub c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 56.0
  c = fadd c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 90.0
  c = fsub c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 132.0
  c = fadd c, cterm
  cterm = fmul cterm, rr
  cterm = fdiv cterm, 182.0
  c = fsub c, cterm
  c0 = icmp eq, j, 0
  branch c0, q0
  c1 = icmp eq, j, 1
  branch c1, q1
  c2 = icmp eq, j, 2
  branch c2, q2
  result = fneg c
  ret result
q0:
  result = fmov s
  ret result
q1:
  result = fmov c
  ret result
q2:
  result = fneg s
  ret result
"""

UNION_SCALE_KERNEL = """\
# multiply by 8 by adding 3 to the biased exponent in the high word
func union_scale_kernel(x) -> y
  t = fdiv x, 3.0
  hi = get_hi t
  hi2 = iadd hi, 0x00300000
  y = set_hi t, hi2
  ret y
"""

ACCUM_KERNEL = """\
# add the input to itself 10000 times; plain rounding error only
func accum_kernel(x) -> s
  s = fconst 0.0
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 10000
  branch c, top
  ret s
"""

CANCEL_KERNEL = """\
# benign cancellation: (x + 1e-4) - x
func cancel_kernel(x) -> y
  const eps = 1e-4
  t = fadd x, eps
  y = fsub t, x
  ret y
"""


class Kernel(namedtuple("Kernel", "name source oracle_fn domain")):
    """A kernel's name, TAC source, reference function (None without one)
    and default domain, (lo, hi, count) with lo and hi decimal strings.
    A kernel has a __dict__ only to hold its cached program."""

    @functools.cached_property
    def program(self):
        """The parsed program, parsed once per kernel."""
        return tac.parse_program(self.source)


_KERNELS = (
    Kernel("round_kernel", ROUND_KERNEL, None, ("-100", "100", 1000)),
    Kernel("exp_kernel", EXP_KERNEL, "exp", ("-1", "1", 1000)),
    Kernel("sin_kernel", SIN_KERNEL, "sin", ("-4", "4", 1000)),
    Kernel("union_scale_kernel", UNION_SCALE_KERNEL, None, ("-4", "4", 1000)),
    Kernel("accum_kernel", ACCUM_KERNEL, None, ("0", "1", 1000)),
    Kernel("cancel_kernel", CANCEL_KERNEL, None, ("-10", "10", 1000)),
)


def builtin_kernels():
    return {k.name: k for k in _KERNELS}


def get_kernel(name):
    try:
        return builtin_kernels()[name]
    except KeyError:
        raise KeyError("unknown kernel %r; have %s"
                       % (name, sorted(builtin_kernels()))) from None


class Grid(Sequence):
    """count points lo + i*(hi-lo)/count for i in [0, count), each one
    rounding to p bits of the exact rational value, the decimal endpoints
    read exactly: point 0 is lo as `--input` rounds it, a zero unsigned.
    Points are computed when read: no count or endpoint gap grows memory."""

    def __init__(self, lo, hi, count, p=53):
        if count < 1:
            raise ValueError("count must be positive")
        if count > sys.maxsize:
            raise ValueError("count must be at most %d" % sys.maxsize)
        self._ends = (mp._decimal(lo), mp._decimal(hi))
        if any(d and mp._round_decimal(s, d, e, p, mp.UNBOUNDED).cls == mp.INF
               for s, d, e in self._ends):
            raise ValueError("grid endpoints must be finite")
        self._count = count
        self._p = p
        self._policy = mp.policy_for(p)

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        n = self._count
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("grid index out of range")
        (sl, dl, el), (sh, dh, eh) = self._ends
        return _point(sl * dl * (n - i), el, sh * dh * i, eh, n, self._p,
                      self._policy)


grid = Grid
_GUARD = 64  # bits between a grid point's rounding and a first stand-in


def _point(a, ea, b, eb, n, p, policy):
    """(a * 10**ea + b * 10**eb) / n rounded once to p bits.  The terms are
    aligned exactly unless the smaller, b after a swap, lies below 10**(ea
    - m): then one digit of its sign there stands in for it, as in
    `mpfloat._sticky`.  The point lies strictly between a's term alone and
    with the stand-in, so it rounds as both do when they round alike.  Else
    the stand-in moves below Q = 5**min(ea, 0) * 2**min(u, ea), a divisor
    of a * 10**ea and of n times each rounding boundary near: the point and
    the stand-in then lie between the same two multiples of Q."""
    L = math.log2(10)

    def rnd(a, ea):  # a * 10**ea / n rounded once, a zero unsigned
        return mp._round_decimal(1 if a > 0 else -1, abs(a), ea, p, policy,
                                 n) if a else mp.zero(p)

    def below(m):  # |b| * 10**eb < 10**(ea - m), judged from bit lengths
        return b.bit_length() + (eb - ea + m) * L < -1

    if not a or b and a.bit_length() + ea * L < b.bit_length() + eb * L:
        a, ea, b, eb = b, eb, a, ea
    if b:
        m = (p + _GUARD) // 3 + 1
        if below(m):
            v = rnd(a, ea)
            if mp.cmp(v, rnd(a * 10**m + (1 if b > 0 else -1), ea - m)) == 0:
                return v
            # u lies at or below the exponent of the boundaries' spacing
            u = math.floor(a.bit_length() - n.bit_length() + ea * L) - p - 4
            m = ea + 2 - math.floor(min(ea, 0) * math.log10(5)
                                    + min(u, ea) * math.log10(2))
        if below(m):
            a, ea = a * 10**m + (1 if b > 0 else -1), ea - m
        else:
            e = min(ea, eb)
            a, ea = a * 10**(ea - e) + b * 10**(eb - e), e
    return rnd(a, ea)


def digits_for(p):
    """Decimal digits that guarantee an exact round-trip at p bits."""
    return int(math.ceil(p * math.log10(2))) + 1


def write_inputs(path, values, p=53):
    digits = digits_for(p)
    with open(path, "w") as fh:
        for v in values:
            fh.write(mp.to_sci_string(v, digits) + "\n")


def read_inputs(path, p=53):
    policy = mp.policy_for(p)
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(mp.from_decimal_string(line, p, policy))
    return values


def default_inputs(kernel, p=53):
    lo, hi, count = kernel.domain
    return grid(lo, hi, count, p)
