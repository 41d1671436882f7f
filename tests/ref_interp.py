"""A slow, independent dual-lane interpreter for TAC programs.

It follows the semantics the engine's module docstring states, one
instruction at a time over the parsed program, and shares no code with the
engine and no arithmetic with `mpfloat`: `mpfloat` and `tac` are used only
to read the parsed program and its literals.  A decimal literal is rounded
from its text here, through `fractions.Fraction`.

Every float register holds an original lane, a shadow lane and a staleness
flag.  The shadow lane, and the original lane at p_orig other than 53, is
an mpmath.libmp value rounded to nearest at its precision.  mpmath has
neither signed zeros nor an exponent limit, so both are applied here:
zeros follow IEEE 754 (libmp.fnzero stands for -0), and a rounded result
whose leading bit lies at or beyond +-2**31 becomes +-inf or +-0.  At
p_orig = 53 the original lane is a host float with IEEE binary64
arithmetic, and word operations act on its encoding through `struct`.

A barrier on an instruction rounds its shadow operands to p_orig (binary64
at p_orig = 53), runs the operation at p_orig and carries the result back
exactly.  A set_hi/set_lo rewrites the shadow only when the instruction is
barriered or the source's shadow equals its original exactly; otherwise
the shadow is kept and marked stale.  fmov, fneg and fabs copy the
source's staleness; every other float write is fresh.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from mpmath import libmp

from precfix import mpfloat as mp
from precfix.tac import OPCODES

LIMIT = 1 << 31
MASK = (1 << 64) - 1
NAN_BITS = 0x7FF8 << 48
RND = libmp.round_nearest
ZERO, NZERO, INF, NINF, NAN = (libmp.fzero, libmp.fnzero, libmp.finf,
                               libmp.fninf, libmp.fnan)


class RefError(Exception):
    """A run the engine must fail too."""


# -- libmp values with signed zeros and the exponent limit ------------------


def _normal(x):
    return bool(x[1])


def _neg_sign(x):
    """True for a negative value, -0 and -inf included (never for NaN)."""
    return x in (NZERO, NINF) or (_normal(x) and x[0] == 1)


def _zero(negative):
    return NZERO if negative else ZERO


def _inf(negative):
    return NINF if negative else INF


def limited(r):
    if _normal(r):
        top = r[2] + r[3] - 1
        if top >= LIMIT:
            return _inf(r[0])
        if top <= -LIMIT:
            return _zero(r[0])
    return r


def rounded(x, p):
    return limited(libmp.mpf_pos(x, p, RND)) if _normal(x) else x


def from_text(text, p):
    """A decimal literal rounded once to nearest at p bits, a host float
    at 53, from its exact value as a Fraction; a zero keeps the text's
    sign."""
    q = Fraction(text)
    negative = text.strip().startswith("-")
    if p == 53:
        try:
            f = float(q)  # the integer quotient, correctly rounded
        except OverflowError:
            f = math.inf
        return math.copysign(f, -1.0 if negative else 1.0)
    if not q:
        return _zero(negative)
    return limited(libmp.from_rational(q.numerator, q.denominator, p, RND))


def from_mpfloat(v):
    """An MPFloat's exact value."""
    if v.cls == mp.NAN:
        return NAN
    if v.cls == mp.INF:
        return _inf(v.sign < 0)
    if v.cls == mp.ZERO:
        return _zero(v.sign < 0)
    return libmp.from_man_exp(v.sign * v.mant, v.exp - v.prec + 1)


def add(a, b, p):
    if a == NAN or b == NAN:
        return NAN
    if a in (INF, NINF) or b in (INF, NINF):
        if a in (INF, NINF) and b in (INF, NINF):
            return a if a == b else NAN
        return a if a in (INF, NINF) else b
    if not _normal(a) and not _normal(b):
        return _zero(a == NZERO and b == NZERO)
    if not _normal(a):
        return rounded(b, p)
    if not _normal(b):
        return rounded(a, p)
    r = libmp.mpf_add(a, b, p, RND)
    return limited(r)  # an exact cancellation is libmp's +0


def neg(a):
    if a == NAN:
        return NAN
    if not _normal(a):
        return {ZERO: NZERO, NZERO: ZERO, INF: NINF, NINF: INF}[a]
    return libmp.mpf_neg(a)


def sub(a, b, p):
    return add(a, neg(b), p)


def mul(a, b, p):
    if a == NAN or b == NAN:
        return NAN
    negative = _neg_sign(a) != _neg_sign(b)
    if a in (ZERO, NZERO) or b in (ZERO, NZERO):
        if a in (INF, NINF) or b in (INF, NINF):
            return NAN
        return _zero(negative)
    if a in (INF, NINF) or b in (INF, NINF):
        return _inf(negative)
    return limited(libmp.mpf_mul(a, b, p, RND))


def div(a, b, p):
    if a == NAN or b == NAN:
        return NAN
    negative = _neg_sign(a) != _neg_sign(b)
    if a in (INF, NINF):
        return NAN if b in (INF, NINF) else _inf(negative)
    if b in (INF, NINF):
        return _zero(negative)
    if b in (ZERO, NZERO):
        return NAN if a in (ZERO, NZERO) else _inf(negative)
    if a in (ZERO, NZERO):
        return _zero(negative)
    return limited(libmp.mpf_div(a, b, p, RND))


def sqrt(a, p):
    if a == NAN or a in (ZERO, NZERO):
        return a
    if _neg_sign(a):
        return NAN
    if a == INF:
        return INF
    return limited(libmp.mpf_sqrt(a, p, RND))


def floor(a, p):
    if not _normal(a):
        if a in (ZERO, NZERO):
            return ZERO
        raise RefError("floor of a non-finite value")
    r = libmp.mpf_floor(a)
    return rounded(r, p) if _normal(r) else ZERO


def fabs(a):
    return libmp.mpf_abs(a) if _normal(a) else {
        NZERO: ZERO, NINF: INF}.get(a, a)


def cmp(a, b):
    if a == NAN or b == NAN:
        return None
    a = ZERO if a == NZERO else a
    b = ZERO if b == NZERO else b
    return libmp.mpf_cmp(a, b)


def same(a, b):
    """Exact equality of values, -0 == +0, NaN equal to nothing."""
    return cmp(a, b) == 0


# -- host binary64 ----------------------------------------------------------


def to_host(x):
    """x rounded once to binary64, subnormals and overflow included."""
    if x == NAN:
        return math.nan
    if not _normal(x):
        return {ZERO: 0.0, NZERO: -0.0, INF: math.inf, NINF: -math.inf}[x]
    sign, man, exp, _ = x
    try:
        v = float(man << exp) if exp >= 0 else man / (1 << -exp)
    except OverflowError:
        v = math.inf
    return -v if sign else v


def from_host(f):
    if f != f:
        return NAN
    if f == 0.0:
        return _zero(math.copysign(1.0, f) < 0)
    if f - f != 0.0:
        return _inf(f < 0)
    return libmp.from_float(f)


def bits(f):
    if f != f:
        return NAN_BITS
    return struct.unpack("<Q", struct.pack("<d", f))[0]


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def host_div(a, b):
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        negative = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
        return -math.inf if negative else math.inf
    return a / b


def host_floor(a):
    if a != a or a - a != 0.0:
        raise RefError("floor of a non-finite value")
    return float(math.floor(a))


def host_cmp(a, b):
    if a != a or b != b:
        return None
    return (a > b) - (a < b)


HOST = {"fadd": lambda a, b: a + b, "fsub": lambda a, b: a - b,
        "fmul": lambda a, b: a * b, "fdiv": host_div,
        "fsqrt": lambda a: math.nan if a < 0.0 else math.sqrt(a),
        "ffloor": host_floor, "fneg": lambda a: -a, "fabs": abs,
        "fmov": lambda a: a, "fconst": lambda a: a}
MPF = {"fadd": add, "fsub": sub, "fmul": mul, "fdiv": div, "fsqrt": sqrt,
       "ffloor": floor}
UNARY_EXACT = {"fmov": lambda a: a, "fconst": lambda a: a, "fneg": neg,
               "fabs": fabs}
COPIES = ("fmov", "fneg", "fabs")


def _signed(v):
    return v - (v >> 63 << 64)


INT = {"iadd": lambda x, y: (x + y) & MASK,
       "isub": lambda x, y: (x - y) & MASK,
       "iand": lambda x, y: x & y, "ior": lambda x, y: x | y,
       "ixor": lambda x, y: x ^ y,
       "ishl": lambda x, y: (x << (y & 63)) & MASK,
       "ishr": lambda x, y: (_signed(x) >> (y & 63)) & MASK}
PRED = {"lt": (-1,), "le": (-1, 0), "gt": (1,), "ge": (0, 1), "eq": (0,),
        "ne": (-1, 1, None)}


# -- the interpreter --------------------------------------------------------


class Sample:
    __slots__ = ("instr_id", "dst", "original", "shadow", "abs_err",
                 "rel_err")

    def __init__(self, instr_id, dst, original, shadow, abs_err, rel_err):
        self.instr_id = instr_id
        self.dst = dst
        self.original = original
        self.shadow = shadow
        self.abs_err = abs_err
        self.rel_err = rel_err


class Run:
    def __init__(self, result, exec_counts, steps, samples):
        self.result = result  # (original, shadow, stale)
        self.exec_counts = exec_counts
        self.steps = steps
        self.samples = samples


def relative_error(s, o, p):
    """|s - o| / |s| at p bits: NaN anywhere or a zero shadow against a
    nonzero original gives +inf, equal infinities and 0 against 0 give 0."""
    if s == NAN or o == NAN:
        return INF
    if not _normal(s) and s not in (ZERO, NZERO) \
            or not _normal(o) and o not in (ZERO, NZERO):
        return ZERO if s == o else INF
    if s in (ZERO, NZERO):
        return ZERO if o in (ZERO, NZERO) else INF
    return fabs(div(sub(s, o, p), s, p))


class Interp:
    def __init__(self, prog, p_orig, p_shadow, barriers=frozenset()):
        self.prog = prog
        self.p_o = p_orig
        self.p_s = p_shadow
        self.host = p_orig == 53
        self.barriers = barriers
        self.types = {name: "f" for name in prog.params}
        for instr in prog.instrs:
            if instr.dst is not None:
                self.types.setdefault(instr.dst, OPCODES[instr.op][1])

    # a value entering the original lane, and its exact shadow; a decimal
    # literal's text is rounded once, at p_orig
    def admit(self, v):
        if isinstance(v, str):
            o = from_text(v, self.p_o)
            return o, from_host(o) if self.host else o
        x = from_mpfloat(v)
        if self.host:
            o = to_host(x)
            return o, from_host(o)
        o = rounded(x, self.p_o)
        return o, o

    def exact(self, o):
        """The original lane's value as a libmp value."""
        return from_host(o) if self.host else o

    def demote(self, s):
        """A shadow value rounded to the original lane's format."""
        return to_host(s) if self.host else rounded(s, self.p_o)

    def run(self, inputs):
        prog = self.prog
        if not self.host and any(i.op in ("get_hi", "get_lo", "make_f",
                                          "set_hi", "set_lo")
                                 for i in prog.instrs):
            raise RefError("word operations need p_orig = 53")
        fl = {}  # name -> [orig, shadow, stale]
        ints = {}
        for name, v in zip(prog.params, inputs):
            fl[name] = list(self.admit(v)) + [False]
        counts = [0] * len(prog.instrs)
        samples = []
        steps = 0
        pc = 0

        def fval(operand):
            if operand[0] == "var":
                return fl[operand[1]]
            return list(self.admit(operand[1])) + [False]

        def ival(operand):
            if operand[0] == "var":
                return ints[operand[1]]
            return operand[1] & MASK

        def is_float(operand):
            if operand[0] == "var":
                return self.types.get(operand[1], "f") == "f"
            return operand[0] != "ilit"

        while True:
            if pc >= len(prog.instrs):
                raise RefError("control falls off the end")
            instr = prog.instrs[pc]
            counts[pc] += 1
            steps += 1
            pc += 1
            op, srcs, dst = instr.op, instr.srcs, instr.dst
            barrier = instr.id in self.barriers
            if op == "ret":
                o, s, t = fval(srcs[0])
                return Run((o, s, t), counts, steps, samples)
            if op == "jump":
                pc = prog.labels[srcs[0][1]]
                continue
            if op == "branch":
                if ival(srcs[0]):
                    pc = prog.labels[srcs[1][1]]
                continue
            if op == "iconst":
                ints[dst] = ival(srcs[0])
                continue
            if op in INT:
                ints[dst] = INT[op](ival(srcs[0]), ival(srcs[1]))
                continue
            if op == "icmp":
                pred, x, y = srcs[0][1], srcs[1], srcs[2]
                if is_float(x) or is_float(y):
                    a, b = fval(x)[0], fval(y)[0]
                    c = host_cmp(a, b) if self.host else cmp(a, b)
                else:
                    a, b = _signed(ival(x)), _signed(ival(y))
                    c = (a > b) - (a < b)
                ints[dst] = 1 if c in PRED[pred] else 0
                continue
            if op in ("get_hi", "get_lo"):
                w = bits(fval(srcs[0])[0])
                ints[dst] = w >> 32 if op == "get_hi" else w & 0xFFFFFFFF
                continue
            if op == "make_f":
                o = from_bits(((ival(srcs[0]) & 0xFFFFFFFF) << 32)
                              | (ival(srcs[1]) & 0xFFFFFFFF))
                new = [o, from_host(o), False]
            elif op in ("set_hi", "set_lo"):
                new = self.set_word(fval(srcs[0]), ival(srcs[1]),
                                    op == "set_hi", barrier)
            else:
                args = [fval(x) for x in srcs]
                o = self.orig_op(op, [a[0] for a in args])
                if barrier and op in MPF:
                    low = [self.demote(a[1]) for a in args]
                    s = self.exact(self.orig_op(op, low))
                elif op in MPF:
                    s = MPF[op](*([a[1] for a in args] + [self.p_s]))
                else:
                    s = UNARY_EXACT[op](args[0][1])
                stale = args[0][2] if op in COPIES else False
                new = [o, s, stale]
            fl[dst] = new
            o_exact = self.exact(new[0])
            samples.append(Sample(
                instr.id, dst, o_exact, new[1],
                sub(new[1], o_exact, max(self.p_s, 60)),
                relative_error(new[1], o_exact, self.p_s)))

    def orig_op(self, op, args):
        if self.host:
            return HOST[op](*args)
        if op in MPF:
            return MPF[op](*(args + [self.p_o]))
        return UNARY_EXACT[op](*args)

    def set_word(self, src, w, hi, barrier):
        o, s, stale = src
        w &= 0xFFFFFFFF

        def put(b):
            return (b & 0xFFFFFFFF) | (w << 32) if hi else (b >> 32 << 32) | w

        new_o = from_bits(put(bits(o)))
        if barrier:
            return [new_o, from_host(from_bits(put(bits(to_host(s))))), False]
        if not stale and same(s, from_host(o)):
            return [new_o, from_host(new_o), False]
        return [new_o, s, True]
