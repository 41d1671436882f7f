"""Dual-precision shadow execution of TAC programs.

Every float register carries two lanes: the original value rounded at
p_orig (IEEE binary64 semantics when p_orig is 53) and a shadow value kept
at p_shadow bits with unbounded exponent.  Control flow is decided by the
original lane only, so both lanes follow the same path.  A per-instruction
relative error sample is produced whenever a float destination is written.

The original lane has two representations, chosen by p_orig through one
lane-ops table (`_LANES`) that the single compile path reads.  At
p_orig = 53 it is a host float: arithmetic, comparisons and square roots
are the host's IEEE binary64 operations, with the cases where Python
departs from IEEE (division by zero, square root of a negative) handled
explicitly.  At any other p_orig it is an `MPFloat` computed by the
`mpfloat` primitives.  The shadow lane is always an `MPFloat`; fadd, fsub
and fmul on two normal shadows are rounded inline, and every other case
goes to `mpfloat`.  A host-float original crosses back to `MPFloat` only
where a caller or the shadow needs one: `RunTrace.result`,
`ErrorSample.original`, and the shadow side of barriered and word-write
instructions.  Stream-mode errors are computed from the host float
directly and equal the `MPFloat` computation bit for bit.

Word-level bit operations (get_hi/get_lo/make_f/set_hi/set_lo) act on the
binary64 encoding of the original lane, so they need p_orig = 53; every
NaN reads as the canonical pattern 0x7FF8 << 48.  A partial word write
generally cannot be mirrored in the shadow, which is then left untouched
and marked stale; the exception is a source whose shadow still equals its
original value exactly, where the write is replayed cleanly on the shadow
too.

Precision barriers demote an instruction's shadow computation: operands
are rounded down to p_orig, the operation runs at p_orig, and the result
is carried back up exactly.

Programs are compiled once per (program, config, barriers, sampling mode)
into a list of closures, one per instruction, so batches over many inputs
pay the dispatch cost only once.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from typing import NamedTuple

from . import mpfloat as mp
from .mpfloat import MPFloat

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63
_NAN_BITS = 0x7FF8 << 48
_DOUBLE = struct.Struct("<d")
_WORD64 = struct.Struct("<Q")
_EXP_LIMIT = mp._EXP_LIMIT


class EngineError(Exception):
    pass


class StepBudgetExceeded(EngineError):
    pass


class BadBarrier(EngineError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    p_orig: int = 53
    p_shadow: int = 120
    max_steps: int = 50_000_000

    def __post_init__(self):
        if self.p_orig < 2 or self.p_shadow < self.p_orig:
            raise ValueError("need 2 <= p_orig <= p_shadow")


class DualValue:
    """A float register: original lane, shadow lane, staleness flag."""

    __slots__ = ("orig", "shadow", "stale")

    def __init__(self, orig, shadow, stale=False):
        self.orig = orig
        self.shadow = shadow
        self.stale = stale

    def __repr__(self):
        return "DualValue(orig=%r, shadow=%r, stale=%r)" % (
            self.orig, self.shadow, self.stale)


class ErrorSample:
    __slots__ = ("instr_id", "run_index", "dst", "original", "shadow",
                 "rel_err")

    def __init__(self, instr_id, run_index, dst, original, shadow, rel_err):
        self.instr_id = instr_id
        self.run_index = run_index
        self.dst = dst
        self.original = original
        self.shadow = shadow
        self.rel_err = rel_err


@dataclass
class RunTrace:
    program: str
    run_index: int
    inputs: list
    result: DualValue | None
    samples: list
    exec_counts: list
    steps: int
    error: Exception | None = None


def _orig_policy(p_orig):
    return mp.BINARY64 if p_orig == 53 else mp.UNBOUNDED


def make_dual(value, cfg):
    """Admit a value into the engine: round to p_orig, extend the shadow.
    At p_orig = 53 the original lane is the rounded value as a host
    float."""
    o = mp.round_to(value, cfg.p_orig, _orig_policy(cfg.p_orig))
    s = mp.extend(o, cfg.p_shadow)
    return DualValue(o.to_float() if cfg.p_orig == 53 else o, s)


# -- the host-float original lane (p_orig = 53) ------------------------------
# Operations take the (p, policy) arguments of their mpfloat counterparts so
# that both lanes are called the same way; the host lane ignores them.


def _float_bits(x):
    """binary64 encoding of a host float; every NaN gives _NAN_BITS."""
    if x != x:
        return _NAN_BITS
    return _WORD64.unpack(_DOUBLE.pack(x))[0]


def _bits_float(bits):
    return _DOUBLE.unpack(_WORD64.pack(bits))[0]


def _host_add(a, b, p, policy):
    return a + b


def _host_sub(a, b, p, policy):
    return a - b


def _host_mul(a, b, p, policy):
    return a * b


def _host_div(a, b, p, policy):
    try:
        return a / b
    except ZeroDivisionError:
        # IEEE: 0/0 and NaN/0 are NaN, anything else is an infinity
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _host_sqrt(x, p, policy):
    if x < 0.0:
        return math.nan
    return math.sqrt(x)


def _host_floor(x, p, policy):
    if x - x != 0.0:
        raise ValueError("floor needs a finite value")
    return float(math.floor(x))


def _host_cmp(a, b):
    if a < b:
        return -1
    if a > b:
        return 1
    if a == b:
        return 0
    return None


def _mp_floor(v, p, policy):
    return mp.round_to(mp.floor(v), p, policy)


def _rel_err_float(shadow, orig, p_shadow):
    """Relative error as a host float; inf under the usual conventions.
    The difference is formed exactly on aligned integer significands, so
    the only inaccuracy is the final float division."""
    if shadow.cls == mp.NORMAL and orig.cls == mp.NORMAL:
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
    if shadow.cls == mp.NAN or orig.cls == mp.NAN:
        return math.inf
    if shadow.cls == mp.INF or orig.cls == mp.INF:
        if shadow.cls == mp.INF and orig.cls == mp.INF \
                and shadow.sign == orig.sign:
            return 0.0
        return math.inf
    if shadow.cls == mp.ZERO:
        return 0.0 if orig.cls == mp.ZERO else math.inf
    if orig.cls == mp.ZERO:
        return 1.0
    # exponents or significands beyond host-float range: quotient first
    d = mp.sub(shadow, orig, p_shadow)
    if d.cls == mp.ZERO:
        return 0.0
    q = abs(mp.div(d, shadow, 53).to_float())
    return q if q == q else math.inf


def _rel_err_host(shadow, orig, p_shadow):
    """_rel_err_float(shadow, mp.from_float(orig), p_shadow) for a host
    float `orig`, without building the MPFloat on the common path."""
    if shadow.cls == mp.NORMAL and orig - orig == 0.0:
        if not orig:
            return 1.0
        f, e = math.frexp(orig)
        # as an MPFloat, orig has prec 53, exp e - 1 and mant |f| * 2**53
        t = shadow.exp - shadow.prec + 54 - e
        if -600 < t < 600:
            b = int(f * 9007199254740992.0)
            if t >= 0:
                a = shadow.mant << t
            else:
                a = shadow.mant
                b <<= -t
            d = a - b if shadow.sign > 0 else a + b
            if d == 0:
                return 0.0
            try:
                return float(abs(d)) / float(a)
            except OverflowError:
                pass
    return _rel_err_float(shadow, mp.from_float(orig), p_shadow)


class _LaneOps(NamedTuple):
    """How the original lane computes.  Binary operations are called as
    f(a, b, p_orig, policy), sqrt and floor as f(v, p_orig, policy)."""
    host: bool        # values are host floats (else MPFloat)
    fbin: dict        # fadd/fsub/fmul/fdiv
    sqrt: object
    floor: object
    neg: object
    abs: object
    cmp: object       # -1/0/1, None when unordered
    rel_err: object   # (shadow, orig, p_shadow) -> float, for stream mode


_FBIN = {"fadd": mp.add, "fsub": mp.sub, "fmul": mp.mul, "fdiv": mp.div}

_LANES = {
    True: _LaneOps(
        True, {"fadd": _host_add, "fsub": _host_sub, "fmul": _host_mul,
               "fdiv": _host_div},
        _host_sqrt, _host_floor, operator.neg, abs, _host_cmp,
        _rel_err_host),
    False: _LaneOps(
        False, _FBIN, mp.sqrt, _mp_floor, mp.neg, mp.abs_, mp.cmp,
        _rel_err_float),
}


class _Ctx:
    """Mutable per-run state shared by the compiled closures."""

    __slots__ = ("samples", "counts", "run_index", "agg", "result")

    def __init__(self, n_instrs):
        self.samples = []
        self.counts = [0] * n_instrs
        self.run_index = 0
        self.agg = None
        self.result = None


def _compile(prog, cfg, barriers, mode):
    """mode: "full" (exact ErrorSample objects), "none", "stream"
    (float errors pushed to ctx.agg)."""
    from . import tac as _tac

    p_o = cfg.p_orig
    p_s = cfg.p_shadow
    policy = _orig_policy(p_o)
    lane = _LANES[p_o == 53]
    host = lane.host
    n = len(prog.instrs)

    var_types = {p: "f" for p in prog.params}
    for instr in prog.instrs:
        if instr.dst is not None:
            var_types.setdefault(instr.dst, _tac.OPCODES[instr.op][1])

    const_duals = {}

    def f_getter(operand):
        if operand[0] == "var":
            name = operand[1]
            return lambda env, _n=name: env[_n]
        key = id(operand)
        dv = const_duals.get(key)
        if dv is None:
            dv = make_dual(operand[1], cfg)
            const_duals[key] = dv
        return lambda env, _dv=dv: _dv

    def i_getter(operand):
        if operand[0] == "var":
            name = operand[1]
            return lambda env, _n=name: env[_n]
        val = operand[1] & _INT_MASK
        return lambda env, _v=val: _v

    if mode == "full":
        def make_emit(iid, dst):
            def emit(ctx, dv):
                o = mp.from_float(dv.orig) if host else dv.orig
                ctx.samples.append(ErrorSample(
                    iid, ctx.run_index, dst, o, dv.shadow,
                    mp.relative_error(dv.shadow, o, p_s)))
            return emit
    elif mode == "stream":
        rel_err = lane.rel_err

        def make_emit(iid, dst):
            def emit(ctx, dv):
                ctx.agg(iid, dst, rel_err(dv.shadow, dv.orig, p_s))
            return emit
    else:
        def make_emit(iid, dst):
            def emit(ctx, dv):
                pass
            return emit

    def check_word_op():
        if not host:
            raise EngineError("word operations need p_orig = 53")

    code = []
    labels = prog.labels
    for instr in prog.instrs:
        iid = instr.id
        op = instr.op
        dst = instr.dst
        nxt = iid + 1
        barrier = iid in barriers
        emit = make_emit(iid, dst) if dst is not None else None

        if op in _FBIN:
            fo = lane.fbin[op]
            fn = _FBIN[op]
            ga = f_getter(instr.srcs[0])
            gb = f_getter(instr.srcs[1])
            if barrier:
                def step(env, ctx, fo=fo, fn=fn, ga=ga, gb=gb, dst=dst,
                         iid=iid, nxt=nxt, emit=emit):
                    ctx.counts[iid] += 1
                    a = ga(env)
                    b = gb(env)
                    s = mp.extend(fn(mp.round_to(a.shadow, p_o, policy),
                                     mp.round_to(b.shadow, p_o, policy),
                                     p_o, policy), p_s)
                    dv = DualValue(fo(a.orig, b.orig, p_o, policy), s)
                    env[dst] = dv
                    emit(ctx, dv)
                    return nxt
            elif op == "fdiv":
                def step(env, ctx, fo=fo, fn=fn, ga=ga, gb=gb, dst=dst,
                         iid=iid, nxt=nxt, emit=emit):
                    ctx.counts[iid] += 1
                    a = ga(env)
                    b = gb(env)
                    dv = DualValue(fo(a.orig, b.orig, p_o, policy),
                                   fn(a.shadow, b.shadow, p_s))
                    env[dst] = dv
                    emit(ctx, dv)
                    return nxt
            else:
                # The shadow of fadd/fsub/fmul on two normal operands is
                # mp.add/sub/mul at p_s inlined: the exact result is formed
                # on integer significands and rounded nearest-even here.
                # Other operand classes, and results outside the exponent
                # range, go to mpfloat.
                def step(env, ctx, fo=fo, fn=fn, ga=ga, gb=gb, dst=dst,
                         iid=iid, nxt=nxt, emit=emit, mul=(op == "fmul"),
                         flip=(-1 if op == "fsub" else 1)):
                    ctx.counts[iid] += 1
                    a = ga(env)
                    b = gb(env)
                    x = a.shadow
                    y = b.shadow
                    if x.cls == 1 and y.cls == 1:  # mp.NORMAL
                        if mul:
                            sign = x.sign * y.sign
                            m = x.mant * y.mant
                            e = x.exp - x.prec + y.exp - y.prec + 2
                        else:
                            ex = x.exp - x.prec
                            ey = y.exp - y.prec
                            mx = x.mant if x.sign > 0 else -x.mant
                            my = y.mant if y.sign == flip else -y.mant
                            if ex > ey:
                                m = (mx << (ex - ey)) + my
                                e = ey + 1
                            else:
                                m = mx + (my << (ey - ex))
                                e = ex + 1
                            sign = 1
                            if m < 0:
                                sign = -1
                                m = -m
                        if m:
                            nb = m.bit_length()
                            top = e + nb - 1
                            if nb > p_s:
                                # q keeps the rounding bit as its lowest bit
                                sh = nb - p_s - 1
                                q = m >> sh
                                if q & 1 and (q & 2 or m & ((1 << sh) - 1)):
                                    q = (q >> 1) + 1
                                    if q >> p_s:
                                        q >>= 1
                                        top += 1
                                else:
                                    q >>= 1
                            else:
                                q = m << (p_s - nb)
                            if -_EXP_LIMIT < top < _EXP_LIMIT:
                                s = MPFloat(1, sign, top, q, p_s)
                            else:
                                s = fn(x, y, p_s)
                        else:
                            s = MPFloat(0, 1, 0, 0, p_s)  # mp.zero(p_s)
                    else:
                        s = fn(x, y, p_s)
                    dv = DualValue(fo(a.orig, b.orig, p_o, policy), s)
                    env[dst] = dv
                    emit(ctx, dv)
                    return nxt
        elif op in ("fconst", "fmov", "fneg", "fabs"):
            ga = f_getter(instr.srcs[0])
            un = {"fconst": None, "fmov": None,
                  "fneg": (lane.neg, mp.neg),
                  "fabs": (lane.abs, mp.abs_)}[op]

            def step(env, ctx, ga=ga, un=un, dst=dst, iid=iid, nxt=nxt,
                     emit=emit):
                ctx.counts[iid] += 1
                a = ga(env)
                if un is None:
                    dv = DualValue(a.orig, a.shadow, a.stale)
                else:
                    dv = DualValue(un[0](a.orig), un[1](a.shadow), a.stale)
                env[dst] = dv
                emit(ctx, dv)
                return nxt
        elif op in ("fsqrt", "ffloor"):
            ga = f_getter(instr.srcs[0])
            if op == "fsqrt":
                oper_o, oper = lane.sqrt, mp.sqrt
            else:
                oper_o, oper = lane.floor, _mp_floor

            def step(env, ctx, ga=ga, oper_o=oper_o, oper=oper, dst=dst,
                     iid=iid, nxt=nxt, emit=emit, barrier=barrier):
                ctx.counts[iid] += 1
                a = ga(env)
                o = oper_o(a.orig, p_o, policy)
                if barrier:
                    s = mp.extend(oper(mp.round_to(a.shadow, p_o, policy),
                                       p_o, policy), p_s)
                else:
                    s = oper(a.shadow, p_s, mp.UNBOUNDED)
                dv = DualValue(o, s)
                env[dst] = dv
                emit(ctx, dv)
                return nxt
        elif op in ("get_hi", "get_lo"):
            check_word_op()
            ga = f_getter(instr.srcs[0])
            hi = (op == "get_hi")

            def step(env, ctx, ga=ga, hi=hi, dst=dst, iid=iid, nxt=nxt):
                ctx.counts[iid] += 1
                bits = _float_bits(ga(env).orig)
                env[dst] = (bits >> 32) if hi else (bits & 0xFFFFFFFF)
                return nxt
        elif op == "make_f":
            check_word_op()
            gh = i_getter(instr.srcs[0])
            gl = i_getter(instr.srcs[1])

            def step(env, ctx, gh=gh, gl=gl, dst=dst, iid=iid, nxt=nxt,
                     emit=emit):
                ctx.counts[iid] += 1
                bits = ((gh(env) & 0xFFFFFFFF) << 32) | (gl(env) & 0xFFFFFFFF)
                dv = DualValue(_bits_float(bits),
                               mp.extend(mp.from_binary64_bits(bits), p_s))
                env[dst] = dv
                emit(ctx, dv)
                return nxt
        elif op in ("set_hi", "set_lo"):
            check_word_op()
            ga = f_getter(instr.srcs[0])
            gw = i_getter(instr.srcs[1])
            hi = (op == "set_hi")

            def step(env, ctx, ga=ga, gw=gw, hi=hi, dst=dst, iid=iid,
                     nxt=nxt, emit=emit, barrier=barrier):
                ctx.counts[iid] += 1
                a = ga(env)
                w = gw(env) & 0xFFFFFFFF

                def write(bits):
                    if hi:
                        return (bits & 0xFFFFFFFF) | (w << 32)
                    return (bits >> 32 << 32) | w

                bits = write(_float_bits(a.orig))
                o = _bits_float(bits)
                if barrier:
                    sbits = write(mp.to_binary64_bits(
                        mp.round_to(a.shadow, p_o, policy)))
                    dv = DualValue(o, mp.extend(
                        mp.from_binary64_bits(sbits), p_s))
                elif not a.stale \
                        and mp.cmp(a.shadow, mp.from_float(a.orig)) == 0:
                    dv = DualValue(o, mp.extend(
                        mp.from_binary64_bits(bits), p_s))
                else:
                    dv = DualValue(o, a.shadow, True)
                env[dst] = dv
                emit(ctx, dv)
                return nxt
        elif op == "iconst":
            val = instr.srcs[0][1] & _INT_MASK

            def step(env, ctx, val=val, dst=dst, iid=iid, nxt=nxt):
                ctx.counts[iid] += 1
                env[dst] = val
                return nxt
        elif op in ("iadd", "isub", "iand", "ior", "ixor", "ishl", "ishr"):
            gx = i_getter(instr.srcs[0])
            gy = i_getter(instr.srcs[1])
            kind = op

            def step(env, ctx, gx=gx, gy=gy, kind=kind, dst=dst, iid=iid,
                     nxt=nxt):
                ctx.counts[iid] += 1
                x = gx(env)
                y = gy(env)
                if kind == "iadd":
                    r = (x + y) & _INT_MASK
                elif kind == "isub":
                    r = (x - y) & _INT_MASK
                elif kind == "iand":
                    r = x & y
                elif kind == "ior":
                    r = x | y
                elif kind == "ixor":
                    r = x ^ y
                elif kind == "ishl":
                    r = (x << (y & 63)) & _INT_MASK
                else:
                    sh = y & 63
                    if x & _INT_SIGN:
                        r = ((x - (1 << 64)) >> sh) & _INT_MASK
                    else:
                        r = x >> sh
                env[dst] = r
                return nxt
        elif op == "icmp":
            pred = instr.srcs[0][1]
            xo, yo = instr.srcs[1], instr.srcs[2]

            def otype(operand):
                if operand[0] == "var":
                    return var_types.get(operand[1], "f")
                return "i" if operand[0] == "ilit" else "f"

            is_float = otype(xo) == "f" or otype(yo) == "f"
            if is_float:
                ga = f_getter(xo)
                gb = f_getter(yo)

                def step(env, ctx, ga=ga, gb=gb, cmp=lane.cmp, pred=pred,
                         dst=dst, iid=iid, nxt=nxt):
                    ctx.counts[iid] += 1
                    c = cmp(ga(env).orig, gb(env).orig)
                    if c is None:
                        r = pred == "ne"
                    elif pred == "lt":
                        r = c < 0
                    elif pred == "le":
                        r = c <= 0
                    elif pred == "gt":
                        r = c > 0
                    elif pred == "ge":
                        r = c >= 0
                    elif pred == "eq":
                        r = c == 0
                    else:
                        r = c != 0
                    env[dst] = 1 if r else 0
                    return nxt
            else:
                gx = i_getter(xo)
                gy = i_getter(yo)

                def step(env, ctx, gx=gx, gy=gy, pred=pred, dst=dst,
                         iid=iid, nxt=nxt):
                    ctx.counts[iid] += 1
                    x = gx(env)
                    y = gy(env)
                    if x & _INT_SIGN:
                        x -= 1 << 64
                    if y & _INT_SIGN:
                        y -= 1 << 64
                    if pred == "lt":
                        r = x < y
                    elif pred == "le":
                        r = x <= y
                    elif pred == "gt":
                        r = x > y
                    elif pred == "ge":
                        r = x >= y
                    elif pred == "eq":
                        r = x == y
                    else:
                        r = x != y
                    env[dst] = 1 if r else 0
                    return nxt
        elif op == "branch":
            gc = i_getter(instr.srcs[0])
            tgt = labels[instr.srcs[1][1]]

            def step(env, ctx, gc=gc, tgt=tgt, iid=iid, nxt=nxt):
                ctx.counts[iid] += 1
                return tgt if gc(env) != 0 else nxt
        elif op == "jump":
            tgt = labels[instr.srcs[0][1]]

            def step(env, ctx, tgt=tgt, iid=iid):
                ctx.counts[iid] += 1
                return tgt
        elif op == "ret":
            operand = instr.srcs[0]
            if operand[0] == "var":
                name = operand[1]
                if var_types.get(name) == "i":
                    raise EngineError("ret needs a float variable")

                def step(env, ctx, name=name, iid=iid):
                    ctx.counts[iid] += 1
                    ctx.result = env[name]
                    return -1
            else:
                g = f_getter(operand)

                def step(env, ctx, g=g, iid=iid):
                    ctx.counts[iid] += 1
                    ctx.result = g(env)
                    return -1
        else:
            raise EngineError("unhandled opcode %r" % op)
        code.append(step)
    return code


_CACHE = {}


def _compiled(prog, cfg, barriers, mode):
    key = (id(prog), cfg.p_orig, cfg.p_shadow, barriers, mode)
    hit = _CACHE.get(key)
    if hit is not None and hit[0] is prog:
        return hit[1]
    code = _compile(prog, cfg, barriers, mode)
    _CACHE[key] = (prog, code)  # keep prog alive so ids stay unique
    return code


def _check_barriers(prog, barriers):
    n = len(prog.instrs)
    for b in barriers:
        if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < n:
            raise BadBarrier("barrier ids must name instructions of %s"
                             % prog.name)
        if prog.instrs[b].dst is None:
            raise BadBarrier("instruction %d has no destination" % b)


def execute(prog, inputs, cfg=EngineConfig(), barriers=frozenset(),
            run_index=0, sample_mode="full"):
    """Run one input vector.  sample_mode: "full" records ErrorSample
    objects with exact errors, "none" skips error tracking entirely, or
    pass a callable aggregator(instr_id, dst, err_float) for streaming.
    """
    barriers = frozenset(barriers)
    _check_barriers(prog, barriers)
    if len(inputs) != len(prog.params):
        raise EngineError("%s takes %d input(s), got %d"
                          % (prog.name, len(prog.params), len(inputs)))
    agg = sample_mode if callable(sample_mode) else None
    mode = "stream" if agg is not None else sample_mode
    if mode not in ("full", "none", "stream"):
        raise ValueError("bad sample_mode %r" % sample_mode)
    code = _compiled(prog, cfg, barriers, mode)
    ctx = _Ctx(len(prog.instrs))
    ctx.run_index = run_index
    ctx.agg = agg
    env = {}
    for pname, val in zip(prog.params, inputs):
        env[pname] = make_dual(val, cfg)
    pc = 0
    steps = 0
    budget = cfg.max_steps
    while pc >= 0:
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded("%s exceeded %d steps"
                                     % (prog.name, budget))
        pc = code[pc](env, ctx)
    result = ctx.result
    if result is not None and cfg.p_orig == 53:
        result = DualValue(mp.from_float(result.orig), result.shadow,
                           result.stale)
    return RunTrace(prog.name, run_index, list(inputs), result,
                    ctx.samples, ctx.counts, steps)


def run_batch(prog, input_rows, cfg=EngineConfig(), barriers=frozenset(),
              sample_mode="full"):
    """Execute a list of input vectors; failures are recorded per run
    instead of aborting the batch.  Returns a list of RunTrace."""
    traces = []
    for idx, row in enumerate(input_rows):
        if isinstance(row, MPFloat):
            row = [row]
        try:
            traces.append(execute(prog, row, cfg, barriers, idx, sample_mode))
        except EngineError as exc:
            traces.append(RunTrace(prog.name, idx, list(row), None, [],
                                   [0] * len(prog.instrs), 0, exc))
    return traces


def format_sample(sample):
    """Render one error sample in the four-line layout used by traces."""
    shadow = sample.shadow
    orig = sample.original
    absdiff = mp.sub(shadow, orig, max(shadow.prec, orig.prec, 60))
    head = "%s_id%d" % (sample.dst, sample.instr_id)
    return "\n".join([
        head,
        "ORIGINAL:       %s" % _sci15(orig),
        "SHADOW VALUE:   %s" % _sci15(shadow),
        "ABSOLUTE ERROR: %s" % _sci15(absdiff),
        "RELATIVE ERROR: %s" % _sci15(sample.rel_err),
    ])


def _sci15(v):
    if v.cls == mp.NAN:
        return "nan"
    if v.cls == mp.INF:
        return "inf" if v.sign > 0 else "-inf"
    if v.cls == mp.ZERO:
        return "0.00000000000000 * 10^0"
    sign, digits, dexp = mp._decimal_digits(v, 15)
    s = "-" if sign < 0 else ""
    return "%s%s.%s * 10^%d" % (s, digits[0], digits[1:], dexp)


def format_trace(trace):
    return "\n\n".join(format_sample(s) for s in trace.samples)
