"""Dual-precision shadow execution of TAC programs.

Every float register carries two lanes: the original value rounded at
p_orig (IEEE binary64 semantics when p_orig is 53) and a shadow value kept
at p_shadow bits with unbounded exponent.  Control flow is decided by the
original lane only, so both lanes follow the same path.  A per-instruction
relative error sample is produced whenever a float destination is written.

The original lane has two representations, chosen by p_orig.  At
p_orig = 53 it is a host float: arithmetic, comparisons and square roots
are the host's IEEE binary64 operations, with the cases where Python
departs from IEEE (division by zero, square root of a negative) handled
explicitly.  At any other p_orig it is an `MPFloat`.  The shadow lane is
always an `MPFloat`.  Every `MPFloat` operation is an `mpfloat` call, so
the engine has no arithmetic or rounding of its own; fadd, fsub and fmul
call `mpfloat._nearest` directly, and fdiv `mpfloat.div`, which rounds two
normal operands once from one integer division; one call per operation.
A value enters the engine, as a row's input or as a constant, by one rule
(`_admit`): rounded to p_orig under `mpfloat.policy_for(p_orig)`, the
shadow that value extended exactly to p_shadow, and at p_orig = 53 the
original that value as a host float.  An input that already has p_orig
bits inside the normal range is admitted as it is: `mpfloat.round_to`
returns such a value unrounded.  A host-float original crosses back to
`MPFloat` only where a caller or the shadow needs one: `RunTrace.result`,
once per batch, `ErrorSample.original`, and the shadow side of word
writes; the per-row hook below gets it as the lane holds it.
Stream-mode errors at p_orig = 53 are `mpfloat._rel_err_host`'s, the one
function that forms the error of a host-float original (`_nearest` inlines
its commonest case), computed from the host float directly, and equal the
`MPFloat` computation (`mpfloat._rel_err_float`) bit for bit.

Word-level bit operations (get_hi/get_lo/make_f/set_hi/set_lo) act on the
binary64 encoding of the original lane, so they need p_orig = 53; every
NaN reads as the canonical pattern 0x7FF8 << 48.  A partial word write
generally cannot be mirrored in the shadow, which is then left untouched
and marked stale; the exception is a source whose shadow still equals its
original value exactly, where the write is replayed cleanly on the shadow
too.

Precision barriers demote a rounding instruction's shadow: it is the
original lane's own expression on the shadow operands rounded to p_orig,
its result extended exactly to p_shadow.  At p_orig = 53 the operands
are rounded by `MPFloat.to_float`, so the demoted operation is host IEEE
arithmetic.  A barriered set_hi or set_lo writes its word into the
shadow rounded to binary64.

Programs are compiled once per (program, config, barriers, sampling mode)
into one generated Python function, kept in a bounded cache on the program.
One call runs a batch of rows, each a sequence of input values, and
`execute` is a batch of one.  `execute_rows` admits every batch by one
rule, whatever the command: it checks the barriers, compiles nothing for a
batch without rows, and checks the first row's arity before it compiles.
The function checks each later row's arity and admits its inputs only when
it reaches the row, so a batch of any length holds one row at a time and a
bad row stops the batch after the rows before it.
After each row the function hands the row's result to the caller's per-row
hook, if there is one, as on_row(index, orig, shadow, stale), the original
as the lane holds it (a host float at p_orig = 53): `run` writes each row
from it and `evaluate` collects each lane's results, so `collect`, `run`
and each lane of `evaluate` are one call per batch, and the hook costs a
row without one a single `is None` test.  A batch's result is a
`DualValue`, its original an `MPFloat`.
A `tac.TacProgram` is built only from text, which its constructor parses
and validates, and it is immutable, so the engine checks no program
structure: it reads the basic blocks, their successors and reachability
from `tac.control_flow` and variable types from `TacProgram.types`, and
only generates code.
Registers become locals named by index: o<k> and s<k> for the two lanes of
a float, t<k> for its staleness in programs with word writes, and i<k> for
an integer, a 64-bit word; a signed comparison reads a word below 2**63
as it is and a larger one as the word minus 2**64 (a literal is read so
at compile time).  Constants are admitted at compile time and
bound into the function's namespace, a decimal literal rounded from its
text; no text of the program reaches the generated source.  The reachable
basic blocks are dispatched by a balanced `if` tree on the block index
inside one loop per row; exec counts are kept per block and the row's step
budget is checked on every entry to a block, against its length.  A block
whose branch or jump goes back to its own start (a self-loop, such as a
counted loop with no branch inside) runs as an inner `while` loop that it
leaves when its branch is not taken, so its passes skip the dispatch.
Each float operation is emitted from two expression tables: host-float
expressions for the original lane at p_orig = 53, and unbounded `mpfloat`
calls for the shadow and the `MPFloat` original lane.  A demoted shadow
takes the original lane's table.

In full mode each sampled instruction passes an `ErrorSample`, its errors
exact, to one append: that of the trace's `samples` list, or of a caller's
consumer (any object with `append`), which then sees each sample as it is
made while the engine keeps none.

In stream mode each sampled instruction appends its error through a local
a<id> bound once per batch: to its buffer in a `detector.ErrorAggregate`,
or to a caller's sink(instr_id, dst, err) through a `functools.partial`.
Nothing else is done per sample.  At p_orig = 53 an unbarriered fadd, fsub,
fmul or fdiv is one call, `_nearest(s<a>, s<b>, flip, p_shadow, o<k>,
a<id>)` or `div(s<a>, s<b>, p_shadow, UNBOUNDED, o<k>, a<id>)`: it rounds
the shadow and appends the host original's error: `_nearest` forms it
inline from the fields it has just rounded when the original lies in
`_rel_err_host`'s exact-integer case, and any other result of `_nearest`
or `div` takes one `_rel_err_host` call.  Every other sampled instruction
appends `_rel_err_host(s<k>, o<k>, p_shadow)`, or `_rel_err_float` of an
`MPFloat` original.  Every entry to a block takes each of its sampled
instructions once, so the generated function counts no samples: the
batch's sample count is the sum over the sampling blocks of exec count
times samples per entry, and a row that brings it to the aggregate's mark
folds the buffers.  A block's instructions sample in a fixed order, so the
order of the blocks' first entries in the batch, which each first entry
appends to a list, is the order of the instructions' first samples.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from collections import namedtuple

from . import InputError, mpfloat as mp
from .tac import control_flow

_INT_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_NAN_BITS = 0x7FF8 << 48
_DOUBLE = struct.Struct("<d")
_WORD64 = struct.Struct("<Q")


class EngineError(InputError):
    pass


class StepBudgetExceeded(EngineError):
    pass


class BadBarrier(EngineError):
    pass


class NonFiniteFloor(EngineError):
    """ffloor of an infinity or a NaN, in either lane."""


class EngineConfig(namedtuple("EngineConfig", "p_orig p_shadow max_steps")):
    """The lanes' precisions and the step budget of one row; every config,
    `_replace`'s and `_make`'s too, is validated."""
    __slots__ = ()

    def __new__(cls, p_orig=53, p_shadow=120, max_steps=50_000_000):
        if p_orig < 2 or p_shadow < p_orig:
            raise InputError("need 2 <= p_orig <= p_shadow")
        if max_steps < 1:
            raise InputError("max_steps must be at least 1")
        return super().__new__(cls, p_orig, p_shadow, max_steps)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    """One full-mode sample: both lanes, the absolute error shadow -
    original at max(p_shadow, 60) bits and the relative error at
    p_shadow."""
    __slots__ = ("instr_id", "run_index", "dst", "original", "shadow",
                 "abs_err", "rel_err")

    def __init__(self, instr_id, run_index, dst, original, shadow, abs_err,
                 rel_err):
        self.instr_id = instr_id
        self.run_index = run_index
        self.dst = dst
        self.original = original
        self.shadow = shadow
        self.abs_err = abs_err
        self.rel_err = rel_err


# result is the last row's DualValue, its original an MPFloat
RunTrace = namedtuple("RunTrace", "result samples exec_counts steps")


def _admit(value, p_o, p_s, policy):
    """(orig, shadow) of a value entering the engine, a row's input or a
    constant: the value rounded to p_orig under `policy` (policy_for(p_o)),
    and that extended exactly to p_shadow.  At p_orig = 53 the original is
    the rounded value as a host float."""
    o = mp.round_to(value, p_o, policy)
    return (o.to_float() if p_o == 53 else o), mp.extend(o, p_s)


# -- the host-float original lane (p_orig = 53) ------------------------------


def _float_bits(x):
    """binary64 encoding of a host float; every NaN gives _NAN_BITS."""
    if x != x:
        return _NAN_BITS
    return _WORD64.unpack(_DOUBLE.pack(x))[0]


def _bits_float(bits):
    return _DOUBLE.unpack(_WORD64.pack(bits))[0]


def _host_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        # IEEE: 0/0 and NaN/0 are NaN, anything else is an infinity
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _host_sqrt(x):
    if x < 0.0:
        return math.nan
    return math.sqrt(x)


def _host_floor(x):
    if x - x != 0.0:
        raise NonFiniteFloor("floor needs a finite value")
    return float(math.floor(x))


def _mp_floor(v, p):
    if v.cls == mp.INF or v.cls == mp.NAN:
        raise NonFiniteFloor("floor needs a finite value")
    return mp.round_to(mp.floor(v), p)


def _put_word(bits, w, hi):
    if hi:
        return (bits & 0xFFFFFFFF) | (w << 32)
    return (bits >> 32 << 32) | w


def _set_word(o, s, stale, w, hi, barrier, p_s):
    """set_hi (hi true) or set_lo: the host-lane original o with one word
    replaced by w, and its (shadow, stale) as the module docstring says."""
    w &= 0xFFFFFFFF
    bits = _put_word(_float_bits(o), w, hi)
    if barrier:
        sbits = _put_word(_float_bits(s.to_float()), w, hi)
        return (_bits_float(bits),
                mp.extend(mp.from_binary64_bits(sbits), p_s), False)
    if not stale and mp.cmp(s, mp.from_float(o)) == 0:
        return (_bits_float(bits),
                mp.extend(mp.from_binary64_bits(bits), p_s), False)
    return _bits_float(bits), s, True


def _make_word(h, l, p_s):
    bits = ((h & 0xFFFFFFFF) << 32) | (l & 0xFFFFFFFF)
    return _bits_float(bits), mp.extend(mp.from_binary64_bits(bits), p_s)


def _full_sample(iid, run_index, dst, o, s, p_s):
    if isinstance(o, float):
        o = mp.from_float(o)
    p = max(p_s, 60)
    d = mp.sub(s, o, p)
    # one subtraction serves both errors unless p_shadow < 60
    return ErrorSample(iid, run_index, dst, o, s, d,
                       mp.relative_error(s, o, p_s, d if p == p_s else None))


# Expression templates of the float operations: {0} and {1} are operand
# expressions, {p} the precision.  The host-float original lane (p_orig 53):
_HOST_EXPR = {"fconst": "{0}", "fmov": "{0}", "fadd": "{0} + {1}",
              "fsub": "{0} - {1}", "fmul": "{0} * {1}",
              "fdiv": "_hdiv({0}, {1})", "fsqrt": "_hsqrt({0})",
              "ffloor": "_hfloor({0})", "fneg": "-{0}", "fabs": "abs({0})"}
# the shadow lane and the MPFloat original lane: unbounded mpfloat calls
_MP_EXPR = {"fconst": "{0}", "fmov": "{0}",
            "fadd": "_near({0}, {1}, 1, {p})",
            "fsub": "_near({0}, {1}, -1, {p})",
            "fmul": "_near({0}, {1}, 0, {p})", "fdiv": "_div({0}, {1}, {p})",
            "fsqrt": "_sqrt({0}, {p})", "ffloor": "_floor({0}, {p})",
            "fneg": "_neg({0})", "fabs": "_abs({0})"}
# the rounding operations, whose shadow a barrier demotes: the original
# lane's own expression on the shadow operands rounded to p_orig, host
# floats (_tf) at p_orig 53, the result extended to p_shadow
_DEMOTED = ("fadd", "fsub", "fmul", "fdiv", "fsqrt", "ffloor")
# the shadow in stream mode at p_orig 53: one call rounds it and passes
# the host original o<k>'s error to instruction {i}'s append a<i>
_FUSED = {"fadd": "_near({0}, {1}, 1, {p}, o{k}, a{i})",
          "fsub": "_near({0}, {1}, -1, {p}, o{k}, a{i})",
          "fmul": "_near({0}, {1}, 0, {p}, o{k}, a{i})",
          "fdiv": "_div({0}, {1}, {p}, _unb, o{k}, a{i})"}
_COPIES = ("fconst", "fmov", "fneg", "fabs")  # keep the source's staleness
# the helpers generated code calls
_NS = {"_near": mp._nearest, "_div": mp.div, "_sqrt": mp.sqrt,
       "_floor": _mp_floor, "_neg": mp.neg, "_abs": mp.abs_,
       "_hdiv": _host_div, "_hsqrt": _host_sqrt, "_hfloor": _host_floor,
       "_sample": _full_sample, "_rnd": mp.round_to, "_ext": mp.extend,
       "_fbits": _float_bits, "_setw": _set_word, "_makef": _make_word,
       "_unb": mp.UNBOUNDED, "_tf": mp.MPFloat.to_float,
       "_ff": mp.from_float, "_inf": math.inf, "_cmp": mp.cmp,
       "_admit": _admit}
_WORD_OPS = ("get_hi", "get_lo", "make_f", "set_hi", "set_lo")
_M = str(_INT_MASK)
_INT_EXPR = {"iadd": "({0} + {1}) & " + _M, "isub": "({0} - {1}) & " + _M,
             "iand": "{0} & {1}", "ior": "{0} | {1}", "ixor": "{0} ^ {1}",
             "ishl": "({0} << ({1} & 63)) & " + _M,
             "ishr": "(({0} - ({0} >> 63 << 64)) >> ({1} & 63)) & " + _M}
# Python's comparisons: of signed ints, and of host floats as IEEE 754 has
# them (NaN unordered, -0 == +0)
_INT_PRED = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==",
             "ne": "!="}
# the MPFloat original lane's mp.cmp results (-1/0/1, None when unordered)
# each predicate accepts
_CMP_PRED = {"lt": "(-1,)", "le": "(-1, 0)", "gt": "(1,)", "ge": "(0, 1)",
             "eq": "(0,)", "ne": "(-1, 1, None)"}


def _compile(prog, cfg, barriers, mode):
    """One Python function run(rows, sink, ri, fold, done=None) for the
    program, whose rows are sequences of input values, indexed from ri.
    Each row's arity is checked (check_arity's error) and its inputs are
    admitted (_admit) when the loop reaches it.  After each row, done(ri,
    orig, shadow, stale) is called with the row's result, the original as
    the lane holds it, unless done is None.  In "full" mode `sink` takes
    ErrorSamples; in "stream" mode it holds one append per sampled
    instruction, in the order of `run.sampled`, each taking the error as a
    host float, and `fold` is the aggregate's or None.
    It returns the last row's (orig, shadow, stale), Nones without rows, the
    batch's exec_counts, firsts and the index after its last row.
    `run.sampled` holds one tuple of (instr_id, dst) per sampling block, in
    the order its instructions sample, and firsts the indices j into it in
    the order of the blocks' first entries in the batch: the order of the
    sampled instructions' first errors."""
    p_o, p_s = cfg.p_orig, cfg.p_shadow
    host = p_o == 53
    instrs = prog.instrs
    policy = mp.policy_for(p_o)
    ns = dict(_NS, _rel=mp._rel_err_host if host else mp._rel_err_float,
              _pol=policy, _arity=functools.partial(check_arity, prog))
    ns["_over"] = functools.partial(
        StepBudgetExceeded, "%s exceeded %d steps" % (prog.name,
                                                      cfg.max_steps))

    def bind(value):
        name = "k%d" % len(ns)
        ns[name] = value
        return name

    # registers by variable, numbered as tac.TacProgram.types lists them
    regs = {name: k for k, name in enumerate(prog.types)}
    track = any(instr.op in ("set_hi", "set_lo") for instr in instrs)

    def fop(operand):
        """(orig, shadow, stale) expressions of a float operand."""
        if operand[0] == "var":
            k = regs[operand[1]]
            return "o%d" % k, "s%d" % k, "t%d" % k if track else "False"
        value = operand[1]
        if isinstance(value, str):  # a decimal literal, rounded once
            value = mp.from_decimal_string(value, p_o, policy)
        o, s = _admit(value, p_o, p_s, policy)
        return bind(o), bind(s), "False"

    def iop(operand):
        if operand[0] == "var":
            return "i%d" % regs[operand[1]]
        return "%d" % (operand[1] & _INT_MASK)

    def signed(operand):
        """The 64-bit word as a signed integer; a word below 2**63, the
        common case, is read as it is, with no arithmetic."""
        if operand[0] == "var":
            return "({0} if {0} < {1} else {0} - {2})".format(
                iop(operand), _SIGN_BIT, _INT_MASK + 1)
        v = operand[1] & _INT_MASK
        return "%d" % (v if v < _SIGN_BIT else v - _INT_MASK - 1)

    def is_float(operand):
        if operand[0] == "var":
            return prog.types[operand[1]] == "f"
        return operand[0] != "ilit"

    # per block, the (instr_id, dst) of each instruction that samples
    block_samples = []

    def emit(iid, k, dst, fused):
        if mode == "stream":
            block_samples[-1].append((iid, dst))
            return [] if fused else ["a%d(_rel(s%d, o%d, %d))"
                                     % (iid, k, k, p_s)]
        if mode == "full":
            return ["sink(_sample(%d, ri, %s, o%d, s%d, %d))"
                    % (iid, bind(dst), k, k, p_s)]
        return []

    def lines(instr):
        op, srcs = instr.op, instr.srcs
        if op in _WORD_OPS and not host:
            raise EngineError("word operations need p_orig = 53")
        k = regs.get(instr.dst)
        fused = False
        if op in _MP_EXPR:
            args = [fop(s) for s in srcs]
            s_args = [a[1] for a in args]
            table = _HOST_EXPR if host else _MP_EXPR
            orig = table[op].format(*[a[0] for a in args], p=p_o)
            if op in _DEMOTED and instr.id in barriers:
                low = table[op].format(*[
                    "_tf(%s)" % s if host else "_rnd(%s, %d)" % (s, p_o)
                    for s in s_args], p=p_o)
                shadow = "_ext(%s, %d)" % ("_ff(%s)" % low if host else low,
                                           p_s)
            elif mode == "stream" and host and op in _FUSED:
                shadow = _FUSED[op].format(*s_args, p=p_s, k=k, i=instr.id)
                fused = True
            else:
                shadow = _MP_EXPR[op].format(*s_args, p=p_s)
            out = ["o%d = %s" % (k, orig), "s%d = %s" % (k, shadow)]
            if track:
                out.append("t%d = %s" % (k, args[0][2] if op in _COPIES
                                          else "False"))
        elif op in ("set_hi", "set_lo"):
            oa, sa, ta = fop(srcs[0])
            out = ["o%d, s%d, t%d = _setw(%s, %s, %s, %s, %d, %d, %d)" % (
                k, k, k, oa, sa, ta, iop(srcs[1]), op == "set_hi",
                instr.id in barriers, p_s)]
        elif op == "make_f":
            out = ["o%d, s%d = _makef(%s, %s, %d)"
                   % (k, k, iop(srcs[0]), iop(srcs[1]), p_s)]
            if track:
                out.append("t%d = False" % k)
        elif op in ("get_hi", "get_lo"):
            return ["i%d = _fbits(%s) %s" % (
                k, fop(srcs[0])[0],
                ">> 32" if op == "get_hi" else "& 0xFFFFFFFF")]
        elif op == "iconst":
            return ["i%d = %s" % (k, iop(srcs[0]))]
        elif op in _INT_EXPR:
            return ["i%d = %s" % (k, _INT_EXPR[op].format(iop(srcs[0]),
                                                          iop(srcs[1])))]
        elif op == "icmp":
            pred, x, y = srcs[0][1], srcs[1], srcs[2]
            if not (is_float(x) or is_float(y)):
                x, y = signed(x), signed(y)
            elif host:
                x, y = fop(x)[0], fop(y)[0]
            else:
                return ["i%d = 1 if _cmp(%s, %s) in %s else 0"
                        % (k, fop(x)[0], fop(y)[0], _CMP_PRED[pred])]
            return ["i%d = 1 if %s %s %s else 0" % (k, x, _INT_PRED[pred], y)]
        return out + emit(instr.id, k, instr.dst, fused)

    # every block is generated, reached or not, so that constants are bound
    # and word ops rejected in program order; only reached blocks are run.
    # A block that branches or jumps back to its own start is a self-loop,
    # run as an inner loop until its branch is not taken
    blocks, reached = control_flow(prog)
    bodies = []
    loops = set()
    counts = []
    for b, (lo, hi, succ) in enumerate(blocks):
        block_samples.append([])
        body = [ln for instr in instrs[lo:hi - 1] for ln in lines(instr)]
        last = instrs[hi - 1]
        if last.op == "ret":
            body += ["ro, rs, rt = %s, %s, %s" % fop(last.srcs[0]), "break"]
        elif last.op in ("jump", "branch") and succ[0] == b:
            loops.add(b)
            if last.op == "branch":
                body += ["if not %s:" % iop(last.srcs[0]), "    break"]
        elif last.op == "jump":
            body.append("b = %d" % succ[0])
        elif last.op == "branch":
            body.append("b = %d if %s else %d"
                        % (succ[0], iop(last.srcs[0]), b + 1))
        else:
            body += lines(last) + ["b = %d" % (b + 1)]
        bodies.append(body)
        counts += ["c%d" % b if b in reached else "0"] * (hi - lo)

    # stream mode: the j-th sampling block's first entry appends j to fs;
    # the batch's sample count is the sum of c<b> times
    # len(block_samples[b]) over the sampling blocks, and a row that brings
    # it to nf folds
    ids = sorted(reached)
    sampling = [b for b in ids if block_samples[b]]
    taken = " + ".join("c%d * %d" % (b, len(block_samples[b]))
                       if len(block_samples[b]) > 1 else "c%d" % b
                       for b in sampling)
    sampled = tuple(tuple(block_samples[b]) for b in sampling)
    src = ["def run(rows, sink, ri, fold, done=None):"]
    if sampled:
        src += ["    %s, = sink" % ", ".join("a%d" % iid for block in sampled
                                              for iid, _ in block),
                "    fs = []"]
    src += ["    %s = 0" % " = ".join("c%d" % b for b in ids),
            "    ro = rs = rt = None"]
    folds = mode == "stream" and sampling
    if folds:
        src.append("    nf = 0 if fold else _inf")
    # each row is checked for its arity and admitted once it is reached
    params = [regs[name] for name in prog.params]
    src += ["    for ins in rows:",
            "        try:",
            "            %s, = ins" % ", ".join("x%d" % k for k in params)
            if params else "            () = ins",
            "        except ValueError:",
            "            _arity(len(ins))",
            "            raise"]
    for k in params:
        src.append("        o%d, s%d = _admit(x%d, %d, %d, _pol)"
                   % (k, k, k, p_o, p_s))
        if track:
            src.append("        t%d = False" % k)
    src += ["        n = 0", "        b = 0", "        while True:"]

    def dispatch(ids, pad):
        if len(ids) > 1:
            mid = len(ids) // 2
            src.append(pad + "if b < %d:" % ids[mid])
            dispatch(ids[:mid], pad + "    ")
            src.append(pad + "else:")
            dispatch(ids[mid:], pad + "    ")
        else:
            b = ids[0]
            lo, hi, _ = blocks[b]
            first = ["if not c%d:" % b,
                     "    fs.append(%d)" % sampling.index(b)] \
                if block_samples[b] else []
            entry = ["n += %d" % (hi - lo), "if n > %d:" % cfg.max_steps,
                     "    raise _over()", "c%d += 1" % b] + bodies[b]
            if b in loops:
                entry = ["while True:"] + ["    " + ln for ln in entry]
                if instrs[hi - 1].op == "branch":
                    entry.append("b = %d" % (b + 1))
            src.extend(pad + ln for ln in first + entry)

    dispatch(ids, "            ")
    if folds:
        src += ["        if %s >= nf:" % taken,
                "            nf = fold(%s)" % taken]
    src += ["        if done is not None:",
            "            done(ri, ro, rs, rt)",
            "        ri += 1"]
    src.append("    return ro, rs, rt, [%s], %s, ri" % (
        ", ".join(counts), "fs" if sampled else "[]"))
    exec(compile("\n".join(src) + "\n", "<precfix>", "exec"), ns)
    run = ns["run"]
    run.sampled = sampled
    return run


# compiled functions kept per program, the oldest dropped past this many
_CACHE_SIZE = 32


def _compiled(prog, cfg, barriers, mode):
    """The compiled function, from the cache when it is there.  The key
    holds the config's fields, which hash faster than the config."""
    cache = prog.compiled
    key = (cfg.p_orig, cfg.p_shadow, cfg.max_steps, barriers, mode)
    run = cache.get(key)
    if run is None:
        run = _compile(prog, cfg, barriers, mode)
        if len(cache) >= _CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = run
    return run


def check_barriers(prog, barriers):
    """Raise BadBarrier unless every barrier id names an instruction of
    prog that has a destination."""
    n = len(prog.instrs)
    for b in barriers:
        if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < n:
            raise BadBarrier("barrier id %r names no instruction of %s"
                             % (b, prog.name))
        if prog.instrs[b].dst is None:
            raise BadBarrier("instruction %d has no destination" % b)


def check_arity(prog, n):
    """Raise EngineError unless prog takes n inputs."""
    if n != len(prog.params):
        raise EngineError("%s takes %d input(s), got %d"
                          % (prog.name, len(prog.params), n))


def execute_rows(prog, rows, cfg=EngineConfig(), barriers=frozenset(),
                 sample_mode="full", run_index=0, on_row=None):
    """Run input vectors, sequences of values, in one call, indexed from
    run_index.  One admission rule serves every caller: the barriers are
    checked on every call, a cached program's included ({True} and {1.0}
    equal {1}); a batch without rows compiles nothing and returns a trace
    of no samples, zero exec counts and steps and a result of Nones; and
    the first row's arity is checked before the program is compiled.  The
    generated function checks each later row's arity and admits each row
    as it reaches it, and a failed row stops the batch.  on_row, unless
    None, is called after each row as on_row(index, orig, shadow, stale)
    with the row's result, the original as the lane holds it (a host float
    at p_orig 53, else an MPFloat), so a row that fails leaves the rows
    before it handed over.
    sample_mode: "full" records ErrorSample objects with exact errors in
    the trace's samples, and an object with `append` (a list, or a caller's
    consumer) is handed each of them as it is made instead; "none" skips
    error tracking entirely, a callable sink(instr_id, dst, err) receives
    each error as a host float, and a tally (`detector.ErrorAggregate`)
    has each error appended to its instruction's buffer through
    `tally.sinks(sampled)`, folded by `tally.fold`, and its runs counted
    and the order of its instructions' first samples given by
    `tally.end_run` (see _compile).  The trace holds the last row's
    result, the whole batch's samples under "full", and its exec counts
    and steps."""
    samples = []
    sink = tally = fold = None
    if sample_mode == "none":
        mode = sample_mode
    elif sample_mode == "full":
        mode, sink = sample_mode, samples.append
    elif hasattr(sample_mode, "append"):
        mode, sink = "full", sample_mode.append
    elif callable(sample_mode):
        mode = "stream"
    elif hasattr(sample_mode, "sinks"):
        mode, tally = "stream", sample_mode
    else:
        raise ValueError("bad sample_mode %r" % (sample_mode,))
    barriers = frozenset(barriers)
    check_barriers(prog, barriers)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return RunTrace(DualValue(None, None, None), samples,
                        [0] * len(prog.instrs), 0)
    check_arity(prog, len(first))
    run = _compiled(prog, cfg, barriers, mode)
    if tally is not None:
        sink, fold = tally.sinks(run.sampled), tally.fold
    elif mode == "stream":
        sink = [functools.partial(sample_mode, iid, dst)
                for block in run.sampled for iid, dst in block]
    orig, shadow, stale, counts, firsts, end = run(
        itertools.chain((first,), rows), sink, run_index, fold, on_row)
    if tally is not None:
        tally.end_run(run.sampled, firsts, end - run_index)
    if isinstance(orig, float):
        orig = mp.from_float(orig)
    return RunTrace(DualValue(orig, shadow, stale), samples, counts,
                    sum(counts))


def execute(prog, inputs, cfg=EngineConfig(), barriers=frozenset(),
            run_index=0, sample_mode="full"):
    """Run one input vector, a batch of one (see execute_rows)."""
    return execute_rows(prog, (inputs,), cfg, barriers, sample_mode,
                        run_index)


_SAMPLE = ("%s_id%d\nORIGINAL:       %s\nSHADOW VALUE:   %s\n"
           "ABSOLUTE ERROR: %s\nRELATIVE ERROR: %s")


def format_sample(sample):
    """Render one error sample in the four-line layout used by traces."""
    return _SAMPLE % (sample.dst, sample.instr_id, _sci15(sample.original),
                      _sci15(sample.shadow), _sci15(sample.abs_err),
                      _sci15(sample.rel_err))


_LOG10_2 = mp._LOG10_2
_scaled = mp._round_scaled_exact
_TEN15 = 10**15
# _sci15 of the other classes, by (class, sign): zeros print unsigned
_SPECIAL15 = {(mp.NAN, 1): "nan", (mp.NAN, -1): "nan", (mp.INF, 1): "inf",
              (mp.INF, -1): "-inf", (mp.ZERO, 1): "0.00000000000000 * 10^0",
              (mp.ZERO, -1): "0.00000000000000 * 10^0"}


def _sci15(v):
    """v to 15 significant digits, correctly rounded, as d.ddd * 10^e:
    mpfloat._decimal_digits at 15 digits with its constants folded in.
    The estimate d10 is floor(log10 |v|) or one less, so only a rounding
    to 16 digits moves it, up."""
    if v.cls != mp.NORMAL:
        return _SPECIAL15[v.cls, v.sign]
    m = v.mant
    e = v.exp - v.prec + 1
    d10 = math.floor(math.log10(m) + e * _LOG10_2 - 1e-6)
    while True:
        k = 14 - d10
        # 992 is where _decimal_digits leaves _round_scaled_exact at 15
        n = (_scaled(m, e, k) if -992 <= k <= 992
             else mp._round_scaled(m, e, k, 15))
        if n < _TEN15:
            s = str(n)
            return ("-%s.%s * 10^%d" if v.sign < 0 else "%s.%s * 10^%d") % (
                s[0], s[1:], d10)
        d10 += 1
