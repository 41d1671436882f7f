"""Three-address-code programs: text format, parser, validator, printer.

Variables are mutable registers, not SSA.  Float registers hold dual-lane
values in the engine; integer registers are 64-bit two's complement.
A decimal float literal keeps its text, which the engine rounds once to
the original precision when it compiles; a hex literal is exact.

A `TacProgram` is built only from its text, which its constructor parses
and then checks with `validate`, so every program that exists is valid,
and it is immutable.  This module alone knows a program's structure, its
variable types (`TacProgram.types`) and basic blocks (`control_flow`),
which the engine reads when it generates code.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from types import MappingProxyType

from . import InputError, mpfloat as mp

# operand kind tags
VAR = "var"
FLIT = "flit"
ILIT = "ilit"
LABEL = "label"
PRED = "pred"

PREDS = ("eq", "ne", "lt", "le", "gt", "ge")

# opcode -> (operand kinds, dst kind);  "x" means int-or-float pair (icmp)
OPCODES = {
    "fconst": (("flit",), "f"),
    "fmov": (("f",), "f"),
    "fneg": (("f",), "f"),
    "fabs": (("f",), "f"),
    "fsqrt": (("f",), "f"),
    "ffloor": (("f",), "f"),
    "fadd": (("f", "f"), "f"),
    "fsub": (("f", "f"), "f"),
    "fmul": (("f", "f"), "f"),
    "fdiv": (("f", "f"), "f"),
    "get_hi": (("f",), "i"),
    "get_lo": (("f",), "i"),
    "make_f": (("i", "i"), "f"),
    "set_hi": (("f", "i"), "f"),
    "set_lo": (("f", "i"), "f"),
    "iconst": (("ilit",), "i"),
    "iadd": (("i", "i"), "i"),
    "isub": (("i", "i"), "i"),
    "iand": (("i", "i"), "i"),
    "ior": (("i", "i"), "i"),
    "ixor": (("i", "i"), "i"),
    "ishl": (("i", "i"), "i"),
    "ishr": (("i", "i"), "i"),
    "icmp": (("pred", "x", "x"), "i"),
    "branch": (("i", "label"), None),
    "jump": (("label",), None),
    "ret": (("v",), None),
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9.]*$")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_FUNC_RE = re.compile(r"^func\s+(\w+)\s*\(([^)]*)\)\s*->\s*(\w+)$")
_CONST_RE = re.compile(r"^const\s+(\w+)\s*=\s*(\S+)$")
_LABEL_RE = re.compile(r"^(\w+):$")
_ANNOT_RE = re.compile(r"^(reducePrec|resumePrec|computeErr)\s*\(.*\)\s*;?$")


class TacSyntaxError(InputError):
    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class TacValidationError(InputError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Diagnostic(namedtuple("Diagnostic", "kind instr_id message")):
    """kind: UndefinedLabel | TypeMismatch | UndefinedVariable |
    UnassignedVariable | UnassignedReturn | DuplicateName | BadName |
    MissingReturn; instr_id is -1 when not tied to one instruction."""
    __slots__ = ()

    def __str__(self):
        return "%s(instr %d): %s" % (self.kind, self.instr_id, self.message)


# fval is a decimal float's text, else the exact value
ConstDef = namedtuple("ConstDef", "name text fval is_int ival",
                      defaults=(None,))
# srcs is a tuple of (kind, payload[, text]) operands
TacInstr = namedtuple("TacInstr", "id op dst srcs")


class TacProgram:
    """A valid program, built only from its TAC text: construction raises
    TacSyntaxError, or TacValidationError for a program that parses but
    cannot run.  params and instrs are tuples, labels and consts read-only
    mappings, and no attribute can be set.  Programs are equal when their
    name, params, instrs, return_var, labels and consts are."""
    __slots__ = ("name", "params", "instrs", "return_var", "labels",
                 "consts", "compiled", "types")

    def __init__(self, text):
        name, params, instrs, return_var, labels, consts = _parse(text)
        put = functools.partial(object.__setattr__, self)
        put("name", name)
        put("params", tuple(params))
        put("instrs", tuple(instrs))
        put("return_var", return_var)
        put("labels", MappingProxyType(labels))
        put("consts", MappingProxyType(consts))
        # the engine's compiled functions for this program, by (config,
        # barriers, sample mode); bounded by the engine
        put("compiled", {})
        # each variable's type, "f" or "i", in order of first appearance:
        # the parameters ("f"), then each destination as its first
        # assignment types it
        types = dict.fromkeys(self.params, "f")
        for instr in self.instrs:
            if instr.dst is not None:
                types.setdefault(instr.dst, OPCODES[instr.op][1])
        put("types", MappingProxyType(types))
        diags = validate(self)
        if diags:
            raise TacValidationError(diags)

    def _key(self):
        return (self.name, self.params, self.instrs, self.return_var,
                self.labels, self.consts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("TacProgram(name=%r, params=%r, instrs=%r, return_var=%r, "
                "labels=%r, consts=%r)" % self._key())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _parse_float_literal(text, line_no):
    try:
        if "x" in text or "X" in text:
            return mp.from_hex_string(text)
        mp._decimal(text)
        return text
    except mp.ParseError as exc:
        raise TacSyntaxError(line_no, str(exc)) from exc


def _parse_int_literal(text, line_no):
    try:
        return int(text, 0)
    except ValueError as exc:
        raise TacSyntaxError(line_no, "bad integer literal %s"
                             % mp.quote(text)) from exc


def _looks_float(text):
    if "x" in text or "X" in text:
        return "p" in text or "P" in text
    return "." in text or "e" in text or "E" in text


def _parse_operand(text, kind, consts, line_no):
    """A const first, then a variable name, then an int literal (for an
    integer operand, or int-like text where either type fits), else a
    float literal."""
    if kind == "pred":
        if text not in PREDS:
            raise TacSyntaxError(line_no, "bad predicate %s" % mp.quote(text))
        return (PRED, text)
    if kind == "label":
        return (LABEL, text)
    integer = kind in ("i", "ilit")
    c = consts.get(text)
    if c is not None:
        if not integer:
            return (FLIT, c.fval, text)
        if not c.is_int:
            raise TacSyntaxError(line_no, "const %s is not integer"
                                 % mp.quote(text))
        return (ILIT, c.ival, text)
    if kind not in ("ilit", "flit") and _NAME_RE.match(text):
        return (VAR, text)
    if integer or (kind in ("x", "v") and _INT_RE.match(text)):
        return (ILIT, _parse_int_literal(text, line_no), text)
    return (FLIT, _parse_float_literal(text, line_no), text)


def _split_operands(text):
    return [t.strip() for t in text.split(",")] if text.strip() else []


def _parse(text):
    """The fields of a TacProgram from its TAC text; raises
    TacSyntaxError."""
    name = None
    params = []
    return_var = None
    consts = {}
    labels = {}
    instrs = []
    pending_labels = []

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if _ANNOT_RE.match(line):
            continue  # barrier annotations from pretty_print round back in
        if name is None:
            m = _FUNC_RE.match(line)
            if not m:
                raise TacSyntaxError(line_no, "expected func header")
            name = m.group(1)
            params = _split_operands(m.group(2))
            return_var = m.group(3)
            continue
        m = _CONST_RE.match(line)
        if m:
            cname, literal = m.group(1), m.group(2)
            if _looks_float(literal):
                consts[cname] = ConstDef(cname, literal,
                                         _parse_float_literal(literal, line_no), False)
            else:
                ival = _parse_int_literal(literal, line_no)
                consts[cname] = ConstDef(cname, literal,
                                         mp.from_int(ival) if ival else mp.zero(),
                                         True, ival)
            continue
        m = _LABEL_RE.match(line)
        if m and m.group(1) not in OPCODES:
            pending_labels.append((m.group(1), line_no))
            continue

        iid = len(instrs)
        for lbl, lno in pending_labels:
            if lbl in labels:
                raise TacSyntaxError(lno, "duplicate label %s"
                                     % mp.quote(lbl))
            labels[lbl] = iid
        pending_labels = []

        dst = None
        if "=" in line:
            dst, _, line = line.partition("=")
            dst = dst.strip()
            if not _NAME_RE.match(dst):
                raise TacSyntaxError(line_no, "bad destination %s"
                                     % mp.quote(dst))
        parts = line.split(None, 1)
        op = parts[0] if parts else ""
        if op not in OPCODES:
            raise TacSyntaxError(line_no, "unknown opcode %s" % mp.quote(op))
        kinds, dkind = OPCODES[op]
        if dst is not None and dkind is None:
            raise TacSyntaxError(line_no, "%s has no destination" % op)
        if dst is None and dkind is not None:
            raise TacSyntaxError(line_no, "%s needs a destination" % op)
        operand_text = _split_operands(parts[1] if len(parts) > 1 else "")
        if len(operand_text) != len(kinds):
            raise TacSyntaxError(
                line_no, "%s expects %d operand(s), got %d"
                % (op, len(kinds), len(operand_text)))
        srcs = tuple(_parse_operand(t, k, consts, line_no)
                     for t, k in zip(operand_text, kinds))
        instrs.append(TacInstr(iid, op, dst, srcs))

    if name is None:
        raise TacSyntaxError(1, "missing func header")
    if pending_labels:
        raise TacSyntaxError(pending_labels[0][1], "label at end of function")
    return name, params, instrs, return_var, labels, consts


def parse_program(text):
    """Parse TAC text into a TacProgram.  Raises TacSyntaxError, or
    TacValidationError for a program that parses but cannot run."""
    return TacProgram(text)


def _successors(prog, i):
    """Where control goes after instruction i: a jump or branch target
    first, then the fall-through."""
    instr = prog.instrs[i]
    succ = []
    if instr.op in ("jump", "branch"):
        tgt = prog.labels.get(instr.srcs[-1][1])
        if tgt is not None:
            succ.append(tgt)
    if instr.op not in ("jump", "ret") and i + 1 < len(prog.instrs):
        succ.append(i + 1)
    return tuple(succ)


def control_flow(prog):
    """The basic blocks of prog in program order, each as (lo, hi,
    successor blocks) with a jump or branch target listed first, and the
    set of blocks reachable from block 0.  Control that falls through
    block b enters block b + 1."""
    n = len(prog.instrs)
    leaders = {0}
    for i, instr in enumerate(prog.instrs):
        if instr.op in ("branch", "jump", "ret"):
            leaders.update(_successors(prog, i))
            leaders.add(i + 1)
    starts = sorted(i for i in leaders if i < n)
    block_at = {lo: b for b, lo in enumerate(starts)}
    blocks = [(lo, hi, tuple(block_at[s] for s in _successors(prog, hi - 1)))
              for lo, hi in zip(starts, starts[1:] + [n])]
    reached = set()
    work = [0] if blocks else []
    while work:
        b = work.pop()
        if b not in reached:
            reached.add(b)
            work.extend(blocks[b][2])
    return blocks, reached


def validate(prog):
    """Semantic checks; returns a list of diagnostics (empty when valid).
    Building a TacProgram runs it on the parsed program."""
    diags = []
    n = len(prog.instrs)
    var_types = prog.types
    for j, p in enumerate(prog.params):
        if not _NAME_RE.match(p):
            diags.append(Diagnostic("BadName", -1, "parameter %s is not a name"
                                    % mp.quote(p)))
        if p in prog.consts:
            diags.append(Diagnostic("DuplicateName", -1,
                                    "parameter %s shadows a const"
                                    % mp.quote(p)))
        if p in prog.params[:j]:
            diags.append(Diagnostic("DuplicateName", -1,
                                    "parameter %s is repeated" % mp.quote(p)))

    # pass 1: every assignment agrees with the variable's type
    for instr in prog.instrs:
        if instr.dst is None:
            continue
        dkind = OPCODES[instr.op][1]
        if var_types[instr.dst] != dkind:
            diags.append(Diagnostic(
                "TypeMismatch", instr.id, "%s assigned as %s and %s"
                % (mp.quote(instr.dst), var_types[instr.dst], dkind)))

    # pass 2: operand kinds, label targets
    for instr in prog.instrs:
        kinds = OPCODES[instr.op][0]
        icmp_types = []
        for (kindspec, operand) in zip(kinds, instr.srcs):
            okind = operand[0]
            if okind == LABEL:
                if operand[1] not in prog.labels:
                    diags.append(Diagnostic("UndefinedLabel", instr.id,
                                            "no label %s"
                                            % mp.quote(operand[1])))
                continue
            if okind == PRED:
                continue
            if okind == VAR:
                vtype = var_types.get(operand[1])
                if vtype is None:
                    diags.append(Diagnostic("UndefinedVariable", instr.id,
                                            "%s is never assigned"
                                            % mp.quote(operand[1])))
                    continue
            else:
                vtype = "i" if okind == ILIT else "f"
            if kindspec == "v":
                kindspec = "f"  # ret reads any literal but returns a float
            if kindspec in ("f", "i") and vtype != kindspec:
                diags.append(Diagnostic(
                    "TypeMismatch", instr.id,
                    "%s operand %s has type %s"
                    % (instr.op, mp.quote(_render_operand(operand)), vtype)))
            if kindspec == "x":
                icmp_types.append(vtype)
        if len(icmp_types) == 2 and icmp_types[0] != icmp_types[1]:
            diags.append(Diagnostic("TypeMismatch", instr.id,
                                    "icmp operands of different types"))

    if n == 0:
        diags.append(Diagnostic("UnassignedReturn", -1, "empty body"))
        return diags

    # pass 3: definite assignment of every operand (forward must-analysis
    # over the basic blocks)
    blocks, reached = control_flow(prog)
    assigned_in = {0: frozenset(prog.params)}
    work = [0]
    while work:
        b = work.pop()
        lo, hi, succ = blocks[b]
        out = assigned_in[b].union(instr.dst for instr in prog.instrs[lo:hi]
                                   if instr.dst is not None)
        for s in succ:
            prev = assigned_in.get(s)
            nxt = out if prev is None else prev & out
            if nxt != prev:
                assigned_in[s] = nxt
                work.append(s)

    saw_ret = False
    for b in sorted(reached):
        lo, hi, _ = blocks[b]
        assigned = set(assigned_in[b])
        for i in range(lo, hi):
            instr = prog.instrs[i]
            for operand in instr.srcs:
                name = operand[1]
                if (operand[0] != VAR or name in assigned
                        or name in prog.consts):
                    continue
                if instr.op == "ret":
                    diags.append(Diagnostic(
                        "UnassignedReturn", instr.id,
                        "%s may be unassigned at ret" % mp.quote(name)))
                elif name in var_types:  # a name never assigned: see above
                    diags.append(Diagnostic(
                        "UnassignedVariable", instr.id,
                        "%s may be read before it is assigned"
                        % mp.quote(name)))
            if instr.dst is not None:
                assigned.add(instr.dst)
            if instr.op == "ret":
                saw_ret = True
            elif instr.op != "jump" and i == n - 1:
                diags.append(Diagnostic("MissingReturn", instr.id,
                                        "control falls off the end"))
    if not saw_ret:
        diags.append(Diagnostic("UnassignedReturn", -1, "no reachable ret"))
    return diags


def _render_operand(operand):
    """A literal's text as written, any other operand's name."""
    return operand[2] if operand[0] in (FLIT, ILIT) else operand[1]


def render_instr(instr):
    ops = ", ".join(_render_operand(s) for s in instr.srcs)
    if instr.dst is None:
        return "%s %s" % (instr.op, ops) if ops else instr.op
    return "%s = %s %s" % (instr.dst, instr.op, ops)


def pretty_print(prog, barriers=frozenset()):
    """Render a program; barriered instructions get the three-call wrapping."""
    lines = ["func %s(%s) -> %s" % (prog.name, ", ".join(prog.params),
                                    prog.return_var)]
    for c in prog.consts.values():
        lines.append("  const %s = %s" % (c.name, c.text))
    label_at = {}
    for lbl, idx in prog.labels.items():
        label_at.setdefault(idx, []).append(lbl)
    for instr in prog.instrs:
        for lbl in label_at.get(instr.id, ()):
            lines.append("%s:" % lbl)
        body = render_instr(instr)
        if instr.id in barriers and instr.dst is not None:
            lines.append("  reducePrec(&%s, %d);" % (instr.dst, instr.id))
            lines.append("  %s" % body)
            lines.append("  resumePrec(&%s, %d);" % (instr.dst, instr.id))
            lines.append('  computeErr("%s", &%s, %d);' % (instr.dst, instr.dst,
                                                           instr.id))
        else:
            lines.append("  %s" % body)
    return "\n".join(lines) + "\n"

