"""Three-address-code programs: text format, parser, validator, printer.

Variables are mutable registers, not SSA.  Float registers hold dual-lane
values in the engine; integer registers are 64-bit two's complement.
A decimal float literal keeps its text, which the engine rounds once to
the original precision when it compiles; a hex literal is exact.

A `TacProgram` is immutable and valid by construction: building one runs
`validate`.  This module alone knows a program's structure, its variable
types (`TacProgram.types`) and basic blocks (`control_flow`), which the
engine reads when it generates code.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import mpfloat as mp
from .mpfloat import MPFloat

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


class TacSyntaxError(ValueError):
    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class TacValidationError(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    kind: str  # BadInstr | UndefinedLabel | TypeMismatch | UndefinedVariable | UnassignedVariable | UnassignedReturn | DuplicateName | BadName | MissingReturn | BadId | BadLabel
    instr_id: int  # -1 when not tied to one instruction
    message: str

    def __str__(self):
        return "%s(instr %d): %s" % (self.kind, self.instr_id, self.message)


@dataclass(frozen=True)
class ConstDef:
    name: str
    text: str
    fval: MPFloat | str  # a decimal float's text, else the exact value
    is_int: bool
    ival: int | None = None


@dataclass(frozen=True)
class TacInstr:
    id: int
    op: str
    dst: str | None
    srcs: tuple  # of (kind, payload[, text]) tuples


@dataclass(frozen=True)
class TacProgram:
    """A valid program: construction raises TacValidationError otherwise.
    params and instrs become tuples, labels and consts read-only
    mappings."""
    name: str
    params: tuple
    instrs: tuple
    return_var: str
    labels: Mapping = field(default_factory=dict)
    consts: Mapping = field(default_factory=dict)
    # the engine's compiled functions for this program, by (config,
    # barriers, sample mode); bounded by the engine
    compiled: dict = field(default_factory=dict, repr=False, compare=False)
    # each variable's type, "f" or "i", in order of first appearance: the
    # parameters ("f"), then each destination as its first assignment types it
    types: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("params", tuple(self.params))
        put("instrs", tuple(self.instrs))
        put("labels", MappingProxyType(dict(self.labels)))
        put("consts", MappingProxyType(dict(self.consts)))
        diags = _shape_diagnostics(self)
        if diags:
            raise TacValidationError(diags)
        types = dict.fromkeys(self.params, "f")
        for instr in self.instrs:
            if instr.dst is not None:
                types.setdefault(instr.dst, OPCODES[instr.op][1])
        put("types", MappingProxyType(types))
        diags = validate(self)
        if diags:
            raise TacValidationError(diags)


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


def parse_program(text):
    """Parse TAC text into a TacProgram.  Raises TacSyntaxError, or
    TacValidationError for a program that parses but cannot run."""
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
    return TacProgram(name, params, instrs, return_var, labels, consts)


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


# the operand tags an operand kind admits; any other kind reads a value
_OPERAND_TAGS = {"flit": (FLIT,), "ilit": (ILIT,), "label": (LABEL,),
                 "pred": (PRED,)}
_PAYLOADS = {VAR: str, FLIT: MPFloat, ILIT: int, LABEL: str, PRED: str}


def _operand_fits(kind, operand):
    """True for a (tag, payload[, text]) operand that an operand of this
    kind may be: text only on literals, predicates from PREDS."""
    if not isinstance(operand, tuple) or len(operand) not in (2, 3):
        return False
    tag, payload = operand[0], operand[1]
    if tag not in _OPERAND_TAGS.get(kind, (VAR, FLIT, ILIT)):
        return False
    if len(operand) == 3 and not (tag in (FLIT, ILIT)
                                  and isinstance(operand[2], str)):
        return False
    if tag == PRED:
        return payload in PREDS
    if tag == FLIT and isinstance(payload, str):  # a decimal literal's text
        try:
            mp._decimal(payload)
        except mp.ParseError:
            return False
        return True
    return isinstance(payload, _PAYLOADS[tag])


def _shape_diagnostics(prog):
    """Each instruction's opcode, destination and operands against the
    opcode table: what the type table and every other check read."""
    diags = []
    for i, instr in enumerate(prog.instrs):
        op = instr.op
        spec = OPCODES.get(op) if isinstance(op, str) else None
        if spec is None:
            diags.append(Diagnostic("BadInstr", i, "unknown opcode %s"
                                    % mp.quote(str(op))))
            continue
        kinds, dkind = spec
        dst = instr.dst
        if dkind is None and dst is not None:
            diags.append(Diagnostic("BadInstr", i,
                                    "%s has no destination" % op))
        elif dkind is not None and not (isinstance(dst, str)
                                        and _NAME_RE.match(dst)):
            diags.append(Diagnostic("BadInstr", i, "%s needs a destination "
                                    "name, got %s" % (op, mp.quote(str(dst)))))
        srcs = instr.srcs
        if not isinstance(srcs, tuple) or len(srcs) != len(kinds):
            diags.append(Diagnostic(
                "BadInstr", i, "%s expects %d operand(s), got %s"
                % (op, len(kinds), len(srcs) if isinstance(srcs, tuple)
                   else "no operand tuple")))
            continue
        diags += [Diagnostic("BadInstr", i, "%s operand %d is no %s operand"
                             % (op, j, kind))
                  for j, (kind, operand) in enumerate(zip(kinds, srcs))
                  if not _operand_fits(kind, operand)]
    return diags


def validate(prog):
    """Semantic checks; returns a list of diagnostics (empty when valid).
    Building a TacProgram runs it, after checking each instruction's shape
    against the opcode table."""
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

    # a program built directly, not parsed, may give an instruction an id
    # other than its position, or a label a target outside the body
    misplaced = [Diagnostic("BadId", i, "instruction %d has id %r"
                            % (i, instr.id))
                 for i, instr in enumerate(prog.instrs) if instr.id != i]
    misplaced += [Diagnostic("BadLabel", -1, "label %s targets %r, outside "
                             "0..%d" % (mp.quote(label), target, n - 1))
                  for label, target in prog.labels.items()
                  if not (isinstance(target, int) and 0 <= target < n)]
    diags += misplaced

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
    if n == 0 or misplaced:
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
    kind = operand[0]
    if kind == VAR:
        return operand[1]
    if kind in (FLIT, ILIT):
        return operand[2] if len(operand) > 2 else str(operand[1])
    return operand[1]


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

