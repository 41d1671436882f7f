"""Output checks for the benchmark's commands.

Each checker takes the text a `precfix` command wrote and raises
CheckFailed, naming the check, when it disagrees with a reference that
does not go through precfix: the barrier sets and accuracy ordering the
paper reports, IEEE binary32 arithmetic in numpy, exact rationals, and
mpmath at 300 bits.

numpy and mpmath are imported inside the checkers that need them, so that
workloads whose checks do without them do not carry them in their peak RSS.
"""

from __future__ import annotations

import json
from decimal import Decimal, Context, ROUND_HALF_EVEN
from fractions import Fraction


class CheckFailed(Exception):
    def __init__(self, check, detail):
        super().__init__("%s: %s" % (check, detail))
        self.check = check


def _require(ok, check, detail):
    if not ok:
        raise CheckFailed(check, detail)


def _load_json(text, check):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckFailed(check, "output is not JSON: %s" % exc) from exc


# ---------------------------------------------------------------------------
# magic_pipeline: fix and eval
# ---------------------------------------------------------------------------


def check_fix(text, kernel, expected_barriers):
    """`fix` converged and placed exactly the paper's barrier set."""
    data = _load_json(text, "fix.json")
    _require(data.get("converged") is True, "fix.converged",
             "%s did not converge" % kernel)
    got = set(data.get("barriers", ()))
    _require(got == set(expected_barriers), "fix.barriers",
             "%s: barriers %s, expected %s"
             % (kernel, sorted(got), sorted(expected_barriers)))


def check_eval(text, kernel, rows):
    """MP never loses to HP, beats OP on average, and HP is far worse."""
    data = _load_json(text, "eval.json")
    _require(isinstance(data, list) and len(data) == 1, "eval.tables",
             "%s: expected one summary table" % kernel)
    table = data[0]
    _require(table.get("rows") == rows and table.get("skipped") == 0,
             "eval.rows", "%s: rows %r skipped %r, expected %d and 0"
             % (kernel, table.get("rows"), table.get("skipped"), rows))
    _require(table["percentages"].get("M>=H") == 100.0, "eval.M>=H",
             "%s: M>=H is %r%%, expected 100%%"
             % (kernel, table["percentages"].get("M>=H")))
    avg = table["average_error"]
    try:
        op, hp, mp_ = (Fraction(avg[k]) for k in ("OP", "HP", "MP"))
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckFailed("eval.averages", "%s: %r" % (kernel, avg)) from exc
    _require(mp_ < op, "eval.MP<OP",
             "%s: MP average %s not below OP average %s"
             % (kernel, avg["MP"], avg["OP"]))
    _require(hp > 1000 * mp_, "eval.HP>1e3*MP",
             "%s: HP average %s not above 1e3 x MP average %s"
             % (kernel, avg["HP"], avg["MP"]))


# ---------------------------------------------------------------------------
# clean_sweep: detect --sweep
# ---------------------------------------------------------------------------


def check_sweep(text, kernel, rows, counted=None):
    """Every sweep entry flags nothing and saw every row.  `counted` is an
    optional (instruction id, expected m) pair."""
    data = _load_json(text, "sweep.json")
    _require(isinstance(data, list) and data, "sweep.entries",
             "%s: no sweep entries" % kernel)
    for entry in data:
        report = entry["report"]
        where = "%s at e0=%s p0=%s" % (kernel, entry["e0"], entry["p0"])
        flagged = [i["id"] for i in report["instructions"] if i["flagged"]]
        _require(not report["flagged"] and not flagged
                 and report["first_flagged"] is None, "sweep.flagged",
                 "%s flags %s" % (where, report["flagged"] or flagged))
        _require(report["runs"] == rows, "sweep.runs",
                 "%s: runs %r, expected %d" % (where, report["runs"], rows))
        if counted is not None:
            iid, m = counted
            got = [i["m"] for i in report["instructions"] if i["id"] == iid]
            _require(got == [m], "sweep.m", "%s: instruction %d has m=%s, "
                     "expected %d" % (where, iid, got, m))


# ---------------------------------------------------------------------------
# generic_precision: run --trace at p_orig 24, and oracle
# ---------------------------------------------------------------------------

F32_ROUND = 1.5 * 2.0**52
ACCUM_ITERATIONS = 10000


def nearest_f32(q):
    """The binary32 value nearest the rational q, ties to even."""
    import numpy as np
    guess = np.float32(float(q))
    cands = [guess, np.nextafter(guess, np.float32(-np.inf)),
             np.nextafter(guess, np.float32(np.inf))]

    def key(c):
        odd = int(np.array(c, dtype=np.float32).view(np.uint32)) & 1
        return abs(Fraction(float(c)) - q), odd

    return min(cands, key=key)


def f32_reference(kernel, xs):
    """Kernel results in IEEE binary32, recomputed with numpy."""
    import numpy as np
    x = np.asarray(xs, dtype=np.float32)
    if kernel == "round_kernel":
        c = np.float32(F32_ROUND)
        return (x + c) - c
    if kernel == "cancel_kernel":
        eps = nearest_f32(Fraction(1, 10000))
        return (x + eps) - x
    if kernel == "accum_kernel":
        s = np.zeros_like(x)
        for _ in range(ACCUM_ITERATIONS):
            s = s + x
        return s
    raise ValueError("no binary32 reference for %s" % kernel)


def _parse_run(text):
    """[(input, OP, HP)] decimal strings from `run` output."""
    rows = []
    for line in text.splitlines():
        if line.startswith("input "):
            rows.append([line[6:].strip(), None, None])
        elif line.startswith("  OP: ") and rows:
            rows[-1][1] = line[6:].strip()
        elif line.startswith("  HP: ") and rows:
            rows[-1][2] = line[6:].strip()
    return rows


def _same_f32(printed, value):
    """The decimal `printed` rounds to the binary32 `value` (sign of zero
    included)."""
    import numpy as np
    try:
        q = Fraction(printed)
    except ValueError:
        return False
    got = nearest_f32(q)
    if got != value:
        return False
    return value != 0 or printed.startswith("-") == bool(np.signbit(value))


def _sig_digits(printed):
    mant = printed.lstrip("+-").split("e")[0].split("E")[0]
    return len(mant.replace(".", "").lstrip("0")) or 1


def check_trace(text, kernel, xs):
    """Inputs echo back, OP equals binary32 arithmetic, and for accum the
    HP lane holds exactly 10000*x."""
    rows = _parse_run(text)
    _require(len(rows) == len(xs), "trace.rows",
             "%s: %d rows printed, expected %d" % (kernel, len(rows), len(xs)))
    ref = f32_reference(kernel, xs)
    for i, ((inp, op, hp), x, want) in enumerate(zip(rows, xs, ref)):
        _require(_same_f32(inp, x), "trace.input",
                 "%s row %d: input printed as %s, expected %r"
                 % (kernel, i, inp, float(x)))
        _require(op is not None and _same_f32(op, want), "trace.OP",
                 "%s row %d: OP %s, binary32 gives %r"
                 % (kernel, i, op, float(want)))
        if kernel == "accum_kernel":
            exact = ACCUM_ITERATIONS * Fraction(float(x))
            _require(hp is not None and _sig_digits(hp) >= 17, "trace.HP",
                     "%s row %d: HP %r too short" % (kernel, i, hp))
            ctx = Context(prec=_sig_digits(hp), rounding=ROUND_HALF_EVEN)
            expect = ctx.divide(Decimal(exact.numerator),
                                Decimal(exact.denominator))
            _require(Decimal(hp) == expect, "trace.HP",
                     "%s row %d: HP %s, exact 10000*x is %s"
                     % (kernel, i, hp, expect))


def oracle_reference(fn, args):
    """fn(args) in mpmath at the current precision."""
    import mpmath
    a = args[0]
    b = args[1] if len(args) > 1 else None
    table = {
        "acos": lambda: mpmath.acos(a), "acosh": lambda: mpmath.acosh(a),
        "asin": lambda: mpmath.asin(a), "asinh": lambda: mpmath.asinh(a),
        "atan": lambda: mpmath.atan(a), "atan2": lambda: mpmath.atan2(a, b),
        "atanh": lambda: mpmath.atanh(a), "cos": lambda: mpmath.cos(a),
        "cosh": lambda: mpmath.cosh(a), "exp": lambda: mpmath.exp(a),
        "exp2": lambda: mpmath.power(2, a),
        "exp10": lambda: mpmath.power(10, a),
        "fmod": lambda: a - mpmath.floor(a / b) * b,
        "hypot": lambda: mpmath.hypot(a, b), "log": lambda: mpmath.log(a),
        "log2": lambda: mpmath.log(a, 2), "log10": lambda: mpmath.log10(a),
        "pow": lambda: mpmath.power(a, b), "sin": lambda: mpmath.sin(a),
        "sinh": lambda: mpmath.sinh(a), "sqrt": lambda: mpmath.sqrt(a),
        "tan": lambda: mpmath.tan(a), "tanh": lambda: mpmath.tanh(a),
    }
    return table[fn]()


def check_oracle(text, lines, agree_digits=29):
    """Each printed value agrees with mpmath at 300 bits to `agree_digits`
    significant digits."""
    import mpmath
    out = text.splitlines()
    _require(len(out) == len(lines), "oracle.lines",
             "%d results for %d lines" % (len(out), len(lines)))
    with mpmath.workprec(300):
        for line, printed in zip(lines, out):
            fn, *raw = line.split()
            want = oracle_reference(fn, [mpmath.mpf(r) for r in raw])
            try:
                got = mpmath.mpf(printed)
            except ValueError as exc:
                raise CheckFailed("oracle.value", "%s: %r"
                                  % (line, printed)) from exc
            if want == 0:
                ok = got == 0
            else:
                unit = mpmath.power(10, mpmath.floor(mpmath.log10(abs(want)))
                                    - (agree_digits - 1))
                ok = abs(got - want) <= unit
            _require(ok, "oracle.value", "%s printed %s, mpmath gives %s"
                     % (line, printed, mpmath.nstr(want, 32)))
