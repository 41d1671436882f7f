"""One decimal rounding rule: every decimal the program reads is rounded
once, from its text, at the precision of the lane that reads it.

Each entry point (a TAC fconst and a TAC operand compiled at p_orig,
`--input single:`, an input file, grid point 0 and an interior grid point)
is checked against the exact rational value of the text, a
`fractions.Fraction`, rounded to nearest even by `rounded_fraction`, which
shares no code with `mpfloat`.
"""

from fractions import Fraction

import pytest

from precfix import cli, corpus, engine, tac
from precfix import mpfloat as mp
from mpmath_ref import fields, rounded_fraction

PRECISIONS = (24, 53, 64, 65, 113, 400, 1100)


def midpoint(p):
    """The exact decimal text of 1 + 2**-p, the midpoint between 1 and the
    next p-bit value."""
    q = 1 + Fraction(1, 2**p)
    return str(q.numerator * 5**p) + "e-%d" % p


def traps(p):
    """Literals that a first rounding at 64 or at 300 bits moves onto a
    p-bit midpoint (or, for p of 300 or more, rounds wrongly on its own),
    just above and just below the midpoint."""
    out = []
    for q in (64, 300):
        k = q // 3 + 12  # 10**-k lies below half a q-bit ulp of 1
        m = Fraction(midpoint(p)) * 10**max(p, k)  # an integer
        for t in (m + 10**(max(p, k) - k), m - 10**(max(p, k) - k)):
            out.append("%de-%d" % (t, max(p, k)))
    return out


def ties(p):
    """Exact p-bit ties at a decimal exponent past 8 * (p + 64), where the
    rounding core starts from bounded powers of five, which leave the
    rounding open and widen; and one just above such a tie.  None where the
    text would pass 4,000 digits."""
    k = 8 * (p + 64) + 40
    d = ((1 << p) | 1) * 5**k
    if d.bit_length() * 0.302 > mp.MAX_DECIMAL_DIGITS - 2:
        return []
    return ["%de-%d" % (d, k), "%d1e-%d" % (d, k + 1)]


CASES = ["0.1", "-0.1", "1e-4", "3.14159", "-2.5e-310", "4.9e-324", "1e300",
         "123456789012345678901234567890123456789", "-0", "0.0",
         "9.999999999999999999999999999999999999999e-1"]


def cases(p):
    return CASES + traps(p) + ties(p)


def want(text, p):
    return rounded_fraction(Fraction(text), p, mp.policy_for(p),
                            -1 if text.startswith("-") else 1)


def compiled(source, p, x):
    """The OP result of a one-row run at p_orig p."""
    prog = tac.parse_program(source)
    cfg = engine.EngineConfig(p, max(p + 1, 120))
    trace = engine.execute(prog, [mp.from_decimal_string(x, p,
                                                         mp.policy_for(p))],
                           cfg, sample_mode="none")
    return fields(trace.result.orig)


@pytest.mark.parametrize("p", PRECISIONS)
def test_literals_round_once_from_their_text(p, tmp_path, capsys):
    texts = cases(p)
    path = tmp_path / "rows.txt"
    path.write_text("\n".join(texts) + "\n")
    from_file = corpus.read_inputs(str(path), p)
    digits = corpus.digits_for(p)
    for text, row in zip(texts, from_file):
        w = want(text, p)
        assert fields(row) == w, text
        assert compiled("func f(x) -> y\n  y = fconst %s\n  ret y\n" % text,
                        p, "0") == w, text
        # 1 * v is v exactly, signed zeros included
        assert compiled("func f(x) -> y\n  y = fmul x, %s\n  ret y\n" % text,
                        p, "1") == w, text
        assert cli.main(["run", "--kernel", "cancel_kernel", "--input",
                         "single:" + text, "--p-orig", str(p), "--p-shadow",
                         str(p + 1), "--p-oracle", str(p + 1)]) == 0
        line = capsys.readouterr().out.split("\n")[0]
        assert line == "input " + mp.to_sci_string(mp.MPFloat(*w), digits)
        # point 0 is lo itself, a zero unsigned
        assert fields(corpus.grid(text, "1", 3, p)[0]) \
            == rounded_fraction(Fraction(text), p, mp.policy_for(p)), text


@pytest.mark.parametrize("p", PRECISIONS)
def test_interior_grid_points_are_one_rounding(p):
    texts = cases(p)
    for lo, hi in zip(texts, texts[1:] + texts[:1]):
        for n in (3, 7):
            g = corpus.grid(lo, hi, n, p)
            for i in (1, n - 1):
                exact = Fraction(lo) + i * (Fraction(hi) - Fraction(lo)) / n
                assert fields(g[i]) == rounded_fraction(
                    exact, p, mp.policy_for(p)), (lo, hi, n, i)


def test_the_rounding_core_widens_and_settles_ties(monkeypatch):
    calls = []  # what each bounded enclosure decided, None when open
    real = mp._round_enclosed
    monkeypatch.setattr(mp, "_round_enclosed",
                        lambda *a: calls.append(real(*a)) or calls[-1])
    # 2**-125 above a p-bit tie, at an exponent past 16 * (p + 64): open at
    # the first width, decided at the second
    p, k = 24, 1500
    text = "%de-%d" % ((((1 << p) | 1) << 100 | 1) * 5**k, k)
    assert fields(mp.from_decimal_string(text, p)) == want(text, p)
    assert calls == [None, calls[1]] and calls[1] is not None
    # exact ties, and values just above them, stay open at every width
    # the bounds take, and exact integers settle them
    for p in (24, 113, 400):
        for text in ties(p):
            calls.clear()
            assert fields(mp.from_decimal_string(text, p)) == want(text, p)
            assert calls and not any(calls)
