"""Kernel corpus and input-grid tests."""

import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from precfix import tac, corpus
from precfix import mpfloat as mp
from mpmath_ref import fields, rounded_fraction


def test_all_kernels_parse_and_validate():
    ks = corpus.builtin_kernels()
    assert set(ks) == {
        "round_kernel", "exp_kernel", "sin_kernel", "union_scale_kernel",
        "accum_kernel", "cancel_kernel",
    }
    for k in ks.values():
        prog = k.program
        assert tac.validate(prog) == []
        assert prog.name == k.name
        assert len(prog.params) == 1


def test_oracle_functions_assigned():
    ks = corpus.builtin_kernels()
    assert ks["exp_kernel"].oracle_fn == "exp"
    assert ks["sin_kernel"].oracle_fn == "sin"
    assert ks["round_kernel"].oracle_fn is None


def test_unknown_kernel_name():
    with pytest.raises(KeyError):
        corpus.get_kernel("bessel_kernel")


def test_grid_shape_and_endpoints():
    g = corpus.grid("-1", "1", 1000)
    assert len(g) == 1000
    assert g[0].to_float() == -1.0
    assert g[500].cls == mp.ZERO
    assert g[999].to_float() == pytest.approx(1.0 - 2 / 1000)


def test_grid_single_rounding():
    # each point equals the exact rational lo + i*(hi-lo)/count rounded
    # once, checked against Fraction arithmetic
    g = corpus.grid("-1", "1", 7)
    lo, hi = Fraction(-1), Fraction(1)
    for i, v in enumerate(g):
        exact = lo + i * (hi - lo) / 7
        assert fields(v) == rounded_fraction(exact, 53, mp.BINARY64)


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_grid_monotone(count):
    g = corpus.grid("-3", "5", count)
    for a, b in zip(g, g[1:]):
        assert mp.cmp(a, b) == -1


def test_grid_respects_precision():
    g = corpus.grid("0", "1", 10, p=24)
    assert all(v.prec == 24 for v in g if v.cls == mp.NORMAL)


def test_grid_validation():
    with pytest.raises(ValueError):
        corpus.grid("0", "1", 0)
    with pytest.raises(ValueError):
        corpus.grid("0", "1", sys.maxsize + 1)
    # past the unbounded range, 2**(2**31); below it, an endpoint is read
    for lo in ("2e646456993", "-1e700000000", "1e999999999999"):
        with pytest.raises(ValueError, match="grid endpoints must be finite"):
            corpus.grid(lo, "1", 3, 113)
    assert corpus.grid("1e646456993", "1", 3, 113)[0].cls == mp.NORMAL
    assert corpus.grid("1e-700000000", "1", 3, 113)[0].cls == mp.ZERO


def exact_point(lo, hi, count, i, p=53):
    """lo + i*(hi-lo)/count rounded once to p bits, from Fractions."""
    exact = Fraction(lo) + i * (Fraction(hi) - Fraction(lo)) / count
    return rounded_fraction(exact, p, mp.policy_for(p))


def test_grid_points_are_computed_when_read():
    count = 10**18
    t0 = time.perf_counter()
    g = corpus.grid("1", "2", count)
    assert len(g) == count
    for i in (0, 10**17, count - 1):
        assert fields(g[i]) == exact_point(1, 2, count, i)
    assert fields(g[-1]) == fields(g[count - 1])
    assert time.perf_counter() - t0 < 1
    with pytest.raises(IndexError):
        g[count]
    with pytest.raises(IndexError):
        g[-count - 1]


def test_grid_is_a_sequence():
    g = corpus.grid("-3", "5", 9, 24)
    pts = list(g)
    assert len(pts) == 9
    assert [fields(v) for v in g[2:7:2]] \
        == [fields(v) for v in pts[2:7:2]]
    assert [fields(v) for v in reversed(g)] \
        == [fields(v) for v in reversed(pts)]
    assert all(fields(v) == exact_point(-3, 5, 9, i, 24)
               for i, v in enumerate(pts))


@pytest.mark.parametrize("n", [10**6, 4 * 10**7, 6 * 10**8])
def test_far_apart_endpoints_take_bounded_memory(n):
    # aligned to one exponent, 1e-n and 1en would take memory in
    # proportion to n
    lo, hi = "1e-%d" % n, "1e%d" % n
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        pts = list(corpus.grid(lo, hi, 3, 113))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 1
    # lo's term, far below hi's, moves no rounding
    assert fields(pts[0]) == fields(mp.from_decimal_string(lo, 113))
    assert [fields(v) for v in pts[1:]] \
        == [fields(v) for v in corpus.grid("0", hi, 3, 113)[1:]]


def test_far_apart_endpoints_round_as_fractions():
    for lo, hi in (("1e-400", "1e400"), ("-3.5e-700", "2.25"),
                   ("7e300", "-1e-9"), ("1", "1e-2000")):
        for p in (24, 53, 113):
            for i, v in enumerate(corpus.grid(lo, hi, 3, p)):
                assert fields(v) == exact_point(lo, hi, 3, i, p), (lo, hi, i)


@pytest.mark.parametrize("tiny", ["1e-400", "-1e-400", "1e-600000000",
                                  "-1e-600000000"])
def test_a_far_term_breaks_a_tie_by_its_sign(tiny):
    # point 1 of 3 is 2/3 * lo + tiny / 3, and 2/3 * lo is 1 + 2**-113, a
    # tie at p113: the stand-in for tiny's term must sit below every
    # rounding boundary's spacing, not just below 10**-m
    lo = Fraction(3, 2) * (1 + Fraction(1, 2**113))
    text = "%de-114" % (lo * 10**114)
    tracemalloc.start()
    try:
        got = fields(corpus.grid(text, tiny, 3, 113)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    up = 1 + Fraction(1, 2**112) if tiny[0] != "-" else Fraction(1)
    assert got == rounded_fraction(up, 113) and peak < 1 << 20


@given(st.integers(1, 10**30), st.integers(-60, 60), st.integers(1, 9),
       st.integers(-300, -40), st.sampled_from([1, -1]),
       st.integers(2, 9))
@settings(max_examples=300, deadline=None)
def test_a_stand_in_next_to_the_rounding_still_rounds_exactly(
        dl, el, dh, gap, sign, count):
    # with the first stand-in one digit below lo's digits, its enclosure
    # is often open, and the stand-in must move down below Q
    lo, hi = "%de%d" % (dl, el), "%s%de%d" % ("-" if sign < 0 else "",
                                             dh, el + gap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_GUARD", -24)
        pts = list(corpus.grid(lo, hi, count, 24))
    assert [fields(v) for v in pts] \
        == [exact_point(lo, hi, count, i, 24) for i in range(count)]


def test_digits_for():
    assert corpus.digits_for(53) == 17
    assert corpus.digits_for(24) == 9


def test_inputs_file_round_trip(tmp_path):
    path = tmp_path / "inputs.txt"
    vals = corpus.grid("-2", "2", 37)
    corpus.write_inputs(path, vals)
    back = corpus.read_inputs(path)
    assert len(back) == 37
    for a, b in zip(vals, back):
        assert mp.cmp(a, b) == 0
        if a.cls == mp.NORMAL:
            assert mp.to_binary64_bits(a) == mp.to_binary64_bits(b)


def test_inputs_file_allows_comments(tmp_path):
    path = tmp_path / "inputs.txt"
    path.write_text("# header\n1.5\n\n-0.25\n")
    vals = corpus.read_inputs(path)
    assert [v.to_float() for v in vals] == [1.5, -0.25]


def test_inputs_take_the_policy_of_their_precision(tmp_path):
    # binary64's exponent range at 53 bits only
    path = tmp_path / "inputs.txt"
    path.write_text("1e400\n")
    assert corpus.read_inputs(path)[0].cls == mp.INF
    assert corpus.read_inputs(path, 24)[0].cls == mp.NORMAL
    assert corpus.grid("0", "1e400", 2, 53)[1].cls == mp.INF
    assert corpus.grid("0", "1e400", 2, 113)[1].cls == mp.NORMAL


def test_default_inputs_use_kernel_domain():
    k = corpus.get_kernel("sin_kernel")
    g = corpus.default_inputs(k)
    assert len(g) == 1000
    assert g[0].to_float() == -4.0


def test_kernel_sources_round_trip_through_printer():
    for k in corpus.builtin_kernels().values():
        p = k.program
        q = tac.parse_program(tac.pretty_print(p))
        assert p == q


def test_magic_constant_values():
    exp = corpus.get_kernel("exp_kernel").program
    assert exp.consts["three51"].fval.to_float() == 1.5 * 2 ** 52
    assert exp.consts["log2e"].fval.to_float() \
        == float.fromhex("0x1.71547652b82fep0")
    sin = corpus.get_kernel("sin_kernel").program
    assert sin.consts["invpio2"].fval.to_float() \
        == float.fromhex("0x1.45f306dc9c883p-1")


def test_kernel_is_parsed_once(monkeypatch):
    calls = []
    real = tac.parse_program
    monkeypatch.setattr(tac, "parse_program",
                        lambda text: calls.append(text) or real(text))
    k = corpus.get_kernel("exp_kernel")
    fresh = corpus.Kernel(k.name, k.source, k.oracle_fn, k.domain)
    progs = {id(fresh.program) for _ in range(50)}
    assert len(calls) == 1 and len(progs) == 1
    assert corpus.get_kernel("exp_kernel").program is k.program
