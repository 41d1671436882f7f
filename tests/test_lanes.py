"""Differential tests for the engine's lanes.

At p_orig = 53 the original lane is a host float; every operation on it,
run as a generated one-instruction program, must give the same binary64
value, bit for bit, as the mpfloat BINARY64 policy.  The shadow of
fadd/fsub/fmul must round to nearest at p_shadow as mpmath does, and the
stream-mode error taken from a host float must equal the one taken from
its MPFloat.
"""

import functools
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from precfix import cli, corpus, engine, tac
from precfix import mpfloat as mp
import mpmath_ref
from mpmath_ref import fields

CFG = engine.EngineConfig()
B64 = mp.BINARY64
MP = {"fadd": mp.add, "fsub": mp.sub, "fmul": mp.mul, "fdiv": mp.div}


def float_of(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# encoding of a host-lane value, every NaN canonical as in mpfloat
host_bits = engine._float_bits


SPECIAL_BITS = [
    0, 1 << 63,                                  # +-0
    0x7FF0 << 48, 0xFFF0 << 48,                  # +-inf
    0x7FF8 << 48, 0xFFF8 << 48,                  # quiet NaNs
    0x7FF0000000000001, 0xFFF4000000000000,      # NaN payloads
    1, (1 << 63) | 1,                            # smallest subnormals
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,      # largest subnormals
    0x0010000000000000, 0x8010000000000000,      # smallest normals
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,      # largest normals
    0x3FF0000000000000, 0xBFF0000000000000,      # +-1
    0x4330000000000000, 0x4338000000000000,      # 2^52, 1.5 * 2^52
]

b64_bits = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.sampled_from(SPECIAL_BITS),
    st.builds(lambda s, f: (s << 63) | f, st.integers(0, 1),
              st.integers(min_value=1, max_value=(1 << 52) - 1)),
)


# -- host-lane operations against mpfloat BINARY64 ----------------------------


@functools.lru_cache(maxsize=None)
def _step(op, arity, p=120):
    """The generated function of the program `y = op a[, b]` at p_orig = 53
    and p_shadow = p."""
    params = ", ".join("ab"[:arity])
    prog = tac.parse_program("func f(%s) -> y\n  y = %s %s\n  ret y\n"
                             % (params, op, params))
    return engine._compiled(prog, engine.EngineConfig(53, p), frozenset(),
                            "none")


def host_op(op, *xs):
    """The host-float original lane of `y = op xs...`."""
    ins = [engine.DualValue(x, mp.extend(mp.from_float(x), 120)) for x in xs]
    return _step(op, len(xs))(ins, None, 0)[0]


@given(b64_bits, b64_bits, st.sampled_from(["fadd", "fsub", "fmul", "fdiv"]))
@settings(max_examples=1500, deadline=None)
def test_host_binary_ops_match_binary64(ba, bb, op):
    got = host_op(op, float_of(ba), float_of(bb))
    want = MP[op](mp.from_binary64_bits(ba), mp.from_binary64_bits(bb), 53,
                  B64)
    assert host_bits(got) == mp.to_binary64_bits(want)


def test_host_division_by_zero_and_specials():
    assert host_op("fdiv", 1.0, 0.0) == math.inf
    assert host_op("fdiv", 1.0, -0.0) == -math.inf
    assert host_op("fdiv", -2.0, 0.0) == -math.inf
    assert host_op("fdiv", -math.inf, -0.0) == math.inf
    assert math.isnan(host_op("fdiv", 0.0, 0.0))
    assert math.isnan(host_op("fdiv", math.nan, 0.0))
    assert math.isnan(host_op("fsub", math.inf, math.inf))
    assert host_bits(host_op("fadd", -0.0, -0.0)) == 1 << 63
    assert host_bits(host_op("fsub", 1.5, 1.5)) == 0
    assert math.isnan(host_op("fsqrt", -1.0))
    assert math.isnan(host_op("fsqrt", -math.inf))
    assert host_bits(host_op("fsqrt", -0.0)) == 1 << 63


@given(b64_bits)
@settings(max_examples=1000, deadline=None)
def test_host_unary_ops_match_binary64(bits):
    x = float_of(bits)
    v = mp.from_binary64_bits(bits)
    assert host_bits(host_op("fsqrt", x)) \
        == mp.to_binary64_bits(mp.sqrt(v, 53, B64))
    assert host_bits(host_op("fneg", x)) == mp.to_binary64_bits(mp.neg(v))
    assert host_bits(host_op("fabs", x)) == mp.to_binary64_bits(mp.abs_(v))
    if v.cls in (mp.INF, mp.NAN):
        with pytest.raises(ValueError):
            engine._mp_floor(v, 53, B64)
        with pytest.raises(ValueError):
            host_op("ffloor", x)
    else:
        assert host_bits(host_op("ffloor", x)) \
            == mp.to_binary64_bits(engine._mp_floor(v, 53, B64))


@given(b64_bits, b64_bits)
@settings(max_examples=1000, deadline=None)
def test_host_compare_matches_binary64(ba, bb):
    assert engine._host_cmp(float_of(ba), float_of(bb)) \
        == mp.cmp(mp.from_binary64_bits(ba), mp.from_binary64_bits(bb))


def test_icmp_on_nan_is_false_except_ne():
    for pred in ("lt", "le", "gt", "ge", "eq", "ne"):
        text = ("func f(x) -> y\n  t = fsqrt x\n  c = icmp %s, t, x\n"
                "  branch c, yes\n  y = fconst 0.0\n  ret y\n"
                "yes:\n  y = fconst 1.0\n  ret y\n" % pred)
        tr = engine.execute(tac.parse_program(text),
                            [mp.from_float(-4.0)], CFG, sample_mode="none")
        assert tr.result.orig.to_float() == (1.0 if pred == "ne" else 0.0)


def test_ffloor_of_non_finite_still_raises():
    prog = tac.parse_program("func f(x) -> y\n  y = ffloor x\n  ret y\n")
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            engine.execute(prog, [mp.from_float(x)], CFG)


# -- word operations and admission ------------------------------------------

WORDS = """
func f(x) -> y
  h = get_hi x
  l = get_lo x
  t = set_lo x, h
  y = set_hi t, l
  ret y
"""


@given(b64_bits)
@settings(max_examples=500, deadline=None)
def test_word_ops_match_binary64_encoding(bits):
    prog = tac.parse_program(WORDS)
    tr = engine.execute(prog, [mp.from_binary64_bits(bits)], CFG)
    x = mp.from_binary64_bits(bits)
    canon = mp.to_binary64_bits(x)  # every NaN reads as 0x7FF8 << 48
    h, l = canon >> 32, canon & 0xFFFFFFFF
    t = mp.from_binary64_bits((canon >> 32 << 32) | h)
    want = mp.from_binary64_bits((l << 32)
                                 | mp.to_binary64_bits(t) & 0xFFFFFFFF)
    assert fields(tr.result.orig) == fields(want)
    # a write is replayed on the shadow only while the lanes agree
    stale = x.cls == mp.NAN or t.cls == mp.NAN
    assert tr.result.stale == stale
    if not stale:
        assert fields(tr.result.shadow) == fields(mp.extend(want, 120))
    assert engine._float_bits(engine._bits_float(bits)) == canon


@given(mpmath_ref.mpfloats(300, st.integers(-1200, 1200)))
@settings(max_examples=500, deadline=None)
def test_admission_rounds_to_binary64(v):
    dv = engine.make_dual(v, CFG)
    want = mp.round_to(v, 53, B64)
    assert host_bits(dv.orig) == mp.to_binary64_bits(want)
    assert fields(dv.shadow) == fields(mp.extend(want, 120))


# -- the shadow of fadd/fsub/fmul -------------------------------------------


@given(mpmath_ref.cases(["add", "sub", "mul"], 53, 400))
@settings(max_examples=1500, deadline=None)
def test_shadow_arith_matches_mpmath(case):
    op, p, a, b = case
    ins = [engine.DualValue(1.0, a), engine.DualValue(2.0, b)]
    orig, shadow = _step("f" + op, 2, p)(ins, None, 0)[:2]
    assert fields(shadow) == mpmath_ref.reference(op, a, b, p)
    assert orig == {"add": 3.0, "sub": -1.0, "mul": 2.0}[op]


# -- stream-mode errors -----------------------------------------------------


SHADOWS = mpmath_ref.mpfloats(1200, st.integers(-1200, 1200))


@st.composite
def lane_pairs(draw):
    """(shadow, host original, p_shadow) with the shadow near, far from, or
    equal to the original, in every class."""
    p_s = draw(st.integers(54, 1200))
    x = float_of(draw(b64_bits))
    kind = draw(st.sampled_from(["near", "far", "equal", "any"]))
    if kind == "any" or not (x == x and x - x == 0 and x):
        return draw(SHADOWS), x, p_s
    o = mp.extend(mp.from_float(x), p_s)
    if kind == "equal":
        return o, x, p_s
    if kind == "far":
        delta = draw(st.integers(-700, 700))
        low = p_s - 1
    else:
        delta = draw(st.integers(-1, 1))
        low = draw(st.integers(1, p_s - 1))
    frac = draw(st.integers(min_value=0)) % (1 << low)
    shadow = mp.MPFloat(mp.NORMAL, draw(st.sampled_from([o.sign, -o.sign])),
                        o.exp + delta, (o.mant ^ frac) | (1 << (p_s - 1)),
                        p_s)
    return shadow, x, p_s


@given(lane_pairs())
@settings(max_examples=1500, deadline=None)
def test_host_error_matches_mpfloat_error(pair):
    shadow, x, p_s = pair
    got = engine._rel_err_host(shadow, x, p_s)
    want = engine._rel_err_float(shadow, mp.from_float(x), p_s)
    assert struct.pack("<d", got) == struct.pack("<d", want)


@st.composite
def mp_lane_pairs(draw):
    """(shadow, MPFloat original, p_shadow): a shadow at p_shadow near, far
    from, or equal to an original of at most that precision, as the engine
    pairs them, or any two values; every class throughout."""
    p_s = draw(st.integers(2, 1200))
    o = draw(mpmath_ref.mpfloats(min(p_s, 300), st.integers(-1200, 1200)))
    kind = draw(st.sampled_from(["near", "far", "equal", "any"]))
    if kind == "any" or o.cls != mp.NORMAL:
        return mp.round_to(draw(SHADOWS), p_s), o, p_s
    s = mp.extend(o, p_s)
    if kind == "equal":
        return s, o, p_s
    flip = draw(st.integers(0, (1 << (p_s - 1)) - 1))
    delta = draw(st.integers(-700, 700) if kind == "far"
                 else st.integers(-1, 1))
    return mp.MPFloat(mp.NORMAL, draw(st.sampled_from([1, -1])) * s.sign,
                      s.exp + delta, s.mant ^ flip, p_s), o, p_s


def _relative_error(shadow, orig):
    """|shadow - orig| / |shadow| from mp.relative_error at 200 bits, far
    past the host float the engine returns."""
    return mp.relative_error(shadow, orig, 200).to_float()


def _close(got, want):
    """The same conventions (inf and 0), and values within the few
    roundings of a host-float quotient."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= 2.0**-49 * max(got, want) + 2.0**-1070


@given(mp_lane_pairs())
@settings(max_examples=600, deadline=None)
def test_float_error_matches_relative_error(pair):
    shadow, orig, p_s = pair
    got = engine._rel_err_float(shadow, orig, p_s)
    assert _close(got, _relative_error(shadow, orig)), got


@given(lane_pairs())
@settings(max_examples=600, deadline=None)
def test_host_error_matches_relative_error(pair):
    shadow, x, p_s = pair
    got = engine._rel_err_host(shadow, x, p_s)
    assert _close(got, _relative_error(shadow, mp.from_float(x))), got


def test_rel_err_float_wide_shadow_takes_exact_fallback():
    # a 1100-bit shadow 2^500 times the original used to raise
    # OverflowError("int too large to convert to float")
    orig = mp.from_float(1.5)
    big = mp.extend(orig, 1100)
    shadow = mp.MPFloat(mp.NORMAL, 1, big.exp + 500, big.mant, 1100)
    assert engine._rel_err_float(shadow, orig, 1100) == 1.0
    assert engine._rel_err_host(shadow, 1.5, 1100) == 1.0


# -- whole programs ---------------------------------------------------------


@pytest.mark.parametrize("name", ["round_kernel", "exp_kernel", "sin_kernel",
                                  "union_scale_kernel", "cancel_kernel"])
def test_stream_errors_follow_full_mode_on_kernels(name):
    prog = corpus.get_kernel(name).program
    for x in corpus.grid(*corpus.get_kernel(name).domain[:2], 25):
        full = engine.execute(prog, [x], CFG)
        got = []
        engine.execute(prog, [x], CFG,
                       sample_mode=lambda i, d, e: got.append(e))
        want = [engine._rel_err_float(s.shadow, s.original, 120)
                for s in full.samples]
        assert got == want
        assert all(isinstance(s.original, mp.MPFloat) for s in full.samples)
        assert isinstance(full.result.orig, mp.MPFloat)


def test_bool_barrier_rejected():
    prog = tac.parse_program("func f(x) -> y\n  t = fmov x\n"
                             "  y = fmov t\n  ret y\n")
    with pytest.raises(engine.BadBarrier):
        engine.execute(prog, [mp.from_float(1.0)], CFG, {True})


def test_engine_errors_exit_1(capsys, tmp_path, monkeypatch):
    code = cli.main(["run", "--kernel", "exp_kernel", "--input",
                     "single:0.5", "--p-orig", "24"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: word operations need p_orig = 53\n"
    loop = tmp_path / "loop.tac"
    loop.write_text("func f(x) -> y\ntop:\n  y = fadd x, x\n"
                    "  c = icmp eq, y, y\n  branch c, top\n  ret y\n")
    real = engine.EngineConfig
    monkeypatch.setattr(engine, "EngineConfig",
                        lambda p_o, p_s: real(p_o, p_s, max_steps=100))
    code = cli.main(["run", "--program", str(loop), "--input", "single:1"])
    assert code == 1
    assert "exceeded 100 steps" in capsys.readouterr().err
