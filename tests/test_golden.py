"""Golden outputs: SHA-256 digests of CLI output on small grids, cut to
their first 16 hex digits.

The first digests were recorded before the error tallies were fused into
the generated code, so they pin byte identity of detection, sweeps,
fixing, emitted programs and oracle-scored evaluation across refactors.
A change that means to alter one of these outputs must say so and record
the new digest.  Each pinned command must exit 0 with nothing on stderr;
the word-operation kernels below p_orig 53 must fail with exit 1.

Precisions (p_orig:p_shadow) pinned by each table:
- `DIGESTS`: `detect`, `detect --sweep`, `fix` and `fix --emit-program`
  at 53:120, and without word operations (an MPFloat original lane) at
  24:200 and 113:200; `detect --sweep` and `fix` at 53:1100; two
  --program files at 53:120 and 24:200; `eval` at 53:120, and with
  barriers at 53:200 and 53:1100; one `run` at 53:1000000.
- `RUN_DIGESTS` and `BARRIER_DIGESTS`: `run` and `run --trace` at 53:120,
  24:200 and 113:200.
- `ORACLE_DIGESTS`: `oracle` at precisions 256, 53 and 24.
"""

import hashlib

import pytest

from precfix import cli, corpus, tac

GRIDS = {"round_kernel": "-100,100,41", "exp_kernel": "-1,1,30",
         "sin_kernel": "-4,4,30", "union_scale_kernel": "-4,4,30",
         "accum_kernel": "0,1,2", "cancel_kernel": "-10,10,30"}
# from its golden grid's points, 0 and 0.5, accum_kernel sums exactly at
# every precision, so `run` and the commands recorded past 53:120 read 0.1
# and 0.9
RUN_GRIDS = dict(GRIDS, accum_kernel="0.1,0.9,2")
MODES = {"detect": ["detect"], "sweep": ["detect", "--sweep"],
         "fix-static": ["fix", "--first-order", "static"],
         "fix-dynamic": ["fix", "--first-order", "dynamic"],
         "emit": ["fix", "--emit-program"]}
# `run` pins the first three; 53:200 and 53:1100 are for `detect`, `fix`
# and `eval`, and a 1100-bit shadow mantissa is too wide for a host float
PAIRS = {"p53/p120": ["--p-orig", "53", "--p-shadow", "120"],
         "p24/p200": ["--p-orig", "24", "--p-shadow", "200"],
         "p113/p200": ["--p-orig", "113", "--p-shadow", "200"],
         "p53/p200": ["--p-orig", "53", "--p-shadow", "200"],
         "p53/p1100": ["--p-orig", "53", "--p-shadow", "1100",
                       "--p-oracle", "1100"]}
RUN_PAIRS = ("p53/p120", "p24/p200", "p113/p200")
WORD_KERNELS = ("exp_kernel", "sin_kernel", "union_scale_kernel")
# an inner counted loop that an outer one enters three times (no kernel
# enters a loop more than once), and branches on float comparisons
NESTED_PROGRAM = """\
func nested(x) -> s
  s = fconst 0.0
  j = iconst 0
outer:
  i = iconst 0
top:
  s = fadd s, x
  i = iadd i, 1
  c = icmp lt, i, 10
  branch c, top
  s = fmul s, 0.5
  j = iadd j, 1
  d = icmp lt, j, 3
  branch d, outer
  ret s
"""
CMPF_PROGRAM = """\
func cmpf(x) -> z
  y = fmul x, 0.5
  c = icmp lt, x, y
  branch c, neg
  n = fsqrt x
  d = icmp ne, n, n
  branch d, neg
  z = fsub x, y
  ret z
neg:
  z = fadd x, y
  ret z
"""


def commands():
    """(name, argv) of each golden command; "{nested}" and "{cmpf}" stand
    for the files `run_files` writes.  A test id holds its command's index,
    so new commands go last."""
    for kernel, grid in GRIDS.items():
        for mode, argv in MODES.items():
            yield "%s %s" % (mode, kernel), argv + [
                "--kernel", kernel, "--grid=" + grid]
    for kernel in ("exp_kernel", "sin_kernel"):
        yield "eval %s" % kernel, ["eval", "--auto-fix", "--format", "json",
                                   "--kernel", kernel,
                                   "--grid=" + GRIDS[kernel]]
    for pair in ("p24/p200", "p113/p200"):
        for kernel, grid in RUN_GRIDS.items():
            if kernel not in WORD_KERNELS:
                for mode, argv in MODES.items():
                    yield "%s %s %s" % (mode, kernel, pair), argv + [
                        "--kernel", kernel, "--grid=" + grid] + PAIRS[pair]
    for kernel, grid in RUN_GRIDS.items():
        for mode in ("sweep", "fix-static"):
            yield "%s %s p53/p1100" % (mode, kernel), MODES[mode] + [
                "--kernel", kernel, "--grid=" + grid] + PAIRS["p53/p1100"]
    for name in ("nested", "cmpf"):
        for pair in ("p53/p120", "p24/p200"):
            for mode, argv in (("trace", ["run", "--trace"]),
                               ("sweep", MODES["sweep"]), ("fix", ["fix"])):
                yield "%s %s %s" % (mode, name, pair), argv + [
                    "--program", "{%s}" % name, "--grid=-2,2,3"] \
                    + PAIRS[pair]
    # plain `eval` runs no barrier, so its MP lane is its HP lane
    for kernel, barrier in (("exp_kernel", "3"), ("sin_kernel", "2")):
        source = ["--kernel", kernel, "--grid=" + GRIDS[kernel]]
        for pair in ("p53/p120", "p53/p200", "p53/p1100"):
            yield "eval-barriers %s %s" % (kernel, pair), [
                "eval", "--barriers", barrier] + source + PAIRS[pair]
        for fmt in ("text", "csv"):
            yield "eval-%s %s" % (fmt, kernel), [
                "eval", "--auto-fix", "--format", fmt] + source
        yield "eval-plain %s" % kernel, ["eval"] + source
    yield "run round_kernel p53/p1000000", [
        "run", "--kernel", "round_kernel", "--input", "single:1",
        "--p-shadow", "1000000", "--p-oracle", "1000000"]


DIGESTS = {
    "detect round_kernel": "dc03d9375b6a4485",
    "sweep round_kernel": "035b947dcd59f24d",
    "fix-static round_kernel": "b68cf98ecc05a7f8",
    "fix-dynamic round_kernel": "b68cf98ecc05a7f8",
    "emit round_kernel": "95c59e766aeab8ee",
    "detect exp_kernel": "2fe741a35518a1e4",
    "sweep exp_kernel": "9cf2a95bccf39f88",
    "fix-static exp_kernel": "756ca1e39aa15dfd",
    "fix-dynamic exp_kernel": "756ca1e39aa15dfd",
    "emit exp_kernel": "102a36fca98f798b",
    "detect sin_kernel": "2ba7acc4443a997c",
    "sweep sin_kernel": "4d2d113656a2df81",
    "fix-static sin_kernel": "9f68a12af8bfcc68",
    "fix-dynamic sin_kernel": "9f68a12af8bfcc68",
    "emit sin_kernel": "9d9e3da7335acebd",
    "detect union_scale_kernel": "6d916cd366576270",
    "sweep union_scale_kernel": "06a4095d608b2473",
    "fix-static union_scale_kernel": "550e5167aae6b2fc",
    "fix-dynamic union_scale_kernel": "550e5167aae6b2fc",
    "emit union_scale_kernel": "cba512def15ea757",
    "detect accum_kernel": "17c8afe101a3b4ce",
    "sweep accum_kernel": "c44fca0d8ffcf02e",
    "fix-static accum_kernel": "0a736e8d5d8ce021",
    "fix-dynamic accum_kernel": "0a736e8d5d8ce021",
    "emit accum_kernel": "d8c9b717540482ed",
    "detect cancel_kernel": "8b24f70422e22dc8",
    "sweep cancel_kernel": "b7b5ccdc636b6b1b",
    "fix-static cancel_kernel": "55f8e45d1b392a47",
    "fix-dynamic cancel_kernel": "55f8e45d1b392a47",
    "emit cancel_kernel": "a22578b36644a0e3",
    "eval exp_kernel": "d88ae7c10811cff7",
    "eval sin_kernel": "d89b3d6190aff7d3",
    "detect round_kernel p24/p200": "4ded823b0124792d",
    "sweep round_kernel p24/p200": "818390bfbf21f519",
    "fix-static round_kernel p24/p200": "109b5eb54b8078df",
    "fix-dynamic round_kernel p24/p200": "109b5eb54b8078df",
    "emit round_kernel p24/p200": "95c59e766aeab8ee",
    "detect accum_kernel p24/p200": "0324f55e8b0bc81c",
    "sweep accum_kernel p24/p200": "8baf02c3e6a18f49",
    "fix-static accum_kernel p24/p200": "78e553ac45efe710",
    "fix-dynamic accum_kernel p24/p200": "78e553ac45efe710",
    "emit accum_kernel p24/p200": "d8c9b717540482ed",
    "detect cancel_kernel p24/p200": "ac06ba81a3289109",
    "sweep cancel_kernel p24/p200": "ce78b9296eafff26",
    "fix-static cancel_kernel p24/p200": "fb6febf617aa82f8",
    "fix-dynamic cancel_kernel p24/p200": "fb6febf617aa82f8",
    "emit cancel_kernel p24/p200": "61c44cd0f51c76ad",
    "detect round_kernel p113/p200": "4421168e694d2176",
    "sweep round_kernel p113/p200": "559ef2d8ef611234",
    "fix-static round_kernel p113/p200": "e043e2f975a147e3",
    "fix-dynamic round_kernel p113/p200": "e043e2f975a147e3",
    "emit round_kernel p113/p200": "e73322451e722593",
    "detect accum_kernel p113/p200": "dc6388ef9ba2bc2b",
    "sweep accum_kernel p113/p200": "bc5eae2b33c86d24",
    "fix-static accum_kernel p113/p200": "92c5cf2973aa6928",
    "fix-dynamic accum_kernel p113/p200": "92c5cf2973aa6928",
    "emit accum_kernel p113/p200": "d8c9b717540482ed",
    "detect cancel_kernel p113/p200": "e0a307e2fbd2cd6e",
    "sweep cancel_kernel p113/p200": "c640fe10b196a4fa",
    "fix-static cancel_kernel p113/p200": "928aeb7c71040cba",
    "fix-dynamic cancel_kernel p113/p200": "928aeb7c71040cba",
    "emit cancel_kernel p113/p200": "a22578b36644a0e3",
    "sweep round_kernel p53/p1100": "035b947dcd59f24d",
    "fix-static round_kernel p53/p1100": "b68cf98ecc05a7f8",
    "sweep exp_kernel p53/p1100": "531e08d16959032b",
    "fix-static exp_kernel p53/p1100": "066cb1c2df97ec01",
    "sweep sin_kernel p53/p1100": "85c32ce6e2a43d9f",
    "fix-static sin_kernel p53/p1100": "86b705105f039e07",
    "sweep union_scale_kernel p53/p1100": "06a4095d608b2473",
    "fix-static union_scale_kernel p53/p1100": "550e5167aae6b2fc",
    "sweep accum_kernel p53/p1100": "05fcb44c54a24dab",
    "fix-static accum_kernel p53/p1100": "cb32fc3001d82ff1",
    "sweep cancel_kernel p53/p1100": "385ac17a23e4bd62",
    "fix-static cancel_kernel p53/p1100": "387797a1cce4216a",
    "trace nested p53/p120": "305c2b2792ed397f",
    "sweep nested p53/p120": "397b92f3f437ec13",
    "fix nested p53/p120": "e583053ba8fc3dd7",
    "trace nested p24/p200": "c2576f1bd332c00c",
    "sweep nested p24/p200": "38f06c49b997a739",
    "fix nested p24/p200": "1ad246651a77b8a6",
    "trace cmpf p53/p120": "d0de7e0b4e0ca5ab",
    "sweep cmpf p53/p120": "d1f53a01bfa3b8cc",
    "fix cmpf p53/p120": "03e096a66c1eb7fc",
    "trace cmpf p24/p200": "4505e6a979737921",
    "sweep cmpf p24/p200": "b8ba4ddc2b0f086c",
    "fix cmpf p24/p200": "22efc195732aa430",
    "eval-barriers exp_kernel p53/p120": "d88ae7c10811cff7",
    "eval-barriers exp_kernel p53/p200": "f775989844f314e9",
    "eval-barriers exp_kernel p53/p1100": "f775989844f314e9",
    "eval-text exp_kernel": "964274317c6e8ad6",
    "eval-csv exp_kernel": "4423d51ade5d547a",
    "eval-plain exp_kernel": "dbfae7e1b0e7aaf4",
    "eval-barriers sin_kernel p53/p120": "d89b3d6190aff7d3",
    "eval-barriers sin_kernel p53/p200": "1356872fbc02a757",
    "eval-barriers sin_kernel p53/p1100": "1356872fbc02a757",
    "eval-text sin_kernel": "6555058a73539c88",
    "eval-csv sin_kernel": "1b9dc5060625d39f",
    "eval-plain sin_kernel": "15d3a0641eec0a93",
    "run round_kernel p53/p1000000": "5c4cfcd8d852abcc",
}


@pytest.mark.parametrize("name, argv", list(commands()))
def test_output_matches_golden_digest(name, argv, run_files, capsys):
    assert run_digest(argv, run_files, capsys) == DIGESTS[name]


# `run` and `run --trace`: recorded before the trace formatter was
# reworked, so they pin the OP/HP lines and the four-field trace byte for
# byte.  Edge rows cover signed zeros, a binary64 subnormal, results that
# overflow to +-inf at p53, and a program that squares its way to binary
# exponents near +-2**31 (past them at p24 and p113: inf and zero).
EDGE_ROWS = "0\n-0\n4.9e-324\n1e308\n-1.7976931348623157e308\n"
SQUARE_ROWS = "1.5\n-1.5\n0.75\n0.375\n0\n-0\n4.9e-324\n"
SQUARE_PROGRAM = "\n".join(
    ["# square 32 times", "func square32(x) -> y", "  a0 = fmov x"]
    + ["  a%d = fmul a%d, a%d" % (i, i - 1, i - 1) for i in range(1, 33)]
    + ["  y = fmov a32", "  ret y"]) + "\n"


def run_commands():
    """(name, argv) of each golden `run`; "{edge}", "{square}" and
    "{square_rows}" stand for the files `run_files` writes."""
    for pair in RUN_PAIRS:
        prec = PAIRS[pair]
        for kernel in GRIDS:
            if pair != "p53/p120" and kernel in WORD_KERNELS:
                continue
            for rows, src in (("grid", "--grid=" + RUN_GRIDS[kernel]),
                              ("edge", "--input=file:{edge}")):
                for mode, extra in (("run", []), ("trace", ["--trace"])):
                    yield "%s %s %s %s" % (mode, kernel, rows, pair), [
                        "run", "--kernel", kernel, src] + prec + extra
        for mode, extra in (("run", []), ("trace", ["--trace"])):
            yield "%s square32 %s" % (mode, pair), [
                "run", "--program", "{square}",
                "--input=file:{square_rows}"] + prec + extra


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_run")
    files = {"edge": EDGE_ROWS, "square": SQUARE_PROGRAM,
             "square_rows": SQUARE_ROWS, "mix": MIX_PROGRAM,
             "wide": WIDE_ARGS, "nested": NESTED_PROGRAM,
             "cmpf": CMPF_PROGRAM}
    for name, text in files.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in files}


def run_digest(argv, files, capsys):
    argv = [a.format(**files) for a in argv]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return hashlib.sha256(out.out.encode()).hexdigest()[:16]


RUN_DIGESTS = {
    "run round_kernel grid p53/p120": "369b4944feaed543",
    "trace round_kernel grid p53/p120": "76147a757823dafe",
    "run round_kernel edge p53/p120": "0eb793aa661a820c",
    "trace round_kernel edge p53/p120": "f6d1855b8ed0a644",
    "run exp_kernel grid p53/p120": "4ffa0d8690a153b6",
    "trace exp_kernel grid p53/p120": "04f5c62045ab13fb",
    "run exp_kernel edge p53/p120": "8ab7dbf2cebc0193",
    "trace exp_kernel edge p53/p120": "6b076a1bb8654388",
    "run sin_kernel grid p53/p120": "1493d052345b3ffc",
    "trace sin_kernel grid p53/p120": "6370e94428e01a64",
    "run sin_kernel edge p53/p120": "56f17170602bee99",
    "trace sin_kernel edge p53/p120": "21f0980720e8b040",
    "run union_scale_kernel grid p53/p120": "ead6d36c7705eab2",
    "trace union_scale_kernel grid p53/p120": "d2a1974279483bb8",
    "run union_scale_kernel edge p53/p120": "17b0ca446cc9160c",
    "trace union_scale_kernel edge p53/p120": "e513eafd65794dd4",
    "run accum_kernel grid p53/p120": "536de638786b7a94",
    "trace accum_kernel grid p53/p120": "ff119d9a59dc7d70",
    "run accum_kernel edge p53/p120": "7b60029f3de97498",
    "trace accum_kernel edge p53/p120": "3915854d2349635f",
    "run cancel_kernel grid p53/p120": "6afc97ce748281ea",
    "trace cancel_kernel grid p53/p120": "dff4a0e807ad91a1",
    "run cancel_kernel edge p53/p120": "cd1d03b5fdf32632",
    "trace cancel_kernel edge p53/p120": "0010b5f1050b7d62",
    "run square32 p53/p120": "17d3704a73b27778",
    "trace square32 p53/p120": "1cccf7a594f842ba",
    "run round_kernel grid p24/p200": "5b674229e3642982",
    "trace round_kernel grid p24/p200": "4a942951c7f04c00",
    "run round_kernel edge p24/p200": "352e3baf9985f897",
    "trace round_kernel edge p24/p200": "ead3655f80968afa",
    "run accum_kernel grid p24/p200": "2e4e8d24888a5792",
    "trace accum_kernel grid p24/p200": "64cfdf8ac36c2670",
    "run accum_kernel edge p24/p200": "f2006fe996d42636",
    "trace accum_kernel edge p24/p200": "0decdc4ed7275369",
    "run cancel_kernel grid p24/p200": "1f09333fe542a957",
    "trace cancel_kernel grid p24/p200": "e159f09834c22427",
    "run cancel_kernel edge p24/p200": "b48b71f488b53cb5",
    "trace cancel_kernel edge p24/p200": "b654c0ac71933e2d",
    "run square32 p24/p200": "8d0e4abfa0c17c9f",
    "trace square32 p24/p200": "766d9d7dec0c5be1",
    "run round_kernel grid p113/p200": "39250847f568b41e",
    "trace round_kernel grid p113/p200": "1d686e98bb4f1cff",
    "run round_kernel edge p113/p200": "1799c608b2c9001a",
    "trace round_kernel edge p113/p200": "0f91a95b97610411",
    # re-recorded when grid endpoints came to be read exactly: 0.1 and
    # 0.9 were parsed at 64 bits, so the input and OP/HP lines moved
    "run accum_kernel grid p113/p200": "9224c298ec9826b2",
    "trace accum_kernel grid p113/p200": "04f8b6b8f6bcab59",
    "run accum_kernel edge p113/p200": "d9e0813376fac78a",
    "trace accum_kernel edge p113/p200": "57a7417bbe4adc76",
    "run cancel_kernel grid p113/p200": "c842e2d5ef3e7112",
    "trace cancel_kernel grid p113/p200": "cab920055ccbf247",
    "run cancel_kernel edge p113/p200": "10c55c6d0b25a3f3",
    "trace cancel_kernel edge p113/p200": "cb260b0eb368d8ae",
    "run square32 p113/p200": "c8bcff53896da456",
    "trace square32 p113/p200": "c0bd132018c08618",
}


@pytest.mark.parametrize("name, argv", list(run_commands()))
def test_run_output_matches_golden_digest(name, argv, run_files, capsys):
    assert run_digest(argv, run_files, capsys) == RUN_DIGESTS[name]


@pytest.mark.parametrize("pair", ["p24/p200", "p113/p200"])
@pytest.mark.parametrize("kernel", WORD_KERNELS)
@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_word_kernels_below_p53_exit_1(kernel, pair, trace, capsys):
    # every command without --trace, `run` with it; `eval` of a kernel
    # without a reference function fails on that first
    commands = [["run"]] if trace else [
        ["run"], MODES["detect"], MODES["sweep"], ["fix"], MODES["emit"],
        ["eval"], ["eval", "--auto-fix"], ["eval", "--barriers", "0"]]
    for command in commands:
        argv = command + ["--kernel", kernel, "--grid=" + GRIDS[kernel]]
        assert cli.main(argv + PAIRS[pair] + trace) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: kernel %s has no reference function\n" % kernel
            if command[0] == "eval" and kernel == "union_scale_kernel"
            else "error: word operations need p_orig = 53\n")


# `run --barriers` and `run --trace --barriers`: recorded before barriered
# instructions were demoted through the original lane's own expressions,
# so they pin the demoted shadow byte for byte.  Every second rounding
# instruction and every word write is a barrier, so a demoted operation
# also reads shadows that have drifted from their originals.  MIX_PROGRAM
# demotes each rounding opcode, a division of zero by zero (x = 1e308)
# and square roots of negative values and of -0 among them.
ROUNDING = ("fadd", "fsub", "fmul", "fdiv", "fsqrt", "ffloor")
MIX_PROGRAM = """\
# every rounding opcode, on shadows that drift from their originals
func mix(x) -> y
  a = fadd x, 0.1
  b = fadd x, 0.1
  c = fsub b, x
  d = fsub b, x
  e = fmul d, 3.0
  f = fmul d, 3.0
  g = fdiv f, 0.7
  h = fdiv f, 0.7
  z = fdiv d, c
  k = fabs h
  m = fsqrt k
  n = fsqrt k
  nk = fneg k
  r = fsqrt nk
  r2 = fsqrt nk
  u = fmul n, 1e20
  v = ffloor u
  w = ffloor u
  y = fadd w, e
  ret y
"""
def barrier_list(prog):
    """Every second rounding instruction and every word write, as the
    --barriers list."""
    rounding = [i.id for i in prog.instrs if i.op in ROUNDING]
    words = [i.id for i in prog.instrs if i.op in ("set_hi", "set_lo")]
    return ",".join(map(str, sorted(rounding[::2] + words)))


def barrier_commands():
    mix = barrier_list(tac.parse_program(MIX_PROGRAM))
    for pair in RUN_PAIRS:
        prec = PAIRS[pair]
        sources = [(k, ["--kernel", k], RUN_GRIDS[k],
                    barrier_list(corpus.get_kernel(k).program))
                   for k in GRIDS
                   if pair == "p53/p120" or k not in WORD_KERNELS]
        sources.append(("mix", ["--program", "{mix}"], "-4,4,30", mix))
        for name, source, grid, barriers in sources:
            for rows, src in (("grid", "--grid=" + grid),
                              ("edge", "--input=file:{edge}")):
                for mode, extra in (("run", []), ("trace", ["--trace"])):
                    yield "%s %s %s %s" % (mode, name, rows, pair), [
                        "run", *source, src, "--barriers", barriers] \
                        + prec + extra


BARRIER_DIGESTS = {
    "run round_kernel grid p53/p120": "04bf408ab825a597",
    "trace round_kernel grid p53/p120": "d9c221bc15fa57a1",
    "run round_kernel edge p53/p120": "0eb793aa661a820c",
    "trace round_kernel edge p53/p120": "f6d1855b8ed0a644",
    "run exp_kernel grid p53/p120": "447eea7985e77338",
    "trace exp_kernel grid p53/p120": "1d26c5dae1da08f9",
    "run exp_kernel edge p53/p120": "ad40b6956ed11b25",
    "trace exp_kernel edge p53/p120": "03e72af251e0bde1",
    "run sin_kernel grid p53/p120": "f095b700f340c65c",
    "trace sin_kernel grid p53/p120": "4ed598da012d43ce",
    "run sin_kernel edge p53/p120": "22d1d4646a879c84",
    "trace sin_kernel edge p53/p120": "a70d8c59010c8818",
    "run union_scale_kernel grid p53/p120": "bf8352025ec10192",
    "trace union_scale_kernel grid p53/p120": "43b10e06fec5f924",
    "run union_scale_kernel edge p53/p120": "688d433bc746d58d",
    "trace union_scale_kernel edge p53/p120": "e94e0fd2b4e577c8",
    "run accum_kernel grid p53/p120": "3f2d072d83cc0477",
    "trace accum_kernel grid p53/p120": "e0a0b06a630daa0a",
    "run accum_kernel edge p53/p120": "c20cca9d546d989d",
    "trace accum_kernel edge p53/p120": "a79ac72cfb7b152c",
    "run cancel_kernel grid p53/p120": "4b3d6f6efc3452ca",
    "trace cancel_kernel grid p53/p120": "ad275ba131d7151b",
    "run cancel_kernel edge p53/p120": "cd1d03b5fdf32632",
    "trace cancel_kernel edge p53/p120": "0010b5f1050b7d62",
    "run mix grid p53/p120": "ee3f4cfe09a574ad",
    "trace mix grid p53/p120": "a083ff702b44b159",
    "run mix edge p53/p120": "4af21795a5ada6a0",
    "trace mix edge p53/p120": "bbfcead603a47c99",
    "run round_kernel grid p24/p200": "eb2220c1fc436b7e",
    "trace round_kernel grid p24/p200": "e2814aa5942eb227",
    "run round_kernel edge p24/p200": "352e3baf9985f897",
    "trace round_kernel edge p24/p200": "ead3655f80968afa",
    "run accum_kernel grid p24/p200": "d39d6b9129b6aaf6",
    "trace accum_kernel grid p24/p200": "dad2367564de73b0",
    "run accum_kernel edge p24/p200": "977189cdf35415dd",
    "trace accum_kernel edge p24/p200": "0c745c554f08d839",
    "run cancel_kernel grid p24/p200": "9c3cc30829dc25a1",
    "trace cancel_kernel grid p24/p200": "634a375ce89e8c37",
    "run cancel_kernel edge p24/p200": "b48b71f488b53cb5",
    "trace cancel_kernel edge p24/p200": "b654c0ac71933e2d",
    "run mix grid p24/p200": "28780f4b6c188afc",
    "trace mix grid p24/p200": "e3b4574b66be8b55",
    "run mix edge p24/p200": "bbfafd8ba23a21d4",
    "trace mix edge p24/p200": "7d39f81fb57f7c80",
    "run round_kernel grid p113/p200": "57c6fe67f5ddc71f",
    "trace round_kernel grid p113/p200": "6a68338791ca1c2c",
    "run round_kernel edge p113/p200": "1799c608b2c9001a",
    "trace round_kernel edge p113/p200": "0f91a95b97610411",
    # re-recorded when grid endpoints came to be read exactly: 0.1 and
    # 0.9 were parsed at 64 bits, so the input and OP/HP lines moved
    "run accum_kernel grid p113/p200": "37bbb3c09eb53fbb",
    "trace accum_kernel grid p113/p200": "6658f7eaa96addeb",
    "run accum_kernel edge p113/p200": "b9bbe3599464db0a",
    "trace accum_kernel edge p113/p200": "514437616ff4910d",
    "run cancel_kernel grid p113/p200": "c76323a8d32b50a9",
    "trace cancel_kernel grid p113/p200": "8934feda8fc7c286",
    "run cancel_kernel edge p113/p200": "10c55c6d0b25a3f3",
    "trace cancel_kernel edge p113/p200": "cb260b0eb368d8ae",
    "run mix grid p113/p200": "65d6a441339a323e",
    "trace mix grid p113/p200": "d092d5948ed3ea42",
    "run mix edge p113/p200": "f607c86558832130",
    "trace mix edge p113/p200": "05bd3fe19168af9b",
}


@pytest.mark.parametrize("name, argv", list(barrier_commands()))
def test_barriered_run_matches_golden_digest(name, argv, run_files, capsys):
    assert run_digest(argv, run_files, capsys) == BARRIER_DIGESTS[name]


# `oracle` on arguments whose results, and the sums, products and
# quotients that form them, leave binary64's exponent range: recorded
# before add, sub, mul and div rounded such results through `_round`.  At
# --precision 53 and 24 the oracle's own arithmetic runs at that width.
WIDE_ARGS = """\
exp 800
exp -800
cosh 800
sinh -800
tanh 800
pow 10 400
exp10 -400
hypot 1e300 1e300
log 1e-400
"""
ORACLE_DIGESTS = {
    "256": "5785ff17e6d99fa8",
    "53": "e3c7a68c3ecfe1b9",
    "24": "cd39633dd22d0b7b",
}


@pytest.mark.parametrize("precision", list(ORACLE_DIGESTS))
def test_oracle_of_wide_arguments_matches_golden_digest(precision, run_files,
                                                        capsys):
    argv = ["oracle", "--digits", "30", "--precision", precision,
            "--file", "{wide}"]
    assert run_digest(argv, run_files, capsys) == ORACLE_DIGESTS[precision]
