"""Golden outputs: SHA-256 digests of CLI output on small grids.

The digests were recorded before the error tallies were fused into the
generated code, so they pin byte identity of detection, sweeps, fixing,
emitted programs and oracle-scored evaluation across refactors.  A change
that means to alter one of these outputs must say so and record the new
digest.
"""

import hashlib

import pytest

from precfix import cli, corpus, tac

GRIDS = {"round_kernel": "-100,100,41", "exp_kernel": "-1,1,30",
         "sin_kernel": "-4,4,30", "union_scale_kernel": "-4,4,30",
         "accum_kernel": "0,1,2", "cancel_kernel": "-10,10,30"}
MODES = {"detect": ["detect"], "sweep": ["detect", "--sweep"],
         "fix-static": ["fix", "--first-order", "static"],
         "fix-dynamic": ["fix", "--first-order", "dynamic"],
         "emit": ["fix", "--emit-program"]}


def commands():
    for kernel, grid in GRIDS.items():
        for mode, argv in MODES.items():
            yield "%s %s" % (mode, kernel), argv + [
                "--kernel", kernel, "--grid=" + grid]
    for kernel in ("exp_kernel", "sin_kernel"):
        yield "eval %s" % kernel, ["eval", "--auto-fix", "--format", "json",
                                   "--kernel", kernel,
                                   "--grid=" + GRIDS[kernel]]


DIGESTS = {
    "detect round_kernel":
        "dc03d9375b6a4485c8ed8eb88f48593cbfcf7f9c67ba5f79d49da76e14c9bbfb",
    "sweep round_kernel":
        "035b947dcd59f24d09518af8d9e1cb32da036a05825c6c39537abd921ea650c7",
    "fix-static round_kernel":
        "b68cf98ecc05a7f896cf52c2fc33d25d121949719c9c37aab59687de610cb32d",
    "fix-dynamic round_kernel":
        "b68cf98ecc05a7f896cf52c2fc33d25d121949719c9c37aab59687de610cb32d",
    "emit round_kernel":
        "95c59e766aeab8ee10bbad8aa55cec4d9c4f2fe469b55d4e1fdde112722ffe69",
    "detect exp_kernel":
        "2fe741a35518a1e4064aaf7577eec3f86caca6a86d8e2855f22e2d9412ff2499",
    "sweep exp_kernel":
        "9cf2a95bccf39f885b002ec7f3db0c0aa691370b834331827a183ffb585dec97",
    "fix-static exp_kernel":
        "756ca1e39aa15dfdda868f71affa7274019d5e6d86322c567acf8c4b8b4baf96",
    "fix-dynamic exp_kernel":
        "756ca1e39aa15dfdda868f71affa7274019d5e6d86322c567acf8c4b8b4baf96",
    "emit exp_kernel":
        "102a36fca98f798bf2887619e2499244b5581322420ff938a6ade5a8dcb2a34c",
    "detect sin_kernel":
        "2ba7acc4443a997cf02dcd531750721adcb9e54dc45060003b253bf01f4564af",
    "sweep sin_kernel":
        "4d2d113656a2df81bc495541bcd76a4dda3ad37c85af0834ba42f3f83ccde8b1",
    "fix-static sin_kernel":
        "9f68a12af8bfcc6852f7259444b9089a3eb20c844d3fb1e23673d3c9a8d83c1d",
    "fix-dynamic sin_kernel":
        "9f68a12af8bfcc6852f7259444b9089a3eb20c844d3fb1e23673d3c9a8d83c1d",
    "emit sin_kernel":
        "9d9e3da7335acebd88e4a512bba5f3a0f90d8953059e4133d3208ac0eaa64eb9",
    "detect union_scale_kernel":
        "6d916cd366576270f57eab19f5c2f2ee64c1f81bad01d2f379f3e9cb081d1c8a",
    "sweep union_scale_kernel":
        "06a4095d608b2473de8a1d7dbe713ea2ff6904bb464a8db411e451af0181657b",
    "fix-static union_scale_kernel":
        "550e5167aae6b2fca3dbd17225c5b002b470a8483cd28cadd0e9c06d046e3b82",
    "fix-dynamic union_scale_kernel":
        "550e5167aae6b2fca3dbd17225c5b002b470a8483cd28cadd0e9c06d046e3b82",
    "emit union_scale_kernel":
        "cba512def15ea75722e762f0a6df2523bbe659ff836b7f42ecd95f4b251270d7",
    "detect accum_kernel":
        "17c8afe101a3b4ce4b43e2280ecd204beed84b69647700bb752cec8bfaaf3a38",
    "sweep accum_kernel":
        "c44fca0d8ffcf02e8be3d95ce63bda803fd497febecb71afabd118f93021d344",
    "fix-static accum_kernel":
        "0a736e8d5d8ce021e5c4b58b8f0ec850d336643206e4d187566bb4c63dd6d374",
    "fix-dynamic accum_kernel":
        "0a736e8d5d8ce021e5c4b58b8f0ec850d336643206e4d187566bb4c63dd6d374",
    "emit accum_kernel":
        "d8c9b717540482ed363b66df7cd72128dc9334518d9a26a2de88e49a30d5371d",
    "detect cancel_kernel":
        "8b24f70422e22dc8841e9922a66d3c475910a6c512d5dbc1f34b5e3786c52b3a",
    "sweep cancel_kernel":
        "b7b5ccdc636b6b1b0b1a2792ad24d0ffe834559a5387043a9151d0226dbe8e60",
    "fix-static cancel_kernel":
        "55f8e45d1b392a474732185d636420d8053723170240dbffd7a00124c597b83b",
    "fix-dynamic cancel_kernel":
        "55f8e45d1b392a474732185d636420d8053723170240dbffd7a00124c597b83b",
    "emit cancel_kernel":
        "a22578b36644a0e3330baad68181636c09b0576f4a302c9315fe38987b9ccd4a",
    "eval exp_kernel":
        "d88ae7c10811cff722916fe0afc4576eeddcf5487a101416aaf420d7624aa49e",
    "eval sin_kernel":
        "d89b3d6190aff7d39ce74fd733014b3723201eb7382de6d47d7df52d416bd7a2",
}


@pytest.mark.parametrize("name, argv", list(commands()))
def test_output_matches_golden_digest(name, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


# `run` and `run --trace`: recorded before the trace formatter was
# reworked, so they pin the OP/HP lines and the four-field trace byte for
# byte.  Edge rows cover signed zeros, a binary64 subnormal, results that
# overflow to +-inf at p53, and a program that squares its way to binary
# exponents near +-2**31 (past them at p24 and p113: inf and zero).
PAIRS = {"p53/p120": ["--p-orig", "53", "--p-shadow", "120"],
         "p24/p200": ["--p-orig", "24", "--p-shadow", "200"],
         "p113/p200": ["--p-orig", "113", "--p-shadow", "200"]}
RUN_GRIDS = dict(GRIDS, accum_kernel="0.1,0.9,2")
WORD_KERNELS = ("exp_kernel", "sin_kernel", "union_scale_kernel")
EDGE_ROWS = "0\n-0\n4.9e-324\n1e308\n-1.7976931348623157e308\n"
SQUARE_ROWS = "1.5\n-1.5\n0.75\n0.375\n0\n-0\n4.9e-324\n"
SQUARE_PROGRAM = "\n".join(
    ["# square 32 times", "func square32(x) -> y", "  a0 = fmov x"]
    + ["  a%d = fmul a%d, a%d" % (i, i - 1, i - 1) for i in range(1, 33)]
    + ["  y = fmov a32", "  ret y"]) + "\n"


def run_commands():
    """(name, argv) of each golden `run`; "{edge}", "{square}" and
    "{square_rows}" stand for the files `run_files` writes."""
    for pair, prec in PAIRS.items():
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
             "wide": WIDE_ARGS}
    for name, text in files.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in files}


def run_digest(argv, files, capsys):
    argv = [a.format(**files) for a in argv]
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


RUN_DIGESTS = {
    "run round_kernel grid p53/p120":
        "369b4944feaed5434d47c42afd8682809528d53a46de83c2dc11986cbb83196a",
    "trace round_kernel grid p53/p120":
        "76147a757823dafe8a3e864c8c3b2cfb10a418b1980f00770bf6875841df70bf",
    "run round_kernel edge p53/p120":
        "0eb793aa661a820cb72af14625bcb45450b848b0d268091c1e639bdf56377e42",
    "trace round_kernel edge p53/p120":
        "f6d1855b8ed0a644a7a40ffd816103130a0ec78dd934d1752cb247c137c46359",
    "run exp_kernel grid p53/p120":
        "4ffa0d8690a153b611bff80810259434e62b0076b1e47e4cf986fb0b6f4e0758",
    "trace exp_kernel grid p53/p120":
        "04f5c62045ab13fb75af3c622e4af8ae2c7bc21d50a36384c1011109f145ef48",
    "run exp_kernel edge p53/p120":
        "8ab7dbf2cebc0193a3a1f2e190f512dd6d6e447e881c29a3111d035270631eff",
    "trace exp_kernel edge p53/p120":
        "6b076a1bb86543881e1bf1d179207618278fc16e1f0395d5f30158e2da40c011",
    "run sin_kernel grid p53/p120":
        "1493d052345b3ffc5a1f911ff1c268aa4196c92f3c29dc019b2e0c44a14be47a",
    "trace sin_kernel grid p53/p120":
        "6370e94428e01a640d844ad1f460511044641c37fbd54ed8c240f7d146656e16",
    "run sin_kernel edge p53/p120":
        "56f17170602bee993ba8789a6cc9329f830df5808673eed65e82ce5f905550a4",
    "trace sin_kernel edge p53/p120":
        "21f0980720e8b040806ea77db3db7c27df72c1fe71159f4ddaed089e48e03844",
    "run union_scale_kernel grid p53/p120":
        "ead6d36c7705eab2b4c07228de6b30f2b70c3db1cfb50640e6ae3a0b9feaffdc",
    "trace union_scale_kernel grid p53/p120":
        "d2a1974279483bb819a26e2a4f24b21bf35a9a33a1798f83a3b7312e2ef199c7",
    "run union_scale_kernel edge p53/p120":
        "17b0ca446cc9160cb4612218fb928c11e42bfc7538f1b58fb5ac83f1bffb372c",
    "trace union_scale_kernel edge p53/p120":
        "e513eafd65794dd4abdfe4a83800af5f41310e3291119afb6564c6c786f90c21",
    "run accum_kernel grid p53/p120":
        "536de638786b7a942b0c81361dd6d91a6779f7d80943e1fb87779d9af68e0c14",
    "trace accum_kernel grid p53/p120":
        "ff119d9a59dc7d70a5dac23f037c760d70843ed05534d63623a4b52abbb657aa",
    "run accum_kernel edge p53/p120":
        "7b60029f3de97498694ab4e2bb52a75faf23aba427c78f8ba437b55d5e1e8092",
    "trace accum_kernel edge p53/p120":
        "3915854d2349635f00ec7a9dade85f9c7ca281574b6266d4df35ed77e551274c",
    "run cancel_kernel grid p53/p120":
        "6afc97ce748281ea24d8cbf33b5590092f69dac03fd188632799fa085f638f6c",
    "trace cancel_kernel grid p53/p120":
        "dff4a0e807ad91a1a4c24bce13a45a972462be1797f357f8e4e783dcb7a2ba0d",
    "run cancel_kernel edge p53/p120":
        "cd1d03b5fdf326322527cd47ed86a6296e3a29446e94cac1efe4eea7fb99536e",
    "trace cancel_kernel edge p53/p120":
        "0010b5f1050b7d6256d20fae62a4a0ddbf0384bd685eb48504dced7a29d8236f",
    "run square32 p53/p120":
        "17d3704a73b2777839f313626425d744db3ff1a685fb1b8c025da8cd1adcea67",
    "trace square32 p53/p120":
        "1cccf7a594f842ba84b24e89beebc94943553cbfbe6fd988b1ab772ae516cc6b",
    "run round_kernel grid p24/p200":
        "5b674229e364298289bd7abeac486fd91a27d6739de550c95cac831c8cbdd465",
    "trace round_kernel grid p24/p200":
        "4a942951c7f04c0086e5bfa58296d09c9c02083521a9e222b043069bd2bd0b61",
    "run round_kernel edge p24/p200":
        "352e3baf9985f89776c4737b4c58a2d4f7786d6b42079fc9d4cf5fd42933c2db",
    "trace round_kernel edge p24/p200":
        "ead3655f80968afaef4276f3b268dabedcfc2bb93b1e8973c92e457c52b9f688",
    "run accum_kernel grid p24/p200":
        "2e4e8d24888a57921b957c15a591fff0aa57e2672720b3a1f3b935d99d0ee67f",
    "trace accum_kernel grid p24/p200":
        "64cfdf8ac36c2670bbbc5bd57af6cdb85c0787af8d7367ac7225abe2604c453a",
    "run accum_kernel edge p24/p200":
        "f2006fe996d42636773e8908eae0454b3236baabe66e8f11034d879b9e923e55",
    "trace accum_kernel edge p24/p200":
        "0decdc4ed72753693cf0cf672e529020c78f237370460d8b5bf009319e720074",
    "run cancel_kernel grid p24/p200":
        "1f09333fe542a9579fc240f356fbe5b8733c7ad726603c15208fbd0fe2ddcc2c",
    "trace cancel_kernel grid p24/p200":
        "e159f09834c22427ea61efcc77d0e0db661549567bcbcbac77615c4d8f9a7c6f",
    "run cancel_kernel edge p24/p200":
        "b48b71f488b53cb537e62f9aa55ae9f2a57a63df1ba3fb4e6f34c3f1f81aed28",
    "trace cancel_kernel edge p24/p200":
        "b654c0ac71933e2d308822473e4d8152f27e7c2a83b7a0f3aa98a63af99a95c5",
    "run square32 p24/p200":
        "8d0e4abfa0c17c9f3a0696c974ade21069d6d1019e7fa3c131375ab15b4face9",
    "trace square32 p24/p200":
        "766d9d7dec0c5be109c02793947b849ac131b8ec40834340a2b26de080f21718",
    "run round_kernel grid p113/p200":
        "39250847f568b41e3425fc9245c0ec5cd932c13d1f08edf62131ad0097aac9c3",
    "trace round_kernel grid p113/p200":
        "1d686e98bb4f1cff6d4f86c2957617cb25c350f9957b5269bf169430c201ac66",
    "run round_kernel edge p113/p200":
        "1799c608b2c9001ada619ebd44370cc95f5d6ce387b9f07327532c07e058af24",
    "trace round_kernel edge p113/p200":
        "0f91a95b97610411a705b05c8c059444596e25ecd1920b7dfc630a2b598b1873",
    # re-recorded when grid endpoints came to be read exactly: 0.1 and
    # 0.9 were parsed at 64 bits, so the input and OP/HP lines moved
    "run accum_kernel grid p113/p200":
        "9224c298ec9826b24082d6fafd4d136eaaf917737db5d12ec997b391d809d5c2",
    "trace accum_kernel grid p113/p200":
        "04f8b6b8f6bcab59e93dd52265d08ec10b4ad685e8afac7678282b995ea4cdee",
    "run accum_kernel edge p113/p200":
        "d9e0813376fac78a00dae482ac80e1d11c85f222d5ea9add4113ff8bc751bd20",
    "trace accum_kernel edge p113/p200":
        "57a7417bbe4adc761be78bd6a6e4269112737ad447f66403692a6e646c9d469a",
    "run cancel_kernel grid p113/p200":
        "c842e2d5ef3e71127fbe3380241dc273920b4538c4859be12b9507e06d47e41a",
    "trace cancel_kernel grid p113/p200":
        "cab920055ccbf24793263bf2d63ed7ba6d966d9cc31f4e48f33d9da13a655391",
    "run cancel_kernel edge p113/p200":
        "10c55c6d0b25a3f3774dce1275f0096e81c9b29e5a00c79d1b168c17fbffeeff",
    "trace cancel_kernel edge p113/p200":
        "cb260b0eb368d8ae8f76bcd328c9d6e65b69c79a842c1f41de0e82c116a32fb7",
    "run square32 p113/p200":
        "c8bcff53896da4565f816294b5ee3e430a612ae4009bb535b370ef52c4fa29d2",
    "trace square32 p113/p200":
        "c0bd132018c08618fe4c9d375d549565e7f413b5e2760813c4dc1b006cee5146",
}


@pytest.mark.parametrize("name, argv", list(run_commands()))
def test_run_output_matches_golden_digest(name, argv, run_files, capsys):
    assert run_digest(argv, run_files, capsys) == RUN_DIGESTS[name]


@pytest.mark.parametrize("pair", ["p24/p200", "p113/p200"])
@pytest.mark.parametrize("kernel", WORD_KERNELS)
@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_word_kernels_below_p53_exit_1(kernel, pair, trace, capsys):
    argv = ["run", "--kernel", kernel, "--grid=" + GRIDS[kernel]]
    assert cli.main(argv + PAIRS[pair] + trace) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: word operations need p_orig = 53\n"


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
    for pair, prec in PAIRS.items():
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
    "run round_kernel grid p53/p120":
        "04bf408ab825a5971e589327482ac63edf857e029d3463e8ff253419f8ea0399",
    "trace round_kernel grid p53/p120":
        "d9c221bc15fa57a12cd85dcc386d75c6bb1ec74ae127da5282ffc1147ce5ad93",
    "run round_kernel edge p53/p120":
        "0eb793aa661a820cb72af14625bcb45450b848b0d268091c1e639bdf56377e42",
    "trace round_kernel edge p53/p120":
        "f6d1855b8ed0a644a7a40ffd816103130a0ec78dd934d1752cb247c137c46359",
    "run exp_kernel grid p53/p120":
        "447eea7985e77338ff2197b22dd5ac46950eab646144328685ca85700666346b",
    "trace exp_kernel grid p53/p120":
        "1d26c5dae1da08f928d81926c7dcc20da499e7e5e595ff44d80d4d1c569bb529",
    "run exp_kernel edge p53/p120":
        "ad40b6956ed11b25d9e72a8000186eecad70bb7e782944fff460cc43ff21066d",
    "trace exp_kernel edge p53/p120":
        "03e72af251e0bde1b7699ece8807db547cbcc08fc21481199cecb4ec4b16ad9e",
    "run sin_kernel grid p53/p120":
        "f095b700f340c65c76dea635b97a564ccb02f47bdcc6167f91a1c306d011cb12",
    "trace sin_kernel grid p53/p120":
        "4ed598da012d43ce0303327f8fe07c45fd2d6b00744d6919dc28ef3ad3fdcbe1",
    "run sin_kernel edge p53/p120":
        "22d1d4646a879c84609b2cb2dff3123d73d296986a4aa20840b954a2b7ed1b9e",
    "trace sin_kernel edge p53/p120":
        "a70d8c59010c88183af554f89a11336f2cbac8fc68193adf03661972874a8cdb",
    "run union_scale_kernel grid p53/p120":
        "bf8352025ec10192aeea15537307ef0236e398e7a5eddd0ba4226319d7f153ae",
    "trace union_scale_kernel grid p53/p120":
        "43b10e06fec5f9245881a1959ef8c105f31dd65a3dd9d6a5c08ca230c4774317",
    "run union_scale_kernel edge p53/p120":
        "688d433bc746d58dd6953e20751e52a1dcdc8a1d244384ad010140dff70ec304",
    "trace union_scale_kernel edge p53/p120":
        "e94e0fd2b4e577c81fd71291d79c7570f3dbf0fcfc33c4e61a86eecc47b235fb",
    "run accum_kernel grid p53/p120":
        "3f2d072d83cc0477fdcd2dda5726ed360d5d1505ac9afc1355e39448d0fe1a2e",
    "trace accum_kernel grid p53/p120":
        "e0a0b06a630daa0aa7289ce37723844d1d3e9fe06d66b5353f8ddd0edbccc71a",
    "run accum_kernel edge p53/p120":
        "c20cca9d546d989dcb54bc2dc71e1a1c2d32cfc471f75607f83d61c2307ad40e",
    "trace accum_kernel edge p53/p120":
        "a79ac72cfb7b152c37bda1a21055f1e593d96bff5bfa07e0e8d6d9b113abe492",
    "run cancel_kernel grid p53/p120":
        "4b3d6f6efc3452cac2a5c5bb320e6cd4881caf047f7b26f4dca0ba2a5ba2a465",
    "trace cancel_kernel grid p53/p120":
        "ad275ba131d7151b9ca5d2790bbb4c5fca84b217748885da692f138b76cabb1d",
    "run cancel_kernel edge p53/p120":
        "cd1d03b5fdf326322527cd47ed86a6296e3a29446e94cac1efe4eea7fb99536e",
    "trace cancel_kernel edge p53/p120":
        "0010b5f1050b7d6256d20fae62a4a0ddbf0384bd685eb48504dced7a29d8236f",
    "run mix grid p53/p120":
        "ee3f4cfe09a574ad0bd0e58f59e47dbf603b62b77a22ec719d991ed55a9a973b",
    "trace mix grid p53/p120":
        "a083ff702b44b15933f56710070830039052d05e7718d7ec6f4d92e107fca93d",
    "run mix edge p53/p120":
        "4af21795a5ada6a04e50d2c311c83adbe07ac78e0ed3120028510ae0304daa4c",
    "trace mix edge p53/p120":
        "bbfcead603a47c99d189ca0c8f3c1aa5bb6b1dfe2fbd9b50caff08f0e1d5a664",
    "run round_kernel grid p24/p200":
        "eb2220c1fc436b7ec9deb36150a213a94eca9e366632455a242d3b66f98b2409",
    "trace round_kernel grid p24/p200":
        "e2814aa5942eb2272a96c1a5781f1f7617d4bd3634be71bf988cff27ea909b07",
    "run round_kernel edge p24/p200":
        "352e3baf9985f89776c4737b4c58a2d4f7786d6b42079fc9d4cf5fd42933c2db",
    "trace round_kernel edge p24/p200":
        "ead3655f80968afaef4276f3b268dabedcfc2bb93b1e8973c92e457c52b9f688",
    "run accum_kernel grid p24/p200":
        "d39d6b9129b6aaf639c42eab939629e4e18b00c5c2fe25e904ed3c7fa40fa14d",
    "trace accum_kernel grid p24/p200":
        "dad2367564de73b06f0b482e460ad6d28edbdf515764229743efa9c1638ca1bd",
    "run accum_kernel edge p24/p200":
        "977189cdf35415dd4e06b58242cc69dce1e647e2bea571fc8ac3d05d573ee2e4",
    "trace accum_kernel edge p24/p200":
        "0c745c554f08d83920b060351c1f3db8656cb5da58190786b02769270f08055c",
    "run cancel_kernel grid p24/p200":
        "9c3cc30829dc25a1546449ef5a1fd6f8f5a9d1c6cc01124f99e0fdd6bb260561",
    "trace cancel_kernel grid p24/p200":
        "634a375ce89e8c37d1739fd63cfc38ec615614cf0e9a54f94f0a666ae0e8b73e",
    "run cancel_kernel edge p24/p200":
        "b48b71f488b53cb537e62f9aa55ae9f2a57a63df1ba3fb4e6f34c3f1f81aed28",
    "trace cancel_kernel edge p24/p200":
        "b654c0ac71933e2d308822473e4d8152f27e7c2a83b7a0f3aa98a63af99a95c5",
    "run mix grid p24/p200":
        "28780f4b6c188afcad4834aca83bfadb466ebc33bc0c1c78b00e3dd49cc9d21a",
    "trace mix grid p24/p200":
        "e3b4574b66be8b5565dc3a31fcb721e0d9d1bc567037cc12d756192339450f89",
    "run mix edge p24/p200":
        "bbfafd8ba23a21d4612769cf41995b5092944b0726d1f7693e6df7f561b8b1f1",
    "trace mix edge p24/p200":
        "7d39f81fb57f7c803238bacc084aee1bdfa4b4eb2a2a5ba629bed7d5789ec395",
    "run round_kernel grid p113/p200":
        "57c6fe67f5ddc71f8f8662d9e6e938c590793d95579cc319cb9750c3ad3f2e87",
    "trace round_kernel grid p113/p200":
        "6a68338791ca1c2ceb4cb7f563c758b5d983d462c039b7e8da1862bcfb62c3ed",
    "run round_kernel edge p113/p200":
        "1799c608b2c9001ada619ebd44370cc95f5d6ce387b9f07327532c07e058af24",
    "trace round_kernel edge p113/p200":
        "0f91a95b97610411a705b05c8c059444596e25ecd1920b7dfc630a2b598b1873",
    # re-recorded when grid endpoints came to be read exactly: 0.1 and
    # 0.9 were parsed at 64 bits, so the input and OP/HP lines moved
    "run accum_kernel grid p113/p200":
        "37bbb3c09eb53fbb8f6b0e4b116280c06a20a911c77a77e3a448335e4c592421",
    "trace accum_kernel grid p113/p200":
        "6658f7eaa96addebc4178b4d98eb42bba0e12cb103f3889d5ccfae8a4b1d2815",
    "run accum_kernel edge p113/p200":
        "b9bbe3599464db0a2efda0dcaf1ca9ffc06754277e1d39f3d4aef9173cc9cf5e",
    "trace accum_kernel edge p113/p200":
        "514437616ff4910d17a0dda7e529fde11308cea9e5a72153372ad456604ef15e",
    "run cancel_kernel grid p113/p200":
        "c76323a8d32b50a9bd735691b6fe5e1feab214333bf6faa61520c97d37cf05d2",
    "trace cancel_kernel grid p113/p200":
        "8934feda8fc7c286ec4b855eb86d47bc862673de2c9bba00ee813a730b9852a7",
    "run cancel_kernel edge p113/p200":
        "10c55c6d0b25a3f3774dce1275f0096e81c9b29e5a00c79d1b168c17fbffeeff",
    "trace cancel_kernel edge p113/p200":
        "cb260b0eb368d8ae8f76bcd328c9d6e65b69c79a842c1f41de0e82c116a32fb7",
    "run mix grid p113/p200":
        "65d6a441339a323e5e911566a125e5860d4b56322270500ef1c5151d6fdbf6da",
    "trace mix grid p113/p200":
        "d092d5948ed3ea426e9afcd2e9374ce20e2732148ae84f6b94027034c957a000",
    "run mix edge p113/p200":
        "f607c86558832130661e06f0f6dd6c66c53855d6d59c4820cdef97158fb14273",
    "trace mix edge p113/p200":
        "05bd3fe19168af9b57c900b82d43148b7eb948dab481bb793142f6342f770575",
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
    "256": "5785ff17e6d99fa8597e3447579d64bcc7dd405596d0d6690d05b36a82c8e852",
    "53": "e3c7a68c3ecfe1b9f91c335b56ed7e2a1fc23d8dd7fd4b24df16134398fe052e",
    "24": "cd39633dd22d0b7ba69f0cb7e26a8774ca3c644d94835216791bbe0c5585bed6",
}


@pytest.mark.parametrize("precision", list(ORACLE_DIGESTS))
def test_oracle_of_wide_arguments_matches_golden_digest(precision, run_files,
                                                        capsys):
    argv = ["oracle", "--digits", "30", "--precision", precision,
            "--file", "{wide}"]
    assert run_digest(argv, run_files, capsys) == ORACLE_DIGESTS[precision]
