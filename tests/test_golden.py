"""Golden outputs: SHA-256 digests of CLI output on small grids.

The digests were recorded before the error tallies were fused into the
generated code, so they pin byte identity of detection, sweeps, fixing,
emitted programs and oracle-scored evaluation across refactors.  A change
that means to alter one of these outputs must say so and record the new
digest.
"""

import hashlib

import pytest

from precfix import cli

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
