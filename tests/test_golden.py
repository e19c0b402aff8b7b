"""Golden-digest replay of CLI commands.

`golden/cli_digests.json` maps each command to the sha256 of its exit code,
stdout and stderr.  Every command is replayed through `cli.main` in process,
and a command whose digest moved is named.

The file is rewritten by running this module as a script::

    PYTHONPATH=src python tests/test_golden.py

Do that only when an output change is intended, and list the change.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from qvolkenborn import algebra, verify
from qvolkenborn.cli import main

DIGESTS = Path(__file__).with_name("golden") / "cli_digests.json"

CHARACTER_IDS = ("5:1", "5:2", "7:1", "7:2", "9:1", "13:1", "15:1,1", "21:1,1")
Q_SPECS = ("sym", "2/5", "padic:5:6:32")


def commands() -> list[str]:
    out = [f"characters --f {f}" for f in range(1, 31)]
    out += [f"numbers --kind K_chi --n 0..5 --chi {chi} --q {q}"
            for chi in CHARACTER_IDS for q in Q_SPECS]
    out += [f"numbers --kind {kind} --n 0..32 --q sym" for kind in ("K", "beta")]
    out += ["polynomials --kind K_poly --n 0..12 --x 1/2 --q sym:2 --form expansion",
            "polynomials --kind beta_poly --n 0..12 --x 1/3 --q sym:3",
            "series --gf Fq --q sym --T 10",
            "integrate --p 5 --q 6 --f bracket_pow:3 --stability 6",
            "integrate --kind bosonic --p 3 --q 4 --f shifted_bracket_pow:2:1 --stability 4",
            "numbers --kind K_chi --n 0..3 --chi 3:1 --q padic:5:6:32 --method integral",
            "integrate --p 5 --q 6 --f bracket_pow:3 --stability 9 --N-max 10",
            "integrate --p 5 --q 6 --d 3 --f char_twisted:3:3:1 --stability 8 --N-max 9"]
    out += [f"numbers --kind {kind} --n 0..20 --q {q}"
            for kind in ("K", "beta") for q in ("2/5", "-3/7", "7/2")]
    out += [f"polynomials --kind K_poly --n 0..8 --x -2 --q 2/5 --form {form}"
            for form in ("closed", "expansion")]
    out += ["polynomials --kind beta_poly --n 0..8 --x 3 --q -3/7",
            "numbers --kind K --n 0..3 --q -1",
            "polynomials --kind K_poly --n 0..3 --x -2 --q 0",
            "series --gf Kpartial --q 1/2 --k-max 6 --n-terms 200",
            "series --gf Kpartial --q -2/3 --k-max 4 --n-terms 120"]
    out += ["numbers --kind K --n 0..4 --q padic:5:6:32 --method integral",
            "numbers --kind beta --n 0..3 --q padic:5:6:32 --method integral",
            "polynomials --kind K_poly --n 0..3 --x 1 --q padic:3:4:32 --form integral",
            "polynomials --kind beta_poly --n 0..3 --x 2 --q padic:5:6:32 --form integral",
            "polynomials --kind K_poly --n 0..6 --x 1 --q padic:5:6:32 --form expansion",
            "polynomials --kind beta_poly --n 0..6 --x 2 --q padic:5:6:32 --form expansion",
            "polynomials --kind K_poly --n 0..6 --x 2/3 --q 2/5 --form expansion",
            "series --gf Fq --q 2/5 --T 8",
            "integrate --kind bosonic --p 5 --q 6 --d 3 --f char_twisted:2:3:1 --stability 5",
            "integrate --p 3 --q 4 --f one --stability 6"]
    # the closed forms at p-adic q, zero-at-precision rows and divisor included
    out += ["numbers --kind K --n 0..16 --q padic:5:6:32",
            "numbers --kind beta --n 0..16 --q padic:3:4:128",
            "numbers --kind K --n 0..10 --q padic:3:10:3",
            "numbers --kind beta --n 0..10 --q padic:3:10:4",
            "numbers --kind K_chi --n 0..5 --chi 7:3 --q padic:3:22:32",
            "polynomials --kind K_poly --n 0..8 --x 2 --q padic:7:8:20"]
    # p-adic level sums: deep precision, table lengths divisible by p,
    # n >= p, a negative shift and a twist whose table is as long as d
    out += ["integrate --p 5 --q 6 --f bracket_pow:3 --A 128 --stability 127 --N-max 1000000",
            "integrate --kind bosonic --p 3 --q 10 --f char_twisted:3:9:3 --stability 5 --N-max 10",
            "integrate --kind bosonic --p 3 --q 10 --f shifted_bracket_pow:8:-2 --A 40 "
            "--stability 12 --N-max 20",
            "integrate --p 7 --q 8 --d 15 --f char_twisted:4:15:1,0 --A 64 --stability 30 "
            "--N-max 40"]
    # the normaliser in the level's integer pass: deep precision, a shift,
    # a twisted integral, and a bosonic normaliser that vanishes at A
    out += ["integrate --kind bosonic --p 3 --q 22 --f bracket_pow:3 --A 128 --stability 6 "
            "--N-max 8",
            "integrate --p 5 --q 41 --f shifted_bracket_pow:2:1 --A 128 --stability 4",
            "numbers --kind K_chi --n 0..3 --chi 3:1 --q padic:5:41:128 --method integral",
            "integrate --kind bosonic --p 3 --q 4 --f bracket_pow:2 --A 6 --stability 5 "
            "--N-max 8"]
    # closed forms with a shift, in both limits of the geometric-sum builder
    out += ["polynomials --kind beta_poly --n 0..8 --x 2 --q padic:5:6:32",
            "polynomials --kind K_poly --n 0..8 --x -3 --q padic:3:4:32",
            "polynomials --kind beta_poly --n 0..6 --x -1 --q 2/5"]
    return out


def digest(command: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    payload = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(payload.encode()).hexdigest()


def test_cli_digests_match_the_recording():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(commands())
    moved = [c for c in commands() if digest(c) != recorded[c]]
    assert not moved, f"output changed for: {moved}"


def test_commands_and_suites_meet_only_cyclotomic_denominators(monkeypatch):
    # every denominator (and every numerator taken a reciprocal of) that the
    # recorded commands and the ten verify suites meet is c w^a prod Phi_d^e,
    # so NonCyclotomicDenominator is never raised on them
    seen, factors = [], algebra._cyclotomic_factors
    monkeypatch.setattr(algebra, "_cyclotomic_factors",
                        lambda ints: seen.append(factors(ints)) or seen[-1])
    for command in commands():
        digest(command)
    assert all(result.passed for result in verify.run_suites())
    assert seen and None not in seen


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({c: digest(c) for c in commands()}, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(commands())} digests to {DIGESTS}\n")
