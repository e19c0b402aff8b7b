"""Job lists of the benchmark workloads.

`build(workload, seed, workdir)` draws a workload's parameters from the seed,
computes every reference value, and returns the jobs in the order they run.
Importing this module imports the engine, so set-up time is measured from
before that import.

Each job has a `run` callable that calls the engine and a `check` callable
that compares the output with `job.ref`.  Engine functions are always looked
up through their module at call time (`qn.k_number`, never a bare imported
name), so the traced run sees every call the jobs make.

Index sets are fixed per workload; the seed draws evaluation points, q,
shifts, characters, small options of equal cost and the job order, so runs
at different seeds do nearly equal work.  Each job list has an odd length,
so the median job latency of a run falls inside one job's samples.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from qvolkenborn import characters as qchars
from qvolkenborn import cli as qcli
from qvolkenborn import padic as qpadic
from qvolkenborn import qmeasure as qm
from qvolkenborn import qnumbers as qn
from qvolkenborn import series as qs

import bench_oracles as oracle


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], "str | None"]
    ref: dict = field(default_factory=dict)


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    if workload == "symbolic":
        return _symbolic(random.Random(seed))
    if workload == "padic":
        return _padic(random.Random(seed))
    if workload == "verify-cli":
        return _verify_cli(random.Random(seed), workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got}, want {want}"


def _check_rf(num, den, w: int, at_w: Fraction, at_one: Fraction | None = None) -> str | None:
    """A symbolic value, as numerator and denominator coefficients, against
    its closed form at w and its q -> 1 limit."""
    got = oracle.evaluate_fraction(num, den, w)
    if got != at_w:
        return _mismatch(f"value at w={w}", got, at_w)
    if at_one is not None:
        lim = oracle.evaluate_fraction(num, den, 1)
        if lim != at_one:
            return _mismatch("q -> 1 limit", lim, at_one)
    return None


def _check_value(v, r) -> str | None:
    """An engine RationalFunction against ref {"w", "at_w"[, "at_one"]}."""
    return _check_rf(v.num.coeffs, v.den.coeffs, r["w"], r["at_w"], r.get("at_one"))


def _padic_json(data: dict) -> SimpleNamespace:
    unit = int(data["unit"])
    return SimpleNamespace(p=int(data["p"]), v=int(data["v"]),
                           unit=None if unit == 0 else unit, prec=int(data["A"]))


def _claimed(value) -> int:
    return value.v if value.unit is None else value.v + value.prec


def _padic_q(q: int, p: int, digits: int):
    return qm.QDescriptor.padic(qpadic.padic_from_rational(q, p, digits))


def _admissible_q(rng: random.Random, p: int) -> int:
    """q = 1 + p r with p not dividing r: v_p(q - 1) is exactly 1, so the
    integrals converge at the same level for every q the seed can draw."""
    return 1 + p * rng.choice([r for r in range(1, 13) if r % p])


def _quadratic_character(prime: int):
    """The Legendre-symbol character mod an odd prime (exponent (p-1)/2 of
    the cyclic unit group) and its value table."""
    chi = qchars.make_character(prime, ((prime - 1) // 2,))
    table = [0] + [1 if pow(a, (prime - 1) // 2, prime) == 1 else -1 for a in range(1, prime)]
    return chi, table


# ---------------------------------------------------------------------------
# symbolic: exact rational-function tables at high index
# ---------------------------------------------------------------------------

def _symbolic(rng: random.Random) -> list[Job]:
    w = rng.randint(2, 9)
    sym = qm.QDescriptor.symbolic()
    euler = oracle.euler_numbers(40)
    bern = oracle.bernoulli_numbers(40)
    jobs = []

    # closed numbers up to n = 40, against E_n / B_n at q -> 1
    for n in (16, 24, 32, 40):
        jobs.append(Job(f"k_number n={n}",
                        lambda n=n: qn.k_number(n, sym),
                        _check_value,
                        {"w": w, "at_w": oracle.k_poly(n, 0, w), "at_one": euler[n]}))
        jobs.append(Job(f"beta_number n={n}",
                        lambda n=n: qn.beta_number(n, sym),
                        _check_value,
                        {"w": w, "at_w": oracle.beta_poly(n, 0, w), "at_one": bern[n]}))

    # closed vs expansion at fractional x, root orders 2 and 3
    def forms(kind: str, n: int, x: Fraction, root: int) -> Job:
        name = "k_polynomial" if kind == "K" else "beta_polynomial"
        ref_fn = oracle.k_poly if kind == "K" else oracle.beta_poly
        desc = qm.QDescriptor.symbolic(root)

        def run():
            f = getattr(qn, name)
            return f(n, x, desc, "closed"), f(n, x, desc, "expansion")

        def check(v, r):
            if not v[0] == v[1]:
                return "closed form != expansion"
            return _check_value(v[0], r)

        return Job(f"{name} forms n={n} x={x} D={root}", run, check,
                   {"w": w, "at_w": ref_fn(n, x, w, root)})

    half = rng.choice((Fraction(1, 2), Fraction(3, 2)))
    jobs.append(forms("K", 11, half, 2))
    jobs.append(forms("beta", 11, half, 2))
    jobs.append(Job(f"k_polynomial closed n=20 x={half} D=2",
                    lambda: qn.k_polynomial(20, half, qm.QDescriptor.symbolic(2)),
                    _check_value,
                    {"w": w, "at_w": oracle.k_poly(20, half, w, 2)}))
    third = rng.choice((Fraction(1, 3), Fraction(2, 3)))
    jobs.append(forms("K", 9, third, 3))
    jobs.append(forms("beta", 9, 1 - third, 3))

    # the odd-m distribution relation
    for m, n in ((5, 14), (7, 12)):
        x = rng.choice((0, 1, 2))

        def check_dist(v, r):
            if not v[0] == v[1]:
                return "k_polynomial != k_distribution_rhs"
            return _check_value(v[0], r)

        jobs.append(Job(f"k_distribution_rhs m={m} n={n} x={x}",
                        lambda m=m, n=n, x=x: (qn.k_polynomial(n, x, sym),
                                               qn.k_distribution_rhs(n, x, m, sym)),
                        check_dist, {"w": w, "at_w": oracle.k_poly(n, x, w)}))

    # character twists: two quadratic characters and one of order 4
    for prime, n in ((5, 10), (7, 9)):
        chi, table = _quadratic_character(prime)
        weights = oracle.twisted_weights(n, prime, w)
        jobs.append(Job(f"k_chi {chi.id_string} n={n}",
                        lambda chi=chi, n=n: qn.k_chi(n, chi, sym),
                        _check_value,
                        {"w": w, "at_w": sum(c * a for c, a in zip(table, weights))}))
    quartic = qchars.make_character(5, (rng.choice((1, 3)),))
    weights = oracle.twisted_weights(7, 5, w)
    want = [Fraction(0)] * 2
    for a in range(5):
        for i, c in enumerate(_cyclotomic_vector(qchars.character_value(quartic, a))):
            want[i] += c * weights[a]
    jobs.append(Job(f"k_chi {quartic.id_string} n=7",
                    lambda: qn.k_chi(7, quartic, sym),
                    _check_cyclotomic, {"w": w, "at_w": want}))

    # the generating function: n! coeff_n against K_n for every n <= T
    jobs.append(Job("f_q_series T=13", lambda: _series_job(sym, 13), _check_series,
                    {"w": w, "at_w": [oracle.k_poly(n, 0, w) for n in range(14)],
                     "at_one": euler[:14]}))
    rng.shuffle(jobs)
    return jobs


def _cyclotomic_vector(value) -> list[Fraction]:
    """A character value (rational, or a cyclotomic element with constant
    coefficients) as its coefficient vector in the basis 1, z, z^2, ..."""
    if isinstance(value, Fraction):
        return [value]
    return [oracle.evaluate_fraction(c.num.coeffs, c.den.coeffs, 1) for c in value.coeffs]


def _check_cyclotomic(value, ref) -> str | None:
    got = [oracle.evaluate_fraction(c.num.coeffs, c.den.coeffs, ref["w"]) for c in value.coeffs]
    want = list(ref["at_w"])
    while want and want[-1] == 0:
        want.pop()
    if got != want:
        return _mismatch(f"coefficients at w={ref['w']}", got, want)
    return None


def _series_job(sym, order: int):
    gf = qs.f_q_series(sym, order)
    return gf, qs.scaled_coefficient(gf, order), qn.k_number(order, sym)


def _check_series(value, ref) -> str | None:
    gf, scaled, k_top = value
    if not scaled == k_top:
        return "n! coeff_T != K_T"
    for n, (at_w, at_one) in enumerate(zip(ref["at_w"], ref["at_one"])):
        c = gf[n]
        scale = math.factorial(n)
        got = oracle.evaluate_fraction(c.num.coeffs, c.den.coeffs, ref["w"]) * scale
        if got != at_w:
            return _mismatch(f"n! coeff_{n} at w={ref['w']}", got, at_w)
        lim = oracle.evaluate_fraction(c.num.coeffs, c.den.coeffs, 1) * scale
        if lim != at_one:
            return _mismatch(f"n! coeff_{n} at q -> 1", lim, at_one)
    return None


# ---------------------------------------------------------------------------
# padic: certified p-adic integration
# ---------------------------------------------------------------------------

def _padic(rng: random.Random) -> list[Job]:
    q5 = _admissible_q(rng, 5)
    q3 = _admissible_q(rng, 3)
    jobs = []

    def check_claimed(v, r):
        return oracle.padic_agrees(v, r["value"], _claimed(v))

    # level Riemann sums: 5^6 and 3^8 terms, at 32 and 128 digits
    sums = [("fermionic", 5, q5, 6, 3, 0, 32),
            ("fermionic", 5, q5, 6, 3, 1, 128),
            ("bosonic", 3, q3, 8, 3, 1, 32),
            ("bosonic", 3, q3, 8, 2, 0, 128)]
    for kind, p, q, level, n, x, digits in sums:
        desc = _padic_q(q, p, digits)
        spec = qm.MeasureSpec(kind, desc, qpadic.ProfiniteDomain(p))
        jobs.append(Job(f"riemann_sum {kind} p={p} N={level} [{x}+y]^{n} q={q} A={digits}",
                        lambda spec=spec, desc=desc, n=n, x=x, level=level:
                            qm.riemann_sum(spec, qm.bracket_power(desc, n, x), level),
                        check_claimed,
                        {"value": oracle.finite_sum(kind, n, x, q, p, p ** level, digits + 32)}))

    # certified limits; the (n, x) options are those where every drawable q
    # reaches the target at the same level, so the work does not depend on
    # the seed
    limits = [("fermionic", 5, q5, rng.choice(((1, 0), (2, 1))), 4, 6, 32),
              ("bosonic", 5, q5, rng.choice(((1, 0), (2, 1), (3, 0))), 4, 6, 128),
              ("fermionic", 3, q3, rng.choice(((1, 0), (2, 1), (4, 2))), 6, 8, 32),
              ("bosonic", 3, q3, rng.choice(((1, 0), (3, 0))), 6, 8, 128),
              ("fermionic", 5, q5, rng.choice(((1, 0), (2, 1))), 4, 6, 128)]
    for kind, p, q, (n, x), target, n_max, digits in limits:
        desc = _padic_q(q, p, digits)
        spec = qm.MeasureSpec(kind, desc, qpadic.ProfiniteDomain(p))
        closed = oracle.k_poly(n, x, q) if kind == "fermionic" else oracle.beta_poly(n, x, q)

        def check_limit(v, r):
            if v.stability < r["target"]:
                return f"stability {v.stability} below target {r['target']}"
            return oracle.padic_agrees(v.value, r["value"], v.stability)

        jobs.append(Job(f"integrate {kind} p={p} [{x}+y]^{n} q={q} A={digits} stability={target}",
                        lambda spec=spec, desc=desc, n=n, x=x, target=target, n_max=n_max:
                            qm.integrate(spec, qm.bracket_power(desc, n, x), target, n_max),
                        check_limit, {"value": closed, "target": target}))

    # the quadratic character mod 3 over the d = 3 domain, and closed values
    chi, table = _quadratic_character(3)
    for n, digits in ((1, 32), (3, 128)):
        desc = _padic_q(q5, 5, digits)
        want = sum(c * a for c, a in zip(table, oracle.twisted_weights(n, 3, q5)))
        jobs.append(Job(f"k_chi integral {chi.id_string} n={n} q={q5} A={digits}",
                        lambda desc=desc, n=n: qn.k_chi(n, chi, desc, "integral",
                                                        stability=4, n_max=7),
                        lambda v, r: oracle.padic_agrees(v, r["value"], 4),
                        {"value": want}))
    # closed-form twisted tables, n = 0..5
    for prime, p, q in ((3, 5, q5), (7, 3, q3)):
        chi_p, table_p = _quadratic_character(prime)
        desc = _padic_q(q, p, 32)

        def check_table(values, r):
            for n, (v, want) in enumerate(zip(values, r["values"])):
                reason = oracle.padic_agrees(v, want, _claimed(v))
                if reason:
                    return f"n={n}: {reason}"
            return None

        jobs.append(Job(f"k_chi closed {chi_p.id_string} n=0..5 p={p} q={q}",
                        lambda chi_p=chi_p, desc=desc: [qn.k_chi(n, chi_p, desc)
                                                        for n in range(6)],
                        check_table,
                        {"values": [sum(c * a for c, a in
                                        zip(table_p, oracle.twisted_weights(n, prime, q)))
                                    for n in range(6)]}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify-cli: the command users run
# ---------------------------------------------------------------------------

def _verify_cli(rng: random.Random, workdir: str) -> list[Job]:
    """`qvolk verify`, then SMALL_DRAWS draws of the small commands (each
    draw with its own w, q and rational q), shuffled together."""
    small = [command for _ in range(SMALL_DRAWS) for command in _small_commands(rng)]
    rng.shuffle(small)
    jobs = [_cli_job("qvolk verify", ["verify"], _check_verify, {"suites": 10}, workdir)]
    for argv, check, ref in small:
        jobs.append(_cli_job("qvolk " + " ".join(argv), argv, check, ref, workdir))
    return jobs


SMALL_DRAWS = 3


def _rows_check(per_row):
    """Check a table command: one reference per row, compared by per_row."""
    def check(payload, ref):
        rows = payload["rows"]
        if len(rows) != len(ref["rows"]):
            return _mismatch("row count", len(rows), len(ref["rows"]))
        for row, want in zip(rows, ref["rows"]):
            reason = per_row(row, want, ref)
            if reason:
                return f"row {row.get('n')}: {reason}"
        return None
    return check


_sym_rows = _rows_check(lambda row, want, ref: _check_rf(
    row["value"]["num"], row["value"]["den"], ref["w"], *want))
_exact_rows = _rows_check(lambda row, want, ref: None if Fraction(row["value"]) == want
                          else _mismatch("value", row["value"], want))
_padic_rows = _rows_check(lambda row, want, ref: oracle.padic_agrees(
    _padic_json(row["value"]), want, _claimed(_padic_json(row["value"]))))
_partial_rows = _rows_check(lambda row, want, ref: None
                            if abs(Fraction(row["value"]) - want) <= Fraction(row["tail_bound"])
                            else _mismatch("partial sum outside its tail bound",
                                           row["value"], want))


def _small_commands(rng: random.Random) -> list[tuple]:
    """(argv, check, ref) of the small commands, at one draw of w, the
    p-adic q's and the rational q; every draw does the same amount of work."""
    w = rng.randint(2, 9)
    q5 = _admissible_q(rng, 5)
    q3 = _admissible_q(rng, 3)
    rational = rng.choice((Fraction(2, 5), Fraction(3, 5)))
    euler = oracle.euler_numbers(24)
    chi, table = _quadratic_character(7)

    def rows(values):
        return {"rows": values, "w": w}

    return [
        (["numbers", "--kind", "K", "--n", "0..17", "--q", "sym"], _sym_rows,
         rows([(oracle.k_poly(n, 0, w), euler[n]) for n in range(18)])),
        (["numbers", "--kind", "beta", "--n", "0..17", "--q", "sym"], _sym_rows,
         rows([(oracle.beta_poly(n, 0, w), None) for n in range(18)])),
        (["numbers", "--kind", "K", "--n", "0..20", "--q", str(rational)], _exact_rows,
         rows([oracle.k_poly(n, 0, rational) for n in range(21)])),
        (["numbers", "--kind", "beta", "--n", "0..20", "--q", str(rational)], _exact_rows,
         rows([oracle.beta_poly(n, 0, rational) for n in range(21)])),
        (["numbers", "--kind", "K", "--n", "0..12", "--q", f"padic:5:{q5}:32"], _padic_rows,
         rows([oracle.k_poly(n, 0, q5) for n in range(13)])),
        (["numbers", "--kind", "beta", "--n", "0..12", "--q", f"padic:3:{q3}:128"], _padic_rows,
         rows([oracle.beta_poly(n, 0, q3) for n in range(13)])),
        (["numbers", "--kind", "K_chi", "--n", "0..4", "--q", "sym", "--chi", chi.id_string],
         _sym_rows,
         rows([(sum(c * a for c, a in zip(table, oracle.twisted_weights(n, 7, w))), None)
               for n in range(5)])),
        (["polynomials", "--kind", "K_poly", "--n", "0..8", "--x", "1/2", "--q", "sym:2"],
         _sym_rows, rows([(oracle.k_poly(n, Fraction(1, 2), w, 2), None) for n in range(9)])),
        (["polynomials", "--kind", "beta_poly", "--n", "0..5", "--x", "2", "--q", "sym",
          "--form", "expansion"],
         _sym_rows, rows([(oracle.beta_poly(n, 2, w), None) for n in range(6)])),
        (["polynomials", "--kind", "K_poly", "--n", "0..4", "--x", "1/3", "--q", "sym:3",
          "--form", "expansion"],
         _sym_rows, rows([(oracle.k_poly(n, Fraction(1, 3), w, 3), None) for n in range(5)])),
        (["characters", "--f", "15"], _check_characters, {"modulus": 15, "phi": 8}),
        (["characters", "--f", "21"], _check_characters, {"modulus": 21, "phi": 12}),
        (["series", "--gf", "euler", "--T", "24"], _exact_rows, rows(euler)),
        (["series", "--gf", "Fq", "--q", "sym", "--T", "6"], _sym_rows,
         rows([(oracle.k_poly(n, 0, w), euler[n]) for n in range(7)])),
        (["series", "--gf", "Kpartial", "--q", str(rational), "--k-max", "4",
          "--n-terms", "160"], _partial_rows,
         rows([oracle.k_poly(k, 0, rational) for k in range(5)])),
        (["integrate", "--kind", "fermionic", "--f", "bracket_pow:2", "--p", "3",
          "--q", str(q3), "--stability", "5", "--N-max", "8"],
         _check_integrate, {"value": oracle.k_poly(2, 0, q3)}),
        (["integrate", "--kind", "bosonic", "--f", "bracket_pow:1", "--p", "5",
          "--q", str(q5), "--A", "128", "--stability", "3", "--N-max", "6"],
         _check_integrate, {"value": oracle.beta_poly(1, 0, q5)}),
    ]


def _cli_job(name: str, argv: list[str], check_payload, ref: dict, workdir: str) -> Job:
    path = os.path.join(workdir, "report.json")

    def run():
        code = qcli.main(argv + ["--output", path])
        with open(path) as handle:
            text = handle.read()
        os.remove(path)
        return code, text

    def check(value, r):
        code, text = value
        if code != 0:
            return f"exit code {code}"
        return check_payload(json.loads(text), r)

    return Job(name, run, check, ref)


def _check_verify(payload, ref) -> str | None:
    if payload.get("all_passed") is not True:
        failed = [s["suite"] for s in payload["suites"] if not s["passed"]]
        return f"suites failed: {failed}"
    if len(payload["suites"]) != ref["suites"]:
        return _mismatch("suite count", len(payload["suites"]), ref["suites"])
    return None


def _check_characters(payload, ref) -> str | None:
    rows = payload["rows"]
    if len(rows) != ref["phi"]:
        return _mismatch("character count", len(rows), ref["phi"])
    for row in rows:
        if len(row["values"]) != ref["modulus"] or ref["modulus"] % row["conductor"]:
            return f"bad row for {row['chi']}"
    return None


def _check_integrate(payload, ref) -> str | None:
    value = _padic_json(payload["value"])
    return oracle.padic_agrees(value, ref["value"], payload["stability"])
