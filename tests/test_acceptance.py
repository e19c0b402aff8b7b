"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances (exact equality, p-adic digit counts, tail bounds) and
runtime budgets are asserted as stated; nothing is deferred to calibration.
"""

import time
from fractions import Fraction

from qvolkenborn.padic import ProfiniteDomain, padic_from_rational
from qvolkenborn.qmeasure import (FERMIONIC, MeasureSpec, QDescriptor,
                                  bracket_power, integrate, riemann_sum)
from qvolkenborn.qnumbers import classical_bernoulli, k_number
from qvolkenborn.series import f_q_coefficient_partial
from qvolkenborn.verify import (suite_beta_forms, suite_char_twist,
                                suite_distribution, suite_finite_sum,
                                suite_genfunc, suite_kpoly_forms,
                                suite_limits, suite_measure)

F = Fraction


def _report(number: int, label: str, passed: bool, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} ({elapsed:.2f}s)")


def _run(number, label, suite_fn, budget=None, **kwargs):
    start = time.monotonic()
    suite = suite_fn(**kwargs)
    elapsed = time.monotonic() - start
    ok = suite.passed and (budget is None or elapsed < budget)
    _report(number, label, ok, elapsed)
    failures = [c for c in suite.cases if not c.passed]
    assert suite.passed, f"failing cases: {failures[:5]}"
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
    return suite


def test_criterion_01_polynomial_forms_identity():
    """Closed vs expansion forms of the q-Euler polynomials: exact symbolic
    equality for n <= 8, x in {0, 1, 2, 1/2, 1/3}, under 5 s."""
    _run(1, "q-Euler polynomial closed == expansion", suite_kpoly_forms,
         budget=5.0, n_max=8)


def test_criterion_02_distribution_relation():
    """Odd-m distribution relation, exact symbolic equality for
    m in {1, 3, 5}, n <= 6, x in {0, 1/3}, under 10 s."""
    _run(2, "distribution relation (m = 1, 3, 5)", suite_distribution,
         budget=10.0, n_max=6, ms=(1, 3, 5))


def test_criterion_03_finite_level_identity():
    """Bosonic and fermionic Riemann sums at p = 3, N in {1, 2}, n <= 4, of
    [1+y]^n over Z_3 and twisted by the quadratic character mod 3 over
    Z_3 x Z/5: the symbolic sum at w = 4 agrees with the sum at the 3-adic
    q = 4 to every digit the 3-adic sum claims."""
    _run(3, "finite-level sums across readings of q", suite_finite_sum, n_max=4)


def test_criterion_04_q_to_one_limits():
    """q -> 1 limits equal the classical Euler numbers for n <= 12 (series
    oracle), with the q-Bernoulli limits compared against the Bernoulli
    numbers for n <= 10 and reported."""
    suite = _run(4, "q -> 1 limits (Euler n <= 12, Bernoulli n <= 10)",
                 suite_limits, n_max=12)
    beta_rows = [c for c in suite.cases if c.params.get("check") == "bernoulli"]
    assert len(beta_rows) == 11
    bernoulli = classical_bernoulli(10)
    for row in beta_rows:
        n = row.params["n"]
        print(f"    beta limit n={n}: {row.params['beta_limit']} "
              f"vs B_{n} = {bernoulli[n]} -> {row.detail}")


def test_criterion_05_generating_function_coefficients():
    """n! times the deformed generating-function coefficients equal the
    q-Euler numbers as reduced symbolic elements for n <= 10."""
    _run(5, "generating-function coefficients n <= 10", suite_genfunc, n_max=10)


def test_criterion_06_partial_sums_within_tail_bound():
    """Partial sums of the alternating number series at q = 1/2 with 200
    terms land within their reported tail bound (< 2^-100) of the closed
    form, for k <= 6, in exact rational arithmetic, under 2 s."""
    start = time.monotonic()
    sym = QDescriptor.symbolic()
    ok = True
    for k in range(7):
        ps = f_q_coefficient_partial(k, F(1, 2), 200)
        target = k_number(k, sym).evaluate(F(1, 2))
        ok = ok and abs(ps.value - target) <= ps.tail_bound
        ok = ok and ps.tail_bound < F(1, 2 ** 100)
    elapsed = time.monotonic() - start
    _report(6, "alternating partial sums within tail bound", ok and elapsed < 2.0,
            elapsed)
    assert ok
    assert elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds 2s"


def test_criterion_07_padic_convergence():
    """Fermionic integral of [y]^3 at p = 5, q = 6: stability 6 within
    N <= 8, value equal to the symbolic number at q = 6 modulo 5^6,
    nondecreasing difference valuations of the level sums up to N_used,
    under 30 s."""
    start = time.monotonic()
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    result = integrate(spec, bracket_power(qd, 3), 6, 8)
    target = padic_from_rational(k_number(3, QDescriptor.symbolic()).evaluate(6), 5, 28)
    sums = [riemann_sum(spec, bracket_power(qd, 3), n) for n in range(1, result.n_used + 1)]
    trace = [(b - a).valuation for a, b in zip(sums, sums[1:])]
    ok = (result.stability >= 6
          and (result.value - target).valuation >= 6
          and trace == sorted(trace))
    elapsed = time.monotonic() - start
    _report(7, f"p-adic convergence (N_used={result.n_used}, trace={trace})",
            ok and elapsed < 30.0, elapsed)
    assert ok
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_08_character_twist_agreement():
    """Twisted numbers for the quadratic character mod 3 at p = 5, q = 6:
    the Riemann-sum integral over the conductor domain (N <= 7) agrees with
    the closed form modulo 5^5 for n <= 4, under 60 s."""
    _run(8, "character twist: integral == closed mod 5^5", suite_char_twist,
         budget=60.0, n_max=4)


def test_criterion_09_measure_properties():
    """Ball-measure additivity and total mass (exact, both kinds,
    p in {3, 5}, d in {1, 3}, N <= 3) and the p-adic limit of the fermionic
    ball weights at increasing precision."""
    _run(9, "measure additivity / total mass / fermionic limit", suite_measure)


def test_criterion_10_beta_form_consistency():
    """Both displayed routes to the q-Bernoulli polynomials agree exactly
    for n <= 6, x in {0, 1, 1/2}, with the frozen reduced forms of the
    first two numbers."""
    _run(10, "q-Bernoulli form consistency", suite_beta_forms, n_max=6)
