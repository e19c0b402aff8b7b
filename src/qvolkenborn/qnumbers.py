"""The q-deformed number and polynomial families and their classical limits.

Bosonic moments give the q-Bernoulli numbers beta_m and polynomials
beta_n(x); fermionic moments give the q-Euler-type numbers K_n and
polynomials K_n(x), their odd-m distribution relation, and the
Dirichlet-character twists.  Each family has a closed form and at least one
independent route (moment expansion or p-adic integral), and the routes are
cross-checked by the verification suites.

The distribution relation and the twists sum base-q^m polynomials at the
arguments (a+x)/m; their closed forms merge into the q-exponents a + (a+x)k,
so each is one closed-form kernel call (phi(L) calls for a character of
order L > 2) in every reading of q, with integer exponents for integer x.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import CyclotomicElement
from .characters import DirichletCharacter, character_value, euler_phi
from .padic import DEFAULT_BALL_CAP, ProfiniteDomain
from .qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor,
                       binomial_fraction_sum, bracket_power,
                       character_twisted_power, integrate)

FORMS = ("closed", "expansion", "integral")


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {FORMS}")


def _twisted_sum(n: int, x: Fraction, m: int, q: QDescriptor, weights):
    """([m]^n/[m]_-) sum_a weights[a] (-1)^a q^a K(base q^m, (a+x)/m), with the
    base-change prefactors cancelled analytically against the inner closed
    forms, leaving (1+q)(1-q)^-n sum_k (...)/(1 + q^(m(k+1)))."""
    numerators = [{a + (a + x) * k: weights[a] * (-1) ** (a + k) * math.comb(n, k)
                   for a in range(m) if weights[a]} for k in range(n + 1)]
    return binomial_fraction_sum(q, numerators, 1, m, [(1, 1, 1), (-1, 1, -n)])


def beta_number(m: int, q: QDescriptor):
    """The m-th q-Bernoulli number: the bosonic moment of [t]^m, the x = 0
    case of :func:`beta_polynomial`.

    >>> print(beta_number(1, QDescriptor.symbolic()))
    (-1)/(1 + q)
    """
    return beta_polynomial(m, 0, q)


def beta_polynomial(n: int, x: Fraction | int, q: QDescriptor, form: str = "closed",
                    stability: int = 5, n_max: int = 8, cap: int = DEFAULT_BALL_CAP):
    """The q-Bernoulli polynomial at x, by the selected route.

    "closed": alternating sum with q^(x i) weights over the power moments
    (i+1)/[i+1] = (i+1)(1-q)/(1-q^(i+1)), one power of (1-q) cancelled
    against the prefactor; "expansion": binomial expansion over beta numbers
    and [x] powers; "integral": the bosonic p-adic integral of [x+t]^n
    (padic q only).
    """
    _check_form(form)
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = Fraction(x)
    if form == "closed":
        numerators = [{x * i: (-1) ** i * math.comb(n, i) * (i + 1)}
                      for i in range(n + 1)]
        return binomial_fraction_sum(q, numerators, -1, 1, [(-1, 1, 1 - n)])
    if form == "expansion":
        bx = q.bracket(x)
        acc = 0
        for i in range(n + 1):
            term = (q.from_rational(math.comb(n, i)) * q.qpow(i * x)
                    * beta_number(i, q) * bx ** (n - i))
            acc = acc + term
        return acc
    spec = MeasureSpec(BOSONIC, q, ProfiniteDomain(q.prime))
    return integrate(spec, bracket_power(q, n, x), stability, n_max, cap).value


def k_number(k: int, q: QDescriptor):
    """The k-th fermionic q-Euler number: [2] (1/(1-q))^k times the
    alternating binomial sum of 1/(1+q^(l+1)), the x = 0 case of
    :func:`k_polynomial`.

    >>> print(k_number(1, QDescriptor.symbolic()))
    (-q)/(1 + q^2)
    >>> k_number(1, QDescriptor.symbolic()).limit_at_one()
    Fraction(-1, 2)
    """
    return k_polynomial(k, 0, q)


def k_polynomial(n: int, x: Fraction | int, q: QDescriptor, form: str = "closed",
                 stability: int = 5, n_max: int = 8, cap: int = DEFAULT_BALL_CAP):
    """The fermionic q-Euler polynomial at x, by the selected route.

    "closed" and "expansion" agree identically as reduced elements;
    "integral" is the fermionic p-adic integral of [x+y]^n (padic q only).
    """
    _check_form(form)
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = Fraction(x)
    if form == "closed":
        numerators = [{x * k: (-1) ** k * math.comb(n, k)} for k in range(n + 1)]
        return binomial_fraction_sum(q, numerators, 1, 1, [(1, 1, 1), (-1, 1, -n)])
    if form == "expansion":
        bx = q.bracket(x)
        acc = 0
        for m in range(n + 1):
            term = (q.from_rational(math.comb(n, m)) * bx ** (n - m)
                    * q.qpow(m * x) * k_number(m, q))
            acc = acc + term
        return acc
    spec = MeasureSpec(FERMIONIC, q, ProfiniteDomain(q.prime))
    return integrate(spec, bracket_power(q, n, x), stability, n_max, cap).value


def k_distribution_rhs(n: int, x: Fraction | int, m: int, q: QDescriptor):
    """Right side of the odd-m distribution relation for the q-Euler
    polynomials: ([m]^n / [m]_-) times the alternating q^a-weighted sum of
    the base-q^m polynomials at the shifted arguments (a+x)/m, computed as
    one :func:`_twisted_sum` with unit weights.

    Symbolically this is identical to k_polynomial(n, x, q); verifying that
    identity is the point of computing both sides independently.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"the distribution relation needs odd m, got {m}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _twisted_sum(n, Fraction(x), m, q, [1] * m)


def k_chi(n: int, chi: DirichletCharacter, q: QDescriptor, method: str = "closed",
          stability: int = 5, n_max: int = 8, cap: int = DEFAULT_BALL_CAP):
    """Character-twisted q-Euler number attached to chi.

    "closed": the finite sum over residues a of chi(a) (-1)^a q^a times the
    base-q^f polynomial at a/f, prefixed by [f]^n/[f]_-.  With
    chi(a) = sum_i c_i(a) zeta^i (integer c_i, zeta a primitive L-th root of
    unity, i < phi(L)) it is sum_i zeta^i :func:`_twisted_sum` with weights
    c_i: a field element for L <= 2, else a :class:`CyclotomicElement`.
    "integral": the fermionic integral of chi(y)[y]^n over the
    conductor-indexed profinite domain (padic q, quadratic or trivial chi only).
    """
    if method not in ("closed", "integral"):
        raise ValueError(f"unknown method {method!r}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    f, order = chi.modulus, chi.value_order
    if f % 2 == 0:
        raise ValueError("the twisted numbers need an odd conductor")
    if method == "closed":
        if q.mode == "padic" and order > 2:
            raise ValueError(
                "p-adic twisted numbers need character values in {0, +-1}")
        values = [character_value(chi, a) for a in range(f)]
        if order <= 2:
            return _twisted_sum(n, Fraction(0), f, q, values)
        weights = [[0] * f for _ in range(euler_phi(order))]
        for a, value in enumerate(values):
            for i, c in enumerate(value.coeffs if value else ()):  # 0 off the units
                weights[i][a] = int(c.evaluate(0))
        return CyclotomicElement(order, [_twisted_sum(n, Fraction(0), f, q, w)
                                         for w in weights])
    spec = MeasureSpec(FERMIONIC, q, ProfiniteDomain(q.prime, f))
    integrand = character_twisted_power(q, n, chi)
    return integrate(spec, integrand, stability, n_max, cap).value


def classical_euler(n_max: int) -> list[Fraction]:
    """E_0 .. E_n_max by inverting the shifted exponential series."""
    from .series import euler_gf, scaled_coefficient

    gf = euler_gf(n_max)
    return [scaled_coefficient(gf, n) for n in range(n_max + 1)]


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max from the series of t/(e^t - 1)."""
    from .series import TruncatedSeries, scaled_coefficient, series_inverse

    expm1_over_t = TruncatedSeries(
        [Fraction(1, math.factorial(n + 1)) for n in range(n_max + 1)])
    gf = series_inverse(expm1_over_t)
    return [scaled_coefficient(gf, n) for n in range(n_max + 1)]
