"""The q-deformed number and polynomial families and their classical limits.

Every family is one moment of a q-Volkenborn integral, chi(y) [x+y]^n under
the bosonic or the fermionic measure with chi trivial or a Dirichlet
character, and one value function, :func:`family_value`, computes each by a
closed form and by independent routes (moment expansion, p-adic integral)
that the verification suites cross-check.  Bosonic moments give the
q-Bernoulli numbers and polynomials beta_n(x), fermionic ones the
q-Euler-type K_n(x) and the twists K_{n,chi}: :func:`k_number`,
:func:`beta_number`, :func:`k_polynomial`, :func:`beta_polynomial` and
:func:`k_chi` are each one call of it.  ``form`` names the route in each;
only :func:`k_chi` also passes on the integral route's tuning.
:func:`k_distribution_rhs` is the odd-m distribution relation.

Every closed value is one :func:`~qvolkenborn.qmeasure.geometric_sum` in
the p-adic limit: K_n(x) and beta_n(x) take the table (1,), the odd-m
distribution relation the table (1,) * m (its base-q^m polynomials at the
arguments (a+x)/m merge into the q-exponents a + (a+x)k), and a twist one
table per integer row of its character (phi(L) calls for order L > 2), with
integer exponents for integer x in every reading of q.

The closed values are memoized per (q, kind, n, x, weights) in one
512-entry LRU cache, :func:`_closed`, under :func:`family_value`: the
expansion routes read every number K_0 .. K_n, so a loop over n would
otherwise derive each number O(n) times.  Values are immutable, so sharing
them is safe; the expansion and integral forms and the level sums are not
cached.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .algebra import CyclotomicElement, InputError, root_of_unity_rows
from .characters import DirichletCharacter
from .padic import ProfiniteDomain, _int_valuation
from .qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor, bracket_power,
                       geometric_sum, integrate)
from .series import TruncatedSeries, euler_gf, scaled_coefficient, series_inverse

FORMS = ("closed", "expansion", "integral")


@functools.lru_cache(maxsize=512)
def _closed(q: QDescriptor, kind: str, n: int, x: Fraction | int,
            weights: tuple[int, ...]):
    """The memoized p-adic limit of :func:`geometric_sum`."""
    return geometric_sum(q, kind, n, x, weights)


def family_value(kind: str, n: int, x: Fraction | int, q: QDescriptor,
                 chi: DirichletCharacter | None = None, form: str = "closed",
                 stability: int = 5, n_max: int = 8):
    """The moment of chi(y) [x+y]^n (chi None: untwisted) under the measure
    of that kind at q, by the route ``form``.

    "closed": with chi(a) = zeta^k_a = sum_i r_i(k_a) zeta^i (zeta a
    primitive L-th root of unity, r(k) the integer row of x^k mod Phi_L,
    i < phi(L)) it is sum_i zeta^i :func:`geometric_sum` with the table
    r_i(k_a), one table (1,) untwisted: a field element for L <= 2, else a
    :class:`CyclotomicElement`.  "expansion" (untwisted): sum_i C(n,i)
    q^(ix) number_i [x]^(n-i) over the numbers of that kind.  "integral":
    :func:`integrate` of :func:`bracket_power` over Z_p x Z/d (d the p-free
    part of chi's modulus; padic q, chi quadratic or None) to ``stability``
    by level ``n_max``.  A twist of order L > 2 is refused at p-adic q on
    every route, before the route is taken.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {FORMS}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    order = 1 if chi is None else chi.value_order
    if chi is not None and form == "expansion":
        raise ValueError("the expansion route is untwisted; a twist takes closed or integral")
    if order > 2 and q.mode == "padic":
        raise InputError("p-adic twisted numbers need character values in {0, +-1}")
    if form == "closed":
        rows = root_of_unity_rows(order)
        tables = ((1,),) if chi is None else [
            tuple(0 if k is None else rows[k][i] for k in chi.exponent_table)
            for i in range(len(rows[0]))]
        if order <= 2:
            return _closed(q, kind, n, x, tables[0])
        return CyclotomicElement(order, [_closed(q, kind, n, x, table) for table in tables])
    if form == "integral":
        # a shift outside q's field is refused before a missing prime
        f = bracket_power(q, n, x, chi)
        period, p = len(f.chi), q.prime
        spec = MeasureSpec(kind, q, ProfiniteDomain(p, period // p ** _int_valuation(period, p)))
        return integrate(spec, f, stability, n_max).value
    x = Fraction(x)
    bx, acc = q.bracket(x), 0
    for i in range(n + 1):
        acc = acc + (q.from_rational(math.comb(n, i)) * q.qpow(i * x)
                     * family_value(kind, i, 0, q) * bx ** (n - i))
    return acc


def beta_number(n: int, q: QDescriptor):
    """The n-th q-Bernoulli number: the bosonic moment of [t]^n, the x = 0
    case of :func:`beta_polynomial`.

    >>> print(beta_number(1, QDescriptor.symbolic()))
    (-1)/(1 + q)
    """
    return family_value(BOSONIC, n, 0, q)


def beta_polynomial(n: int, x: Fraction | int, q: QDescriptor, form: str = "closed"):
    """The q-Bernoulli polynomial at x, by the route ``form``.

    "closed": the bosonic :func:`geometric_sum` limit; "expansion": binomial
    expansion over beta numbers and [x] powers; "integral": the bosonic
    p-adic integral of [x+t]^n (padic q only).
    """
    return family_value(BOSONIC, n, x, q, form=form)


def k_number(n: int, q: QDescriptor):
    """The n-th fermionic q-Euler number: [2] (1/(1-q))^n times the
    alternating binomial sum of 1/(1+q^(l+1)), the x = 0 case of
    :func:`k_polynomial`.

    >>> print(k_number(1, QDescriptor.symbolic()))
    (-q)/(1 + q^2)
    >>> k_number(1, QDescriptor.symbolic()).limit_at_one()
    Fraction(-1, 2)
    """
    return family_value(FERMIONIC, n, 0, q)


def k_polynomial(n: int, x: Fraction | int, q: QDescriptor, form: str = "closed"):
    """The fermionic q-Euler polynomial at x, by the route ``form``.

    "closed" and "expansion" agree identically as reduced elements;
    "integral" is the fermionic p-adic integral of [x+y]^n (padic q only).
    """
    return family_value(FERMIONIC, n, x, q, form=form)


def k_distribution_rhs(n: int, x: Fraction | int, m: int, q: QDescriptor):
    """Right side of the odd-m distribution relation for the q-Euler
    polynomials: ([m]^n / [m]_-) times the alternating q^a-weighted sum of
    the base-q^m polynomials at the shifted arguments (a+x)/m.

    It is one fermionic :func:`geometric_sum` at base q with the table
    (1,) * m, and the left side k_polynomial(n, x, q) is one with the table
    (1,), so the identity compares two tables of one kernel, not base-q^m
    values with base-q ones.  Computing this side from base-q^m values
    (ROADMAP item 5) makes it independent.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if m < 1:
        raise InputError(f"the distribution relation needs a period m >= 1, got {m}")
    return _closed(q, FERMIONIC, n, x, (1,) * m)


def k_chi(n: int, chi: DirichletCharacter, q: QDescriptor, form: str = "closed",
          stability: int = 5, n_max: int = 8):
    """Character-twisted q-Euler number attached to chi, the fermionic
    :func:`family_value` of chi at x = 0 by the route ``form``: "closed"
    (the sum over residues a of chi(a) (-1)^a q^a times the base-q^f
    polynomial at a/f, prefixed by [f]^n/[f]_-) or "integral", whose
    ``stability`` and ``n_max`` it passes on.  An even modulus is refused.
    """
    return family_value(FERMIONIC, n, 0, q, chi, form, stability, n_max)


def classical_euler(n_max: int) -> list[Fraction]:
    """E_0 .. E_n_max by inverting the shifted exponential series."""
    gf = euler_gf(n_max)
    return [scaled_coefficient(gf, n) for n in range(n_max + 1)]


def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max from the series of t/(e^t - 1)."""
    expm1_over_t = TruncatedSeries(
        [Fraction(1, math.factorial(n + 1)) for n in range(n_max + 1)])
    gf = series_inverse(expm1_over_t)
    return [scaled_coefficient(gf, n) for n in range(n_max + 1)]
