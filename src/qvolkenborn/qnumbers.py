"""The q-deformed number and polynomial families and their classical limits.

Bosonic moments give the q-Bernoulli numbers beta_m and polynomials
beta_n(x); fermionic moments give the q-Euler-type numbers K_n and
polynomials K_n(x), their odd-m distribution relation, and the
Dirichlet-character twists.  Each family has a closed form and at least one
independent route (moment expansion or p-adic integral), and the routes are
cross-checked by the verification suites.

Every closed value is one :func:`~qvolkenborn.qmeasure.geometric_sum` in
the p-adic limit: K_n(x) and beta_n(x) take the table (1,), the odd-m
distribution relation the table (1,) * m (its base-q^m polynomials at the
arguments (a+x)/m merge into the q-exponents a + (a+x)k), and a twist one
table per integer row of its character (phi(L) calls for order L > 2), with
integer exponents for integer x in every reading of q.

The closed values are memoized per (q, kind, n, x, weights) in one
512-entry LRU cache, :func:`_closed`: the expansion routes read every
number K_0 .. K_n, so a loop over n would otherwise derive each number O(n)
times.  Values are immutable, so sharing them is safe; the expansion and
integral forms and the level sums are not cached.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .algebra import CyclotomicElement, root_of_unity_rows
from .characters import DirichletCharacter
from .padic import ProfiniteDomain
from .qmeasure import (BOSONIC, FERMIONIC, BracketPower, MeasureSpec, QDescriptor,
                       bracket_power, character_twisted_power, geometric_sum,
                       integrate)

FORMS = ("closed", "expansion", "integral")


@functools.lru_cache(maxsize=512)
def _closed(q: QDescriptor, kind: str, n: int, x: Fraction | int,
            weights: tuple[int, ...]):
    """The memoized p-adic limit of :func:`geometric_sum`."""
    return geometric_sum(q, kind, n, x, weights)


def _integral(kind: str, q: QDescriptor, f: BracketPower, d: int, stability: int,
              n_max: int):
    """The certified p-adic integral of f under the measure of that kind at
    q, over the inverse limit of Z/(d p^N)."""
    spec = MeasureSpec(kind, q, ProfiniteDomain(q.prime, d))
    return integrate(spec, f, stability, n_max).value


def _polynomial(kind: str, n: int, x: Fraction | int, q: QDescriptor, form: str,
                stability: int, n_max: int):
    """The polynomial family of the measure of that kind at x, by the
    selected route (see :func:`k_polynomial` and :func:`beta_polynomial`)."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {FORMS}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if form == "closed":
        return _closed(q, kind, n, x, (1,))
    x = Fraction(x)
    if form == "integral":
        return _integral(kind, q, bracket_power(q, n, x), 1, stability, n_max)
    # the expansion sum_i C(n,i) q^(ix) number(i, q) [x]^(n-i)
    number, bx, acc = beta_number if kind == BOSONIC else k_number, q.bracket(x), 0
    for i in range(n + 1):
        acc = acc + (q.from_rational(math.comb(n, i)) * q.qpow(i * x)
                     * number(i, q) * bx ** (n - i))
    return acc


def beta_number(m: int, q: QDescriptor):
    """The m-th q-Bernoulli number: the bosonic moment of [t]^m, the x = 0
    case of :func:`beta_polynomial`.

    >>> print(beta_number(1, QDescriptor.symbolic()))
    (-1)/(1 + q)
    """
    return beta_polynomial(m, 0, q)


def beta_polynomial(n: int, x: Fraction | int, q: QDescriptor, form: str = "closed",
                    stability: int = 5, n_max: int = 8):
    """The q-Bernoulli polynomial at x, by the selected route.

    "closed": the bosonic :func:`geometric_sum` limit; "expansion": binomial
    expansion over beta numbers and [x] powers; "integral": the bosonic
    p-adic integral of [x+t]^n (padic q only).
    """
    return _polynomial(BOSONIC, n, x, q, form, stability, n_max)


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
                 stability: int = 5, n_max: int = 8):
    """The fermionic q-Euler polynomial at x, by the selected route.

    "closed" and "expansion" agree identically as reduced elements;
    "integral" is the fermionic p-adic integral of [x+y]^n (padic q only).
    """
    return _polynomial(FERMIONIC, n, x, q, form, stability, n_max)


def k_distribution_rhs(n: int, x: Fraction | int, m: int, q: QDescriptor):
    """Right side of the odd-m distribution relation for the q-Euler
    polynomials: ([m]^n / [m]_-) times the alternating q^a-weighted sum of
    the base-q^m polynomials at the shifted arguments (a+x)/m, computed as
    one fermionic :func:`geometric_sum` with the table (1,) * m.

    Symbolically this is identical to k_polynomial(n, x, q); verifying that
    identity is the point of computing both sides independently.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"the distribution relation needs odd m, got {m}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _closed(q, FERMIONIC, n, x, (1,) * m)


def k_chi(n: int, chi: DirichletCharacter, q: QDescriptor, method: str = "closed",
          stability: int = 5, n_max: int = 8):
    """Character-twisted q-Euler number attached to chi.

    "closed": the finite sum over residues a of chi(a) (-1)^a q^a times the
    base-q^f polynomial at a/f, prefixed by [f]^n/[f]_-.  With
    chi(a) = zeta^k_a = sum_i r_i(k_a) zeta^i (zeta a primitive L-th root of
    unity, r(k) the integer row of x^k mod Phi_L, i < phi(L)) it is
    sum_i zeta^i :func:`geometric_sum` with the table r_i(k_a): a field
    element for L <= 2, else a :class:`CyclotomicElement`.
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
        rows = root_of_unity_rows(order)
        sums = [_closed(q, FERMIONIC, n, 0,
                        tuple(0 if k is None else rows[k][i] for k in chi.exponent_table))
                for i in range(len(rows[0]))]
        return sums[0] if order <= 2 else CyclotomicElement(order, sums)
    return _integral(FERMIONIC, q, character_twisted_power(q, n, chi), f,
                     stability, n_max)


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
