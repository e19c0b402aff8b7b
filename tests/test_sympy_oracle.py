"""Differential tests against sympy, an independent computer-algebra system.

Skipped when sympy is not installed.  The gcd is compared on random integer
polynomials, and the symbolic numbers on the closed forms

    K_n    = (1+q)(1-q)^-n     sum_k (-1)^k C(n,k) / (1 + q^(k+1)),
    beta_n = (1-q)^(1-n)       sum_i (-1)^i C(n,i) (i+1) / (1 - q^(i+1)),

written out as sympy integer polynomials (numerator and denominator of the
sum over the product of its denominators) and reduced by ``Poly.cancel``,
the polynomial kernel of ``sympy.cancel`` (an expression-level
``sympy.cancel`` is orders of magnitude slower at n = 20 and 40).  Their
q -> 1 limits are compared with sympy's Euler and Bernoulli polynomials at 0.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvolkenborn.algebra import Polynomial, poly_gcd
from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import beta_number, k_number

sympy = pytest.importorskip("sympy")

q = sympy.Symbol("q")


def _ascending(poly):
    """Coefficients of a sympy polynomial in q by ascending degree."""
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly, q).all_coeffs()))


def _sympy_reduced(prefactor_num, prefactor_den, terms):
    """(numerator, denominator) of prefactor_num/prefactor_den * sum c/d over
    the (c, d) terms, reduced by Poly.cancel over ZZ, denominator made
    monic."""
    num, den = sympy.Poly(0, q, domain="ZZ"), sympy.Poly(1, q, domain="ZZ")
    for c, d in terms:
        d = sympy.Poly(d, q, domain="ZZ")
        num, den = num * d + den * c, den * d
    num, den = (num * sympy.Poly(prefactor_num, q)).cancel(den * sympy.Poly(prefactor_den, q),
                                                          include=True)
    lead = den.LC()
    return _ascending(num.to_field().quo_ground(lead)), _ascending(den.to_field().quo_ground(lead))


_int_polys = st.lists(st.integers(-40, 40), max_size=7)


@settings(max_examples=60, deadline=None)
@given(a=_int_polys, b=_int_polys, common=_int_polys)
def test_poly_gcd_matches_sympy_gcd(a, b, common):
    pa = Polynomial(a) * Polynomial(common)
    pb = Polynomial(b) * Polynomial(common)
    expected = sympy.gcd(sum(c * q ** i for i, c in enumerate(pa.coeffs)),
                         sum(c * q ** i for i, c in enumerate(pb.coeffs)))
    got = poly_gcd(pa, pb)
    if expected == 0:
        assert got.is_zero
    else:
        assert got.coeffs == _ascending(sympy.Poly(expected, q).monic())


_SIZES = list(range(9)) + [20, 40]


@pytest.mark.parametrize("n", _SIZES)
def test_k_number_matches_sympy_cancel(n):
    value = k_number(n, QDescriptor.symbolic())
    terms = [((-1) ** k * math.comb(n, k), 1 + q ** (k + 1)) for k in range(n + 1)]
    want = _sympy_reduced(1 + q, (1 - q) ** n, terms)
    assert (value.num.coeffs, value.den.coeffs) == want


@pytest.mark.parametrize("n", _SIZES)
def test_beta_number_matches_sympy_cancel(n):
    value = beta_number(n, QDescriptor.symbolic())
    terms = [((-1) ** i * math.comb(n, i) * (i + 1), 1 - q ** (i + 1)) for i in range(n + 1)]
    want = _sympy_reduced((1 - q) ** max(1 - n, 0), (1 - q) ** max(n - 1, 0), terms)
    assert (value.num.coeffs, value.den.coeffs) == want


@pytest.mark.parametrize("n", range(31))
def test_limits_match_sympy_euler_and_bernoulli(n):
    # K_n -> E_n(0) and beta_n -> B_n(0) as q -> 1 (so both first moments are -1/2)
    sym = QDescriptor.symbolic()
    assert k_number(n, sym).limit_at_one() == Fraction(str(sympy.euler(n, 0)))
    assert beta_number(n, sym).limit_at_one() == Fraction(str(sympy.bernoulli(n, 0)))
