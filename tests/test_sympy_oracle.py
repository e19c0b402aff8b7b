"""Differential tests against sympy, an independent computer-algebra system.

Skipped when sympy is not installed.  The gcd is compared on random integer
polynomials, and the symbolic numbers on the closed forms

    K_n    = (1+q)(1-q)^-n     sum_k (-1)^k C(n,k) / (1 + q^(k+1)),
    beta_n = (1-q)^(1-n)       sum_i (-1)^i C(n,i) (i+1) / (1 - q^(i+1)),

written out in sympy and reduced by ``sympy.cancel``.
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


def _sympy_reduced(expr):
    """(numerator, denominator) of cancel(expr), denominator made monic."""
    num, den = sympy.fraction(sympy.cancel(expr))
    lead = sympy.Poly(den, q).LC()
    return _ascending(sympy.expand(num / lead)), _ascending(sympy.expand(den / lead))


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


@pytest.mark.parametrize("n", range(9))
def test_k_number_matches_sympy_cancel(n):
    closed = (1 + q) * (1 - q) ** -n * sum(
        (-1) ** k * math.comb(n, k) / (1 + q ** (k + 1)) for k in range(n + 1))
    value = k_number(n, QDescriptor.symbolic())
    assert (value.num.coeffs, value.den.coeffs) == _sympy_reduced(closed)


@pytest.mark.parametrize("n", range(9))
def test_beta_number_matches_sympy_cancel(n):
    closed = (1 - q) ** (1 - n) * sum(
        (-1) ** i * math.comb(n, i) * (i + 1) / (1 - q ** (i + 1))
        for i in range(n + 1))
    value = beta_number(n, QDescriptor.symbolic())
    assert (value.num.coeffs, value.den.coeffs) == _sympy_reduced(closed)
