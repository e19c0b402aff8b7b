"""Differential tests against sympy, an independent computer-algebra system.

Skipped when sympy is not installed.  The field operations are compared on
random fractions with denominators c w^a prod Phi_d^e, and the symbolic
numbers on the closed forms

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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvolkenborn.algebra import Polynomial, RationalFunction

from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import beta_number, k_number
from test_algebra import _coeff_lists, _cyclotomic_polys

F = Fraction

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


def _sympy_poly(coeffs, k=1):
    """The polynomial sum c_i q^(k i) over the coefficients c_i."""
    stuffed = [0] * (k * len(coeffs))
    stuffed[::k] = [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
    return sympy.Poly(list(reversed(stuffed)) or [0], q, domain="QQ")


def _cancelled(num, den):
    """num/den reduced by Poly.cancel over QQ, denominator made monic."""
    num, den = num.cancel(den, include=True)
    lead = den.LC()
    return tuple(Polynomial(_ascending(p.quo_ground(lead))) for p in (num, den))


def _check_field_operations(a, b, sa, sb, divide=True):
    """+, -, * and (when b is invertible) / of a and b against the
    cross-multiplied fraction cancelled by sympy; sa and sb are (num, den)
    sympy polynomials of a and b at the common root order."""
    (san, sad), (sbn, sbd) = sa, sb
    cases = [(a + b, san * sbd + sbn * sad, sad * sbd), (a - b, san * sbd - sbn * sad, sad * sbd),
             (a * b, san * sbn, sad * sbd)]
    if divide:
        cases.append((a / b, san * sbd, sad * sbn))
    for got, num, den in cases:
        assert (got.num, got.den) == _cancelled(num, den)


_ROOT_ORDERS = st.sampled_from([1, 2, 3, 6])


@settings(max_examples=60, deadline=None)
@given(an=_coeff_lists, ad=_cyclotomic_polys, bn=_cyclotomic_polys, bd=_cyclotomic_polys,
       da=_ROOT_ORDERS, db=_ROOT_ORDERS, d=st.integers(1, 12), e=st.integers(1, 3),
       k=st.integers(1, 3), g=_coeff_lists)
@example(an=(F(1), F(2)), ad=Polynomial([1, -1]), bn=Polynomial([1]),
         bd=Polynomial([1, 1]), da=2, db=3, d=3, e=1, k=1, g=(F(1),))
def test_field_operations_match_sympy_cancel(an, ad, bn, bd, da, db, d, e, k, g):
    # a = an/ad and the invertible b = bn/bd, denominators c w^a prod Phi_d^e,
    # at root orders 1, 2, 3 or 6: both are rebased to the lcm L, which
    # substitutes w -> w^(L/D) on each side
    a = RationalFunction(Polynomial(an), ad, da)
    b = RationalFunction(bn, bd, db)
    ka, kb = math.lcm(da, db) // da, math.lcm(da, db) // db
    sa = (_sympy_poly(an, ka), _sympy_poly(ad.coeffs, ka))
    sb = (_sympy_poly(bn.coeffs, kb), _sympy_poly(bd.coeffs, kb))
    _check_field_operations(a, b, sa, sb)

    # planted cancellations: a = an / (Phi_d^e ad) and b = (Phi_d g - an) /
    # (Phi_d^e ad) share Phi_d at equal power when Phi_d does not divide an,
    # and a + b = Phi_d g / (Phi_d^e ad) loses one Phi_d; c = Phi_d^k bn / bd
    # keeps Phi_d in its numerator when bd has fewer, and a * c cancels it
    phi = sympy.Poly(sympy.cyclotomic_poly(d, q), q, domain="QQ")
    phi_ours = Polynomial(_ascending(phi.as_expr()))
    den = phi_ours ** e * ad
    a = RationalFunction(Polynomial(an), den)
    sa = (_sympy_poly(an), _sympy_poly(den.coeffs))
    if not sympy.rem(_sympy_poly(an), phi).is_zero:
        b_num = phi_ours * Polynomial(g) - Polynomial(an)
        b = RationalFunction(b_num, den)
        assert dict((a + b).phis).get(d, 0) < dict(a.phis)[d]
        assert dict((a - (-b)).phis).get(d, 0) < dict(a.phis)[d]
        _check_field_operations(a, b, sa, (_sympy_poly(b_num.coeffs), sa[1]), divide=False)
    c = RationalFunction(phi_ours ** k * bn, bd)
    if d in dict(a.phis) and sympy.rem(_sympy_poly(c.num.coeffs), phi).is_zero:
        assert dict((a * c).phis).get(d, 0) < dict(a.phis)[d]
        assert (c * a).phis == (a * c).phis
        _check_field_operations(a, c, sa, (_sympy_poly((phi_ours ** k * bn).coeffs),
                                           _sympy_poly(bd.coeffs)))


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
