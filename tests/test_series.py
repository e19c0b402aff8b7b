"""Truncated-series engine and generating-function tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvolkenborn.algebra import Polynomial, RationalFunction
from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import k_number
from qvolkenborn.series import (TruncatedSeries, euler_gf,
                                f_q_coefficient_partial, f_q_series,
                                scaled_coefficient, series_inverse)

F = Fraction


def S(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs])


def exp_series(c, order):
    """e^(ct) truncated at order, from its coefficients c^n / n!."""
    return TruncatedSeries([F(c) ** n / math.factorial(n) for n in range(order + 1)])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_product_truncates():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def _coefficientwise_sum(a, b):
    return TruncatedSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


def test_products_distribute_over_sums():
    a, b, c = S(2, 3, 5), S(1, -1, 4), S(0, 2, -3)
    assert a * _coefficientwise_sum(b, c) == _coefficientwise_sum(a * b, a * c)


def _left_to_right_product(a, b):
    """The truncated product with each coefficient summed in one running sum."""
    zero = a[0] * 0
    out = [zero] * (a.order + 1)
    for i in range(a.order + 1):
        for j in range(a.order + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


# denominators c w^a prod Phi_d^e: 1, w, 1 + w, 1 - w, 1 + w^2, 1 + w + w^2, w^2 (1 + w)
_dens = st.sampled_from(((1,), (0, 1), (1, 1), (1, -1), (1, 0, 1), (1, 1, 1), (0, 0, 1, 1)))
_polys = st.lists(st.integers(-4, 4), max_size=4)


@st.composite
def _series_pairs(draw):
    order = draw(st.integers(0, 7))
    field = draw(st.sampled_from((None, 1, 2)))
    if field is None:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    else:
        coeff = st.builds(lambda num, den: RationalFunction(Polynomial(num), Polynomial(den),
                                                            field), _polys, _dens)
    pick = st.lists(coeff, min_size=order + 1, max_size=order + 1)
    return TruncatedSeries(draw(pick)), TruncatedSeries(draw(pick))


@settings(max_examples=150, deadline=None)
@given(pair=_series_pairs())
def test_pairwise_products_match_left_to_right_sums(pair):
    # values are canonical, so the order of the additions cannot show
    a, b = pair
    got = a * b
    assert got.order == a.order
    assert list(got.coeffs) == _left_to_right_product(a, b)


def test_a_constant_factor_scales_every_coefficient():
    exp_t = exp_series(1, 3)
    doubled = exp_t * S(2, 0, 0, 0)
    assert all(doubled[n] == 2 * exp_t[n] for n in range(4))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        S(1, 0) * S(1, 0, 0)


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_of_one():
    assert series_inverse(S(1, 0, 0)) == S(1, 0, 0)


def test_inverse_of_one_plus_t():
    assert series_inverse(S(1, 1, 0)) == S(1, -1, 1)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_inverse(S(0, 1))


def test_inverse_of_exp_is_exp_of_negative():
    assert series_inverse(exp_series(1, 7)) == exp_series(-1, 7)


# ---------------------------------------------------------------------------
# Euler generating function
# ---------------------------------------------------------------------------

def test_euler_gf_low_coefficients():
    gf = euler_gf(4)
    assert gf[0] == 1
    assert scaled_coefficient(gf, 1) == F(-1, 2)
    assert scaled_coefficient(gf, 2) == 0
    assert scaled_coefficient(gf, 3) == F(1, 4)
    assert scaled_coefficient(gf, 4) == 0
    with pytest.raises(ValueError):
        euler_gf(-1)


# ---------------------------------------------------------------------------
# q-deformed generating function
# ---------------------------------------------------------------------------

def test_f_q_series_constant_term():
    sym = QDescriptor.symbolic()
    assert f_q_series(sym, 3)[0] == 1


def test_f_q_series_first_coefficient_is_k_one():
    sym = QDescriptor.symbolic()
    gf = f_q_series(sym, 3)
    assert scaled_coefficient(gf, 1) == k_number(1, sym)


def test_f_q_series_matches_numbers_up_to_thirty():
    sym = QDescriptor.symbolic()
    gf = f_q_series(sym, 30)
    for n in range(31):
        assert scaled_coefficient(gf, n) == k_number(n, sym)


def test_f_q_series_at_order_twenty():
    # The series multiplies and adds reduced rational functions outside the
    # closed-form kernel, so every coefficient is reduced by the generic gcd.
    sym = QDescriptor.symbolic()
    assert scaled_coefficient(f_q_series(sym, 20), 20) == k_number(20, sym)


def test_f_q_series_rational_mode():
    qd = QDescriptor.rational(F(1, 3))
    gf = f_q_series(qd, 6)
    sym = QDescriptor.symbolic()
    for n in range(7):
        assert scaled_coefficient(gf, n) == k_number(n, sym).evaluate(F(1, 3))


def test_f_q_series_rejects_padic():
    from qvolkenborn.padic import padic_from_rational

    qd = QDescriptor.padic(padic_from_rational(6, 5, 8))
    with pytest.raises(ValueError):
        f_q_series(qd, 3)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_partial_sum_constant_coefficient_converges_to_one():
    ps = f_q_coefficient_partial(0, F(1, 2), 80)
    assert abs(ps.value - 1) <= ps.tail_bound
    assert ps.tail_bound < F(1, 2 ** 70)


def test_partial_sum_first_coefficient():
    ps = f_q_coefficient_partial(1, F(1, 2), 120)
    assert abs(ps.value - F(-2, 5)) < F(1, 2 ** 100)


def test_partial_sum_zero_terms_reports_full_bound():
    ps = f_q_coefficient_partial(2, F(1, 2), 0)
    assert ps.value == 0
    full = abs(F(3, 2)) * F(2) ** 2 / (1 - F(1, 2))
    assert ps.tail_bound == full


def test_partial_sum_requires_q_inside_unit_interval():
    with pytest.raises(ValueError):
        f_q_coefficient_partial(1, F(3, 2), 10)
    with pytest.raises(ValueError):
        f_q_coefficient_partial(1, F(0), 10)


def test_partial_sums_with_negative_q():
    ps = f_q_coefficient_partial(2, F(-1, 2), 150)
    sym = QDescriptor.symbolic()
    target = k_number(2, sym).evaluate(F(-1, 2))
    assert abs(ps.value - target) <= ps.tail_bound


# ---------------------------------------------------------------------------
# limit consistency
# ---------------------------------------------------------------------------

def test_gf_coefficient_limit_matches_euler():
    sym = QDescriptor.symbolic()
    gf = f_q_series(sym, 3)
    c1 = scaled_coefficient(gf, 1)
    assert isinstance(c1, RationalFunction)
    assert c1.limit_at_one() == F(-1, 2)
