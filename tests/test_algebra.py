"""Exact polynomial / rational-function field tests.

Expected reduced forms were computed independently (hand expansion checked
against a computer-algebra system) and frozen as coefficient lists.
"""

import functools
import importlib
import math
import operator
import random
import sys
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qvolkenborn
from qvolkenborn import algebra, qmeasure, verify
from qvolkenborn.algebra import (_KRONECKER_CUTOFF, CyclotomicElement,
                                 NonCyclotomicDenominator, PoleError, Polynomial,
                                 RationalFunction, RootOrderMismatch,
                                 _binomial_quotient, _cyclotomic_int, _cyclotomic_product,
                                 _cyclotomic_ratio, _int_value, _mul_int, _mul_int_schoolbook,
                                 _times_binomial, cyclotomic_polynomial,
                                 reduce_cyclotomic_fraction, root_of_unity_rows)
from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import beta_number, k_number

F = Fraction


def P(*coeffs):
    return Polynomial(coeffs)


def R(num, den=(1,), D=1):
    return RationalFunction(Polynomial(num), Polynomial(den), D)


# ---------------------------------------------------------------------------
# shared strategies: the denominators c w^a prod Phi_d^e
# ---------------------------------------------------------------------------

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_coeff_lists = st.lists(_rationals, max_size=7).map(_trim)


@st.composite
def _phi_products(draw, orders=3):
    """w^a prod Phi_d^e with a <= 2, up to that many orders d <= 12 and
    e <= 3, each Phi_d built by long division."""
    poly = Polynomial((0,) * draw(st.integers(0, 2)) + (1,))
    for d, e in draw(st.dictionaries(st.integers(1, 12), st.integers(1, 3),
                                     max_size=orders)).items():
        poly = poly * Polynomial(_phi_reference(d)) ** e
    return poly


# c w^a prod Phi_d^e: the denominators of the ring the rational functions
# live in, and the numerators of its invertible elements
_cyclotomic_polys = st.builds(operator.mul, _phi_products(), _rationals.filter(bool))
_root_orders = st.integers(1, 3)
_ratfuncs = st.builds(RationalFunction, _coeff_lists.map(Polynomial), _cyclotomic_polys,
                      _root_orders)
_units = st.builds(RationalFunction, _cyclotomic_polys, _cyclotomic_polys, _root_orders)


# ---------------------------------------------------------------------------
# reduction to canonical form
# ---------------------------------------------------------------------------

def test_reduce_cancels_linear_factor():
    # (1 - w^2)/(1 - w) -> 1 + w
    got = RationalFunction(P(1, 0, -1), P(1, -1))
    assert got.num == P(1, 1)
    assert got.den == P(1)


def test_reduce_zero_numerator():
    got = RationalFunction(P(), P(7, 1))
    assert got.num.is_zero
    assert got.den == P(1)


def test_reduce_shared_square_factor():
    # w(w-1)^2 / ((1-w)^2 (1+w)(1+w+w^2)) -> w / ((1+w)(1+w+w^2))
    num = P(0, 1) * P(-1, 1) * P(-1, 1)
    den = P(1, -1) * P(1, -1) * P(1, 1) * P(1, 1, 1)
    got = RationalFunction(num, den)
    assert got.num == P(0, 1)
    assert got.den == P(1, 2, 2, 1)  # (1+w)(1+w+w^2)


def test_reduce_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(P(1), P())


@settings(max_examples=100, deadline=None)
@given(num=_cyclotomic_polys,
       den=st.builds(operator.mul, _phi_products(),
                     st.fractions(-30, 0, max_denominator=12).filter(lambda c: c.denominator > 1)))
@example(num=P(F(-1, 5), 0, F(1, 5)), den=P(0, F(-3, 2), 0, F(-3, 2)))
def test_negative_fractional_lead_is_divided_out(num, den):
    # num/den with den's lead negative (and fractional, as in the example
    # (w^2 - 1)/5 over -3/2 w (1 + w^2)): the constructor, and reciprocal of
    # the inverse fraction, divide both parts by the lead
    want = _ref_reduced(num.coeffs, den.coeffs)
    f = RationalFunction(num, den)
    assert (_canonical(f.num), _canonical(f.den)) == want
    inverse = RationalFunction(den, num)
    assert (_canonical(inverse.num), _canonical(inverse.den)) == _ref_reduced(den.coeffs,
                                                                              num.coeffs)
    back = inverse.reciprocal()
    assert (_canonical(back.num), _canonical(back.den)) == want


@settings(max_examples=100, deadline=None)
@given(f=_ratfuncs)
def test_reduction_idempotent(f):
    again = RationalFunction(f.num, f.den, f.root_order)
    assert again.num == f.num and again.den == f.den and again.phis == f.phis


# ---------------------------------------------------------------------------
# evaluate / limit_at_one
# ---------------------------------------------------------------------------

def test_evaluate_simple():
    assert R((1, 1)).evaluate(1) == 2


def test_evaluate_fraction_point():
    # w/(1+w^2) at 1/2 -> (1/2)/(5/4) = 2/5
    assert R((0, 1), (1, 0, 1)).evaluate(F(1, 2)) == F(2, 5)


def test_evaluate_pole_is_distinct_from_bad_input():
    f = R((1,), (1, -1))  # 1/(1-w)
    with pytest.raises(PoleError):
        f.evaluate(1)
    with pytest.raises(TypeError):
        f.evaluate("not a number")


def test_limit_at_one_values():
    assert R((0, -1), (1, 0, 1)).limit_at_one() == F(-1, 2)   # -w/(1+w^2)
    assert R((0, 1), (1, 2, 2, 1)).limit_at_one() == F(1, 6)  # w/((1+w)(1+w+w^2))
    assert R((1,)).limit_at_one() == 1


def test_limit_at_one_genuine_pole():
    with pytest.raises(PoleError):
        R((1,), (1, -1)).limit_at_one()


@settings(max_examples=100, deadline=None)
@given(f=_ratfuncs, g=_ratfuncs)
def test_limit_of_product_is_product_of_limits(f, g):
    try:
        want = f.limit_at_one() * g.limit_at_one()
    except PoleError:
        assume(False)
    assert (f * g).limit_at_one() == want


# ---------------------------------------------------------------------------
# rebase_root_order
# ---------------------------------------------------------------------------

def test_rebase_monomial():
    w = RationalFunction.w_power(1, 1)
    lifted = w.rebase_root_order(2)
    assert lifted.num == P(0, 0, 1) and lifted.root_order == 2


def test_rebase_denominator():
    f = R((1,), (1, 1), D=2)  # 1/(1+w), w = q^(1/2)
    lifted = f.rebase_root_order(4)
    assert lifted.den == P(1, 0, 1)


def test_rebase_requires_multiple():
    with pytest.raises(RootOrderMismatch):
        R((1, 1), D=2).rebase_root_order(3)


@settings(max_examples=100, deadline=None)
@given(f=_ratfuncs, t=st.fractions(-5, 5, max_denominator=5),
       k=st.sampled_from((2, 3, 4, 6)))
def test_rebase_commutes_with_evaluate(f, t, k):
    # k = 2, 3 meet orders d that p = k divides and ones it does not; 4 and
    # 6 rebase one prime at a time
    lifted = f.rebase_root_order(f.root_order * k)
    assert lifted.den == f.den.substitute_power(k) and lifted.num == f.num.substitute_power(k)
    try:
        want = f.evaluate(t ** k)
    except PoleError:
        assume(False)
    assert lifted.evaluate(t) == want


def _value_or_pole(f, point):
    try:
        return f.evaluate(point)
    except PoleError:
        return PoleError


@settings(max_examples=150, deadline=None)
@given(f=_ratfuncs, r=st.fractions(-5, 5, max_denominator=5),
       k=st.sampled_from((1, 2, 3, 4, 6, 12)))
@example(f=R((1,), (1, -1)), r=F(-1), k=2)
def test_substitute_is_evaluation_at_a_power_and_rebase_is_it_relabelled(f, r, k):
    # f(w^k) at w = r is f at r^k (a pole on both sides agrees), at the same
    # root order; rebasing to D k is that substitution, relabelled
    substituted = f.substitute(k)
    assert substituted.root_order == f.root_order
    assert _value_or_pole(substituted, r) == _value_or_pole(f, r ** k)
    rebased = f.rebase_root_order(f.root_order * k)
    assert (rebased.num, rebased.w_exp, rebased.phis, rebased.root_order) == (
        substituted.num, substituted.w_exp, substituted.phis, f.root_order * k)


def test_substitute_needs_a_positive_power():
    with pytest.raises(ValueError):
        R((1,), (1, 1)).substitute(0)


# ---------------------------------------------------------------------------
# field laws on the cyclotomic subring
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(a=_ratfuncs, b=_ratfuncs, c=_ratfuncs)
def test_field_laws_on_random_instances(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(a=_ratfuncs, b=_units)
def test_subtraction_and_division_invert(a, b):
    # b's numerator is c w^a prod Phi_d^e too, so b is invertible
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert (a / b) * b == a


@settings(max_examples=100, deadline=None)
@given(a=_ratfuncs, b=_ratfuncs,
       t=st.fractions(-4, 4, max_denominator=3))
def test_evaluate_is_multiplicative(a, b, t):
    # the product lives at the lcm of the two root orders
    product = a * b
    try:
        rhs = (a.rebase_root_order(product.root_order).evaluate(t)
               * b.rebase_root_order(product.root_order).evaluate(t))
    except PoleError:
        assume(False)
    assert product.evaluate(t) == rhs


def test_power_negative_inverse():
    f = R((0, 1), (1, 1))
    assert f ** 2 * f ** -2 == 1
    assert f ** 0 == 1


# ---------------------------------------------------------------------------
# cyclotomics and the factored reduction
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == P(-1, 1)
    assert cyclotomic_polynomial(2) == P(1, 1)
    assert cyclotomic_polynomial(3) == P(1, 1, 1)
    assert cyclotomic_polynomial(4) == P(1, 0, 1)
    assert cyclotomic_polynomial(6) == P(1, -1, 1)
    # the measure suite reaches orders 1875 and 3750
    for n in list(range(1, 201)) + [1875, 3750]:
        product = Polynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == Polynomial((-1,) + (0,) * (n - 1) + (1,))
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert cyclotomic_polynomial(n).degree == totient


def _mul_reference(a, b):
    """Nested-loop product of integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_large_products_match_schoolbook():
    # the packed-integer multiplication path starts above the cutoff; the
    # extremal inputs put product coefficients at the +-bound edge, with
    # alternating signs, with M = 2^k - 1 and 2^k around byte boundaries
    # (k = 1 mod 4 also gives the bounds 40 M^2 and 57 M^2 a bit length
    # divisible by 8, where the sign needs one more byte),
    # and with one nonzero coefficient at either end of a factor
    rng = random.Random(31)
    cases = []
    for _ in range(10):
        a = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(45, 90))]
        b = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(45, 90))]
        cases.append((a, b))
    for m in (2 ** k + e for k in (5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65) for e in (-1, 0)):
        for la, lb in ((40, 40), (40, 90), (64, 64), (90, 57)):
            cases.append(([m] * la, [-m] * lb))
            alternating = [m * (-1) ** i for i in range(lb)]
            cases.append(([-m * (-1) ** i for i in range(la)], alternating))
            for end in (0, la - 1):
                single = [0] * la
                single[end] = -m
                cases.append((single, alternating))
    for a, b in cases:
        want = _mul_reference(a, b)
        assert _mul_int(a, b) == want
        assert _mul_int_schoolbook(a, b) == want


def test_sparse_times_dense_matches_reference():
    # a binomial 1 + s w^j (two nonzeros and a run of zeros) against dense
    # factors of at least the Kronecker cutoff: the schoolbook path for
    # j + 1 < cutoff, the packed path from there on, and the shift-add of
    # _times_binomial
    rng = random.Random(5)
    for j in (1, 2, 7, 39, 40, 41, 64, 90):
        for n in (40, 41, 150, 900):
            dense = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
            for s in (1, -1):
                binomial = [1] + [0] * (j - 1) + [s]
                want = _mul_reference(binomial, dense)
                assert _mul_int(binomial, dense) == want
                assert _mul_int(dense, binomial) == want
                assert _times_binomial(dense, s, j) == want
                scaled = [3] + [0] * (j - 1) + [-7 * s]
                assert _mul_int(dense, scaled) == _mul_reference(dense, scaled)


def _binomial(s, j):
    return Polynomial((1,) + (0,) * (j - 1) + (s,))


_binomial_factors = st.lists(st.tuples(st.sampled_from((1, -1)),
                                       st.integers(1, 8) | st.integers(9, 45),
                                       st.integers(0, 2)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(factors=_binomial_factors, body=st.lists(st.integers(-6, 6), min_size=1, max_size=10),
       pick=st.integers(0, 3), planted=st.integers(1, 2), low=st.integers(0, 3),
       r=st.integers(0, 3), screened=st.booleans())
@example(factors=[(1, 45, 2), (-1, 42, 1)], body=[1, -2, 3], pick=0, planted=2, low=1,
         r=3, screened=True)
@example(factors=[(-1, 44, 1), (1, 30, 2)], body=[5, 0, 1], pick=1, planted=1, low=0,
         r=2, screened=False)
def test_factored_reduction_matches_generic_gcd(factors, body, pick, planted, low, r,
                                                screened):
    # num / (w^r prod (1 + s w^j)^m), with a factor (1 + s w^j)^planted from
    # the list and w^low planted in num so cancellation actually happens; a
    # root at the screening point w = 2^20 makes num's value there 0, so the
    # screen passes every candidate and the exact division alone decides.
    # Exponents j reach past the Kronecker cutoff.  The binomials go in as
    # their Phi-map and sign (w^j - 1 is prod Phi_d over d | j, and 1 + w^j
    # is (w^2j - 1)/(w^j - 1)); the result is checked by cross-multiplication
    # and by long division of its numerator by w and each Phi_d left.
    num, den, phis, sign = _planted_fraction(factors, body, pick, planted, low, r, screened)
    _assert_lowest_terms(reduce_cyclotomic_fraction(num * sign, phis, 1, r), num, den)


def _planted_fraction(factors, body, pick, planted, low, r, screened):
    """(num, den, Phi-map of den, sign) for the cases above: num / den as
    num * sign / (w^r prod Phi_d^e)."""
    den, phis, sign = Polynomial((0,) * r + (1,)), {}, 1
    for s, j, m in factors:
        den = den * _binomial(s, j) ** m
        sign *= s ** m
        for d in range(1, 2 * j + 1):
            if (2 * j if s == 1 else j) % d == 0 and (s == -1 or j % d):
                phis[d] = phis.get(d, 0) + m
    s, j, _ = factors[pick % len(factors)]
    num = Polynomial(body) * _binomial(s, j) ** planted * Polynomial((0,) * low + (1,))
    if screened:
        num = num * Polynomial((-(1 << 20), 1))
    return num, den, phis, sign


def _no_screen(*args):
    raise AssertionError("the predicted reduction screened")


@settings(max_examples=150, deadline=None)
@given(factors=_binomial_factors, body=st.lists(st.integers(-6, 6), min_size=1, max_size=10),
       pick=st.integers(0, 3), planted=st.integers(1, 2), low=st.integers(0, 3),
       r=st.integers(0, 3), screened=st.booleans())
@example(factors=[(1, 45, 2), (-1, 42, 1)], body=[1, -2, 3], pick=0, planted=2, low=1,
         r=3, screened=True)
@example(factors=[(1, 3, 0)], body=[0], pick=0, planted=1, low=0, r=0, screened=False)
def test_the_predicted_reduction_matches_the_screen(factors, body, pick, planted, low, r,
                                                    screened):
    # on the cases above, the screened result's own Phi-map as ``reduced``
    # gives the screened fields with no screen.  A map with one Phi_d's power
    # lowered asks for a division that is not exact, and one with a power
    # past den's or a Phi_d that den lacks leaves another map: each raises
    num, _, phis, sign = _planted_fraction(factors, body, pick, planted, low, r, screened)
    num = num * sign
    want = reduce_cyclotomic_fraction(num, phis, 1, r)
    own = dict(want.phis)
    with unittest.mock.patch.object(algebra, "_cancel_cyclotomics", _no_screen):
        got = reduce_cyclotomic_fraction(num, phis, 1, r, own)
    assert (got.num, got.w_exp, got.phis) == (want.num, want.w_exp, want.phis)
    wrong = [{**own, d: e - 1} for d, e in own.items()]
    wrong += [{**own, d: e + 1} for d, e in phis.items()]
    wrong.append({**own, max(phis) + 1: 1})
    for planted_map in wrong:
        with pytest.raises(ArithmeticError, match="predicted Phi-map"):
            reduce_cyclotomic_fraction(num, phis, 1, r, planted_map)


def _assert_lowest_terms(f, num, den):
    """f is num/den in lowest terms: the cross products agree, f's den is
    w^a prod Phi_d^e over its Phi-map, and neither w nor a Phi_d of the map
    divides f's numerator (a Phi_d is irreducible, so that is coprimality)."""
    assert f.num * den == num * f.den
    want = Polynomial((0,) * f.w_exp + (1,))
    for d, e in f.phis:
        want = want * Polynomial(_phi_reference(d)) ** e
    assert f.den == want
    assert not (f.w_exp and f.num.ints[0] == 0)
    for d, _ in f.phis:
        assert _exact_quotient_int(f.num.ints, _phi_reference(d)) is None


def _exact_quotient_int(a, b):
    """Quotient of nonzero integer polynomials a / b by long division when b
    divides a in Z[x], else None (a quotient coefficient that is not an
    integer, or a nonzero remainder): the reference of the binomial and
    cyclotomic quotients."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return None
    rem, quo = list(a), [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + db], b[-1])
        if r:
            return None
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return None if any(rem[:db]) else quo


# d = 30, 42, ... have three distinct primes: eight Mobius binomials each
_phi_orders = st.sampled_from((1, 2, 3, 4, 6, 9, 12, 25, 30, 42, 60, 66, 70, 78, 84))


@settings(max_examples=200, deadline=None)
@given(order=_phi_orders, power=st.integers(0, 3),
       cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(any),
       at=st.integers(0, 400), bump=st.integers(-2, 2))
def test_cyclotomic_quotient_matches_exact_quotient(order, power, cofactor, at, bump):
    # a = cofactor * Phi_d^power, perhaps with one coefficient bumped off
    # divisibility: divide by Phi_d (a one-element group) until it stops
    # dividing, each step against the generic long division
    phi = list(_cyclotomic_int(order)[0])
    a = list(_trim(cofactor))
    for _ in range(power):
        a = _mul_reference(a, phi)
    a[at % len(a)] += bump
    a = list(_trim(a))
    assume(a)
    steps = 0
    while a is not None:
        want = _exact_quotient_int(a, phi)
        assert _cyclotomic_ratio(a, {order: -1}) == want
        a, steps = want, steps + 1
    assert steps > power or bump


@settings(max_examples=200, deadline=None)
@given(j=st.integers(1, 45), power=st.integers(0, 2),
       cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=60).filter(any),
       at=st.integers(0, 400), bump=st.integers(-2, 2))
@example(j=5, power=1, cofactor=[1] * 20, at=0, bump=0)   # n = 25 = j^2: block-wise
@example(j=5, power=1, cofactor=[1] * 21, at=0, bump=0)   # n = 26 > j^2: per class
def test_binomial_quotient_matches_exact_quotient(j, power, cofactor, at, bump):
    # a = cofactor * (1 - w^j)^power, perhaps bumped; j below and above the
    # square root of the length, so both running-sum orders run
    a = list(_trim(cofactor))
    for _ in range(power):
        a = _times_binomial(a, -1, j)
    a[at % len(a)] += bump
    a = list(_trim(a))
    assume(a)
    assert _binomial_quotient(a, j) == _exact_quotient_int(a, [1] + [0] * (j - 1) + [-1])


def test_cyclotomic_quotient_fails_after_early_binomial_divisions():
    # Phi_30 = (1-w^2)(1-w^3)(1-w^5)(1-w^30) / ((1-w)(1-w^6)(1-w^10)(1-w^15)):
    # after the multiplications by the denominator binomials, 1 - w^2 and
    # 1 - w^3 divide every input, so a non-divisible one fails only later
    a = [1, 2, 3]
    for e in (1, 6, 10, 15):
        a = _times_binomial(a, -1, e)
    early = _binomial_quotient(a, 2)
    assert early is not None and _binomial_quotient(early, 3) is not None
    assert _cyclotomic_ratio([1, 2, 3], {30: -1}) is None
    assert _exact_quotient_int([1, 2, 3], _cyclotomic_int(30)[0]) is None


_groups = st.dictionaries(_phi_orders, st.integers(0, 3), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(powers=st.dictionaries(st.integers(1, 400), st.integers(0, 3), max_size=5))
@example(powers={})
@example(powers={1: 1})
@example(powers={1: 2, 2: 3})
@example(powers={1: 3, 400: 3, 399: 2, 210: 1})
def test_phi_products_from_a_half_series_match_the_mobius_construction(powers):
    # the low half of the power series prod (1 - w^b)^n_b, mirrored, against
    # shift-adds and exact divisions over the whole product
    assert _cyclotomic_product(powers) == _cyclotomic_ratio([1], powers)


def test_cyclotomic_table_matches_the_mobius_construction():
    for d in range(1, 1001):
        coeffs, value = _cyclotomic_int(d)
        assert list(coeffs) == _cyclotomic_ratio([1], {d: 1})
        assert value == Polynomial(coeffs).evaluate(algebra._EVAL_POINT)


@functools.lru_cache(maxsize=None)
def _phi_reference(d):
    # w^d - 1 divided by Phi_e for every proper divisor e of d, by long division
    phi = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _exact_quotient_int(phi, _phi_reference(e))
    return tuple(phi)


@settings(max_examples=200, deadline=None)
@given(group=_groups | st.integers(1, 40).map(lambda j: {d: 1 for d in algebra._divisors(j)}),
       cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(any),
       short=st.none() | st.integers(0, 3), at=st.integers(0, 400), bump=st.integers(-1, 1))
@example(group={1: 3, 2: 1}, cofactor=[2, -1], short=None, at=0, bump=0)
@example(group={1: 1, 2: 1, 3: 1, 6: 1}, cofactor=[1], short=None, at=0, bump=0)
@example(group={1: 1, 5: 2, 30: 1}, cofactor=[3, 0, 1], short=1, at=0, bump=0)
def test_grouped_cyclotomic_quotient_matches_repeated_exact_division(group, cofactor, short,
                                                                     at, bump):
    # a = cofactor * prod Phi_d^k_d, perhaps one power short or bumped; the
    # group divides by the whole product at once, against one long division
    # per Phi_d, each Phi_d built by long division too.  The divisors of j
    # make 1 - w^j up to sign: every net exponent but one cancels, and Phi_1
    # appears once.
    a = list(cofactor)
    orders = sorted(group)
    for d in orders:
        missing = short is not None and d == orders[short % len(orders)] and group[d] > 0
        for _ in range(group[d] - missing):
            a = _mul_reference(a, list(_phi_reference(d)))
    a[at % len(a)] += bump
    a = list(_trim(a))
    assume(a)
    want = a
    for d in orders:
        for _ in range(group[d]):
            if want is not None:
                want = _exact_quotient_int(want, _phi_reference(d))
    assert _cyclotomic_ratio(a, {d: -k for d, k in group.items()}) == want


def test_screen_false_positive_takes_the_one_by_one_fallback(monkeypatch):
    # (w - 2^20)(1 + w) over w^2 - 1 = Phi_1 Phi_2: the value at 2^20 is 0,
    # so the screen passes both Phi_1 and Phi_2, the grouped division fails,
    # and the screen reruns one Phi_d at a time, which divides by Phi_2 alone
    calls, screen = [], algebra._cancel_cyclotomics
    monkeypatch.setattr(algebra, "_cancel_cyclotomics",
                        lambda prim, den_map, one_by_one:
                        calls.append(one_by_one) or screen(prim, den_map, one_by_one))
    num = P(-(1 << 20), 1) * P(1, 1)
    got = reduce_cyclotomic_fraction(num, {1: 1, 2: 1})
    assert calls == [False, True]
    assert (got.num, got.den, got.phis) == (P(-(1 << 20), 1), P(-1, 1), ((1, 1),))
    # a nonzero value that Phi_1(2^20) = 2^20 - 1 divides, though w - 1 does
    # not divide the numerator; and the constant 2^20 - 1, made primitive
    # before the screen, which the screen rejects at once
    for num in (P(-(1 << 20) - 1, 2), P((1 << 20) - 1)):
        calls.clear()
        got = reduce_cyclotomic_fraction(num, {1: 1})
        assert (got.num, got.phis) == (num, ((1, 1),))
        assert calls == ([False, True] if num.degree else [False])


@pytest.mark.parametrize("length", [0, 1, 32, 33, 1000])
@pytest.mark.parametrize("x", [2, -3, 1 << 20, 10 ** 40 + 7])
def test_int_value_matches_horner(length, x):
    rng = random.Random(length)
    xs = [rng.choice((-1, 1)) * rng.randrange(10 ** 30) for _ in range(length)]
    want = 0
    for c in reversed(xs):
        want = want * x + c
    assert _int_value(xs, x) == want


@settings(max_examples=200, deadline=None)
@given(phis=st.dictionaries(_phi_orders | st.integers(1, 40), st.integers(1, 3), max_size=4),
       a=st.integers(0, 3), c=st.integers(-9, 9).filter(bool), at=st.integers(0, 400),
       bump=st.integers(-2, 2).filter(bool))
@example(phis={105: 1}, a=0, c=1, at=0, bump=1)   # Phi_105 has a coefficient -2
@example(phis={1: 1, 2: 1}, a=0, c=1, at=1, bump=2)   # w^2 + 2w - 1: p(0) = -1, reciprocal
def test_cyclotomic_factors_read_back_the_phi_map(phis, a, c, at, bump):
    # c w^a prod Phi_d^e, orders beyond the degree included (phi(84) = 24),
    # is read back; with one coefficient bumped it is either refused or read
    # as a product that rebuilds it exactly
    poly = [0] * a + [c]
    for d, e in phis.items():
        for _ in range(e):
            poly = _mul_reference(poly, _phi_reference(d))
    assert algebra._cyclotomic_factors(poly) == (c, a, phis)
    poly[a + at % (len(poly) - a)] += bump
    poly = list(_trim(poly))
    assume(poly)
    got = algebra._cyclotomic_factors(poly)
    if got is not None:
        rebuilt = [0] * got[1] + [got[0]]
        for d, e in got[2].items():
            for _ in range(e):
                rebuilt = _mul_reference(rebuilt, _phi_reference(d))
        assert rebuilt == poly


def test_order_bound_covers_every_order_of_small_totient():
    # phi(d) >= sqrt(d/2), so every d with phi(d) <= r is at most 2r^2 + 2:
    # a sieve over those d finds each one that _cyclotomic_factors must reach
    top = 2 * 60 ** 2 + 2
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    for r in range(61):
        bound = algebra._order_bound(r)
        assert all(d <= bound for d in range(1, 2 * r * r + 3) if phi[d] <= r), r


@pytest.mark.parametrize("make", [
    lambda: RationalFunction(P(1), P(1, F(-3, 2))),
    lambda: RationalFunction.from_json({"D": 1, "num": ["1"], "den": ["3", "0", "1"]}),
    lambda: 1 / R((2, 1)),
], ids=["constructor", "from_json", "reciprocal"])
def test_non_cyclotomic_denominators_raise_one_documented_error(make):
    with pytest.raises(NonCyclotomicDenominator) as caught:
        make()
    assert isinstance(caught.value, ValueError)
    assert qvolkenborn.NonCyclotomicDenominator is NonCyclotomicDenominator
    message = str(caught.value)
    assert "\n" not in message and message.endswith("is not c w^a prod Phi_d^e (cyclotomic Phi_d)")


def test_each_denominator_is_built_once_per_phi_map(monkeypatch):
    # the den polynomial is built from the Phi-map when read, by a bounded
    # cache: a second round over the same values builds no map twice (the
    # first round fills the unbounded table of cyclotomic polynomials)
    sym = QDescriptor.symbolic()

    def run():
        values = [k_number(40, sym), beta_number(40, sym), k_number(40, sym)]
        assert all(r.passed for r in verify.run_suites(["kpoly-forms"]))
        return [(v.to_json(), str(v), v.evaluate(2)) for v in values + values]

    want = run()
    assert algebra._phi_product.cache_info().maxsize is not None
    algebra._phi_product.cache_clear()
    built, build = [], algebra._cyclotomic_product

    def spy(powers):
        if sys._getframe(1).f_code.co_name == "_phi_product":
            built.append(tuple(sorted(powers.items())))
        return build(powers)

    monkeypatch.setattr(algebra, "_cyclotomic_product", spy)
    assert run() == want
    assert built and len(built) == len(set(built))


def test_no_polynomial_gcd_is_left():
    gone = ("poly_gcd", "_gcd_int", "_gcd_heu_step", "_primitive", "_exact_quotient_int",
            "_over_monic")
    modules = [qvolkenborn] + [importlib.import_module(f"qvolkenborn.{name}") for name in
                               ("algebra", "characters", "cli", "padic", "qmeasure",
                                "qnumbers", "series", "verify")]
    assert not [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)]
    assert not hasattr(Polynomial, "exact_div") and not hasattr(Polynomial, "monic")


def test_every_reduction_is_algebras():
    # the symbolic reading divides through reduce_cyclotomic_fraction alone:
    # it keeps no division of its own and binds no private divider of algebra
    assert not hasattr(qmeasure._SymbolicReading, "_predicted")
    assert not [name for name in ("_cyclotomic_ratio", "_phi_map", "_cancel",
                                  "_cancel_cyclotomics") if hasattr(qmeasure, name)]


@pytest.mark.parametrize("factor", [{0: 1}, {-2: 1}, {2: -1}])
def test_factored_reduction_rejects_bad_factors(factor):
    with pytest.raises(ValueError):
        reduce_cyclotomic_fraction(Polynomial((1,)), factor)


# ---------------------------------------------------------------------------
# integer-backed polynomials against a Fraction-list reference
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem, quo = list(a), [F(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quo[i] = c
        for j, d in enumerate(b):
            rem[i + j] -= c * d
    return _trim(quo), _trim(rem)


def _ref_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def _ref_gcd(a, b):
    # Euclid with monic remainders, which keeps the fractions small
    while b:
        a, b = b, _ref_monic(_ref_divmod(a, b)[1])
    return _ref_monic(a)


def _canonical(p):
    assert all(type(c) is int for c in p.ints)
    assert p.scale > 0 and math.gcd(p.scale, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    return p.coeffs


@settings(max_examples=150, deadline=None)
@given(a=_coeff_lists, b=_coeff_lists, c=_rationals, n=st.integers(0, 3))
def test_ring_operations_match_fraction_reference(a, b, c, n):
    pa, pb = Polynomial(a), Polynomial(b)
    assert _canonical(pa) == a and _canonical(pb) == b
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    padded = [x + (shorter[i] if i < len(shorter) else 0) for i, x in enumerate(longer)]
    assert _canonical(pa + pb) == _trim(padded)
    assert _canonical(pa - pb) == _trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
         for i in range(max(len(a), len(b)))])
    assert _canonical(-pa) == tuple(-x for x in a)
    assert _canonical(pa * pb) == _ref_mul(a, b)
    assert _canonical(pa * c) == _canonical(c * pa) == _trim(x * c for x in a)
    expected = (F(1),)
    for _ in range(n):
        expected = _ref_mul(expected, a)
    assert _canonical(pa ** n) == expected
    assert (pa == pb) == (a == b)


@settings(max_examples=150, deadline=None)
@given(a=_coeff_lists, point=_rationals, k=st.integers(1, 4))
def test_monic_evaluate_substitute_match_fraction_reference(a, point, k):
    pa = Polynomial(a)
    value = F(0)
    for c in reversed(a):
        value = value * point + c
    assert pa.evaluate(point) == value and type(pa.evaluate(point)) is F
    spread = [F(0)] * (k * (len(a) - 1) + 1) if a else []
    for i, c in enumerate(a):
        spread[i * k] = c
    assert _canonical(pa.substitute_power(k)) == tuple(spread)


def _ref_reduced(num, den):
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


@settings(max_examples=100, deadline=None)
@given(an=_coeff_lists, ad=_cyclotomic_polys, bn=_cyclotomic_polys, bd=_cyclotomic_polys,
       g1=_phi_products(1).filter(lambda p: p.degree > 0),
       g2=_phi_products(1).filter(lambda p: p.degree > 0), c=_rationals)
def test_products_are_canonical_against_euclid_reference(an, ad, bn, bd, g1, g2, c):
    # the nonconstant g1 is planted in a.num and b.den, g2 in b.num and
    # a.den, so a product must cancel across the two operands; b's numerator
    # is c w^a prod Phi_d^e, so a / b is defined.  The planted factors have
    # one order each, which keeps the Euclid reference fast.
    a_num, a_den = _ref_mul(an, g1.coeffs), (ad * g2).coeffs
    b_num, b_den = (bn * g2).coeffs, (bd * g1).coeffs
    a = RationalFunction(Polynomial(a_num), Polynomial(a_den))
    b = RationalFunction(Polynomial(b_num), Polynomial(b_den))
    scaled = _trim(x * c for x in a_num)
    cases = [(a * b, _ref_mul(a_num, b_num), _ref_mul(a_den, b_den)),
             (a * c, scaled, a_den), (c * a, scaled, a_den),
             (a / b, _ref_mul(a_num, b_den), _ref_mul(a_den, b_num))]
    for got, num, den in cases:
        assert (_canonical(got.num), _canonical(got.den)) == _ref_reduced(num, den)


@pytest.mark.parametrize("bad", [0.1, "1/2", None])
def test_polynomial_rejects_non_rational_coefficients(bad):
    with pytest.raises(TypeError):
        Polynomial([bad, 1])


def test_polynomial_equality_agrees_with_its_hash():
    # equal polynomials hash alike; a constant polynomial equals no int or
    # Fraction, since it does not share their hash
    assert len({P(1, F(1, 2)), P(F(2, 2), F(1, 2)), P(1, F(1, 2), 0)}) == 1
    assert P(3) != 3 and P(F(1, 2)) != F(1, 2) and P() != 0
    assert P(3) not in {3} and 3 not in {P(3)}


_int_lists = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=_KRONECKER_CUTOFF - 3,
                      max_size=_KRONECKER_CUTOFF + 3)


@settings(max_examples=40, deadline=None)
@given(a=_int_lists, b=_int_lists)
def test_kronecker_matches_schoolbook_across_cutoff(a, b):
    want = _mul_reference(a, b)
    assert _mul_int(a, b) == want
    assert _mul_int_schoolbook(a, b) == want


# ---------------------------------------------------------------------------
# cyclotomic extension elements
# ---------------------------------------------------------------------------

def monic_remainder(a, b):
    """a mod b for integer coefficient lists (ascending degree), b monic."""
    a = list(a)
    for i in range(len(a) - 1, len(b) - 2, -1):
        top = a[i]
        for j, c in enumerate(b):
            a[i - len(b) + 1 + j] -= top * c
    return a[:len(b) - 1]


def test_root_of_unity_rows_reduce_x_to_the_k():
    for order in range(1, 31):
        phi = list(cyclotomic_polynomial(order).ints)
        rows = root_of_unity_rows(order)
        assert len(rows) == order
        for k, row in enumerate(rows):
            # deg r_k < phi(L), and Phi_L divides x^k - r_k
            assert len(row) == len(phi) - 1
            difference = [-c for c in row] + [0] * max(0, k + 1 - len(row))
            difference[k] += 1
            assert not any(monic_remainder(difference, phi))


def test_root_of_unity_is_its_integer_row():
    assert CyclotomicElement.root_of_unity(4, 2) == CyclotomicElement(4, [-1])
    assert CyclotomicElement.root_of_unity(3, 2) == CyclotomicElement(3, [-1, -1])
    assert CyclotomicElement.root_of_unity(6, 7) == CyclotomicElement(6, [0, 1])
    assert CyclotomicElement(4, [0, 0]).is_zero
    assert CyclotomicElement(4, [1]) != CyclotomicElement(3, [1])


def test_cyclotomic_element_takes_at_most_phi_coordinates():
    with pytest.raises(ValueError):
        CyclotomicElement(4, [0, 0, 1])
    w = RationalFunction.w_power(1, 1)
    elem = CyclotomicElement(5, [w, 0, 0, 1])
    assert elem.coeffs == (w, R((0,)), R((0,)), R((1,)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(f=_ratfuncs)
@example(f=RationalFunction(P(0, F(1, 2), 3), P(2, 0, 2), 3))
def test_json_round_trip(f):
    data = f.to_json()
    assert data["D"] == f.root_order
    back = RationalFunction.from_json(data)
    assert back == f and back.root_order == f.root_order and back.phis == f.phis


def test_json_strings_are_exact():
    f = R((F(-7, 2), 10 ** 40), (1, 1))
    data = f.to_json()
    assert data["num"][1] == str(10 ** 40)
    assert RationalFunction.from_json(data) == f


@settings(max_examples=100, deadline=None)
@given(f=_ratfuncs)
@example(f=R((F(-7, 2), 0, F(5, 6), 3), (F(1, 4), 0, F(1, 4))))
def test_json_strings_are_the_fraction_strings(f):
    # one gcd per coefficient writes what str(Fraction) writes
    data = f.to_json()
    assert data["num"] == [str(c) for c in f.num.coeffs]
    assert data["den"] == [str(c) for c in f.den.coeffs]
