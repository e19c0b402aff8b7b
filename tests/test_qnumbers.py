"""Number-family tests: frozen reduced forms, route agreement, limits.

Frozen forms (numerator/denominator coefficient lists by ascending degree)
were expanded independently with a computer-algebra system before being
asserted here.
"""

import contextlib
import math
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvolkenborn import qmeasure, qnumbers
from qvolkenborn.algebra import (CyclotomicElement, Polynomial, RationalFunction,
                                 root_of_unity_rows)
from qvolkenborn.characters import character_value, make_character, parse_character_id
from qvolkenborn.padic import padic_from_rational
from qvolkenborn.qmeasure import QDescriptor, binomial_fraction_sum
from qvolkenborn.qnumbers import (beta_number, beta_polynomial,
                                  classical_bernoulli, classical_euler, k_chi,
                                  k_distribution_rhs, k_number, k_polynomial)

F = Fraction

EULER = [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2), F(0), F(17, 8),
         F(0), F(-31, 2), F(0), F(691, 4), F(0)]
BERNOULLI = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42),
             F(0), F(-1, 30), F(0), F(5, 66)]


def sym(d=1):
    return QDescriptor.symbolic(d)


def R(num, den=(1,), D=1):
    return RationalFunction(Polynomial(num), Polynomial(den), D)


# ---------------------------------------------------------------------------
# q-Bernoulli numbers
# ---------------------------------------------------------------------------

def test_beta_zero_is_one():
    assert beta_number(0, sym()) == 1


def test_beta_one_frozen():
    assert beta_number(1, sym()) == R((-1,), (1, 1))


def test_beta_two_frozen():
    # q / ((1+q)(1+q+q^2)); its q -> 1 limit is 1/6
    b2 = beta_number(2, sym())
    assert b2 == R((0, 1), (1, 2, 2, 1))
    assert b2.limit_at_one() == F(1, 6)


def test_beta_rational_mode_matches_symbolic():
    q = F(3, 7)
    qd = QDescriptor.rational(q)
    for m in range(7):
        assert beta_number(m, qd) == beta_number(m, sym()).evaluate(q)


# ---------------------------------------------------------------------------
# q-Bernoulli polynomials
# ---------------------------------------------------------------------------

def test_beta_polynomial_at_zero_collapses():
    for n in range(7):
        for form in ("closed", "expansion"):
            assert beta_polynomial(n, 0, sym(), form) == beta_number(n, sym())


def test_beta_polynomial_one_frozen():
    # beta_1(1) = q*beta_1 + [1] = 1/(1+q)
    assert beta_polynomial(1, 1, sym(), "expansion") == R((1,), (1, 1))


def test_beta_polynomial_half_frozen():
    # closed form at n=1, x=1/2, root order 2: (1-w)/((1+w)(1+w^2))
    got = beta_polynomial(1, F(1, 2), sym(2), "closed")
    assert got == R((1, -1), (1, 1, 1, 1), D=2)


def test_beta_forms_agree():
    for x in (F(0), F(1), F(1, 2), F(-1), F(-1, 2)):
        qd = sym(x.denominator)
        for n in range(7):
            assert (beta_polynomial(n, x, qd, "closed")
                    == beta_polynomial(n, x, qd, "expansion"))


def test_beta_integral_form_matches_padic():
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    for n in range(4):
        for x in (0, 1, 2):
            got = beta_polynomial(n, x, qd, "integral", stability=4, n_max=8)
            want = padic_from_rational(
                beta_polynomial(n, x, sym()).evaluate(6), 5, 28)
            assert (got - want).valuation >= 4


# ---------------------------------------------------------------------------
# q-Euler numbers and polynomials
# ---------------------------------------------------------------------------

def test_k_zero_is_one():
    assert k_number(0, sym()) == 1


def test_k_one_frozen():
    assert k_number(1, sym()) == R((0, -1), (1, 0, 1))


def test_k_two_frozen():
    # q(q-1) / ((1+q^2)(1-q+q^2))
    assert k_number(2, sym()) == R((0, -1, 1), (1, -1, 2, -1, 1))


def test_k_limit_is_classical_euler():
    for n in range(13):
        assert k_number(n, sym()).limit_at_one() == EULER[n]


def test_k_polynomial_at_zero_is_k_number():
    for n in range(9):
        for form in ("closed", "expansion"):
            assert k_polynomial(n, 0, sym(), form) == k_number(n, sym())


def test_k_polynomial_one_frozen():
    # K_1(1) = 1/(1+q^2)
    assert k_polynomial(1, 1, sym(), "closed") == R((1,), (1, 0, 1))


def test_k_polynomial_forms_agree():
    for x in (F(0), F(1), F(2), F(1, 2), F(1, 3), F(-1), F(-1, 2)):
        qd = sym(x.denominator)
        for n in range(9):
            assert (k_polynomial(n, x, qd, "closed")
                    == k_polynomial(n, x, qd, "expansion"))


def test_k_polynomial_integral_form_matches_closed():
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    for n in range(5):
        for x in (0, 1, 2):
            got = k_polynomial(n, x, qd, "integral", stability=5, n_max=8)
            want = padic_from_rational(
                k_polynomial(n, x, sym()).evaluate(6), 5, 28)
            assert (got - want).valuation >= 5


def test_k_rational_mode_matches_symbolic():
    q = F(2, 9)
    qd = QDescriptor.rational(q)
    for n in range(6):
        assert k_number(n, qd) == k_number(n, sym()).evaluate(q)


# ---------------------------------------------------------------------------
# distribution relation
# ---------------------------------------------------------------------------

def test_distribution_m_one_is_identity():
    for n in range(5):
        assert k_distribution_rhs(n, 1, 1, sym()) == k_polynomial(n, 1, sym())


def test_distribution_m_three_n_zero_is_one():
    assert k_distribution_rhs(0, 0, 3, sym()) == 1


def test_distribution_relation_exact():
    for x in (F(0), F(1, 3)):
        qd = sym(x.denominator)
        for m in (1, 3, 5):
            for n in range(7):
                assert k_distribution_rhs(n, x, m, qd) == k_polynomial(n, x, qd)


def test_distribution_rejects_even_m():
    with pytest.raises(ValueError):
        k_distribution_rhs(2, 0, 4, sym())


def test_distribution_rational_spot_check():
    # independently computed at q = 2: K_1(0) = -2/5 through the m = 3 side
    qd = QDescriptor.rational(F(2))
    assert k_distribution_rhs(1, 0, 3, qd) == F(-2, 5)


# ---------------------------------------------------------------------------
# character twists
# ---------------------------------------------------------------------------

def test_k_chi_trivial_character_is_k_number():
    chi = make_character(1, ())
    for n in range(5):
        assert k_chi(n, chi, sym()) == k_number(n, sym())


def test_k_chi_quadratic_frozen():
    chi = make_character(3, (1,))
    # -q(1+q)/(1-q+q^2) and q(q-1)(q+1)(q^2+q+1)/((1-q+q^2)(1-q^2+q^4))
    assert k_chi(0, chi, sym()) == R((0, -1, -1), (1, -1, 1))
    assert k_chi(1, chi, sym()) == R((0, -1, -1, 0, 1, 1), (1, -1, 0, 1, 0, -1, 1))


def test_k_chi_integral_matches_closed():
    chi = make_character(3, (1,))
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    for n in range(5):
        got = k_chi(n, chi, qd, method="integral", stability=5, n_max=7)
        want = padic_from_rational(k_chi(n, chi, sym()).evaluate(6), 5, 28)
        assert (got - want).valuation >= 5


def test_k_chi_rejects_even_conductor():
    chi = make_character(4, (1,))
    with pytest.raises(ValueError):
        k_chi(0, chi, sym())


def test_k_chi_higher_order_is_cyclotomic_valued():
    chi = make_character(5, (1,))  # value order 4
    value = k_chi(0, chi, sym())
    assert isinstance(value, CyclotomicElement)
    qd = QDescriptor.padic(padic_from_rational(6, 5, 16))
    with pytest.raises(ValueError):
        k_chi(0, chi, qd, method="integral")


def base_change_twist(n, x, m, q, weights):
    """Reference: [m]^n/[m]_- sum_a weights[a] (-1)^a q^a K_n(q^m; (a+x)/m),
    each term the closed polynomial at q^m, whose exponents (a+x)k/m against
    q^m are the integer exponents (a+x)k against q."""
    acc = 0
    for a in range(m):
        if weights[a]:
            numerators = [{(a + x) * k: (-1) ** k * math.comb(n, k)} for k in range(n + 1)]
            inner = binomial_fraction_sum(q, numerators, 1, m, [(1, m, 1), (-1, m, -n)])
            term = weights[a] * q.qpow(a) * inner
            acc = acc - term if a % 2 else acc + term
    return q.bracket(m) ** n / q.minus_bracket(m) * acc


def assert_sound_and_not_fewer_digits(got, reference, exact):
    assert got.absolute_precision >= reference.absolute_precision
    assert got.agrees_with(reference, reference.absolute_precision)
    image = padic_from_rational(exact, got.p, got.absolute_precision + 60)
    assert got.agrees_with(image, got.absolute_precision)


# p-adic q as (rational q, p, digits); the twists' conductors and the
# distribution's m include multiples of p
PADIC_QS = [(4, 3, 20), (10, 3, 12), (6, 5, 32), (26, 5, 12), (F(6, 11), 5, 16), (8, 7, 16)]


@pytest.mark.parametrize("q_value, p, digits", PADIC_QS)
def test_padic_twists_claim_sound_digits_and_no_fewer(q_value, p, digits):
    qd = QDescriptor.padic(padic_from_rational(q_value, p, digits))
    exact_q = QDescriptor.rational(q_value)
    for chi_id in ("1:", "3:1", "5:2", "7:3", "9:3", "15:1,2", "21:0,3"):
        chi = parse_character_id(chi_id)
        weights = [character_value(chi, a) for a in range(chi.modulus)]
        for n in range(6):
            assert_sound_and_not_fewer_digits(
                k_chi(n, chi, qd), base_change_twist(n, F(0), chi.modulus, qd, weights),
                k_chi(n, chi, exact_q))
    for m in (1, 3, 5, 7, 9, 15):
        for x in (F(0), F(1), F(-1), F(2)):
            for n in range(6):
                assert_sound_and_not_fewer_digits(
                    k_distribution_rhs(n, x, m, qd), base_change_twist(n, x, m, qd, [1] * m),
                    k_distribution_rhs(n, x, m, exact_q))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_k_chi_finite_level_factorization(n):
    """The conductor-f Riemann sum at a finite level already factors through
    the f residue classes: it equals the twisted combination of base-q^f
    Riemann sums at shifted arguments, exactly in the symbolic field.  The
    inner sums are taken at root order 3, where w^3 stands for q^3 and the
    shifts a/3 are integer powers of w, and then read with w as q.

    f = 3 with p = 5, since the profinite domain needs gcd(f, p) = 1."""
    from qvolkenborn.padic import ProfiniteDomain
    from qvolkenborn.qmeasure import (FERMIONIC, MeasureSpec, bracket_power,
                                      character_twisted_power, riemann_sum)

    chi = make_character(3, (1,))
    qd = sym()
    lhs = riemann_sum(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, 3)),
                      character_twisted_power(qd, n, chi), 1)
    base = sym(3)
    inner_spec = MeasureSpec(FERMIONIC, base, ProfiniteDomain(5))
    acc = 0
    for a in range(3):
        chi_a = chi(a)
        if chi_a == 0:
            continue
        v = riemann_sum(inner_spec, bracket_power(base, n, F(a, 3)), 1)
        inner = RationalFunction(v.num, v.den, 1)
        term = chi_a * qd.qpow(a) * inner
        acc = acc - term if a % 2 else acc + term
    assert lhs == qd.bracket(3) ** n / qd.minus_bracket(3) * acc


# ---------------------------------------------------------------------------
# classical oracles
# ---------------------------------------------------------------------------

def test_classical_euler_low_orders():
    assert classical_euler(3) == [F(1), F(-1, 2), F(0), F(1, 4)]


def test_classical_euler_table():
    assert classical_euler(12) == EULER


def test_classical_bernoulli_low_orders():
    assert classical_bernoulli(2) == [F(1), F(-1, 2), F(1, 6)]


def test_classical_bernoulli_table():
    assert classical_bernoulli(10) == BERNOULLI


def test_beta_limits_match_bernoulli():
    for n in range(11):
        assert beta_number(n, sym()).limit_at_one() == BERNOULLI[n]


# ---------------------------------------------------------------------------
# the closed-form value caches
# ---------------------------------------------------------------------------

_CACHES = (qnumbers._closed,)


def _padic(q_value, prec):
    return QDescriptor.padic(padic_from_rational(q_value, 5, prec))


def test_closed_form_caches_are_bounded():
    for cache in _CACHES:
        assert cache.cache_info().maxsize is not None


@pytest.mark.parametrize("make", [lambda: sym(2), lambda: QDescriptor.rational(F(2, 5)),
                                  lambda: _padic(6, 32)], ids=["symbolic", "rational", "padic"])
def test_equal_descriptors_share_a_cache_entry(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for cache in _CACHES:
        cache.cache_clear()
    first = k_polynomial(4, 1, a), beta_polynomial(4, 1, a)
    hits = [cache.cache_info().hits for cache in _CACHES]
    again = k_polynomial(4, 1, b), beta_polynomial(4, 1, b)
    assert [cache.cache_info().hits for cache in _CACHES] == [h + 2 for h in hits]
    assert all(x is y for x, y in zip(first, again))


@pytest.mark.parametrize("a, b", [
    (_padic(6, 32), _padic(6, 128)),
    (sym(1), sym(2)),
    (QDescriptor.rational(F(2, 5)), QDescriptor.rational(F(3, 5))),
], ids=["padic-precision", "root-order", "rational-q"])
def test_distinct_descriptors_never_share_a_cache_entry(a, b):
    assert a != b
    for cache in _CACHES:
        cache.cache_clear()
    k_polynomial(3, 2, a), beta_polynomial(3, 2, a)
    k_polynomial(3, 2, b), beta_polynomial(3, 2, b)
    assert [cache.cache_info().hits for cache in _CACHES] == [0]
    assert [cache.cache_info().currsize for cache in _CACHES] == [4]


# two readings per mode, so a key that confused them would show
_QS = [sym(1), sym(3), QDescriptor.rational(F(-3, 7)), QDescriptor.rational(F(2, 5)),
       _padic(6, 20), _padic(6, 32)]
_CHARS = [make_character(1, ()), make_character(3, (1,)), make_character(5, (2,)),
          make_character(5, (1,)), make_character(7, (1,))]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(_QS), n=st.integers(0, 7), thirds=st.integers(-9, 9),
       m=st.sampled_from([1, 3, 5]), chi=st.sampled_from(_CHARS))
def test_cached_values_equal_cold_values(q, n, thirds, m, chi):
    # K_n(x), beta_n(x), the distribution right side and the k_chi rows, read
    # warm, equal the values computed again after the caches are cleared
    x = F(thirds, q.root_order if q.mode == "symbolic" else 1)
    if q.mode == "padic" and chi.value_order > 2:
        chi = _CHARS[1]
    calls = [lambda: k_polynomial(n, x, q), lambda: beta_polynomial(n, x, q),
             lambda: k_distribution_rhs(n, x, m, q), lambda: k_chi(n, chi, q)]
    warm = [call() for call in calls]
    assert [call() for call in calls] == warm
    for cache in _CACHES:
        cache.cache_clear()
    assert [call() for call in calls] == warm


# ---------------------------------------------------------------------------
# one geometric-sum builder: the kernel inputs of the former closed bodies
# ---------------------------------------------------------------------------

def _int_if_integral(x):
    x = F(x)
    return x.numerator if x.denominator == 1 else x


def _former_twisted_inputs(n, x, m, weights):
    """The kernel call of the former K body: ([m]^n/[m]_-) sum_a weights[a]
    (-1)^a q^a K(base q^m, (a+x)/m) = (1+q)(1-q)^-n sum_k (...)/(1 + q^(m(k+1)))."""
    x = _int_if_integral(x)
    numerators = [{a + (a + x) * k: weights[a] * (-1) ** (a + k) * math.comb(n, k)
                   for a in range(m) if weights[a]} for k in range(n + 1)]
    return numerators, 1, m, [(1, 1, 1), (-1, 1, -n)]


def _former_bernoulli_inputs(n, x):
    """The kernel call of the former beta body: the power moments (i+1)/[i+1]
    under q^(x i) weights, one power of (1-q) cancelled."""
    x = _int_if_integral(x)
    numerators = [{x * i: (-1) ** i * math.comb(n, i) * (i + 1)} for i in range(n + 1)]
    return numerators, -1, 1, [(-1, 1, 1 - n)]


_TWISTS = [make_character(3, (1,)), make_character(5, (2,)), make_character(5, (1,)),
           make_character(7, (1,))]


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([sym(3), QDescriptor.rational(F(-3, 7)), _padic(6, 32)]),
       n=st.integers(0, 8), thirds=st.integers(-9, 9), m=st.sampled_from([1, 3, 5]),
       chi=st.sampled_from(_TWISTS))
def test_the_builder_passes_the_kernel_the_former_inputs(q, n, thirds, m, chi):
    # K_n(x), beta_n(x), the distribution right side and each k_chi row is one
    # geometric_sum call, which makes one binomial_fraction_sum call with the
    # numerator terms, sign, step and prefactors of the former closed bodies
    # (the order-4 character mod 5 takes two rows; at p-adic q, where only
    # orders <= 2 exist, the quadratic one mod 5)
    x = F(thirds, 3)
    if q.mode == "padic" and chi.value_order > 2:
        chi = _TWISTS[1]
    rows = root_of_unity_rows(chi.value_order)
    want = [_former_twisted_inputs(n, x, 1, (1,)), _former_bernoulli_inputs(n, x),
            _former_twisted_inputs(n, x, m, (1,) * m)]
    want += [_former_twisted_inputs(n, 0, chi.modulus, tuple(
        0 if k is None else rows[k][i] for k in chi.exponent_table))
        for i in range(len(rows[0]))]
    kernel, builder, got, built = (qmeasure.binomial_fraction_sum, qnumbers.geometric_sum,
                                   [], [])

    def kernel_spy(qd, numerators, sign, step, prefactor=()):
        got.append(([{e: c for e, c in num.items() if c} for num in numerators],
                    sign, step, list(prefactor)))
        return kernel(qd, numerators, sign, step, prefactor)

    with unittest.mock.patch.object(qmeasure, "binomial_fraction_sum", kernel_spy), \
            unittest.mock.patch.object(qnumbers, "geometric_sum",
                                       lambda *args: built.append(args) or builder(*args)):
        for call in (lambda: k_polynomial(n, x, q), lambda: beta_polynomial(n, x, q),
                     lambda: k_distribution_rhs(n, x, m, q), lambda: k_chi(n, chi, q)):
            qnumbers._closed.cache_clear()   # m = 1 shares K_n(x)'s entry
            # a fractional q-power raises in the kernel at rational and p-adic q
            with contextlib.suppress(ValueError):
                call()
    assert got == want
    assert len(built) == len(want)
