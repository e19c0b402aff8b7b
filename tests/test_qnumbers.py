"""Number-family tests: frozen reduced forms, route agreement, limits.

Frozen forms (numerator/denominator coefficient lists by ascending degree)
were expanded independently with a computer-algebra system before being
asserted here.
"""

from fractions import Fraction

import pytest

from qvolkenborn.algebra import CyclotomicElement, Polynomial, RationalFunction
from qvolkenborn.characters import character_value, make_character, parse_character_id
from qvolkenborn.padic import padic_from_rational
from qvolkenborn.qmeasure import QDescriptor
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
    each term a closed polynomial against the base-q^m descriptor."""
    base = q.with_base_power(m)
    acc = 0
    for a in range(m):
        if weights[a]:
            term = weights[a] * q.qpow(a) * k_polynomial(n, (a + x) / m, base)
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
    Riemann sums at shifted arguments, exactly in the symbolic field.

    f = 3 with p = 5, since the profinite domain needs gcd(f, p) = 1."""
    from qvolkenborn.padic import ProfiniteDomain
    from qvolkenborn.qmeasure import (FERMIONIC, MeasureSpec, bracket_power,
                                      character_twisted_power, riemann_sum)

    chi = make_character(3, (1,))
    qd = sym()
    lhs = riemann_sum(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, 3)),
                      character_twisted_power(qd, n, chi), 1)
    base = qd.with_base_power(3)
    inner_spec = MeasureSpec(FERMIONIC, base, ProfiniteDomain(5))
    acc = 0
    for a in range(3):
        chi_a = chi(a)
        if chi_a == 0:
            continue
        inner = riemann_sum(inner_spec, bracket_power(base, n, F(a, 3)), 1)
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
