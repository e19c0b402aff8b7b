"""Number-family tests: frozen reduced forms, route agreement, limits.

Frozen forms (numerator/denominator coefficient lists by ascending degree)
were expanded independently with a computer-algebra system before being
asserted here.
"""

import math
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvolkenborn import algebra, qmeasure, qnumbers
from qvolkenborn.algebra import (CyclotomicElement, InputError, Polynomial, QvolkError,
                                 RationalFunction, ZeroAtPrecisionError, root_of_unity_rows)
from qvolkenborn.characters import (character_value, enumerate_characters, make_character,
                                    parse_character_id)
from qvolkenborn.padic import ProfiniteDomain, padic_from_rational
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor, ball_measure_sum,
                                  bosonic_power_moment, bracket_power,
                                  fermionic_power_moment, riemann_sum)
from qvolkenborn.qnumbers import (beta_number, beta_polynomial, classical_bernoulli,
                                  classical_euler, family_value, k_chi, k_distribution_rhs,
                                  k_number, k_polynomial)
from test_rational_reading import _field_sum, _padic_qs, minus_bracket

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


def _residue_sum(n, d):
    """T(n, d) = sum_{j>=1} (-1)^(jd-1) C(n, jd-1), the residue of beta_n's
    closed form at a primitive d-th root of unity, up to a unit."""
    return sum((-1) ** k * math.comb(n, k) for k in range(d - 1, n + 1, d))


def test_reduced_denominators_follow_the_residue_theorems():
    # K_n reduces to prod_{d=2}^{n+1} Phi_2d, and beta_n holds Phi_d
    # (2 <= d <= n+1) to the power 1 exactly when T(n, d) != 0; neither keeps
    # a power of w.  beta_n lacks a Phi_d only at odd n, for the d | n+2.
    lacking = {}
    for n in range(61):
        k, beta = k_number(n, sym()), beta_number(n, sym())
        assert (k.phis, k.w_exp) == (tuple((2 * d, 1) for d in range(2, n + 2)), 0), n
        assert beta.phis == tuple((d, 1) for d in range(2, n + 2) if _residue_sum(n, d)), n
        assert beta.w_exp == 0, n
        missing = [d for d in range(2, n + 2) if (d, 1) not in beta.phis]
        if missing:
            lacking[n] = missing
    assert len(lacking) == 13
    assert all(n % 2 and missing == [d for d in range(2, n + 2) if (n + 2) % d == 0]
               for n, missing in lacking.items())
    assert lacking[7] == [3] and lacking[43] == [3, 5, 9, 15]


def _closed_kernel_call(kind, n, q):
    """The kernel arguments of the closed K_n (fermionic) or beta_n (bosonic)."""
    calls = []
    with unittest.mock.patch.object(qmeasure, "binomial_fraction_sum",
                                    lambda *args: calls.append(args)):
        qmeasure.geometric_sum(q, kind, n, 0, (1,))
    return calls[0]


_REFERENCE_CASES = ([(1, n) for n in [*range(61), *range(61, 151, 3)]]
                    + [(d, n) for d in (2, 3) for n in range(21)])


def _fields(f):
    return f.num, f.w_exp, f.phis, f.root_order


def _no_screen(*args):
    raise AssertionError("the predicted reduction screened")


@pytest.mark.parametrize("kind", (FERMIONIC, BOSONIC))
def test_the_predicted_reduction_is_the_screened_one(kind):
    # the closed K_n and beta_n make one reduce_cyclotomic_fraction call with
    # the predicted map, which divides their unreduced kernel output once,
    # with no screen, by the product that the residue theorems say cancels;
    # the same call without the map screens, and gives the same fields, and
    # the kernel's value is that screened one in u = q.  So the theorems'
    # test above does not check the maps against themselves
    reduce = algebra.reduce_cyclotomic_fraction
    for root, n in _REFERENCE_CASES:
        q, numerators, sign, step, prefactor, reduced = _closed_kernel_call(kind, n, sym(root))
        assert reduced is not None
        calls = []

        def spy(*args):
            calls.append((args, reduce(*args)))
            return calls[-1][1]

        with unittest.mock.patch.object(qmeasure, "reduce_cyclotomic_fraction", spy), \
                unittest.mock.patch.object(algebra, "_cancel_cyclotomics", _no_screen):
            direct = qmeasure.binomial_fraction_sum(q, numerators, sign, step, prefactor,
                                                    reduced)
        [((num, phis, root_order, low, predicted), got)] = calls
        assert predicted is reduced and root_order == root
        want = reduce(num, phis, root_order, low)
        assert _fields(got) == _fields(want), (root, n)
        assert _fields(direct) == _fields(want.substitute(root)), (root, n)


@pytest.mark.parametrize("kind, n, root", [(FERMIONIC, 9, 1), (BOSONIC, 9, 1),
                                           (FERMIONIC, 6, 2), (BOSONIC, 12, 3)])
def test_a_wrong_predicted_map_raises(kind, n, root):
    # a map with one Phi_d dropped asks for a division by Phi_d that is not
    # exact; one that claims a Phi_d den does not hold leaves a map without it
    q, numerators, sign, step, prefactor, reduced = _closed_kernel_call(kind, n, sym(root))
    wrong = [{e: k for e, k in reduced.items() if e != d} for d in reduced]
    wrong.append({**reduced, 3 * (n + 2): 1})
    for planted in wrong:
        with pytest.raises(ArithmeticError, match="predicted Phi-map"):
            qmeasure.binomial_fraction_sum(q, numerators, sign, step, prefactor, planted)


def test_a_predicted_map_needs_the_sum_in_q():
    # at root order 2 a numerator at w = q^(1/2) makes the reading run in w,
    # where a map predicted in q does not apply
    with pytest.raises(ValueError, match="run in u = q"):
        qmeasure.binomial_fraction_sum(sym(2), [{0: 1, 1: 1}], 1, 2, [], {})


def test_closed_k_and_beta_numbers_run_no_screen(monkeypatch):
    # K_n and beta_n (n <= 40) reduce with no Phi_d screen; a shifted
    # polynomial at root order 2 still screens
    calls, screen = [], algebra._cancel_cyclotomics
    monkeypatch.setattr(algebra, "_cancel_cyclotomics",
                        lambda *args: calls.append(args) or screen(*args))
    qnumbers._closed.cache_clear()
    for n in range(41):
        k_number(n, sym())
        beta_number(n, sym())
    assert calls == []
    k_polynomial(6, F(1, 2), sym(2))
    assert calls


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
            got = family_value(BOSONIC, n, x, qd, form="integral", stability=4, n_max=8)
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


@pytest.mark.parametrize("polynomial", [k_polynomial, beta_polynomial])
@pytest.mark.parametrize("p, q, x", [(p, q, x) for p, q in ((5, 6), (3, 4))
                                     for x in (0, p, -1, -2, -4)])
def test_padic_expansions_keep_the_closed_digits(polynomial, p, q, x):
    # [x]_q is zero-at-precision (x = 0) or divisible by p (x = p), and its
    # 0-th power is the exact 1; at x < 0 the expansion's q^(kx) is a
    # negative power, one reciprocal.  The expansion agrees with the closed
    # form on every digit both claim and claims at most one digit fewer
    qd = QDescriptor.padic(padic_from_rational(q, p, 32))
    for n in range(7):
        closed, expansion = (polynomial(n, x, qd, form) for form in ("closed", "expansion"))
        digits = min(closed.absolute_precision, expansion.absolute_precision)
        assert closed.agrees_with(expansion, digits)
        assert expansion.absolute_precision >= closed.absolute_precision - 1 >= 28


def test_k_polynomial_integral_form_matches_closed():
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    for n in range(5):
        for x in (0, 1, 2):
            got = family_value(FERMIONIC, n, x, qd, form="integral", stability=5, n_max=8)
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


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
def test_the_trivial_twist_is_the_untwisted_family(kind):
    # the row loop over the trivial character's one row gives the value
    # that the untwisted family takes directly, with the table (1,)
    trivial = make_character(1, ())
    for n in range(5):
        for x in (0, 2, -1):
            assert family_value(kind, n, x, sym(), trivial) == family_value(kind, n, x, sym())


def test_a_twist_takes_no_expansion_route():
    with pytest.raises(ValueError, match="the expansion route is untwisted"):
        family_value(BOSONIC, 1, 0, sym(), make_character(3, (1,)), "expansion")


def test_k_chi_quadratic_frozen():
    chi = make_character(3, (1,))
    # -q(1+q)/(1-q+q^2) and q(q-1)(q+1)(q^2+q+1)/((1-q+q^2)(1-q^2+q^4))
    assert k_chi(0, chi, sym()) == R((0, -1, -1), (1, -1, 1))
    assert k_chi(1, chi, sym()) == R((0, -1, -1, 0, 1, 1), (1, -1, 0, 1, 0, -1, 1))


def test_k_chi_integral_matches_closed():
    chi = make_character(3, (1,))
    qd = QDescriptor.padic(padic_from_rational(6, 5, 32))
    for n in range(5):
        got = k_chi(n, chi, qd, form="integral", stability=5, n_max=7)
        want = padic_from_rational(k_chi(n, chi, sym()).evaluate(6), 5, 28)
        assert (got - want).valuation >= 5


@pytest.mark.parametrize("chi_id, p, q_value", [("3:1", 3, 4), ("9:3", 3, 4),
                                                ("5:2", 5, 6), ("15:1,0", 5, 6)])
def test_k_chi_integral_where_p_divides_the_modulus(chi_id, p, q_value):
    # the integral runs over Z_p x Z/d, d the p-free part of the modulus,
    # and its certified digits agree with the closed form
    chi = parse_character_id(chi_id)
    qd = QDescriptor.padic(padic_from_rational(q_value, p, 32))
    for n in range(4):
        got = k_chi(n, chi, qd, form="integral")
        assert got.absolute_precision == 5 and got.agrees_with(k_chi(n, chi, qd), 5)


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
        k_chi(0, chi, qd, form="integral")


def base_change_twist(n, x, m, q, weights):
    """Reference: [m]^n/[m]_- sum_a weights[a] (-1)^a q^a K_n(q^m; (a+x)/m),
    each term the closed polynomial at q^m by the field chain, whose
    exponents (a+x)k/m against q^m are the integer exponents (a+x)k against
    q."""
    acc = 0
    for a in range(m):
        if weights[a]:
            numerators = [{(a + x) * k: (-1) ** k * math.comb(n, k)} for k in range(n + 1)]
            inner = _field_sum(q, numerators, 1, m, [(1, m, 1), (-1, m, -n)])
            term = weights[a] * q.qpow(a) * inner
            acc = acc + (-term if a % 2 else term)
    return q.bracket(m) ** n / minus_bracket(q, m) * acc


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


# the trivial character and the quadratic ones of odd modulus up to 21
_QUADRATIC = [chi for m in range(1, 22, 2) for chi in enumerate_characters(m)
              if chi.value_order <= 2]


@settings(max_examples=200, deadline=None)
@given(point=_padic_qs(), family=st.sampled_from(("family", "distribution")),
       kind=st.sampled_from((BOSONIC, FERMIONIC)), twist=st.sampled_from([None] + _QUADRATIC),
       n=st.integers(0, 10), x=st.integers(-4, 4), m=st.sampled_from([1, 3, 5, 9, 15]),
       delta=st.integers(-30, 30))
# beta_10 at padic:3:10:4, where 1 - q^9 is zero at precision A = 4
@example(point=(3, F(10), 4), family="family", kind=BOSONIC, twist=None, n=10, x=0, m=1, delta=1)
# K_10 at padic:3:10:3: one digit, A - v_3(1 - q)
@example(point=(3, F(10), 3), family="family", kind=FERMIONIC, twist=None, n=10, x=0, m=1,
         delta=-2)
def test_closed_padic_values_claim_their_proven_digits(point, family, kind, twist, n, x, m,
                                                        delta):
    # a family value (either kind, untwisted or a quadratic twist, at x) and
    # the distribution right side at p-adic q agree with the rational
    # reading at the same q, and at q + p^A delta (the same truncated q), on
    # every digit they claim, and claim at least the proven bound of
    # qmeasure._residue_sum: A - t for n >= 1 and A for n = 0 (fermionic;
    # t = v_p(1 - q)), A - sum_{k<=n} v_p(l (k+1)) + min(0, v) for a bosonic
    # value of valuation v, l the table length (the twist's modulus, 1
    # untwisted)
    p, q, precision = point
    calls = {"family": lambda qd: family_value(kind, n, x, qd, twist),
             "distribution": lambda qd: k_distribution_rhs(n, x, m, qd)}
    got = calls[family](QDescriptor.padic(padic_from_rational(q, p, precision)))
    digits = got.absolute_precision
    if family == "family" and kind == BOSONIC:
        length = 1 if twist is None else twist.modulus
        bound = precision - sum(qmeasure._int_valuation(length * (k + 1), p) for k in range(n + 1))
        bound += min(0, got.valuation)
    else:
        bound = precision - qmeasure._int_valuation((q - 1).numerator, p) if n else precision
    assert digits >= bound
    for exact_q in (q, q + p ** precision * delta):
        exact = calls[family](QDescriptor.rational(exact_q))
        assert got.agrees_with(padic_from_rational(exact, p, max(digits, 0) + 60) if exact else 0,
                               digits)


def _value_or_refusal(compute):
    try:
        return compute()
    except (QvolkError, ZeroDivisionError):
        return "refused"


# r away from 0 and the roots of unity: the rational reading divides by the
# unreduced binomials 1 +- q^e and takes negative powers of q, so it refuses
# there even where the reduced symbolic value is finite
_POINTS = st.builds(F, st.integers(-9, 9), st.integers(1, 9)).filter(lambda r: r and abs(r) != 1)


@settings(max_examples=400, deadline=None)
@given(r=_POINTS, root_order=st.sampled_from((1, 2, 3)),
       family=st.sampled_from(("family", "distribution", "fermionic_moment", "bosonic_moment",
                               "ball_measure_sum", "riemann_sum", "riemann_chi")),
       twist=st.sampled_from([None] + _QUADRATIC), form=st.sampled_from(("closed", "expansion")),
       n=st.integers(0, 6), x=st.integers(-3, 3), m=st.sampled_from((1, 3, 5)),
       chi=st.sampled_from(_QUADRATIC), kind=st.sampled_from((BOSONIC, FERMIONIC)),
       domain=st.sampled_from(((3, 1), (5, 1), (5, 3))), level=st.integers(1, 2),
       reps=st.lists(st.integers(0, 74), max_size=6))
def test_symbolic_values_evaluate_to_the_rational_reading(r, root_order, family, twist, form, n,
                                                          x, m, chi, kind, domain, level, reps):
    # the symbolic value at root order D, evaluated at w = r, is the rational
    # reading at q = r^D; a refusal in both readings counts as agreement.
    # A family value takes either kind, untwisted (by either form) or a
    # quadratic twist (closed); the measure families take either kind over
    # ProfiniteDomain(p, d), p in {3, 5} and d in {1, 3} prime to p, at
    # levels 1 and 2
    size = domain[1] * domain[0] ** level

    def spec(qd):
        return MeasureSpec(kind, qd, ProfiniteDomain(*domain))

    calls = {"family": lambda qd: family_value(kind, n, x, qd, twist,
                                               form if twist is None else "closed"),
             "distribution": lambda qd: k_distribution_rhs(n, x, m, qd),
             "fermionic_moment": lambda qd: fermionic_power_moment(n, qd),
             "bosonic_moment": lambda qd: bosonic_power_moment(n, qd),
             "ball_measure_sum": lambda qd: ball_measure_sum(spec(qd), [a % size for a in reps],
                                                             level),
             "riemann_sum": lambda qd: riemann_sum(spec(qd), bracket_power(qd, n, x), level),
             "riemann_chi": lambda qd: riemann_sum(spec(qd), bracket_power(qd, n, 0, chi), level)}
    symbolic = _value_or_refusal(lambda: calls[family](sym(root_order)).evaluate(r))
    rational = _value_or_refusal(lambda: calls[family](QDescriptor.rational(r ** root_order)))
    assert symbolic == rational


@pytest.mark.parametrize("n", [0, 1, 2])
def test_k_chi_finite_level_factorization(n):
    """The conductor-f Riemann sum at a finite level already factors through
    the f residue classes: it equals the twisted combination of base-q^f
    Riemann sums at shifted arguments, exactly in the symbolic field.  The
    inner sums are taken at root order 3, where w^3 stands for q^3 and the
    shifts a/3 are integer powers of w, and then read with w as q.

    f = 3 with p = 5, since the profinite domain needs gcd(f, p) = 1."""
    from qvolkenborn.padic import ProfiniteDomain
    from qvolkenborn.qmeasure import FERMIONIC, MeasureSpec, bracket_power, riemann_sum

    chi = make_character(3, (1,))
    qd = sym()
    lhs = riemann_sum(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, 3)),
                      bracket_power(qd, n, 0, chi), 1)
    base = sym(3)
    inner_spec = MeasureSpec(FERMIONIC, base, ProfiniteDomain(5))
    acc = 0
    for a in range(3):
        chi_a = character_value(chi, a)
        if chi_a == 0:
            continue
        v = riemann_sum(inner_spec, bracket_power(base, n, F(a, 3)), 1)
        inner = RationalFunction(v.num, v.den, 1)
        term = chi_a * qd.qpow(a) * inner
        acc = acc + (-term if a % 2 else term)
    assert lhs == qd.bracket(3) ** n / minus_bracket(qd, 3) * acc


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


def _in_w(inputs, root):
    """Kernel inputs in powers of q as powers of w (w^D = q), or None where
    one is fractional: the builder refuses that power before the kernel."""
    numerators, sign, step, prefactor = inputs
    if any((root * e).denominator != 1 for num in numerators for e in num):
        return None
    return ([{int(root * e): c for e, c in num.items()} for num in numerators], sign,
            root * step, [(s, root * e, power) for s, e, power in prefactor])


def _predicted_maps(q, n, x, m, rows):
    """The Phi-maps the builder predicts for the calls of the test below:
    at symbolic q, K_n(x) and beta_n(x) at x = 0 or n = 0, where x is not
    read, and the distribution side at m = 1, which is K_n(x); None for
    every other call and at other q."""
    if q.mode != "symbolic" or x and n:
        return [None] * (3 + rows)
    k_map = {2 * d: 1 for d in range(2, n + 2)}
    beta_map = {d: 1 for d in range(2, n + 2) if _residue_sum(n, d)}
    return [k_map, beta_map, k_map if m == 1 else None] + [None] * rows


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([sym(3), QDescriptor.rational(F(-3, 7)), _padic(6, 32)]),
       n=st.integers(0, 8), thirds=st.integers(-9, 9), m=st.sampled_from([1, 3, 5]),
       chi=st.sampled_from(_TWISTS))
@example(q=sym(3), n=7, thirds=0, m=1, chi=_TWISTS[0])
@example(q=sym(3), n=8, thirds=0, m=3, chi=_TWISTS[2])
@example(q=QDescriptor.rational(F(-3, 7)), n=5, thirds=0, m=1, chi=_TWISTS[1])
def test_the_builder_passes_the_kernel_the_former_inputs(q, n, thirds, m, chi):
    # K_n(x), beta_n(x), the distribution right side and each k_chi row is one
    # geometric_sum call, which makes one binomial_fraction_sum call with the
    # numerator terms, sign, step and prefactors of the former closed bodies
    # as powers of w (the order-4 character mod 5 takes two rows; at p-adic
    # q, where only orders <= 2 exist, the quadratic one mod 5), and with the
    # predicted Phi-map of the x = 0 untwisted limits at symbolic q, None
    # elsewhere; at rational q a fractional power raises before the kernel.
    # At p-adic q it makes none: its residue pass agrees with the field
    # chain over those inputs on every digit the chain claims, claims no
    # fewer, and raises the chain's InputError for a fractional power
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
    maps = []

    def kernel_spy(qd, numerators, sign, step, prefactor=(), reduced=None):
        got.append(([{e: c for e, c in num.items() if c} for num in numerators],
                    sign, step, list(prefactor)))
        maps.append(reduced)
        return kernel(qd, numerators, sign, step, prefactor, reduced)

    values = []
    with unittest.mock.patch.object(qmeasure, "binomial_fraction_sum", kernel_spy), \
            unittest.mock.patch.object(qnumbers, "geometric_sum",
                                       lambda *args: built.append(args) or builder(*args)):
        for call in (lambda: k_polynomial(n, x, q), lambda: beta_polynomial(n, x, q),
                     lambda: k_distribution_rhs(n, x, m, q), lambda: k_chi(n, chi, q)):
            qnumbers._closed.cache_clear()   # m = 1 shares K_n(x)'s entry
            # a fractional q-power raises at rational and p-adic q
            values.append(_value_or_error(call))
    assert len(built) == len(want)
    if q.mode != "padic":
        in_w = [_in_w(inputs, q.root_order) for inputs in want]
        assert got == [inputs for inputs in in_w if inputs is not None]
        assert maps == [predicted for predicted, inputs in
                        zip(_predicted_maps(q, n, x, m, len(rows[0])), in_w)
                        if inputs is not None]
        return
    assert got == []
    for value, inputs in zip(values, want):
        reference = _value_or_error(lambda: _field_sum(q, *inputs))
        if reference is InputError or value is InputError:
            assert value is reference
        elif reference is not ZeroAtPrecisionError:
            assert value.absolute_precision >= reference.absolute_precision
            assert value.agrees_with(reference, reference.absolute_precision)


def _value_or_error(compute):
    try:
        return compute()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
