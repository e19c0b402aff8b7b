"""Measure, Riemann-sum and integration tests.

Symbolic expected values are frozen reduced forms checked independently;
p-adic expectations come from evaluating the symbolic closed forms at the
same q.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvolkenborn.algebra import (CyclotomicElement, Polynomial, RationalFunction,
                                 RootOrderMismatch, cyclotomic_polynomial)
from qvolkenborn.characters import character_value, make_character, parse_character_id
from qvolkenborn.padic import ProfiniteDomain, padic_from_rational, q_admissible
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, MeasureSpec,
                                  NonConvergence, QDescriptor, ball_measure,
                                  ball_measure_sum, binomial_fraction_sum,
                                  bosonic_power_moment, bracket_power,
                                  character_twisted_power, constant_one,
                                  fermionic_finite_rhs,
                                  fermionic_power_moment, integrate,
                                  parse_integrand, riemann_sum)
from qvolkenborn.qnumbers import (_twisted_sum, beta_number, beta_polynomial, k_chi,
                                  k_distribution_rhs, k_number, k_polynomial)

F = Fraction


def sym(d=1):
    return QDescriptor.symbolic(d)


def padic_q(q=6, p=5, prec=32):
    return QDescriptor.padic(padic_from_rational(F(q), p, prec))


def R(num, den=(1,), D=1):
    return RationalFunction(Polynomial(num), Polynomial(den), D)


# ---------------------------------------------------------------------------
# q-brackets
# ---------------------------------------------------------------------------

def test_bracket_zero():
    assert sym().bracket(0).is_zero


def test_bracket_three_is_geometric_sum():
    assert sym().bracket(3) == R((1, 1, 1))


def test_bracket_half_at_root_order_two():
    assert sym(2).bracket(F(1, 2)) == R((1,), (1, 1), D=2)


def test_bracket_needs_compatible_root_order():
    with pytest.raises(RootOrderMismatch):
        sym(1).bracket(F(1, 2))


def test_bracket_fractional_rejected_numerically():
    with pytest.raises(ValueError):
        QDescriptor.rational(F(1, 3)).bracket(F(1, 2))


def test_base_power_folds_fractions_to_integers():
    # against base q^3 the argument 2/3 only needs integer powers of q
    base = sym().with_base_power(3)
    value = base.qpow(F(2, 3))
    assert value == R((0, 0, 1))  # q^2


# ---------------------------------------------------------------------------
# ball measures
# ---------------------------------------------------------------------------

def test_bosonic_ball_weight():
    spec = MeasureSpec(BOSONIC, sym(), ProfiniteDomain(3))
    assert ball_measure(spec, 0, 1) == 1 / R((1, 1, 1))


def test_fermionic_ball_weight():
    spec = MeasureSpec(FERMIONIC, sym(), ProfiniteDomain(3))
    q = sym().element()
    one = sym().one()
    assert ball_measure(spec, 1, 1) == -(q * (one + q)) / (one + q ** 3)


def test_total_mass_is_one():
    for kind in (BOSONIC, FERMIONIC):
        spec = MeasureSpec(kind, sym(), ProfiniteDomain(3))
        for level in (1, 2):
            total = sum(ball_measure(spec, a, level) for a in range(3 ** level))
            assert total == 1
            assert ball_measure_sum(spec, range(3 ** level), level) == 1


def test_ball_measure_additivity_random():
    rng = random.Random(42)
    for kind in (BOSONIC, FERMIONIC):
        for p, d in [(3, 1), (5, 1), (5, 3), (3, 2) if kind == BOSONIC else (3, 1)]:
            spec = MeasureSpec(kind, sym(), ProfiniteDomain(p, d))
            for level in (1, 2):
                size = d * p ** level
                a = rng.randrange(size)
                fine = sum(ball_measure(spec, a + i * size, level + 1)
                           for i in range(p))
                assert ball_measure(spec, a, level) == fine


def test_fermionic_needs_odd_d():
    with pytest.raises(ValueError):
        MeasureSpec(FERMIONIC, sym(), ProfiniteDomain(3, 2))


@pytest.mark.parametrize("q, p, prec", [(1, 5, 32), (1 + 5 ** 5, 5, 5), (1 + 3 ** 7, 3, 4)])
def test_padic_q_equal_to_one_at_its_precision_is_rejected(q, p, prec):
    qd = padic_from_rational(q, p, prec)
    assert q_admissible(qd)
    with pytest.raises(ValueError, match="must differ from 1 at its precision"):
        QDescriptor.padic(qd)
    QDescriptor.padic(padic_from_rational(q + p ** prec, p, prec + 1))  # one more digit: fine


def test_padic_q_needs_the_domain_prime():
    for kind in (BOSONIC, FERMIONIC):
        with pytest.raises(ValueError):
            MeasureSpec(kind, padic_q(6, 5), ProfiniteDomain(3))


def test_ball_measure_range_check():
    spec = MeasureSpec(BOSONIC, sym(), ProfiniteDomain(3))
    with pytest.raises(ValueError):
        ball_measure(spec, 3, 1)
    with pytest.raises(ValueError):
        ball_measure_sum(spec, [0, 3], 1)


def test_fermionic_ball_limit_padic():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    q = qd.q_padic
    two = qd.one() + q
    previous = None
    for level in range(1, 5):
        target = two * q ** 2 / 2   # a = 2 (even)
        gap = (ball_measure(spec, 2, level) - target).valuation
        rate = (q ** (5 ** level) - 1).valuation
        assert gap >= rate
        if previous is not None:
            assert gap >= previous
        previous = gap


# ---------------------------------------------------------------------------
# the closed-form kernel: symbolic reading against rational reading
#
# With w^D = q, the symbolic value at w = t must equal the value computed in
# rational mode against the base t^D, where q^(a/D) is the integer power t^a.
# Both readings run the same kernel loop, so K_n(x), beta_n(x) and the level-N
# fermionic sums are also checked against textbook formulas evaluated term by
# term in Fractions, which share no code with the kernel.
# ---------------------------------------------------------------------------

KERNEL_XS = (F(-1), F(-1, 2), F(0), F(1, 3), F(2))
KERNEL_TS = (F(2, 5), F(-3, 7))


def rational_base(t, d):
    return QDescriptor.rational(t).with_base_power(d)


def textbook_k(n, x, t, d):
    """[2] (1-q)^-n sum_k C(n,k) (-1)^k q^(xk) / (1 + q^(k+1)) at q = t^d."""
    q = t ** d
    return (1 + q) / (1 - q) ** n * sum(
        math.comb(n, k) * (-1) ** k * t ** int(d * x * k) / (1 + q ** (k + 1))
        for k in range(n + 1))


def textbook_beta(n, x, t, d):
    """(1-q)^-n sum_i C(n,i) (-1)^i q^(xi) (i+1)/[i+1] at q = t^d."""
    q = t ** d
    return sum(
        math.comb(n, i) * (-1) ** i * t ** int(d * x * i) * (i + 1) * (1 - q) / (1 - q ** (i + 1))
        for i in range(n + 1)) / (1 - q) ** n


def textbook_finite_rhs(n, x, level, t, d, p):
    """The level-N fermionic Riemann sum of [x+y]^n over Z_p by its
    definition: sum_j [x+j]^n (-q)^j / [p^N]_(-q) at q = t^d."""
    q = t ** d
    size = p ** level
    total = sum((-q) ** j * ((1 - t ** int(d * (x + j))) / (1 - q)) ** n for j in range(size))
    return total * (1 + q) / (1 + q ** size)


@pytest.mark.parametrize("x", KERNEL_XS)
def test_kernel_halves_agree_on_polynomials(x):
    d = x.denominator
    for t in KERNEL_TS:
        for n in range(11):
            for family, textbook in ((k_polynomial, textbook_k), (beta_polynomial, textbook_beta)):
                want = textbook(n, x, t, d)
                assert family(n, x, rational_base(t, d)) == want
                assert family(n, x, sym(d)).evaluate(t) == want


@pytest.mark.parametrize("x", KERNEL_XS)
def test_kernel_halves_agree_on_twisted_sums(x):
    d = x.denominator
    chi = make_character(5, (2,))  # the quadratic character mod 5
    cases = [(m, [1] * m) for m in (1, 3, 5)]
    cases.append((5, [character_value(chi, a) for a in range(5)]))
    for t in KERNEL_TS:
        for n in range(9):
            for m, weights in cases:
                want = _twisted_sum(n, x, m, sym(d), weights).evaluate(t)
                assert _twisted_sum(n, x, m, rational_base(t, d), weights) == want
                if weights == [1] * m:
                    assert k_distribution_rhs(n, x, m, rational_base(t, d)) == want


def textbook_twist(n, f, t, weights):
    """[f]^n/[f]_- sum_a weights[a] (-1)^a q^a K_n(q^f; a/f) at q = t."""
    prefactor = ((1 - t ** f) / (1 - t)) ** n * (1 + t) / (1 + t ** f)
    return prefactor * sum(c * (-t) ** a * textbook_k(n, F(a, f), t, f)
                           for a, c in enumerate(weights) if c)


def zeta_rows(chi):
    """Integer rows c_i, i < phi(L), with chi(a) = sum_i c_i(a) zeta^i."""
    order = chi.value_order
    rows = [[0] * chi.modulus for _ in range(cyclotomic_polynomial(order).degree)]
    for a in range(chi.modulus):
        value = character_value(chi, a)
        if order <= 2:
            rows[0][a] = int(value)
        elif value:
            for i, c in enumerate(value.coeffs):
                rows[i][a] = int(c.evaluate(0))
    for a in range(chi.modulus):  # the rows rebuild every value
        column = [row[a] for row in rows]
        assert (column[0] if order <= 2 else CyclotomicElement(order, column)) == character_value(chi, a)
    return rows


@pytest.mark.parametrize("chi_id", ["1:", "3:1", "7:2", "5:1", "7:1", "9:1", "13:1", "15:1,1"])
def test_twists_of_every_order_match_the_textbook_sum(chi_id):
    chi = parse_character_id(chi_id)
    order, rows = chi.value_order, zeta_rows(chi)
    for t in KERNEL_TS:
        for n in range(8):
            want = [textbook_twist(n, chi.modulus, t, row) for row in rows]
            symbolic = k_chi(n, chi, sym())
            rational = k_chi(n, chi, QDescriptor.rational(t))
            if order <= 2:
                assert symbolic.evaluate(t) == rational == want[0]
                continue
            got = [c.evaluate(t) for c in symbolic.coeffs]
            assert got + [0] * (len(want) - len(got)) == want
            assert rational == CyclotomicElement(order, want)


@pytest.mark.parametrize("x", KERNEL_XS)
def test_kernel_halves_agree_on_finite_rhs(x):
    d = x.denominator
    for t in KERNEL_TS:
        for level in (1, 2):
            for n in range(11):
                want = textbook_finite_rhs(n, x, level, t, d, 3)
                assert fermionic_finite_rhs(n, x, level, rational_base(t, d), 3) == want
                assert fermionic_finite_rhs(n, x, level, sym(d), 3).evaluate(t) == want


def test_kernel_halves_agree_on_ball_sums():
    rng = random.Random(11)
    for kind in (BOSONIC, FERMIONIC):
        for p, d in ((3, 1), (5, 3)):
            for level in (1, 2):
                size = d * p ** level
                reps = rng.sample(range(size), rng.randrange(1, min(size, 12) + 1))
                for t in KERNEL_TS:
                    domain = ProfiniteDomain(p, d)
                    want = ball_measure_sum(MeasureSpec(kind, sym(), domain), reps, level)
                    got = ball_measure_sum(
                        MeasureSpec(kind, QDescriptor.rational(t), domain), reps, level)
                    assert got == want.evaluate(t)


def test_kernel_halves_agree_on_rational_coefficients():
    # coefficients with denominators, a squared prefactor and negative exponents
    numerators = [{F(1, 2): F(1, 3), F(-3, 2): F(-5, 7)}, {}, {F(2): F(4, 9)}]
    prefactor = [(1, 1, 2), (-1, 3, -1), (1, 2, 0)]
    for t in KERNEL_TS:
        want = binomial_fraction_sum(sym(2), numerators, -1, 2, prefactor).evaluate(t)
        got = binomial_fraction_sum(rational_base(t, 2), numerators, -1, 2, prefactor)
        assert got == want


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------

def test_riemann_sum_of_one_is_exactly_one():
    for kind in (BOSONIC, FERMIONIC):
        for qd in (sym(), padic_q(4, 3)):
            spec = MeasureSpec(kind, qd, ProfiniteDomain(3))
            for level in (1, 2, 3):
                total = riemann_sum(spec, constant_one(qd), level)
                if qd.mode == "symbolic":
                    assert total == 1
                else:
                    assert (total - 1).valuation >= 25


def test_riemann_sum_bosonic_bracket_level_one():
    # (1/[3])(q[1] + q^2 [2]) reduces to q exactly
    qd = sym()
    spec = MeasureSpec(BOSONIC, qd, ProfiniteDomain(3))
    assert riemann_sum(spec, bracket_power(qd, 1), 1) == qd.element()


def test_riemann_sum_matches_finite_closed_form():
    qd = sym()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for level in (1, 2):
        for n in range(5):
            for x in (0, 1):
                lhs = riemann_sum(spec, bracket_power(qd, n, x), level)
                assert lhs == fermionic_finite_rhs(n, x, level, qd, 3)


def test_finite_rhs_n_zero_is_one():
    assert fermionic_finite_rhs(0, 0, 1, sym(), 3) == 1
    assert fermionic_finite_rhs(0, 0, 2, sym(), 5) == 1


def test_finite_rhs_converges_to_polynomial_closed_form():
    # as the level grows the q^(p^N) factors approach 1 p-adically
    qd = padic_q()
    target = padic_from_rational(k_polynomial(2, 1, sym()).evaluate(6), 5, 30)
    previous = None
    for level in (1, 2, 3, 4):
        gap = (fermionic_finite_rhs(2, 1, level, qd, 5) - target).valuation
        if previous is not None:
            assert gap >= previous
        previous = gap
    assert previous >= 4


def test_riemann_sum_partition_invariance():
    # summing disjoint index blocks reproduces the full sum exactly
    from qvolkenborn.qmeasure import _sum_range

    for qd in (sym(), padic_q(4, 3)):
        spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
        f = bracket_power(qd, 2, 1)
        whole = _sum_range(spec, f, range(0, 27))
        a, b, c = (_sum_range(spec, f, range(lo, lo + 9)) for lo in (0, 9, 18))
        assert whole == a + b + c


@pytest.mark.parametrize("qd", [sym(), padic_q(4, 3)], ids=["symbolic", "padic"])
def test_bracket_power_is_stateless(qd):
    f = bracket_power(qd, 2, 1)
    in_order = [bracket_power(qd, 2, 1)(j) for j in range(6)]
    assert [f(j) for j in (5, 2, 5, 0)] == [in_order[j] for j in (5, 2, 5, 0)]
    with pytest.raises(AttributeError):
        f.shift = 0


# ---------------------------------------------------------------------------
# the p-adic residue loop against the per-term loop
# ---------------------------------------------------------------------------

def _as_tuple(x):
    return (x.p, x.v, x.unit, x.prec)


def _assert_kernel_matches_generic(spec, f, level):
    """riemann_sum through the residue loop equals the same sum through
    the per-term loop (an opaque callable), digit for digit; so does the
    unnormalized sum, which also covers precisions too low to divide by
    the level normalizer."""
    from qvolkenborn.qmeasure import _residue_sum, _sum_range

    reps = range(spec.domain.level_size(level))
    fast = _residue_sum(spec, f, reps)
    assert fast is not None
    assert _as_tuple(fast) == _as_tuple(_sum_range(spec, lambda j: f(j), reps))
    if not spec.level_norm(level).is_zero_at_precision:
        assert (_as_tuple(riemann_sum(spec, f, level))
                == _as_tuple(riemann_sum(spec, lambda j: f(j), level)))


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("prec", [8, 32])
@pytest.mark.parametrize("depth", [1, 2])
def test_residue_loop_matches_per_term_loop(kind, p, prec, depth):
    qd = padic_q(1 + 2 * p ** depth, p, prec)   # v_p(q - 1) = depth
    spec = MeasureSpec(kind, qd, ProfiniteDomain(p))
    for level in (1, 2, 3):
        _assert_kernel_matches_generic(spec, constant_one(qd), level)
        for n in range(4):
            for shift in (-1, 0, 1, 2):
                _assert_kernel_matches_generic(spec, bracket_power(qd, n, shift), level)


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
def test_residue_loop_matches_per_term_loop_at_base_power(kind):
    # against base q^3 (with the measure on base q^2), shifts a/3 stay integral powers
    qd = padic_q(6, 5, 16)
    spec = MeasureSpec(kind, qd.with_base_power(2), ProfiniteDomain(5))
    base = qd.with_base_power(3)
    for level in (1, 2):
        for n in range(4):
            for shift in (F(-1, 3), F(1, 3), F(2, 3), 1):
                _assert_kernel_matches_generic(spec, bracket_power(base, n, shift), level)


@pytest.mark.parametrize("prec", [8, 32])
def test_residue_loop_matches_per_term_loop_with_character(prec):
    chi = make_character(3, (1,))   # the quadratic character mod 3
    qd = padic_q(6, 5, prec)
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, 3))
    for level in (1, 2):
        for n in range(4):
            _assert_kernel_matches_generic(spec, character_twisted_power(qd, n, chi), level)


def test_residue_loop_matches_per_term_loop_on_edge_cases():
    # a block whose only term has x + j divisible by p carries more digits
    # than A - v_p(q - 1), against base q^3 at p = 3 the bracket [1/3] is
    # not integral, and an integrand may take its bracket at another q
    from qvolkenborn.qmeasure import _sum_range

    qd = padic_q(4, 3, 16)
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for n in range(4):
        cases = [(bracket_power(qd, n, 1), reps) for reps in
                 (range(2, 3), range(8, 9), range(0, 1), range(1, 3), range(7, 9))]
        cases.append((bracket_power(qd.with_base_power(3), n, F(1, 3)), range(0, 9)))
        cases.append((bracket_power(padic_q(7, 3, 16), n), range(0, 9)))
        for f, reps in cases:
            assert (_as_tuple(_sum_range(spec, f, reps))
                    == _as_tuple(_sum_range(spec, lambda j: f(j), reps)))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), r=st.integers(-40, 40).filter(bool),
       prec=st.integers(2, 40), n=st.integers(0, 4), shift=st.integers(-3, 3),
       kind=st.sampled_from([BOSONIC, FERMIONIC]), level=st.integers(1, 2))
def test_residue_loop_matches_per_term_loop_random_q(p, r, prec, n, shift, kind, level):
    assume(r % p ** (prec - 1))  # else q = 1 at its precision, which QDescriptor rejects
    qd = padic_q(1 + p * r, p, prec)
    f = bracket_power(qd, n, shift)
    _assert_kernel_matches_generic(MeasureSpec(kind, qd, ProfiniteDomain(p)), f, level)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_constant_converges_immediately():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    result = integrate(spec, constant_one(qd), 6, 8)
    assert result.n_used == 2
    assert (result.value - 1).valuation >= 25


def test_integrate_fermionic_cube_matches_symbolic():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    result = integrate(spec, bracket_power(qd, 3), 6, 8)
    target = padic_from_rational(k_number(3, sym()).evaluate(6), 5, 28)
    assert (result.value - target).valuation >= 6
    assert result.stability >= 6


def test_integrate_bosonic_bracket_matches_beta():
    qd = padic_q()
    spec = MeasureSpec(BOSONIC, qd, ProfiniteDomain(5))
    result = integrate(spec, bracket_power(qd, 1), 5, 8)
    target = padic_from_rational(beta_number(1, sym()).evaluate(6), 5, 28)
    assert (result.value - target).valuation >= 5


def test_integrate_requires_padic_mode():
    spec = MeasureSpec(BOSONIC, sym(), ProfiniteDomain(5))
    with pytest.raises(ValueError):
        integrate(spec, constant_one(sym()), 4, 6)


def test_non_convergence_carries_trace():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    with pytest.raises(NonConvergence) as err:
        integrate(spec, bracket_power(qd, 3), 40, 3)
    assert len(err.value.trace) == 2


def test_convergence_trace_nondecreasing():
    qd = QDescriptor.padic(padic_from_rational(4, 3, 32))
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for n in range(5):
        previous = None
        current = riemann_sum(spec, bracket_power(qd, n), 1)
        for level in range(2, 9):
            nxt = riemann_sum(spec, bracket_power(qd, n), level)
            v = (nxt - current).valuation
            if previous is not None:
                assert v >= previous
            previous, current = v, nxt


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_bosonic_moment_values():
    qd = sym()
    assert bosonic_power_moment(0, qd) == 1
    assert bosonic_power_moment(1, qd) == 2 / (qd.one() + qd.element())


def test_fermionic_moment_values():
    qd = sym()
    q = qd.element()
    one = qd.one()
    assert fermionic_power_moment(0, qd) == 1
    assert fermionic_power_moment(1, qd) == (one + q) / (one + q * q)


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_moments_match_integrals(i):
    qd = padic_q()
    for kind, closed in ((BOSONIC, bosonic_power_moment),
                         (FERMIONIC, fermionic_power_moment)):
        spec = MeasureSpec(kind, qd, ProfiniteDomain(5))
        f = lambda j, qi=qd.qpow(i), one=qd.one(): one if i == 0 else qd.qpow(j * i)
        result = integrate(spec, f, 4, 8)
        assert (result.value - closed(i, qd)).valuation >= 4


# ---------------------------------------------------------------------------
# integrand parsing
# ---------------------------------------------------------------------------

def test_parse_integrand_families():
    qd = sym()
    assert parse_integrand("one", qd)(5) == 1
    assert parse_integrand("bracket_pow:2", qd)(1) == 1
    f = parse_integrand("shifted_bracket_pow:1:1", qd)
    assert f(0) == 1
    g = parse_integrand("char_twisted:0:3:1", qd)
    assert g(0) == 0 and g(1) == 1 and g(2) == -1


def test_parse_integrand_rejects_unknown():
    with pytest.raises(ValueError):
        parse_integrand("mystery:3", sym())
