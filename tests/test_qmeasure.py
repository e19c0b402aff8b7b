"""Measure, Riemann-sum and integration tests.

Symbolic expected values are frozen reduced forms checked independently;
p-adic expectations come from evaluating the symbolic closed forms at the
same q.
"""

import importlib
import itertools
import math
import random
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qvolkenborn
from qvolkenborn import algebra, qmeasure
from qvolkenborn.algebra import (CyclotomicElement, InputError, Polynomial, RationalFunction,
                                 RootOrderMismatch, cyclotomic_polynomial,
                                 reduce_cyclotomic_fraction, root_of_unity_rows)
from qvolkenborn.characters import (character_value, enumerate_characters, make_character,
                                    parse_character_id)
from qvolkenborn.padic import PadicNumber, ProfiniteDomain, _int_valuation, padic_from_rational
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, BracketPower, MeasureSpec,
                                  QDescriptor, ball_measure_sum, binomial_fraction_sum,
                                  bosonic_power_moment, bracket_power, fermionic_power_moment,
                                  geometric_sum, integrate, parse_integrand, riemann_sum)
from qvolkenborn.qnumbers import (beta_number, beta_polynomial, k_chi,
                                  k_distribution_rhs, k_number, k_polynomial)
from test_rational_reading import _field_sum

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


# ---------------------------------------------------------------------------
# ball measures
# ---------------------------------------------------------------------------

def test_bosonic_ball_weight():
    spec = MeasureSpec(BOSONIC, sym(), ProfiniteDomain(3))
    assert ball_measure_sum(spec, (0,), 1) == 1 / R((1, 1, 1))


def test_fermionic_ball_weight():
    spec = MeasureSpec(FERMIONIC, sym(), ProfiniteDomain(3))
    q = sym().qpow(1)
    one = sym().one()
    assert ball_measure_sum(spec, (1,), 1) == -(q * (one + q)) / (one + q ** 3)


def test_total_mass_is_one():
    for kind in (BOSONIC, FERMIONIC):
        spec = MeasureSpec(kind, sym(), ProfiniteDomain(3))
        for level in (1, 2):
            total = sum(ball_measure_sum(spec, (a,), level) for a in range(3 ** level))
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
                fine = sum(ball_measure_sum(spec, (a + i * size,), level + 1)
                           for i in range(p))
                assert ball_measure_sum(spec, (a,), level) == fine


def test_fermionic_needs_odd_d():
    with pytest.raises(ValueError):
        MeasureSpec(FERMIONIC, sym(), ProfiniteDomain(3, 2))


@pytest.mark.parametrize("q, p, prec", [(1, 5, 32), (1 + 5 ** 5, 5, 5), (1 + 3 ** 7, 3, 4)])
def test_padic_q_equal_to_one_at_its_precision_is_rejected(q, p, prec):
    qd = padic_from_rational(q, p, prec)
    assert (qd - 1).valuation >= 1
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
        ball_measure_sum(spec, (3,), 1)
    with pytest.raises(ValueError):
        ball_measure_sum(spec, [0, 3], 1)


def test_fermionic_ball_limit_padic():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    q = qd.value
    two = qd.one() + q
    previous = None
    for level in range(1, 5):
        target = two * q ** 2 / 2   # a = 2 (even)
        gap = (ball_measure_sum(spec, (2,), level) - target).valuation
        rate = (q ** (5 ** level) - 1).valuation
        assert gap >= rate
        if previous is not None:
            assert gap >= previous
        previous = gap


# ---------------------------------------------------------------------------
# the closed-form kernel: symbolic reading against rational reading
#
# With w^D = q, the symbolic value at w = t must equal the textbook formula
# at q = t^D, where q^(a/D) is the integer power t^a; at integer x it must
# also equal the value computed in rational mode at q = t.  Both readings run
# the same kernel loop, so K_n(x), beta_n(x) and the level-N fermionic sums
# are checked against textbook formulas evaluated term by term in Fractions,
# which share no code with the kernel.
# ---------------------------------------------------------------------------

KERNEL_XS = (F(-1), F(-1, 2), F(0), F(1, 3), F(2))
KERNEL_TS = (F(2, 5), F(-3, 7))


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
                if d == 1:
                    assert family(n, x, QDescriptor.rational(t)) == want
                assert family(n, x, sym(d)).evaluate(t) == want


@pytest.mark.parametrize("x", KERNEL_XS)
def test_kernel_halves_agree_on_twisted_sums(x):
    d = x.denominator
    chi = make_character(5, (2,))  # the quadratic character mod 5
    cases = [(m, (1,) * m) for m in (1, 3, 5)]
    cases.append((5, tuple(int(character_value(chi, a)) for a in range(5))))
    for t in KERNEL_TS:
        for n in range(9):
            for m, weights in cases:
                want = geometric_sum(sym(d), FERMIONIC, n, x, weights).evaluate(t)
                if d == 1:
                    rational = QDescriptor.rational(t)
                    assert geometric_sum(rational, FERMIONIC, n, x, weights) == want
                    if weights == (1,) * m:
                        assert k_distribution_rhs(n, x, m, rational) == want


def textbook_twist(n, f, t, weights):
    """[f]^n/[f]_- sum_a weights[a] (-1)^a q^a K_n(q^f; a/f) at q = t."""
    prefactor = ((1 - t ** f) / (1 - t)) ** n * (1 + t) / (1 + t ** f)
    return prefactor * sum(c * (-t) ** a * textbook_k(n, F(a, f), t, f)
                           for a, c in enumerate(weights) if c)


def zeta_rows(chi):
    """Integer rows c_i, i < phi(L), with chi(a) = sum_i c_i(a) zeta^i: the
    integer row of zeta^k_a, and 0 off the units."""
    order = chi.value_order
    powers = root_of_unity_rows(order)
    rows = [[0] * chi.modulus for _ in range(cyclotomic_polynomial(order).degree)]
    for a, k in enumerate(chi.exponent_table):
        if k is not None:
            for i, c in enumerate(powers[k]):
                rows[i][a] = c
    for a in range(chi.modulus):  # the rows rebuild every value
        column = [row[a] for row in rows]
        value = column[0] if order <= 2 or not any(column) else CyclotomicElement(order, column)
        assert value == character_value(chi, a)
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


def _fermionic_sum(qd, n, x, level, p=3):
    return riemann_sum(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(p)),
                       bracket_power(qd, n, x), level)


@pytest.mark.parametrize("x", KERNEL_XS)
def test_kernel_halves_agree_on_finite_rhs(x):
    d = x.denominator
    for t in KERNEL_TS:
        for level in (1, 2):
            for n in range(11):
                want = textbook_finite_rhs(n, x, level, t, d, 3)
                if d == 1:
                    assert _fermionic_sum(QDescriptor.rational(t), n, x, level) == want
                assert _fermionic_sum(sym(d), n, x, level).evaluate(t) == want


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


@pytest.mark.parametrize("kind", (BOSONIC, FERMIONIC))
def test_ball_sums_reduce_in_the_coarsest_variable(kind, monkeypatch):
    # the five children of a level-5 ball over p = 5, d = 3 are five terms
    # over 1 -+ u^5 in u = q^1875, not five terms among 46875: each packed
    # value the symbolic reading unpacks has at most p + 1 coefficients
    p, d, level = 5, 3, 5
    domain, size = ProfiniteDomain(p, d), d * p ** level
    spec = MeasureSpec(kind, sym(), domain)
    counts, unpack = [], qmeasure._unpack
    monkeypatch.setattr(qmeasure, "_unpack",
                        lambda x, width, count: counts.append(count) or unpack(x, width, count))
    for a in (0, 1, 4682, size - 1):
        fine = ball_measure_sum(spec, [a + j * size for j in range(p)], level + 1)
        assert counts and max(counts) <= p + 1
        assert fine == ball_measure_sum(spec, (a,), level)
        for t in KERNEL_TS:
            rational = MeasureSpec(kind, QDescriptor.rational(t), domain)
            assert fine.evaluate(t) == ball_measure_sum(
                rational, [a + j * size for j in range(p)], level + 1)


@pytest.mark.parametrize("qd", (sym(2), QDescriptor.rational(F(2, 5)), padic_q()),
                         ids=("symbolic", "rational", "padic"))
@pytest.mark.parametrize("rep", (F(1, 2), 1.0, F(1)), ids=("half", "float", "fraction-one"))
def test_ball_sums_refuse_representatives_that_are_not_ints(qd, rep):
    # a q^(1/2)-shifted "ball" at sym:2, a float read as the ball of 1:
    # every reading refuses them as it refuses an out-of-range one
    spec = MeasureSpec(BOSONIC, qd, ProfiniteDomain(5))
    with pytest.raises(ValueError, match="out of range"):
        ball_measure_sum(spec, [0, rep], 1)
    with pytest.raises(ValueError, match="out of range"):
        ball_measure_sum(spec, (rep,), 1)


def test_kernel_halves_agree_on_rational_coefficients():
    # both halves refuse a rational coefficient; with int ones, odd and
    # negative exponents and a squared prefactor they agree: the exponents
    # are powers of w, so the symbolic value at w = t is the rational
    # reading at q = t on the same inputs
    numerators = [{1: 3, -3: -5}, {}, {4: 4}]
    prefactor = [(1, 2, 2), (-1, 6, -1), (1, 4, 0)]
    for t in KERNEL_TS:
        want = binomial_fraction_sum(sym(2), numerators, -1, 4, prefactor).evaluate(t)
        got = binomial_fraction_sum(QDescriptor.rational(t), numerators, -1, 4, prefactor)
        assert got == want
    for qd in (sym(2), QDescriptor.rational(2)):
        with pytest.raises(ValueError, match="int coefficients"):
            binomial_fraction_sum(qd, numerators + [{0: F(1, 3)}], -1, 4, [])


@settings(max_examples=120, deadline=None)
@given(root=st.sampled_from((1, 2, 3)), sign=st.sampled_from((1, -1)),
       r=st.sampled_from((F(2), F(-2), F(3), F(1, 2), F(-1, 3), F(5, 7), F(-4, 3))),
       data=st.data())
def test_kernel_symbolic_at_w_matches_rational_reading(root, sign, r, data):
    # random numerators, negative exponents included (the symbolic reading
    # shifts them by w^r): the symbolic value at w = r equals the rational
    # reading at q = r on the same powers of w, and the one at q = r^D on
    # the powers of q when D divides every exponent
    numerators = data.draw(st.lists(st.dictionaries(st.integers(-6, 9), st.integers(-5, 5),
                                                    max_size=3),
                                    min_size=1, max_size=5))
    step = data.draw(st.integers(1, 4))
    prefactor = data.draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 4),
                                             st.integers(-2, 2)), max_size=3))
    want = binomial_fraction_sum(sym(root), numerators, sign, step, prefactor).evaluate(r)
    assert binomial_fraction_sum(QDescriptor.rational(r), numerators, sign, step,
                                 prefactor) == want
    exponents = [e for num in numerators for e in num] + [step] + [e for _, e, _ in prefactor]
    if all(e % root == 0 for e in exponents):
        in_q = [{e // root: c for e, c in num.items()} for num in numerators]
        assert binomial_fraction_sum(QDescriptor.rational(r ** root), in_q, sign, step // root,
                                     [(s, e // root, power) for s, e, power in prefactor]) == want


def _as_list(x):
    """A coefficient list, or the kernel's starting int 0 or 1 as one."""
    return x if isinstance(x, list) else [x] if x else []


class _ListReading:
    """The symbolic reading on integer coefficient lists, one shift-add per
    binomial: the reference that the packed reading must equal exactly.  It
    takes a predicted Phi-map and ignores it: it always screens."""

    def __init__(self, q, numerators, step, prefactor, reduced):
        self.q, self.phis, self.sign = q, {}, 1
        self.shift = max([0] + [-e for num in numerators for e, c in num.items() if c])

    def _record(self, b, power):
        s, j = b
        self.sign *= s ** power
        for d in algebra._divisors(j if s == -1 else 2 * j):
            if s == -1 or j % d:
                self.phis[d] = self.phis.get(d, 0) + power

    def binomial(self, s, e):
        return s, e

    def times(self, x, b, power=1):
        x = _as_list(x)
        for _ in range(power):
            x = algebra._times_binomial(x, *b)
        return x

    def den_times(self, den, b):
        self._record(b, 1)
        return algebra._times_binomial(_as_list(den), *b)

    def add_terms(self, total, num, den, d):
        total, den = _as_list(total), _as_list(den)
        for e, c in num.items():
            if c:
                i = e + self.shift
                total += [0] * (i + len(den) - len(total))
                for k, x in enumerate(den):
                    total[i + k] += c * x
        return total

    def divide(self, total, den, divisors):
        for b, m in divisors:
            self._record(b, m)
        num = Polynomial._make(_as_list(total), 1) * self.sign
        return reduce_cyclotomic_fraction(num, self.phis, self.q.root_order, self.shift)


@st.composite
def _kernel_cases(draw):
    """(root order, numerators, loop sign, step, prefactor) with numerator
    exponents, powers of w, from -3D to 12D, a step from 1 to 4, prefactor
    exponents from 1 to 12D, and int coefficients, zero ones included."""
    root = draw(st.sampled_from((1, 2, 3)))
    coeffs = st.just(0) | st.integers(-5, 5)
    numerators = draw(st.lists(st.dictionaries(st.integers(-3 * root, 12 * root), coeffs,
                                               max_size=3),
                               min_size=1, max_size=5))
    step = draw(st.integers(1, 4))
    prefactor = draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 12 * root),
                                        st.integers(-3, 3)), max_size=3))
    return root, numerators, draw(st.sampled_from((1, -1))), step, prefactor


@st.composite
def _coarse_kernel_cases(draw):
    """Cases of :func:`_kernel_cases` that the packed reading runs in u =
    w^g, g in {2, 3, 4}: numerator w-exponents m + g t with m of either
    sign, a step that g divides, and one prefactor binomial inside u and
    one outside, to the powers +-1 or +-2."""
    root, g = draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from((2, 3, 4)))
    m = draw(st.integers(-2 * g, 2 * g))
    exponent = st.integers(0, 5).map(lambda t: m + g * t)
    numerators = draw(st.lists(st.dictionaries(exponent, st.integers(-5, 5), max_size=3),
                               min_size=1, max_size=4))
    step = g * draw(st.integers(1, 3))
    inside = g * draw(st.integers(1, 3))
    outside = inside + draw(st.integers(1, g - 1)) - g * draw(st.integers(0, 1))
    power = st.sampled_from((-2, -1, 1, 2))
    prefactor = [(draw(st.sampled_from((1, -1))), e, draw(power))
                 for e in draw(st.permutations([inside, outside]))]
    return root, numerators, draw(st.sampled_from((1, -1))), step, prefactor


def _outcome(compute):
    try:
        return compute()
    except ArithmeticError as error:
        return type(error)


# 40 numerators with coefficients near 2^60 and 1 + w^j binomials, so every
# coefficient of the sum has one sign
_BIG = [{0: 2 ** 60 - k} for k in range(40)]


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases() | _coarse_kernel_cases(),
       r=st.sampled_from((F(2), F(-2), F(3), F(1, 2), F(-1, 3), F(5, 7), F(-4, 3))))
@example(case=(1, _BIG, 1, 1, [(1, 1, 3)]), r=F(2))
@example(case=(1, [{0: 2 ** 60 - 1}], 1, 1, [(1, 1, 2)]), r=F(2))
@example(case=(1, _BIG, 1, 1, [(1, 1, 3), (1, 2, 2)]), r=F(-1, 3))
@example(case=(2, [{k: (-1) ** k * (2 ** 60 - k)} for k in range(40)], -1, 3,
               [(1, 1, 3), (-1, 4, -3)]), r=F(5, 7))
@example(case=(1, [{0: 1}, {}], -1, 2, [(-1, 1, -1)]), r=F(3))
@example(case=(1, [{}, {}], 1, 1, [(1, 1, -1)]), r=F(2))
@example(case=(2, [{-5: 3, 1: -1}, {7: 2}], -1, 6, [(-1, 6, 2), (1, 1, -2)]), r=F(-1, 3))
def test_packed_symbolic_reading_matches_the_rational_and_list_readings(case, r):
    # the packed symbolic value at w = r is the rational reading at q = r on
    # the same powers of w, or both raise the same error, and it is exactly
    # the value of the list reading
    root, numerators, sign, step, prefactor = case
    packed = _outcome(lambda: binomial_fraction_sum(sym(root), numerators, sign, step,
                                                    prefactor))
    want = _outcome(lambda: binomial_fraction_sum(QDescriptor.rational(r), numerators, sign,
                                                  step, prefactor))
    got = _outcome(lambda: packed.evaluate(r)) if isinstance(packed, RationalFunction) else packed
    assert got == want
    with unittest.mock.patch.dict(qmeasure._READINGS, symbolic=_ListReading):
        listed = _outcome(lambda: binomial_fraction_sum(sym(root), numerators, sign, step,
                                                        prefactor))
    assert type(listed) is type(packed)
    if isinstance(packed, RationalFunction):
        assert (listed.num, listed.w_exp, listed.phis, listed.root_order) == (
            packed.num, packed.w_exp, packed.phis, packed.root_order)


def test_every_symbolic_kernel_call_reduces_once():
    # the one reduction of a symbolic kernel call is one call of algebra's
    # reducer: on the screened path, for drawn kernel cases, and on the
    # predicted one, for the closed K_n and beta_n, which pass their map
    calls, reduce = [], qmeasure.reduce_cyclotomic_fraction

    @settings(max_examples=150, deadline=None)
    @given(case=_kernel_cases() | _coarse_kernel_cases())
    @example(case=(2, [{-5: 3, 1: -1}, {7: 2}], -1, 6, [(-1, 6, 2), (1, 1, -2)]))
    def drawn(case):
        root, numerators, sign, step, prefactor = case
        calls.clear()
        binomial_fraction_sum(sym(root), numerators, sign, step, prefactor)
        assert len(calls) == 1 and calls[0][4] is None

    with unittest.mock.patch.object(qmeasure, "reduce_cyclotomic_fraction",
                                    lambda *args: calls.append(args) or reduce(*args)):
        drawn()
        for n, kind in itertools.product(range(41), (BOSONIC, FERMIONIC)):
            calls.clear()
            geometric_sum(sym(), kind, n, 0, (1,))
            assert len(calls) == 1 and calls[0][4] is not None, (kind, n)


def _no_inverse(*args):
    raise AssertionError("the kernel inverted a value")


@settings(max_examples=150, deadline=None)
@given(case=_kernel_cases() | _coarse_kernel_cases())
@example(case=(2, [{-5: 3, 1: -1}, {7: 2}], -1, 6, [(-1, 6, 2), (1, 1, -2)]))
def test_the_symbolic_kernel_inverts_no_value(case):
    # every divisor joins the one reduction in u, so the finish multiplies
    # and never inverts a binomial: with RationalFunction.reciprocal and
    # the cyclotomic factoring that it runs raising, the kernel still gives
    # the value of the field route (on the same powers of w, as powers of q)
    root, numerators, sign, step, prefactor = case
    in_q = [{F(e, root): c for e, c in num.items()} for num in numerators]
    want = _field_sum(sym(root), in_q, sign, F(step, root),
                      [(s, F(e, root), power) for s, e, power in prefactor])
    with unittest.mock.patch.object(RationalFunction, "reciprocal", _no_inverse), \
            unittest.mock.patch.object(algebra, "_cyclotomic_factors", _no_inverse):
        got = binomial_fraction_sum(sym(root), numerators, sign, step, prefactor)
    assert got == want


@pytest.mark.parametrize("qd", (sym(2), QDescriptor.rational(F(2, 5)), padic_q()),
                         ids=("symbolic", "rational", "padic"))
def test_geometric_sum_converts_its_shift_once(qd, monkeypatch):
    # the builder converts q^x to its power of w once, for n >= 1 only, and
    # hands it on: no reading (kernel or residue pass) converts again
    calls, w_exponent = [], QDescriptor.w_exponent
    monkeypatch.setattr(QDescriptor, "w_exponent",
                        lambda self, e: calls.append(e) or w_exponent(self, e))
    shifts = (0, 1, -2, F(1, 2)) if qd.mode == "symbolic" else (0, 1, -2)
    for kind, n, x, weights, level in itertools.product(
            (BOSONIC, FERMIONIC), range(4), shifts, ((1,), (1, 0, -1)), (None, 15)):
        calls.clear()
        geometric_sum(qd, kind, n, x, weights, level)
        assert calls == ([x] if n else []), (kind, n, x, weights, level)
    if qd.mode == "padic":
        calls.clear()
        qmeasure._residue_sum(qd, BOSONIC, 3, 1, (1,), 15)
        assert not calls


def test_the_symbolic_reading_takes_no_list_primitive():
    assert not [name for name in ("_times_binomial", "add", "mul", "repeat")
                if hasattr(qmeasure, name)]


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------

def test_riemann_sum_of_one_is_exactly_one():
    for kind in (BOSONIC, FERMIONIC):
        for qd in (sym(), padic_q(4, 3)):
            spec = MeasureSpec(kind, qd, ProfiniteDomain(3))
            for level in (1, 2, 3):
                total = riemann_sum(spec, bracket_power(qd, 0), level)
                if qd.mode == "symbolic":
                    assert total == 1
                else:
                    assert (total - 1).valuation >= 25


def test_riemann_sum_bosonic_bracket_level_one():
    # (1/[3])(q[1] + q^2 [2]) reduces to q exactly
    qd = sym()
    spec = MeasureSpec(BOSONIC, qd, ProfiniteDomain(3))
    assert riemann_sum(spec, bracket_power(qd, 1), 1) == qd.qpow(1)


def test_riemann_sum_matches_finite_closed_form():
    qd = sym()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for level in (1, 2):
        for n in range(5):
            for x in (0, 1):
                f = bracket_power(qd, n, x)
                slow = _per_term_sum(spec, f, range(3 ** level)) / spec.level_norm(level)
                assert riemann_sum(spec, f, level) == slow


def test_finite_rhs_n_zero_is_one():
    assert _fermionic_sum(sym(), 0, 0, 1) == 1
    assert _fermionic_sum(sym(), 0, 0, 2, 5) == 1


def test_finite_rhs_converges_to_polynomial_closed_form():
    # as the level grows the q^(p^N) factors approach 1 p-adically
    qd = padic_q()
    target = padic_from_rational(k_polynomial(2, 1, sym()).evaluate(6), 5, 30)
    previous = None
    for level in (1, 2, 3, 4):
        gap = (_fermionic_sum(qd, 2, 1, level, 5) - target).valuation
        if previous is not None:
            assert gap >= previous
        previous = gap
    assert previous >= 4


def test_riemann_sum_partition_invariance():
    # summing disjoint index blocks reproduces the full sum exactly
    for qd in (sym(), padic_q(4, 3)):
        spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
        f = bracket_power(qd, 2, 1)
        sum_range = _range_sum if qd.mode == "padic" else _per_term_sum
        whole = sum_range(spec, f, range(0, 27))
        a, b, c = (sum_range(spec, f, range(lo, lo + 9)) for lo in (0, 9, 18))
        assert whole == a + b + c


# ---------------------------------------------------------------------------
# the closed level sum at symbolic and rational q against the per-term loop
# ---------------------------------------------------------------------------

def _per_term_sum(spec, f, reps):
    """Reference: the unnormalized sum of chi(j) [x+j]^n (+-q)^j over reps,
    one term at a time in the reading's field, with [x+j] = (1 - q^(x+j))
    (1/(1 - q)) at the spec's q; at p-adic q under the field's precision
    rules."""
    one = spec.q.one()
    inv_1mq = one / (one - spec.q.qpow(1))
    q1 = spec.q.qpow(1)
    power = spec.q.qpow(reps.start) if reps.start else spec.q.one()
    total = 0
    for j in reps:
        chi_j = f.chi[j % len(f.chi)]
        if chi_j:
            value = ((one - spec.q.qpow(f.shift + j)) * inv_1mq) ** f.n if f.n else one
            term = (value if chi_j == 1 else -value) * power
            total = total - term if spec.kind == FERMIONIC and j % 2 else total + term
        power = power * q1
    return total


def _sum_outcome(compute):
    """A value with its root order (as JSON when symbolic), or the error type."""
    try:
        value = compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return value.to_json() if isinstance(value, RationalFunction) else value


_RATIONAL_QS = (F(1, 2), F(-3, 5), F(7, 3), F(-2), F(3), F(0), F(1), F(-1))


def _former_finite_sum_suite(test):
    """@example at each case of the finite-sum suite before it compared
    readings: fermionic, symbolic q, p = 3, levels 1 and 2, [x+y]^n for
    n <= 4 and x in {0, 1}."""
    for level in (1, 2):
        for n in range(5):
            for x in (0, 1):
                test = example(kind=FERMIONIC, p=3, d=1, level=level, n=n, shift=x,
                               chi=(1,), reading=("symbolic", 1, 1))(test)
    return test


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([BOSONIC, FERMIONIC]), p=st.sampled_from([3, 5, 7]),
       d=st.integers(1, 7), level=st.integers(1, 3), n=st.integers(0, 4),
       shift=st.integers(-4, 4),
       chi=st.just((1,)) | st.lists(st.sampled_from([0, 1, -1]), min_size=1,
                                    max_size=9).map(tuple),
       reading=st.tuples(st.just("symbolic"), st.integers(1, 3), st.integers(1, 3))
       | st.tuples(st.just("rational"), st.sampled_from(_RATIONAL_QS)))
# n = 0 takes no power of q^x, so a fractional shift is allowed at rational q
@example(kind=BOSONIC, p=3, d=2, level=2, n=0, shift=F(1, 2), chi=(1, 0, -1, -1),
         reading=("rational", F(-3, 5)))
# a table longer than the level, nonzero only past it, and one that is all zero
@example(kind=FERMIONIC, p=3, d=1, level=1, n=2, shift=1, chi=(0, 0, 0, 1, -1),
         reading=("symbolic", 1, 2))
@example(kind=BOSONIC, p=5, d=2, level=1, n=3, shift=-1, chi=(0, 0),
         reading=("symbolic", 2, 3))
# at q = -1 a closed-form divisor 1 - q^(l (k+1)) vanishes, while the bosonic
# sum over an odd level is finite
@example(kind=BOSONIC, p=7, d=1, level=2, n=3, shift=-2, chi=(-1, 0),
         reading=("rational", F(-1)))
@_former_finite_sum_suite
def test_level_sum_matches_the_per_term_oracle(kind, p, d, level, n, shift, chi, reading):
    # riemann_sum at symbolic q (the measure's root order D and the shift,
    # drawn in 1/E, are drawn separately; for n >= 1 the sum is taken at the
    # root order lcm(D, the shift's denominator)) and at rational q: the
    # oracle's value at that root order, or the same error
    assume(d % p and (kind == BOSONIC or d % 2) and d * p ** level <= 300)
    if reading[0] == "symbolic":
        spec_q, shift = sym(reading[1]), F(shift, reading[2])
        oracle_q = sym(math.lcm(reading[1], shift.denominator)) if n else spec_q
    elif reading[1] == 1:
        with pytest.raises(ValueError):
            QDescriptor.rational(reading[1])
        return
    else:
        spec_q = oracle_q = QDescriptor.rational(reading[1])
    assume(not (n and shift < 0 and spec_q.value == 0))   # the oracle's [x]^n has a pole
    spec, oracle = (MeasureSpec(kind, q, ProfiniteDomain(p, d)) for q in (spec_q, oracle_q))
    f = BracketPower(n, shift, chi)
    got = _sum_outcome(lambda: riemann_sum(spec, f, level))
    want = _sum_outcome(lambda: _per_term_sum(oracle, f, range(oracle.domain.level_size(level)))
                        / oracle.level_norm(level))
    assert got == want


@pytest.mark.parametrize("qd", [sym(), sym(2), QDescriptor.rational(F(-3, 5)),
                                QDescriptor.rational(-1)],
                         ids=["symbolic", "root-order-2", "rational", "minus-one"])
def test_a_level_sum_is_one_kernel_call(monkeypatch, qd):
    # one geometric_sum call at level K, so one kernel call; at q = -1 the
    # bosonic sums over odd levels make theirs at symbolic q
    kernel, builder, calls, built = qmeasure.binomial_fraction_sum, qmeasure.geometric_sum, [], []
    monkeypatch.setattr(qmeasure, "binomial_fraction_sum",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(qmeasure, "geometric_sum",
                        lambda *args: built.append(args) or builder(*args))
    kind = BOSONIC if qd.value == -1 else FERMIONIC
    riemann_sum(MeasureSpec(kind, qd, ProfiniteDomain(5)), bracket_power(qd, 3), 4)
    chi = bracket_power(qd, 2, 0, make_character(3, (1,)))
    riemann_sum(MeasureSpec(BOSONIC, qd, ProfiniteDomain(5, 3)), chi, 2)
    assert len(calls) == len(built) == 2
    assert [args[0].mode for args in built] == ["symbolic" if kind == BOSONIC else qd.mode] * 2


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from([BOSONIC, FERMIONIC]), p=st.sampled_from([3, 5, 7]),
       r=st.integers(-3, 3).filter(bool), n=st.integers(0, 5), shift=st.integers(-3, 3),
       table=st.lists(st.sampled_from([0, 1, -1]), min_size=1, max_size=9).map(tuple),
       extra=st.integers(0, 2))
@example(kind=BOSONIC, p=3, r=1, n=2, shift=0, table=(1,), extra=0)
@example(kind=BOSONIC, p=5, r=-1, n=3, shift=1, table=(0, 1, -1, 1, -1), extra=1)
def test_the_limit_is_the_p_adic_limit_of_the_levels(kind, p, r, n, shift, table, extra):
    # at q = 1 + p r the builder's limit agrees with the level-N riemann_sum
    # to the digits integrate proves: N fermionic, N - N0 bosonic, with N0 =
    # max(1, v_p(l)) and the domain Z_p x Z/d, d the p-free part of l
    d, n0 = len(table), 0
    while d % p == 0:
        d, n0 = d // p, n0 + 1
    assume(kind == BOSONIC or d % 2)
    n0 = max(1, n0)
    level = n0 + 1 + extra
    qd = padic_q(1 + p * r, p, 24)
    limit = geometric_sum(qd, kind, n, shift, table)
    level_sum = riemann_sum(MeasureSpec(kind, qd, ProfiniteDomain(p, d)),
                            BracketPower(n, shift, table), level)
    bound = level if kind == FERMIONIC else level - n0
    digits = min(bound, limit.absolute_precision, level_sum.absolute_precision)
    assert digits >= min(bound, 12)
    assert limit.agrees_with(level_sum, digits)


@pytest.mark.parametrize("qd", [sym(), QDescriptor.rational(F(2, 5)), padic_q()], ids=repr)
@pytest.mark.parametrize("n, x, table", [(2, 0, (1, 1)), (3, 1, (1, -1, 0, 1))])
def test_an_even_period_fermionic_limit_is_refused_in_every_reading(qd, n, x, table):
    # the limit takes (r q)^K -> -1 over levels K that the period divides,
    # so an even period has no fermionic limit in any reading of q
    with pytest.raises(InputError) as info:
        geometric_sum(qd, FERMIONIC, n, x, table)
    assert str(info.value) == f"the fermionic limit needs an odd period, got {len(table)}"


def test_no_per_term_route_is_left():
    gone = ("_term_sum", "fermionic_finite_rhs")
    modules = [qvolkenborn] + [importlib.import_module(f"qvolkenborn.{name}") for name in
                               ("algebra", "characters", "cli", "padic", "qmeasure",
                                "qnumbers", "series", "verify")]
    assert not [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)]
    # a BracketPower is immutable data, not a callable
    f = bracket_power(sym(), 2)
    assert not callable(f) and BracketPower._fields == ("n", "shift", "chi")
    with pytest.raises(AttributeError):
        f.shift = 0


# ---------------------------------------------------------------------------
# the p-adic residue loop against the per-term loop
# ---------------------------------------------------------------------------

def _as_tuple(x):
    return (x.p, x.v, x.unit, x.prec)


def _unnormalised(q, fermionic, r_k, top, bottom, digits, shift, claim):
    """Stands in for qmeasure._over_normaliser: the level sum S itself, read
    from top / bottom = p^shift S mod p^(digits + shift) as the residue
    pass reads its p-adic limit, with no normalizer and no claim."""
    p, width = q.value.p, max(1, digits + shift)
    known = p ** width
    total = top * pow(bottom, -1, known) % known
    v = -shift + (_int_valuation(total, p) if total else width)
    return PadicNumber._from_scaled(p, -shift, total, digits + min(0, v))


def _range_sum(spec, f, reps):
    """The unnormalized sum of chi(j) [x+j]^n (r q)^j over reps by the
    residue pass: its sum over range(len(reps)) at the shift x + start with
    the table turned by start, stopped before the normalizer, times
    (r q)^start as PadicNumbers (a unit, so the digits claimed stay)."""
    table = f.chi
    turn = reps.start % len(table)
    x = spec.q.w_exponent(f.shift + reps.start) if f.n else 0
    with unittest.mock.patch.object(qmeasure, "_over_normaliser", _unnormalised):
        total = qmeasure._residue_sum(spec.q, spec.kind, f.n, x, table[turn:] + table[:turn],
                                      reps.stop - reps.start)
    ratio = -spec.q.value if spec.kind == FERMIONIC else spec.q.value
    return total * ratio ** reps.start if reps.start else total


def _assert_kernel_matches_generic(spec, f, level):
    """The unnormalized residue sum of a full level equals the per-term
    loop digit for digit, which also covers precisions too low to divide by
    the level normalizer; so does riemann_sum, where that division works."""
    reps = range(spec.domain.level_size(level))
    slow = _per_term_sum(spec, f, reps)
    assert _as_tuple(_range_sum(spec, f, reps)) == _as_tuple(slow)
    norm = spec.level_norm(level)
    if not norm.is_zero_at_precision:
        assert _as_tuple(riemann_sum(spec, f, level)) == _as_tuple(slow / norm)


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("prec", [8, 32])
@pytest.mark.parametrize("depth", [1, 2])
def test_residue_loop_matches_per_term_loop(kind, p, prec, depth):
    qd = padic_q(1 + 2 * p ** depth, p, prec)   # v_p(q - 1) = depth
    spec = MeasureSpec(kind, qd, ProfiniteDomain(p))
    for level in (1, 2, 3):
        _assert_kernel_matches_generic(spec, bracket_power(qd, 0), level)
        for n in range(4):
            for shift in (-1, 0, 1, 2):
                _assert_kernel_matches_generic(spec, bracket_power(qd, n, shift), level)


@pytest.mark.parametrize("prec", [8, 32])
def test_residue_loop_matches_per_term_loop_with_character(prec):
    chi = make_character(3, (1,))   # the quadratic character mod 3
    qd = padic_q(6, 5, prec)
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, 3))
    for level in (1, 2):
        for n in range(4):
            _assert_kernel_matches_generic(spec, bracket_power(qd, n, 0, chi), level)


def test_residue_loop_matches_per_term_loop_on_edge_cases():
    # blocks whose every term has x + j divisible by p, where the per-term
    # loop carries more digits than the A - v_p(1 - q) the sum claims, and
    # at n = 0 a shift whose denominator is p, which is never read
    qd = padic_q(4, 3, 16)   # A = 16, v_3(1 - q) = 1
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for n in range(4):
        cases = [(bracket_power(qd, n, 1), reps) for reps in
                 (range(2, 3), range(8, 9), range(0, 1), range(1, 3), range(7, 9))]
        cases.append((bracket_power(qd, 0, F(1, 3 ** (n + 1))), range(0, 9)))
        for f, reps in cases:
            digits = 16 if f.n == 0 else 15
            fast = _range_sum(spec, f, reps)
            assert fast.absolute_precision == digits
            assert fast.agrees_with(_per_term_sum(spec, f, reps), digits)


def test_integrals_take_only_a_bracket_power():
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    for call in (lambda f: riemann_sum(spec, f, 2), lambda f: integrate(spec, f, 2, 4)):
        with pytest.raises(ValueError) as info:
            call(abs)
        assert type(info.value) is ValueError
        assert str(info.value) == "the integrand must be a BracketPower, got builtin_function_or_method"


def test_riemann_sums_refuse_a_shift_outside_the_measures_field():
    # an integrand holds no q: the sum reads its shift at the measure's q,
    # which refuses a fractional power at rational and p-adic q (q = -1
    # included) and refuses q = 0 to a negative power as ZeroDivisionError
    domain, f = ProfiniteDomain(3), BracketPower(2, F(1, 2))
    for q, kind in ((QDescriptor.rational(F(2, 5)), FERMIONIC), (padic_q(4, 3, 16), FERMIONIC),
                    (QDescriptor.rational(-1), BOSONIC)):
        with pytest.raises(InputError) as info:
            riemann_sum(MeasureSpec(kind, q, domain), f, 1)
        assert str(info.value) == f"fractional power q^1/2 is not available in {q.mode} mode"
    with pytest.raises(ZeroDivisionError):
        riemann_sum(MeasureSpec(FERMIONIC, QDescriptor.rational(0), domain),
                    bracket_power(QDescriptor.rational(0), 2, -1), 1)
    # at n = 0 the shift is not read
    assert riemann_sum(MeasureSpec(FERMIONIC, QDescriptor.rational(F(2, 5)), domain),
                       BracketPower(0, F(1, 2)), 1) == 1


def test_a_symbolic_sum_takes_the_root_order_its_shift_needs():
    # lcm(D, the shift's denominator) for n >= 1, so sums that mix root
    # orders still work, and an integrand built at a finer q sums at the
    # coarsest root order that holds its shift
    spec = MeasureSpec(FERMIONIC, sym(), ProfiniteDomain(3))
    half = riemann_sum(spec, bracket_power(sym(2), 2, F(1, 2)), 1)
    assert half.root_order == 2
    assert half == _per_term_sum(MeasureSpec(FERMIONIC, sym(2), ProfiniteDomain(3)),
                                 BracketPower(2, F(1, 2)), range(3)) / sym(2).minus_bracket(3)
    assert riemann_sum(spec, bracket_power(sym(6), 2, F(1, 2)), 1).to_json() == half.to_json()
    assert riemann_sum(spec, bracket_power(sym(2), 2, 1), 1).root_order == 1
    assert riemann_sum(MeasureSpec(FERMIONIC, sym(3), ProfiniteDomain(3)),
                       BracketPower(2, F(1, 2)), 1).root_order == 6
    assert riemann_sum(spec, BracketPower(0, F(1, 2)), 1).root_order == 1


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), r=st.integers(-40, 40).filter(bool),
       prec=st.integers(2, 40), n=st.integers(0, 4), shift=st.integers(-3, 3),
       kind=st.sampled_from([BOSONIC, FERMIONIC]), level=st.integers(1, 2))
def test_residue_loop_matches_per_term_loop_random_q(p, r, prec, n, shift, kind, level):
    assume(r % p ** (prec - 1))  # else q = 1 at its precision, which QDescriptor rejects
    qd = padic_q(1 + p * r, p, prec)
    f = bracket_power(qd, n, shift)
    _assert_kernel_matches_generic(MeasureSpec(kind, qd, ProfiniteDomain(p)), f, level)


def _linear_residue_sum(spec, f, reps):
    """Reference: the residue sum as one loop over reps in plain ints (one
    modular power per term), with the same digit claim as the geometric
    sum of _residue_sum."""
    q = spec.q.value
    p, shift, n = q.p, f.shift, f.n
    signs = f.chi
    size = len(signs)
    mod_a = p ** q.prec
    if n == 0:
        digits, mod = q.prec, mod_a
        bracket, q_x = 1, 0
    else:
        inv_1mq = 1 / (1 - q)
        t = -inv_1mq.v
        digits = q.prec - t
        mod = p ** digits
        q_x = pow(q.unit, int(shift) + reps.start, mod_a)
        bracket = (1 - q_x) % mod_a // p ** t * inv_1mq.unit % mod
        q_x %= mod
    step = q.unit % mod
    ratio = mod - step if spec.kind == FERMIONIC else step
    weight = pow(ratio, reps.start, mod)
    total = 0
    for j in reps:
        s = signs[j % size]
        if s:
            term = pow(bracket, n, mod) * weight
            total = total + term if s > 0 else total - term
        bracket = (bracket + q_x) % mod
        q_x = q_x * step % mod
        weight = weight * ratio % mod
    return PadicNumber._from_scaled(p, 0, total, digits)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11]), depth=st.integers(1, 2) | st.integers(1, 127),
       prec=st.integers(2, 128), unit=st.integers(-10 ** 6, 10 ** 6),
       d=st.sampled_from([1, 3, 5, 7, 15]), kind=st.sampled_from([BOSONIC, FERMIONIC]),
       n=st.integers(0, 12),
       chi=st.just((1,)) | st.lists(st.sampled_from([0, 1, -1]), min_size=1,
                                    max_size=30).map(tuple),
       shift=st.integers(-5, 5), start=st.integers(0, 3000),
       length=st.integers(0, 30) | st.integers(0, 3000))
# a fermionic sum with an even table length, where 1 - rho^l is not a unit
@example(p=5, depth=1, prec=20, unit=1, d=1, kind=FERMIONIC, n=5, chi=(1, -1, 0, 1),
         shift=0, start=2, length=700)
# a table length divisible by p, and n >= p (v_p(k + 1) > 0)
@example(p=3, depth=1, prec=16, unit=1, d=1, kind=BOSONIC, n=4,
         chi=(0, 1, -1, 1, 0, -1, 1, -1, 1), shift=1, start=0, length=2000)
@example(p=3, depth=2, prec=30, unit=1, d=1, kind=BOSONIC, n=8, chi=(1,), shift=2,
         start=5, length=1000)
# v_p(q - 1) = A - 1: one digit claimed
@example(p=7, depth=11, prec=12, unit=3, d=1, kind=BOSONIC, n=5, chi=(1, 0, -1), shift=0,
         start=10, length=500)
# start > 0 with a range shorter than the table, and an empty range
@example(p=5, depth=1, prec=10, unit=2, d=7, kind=FERMIONIC, n=2,
         chi=(1, -1, 1, 0, 1, -1, 1), shift=0, start=4, length=3)
@example(p=5, depth=1, prec=10, unit=2, d=7, kind=FERMIONIC, n=2,
         chi=(1, -1, 1, 0, 1, -1, 1), shift=0, start=3, length=0)
# a negative shift
@example(p=11, depth=1, prec=40, unit=-3, d=1, kind=BOSONIC, n=6, chi=(1,), shift=-5,
         start=0, length=121)
def test_geometric_residue_sum_matches_the_linear_loop(p, depth, prec, unit, d, kind, n, chi,
                                                       shift, start, length):
    assume(depth < prec and unit % p and d % p)
    qd = padic_q(1 + p ** depth * unit, p, prec)
    spec = MeasureSpec(kind, qd, ProfiniteDomain(p, d))
    f = BracketPower(n, shift, chi)
    reps = range(start, start + length)
    assert _as_tuple(_range_sum(spec, f, reps)) == _as_tuple(_linear_residue_sum(spec, f, reps))


def test_residue_sum_makes_no_call_per_bit_of_the_length():
    # one sum makes the same calls over 10^3 and 10^15 representatives (both
    # 1 mod the table length 9), so no loop runs over the bits of the count
    import cProfile
    import pstats

    qd = padic_q(4, 3, 32)
    table = (1, -1, 0, 1, 1, -1, 0, -1, 1)

    def calls(length):
        profile = cProfile.Profile()
        profile.runcall(qmeasure._residue_sum, qd, BOSONIC, 7, 1, table, length)
        return pstats.Stats(profile).total_calls

    assert calls(10 ** 3) == calls(10 ** 15)


def test_long_ranges_sum_at_once():
    # the first table vanishes wherever j is prime to 3, so every term it
    # keeps has j divisible by p; the second has one unit term.  Both sum
    # 10^15 representatives at once, claim A - v_p(1 - q) digits, and match
    # the linear reference on a shorter range
    qd = padic_q(4, 3, 16)
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(3))
    for n in range(1, 4):
        for chi in ((1, 0, 0, -1, 0, 0), (1, 0, 0, -1, 1, 0)):
            f = BracketPower(n, chi=chi)
            assert _range_sum(spec, f, range(10 ** 15)).absolute_precision == 15
            assert (_as_tuple(_range_sum(spec, f, range(5, 200)))
                    == _as_tuple(_linear_residue_sum(spec, f, range(5, 200))))


@pytest.mark.parametrize("p, q_value", [(5, 6), (5, 11), (3, 4), (3, 7)])
def test_deep_fermionic_sums_are_within_p_to_the_level(p, q_value):
    # v_p(S_N - K_n(x)) >= N for the level-N fermionic Riemann sum of
    # [x+y]^n, up to the digits both sides claim, at every level up to A:
    # the bound by which integrate stops at level A
    qd = padic_q(q_value, p, 32)
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(p))
    for n, x in ((1, 0), (3, 0), (4, 1), (6, 1)):
        target = k_polynomial(n, x, qd)
        for level in range(1, 33):
            s_n = riemann_sum(spec, bracket_power(qd, n, x), level)
            gap = (s_n - target).valuation
            claimed = min(s_n.absolute_precision, target.absolute_precision)
            assert gap >= min(level, claimed), (n, x, level, gap)


def _field_riemann_sum(spec, f, n):
    """Reference: the level's residue sum over its normalizer [d p^n] at
    +-q, divided as PadicNumbers (q.bracket or q.minus_bracket, then /)."""
    return _range_sum(spec, f, range(spec.domain.level_size(n))) / spec.level_norm(n)


def _field_integrate(spec, f, stability, n_max):
    """Reference: integrate by the field chain, the level's sum over its
    normalizer as PadicNumbers, then + zero_at_precision to the stability."""
    p, d = spec.domain.p, spec.domain.d
    modulus, n0 = len(f.chi), 0
    while modulus % p == 0:
        modulus, n0 = modulus // p, n0 + 1
    if d % modulus:
        raise InputError(f"a character mod {len(f.chi)} is not a function on the "
                         f"domain: its {p}-free part {modulus} does not divide d = {d}")
    n0, target = max(1, n0), max(0, stability)
    bosonic = spec.kind == BOSONIC
    n = target + n0 if bosonic else max(n0, target)
    if n > n_max:
        raise InputError(f"stability {stability} needs level {n}, "
                         f"past n_max = {n_max}")
    precision, norm = spec.q.value.prec, spec.level_norm(n)
    if target > precision:
        raise InputError(f"stability {stability} needs more digits than "
                         f"q's precision A = {precision}")
    if norm.is_zero_at_precision:
        raise InputError(f"stability {stability} not reached: the level-{n} "
                         f"normalizer vanishes at q's precision A = {precision}")
    value = _field_riemann_sum(spec, f, n)
    digits = min(n - n0 if bosonic else n, value.absolute_precision)
    if digits < target:
        raise InputError(f"stability {stability} not reached: level {n} "
                         f"claims {digits} digits")
    return value + PadicNumber.zero_at_precision(p, digits), n, digits


def _level_outcome(compute):
    """(p, v, unit, prec) of a value, with n_used and stability for an
    integral; (type, message) of an error."""
    try:
        value = compute()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple):
        return (_as_tuple(value[0]),) + value[1:]
    return _as_tuple(value)


_QUADRATIC_TABLES = [(1,)] + [tuple(character_value(chi, a) for a in range(chi.modulus))
                              for m in (3, 5, 7) for chi in enumerate_characters(m)
                              if chi.value_order == 2]


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), depth=st.integers(1, 3), prec=st.integers(1, 130),
       unit=st.integers(-10 ** 4, 10 ** 4), d=st.integers(1, 7),
       kind=st.sampled_from([BOSONIC, FERMIONIC]), n=st.integers(0, 6),
       shift=st.integers(-3, 3), chi=st.sampled_from(_QUADRATIC_TABLES),
       level=st.integers(1, 12), target=st.integers(0, 13))
# A = v_p(q - 1) + 1: every sum of n >= 1 claims one digit
@example(p=5, depth=1, prec=2, unit=1, d=1, kind=FERMIONIC, n=3, shift=1, chi=(1,),
         level=4, target=1)
@example(p=3, depth=2, prec=3, unit=-2, d=1, kind=BOSONIC, n=2, shift=0, chi=(1,),
         level=2, target=1)
# a bosonic normalizer that vanishes at A (q = 4, p = 3, A = 6 from level 5 on)
@example(p=3, depth=1, prec=6, unit=1, d=1, kind=BOSONIC, n=2, shift=0, chi=(1,),
         level=6, target=5)
@example(p=3, depth=1, prec=6, unit=1, d=1, kind=BOSONIC, n=0, shift=0, chi=(1,),
         level=5, target=4)
# the four level sums of the padic benchmark at seed 9001 (q = 6 and q = 22)
@example(p=5, depth=1, prec=32, unit=1, d=1, kind=FERMIONIC, n=3, shift=0, chi=(1,),
         level=6, target=6)
@example(p=5, depth=1, prec=128, unit=1, d=1, kind=FERMIONIC, n=3, shift=1, chi=(1,),
         level=6, target=4)
@example(p=3, depth=1, prec=32, unit=7, d=1, kind=BOSONIC, n=3, shift=1, chi=(1,),
         level=8, target=6)
@example(p=3, depth=1, prec=128, unit=7, d=1, kind=BOSONIC, n=2, shift=0, chi=(1,),
         level=8, target=6)
def test_level_pass_matches_the_field_chain(p, depth, prec, unit, d, kind, n, shift, chi,
                                            level, target):
    # riemann_sum and integrate divide by the normalizer and truncate on
    # residues: the same (p, v, unit, prec), or the same error and message
    assume(depth < prec and unit % p and d % p and (kind == BOSONIC or d % 2))
    qd = padic_q(1 + p ** depth * unit, p, prec)
    spec = MeasureSpec(kind, qd, ProfiniteDomain(p, d))
    f = BracketPower(n, shift, chi)
    assert (_level_outcome(lambda: riemann_sum(spec, f, level))
            == _level_outcome(lambda: _field_riemann_sum(spec, f, level)))

    def integral():
        result = integrate(spec, f, target, 12)
        return result.value, result.n_used, result.stability

    assert (_level_outcome(integral)
            == _level_outcome(lambda: _field_integrate(spec, f, target, 12)))


def _padic_constructions(compute):
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.runcall(compute)
    stats = pstats.Stats(profile).stats.items()
    counts = {name: calls for (path, _, name), (_, calls, *_) in stats
              if path.endswith("padic.py") and name in
              ("__init__", "_normalised", "zero_at_precision", "padic_from_rational",
               "__truediv__")}
    # primitive calls: Newton doubling recurses once per halving
    inverses = sum(primitive for (path, _, name), (primitive, *_) in stats
                   if path.endswith("padic.py") and name == "_unit_inverse")
    return counts, inverses


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
def test_a_level_makes_one_padic_number_at_any_depth(kind):
    # the sum, its normalizer and the truncation are one integer pass: the
    # same PadicNumbers at level 12 as at level 2, none of them divided, and
    # one unit inverse
    qd = padic_q(4, 3, 128)
    spec = MeasureSpec(kind, qd, ProfiniteDomain(3))
    f = bracket_power(qd, 3, 1)
    for call in (lambda n: riemann_sum(spec, f, n),
                 lambda n: integrate(spec, f, n - 1 if kind == BOSONIC else n, 12)):
        counts = [_padic_constructions(lambda: call(n)) for n in (2, 12)]
        assert counts[0] == counts[1] and sum(counts[0][0].values()) == 1, counts
        assert counts[0][1] == 1, counts


def test_bracket_power_at_padic_q_makes_no_padic_division():
    # the geometric route never reads 1 or 1/(1 - q), so none is built
    qd = padic_q(6, 5, 128)
    for shift in (0, 1, -2):
        counts, _ = _padic_constructions(lambda: bracket_power(qd, 3, shift))
        assert "__truediv__" not in counts, counts


@pytest.mark.parametrize("level", [28, 30, 45])
def test_levels_past_sys_maxsize_representatives(level):
    # 5^28 representatives no longer fit len(); the level is still one sum
    # the closed form is the l = 1 fermionic level sum, here by the field
    # chain: (1 + q) / ((1 - q)^3 (1 + q^K)) sum_k C(3,k) (-q)^k (1 +
    # q^(K(k+1))) / (1 + q^(k+1)), K = 5^level
    qd, size = padic_q(6, 5, 40), 5 ** level
    s_n = riemann_sum(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5)),
                      bracket_power(qd, 3, 1), level)
    numerators = [{k: (-1) ** k * math.comb(3, k), k + size * (k + 1): (-1) ** k * math.comb(3, k)}
                  for k in range(4)]
    closed = _field_sum(qd, numerators, 1, 1, [(1, 1, 1), (-1, 1, -3), (1, size, -1)])
    claimed = min(s_n.absolute_precision, closed.absolute_precision)
    assert (s_n - closed).valuation >= claimed >= 37


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_constant_converges_immediately():
    # every level sums to 1 exactly, and the result claims the proven digits
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    result = integrate(spec, bracket_power(qd, 0), 6, 8)
    assert (result.n_used, result.stability) == (6, 6)
    assert result.value.agrees_with(1, 6)


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


@pytest.mark.parametrize("kind", [BOSONIC, FERMIONIC])
@pytest.mark.parametrize("p, q_value", [(3, 4), (5, 6)])
def test_integrate_claims_only_certified_digits(kind, p, q_value):
    qd = padic_q(q_value, p, 32)
    closed = beta_polynomial if kind == BOSONIC else k_polynomial
    spec = MeasureSpec(kind, qd, ProfiniteDomain(p))
    for n in range(4):
        for x in (0, 1):
            result = integrate(spec, bracket_power(qd, n, x), 6, 9)
            assert result.value.absolute_precision == result.stability
            exact = closed(n, x, QDescriptor.rational(q_value))
            image = padic_from_rational(exact, p, result.stability + 40)
            assert result.value.agrees_with(image, result.stability), (n, x)


def test_integrate_rejects_twists_that_are_not_functions_on_the_domain():
    qd = padic_q()
    mod3 = bracket_power(qd, 2, 0, make_character(3, (1,)))
    with pytest.raises(ValueError, match="5-free part 3 does not divide d = 1"):
        integrate(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5)), mod3, 2, 8)
    with pytest.raises(ValueError, match="5-free part 3 does not divide d = 1"):
        integrate(MeasureSpec(BOSONIC, qd, ProfiniteDomain(5)),
                  bracket_power(qd, 1, 0, parse_character_id("15:1,2")), 2, 8)
    # the p-free part of the modulus divides d: a function on the domain
    for d, chi_id in ((3, "3:1"), (1, "5:2"), (3, "15:1,2"), (7, "1:")):
        f = bracket_power(qd, 1, 0, parse_character_id(chi_id))
        assert integrate(MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5, d)), f, 2, 8).stability >= 2


def test_integrate_requires_padic_mode():
    spec = MeasureSpec(BOSONIC, sym(), ProfiniteDomain(5))
    with pytest.raises(ValueError):
        integrate(spec, bracket_power(sym(), 0), 4, 6)


@pytest.mark.parametrize("n_max", [-1, 0, 1])
def test_integrate_needs_two_levels_to_compare(n_max):
    # two digits of the fermionic integral are proven at level 2, not before
    qd = padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    with pytest.raises(ValueError, match=f"^stability 2 needs level 2, past n_max = {n_max}$"):
        integrate(spec, bracket_power(qd, 0), 2, n_max)
    assert integrate(spec, bracket_power(qd, 0), 2, 2).n_used == 2


def test_integrate_sums_exactly_one_level(monkeypatch):
    sizes = []

    def spy(q, kind, n, x, weights, level=None, claim=math.inf):
        sizes.append(level)
        return residue_sum(q, kind, n, x, weights, level, claim)

    residue_sum = qmeasure._residue_sum
    monkeypatch.setattr(qmeasure, "_residue_sum", spy)
    qd = padic_q()
    twisted = bracket_power(qd, 2, 0, make_character(3, (1,)))
    for kind, f, d, target, level in ((FERMIONIC, bracket_power(qd, 3), 1, 6, 6),
                                      (BOSONIC, bracket_power(qd, 3), 1, 4, 5),
                                      (BOSONIC, twisted, 3, 5, 6)):
        sizes.clear()
        result = integrate(MeasureSpec(kind, qd, ProfiniteDomain(5, d)), f, target, 8)
        assert sizes == [d * 5 ** level] and result.n_used == level


# the quadratic characters of odd modulus 3 .. 25
QUADRATIC = [chi for m in range(3, 26, 2) for chi in enumerate_characters(m)
             if chi.value_order == 2]


@settings(max_examples=1000, deadline=None)
@given(p=st.sampled_from((3, 5, 7)), c=st.sampled_from((1, 2, 4)), e=st.integers(1, 2),
       prec=st.integers(2, 24), kind=st.sampled_from((BOSONIC, FERMIONIC)),
       n=st.integers(0, 7), x=st.integers(0, 2),
       chi=st.none() | st.sampled_from(QUADRATIC), data=st.data())
def test_integrate_claims_only_proven_digits(p, c, e, prec, kind, n, x, chi, data):
    # q = 1 + c p^e.  integrate refuses with ValueError, or every digit it
    # claims agrees with the limit: the exact value at rational q, or for a
    # twisted bosonic integrand (no closed form) the sum of a level so deep
    # that the proven bound covers the claim
    assume(prec > e)   # q must differ from 1 at its precision
    q_value = 1 + c * p ** e
    target = data.draw(st.integers(0, prec + 2), label="target")
    n_max = data.draw(st.integers(0, prec + 5), label="n_max")
    d, n0 = 1 if chi is None else chi.modulus, 0
    while d % p == 0:
        d, n0 = d // p, n0 + 1
    n0 = max(1, n0)

    def measure_and_integrand(qd):
        f = bracket_power(qd, n, x if chi is None else 0, chi)
        return MeasureSpec(kind, qd, ProfiniteDomain(p, d)), f

    spec, f = measure_and_integrand(padic_q(q_value, p, prec))
    try:
        result = integrate(spec, f, target, n_max)
    except ValueError:
        return
    claimed = result.stability
    assert claimed >= target and result.n_used <= n_max
    assert result.value.absolute_precision == claimed
    rational = QDescriptor.rational(q_value)
    if chi is None:
        closed = beta_polynomial if kind == BOSONIC else k_polynomial
        exact = padic_from_rational(closed(n, x, rational), p, prec + 40)
    elif kind == FERMIONIC:
        exact = padic_from_rational(k_chi(n, chi, rational), p, prec + 40)
    else:
        level = result.n_used + claimed + n0
        exact = riemann_sum(*measure_and_integrand(padic_q(q_value, p, prec + 3 * level)),
                            level)
        assert exact.absolute_precision >= claimed
    assert result.value.agrees_with(exact, claimed)


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
    assert bosonic_power_moment(1, qd) == 2 / (qd.one() + qd.qpow(1))


def test_fermionic_moment_values():
    qd = sym()
    q = qd.qpow(1)
    one = qd.one()
    assert fermionic_power_moment(0, qd) == 1
    assert fermionic_power_moment(1, qd) == (one + q) / (one + q * q)


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_moments_match_integrals(i):
    # q^(iy) = (1 + (q - 1)[y])^i, so its integral is the sum over l of
    # C(i, l) (q - 1)^l times the integral of [y]^l
    qd = padic_q()
    for kind, closed in ((BOSONIC, bosonic_power_moment),
                         (FERMIONIC, fermionic_power_moment)):
        spec = MeasureSpec(kind, qd, ProfiniteDomain(5))
        value = sum(math.comb(i, l) * (qd.qpow(1) - 1) ** l
                    * integrate(spec, bracket_power(qd, l), 4, 8).value
                    for l in range(i + 1))
        assert (value - closed(i, qd)).valuation >= 4


# ---------------------------------------------------------------------------
# integrand parsing
# ---------------------------------------------------------------------------

def test_parse_integrand_families():
    qd = sym()
    assert parse_integrand("one", qd) == (0, 0, (1,))
    assert parse_integrand("bracket_pow:2", qd) == (2, 0, (1,))
    assert parse_integrand("shifted_bracket_pow:1:1", qd) == (1, 1, (1,))
    assert parse_integrand("char_twisted:0:3:1", qd) == (0, 0, (0, 1, -1))


def test_parse_integrand_rejects_unknown():
    with pytest.raises(ValueError):
        parse_integrand("mystery:3", sym())


@pytest.mark.parametrize("qd", [sym(), QDescriptor.rational(F(2, 5)), padic_q()],
                         ids=["symbolic", "rational", "padic"])
def test_twisted_integrands_need_values_in_zero_and_plus_minus_one(qd):
    with pytest.raises(ValueError, match=r"character values in \{0, \+-1\}"):
        parse_integrand("char_twisted:2:5:1", qd)  # order 4
    table = parse_integrand("char_twisted:0:5:2", qd).chi   # quadratic, stored as ints
    assert table == (0, 1, -1, -1, 1) and all(type(v) is int for v in table)


@pytest.mark.parametrize("qd", [sym(), QDescriptor.rational(F(2, 5)), padic_q()],
                         ids=["symbolic", "rational", "padic"])
def test_bracket_power_reads_a_characters_values_as_its_table(qd):
    # the one builder of a twisted integrand: a character of value order
    # <= 2 becomes its int values mod its modulus, a higher order is
    # refused by BracketPower, and the untwisted table is (1,), never None
    for m in range(1, 31):
        for chi in enumerate_characters(m):
            if chi.value_order > 2:
                with pytest.raises(InputError, match=r"^twisted integrands need character "
                                                     r"values in \{0, \+-1\}"):
                    bracket_power(qd, 2, 0, chi)
                continue
            f = bracket_power(qd, 2, 0, chi)
            assert f.chi == tuple(int(character_value(chi, a)) for a in range(chi.modulus))
    assert bracket_power(qd, 3).chi == BracketPower(3).chi == (1,)
    with pytest.raises(ValueError, match="at least one value"):
        BracketPower(1, 0, None)


def test_an_empty_character_table_is_refused():
    # an empty table has no period: integrate would look for its p-free
    # part forever, and a level sum would divide by its length 0
    with pytest.raises(ValueError, match="at least one value"):
        BracketPower(2, 0, ())
