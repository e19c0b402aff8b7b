"""The integer rational and p-adic routes against field-arithmetic references.

`_FieldReading` and `_fraction_partial` are the field-arithmetic versions of
the closed-form kernel's primitives and of the alternating partial sums:
every term a Fraction, or a PadicNumber at p-adic q.  The integer routes
must give the same value, and raise ZeroDivisionError exactly where these do;
the p-adic residue pass behind geometric_sum, which claims what its proofs
give, must agree with them on every digit both claim.
"""

import cProfile
import pstats
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qvolkenborn import qmeasure
from qvolkenborn.algebra import PoleError, ZeroAtPrecisionError
from qvolkenborn.padic import ProfiniteDomain, padic_from_rational
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, BracketPower, MeasureSpec, QDescriptor,
                                  ball_measure_sum, binomial_fraction_sum, geometric_sum,
                                  riemann_sum)
from qvolkenborn.qnumbers import _closed
from qvolkenborn.series import f_q_coefficient_partial

F = Fraction


class _FieldReading:
    """The kernel's primitives as field elements, one field division at the end."""

    zero, one = 0, 1

    def __init__(self, q):
        self.q = q

    def element(self, terms):
        q = self.q
        return sum(q.from_rational(c) * q.qpow(e) for e, c in terms.items() if c)

    def binomial(self, s, e):
        return self.element({0: 1, e: s})

    def times(self, x, b, power=1):
        return x * (b if power == 1 else b ** power)

    def add_terms(self, total, num, den):
        return total + self.element(num) * den

    def divide(self, total, den, divisors):
        for b, m in divisors:
            den = den * b ** m
        return total / den


def _field_sum(q, numerators, sign, step, prefactor=(), reduced=None):
    """binomial_fraction_sum's Horner loop over :class:`_FieldReading`.  The
    predicted Phi-map ``reduced`` is not read: a field value is reduced."""
    reading = _FieldReading(q)
    total, den = reading.zero, reading.one
    for k, num in enumerate(numerators):
        d = reading.binomial(sign, step * (k + 1))
        total = reading.add_terms(reading.times(total, d), num, den)
        den = reading.times(den, d)
    divisors = []
    for s, e, power in prefactor:
        if power > 0:
            total = reading.times(total, reading.binomial(s, e), power)
        elif power < 0:
            divisors.append((reading.binomial(s, e), -power))
    return reading.divide(total, den, divisors)


def _fraction_partial(k, q, n_terms):
    """[2]_q sum_{n < n_terms} (-1)^n q^n [n]_q^k, three Fraction operations a term."""
    total, bracket, power = F(0), F(0), F(1)
    for n in range(n_terms):
        term = power * bracket ** k
        total += -term if n % 2 else term
        bracket += power
        power *= q
    return (1 + q) * total


def _outcome(compute):
    try:
        return compute()
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


_QS = st.builds(F, st.integers(-12, 12), st.integers(1, 12)).filter(lambda q: q != 1)
_COEFFS = st.integers(-6, 6)
_NUMERATORS = st.lists(st.dictionaries(st.integers(-4, 30), _COEFFS, max_size=4),
                       min_size=1, max_size=6)
_PREFACTOR = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 8),
                                st.integers(-3, 3)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(q=_QS, numerators=_NUMERATORS, sign=st.sampled_from((1, -1)),
       step=st.integers(1, 4), prefactor=_PREFACTOR)
@example(q=F(0), numerators=[{0: 1}, {-1: 2}], sign=1, step=1, prefactor=[])
@example(q=F(0), numerators=[{3: 1}], sign=-1, step=2, prefactor=[(1, 2, -1)])
@example(q=F(0), numerators=[{0: 3, 2: -1}], sign=1, step=1,
         prefactor=[(-1, 3, 1), (1, 1, -2)])
@example(q=F(-1), numerators=[{0: 1}, {1: -1}], sign=1, step=1, prefactor=[])
@example(q=F(-1), numerators=[{2: 1}], sign=-1, step=2, prefactor=[(1, 1, -1)])
@example(q=F(-1), numerators=[{-3: 5}], sign=-1, step=1, prefactor=[(1, 2, 2)])
# every numerator empty: total stays the int 0
@example(q=F(2, 5), numerators=[{}, {}], sign=1, step=1, prefactor=[(1, 1, -1)])
def test_kernel_matches_the_field_route(q, numerators, sign, step, prefactor):
    qd = QDescriptor.rational(q)
    want = _outcome(lambda: _field_sum(qd, numerators, sign, step, prefactor))
    got = _outcome(lambda: binomial_fraction_sum(qd, numerators, sign, step, prefactor))
    assert got == want
    assert type(got) is type(want)


@st.composite
def _padic_qs(draw):
    """(p, q, A): q = 1 + p^e u with u a p-adic unit, e in {1, 2} and A > e."""
    p = draw(st.sampled_from((3, 5, 7)))
    e = draw(st.integers(1, 2))
    u = F(draw(st.integers(-20, 20).filter(lambda n: n % p)),
          draw(st.integers(1, 12).filter(lambda n: n % p)))
    return p, 1 + p ** e * u, draw(st.integers(e + 1, 40))


def _builder_inputs(kind, n, x, weights, level):
    """The kernel inputs of geometric_sum, read from its call at rational q
    (they do not depend on q)."""
    got = []
    with unittest.mock.patch.object(qmeasure, "binomial_fraction_sum",
                                    lambda *args: got.append(args[1:])):
        geometric_sum(QDescriptor.rational(2), kind, n, x, weights, level)
    return got[0]


_WEIGHTS = st.lists(st.sampled_from((0, 1, -1)), min_size=1, max_size=9).map(tuple)


@settings(max_examples=200, deadline=None)
@given(q=_padic_qs(), kind=st.sampled_from((BOSONIC, FERMIONIC)), n=st.integers(0, 8),
       x=st.integers(-3, 3), weights=_WEIGHTS, level=st.none() | st.integers(1, 60))
# beta_10 at padic:3:10:4: the chain's binomial 1 - q^9 is zero at precision
@example(q=(3, F(10), 4), kind=BOSONIC, n=10, x=0, weights=(1,), level=None)
# a normalizer 1 - q^243 that is zero at A = 6: both divide by zero
@example(q=(3, F(4), 6), kind=BOSONIC, n=2, x=0, weights=(1,), level=243)
# a bosonic limit over a table of length p, and an even fermionic level
@example(q=(7, F(8), 12), kind=BOSONIC, n=5, x=1, weights=(1, 0, -1, 1, 1, 0, -1), level=None)
@example(q=(5, F(6), 9), kind=FERMIONIC, n=3, x=-2, weights=(1, -1), level=10)
def test_padic_kernel_matches_the_field_route(q, kind, n, x, weights, level):
    # the residue pass behind geometric_sum agrees with the field chain over
    # the builder's kernel inputs on every digit both claim, and divides by
    # zero only where the chain does.  It claims no fewer digits than the
    # chain, but for a bosonic limit over a table whose length p divides
    # (or that vanishes), where it claims its proven bound
    p, q, precision = q
    assume(level is not None or kind == BOSONIC or len(weights) % 2)
    qd = QDescriptor.padic(padic_from_rational(q, p, precision))
    want = _outcome(lambda: _field_sum(qd, *_builder_inputs(kind, n, x, weights, level)))
    got = _outcome(lambda: geometric_sum(qd, kind, n, x, weights, level))
    if got is ZeroAtPrecisionError or want is ZeroAtPrecisionError:
        assert want is ZeroAtPrecisionError
        return
    digits = min(got.absolute_precision, want.absolute_precision)
    assert got.agrees_with(want, digits)
    if level is not None or kind == FERMIONIC or (len(weights) % p and any(weights)):
        assert digits == want.absolute_precision


@settings(max_examples=200, deadline=None)
@given(q=_padic_qs(), kind=st.sampled_from((BOSONIC, FERMIONIC)), d=st.sampled_from((1, 3, 5)),
       level=st.integers(0, 6), reps=st.lists(st.integers(0, 10 ** 6), max_size=14))
# a bosonic normalizer 1 - q^81 that is zero at A = 5, and no representative
@example(q=(3, F(4), 5), kind=BOSONIC, d=1, level=4, reps=[1, 2])
@example(q=(5, F(6), 7), kind=FERMIONIC, d=3, level=2, reps=[])
# a representative twice: coefficients 2, and a sum that vanishes mod p
@example(q=(5, F(6), 7), kind=BOSONIC, d=1, level=1, reps=[1, 1, 2, 3, 4])
def test_padic_ball_sums_match_the_field_route(q, kind, d, level, reps):
    # ball_measure_sum at p-adic q is the field chain over its kernel inputs,
    # the same (p, v, unit, prec), or both raise ZeroAtPrecisionError
    p, q, precision = q
    assume(d % p and (kind == BOSONIC or d % 2))
    qd = QDescriptor.padic(padic_from_rational(q, p, precision))
    size = d * p ** level
    reps = [a % size for a in reps]
    fermionic = kind == FERMIONIC
    coeffs = {}
    for a in reps:
        coeffs[a] = coeffs.get(a, 0) + (-1 if fermionic and a % 2 else 1)
    sign = 1 if fermionic else -1
    want = _outcome(lambda: _field_sum(qd, [coeffs], sign, size, [(sign, 1, 1)]))
    got = _outcome(lambda: ball_measure_sum(MeasureSpec(kind, qd, ProfiniteDomain(p, d)),
                                            reps, level))
    if want is ZeroAtPrecisionError or got is ZeroAtPrecisionError:
        assert got is want
    else:
        assert (got.v, got.unit, got.prec) == (want.v, want.unit, want.prec)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 8), n_terms=st.integers(0, 300),
       q=st.builds(F, st.integers(-12, 12).filter(bool), st.integers(1, 12))
       .filter(lambda q: abs(q) != 1))
@example(k=0, n_terms=1, q=F(1, 2))
@example(k=3, n_terms=1, q=F(-1, 2))
@example(k=8, n_terms=0, q=F(2, 3))
def test_partial_sums_match_the_fraction_route(k, n_terms, q):
    if abs(q) >= 1:
        q = 1 / q
    assert f_q_coefficient_partial(k, q, n_terms).value == _fraction_partial(k, q, n_terms)


@pytest.mark.parametrize("numerators, step, prefactor, at_two", [
    ([{-1: 1}], 1, [(1, 1, 1)], F(1, 2)),
    ([{2: 1}], 1, [(1, 2, -1)], F(4, 15)),
    ([{1: 1}, {3: 1}], 1, [], F(34, 15)),
    ([{0: 3}, {-2: 2}, {}], 2, [(-1, 3, 2), (1, 1, -2), (-1, 2, 1)], F(-5243, 510))],
    ids=["prefactor-power-1", "prefactor-power-minus-1", "loop", "mixed"])
@pytest.mark.parametrize("r", [F(2), F(6), F(-3, 7)])
def test_the_three_readings_agree_at_positive_binomial_exponents(numerators, step, prefactor,
                                                                 at_two, r):
    # sums with a binomial 1 + s q^(-j), written as s q^(-j) (1 + s q^j):
    # the symbolic value at w = r is the rational reading's, the 5-adic
    # field chain at q = r agrees with it to the digits it claims (q = 2 is
    # no admissible p-adic q), and at q = 2 each is the value of the
    # negative-exponent form, worked by hand
    def at(qd):
        return binomial_fraction_sum(qd, numerators, 1, step, prefactor)

    want = at(QDescriptor.rational(r))
    assert at(QDescriptor.symbolic()).evaluate(r) == want
    if r == 2:
        assert want == at_two
        return
    padic = _field_sum(QDescriptor.padic(padic_from_rational(r, 5, 12)), numerators, 1, step,
                       prefactor)
    assert padic.absolute_precision >= 9 and padic.agrees_with(want, padic.absolute_precision)


@pytest.mark.parametrize("numerators, sign, step, prefactor", [
    ([{0: 1}], 1, 1, []), ([{0: 1}, {2: 3}], 1, 2, [(1, 3, -1)]),
    ([{1: 2}], -1, 1, [(1, 1, 1), (-1, 2, -2)])],
    ids=["loop", "prefactor", "prefactor-squared"])
def test_a_divisor_vanishing_at_minus_one_raises_at_rational_and_symbolic_q(numerators, sign,
                                                                            step, prefactor):
    # at q = -1 the divisor 1 + q^j (j odd) or 1 - q^j (j even) is 0: the
    # rational reading raises, and the symbolic value has a pole at w = -1
    # (q = -1 is no admissible p-adic q; a p-adic divisor that is zero at
    # precision is an example of test_padic_kernel_matches_the_field_route)
    def at(qd):
        return binomial_fraction_sum(qd, numerators, sign, step, prefactor)

    with pytest.raises(ZeroDivisionError):
        at(QDescriptor.rational(-1))
    with pytest.raises(PoleError, match="pole at w = -1"):
        at(QDescriptor.symbolic()).evaluate(-1)


@pytest.mark.parametrize("e", [F(1, 2), F(-7, 3)])
def test_fractional_exponent_raises_as_qpow_does(e):
    # the builders convert a shift to a power of w once, as qpow does, so a
    # fractional one raises qpow's error at rational and p-adic q, a limit,
    # a level sum and a Riemann sum alike
    for qd in (QDescriptor.rational(F(2, 5)), QDescriptor.padic(padic_from_rational(6, 5, 10))):
        with pytest.raises(ValueError) as from_qpow:
            qd.qpow(e)
        spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
        for compute in (lambda: geometric_sum(qd, FERMIONIC, 2, e, (1,)),
                        lambda: geometric_sum(qd, BOSONIC, 1, e, (1, -1), 10),
                        lambda: riemann_sum(spec, BracketPower(3, e), 2)):
            with pytest.raises(ValueError) as from_builder:
                compute()
            assert type(from_builder.value) is type(from_qpow.value)
            assert str(from_builder.value) == str(from_qpow.value)


@pytest.mark.parametrize("qd", [QDescriptor.symbolic(), QDescriptor.rational(F(2, 5)),
                                QDescriptor.padic(padic_from_rational(6, 5, 10))],
                         ids=["symbolic", "rational", "padic"])
@pytest.mark.parametrize("numerators, step, prefactor", [
    ([{0: 1}, {1: F(1, 3)}], 1, []), ([{0: 1}], 0, []), ([{0: 1}], -1, []),
    ([{0: 1}], 1, [(1, 0, -1)]), ([{0: 1}], 1, [(1, -1, 2)]), ([], 1, []),
    ([{0: 1}, {F(1, 2): 1}], 1, []), ([{0: 1}], F(3, 2), []), ([{0: 1}], 1, [(1, F(2), 1)])],
    ids=["fraction-coefficient", "step-0", "step-minus-1", "prefactor-exponent-0",
         "prefactor-exponent-minus-1", "no-numerator", "fraction-exponent", "fraction-step",
         "fraction-prefactor-exponent"])
def test_the_kernel_refuses_inputs_outside_its_contract(qd, numerators, step, prefactor):
    # int coefficients, int exponents (powers of w) and binomial exponents
    # > 0, as its two callers pass, a Fraction equal to an int included;
    # p-adic q, where they run the residue pass, is refused first
    match = ("symbolic and rational q only" if qd.mode == "padic" else
             "int coefficients and exponents, binomial exponents > 0")
    with pytest.raises(ValueError, match=match):
        binomial_fraction_sum(qd, numerators, 1, step, prefactor)


def _constructions(compute, module="fractions.py",
                   names=("__new__", "_from_coprime_ints")) -> int:
    # a cold call: a value the closed-form caches hold would make none
    _closed.cache_clear()
    profiler = cProfile.Profile()
    profiler.runcall(compute)
    return sum(calls for (path, _, name), (_, calls, *_) in
               pstats.Stats(profiler).stats.items()
               if path.endswith(module) and name in names)


_SCALED = [{i - 4: i} for i in range(21)]


@pytest.mark.parametrize("q", [F(2, 5), F(-3, 7), F(7, 2)])
@pytest.mark.parametrize("call", [
    lambda qd: geometric_sum(qd, FERMIONIC, 20, 0, (1,)),
    lambda qd: geometric_sum(qd, FERMIONIC, 12, -2, (1,) * 5),
    lambda qd: binomial_fraction_sum(qd, _SCALED, -1, 1, [(-1, 1, -20)]),
], ids=["K_20", "distribution", "negative_exponents"])
def test_a_kernel_call_makes_one_fraction(call, q):
    qd = QDescriptor.rational(q)
    assert _constructions(lambda: call(qd)) == 1


def test_partial_sums_make_no_fraction_per_term():
    # Fractions come from reading q, the value and the tail bound alone
    counts = {n_terms: _constructions(
        lambda: f_q_coefficient_partial(4, F(-2, 3), n_terms)) for n_terms in (10, 300)}
    assert counts[10] == counts[300]


def _unit_inverses(compute) -> int:
    # primitive calls: Newton doubling recurses once per halving
    _closed.cache_clear()
    profiler = cProfile.Profile()
    profiler.runcall(compute)
    return sum(stat[0] for (path, _, name), stat in pstats.Stats(profiler).stats.items()
               if path.endswith("padic.py") and name == "_unit_inverse")


@pytest.mark.parametrize("q, call", [
    (padic_from_rational(6, 5, 32), lambda n, qd: geometric_sum(qd, FERMIONIC, n, 0, (1,))),
    (padic_from_rational(4, 3, 128), lambda n, qd: geometric_sum(qd, BOSONIC, n, 0, (1,))),
    (padic_from_rational(6, 5, 32), lambda n, qd: geometric_sum(qd, BOSONIC, n, 1, (1, -1, 0),
                                                                5 ** n)),
    (padic_from_rational(6, 5, 32), lambda n, qd: ball_measure_sum(
        MeasureSpec(BOSONIC, qd, ProfiniteDomain(5, 3)), range(0, 3 * 5 ** 3, n), 3)),
], ids=["K", "beta", "level", "balls"])
def test_a_padic_kernel_call_makes_a_fixed_number_of_padic_numbers(q, call):
    # one PadicNumber a call, from one integer pass with one unit inverse:
    # no field division
    qd = QDescriptor.padic(q)
    for n in (5, 20):
        assert _constructions(lambda: call(n, qd), "padic.py",
                              ("__init__", "_normalised", "zero_at_precision",
                               "padic_from_rational")) == 1
        assert _constructions(lambda: call(n, qd), "padic.py", ("__truediv__",)) == 0
        assert _unit_inverses(lambda: call(n, qd)) == 1
