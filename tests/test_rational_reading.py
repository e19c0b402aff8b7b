"""The integer rational and p-adic readings against field-arithmetic references.

`_FieldReading` and `_fraction_partial` are the field-arithmetic versions of
the closed-form kernel's primitives and of the alternating partial sums:
every term a Fraction, or a PadicNumber at p-adic q.  The integer routes
must give the same value, and raise ZeroDivisionError exactly where these do.
"""

import cProfile
import math
import pstats
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvolkenborn.padic import padic_from_rational
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, QDescriptor, binomial_fraction_sum,
                                  geometric_sum)
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
        return self.element({0: 1 + s} if e == 0 else {0: 1, e: s})

    def times(self, x, b, power=1):
        return x * (b if power == 1 else b ** power)

    def add_terms(self, total, num, den):
        return total + self.element(num) * den

    def divide(self, total, den, divisors):
        for b, m in divisors:
            den = den * b ** m
        return total / den


def _field_sum(q, numerators, sign, step, prefactor=()):
    """binomial_fraction_sum's Horner loop over :class:`_FieldReading`."""
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
_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_NUMERATORS = st.lists(st.dictionaries(st.integers(-4, 30), _COEFFS, max_size=4),
                       min_size=1, max_size=6)
_PREFACTOR = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-3, 8),
                                st.integers(-3, 3)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(q=_QS, numerators=_NUMERATORS, sign=st.sampled_from((1, -1)),
       step=st.integers(1, 4), prefactor=_PREFACTOR)
@example(q=F(0), numerators=[{0: F(1)}, {-1: F(2)}], sign=1, step=1, prefactor=[])
@example(q=F(0), numerators=[{3: F(1)}], sign=-1, step=2, prefactor=[(1, -2, -1)])
@example(q=F(0), numerators=[{0: F(1), 2: F(-1, 3)}], sign=1, step=1,
         prefactor=[(-1, 3, 1), (1, 1, -2)])
@example(q=F(-1), numerators=[{0: F(1)}, {1: F(-1)}], sign=1, step=1, prefactor=[])
@example(q=F(-1), numerators=[{2: F(1)}], sign=-1, step=2, prefactor=[(1, 1, -1)])
@example(q=F(-1), numerators=[{-3: F(5, 2)}], sign=-1, step=1, prefactor=[(1, 2, 2)])
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


_BOSONIC_10 = [{0: F((-1) ** i * math.comb(10, i) * (i + 1))} for i in range(11)]


@settings(max_examples=150, deadline=None)
@given(q=_padic_qs(), numerators=_NUMERATORS, sign=st.sampled_from((1, -1)),
       step=st.integers(1, 4), prefactor=_PREFACTOR)
# an empty numerator: the int 0 times den is zero at precision v + a of den
@example(q=(5, F(6), 6), numerators=[{0: F(1)}, {}, {2: F(1, 3)}], sign=1, step=1,
         prefactor=[])
# the prefactor binomial 1 - q^0 is the int 0
@example(q=(5, F(6), 6), numerators=[{1: F(2)}], sign=-1, step=1,
         prefactor=[(-1, 0, 2), (1, 1, -1)])
# beta_10 at padic:3:10:4: the binomial 1 - q^9 is zero at precision
@example(q=(3, F(10), 4), numerators=_BOSONIC_10, sign=-1, step=1, prefactor=[(-1, 1, -9)])
# coefficients with p in the denominator, and a fractional exponent
@example(q=(5, F(13, 3), 8), numerators=[{0: F(2, 25)}, {3: F(-1, 5)}], sign=-1, step=2,
         prefactor=[(1, 1, -1)])
@example(q=(7, F(8), 5), numerators=[{F(1, 2): F(1)}], sign=1, step=1, prefactor=[])
def test_padic_kernel_matches_the_field_route(q, numerators, sign, step, prefactor):
    p, q, precision = q
    qd = QDescriptor.padic(padic_from_rational(q, p, precision))
    want = _outcome(lambda: _field_sum(qd, numerators, sign, step, prefactor))
    got = _outcome(lambda: binomial_fraction_sum(qd, numerators, sign, step, prefactor))
    assert got == want
    assert type(got) is type(want)


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


@pytest.mark.parametrize("prefactor", [[(-1, 0, 1)], [(1, 0, 1)], [(1, 0, 2), (1, 1, -1)],
                                       [(-1, 0, 1), (1, 1, -1)]])
def test_the_three_readings_agree_at_exponent_zero(prefactor):
    # the binomial 1 + s q^0 is the constant 1 + s in every reading of q
    numerators = [{0: F(1)}, {2: F(1, 3)}]
    want = binomial_fraction_sum(QDescriptor.rational(6), numerators, 1, 1, prefactor)
    symbolic = binomial_fraction_sum(QDescriptor.symbolic(), numerators, 1, 1, prefactor)
    assert symbolic.evaluate(6) == want
    padic = binomial_fraction_sum(QDescriptor.padic(padic_from_rational(6, 5, 10)),
                                  numerators, 1, 1, prefactor)
    assert padic.agrees_with(want, 9)


@pytest.mark.parametrize("numerators, step, prefactor, at_two", [
    ([{0: F(1)}], 1, [(1, -1, 1)], F(1, 2)),
    ([{0: F(1)}], 1, [(1, -2, -1)], F(4, 15)),
    ([{0: F(1)}, {1: F(1)}], -1, [], F(34, 15)),
    ([{0: F(1)}, {-2: F(2, 3)}, {}], -2, [(-1, -3, 2), (1, -1, -2), (-1, 2, 1)], None)])
def test_the_three_readings_agree_at_negative_exponents(numerators, step, prefactor, at_two):
    # 1 + s q^e for e < 0, as a loop binomial (step < 0) or a prefactor of
    # either power; the symbolic values at q = 2 are the rational reading's
    def at(qd):
        return binomial_fraction_sum(qd, numerators, 1, step, prefactor)

    symbolic = at(QDescriptor.symbolic())
    if at_two is not None:
        assert symbolic.evaluate(2) == at(QDescriptor.rational(2)) == at_two
    want = at(QDescriptor.rational(6))
    assert symbolic.evaluate(6) == want
    assert at(QDescriptor.padic(padic_from_rational(6, 5, 12))).agrees_with(want, 10)


@pytest.mark.parametrize("sign, step, prefactor", [
    (1, 1, [(1, 0, -1)]), (1, 1, [(-1, 0, -1)]), (-1, 1, [(1, 0, -2), (1, 1, -1)]),
    (1, 1, [(1, 0, 1), (1, 0, -3)]), (1, 0, []), (-1, 0, []), (1, 0, [(1, 1, -1)]),
    (1, 0, [(1, 0, -1), (-1, 0, 1)])])
@pytest.mark.parametrize("r", [F(1, 2), F(6), F(-3, 7)])
def test_the_three_readings_agree_at_a_zero_exponent_divisor(sign, step, prefactor, r):
    # 1 + q^0 = 2 divides and 1 - q^0 = 0 raises in every reading, as a
    # prefactor divisor or as the binomial of step 0; the symbolic reading
    # is taken at w = r
    numerators = [{0: F(1)}, {2: F(1, 3)}, {1: F(-2)}]

    def at(qd):
        return _outcome(lambda: binomial_fraction_sum(qd, numerators, sign, step, prefactor))

    want, symbolic = at(QDescriptor.rational(r)), at(QDescriptor.symbolic())
    if want is ZeroDivisionError:
        assert symbolic is ZeroDivisionError
    else:
        assert symbolic.evaluate(r) == want
    if r == 6:
        padic = at(QDescriptor.padic(padic_from_rational(6, 5, 10)))
        if want is ZeroDivisionError:
            assert padic is ZeroDivisionError
        else:
            assert padic.absolute_precision >= 6 and padic.agrees_with(want, padic.absolute_precision)


def test_a_zero_exponent_divisor_halves_the_symbolic_value():
    qd = QDescriptor.symbolic()
    half = binomial_fraction_sum(qd, [{0: 1}], 1, 1, [(1, 0, -1)])
    assert half.evaluate(F(1, 2)) == F(1, 3)
    with pytest.raises(ZeroDivisionError):
        binomial_fraction_sum(qd, [{0: 1}], 1, 1, [(-1, 0, -1)])


@pytest.mark.parametrize("e", [F(1, 2), F(-7, 3)])
def test_fractional_exponent_raises_as_qpow_does(e):
    qd = QDescriptor.rational(F(2, 5))
    with pytest.raises(ValueError) as from_qpow:
        qd.qpow(e)
    with pytest.raises(ValueError) as from_kernel:
        binomial_fraction_sum(qd, [{0: 1}, {e: 3}], 1, 1)
    assert str(from_kernel.value) == str(from_qpow.value)


def _constructions(compute, module="fractions.py",
                   names=("__new__", "_from_coprime_ints")) -> int:
    # a cold call: a value the closed-form caches hold would make none
    _closed.cache_clear()
    profiler = cProfile.Profile()
    profiler.runcall(compute)
    return sum(calls for (path, _, name), (_, calls, *_) in
               pstats.Stats(profiler).stats.items()
               if path.endswith(module) and name in names)


_SCALED = [{i - 4: F(i, 7)} for i in range(21)]


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


@pytest.mark.parametrize("q, call", [
    (padic_from_rational(6, 5, 32), lambda n, qd: geometric_sum(qd, FERMIONIC, n, 0, (1,))),
    (padic_from_rational(4, 3, 128), lambda n, qd: geometric_sum(qd, BOSONIC, n, 0, (1,))),
], ids=["K", "beta"])
def test_a_padic_kernel_call_makes_a_fixed_number_of_padic_numbers(q, call):
    qd = QDescriptor.padic(q)
    counts = {n: _constructions(lambda: call(n, qd), "padic.py",
                                ("__init__", "_normalised", "zero_at_precision",
                                 "from_rational"))
              for n in (5, 20)}
    assert counts[5] == counts[20]
