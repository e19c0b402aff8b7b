"""Truncated p-adic arithmetic and precision-tracking tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qvolkenborn.algebra import ZeroAtPrecisionError
from qvolkenborn.padic import (PadicNumber, ProfiniteDomain, _int_valuation, _unit_inverse,
                               ball_representatives, padic_from_rational)
from qvolkenborn.qmeasure import QDescriptor

F = Fraction


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_int_valuation_of_zero_raises():
    # 0 is divisible by every power of p, so the loop would never end
    for p in (3, 5, 7):
        with pytest.raises(ValueError, match="0 has no p-adic valuation"):
            _int_valuation(0, p)
    assert [_int_valuation(n, 3) for n in (1, -2, 9, -54, 3 ** 40)] == [0, 0, 2, 3, 40]


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 101]), k=st.integers(1, 200),
       x=st.integers(-10 ** 400, 10 ** 400))
@example(p=3, k=1, x=2)
@example(p=5, k=2, x=-1)
@example(p=5, k=128, x=5 ** 128 - 1)
@example(p=7, k=200, x=-(7 ** 250) - 3)
def test_unit_inverse_is_the_modular_inverse(p, k, x):
    # Newton doubling from the inverse mod p: every k, even or odd, and
    # units given as negative ints or past p**k
    if x % p == 0:
        x += 1
    assert _unit_inverse(x, p, k) == pow(x, -1, p ** k)


def test_from_rational_unit():
    x = padic_from_rational(6, 5, 4)
    assert (x.v, x.unit, x.prec) == (0, 6, 4)


def test_from_rational_extracts_valuation():
    x = padic_from_rational(50, 5, 4)
    assert (x.v, x.unit) == (2, 2)


def test_from_rational_negative_valuation():
    x = padic_from_rational(F(1, 5), 5, 4)
    assert (x.v, x.unit) == (-1, 1)


def test_from_rational_zero_is_zero_at_precision():
    x = padic_from_rational(0, 5, 8)
    assert x.is_zero_at_precision
    assert x.valuation >= 8


def test_repr_shows_the_power_of_p_of_a_nonunit():
    assert repr(padic_from_rational(10, 5, 4)) == "2*5^1 + O(5^5)"


def test_rejects_even_or_composite_prime():
    with pytest.raises(ValueError):
        padic_from_rational(1, 2, 4)
    with pytest.raises(ValueError):
        padic_from_rational(1, 9, 4)


# ---------------------------------------------------------------------------
# arithmetic and precision contract
# ---------------------------------------------------------------------------

def test_addition_with_carry_consumes_precision():
    a = PadicNumber(5, 0, 2, 4)
    b = PadicNumber(5, 0, 3, 4)
    s = a + b
    assert (s.v, s.unit) == (1, 1)
    assert s.absolute_precision == 4   # still known mod 5^4
    assert s.prec == 3                 # one significant digit consumed


def test_multiplication_adds_valuations():
    a = PadicNumber(5, 1, 1, 6)
    b = PadicNumber(5, 2, 3, 6)
    c = a * b
    assert (c.v, c.unit) == (3, 3)
    assert c.prec == 6


def test_division_by_self_is_one():
    x = padic_from_rational(F(44, 7), 5, 10)
    one = x / x
    assert (one.v, one.unit) == (0, 1)
    assert one.prec == 10


def test_division_by_zero_at_precision():
    z = padic_from_rational(0, 5, 6)
    x = padic_from_rational(2, 5, 6)
    with pytest.raises(ZeroDivisionError):
        x / z


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError):
        padic_from_rational(1, 5, 4) + padic_from_rational(1, 7, 4)


def test_pow_matches_repeated_multiplication():
    x = padic_from_rational(F(6, 7), 5, 12)
    assert x ** 3 == x * x * x
    assert (x ** -2) * x * x == x ** 0


def test_from_rational_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(60):
        r = F(rng.randrange(-30, 31), rng.randrange(1, 20))
        s = F(rng.randrange(-30, 31), rng.randrange(1, 20))
        fr, fs = padic_from_rational(r, 7, 12), padic_from_rational(s, 7, 12)
        total = padic_from_rational(r + s, 7, 12)
        prod = padic_from_rational(r * s, 7, 12)
        assert (fr + fs).agrees_with(total, min((fr + fs).absolute_precision,
                                                total.absolute_precision))
        assert (fr * fs).agrees_with(prod, min((fr * fs).absolute_precision,
                                               prod.absolute_precision))


def test_ring_laws_modulo_guaranteed_precision():
    rng = random.Random(3)
    for _ in range(60):
        vals = [padic_from_rational(F(rng.randrange(-50, 51) or 1,
                                      rng.randrange(1, 30)), 5, 10)
                for _ in range(3)]
        a, b, c = vals
        lhs, rhs = (a + b) + c, a + (b + c)
        digits = min(lhs.absolute_precision, rhs.absolute_precision)
        assert lhs.agrees_with(rhs, digits)
        lhs, rhs = a * (b + c), a * b + a * c
        digits = min(lhs.absolute_precision, rhs.absolute_precision)
        assert lhs.agrees_with(rhs, digits)


def test_valuation_ultrametric():
    rng = random.Random(17)
    for _ in range(200):
        a = padic_from_rational(F(rng.randrange(1, 2000), rng.randrange(1, 50)), 3, 20)
        b = padic_from_rational(F(rng.randrange(1, 2000), rng.randrange(1, 50)), 3, 20)
        s = a + b
        assert s.valuation >= min(a.valuation, b.valuation)
        if a.valuation != b.valuation:
            assert s.valuation == min(a.valuation, b.valuation)


def test_precision_soundness_across_working_precision():
    # the same pipeline at higher precision agrees modulo the lower guarantee
    def pipeline(prec):
        q, one = padic_from_rational(6, 5, prec), padic_from_rational(1, 5, prec)
        return (one - q ** 7) / (one - q) + q ** -2

    low, high = pipeline(8), pipeline(20)
    assert low.agrees_with(high, low.absolute_precision)


def _valuation(r, p):
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


_PRIMES = st.sampled_from([3, 5, 7])
# a / b times a power of 3, 5 or 7, so the valuations are often nonzero
_padic_rationals = st.builds(lambda a, b, k: F(a, b) * k,
                             st.integers(-500, 500), st.integers(1, 500),
                             st.sampled_from([1, F(1, 3), 3, 25, F(1, 125), F(1, 49), 21]))


@settings(max_examples=300, deadline=None)
@given(p=_PRIMES, r=_padic_rationals, s=_padic_rationals, pr=st.integers(1, 12),
       ps=st.integers(1, 12), n=st.integers(-4, 5))
@example(p=5, r=F(1, 7), s=F(3, 11), pr=6, ps=6, n=2)
def test_arithmetic_claims_only_the_digits_it_proves(p, r, s, pr, ps, n):
    # each result agrees with the exact rational result to its claimed
    # absolute precision, claims no digit beyond what its operands justify,
    # and is normalised (0 < unit < p^prec, p not dividing the unit)
    x, y = padic_from_rational(r, p, pr), padic_from_rational(s, p, ps)
    results = [(x + y, r + s, min(x.absolute_precision, y.absolute_precision)),
               (x - y, r - s, min(x.absolute_precision, y.absolute_precision)),
               (x * y, r * s, min(x.absolute_precision + y.v, y.absolute_precision + x.v))]
    if s:
        results.append((x / y, r / s, min(x.absolute_precision, x.v + y.prec) - y.v))
    if r or n >= 0:
        results.append((x ** n, r ** n, n * x.v + x.prec if n else None))
    for z, exact, justified in results:
        assert z.p == p
        if z.is_zero_at_precision:
            assert (z.unit, z.prec) == (0, 0)
            assert exact == 0 or _valuation(exact, p) >= z.v
        else:
            assert 0 < z.unit < p ** z.prec and z.unit % p
            assert z == padic_from_rational(exact, p, z.prec)
        assert justified is None or z.absolute_precision <= justified


def _zero(p, bound):
    return (p, bound, 0, 0)


def _truncated(x, m):
    """x + O(p^m): x known modulo p**min(a_x, m)."""
    m = min(x.absolute_precision, m)
    if x.is_zero_at_precision or x.v >= m:
        return _zero(x.p, m)
    return (x.p, x.v, x.unit % x.p ** (m - x.v), m - x.v)


def _zero_rule(op, x, y):
    """The result of x op y, one of them zero-at-precision, by the rules
    written for zero alone: a ZeroAtPrecisionError for a zero divisor."""
    if op == "+":
        return _truncated(y, x.v) if x.is_zero_at_precision else _truncated(x, y.v)
    if op == "-":
        return _zero_rule("+", x, PadicNumber(y.p, y.v, -y.unit, y.prec))
    if op == "*":
        return _zero(x.p, x.v + y.v)
    if y.is_zero_at_precision:
        return ZeroAtPrecisionError
    return _zero(x.p, x.v - y.v)


def _lift(x, other):
    """x as the PadicNumber it meets other as: an exact 0 is zero at other's
    absolute precision, any other exact scalar has more digits than needed."""
    if isinstance(x, PadicNumber):
        return x
    if x == 0:
        return PadicNumber.zero_at_precision(other.p, other.absolute_precision)
    return padic_from_rational(x, other.p, 100)


def _outcome(compute):
    try:
        z = compute()
    except ZeroAtPrecisionError:
        return ZeroAtPrecisionError
    return (z.p, z.v, z.unit, z.prec)


_operands = st.one_of(
    st.builds(lambda b: ("zero", b), st.integers(-6, 14)),
    st.builds(lambda r, prec: ("padic", r, prec),
              _padic_rationals.filter(bool), st.integers(1, 12)),
    st.builds(lambda r: ("exact", r), st.sampled_from([0, 0, 1, -3, 25, F(2, 5), F(-7, 25)])))


def _operand(p, drawn):
    if drawn[0] == "zero":
        return PadicNumber.zero_at_precision(p, drawn[1])
    if drawn[0] == "padic":
        return padic_from_rational(drawn[1], p, drawn[2])
    return drawn[1]


@settings(max_examples=500, deadline=None)
@given(p=_PRIMES, a=_operands, b=_operands, n=st.integers(-3, 5).filter(bool))
@example(p=5, a=("zero", 4), b=("padic", F(7, 3), 6), n=2)
@example(p=5, a=("exact", 0), b=("padic", F(50, 3), 6), n=-1)
@example(p=3, a=("padic", F(1, 9), 4), b=("zero", -2), n=3)
@example(p=5, a=("exact", 0), b=("padic", F(5), 6), n=1)
def test_zero_at_precision_follows_its_own_rules(p, a, b, n):
    # every operator meets a zero-at-precision operand, or an exact 0, by
    # the zero rules alone: x + O(p^b) is x truncated to min(a_x, b),
    # O(p^a) y is O(p^(a + v_y)), O(p^a) / y is O(p^(a - v_y)), O(p^a)^n is
    # O(p^(n a)), -O(p^a) is O(p^a), and an exact 0 meets y as O(p^(a_y));
    # an exact scalar left of - or / is refused, as no reflected - or / exists
    x, y = _operand(p, a), _operand(p, b)
    padic = [t for t in (x, y) if isinstance(t, PadicNumber)]
    assume(padic)
    lx, ly = _lift(x, padic[0]), _lift(y, padic[0])
    if lx.is_zero_at_precision or ly.is_zero_at_precision:
        for op, compute in (("+", lambda: x + y), ("-", lambda: x - y),
                            ("*", lambda: x * y), ("/", lambda: x / y)):
            if op in "-/" and not isinstance(x, PadicNumber):
                with pytest.raises(TypeError):
                    compute()
            else:
                assert _outcome(compute) == _zero_rule(op, lx, ly), op
    for z in padic:
        if z.is_zero_at_precision:
            assert _outcome(lambda: -z) == _zero(p, z.v)
            assert _outcome(lambda: z ** n) == (_zero(p, n * z.v) if n > 0
                                                else ZeroAtPrecisionError)


def test_a_zeroth_power_is_the_exact_one():
    # x**0 is 1 lifted like any exact scalar meeting x, so a
    # zero-at-precision base gives 1 to as many digits as its bound
    q = QDescriptor.padic(padic_from_rational(6, 5, 32))
    zero = q.bracket(0)
    assert zero.is_zero_at_precision and zero.v == 31
    assert zero ** 0 == padic_from_rational(1, 5, 31)
    assert padic_from_rational(5, 5, 31) ** 0 == padic_from_rational(1, 5, 32)
    assert padic_from_rational(F(1, 5), 5, 31) ** 0 == padic_from_rational(1, 5, 31)


def test_agreement_claims_beyond_precision_are_rejected():
    from qvolkenborn.padic import PrecisionExhausted

    a = padic_from_rational(6, 5, 4)
    with pytest.raises(PrecisionExhausted):
        a.agrees_with(6, 10)   # the difference is zero only to 4 digits
    assert a.agrees_with(6, 4)


# ---------------------------------------------------------------------------
# profinite domains
# ---------------------------------------------------------------------------

def test_ball_representatives_small():
    assert list(ball_representatives(ProfiniteDomain(3), 1)) == [0, 1, 2]
    assert list(ball_representatives(ProfiniteDomain(3, 2), 1)) == list(range(6))
    assert len(ball_representatives(ProfiniteDomain(5), 2)) == 25


def test_domain_requires_coprime_d():
    with pytest.raises(ValueError):
        ProfiniteDomain(3, 6)


def test_json_round_trip():
    x = padic_from_rational(F(50, 7), 5, 9)
    back = PadicNumber.from_json(x.to_json())
    assert back == x
    z = padic_from_rational(0, 5, 9)
    assert PadicNumber.from_json(z.to_json()).is_zero_at_precision
