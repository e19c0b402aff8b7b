"""Kim's translation equations of the q-Volkenborn integral, in every reading.

The equations tie the number and polynomial families to one another with
ring operations and brackets only, so they check the closed forms without
a second closed form.  With [x + 1] = 1 + q[x] and n <= 8:

- fermionic: q sum_k C(n,k) q^k K_k + K_n = [2]_q delta_{n,0}, and
  q K_n(x+1) + K_n(x) = [2]_q [x]^n;
- bosonic (Carlitz): q sum_k C(n,k) q^k beta_k - beta_n = (q - 1)
  delta_{n,0} + delta_{n,1}, and q beta_n(x+1) - beta_n(x) = (q - 1)[x]^n
  + n q^x [x]^(n-1).

At p-adic q both sides are compared on the digits both claim.

References: T. Kim, "q-Volkenborn integration", Russ. J. Math. Phys. 9
(2002); L. Carlitz, "q-Bernoulli numbers and polynomials", Duke Math. J. 15
(1948).
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qvolkenborn.padic import PadicNumber, padic_from_rational
from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import beta_number, beta_polynomial, k_number, k_polynomial

F = Fraction

PADIC = QDescriptor.padic(padic_from_rational(6, 5, 32))

EXACT = (QDescriptor.symbolic(), QDescriptor.rational(F(2, 5)), QDescriptor.rational(F(-3, 7)))
QS = EXACT + (QDescriptor.symbolic(3), PADIC)
# (q, x): x in {0, 2, -1} at the exact readings, x = 1/3 at root order 3,
# and integer x at padic:5:6:32
READINGS = ([(q, x) for q in EXACT for x in (0, 2, -1)] + [(QS[3], F(1, 3))]
            + [(PADIC, x) for x in (0, 2, -1, 3, -3)])


def assert_same(lhs, rhs):
    """Exact equality, or agreement on the digits both p-adic sides claim."""
    if isinstance(lhs, PadicNumber):
        digits = min(lhs.absolute_precision, rhs.absolute_precision)
        assert digits > 0 and lhs.agrees_with(rhs, digits)
    else:
        assert lhs == rhs


def shifted_sum(q, number, n):
    """q sum_k C(n,k) q^k number(k)."""
    total = q.one() * 0
    for k in range(n + 1):
        total = total + q.from_rational(math.comb(n, k)) * q.qpow(k) * number(k, q)
    return q.qpow(1) * total


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(QS), n=st.integers(0, 8))
def test_fermionic_number_recurrence(q, n):
    two = q.one() + q.qpow(1)
    assert_same(shifted_sum(q, k_number, n) + k_number(n, q), two if n == 0 else two * 0)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from(QS), n=st.integers(0, 8))
def test_carlitz_bosonic_number_recurrence(q, n):
    one = q.one()
    rhs = (q.qpow(1) - one) * (n == 0) + one * (n == 1)
    assert_same(shifted_sum(q, beta_number, n) - beta_number(n, q), rhs)


@settings(max_examples=200, deadline=None)
@given(reading=st.sampled_from(READINGS), n=st.integers(0, 8))
def test_fermionic_polynomial_translation(reading, n):
    q, x = reading
    lhs = q.qpow(1) * k_polynomial(n, x + 1, q) + k_polynomial(n, x, q)
    assert_same(lhs, (q.one() + q.qpow(1)) * q.bracket(x) ** n)


@settings(max_examples=200, deadline=None)
@given(reading=st.sampled_from(READINGS), n=st.integers(0, 8))
def test_bosonic_polynomial_translation(reading, n):
    q, x = reading
    bracket = q.bracket(x)
    rhs = (q.qpow(1) - q.one()) * bracket ** n
    if n:
        rhs = rhs + q.from_rational(n) * q.qpow(x) * bracket ** (n - 1)
    assert_same(q.qpow(1) * beta_polynomial(n, x + 1, q) - beta_polynomial(n, x, q), rhs)
