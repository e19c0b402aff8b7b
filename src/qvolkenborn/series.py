"""Truncated formal power series and the generating functions built on them.

Coefficients live in a caller-chosen exact field: plain rationals for the
classical Euler-number series, rational functions in w for the q-deformed
one.  A series of order T stores exactly T+1 coefficients and no operation
ever reads beyond that order, so every computed coefficient is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .algebra import InputError
from .qmeasure import QDescriptor, fermionic_power_moment


def _pairwise_sum(terms: list):
    """sum(terms) of a nonempty list as a balanced tree, so the summands stay small."""
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0]


class TruncatedSeries:
    """Formal power series truncated at the order of its last coefficient."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("need at least one coefficient to fix the field")
        self.order = len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def _check(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """The truncated product, each coefficient a :func:`_pairwise_sum`."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries([_pairwise_sum([a[i] * b[n - i] for i in range(n + 1)])
                                for n in range(self.order + 1)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with invertible constant term."""
    if s.coeffs[0] == 0:
        raise ValueError("series_inverse needs a nonzero constant term")
    lead = 1 / s.coeffs[0]
    out = [lead]
    for n in range(1, s.order + 1):
        acc = None
        for k in range(1, n + 1):
            term = s.coeffs[k] * out[n - k]
            acc = term if acc is None else acc + term
        out.append(-lead * acc)
    return TruncatedSeries(out)


def scaled_coefficient(s: TruncatedSeries, n: int):
    """n! times the n-th coefficient: the number the series generates."""
    return s[n] * Fraction(math.factorial(n))


# ---------------------------------------------------------------------------
# the two generating functions
# ---------------------------------------------------------------------------

def euler_gf(order: int) -> TruncatedSeries:
    """2/(e^t + 1) truncated: n! times its n-th coefficient is the classical
    Euler number E_n.

    >>> gf = euler_gf(3)
    >>> [str(scaled_coefficient(gf, n)) for n in range(4)]
    ['1', '-1/2', '0', '1/4']
    """
    half_shifted = TruncatedSeries(   # (e^t + 1)/2, no coefficient at a negative order
        [Fraction(1, 2 * math.factorial(n)) + Fraction(n == 0, 2) for n in range(order + 1)])
    return series_inverse(half_shifted)


def f_q_series(q: QDescriptor, order: int) -> TruncatedSeries:
    """The q-deformed exponential generating function whose n-th scaled
    coefficient is the fermionic q-Euler number: the product of e^(t/(1-q))
    with the alternating series of the fermionic moments (1+q)/(1+q^(j+1))
    of q^(jy).

    The j-sum is truncated at j = order, which is exact for all retained
    coefficients because the j-th term only feeds orders >= j.
    """
    if q.mode == "padic":
        raise InputError("the generating function is symbolic/rational only")
    one = q.one()
    inv_1mq = one / (one - q.qpow(1))
    exp_part, terms, power = [], [], one
    for j in range(order + 1):
        c = power * Fraction(1, math.factorial(j))   # the t^j coefficient of e^(t/(1-q))
        exp_part.append(c)
        terms.append(fermionic_power_moment(j, q) * (-c if j % 2 else c))
        power = power * inv_1mq
    return TruncatedSeries(exp_part) * TruncatedSeries(terms)


class PartialSum(namedtuple("PartialSum", "value tail_bound")):
    """A truncated alternating series value with its certified tail bound."""

    __slots__ = ()


def f_q_coefficient_partial(k: int, q: Fraction, n_terms: int) -> PartialSum:
    """Partial sum of [2]_q * sum (-1)^n q^n [n]_q^k, the k-th scaled series
    coefficient as an absolutely convergent number series for |q| < 1.

    The sum runs in plain ints over the integer brackets: with q = a/b in
    lowest terms, B_n = [n]_q b^(n-1) is an integer (B_{n+1} = b B_n +
    a^n), so the n-th term is (-a)^n B_n^k / b^(n + k(n-1)).  The exponent
    of b grows by k + 1 per term, so one Horner sum over b^(k+1) collects
    the terms over their common denominator, and one Fraction is made at
    the end.

    The tail is bounded by [2]_q (1/(1-|q|))^k |q|^n_terms / (1-|q|), since
    every |[n]_q| is at most 1/(1-|q|); the bound is reported with the value.
    """
    q = Fraction(q)
    if not 0 < abs(q) < 1:
        raise InputError(f"partial sums need 0 < |q| < 1, got q = {q}")
    if k < 0 or n_terms < 0:
        raise InputError("k and n_terms must be nonnegative")
    a, b = q.numerator, q.denominator
    step = b ** (k + 1)
    total = 0
    bracket = 0   # B_n
    power = 1     # a^n
    for n in range(n_terms):
        term = power * bracket ** k
        total = total * step + (-term if n % 2 else term)
        bracket = b * bracket + power
        power *= a
    # the last term's denominator is b^((k+1)(n_terms-1) - k); where that
    # exponent is negative, the sum is 0
    value = Fraction((a + b) * total, b ** max(0, (k + 1) * (n_terms - 1) - k + 1))
    aq = abs(q)
    tail = abs(1 + q) * (1 / (1 - aq)) ** k * aq ** n_terms / (1 - aq)
    return PartialSum(value, tail)
