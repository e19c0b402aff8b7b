"""Exact univariate polynomial and rational-function arithmetic over Q.

The rational-function field used throughout the package is generated by an
indeterminate ``w`` together with a declared *root order* ``D``: the symbol
``w`` stands for a D-th root of the deformation parameter ``q``, so that
``q == w**D``.  Carrying ``D`` on every element keeps fractional powers of
``q`` (``q**(a/D)``) inside a plain univariate field: they are just integer
powers of ``w``.

Every denominator the package builds is w^a times a product of cyclotomic
polynomials Phi_d, since the closed forms divide by binomials 1 +- w^j, so
the elements live in the ring of fractions with such denominators.  A
:class:`RationalFunction` stores its denominator in that factored form, and
sums, products, powers, substitutions and reciprocals act on the factorization;
cancelling is a screen of the numerator against the Phi_d that can divide
it, so no polynomial gcd is needed.  The Phi-maps {d: e} of the
factorization are stored as sorted (d, e) pairs and merged as plain dicts:
the max of the powers for an lcm, their sum for a product, the difference
for a lift or a cancellation.  Every value is canonical: numerator and
denominator are coprime and the denominator is monic, which makes equality
a structural comparison.  All values are immutable and every
operation is a pure function, so elements can be shared freely across
threads or parallel reductions.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from operator import add, sub


class QvolkError(Exception):
    """An input the engine refuses: an argument outside the hypotheses its
    values exist under.  The CLI prints one as a single ``error:`` line and
    exits 2; any other exception is a bug."""


class InputError(QvolkError, ValueError):
    """An argument the computation does not admit: a prime, a q, a
    conductor, an index range, a level or a precision target."""


class ZeroAtPrecisionError(QvolkError, ZeroDivisionError):
    """Division by a p-adic value that is zero at its precision."""


class PoleError(QvolkError, ArithmeticError):
    """Evaluation at a point where the (reduced) denominator vanishes."""


class RootOrderMismatch(QvolkError, ValueError):
    """Operands at two root orders, or q^(a/b) at a root order that b does not divide."""


class NonCyclotomicDenominator(QvolkError, ValueError):
    """A denominator that is not c w^a prod Phi_d^e (Phi_d cyclotomic): the
    fraction lies outside the ring that :class:`RationalFunction` holds."""

    def __init__(self, den: Polynomial):
        super().__init__(f"denominator {den.render('w')} is not c w^a prod Phi_d^e "
                         "(cyclotomic Phi_d)")


# ---------------------------------------------------------------------------
# integer-coefficient kernels
# ---------------------------------------------------------------------------

_KRONECKER_CUTOFF = 40


def _mul_int_schoolbook(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    nz_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz_b:
                out[i + j] += x * y
    return out


def _unpack(x: int, width: int, count: int) -> list[int]:
    """The count digits c_i of x = sum c_i X^i, X = 256^width, |c_i| < X/2:
    X/2 is added to each, so that one ``to_bytes`` reads them all."""
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    digits = (x + offset).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(digits[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists (dense, ascending degree).

    Large products are routed through Kronecker substitution: each factor
    becomes one signed big integer in base X = 256^w, the two are multiplied
    natively, and :func:`_unpack` reads back every |c| <= max|a| max|b| min(len).
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < _KRONECKER_CUTOFF:
        return _mul_int_schoolbook(a, b)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1

    def packed(xs: list[int]) -> int:
        pos = b"".join(max(x, 0).to_bytes(width, "little") for x in xs)
        neg = b"".join(max(-x, 0).to_bytes(width, "little") for x in xs)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    return _unpack(packed(a) * packed(b), width, len(a) + len(b) - 1)


def _times_binomial(a: list[int], s: int, j: int) -> list[int]:
    """a * (1 + s w^j) for s = +-1 and j >= 1: one shift-add."""
    out = a + [0] * j
    out[j:] = map(add if s > 0 else sub, out[j:], a)
    return out


def _strided_sums(a: list[int], j: int) -> list[int]:
    """a / (1 - w^j) to len(a) terms, q_i = a_i + q_(i-j): one ``accumulate``
    per residue class mod j when j^2 < len(a), else one block-wise
    ``map(add)`` per j entries."""
    n = len(a)
    if j * j < n:
        quo = [0] * n
        for r in range(j):
            quo[r::j] = accumulate(a[r::j])
    else:
        quo = a[:j]
        for i in range(j, n, j):
            quo += map(add, a[i:i + j], quo[i - j:i])
    return quo


def _binomial_quotient(a: list[int], j: int) -> list[int] | None:
    """a / (1 - w^j) for a nonzero a and j >= 1, or None when the binomial
    does not divide a: the division by :func:`_strided_sums` is exact
    exactly when the top j entries of its running sum are 0."""
    n = len(a)
    if n <= j:
        return None
    quo = _strided_sums(a, j)
    if any(quo[n - j:]):
        return None
    del quo[n - j:]
    return quo


def _int_value(xs: Sequence[int], x: int) -> int:
    """Value of the integer polynomial xs (ascending degree) at the integer
    x: Horner up to 32 coefficients, else the value of the low half plus x^h
    times that of the high half, so the big products stay balanced."""
    if len(xs) <= 32:
        value = 0
        for c in reversed(xs):
            value = value * x + c
        return value
    h = len(xs) // 2
    return _int_value(xs[:h], x) + _int_value(xs[h:], x) * x ** h


def _content(xs: Iterable[int]) -> int:
    g = 0
    for x in xs:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    The coefficients are integers over one common denominator: ``ints``
    holds them by ascending degree and ``scale > 0`` divides them all, in
    lowest terms (no trailing zero, content of ``ints`` coprime to
    ``scale``), so equal polynomials have equal fields.  The zero
    polynomial is ``ints == ()`` and has degree -1.  ``coeffs`` reads the
    same coefficients as fractions.

    >>> p = Polynomial([Fraction(1, 2), 0, Fraction(-3, 4)])
    >>> p.ints, p.scale
    ((2, 0, -3), 4)
    >>> p.coeffs
    (Fraction(1, 2), Fraction(0, 1), Fraction(-3, 4))
    >>> (p * 4).ints, (p * 4).scale
    ((2, 0, -3), 1)
    """

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs: Sequence[numbers.Rational] = ()):
        for c in coeffs:
            if type(c) not in (int, Fraction) and not isinstance(c, numbers.Rational):
                raise TypeError(f"polynomial coefficients must be rational, "
                                f"got {type(c).__name__}")
        scale = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        self.ints, self.scale = _lowest_terms(ints, scale)

    @classmethod
    def _make(cls, ints: list[int] | tuple[int, ...], scale: int) -> Polynomial:
        """ints/scale brought to lowest terms (scale > 0)."""
        return cls._reduced(*_lowest_terms(ints, scale))

    @classmethod
    def _reduced(cls, ints: tuple[int, ...], scale: int) -> Polynomial:
        """ints/scale already in lowest terms, stored as given."""
        p = object.__new__(cls)
        p.ints, p.scale = ints, scale
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.ints == other.ints and self.scale == other.scale
        return NotImplemented

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b, scale = self.ints, other.ints, self.scale
        if scale != other.scale:
            g = math.gcd(scale, other.scale)
            a = [x * (other.scale // g) for x in a]
            b = [y * (scale // g) for y in b]
            scale = scale // g * other.scale
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return Polynomial._make(out, scale)

    def __neg__(self) -> Polynomial:
        return Polynomial._reduced(tuple(-c for c in self.ints), self.scale)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, Polynomial):
            return Polynomial._make(_mul_int(self.ints, other.ints), self.scale * other.scale)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Polynomial._make([c * n for c in self.ints], self.scale * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = Polynomial((1,)), self
        while n:
            if n & 1:
                result = result * base
            base, n = base * base if n > 1 else base, n >> 1
        return result

    def evaluate(self, point: Fraction | int) -> Fraction:
        """Value at point = a/b, by an integer Horner loop in (a, b)."""
        a, b = point.numerator, point.denominator
        acc, bpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * a + c * bpow
            bpow *= b
        return Fraction(acc * b, bpow * self.scale)

    def substitute_power(self, k: int) -> Polynomial:
        """Substitute w -> w**k (k >= 1)."""
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1 or self.is_zero:
            return self
        out = [0] * (self.degree * k + 1)
        out[::k] = self.ints
        return Polynomial._reduced(tuple(out), self.scale)

    def __repr__(self) -> str:
        return f"Polynomial({self.render('w')})"

    def render(self, var: str) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.ints):
            if not c:
                continue
            term = _fraction_string(c, self.scale)
            if i:
                mag = "" if abs(c) == self.scale else term.lstrip("-") + "*"
                term = f"{'-' if c < 0 else ''}{mag}{var if i == 1 else f'{var}^{i}'}"
            if parts:
                term = f"- {term[1:]}" if c < 0 else f"+ {term}"
            parts.append(term)
        return " ".join(parts)


def _fraction_string(c: int, scale: int) -> str:
    """str(Fraction(c, scale)) for scale > 0, with one gcd."""
    g = math.gcd(c, scale)
    return str(c // g) if g == scale else f"{c // g}/{scale // g}"


def _lowest_terms(ints: list[int] | tuple[int, ...], scale: int) -> tuple[tuple[int, ...], int]:
    """(ints, scale) with trailing zeros dropped and the common factor of
    the coefficients and the scale (scale > 0) divided out."""
    n = len(ints)
    while n and ints[n - 1] == 0:
        n -= 1
    if not n:
        return (), 1
    if scale != 1:
        g = math.gcd(scale, *ints[:n])
        if g != 1:
            return tuple(c // g for c in ints[:n]), scale // g
    return tuple(ints[:n]), scale


# ---------------------------------------------------------------------------
# denominators w^a prod Phi_d^e, stored as a and the Phi-map {d: e}
#
# A Phi_d cancels against a numerator after a screen on one integer value
# (the numerator's value at 2^20 divided by Phi_d(2^20) as often as it
# goes), in one pass per Mobius binomial 1 - w^b of the screened product:
# shift-adds to multiply by a binomial, strided running sums to divide.
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    """The primes of n >= 1, with multiplicity, in ascending order."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


_EVAL_POINT = 1 << 20


@functools.lru_cache(maxsize=None)
def _mobius_binomials(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divisors e of order with mu(order/e) = +1 and those with -1:
    Phi_order = prod_e (1 - w^e)^mu(order/e) for order > 1, and Phi_1 =
    -(1 - w)."""
    if order < 1:
        raise ValueError("order must be positive")
    primes = set(_prime_factors(order))
    plus, minus = [], []
    for e in _divisors(order):
        m = order // e
        if all(m % (p * p) for p in primes):
            (minus if sum(m % p == 0 for p in primes) % 2 else plus).append(e)
    return tuple(plus), tuple(minus)


def _net_binomials(powers: dict[int, int]) -> dict[int, int]:
    """The n_b of prod Phi_d^e over powers {d: e} = (-1)^e_1 prod (1 - w^b)^n_b."""
    net: dict[int, int] = {}
    for d, e in powers.items():
        plus, minus = _mobius_binomials(d)
        for b in plus:
            net[b] = net.get(b, 0) + e
        for b in minus:
            net[b] = net.get(b, 0) - e
    return net


def _cyclotomic_ratio(a: list[int], powers: dict[int, int]) -> list[int] | None:
    """a * prod Phi_d^e over powers {d: e}, exponents of either sign, for a
    nonzero a; None when the negative powers do not divide a.  Shift-adds by
    the binomials of :func:`_net_binomials` with n_b > 0, then strided
    running sums by the rest: every intermediate quotient is a polynomial
    when the result is one, and otherwise one of the divisions fails.  The
    divisions go by descending b: each division by 1 - w^b shortens the list
    by b, so the passes at small b, the most numerous ones (32 at b = 1 when
    K_40 is reduced), run on the shortest list."""
    net = _net_binomials(powers)
    for b, m in net.items():
        for _ in range(m):
            a = _times_binomial(a, -1, b)
    for b in sorted(net, reverse=True):
        for _ in range(-net[b]):
            a = _binomial_quotient(a, b)
            if a is None:
                return None
    return [-c for c in a] if powers.get(1, 0) & 1 else a


def _cyclotomic_product(powers: dict[int, int]) -> list[int]:
    """prod Phi_d^e over powers {d: e}, every e >= 0: the power series of its
    Mobius binomials (:func:`_net_binomials`) to its low h = r//2 + 1 terms,
    r = sum b n_b the degree, then mirrored, c_(r-i) = (-1)^e_1 c_i, as Phi_d
    is palindromic for d > 1 and Phi_1 = w - 1 antipalindromic."""
    net = _net_binomials(powers)
    r = sum(b * n for b, n in net.items())
    h, sign = r // 2 + 1, -1 if powers.get(1, 0) & 1 else 1
    c = [sign] + [0] * (h - 1)
    for b, n in net.items():
        if b < h:
            for _ in range(n):
                c[b:] = map(sub, c[b:], c[:-b])
            for _ in range(-n):
                c = _strided_sums(c, b)
    return c + [sign * x for x in reversed(c[:r + 1 - h])]


@functools.lru_cache(maxsize=None)
def _cyclotomic_int(order: int) -> tuple[tuple[int, ...], int]:
    """(integer coefficients, value at the screening point) of a cyclotomic,
    built by :func:`_cyclotomic_product`."""
    coeffs = _cyclotomic_product({order: 1})
    return tuple(coeffs), _int_value(coeffs, _EVAL_POINT)


def cyclotomic_polynomial(order: int) -> Polynomial:
    """The cyclotomic polynomial whose roots are the primitive order-th
    roots of unity, read from the integer table :func:`_cyclotomic_int`."""
    return Polynomial(_cyclotomic_int(order)[0])


# phi of the product of these primes is about 4.4 * 10^18, past any degree
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _order_bound(r: int) -> int:
    """B with phi(d) > r for every d > B: B = r R_k, R_k = prod p/(p - 1)
    over the first k primes and k the least with phi(P_(k+1)) > r, P_j the
    product of the first j primes.  A d with j primes has phi(d) >= d/R_j
    >= phi(P_j), so phi(d) > r for d > B when j <= k, and always when j > k.
    r R_k is kept as the integer fraction P_k r / phi(P_k).
    """
    bound, phi = r, 1
    for p in _SMALL_PRIMES:
        if phi * (p - 1) > r:
            return bound // phi
        bound, phi = bound * p, phi * (p - 1)
    raise ValueError(f"degree {r} is past the order bound's prime table")


def _cyclotomic_factors(ints: Sequence[int]) -> tuple[int, int, dict[int, int]] | None:
    """(c, a, {d: e}) with the nonzero integer polynomial ints = c w^a prod
    Phi_d^e, or None when it has no such form.

    p = ints / (c w^a) must be integral with p(0) = +-1.  p(0) p is read as
    the power series prod_b (1 - w^b)^n_b, up to the order bound B at r =
    deg p: n_b is minus the coefficient of w^b once the binomials below b
    are divided out.  By Mobius inversion e_d = sum of n_b over the
    multiples b of d.  When every e_d >= 0 and the degree sum b n_b is r,
    the product equals p, as both have degree r and agree to degree B.  A
    product has every |n_b| <= r, which ends the search early otherwise.
    """
    a, c = next(i for i, x in enumerate(ints) if x), ints[-1]
    if any(x % c for x in ints[a:]):
        return None
    p = [x // c for x in ints[a:]]
    r, sign = len(p) - 1, p[0]
    if sign not in (1, -1):
        return None
    top = _order_bound(r)
    series, net = [x * sign for x in p] + [0] * (top - r), {}
    for b in range(1, top + 1):
        n = -series[b]
        if not n:
            continue
        if abs(n) > r:
            return None
        for _ in range(n):
            series = _strided_sums(series, b)
        for _ in range(-n):
            series[b:] = map(sub, series[b:], series[:-b])
        net[b] = n
    powers: dict[int, int] = {}
    for b, n in net.items():
        for d in _divisors(b):
            powers[d] = powers.get(d, 0) + n
    if sum(b * n for b, n in net.items()) != r or min(powers.values(), default=0) < 0:
        return None
    return c, a, {d: e for d, e in powers.items() if e}


def _phi_map(powers: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((d, e) for d, e in powers.items() if e))


@functools.lru_cache(maxsize=256)
def _phi_product(phis: tuple[tuple[int, int], ...]) -> Polynomial:
    """prod Phi_d^e over a Phi-map: a denominator without its power of w,
    built by :func:`_cyclotomic_product` once per map while the map is among
    the 256 last used."""
    return Polynomial._make(_cyclotomic_product(dict(phis)), 1)


def _cancel_cyclotomics(prim: list[int], den_map: dict[int, int],
                        one_by_one: bool) -> tuple[list[int] | None, dict[int, int]]:
    """(prim / prod Phi_d^k_d, {d: k_d}) with k_d <= den_map[d] read off the
    value of prim at the screening point, Phi_d by ascending d.

    Grouped (one_by_one False), the screen only bounds each k_d and one
    :func:`_cyclotomic_ratio` divides by the whole product, giving None when
    the screen passed a non-divisor; each k_d is read off the one residue
    value mod Phi_d^e_d, and the value divided once by Phi_d^k_d.  One by
    one, each screened Phi_d is divided out on its own and a failed
    division ends that d.
    """
    value, powers = _int_value(prim, _EVAL_POINT), {}
    for d in sorted(den_map):
        phi_value, e, k = _cyclotomic_int(d)[1], den_map[d], 0
        if one_by_one:
            while k < e and value % phi_value == 0:
                quo = _cyclotomic_ratio(prim, {d: -1})
                if quo is None:
                    break
                prim, value, k = quo, value // phi_value, k + 1
        else:
            residue = value % phi_value ** e
            while k < e and residue % phi_value == 0:
                residue //= phi_value
                k += 1
            value //= phi_value ** k
        powers[d] = k
    if one_by_one:
        return prim, powers
    return _cyclotomic_ratio(prim, {d: -k for d, k in powers.items() if k}), powers


def _cancel(num: Polynomial, w_exp: int, phis: dict[int, int], screen: dict[int, int],
            w_screen: int, reduced: dict[int, int] | None = None
            ) -> tuple[Polynomial, int, tuple[tuple[int, int], ...]]:
    """(num, w_exp, Phi-map) of num / (w^w_exp prod Phi_d^e over phis) with
    w cancelled up to w^w_screen and each Phi_d of screen up to its power
    there: the numerator is made primitive, its low zeros cancel w, and one
    grouped :func:`_cancel_cyclotomics` cancels the Phi_d, or, unscreened,
    those of screen less a predicted Phi-map ``reduced``.  A Phi_d left in
    the screen was ruled out on a value that the quotient's value divides.
    When the grouped division fails (a screen's non-divisor, or a wrong
    prediction), the cancellation is redone one Phi_d at a time.
    """
    if num.is_zero:
        return num, 0, ()
    if screen or w_screen:
        content = _content(num.ints)
        prim = [x // content for x in num.ints]
        low, powers = 0, {}
        while low < w_screen and prim[low] == 0:
            low += 1
        prim, w_exp = prim[low:], w_exp - low
        if screen:
            if reduced is None:
                quo, powers = _cancel_cyclotomics(prim, screen, False)
            else:
                powers = {d: max(e - reduced.get(d, 0), 0) for d, e in screen.items()}
                quo = _cyclotomic_ratio(prim, {d: -k for d, k in powers.items() if k})
            if quo is None:
                quo, powers = _cancel_cyclotomics(prim, screen, True)
            prim = quo
            phis = {d: e - powers.get(d, 0) for d, e in phis.items()}
        if low or any(powers.values()):
            # a primitive polynomial over w^low or a monic Phi_d stays
            # primitive, so the numerator stays in lowest terms
            num = Polynomial._reduced(tuple(x * content for x in prim), num.scale)
    return num, w_exp, _phi_map(phis)


def reduce_cyclotomic_fraction(num: Polynomial, phis: dict[int, int], root_order: int = 1,
                               w_power: int = 0, reduced: dict | None = None) -> RationalFunction:
    """The reduced fraction num / (w^w_power prod Phi_d^e) over the Phi-map
    phis = {d: e}, w and every Phi_d screened (:func:`_cancel`), or given
    the Phi-map ``reduced`` that a theorem predicts, one exact division by
    phis less reduced, with no screen: ArithmeticError unless it leaves
    reduced (a map that keeps a Phi_d which cancels goes unseen).

    >>> print(reduce_cyclotomic_fraction(Polynomial((1, 1)), {1: 1, 2: 1}, reduced={1: 1}))
    (1)/(-1 + q)
    >>> reduce_cyclotomic_fraction(Polynomial((1, 1)), {1: 1, 2: 1}, reduced={2: 1})
    Traceback (most recent call last):
    ArithmeticError: the predicted Phi-map {2: 1} leaves a product that does not divide the sum
    """
    if any(d < 1 or e < 0 for d, e in phis.items()):
        raise ValueError(f"a Phi-map needs orders d >= 1 and powers e >= 0, got {phis}")
    num, w_exp, got = _cancel(num, w_power, phis, phis, w_power, reduced)
    if reduced is not None and got != _phi_map(reduced):
        raise ArithmeticError(f"the predicted Phi-map {reduced} leaves a product "
                              f"that does not divide the sum")
    return RationalFunction._make(num, w_exp, got, root_order)


# ---------------------------------------------------------------------------
# rational functions in w with w**D = q
# ---------------------------------------------------------------------------

def _fraction_strings(p: Polynomial) -> list[str]:
    if p.scale == 1:
        return list(map(str, p.ints))
    return [_fraction_string(c, p.scale) for c in p.ints]


class RationalFunction:
    """Reduced fraction num/den in ``w`` with ``w**root_order == q``.

    den = w^w_exp prod Phi_d^e is stored as w_exp and the Phi-map ``phis``,
    the pairs (d, e > 0) by ascending d; the ``den`` polynomial is built
    when read, once per map while a bounded cache holds it.  Canonical
    form: neither w nor a Phi_d of the map divides num.  A sum takes the
    lcm of the maps and screens only the Phi_d with equal powers on both
    sides, a product adds them, a power scales them, and :meth:`substitute`
    maps Phi_d to Phi_d(w^p) one prime p at a time; operands at two root
    orders raise :class:`RootOrderMismatch`.  A denominator, or a
    reciprocal's numerator, that is not c w^a prod Phi_d^e raises
    :class:`NonCyclotomicDenominator`.

    >>> f = RationalFunction(Polynomial([1]), Polynomial([1, 0, -1]))
    >>> f.phis
    ((1, 1), (2, 1))
    >>> print(f)
    (-1)/(-1 + q^2)
    """

    __slots__ = ("num", "w_exp", "phis", "root_order")

    def __init__(self, num: Polynomial, den: Polynomial, root_order: int = 1):
        if root_order < 1:
            raise ValueError("root order must be >= 1")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        factored = _cyclotomic_factors(den.ints) if num.ints else (1, 0, {})
        if factored is None:
            raise NonCyclotomicDenominator(den)
        c, a, phis = factored
        self.num, self.w_exp, self.phis = _cancel(num * Fraction(den.scale, c), a, phis, phis, a)
        self.root_order = root_order

    @classmethod
    def _make(cls, num: Polynomial, w_exp: int, phis: tuple[tuple[int, int], ...],
              root_order: int) -> RationalFunction:
        f = object.__new__(cls)
        f.num, f.w_exp, f.phis, f.root_order = num, w_exp, phis, root_order
        return f

    @classmethod
    def constant(cls, c: Fraction | int, root_order: int = 1) -> RationalFunction:
        return cls._make(Polynomial((c,)), 0, (), root_order)

    @classmethod
    def w_power(cls, k: int, root_order: int = 1) -> RationalFunction:
        """w**k as an element (negative k gives 1/w**(-k))."""
        if k >= 0:
            return cls._make(Polynomial._reduced((0,) * k + (1,), 1), 0, (), root_order)
        return cls._make(Polynomial((1,)), -k, (), root_order)

    @property
    def den(self) -> Polynomial:
        den = _phi_product(self.phis)
        return Polynomial._make((0,) * self.w_exp + den.ints, 1) if self.w_exp else den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- root-order handling ------------------------------------------------

    def substitute(self, k: int) -> RationalFunction:
        """f(w**k) at the same root order, so q -> q**k (k >= 1).  Phi_d(w^p)
        is Phi_pd when the prime p divides d and Phi_pd Phi_d otherwise.
        Coprimality survives the substitution, so no re-reduction is needed.

        >>> print(RationalFunction(Polynomial([1]), Polynomial([1, 1])).substitute(3))
        (1)/(1 + q^3)
        """
        num = self.num.substitute_power(k)   # ValueError for k < 1
        if k == 1:
            return self
        phis = dict(self.phis)
        for p in _prime_factors(k):
            rebased: dict[int, int] = {}
            for d, e in phis.items():
                rebased[p * d] = rebased.get(p * d, 0) + e
                if d % p:
                    rebased[d] = rebased.get(d, 0) + e
            phis = rebased
        return RationalFunction._make(num, self.w_exp * k, _phi_map(phis), self.root_order)

    def _coerce(self, other) -> tuple[RationalFunction, RationalFunction] | None:
        if not isinstance(other, RationalFunction):
            if not isinstance(other, (int, Fraction)):
                return None
            other = RationalFunction.constant(other, self.root_order)
        if self.root_order != other.root_order:
            raise RootOrderMismatch(
                f"root orders {self.root_order} and {other.root_order} differ")
        return self, other

    # -- field operations ---------------------------------------------------

    def _num_over(self, w_exp: int, phis: dict[int, int]) -> Polynomial:
        """The numerator over the multiple w^w_exp prod Phi_d^e of den."""
        own = dict(self.phis)
        lift = {d: e - own.get(d, 0) for d, e in phis.items() if e != own.get(d, 0)}
        if not lift and w_exp == self.w_exp:
            return self.num
        ints = _cyclotomic_ratio(list(self.num.ints), lift)
        return Polynomial._make([0] * (w_exp - self.w_exp) + ints, self.num.scale)

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        pb = dict(b.phis)
        lcm, w_exp = dict(a.phis), max(a.w_exp, b.w_exp)
        for d, e in b.phis:
            if e > lcm.get(d, 0):
                lcm[d] = e
        num = a._num_over(w_exp, lcm) + b._num_over(w_exp, lcm)
        screen = {d: e for d, e in a.phis if pb.get(d) == e}
        return RationalFunction._make(
            *_cancel(num, w_exp, lcm, screen, w_exp if a.w_exp == b.w_exp else 0),
            a.root_order)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction._make(-self.num, self.w_exp, self.phis, self.root_order)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero or b.is_zero:
            return RationalFunction.constant(0, a.root_order)
        # a Phi_d of one side can only divide the other's numerator, if that is not c w^k
        pa, pb = dict(a.phis), dict(b.phis)
        screen = {d: e for d, e in a.phis if d not in pb} if any(b.num.ints[:-1]) else {}
        if any(a.num.ints[:-1]):
            screen.update((d, e) for d, e in b.phis if d not in pa)
        for d, e in b.phis:
            pa[d] = pa.get(d, 0) + e
        w_exp = a.w_exp + b.w_exp
        w_screen = 0 if a.w_exp and b.w_exp else w_exp
        return RationalFunction._make(*_cancel(a.num * b.num, w_exp, pa, screen, w_screen),
                                      a.root_order)

    __rmul__ = __mul__

    def reciprocal(self) -> RationalFunction:
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        factored = _cyclotomic_factors(self.num.ints)
        if factored is None:
            raise NonCyclotomicDenominator(self.num)
        c, a, phis = factored
        return RationalFunction._make(self.den * Fraction(self.num.scale, c), a,
                                      _phi_map(phis), self.root_order)

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.reciprocal()

    def __pow__(self, n: int) -> RationalFunction:
        if n in (0, 1):
            return self if n else RationalFunction.constant(1, self.root_order)
        base, n = (self, n) if n > 0 else (self.reciprocal(), -n)
        # powers of a reduced fraction stay reduced
        return RationalFunction._make(base.num ** n, base.w_exp * n,
                                      tuple((d, e * n) for d, e in base.phis), self.root_order)

    def __eq__(self, other) -> bool:
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.w_exp == b.w_exp and a.phis == b.phis

    __hash__ = None  # canonical form depends on root order; not hashable

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Fraction | int) -> Fraction:
        """Value at w = point.  Raises PoleError when the denominator
        vanishes there; the reduced form guarantees that is a genuine pole."""
        if not isinstance(point, (int, Fraction)):
            raise TypeError(f"evaluation point must be rational, got {type(point).__name__}")
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleError(f"pole at w = {point}")
        return self.num.evaluate(point) / dval

    def limit_at_one(self) -> Fraction:
        """The q -> 1 limit: evaluation at w = 1.  Removable singularities
        were cancelled during reduction, so a vanishing denominator here is a
        genuine pole."""
        try:
            return self.evaluate(1)
        except PoleError:
            raise PoleError("genuine pole at w = 1; the q -> 1 limit does not exist") from None

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"D": self.root_order, "num": _fraction_strings(self.num),
                "den": _fraction_strings(self.den)}

    @classmethod
    def from_json(cls, data: dict) -> RationalFunction:
        num = Polynomial([Fraction(s) for s in data["num"]])
        den = Polynomial([Fraction(s) for s in data["den"]])
        return cls(num, den, int(data["D"]))

    def __repr__(self) -> str:
        return f"RationalFunction({self}, D={self.root_order})"

    def __str__(self) -> str:
        var = "q" if self.root_order == 1 else "w"
        num = self.num.render(var)
        if not (self.w_exp or self.phis):
            return num
        return f"({num})/({self.den.render(var)})"


# ---------------------------------------------------------------------------
# cyclotomic extension elements
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def root_of_unity_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Row k < order holds the phi(order) integer coefficients of x^k mod
    the order-th cyclotomic polynomial: zeta^k in the basis 1, zeta, ...,
    zeta^(phi - 1) for a primitive order-th root of unity zeta.

    Each row is the previous one times x, with the overflowing top
    coefficient folded back through the monic integer table
    :func:`_cyclotomic_int`.
    """
    phi = _cyclotomic_int(order)[0]
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(order):
        rows.append(tuple(row))
        top, row = row[-1], [0] + row[:-1]
        row = [r - top * c for r, c in zip(row, phi)]
    return tuple(rows)


class CyclotomicElement(namedtuple("CyclotomicElement", "order coeffs")):
    """An element sum_i c_i zeta^i of the cyclotomic extension, zeta a
    primitive L-th root of unity, given by its RationalFunction coordinates
    c_i in the basis 1, zeta, ..., zeta^(phi(L) - 1).

    It holds the Dirichlet-character values of order > 2 and the twisted
    numbers built from their integer rows; it compares, prints and
    serialises them, and does no field arithmetic.  It is an immutable named
    tuple of the order and the coordinates, without trailing zeros.
    """

    __slots__ = ()

    def __new__(cls, order: int, coeffs: Sequence[RationalFunction | Fraction | int]):
        if order < 1:
            raise ValueError("root-of-unity order must be >= 1")
        phi_deg = len(_cyclotomic_int(order)[0]) - 1
        if len(coeffs) > phi_deg:
            raise ValueError(f"an element of the order-{order} cyclotomic extension has "
                             f"at most {phi_deg} coordinates, got {len(coeffs)}")
        cs = [c if isinstance(c, RationalFunction) else RationalFunction.constant(c)
              for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        return super().__new__(cls, order, tuple(cs))

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CyclotomicElement:
        return cls(order, root_of_unity_rows(order)[power % order])

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"L": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> CyclotomicElement:
        return cls(int(data["L"]), [RationalFunction.from_json(c) for c in data["coeffs"]])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CyclotomicElement(0)"
        return f"CyclotomicElement(L={self.order}, {self})"

    def __str__(self) -> str:
        """The exact expression (c_0) + (c_1)*z + ... over the nonzero
        coordinates, z = zeta_L; "0" for zero.

        >>> str(CyclotomicElement(6, [Fraction(1, 2), 1]))
        '(1/2) + (1)*z'
        """
        return " + ".join(f"({c})" + ("" if i == 0 else "*z" if i == 1 else f"*z^{i}")
                          for i, c in enumerate(self.coeffs) if not c.is_zero) or "0"
