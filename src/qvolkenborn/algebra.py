"""Exact univariate polynomial and rational-function arithmetic over Q.

The rational-function field used throughout the package is generated by an
indeterminate ``w`` together with a declared *root order* ``D``: the symbol
``w`` stands for a D-th root of the deformation parameter ``q``, so that
``q == w**D``.  Carrying ``D`` on every element keeps fractional powers of
``q`` (``q**(a/D)``) inside a plain univariate field: they are just integer
powers of ``w``.

Every value is canonical: numerator and denominator are coprime and the
denominator is monic, which makes equality a structural comparison.  All
values are immutable and every operation is a pure function, so elements can
be shared freely across threads or parallel reductions.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Sequence


class PoleError(ArithmeticError):
    """Evaluation at a point where the (reduced) denominator vanishes."""


class RootOrderMismatch(ValueError):
    """Incompatible root orders that cannot be reconciled by rebasing."""


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


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists (dense, ascending degree).

    Large products are routed through Kronecker substitution: each factor
    becomes one signed big integer in base X = 256^w, the two are multiplied
    natively, and the product's digits are read back.  Every product
    coefficient c satisfies |c| <= max|a| max|b| min(len) < 2^(8w-1), so
    adding 2^(8w-1) to each digit makes them all fit in [0, X) and one
    ``to_bytes`` reads them out.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < _KRONECKER_CUTOFF:
        return _mul_int_schoolbook(a, b)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    count = len(a) + len(b) - 1

    def packed(xs: list[int]) -> int:
        pos = b"".join(max(x, 0).to_bytes(width, "little") for x in xs)
        neg = b"".join(max(-x, 0).to_bytes(width, "little") for x in xs)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    digits = (packed(a) * packed(b) + offset).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(digits[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _times_binomial(a: list[int], s: int, j: int) -> list[int]:
    """a * (1 + s w^j) for s = +-1 and j >= 1: one shift-add."""
    out = a + [0] * j
    out[j:] = map(add if s > 0 else sub, out[j:], a)
    return out


def _binomial_quotient(a: list[int], j: int) -> list[int] | None:
    """a / (1 - w^j) for a nonzero a and j >= 1, or None when the binomial
    does not divide a.

    The quotient q satisfies q_i = a_i + q_(i-j): a running sum of a along
    each residue class mod j.  The division is exact exactly when the top j
    entries of that running sum are 0.
    """
    n = len(a)
    if n <= j:
        return None
    quo = [0] * n
    for r in range(j):
        quo[r::j] = accumulate(a[r::j])
    if any(quo[n - j:]):
        return None
    del quo[n - j:]
    return quo


def _content(xs: Iterable[int]) -> int:
    g = 0
    for x in xs:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _primitive(xs: list[int]) -> list[int]:
    while xs and xs[-1] == 0:
        xs.pop()
    if not xs:
        return xs
    g = _content(xs)
    if xs[-1] < 0:
        g = -g
    if g != 1:
        xs = [x // g for x in xs]
    return xs


def _gcd_heu_step(a: list[int], b: list[int], xi: int) -> list[int] | None:
    """One GCDHEU evaluation: the gcd of a and b read off gcd(a(xi), b(xi)),
    or None when the candidate does not divide both inputs."""
    va = vb = 0
    for c in reversed(a):
        va = va * xi + c
    for c in reversed(b):
        vb = vb * xi + c
    if not (va and vb):
        return None
    v, half, digits = math.gcd(va, vb), xi // 2, []
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        digits.append(d)
    h = _primitive(digits)
    if len(h) == 1 or (_exact_quotient_int(a, h) is not None
                       and _exact_quotient_int(b, h) is not None):
        return h
    return None


def _gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of primitive, nonconstant integer polynomials.

    GCDHEU (Char, Geddes and Gonnet, 1989): both inputs are evaluated at an
    integer xi >= 2 min(|a|, |b|) + 29 (max norms), and the integer gcd of
    the two values is read back as balanced base-xi digits.  From that bound
    on, a primitive candidate that divides both inputs is their gcd.  A
    rejected candidate grows xi by the step of sympy's ``dup_zz_heu_gcd``.
    The loop ends: with a = G a' and b = G b', the value gcd is r |G(xi)|
    with r dividing Res(a', b'), so once xi > 2 r |G| the candidate is G.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while (h := _gcd_heu_step(a, b, xi)) is None:
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return h


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
            if not isinstance(c, numbers.Rational):
                raise TypeError(f"polynomial coefficients must be rational, "
                                f"got {type(c).__name__}")
        scale = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        self.ints, self.scale = _lowest_terms(ints, scale)

    @classmethod
    def _make(cls, ints: list[int] | tuple[int, ...], scale: int) -> Polynomial:
        """ints/scale brought to lowest terms (scale > 0)."""
        p = object.__new__(cls)
        p.ints, p.scale = _lowest_terms(ints, scale)
        return p

    @classmethod
    def constant(cls, c: Fraction | int) -> Polynomial:
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, c: Fraction | int = 1) -> Polynomial:
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_one(self) -> bool:
        return self.ints == (1,) and self.scale == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if isinstance(other, Polynomial):
            return self.ints == other.ints and self.scale == other.scale
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.scale))

    def __bool__(self) -> bool:
        return bool(self.ints)

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

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial._make([-c for c in self.ints], self.scale)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Polynomial._make([c * n for c in self.ints], self.scale * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._make(_mul_int(self.ints, other.ints), self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, other: Polynomial) -> Polynomial:
        """self / other, which must leave no remainder (ValueError if not).

        The division runs over Z: by Gauss's lemma a primitive divisor
        leaves an integral quotient, so other = content * primitive part is
        divided out as the primitive part first and the content and the
        scales are fixed afterwards."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        content = _content(other.ints)
        quo = _exact_quotient_int(self.ints, [c // content for c in other.ints])
        if quo is None:
            raise ValueError("polynomial division is not exact")
        return Polynomial._make([c * other.scale for c in quo], self.scale * content)

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        lead = self.ints[-1]
        return Polynomial._make(self.ints if lead > 0 else [-c for c in self.ints], abs(lead))

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
        return Polynomial._make(out, self.scale)

    def __repr__(self) -> str:
        return f"Polynomial({self.render('w')})"

    def render(self, var: str) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pow_ = var if i == 1 else f"{var}^{i}"
                term = f"{mag}{pow_}"
                if c < 0:
                    term = "-" + term
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f"- {term[1:]}")
            else:
                parts.append(f"+ {term}")
        return " ".join(parts)


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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over Q.

    The primitive parts are handed to ``_gcd_int`` (heuristic integer gcd,
    GCDHEU); the gcd is unique up to a unit, so the result is made monic.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Polynomial((1,))
    g = _gcd_int(_primitive(list(a.ints)), _primitive(list(b.ints)))
    return Polynomial._make(g, g[-1])


# ---------------------------------------------------------------------------
# factored reduction for binomial-product denominators
#
# Every denominator the closed-form kernel builds is w^r times a product of
# 1 +- w^j factors, i.e. of cyclotomic polynomials.  Those are cancelled
# directly, each Phi_d through its Mobius binomials: a division by Phi_d is
# a few shift-adds by 1 - w^e and a few strided running sums dividing by
# 1 - w^e, all run by C-level slice and accumulate loops.  An integer
# evaluation screens each candidate so a non-dividing one costs almost
# nothing, and where that value is 0 every candidate passes the screen and
# the exact division alone decides.  This is far cheaper than a generic gcd
# at the degrees the identity suites reach.
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


def _exact_quotient_int(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Quotient of nonzero integer polynomials a / b when b divides a in
    Z[x], else None (a quotient coefficient that is not an integer, or a
    nonzero remainder)."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return None
    lead = b[-1]
    nz_b = [(j, y) for j, y in enumerate(b[:db]) if y]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + db]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    return None
            quo[i] = c
            for j, y in nz_b:
                rem[i + j] -= c * y
    return None if any(rem[:db]) else quo


_EVAL_POINT = 1 << 20


@functools.lru_cache(maxsize=None)
def _mobius_binomials(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divisors e of order with mu(order/e) = +1 and those with -1:
    Phi_order = prod_e (1 - w^e)^mu(order/e) for order > 1, and Phi_1 =
    -(1 - w)."""
    if order < 1:
        raise ValueError("order must be positive")
    primes = [p for p in _divisors(order)[1:] if len(_divisors(p)) == 2]
    plus, minus = [], []
    for e in _divisors(order):
        m = order // e
        if all(m % (p * p) for p in primes):
            (minus if sum(m % p == 0 for p in primes) % 2 else plus).append(e)
    return tuple(plus), tuple(minus)


def _cyclotomic_quotient(a: list[int], order: int) -> list[int] | None:
    """a / Phi_order for a nonzero a, or None when Phi_order does not divide a.

    a is multiplied by the binomials 1 - w^e of Mobius exponent -1 and then
    divided by those of exponent +1.  When Phi_order divides a, every
    intermediate quotient is a polynomial; when it does not, the product of
    the divisors does not divide, so one of the divisions fails.  So the
    result is None exactly where ``_exact_quotient_int(a, Phi_order)`` is.
    """
    plus, minus = _mobius_binomials(order)
    for e in minus:
        a = _times_binomial(a, -1, e)
    for e in plus:
        a = _binomial_quotient(a, e)
        if a is None:
            return None
    return a if order > 1 else [-c for c in a]


def _cyclotomic_product(powers: dict[int, int]) -> list[int]:
    """Integer coefficients of prod Phi_d^e over powers {d: e}.

    Each Phi_d is written through its Mobius binomials, and each binomial
    1 - w^b taken once at its net exponent: the positive ones multiplied in
    by shift-adds, then the negative ones divided out by strided running
    sums (every such division is exact), then the sign made monic.
    """
    net: dict[int, int] = {}
    for d, e in powers.items():
        plus, minus = _mobius_binomials(d)
        for b in plus:
            net[b] = net.get(b, 0) + e
        for b in minus:
            net[b] = net.get(b, 0) - e
    out = [1]
    for b, m in sorted(net.items(), key=lambda bm: -bm[1]):
        for _ in range(abs(m)):
            out = _times_binomial(out, -1, b) if m > 0 else _binomial_quotient(out, b)
    return out if out[-1] > 0 else [-c for c in out]


@functools.lru_cache(maxsize=None)
def _cyclotomic_int(order: int) -> tuple[tuple[int, ...], int]:
    """(integer coefficients, value at the screening point) of a cyclotomic,
    built by :func:`_cyclotomic_product`."""
    coeffs = _cyclotomic_product({order: 1})
    value = 0
    for c in reversed(coeffs):
        value = value * _EVAL_POINT + c
    return tuple(coeffs), value


def cyclotomic_polynomial(order: int) -> Polynomial:
    """The cyclotomic polynomial whose roots are the primitive order-th
    roots of unity, read from the integer table :func:`_cyclotomic_int`."""
    return Polynomial(_cyclotomic_int(order)[0])


def reduce_cyclotomic_fraction(num: Polynomial, factors: Iterable[tuple[int, int, int]],
                               root_order: int = 1, w_power: int = 0) -> RationalFunction:
    """Reduced fraction num / (w^w_power prod (1 + s w^j)^m) over the factors
    (s, j, m), cancelling each candidate cyclotomic factor by exact division
    (:func:`_cyclotomic_quotient`).

    1 - w^j = -prod_{d | j} Phi_d and 1 + w^j = prod_{d | 2j, d not | j} Phi_d.
    The powers of w cancel against the numerator's low-order zeros.  An
    integer evaluation of the running numerator screens the cyclotomic
    candidates, so a non-dividing factor is rejected in O(1) big-integer
    operations.
    """
    sign, den_map = 1, {}
    for s, j, m in factors:
        if j < 1 or s not in (1, -1) or m < 0:
            raise ValueError(f"factor (1 + {s} w^{j})^{m} needs s = +-1, j >= 1, m >= 0")
        if s == -1 and m & 1:
            sign = -sign
        for d in _divisors(j if s == -1 else 2 * j):
            if s == -1 or j % d:
                den_map[d] = den_map.get(d, 0) + m
    if num.is_zero:
        return RationalFunction(num, Polynomial((1,)), root_order)
    content = _content(num.ints)
    prim = [x // content for x in num.ints]
    content *= sign
    low = 0
    while low < w_power and prim[low] == 0:
        low += 1
    prim, w_power = prim[low:], w_power - low
    value = 0
    for c in reversed(prim):
        value = value * _EVAL_POINT + c
    remaining: dict[int, int] = {}
    for d in sorted(den_map):
        e = den_map[d]
        phi_value = _cyclotomic_int(d)[1]
        while e > 0 and value % phi_value == 0:
            quo = _cyclotomic_quotient(prim, d)
            if quo is None:
                break
            prim = quo
            value //= phi_value
            e -= 1
        if e > 0:
            remaining[d] = e
    return RationalFunction._reduced(
        Polynomial._make([c * content for c in prim], num.scale),
        Polynomial._make([0] * w_power + _cyclotomic_product(remaining), 1),
        root_order)


# ---------------------------------------------------------------------------
# rational functions in w with w**D = q
# ---------------------------------------------------------------------------

def _over_monic(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num and den both divided by den's leading coefficient, rescaled on
    their integer lists."""
    lead, scale = den.ints[-1], den.scale
    if lead == scale:
        return num, den
    factor = scale if lead > 0 else -scale
    return Polynomial._make([c * factor for c in num.ints], num.scale * abs(lead)), den.monic()


class RationalFunction:
    """Reduced fraction of polynomials in ``w`` with ``w**root_order == q``.

    Canonical form: gcd(num, den) = 1 and den monic, made by the constructor
    (a GCDHEU gcd), which every product and quotient goes through.  Binary
    operations on elements with different root orders rebase both to the
    least common multiple, so mixing (say) D = 1 and D = 2 values is
    transparent.
    """

    __slots__ = ("num", "den", "root_order")

    def __init__(self, num: Polynomial, den: Polynomial, root_order: int = 1):
        if root_order < 1:
            raise ValueError("root order must be >= 1")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = Polynomial(), Polynomial((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            num, den = _over_monic(num, den)
        self.num = num
        self.den = den
        self.root_order = root_order

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial, root_order: int) -> RationalFunction:
        f = object.__new__(cls)
        f.num = num
        f.den = den
        f.root_order = root_order
        return f

    @classmethod
    def constant(cls, c: Fraction | int, root_order: int = 1) -> RationalFunction:
        return cls._reduced(Polynomial((c,)), Polynomial((1,)), root_order)

    @classmethod
    def w_power(cls, k: int, root_order: int = 1) -> RationalFunction:
        """w**k as an element (negative k gives 1/w**(-k))."""
        if k >= 0:
            return cls._reduced(Polynomial.monomial(k), Polynomial((1,)), root_order)
        return cls._reduced(Polynomial((1,)), Polynomial.monomial(-k), root_order)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- root-order handling ------------------------------------------------

    def rebase_root_order(self, new_order: int) -> RationalFunction:
        """Reinterpret the element at a finer root order (a multiple of the
        current one): substitutes w -> w**(new/old).  Coprimality and the
        monic denominator survive the substitution, so no re-reduction is
        needed."""
        if new_order % self.root_order != 0:
            raise RootOrderMismatch(
                f"cannot rebase root order {self.root_order} to {new_order}")
        k = new_order // self.root_order
        if k == 1:
            return self
        return RationalFunction._reduced(
            self.num.substitute_power(k), self.den.substitute_power(k), new_order)

    def _coerce(self, other) -> tuple[RationalFunction, RationalFunction] | None:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other, self.root_order)
        elif not isinstance(other, RationalFunction):
            return None
        if self.root_order == other.root_order:
            return self, other
        lcm = self.root_order * other.root_order // math.gcd(self.root_order, other.root_order)
        return self.rebase_root_order(lcm), other.rebase_root_order(lcm)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.den == b.den:
            return RationalFunction(a.num + b.num, a.den, a.root_order)
        g = poly_gcd(a.den, b.den)
        if g.degree == 0:
            return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den, a.root_order)
        da = a.den.exact_div(g)
        db = b.den.exact_div(g)
        num = a.num * db + b.num * da
        return RationalFunction(num, da * b.den, a.root_order)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced(-self.num, self.den, self.root_order)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.is_zero or b.is_zero:
            return RationalFunction._reduced(Polynomial(), Polynomial((1,)), a.root_order)
        return RationalFunction(a.num * b.num, a.den * b.den, a.root_order)

    __rmul__ = __mul__

    def reciprocal(self) -> RationalFunction:
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction._reduced(*_over_monic(self.den, self.num), self.root_order)

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n: int) -> RationalFunction:
        if n == 0:
            return RationalFunction.constant(1, self.root_order)
        base = self if n > 0 else self.reciprocal()
        # powers of a reduced fraction stay reduced
        return RationalFunction._reduced(
            base.num ** abs(n), base.den ** abs(n), self.root_order)

    def __eq__(self, other) -> bool:
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

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
        return {
            "D": self.root_order,
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }

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
        if self.den.is_one:
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


class CyclotomicElement:
    """An element sum_i c_i zeta^i of the cyclotomic extension, zeta a
    primitive L-th root of unity, given by its RationalFunction coordinates
    c_i in the basis 1, zeta, ..., zeta^(phi(L) - 1).

    It holds the Dirichlet-character values of order > 2 and the twisted
    numbers built from their integer rows; it compares and prints them, and
    does no field arithmetic.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[RationalFunction | Fraction | int]):
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
        self.order = order
        self.coeffs: tuple[RationalFunction, ...] = tuple(cs)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> CyclotomicElement:
        return cls(order, root_of_unity_rows(order)[power % order])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero:
            return "CyclotomicElement(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            zpow = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            terms.append(f"({c}){'' if not zpow else '*' + zpow}" if i else f"({c})")
        return f"CyclotomicElement(L={self.order}, {' + '.join(terms)})"
