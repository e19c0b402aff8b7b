"""Truncated p-adic arithmetic with per-value precision tracking.

A nonzero value is stored as ``p**v * unit`` with the unit known modulo
``p**prec`` (``prec`` significant digits), so the value itself is known
modulo ``p**(v + prec)``; that exponent is the *absolute precision*.
Addition and subtraction are exact up to the minimum absolute precision of
the operands; multiplication and division preserve relative precision.

A result that vanishes to the working precision is *zero-at-precision*:
unit 0 and prec 0, so its valuation v is a certified lower bound and also
its absolute precision.  Convergence diagnostics rely on that bound: the
difference of two successive Riemann sums can sit below the precision
floor, and the bound is still an honest certificate.

Values are immutable and operations are pure, so they may be shared across
parallel reductions without synchronization.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import InputError, QvolkError, ZeroAtPrecisionError, _prime_factors

DEFAULT_PRECISION = 32


class PrecisionExhausted(QvolkError, ArithmeticError):
    """An operation would produce a value with no certified digits."""


def _is_odd_prime(p: int) -> bool:
    return p > 2 and _prime_factors(p) == [p]


def _int_valuation(n: int, p: int) -> int:
    if not n:
        raise ValueError("0 has no p-adic valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _unit_inverse(x: int, p: int, k: int) -> int:
    """x**-1 mod p**k, x prime to p: from mod p, Newton steps y(2 - x y) double the digits."""
    if k <= 1:
        return pow(x, -1, p)
    y = _unit_inverse(x, p, (k + 1) // 2)
    return y * (2 - x * y) % p ** k


class PadicNumber:
    """A truncated element of Q_p (odd p) with tracked precision.

    The public constructor checks its arguments: p must be an odd prime;
    unit 0 with prec 0 is zero-at-precision with bound v; any other value
    needs prec >= 1, and its unit is reduced modulo p**prec and must be
    prime to p.  Arithmetic results (+, -, *, /, ** and :meth:`reciprocal`)
    are already normalised, 0 < unit < p**prec with p not dividing the unit
    or (unit, prec) = (0, 0), and are built by the unchecked internal
    constructor :meth:`_normalised`, which stores the fields as given; / and
    :meth:`reciprocal` invert units by Newton doubling (:func:`_unit_inverse`).

    The precision rules, read on residues: a value is an x known mod p**a
    (a its absolute precision), with v read off x and capped at a (v = a is
    zero-at-precision, unit 0 known mod p**0).  A sum is known mod
    p**min(a_x, a_y), a product mod p**min(v_x + a_y, v_y + a_x), and an
    exact int or Fraction meeting y is lifted by :meth:`_coerce`: 0 as
    zero-at-precision with bound a_y (so 0 * y is zero at precision
    v_y + a_y, and 0 / y at a_y - v_y), any other with enough digits never
    to limit the result (so 1 * y is y, and x**0 is that lift of 1).  Every
    operator applies these rules to zero-at-precision operands too; only /
    and :meth:`reciprocal` refuse one, as a divisor.
    """

    __slots__ = ("p", "v", "unit", "prec")

    def __init__(self, p: int, v: int, unit: int, prec: int):
        if not _is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        if unit or prec:
            if prec < 1:
                raise ValueError("nonzero value needs at least one digit of precision")
            unit %= p ** prec
            if unit % p == 0:
                raise ValueError("unit part must be prime to p")
        self.p = p
        self.v = v
        self.unit = unit
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _normalised(cls, p: int, v: int, unit: int, prec: int) -> PadicNumber:
        """p**v * unit without checks: p an odd prime and either prec >= 1
        with 0 < unit < p**prec prime to p, or unit = prec = 0, are the
        caller's to guarantee."""
        x = object.__new__(cls)
        x.p, x.v, x.unit, x.prec = p, v, unit, prec
        return x

    @classmethod
    def zero_at_precision(cls, p: int, valuation_bound: int) -> PadicNumber:
        return cls._normalised(p, valuation_bound, 0, 0)

    # -- structure ------------------------------------------------------------

    @property
    def is_zero_at_precision(self) -> bool:
        return not self.prec

    @property
    def valuation(self) -> int:
        """Exact valuation of a nonzero value; for zero-at-precision this is
        the certified lower bound."""
        return self.v

    @property
    def absolute_precision(self) -> int:
        """The value is known modulo p**absolute_precision."""
        return self.v + self.prec

    def _check_compatible(self, other: PadicNumber) -> None:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            if r == 0:
                return PadicNumber.zero_at_precision(self.p, self.absolute_precision)
            vr = _int_valuation(r.numerator, self.p) - _int_valuation(r.denominator, self.p)
            # enough digits that the exact scalar never limits the result
            need = max(self.prec, self.absolute_precision - vr, 1)
            return padic_from_rational(r, self.p, need)
        return None

    # -- arithmetic -----------------------------------------------------------

    @classmethod
    def _from_scaled(cls, p: int, scale_v: int, raw: int, abs_prec: int) -> PadicNumber:
        """Value p**scale_v * raw known modulo p**abs_prec (absolute)."""
        rel_mod = abs_prec - scale_v
        if rel_mod <= 0:
            return cls.zero_at_precision(p, abs_prec)
        raw %= p ** rel_mod
        if raw == 0:
            return cls.zero_at_precision(p, abs_prec)
        dv = _int_valuation(raw, p)
        return cls._normalised(p, scale_v + dv, raw // p ** dv, rel_mod - dv)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        m = min(a.absolute_precision, b.absolute_precision)
        s = min(a.v, b.v)
        raw = a.unit * a.p ** (a.v - s) + b.unit * b.p ** (b.v - s)
        return PadicNumber._from_scaled(a.p, s, raw, m)

    __radd__ = __add__

    def __neg__(self) -> PadicNumber:
        return PadicNumber._normalised(self.p, self.v, -self.unit % self.p ** self.prec, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        prec = min(a.prec, b.prec)
        return PadicNumber._normalised(a.p, a.v + b.v, a.unit * b.unit % a.p ** prec, prec)

    __rmul__ = __mul__

    def reciprocal(self) -> PadicNumber:
        if self.is_zero_at_precision:
            raise ZeroAtPrecisionError("division by zero-at-precision")
        unit = _unit_inverse(self.unit, self.p, self.prec)
        return PadicNumber._normalised(self.p, -self.v, unit, self.prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero_at_precision:
            raise ZeroAtPrecisionError("division by zero-at-precision")
        prec = min(self.prec, other.prec)
        unit = self.unit * _unit_inverse(other.unit, self.p, prec) % self.p ** prec
        return PadicNumber._normalised(self.p, self.v - other.v, unit, prec)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> PadicNumber:
        if n == 0:
            return self._coerce(1)
        base = self if n > 0 else self.reciprocal()
        mod = base.p ** base.prec
        return PadicNumber._normalised(base.p, base.v * abs(n), pow(base.unit, abs(n), mod),
                                       base.prec)

    # -- comparisons ----------------------------------------------------------

    def agrees_with(self, other: PadicNumber | int | Fraction, digits: int) -> bool:
        """True when v_p(self - other) >= digits; raises if the certified
        precision cannot support the claim."""
        other = self._coerce(other)
        diff = self - other
        if diff.is_zero_at_precision:
            if diff.v < digits:
                raise PrecisionExhausted(
                    f"only {diff.v} digits certified, {digits} requested")
            return True
        return diff.v >= digits

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p, self.v, self.unit, self.prec) == (other.p, other.v, other.unit, other.prec)

    def __hash__(self) -> int:
        return hash((self.p, self.v, self.unit, self.prec))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "v": self.v, "unit": str(self.unit), "A": self.prec}

    @classmethod
    def from_json(cls, data: dict) -> PadicNumber:
        return cls(int(data["p"]), int(data["v"]), int(data["unit"]), int(data["A"]))

    def __repr__(self) -> str:
        if self.is_zero_at_precision:
            return f"O({self.p}^{self.v})"
        if self.v == 0:
            lead = f"{self.unit}"
        else:
            lead = f"{self.unit}*{self.p}^{self.v}"
        return f"{lead} + O({self.p}^{self.absolute_precision})"


def padic_from_rational(r: Fraction | int, p: int, prec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Image of an exact rational with prec significant digits; exact zero
    maps to zero-at-precision with valuation bound prec.

    >>> padic_from_rational(Fraction(1, 3), 5, 6)
    10417 + O(5^6)
    """
    if not _is_odd_prime(p):
        raise InputError(f"{p} is not an odd prime")
    if prec < 1:
        raise InputError("precision must be positive")
    r = Fraction(r)
    if r == 0:
        return PadicNumber.zero_at_precision(p, prec)
    vn = _int_valuation(r.numerator, p)
    vd = _int_valuation(r.denominator, p)
    mod = p ** prec
    num_u = r.numerator // p ** vn
    den_u = r.denominator // p ** vd
    unit = num_u * pow(den_u, -1, mod) % mod
    return PadicNumber._normalised(p, vn - vd, unit, prec)


# ---------------------------------------------------------------------------
# profinite domains
# ---------------------------------------------------------------------------

class ProfiniteDomain(namedtuple("ProfiniteDomain", "p d")):
    """Inverse limit of Z/(d p^N): the integration domain.  d = 1 is Z_p."""

    __slots__ = ()

    def __new__(cls, p: int, d: int = 1):
        if not _is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        if d < 1:
            raise InputError("d must be positive")
        if math.gcd(d, p) != 1:
            raise InputError(f"d = {d} must be prime to p = {p}")
        return super().__new__(cls, p, d)

    def level_size(self, n: int) -> int:
        return self.d * self.p ** n


def ball_representatives(domain: ProfiniteDomain, n: int) -> range:
    """Representatives 0 .. d*p^n - 1 of the level-n balls a + d p^n Z_p."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return range(domain.level_size(n))
