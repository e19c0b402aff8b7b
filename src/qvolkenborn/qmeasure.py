"""q-deformed measures on profinite domains, Riemann sums and integration.

Two measures are implemented: the *bosonic* one with ball weights
``q^a / [d p^N]_q`` (its moments are the q-Bernoulli numbers) and the
*fermionic* one with weights ``(-q)^a / [d p^N]_{-q}`` (its moments are the
q-Euler-type numbers).  The integral is the p-adic limit of the associated
Riemann sums; :func:`integrate` sums the one level at which a proven bound
on the distance to the limit reaches the target, and claims those digits.

The deformation parameter ``q`` is carried by a :class:`QDescriptor`, which
supports three readings: symbolic (a rational function of a D-th root of q),
exact rational, and truncated p-adic.

Every closed form of the package (the number and polynomial families, the
twisted sums, the ball measures and the level-N Riemann sums at symbolic
and rational q) is built from calls of :func:`binomial_fraction_sum`, which
runs on plain ints in all three readings of q and makes one value of the
reading's field at the end, all but the ball measures through :func:`geometric_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Polynomial, RationalFunction, RootOrderMismatch,
                      _divisors, _unpack, reduce_cyclotomic_fraction)
from .characters import character_value, parse_character_id
from .padic import (PadicNumber, ProfiniteDomain, _int_valuation, _unit_inverse,
                    ball_representatives, q_admissible)


# ---------------------------------------------------------------------------
# the three readings of q
# ---------------------------------------------------------------------------

class QDescriptor:
    """One of the three readings of the deformation parameter.

    mode "symbolic": value lives in the rational-function field with root
    order D (w**D = q).  mode "rational": an exact rational q != 1.  mode
    "padic": a truncated p-adic q with v_p(q - 1) >= 1 and q != 1 at its
    precision.

    Descriptors compare and hash by value: the mode, the root order, the
    rational q and the p-adic q's (p, v, unit, prec), so equal readings
    built separately share the closed-value cache of :mod:`qnumbers`.

    >>> QDescriptor.rational(Fraction(2, 5)) == QDescriptor.rational(Fraction(4, 10))
    True
    >>> QDescriptor.symbolic(1) == QDescriptor.symbolic(2)
    False
    """

    __slots__ = ("mode", "root_order", "q_rational", "q_padic", "_key")

    def __init__(self, mode: str, *, root_order: int = 1,
                 q_rational: Fraction | None = None,
                 q_padic: PadicNumber | None = None):
        if mode not in ("symbolic", "rational", "padic"):
            raise ValueError(f"unknown q mode {mode!r}")
        if mode == "symbolic" and root_order < 1:
            raise ValueError("root order must be >= 1")
        if mode == "rational":
            if q_rational is None or q_rational == 1:
                raise ValueError("rational q must be an exact rational != 1")
        if mode == "padic":
            if q_padic is None:
                raise ValueError("padic mode needs a p-adic q")
            if not q_admissible(q_padic):
                raise ValueError(
                    f"inadmissible p-adic q: v_{q_padic.p}(q - 1) must be >= 1")
            if (q_padic - 1).is_zero_at_precision:
                raise ValueError("p-adic q must differ from 1 at its precision, "
                                 f"got q - 1 = {q_padic - 1!r}")
        self.mode = mode
        self.root_order = root_order
        self.q_rational = q_rational
        self.q_padic = q_padic
        self._key = (mode, root_order, q_rational, None if q_padic is None else
                     (q_padic.p, q_padic.v, q_padic.unit, q_padic.prec))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QDescriptor):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @classmethod
    def symbolic(cls, root_order: int = 1) -> QDescriptor:
        return cls("symbolic", root_order=root_order)

    @classmethod
    def rational(cls, q: Fraction | int) -> QDescriptor:
        return cls("rational", q_rational=Fraction(q))

    @classmethod
    def padic(cls, q: PadicNumber) -> QDescriptor:
        return cls("padic", q_padic=q)

    @property
    def prime(self) -> int:
        if self.mode != "padic":
            raise ValueError("only padic descriptors carry a prime")
        return self.q_padic.p

    # -- field plumbing -------------------------------------------------------

    def one(self):
        if self.mode == "symbolic":
            return RationalFunction.constant(1, self.root_order)
        if self.mode == "rational":
            return Fraction(1)
        return PadicNumber._normalised(self.q_padic.p, 0, 1, self.q_padic.prec)

    def from_rational(self, r: Fraction | int):
        if self.mode == "symbolic":
            return RationalFunction.constant(r, self.root_order)
        if self.mode == "rational":
            return Fraction(r)
        return PadicNumber.from_rational(Fraction(r), self.q_padic.p, self.q_padic.prec)

    def w_exponent(self, exponent: Fraction | int) -> int:
        """The power of w realizing q**exponent (symbolic mode)."""
        if isinstance(exponent, int):
            return exponent * self.root_order
        den = exponent.denominator
        if self.root_order % den:
            raise RootOrderMismatch(
                f"power q^{exponent} needs root order divisible by {den}, "
                f"have {self.root_order}")
        return exponent.numerator * (self.root_order // den)

    def int_exponent(self, exponent: Fraction | int) -> int:
        """The integer exponent of q**exponent at rational or p-adic q
        (fractional q-powers do not live in Q or Q_p)."""
        if isinstance(exponent, int):
            return exponent
        e = Fraction(exponent)
        if e.denominator != 1:
            raise ValueError(f"fractional power q^{e} is not available in {self.mode} mode")
        return int(e)

    def qpow(self, exponent: Fraction | int):
        """q ** exponent.

        Symbolically this is a power of w and only needs the exponent to
        clear the root order; numerically the exponent must be an integer.
        """
        if self.mode == "symbolic":
            return RationalFunction.w_power(self.w_exponent(exponent), self.root_order)
        if self.mode == "rational":
            return self.q_rational ** self.int_exponent(exponent)
        return self.q_padic ** self.int_exponent(exponent)

    def bracket(self, x: Fraction | int):
        """The q-analogue [x] = (1 - q^x)/(1 - q).

        >>> print(QDescriptor.symbolic().bracket(3))
        1 + q + q^2
        >>> print(QDescriptor.symbolic(2).bracket(Fraction(1, 2)))
        (1)/(1 + w)
        """
        one = self.one()
        return (one - self.qpow(x)) / (one - self.qpow(1))

    def minus_bracket(self, m: int):
        """[m] at -q, for odd m: (1 + q^m)/(1 + q)."""
        if m < 1 or m % 2 == 0:
            raise ValueError(f"the negated-base bracket needs odd m, got {m}")
        one = self.one()
        return (one + self.qpow(m)) / (one + self.qpow(1))

    def __repr__(self) -> str:
        if self.mode == "symbolic":
            core = f"symbolic D={self.root_order}"
        elif self.mode == "rational":
            core = f"q={self.q_rational}"
        else:
            core = f"padic {self.q_padic!r}"
        return f"QDescriptor({core})"


def binomial_fraction_sum(q: QDescriptor, numerators: list[dict], sign: int,
                          step: int, prefactor=()):
    """prod (1 + s q^e)^pw * sum_k numerators[k] / (1 + sign q^(step (k+1))).

    ``numerators[k]`` maps q-exponents to rational coefficients, and
    ``prefactor`` lists the (s, e, pw) factors.  Every closed form of the
    package has this shape, a level-N Riemann sum at symbolic or rational q
    included (:func:`riemann_sum`), and its denominators are products of
    cyclotomic polynomials in w.

    One Horner loop serves every reading of q: with d_k = 1 + sign
    q^(step (k+1)), total <- total d_k + c_k den and den <- den d_k; then
    positive prefactor powers multiply total, and negative ones join the
    final division.  Only the reading's primitives differ (see
    :class:`_SymbolicReading`, :class:`_RationalReading` and
    :class:`_PadicReading`): the binomial d, "times a binomial" (of total,
    and of den), "add c q^e den" (which is told the binomial just
    multiplied in) and the final division.  Every reading runs on plain
    ints from total = 0 and den = 1 (one packed int per polynomial at
    symbolic q) and makes one value at the end: a reduced rational function,
    a Fraction, or at p-adic q one PadicNumber division of integer residues
    that carry the field's precision.  A numeric q raises ZeroDivisionError
    where a binomial d_k or a prefactor divisor vanishes at q (at p-adic q:
    is zero at precision), and at q = 0 with a negative exponent.
    """
    reading = _READINGS[q.mode](q, numerators, prefactor)
    total, den = 0, 1
    for k, num in enumerate(numerators):
        d = reading.binomial(sign, step * (k + 1))
        total = reading.add_terms(reading.times(total, d), num, den, d)
        den = reading.den_times(den, d)
    divisors = []
    for s, e, power in prefactor:
        if power > 0:
            total = reading.times(total, reading.binomial(s, e), power)
        elif power < 0:
            divisors.append((reading.binomial(s, e), -power))
    return reading.divide(total, den, divisors)


class _PadicReading:
    """The kernel's primitives at p-adic q: integer residues under the
    precision rules that :class:`PadicNumber`'s docstring reads on residues,
    and PadicNumbers only for the final division, so every value and every
    ZeroDivisionError is the one the field's chain of operations gives.

    A value is (x, v, a): the residue x, known mod p^a, and the valuation v
    read off it (v = a is zero-at-precision).  The loop's exact ints 0 and
    1 stay ints until they meet such a value, which lifts them as
    PadicNumber._coerce does.  The coefficients are folded into ints over
    L = p^s L', the lcm of their denominators, so the x of every element
    and of total is L times the value, mod p^(a + s); the final division
    takes L back out.  Each q^e mod p^A is computed once a call.
    """

    def __init__(self, q: QDescriptor, numerators: list[dict], prefactor):
        self.q, self.p, self.A, self.qpows = q, q.prime, q.q_padic.prec, {}
        self.scale = math.lcm(*(c.denominator for num in numerators
                                for c in num.values() if c))
        self.shift = _int_valuation(self.scale, self.p)

    def _read(self, x: int, a: int, s: int) -> tuple[int, int, int]:
        """The value known mod p^a whose p^s multiple is x."""
        x %= self.p ** (a + s)
        return (x, _int_valuation(x, self.p) - s, a) if x else (0, a, a)

    def _qpow(self, e) -> int:
        e = self.q.int_exponent(e)
        if e not in self.qpows:
            self.qpows[e] = pow(self.q.q_padic.unit, e, self.p ** self.A)
        return self.qpows[e]

    def _element(self, terms: dict, scale: int, s: int):
        """sum c q^e over the terms, the int 0 when every c is 0."""
        x = g = 0
        for e, c in terms.items():
            if c:
                c = c.numerator * (scale // c.denominator)
                x, g = x + c * self._qpow(e), math.gcd(g, c)
        return self._read(x, self.A + _int_valuation(g, self.p) - s, s) if g else 0

    def _mul(self, x, y, s: int = 0):
        """x y; s is the shift of the factor that is scaled by L, if any."""
        if type(y) is int:
            x, y = y, x
        if type(x) is int:   # 1 y is y, and 0 y is zero at precision v + a of y
            if x == 1 or type(y) is int:
                return y if x == 1 else 0
            return 0, y[1] + y[2], y[1] + y[2]
        v = x[1] + y[1]
        a = v + min(x[2] - x[1], y[2] - y[1])
        return (x[0] * y[0] % self.p ** (a + s), v, a) if a > v else (0, v, v)

    den_times = _mul

    def _pow(self, b, m: int):
        """b^m, the value m products of b give."""
        if type(b) is int:
            return b ** m
        x, v, a = b
        return pow(x, m, self.p ** (a + (m - 1) * v)), m * v, a + (m - 1) * v

    def binomial(self, s: int, e):
        if e == 0:
            return self._element({0: 1 + s}, 1, 0)
        return self._read(1 + s * self._qpow(e), self.A, 0)

    def times(self, x, b, power: int = 1):
        return self._mul(x, b if power == 1 else self._pow(b, power), self.shift)

    def add_terms(self, total, num: dict, den, d):
        y = self._mul(self._element(num, self.scale, self.shift), den, self.shift)
        if type(total) is int or type(y) is int:   # an exact 0 adds nothing
            return y if type(total) is int else total
        return self._read(total[0] + y[0], min(total[2], y[2]), self.shift)

    def _padic(self, value, scale: int, s: int):
        if type(value) is int:
            return value
        x, v, a = value
        if v == a:
            return PadicNumber.zero_at_precision(self.p, a)
        mod = self.p ** (a - v)
        unit = x // self.p ** (v + s) * pow(scale // self.p ** s, -1, mod) % mod
        return PadicNumber._normalised(self.p, v, unit, a - v)

    def divide(self, total, den, divisors):
        for b, m in divisors:
            den = self._mul(den, self._pow(b, m))
        return self._padic(total, self.scale, self.shift) / self._padic(den, 1, 0)


class _RationalReading:
    """The kernel's primitives at rational q = a/b (lowest terms, b > 0):
    plain ints, and one Fraction at the end.

    A binomial 1 + s q^e is (b^e + s a^e) / b^e, or (a^-e + s b^-e) / a^-e
    for e < 0; it is kept as its integer numerator and its exponent, and
    "times a binomial" multiplies by the numerator alone.  total and den
    take the same binomials in the loop, so the dropped denominators g
    cancel in their ratio, provided each added term c q^e den is scaled by
    the g of the binomial just multiplied in, and by one common S = L
    a^low b^top (L the lcm of the coefficients' denominators, top the
    largest exponent and low the largest negated one, both at least 0),
    which makes c q^e S the integer c L a^(e+low) b^(top-e).  The dropped
    g of the prefactors are counted as net powers of b (and of a), and go
    into the final Fraction with S.
    """

    def __init__(self, q: QDescriptor, numerators: list[dict], prefactor):
        self.q, self.a, self.b = q, q.q_rational.numerator, q.q_rational.denominator
        exponents = [self._exponent(e) for num in numerators for e, c in num.items() if c]
        self.top = max([0] + exponents)
        self.low = max([0] + [-e for e in exponents])
        self.scale = math.lcm(*(c.denominator for num in numerators
                                for c in num.values() if c))
        self.net_a = self.net_b = 0   # the dropped g, as powers of a and b

    def _exponent(self, e) -> int:
        """e as an int, with qpow's ValueError for a fractional e, and
        ZeroDivisionError for q = 0 to a negative power."""
        e = self.q.int_exponent(e)
        if e < 0 and not self.a:
            raise ZeroDivisionError(f"q = 0 to the power {e}")
        return e

    def binomial(self, s: int, e) -> tuple[int, int]:
        e = self._exponent(e)
        if e >= 0:
            return self.b ** e + s * self.a ** e, e
        return self.a ** -e + s * self.b ** -e, e

    def _drop(self, e: int, power: int) -> None:
        if e >= 0:
            self.net_b += e * power
        else:
            self.net_a -= e * power

    def times(self, x: int, b: tuple[int, int], power: int = 1) -> int:
        self._drop(b[1], power)
        return x * b[0] ** power

    def den_times(self, den: int, b: tuple[int, int]) -> int:
        self._drop(b[1], -1)
        return den * b[0]

    def add_terms(self, total: int, num: dict, den: int, d: tuple[int, int]) -> int:
        """total + c q^e S g den, the sum over the terms c q^e S in one
        homogeneous Horner sum from the highest exponent down."""
        terms = sorted(((int(e), c) for e, c in num.items() if c), reverse=True)
        if not terms:
            return total
        a, b = self.a, self.b
        first = last = terms[0][0]
        acc, b_pow = 0, 1   # b_pow = b^(first - e)
        for e, c in terms:
            gap = last - e
            b_pow *= b ** gap
            acc = acc * a ** gap + c.numerator * (self.scale // c.denominator) * b_pow
            last = e
        e = d[1]
        g = b ** e if e >= 0 else a ** -e
        return total + acc * a ** (last + self.low) * b ** (self.top - first) * g * den

    def divide(self, total: int, den: int, divisors) -> Fraction:
        for (b, e), m in divisors:
            self._drop(e, -m)
            den *= b ** m
        den *= self.scale
        for base, k in ((self.a, self.low + self.net_a), (self.b, self.top + self.net_b)):
            if k >= 0:
                den *= base ** k
            else:
                total *= base ** -k
        return Fraction(total, den)


class _SymbolicReading:
    """The kernel's primitives at symbolic q: integer polynomials in w over
    one common scale (the lcm of the numerators' denominators), shifted by
    w^r when the exponents go down to -r, each one int sum c_i X^i at X =
    2^B.  A binomial is (s, j), j the w-exponent: "times a binomial" is x + s
    (x << jB), "add c q^e den" is c den << iB.  For j < 0 it is 1 + s w^-j,
    as 1 + s w^j = s w^j (1 + s w^-j): a loop binomial's added terms take s
    w^-j, a prefactor's s^p w^(jp) joins the scalar and the final w-power.
    A binomial at most doubles the l1 norm, so B (a multiple of 8) keeps
    2^(K + P) times that of the scaled numerators below X/2 (K of them, P
    the positive prefactor powers).  den's binomials and the prefactor
    divisors make one Phi-map (and a scalar) for the final division."""

    def __init__(self, q: QDescriptor, numerators: list[dict], prefactor):
        terms = [(e, c) for num in numerators for e, c in num.items() if c]
        self.q, self.phis, self.scalar = q, {}, 1
        self.shift = max([0] + [-e for e, _ in terms])
        self.scale = math.lcm(*(c.denominator for _, c in terms))
        self.w_power = q.w_exponent(self.shift)
        for s, e, power in prefactor:
            if q.w_exponent(e) < 0:
                self.scalar *= s ** abs(power)
                self.w_power -= q.w_exponent(e) * power
        l1 = sum(abs(c.numerator) * (self.scale // c.denominator) for _, c in terms)
        doublings = len(numerators) + sum(power for _, _, power in prefactor if power > 0)
        self.bits = 8 * ((l1 << doublings).bit_length() // 8 + 1)

    def _record(self, b: tuple[int, int], power: int) -> None:
        # j > 0: 1 - w^j = -prod_{d|j} Phi_d, 1 + w^j = prod_{d|2j, d not|j} Phi_d; else 1 + s
        s, j = b[0], abs(b[1])
        self.scalar *= s ** power if j else Fraction(1 + s) ** -power
        for d in _divisors(j if s == -1 else 2 * j):
            if s == -1 or j % d:
                self.phis[d] = self.phis.get(d, 0) + power

    def binomial(self, s: int, e) -> tuple[int, int]:
        return s, self.q.w_exponent(e)

    def times(self, x: int, b: tuple[int, int], power: int = 1) -> int:
        shift = abs(b[1]) * self.bits
        for _ in range(power):
            x = x + (x << shift) if b[0] > 0 else x - (x << shift)
        return x

    def den_times(self, den: int, b: tuple[int, int]) -> int:
        self._record(b, 1)
        return self.times(den, b)

    def add_terms(self, total: int, num: dict, den: int, d: tuple[int, int]) -> int:
        s, j = d
        for e, c in num.items():
            if c:
                i = self.q.w_exponent(e + self.shift)
                c = c.numerator * (self.scale // c.denominator)
                if j < 0:
                    i, c = i - j, s * c
                total += c * den << i * self.bits
        return total

    def divide(self, total: int, den, divisors) -> RationalFunction:
        for b, m in divisors:
            self._record(b, m)
        ints = _unpack(total, self.bits // 8, abs(total).bit_length() // self.bits + 2)
        # a negative power of w in the denominator multiplies the numerator
        num = Polynomial._make([0] * -self.w_power + ints, self.scale)
        return reduce_cyclotomic_fraction(num * self.scalar, self.phis, self.q.root_order,
                                          max(self.w_power, 0))


_READINGS = {"symbolic": _SymbolicReading, "rational": _RationalReading,
             "padic": _PadicReading}


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

BOSONIC = "bosonic"
FERMIONIC = "fermionic"


@dataclass(frozen=True)
class MeasureSpec:
    """A q-deformed measure (bosonic or fermionic) over a profinite domain."""

    kind: str
    q: QDescriptor
    domain: ProfiniteDomain

    def __post_init__(self):
        if self.kind not in (BOSONIC, FERMIONIC):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == FERMIONIC and self.domain.d % 2 == 0:
            raise ValueError("the fermionic measure needs an odd d")
        if self.q.mode == "padic" and self.q.prime != self.domain.p:
            raise ValueError(f"a {self.q.prime}-adic q cannot measure a "
                             f"domain over p = {self.domain.p}")

    def level_norm(self, n: int):
        """[d p^n] at q (bosonic) or -q (fermionic): the normalizer of level n."""
        size = self.domain.level_size(n)
        if self.kind == BOSONIC:
            return self.q.bracket(size)
        return self.q.minus_bracket(size)


def ball_measure(spec: MeasureSpec, a: int, n: int):
    """Measure of the ball a + d p^n Z_p."""
    return ball_measure_sum(spec, (a,), n)


def ball_measure_sum(spec: MeasureSpec, reps, n: int):
    """Sum of ball measures over the given level-n representatives: the
    signed power sum over the level normalizer (1 -+ q^(d p^n)) / (1 -+ q),
    with one division instead of one per ball, which keeps the exact
    distribution/total-mass checks cheap."""
    size = spec.domain.level_size(n)
    fermionic = spec.kind == FERMIONIC
    coeffs: dict[int, int] = {}
    for a in reps:
        if not 0 <= a < size:
            raise ValueError(f"representative {a} out of range [0, {size})")
        coeffs[a] = coeffs.get(a, 0) + (-1 if fermionic and a % 2 else 1)
    sign = 1 if fermionic else -1
    return binomial_fraction_sum(spec.q, [coeffs], sign, size, [(sign, 1, 1)])


def geometric_sum(q: QDescriptor, kind: str, n: int, x: Fraction | int,
                  weights: tuple[int, ...], level: int | None = None):
    """sum_j weights[j] [x+j]^n against the measure of that kind, the table
    read periodically: over range(level) with its normalizer, or the p-adic
    limit of those sums when ``level`` is None.  One
    :func:`binomial_fraction_sum` call, behind every closed form of
    :mod:`qnumbers` and every symbolic or rational :func:`riemann_sum`.

    With r = -1 (fermionic) or 1 (bosonic) and K = level, the binomial
    theorem [x+j]^n = (1 - q)^-n sum_k C(n,k) (-q^x)^k q^(jk) makes the sum
    (1 - r q) / ((1 - q)^n (1 - (r q)^K)) sum_k C(n,k) (-q^x)^k G_k; with
    rho = r q^(k+1) and l = len(weights), G_k = sum_{j<K} w_j rho^j =
    (sum_{j<l} w_j rho^j - sum_{a<l} w_(K+a) rho^(K+a)) / (1 - rho^l).  So
    the terms are q^(xk + j(k+1)) (-1)^k C(n,k) w_j r^j, the second block
    negated, with sign -r^l, step l and prefactors (-1, 1, -n), (-r, 1, 1),
    (-r^K, K, -1).  In the limit K = d p^N (l | K) and q^K -> 1.  Fermionic
    (K, l odd): (r q)^K and rho^K tend to -1, so G_k / (1 - (r q)^K) tends
    to the first block over 1 - rho^l, under (1, 1, 1), (-1, 1, -n).
    Bosonic: (1 - q^(K(k+1))) / (1 - q^K) tends to k + 1, a factor of each
    term, under (-1, 1, 1 - n).  An integral x is made an int, so the
    exponents add as ints.
    """
    if not isinstance(x, int):
        x = Fraction(x)
        x = x.numerator if x.denominator == 1 else x
    r, l = -1 if kind == FERMIONIC else 1, len(weights)
    moments = level is None and r == 1   # the bosonic limit's factor k + 1
    blocks = [(0, 1)] if level is None else [(0, 1), (level, -1)]
    terms = [(j, s * weights[j % l] * r ** j) for start, s in blocks
             for j in range(start, start + l) if weights[j % l]]
    numerators = []
    for k in range(n + 1):
        c, num = (-1) ** k * math.comb(n, k) * (k + 1 if moments else 1), {}
        for j, w in terms:
            e = x * k + j * (k + 1)
            num[e] = num.get(e, 0) + c * w
        numerators.append(num)
    if level is not None:
        prefactor = [(-1, 1, -n), (-r, 1, 1), (-r ** level, level, -1)]
    else:
        prefactor = [(1, 1, 1), (-1, 1, -n)] if r == -1 else [(-1, 1, 1 - n)]
    return binomial_fraction_sum(q, numerators, -r ** l, l, prefactor)


def riemann_sum(spec: MeasureSpec, f: BracketPower, n: int):
    """The level-n Riemann sum: sum over ball representatives j of
    chi(j) [x+j]^n (r q)^j, normalized by [K] at r q (r = -1 fermionic, else
    1; K = d p^n).

    ``f`` must be a :class:`BracketPower` taken at the spec's q (a symbolic
    q at any root order); anything else raises ValueError.  The sum is exact
    to the digits it claims: at p-adic q one integer pass with its
    normalizer (:func:`_residue_sum`), at symbolic and rational q one
    :func:`geometric_sum` at level K, whose docstring derives the closed
    form.  A symbolic result is at the lcm of the two root orders (the
    spec's own when chi vanishes on the level).  Rational q = -1 is the one
    rational q where a divisor 1 - rho^l can vanish: there a bosonic sum
    over an odd K (where [K] = 1) is the symbolic sum at w = -1, and the
    normalizer vanishes (even K) or is 0/0 (fermionic): ZeroDivisionError.
    """
    _check_integrand(spec, f)
    reps = ball_representatives(spec.domain, n)
    if spec.q.mode == "padic":
        return _residue_sum(spec, f, reps, math.inf)
    table, size, q = (1,) if f.chi is None else f.chi, reps.stop, spec.q
    if q.mode == "symbolic" and any(table[:size]):
        q = QDescriptor.symbolic(math.lcm(q.root_order, f.q.root_order))
    elif q.q_rational == -1 and spec.kind == BOSONIC and size % 2:
        return geometric_sum(QDescriptor.symbolic(), BOSONIC, f.n, f.shift, table,
                             size).evaluate(-1)
    return geometric_sum(q, spec.kind, f.n, f.shift, table, size)


def _check_integrand(spec: MeasureSpec, f) -> None:
    if not isinstance(f, BracketPower):
        raise ValueError(f"the integrand must be a BracketPower, got {type(f).__name__}")
    a, b = f.q, spec.q
    if a.mode != b.mode or (a.q_rational, a.q_padic) != (b.q_rational, b.q_padic):
        raise ValueError(f"the integrand is taken at {a!r}, the measure at {b!r}")


def _residue_sum(spec: MeasureSpec, f: BracketPower, reps: range, claim=None):
    """The p-adic sum of chi(j) [x+j]^n r^j (r = +-q) in plain ints.

    With Q the integer unit of q, A its precision and t = v_p(1 - Q), the
    result is the exact sum at Q reduced mod p^m, m the digits claimed:
    A - t for n >= 1, since the bracket [x+j] = (1 - Q^(x+j)) / (1 - Q) is
    known to A - t digits, and A for n = 0.  The weights chi need only be a
    periodic table of integers.  f must take its bracket at the spec's q
    (:func:`riemann_sum` and :func:`integrate` check it).  With a ``claim``,
    reps is a level range(K), and the sum over (1 - r^K) / (1 - r) is
    truncated to ``claim`` digits as PadicNumber's / and + zero_at_precision
    do: it is known mod p^(min(m, h + A - w) + u - w), h, w, u the valuations
    of the sum (m if 0), 1 - r^K, 1 - r, and w >= A raises ZeroDivisionError.

    The sum is n + 1 geometric series (:func:`geometric_sum`): (1 - Q)^-n
    sum_k C(n,k) (-Q^x)^k G_k, G_k = sum_j chi(j) rho_k^j and rho_k = r Q^k
    (r = +-Q).  With l = len(chi), reps from s and len(reps) = M l + e,
    G_k = (V_k (1 - rho_k^(lM)) + rho_k^(lM) E_k (1 - rho_k^l)) / (1 - rho_k^l),
    V_k and E_k the signed sums of rho_k^j over the first l and the first e
    representatives.  That is O(n l + log M) modular operations.

    Exactness.  Work mod p^W, W = m + n t + max_k w_k, w_k = v_p(1 -
    rho_k^l).  G_k is a p-adic integer, so p^(w_k) divides the numerator;
    stripped of p^(w_k) on both sides the denominator is a unit, and G_k is
    known mod p^(W - w_k), at least mod p^(m + n t).  The k-sum, added over
    one unit denominator, is (1 - Q)^n times a p-adic integer; stripped of
    p^(n t) and over ((1 - Q) / p^t)^n it is the sum mod p^m, at the cost of
    one inverse.  By lifting the exponent (p odd, t >= 1), w_k = t + v_p(l
    (k+1)) where rho_k^l = Q^(l(k+1)), and w_k = 0 for a fermionic sum with
    l odd, where 1 - rho_k^l = 2 mod p.
    """
    q = spec.q.q_padic
    p, big_q, n, a = q.p, q.unit, f.n, q.prec
    signs = (1,) if f.chi is None else tuple(int(s) for s in f.chi)
    size, offset = len(signs), reps.start % len(signs)
    # a level can hold more than sys.maxsize representatives, past len()
    count, extra = divmod(reps.stop - reps.start, size)
    t = _int_valuation(1 - big_q, p)
    digits = a - t if n else a
    fermionic = spec.kind == FERMIONIC
    slack = 0 if fermionic and size % 2 else t + max(
        _int_valuation(size * k, p) for k in range(1, n + 2))
    known = p ** (digits + n * t)   # the k-sum is needed mod p^(m + n t)
    mod = known * p ** slack
    # Q^j and rho_k^j for j = 1, s, l and l M; the next k multiplies by Q^j
    exponents = (1, reps.start, size, size * count)
    q_powers = [pow(big_q, j, mod) for j in exponents]
    rho_powers = [-x if fermionic and j % 2 else x for x, j in zip(q_powers, exponents)]
    r_k = rho_powers[3] * pow(rho_powers[0], extra, mod)   # r^K for reps = range(K)
    table = signs[offset:] + signs[:offset]
    minus_q_x, factor, top, bottom = -pow(big_q, int(f.shift), mod), 1, 0, 1
    for k in range(n + 1):
        rho, weight, rho_l, rho_lm = rho_powers
        v = e = 0
        for c, s in enumerate(table):
            if c == extra:
                e = v
            v += s * weight
            weight = weight * rho % mod
        den = (1 - rho_l) % mod
        strip = p ** _int_valuation(den, p)
        num = (v * (1 - rho_lm) + rho_lm * e * (1 - rho_l)) % mod
        # top / bottom += C(n,k) (-Q^x)^k G_k, over a unit bottom
        top = (top * (den // strip) + math.comb(n, k) * factor * (num // strip) * bottom) % known
        bottom = bottom * (den // strip) % known
        factor = factor * minus_q_x % known
        rho_powers = [x * y % mod for x, y in zip(rho_powers, q_powers)]
    # top / bottom = (1 - Q)^n times the sum, mod p^(m + n t)
    bottom = bottom * pow((1 - big_q) // p ** t, n, known) % known
    if claim is not None:   # times (1 - r) / p^u, over (1 - r^K) / p^w
        norm, u = (1 - r_k) % p ** a, 0 if fermionic else t
        if not norm:
            raise ZeroDivisionError("division by zero-at-precision")
        w = _int_valuation(norm, p)
        top *= (1 + big_q if fermionic else 1 - big_q) // p ** u
        bottom = bottom * (norm // p ** w) % known
    total = top * _unit_inverse(bottom, p, digits + n * t) % known // p ** (n * t)
    if claim is None:
        return PadicNumber._from_scaled(p, 0, total, digits)
    h = _int_valuation(total, p) if total else digits
    return PadicNumber._from_scaled(p, u - w, total, min(min(digits, h + a - w) + u - w, claim))


def integrate(spec: MeasureSpec, f: BracketPower, target_stability: int,
              n_max: int) -> IntegrationResult:
    """p-adic limit of the Riemann sums: one level, and the digits a bound
    proves.

    With N0 = max(1, v_p(m)), m the modulus of f's character (1 without
    one), the level-N sum S_N (N >= N0) agrees with the limit to bound(N)
    digits: N for the fermionic measure, N - N0 for the bosonic one.  A
    target t is met at level N = max(N0, t) (fermionic) or t + N0
    (bosonic), and the result is S_N truncated to its stability,
    min(bound(N), digits S_N claims), in one integer pass that makes one
    PadicNumber (:func:`_residue_sum`).  ValueError when N > n_max, when t
    exceeds q's precision A (no sum claims more), when a bosonic normalizer
    [d p^N]_q vanishes at A, and when S_N claims fewer than t digits.

    Proofs.  p is odd and q = 1 mod p, so v_p([u]_q) = v_p(u).  Take
    N >= N0, M = d p^N and Q = q^M, so chi is periodic mod M.  The balls
    a + Mj (j < p) refine the ball a and mu_N(a) = sum_j mu_{N+1}(a + Mj),
    so S_{N+1} - S_N = sum_{a,j} (g(a + Mj) - g(a)) mu_{N+1}(a + Mj).

    Fermionic: the weights (-q)^b / [p M]_{-q} are units, and
    v_p([u]_q - [w]_q) = v_p(u - w) >= N, so every term, and so S_N - lim,
    has valuation >= N.

    Bosonic: the weights have valuation -(N + 1).  Telescope over the class
    g = chi(y) q^(ky) [x+y]^n (k, n >= 0) with [x+a+Mj] = [x+a] +
    q^(x+a) [M]_q [j]_Q, Q^(kj) - 1 = -(1 - q) [M]_q [kj]_Q and
    1/[p M]_q = 1/([M]_q [p]_Q).  By the binomial theorem each term is a
    p-integral factor times [M]_q S_N(g') for some g' in the class:
    sum_{j<p} Q^((k+1)j) [j]_Q and sum_j Q^j [kj]_Q are = 0 mod p and
    v_p([p]_Q) = 1, and in the higher terms the powers [M]_q^i pay for
    that 1/p.  One division by [d p^N0]_q gives v_p(S_N0(g)) >= -N0 on the
    class, induction keeps it at every N, and so v_p(S_{N+1} - S_N) >=
    N - N0.  The bound N fails here: the sums of [y]^5 at p = 3, q = 4 are
    exactly N - 1 from their limit.

    ``f`` must be a :class:`BracketPower` taken at the spec's q, and a
    twisted one a function on the domain (the p-free part of its table's
    modulus divides d).  Otherwise ValueError.
    """
    _check_integrand(spec, f)
    if spec.q.mode != "padic":
        raise ValueError("integration is a p-adic limit; q must be padic")
    p, d = spec.domain.p, spec.domain.d
    modulus, n0 = 1 if f.chi is None else len(f.chi), 0
    while modulus % p == 0:
        modulus, n0 = modulus // p, n0 + 1
    if d % modulus:
        raise ValueError(f"a character mod {len(f.chi)} is not a function on the "
                         f"domain: its {p}-free part {modulus} does not divide d = {d}")
    n0, target = max(1, n0), max(0, target_stability)
    bosonic = spec.kind == BOSONIC
    n = target + n0 if bosonic else max(n0, target)
    if n > n_max:
        raise ValueError(f"stability {target_stability} needs level {n}, "
                         f"past n_max = {n_max}")
    precision = spec.q.q_padic.prec
    if target > precision:
        raise ValueError(f"stability {target_stability} needs more digits than "
                         f"q's precision A = {precision}")
    try:   # the level-n riemann_sum, truncated to its bound
        value = _residue_sum(spec, f, range(spec.domain.level_size(n)), n - n0 if bosonic else n)
    except ZeroDivisionError:
        raise ValueError(f"stability {target_stability} not reached: the level-{n} "
                         f"normalizer vanishes at q's precision A = {precision}") from None
    if value.absolute_precision < target:
        raise ValueError(f"stability {target_stability} not reached: level {n} "
                         f"claims {value.absolute_precision} digits")
    return IntegrationResult(value, n, value.absolute_precision)


@dataclass(frozen=True)
class IntegrationResult:
    """A certified integral value: the level-n_used Riemann sum truncated to
    the stability, the digits proven to agree with the limit (see
    :func:`integrate`)."""

    value: PadicNumber
    n_used: int
    stability: int

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "N_used": self.n_used,
                "stability": self.stability}


# ---------------------------------------------------------------------------
# closed-form moment primitives
# ---------------------------------------------------------------------------

def bosonic_power_moment(i: int, q: QDescriptor):
    """Integral of q^(t*i) under the bosonic measure: (i+1)/[i+1]_q."""
    if i < 0:
        raise ValueError("moment index must be nonnegative")
    return q.from_rational(i + 1) / q.bracket(i + 1)


def fermionic_power_moment(i: int, q: QDescriptor):
    """Integral of q^(t*i) under the fermionic measure: [2]_q/(1 + q^(i+1))."""
    if i < 0:
        raise ValueError("moment index must be nonnegative")
    one = q.one()
    return (one + q.qpow(1)) / (one + q.qpow(i + 1))


# ---------------------------------------------------------------------------
# built-in integrand families
# ---------------------------------------------------------------------------

class BracketPower:
    """The integrand j -> chi(j) * [shift + j]^n.

    ``chi`` is a table of character values indexed by j modulo its length,
    or None for the untwisted power; its values must be 0 or +-1 in every
    mode (higher-order twists go through the closed form of ``k_chi``).
    Instances are immutable data, not callables: it is the one integrand
    type of :func:`riemann_sum` and :func:`integrate`, which read its fields
    as n + 1 geometric series in every reading of q.
    """

    __slots__ = ("q", "n", "shift", "chi")

    def __init__(self, q: QDescriptor, n: int, shift: Fraction | int = 0,
                 chi: tuple | None = None):
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        if chi is not None and any(v not in (0, 1, -1) for v in chi):
            raise ValueError(
                "twisted integrands need character values in {0, +-1}; "
                "higher-order twists are computed by the closed form of "
                "k_chi at symbolic or rational q")
        shift = Fraction(shift)
        if n:
            q.qpow(shift)  # raises unless q^shift lives in q's field
        for name, value in zip(self.__slots__, (q, n, shift, chi)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def bracket_power(q: QDescriptor, n: int, shift: Fraction | int = 0) -> BracketPower:
    """j -> [shift + j]^n.

    The result is a :class:`BracketPower`, which Riemann sums take as n + 1
    geometric series; at p-adic q in time logarithmic in the number of terms."""
    return BracketPower(q, n, shift)


def character_twisted_power(q: QDescriptor, n: int, chi) -> BracketPower:
    """j -> chi(j) * [j]^n; zero off the units of the character modulus."""
    table = tuple(character_value(chi, a) for a in range(chi.modulus))
    return BracketPower(q, n, chi=table)


def parse_integrand(text: str, q: QDescriptor) -> BracketPower:
    """Integrand selection by name: "one", "bracket_pow:n",
    "shifted_bracket_pow:n:x", "char_twisted:n:chi_id"."""
    parts = text.split(":")
    name = parts[0]
    try:
        if name == "one" and len(parts) == 1:
            return bracket_power(q, 0)
        if name == "bracket_pow" and len(parts) == 2:
            return bracket_power(q, int(parts[1]))
        if name == "shifted_bracket_pow" and len(parts) == 3:
            return bracket_power(q, int(parts[1]), Fraction(parts[2]))
        if name == "char_twisted" and len(parts) >= 3:
            chi = parse_character_id(":".join(parts[2:]))
            return character_twisted_power(q, int(parts[1]), chi)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad integrand spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown integrand spec {text!r}")
