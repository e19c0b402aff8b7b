"""q-deformed measures on profinite domains, Riemann sums and integration.

Two measures are implemented: the *bosonic* one with ball weights
``q^a / [d p^N]_q`` (its moments are the q-Bernoulli numbers) and the
*fermionic* one with weights ``(-q)^a / [d p^N]_{-q}`` (its moments are the
q-Euler-type numbers).  The integral is the p-adic limit of the associated
Riemann sums; :func:`integrate` sums the one level at which a proven bound
on the distance to the limit reaches the target, and claims those digits.

The deformation parameter ``q`` is carried by a :class:`QDescriptor`, which
supports three readings: symbolic (a rational function of a D-th root of q),
exact rational, and truncated p-adic.  A measure (:class:`MeasureSpec`)
holds q, and an integrand (:class:`BracketPower`) is summed at that q.

Every closed form of the package (the number and polynomial families, the
twisted sums, the ball measures and the level-N Riemann sums) is one call
of :func:`geometric_sum` or :func:`ball_measure_sum`.  At symbolic and
rational q that is one call of the kernel :func:`binomial_fraction_sum`,
which runs on plain ints, takes int coefficients, int powers of w (w^D =
q) and binomials 1 + s w^e with e > 0 only, and makes one value of the
reading's field at the end; at p-adic q one integer pass
(:func:`_residue_sum`) that claims the digits its docstring proves.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import (InputError, Polynomial, RationalFunction, RootOrderMismatch,
                      ZeroAtPrecisionError, _divisors, _unpack, reduce_cyclotomic_fraction)
from .characters import DirichletCharacter, character_value, parse_character_id
from .padic import (PadicNumber, ProfiniteDomain, _int_valuation, _unit_inverse,
                    ball_representatives, padic_from_rational)


# ---------------------------------------------------------------------------
# the three readings of q
# ---------------------------------------------------------------------------

_MODES = {type(None): "symbolic", Fraction: "rational", PadicNumber: "padic"}


class QDescriptor(namedtuple("QDescriptor", "root_order value")):
    """One of the three readings of the deformation parameter, named by the
    type of its value: None for symbolic q, whose values live in the
    rational-function field with root order D (w**D = q); a Fraction for an
    exact rational q != 1; a PadicNumber for a truncated p-adic q with
    v_p(q - 1) >= 1 and q != 1 at its precision (both at root order 1).

    A descriptor is an immutable named tuple of its fields, so it compares
    and hashes by value (a p-adic q by its (p, v, unit, prec)), and equal
    readings built separately share the closed-value cache of
    :mod:`qnumbers`.

    >>> QDescriptor.rational(Fraction(2, 5)) == QDescriptor.rational(Fraction(4, 10))
    True
    >>> QDescriptor.symbolic(1) == QDescriptor.symbolic(2)
    False
    """

    __slots__ = ()

    def __new__(cls, root_order: int = 1, value: Fraction | PadicNumber | None = None):
        mode = _MODES.get(type(value))
        if mode is None:
            raise ValueError(f"q is None, a Fraction or a PadicNumber, got {value!r}")
        if mode == "symbolic":
            if root_order < 1:
                raise InputError("root order must be >= 1")
        elif root_order != 1:
            raise ValueError(f"{mode} q has root order 1, got {root_order}")
        if mode == "rational" and value == 1:
            raise InputError("rational q must be an exact rational != 1")
        if mode == "padic":
            q_minus_1 = value - 1
            if q_minus_1.valuation < 1:
                raise InputError(
                    f"inadmissible p-adic q: v_{value.p}(q - 1) must be >= 1")
            if q_minus_1.is_zero_at_precision:
                raise InputError("p-adic q must differ from 1 at its precision, "
                                 f"got q - 1 = {q_minus_1!r}")
        return super().__new__(cls, root_order, value)

    @classmethod
    def symbolic(cls, root_order: int = 1) -> QDescriptor:
        return cls(root_order)

    @classmethod
    def rational(cls, q: Fraction | int) -> QDescriptor:
        return cls(1, Fraction(q))

    @classmethod
    def padic(cls, q: PadicNumber) -> QDescriptor:
        return cls(1, q)

    @property
    def mode(self) -> str:
        """The reading that the value's type names: symbolic, rational or padic."""
        return _MODES[type(self.value)]

    @property
    def prime(self) -> int:
        """The prime of a p-adic q.  Integration over Z_p reads it, so any
        other reading is refused here as having no p-adic limit."""
        if self.mode != "padic":
            raise InputError("integration is a p-adic limit; q must be padic")
        return self.value.p

    # -- field plumbing -------------------------------------------------------

    def one(self):
        return self.from_rational(1)

    def from_rational(self, r: Fraction | int):
        if self.value is None:
            return RationalFunction.constant(r, self.root_order)
        if self.mode == "rational":
            return Fraction(r)
        return padic_from_rational(r, self.value.p, self.value.prec)

    def w_exponent(self, exponent: Fraction | int) -> int:
        """The power of w realizing q**exponent, w**D = q with D the root
        order: 1 at rational and p-adic q, whose fields hold no fractional
        q-power (InputError there, RootOrderMismatch at symbolic q)."""
        if isinstance(exponent, int):
            return exponent * self.root_order
        den = exponent.denominator
        if self.root_order % den:
            if self.value is not None:
                raise InputError(
                    f"fractional power q^{exponent} is not available in {self.mode} mode")
            raise RootOrderMismatch(
                f"power q^{exponent} needs root order divisible by {den}, "
                f"have {self.root_order}")
        return exponent.numerator * (self.root_order // den)

    def qpow(self, exponent: Fraction | int):
        """q ** exponent: w ** :meth:`w_exponent` in every reading."""
        if self.value is None:
            return RationalFunction.w_power(self.w_exponent(exponent), self.root_order)
        return self.value ** self.w_exponent(exponent)

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
        if self.value is None:
            core = f"symbolic D={self.root_order}"
        elif self.mode == "rational":
            core = f"q={self.value}"
        else:
            core = f"padic {self.value!r}"
        return f"QDescriptor({core})"


def binomial_fraction_sum(q: QDescriptor, numerators: list[dict], sign: int,
                          step: int, prefactor=(), reduced: dict[int, int] | None = None):
    """prod (1 + s w^e)^pw * sum_k numerators[k] / (1 + sign w^(step (k+1))),
    with w^D = q, D the root order (w = q at rational q).

    ``numerators[k]`` maps powers of w to int coefficients, and
    ``prefactor`` lists the (s, e, pw) factors.  ``reduced``, read at
    symbolic q only, is the Phi-map {d: e} in q of the reduced value when a
    theorem predicts it, with no power of w; the sum must then run in u = q
    (see :class:`_SymbolicReading`).  Every closed form of the
    package has this shape, a level-N Riemann sum included
    (:func:`riemann_sum`), and its denominators are products of cyclotomic
    polynomials in w.  The contract is what :func:`geometric_sum` and
    :func:`ball_measure_sum` pass at symbolic and rational q, as at p-adic
    q :func:`_residue_sum` takes its x: int exponents of w, negative ones
    included, and int coefficients; a step and prefactor exponents that are
    ints > 0, else ValueError.  The builders convert each power of q to its
    power of w once, so none of the three readings converts.

    >>> print(binomial_fraction_sum(QDescriptor.symbolic(2), [{1: 1}], -1, 2))
    (-w)/(-1 + w^2)
    >>> binomial_fraction_sum(QDescriptor.rational(2), [{Fraction(1, 2): 1}], 1, 1)
    Traceback (most recent call last):
    ValueError: the kernel needs numerators, int coefficients and exponents, binomial exponents > 0
    >>> binomial_fraction_sum(QDescriptor.padic(padic_from_rational(6, 5, 8)), [{0: 1}], 1, 1)
    Traceback (most recent call last):
    ValueError: the kernel reads symbolic and rational q only

    One Horner loop serves both readings: with d_k = 1 + sign w^(step
    (k+1)), total <- total d_k + c_k den and den <- den d_k; then positive
    prefactor powers multiply total, and negative ones join the final
    division.  Each reading (:class:`_SymbolicReading`,
    :class:`_RationalReading`) gives the binomial d, "times a binomial",
    "add c w^e den" (told the binomial just multiplied in) and the final
    division on plain ints from total = 0 and den = 1, and makes one reduced
    rational function or Fraction.  At symbolic q it runs in the coarsest u
    = w^g in which every divisor is a binomial, and multiplies in the
    positive prefactors outside u, then the offset w^r, after its one
    reduction by :func:`reduce_cyclotomic_fraction`: a screen for the Phi_d
    that cancel, or, passed ``reduced``, one exact division by those the
    prediction says cancel, ArithmeticError if they do not divide the sum
    (a wrong prediction is a bug).  A rational q raises ZeroDivisionError
    where a binomial vanishes at q, and at q = 0 with a negative exponent.
    """
    mode = q.mode   # a property: read once
    if mode == "padic":
        raise ValueError("the kernel reads symbolic and rational q only")
    binomials = [step] + [e for _, e, _ in prefactor]
    if not numerators or not all(isinstance(e, int) and e > 0 for e in binomials) or not all(
            isinstance(e, int) and isinstance(c, int) for num in numerators
            for e, c in num.items()):
        raise ValueError(
            "the kernel needs numerators, int coefficients and exponents, binomial exponents > 0")
    reading = _READINGS[mode](q, numerators, step, prefactor, reduced)
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


class _RationalReading:
    """The kernel's primitives at rational q = w = a/b (lowest terms, b >
    0): plain ints, and one Fraction at the end; ZeroDivisionError for q =
    0 to a negative power.

    A binomial 1 + s q^e (e > 0) is (b^e + s a^e) / b^e; it is kept as its
    integer numerator and its exponent, and "times a binomial" multiplies
    by the numerator alone.  total and den take the same binomials in the
    loop, so the dropped denominators b^e cancel in their ratio, provided
    each added term c q^e den is multiplied by the b^e of the binomial just
    multiplied in, and by one common S = a^low b^top (top the largest
    exponent and low the largest negated one, both at least 0), which makes
    c q^e S the integer c a^(e+low) b^(top-e).  The dropped b^e of the
    prefactors are counted as a net power of b, and go into the final
    Fraction with S.
    """

    def __init__(self, q: QDescriptor, numerators: list[dict], step, prefactor, reduced):
        # a Fraction reduces itself, so the predicted Phi-map is not read
        self.a, self.b = q.value.numerator, q.value.denominator
        exponents = [e for num in numerators for e, c in num.items() if c]
        self.top = max([0] + exponents)
        self.low = max([0] + [-e for e in exponents])
        if self.low and not self.a:
            raise ZeroDivisionError(f"q = 0 to the power {next(e for e in exponents if e < 0)}")
        self.net_b = 0   # the dropped b^e, as a power of b

    def binomial(self, s: int, e: int) -> tuple[int, int]:
        return self.b ** e + s * self.a ** e, e

    def times(self, x: int, b: tuple[int, int], power: int = 1) -> int:
        self.net_b += b[1] * power
        return x * b[0] ** power

    def den_times(self, den: int, b: tuple[int, int]) -> int:
        self.net_b -= b[1]
        return den * b[0]

    def add_terms(self, total: int, num: dict, den: int, d: tuple[int, int]) -> int:
        """total + c q^e S b^e' den (e' the exponent of d), the sum over the
        terms c q^e S in one homogeneous Horner sum from the highest
        exponent down."""
        terms = sorted(((e, c) for e, c in num.items() if c), reverse=True)
        if not terms:
            return total
        a, b = self.a, self.b
        first = last = terms[0][0]
        acc, b_pow = 0, 1   # b_pow = b^(first - e)
        for e, c in terms:
            gap = last - e
            b_pow *= b ** gap
            acc = acc * a ** gap + c * b_pow
            last = e
        return total + acc * a ** (last + self.low) * b ** (self.top - first + d[1]) * den

    def divide(self, total: int, den: int, divisors) -> Fraction:
        for (b, e), m in divisors:
            self.net_b -= e * m
            den *= b ** m
        k = self.top + self.net_b   # S and the dropped b^e
        return Fraction(total * self.b ** max(-k, 0),
                        den * self.a ** self.low * self.b ** max(k, 0))


class _SymbolicReading:
    """The kernel's primitives at symbolic q, in the coarsest variable u =
    w^g in which every divisor is a binomial: g is the gcd of the step, the
    prefactor divisors' exponents and every numerator exponent less m, the
    least one, all powers of w.  The sum is w^r u^-low (r = m mod g, low =
    max(0, (r - m)/g)) times integer polynomials in u, each one int sum c_i
    X^i at X = 2^B.  A binomial is (s, j), j > 0 the w-exponent: "times a
    binomial" is x + s (x << jB/g), "add c w^e den" is c den << iB.  A
    binomial at most doubles the l1 norm, so B (a multiple of 8) keeps
    2^(K + P) times that of the numerators below X/2 (K of them, P the
    positive prefactor powers).  den's binomials and the prefactor divisors
    make one Phi-map in u (and a sign) for the one reduction, then
    substituted u = w^g.  Only a positive prefactor outside u is deferred,
    a product after that, and w^r comes last: a power of w cancels no Phi_d
    (at g = 1 nothing is deferred and r = 0).  The reduction is one
    :func:`reduce_cyclotomic_fraction` call, handed ``reduced`` (predicted
    in u = q, so g = D) to divide once in place of its screen."""

    def __init__(self, q: QDescriptor, numerators: list[dict], step, prefactor, reduced):
        terms = [(e, c) for num in numerators for e, c in num.items() if c]
        m = min((e for e, _ in terms), default=0)
        self.g = math.gcd(step, *(e - m for e, _ in terms),
                          *(e for _, e, power in prefactor if power < 0))
        if reduced is not None and self.g != q.root_order:
            raise ValueError("a predicted Phi-map needs the sum to run in u = q")
        self.r, self.low = m % self.g, max(0, -(m // self.g))
        self.q, self.phis, self.sign, self.deferred, self.reduced = q, {}, 1, [], reduced
        l1 = sum(abs(c) for _, c in terms)
        doublings = len(numerators) + sum(power for _, _, power in prefactor if power > 0)
        self.bits = 8 * ((l1 << doublings).bit_length() // 8 + 1)
        self.shifts = {e: ((e - self.r) // self.g + self.low) * self.bits for e, _ in terms}

    def _record(self, b: tuple[int, int], power: int) -> None:
        # 1 - u^j = -prod_{d|j} Phi_d, 1 + u^j = prod_{d|2j, d not|j} Phi_d
        s, j = b[0], b[1] // self.g
        self.sign *= s ** power
        for d in _divisors(j if s == -1 else 2 * j):
            if s == -1 or j % d:
                self.phis[d] = self.phis.get(d, 0) + power

    def binomial(self, s: int, e: int) -> tuple[int, int]:
        return s, e

    def times(self, x: int, b: tuple[int, int], power: int = 1) -> int:
        if b[1] % self.g:
            self.deferred.append((b, power))
            return x
        jb = b[1] // self.g * self.bits
        for _ in range(power):
            x = x + (x << jb) if b[0] > 0 else x - (x << jb)
        return x

    def den_times(self, den: int, b: tuple[int, int]) -> int:
        self._record(b, 1)
        return self.times(den, b)

    def add_terms(self, total: int, num: dict, den: int, d: tuple[int, int]) -> int:
        for e, c in num.items():
            if c:
                total += c * den << self.shifts[e]
        return total

    def divide(self, total: int, den, divisors) -> RationalFunction:
        for b, m in divisors:
            self._record(b, m)
        ints = _unpack(self.sign * total, self.bits // 8, abs(total).bit_length() // self.bits + 2)
        f = reduce_cyclotomic_fraction(Polynomial._make(ints, 1), self.phis, self.q.root_order,
                                       self.low, self.reduced).substitute(self.g)
        for (s, j), power in self.deferred:
            b = Polynomial._make((1,) + (0,) * (j - 1) + (s,), 1)
            f = f * RationalFunction._make(b, 0, (), self.q.root_order) ** power
        return f * RationalFunction.w_power(self.r, self.q.root_order) if self.r else f


_READINGS = {"symbolic": _SymbolicReading, "rational": _RationalReading}


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

BOSONIC = "bosonic"
FERMIONIC = "fermionic"


class MeasureSpec(namedtuple("MeasureSpec", "kind q domain")):
    """A q-deformed measure (bosonic or fermionic) over a profinite domain."""

    __slots__ = ()

    def __new__(cls, kind: str, q: QDescriptor, domain: ProfiniteDomain):
        if kind not in (BOSONIC, FERMIONIC):
            raise ValueError(f"unknown measure kind {kind!r}")
        if kind == FERMIONIC and domain.d % 2 == 0:
            raise InputError("the fermionic measure needs an odd d")
        if q.mode == "padic" and q.prime != domain.p:
            raise ValueError(f"a {q.prime}-adic q cannot measure a "
                             f"domain over p = {domain.p}")
        return super().__new__(cls, kind, q, domain)

    def level_norm(self, n: int):
        """[d p^n] at q (bosonic) or -q (fermionic): the normalizer of level n."""
        size = self.domain.level_size(n)
        if self.kind == BOSONIC:
            return self.q.bracket(size)
        return self.q.minus_bracket(size)


def ball_measure_sum(spec: MeasureSpec, reps, n: int):
    """Sum of ball measures over the given int level-n representatives: the
    signed power sum over the level normalizer (1 -+ q^(d p^n)) / (1 -+ q),
    one kernel call in powers of w (q^a is w^(a D)).  At symbolic q its
    cost follows the representatives' spread, not d p^n: the p children of
    a ball are p terms over 1 -+ u^p in u = q^(d p^(n-1)), and one ball one
    term over 1 -+ u in u = q^(d p^n).
    At p-adic q the sum S = sum c_a Q^a, known mod p^(A + v_p(gcd c_a)),
    takes the level pass's normalizer division (:func:`_over_normaliser`)."""
    size, root = spec.domain.level_size(n), spec.q.root_order
    fermionic = spec.kind == FERMIONIC
    coeffs: dict[int, int] = {}   # keyed by a D, the power of w of q^a (D = 1 at p-adic q)
    for a in reps:
        if not isinstance(a, int) or not 0 <= a < size:
            raise ValueError(f"representative {a!r} out of range [0, {size})")
        coeffs[a * root] = coeffs.get(a * root, 0) + (-1 if fermionic and a % 2 else 1)
    if spec.q.mode == "padic":
        q, g = spec.q.value, math.gcd(*coeffs.values())
        digits = q.prec + _int_valuation(g, q.p) if g else math.inf
        mod = q.p ** (digits if g else 1)
        total = sum(c * pow(q.unit, a, mod) for a, c in coeffs.items())
        r_k = pow(-q.unit if fermionic else q.unit, size, q.p ** q.prec)
        return _over_normaliser(spec.q, fermionic, r_k, total, 1, digits, 0)
    sign = 1 if fermionic else -1
    return binomial_fraction_sum(spec.q, [coeffs], sign, size * root, [(sign, root, 1)])


def geometric_sum(q: QDescriptor, kind: str, n: int, x: Fraction | int,
                  weights: tuple[int, ...], level: int | None = None):
    """sum_j weights[j] [x+j]^n against the measure of that kind, the table
    read periodically: over range(level) with its normalizer, or the p-adic
    limit of those sums when ``level`` is None: one kernel call at symbolic
    and rational q, one residue pass (:func:`_residue_sum`) at p-adic q,
    behind every closed form of :mod:`qnumbers` and every :func:`riemann_sum`.
    An empty table raises one ValueError before any reading is chosen.

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
    term, under (-1, 1, 1 - n).  All three readings take powers of w: x,
    read for n >= 1 only, is one w_exponent call (refusing a fractional
    power as qpow does) before the reading is chosen; the rest scale by D.

    The untwisted limits at x = 0, K_n and beta_n, reduce without a screen
    at symbolic q, any root order: two theorems give their reduced Phi-maps
    in q, which the kernel passes on as ``reduced``.  K_n = (1 + q)(1 - q)^-n
    sum_k C(n,k) (-1)^k / (1 + q^(k+1)) keeps Phi_2d for 2 <= d <= n+1, and
    beta_n = (1 - q)^(1-n) sum_k C(n,k) (-1)^k (k+1) / (1 - q^(k+1)) keeps
    Phi_d for 2 <= d <= n+1 with T(n, d) = sum_(k = -1 mod d) (-1)^k C(n,k)
    != 0; each to the power 1, and neither keeps a power of w.  Proof
    sketch: every term has simple poles at roots of unity only.  At zeta of
    order 2d (d >= 1) the K terms with a pole are those with k + 1 an odd
    multiple of d, each of residue C(n,k) (-1)^k (-zeta)/(k + 1) =
    (-1)^(d-1) C(n+1, k+1) (-zeta)/(n + 1): all of one sign, so no sum of
    them vanishes; at d = 1 the factor 1 + q cancels it, and an odd order
    has no pole.  At zeta of order d >= 2 the beta terms with a pole are
    those with d | k + 1, each of residue C(n,k) (-1)^k (-zeta), which add
    to -zeta T(n, d).  At q = 1 neither has a pole: with q = e^t the K
    sum is sum_k C(n,k) (-1)^k F((k+1)t) and the beta sum t^-1 times that
    of G((k+1)t), F(s) = 1/(1 + e^s) and G(s) = s/(1 - e^s) analytic at 0,
    and the n-th difference sum_k C(n,k) (-1)^k (k+1)^i vanishes for i < n,
    so the sums are O(t^n) and O(t^(n-1)).  Degree: the k = 0 term
    dominates at q = oo, so both values behave like (-1)^n q^-n there, and
    the reduced numerator's degree in q is the denominator's less n.
    """
    if not weights:
        raise ValueError("a weight table needs at least one value")
    if level is None and kind == FERMIONIC and len(weights) % 2 == 0:
        raise InputError(f"the fermionic limit needs an odd period, got {len(weights)}")
    x, root = q.w_exponent(x) if n else 0, q.root_order
    if q.mode == "padic":
        return _residue_sum(q, kind, n, x, weights, level)
    r, l = -1 if kind == FERMIONIC else 1, len(weights)
    moments = level is None and r == 1   # the bosonic limit's factor k + 1
    blocks = [(0, 1)] if level is None else [(0, 1), (level, -1)]
    terms = [(j * root, s * weights[j % l] * r ** j) for start, s in blocks
             for j in range(start, start + l) if weights[j % l]]
    row = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    reduced = None
    if q.mode == "symbolic" and level is None and x == 0 and weights == (1,):
        reduced = ({2 * d: 1 for d in range(2, n + 2)} if r == -1 else
                   {d: 1 for d in range(2, n + 2) if sum(row[d - 1::d])})
    numerators = []
    for k in range(n + 1):
        c, num = row[k] * (k + 1 if moments else 1), {}
        for j, w in terms:
            e = x * k + j * (k + 1)
            num[e] = num.get(e, 0) + c * w
        numerators.append(num)
    if level is not None:
        prefactor = [(-1, root, -n), (-r, root, 1), (-r ** level, level * root, -1)]
    else:
        prefactor = [(1, root, 1), (-1, root, -n)] if r == -1 else [(-1, root, 1 - n)]
    return binomial_fraction_sum(q, numerators, -r ** l, l * root, prefactor, reduced)


def riemann_sum(spec: MeasureSpec, f: BracketPower, n: int):
    """The level-n Riemann sum: sum over ball representatives j of
    chi(j) [x+j]^n (r q)^j, normalized by [K] at r q (r = -1 fermionic, else
    1; K = d p^n), at the spec's q, with chi f's table read periodically
    ((1,) untwisted) and x its shift.

    ``f`` must be a :class:`BracketPower`; anything else raises ValueError.
    The sum is one :func:`geometric_sum` at level K in every reading of q,
    exact to the digits it claims at p-adic q; at symbolic q with f.n >= 1
    at root order lcm(D, b), D the spec's and b the shift's denominator (a
    fractional shift is refused at rational and p-adic q).  At rational q =
    -1 a divisor 1 - rho^l can vanish: a bosonic sum over an odd K (where
    [K] = 1) is the symbolic sum at w = -1, and the normalizer vanishes
    (even K) or is 0/0 (fermionic): ZeroDivisionError.
    """
    _check_integrand(f)
    size = ball_representatives(spec.domain, n).stop
    q = spec.q
    if q.value is None and f.n:
        q = QDescriptor.symbolic(math.lcm(q.root_order, f.shift.denominator))
    elif q.value == -1 and spec.kind == BOSONIC and size % 2:
        x = q.w_exponent(f.shift) if f.n else 0   # refuses a fractional shift
        return geometric_sum(QDescriptor.symbolic(), BOSONIC, f.n, x, f.chi, size).evaluate(-1)
    return geometric_sum(q, spec.kind, f.n, f.shift, f.chi, size)


def _check_integrand(f) -> None:
    if not isinstance(f, BracketPower):
        raise ValueError(f"the integrand must be a BracketPower, got {type(f).__name__}")


def _residue_sum(q: QDescriptor, kind: str, n: int, x: int,
                 weights: tuple[int, ...], level: int | None = None, claim=math.inf):
    """:func:`geometric_sum` at p-adic q in plain ints: sum_j weights[j]
    [x+j]^n (r q)^j over j < level (r = -1 fermionic, else 1) times (1 - r
    q) / (1 - (r q)^level) to at most ``claim`` digits, or its p-adic limit
    when ``level`` is None; x is the shift as an int power of w = q.

    With Q the integer unit of q, A its precision, t = v_p(1 - Q), l =
    len(weights), rho_k = r Q^(k+1) and level = M l + e, the sum is (1 -
    Q)^-n sum_k C(n,k) (-Q^x)^k G_k, G_k = (V_k (1 - rho_k^(lM)) +
    rho_k^(lM) E_k (1 - rho_k^l)) / (1 - rho_k^l), V_k and E_k the signed
    sums of rho_k^j over the first l and the first e indices.  The limit
    takes (1 - r Q) V_k / (1 - rho_k^l) for (1 - r Q) G_k / (1 - (r Q)^level),
    times k + 1 if bosonic (:func:`geometric_sum`, which refuses a fermionic
    one with l even).  That is O(n l + log M) modular operations.

    Exactness.  By lifting the exponent (p odd, t >= 1), w_k = v_p(1 -
    rho_k^l) is t + v_p(l (k+1)), or 0 for a fermionic sum with l odd.  Each
    term is p^-s times a multiple of p^(w_k) over 1 - rho_k^l: G_k (1 -
    rho_k^l) at a level (G_k is a p-adic integer), (1 + Q) V_k in the
    fermionic limit, with s = 0, and p^s (k+1) (1 - Q) V_k in the bosonic
    one, s = v_p(l).  Work mod p^(W + max_k w_k), W = m + n t + s, m the
    digits computed: stripped of p^(w_k) the denominator is a unit and the
    term known mod p^W.  Over one unit denominator and times ((1 - Q) /
    p^t)^-n, the k-sum is p^(n t + s) times the value, so known to m digits.

    Claims.  A level sum is known to m = A - t digits for n >= 1, as [x+j]
    is, and to m = A for n = 0; over its normalizer it is truncated as
    PadicNumber's / and + zero_at_precision do (:func:`_over_normaliser`).
    The fermionic limit claims the same m: the level-N sums claim m (their
    normalizer is a unit) and are within p^N of the limit
    (:func:`integrate`), so at N >= m the limits at Q and at any q' = Q mod
    p^A agree to m digits.  The bosonic limit is N(Q) / ((1 - Q)^n D(Q)), N
    in Z[Q^(+-1)] and D = prod_{k<=n} [l(k+1)]_Q of valuation d = sum_k
    v_p(l (k+1)).  At Q = e^h, N / D is (1 - e^h) / h times the n-th
    difference sum_k C(n,k) (-1)^k psi(h k) of psi(s) = e^(x s) phi(s + h),
    phi(s) = s sum_j w_j e^(j s) / (1 - e^(l s)) analytic at 0, so O(h^n):
    (1 - Q)^n divides N, over Z as 1 - Q is monic.  The quotient P and D
    move by p^A when Q does, so P / D moves by p^(A - d + min(0, v)), v its
    valuation: m = A - d, claimed m + min(0, v).
    """
    p, big_q, a = q.value.p, q.value.unit, q.value.prec
    fermionic, size = kind == FERMIONIC, len(weights)
    t = _int_valuation(1 - big_q, p)
    w = ([0] * (n + 1) if fermionic and size % 2 else
         [t + _int_valuation(size * (k + 1), p) for k in range(n + 1)])
    moments = level is None and not fermionic   # the bosonic limit's factor k + 1
    lift = _int_valuation(size, p) if moments else 0
    digits = a - sum(w) + (n + 1) * t if moments else a - t if n else a
    width = max(1, digits + n * t + lift)   # the k-sum is needed mod p^width
    known, mod = p ** width, p ** (width + max(w))
    # rho_k^j for j = 1, l and l M; the next k multiplies by Q^j
    count, extra = divmod(level or 0, size)
    exponents = (1, size, size * count)
    q_powers = [pow(big_q, j, mod) for j in exponents]
    rho_powers = [-y if fermionic and j % 2 else y for y, j in zip(q_powers, exponents)]
    r_q = rho_powers[0]
    r_k = rho_powers[2] * pow(r_q, extra, mod)   # (r Q)^level
    minus_q_x, factor, top, bottom = -pow(big_q, x, mod), 1, 0, 1
    for k, strip in enumerate([p ** y for y in w]):
        rho, rho_l, rho_lm = rho_powers
        v, e, weight = 0, 0, 1
        for c, s in enumerate(weights):
            if c == extra:
                e = v
            v += s * weight
            weight = weight * rho % mod
        num = (v * (1 - rho_lm) + rho_lm * e * (1 - rho_l) if level is not None
               else v * (1 - r_q) * ((k + 1) * p ** lift if moments else 1))
        den = (1 - rho_l) % mod // strip
        # top / bottom += C(n,k) (-Q^x)^k G_k, over a unit bottom
        top = (top * den + math.comb(n, k) * factor * (num % mod // strip) * bottom) % known
        bottom = bottom * den % known
        factor = factor * minus_q_x % known
        rho_powers = [y * z % mod for y, z in zip(rho_powers, q_powers)]
    bottom = bottom * pow((1 - big_q) // p ** t, n, known) % known
    if level is not None:
        return _over_normaliser(q, fermionic, r_k, top, bottom, digits, n * t, claim)
    total = top * _unit_inverse(bottom, p, width) % known
    scale = -n * t - lift
    v = scale + (_int_valuation(total, p) if total else width)
    return PadicNumber._from_scaled(p, scale, total, digits + min(0, v))


def _over_normaliser(q: QDescriptor, fermionic: bool, r_k: int, top: int, bottom: int,
                     digits, shift: int, claim=math.inf):
    """S (1 - r q) / (1 - r_k), r_k = (r q)^K mod p^A, from top / bottom =
    p^shift S mod p^(digits + shift), truncated as PadicNumber's / and +
    zero_at_precision do and to ``claim``: to min(m, h + A - w) + u - w
    digits, h, w, u the valuations of S (m if 0), 1 - r_k and 1 - r q, m =
    min(digits, A + w) (0 times 1 - r_k is zero at A + w).
    ZeroAtPrecisionError if w >= A."""
    p, big_q, a = q.value.p, q.value.unit, q.value.prec
    norm = (1 - r_k) % p ** a
    if not norm:
        raise ZeroAtPrecisionError("division by zero-at-precision")
    u, w = 0 if fermionic else _int_valuation(1 - big_q, p), _int_valuation(norm, p)
    digits = min(digits, a + w)
    known = p ** (digits + shift)
    top *= (1 + big_q if fermionic else 1 - big_q) // p ** u
    total = top * _unit_inverse(bottom * (norm // p ** w) % known, p, digits + shift) % known
    total //= p ** shift
    h = _int_valuation(total, p) if total else digits
    return PadicNumber._from_scaled(p, u - w, total, min(min(digits, h + a - w) + u - w, claim))


def integrate(spec: MeasureSpec, f: BracketPower, stability: int,
              n_max: int) -> IntegrationResult:
    """p-adic limit of the Riemann sums: one level, and the digits a bound
    proves.

    With N0 = max(1, v_p(m)), m the length of f's table (1 untwisted),
    the level-N sum S_N (N >= N0) agrees with the limit to bound(N)
    digits: N for the fermionic measure, N - N0 for the bosonic one.  A
    ``stability`` t is met at level N = max(N0, t) (fermionic) or t + N0
    (bosonic), and the result is S_N truncated to its stability,
    min(bound(N), digits S_N claims): :func:`_residue_sum` at level N, with
    claim bound(N) and q^shift as one power of w.  InputError for t < 0, a
    non-padic q (:attr:`QDescriptor.prime` refuses it), N > n_max, t past
    q's precision A (no sum claims more), a bosonic normalizer [d p^N]_q
    vanishing at A, and S_N claiming fewer than t digits.

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

    ``f`` must be a :class:`BracketPower` (else ValueError), with q^shift
    in q's field and a twisted one a function on the domain (the p-free part
    of its table's length divides d; else InputError).
    """
    _check_integrand(f)
    if stability < 0:
        raise InputError(f"stability must be nonnegative, got {stability}")
    p, d = spec.q.prime, spec.domain.d   # the spec checked it is the domain's p
    modulus = len(f.chi)
    n0 = _int_valuation(modulus, p)
    modulus //= p ** n0
    if d % modulus:
        raise InputError(f"a character mod {len(f.chi)} is not a function on the "
                         f"domain: its {p}-free part {modulus} does not divide d = {d}")
    n0 = max(1, n0)
    bosonic = spec.kind == BOSONIC
    n = stability + n0 if bosonic else max(n0, stability)
    if n > n_max:
        raise InputError(f"stability {stability} needs level {n}, past n_max = {n_max}")
    precision = spec.q.value.prec
    if stability > precision:
        raise InputError(f"stability {stability} needs more digits than "
                         f"q's precision A = {precision}")
    x = spec.q.w_exponent(f.shift) if f.n else 0
    try:   # the level-n riemann_sum, truncated to its bound
        value = _residue_sum(spec.q, spec.kind, f.n, x, f.chi,
                             spec.domain.level_size(n), n - n0 if bosonic else n)
    except ZeroDivisionError:
        raise InputError(f"stability {stability} not reached: the level-{n} "
                         f"normalizer vanishes at q's precision A = {precision}") from None
    if value.absolute_precision < stability:
        raise InputError(f"stability {stability} not reached: level {n} "
                         f"claims {value.absolute_precision} digits")
    return IntegrationResult(value, n)


class IntegrationResult(namedtuple("IntegrationResult", "value n_used")):
    """A certified integral value: the level-n_used Riemann sum truncated to
    its stability, the digits proven to agree with the limit (see
    :func:`integrate`)."""

    __slots__ = ()

    @property
    def stability(self) -> int:
        return self.value.absolute_precision

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

class BracketPower(namedtuple("BracketPower", "n shift chi")):
    """The integrand j -> chi(j) * [shift + j]^n, at the q of the measure
    that sums it.

    ``chi`` is a nonempty table of character values indexed by j modulo
    its length, (1,) for the untwisted power; its values must be 0 or +-1
    in every mode (higher-order twists go through the closed form of
    ``k_chi``), and are stored as ints, the kernel's coefficients.
    Instances are immutable named tuples, not callables: it is the one
    integrand type of :func:`riemann_sum` and :func:`integrate`, which read
    its fields as n + 1 geometric series in every reading of q.
    """

    __slots__ = ()

    def __new__(cls, n: int, shift: Fraction | int = 0, chi: tuple = (1,)):
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        if not chi:
            raise ValueError("a character table needs at least one value")
        if not all(map((0, 1, -1).__contains__, chi)):
            raise InputError(
                "twisted integrands need character values in {0, +-1}; "
                "higher-order twists are computed by the closed form of "
                "k_chi at symbolic or rational q")
        return super().__new__(cls, n, Fraction(shift), tuple(map(int, chi)))


def bracket_power(q: QDescriptor, n: int, shift: Fraction | int = 0,
                  chi: DirichletCharacter | None = None) -> BracketPower:
    """j -> chi(j) [shift + j]^n, the Dirichlet character chi (None:
    untwisted) read as its table of values mod its modulus; refused unless
    q^shift lives in q's field (n >= 1).

    The result is a :class:`BracketPower`, which Riemann sums take as n + 1
    geometric series; at p-adic q in time logarithmic in the number of terms."""
    table = (1,) if chi is None else tuple(character_value(chi, a) for a in range(chi.modulus))
    f = BracketPower(n, shift, table)
    if n:
        q.w_exponent(f.shift)
    return f


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
            return bracket_power(q, int(parts[1]), 0, chi)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad integrand spec {text!r}: {exc}") from exc
    raise InputError(f"unknown integrand spec {text!r}")
