"""q-deformed measures on profinite domains, Riemann sums and integration.

Two measures are implemented: the *bosonic* one with ball weights
``q^a / [d p^N]_q`` (its moments are the q-Bernoulli numbers) and the
*fermionic* one with weights ``(-q)^a / [d p^N]_{-q}`` (its moments are the
q-Euler-type numbers).  The integral is the p-adic limit of the associated
Riemann sums; the engine certifies convergence with the Cauchy criterion
v_p(S_N - S_{N-1}).

The deformation parameter ``q`` is carried by a :class:`QDescriptor`, which
supports three readings: symbolic (a rational function of a D-th root of q),
exact rational, and truncated p-adic.  A descriptor may also represent a
power ``q^s`` of the base parameter; fractional arguments such as ``a/f``
against base ``q^f`` then reduce to integer powers of ``q``.

Every closed form of the package (the number and polynomial families, the
twisted sums, the level-N fermionic sums and the ball measures) is built
from calls of :func:`binomial_fraction_sum`, in all three readings of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .algebra import (Polynomial, RationalFunction, RootOrderMismatch,
                      cyclotomic_denominator, reduce_cyclotomic_fraction)
from .characters import character_value, parse_character_id
from .padic import (DEFAULT_BALL_CAP, PadicNumber, ProfiniteDomain,
                    ball_representatives, q_admissible)

Integrand = Callable[[int], object]


class NonConvergence(RuntimeError):
    """The Riemann sums did not reach the requested stability."""

    def __init__(self, message: str, trace: tuple):
        super().__init__(f"{message}; difference valuations {list(trace)}")
        self.trace = trace


# ---------------------------------------------------------------------------
# the three readings of q
# ---------------------------------------------------------------------------

class QDescriptor:
    """One of the three readings of the deformation parameter.

    mode "symbolic": value lives in the rational-function field with root
    order D (w**D = q).  mode "rational": an exact rational q != 1.  mode
    "padic": a truncated p-adic q with v_p(q - 1) >= 1 and q != 1 at its
    precision.

    ``base_power`` marks that the descriptor stands for q**base_power; all
    brackets and powers are taken against that base.
    """

    __slots__ = ("mode", "root_order", "q_rational", "q_padic", "base_power")

    def __init__(self, mode: str, *, root_order: int = 1,
                 q_rational: Fraction | None = None,
                 q_padic: PadicNumber | None = None,
                 base_power: int = 1):
        if mode not in ("symbolic", "rational", "padic"):
            raise ValueError(f"unknown q mode {mode!r}")
        if base_power < 1:
            raise ValueError("base power must be >= 1")
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
        self.base_power = base_power

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

    def with_base_power(self, m: int) -> QDescriptor:
        """Descriptor for (current base)**m."""
        if m < 1:
            raise ValueError("base power must be >= 1")
        out = object.__new__(QDescriptor)
        out.mode = self.mode
        out.root_order = self.root_order
        out.q_rational = self.q_rational
        out.q_padic = self.q_padic
        out.base_power = self.base_power * m
        return out

    # -- field plumbing -------------------------------------------------------

    def one(self):
        if self.mode == "symbolic":
            return RationalFunction.constant(1, self.root_order)
        if self.mode == "rational":
            return Fraction(1)
        return PadicNumber(self.q_padic.p, 0, 1, self.q_padic.prec)

    def from_rational(self, r: Fraction | int):
        if self.mode == "symbolic":
            return RationalFunction.constant(r, self.root_order)
        if self.mode == "rational":
            return Fraction(r)
        return PadicNumber.from_rational(Fraction(r), self.q_padic.p, self.q_padic.prec)

    def element(self):
        """The base parameter itself (q**base_power) as a field element."""
        return self.qpow(1)

    def w_exponent(self, exponent: Fraction | int) -> int:
        """The power of w realizing (q**base_power)**exponent (symbolic mode)."""
        e = Fraction(exponent) * self.base_power
        we = e * self.root_order
        if we.denominator != 1:
            raise RootOrderMismatch(
                f"power q^{e} needs root order divisible by {e.denominator}, "
                f"have {self.root_order}")
        return int(we)

    def qpow(self, exponent: Fraction | int):
        """(q**base_power) ** exponent.

        Symbolically this is a power of w and only needs the combined
        exponent to clear the root order; numerically the combined exponent
        must be an integer (fractional q-powers do not live in Q or Q_p).
        """
        if self.mode == "symbolic":
            return RationalFunction.w_power(self.w_exponent(exponent), self.root_order)
        e = Fraction(exponent) * self.base_power
        if e.denominator != 1:
            raise ValueError(f"fractional power q^{e} is not available in {self.mode} mode")
        if self.mode == "rational":
            return self.q_rational ** int(e)
        return self.q_padic ** int(e)

    def bracket(self, x: Fraction | int):
        """The q-analogue [x] = (1 - q^x)/(1 - q) against the current base.

        >>> print(QDescriptor.symbolic().bracket(3))
        1 + q + q^2
        >>> print(QDescriptor.symbolic(2).bracket(Fraction(1, 2)))
        (1)/(1 + w)
        """
        one = self.one()
        return (one - self.qpow(x)) / (one - self.qpow(1))

    def minus_bracket(self, m: int):
        """[m] against the negated base, for odd m: (1 + q^m)/(1 + q)."""
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
        sfx = "" if self.base_power == 1 else f" base^={self.base_power}"
        return f"QDescriptor({core}{sfx})"


def binomial_fraction_sum(q: QDescriptor, numerators: list[dict], sign: int,
                          step: int, prefactor=()):
    """prod (1 + s q^e)^pw * sum_k numerators[k] / (1 + sign q^(step (k+1))).

    ``numerators[k]`` maps q-exponents to rational coefficients, and
    ``prefactor`` lists the (s, e, pw) factors; all powers are taken against
    the base of q.  Every closed form of the package has this shape, and its
    denominators are products of cyclotomic polynomials in w.

    One Horner loop serves every reading of q: with d_k = 1 + sign
    q^(step (k+1)), total <- total d_k + c_k den and den <- den d_k; then
    positive prefactor powers multiply total and negative ones den.  Two
    steps depend on the reading: the elements, dense polynomials in w for
    symbolic q (numerators shifted by w^r when exponents go down to -r) and
    field elements otherwise; and the final division, total / den for
    rational and p-adic q (a vanishing denominator raises
    ZeroDivisionError), and for symbolic q one
    :func:`reduce_cyclotomic_fraction` over w^r and the cyclotomic map of den.
    """
    symbolic = q.mode == "symbolic"
    shift = max([0] + [-e for num in numerators for e, c in num.items() if c]) if symbolic else 0

    def element(terms: dict):
        if not symbolic:
            return sum(q.from_rational(c) * q.qpow(e) for e, c in terms.items() if c)
        coeffs = {q.w_exponent(e): c for e, c in terms.items() if c}
        return Polynomial([coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)])

    total, den = 0, 1
    for k, num in enumerate(numerators):
        d = element({0: 1, step * (k + 1): sign})
        total = total * d + element({e + shift: c for e, c in num.items()}) * den
        den = den * d
    for s, e, power in prefactor:
        if power > 0:
            total = total * element({0: 1, e: s}) ** power
        elif power < 0:
            den = den * element({0: 1, e: s}) ** -power
    if not symbolic:
        return total / den
    den_map, den_sign = cyclotomic_denominator(
        [(sign, q.w_exponent(step * (k + 1)), 1) for k in range(len(numerators))]
        + [(s, q.w_exponent(e), -power) for s, e, power in prefactor if power < 0])
    return reduce_cyclotomic_fraction(total, den_map, q.root_order, den_sign,
                                      q.w_exponent(shift))


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
        """[d p^n] against the (signed) base: the normalizer of level n."""
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


def riemann_sum(spec: MeasureSpec, f: Integrand, n: int,
                cap: int = DEFAULT_BALL_CAP):
    """The level-n Riemann sum: sum over ball representatives j of
    f(j) * (+-q)^j, normalized by [d p^n] of the (signed) base.

    ``f`` is any callable; a :class:`BracketPower` (what the built-in
    integrand families return) takes the residue loop of
    :func:`_sum_range` in p-adic mode.  Either way the sum is exact to the
    digits it claims, so any partition of the index range yields the
    identical result.
    """
    reps = ball_representatives(spec.domain, n, cap)
    total = _sum_range(spec, f, reps)
    return total / spec.level_norm(n)


def _sum_range(spec: MeasureSpec, f: Integrand, reps: range):
    """Unnormalized sum of f(j) * (+-q)^j over a subrange of representatives.

    In p-adic mode a :class:`BracketPower` is summed by
    :func:`_residue_sum`; every other case calls f once per term.
    """
    if spec.q.mode == "padic" and isinstance(f, BracketPower):
        total = _residue_sum(spec, f, reps)
        if total is not None:
            return total
    q1 = spec.q.qpow(1)
    fermionic = spec.kind == FERMIONIC
    power = spec.q.qpow(reps.start) if reps.start else spec.q.one()
    total = 0
    for j in reps:
        value = f(j)
        if not (isinstance(value, int) and value == 0):
            term = value * power
            if fermionic and j % 2 == 1:
                total = total - term
            else:
                total = total + term
        power = power * q1
    return total


def _residue_sum(spec: MeasureSpec, f: BracketPower, reps: range):
    """The p-adic sum of chi(j) [x+j]^n (+-q)^j in plain ints, or None
    where it could not claim the same digits as the per-term loop.

    All terms are p-adic integers.  With Q the unit of q, A its precision
    and m the digits claimed, the loop keeps (+-Q^b)^j, Q^(b'(x+j)) and
    [x+j] as residues mod p^m (b, b' the base powers of the measure and of
    f) and advances the bracket by [x+j+1] = [x+j] + Q^(b'(x+j)), so each
    term costs one modular power and no division.  The per-term loop
    divides by 1 - Q^b' for n >= 1, which leaves A - v_p(1 - Q^b')
    absolute digits on every term whose x + j is a p-adic unit; the sum
    claims exactly that (A digits for n = 0).  Where x is not p-integral
    or no term with a unit x + j contributes, the claim would differ and
    the caller falls back.
    """
    q = spec.q.q_padic
    if f.q.mode != "padic" or f.q.q_padic != q:
        return None
    p, shift, n = q.p, f.shift, f.n
    if shift.denominator % p == 0:
        return None
    signs = (1,) if f.chi is None else tuple(int(s) for s in f.chi)
    size = len(signs)
    if not any(signs[j % size] and (n == 0 or (shift + j).numerator % p)
               for j in reps):
        return None
    mod_a = p ** q.prec
    if n == 0:
        digits, mod = q.prec, mod_a
        bracket, q_x, step = 1, 0, 1
    else:
        # 1/(1 - Q^b') = p^-t * unit, the unit known mod p^(A - t)
        t = -f._inv_1mq.v
        digits = q.prec - t
        mod = p ** digits
        step = pow(q.unit, f.q.base_power, mod)
        q_x = pow(q.unit, int(f.q.base_power * (shift + reps.start)), mod_a)
        # p^t divides 1 - Q^(b'(x+j)) because x + j is p-integral
        bracket = (1 - q_x) % mod_a // p ** t * f._inv_1mq.unit % mod
        q_x %= mod
    ratio = pow(q.unit, spec.q.base_power, mod)
    if spec.kind == FERMIONIC:
        ratio = mod - ratio
    weight = pow(ratio, reps.start, mod)
    total = 0
    for j in reps:
        s = signs[j % size]
        if s:
            term = pow(bracket, n, mod) * weight
            total = total + term if s > 0 else total - term
        bracket = (bracket + q_x) % mod
        q_x = q_x * step % mod
        weight = weight * ratio % mod
    return PadicNumber._from_scaled(p, 0, total, digits)


def integrate(spec: MeasureSpec, f: Integrand, target_stability: int,
              n_max: int, cap: int = DEFAULT_BALL_CAP) -> IntegrationResult:
    """p-adic limit of the Riemann sums, certified by the Cauchy criterion.

    Stops at the smallest N <= n_max with v_p(S_N - S_{N-1}) >= the target
    and returns that sum together with the certified stability and the full
    difference-valuation trace.  Raises :class:`NonConvergence` (with the
    trace as diagnostic) when the target is not met by n_max.
    """
    if spec.q.mode != "padic":
        raise ValueError("integration is a p-adic limit; q must be padic")
    trace: list[tuple[int, int]] = []
    previous = None
    for n in range(1, n_max + 1):
        current = riemann_sum(spec, f, n, cap)
        if previous is not None:
            stability = (current - previous).valuation
            trace.append((n, stability))
            if stability >= target_stability:
                return IntegrationResult(current, n, stability, tuple(trace))
        previous = current
    raise NonConvergence(
        f"stability {target_stability} not reached by N = {n_max}", tuple(trace))


@dataclass(frozen=True)
class IntegrationResult:
    """A certified integral value: the last Riemann sum, the level it was
    taken at, and v_p of the last difference (a lower bound on how many
    digits the final two sums share)."""

    value: object
    n_used: int
    stability: int
    trace: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        value = self.value.to_json() if hasattr(self.value, "to_json") else str(self.value)
        return {"value": value, "N_used": self.n_used, "stability": self.stability,
                "trace": [list(t) for t in self.trace]}


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


def fermionic_finite_rhs(n: int, x: Fraction | int, level: int,
                         q: QDescriptor, p: int):
    """Closed form of the level-`level` fermionic Riemann sum of [x+y]^n.

    Equals riemann_sum(fermionic over Z_p, [x+y]^n, level) exactly; its
    p-adic limit (the p^N-dependent factors tending to 1) is the closed form
    of the shifted q-Euler polynomial.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    x = Fraction(x)
    pn = p ** level
    numerators = [{x * k: (-1) ** k * math.comb(n, k),
                   x * k + pn * (k + 1): (-1) ** k * math.comb(n, k)}
                  for k in range(n + 1)]
    return binomial_fraction_sum(q, numerators, 1, 1,
                                 [(1, 1, 1), (-1, 1, -n), (1, pn, -1)])


# ---------------------------------------------------------------------------
# built-in integrand families
# ---------------------------------------------------------------------------

class BracketPower:
    """The integrand j -> chi(j) * [shift + j]^n against the base of q.

    ``chi`` is a table of character values indexed by j modulo its length,
    or None for the untwisted power; in p-adic mode its values must be 0
    or +-1.  Instances are immutable, and a call evaluates its term
    directly, so calls may come in any order.  In p-adic mode
    :func:`_sum_range` recognises the type and sums it in residues
    instead of calling it once per term.
    """

    __slots__ = ("q", "n", "shift", "chi", "_one", "_inv_1mq")

    def __init__(self, q: QDescriptor, n: int, shift: Fraction | int = 0,
                 chi: tuple | None = None):
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        if q.mode == "padic" and chi is not None and any(v not in (0, 1, -1) for v in chi):
            raise ValueError(
                "p-adic character twists need character values in {0, +-1}; "
                "higher-order characters are computed by the closed form of "
                "k_chi at symbolic or rational q")
        shift, one, inv_1mq = Fraction(shift), q.one(), None
        if n:
            q.qpow(shift)  # raises unless q^shift lives in q's field
            inv_1mq = one / (one - q.qpow(1))
        for name, value in zip(self.__slots__, (q, n, shift, chi, one, inv_1mq)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __call__(self, j: int):
        chi_j = 1 if self.chi is None else self.chi[j % len(self.chi)]
        if isinstance(chi_j, (int, Fraction)) and chi_j == 0:
            return 0
        if self.n:
            value = ((self._one - self.q.qpow(self.shift + j)) * self._inv_1mq) ** self.n
        else:
            value = self._one
        return value if chi_j == 1 else chi_j * value


def constant_one(q: QDescriptor) -> BracketPower:
    """j -> 1."""
    return BracketPower(q, 0)


def bracket_power(q: QDescriptor, n: int, shift: Fraction | int = 0) -> BracketPower:
    """j -> [shift + j]^n against the descriptor's base.

    The result is a :class:`BracketPower`: each call evaluates its term
    directly, and p-adic Riemann sums run it through the residue loop,
    which advances [shift + j] by adding q^(shift + j) and so stays
    linear-time without any state in the integrand.
    """
    return BracketPower(q, n, shift)


def character_twisted_power(q: QDescriptor, n: int, chi) -> BracketPower:
    """j -> chi(j) * [j]^n; zero off the units of the character modulus."""
    table = tuple(character_value(chi, a) for a in range(chi.modulus))
    return BracketPower(q, n, chi=table)


def parse_integrand(text: str, q: QDescriptor) -> Integrand:
    """Integrand selection by name: "one", "bracket_pow:n",
    "shifted_bracket_pow:n:x", "char_twisted:n:chi_id"."""
    parts = text.split(":")
    name = parts[0]
    try:
        if name == "one" and len(parts) == 1:
            return constant_one(q)
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
