"""Reference values for the benchmark's output checks.

Everything here uses the standard library only, so a job's check does not
rest on the engine code it measures.  The formulas are the textbook closed
forms of the q-Euler numbers K_n(x) (fermionic measure) and the q-Bernoulli
numbers beta_n(x) (bosonic measure), evaluated at a rational point; the
classical Euler and Bernoulli numbers come from their recurrences.  The
self-tests cross-check all of them against sympy.

Symbolic engine values are rational functions of a root w of q (w^D = q);
they are checked by evaluating them at an integer w and comparing with the
closed form at q = w^D.  p-adic engine values are compared digit by digit
with the exact rational reference.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# classical numbers
# ---------------------------------------------------------------------------

def euler_numbers(n_max: int) -> list[Fraction]:
    """E_0 .. E_n_max with 2/(e^t + 1) = sum E_n t^n / n! (E_n = E_n(0) of
    the Euler polynomials): E_0 = 1, E_n = -1/2 sum_{k<n} C(n, k) E_k."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(-Fraction(sum(math.comb(n, k) * out[k] for k in range(n)), 2))
    return out


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max with t/(e^t - 1) = sum B_n t^n / n! (so B_1 = -1/2)."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(-Fraction(sum(math.comb(n + 1, k) * out[k] for k in range(n)), n + 1))
    return out


# ---------------------------------------------------------------------------
# closed forms at q = w^D
# ---------------------------------------------------------------------------

def _q_power(w: int, root_order: int, exponent: Fraction | int) -> Fraction:
    """q^exponent for q = w^root_order; the w-exponent must be integral."""
    we = Fraction(exponent) * root_order
    if we.denominator != 1:
        raise ValueError(f"q^{exponent} needs a root order divisible by {we.denominator}")
    return Fraction(w) ** int(we)


def k_poly(n: int, x: Fraction | int, w: int, root_order: int = 1) -> Fraction:
    """K_n(x) = [2]_q (1-q)^-n sum_k C(n,k) (-1)^k q^(xk) / (1 + q^(k+1))."""
    q = Fraction(w) ** root_order
    acc = sum(Fraction((-1) ** k * math.comb(n, k)) * _q_power(w, root_order, Fraction(x) * k)
              / (1 + q ** (k + 1)) for k in range(n + 1))
    return (1 + q) * acc / (1 - q) ** n


def beta_poly(n: int, x: Fraction | int, w: int, root_order: int = 1) -> Fraction:
    """beta_n(x) = (1-q)^(1-n) sum_i C(n,i) (-1)^i (i+1) q^(xi) / (1 - q^(i+1))."""
    q = Fraction(w) ** root_order
    acc = sum(Fraction((-1) ** i * math.comb(n, i) * (i + 1))
              * _q_power(w, root_order, Fraction(x) * i) / (1 - q ** (i + 1))
              for i in range(n + 1))
    return acc * (1 - q) ** (1 - n)


def twisted_weights(n: int, f: int, w: int, root_order: int = 1) -> list[Fraction]:
    """c_0 .. c_(f-1) with K_(n,chi) = sum_a chi(a) c_a for any character chi
    mod an odd f: c_a = ([f]^n / [f]_-) (-1)^a q^a K_n(a/f) at base q^f."""
    q = Fraction(w) ** root_order
    qf = q ** f
    bracket = (1 - qf) / (1 - q)
    minus_bracket = (1 + qf) / (1 + q)
    prefactor = bracket ** n / minus_bracket
    out = []
    for a in range(f):
        # K_n(a/f) at base Q = q^f: Q^((a/f) k) = q^(a k)
        acc = sum(Fraction((-1) ** k * math.comb(n, k)) * q ** (a * k) / (1 + qf ** (k + 1))
                  for k in range(n + 1))
        inner = (1 + qf) * acc / (1 - qf) ** n
        out.append(prefactor * (-1) ** a * q ** a * inner)
    return out


def evaluate_coefficients(coeffs, w: int) -> Fraction:
    """sum coeffs[i] w^i for rational coefficients (Fractions or strings),
    over one common denominator so the sum is normalised once."""
    cs = [Fraction(c) for c in coeffs]
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    acc = 0
    for c in reversed(cs):
        acc = acc * w + c.numerator * (den // c.denominator)
    return Fraction(acc, den)


def evaluate_fraction(num, den, w: int) -> Fraction:
    """num(w) / den(w) for coefficient lists in ascending degree."""
    d = evaluate_coefficients(den, w)
    if d == 0:
        raise ZeroDivisionError(f"pole at w = {w}")
    return evaluate_coefficients(num, w) / d


# ---------------------------------------------------------------------------
# p-adic references
# ---------------------------------------------------------------------------

def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Extra digits carried by finite_sum beyond the ones it certifies; they
# absorb the valuation of every denominator in the closed form.
GUARD_DIGITS = 64


def finite_sum(kind: str, n: int, x: int, q: int, p: int, size: int, digits: int) -> Fraction:
    """The level Riemann sum of [x+j]^n over j < size (size = d p^N) for the
    fermionic or bosonic measure at an integer q, correct modulo p^digits.

    Closed form: with Q_k = q^(size k),
      fermionic  (1+q)/(1+Q_1) (1-q)^-n sum_k C(n,k)(-1)^k q^(xk) (1+Q_(k+1))/(1+q^(k+1))
      bosonic    (1-q)/(1-Q_1) (1-q)^-n sum_k C(n,k)(-1)^k q^(xk) (1-Q_(k+1))/(1-q^(k+1))
    (the fermionic form needs an odd size).  The huge powers Q_k are replaced
    by their residues mod p^(digits + GUARD_DIGITS); the denominators have
    far fewer than GUARD_DIGITS p-adic digits of valuation at the sizes the
    benchmark uses, so the result keeps `digits` correct digits.
    """
    if kind == "fermionic" and size % 2 == 0:
        raise ValueError("the fermionic level sum needs an odd size")
    mod = p ** (digits + GUARD_DIGITS)
    sign = 1 if kind == "fermionic" else -1
    acc = Fraction(0)
    for k in range(n + 1):
        big = pow(q, size * (k + 1), mod)
        acc += Fraction((-1) ** k * math.comb(n, k) * q ** (x * k) * (1 + sign * big),
                        1 + sign * q ** (k + 1))
    head_den = 1 + sign * pow(q, size, mod)
    # digits the truncation can cost: twice the head denominator's valuation,
    # the (1-q)^n divisor, and twice the worst term denominator
    lost = (2 * valuation(head_den, p) + n * valuation(1 - q, p)
            + 2 * max(valuation(1 + sign * q ** (k + 1), p) for k in range(n + 1)))
    if lost >= GUARD_DIGITS:
        raise ValueError("level too deep for the guard digits")
    return Fraction(1 + sign * q, head_den) * acc / Fraction(1 - q) ** n


def padic_agrees(value, reference: Fraction, digits: int) -> str | None:
    """None when the engine's p-adic `value` agrees with the exact rational
    `reference` modulo p^digits (absolute) and claims at least that many
    digits; otherwise the reason it does not.

    `value` is read through its fields only (p, v, unit, prec; unit None
    means zero known modulo p^v), never through engine arithmetic."""
    p = value.p
    claimed = value.v if value.unit is None else value.v + value.prec
    if claimed < digits:
        return f"claims {claimed} digits, {digits} needed"
    reference = Fraction(reference)
    if value.unit is None:
        val_v, val_scaled = digits, 0
    else:
        val_v, val_scaled = value.v, value.unit
    if reference == 0:
        ref_v = digits
    else:
        ref_v = valuation(reference.numerator, p) - valuation(reference.denominator, p)
    s = min(val_v, ref_v, digits)
    mod = p ** (digits - s)
    a = val_scaled * p ** (val_v - s) if val_v < digits else 0
    if ref_v < digits:
        scaled = reference / Fraction(p) ** s
        b = scaled.numerator * pow(scaled.denominator, -1, mod)
    else:
        b = 0
    if (a - b) % mod:
        gap = s + valuation((a - b) % mod, p)
        return f"agrees to {gap} digits, {digits} needed"
    return None
