"""Dirichlet characters: unit-group structure, enumeration, values, conductor.

A character mod f is stored as an exponent vector against a fixed cyclic
decomposition of (Z/f)^x.  Values of order <= 2 are plain rationals 0, +-1;
higher-order values are returned as roots of unity in the cyclotomic
extension (symbolic and rational q only: embedding them into Q_p would need
field extensions, which the p-adic side deliberately avoids).

Moduli in scope are tiny, so discrete logarithms and conductor search are
brute force by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import CyclotomicElement


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in _factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def _multiplicative_order(a: int, modulus: int) -> int:
    if modulus == 1:
        return 1
    x = a % modulus
    order = 1
    y = x
    while y != 1:
        y = y * x % modulus
        order += 1
    return order


def _primitive_root_prime_power(p: int, e: int) -> int:
    """Primitive root mod p**e for odd p (found by search, lifted if needed)."""
    target = p - 1
    g = next(a for a in range(2, p) if _multiplicative_order(a, p) == target)
    if e == 1:
        return g
    # g generates mod p^e unless g^(p-1) = 1 mod p^2, in which case g + p does
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, component: int, modulus: int) -> int:
    """The integer mod `modulus` that is `residue` mod `component` and 1 mod
    the complementary part."""
    other = modulus // component
    if other == 1:
        return residue % modulus
    inv = pow(other, -1, component)
    lift = (1 + other * ((residue - 1) * inv % component)) % modulus
    return lift


@dataclass(frozen=True)
class CyclicFactor:
    generator: int   # an integer mod f generating this factor
    order: int
    component: int   # the prime-power piece of f this factor lives in


@dataclass(frozen=True)
class UnitGroupStructure:
    """Decomposition of (Z/f)^x into cyclic factors."""

    modulus: int
    factors: tuple[CyclicFactor, ...]

    @property
    def order(self) -> int:
        out = 1
        for fac in self.factors:
            out *= fac.order
        return out


def unit_group_structure(modulus: int) -> UnitGroupStructure:
    if modulus < 1:
        raise ValueError("modulus must be positive")
    factors: list[CyclicFactor] = []
    for p, e in _factorize(modulus):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                factors.append(CyclicFactor(_crt_lift(3, 4, modulus), 2, 4))
            else:
                factors.append(CyclicFactor(_crt_lift(pe - 1, pe, modulus), 2, pe))
                factors.append(CyclicFactor(_crt_lift(3, pe, modulus), 2 ** (e - 2), pe))
        else:
            g = _primitive_root_prime_power(p, e)
            factors.append(CyclicFactor(_crt_lift(g, pe, modulus),
                                        (p - 1) * p ** (e - 1), pe))
    return UnitGroupStructure(modulus, tuple(factors))


def _component_logs(structure: UnitGroupStructure, a: int) -> tuple[int, ...]:
    """Exponents (t_1, ..., t_k) with a = prod generator_i^t_i mod f.

    Brute force per prime-power component; the 2-power component may carry
    two factors, which are solved jointly.
    """
    by_component: dict[int, list[int]] = {}
    for idx, fac in enumerate(structure.factors):
        by_component.setdefault(fac.component, []).append(idx)
    logs = [0] * len(structure.factors)
    for component, idxs in by_component.items():
        target = a % component
        gens = [structure.factors[i].generator % component for i in idxs]
        orders = [structure.factors[i].order for i in idxs]
        for combo in product(*(range(o) for o in orders)):
            value = 1
            for g, t in zip(gens, combo):
                value = value * pow(g, t, component) % component
            if value == target:
                for i, t in zip(idxs, combo):
                    logs[i] = t
                break
        else:
            raise ValueError(f"{a} is not a unit mod {component}")
    return tuple(logs)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character of (Z/f)^x, identified by its exponent vector."""

    modulus: int
    exponents: tuple[int, ...]
    structure: UnitGroupStructure

    def __post_init__(self):
        if len(self.exponents) != len(self.structure.factors):
            raise ValueError("exponent vector does not match the unit group")
        for e, fac in zip(self.exponents, self.structure.factors):
            if not 0 <= e < fac.order:
                raise ValueError("exponent out of range for its cyclic factor")

    @property
    def value_order(self) -> int:
        out = 1
        for e, fac in zip(self.exponents, self.structure.factors):
            o = fac.order // math.gcd(e, fac.order)
            out = out * o // math.gcd(out, o)
        return out

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def id_string(self) -> str:
        return f"{self.modulus}:{','.join(str(e) for e in self.exponents)}"

    def __call__(self, a: int):
        return character_value(self, a)


def make_character(modulus: int, exponents: tuple[int, ...] | list[int]) -> DirichletCharacter:
    return DirichletCharacter(modulus, tuple(exponents), unit_group_structure(modulus))


def enumerate_characters(modulus: int) -> list[DirichletCharacter]:
    """All phi(f) characters mod f, in lexicographic exponent-vector order."""
    structure = unit_group_structure(modulus)
    ranges = [range(fac.order) for fac in structure.factors]
    return [DirichletCharacter(modulus, combo, structure)
            for combo in product(*ranges)]


def character_value(chi: DirichletCharacter, a: int):
    """chi(a): 0 off the units, a rational +-1 for value order <= 2, and a
    root of unity in the cyclotomic extension otherwise."""
    a %= chi.modulus
    if math.gcd(a, chi.modulus) != 1:
        return Fraction(0)
    logs = _component_logs(chi.structure, a)
    group_exponent = 1
    for fac in chi.structure.factors:
        group_exponent = group_exponent * fac.order // math.gcd(group_exponent, fac.order)
    total = 0
    for e, t, fac in zip(chi.exponents, logs, chi.structure.factors):
        total = (total + e * t * (group_exponent // fac.order)) % group_exponent
    order = chi.value_order
    # the value is an order-th root of unity; rescale the exponent
    scaled = total * order
    if scaled % group_exponent != 0:
        raise AssertionError("character value fell outside its own value group")
    k = scaled // group_exponent % order
    if order == 1:
        return Fraction(1)
    if order == 2:
        return Fraction(1) if k == 0 else Fraction(-1)
    return CyclotomicElement.root_of_unity(order, k)


def conductor(chi: DirichletCharacter) -> tuple[int, bool]:
    """(smallest induced modulus, whether chi is primitive).

    chi factors through f0 | f exactly when it is trivial on every unit
    congruent to 1 mod f0.
    """
    f = chi.modulus
    for f0 in sorted(d for d in range(1, f + 1) if f % d == 0):
        if all(character_value(chi, a) == 1
               for a in range(1, f + 1)
               if a % f0 == 1 % f0 and math.gcd(a, f) == 1):
            return f0, f0 == f
    raise AssertionError("a character always factors through its own modulus")


def parse_character_id(text: str) -> DirichletCharacter:
    """Parse the "f:e1,e2,..." identifier used by the CLI and reports.

    >>> parse_character_id("5:1").exponents
    (1,)
    >>> parse_character_id("garbage")
    Traceback (most recent call last):
    ...
    ValueError: bad character id 'garbage': expected "f:e1,e2,..." with integers f, e1, e2, ...
    """
    head, _, tail = text.partition(":")
    try:
        modulus = int(head)
        exponents = tuple(int(t) for t in tail.split(",") if t != "")
    except ValueError:
        raise ValueError(f'bad character id {text!r}: expected "f:e1,e2,..." '
                         'with integers f, e1, e2, ...') from None
    if modulus < 1:
        raise ValueError(f"bad character modulus in {text!r}")
    structure = unit_group_structure(modulus)
    if len(exponents) != len(structure.factors):
        raise ValueError(
            f"character {text!r}: expected {len(structure.factors)} exponents "
            f"for modulus {modulus}, got {len(exponents)}")
    return DirichletCharacter(modulus, exponents, structure)
