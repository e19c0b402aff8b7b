"""Dirichlet characters: unit-group structure, enumeration, values, conductor.

A character mod f is the record (f, exponent vector), read against the one
cyclic decomposition of (Z/f)^x that the cached :func:`unit_group_structure`
gives for f.  Its values are an integer exponent table: chi(a) = zeta^k_a
for a primitive L-th root of unity zeta, L the value order.  Values of
order <= 2 are plain rationals 0, +-1; higher-order values are returned as
roots of unity in the cyclotomic extension.  Those serve symbolic and
rational q.  p-adic twists reject order > 2 for now, although
Z_p holds the L-th roots of unity whenever L divides p - 1.

Moduli in scope are tiny, so the table is one walk over the whole unit
group and the conductor search is brute force by design.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product

from .algebra import CyclotomicElement, InputError, _divisors, _prime_factors


def euler_phi(n: int) -> int:
    out = 1
    for p, e in Counter(_prime_factors(n)).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def _multiplicative_order(a: int, modulus: int) -> int:
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


class CyclicFactor(namedtuple("CyclicFactor", "generator order")):
    """One cyclic factor of (Z/f)^x: an integer mod f generating it and its
    order."""

    __slots__ = ()


class UnitGroupStructure(namedtuple("UnitGroupStructure", "modulus factors")):
    """Decomposition of (Z/f)^x into cyclic factors (a tuple of
    :class:`CyclicFactor`)."""

    __slots__ = ()


@functools.lru_cache
def unit_group_structure(modulus: int) -> UnitGroupStructure:
    if modulus < 1:
        raise InputError("modulus must be positive")
    factors: list[CyclicFactor] = []
    for p, e in Counter(_prime_factors(modulus)).items():
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                factors.append(CyclicFactor(_crt_lift(3, 4, modulus), 2))
            else:
                factors.append(CyclicFactor(_crt_lift(pe - 1, pe, modulus), 2))
                factors.append(CyclicFactor(_crt_lift(3, pe, modulus), 2 ** (e - 2)))
        else:
            g = _primitive_root_prime_power(p, e)
            factors.append(CyclicFactor(_crt_lift(g, pe, modulus), (p - 1) * p ** (e - 1)))
    return UnitGroupStructure(modulus, tuple(factors))


class DirichletCharacter(namedtuple("DirichletCharacter", "modulus exponents")):
    """A character of (Z/f)^x, identified by its exponent vector against the
    modulus's :class:`UnitGroupStructure`.  No ``__slots__``: the cached
    value order and exponent table live in the instance dict."""

    def __new__(cls, modulus: int, exponents: tuple[int, ...]):
        structure = unit_group_structure(modulus)
        if len(exponents) != len(structure.factors):
            raise InputError(f"expected {len(structure.factors)} exponents for modulus "
                             f"{modulus}, got {len(exponents)}")
        for e, fac in zip(exponents, structure.factors):
            if not 0 <= e < fac.order:
                raise InputError("exponent out of range for its cyclic factor")
        return super().__new__(cls, modulus, exponents)

    @functools.cached_property
    def value_order(self) -> int:
        factors = unit_group_structure(self.modulus).factors
        return math.lcm(*(fac.order // math.gcd(e, fac.order)
                          for e, fac in zip(self.exponents, factors)))

    @property
    def id_string(self) -> str:
        return f"{self.modulus}:{','.join(str(e) for e in self.exponents)}"

    @functools.cached_property
    def exponent_table(self) -> tuple[int | None, ...]:
        """k_a with chi(a) = zeta^k_a (k_a mod the value order L) for each
        residue a mod f, None off the units.

        One walk over the product of the cyclic factors: a = prod g_i^t_i
        gets k_a = sum t_i e_i L / o_i, o_i the order of g_i.
        """
        f, order = self.modulus, self.value_order
        walk = [(1 % f, 0)]
        for e, fac in zip(self.exponents, unit_group_structure(f).factors):
            step = e * order // fac.order
            walk = [(a * pow(fac.generator, t, f) % f, (k + t * step) % order)
                    for a, k in walk for t in range(fac.order)]
        exponents = dict(walk)
        return tuple(exponents.get(a) for a in range(f))


def make_character(modulus: int, exponents: tuple[int, ...] | list[int]) -> DirichletCharacter:
    return DirichletCharacter(modulus, tuple(exponents))


def enumerate_characters(modulus: int) -> list[DirichletCharacter]:
    """All phi(f) characters mod f, in lexicographic exponent-vector order."""
    ranges = [range(fac.order) for fac in unit_group_structure(modulus).factors]
    return [DirichletCharacter(modulus, combo) for combo in product(*ranges)]


def character_value(chi: DirichletCharacter, a: int):
    """chi(a): 0 off the units, a rational +-1 for value order <= 2, and a
    root of unity in the cyclotomic extension otherwise."""
    k = chi.exponent_table[a % chi.modulus]
    if k is None:
        return Fraction(0)
    if chi.value_order <= 2:
        return Fraction((-1) ** k)
    return CyclotomicElement.root_of_unity(chi.value_order, k)


def conductor(chi: DirichletCharacter) -> tuple[int, bool]:
    """(smallest induced modulus, whether chi is primitive).

    chi factors through f0 | f exactly when it is trivial on every unit
    congruent to 1 mod f0, i.e. when k_a is 0 there.
    """
    f, table = chi.modulus, chi.exponent_table
    for f0 in _divisors(f):
        if all(table[a] in (None, 0) for a in range(1 % f0, f, f0)):
            return f0, f0 == f
    raise AssertionError("a character always factors through its own modulus")


def parse_character_id(text: str) -> DirichletCharacter:
    """Parse the "f:e1,e2,..." identifier used by the CLI and reports.

    >>> parse_character_id("5:1").exponents
    (1,)
    >>> parse_character_id("garbage")
    Traceback (most recent call last):
    ...
    qvolkenborn.algebra.InputError: bad character id 'garbage': expected "f:e1,e2,..." with integers f, e1, e2, ...
    """
    head, _, tail = text.partition(":")
    try:
        modulus = int(head)
        exponents = tuple(int(t) for t in tail.split(",")) if tail else ()
    except ValueError:
        raise InputError(f'bad character id {text!r}: expected "f:e1,e2,..." '
                         'with integers f, e1, e2, ...') from None
    return make_character(modulus, exponents)
