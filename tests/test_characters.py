"""Dirichlet-character tests: structure, values, conductor, enumeration.

Brute-force oracles (multiplicative orders, exhaustive multiplicativity,
pairwise-congruence factorization) are computed inside the tests themselves,
independently of the implementation's discrete-log route.
"""

import math
from fractions import Fraction

import pytest

from qvolkenborn.algebra import CyclotomicElement
from qvolkenborn.characters import (character_value, conductor,
                                    enumerate_characters, euler_phi,
                                    make_character, parse_character_id,
                                    unit_group_structure)

F = Fraction


def brute_order(a, modulus):
    value, order = a % modulus, 1
    while value != 1:
        value = value * a % modulus
        order += 1
    return order


# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

def test_structure_mod_three():
    s = unit_group_structure(3)
    assert len(s.factors) == 1
    assert s.factors[0].order == 2
    assert brute_order(s.factors[0].generator, 3) == 2


def test_structure_mod_one_is_trivial():
    assert unit_group_structure(1).factors == ()


def test_structure_mod_fifteen():
    s = unit_group_structure(15)
    assert sorted(f.order for f in s.factors) == [2, 4]
    assert s.order == euler_phi(15) == 8
    for f in s.factors:
        assert brute_order(f.generator, 15) == f.order


@pytest.mark.parametrize("modulus", [2, 4, 8, 9, 12, 16, 21, 24, 45])
def test_structure_orders_multiply_to_phi(modulus):
    s = unit_group_structure(modulus)
    assert s.order == euler_phi(modulus)
    for f in s.factors:
        assert brute_order(f.generator, modulus) == f.order


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_mod_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1 and chars[0].is_trivial


def test_enumerate_mod_three():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    assert sorted(c.value_order for c in chars) == [1, 2]


def test_enumerate_mod_five_value_orders():
    chars = enumerate_characters(5)
    assert [c.value_order for c in chars] == [1, 4, 2, 4]


@pytest.mark.parametrize("modulus", range(1, 16))
def test_enumeration_complete_and_distinct(modulus):
    chars = enumerate_characters(modulus)
    assert len(chars) == euler_phi(modulus)
    tables = {tuple(str(character_value(c, a)) for a in range(modulus))
              for c in chars}
    assert len(tables) == len(chars)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_quadratic_mod_three_table():
    chi = make_character(3, (1,))
    assert character_value(chi, 0) == 0
    assert character_value(chi, 1) == 1
    assert character_value(chi, 2) == -1


def test_chi_of_one_is_one():
    for modulus in (1, 3, 5, 8, 12, 15):
        for chi in enumerate_characters(modulus):
            assert character_value(chi, 1) == 1


def test_order_four_character_mod_five():
    chi = next(c for c in enumerate_characters(5) if c.value_order == 4)
    z = character_value(chi, 2)
    assert isinstance(z, CyclotomicElement)
    assert z * z == character_value(chi, 4)
    assert character_value(chi, 4) == -1


@pytest.mark.parametrize("modulus", range(1, 16))
def test_multiplicativity_exhaustive(modulus):
    for chi in enumerate_characters(modulus):
        values = [character_value(chi, a) for a in range(modulus)]
        for a in range(modulus):
            if math.gcd(a, modulus) != 1:
                assert values[a] == 0
                continue
            for b in range(modulus):
                if math.gcd(b, modulus) == 1:
                    assert values[a * b % modulus] == values[a] * values[b]


@pytest.mark.parametrize("modulus", range(2, 16))
def test_orthogonality_of_nontrivial_characters(modulus):
    for chi in enumerate_characters(modulus):
        if chi.is_trivial:
            continue
        total = 0
        for a in range(modulus):
            total = total + character_value(chi, a)
        assert total == 0


# ---------------------------------------------------------------------------
# conductor
# ---------------------------------------------------------------------------

def test_conductor_trivial_mod_six():
    chi = make_character(6, (0,))
    assert conductor(chi) == (1, False)


def test_conductor_quadratic_mod_three():
    assert conductor(make_character(3, (1,))) == (3, True)


def test_conductor_trivial_mod_one():
    assert conductor(make_character(1, ())) == (1, True)


@pytest.mark.parametrize("modulus", range(1, 16))
def test_conductor_divides_and_factors(modulus):
    for chi in enumerate_characters(modulus):
        f0, primitive = conductor(chi)
        assert modulus % f0 == 0
        assert primitive == (f0 == modulus)
        # oracle: chi factors through m exactly when congruent units share values
        def factors_through(m):
            for a in range(1, modulus + 1):
                if math.gcd(a, modulus) != 1:
                    continue
                for b in range(a, modulus + 1):
                    if math.gcd(b, modulus) != 1 or (a - b) % m != 0:
                        continue
                    if character_value(chi, a) != character_value(chi, b):
                        return False
            return True

        divisors = [m for m in range(1, modulus + 1) if modulus % m == 0]
        assert f0 == min(m for m in divisors if factors_through(m))


# ---------------------------------------------------------------------------
# identifiers
# ---------------------------------------------------------------------------

def test_id_round_trip():
    for modulus in (1, 3, 5, 15):
        for chi in enumerate_characters(modulus):
            back = parse_character_id(chi.id_string)
            assert back.modulus == chi.modulus
            assert back.exponents == chi.exponents


def test_parse_rejects_wrong_arity():
    with pytest.raises(ValueError):
        parse_character_id("15:1")


@pytest.mark.parametrize("text", ["garbage", "5:x", ":1", "5:1,,y"])
def test_parse_names_the_id_and_format(text):
    with pytest.raises(ValueError) as err:
        parse_character_id(text)
    assert repr(text) in str(err.value) and '"f:e1,e2,..."' in str(err.value)
