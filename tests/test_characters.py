"""Dirichlet-character tests: structure, values, conductor, enumeration.

Brute-force oracles (multiplicative orders, a per-residue discrete-log
search, exhaustive multiplicativity, pairwise-congruence factorization) are
computed inside the tests themselves, independently of the implementation's
walk over the unit group.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from qvolkenborn.algebra import CyclotomicElement, root_of_unity_rows
from qvolkenborn.characters import (character_value, conductor,
                                    enumerate_characters,
                                    make_character, parse_character_id,
                                    unit_group_structure)

F = Fraction


def euler_phi(modulus):
    """The number of units mod modulus, counted."""
    return sum(math.gcd(a, modulus) == 1 for a in range(modulus))


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


def test_primitive_root_is_lifted_when_it_fails_mod_p_squared():
    # 5 is the least primitive root mod p = 40487, and 5^(p-1) = 1 mod p^2,
    # so 5 + p generates (Z/p^2)^x: no g^(p(p-1)/r) is 1 for a prime r of
    # p(p-1) = 2 * 31 * 653 * p
    from qvolkenborn.characters import _primitive_root_prime_power

    p = 40487
    assert pow(5, p - 1, p * p) == 1
    g = _primitive_root_prime_power(p, 2)
    assert g == 5 + p
    for r in (2, 31, 653, p):
        assert pow(g, p * (p - 1) // r, p * p) != 1


def test_structure_mod_one_is_trivial():
    assert unit_group_structure(1).factors == ()


def test_structure_mod_fifteen():
    s = unit_group_structure(15)
    assert sorted(f.order for f in s.factors) == [2, 4]
    assert math.prod(f.order for f in s.factors) == euler_phi(15) == 8
    for f in s.factors:
        assert brute_order(f.generator, 15) == f.order


@pytest.mark.parametrize("modulus", [2, 4, 8, 9, 12, 16, 21, 24, 45])
def test_structure_orders_multiply_to_phi(modulus):
    s = unit_group_structure(modulus)
    assert math.prod(f.order for f in s.factors) == euler_phi(modulus)
    for f in s.factors:
        assert brute_order(f.generator, modulus) == f.order


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_mod_one():
    chars = enumerate_characters(1)
    assert len(chars) == 1 and chars[0].value_order == 1


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
            assert chi.exponent_table[1 % modulus] == 0
            one = 1 if chi.value_order <= 2 else CyclotomicElement(chi.value_order, [1])
            assert character_value(chi, 1) == one


def test_order_four_character_mod_five():
    chi = make_character(5, (1,))  # 2 generates (Z/5)^x
    assert chi.value_order == 4
    assert chi.exponent_table == (None, 0, 1, 3, 2)
    assert character_value(chi, 2) == CyclotomicElement.root_of_unity(4)
    assert character_value(chi, 4) == CyclotomicElement(4, [-1])
    assert character_value(chi, 5) == 0


def prime_power_pieces(modulus):
    """The prime powers p^e exactly dividing modulus, by trial division."""
    pieces, p = [], 2
    while modulus > 1:
        pe = 1
        while modulus % p == 0:
            modulus, pe = modulus // p, pe * p
        if pe > 1:
            pieces.append(pe)
        p += 1
    return pieces


def discrete_log_exponent(chi, a):
    """Reference k_a: solve a = prod g_i^t_i by search per prime-power
    component (the one piece of the modulus where a factor's generator is
    not 1), combine the logs over the group exponent, and rescale to the
    value order."""
    structure = unit_group_structure(chi.modulus)
    pieces, by_component = prime_power_pieces(chi.modulus), {}
    for idx, fac in enumerate(structure.factors):
        component = next(pe for pe in pieces if fac.generator % pe != 1)
        by_component.setdefault(component, []).append(idx)
    logs = [0] * len(structure.factors)
    for component, idxs in by_component.items():
        gens = [structure.factors[i].generator % component for i in idxs]
        orders = [structure.factors[i].order for i in idxs]
        for combo in product(*(range(o) for o in orders)):
            value = 1
            for g, t in zip(gens, combo):
                value = value * pow(g, t, component) % component
            if value == a % component:
                for i, t in zip(idxs, combo):
                    logs[i] = t
                break
    group_exponent = math.lcm(*(fac.order for fac in structure.factors))
    total = sum(e * t * (group_exponent // fac.order)
                for e, t, fac in zip(chi.exponents, logs, structure.factors))
    scaled = total % group_exponent * chi.value_order
    assert scaled % group_exponent == 0
    return scaled // group_exponent % chi.value_order


def test_exponent_table_matches_discrete_log_search():
    for modulus in range(1, 41):
        for chi in enumerate_characters(modulus):
            want = tuple(discrete_log_exponent(chi, a) if math.gcd(a, modulus) == 1 else None
                         for a in range(modulus))
            assert chi.exponent_table == want, chi.id_string


@pytest.mark.parametrize("modulus", range(1, 16))
def test_multiplicativity_exhaustive(modulus):
    for chi in enumerate_characters(modulus):
        table, order = chi.exponent_table, chi.value_order
        for a in range(modulus):
            if math.gcd(a, modulus) != 1:
                assert table[a] is None and character_value(chi, a) == 0
                continue
            for b in range(modulus):
                if math.gcd(b, modulus) == 1:
                    assert table[a * b % modulus] == (table[a] + table[b]) % order


@pytest.mark.parametrize("modulus", range(2, 16))
def test_orthogonality_of_nontrivial_characters(modulus):
    for chi in enumerate_characters(modulus):
        if chi.value_order == 1:
            continue
        rows = root_of_unity_rows(chi.value_order)
        units = [rows[k] for k in chi.exponent_table if k is not None]
        assert [sum(column) for column in zip(*units)] == [0] * len(rows[0])


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


@pytest.mark.parametrize("text", ["garbage", "5:x", ":1", "5:1,,y", "15:1,,1", "5:1,"])
def test_parse_names_the_id_and_format(text):
    with pytest.raises(ValueError) as err:
        parse_character_id(text)
    assert repr(text) in str(err.value) and '"f:e1,e2,..."' in str(err.value)
