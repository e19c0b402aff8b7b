"""The engine's records are immutable named tuples, and its modules load
without `dataclasses`, `typing` or `csv`.

Most CLI commands do about a millisecond of work, so import time is most of
their latency; these tests pin both the lean imports and the record
behaviour that callers rely on: constructor defaults, validation errors,
equality and hashing by value, immutability and the repr text.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qvolkenborn
from qvolkenborn.algebra import InputError
from qvolkenborn.characters import (CyclicFactor, DirichletCharacter, UnitGroupStructure,
                                    make_character, unit_group_structure)
from qvolkenborn.padic import PadicNumber, ProfiniteDomain
from qvolkenborn.qmeasure import IntegrationResult, MeasureSpec, QDescriptor
from qvolkenborn.series import PartialSum
from qvolkenborn.verify import CaseResult, SuiteResult

SRC = pathlib.Path(qvolkenborn.__file__).parent
SLOW_MODULES = ("dataclasses", "typing", "csv")


def _load_time_imports(tree):
    """Names of the modules imported by statements that run when the module
    loads: everything outside function bodies."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        yield from _load_time_imports(node)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_slow_module_when_it_loads(path):
    imported = {name.split(".")[0] for name in _load_time_imports(ast.parse(path.read_text()))}
    assert not imported & set(SLOW_MODULES)


def test_the_cli_starts_without_dataclasses_inspect_or_csv():
    # -S keeps site's own imports out of the count
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, qvolkenborn.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_records_keep_their_defaults():
    assert ProfiniteDomain(5).d == 1
    assert CaseResult({}, True).detail == ""
    first, second = SuiteResult("x"), SuiteResult("x")
    assert first.cases == [] and first.cases is not second.cases
    first.add({"n": 0}, True)
    assert second.cases == []


def _q():
    return QDescriptor.padic(PadicNumber.from_rational(6, 5, 8))


# (constructor, arguments, exception class, message)
_REFUSALS = [
    (ProfiniteDomain, (4,), ValueError, "4 is not an odd prime"),
    (ProfiniteDomain, (5, 0), InputError, "d must be positive"),
    (ProfiniteDomain, (5, 10), InputError, "d = 10 must be prime to p = 5"),
    (MeasureSpec, ("uniform", QDescriptor.symbolic(), ProfiniteDomain(5)), ValueError,
     "unknown measure kind 'uniform'"),
    (MeasureSpec, ("fermionic", QDescriptor.symbolic(), ProfiniteDomain(5, 2)), InputError,
     "the fermionic measure needs an odd d"),
    (MeasureSpec, ("bosonic", _q(), ProfiniteDomain(3)), ValueError,
     "a 5-adic q cannot measure a domain over p = 3"),
    (DirichletCharacter, (5, (1, 0), unit_group_structure(5)), ValueError,
     "exponent vector does not match the unit group"),
    (DirichletCharacter, (5, (4,), unit_group_structure(5)), InputError,
     "exponent out of range for its cyclic factor"),
]


@pytest.mark.parametrize("cls, args, error, message", _REFUSALS)
def test_records_keep_their_validation_errors(cls, args, error, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


def _samples():
    """A builder of equal records, per class, with their repr."""
    q = _q()
    value = PadicNumber.from_rational(37, 5, 3)
    return [
        (lambda: CyclicFactor(7, 2, 8), "CyclicFactor(generator=7, order=2, component=8)"),
        (lambda: unit_group_structure(5),
         "UnitGroupStructure(modulus=5, factors=(CyclicFactor(generator=2, order=4, "
         "component=5),))"),
        (lambda: make_character(5, (1,)),
         "DirichletCharacter(modulus=5, exponents=(1,), structure=UnitGroupStructure("
         "modulus=5, factors=(CyclicFactor(generator=2, order=4, component=5),)))"),
        (lambda: ProfiniteDomain(5), "ProfiniteDomain(p=5, d=1)"),
        (lambda: MeasureSpec("fermionic", q, ProfiniteDomain(5)),
         "MeasureSpec(kind='fermionic', q=QDescriptor(padic 6 + O(5^8)), "
         "domain=ProfiniteDomain(p=5, d=1))"),
        (lambda: IntegrationResult(value, 3, 3),
         "IntegrationResult(value=37 + O(5^3), n_used=3, stability=3)"),
        (lambda: PartialSum(1, 2, 3), "PartialSum(value=1, tail_bound=2, terms=3)"),
        (lambda: CaseResult({"n": 1}, True), "CaseResult(params={'n': 1}, passed=True, detail='')"),
        (lambda: SuiteResult("x"), "SuiteResult(name='x', cases=[])"),
    ]


@pytest.mark.parametrize("build, text", _samples(),
                         ids=[text.partition("(")[0] for _, text in _samples()])
def test_records_compare_by_value_refuse_assignment_and_keep_their_repr(build, text):
    a, b = build(), build()
    assert a == b and a is not b and repr(a) == text
    # the others hold an unhashable PadicNumber, dict or list
    if type(a) not in (IntegrationResult, CaseResult, SuiteResult):
        assert hash(a) == hash(b) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


def test_a_character_caches_its_tables():
    chi = make_character(7, (1,))
    assert chi.value_order == 6 and chi.exponent_table is chi.exponent_table
    assert chi == make_character(7, (1,))
