"""The engine's records are immutable named tuples, and its modules load
without `dataclasses`, `typing` or `csv`.

Most CLI commands do about a millisecond of work, so import time is most of
their latency; these tests pin both the lean imports and the record
behaviour that callers rely on: constructor defaults, validation errors,
equality and hashing by value, immutability, the repr text, and copies and
pickles that rebuild an equal record.
"""

import ast
import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import qvolkenborn
from qvolkenborn.algebra import CyclotomicElement, InputError, RootOrderMismatch
from qvolkenborn.characters import (CyclicFactor, DirichletCharacter, UnitGroupStructure,
                                    make_character, unit_group_structure)
from qvolkenborn.padic import PadicNumber, ProfiniteDomain, padic_from_rational
from qvolkenborn.qmeasure import (BracketPower, IntegrationResult, MeasureSpec, QDescriptor,
                                  bracket_power)
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


def _package_imports_in_functions(tree):
    """Line numbers of the statements inside function bodies that import a
    module of the package."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "qvolkenborn"):
                yield node.lineno
            elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "qvolkenborn" for alias in node.names):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_package_module_inside_a_function(path):
    # the modules load in one order, qmeasure before qnumbers and series and
    # those before verify, so every package import sits at module top
    assert not list(_package_imports_in_functions(ast.parse(path.read_text())))


def _unused_imports(tree):
    """The names that the module's top-level imports bind (not those of
    `__future__`) and that no expression of the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_uses_the_names_it_imports(path):
    # no linter runs on the package, so an import left behind by a deleted
    # caller shows here
    assert not _unused_imports(ast.parse(path.read_text()))


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
    return QDescriptor.padic(padic_from_rational(6, 5, 8))


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
    (DirichletCharacter, (5, (1, 0), unit_group_structure(5)), InputError,
     "expected 1 exponents for modulus 5, got 2"),
    (DirichletCharacter, (5, (4,), unit_group_structure(5)), InputError,
     "exponent out of range for its cyclic factor"),
    (QDescriptor, ("complex",), ValueError, "unknown q mode 'complex'"),
    (QDescriptor, ("symbolic", 0), InputError, "root order must be >= 1"),
    (QDescriptor, ("rational", 1, Fraction(1)), InputError,
     "rational q must be an exact rational != 1"),
    (QDescriptor, ("rational",), InputError, "rational q must be an exact rational != 1"),
    (QDescriptor, ("rational", 2, Fraction(2)), ValueError, "rational q has root order 1, got 2"),
    (QDescriptor, ("padic",), ValueError, "padic mode needs a p-adic q"),
    (QDescriptor, ("padic", 1, None, padic_from_rational(2, 5, 8)), InputError,
     "inadmissible p-adic q: v_5(q - 1) must be >= 1"),
    (QDescriptor, ("padic", 1, None, padic_from_rational(1 + 5 ** 8, 5, 8)), InputError,
     "p-adic q must differ from 1 at its precision, got q - 1 = O(5^8)"),
    (BracketPower, (QDescriptor.symbolic(), -1), ValueError, "exponent must be nonnegative"),
    (BracketPower, (QDescriptor.symbolic(), 2, 0, ()), ValueError,
     "a character table needs at least one value"),
    (BracketPower, (QDescriptor.symbolic(), 2, 0, (1, 2)), InputError,
     "twisted integrands need character values in {0, +-1}; higher-order twists are "
     "computed by the closed form of k_chi at symbolic or rational q"),
    (BracketPower, (QDescriptor.symbolic(), 2, Fraction(1, 2)), RootOrderMismatch,
     "power q^1/2 needs root order divisible by 2, have 1"),
    (BracketPower, (QDescriptor.rational(2), 2, Fraction(1, 2)), InputError,
     "fractional power q^1/2 is not available in rational mode"),
    (CyclotomicElement, (0, ()), ValueError, "root-of-unity order must be >= 1"),
    (CyclotomicElement, (4, (0, 0, 1)), ValueError,
     "an element of the order-4 cyclotomic extension has at most 2 coordinates, got 3"),
]


@pytest.mark.parametrize("cls, args, error, message", _REFUSALS)
def test_records_keep_their_validation_errors(cls, args, error, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


def _samples():
    """A builder of equal records, per class, with their repr."""
    q = _q()
    value = padic_from_rational(37, 5, 3)
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
        (lambda: BracketPower(q, 3, 1, (0, 1, -1)),
         "BracketPower(q=QDescriptor(padic 6 + O(5^8)), n=3, shift=Fraction(1, 1), "
         "chi=(0, 1, -1))"),
        (lambda: CyclotomicElement(3, [1, 2]), "CyclotomicElement(L=3, (1) + (2)*z)"),
    ]


@pytest.mark.parametrize("build, text", _samples(),
                         ids=[text.partition("(")[0] for _, text in _samples()])
def test_records_compare_by_value_refuse_assignment_and_keep_their_repr(build, text):
    a, b = build(), build()
    assert a == b and a is not b and repr(a) == text
    # the others hold an unhashable RationalFunction, dict or list
    if type(a) not in (CyclotomicElement, CaseResult, SuiteResult):
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


_READINGS = {"symbolic": (lambda: QDescriptor.symbolic(2), "QDescriptor(symbolic D=2)"),
             "rational": (lambda: QDescriptor.rational(Fraction(4, 10)), "QDescriptor(q=2/5)"),
             "padic": (_q, "QDescriptor(padic 6 + O(5^8))")}


@pytest.mark.parametrize("reading", list(_READINGS))
def test_a_q_reading_is_a_hashable_record_of_its_fields(reading):
    build, text = _READINGS[reading]
    a, b = build(), build()
    assert a == b and a is not b and repr(a) == text and a.mode == reading
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a._fields == ("mode", "root_order", "q_rational", "q_padic") and a == tuple(a)
    assert QDescriptor(*a) == QDescriptor(**a._asdict()) == a
    with pytest.raises(AttributeError):
        a.mode = "symbolic"


def test_q_readings_differ_by_every_field():
    readings = [QDescriptor.symbolic(1), QDescriptor.symbolic(2), QDescriptor.rational(2),
                QDescriptor.rational(Fraction(2, 5)), _q(),
                QDescriptor.padic(padic_from_rational(6, 5, 9)),
                QDescriptor.padic(padic_from_rational(11, 5, 8)),
                QDescriptor.padic(padic_from_rational(4, 3, 8))]
    assert len(set(readings)) == len(readings)


def test_a_padic_hash_agrees_with_its_equality():
    pairs = [(padic_from_rational(37, 5, 3), PadicNumber(5, 0, 37 + 5 ** 3, 3)),
             (padic_from_rational(Fraction(2, 25), 5, 4), PadicNumber(5, -2, 2, 4)),
             (PadicNumber.zero_at_precision(5, 7), PadicNumber(5, 7, 0, 0))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({x for pair in pairs for x in pair} | {PadicNumber(5, 0, 37, 4)}) == 4


def _copyable():
    """One record of every kind, and a BracketPower and a MeasureSpec at
    every reading of q."""
    values = [build() for build, _ in _samples()]
    for build, _ in _READINGS.values():
        q = build()
        values += [q, bracket_power(q, 2, 1), MeasureSpec("bosonic", q, ProfiniteDomain(5, 3))]
    values += [BracketPower(_q(), 1, chi=(1, -1, 0)),
               CyclotomicElement(4, [0, 1]), CyclotomicElement(4, [])]
    return values


@pytest.mark.parametrize("value", _copyable(), ids=repr)
def test_records_survive_copy_deepcopy_and_pickle(value):
    clones = [copy.copy(value), copy.deepcopy(value),
              *(pickle.loads(pickle.dumps(value, protocol)) for protocol in (2, 5))]
    for clone in clones:
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)


def test_a_character_caches_its_tables():
    chi = make_character(7, (1,))
    assert chi.value_order == 6 and chi.exponent_table is chi.exponent_table
    assert chi == make_character(7, (1,))
