"""The engine's records are immutable named tuples, its modules load
without `dataclasses`, `typing` or `csv`, and every function they define is
reached by a product run or listed, with its reason, as kept.

Most CLI commands do about a millisecond of work, so import time is most of
their latency; these tests pin both the lean imports and the record
behaviour that callers rely on: constructor defaults, validation errors,
equality and hashing by value, immutability, the repr text, and copies and
pickles that rebuild an equal record.  Each record holds only facts that no
other field fixes, so none can be built in a state that contradicts itself.
"""

import ast
import copy
import inspect
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvolkenborn
from qvolkenborn.algebra import CyclotomicElement, InputError, RootOrderMismatch
from qvolkenborn.characters import (CyclicFactor, DirichletCharacter, UnitGroupStructure,
                                    enumerate_characters, make_character, unit_group_structure)
from qvolkenborn.padic import PadicNumber, ProfiniteDomain, padic_from_rational
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, BracketPower, IntegrationResult,
                                  MeasureSpec, QDescriptor, bracket_power, integrate)
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


def _record_fields(tree):
    """(record, field) for each field that a namedtuple(...) call of the
    module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
            record, fields = (ast.literal_eval(arg) for arg in node.args[:2])
            yield from ((record, field) for field in fields.replace(",", " ").split())


def test_every_record_field_is_read_somewhere():
    # a field that no expression of the package reads as .field is data
    # that nothing uses; the namedtuple(...) string defines it, not a read
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    fields = [pair for tree in trees for pair in _record_fields(tree)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(fields) > 20
    assert [f"{record}.{field}" for record, field in fields if field not in read] == []


# the functions of the package that no product run reaches, each kept for
# the reason given; a name here that a run reaches fails the test below
KEPT_UNREACHED = {
    "algebra.RationalFunction.from_json": "reads back to_json, the JSON output's round trip",
    "algebra.CyclotomicElement.from_json": "reads back to_json, the JSON output's round trip",
    "padic.PadicNumber.from_json": "reads back to_json, the JSON output's round trip",
    "cli.value_from_json": "reads back value_to_json, the JSON output's round trip",
    "algebra.Polynomial.__repr__": "the repr a debugger or a failing test shows",
    "algebra.RationalFunction.__repr__": "the repr a debugger or a failing test shows",
    "algebra.CyclotomicElement.__repr__": "the repr a debugger or a failing test shows",
    "padic.PadicNumber.__repr__": "the repr a debugger or a failing test shows",
    "qmeasure.QDescriptor.__repr__": "the repr a debugger or a failing test shows",
    "series.TruncatedSeries.__repr__": "the repr a debugger or a failing test shows",
    "cli.entry_point": "the console script, which runs cli.main in a process of its own",
    "algebra.NonCyclotomicDenominator.__init__": "the error of a denominator no run meets",
    "algebra.RationalFunction.__init__": "the public constructor; the engine builds by _make",
    "padic.PadicNumber.__init__": "the public constructor; the engine builds by _normalised",
    "qmeasure.bosonic_power_moment": "a package export, for ROADMAP items 6 and 14",
    "algebra.cyclotomic_polynomial": "a package export; the engine reads _cyclotomic_int",
}


def _defined_functions():
    """(file name, qualified name, first line) of every function and method
    that a module of the package defines, nested ones included, mapped to
    "module.qualname"; class bodies, lambdas and comprehensions are left out."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, type(code)):
                    stack.append(const)
                    if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                        key = (path.name, const.co_qualname, const.co_firstlineno)
                        out[key] = f"{path.stem}.{const.co_qualname}"
    return out


def test_every_function_is_reached_by_a_product_run_or_kept(monkeypatch, tmp_path):
    # the product runs: every golden command through cli.main, the ten verify
    # suites, and the seed-1 job lists of the three benchmark workloads, each
    # job run and checked (the checks read fields that no command reads)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import bench_jobs
    from test_golden import commands, digest

    from qvolkenborn import verify

    for module in [m for name, m in sys.modules.items() if name.startswith("qvolkenborn.")]:
        for cached in [f for f in vars(module).values() if hasattr(f, "cache_clear")]:
            cached.cache_clear()   # a cache hit runs no body
    ran, previous = set(), sys.getprofile()
    sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)
    try:
        for command in commands():
            digest(command)
        assert all(result.passed for result in verify.run_suites())
        for workload in ("symbolic", "padic", "verify-cli"):
            for job in bench_jobs.build(workload, 1, str(tmp_path)):
                assert job.check(job.run(), job.ref) is None, job.name
    finally:
        sys.setprofile(previous)
    defined = _defined_functions()
    reached = {defined.get((pathlib.Path(code.co_filename).name, code.co_qualname,
                            code.co_firstlineno)) for code in ran
               if pathlib.Path(code.co_filename).parent.resolve() == SRC.resolve()}
    names, kept = set(defined.values()), set(KEPT_UNREACHED)
    assert len(names) > 200
    assert sorted(names - reached - kept) == [], "no product run reaches these: delete them"
    assert sorted(kept & reached) == [], "a product run reaches these: unlist them"
    assert sorted(kept - names) == [], "no longer defined: unlist them"


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
    (DirichletCharacter, (5, (1, 0)), InputError, "expected 1 exponents for modulus 5, got 2"),
    (DirichletCharacter, (5, (4,)), InputError, "exponent out of range for its cyclic factor"),
    (DirichletCharacter, (0, ()), InputError, "modulus must be positive"),
    (QDescriptor, (1, "complex"), ValueError,
     "q is None, a Fraction or a PadicNumber, got 'complex'"),
    (QDescriptor, (1, 2), ValueError, "q is None, a Fraction or a PadicNumber, got 2"),
    (QDescriptor, (0,), InputError, "root order must be >= 1"),
    (QDescriptor, (1, Fraction(1)), InputError, "rational q must be an exact rational != 1"),
    (QDescriptor, (2, Fraction(2)), ValueError, "rational q has root order 1, got 2"),
    (QDescriptor, (3, padic_from_rational(6, 5, 8)), ValueError,
     "padic q has root order 1, got 3"),
    (QDescriptor, (1, padic_from_rational(2, 5, 8)), InputError,
     "inadmissible p-adic q: v_5(q - 1) must be >= 1"),
    (QDescriptor, (1, padic_from_rational(1 + 5 ** 8, 5, 8)), InputError,
     "p-adic q must differ from 1 at its precision, got q - 1 = O(5^8)"),
    (BracketPower, (-1,), ValueError, "exponent must be nonnegative"),
    (BracketPower, (2, 0, ()), ValueError, "a character table needs at least one value"),
    (BracketPower, (2, 0, (1, 2)), InputError,
     "twisted integrands need character values in {0, +-1}; higher-order twists are "
     "computed by the closed form of k_chi at symbolic or rational q"),
    (bracket_power, (QDescriptor.symbolic(), -1), ValueError, "exponent must be nonnegative"),
    (bracket_power, (QDescriptor.symbolic(), 2, Fraction(1, 2)), RootOrderMismatch,
     "power q^1/2 needs root order divisible by 2, have 1"),
    (bracket_power, (QDescriptor.rational(2), 2, Fraction(1, 2)), InputError,
     "fractional power q^1/2 is not available in rational mode"),
    (bracket_power, (_q(), 1, Fraction(1, 5)), InputError,
     "fractional power q^1/5 is not available in padic mode"),
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
        (lambda: CyclicFactor(7, 2), "CyclicFactor(generator=7, order=2)"),
        (lambda: UnitGroupStructure(5, (CyclicFactor(2, 4),)),   # the one cached per modulus
         "UnitGroupStructure(modulus=5, factors=(CyclicFactor(generator=2, order=4),))"),
        (lambda: make_character(5, (1,)), "DirichletCharacter(modulus=5, exponents=(1,))"),
        (lambda: ProfiniteDomain(5), "ProfiniteDomain(p=5, d=1)"),
        (lambda: MeasureSpec("fermionic", q, ProfiniteDomain(5)),
         "MeasureSpec(kind='fermionic', q=QDescriptor(padic 6 + O(5^8)), "
         "domain=ProfiniteDomain(p=5, d=1))"),
        (lambda: IntegrationResult(value, 3), "IntegrationResult(value=37 + O(5^3), n_used=3)"),
        (lambda: PartialSum(1, 2), "PartialSum(value=1, tail_bound=2)"),
        (lambda: CaseResult({"n": 1}, True), "CaseResult(params={'n': 1}, passed=True, detail='')"),
        (lambda: SuiteResult("x"), "SuiteResult(name='x', cases=[])"),
        (lambda: BracketPower(3, 1, (0, 1, -1)),
         "BracketPower(n=3, shift=Fraction(1, 1), chi=(0, 1, -1))"),
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
    assert a._fields == ("root_order", "value") and a == tuple(a)
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
    values += [BracketPower(1, chi=(1, -1, 0)),
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


# every record and the fields it holds: each one a fact no other field fixes
_FIELDS = {QDescriptor: ("root_order", "value"), BracketPower: ("n", "shift", "chi"),
           DirichletCharacter: ("modulus", "exponents"), IntegrationResult: ("value", "n_used"),
           PartialSum: ("value", "tail_bound"), MeasureSpec: ("kind", "q", "domain"),
           ProfiniteDomain: ("p", "d"), CyclicFactor: ("generator", "order"),
           UnitGroupStructure: ("modulus", "factors"), CyclotomicElement: ("order", "coeffs"),
           CaseResult: ("params", "passed", "detail"), SuiteResult: ("name", "cases")}


@pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)
def test_each_record_holds_the_fields_its_constructor_takes(cls):
    # copy, deepcopy and pickle rebuild a record from its fields, so the
    # constructor takes exactly those
    assert cls._fields == _FIELDS[cls]
    assert tuple(inspect.signature(cls.__new__).parameters)[1:] == cls._fields


_PADIC_QS = st.builds(padic_from_rational, st.integers(-60, 60), st.sampled_from([3, 5]),
                      st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(root_order=st.integers(-1, 3),
       value=st.none() | st.fractions(max_denominator=9) | st.integers(-3, 3) | _PADIC_QS)
def test_a_descriptor_is_the_one_reading_its_repr_names(root_order, value):
    # a built descriptor equals the reading its mode builds from its value,
    # so none prints as QDescriptor(q=2) yet differs from QDescriptor.rational(2)
    try:
        q = QDescriptor(root_order, value)
    except ValueError:
        return
    rebuilt = {"symbolic": lambda: QDescriptor.symbolic(q.root_order),
               "rational": lambda: QDescriptor.rational(q.value),
               "padic": lambda: QDescriptor.padic(q.value)}[q.mode]()
    assert rebuilt == q and repr(rebuilt) == repr(q)


def test_a_descriptor_holds_one_value():
    # the reading that printed as QDescriptor(q=2) while holding a 5-adic q
    # as well cannot be built, and a descriptor holds one q
    with pytest.raises(TypeError):
        QDescriptor("rational", 1, Fraction(2), padic_from_rational(6, 5, 8))
    assert QDescriptor(1, Fraction(2)) == QDescriptor.rational(2)
    assert repr(QDescriptor(1, Fraction(2))) == "QDescriptor(q=2)"


def test_a_characters_exponent_table_depends_on_its_fields_alone():
    # the structure is no field, so a character mod 5 cannot carry that of 7
    with pytest.raises(TypeError):
        DirichletCharacter(5, (1,), unit_group_structure(7))
    for modulus in range(1, 31):
        for chi in enumerate_characters(modulus):
            again = DirichletCharacter(*chi)
            assert again == chi and again.exponent_table == chi.exponent_table
            assert again.value_order == chi.value_order


def test_a_structure_is_built_once_per_modulus():
    assert unit_group_structure(21) is unit_group_structure(21)


def test_the_stability_of_an_integral_is_its_values_absolute_precision():
    q = _q()
    for kind, f, target in ((FERMIONIC, bracket_power(q, 3), 6),
                            (BOSONIC, bracket_power(q, 2, 1), 2),
                            (FERMIONIC, bracket_power(q, 2, 0, make_character(3, (1,))), 3)):
        d = len(f.chi)
        result = integrate(MeasureSpec(kind, q, ProfiniteDomain(5, d)), f, target, 8)
        assert result.stability == result.value.absolute_precision >= target
    value = padic_from_rational(37, 5, 3)
    assert IntegrationResult(value, 3).stability == value.absolute_precision == 3
