"""Self-tests of the benchmark: its checks are live, its traced counts
repeat, its tracer leaves no wrapper behind, and its references agree with
sympy.

    PYTHONPATH=src python -m pytest perfbench -q

The p-adic traced passes take a few seconds each.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_jobs  # noqa: E402
import bench_oracles as oracle  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer, per_layer_metrics  # noqa: E402

from qvolkenborn import padic as qpadic  # noqa: E402
from qvolkenborn import qmeasure as qm  # noqa: E402
from qvolkenborn import qnumbers as qn  # noqa: E402
from qvolkenborn.characters import make_character  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer


def _fermionic_cube_sum():
    """The fermionic [y]^3 sum at p = 5, N = 6, q = 6: building the
    integrand and summing 5^6 terms."""
    desc = qm.QDescriptor.padic(qpadic.padic_from_rational(6, 5, 32))
    spec = qm.MeasureSpec(qm.FERMIONIC, desc, qpadic.ProfiniteDomain(5))
    return lambda: qm.riemann_sum(spec, qm.bracket_power(desc, 3), 6)


# ---------------------------------------------------------------------------
# checks are live
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload, prefix, key", [("symbolic", "k_number", "at_w"),
                                                    ("padic", "k_chi closed", "values")])
def test_corrupted_reference_counts_as_failed(workload, prefix, key, tmp_path):
    jobs = bench_jobs.build(workload, 7, str(tmp_path))
    job = next(job for job in jobs if job.name.startswith(prefix))
    assert run.run_jobs([job])[0][2] is None
    if key == "values":
        job.ref[key] = [job.ref[key][0] + 1] + job.ref[key][1:]
    else:
        job.ref[key] += 1
    assert run.run_jobs([job])[0][2], "a corrupted reference must fail the check"


def test_corrupted_cli_reference_counts_as_failed(tmp_path):
    jobs = bench_jobs.build("verify-cli", 7, str(tmp_path))
    euler = next(job for job in jobs if "--gf euler" in job.name)
    assert run.run_jobs([euler])[0][2] is None
    euler.ref["rows"][3] += 1
    assert run.run_jobs([euler])[0][2]


def test_raising_job_counts_as_failed():
    def boom():
        raise ArithmeticError("no")

    records = run.run_jobs([bench_jobs.Job("boom", boom, lambda v, r: None)])
    assert records[0][2] == "raised ArithmeticError: no"


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def test_traced_counts_repeat_and_match_the_profile():
    first = _traced(_fermionic_cube_sum()).metrics()
    second = _traced(_fermionic_cube_sum()).metrics()
    assert first["padic.constructions"] == 132_821
    assert first["qmeasure.riemann_sum.terms"] == 5 ** 6
    counts = [name for name, unit in per_layer_metrics() if unit == "count" and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_traced_passes_repeat_in_fresh_processes():
    def traced_pass():
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--worker",
                               "--workload", "padic", "--seed", "3", "--traced"],
                              stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"), timeout=170)
        return json.loads(proc.stdout.splitlines()[-1])["layers"]

    first, second = traced_pass(), traced_pass()
    counts = [name for name, unit in per_layer_metrics() if unit == "count" and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_restore_puts_every_original_back():
    from qvolkenborn import algebra, verify

    def current():
        return (qn.k_number, verify.SUITES["limits"], qn.reduce_cyclotomic_fraction,
                qpadic.PadicNumber.__dict__["__mul__"],
                qpadic.PadicNumber.__dict__["from_rational"],
                algebra.Polynomial.__dict__["__mul__"])

    originals = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(current(), originals))
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert all(a is b for a, b in zip(current(), originals))


def test_layers_are_isolated_where_claimed(tmp_path):
    def traced_workload(workload):
        jobs = bench_jobs.build(workload, 5, str(tmp_path))
        tracer = Tracer()
        tracer.install()
        try:
            records = run.run_jobs(jobs, tracer)
        finally:
            tracer.restore()
        assert not any(record[2] for record in records)
        return tracer.metrics(), sum(record[1] for record in records)

    symbolic, _ = traced_workload("symbolic")
    assert symbolic["padic.ops"] == 0
    assert symbolic["algebra.poly_gcd.nontrivial_calls"] > 0
    assert symbolic["algebra.poly_mul.large_calls"] > 0
    padic, wall = traced_workload("padic")
    assert padic["algebra.self_s"] < wall / 10
    assert padic["padic.ops"] > 0


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90)
    value, pct = run.tail(values[:36])
    assert pct == 72 and sum(v > value for v in values[:36]) >= 10
    with pytest.raises(run.BenchError):
        run.tail(values[:10])


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert set(run.NOMINAL_PASS_S) == set(run.WORKLOADS)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "padic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the references, against the engine's rational path and against sympy
# ---------------------------------------------------------------------------

def test_closed_forms_match_the_engine_rational_path():
    chi = make_character(5, (2,))
    table = [0, 1, -1, -1, 1]
    for q in (Fraction(6), Fraction(2, 7), Fraction(-3, 5)):
        desc = qm.QDescriptor.rational(q)
        for n in range(6):
            for x in (0, 1, 2):
                assert qn.k_polynomial(n, x, desc) == oracle.k_poly(n, x, q)
                assert qn.beta_polynomial(n, x, desc) == oracle.beta_poly(n, x, q)
            weights = oracle.twisted_weights(n, 5, q)
            assert qn.k_chi(n, chi, desc) == sum(c * a for c, a in zip(table, weights))


def test_classical_numbers_match_sympy():
    sympy = pytest.importorskip("sympy")
    euler = oracle.euler_numbers(30)
    bern = oracle.bernoulli_numbers(30)
    for n in range(31):
        assert euler[n] == Fraction(str(sympy.euler(n, 0)))
        if n != 1:   # sympy >= 1.12 takes B_1 = +1/2
            assert bern[n] == Fraction(str(sympy.bernoulli(n)))
    assert bern[1] == Fraction(-1, 2)


def _brute_force_sum(sympy, kind, n, x, q, size):
    q = sympy.Rational(q)
    sign = -1 if kind == "fermionic" else 1

    def bracket(t):
        return (1 - q ** t) / (1 - q)

    total = sum(bracket(x + j) ** n * (sign * q) ** j for j in range(size))
    return Fraction(str(total / ((1 - (sign * q) ** size) / (1 - sign * q))))


@pytest.mark.parametrize("kind", ["fermionic", "bosonic"])
def test_finite_sums_match_sympy_brute_force(kind):
    sympy = pytest.importorskip("sympy")
    for p, q, level in ((3, 4, 3), (5, 11, 2), (3, 7, 4)):
        for n, x in ((1, 0), (3, 0), (2, 1), (4, 2)):
            exact = _brute_force_sum(sympy, kind, n, x, q, p ** level)
            digits = 20
            approx = oracle.finite_sum(kind, n, x, q, p, p ** level, digits)
            diff = exact - approx
            assert diff == 0 or (oracle.valuation(diff.numerator, p)
                                 - oracle.valuation(diff.denominator, p)) >= digits


@pytest.mark.parametrize("kind", ["fermionic", "bosonic"])
def test_limits_are_the_p_adic_limits_of_sympy_sums(kind):
    """The closed forms the p-adic jobs are checked against are the p-adic
    limits of brute-force Riemann sums: the level-N sum agrees with them to
    at least N digits."""
    sympy = pytest.importorskip("sympy")
    p, q = 3, 4
    for n, x in ((1, 0), (2, 1), (3, 0)):
        limit = oracle.k_poly(n, x, q) if kind == "fermionic" else oracle.beta_poly(n, x, q)
        for level in range(1, 5):
            diff = _brute_force_sum(sympy, kind, n, x, q, p ** level) - limit
            gap = (math.inf if diff == 0 else
                   oracle.valuation(diff.numerator, p) - oracle.valuation(diff.denominator, p))
            assert gap >= level - 1, (n, x, level, gap)
