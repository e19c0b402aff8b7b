"""The benchmark's job lists run against the engine and pass their own checks.

The jobs call the engine by module attribute, so a public name they use and
the engine no longer has fails here, inside the tier-1 suite, and not only in
a benchmark run.  The same holds for the classes the traced pass wraps.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["symbolic", "padic", "verify-cli"])
def test_every_job_of_a_workload_passes_its_check(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_jobs

    for job in bench_jobs.build(workload, 1, str(tmp_path)):
        assert job.check(job.run(), job.ref) is None, job.name


# a row of the traced pass that each workload must reach: the hooks on
# riemann_sum and integrate and the verify suite labels are read here
REACHED = {"symbolic": ("qnumbers.self_s", "algebra.poly_mul.calls"),
           "padic": ("qmeasure.riemann_sum.calls", "qmeasure.integrate.levels"),
           "verify-cli": ("cli.main.self_s", "verify.measure.s")}


@pytest.mark.parametrize("workload", list(REACHED))
def test_the_traced_pass_runs_and_restores_every_original(workload, tmp_path, monkeypatch):
    # the traced benchmark pass wraps the classes and functions bench_trace
    # names; a class renamed or removed in the engine fails install() here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_jobs
    from bench_trace import Tracer

    jobs = bench_jobs.build(workload, 1, str(tmp_path))
    tracer = Tracer()
    try:
        tracer.install()
        for index, job in enumerate(jobs):
            tracer.begin_job(index)
            assert job.check(job.run(), job.ref) is None, job.name
            tracer.end_job(job.name)
        metrics = tracer.metrics()
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert all(metrics[row] > 0 for row in REACHED[workload]), {
        row: metrics[row] for row in REACHED[workload]}
