"""The benchmark's job lists run against the engine and pass their own checks.

The jobs call the engine by module attribute, so a public name they use and
the engine no longer has fails here, inside the tier-1 suite, and not only in
a benchmark run.
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
