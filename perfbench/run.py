"""Benchmark of the qvolkenborn engine: one command per workload.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The command is a closed loop with one
client: it runs the workload's whole job list in a fresh single-threaded
Python process (a pass), waits for it, and starts the next pass.  Every pass
builds its job list from the seed, so every pass does the same work with
cold engine caches.  The number of passes is --seconds divided by the
workload's nominal pass time (its pass time at the commit that introduced
the benchmark), at least MIN_PASSES; it does not depend on how fast the
passes run, so every run pools the same number of job latencies.

--trace 0 reports the end-to-end metrics.  Times are reported at reference
speed (see bench_speed.py): each measured time scaled by how fast the
machine ran a fixed reference loop at that moment, which cancels the drift
of a shared machine.  The measured seconds are printed beside them.
  setup_s        fresh interpreter, from before the engine import until the
                 first job can start (median of several set-ups)
  wall_ref_s     one pass over the whole job list, checks included (median
                 over passes)
  job_p50_ref_s  median job latency over all passes
  job_tail_ref_s the highest whole percentile with at least TAIL_BEYOND jobs
                 above it; the percentile and sample count are printed
  peak_rss_mb    largest ru_maxrss of the passes

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (see bench_trace.py) with the tracing overhead;
the traced pass's span records are written under .perfbench-out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Failed jobs are listed above it with their
reasons (failed_frac is failed over attempted).  The exit code is 0 when
every job passed its check, 1 when some job failed, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qvolkenborn")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("symbolic", "padic", "verify-cli")
NOMINAL_PASS_S = {"symbolic": 6.0, "padic": 2.5, "verify-cli": 10.0}
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("job_p50_ref_s", "s"),
              ("job_tail_ref_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5        # extra set-up-only processes per untraced run
MIN_PASSES = 2          # untraced passes per untraced run, whatever --seconds says
TAIL_BEYOND = 10        # jobs that must lie above the tail percentile
RUN_BUDGET_S = 170      # a run never starts a process it could not finish by then


# ---------------------------------------------------------------------------
# worker: one pass in a fresh process
# ---------------------------------------------------------------------------

def worker(workload: str, seed: int, setup_only: bool, traced: bool, spans_out: str | None) -> dict:
    import resource
    import tempfile

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import bench_jobs  # imports the engine

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        jobs = bench_jobs.build(workload, seed, workdir)
        setup_s = time.perf_counter() - start
        from bench_speed import scale_now
        setup = {"setup_s": setup_s, "setup_ref_s": setup_s * scale_now()}
        if setup_only:
            return setup
        if traced:
            from bench_trace import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                records = run_jobs(jobs, tracer)
            finally:
                tracer.restore()
        else:
            from bench_speed import SpeedProbe
            with SpeedProbe() as probe:
                records = run_jobs(jobs, probe=probe)
    out = {**setup,
           "jobs": [[name, seconds, reason] for name, seconds, reason, _, _ in records],
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        out["layers"] = tracer.metrics()
        out["unrestored"] = tracer.unrestored()
        if spans_out:
            write_spans(tracer, jobs, spans_out)
    else:
        out["ref_seconds"] = [seconds * probe.scale(t0, t1)
                              for _, seconds, _, t0, t1 in records]
    return out


def run_jobs(jobs, tracer=None, probe=None) -> list[list]:
    """Run every job and its check back to back.  A job that raises or fails
    its check is recorded as failed with the reason; none is retried or
    skipped.  Garbage is collected before each job, outside its time.
    Returns [name, seconds, failure reason or None, start, end] per job; the
    seconds exclude the time the speed probe took."""
    records = []
    clock = time.perf_counter
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        gc.collect()
        spent = probe.spent if probe is not None else 0.0
        t0 = clock()
        try:
            reason = job.check(job.run(), job.ref)
        except Exception as exc:  # a raising job is a failed job
            reason = f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end_job(job.name)
        if probe is not None:
            spent = probe.spent - spent
        records.append([job.name, t1 - t0 - spent, reason, t0, t1])
    return records


def write_spans(tracer, jobs, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"jobs": [job.name for job in jobs],
                                 "dropped_spans": tracer.dropped}) + "\n")
        for index, span in enumerate(tracer.spans):
            if span is not None:
                label, start, end, parent, job = span
                handle.write(json.dumps({"span": index, "name": label, "start": start,
                                         "end": end, "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------

class BenchError(Exception):
    pass


def spawn(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank), and that percentile."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} jobs are too few for a tail with {TAIL_BEYOND} beyond it")
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(latencies)[rank - 1], pct


def count_src_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                total += sum(1 for _ in handle)
    return total


def orchestrate(args) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups, passes, traced = [], [], []
    if args.trace:
        passes.append(spawn(args, [], deadline))
        spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced.append(spawn(args, ["--traced", "--spans-out", spans_out], deadline))
    else:
        count = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        for index in range(count):
            # spread the set-up probes over the run, so their median sees
            # the machine as the passes do
            while len(setups) < SETUP_PROBES * (index + 1) // count + index:
                setups.append(spawn(args, ["--setup-only"], deadline))
            passes.append(spawn(args, [], deadline))
            setups.append(passes[-1])

    jobs = [job for result in passes + traced for job in result["jobs"]]
    failures = [(name, reason) for name, _, reason in jobs if reason]
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    unrestored = sorted({name for result in traced for name in result.get("unrestored", [])})
    if unrestored:
        print(f"FAILED tracer left wrappers installed: {', '.join(unrestored)}")
    correct = not failures and not unrestored

    walls = [sum(seconds for _, seconds, _ in r["jobs"]) for r in passes]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced passes of {len(passes[0]['jobs'])} jobs")
    print(f"  failed_frac    {len(failures) / len(jobs):.4f}    ({len(failures)} of {len(jobs)} jobs)")
    if args.trace:
        metrics = layer_report(traced[0], walls[0])
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:.6g} {unit}")
    else:
        metrics, notes = end_to_end_report(passes, setups, walls)
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:12.6f} {unit:3s} {notes[name]}")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def end_to_end_report(passes: list[dict], setups: list[dict], walls: list[float]):
    latencies = [s for r in passes for _, s, _ in r["jobs"]]
    ref_latencies = [s for r in passes for s in r["ref_seconds"]]
    ref_walls = [sum(r["ref_seconds"]) for r in passes]
    ref_tail, pct = tail(ref_latencies)
    raw_tail, _ = tail(latencies)
    values = {"setup_s": statistics.median(s["setup_ref_s"] for s in setups),
              "wall_ref_s": statistics.median(ref_walls),
              "job_p50_ref_s": statistics.median(ref_latencies),
              "job_tail_ref_s": ref_tail,
              "peak_rss_mb": max(r["rss_mb"] for r in passes)}
    notes = {"setup_s": f"median of {len(setups)} fresh set-ups; measured "
                        f"{statistics.median(s['setup_s'] for s in setups):.6f} s",
             "wall_ref_s": f"median of {len(passes)} passes; measured "
                           f"wall_s {statistics.median(walls):.6f} s",
             "job_p50_ref_s": f"median of {len(latencies)} jobs; measured "
                              f"job_p50_s {statistics.median(latencies):.6f} s",
             "job_tail_ref_s": f"p{pct} of {len(latencies)} jobs; measured "
                               f"job_tail_s {raw_tail:.6f} s",
             "peak_rss_mb": "largest ru_maxrss of the passes"}
    units = dict(END_TO_END)
    return {name: (values[name], units[name]) for name, _ in END_TO_END}, notes


def layer_report(traced: dict, untraced_wall: float) -> dict:
    from bench_trace import per_layer_metrics

    values = {name: (traced["layers"].get(name, 0), unit) for name, unit in per_layer_metrics()}
    traced_wall = sum(seconds for _, seconds, _ in traced["jobs"])
    values["src.lines"] = (count_src_lines(), "count")
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.untraced_wall_s"] = (untraced_wall, "s")
    values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"error: no engine source at {PACKAGE}; run from a checkout\n")
        return 2
    if args.worker:
        result = worker(args.workload, args.seed, args.setup_only, args.traced, args.spans_out)
        print(json.dumps(result))
        return 0
    try:
        return orchestrate(args)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
