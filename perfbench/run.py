"""uqsim benchmark: timed batches of `uqsim <analysis>` jobs.

    python3 perfbench/run.py --workload spectral|hier|sampling \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

A workload is a fixed, seeded list of jobs (see workloads.py).  Each job is
a fresh process with default CLI settings (no --threads, so the pool size
is the core count), started by launcher.py; the jobs run one after another
from this process, a closed loop with one client.  Every job's artifacts
are checked (checks.py); a job fails if it exits non-zero or its output
fails a check.

--trace 0 repeats the job list as often as fits in S seconds (at least
twice) and reports the end-to-end metrics, each summed over the jobs of
their medians over the passes (see end_to_end):

    wall_s       spawn to exit
    setup_s      spawn until `uqsim.cli` is imported (interpreter + import)
    compute_s    wall_s - setup_s
    peak_rss_mb  largest max RSS of any job process

plus a `failed_frac` line: failed jobs over jobs attempted.

--trace 1 calls `uqsim.cli.main` for each job in this process: a warm-up
pass, a plain pass and a pass under the outside-in tracer (tracer.py).  It
reports the per-layer metrics, the import breakdown from `python -X
importtime`, and the tracing overhead (traced minus plain compute time).
Spans go to perfbench/_work/.

Every run first starts one process that imports `uqsim.cli` and prints the
run environment; it also warms `__pycache__` before timing starts.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Inputs and artifacts live
in perfbench/_work/<workload>/, which each run recreates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")
LAUNCHER = os.path.join(HERE, "launcher.py")
IMPORTTIME_RUNS = 3
MIN_PASSES = 2          # one pass alone is too noisy to report
JOB_TIMEOUT_S = 120     # a job still running after this is killed; it fails

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s",
             "peak_rss_mb": "MB"}


@dataclass
class JobResult:
    """Outcome of one job in one pass; times in seconds."""

    job: object
    wall: float
    setup: float
    rss_mb: float
    error: str | None       # None when the job passed every check


def _clean(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def probe_environment() -> dict:
    """Runs the launcher once: run environment, and a warm __pycache__."""
    out = subprocess.run([sys.executable, LAUNCHER, "--env"], check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


class Runner:
    """Runs one workload's jobs and checks their artifacts."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        from workloads import build

        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(WORK, workload)
        _clean(self.workdir)
        self.jobs = build(workload, seed, self.workdir)
        self.reference = reference
        self.stats: dict[str, dict] = {}

    def outdir(self, job) -> str:
        return os.path.join(self.workdir, job.id)

    def argv(self, job) -> list:
        return list(job.argv) + ["--outdir", self.outdir(job)]

    def check(self, job) -> str | None:
        """None if the job's artifacts pass; else the reason."""
        import checks

        try:
            stats = checks.job_stats(job.argv[0], self.outdir(job))
            self.stats[job.id] = stats
            if self.reference is not None:
                ref = self.reference["jobs"][self.workload][job.id]
                checks.compare(stats, ref, job.match,
                               self.seed == self.reference["seed"])
        except checks.CheckError as err:
            return str(err)
        return None

    def run_job(self, job) -> JobResult:
        outdir = self.outdir(job)
        _clean(outdir)
        stamp = os.path.join(self.workdir, f"{job.id}.stamp")
        log = os.path.join(self.workdir, f"{job.id}.log")
        with open(log, "w") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, LAUNCHER, stamp] + self.argv(job),
                cwd=self.workdir, stdout=fh, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux
        try:
            with open(stamp) as fh:
                setup = float(fh.read()) - t0
        except (OSError, ValueError):
            setup = t1 - t0     # died before the import finished
        if proc.returncode != 0:
            with open(log) as fh:
                tail = fh.read()[-500:]
            error = f"exit code {proc.returncode}: {tail.strip()}"
        else:
            error = self.check(job)
        return JobResult(job, t1 - t0, setup, rss_mb, error)

    def run_pass(self) -> list[JobResult]:
        return [self.run_job(job) for job in self.jobs]

    def run_in_process(self, tracer=None) -> list[JobResult]:
        """One pass calling `uqsim.cli.main` here, under the tracer if one
        is given; only compute time is measured."""
        import uqsim.cli

        timings = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            for job in self.jobs:
                _clean(self.outdir(job))
                if tracer:
                    tracer.job = job.id
                log = os.path.join(self.workdir, f"{job.id}.log")
                with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
                        contextlib.redirect_stderr(fh):
                    t0 = time.perf_counter()
                    try:
                        rc = uqsim.cli.main(self.argv(job))
                    except Exception as exc:   # report, keep the run going
                        print(f"{type(exc).__name__}: {exc}")
                        rc = -1
                    timings.append((time.perf_counter() - t0, rc))
        results = []
        for job, (dt, rc) in zip(self.jobs, timings):
            error = (f"exit code {rc}" if rc != 0 else self.check(job))
            results.append(JobResult(job, dt, 0.0, 0.0, error))
        return results


def end_to_end(passes: list[list[JobResult]]) -> dict:
    """Medians over passes, summed over jobs.

    Set-up is the same interpreter start and import for every job, so
    setup_s pools all jobs: the job count times the median job set-up.
    compute_s sums each job's median compute time.
    """
    results = [r for p in passes for r in p]
    setup = len(passes[0]) * statistics.median(r.setup for r in results)
    compute = sum(statistics.median(r.wall - r.setup for r in per_job)
                  for per_job in zip(*passes))
    return {"wall_s": setup + compute, "setup_s": setup,
            "compute_s": compute,
            "peak_rss_mb": max(r.rss_mb for r in results)}


def import_breakdown() -> dict:
    """Median of each import.* metric over a few `-X importtime` runs."""
    from tracer import parse_importtime

    code = f"import sys; sys.path.insert(0, {SRC!r}); import uqsim.cli"
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                             check=True, capture_output=True, text=True,
                             timeout=120)
        runs.append(parse_importtime(out.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> tuple[dict, list[JobResult]]:
    """Returns (metrics with units, every job result)."""
    runner = Runner(workload, seed, reference)
    env = probe_environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    if not trace:
        # whole passes, at least MIN_PASSES; stop when another pass like
        # the last would overrun
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(runner.run_pass())
            now = time.monotonic()
            if (len(passes) >= MIN_PASSES
                    and (now - start) + (now - t0) > seconds):
                break
        e2e = end_to_end(passes)
        print(f"{len(passes)} pass(es) of {len(runner.jobs)} jobs")
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
        return metrics, [r for p in passes for r in p]

    from checks import artifact_bytes
    from tracer import Tracer

    imports = import_breakdown()
    # the first pass in a process pays one-off costs; it is not timed
    warmup = runner.run_in_process()
    untraced = runner.run_in_process()
    tracer = Tracer()
    traced = runner.run_in_process(tracer)
    layers = tracer.layer_metrics()
    layers.update(imports)
    layers["cli.artifact_bytes"] = sum(artifact_bytes(runner.outdir(j))
                                       for j in runner.jobs)
    layers["trace.overhead_s"] = (sum(r.wall for r in traced)
                                  - sum(r.wall for r in untraced))
    spans_path = os.path.join(runner.workdir, "trace.json")
    tracer.dump(spans_path, {"workload": workload, "seed": seed, "env": env})
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
    return metrics, warmup + untraced + traced


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", ".cond_max")):
        return "ratio"
    return "count"


def write_reference() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    jobs = {}
    for workload in WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED, None)
        for res in runner.run_pass():
            if res.error is not None:
                print(f"{workload}/{res.job.id}: {res.error}",
                      file=sys.stderr)
                return 1
        jobs[workload] = runner.stats
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "jobs": jobs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")
    return 0


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rerun every workload at the default seed and "
                        "store its statistics as the reference")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uqsim", "cli.py")):
        print(f"error: no uqsim sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except OSError as err:
        print(f"error: cannot read the reference statistics: {err}",
              file=sys.stderr)
        return 2

    metrics, results = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), reference)
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.job.id}: {r.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {len(failed) / len(results)!r} fraction "
          f"({len(failed)} of {len(results)} jobs)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
