"""Per-job CLI overhead of two checkouts: alternating benchmark runs, plus
the artifact-writing and argument-parsing layers timed on their own.

    python3 scripts/cli_overhead_bench.py --parent DIR --change DIR \
        [--workloads spectral hier sampling] [--seeds 0 1] [--pairs 10] \
        [--seconds 10] [--out FILE]
    python3 scripts/cli_overhead_bench.py --layers DIR [--anova-stages 40] \
        [--workloads spectral hier sampling]

With --parent and --change, each pair runs `perfbench/run.py --workload W
--seed S --trace 0` once in each checkout, for every workload and seed, the
side that runs first alternating pair by pair, and reports medians,
quartiles and the pairs in which the change read lower.  Then it runs
`spectral --trace 1` and `--layers` in each checkout, alternating, and
keeps the least time of each layer.  The result is one JSON document,
written to --out or printed.

With --layers DIR, it prints one JSON line: the least time of `import
uqsim.cli` from DIR in IMPORT_RUNS fresh interpreters (in this process's
environment, so with bytecode caches unless PYTHONDONTWRITEBYTECODE is
set); the max RSS of each job of the workloads (seed 0), each run once
through DIR's perfbench/launcher.py in a fresh process as the benchmark
runs it, and of a process that only imports `uqsim.cli`; then, with DIR's
library imported in this process, the first `build_parser` call a job
makes, the least time of `build_config`, and the time each JSON artifact
of the benchmark's jobs (seed 0) and of an `anova` run on a
--anova-stages diode-RC ladder takes to write, each checked to be the
artifact's bytes; last, the traced peak of `run_mc` DC on a
MC_STAGES-stage diode-RC ladder at each of MC_SAMPLES sample counts, in
MiB.  With --parent and --change, the max RSS of each job and those
traced peaks are the least of the layer runs, under job_rss_mb and
mc_traced_mib.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

E2E = ("wall_s", "setup_s", "compute_s", "peak_rss_mb")
# the counters a change to parsing and writing must leave alone
COUNTERS = ("models.f_calls", "models.jac_calls", "models.q_calls",
            "stsolver.newton_solves", "stsolver.newton_iters",
            "stsolver.point_solves", "stsolver.recover_calls",
            "stsolver.steps_accepted", "stsolver.steps_rejected",
            "cli.artifact_bytes")
DC_ARGV = ["dc", "--model", "builtin:diode-rectifier", "--order", "4"]
IMPORT_RUNS = 15
MC_STAGES = 40
MC_SAMPLES = (10_000, 40_000)


def _least(fn, repeats: int) -> float:
    """The least time of `repeats` calls, in ms."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _writer(path: str):
    """A call that rewrites the JSON artifact at path the way the loaded
    library writes it, and the artifact's text."""
    from uqsim import cli, polychaos, stsolver

    with open(path) as fh:
        text = fh.read()
    name = os.path.basename(path)
    if name == "transient_expansions.json":
        doc = json.loads(text)
        exps = tuple(polychaos.expansion_from_json(json.dumps(e))
                     for e in doc["expansions"])
        sol = stsolver.StSolution(doc["times"], exps, (), 0, ())
        return (lambda: cli._solution_json(sol)), text
    if name.endswith("_expansion.json"):
        exp = polychaos.expansion_from_json(text)
        return (lambda: polychaos.expansion_to_json(exp)), text
    if name == "block.json":   # hier-extract's own document
        doc = json.loads(text)
        return (lambda: polychaos._dump_json(doc) + "\n"), text
    return None, text


def _job_json_ms(workdir: str, repeats: int) -> dict:
    ms = {}
    for root, _, files in sorted(os.walk(workdir)):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            write, text = _writer(os.path.join(root, name))
            if write is None:
                continue
            if write() != text:
                raise SystemExit(f"{root}/{name}: the writer changed bytes")
            key = f"{os.path.basename(root)}/{name}"
            ms[key] = round(_least(write, repeats), 3)
    return ms


def _import_ms(src: str) -> float:
    """The least time of `import uqsim.cli` from src in IMPORT_RUNS fresh
    interpreters, each timing its own import, in ms."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); "
            "t0 = time.perf_counter(); import uqsim.cli; "
            "print(time.perf_counter() - t0)")
    return min(float(subprocess.run([sys.executable, "-c", code],
                                    capture_output=True, text=True,
                                    check=True).stdout)
               for _ in range(IMPORT_RUNS)) * 1e3


def _rss_mb(cmd, cwd=None) -> float:
    """Max RSS of one run of cmd, in MB as perfbench/run.py counts it.

    Linux carries this process's own peak RSS into the child's at exec,
    so this is called before this process loads numpy or the library."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed")
    return round(usage.ru_maxrss / 1024.0, 2)   # KiB on Linux


def _job_rss_mb(checkout: str, names) -> dict:
    """Max RSS of an import of `uqsim.cli` alone, and of each job of the
    workloads (seed 0) in its own launcher process, in list order."""
    import workloads

    launcher = os.path.join(checkout, "perfbench", "launcher.py")
    src = os.path.join(checkout, "src")
    out = {"import_only": _rss_mb([
        sys.executable, "-c",
        f"import sys; sys.path[0] = {src!r}; import uqsim.cli"])}
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            workdir = os.path.join(work, name)
            for job in workloads.build(name, 0, workdir):
                out[f"{name}/{job.id}"] = _rss_mb(
                    [sys.executable, launcher,
                     os.path.join(workdir, f"{job.id}.stamp"), *job.argv,
                     "--outdir", os.path.join(workdir, job.id)], workdir)
    return out


def _mc_traced_mib() -> dict:
    """The traced peak of run_mc DC on the MC_STAGES-stage ladder of the
    benchmark's generator (seed 0), per sample count, in MiB."""
    import tracemalloc

    import workloads
    from uqsim import netlist
    from uqsim.montecarlo import run_mc

    model = netlist.elaborate(netlist.parse_netlist(
        workloads.ladder_netlist(MC_STAGES, 0)))
    out = {"stages": MC_STAGES}
    for n in MC_SAMPLES:
        tracemalloc.start()
        try:
            run_mc(model, "dc", n, 0)
            out[f"samples_{n}"] = round(
                tracemalloc.get_traced_memory()[1] / 2 ** 20, 2)
        finally:
            tracemalloc.stop()
    return out


def layers(checkout: str, names, anova_stages: int, repeats: int) -> dict:
    src = os.path.join(checkout, "src")
    import_ms = round(_import_ms(src), 3)
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    job_rss_mb = _job_rss_mb(checkout, names)
    import workloads
    from uqsim import cli

    out = {"import_ms": import_ms, "job_rss_mb": job_rss_mb,
           "first_build_parser_ms": round(
               _least(lambda: cli.build_parser(DC_ARGV[0]), 1), 3)}
    out["build_config_ms"] = round(
        _least(lambda: cli.build_config(DC_ARGV), 50), 3)
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()):
        for name in names:
            workdir = os.path.join(work, name)
            for job in workloads.build(name, 0, workdir):
                argv = list(job.argv) + [
                    "--outdir", os.path.join(workdir, job.id)]
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name}/{job.id} failed")
        out["job_json_ms"] = _job_json_ms(work, repeats)
        netlist = os.path.join(work, "ladder.cir")
        with open(netlist, "w") as fh:
            fh.write(workloads.ladder_netlist(anova_stages, 0))
        outdir = os.path.join(work, "anova")
        if cli.main(["anova", "--netlist", netlist, "--order", "3", "--m",
                     "2", "--sigma", "0", "--output", f"v(n{anova_stages})",
                     "--outdir", outdir]) != 0:
            raise SystemExit("the anova run failed")
        write, text = _writer(os.path.join(outdir, "anova_expansion.json"))
        if write() != text:
            raise SystemExit("anova_expansion.json: the writer changed bytes")
        out["anova_json"] = {"stages": anova_stages, "bytes": len(text),
                             "ms": round(_least(write, repeats), 3)}
    out["mc_traced_mib"] = _mc_traced_mib()
    return out


def _run(cmd, cwd) -> dict:
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5),
            "q3": round(q3, 5)}


def _pairs(sides: dict, workload: str, seed: int, pairs: int,
           seconds: float) -> dict:
    runs = {side: {m: [] for m in E2E} for side in sides}
    ok = True
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            doc = _run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"], sides[side])
            ok = ok and doc["correct"] and doc["failed"] == 0
            for m in E2E:
                runs[side][m].append(round(doc["metrics"][m]["value"], 5))
        print(f"{workload} seed {seed} pair {i + 1}: compute_s parent "
              f"{runs['parent']['compute_s'][-1]} change "
              f"{runs['change']['compute_s'][-1]}", file=sys.stderr)
    out = {"pairs": pairs, "every_run_correct_with_0_failed": ok}
    for m in E2E:
        par, chg = runs["parent"][m], runs["change"][m]
        out[m] = {"parent": _summary(par), "change": _summary(chg),
                  "change_lower_in": f"{sum(c < p for p, c in zip(par, chg))}"
                                     f"/{pairs}",
                  "runs": {"parent": par, "change": chg}}
    return out


def compare(args) -> dict:
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    doc = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "nproc": os.cpu_count()},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "alternating pairs of parent and change, the side that "
                  "runs first alternating pair by pair, each side from its "
                  "own checkout; medians and quartiles over the pairs; "
                  "change_lower_in counts the pairs in which the change "
                  "read lower; layers and trace counters are the least of "
                  f"{args.layer_runs} alternating runs per side",
        "end_to_end": {f"{w}_seed{s}": _pairs(sides, w, s, args.pairs,
                                              args.seconds)
                       for w in args.workloads for s in args.seeds},
    }
    layer_runs = {side: [] for side in sides}
    trace = {side: {} for side in sides}
    me = os.path.abspath(__file__)
    for i in range(args.layer_runs):
        for side in (sides if i % 2 == 0 else list(sides)[::-1]):
            layer_runs[side].append(_run(
                [sys.executable, me, "--layers", sides[side],
                 "--anova-stages", str(args.anova_stages),
                 "--workloads", *args.workloads], sides[side]))
            metrics = _run([sys.executable, "perfbench/run.py",
                            "--workload", "spectral", "--trace", "1"],
                           sides[side])["metrics"]
            for name in ("cli.self_s",) + COUNTERS:
                value = metrics[name]["value"]
                seen = trace[side].setdefault(name, value)
                trace[side][name] = min(seen, value)
                if name in COUNTERS and value != seen:
                    raise SystemExit(f"{side}: {name} moved between runs")
    doc["layers_ms"] = {side: _least_fields(r) for side, r in
                        layer_runs.items()}
    for key in ("job_rss_mb", "mc_traced_mib"):
        doc[key] = {side: doc["layers_ms"][side].pop(key) for side in sides}
    doc["trace_spectral_seed0"] = trace
    return doc


def _least_fields(runs: list):
    """Field by field, the least of the runs' numbers."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: _least_fields([r[k] for r in runs]) for k in first}
    return min(runs) if isinstance(first, float) else first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--layers", metavar="DIR",
                    help="print DIR's layer timings and exit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--layer-runs", type=int, default=4)
    ap.add_argument("--anova-stages", type=int, default=40)
    ap.add_argument("--workloads", nargs="+",
                    default=["spectral", "hier", "sampling"],
                    help="the benchmark workloads to run in pairs and "
                         "whose JSON artifacts to time")
    ap.add_argument("--repeats", type=int, default=20,
                    help="calls per writer timing")
    ap.add_argument("--out", help="write the JSON document here")
    args = ap.parse_args(argv)
    if args.layers is not None:
        print(json.dumps(layers(os.path.abspath(args.layers), args.workloads,
                                args.anova_stages, args.repeats)))
        return 0
    if args.parent is None or args.change is None:
        ap.error("give --layers DIR, or both --parent and --change")
    text = json.dumps(compare(args), indent=1) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
