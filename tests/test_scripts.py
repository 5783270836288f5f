"""The study scripts in scripts/ and the README's Python examples run to
completion, and the benchmark harness in perfbench/ still finds the
library names it reads."""

import functools
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv", [
    ("diode_st_vs_mc", ["--samples", "2000"]),
    ("hier_two_level", ["--samples", "10000"]),
    ("opamp_anova_sensitivity", ["--m", "2", "--order", "2"]),
    ("lu_crossover", ["--repeats", "1"]),
])
def test_script_runs(name, argv, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out


def test_overhead_bench_times_a_checkouts_layers(tmp_path):
    # a separate process: --layers puts the checkout first on sys.path
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "cli_overhead_bench.py"), "--layers",
         str(SCRIPTS.parent), "--workloads", "spectral", "--anova-stages",
         "3", "--repeats", "1"], capture_output=True, text=True, check=True,
        cwd=tmp_path)
    doc = json.loads(out.stdout)
    assert doc["import_ms"] > 0
    assert doc["first_build_parser_ms"] > 0
    assert set(doc["job_json_ms"]) == {
        "dc-diode/dc_expansion.json", "dc-ladder8/dc_expansion.json",
        "tran-plate/transient_expansions.json",
        "tran-ladder4/transient_expansions.json"}
    assert doc["anova_json"]["stages"] == 3
    # one launcher process per job, and one that only imports the CLI
    rss = doc["job_rss_mb"]
    assert set(rss) == {"import_only", "spectral/dc-diode",
                        "spectral/dc-ladder8", "spectral/tran-plate",
                        "spectral/tran-ladder4"}
    assert all(mb >= rss["import_only"] > 0 for mb in rss.values())
    # run_mc's traced peak on the 40-stage ladder grows with the samples
    mc = doc["mc_traced_mib"]
    assert mc["stages"] == 40
    assert 0 < mc["samples_10000"] < mc["samples_40000"]


def test_job_artifacts_writes_a_checkouts_artifacts(tmp_path):
    # a separate process: --src puts the checkout first on sys.path; two
    # runs into two directories give the same bytes, so they diff clean
    trees = []
    for out in ("a", "b"):
        subprocess.run(
            [sys.executable, str(SCRIPTS / "job_artifacts.py"), "--src",
             str(SCRIPTS.parent), "--out", str(tmp_path / out), "--seeds",
             "0", "--workloads", "spectral"], capture_output=True, check=True)
        root = tmp_path / out / "seed0" / "spectral"
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in root.rglob("*") if p.is_file()})
    assert sorted(trees[0]) == [
        "dc-diode.stdout", "dc-diode/dc_expansion.json",
        "dc-diode/dc_stats.csv", "dc-ladder8.stdout",
        "dc-ladder8/dc_expansion.json", "dc-ladder8/dc_stats.csv",
        "inputs/ladder4t.cir", "inputs/ladder8.cir", "tran-ladder4.stdout",
        "tran-ladder4/transient_expansions.json",
        "tran-ladder4/transient_stats.csv", "tran-plate.stdout",
        "tran-plate/transient_expansions.json",
        "tran-plate/transient_stats.csv"]
    # the exit code, then stdout with the workload's directory as "."
    stdout = trees[0]["dc-diode.stdout"].decode()
    assert stdout.startswith("exit 0\n") and stdout.endswith(
        "; wrote dc_stats.csv, dc_expansion.json in ./dc-diode\n")
    assert trees[0] == trees[1]


def test_line_traffic_reports_what_the_benchmark_runs():
    # a separate process, so that importing the library is traced too
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_traffic.py"), "--bench",
         "--workloads", "spectral"], capture_output=True, text=True,
        check=True).stdout
    never = {}
    for line in out.splitlines():
        module, sep, rest = line.partition(" never run:")
        if sep:
            never[module] = {int(v) for v in rest.split()}
    from uqsim import models, stsolver

    def body(fn):
        lines, first = inspect.getsourcelines(fn)
        stmts = load("line_traffic").statements(inspect.getsourcefile(fn))
        return {k for k in stmts if first < k < first + len(lines)}

    solve_dc = body(stsolver.solve_dc)
    assert solve_dc and not solve_dc & never["stsolver.py"]
    second_order = body(models.second_order_model)
    assert second_order and second_order <= never["models.py"]


def test_readme_examples_run():
    # the blocks build on each other, so they share one namespace
    text = (SCRIPTS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["var"].shape == (namespace["model"].n,)
    assert namespace["S"].shape == namespace["T"].shape == (2,)


PERFBENCH = SCRIPTS.parent / "perfbench"
PACKAGE = SCRIPTS.parent / "src" / "uqsim"


LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def user_corpus() -> str:
    """The library, scripts, benchmark harness and README as one text: what
    a public name needs a use in.  The library's __all__ lists do not
    count."""
    texts = [re.sub(r"^__all__ = \[.*?\]", "", path.read_text(),
                    flags=re.S | re.M) for path in LIBRARY]
    texts += [path.read_text() for path in sorted(SCRIPTS.glob("*.py"))
              + sorted(PERFBENCH.glob("*.py"))]
    texts.append((SCRIPTS.parent / "README.md").read_text())
    return "\n".join(texts)


def test_every_public_name_has_a_user():
    # a name only the tests use is test code and belongs in tests/; its own
    # definition, __all__ lists and the package's re-exports do not count
    corpus = user_corpus()
    unused = []
    for path in LIBRARY:
        module = importlib.import_module(f"uqsim.{path.stem}")
        for name in getattr(module, "__all__", ()):
            definition = rf"^(?:(?:def|class) {name}\b|{name} =).*$"
            uses = re.sub(definition, "", corpus, flags=re.M)
            if not re.search(rf"\b{name}\b", uses):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_public_method_has_a_user():
    # the same rule for the public methods and properties of the library's
    # classes, used as attributes (`.name`, or "name" for getattr) outside
    # their own `def` line; a name that a base class outside the library
    # defines (an exception's) is an override, not the library's own
    corpus = user_corpus()
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    unused = []
    for path in LIBRARY:
        module = importlib.import_module(f"uqsim.{path.stem}")
        for cls_name, cls in vars(module).items():
            if not (inspect.isclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            foreign = [base for base in cls.__mro__[1:]
                       if not base.__module__.startswith("uqsim")]
            for name, attr in vars(cls).items():
                if (name.startswith("_")
                        or any(hasattr(base, name) for base in foreign)
                        or not (inspect.isfunction(attr)
                                or isinstance(attr, kinds))):
                    continue
                uses = re.sub(rf"^\s*def {name}\b.*$", "", corpus,
                              flags=re.M)
                if not re.search(rf"\.{name}\b|([\"']){name}\1", uses):
                    unused.append(f"{path.stem}.{cls_name}.{name}")
    assert unused == []


def test_benchmark_harness_reads_the_library(tmp_path):
    # the benchmark's launcher and tracer reach into private names of the
    # library; a change that removes one must fail here, not only there
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    out = subprocess.run([sys.executable, str(PERFBENCH / "launcher.py"),
                          "--env"], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out)["cli_threads"] == 1

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from uqsim import cli, stsolver

    originals = (stsolver._map_points, stsolver._integrate_points,
                 stsolver._PointIntegrator.attempt)
    t = tracer.Tracer()
    with t.installed():
        assert cli.main(["transient", "--model", "builtin:rc-lowpass",
                         "--order", "1", "--t-end", "1e-3",
                         "--outdir", str(tmp_path)]) == 0
    assert (stsolver._map_points, stsolver._integrate_points,
            stsolver._PointIntegrator.attempt) == originals
    names = {rec[0] for rec in t.spans.values()}
    assert {"stsolver._PointIntegrator._implicit_solve",
            "stsolver._damped_newton"} <= names
    metrics = t.layer_metrics()
    assert metrics["stsolver.steps_accepted"] > 0
    # counted only if building a StochasticDae still runs the class's
    # __post_init__, which the tracer wraps to count model calls
    assert metrics["models.f_calls"] > 0


def test_shared_clock_solves_once_per_step_log_entry(monkeypatch):
    # the tracer counts point_solves as _implicit_solve spans and steps as
    # step-log entries: on the shared clock each attempt, accepted or not,
    # is one entry, one attempt and one implicit solve
    from uqsim import models, stsolver

    counts = {"attempt": 0, "_implicit_solve": 0}
    for name in counts:
        def counting(self, *args, _fn=getattr(stsolver._PointIntegrator,
                                              name), _name=name):
            counts[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(stsolver._PointIntegrator, name, counting)
    dae = models.builtin_model("rc_lowpass")
    tps = stsolver.select_testing_points(stsolver.standard_bases(dae, 1), 1)
    # from an empty capacitor: the steps grow and some are rejected
    X0 = np.array([[1.0, 0.0, -1.0 / (1e3 * pt[0])] for pt in tps.points])
    sol = stsolver.integrate_transient(
        dae, tps, (0.0, 1e-3), x0=stsolver.recover_coefficients(X0, tps))
    log = sol.step_log
    assert counts == {"attempt": len(log), "_implicit_solve": len(log)}
    assert sum(1 for entry in log if not entry[2]) > 0   # some rejected
    assert sol.n_point_solves == tps.n_points * len(log)
