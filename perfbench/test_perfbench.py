"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import inspect
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(workdir):
    folder = os.path.join(workdir, "inputs")
    texts = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name)) as fh:
            texts[name] = fh.read()
    return texts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    a, b, c = (str(tmp_path / d) for d in "abc")
    jobs_a = workloads.build(name, 7, a)
    jobs_b = workloads.build(name, 7, b)
    workloads.build(name, 8, c)
    assert [j.argv for j in jobs_a] == [
        tuple(arg.replace(b, a) for arg in j.argv) for j in jobs_b]
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


def test_program_seeds_derive_from_the_workload_seed(tmp_path):
    def seeds(seed):
        jobs = workloads.build("sampling", seed, str(tmp_path / str(seed)))
        return [j.argv[j.argv.index("--seed") + 1] for j in jobs
                if "--seed" in j.argv]

    assert seeds(1) == seeds(1)
    assert seeds(1) != seeds(2)


def _benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert names and all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_lists_exactly_the_reported_metrics():
    bench = _benchmark()
    traced = set(tracer._Analysis({}, {}).metrics())
    traced |= set(tracer.parse_importtime(""))
    traced |= {"cli.artifact_bytes", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert all(m["unit"] == run._layer_unit(m["name"])
               for m in bench["per_layer"])
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(
        run.E2E_UNITS.items())
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)


def _uqsim_bindings():
    """(owner, attribute) -> object for every uqsim module and class."""
    import uqsim.cli  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "uqsim" and not name.startswith("uqsim."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(f"{name}.{attr}", cattr)] = cvalue
    return out


def _same_bindings(after, before):
    return after.keys() == before.keys() and all(
        after[k] is v for k, v in before.items())


def test_tracer_records_spans_and_restores_every_wrapper(tmp_path):
    import uqsim.cli

    before = _uqsim_bindings()
    t = tracer.Tracer()
    with t.installed():
        assert uqsim.cli.main is not before[("uqsim.cli", "main")]
        t.job = "rc"
        rc = uqsim.cli.main(["dc", "--model", "builtin:rc-lowpass",
                             "--order", "1", "--outdir", str(tmp_path)])
    assert rc == 0
    assert _same_bindings(_uqsim_bindings(), before)
    names = {rec[0] for rec in t.spans.values()}
    assert {"cli.main", "stsolver.solve_dc",
            "stsolver.select_testing_points"} <= names
    assert all(rec[4] == "rc" for rec in t.spans.values())
    m = t.layer_metrics()
    assert m["models.f_calls"] > 0 and m["stsolver.newton_solves"] > 0
    assert m["stsolver.testing_points"] == 2


def test_tracer_restores_wrappers_when_the_run_raises():
    import uqsim.stsolver

    before = _uqsim_bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert getattr(uqsim.stsolver.solve_dc, "_perfbench", False)
            raise RuntimeError("boom")
    assert _same_bindings(_uqsim_bindings(), before)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = {
        0: ["p", 0.0, 10.0, None, "j", 1.0, None],
        1: ["c", 1.0, 5.0, 0, "j", 0.0, None],   # two pool threads
        2: ["c", 3.0, 7.0, 0, "j", 0.0, None],
    }
    a = tracer._Analysis(spans, {})
    assert a.self_time(0) == pytest.approx(10.0 - 6.0 - 1.0)
    assert a.time(["p", "c"]) == pytest.approx(10.0)
    assert a.time(["c"]) == pytest.approx(8.0)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   numpy.core\n"
            "import time:      2000 |       2000 |     scipy.linalg\n"
            "import time:       300 |       2400 |   scipy\n"
            "import time:        40 |       2440 | uqsim.cli\n")
    m = tracer.parse_importtime(text)
    assert m["import.total_s"] == pytest.approx(2440e-6)
    assert m["import.scipy_s"] == pytest.approx(2300e-6)
    assert m["import.uqsim_self_s"] == pytest.approx(40e-6)
