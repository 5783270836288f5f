"""End-to-end driver behavior: exit codes, artifacts, reproducibility."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from uqsim import cli, hier, polychaos, stsolver
from uqsim.anova import sample_count
from uqsim.polychaos import expansion_from_json

DIVIDER = ("V1 1 0 1\n"
           "R1 1 2 1k variation=relative:gauss(1,0.05)\n"
           "R2 2 0 1k\n"
           ".op\n")

RC = ("V1 1 0 1\n"
      "R1 1 2 1k variation=relative:gauss(1,0.05)\n"
      "C1 2 0 1u\n"
      ".tran 1u 2m\n")


@pytest.fixture
def divider(tmp_path):
    path = tmp_path / "divider.cir"
    path.write_text(DIVIDER)
    return str(path)


def read_stats(path):
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = line.strip().split(",")
            rows[cells[0]] = dict(zip(header[1:],
                                      (float(c) for c in cells[1:])))
    return rows


# ---------------------------------------------------------------------------
# happy paths


def test_dc_divider_writes_stats(divider, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["dc", "--netlist", divider, "--order", "2",
                   "--outdir", str(out)])
    assert rc == 0
    stats = read_stats(out / "dc_stats.csv")
    assert stats["v(2)"]["mean"] == pytest.approx(0.5, abs=0.01)
    assert 0.005 < stats["v(2)"]["std"] < 0.02
    exp = expansion_from_json((out / "dc_expansion.json").read_text())
    mean, _ = exp.mean_variance()
    assert float(mean[1]) == pytest.approx(stats["v(2)"]["mean"], rel=1e-12)


def test_expansion_with_a_degenerate_kappa_is_refused(divider, tmp_path):
    # a zero kappa loaded silently and evaluated to NaN
    out = tmp_path / "out"
    assert cli.main(["dc", "--netlist", divider, "--order", "2",
                     "--outdir", str(out)]) == 0
    doc = json.loads((out / "dc_expansion.json").read_text())
    doc["families"][0]["kappa"][2] = 0.0
    with pytest.raises(polychaos.DegenerateMeasureError, match="degree 2"):
        expansion_from_json(json.dumps(doc))


def test_transient_uses_netlist_stop_time(tmp_path):
    path = tmp_path / "rc.cir"
    path.write_text(RC)
    rc = cli.main(["transient", "--netlist", str(path), "--order", "2",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    text = (tmp_path / "out" / "transient_stats.csv").read_text()
    last = text.strip().split("\n")[-1].split(",")
    assert float(last[0]) == pytest.approx(2e-3, rel=1e-12)
    doc = json.loads(
        (tmp_path / "out" / "transient_expansions.json").read_text())
    assert doc["schema"] == "st-solution/1"
    assert len(doc["times"]) == len(doc["expansions"])


def test_transient_summary_counts_accepted_steps(tmp_path, capsys):
    # the summary counted the start t = 0 as a step: "11 accepted steps"
    path = tmp_path / "rc.cir"
    path.write_text(RC)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {"fixed_step": 1e-4}}))
    rc = cli.main(["transient", "--netlist", str(path), "--t-end", "1e-3",
                   "--order", "1", "--config", str(config),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "transient_stats.csv").read_text().split()
    assert len(rows) == 1 + 11          # header, t = 0 and 10 steps
    assert ("transient: 10 accepted steps to t=0.001, 20 point solves"
            in capsys.readouterr().out)


def test_transient_without_variation_has_zero_std(tmp_path):
    path = tmp_path / "rc.cir"
    path.write_text(RC.replace(" variation=relative:gauss(1,0.05)", ""))
    rc = cli.main(["transient", "--netlist", str(path), "--order", "2",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "transient_stats.csv").read_text().split()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows[-1, 0] == pytest.approx(2e-3, rel=1e-12)
    assert rows[-1, header.index("mean_v(2)")] == pytest.approx(1.0, abs=1e-6)
    std = [k for k, name in enumerate(header) if name.startswith("std_")]
    assert len(std) == 3 and np.all(rows[:, std] == 0.0)


def test_mc_seed_reproducible(divider, tmp_path):
    args = ["mc", "--netlist", divider, "--samples", "500", "--seed", "7"]
    for name in ("a", "b"):
        assert cli.main(args + ["--outdir", str(tmp_path / name)]) == 0
    for fname in ("mc_stats.csv", "mc_histogram.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()
    assert cli.main(args[:-2] + ["--seed", "8",
                                 "--outdir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "mc_stats.csv").read_bytes() != \
        (tmp_path / "c" / "mc_stats.csv").read_bytes()


def test_mc_agrees_with_dc_on_divider(divider, tmp_path):
    assert cli.main(["dc", "--netlist", divider, "--order", "3",
                     "--outdir", str(tmp_path / "st")]) == 0
    assert cli.main(["mc", "--netlist", divider, "--samples", "4000",
                     "--seed", "1", "--outdir", str(tmp_path / "mc")]) == 0
    st = read_stats(tmp_path / "st" / "dc_stats.csv")
    mc = read_stats(tmp_path / "mc" / "mc_stats.csv")
    gap = abs(st["v(2)"]["mean"] - mc["v(2)"]["mean"])
    assert gap < 4 * mc["v(2)"]["stderr_mean"]


def test_opamp_like_dc_agrees_with_mc(tmp_path):
    # 9 random inputs; the 3^9-node candidate rule is inside the node bound
    assert cli.main(["dc", "--model", "builtin:opamp-like", "--order", "2",
                     "--outdir", str(tmp_path / "st")]) == 0
    assert cli.main(["mc", "--model", "builtin:opamp-like", "--samples",
                     "20000", "--seed", "5",
                     "--outdir", str(tmp_path / "mc")]) == 0
    st = read_stats(tmp_path / "st" / "dc_stats.csv")["v(out)"]
    mc = read_stats(tmp_path / "mc" / "mc_stats.csv")["v(out)"]
    assert abs(st["mean"] - mc["mean"]) < 3 * mc["stderr_mean"]
    assert abs(st["std"] - mc["std"]) < 3 * mc["stderr_std"]


def test_anova_report_counts_match_formula(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["anova", "--model", "builtin:opamp-like", "--order", "3",
                   "--m", "3", "--sigma", "0.01", "--output", "v(out)",
                   "--outdir", str(out)])
    assert rc == 0
    report = json.loads((out / "anova_report.json").read_text())
    assert set(report) == {"g0", "terms", "S", "T", "N_samples"}
    levels = {}
    for term in report["terms"]:
        levels[len(term["s"])] = levels.get(len(term["s"]), 0) + 1
    n_by_level = [levels.get(k, 0) for k in range(1, max(levels) + 1)]
    assert report["N_samples"] == sample_count(n_by_level, 3)
    assert sum(report["S"]) <= 1.0 + 1e-9


def test_sensitivity_csv_uses_variation_labels(divider, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["sensitivity", "--netlist", divider, "--order", "2",
                   "--m", "1", "--sigma", "0", "--output", "v(2)",
                   "--outdir", str(out)])
    assert rc == 0
    lines = (out / "sensitivity.csv").read_text().strip().split("\n")
    assert lines[0] == "input,main_sensitivity,total_sensitivity"
    assert lines[1].startswith("R1.r,")
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_hier_extract_then_propagate(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["hier-extract", "--model", "builtin:diode-rectifier",
                   "--order", "3", "--output", "v(2)",
                   "--outdir", str(out), "--out", "block.json"])
    assert rc == 0
    doc = json.loads((out / "block.json").read_text())
    assert doc["schema"] == "intermediate-block/1"
    assert doc["b"] > 0
    assert doc["density"]["kind"] == "quadrature"

    rc = cli.main(["hier-propagate", "--blocks", str(out / "block.json"),
                   "--system", "builtin:sum", "--order", "3",
                   "--outdir", str(out)])
    assert rc == 0
    stats = read_stats(out / "hier_stats.csv")
    # intermediate variables are normalized to zero mean, unit spread
    assert stats["sum"]["mean"] == pytest.approx(0.0, abs=1e-8)
    assert stats["sum"]["std"] == pytest.approx(1.0, abs=1e-6)
    # the expansion on the blocks' own (custom) families reads back
    text = (out / "hier_expansion.json").read_text()
    assert [f["kind"] for f in json.loads(text)["families"]] == ["custom"]
    mean, var = expansion_from_json(text).mean_variance()
    assert float(mean[0]) == stats["sum"]["mean"]
    assert float(np.sqrt(var[0])) == stats["sum"]["std"]


def test_hier_propagate_transient_from_zero(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["hier-extract", "--model", "builtin:diode-rectifier",
                     "--order", "3", "--output", "v(2)",
                     "--outdir", str(out), "--out", "block.json"]) == 0
    rc = cli.main(["hier-propagate", "--blocks", str(out / "block.json"),
                   "--system", "builtin:rc-zeta", "--order", "3",
                   "--t-end", "0.002", "--x0", "zero",
                   "--outdir", str(out)])
    assert rc == 0
    waveform = (out / "hier_waveform.csv").read_text().strip().split("\n")
    first = waveform[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    stats = read_stats(out / "hier_stats.csv")
    assert 0.5 < stats["v_out"]["mean"] < 1.0
    assert stats["v_out"]["std"] > 1e-3


def test_config_file_with_flag_override(divider, tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"netlist": divider, "order": 3,
                                  "outdir": str(tmp_path / "out")}))
    assert cli.main(["dc", "--config", str(config), "--order", "2"]) == 0
    exp = expansion_from_json(
        (tmp_path / "out" / "dc_expansion.json").read_text())
    # flag wins: d=1 at order 2 keeps 3 coefficients, order 3 would keep 4
    assert len(exp.index_set) == 3


def test_rerun_is_idempotent(divider, tmp_path):
    out = tmp_path / "out"
    args = ["dc", "--netlist", divider, "--order", "2",
            "--outdir", str(out)]
    assert cli.main(args) == 0
    before = (out / "dc_stats.csv").read_bytes()
    assert cli.main(args) == 0
    assert (out / "dc_stats.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_writes_sharing_an_artifact_name_do_not_collide(tmp_path,
                                                        monkeypatch):
    # a second job writes the same artifact while the first sits between
    # its write and its rename; neither may fail or leave a temporary file
    path = str(tmp_path / "dc_stats.csv")
    replace = os.replace
    nested = []

    def interleaved(src, dst):
        if not nested:
            nested.append(src)
            cli._write(path, "second\n")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", interleaved)
    cli._write(path, "first\n")
    assert open(path).read() == "first\n"
    assert os.listdir(tmp_path) == ["dc_stats.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        cli._write(str(tmp_path / "dc_stats.csv"), "text\n")
    assert os.listdir(tmp_path) == []


def test_csv_writes_labels_as_they_are_and_numbers_exactly():
    text = cli._csv(["output", "a", "b", "c", "count"],
                    [["v(out)", 0.1, 1e-300, -0.0, 7]])
    header, row, end = text.split("\n")
    assert header == "output,a,b,c,count" and end == ""
    cells = row.split(",")
    assert cells[0] == "v(out)" and cells[4] == "7"
    # hex tells -0.0 from 0.0: each number reads back bit for bit
    assert [float(c).hex() for c in cells[1:4]] == [
        v.hex() for v in (0.1, 1e-300, -0.0)]


# ---------------------------------------------------------------------------
# failure modes


def capture_error(capsys):
    err = capsys.readouterr().err.strip()
    assert "\n" not in err        # single line, machine parsable
    return json.loads(err)


def test_model_and_netlist_together_is_user_error(divider, capsys):
    rc = cli.main(["dc", "--netlist", divider, "--model",
                   "builtin:rc-lowpass"])
    assert rc == 1
    assert capture_error(capsys)["error"] == "config"


def test_unknown_builtin_is_user_error(capsys):
    rc = cli.main(["dc", "--model", "builtin:nope"])
    assert rc == 1
    assert "nope" in capture_error(capsys)["message"]


def test_missing_netlist_file_is_user_error(tmp_path, capsys):
    rc = cli.main(["dc", "--netlist", str(tmp_path / "missing.cir")])
    assert rc == 1
    assert capture_error(capsys)["error"] == "config"


def test_netlist_syntax_error_is_user_error(tmp_path, capsys):
    path = tmp_path / "bad.cir"
    path.write_text("R1 1 0\n")
    rc = cli.main(["dc", "--netlist", str(path)])
    assert rc == 1
    assert "token" in capture_error(capsys)["message"]


def test_unknown_config_key_is_user_error(divider, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"typo_key": 1}')
    rc = cli.main(["dc", "--netlist", divider, "--config", str(config)])
    assert rc == 1
    assert "typo_key" in capture_error(capsys)["message"]


def test_bad_subcommand_is_user_error(capsys):
    assert cli.main(["frequency-sweep"]) == 1
    assert capture_error(capsys)["error"] == "config"


def test_solver_failure_is_numeric_error(divider, tmp_path, capsys):
    config = tmp_path / "tight.json"
    config.write_text(json.dumps({"solver": {"condition_cap": 1.0 + 1e-9}}))
    for analysis in ("dc", "hier-extract"):
        rc = cli.main([analysis, "--netlist", divider, "--order", "3",
                       "--config", str(config),
                       "--outdir", str(tmp_path / analysis)])
        assert rc == 2, analysis
        assert capture_error(capsys)["error"] == "numeric"


@pytest.mark.parametrize("analysis,key,value", [
    ("mc", "samples", "10"),
    ("anova", "sigma", "0.1"),
    ("anova", "m", 1.5),
    ("dc", "order", 2.5),
    ("dc", "order", True),
    ("mc", "seed", 1.0),
    ("hier-extract", "seed", "51"),
    ("mc", "t_end", "1e-3"),
    ("hier-extract", "density", None),
    ("anova", "anchor", [None]),
    ("dc", "model", 5),
    ("dc", "netlist", ["a.cir"]),
    ("dc", "outdir", 7),
    ("dc", "outdir", None),
    ("hier-extract", "out", 3),
    ("hier-propagate", "system", 5),
    ("hier-propagate", "blocks", 5),
    ("hier-propagate", "blocks", "ab"),
    ("hier-propagate", "blocks", [1]),
    ("anova", "output", True),
    ("hier-extract", "output", True),
])
def test_wrong_type_config_value_is_user_error(tmp_path, capsys, analysis,
                                               key, value):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({key: value}))
    argv = [analysis, "--config", str(config)]
    # a flag would override the config value under test
    if analysis != "hier-propagate" and key != "model":
        argv += ["--model", "builtin:diode-rectifier"]
    if key != "outdir":
        argv += ["--outdir", str(tmp_path / "out")]
    rc = cli.main(argv)
    assert rc == 1
    message = capture_error(capsys)["message"]
    assert key in message and repr(value) in message


@pytest.mark.parametrize("analysis,key,value", [
    ("dc", "condition_cap", "1e8"),
    ("transient", "lte_tol", "1e-6"),
    ("transient", "fixed_step", "0.1"),
    ("mc", "dc_tol_scale", None),
])
def test_wrong_type_solver_value_is_user_error(tmp_path, capsys, analysis,
                                               key, value):
    job = {"solver": {key: value}}
    if analysis == "mc":
        job["samples"] = 10
    if analysis == "transient":
        job["t_end"] = 1e-3
    config = tmp_path / "job.json"
    config.write_text(json.dumps(job))
    rc = cli.main([analysis, "--model", "builtin:diode-rectifier",
                   "--config", str(config),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    message = capture_error(capsys)["message"]
    assert f"solver.{key}" in message and repr(value) in message


@pytest.mark.parametrize("key,value", [
    ("dc_tol_scale", -1), ("condition_cap", -1),
    ("condition_cap", 0.5), ("lte_tol", -1), ("lte_tol", float("nan")),
    ("fixed_step", float("inf")),
    # step-control and Newton constants, not options
    ("newton_max_iter", -1), ("newton_max_iter", 0),
    ("newton_max_damping", -1),
    ("min_step_fraction", 0), ("min_step_fraction", -1),
    ("max_step_fraction", -0.1), ("accepts_before_double", 5),
])
def test_out_of_range_solver_value_is_user_error(tmp_path, capsys, key,
                                                 value):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {key: value}}))
    rc = cli.main(["transient", "--model", "builtin:rc-lowpass",
                   "--t-end", "1e-3", "--config", str(config),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config" and key in error["message"]


def test_solver_values_of_the_field_type_are_accepted(divider, tmp_path):
    # an int where a float is due, and a null fixed_step, are well typed
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {
        "condition_cap": 100000000, "fixed_step": None}}))
    assert cli.main(["dc", "--netlist", divider, "--config", str(config),
                     "--outdir", str(tmp_path / "out")]) == 0


def test_solver_threads_is_user_error(divider, tmp_path, capsys):
    # there is no thread count anywhere; inside `solver` it is unknown
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {"threads": 4}}))
    rc = cli.main(["dc", "--netlist", divider, "--config", str(config),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    message = capture_error(capsys)["message"]
    assert "unknown solver option" in message and "threads" in message


@pytest.mark.parametrize("via", ["flag", "config"])
def test_threads_is_user_error(tmp_path, capsys, via):
    # the thread pool and its option are gone; both spellings are refused
    argv = ["dc", "--model", "builtin:diode-rectifier",
            "--outdir", str(tmp_path / "out")]
    if via == "flag":
        argv += ["--threads", "2"]
    else:
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"threads": 2}))
        argv += ["--config", str(config)]
    assert cli.main(argv) == 1
    error = capture_error(capsys)
    assert error["error"] == "config" and "threads" in error["message"]


@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_is_user_error(divider, tmp_path, capsys, via):
    # numpy used to reject it with a message that did not name the key
    argv = ["mc", "--netlist", divider, "--samples", "10",
            "--outdir", str(tmp_path / "out")]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    assert cli.main(argv) == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert "seed" in error["message"] and "-1" in error["message"]


def test_import_freezes_the_heap():
    # a job process never frees its import-time objects, so importing the
    # CLI moves them out of the collector's reach
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import uqsim.cli, gc; print(gc.get_freeze_count())"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert int(out) > 0


# scipy costs most of a job's start-up; every analysis the benchmark runs
# must finish without importing it, while gamma, beta and custom inputs
# still load it at first use
SCIPY_PROBE = """
import json, sys
from uqsim import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] == "scipy")]))
"""

CUSTOM_MC = """
import json, sys
import numpy as np
from uqsim.models import algebraic_model
from uqsim.montecarlo import run_mc
from uqsim.polychaos import Distribution
tri = Distribution.custom(lambda x: 1.0 - np.abs(x), (-1.0, 1.0))
res = run_mc(algebraic_model(lambda xi: xi, [tri], 1), "dc", 200, seed=3)
ok = res.n_failed == 0 and abs(float(res.mean[0])) < 0.1
print(json.dumps([0 if ok else 1, sorted(m for m in sys.modules
                                         if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(code, *args):
    """(return code, scipy modules loaded) of `code` in a fresh process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return rc, modules


@pytest.fixture(scope="module")
def scipy_free_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("scipy_free")
    uniform = root / "uniform.cir"
    uniform.write_text(DIVIDER.replace("relative:gauss(1,0.05)",
                                       "relative:uniform(0.9,1.1)"))
    gauss = root / "gauss.cir"
    gauss.write_text(DIVIDER)
    gamma = root / "gamma.cir"
    gamma.write_text(DIVIDER.replace("relative:gauss(1,0.05)",
                                     "relative:gamma(20)"))
    # a sampled-density block for hier-propagate to read
    assert cli.main(["hier-extract", "--model", "builtin:diode-rectifier",
                     "--order", "2", "--output", "v(2)", "--density",
                     "sampling", "--samples", "10000",
                     "--outdir", str(root / "block")]) == 0
    return {"uniform": str(uniform), "gauss": str(gauss),
            "gamma": str(gamma), "block": str(root / "block" / "block.json"),
            "out": str(root / "out")}


SCIPY_FREE_JOBS = {
    "import": None,
    "dc-uniform": ["dc", "--netlist", "{uniform}", "--order", "2"],
    "transient": ["transient", "--model", "builtin:rc-lowpass",
                  "--order", "2", "--t-end", "1e-3"],
    "mc-gauss": ["mc", "--netlist", "{gauss}", "--samples", "500",
                 "--seed", "1"],
    "sensitivity": ["sensitivity", "--netlist", "{gauss}", "--order", "2",
                    "--m", "1", "--output", "v(2)"],
    "anova": ["anova", "--netlist", "{gauss}", "--order", "2", "--m", "1",
              "--output", "v(2)"],
    "hier-extract-sampling": [
        "hier-extract", "--model", "builtin:diode-rectifier", "--order", "2",
        "--output", "v(2)", "--density", "sampling", "--samples", "10000"],
    "hier-propagate": ["hier-propagate", "--blocks", "{block}", "--system",
                       "builtin:sum", "--order", "2"],
}


@pytest.mark.parametrize("job", sorted(SCIPY_FREE_JOBS))
def test_benchmarked_analyses_never_import_scipy(scipy_free_inputs, job):
    argv = SCIPY_FREE_JOBS[job]
    if argv is None:
        rc, modules = scipy_modules_after(SCIPY_PROBE)
    else:
        argv = [a.format(**scipy_free_inputs) for a in argv]
        argv += ["--outdir", os.path.join(scipy_free_inputs["out"], job)]
        rc, modules = scipy_modules_after(SCIPY_PROBE, json.dumps(argv))
    assert rc == 0
    assert modules == []


def test_gamma_and_custom_inputs_load_scipy_lazily(scipy_free_inputs):
    argv = ["mc", "--netlist", scipy_free_inputs["gamma"], "--samples", "200",
            "--seed", "1", "--outdir",
            os.path.join(scipy_free_inputs["out"], "mc-gamma")]
    rc, modules = scipy_modules_after(SCIPY_PROBE, json.dumps(argv))
    assert rc == 0 and "scipy.special" in modules
    # a custom density's quantiles bisect its CDF table in numpy
    rc, modules = scipy_modules_after(CUSTOM_MC)
    assert rc == 0 and modules == []


def test_transient_without_stop_time_is_user_error(divider, capsys):
    rc = cli.main(["transient", "--netlist", divider, "--order", "2"])
    assert rc == 1
    assert "t-end" in capture_error(capsys)["message"]


@pytest.mark.parametrize("argv,solver", [
    (["transient", "--t-end", "inf"], {}),
    (["mc", "--t-end", "inf", "--samples", "10"], {}),
    (["transient", "--t-end", "1e-3"], {"fixed_step": -0.1}),
    (["transient", "--t-end", "1e-3"], {"fixed_step": 0}),
    (["transient", "--t-end", "1e-3"], {"fixed_step": 1e-300}),
], ids=["transient-inf", "mc-inf", "step-negative", "step-zero",
        "step-tiny"])
def test_bad_span_or_fixed_step_is_user_error(tmp_path, capsys, argv,
                                              solver):
    # t_end=inf took no step and reported the start state at t=inf; a
    # negative or 1e-300 fixed step never returned, and 0 met NaNs
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": solver}))
    rc = cli.main(argv + ["--model", "builtin:rc-lowpass",
                          "--config", str(config),
                          "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert ("fixed_step" if solver else "t_span") in error["message"]


@pytest.mark.parametrize("argv,words", [
    (["dc", "--model", "builtin:diode-rectifier", "--param", "r=0"], []),
    (["transient", "--model", "builtin:rc-lowpass", "--t-end", "1e300"],
     ["span 1.000e+300", "h = 1.000e+297"]),
], ids=["dc-r0", "transient-1e300"])
def test_numeric_failure_leaves_one_json_line(tmp_path, argv, words):
    # r=0 printed two numpy RuntimeWarnings ahead of the JSON line, and
    # t_end=1e300 died with an OverflowError traceback from h ** 3, then
    # with a message naming neither the span nor the step
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "uqsim.cli"] + argv
        + ["--outdir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "numeric"
    for word in words:
        assert word in error["message"]


def test_own_clock_overflow_is_one_json_line(tmp_path, capsys, recwarn):
    # in process, so that a line trace of the suite sees the own clocks'
    # h ** 3 overflow: each Monte Carlo sample steps on its own clock, whose
    # first step, 1e-3 of the span, overflows as the shared clock's does
    rc = cli.main(["mc", "--model", "builtin:plate-actuator", "--samples",
                   "2", "--t-end", "1e300", "--outdir", str(tmp_path)])
    assert rc == 2
    error = capture_error(capsys)
    assert error["error"] == "numeric"
    for word in ("span 1.000e+300", "h = 1.000e+297"):
        assert word in error["message"]
    assert not recwarn.list


@pytest.mark.parametrize("variation,words", [
    ("gauss(1e400,1)", ["gaussian mean must be finite", "inf"]),
    ("gauss(1,1e400)", ["gaussian stddev must be finite", "inf"]),
    ("uniform(0,1e400)", ["uniform hi must be finite", "inf"]),
], ids=["gauss-mean", "gauss-stddev", "uniform-hi"])
def test_non_finite_variation_is_a_located_user_error(tmp_path, variation,
                                                      words):
    # an infinite mean exited 1 with "quadrature weights must be strictly
    # positive", naming neither element nor parameter; an infinite stddev
    # or bound crashed in the Gauss-rule eigensolver with a traceback
    netlist = tmp_path / "bad.cir"
    netlist.write_text(f"V1 1 0 1\nR1 1 2 1k variation={variation}\n"
                       "R2 2 0 1k\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "uqsim.cli", "dc", "--netlist", str(netlist),
         "--order", "2", "--outdir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert error["message"].startswith("bad.cir:2:11: ")
    for word in words:
        assert word in error["message"]


def test_anova_stacks_stay_within_the_chunk(tmp_path, monkeypatch):
    # an 18-stage ladder has n = 20 unknowns (19 nodes and the source
    # current); its second level holds 1530 new points, which one stack
    # would hold in 4.9 MB of Jacobians
    from uqsim import stsolver
    from uqsim.stsolver import _chunk_rows

    lines = ["V1 n0 0 1.0"]
    for k in range(1, 19):
        lines += [f"R{k} n{k - 1} n{k} 1k variation=relative:uniform(0.9,1.1)",
                  f"D{k} n{k} 0 is=1e-9 nvt=0.02585"]
    path = tmp_path / "ladder18.cir"
    path.write_text("\n".join(lines) + "\n")
    sizes = []
    solve_dc_rows = stsolver._solve_dc_rows

    def recording(model, xi, *args, **kwargs):
        sizes.append((model.n, len(np.atleast_2d(xi))))
        return solve_dc_rows(model, xi, *args, **kwargs)

    monkeypatch.setattr(stsolver, "_solve_dc_rows", recording)
    rc = cli.main(["anova", "--netlist", str(path), "--order", "3", "--m",
                   "2", "--output", "v(n18)", "--outdir", str(tmp_path)])
    assert rc == 0
    assert {n for n, _ in sizes} == {20}
    rows = _chunk_rows(20)
    assert max(size for _, size in sizes) == rows
    assert sum(size for _, size in sizes) == 1 + 18 * 4 + 153 * 10 > 2 * rows


RC_TRANSIENT = ["transient", "--model", "builtin:rc-lowpass",
                "--t-end", "1e-3"]
DIODE = ["--model", "builtin:diode-rectifier"]


@pytest.mark.parametrize("argv,config,named", [
    (RC_TRANSIENT, {"x0": "zero"}, "x0"),
    (RC_TRANSIENT, {"knots": 7}, "knots"),
    (RC_TRANSIENT, {"density": "sampling"}, "density"),
    (RC_TRANSIENT, {"system": "sum"}, "system"),
    (RC_TRANSIENT, {"samples": 10}, "samples"),
    (["dc"] + DIODE, {"seed": 1}, "seed"),
    (["dc"] + DIODE, {"analysis": "mc"}, "analysis"),
    (["mc"] + DIODE, {"order": 3}, "order"),
    (["hier-propagate", "--system", "sum"], {"netlist": "a.cir"},
     "netlist"),
    (["dc", "--seed", "1"] + DIODE, None, "--seed"),
    (RC_TRANSIENT + ["--seed", "1"], None, "--seed"),
    (["anova", "--seed", "1"] + DIODE, None, "--seed"),
    (["sensitivity", "--seed", "1"] + DIODE, None, "--seed"),
    (["hier-propagate", "--system", "sum", "--seed", "1"], None, "--seed"),
    (["mc", "--order", "3"] + DIODE, None, "--order"),
    (["hier-extract", "--knots", "51"] + DIODE, None, "--knots"),
    # prefixes of --outdir, --model and --t-end
    (["dc", "--out", "x"] + DIODE, None, "--out"),
    (["dc", "--m", "2"] + DIODE, None, "--m"),
    (RC_TRANSIENT + ["--t", "1"], None, "--t"),
])
def test_key_or_flag_the_analysis_does_not_read_is_user_error(
        tmp_path, capsys, argv, config, named):
    # each of these was accepted and ignored
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    rc = cli.main(argv + ["--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config" and named in error["message"]
    assert not (tmp_path / "out").exists()


# the README's "Config files" table: the analyses that accept each config
# key; each key but `solver` is also a flag of exactly those analyses
# (`params` as --param, `t_end` as --t-end)
ALL = ("dc", "transient", "anova", "sensitivity", "mc", "hier-extract",
       "hier-propagate")
KEY_MATRIX = {
    "netlist": ("dc", "transient", "anova", "sensitivity", "mc",
                "hier-extract"),
    "model": ("dc", "transient", "anova", "sensitivity", "mc",
              "hier-extract"),
    "order": ("dc", "transient", "anova", "sensitivity", "hier-extract",
              "hier-propagate"),
    "m": ("anova", "sensitivity"),
    "sigma": ("anova", "sensitivity"),
    "anchor": ("anova", "sensitivity"),
    "samples": ("mc", "hier-extract"),
    "seed": ("mc", "hier-extract"),
    "t_end": ("transient", "mc", "hier-propagate"),
    "output": ("anova", "sensitivity", "hier-extract"),
    "outdir": ALL,
    "density": ("hier-extract",),
    "out": ("hier-extract",),
    "blocks": ("hier-propagate",),
    "system": ("hier-propagate",),
    "x0": ("hier-propagate",),
    "params": ALL,
    "solver": ALL,
}
# a well-typed value of each key other than its default, and its flag
# spelling
KEY_VALUES = {
    "netlist": "a.cir", "model": "builtin:rc-lowpass", "order": 3, "m": 1,
    "sigma": 0.5, "anchor": 0.5, "samples": 10, "seed": 1, "t_end": 1.0,
    "output": 1, "outdir": "out", "density": "sampling", "out": "b.json",
    "blocks": ["b.json"], "system": "sum", "x0": "zero", "params": {"k": 1},
    "solver": {"lte_tol": 1e-6},
}
FLAGS = {"params": ["--param", "k=1"], "t_end": ["--t-end", "1.0"],
         "blocks": ["--blocks", "b.json"]}


@pytest.mark.parametrize("analysis", ALL)
def test_a_jobs_parser_prints_the_full_parsers_help(capsys, analysis):
    texts = []
    for parser in (cli.build_parser(analysis), cli.build_parser()):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([analysis, "--help"])
        assert exit_.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: uqsim {analysis} [-h]")


def test_each_analysis_accepts_exactly_its_keys_and_flags(tmp_path):
    import argparse
    import dataclasses

    assert {f.name for f in dataclasses.fields(cli.JobConfig)} == \
        set(KEY_MATRIX) | {"analysis"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(ALL)
    for analysis in ALL:
        flags = {s for a in sub.choices[analysis]._actions
                 for s in a.option_strings} - {"-h", "--help", "--config"}
        assert flags == {FLAGS.get(k, ["--" + k])[0]
                         for k, takers in KEY_MATRIX.items()
                         if analysis in takers and k != "solver"}, analysis
    for key, takers in KEY_MATRIX.items():
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: KEY_VALUES[key]}))
        for analysis in ALL:
            argv = [analysis, "--config", str(config)]
            flag = FLAGS.get(key, ["--" + key, str(KEY_VALUES[key])])
            if analysis not in takers:
                with pytest.raises(cli.UsageError, match=key):
                    cli.build_config(argv)
                if key != "solver":   # a flag is never read as a longer one
                    with pytest.raises(cli.UsageError, match=flag[0]):
                        cli.build_config([analysis] + flag)
                continue
            argvs = [argv]
            if key != "solver":
                argvs.append([analysis] + flag)
            default = getattr(cli.JobConfig(analysis), key)
            for argv in argvs:
                assert getattr(cli.build_config(argv), key) != default, argv


@pytest.mark.parametrize("flag,named", [("--anchor", "anchor"),
                                        ("--sigma", "sigma")])
def test_nan_anchor_or_sigma_is_user_error(tmp_path, capsys, flag, named):
    # a NaN anchor passed the range and density checks and failed Newton
    # with exit 2; a NaN sigma screened nothing and exited 0
    rc = cli.main(["anova", "--model", "builtin:plate-actuator", "--order",
                   "2", flag, "nan", "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config" and named in error["message"]
    assert not (tmp_path / "out").exists()


def test_anchor_of_wrong_length_is_user_error(tmp_path, capsys):
    # numpy's broadcast error named neither the key nor the counts
    rc = cli.main(["anova", "--anchor", "0.5,0.5,0.5", "--output", "1",
                   "--outdir", str(tmp_path)] + DIODE)
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert "anchor has 3 quantiles" in error["message"]
    assert "(2)" in error["message"]


def test_unknown_output_label_is_user_error(divider, capsys):
    rc = cli.main(["anova", "--netlist", divider, "--m", "1",
                   "--output", "v(99)"])
    assert rc == 1
    assert "v(99)" in capture_error(capsys)["message"]


@pytest.fixture(scope="module")
def block(tmp_path_factory):
    out = tmp_path_factory.mktemp("block")
    assert cli.main(["hier-extract", "--model", "builtin:diode-rectifier",
                     "--order", "2", "--output", "v(2)",
                     "--outdir", str(out)]) == 0
    return str(out / "block.json")


def test_recovery_failure_names_its_time(block, tmp_path, capsys,
                                         monkeypatch):
    # a stored state whose recovery residual exceeds the cap is one JSON
    # line naming that state's time.  rc-zeta from zero moves, so its
    # states recover with residuals above a cap of 0 (the start, all
    # zeros, recovers exactly); `uqsim transient` starts at the DC point
    # and its states stay there
    monkeypatch.setattr(stsolver, "RECOVERY_RESIDUAL_CAP", 0.0)
    rc = cli.main(["hier-propagate", "--blocks", block,
                   "--system", "builtin:rc-zeta", "--order", "3",
                   "--t-end", "0.002", "--x0", "zero",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    error = capture_error(capsys)
    assert error["error"] == "numeric"
    assert "recovery residual" in error["message"]
    assert " at t = " in error["message"]


def ladder_netlist(stages: int) -> str:
    """Diode-RC ladder with one relative resistor variation per stage."""
    lines = ["V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        lines += [f"R{k} n{k - 1} n{k} 1k variation=relative:uniform(0.9,1.1)",
                  f"D{k} n{k} 0 is=1e-9 nvt=0.02585", f"C{k} n{k} 0 1u"]
    return "\n".join(lines) + "\n"


def test_ladder_block_holds_a_compact_rule(tmp_path):
    # the 22^4 pushforward atoms of a 4-stage ladder at order 3 once made a
    # 12 MB block; the 8-node rule and the CDF table keep it small
    path = tmp_path / "ladder4.cir"
    path.write_text(ladder_netlist(4))
    assert cli.main(["hier-extract", "--netlist", str(path), "--order", "3",
                     "--output", "v(n4)", "--outdir", str(tmp_path)]) == 0
    block = tmp_path / "block.json"
    assert block.stat().st_size < 10_000
    dens = json.loads(block.read_text())["density"]
    assert dens["exact_degree"] == 14 and len(dens["atoms"]["points"]) == 8
    assert len(dens["cdf_knots"]["x"]) == 51


def test_pushforward_beyond_the_node_bound_is_refused_up_front(
        tmp_path, capsys, monkeypatch):
    # a 6-stage ladder at order 3 needs 22^6 = 113M nodes, 5.4 GB of
    # points; the guard fails the test should even one axis of the rule be
    # built
    def guard(basis, nodes):
        raise AssertionError(f"built a {nodes}-node axis rule")

    monkeypatch.setattr(hier, "golub_welsch", guard)
    path = tmp_path / "ladder6.cir"
    path.write_text(ladder_netlist(6))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc = cli.main(["hier-extract", "--netlist", str(path), "--order",
                       "3", "--output", "v(n6)", "--outdir", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    for words in ("22^6 = 113,379,904", f"{polychaos.TENSOR_NODE_CAP:,}",
                  "--density sampling", "--order"):
        assert words in error["message"]
    assert elapsed < 1.0
    assert peak < 20e6
    assert not (tmp_path / "block.json").exists()


def test_pushforward_hint_omits_an_order_that_cannot_fit(tmp_path, capsys):
    # opamp-like has d = 9 inputs: even order 1 needs 8^9 pushforward nodes,
    # so a lower --order never brings the rule under the bound
    rc = cli.main(["hier-extract", "--model", "builtin:opamp-like", "--order",
                   "2", "--output", "v(out)", "--outdir", str(tmp_path)])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert "15^9" in error["message"]
    assert "--density sampling" in error["message"]
    assert "--order" not in error["message"]


def test_selection_beyond_the_node_bound_is_refused_up_front(
        tmp_path, capsys, monkeypatch):
    # a 19-stage ladder at order 3 needs 4^19 candidate nodes, 2 TB of
    # weights; the guard fails the test should even one axis rule be built
    def guard(basis, nodes):
        raise AssertionError(f"built a {nodes}-node axis rule")

    monkeypatch.setattr(stsolver, "golub_welsch", guard)
    path = tmp_path / "ladder19.cir"
    path.write_text(ladder_netlist(19))
    tracemalloc.start()
    try:
        rc = cli.main(["dc", "--netlist", str(path), "--order", "3",
                       "--outdir", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    for words in ("4^19 = 274,877,906,944", f"{polychaos.TENSOR_NODE_CAP:,}",
                  "--order"):
        assert words in error["message"]
    assert peak < 20e6
    assert not (tmp_path / "out").exists()


def test_impossible_allocation_is_user_error(tmp_path, capsys):
    # 10^13 samples of 2 inputs are 146 TiB, beyond the address space; the
    # sampling memory budget refuses the run before any memory is touched
    rc = cli.main(["mc", "--samples", "10000000000000",
                   "--outdir", str(tmp_path / "out")] + DIODE)
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert "montecarlo.MEMORY_BUDGET" in error["message"]
    assert "10,000,000,000,000 samples" in error["message"]


def test_block_with_the_whole_pushforward_loads_alike(tmp_path, monkeypatch):
    # a block once held every pushforward atom and no cdf_knots; it loads
    # through the compression that extraction runs, so it propagates to
    # the same bytes
    pushforward = []
    original = hier.IntermediateDensity.from_pushforward

    def recording(values, weights, exact_degree):
        pushforward.append((values, weights))
        return original(values, weights, exact_degree)

    monkeypatch.setattr(hier.IntermediateDensity, "from_pushforward",
                        recording)
    assert cli.main(["hier-extract", "--model", "builtin:diode-rectifier",
                     "--order", "2", "--output", "v(2)",
                     "--outdir", str(tmp_path / "new")]) == 0
    (values, weights), = pushforward
    doc = json.loads((tmp_path / "new" / "block.json").read_text())
    doc["density"] = {
        "kind": "quadrature",
        "support": [float(values.min()), float(values.max())],
        "atoms": {"points": values.tolist(), "weights": weights.tolist()},
        "exact_degree": doc["density"]["exact_degree"]}
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "block.json").write_text(json.dumps(doc))
    for name in ("new", "old"):
        assert cli.main(["hier-propagate", "--blocks",
                         str(tmp_path / name / "block.json"), "--system",
                         "sum", "--order", "3", "--outdir",
                         str(tmp_path / name)]) == 0
    for artifact in ("hier_stats.csv", "hier_expansion.json"):
        assert ((tmp_path / "new" / artifact).read_bytes()
                == (tmp_path / "old" / artifact).read_bytes())


@pytest.mark.parametrize("doc,key", [
    ([1, 2], "JSON object"),
    ({"schema": "intermediate-block/1"}, "density"),
    ({"schema": "intermediate-block/1",
      "density": {"kind": "quadrature", "support": [0.0, 1.0],
                  "exact_degree": 14}}, "atoms"),
    ({"schema": "intermediate-block/1",
      "density": {"kind": "quadrature", "exact_degree": "x",
                  "atoms": {"points": [0.0], "weights": [1.0]}}},
     "malformed density"),
    ({"schema": "other/1"}, "has schema 'other/1'"),
], ids=["list", "no-density", "no-atoms", "bad-degree", "other-schema"])
def test_malformed_block_is_user_error(tmp_path, capsys, doc, key):
    path = tmp_path / "block.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["hier-propagate", "--blocks", str(path),
                   "--system", "builtin:sum",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert str(path) in error["message"] and key in error["message"]


RC_ZETA = ["hier-propagate", "--system", "builtin:rc-zeta",
           "--blocks", "BLOCK"]


@pytest.mark.parametrize("argv,param,named", [
    (["dc", "--model", "builtin:diode-rectifier"], "bogus=1", "'bogus'"),
    (["dc", "--netlist", "DIVIDER"], "bogus=1", "'bogus'"),
    (RC_ZETA, "bogus=1", "'bogus'"),
    (RC_ZETA, "r=abc", "parameter r "),
    (["hier-propagate", "--system", "builtin:sum", "--blocks", "BLOCK"],
     "r=1", "'r'"),
    (["dc", "--model", "builtin:diode-rectifier"], "vin=nan",
     "parameter vin "),
    (RC_ZETA, "spread=nan", "parameter spread "),
    (["transient", "--model", "builtin:plate-actuator"], "voltage=-inf",
     "parameter voltage "),
], ids=["builtin", "netlist", "rc-zeta", "rc-zeta-value", "sum",
        "builtin-nan", "rc-zeta-nan", "builtin-inf"])
def test_bad_param_is_user_error(divider, block, tmp_path, capsys, argv,
                                 param, named):
    # these used to raise a TypeError or to be ignored silently; a
    # non-finite value ran Newton to its iteration cap and exited 2
    argv = [{"DIVIDER": divider, "BLOCK": block}.get(a, a) for a in argv]
    rc = cli.main(argv + ["--param", param,
                          "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config" and named in error["message"]
    assert not (tmp_path / "out").exists()


def test_unknown_system_lists_the_demo_systems(block, tmp_path, capsys):
    rc = cli.main(["hier-propagate", "--system", "builtin:ladder",
                   "--blocks", block, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error == {"error": "config", "message": "no demo system named "
                     "'builtin:ladder'; available: rc_zeta, sum"}


def test_known_param_reaches_the_model(block, tmp_path):
    for vin in ("1", "2"):
        assert cli.main(["hier-propagate", "--system", "builtin:rc-zeta",
                         "--blocks", block, "--param", f"vin={vin}",
                         "--outdir", str(tmp_path / vin)]) == 0
    one, two = (read_stats(tmp_path / v / "hier_stats.csv")["v_out"]
                for v in ("1", "2"))
    assert two["mean"] == pytest.approx(2.0 * one["mean"], rel=1e-9)


NO_VARIATION = "V1 1 0 1\nR1 1 2 1k\nR2 2 0 1k\n"
SUM = ["hier-propagate", "--system", "builtin:sum", "--blocks"]


@pytest.mark.parametrize("argv,files,named", [
    (["dc"] + DIODE + ["--param", "vin"], {}, "--param needs KEY=VALUE"),
    (["dc"] + DIODE + ["--config", "missing.json"], {}, "cannot read config"),
    (["dc"] + DIODE + ["--config", "c.json"], {"c.json": "{"},
     "not valid JSON"),
    (["dc"] + DIODE + ["--config", "c.json"], {"c.json": "[1, 2]"},
     "must hold a JSON object"),
    (["hier-extract"] + DIODE + ["--config", "c.json"],
     {"c.json": '{"density": "foo"}'}, "density must be"),
    (["anova", "--netlist", "plain.cir"], {"plain.cir": NO_VARIATION},
     "no random inputs"),
    (["sensitivity", "--netlist", "plain.cir"], {"plain.cir": NO_VARIATION},
     "no random inputs"),
    (SUM[:3], {}, "--blocks"),
    (["hier-propagate", "--blocks", "BLOCK"], {}, "--system"),
    (SUM + ["missing.json"], {}, "cannot read block artifact"),
    (SUM + ["b.json"], {"b.json": "{"}, "not valid JSON"),
    (["dc"] + DIODE + ["--outdir", "a_file"], {"a_file": ""}, "File exists"),
], ids=["param-no-equals", "config-unreadable", "config-not-json",
        "config-list", "density-foo", "anova-no-variation",
        "sensitivity-no-variation", "no-blocks", "no-system",
        "block-unreadable", "block-not-json", "outdir-is-a-file"])
def test_error_exit_is_one_json_line_naming_the_problem(
        block, tmp_path, monkeypatch, capsys, argv, files, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [block if a == "BLOCK" else a for a in argv]
    if "--outdir" not in argv:
        argv += ["--outdir", "out"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config" and named in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("analysis,text,where,words", [
    ("dc", "", "1:1", "nothing to solve"),
    ("mc", "* comment\n", "1:1", "nothing to solve"),
    ("transient", "R1 0 0 1k\n", "1:1", "nothing to solve"),
    ("dc", "V1 1 1 1\nR1 1 0 1k\n", "1:1", "V1 closes a loop"),
    ("mc", "R1 1 0 1k\nV1 0 0 1\n", "2:1", "V1 closes a loop"),
    ("transient", "V1 1 0 1\nV2 1 0 2\nR1 1 0 1k\n", "2:1",
     "V2 closes a loop"),
    ("dc", "V1 1 0 1\nR1 1 2 1k\nC1 2 3 1u\nC2 3 0 1u\n", "3:1",
     "node(s) 3 have no DC path"),
    ("transient", "I1 0 1 1m\nC1 1 0 1u\n", "1:1",
     "node(s) 1 have no DC path"),
    ("dc", "V1 1 0 1\nL1 1 0 1m\n", "2:1",
     "L1 closes a loop of voltage sources and inductors"),
    ("dc", "V1 1 0 1\nR1 1 0 1k\nM1 2 3 0 kp=1m vth=0.5\nR2 1 2 1k\n"
     "C1 3 0 1u\n", "3:1", "node(s) 3 have no DC path"),
], ids=["empty", "comment", "r-ground-ground", "v-self-loop",
        "v-ground-ground", "v-parallel", "c-only-node", "i-c-node",
        "v-l-loop", "c-only-gate"])
def test_singular_netlist_is_a_located_user_error(tmp_path, capsys, analysis,
                                                  text, where, words):
    # these reached the solvers: a division by zero sizing the stacks of
    # a zero-state model, or a Newton on a singular Jacobian; exit 2.  A
    # node with no DC path is located at the first element touching it
    path = tmp_path / "x.cir"
    path.write_text(text)
    rc = cli.main([analysis, "--netlist", str(path),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    error = capture_error(capsys)
    assert error["error"] == "config"
    assert error["message"].startswith(f"x.cir:{where}: ")
    assert words in error["message"]
