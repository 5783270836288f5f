"""End-to-end driver behavior: exit codes, artifacts, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from uqsim import cli
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


def test_single_thread_matches_parallel(divider, tmp_path):
    for threads, name in (("1", "t1"), ("4", "t4")):
        assert cli.main(["dc", "--netlist", divider, "--order", "3",
                         "--threads", threads,
                         "--outdir", str(tmp_path / name)]) == 0
    assert (tmp_path / "t1" / "dc_stats.csv").read_bytes() == \
        (tmp_path / "t4" / "dc_stats.csv").read_bytes()


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
    ("hier-extract", "knots", "51"),
    ("mc", "t_end", "1e-3"),
    ("dc", "threads", None),
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
    ("dc", "newton_max_iter", "5"),
    ("dc", "newton_max_iter", 5.0),
    ("dc", "newton_max_damping", True),
    ("dc", "condition_cap", "1e8"),
    ("transient", "lte_tol", "1e-6"),
    ("transient", "fixed_step", "0.1"),
    ("mc", "dc_tol_scale", None),
])
def test_wrong_type_solver_value_is_user_error(tmp_path, capsys, analysis,
                                               key, value):
    job = {"solver": {key: value}, "samples": 10}
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


def test_solver_values_of_the_field_type_are_accepted(divider, tmp_path):
    # an int where a float is due, and a null fixed_step, are well typed
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {
        "condition_cap": 100000000, "fixed_step": None,
        "newton_max_iter": 60}}))
    assert cli.main(["dc", "--netlist", divider, "--config", str(config),
                     "--outdir", str(tmp_path / "out")]) == 0


def test_solver_threads_is_user_error(divider, tmp_path, capsys):
    # a thread count inside `solver` used to be overwritten silently
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"solver": {"threads": 4}}))
    rc = cli.main(["dc", "--netlist", divider, "--config", str(config),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert "top-level threads" in capture_error(capsys)["message"]


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


def test_transient_without_stop_time_is_user_error(divider, capsys):
    rc = cli.main(["transient", "--netlist", divider, "--order", "2"])
    assert rc == 1
    assert "t-end" in capture_error(capsys)["message"]


def test_unknown_output_label_is_user_error(divider, capsys):
    rc = cli.main(["anova", "--netlist", divider, "--m", "1",
                   "--output", "v(99)"])
    assert rc == 1
    assert "v(99)" in capture_error(capsys)["message"]
