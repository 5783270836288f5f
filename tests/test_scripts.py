"""The study scripts in scripts/ run to completion on small inputs."""

import importlib.util
import pathlib

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
])
def test_script_runs(name, argv, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out
