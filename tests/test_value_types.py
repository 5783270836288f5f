"""The library's value types: immutable, and created without generated code.

Each is a plain class on polychaos._Immutable with a hand-written
__init__; StochasticDae and SolverOptions keep a dataclass declaration
that generates no method, for dataclasses.replace and fields.
"""

import functools
import sys

import numpy as np
import pytest

import uqsim.cli  # noqa: F401  (loads every library module)
from uqsim import anova, hier, montecarlo, netlist, polychaos, stsolver
from uqsim.models import algebraic_model, builtin_model

TYPES = ("Distribution", "Family", "OrthoBasis", "QuadratureRule",
         "MultiIndexSet", "GpcExpansion", "StochasticDae", "SolverOptions",
         "TestingPointSet", "StSolution", "_RowSteps", "Element",
         "Variation", "Analysis", "Netlist", "Surrogate",
         "IntermediateDensity", "McResult", "AnovaTerm",
         "AnovaDecomposition")


@functools.cache
def instances() -> dict:
    """One instance of each value type, by class name."""
    uniform = polychaos.Distribution.uniform(-1.0, 1.0)
    basis = polychaos.make_standard_basis(uniform, 2)
    index_set = polychaos.total_degree_index_set(1, 2)
    expansion = polychaos.GpcExpansion(index_set, [0.5, 1.0, 0.25],
                                       (basis,))
    surrogate = hier.normalize_surrogate(expansion)
    nl = netlist.parse_netlist(
        "V1 1 0 1\nR1 1 0 1k variation=relative:uniform(0.9,1.1)\n.op\n")
    decomposition, _ = anova.adaptive_anova(
        lambda x: x[0] + x[1], (uniform, uniform), m=1, sigma=0.0, order=1)
    return {
        "Distribution": uniform,
        "Family": polychaos.FAMILIES["uniform"],
        "OrthoBasis": basis,
        "QuadratureRule": polychaos.golub_welsch(basis, 3),
        "MultiIndexSet": index_set,
        "GpcExpansion": expansion,
        "StochasticDae": builtin_model("rc_lowpass"),
        "SolverOptions": stsolver.SolverOptions(),
        "TestingPointSet": stsolver.select_testing_points((basis,), 2),
        "StSolution": stsolver.StSolution([0.0, 1.0], (), (), 0, ()),
        "_RowSteps": stsolver._RowSteps(np.ones(2, int), np.zeros(2, int)),
        "Element": nl.elements[0],
        "Variation": nl.variations[0],
        "Analysis": nl.analyses[0],
        "Netlist": nl,
        "Surrogate": surrogate,
        "IntermediateDensity": hier.density_by_quadrature(surrogate),
        "McResult": montecarlo.run_mc(
            algebraic_model(lambda xi: [xi[0]], (uniform,), 1), "dc", 10, 0),
        "AnovaTerm": decomposition.terms[0],
        "AnovaDecomposition": decomposition,
    }


def test_only_the_cli_config_is_a_generating_dataclass():
    # a frozen dataclass generates and compiles six methods when its class
    # is created, on every import of the library
    generating = []
    for name, module in sorted(sys.modules.items()):
        if name != "uqsim" and not name.startswith("uqsim."):
            continue
        for obj in vars(module).values():
            params = (vars(obj).get("__dataclass_params__")
                      if isinstance(obj, type) else None)
            if params is not None and obj.__module__ == name and (
                    params.init or params.repr or params.eq or params.frozen):
                generating.append(obj.__qualname__)
    assert generating == ["JobConfig"]


@pytest.mark.parametrize("name", TYPES)
def test_attributes_cannot_be_assigned_or_deleted(name):
    value = instances()[name]
    assert type(value).__name__ == name
    attr, held = next(iter(vars(value).items()))
    with pytest.raises(AttributeError, match=attr):
        setattr(value, attr, None)
    with pytest.raises(AttributeError, match=attr):
        delattr(value, attr)
    with pytest.raises(AttributeError, match="new_attribute"):
        value.new_attribute = 1
    assert getattr(value, attr) is held and "new_attribute" not in vars(value)
