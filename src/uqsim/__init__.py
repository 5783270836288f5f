"""uqsim: stochastic spectral simulation of circuits and lumped systems.

Subpackages:
    polychaos   orthonormal bases, quadrature, chaos expansions
    models      stochastic DAE type, second-order factory, builtins
    netlist     SPICE-subset parser and modified nodal analysis
    stsolver    stochastic testing DC and transient solvers
    hier        hierarchical (two-level) uncertainty propagation
    anova       adaptive anchored decomposition and sensitivities
    montecarlo  reference Monte Carlo engine
    cli         the `uqsim` command-line driver
"""

from .anova import (
    AnovaDecomposition,
    adaptive_anova,
    anchor_point,
    sample_count,
    sensitivities,
)
from .hier import (
    IntermediateDensity,
    Surrogate,
    build_intermediate_basis,
    density_by_quadrature,
    density_by_sampling,
    extract_block_surrogate,
    normalize_surrogate,
)
from .models import StochasticDae, builtin_model
from .montecarlo import run_mc, sample_parameters
from .netlist import elaborate, parse_netlist
from .polychaos import (
    Distribution,
    GpcExpansion,
    MultiIndexSet,
    OrthoBasis,
    QuadratureRule,
    expansion_from_json,
    expansion_to_json,
    golub_welsch,
    make_standard_basis,
    stieltjes_basis,
    total_degree_index_set,
)
from .stsolver import (
    SolverOptions,
    integrate_transient,
    select_testing_points,
    solve_dc,
    standard_bases,
)

__version__ = "0.1.0"
