"""Hierarchical uncertainty propagation through intermediate variables.

Each subsystem's scalar gPC surrogate y_i = f_i(xi_i) is compressed into a
normalized variable zeta_i = (y_i - a_i)/b_i with zero mean and unit
variance.  The density of zeta_i is represented either by a small Gauss
rule with the moments of the pushforward of a Gauss rule in the block's own
parameter space (exact moments, no explicit density needed) or by a
monotone piecewise-cubic CDF fitted to samples.  A custom orthonormal
basis and Gauss rule are then built for zeta_i with the Stieltjes
procedure, and the system level treats the zeta_i as fresh independent
inputs for the stochastic testing solver.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .models import StochasticDae, _resolve, algebraic_model
from .polychaos import (TENSOR_NODE_CAP, DegenerateMeasureError,
                        Distribution, GpcExpansion, OrthoBasis, PiecewisePoly,
                        QuadratureRule, _Immutable, _panel_rule,
                        _tensor_weights, golub_welsch, monotone_cubic,
                        stieltjes_basis)
from .stsolver import (SolverOptions, integrate_transient,
                       select_testing_points, solve_dc, standard_bases)

__all__ = [
    "Surrogate",
    "IntermediateDensity",
    "normalize_surrogate",
    "extract_block_surrogate",
    "density_by_quadrature",
    "density_by_sampling",
    "build_intermediate_basis",
    "propagate_dc",
    "propagate_transient",
    "demo_system",
]

DEFAULT_ZETA_DEGREE = 14   # pushforward rules resolve moments to this degree
SAMPLING_MIN = 10_000
SAMPLING_DEFAULT = 100_000
CDF_KNOTS = 51
# quantile levels reserved for tail resolution on top of the uniform bulk
_TAIL_LEVELS = (0.0005, 0.001, 0.002, 0.005, 0.01)


class Surrogate(_Immutable):
    """Scalar block output y = f(xi) with its normalization.

    zeta holds the expansion of (y - a)/b; by orthonormal coefficient
    arithmetic it has exactly zero mean and unit variance.
    """

    expansion: GpcExpansion
    a: float
    b: float
    zeta: GpcExpansion

    def __init__(self, expansion, a, b, zeta):
        self.__dict__.update(expansion=expansion, a=a, b=b, zeta=zeta)

    @property
    def distributions(self) -> tuple:
        return tuple(b.distribution for b in self.expansion.bases)


def normalize_surrogate(expansion: GpcExpansion) -> Surrogate:
    """a = mean, b = stddev from coefficients; rejects zero variance."""
    if expansion.n_outputs != 1:
        raise ValueError("block surrogates must be scalar; select one output")
    coeffs = expansion.scalar_coefficients()
    mean, var = expansion.mean_variance()
    a = float(mean[0])
    b = float(np.sqrt(var[0]))
    if b == 0.0:
        raise ValueError(
            "surrogate variance is zero; a deterministic block needs no "
            "intermediate variable")
    zcoeffs = coeffs / b
    zcoeffs[0] = 0.0
    zeta = GpcExpansion(expansion.index_set, zcoeffs.reshape(-1, 1),
                        expansion.bases)
    return Surrogate(expansion=expansion, a=a, b=b, zeta=zeta)


def extract_block_surrogate(model: StochasticDae, order: int,
                            output: int | str = 0,
                            options: SolverOptions = SolverOptions()
                            ) -> Surrogate:
    """Solve a block's DC problem and normalize one output as zeta."""
    j = model.output_index(output)
    tps = select_testing_points(standard_bases(model, order), order,
                                options.condition_cap)
    exp = solve_dc(model, tps, options)
    scalar = GpcExpansion(exp.index_set,
                          exp.coefficients[:, j].reshape(-1, 1),
                          exp.bases)
    return normalize_surrogate(scalar)


# ---------------------------------------------------------------------------
# density representations


class IntermediateDensity(_Immutable):
    """Density of one intermediate variable zeta.

    Both kinds carry cdf, a monotone piecewise-cubic CDF table
    (polychaos.monotone_cubic, the same fit as scipy's PCHIP) whose
    derivative is the smooth density behind density() and
    as_distribution().  kind 'quadrature' also carries atoms, an n-node
    Gauss rule (points, weights) with the moments of the block's
    pushforward measure up to exact_degree, n = exact_degree//2 + 1;
    propagation reads zeta only through these moments, so no explicit
    density is ever integrated.  kind 'sampled' integrates the derivative
    of its fitted CDF.  support is the hull of the pushforward values or
    of the kept samples.
    """

    kind: str                # "quadrature" | "sampled"
    support: tuple
    cdf: PiecewisePoly         # knots in cdf.x
    atoms: tuple | None        # (points, weights); quadrature only
    exact_degree: int | None   # quadrature kind only

    def __init__(self, kind, support, cdf, atoms=None, exact_degree=None):
        self.__dict__.update(kind=kind, support=support, cdf=cdf,
                             atoms=atoms, exact_degree=exact_degree)

    @classmethod
    def from_pushforward(cls, values, weights, exact_degree: int
                         ) -> "IntermediateDensity":
        """Quadrature density of the measure sum_i weights_i at values_i.

        atoms become the exact_degree//2 + 1 node Gauss rule of the measure
        (discrete Stieltjes, then Golub-Welsch; Gautschi 2004, sec. 2.2),
        whose moments match the measure's to degree 2n - 1 >=
        exact_degree.  A measure of only j numerically
        distinct values raises DegenerateMeasureError at degree j and is
        its own j-node Gauss rule, so it keeps j nodes.  The CDF table
        interpolates the midpoint CDF of the sorted values at the
        CDF_KNOTS levels, with levels 0 and 1 one knot spacing beyond the
        hull.  The table is read off sorted copies of the measure, which
        are dropped before the Stieltjes pass: that pass runs over the
        measure in the given order, whose summation order fixes its bits.
        Read-only values and weights are kept without a copy.
        """
        rule = QuadratureRule(values, weights)
        order = _stable_argsort(rule.points)
        z, w = rule.points[order], rule.weights[order]
        del order
        if not (np.all(np.isfinite(z)) and z[-1] > z[0]):
            raise ValueError("pushforward values must be finite and span an "
                             "interval")
        support = (float(z[0]), float(z[-1]))
        cum = np.cumsum(w)
        total = cum[-1]
        w *= 0.5
        cum -= w
        cum /= total                  # the midpoint CDF (cum - w/2)/total
        levels = _cdf_levels()
        xs = np.interp(levels, cum, z)
        pad = (z[-1] - z[0]) / (CDF_KNOTS - 1)
        xs[0], xs[-1] = z[0] - pad, z[-1] + pad
        del z, w, cum

        n = int(exact_degree) // 2 + 1
        try:
            basis = stieltjes_basis(None, n - 1, integrator=rule)
        except DegenerateMeasureError as err:
            n = err.degree
            basis = stieltjes_basis(None, n - 1, integrator=rule)
        gauss = golub_welsch(basis, n)
        xs, first = np.unique(xs, return_index=True)
        return cls(kind="quadrature", support=support,
                   cdf=monotone_cubic(xs, levels[first]),
                   atoms=(gauss.points, gauss.weights),
                   exact_degree=int(exact_degree))

    @cached_property
    def _pdf(self):
        return self.cdf.derivative()

    def density(self, z) -> np.ndarray:
        """Density evaluation over the interpolant's own span."""
        z = np.asarray(z, dtype=float)
        pdf = self._pdf
        lo, hi = float(pdf.x[0]), float(pdf.x[-1])
        return np.where((z >= lo) & (z <= hi), pdf(np.clip(z, lo, hi)), 0.0)

    def moment_rule(self, degree: int) -> QuadratureRule:
        """Probability-measure rule exact for zeta-polynomials to `degree`."""
        if self.kind == "quadrature":
            if degree > self.exact_degree:
                raise ValueError(
                    f"pushforward rule resolves moments to degree "
                    f"{self.exact_degree} but degree {degree} is required; "
                    "rebuild the density with a larger rule")
            pts, wts = self.atoms
            return QuadratureRule(pts, wts, exact_degree=self.exact_degree)
        # integrate the piecewise-quadratic density segment by segment;
        # node count chosen so polynomial * density is integrated exactly
        n_seg = int(np.ceil((degree + 3) / 2)) + 1
        pts, wts = _panel_rule(self.cdf.x, n_seg)
        wts = wts * self._pdf(pts)
        keep = wts > 0
        pts, wts = pts[keep], wts[keep]
        total = wts.sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"fitted density integrates to {total:.8f}, not 1")
        return QuadratureRule(pts, wts / total, exact_degree=degree)

    def as_distribution(self) -> Distribution:
        pdf = self._pdf
        return Distribution.custom(
            self.density, (float(pdf.x[0]), float(pdf.x[-1])),
            validate=False)


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """np.argsort(x, kind="stable") of a 1-D x without NaN, from numpy's
    faster default sort: that puts equal values (-0.0 and 0.0 among them)
    in one run of the sorted order, in no set order, and lexsort then
    orders each run by index."""
    order = np.argsort(x)
    xs = x[order]
    tied = xs[1:] == xs[:-1]
    if tied.any():
        runs = np.cumsum(np.concatenate(([True], ~tied)))
        order = order[np.lexsort((order, runs))]
    return order


def _cdf_levels() -> np.ndarray:
    """CDF_KNOTS levels from 0 to 1: a uniform bulk grid plus the
    _TAIL_LEVELS at each end."""
    bulk_n = CDF_KNOTS - 2 * len(_TAIL_LEVELS) - 2
    return np.array(sorted(set(
        [0.0, 1.0] + list(_TAIL_LEVELS) + [1.0 - t for t in _TAIL_LEVELS]
        + list(np.linspace(0.025, 0.975, bulk_n)))))


def density_by_quadrature(s: Surrogate,
                          max_degree: int = DEFAULT_ZETA_DEGREE
                          ) -> IntermediateDensity:
    """Pushforward of a parameter-space Gauss rule through zeta(xi),
    compressed to a Gauss rule in zeta (IntermediateDensity.from_pushforward).

    The rule resolves zeta-moments up to max_degree: a zeta-polynomial of
    degree D composes with the degree-p surrogate to a degree D*p
    integrand, so each of the d dimensions gets ceil((D*p + 1)/2) Gauss
    nodes.  A rule of more than TENSOR_NODE_CAP nodes is refused
    before anything is built.  Only the d one-dimensional rules are built:
    zeta is evaluated on their tensor grid axis by axis
    (GpcExpansion.eval_grid), so of the whole rule only the values and the
    weights are held.
    """
    p_surr = max(1, s.zeta.index_set.total_order)
    nodes = int(np.ceil((max_degree * p_surr + 1) / 2))
    d = len(s.distributions)
    if nodes ** d > TENSOR_NODE_CAP:
        # a lower order helps only if order 1's rule fits
        lowest = int(np.ceil((max_degree + 1) / 2)) ** d
        raise ValueError(
            f"the quadrature density needs {nodes}^{d} = {nodes ** d:,} "
            f"pushforward nodes, above the bound of "
            f"{TENSOR_NODE_CAP:,}; use --density sampling"
            + (" or a lower --order" if lowest <= TENSOR_NODE_CAP else ""))
    rules = [golub_welsch(basis, nodes)
             for basis in standard_bases(s.distributions, nodes - 1)]
    values = s.zeta.eval_grid([r.points for r in rules]).ravel()
    values.setflags(write=False)     # handed over without a copy
    return IntermediateDensity.from_pushforward(
        values, _tensor_weights(rules), max_degree)


def _sorted_quantiles(z: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """np.quantile(z, levels) of an ascending array z, bit for bit: its
    'linear' method's virtual index (n-1)*level between the neighbours
    floor and floor+1, both the top index from n-1 up, and numpy's _lerp,
    which from weight 0.5 up interpolates back from the upper neighbour.
    One sort serves every call; np.quantile partitions a copy each time."""
    n = len(z)
    virtual = (n - 1) * levels
    prev = np.floor(virtual)
    prev[virtual >= n - 1] = -1
    i = prev.astype(np.intp)
    a, b = z[i], z[np.where(i < 0, -1, i + 1)]
    t = virtual - prev
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def density_by_sampling(s: Surrogate, n_samples: int = SAMPLING_DEFAULT,
                        seed: int = 0) -> IntermediateDensity:
    """Monotone piecewise-cubic CDF fit over surrogate samples.

    Knot levels are deterministic: a uniform bulk grid plus refined tail
    levels (an equiprobable-only grid smears the outer percentiles over
    the whole tail span and inflates the variance).  One binomial pass
    over the interior knot positions damps quantile noise, which would
    otherwise dominate the density error near the mode.  Samples beyond
    three interquartile ranges outside the quartiles are treated as
    outliers and dropped, so heavy-tailed surrogates lose tail mass; the
    quadrature route has no such truncation.
    """
    from .montecarlo import sample_parameters

    if n_samples < SAMPLING_MIN:
        raise ValueError(
            f"need at least {SAMPLING_MIN} samples for a stable CDF fit")
    if any(d is None for d in s.distributions):
        raise ValueError("sampling route needs the block input "
                         "distributions; use the quadrature route")
    xis = sample_parameters(s.distributions, n_samples, seed)
    z = s.zeta.eval_many(xis).ravel()
    del xis
    z.sort()
    z_min, z_max = float(z[0]), float(z[-1])
    if z_max - z_min <= 1e-14:
        raise ValueError("degenerate samples: the surrogate is constant")
    q1, q3 = _sorted_quantiles(z, np.array([0.25, 0.75]))
    iqr = q3 - q1
    lo = max(z_min, float(q1 - 3 * iqr))
    hi = min(z_max, float(q3 + 3 * iqr))
    z = z[np.searchsorted(z, lo):np.searchsorted(z, hi, side="right")]

    grid = _cdf_levels()
    xs = _sorted_quantiles(z, grid)
    xs[1:-1] = 0.25 * xs[:-2] + 0.5 * xs[1:-1] + 0.25 * xs[2:]
    xs = np.maximum.accumulate(xs)
    xs[0], xs[-1] = lo, hi
    xs, first = np.unique(xs, return_index=True)
    ys = grid[first].copy()
    ys[0], ys[-1] = 0.0, 1.0
    if len(xs) < 4:
        raise ValueError("degenerate samples: too few distinct quantiles")
    cdf = monotone_cubic(xs, ys)
    return IntermediateDensity(kind="sampled", support=(lo, hi), cdf=cdf)


def build_intermediate_basis(dens: IntermediateDensity, order: int
                             ) -> tuple[OrthoBasis, QuadratureRule]:
    """Custom orthonormal basis and (order+1)-point Gauss rule for zeta."""
    integrator = dens.moment_rule(2 * order + 2)
    basis = stieltjes_basis(dens.as_distribution(), order,
                            integrator=integrator)
    return basis, golub_welsch(basis, order + 1)


# ---------------------------------------------------------------------------
# system-level propagation


def propagate_dc(model: StochasticDae, bases: Sequence[OrthoBasis],
                 order: int, options: SolverOptions = SolverOptions()
                 ) -> GpcExpansion:
    """Stochastic testing DC with the intermediate-variable bases."""
    tps = select_testing_points(bases, order, options.condition_cap)
    return solve_dc(model, tps, options)


def propagate_transient(model: StochasticDae, bases: Sequence[OrthoBasis],
                        order: int, t_span, x0: GpcExpansion | None = None,
                        options: SolverOptions = SolverOptions()):
    """Stochastic testing transient with the intermediate-variable bases;
    x0 as in integrate_transient."""
    tps = select_testing_points(bases, order, options.condition_cap)
    return integrate_transient(model, tps, t_span, x0=x0, options=options)


def _sum_system(dists) -> StochasticDae:
    return algebraic_model(lambda z: np.sum(z, axis=-1, keepdims=True),
                           dists, 1, labels=("sum",))


def _rc_zeta_system(dists, r: float = 1e3, c: float = 1e-6,
                    vin: float = 1.0, spread: float = 0.1) -> StochasticDae:
    if len(dists) != 1:
        raise ValueError("rc_zeta takes exactly one intermediate input")

    def f(x, z, t):
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        return (x[..., :1] - vin) / (r * (1.0 + spread * z[..., :1]))

    def df_dx(x, z, t):
        z = np.asarray(z, dtype=float)
        return (1.0 / (r * (1.0 + spread * z[..., :1])))[..., None]

    return StochasticDae(
        n=1, d=1, distributions=dists,
        q=lambda x, z: c * np.asarray(x, dtype=float),
        f=f, dq_dx=lambda x, z: np.full(np.shape(x) + (1,), c), df_dx=df_dx,
        x0_guess=np.array([vin]), labels=("v_out",))


_DEMO_SYSTEMS = {"sum": _sum_system, "rc_zeta": _rc_zeta_system}


def demo_system(name: str, densities: Sequence[IntermediateDensity],
                **params) -> StochasticDae:
    """Registered system-level models taking intermediate inputs.

    'sum': y = zeta_1 + ... + zeta_q (algebraic).
    'rc_zeta': one-state RC charging circuit whose time constant is
    r * c * (1 + spread * zeta_1); single block only.
    """
    factory = _resolve(_DEMO_SYSTEMS, "demo system", name, params)
    return factory(tuple(d.as_distribution() for d in densities), **params)
