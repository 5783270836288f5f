"""Monte Carlo reference engine.

Validation oracle for the spectral solvers: inverse-CDF sampling from a
seeded PCG64 generator, one deterministic solve per sample, aggregation
with standard errors, and histogram export.  Samples are solved as the rows
of stacked solves: DC samples in stacked Newton solves, transient samples
in the stacked stepper, each on its own clock so that it takes the steps a
one-sample run takes.  Sampling is materialized up front so results are
bit-identical for a fixed (model, n, seed) regardless of how the solves
are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import StochasticDae
from .stsolver import (SolverError, SolverOptions, _integrate_points,
                       _solve_dc_rows, integrate_deterministic, newton_dc)

__all__ = ["McResult", "sample_parameters", "run_mc"]

FAILURE_BUDGET = 1e-3  # abort when more than this fraction of samples fail
HISTOGRAM_BINS = 50
# samples are solved in stacks whose Jacobians take about this many bytes;
# building them (netlist stamps, finite differences) takes a few times more
CHUNK_BYTES = 1 << 20


def chunk_rows(n: int) -> int:
    """Rows per stacked solve of an n-state model: CHUNK_BYTES of (n, n)
    Jacobians, and at least one."""
    return max(1, CHUNK_BYTES // (8 * n * (n + 1)))


def sample_parameters(distributions: Sequence, n: int, seed: int
                      ) -> np.ndarray:
    """(n, d) matrix of independent samples via inverse CDF on PCG64."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    d = len(distributions)
    u = rng.random((n, d))
    out = np.empty((n, d))
    for k, dist in enumerate(distributions):
        out[:, k] = dist.inv_cdf(u[:, k])
    return out


@dataclass(frozen=True)
class McResult:
    """Aggregated per-output statistics of a Monte Carlo run."""

    n_samples: int
    n_failed: int
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray        # of the mean: sample std / sqrt(n)
    stderr_std: np.ndarray    # of the std, via the delta method
    histograms: tuple         # per output: (edges, counts)
    seed: int
    labels: tuple | None = None

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


def _aggregate(samples: np.ndarray, n_failed: int, seed: int,
               labels) -> McResult:
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n > 1:
        variance = samples.var(axis=0, ddof=1)
    else:
        variance = np.zeros(samples.shape[1])
    std = np.sqrt(variance)
    stderr = std / np.sqrt(n)
    centered = samples - mean
    m4 = (centered ** 4).mean(axis=0)
    # var(s^2) ~ (m4 - s^4)/n; std error of s by the delta method
    var_s2 = np.maximum(m4 - variance ** 2, 0.0) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr_std = np.where(std > 0, np.sqrt(var_s2) / (2 * std), 0.0)
    hists = []
    for j in range(samples.shape[1]):
        counts, edges = np.histogram(samples[:, j], bins=HISTOGRAM_BINS)
        hists.append((edges, counts))
    return McResult(n_samples=n, n_failed=n_failed, mean=mean,
                    variance=variance, stderr=stderr, stderr_std=stderr_std,
                    histograms=tuple(hists), seed=seed, labels=labels)


def run_mc(model: StochasticDae, analysis: str, n: int, seed: int,
           t_end: float | None = None,
           options: SolverOptions = SolverOptions()) -> McResult:
    """Monte Carlo over the model's inputs; analysis is 'dc' or 'transient'.

    Transient runs integrate from t=0 to t_end (required) and aggregate the
    final state; 'dc' aggregates the operating point.  Failed solves are
    tolerated up to 0.1% of n, then the run aborts.
    """
    if analysis not in ("dc", "transient"):
        raise ValueError("analysis must be 'dc' or 'transient'")
    if analysis == "transient" and t_end is None:
        raise ValueError("transient analysis needs t_end")
    xis = sample_parameters(model.distributions, n, seed)
    nominal = newton_dc(model, model.nominal_parameters(), options=options)

    if model.d == 0:
        # no randomness: one solve, variance exactly zero by definition
        if analysis == "dc":
            x = nominal
        else:
            _, states, _ = integrate_deterministic(
                model, np.zeros(0), (0.0, t_end), nominal, options)
            x = states[-1]
        out = _aggregate(np.tile(x, (n, 1)), 0, seed, model.labels)
        zeros = np.zeros(model.n)
        from dataclasses import replace
        return replace(out, variance=zeros, stderr=zeros.copy(),
                       stderr_std=zeros.copy())

    budget = int(np.floor(FAILURE_BUDGET * n))
    results = np.empty((n, model.n))
    failed = np.zeros(n, dtype=bool)
    chunk = chunk_rows(model.n)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        if analysis == "dc":
            results[lo:hi], _, ok = _solve_dc_rows(
                model, xis[lo:hi], nominal[None], options)
            failed[lo:hi] = ~ok
        else:
            # each sample on its own clock; a failed one's state is NaN
            _, (X,), _, _ = _integrate_points(
                model, xis[lo:hi], np.tile(nominal, (hi - lo, 1)),
                (0.0, t_end), options, own_clocks=True)
            results[lo:hi] = X
            failed[lo:hi] = np.isnan(X).any(axis=1)
        n_failed = int(np.count_nonzero(failed[:hi]))
        if n_failed > budget:
            raise SolverError(
                f"Monte Carlo aborted: {n_failed} of {hi} samples "
                f"failed, exceeding the {FAILURE_BUDGET:.1%} budget")
    return _aggregate(results[~failed], n_failed, seed, model.labels)
