"""Monte Carlo reference engine.

Validation oracle for the spectral solvers: inverse-CDF sampling from a
seeded PCG64 generator, one deterministic solve per sample, aggregation
with standard errors, and histogram export.  Samples are solved as the rows
of stacked solves: DC samples in stacked Newton solves, transient samples
in the stacked stepper, each on its own clock so that it takes the steps a
one-sample run takes.  Sampling is materialized up front, so results are
bit-identical for a fixed (model, n, seed).  A sample's bits still depend
on its stack, in rounding only: a Newton stack of
stsolver.PLANNED_LU_MIN_ROWS rows or more is solved by the planned LU,
a shorter one by LAPACK.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .models import StochasticDae
from .polychaos import CHUNK_BYTES, _Immutable
from .stsolver import (SolverError, SolverOptions, _chunk_rows,
                       _integrate_points, _solve_dc_rows,
                       integrate_deterministic, newton_dc)

__all__ = ["McResult", "sample_parameters", "run_mc"]

FAILURE_BUDGET = 1e-3  # abort when more than this fraction of samples fail
HISTOGRAM_BINS = 50
# ndtri holds about six float temporaries per value: a block of this many
# values keeps them within CHUNK_BYTES
QUANTILE_ROWS = CHUNK_BYTES // (8 * 8)


def sample_parameters(distributions: Sequence, n: int, seed: int
                      ) -> np.ndarray:
    """(n, d) matrix of independent samples via inverse CDF on PCG64.

    The uniforms are one (n, d) draw, which the quantile functions
    overwrite column by column in blocks of QUANTILE_ROWS rows; they are
    elementwise, so a sample's bits do not depend on its block.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, len(distributions)))
    for k, dist in enumerate(distributions):
        for lo in range(0, n, QUANTILE_ROWS):
            u[lo:lo + QUANTILE_ROWS, k] = dist.inv_cdf(
                u[lo:lo + QUANTILE_ROWS, k])
    return u


class McResult(_Immutable):
    """Aggregated per-output statistics of a Monte Carlo run."""

    n_samples: int
    n_failed: int
    mean: np.ndarray
    variance: np.ndarray
    stderr: np.ndarray        # of the mean: sample std / sqrt(n)
    stderr_std: np.ndarray    # of the std, via the delta method
    histograms: tuple         # per output: (edges, counts)
    seed: int
    labels: tuple | None

    def __init__(self, n_samples, n_failed, mean, variance, stderr,
                 stderr_std, histograms, seed, labels=None):
        self.__dict__.update(
            n_samples=n_samples, n_failed=n_failed, mean=mean,
            variance=variance, stderr=stderr, stderr_std=stderr_std,
            histograms=histograms, seed=seed, labels=labels)

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
    m4 = np.power(centered, 4, out=centered).mean(axis=0)
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
        # no randomness: one solve, variance exactly zero by definition;
        # n equal samples have one sample's histogram edges, and all n
        # counts in its one full bin
        if analysis == "dc":
            x = nominal
        else:
            _, states, _ = integrate_deterministic(
                model, np.zeros(0), (0.0, t_end), nominal, options)
            x = states[-1]
        hists = []
        for value in x:
            counts, edges = np.histogram(value, bins=HISTOGRAM_BINS)
            hists.append((edges, counts * n))
        zeros = np.zeros(model.n)
        return McResult(n_samples=n, n_failed=0, mean=x.copy(),
                        variance=zeros, stderr=zeros.copy(),
                        stderr_std=zeros.copy(), histograms=tuple(hists),
                        seed=seed, labels=model.labels)

    budget = int(np.floor(FAILURE_BUDGET * n))
    results = np.empty((n, model.n))
    failed = np.zeros(n, dtype=bool)
    # stacks of the stacked DC solve's size, so the failure budget is
    # checked after each and transient stacks stay as small
    chunk = _chunk_rows(model.n)
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
    return _aggregate(results[~failed] if n_failed else results, n_failed,
                      seed, model.labels)
