"""Monte Carlo reference engine.

Validation oracle for the spectral solvers: inverse-CDF sampling from a
seeded PCG64 generator, one deterministic solve per sample, aggregation
with standard errors, and histogram export.  Samples are solved as the rows
of stacked solves: DC samples in stacked Newton solves, transient samples
in the stacked stepper, each on its own clock so that it takes the steps a
one-sample run takes.  Each stack draws and transforms only its own rows
from the one generator; consecutive blocks of a PCG64 draw are the rows of
one (n, d) draw bit for bit, so results are bit-identical for a fixed
(model, n, seed) and equal those of sampling up front.  What grows with n
is the (n, n_states) array of solved samples and np.var's one temporary
of its size; a run whose share exceeds MEMORY_BUDGET is refused before
anything is allocated.  A sample's bits still depend on its stack, in
rounding only: a Newton stack of stsolver.PLANNED_LU_MIN_ROWS rows or more
is solved by the planned LU, a shorter one by LAPACK.
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
# ndtri holds about six float temporaries per value, and np.histogram about
# as many: a block of this many values keeps them within CHUNK_BYTES
QUANTILE_ROWS = CHUNK_BYTES // (8 * 8)
# bytes a sampling run may hold in arrays that grow with its sample count
MEMORY_BUDGET = 1 << 30
# float vectors of n per row that a DC Newton stack holds besides its
# Jacobians, measured at 9 to 17
NEWTON_ROW_VECTORS = 16


def _sample_blocks(distributions: Sequence, n: int, seed: int, rows: int):
    """Yields (lo, block): the rows lo, lo + 1, ... of
    sample_parameters(distributions, n, seed), in consecutive blocks of
    `rows` rows.  Each block is one uniform draw from the one generator,
    which the quantile functions overwrite column by column in blocks of
    QUANTILE_ROWS rows.  PCG64 fills a draw in row order and the quantile
    functions are elementwise, so the blocks are the rows of one (n, d)
    draw bit for bit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for lo in range(0, n, rows):
        u = rng.random((min(rows, n - lo), len(distributions)))
        for k, dist in enumerate(distributions):
            for b in range(0, len(u), QUANTILE_ROWS):
                u[b:b + QUANTILE_ROWS, k] = dist.inv_cdf(
                    u[b:b + QUANTILE_ROWS, k])
        yield lo, u


def _check_budget(n: int, bytes_per_sample: int) -> None:
    """Refuses, before any allocation, a run whose arrays that grow with
    its n samples would exceed MEMORY_BUDGET."""
    need = n * bytes_per_sample
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"{n:,} samples need {need:,} bytes of per-sample arrays, above "
            f"the sampling memory budget of {MEMORY_BUDGET:,} bytes "
            "(montecarlo.MEMORY_BUDGET); use fewer samples")


def sample_parameters(distributions: Sequence, n: int, seed: int
                      ) -> np.ndarray:
    """(n, d) matrix of independent samples via inverse CDF on PCG64: one
    block of the draw run_mc and density_by_sampling take stack by stack,
    so its rows are theirs bit for bit."""
    if n < 1:
        raise ValueError("need at least one sample")
    return next(_sample_blocks(distributions, n, seed, n))[1]


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
    """Statistics of the rows of samples (n, n_out), which it overwrites:
    the histograms first, in blocks of QUANTILE_ROWS rows; then the mean
    and np.var, whose one temporary of samples' size fixes the variance
    bits; then the fourth central moment, from samples centred and raised
    in place."""
    n = samples.shape[0]
    hists = []
    for col in samples.T:
        # np.histogram bins a value by the range alone, so counts over
        # blocks of rows add up to the whole column's
        span = (col.min(), col.max())
        counts, edges = np.histogram(col[:QUANTILE_ROWS], HISTOGRAM_BINS,
                                     span)
        for lo in range(QUANTILE_ROWS, n, QUANTILE_ROWS):
            counts += np.histogram(col[lo:lo + QUANTILE_ROWS],
                                   HISTOGRAM_BINS, span)[0]
        hists.append((edges, counts))
    mean = samples.mean(axis=0)
    if n > 1:
        variance = samples.var(axis=0, ddof=1)
    else:
        variance = np.zeros(samples.shape[1])
    std = np.sqrt(variance)
    stderr = std / np.sqrt(n)
    centered = np.subtract(samples, mean, out=samples)
    m4 = np.power(centered, 4, out=centered).mean(axis=0)
    # var(s^2) ~ (m4 - s^4)/n; std error of s by the delta method
    var_s2 = np.maximum(m4 - variance ** 2, 0.0) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr_std = np.where(std > 0, np.sqrt(var_s2) / (2 * std), 0.0)
    return McResult(n_samples=n, n_failed=n_failed, mean=mean,
                    variance=variance, stderr=stderr, stderr_std=stderr_std,
                    histograms=tuple(hists), seed=seed, labels=labels)


def _stack_rows(n_states: int, analysis: str) -> int:
    """Samples per stack: the stacked DC solve's _chunk_rows, so that the
    failure budget is checked after each and transient stacks stay as
    small.  _chunk_rows fits only the (n, n) Jacobians in CHUNK_BYTES;
    Newton's vectors and the model's temporaries add 9 (2 states) to 17
    (42 states) float vectors of n per row, so a DC stack also fits
    NEWTON_ROW_VECTORS of them.  That binds below 15 states only, where
    it leaves 546 rows or more, so no stack falls below the planned LU's
    PLANNED_LU_MIN_ROWS on its account."""
    rows = _chunk_rows(n_states)
    if analysis == "dc":
        rows = min(rows, CHUNK_BYTES // (8 * NEWTON_ROW_VECTORS * n_states))
    return rows


def run_mc(model: StochasticDae, analysis: str, n: int, seed: int,
           t_end: float | None = None,
           options: SolverOptions = SolverOptions()) -> McResult:
    """Monte Carlo over the model's inputs; analysis is 'dc' or 'transient'.

    Transient runs integrate from t=0 to t_end (required) and aggregate the
    final state; 'dc' aggregates the operating point.  Failed solves are
    tolerated up to 0.1% of n, then the run aborts.

    Each stack of _stack_rows samples draws its own rows from the one
    generator and copies its solved rows into the (n, n_states) results;
    those and np.var's temporary of their size are all that grow with n,
    and a run whose share exceeds MEMORY_BUDGET raises ValueError before
    any allocation.
    """
    if analysis not in ("dc", "transient"):
        raise ValueError("analysis must be 'dc' or 'transient'")
    if analysis == "transient" and t_end is None:
        raise ValueError("transient analysis needs t_end")
    if n < 1:
        raise ValueError("need at least one sample")
    if model.d:
        _check_budget(n, 16 * model.n)
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
    kept = 0   # the solved samples fill results[:kept] in sample order
    for lo, xis in _sample_blocks(model.distributions, n, seed,
                                  _stack_rows(model.n, analysis)):
        hi = lo + len(xis)
        if analysis == "dc":
            X, _, ok = _solve_dc_rows(model, xis, nominal[None], options)
        else:
            # each sample on its own clock; a failed one's state is NaN
            _, (X,), _, _ = _integrate_points(
                model, xis, np.tile(nominal, (hi - lo, 1)),
                (0.0, t_end), options, own_clocks=True)
            ok = ~np.isnan(X).any(axis=1)
        if not ok.all():
            X = X[ok]
        results[kept:kept + len(X)] = X
        kept += len(X)
        if hi - kept > budget:
            raise SolverError(
                f"Monte Carlo aborted: {hi - kept} of {hi} samples "
                f"failed, exceeding the {FAILURE_BUDGET:.1%} budget")
    return _aggregate(results[:kept], n - kept, seed, model.labels)
