"""Stochastic testing solver.

The spectral expansion x(t, xi) = sum_k xhat_k(t) Phi_k(xi) is determined by
collocating the model at K testing points: candidates are the nodes of the
tensor Gauss grid (order p+1 per dimension), and the K points with the
largest tensor weights that keep the collocation matrix V[j, k] =
Phi_k(xi_j) well conditioned are kept.  Basis rows are evaluated lazily, in
candidate order, only for the candidates the greedy reaches, and the
condition screen accepts a trial on a cheap Frobenius-norm bound of its
condition number, running an SVD only for trials near the cap.  Because V is
square and invertible, every Newton iteration and every implicit time step
decouples into K independent n-by-n solves in point space; the DC solve and
each implicit time step run the K points as the rows of one stacked Newton.
Coefficients are recovered as V^-1 X whenever an expansion is needed.

Time integration is trapezoidal with a backward-Euler startup step, one
shared adaptive step sequence for all testing points, local error estimated
from a polynomial predictor, and error-per-unit-step acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .models import StochasticDae
from .polychaos import (GpcExpansion, MultiIndexSet, OrthoBasis,
                        expansion_to_dict, golub_welsch, make_standard_basis,
                        stieltjes_basis, tensor_quadrature,
                        total_degree_index_set, _basis_matrix)

__all__ = [
    "SolverError",
    "SolverOptions",
    "TestingPointSet",
    "StSolution",
    "select_testing_points",
    "newton_dc",
    "solve_dc",
    "recover_coefficients",
    "integrate_transient",
    "integrate_deterministic",
    "standard_bases",
]

CONDITION_CAP = 1e8
RECOVERY_RESIDUAL_CAP = 1e-12


class SolverError(RuntimeError):
    """Newton divergence or step-size underflow; carries diagnostics."""

    def __init__(self, message: str, residual: float | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.time = time


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and caps shared by the DC and transient drivers."""

    dc_tol_scale: float = 1e-9        # Newton residual tol = scale * n
    newton_max_iter: int = 50
    newton_max_damping: int = 8
    condition_cap: float = CONDITION_CAP
    lte_tol: float = 1e-6             # transient error per unit time
    min_step_fraction: float = 1e-12  # of the span; underflow below this
    max_step_fraction: float = 0.1
    accepts_before_double: int = 5
    fixed_step: float | None = None   # disables step control when set
    threads = 1   # not a field; read by perfbench/launcher.py --env only

    def dc_tol(self, n: int) -> float:
        return self.dc_tol_scale * n


def standard_bases(model_or_dists, order: int) -> tuple[OrthoBasis, ...]:
    """Orthonormal basis per random input, from its distribution: the
    closed-form recurrence of a named family, Stieltjes for a custom one."""
    dists = getattr(model_or_dists, "distributions", model_or_dists)
    return tuple(stieltjes_basis(dist, order) if dist.kind == "custom"
                 else make_standard_basis(dist, order) for dist in dists)


@dataclass(frozen=True)
class TestingPointSet:
    """K selected points, the collocation matrix V, and its condition."""

    points: np.ndarray   # (K, d)
    V: np.ndarray        # (K, K), V[j, k] = Phi_k(points[j])
    condition: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        V = np.asarray(self.V, dtype=float)
        pts.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "V", V)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def select_testing_points(bases: Sequence[OrthoBasis], idx: MultiIndexSet,
                          condition_cap: float = CONDITION_CAP
                          ) -> TestingPointSet:
    """Greedy selection of K tensor-Gauss nodes by descending weight.

    A candidate is kept only if it raises the rank of the partial
    collocation matrix and keeps its condition number at or below the cap.
    Ties in weight are broken by ascending lexicographic point order so the
    selection is deterministic.  Basis rows are evaluated lazily, in that
    candidate order and in doubling chunks of 2K, 4K, ... rows, so the
    greedy that stops after K accepted points never builds the (N, K)
    matrix over the whole grid.

    The condition screen runs an SVD only for trials near the cap.  The
    rank screen writes the accepted rows as V_rows = L Q, with Q the
    orthonormal rows it keeps and L lower triangular, so a trial
    [V_rows; row] = L_new Q_new has the singular values of L_new.  Its
    condition number is then at most ||[V_rows; row]||_F ||L_new^-1||_F,
    a product kept up to date in O(k^2) per candidate.  A trial whose
    bound is at most cap/2 is accepted without an SVD; every other trial
    gets the exact SVD test.  The bound needs Q orthonormal, which
    Gram-Schmidt keeps only to rounding, so the greedy also keeps
    ||I - Q Q^T||_F and accepts on the bound only while the trial's Q_new
    is within 1/2 of orthonormal.  Then, by interlacing, Q_new's singular
    values are at least sqrt(1/2), so a trial accepted on the bound has a
    condition number of at most cap/sqrt(2), and every accept and reject
    is the one the SVD test makes.
    """
    K = len(idx)
    d = idx.dimension
    if d == 0:
        return TestingPointSet(np.zeros((1, 0)), np.ones((1, 1)), 1.0)
    if len(bases) != d:
        raise ValueError("need one basis per dimension")
    order = idx.total_order
    rules = [golub_welsch(b, order + 1) for b in bases]
    grid = tensor_quadrature(rules)

    pts = grid.points
    keys = tuple(pts[:, k] for k in reversed(range(d))) + (-grid.weights,)
    candidate_order = np.lexsort(keys)

    chosen: list[int] = []
    ortho = np.zeros((0, K))  # orthonormal row-space basis of V so far
    V_rows = np.zeros((0, K))
    Linv = np.zeros((K, K))   # L^-1 for V_rows = L @ ortho, in [:k, :k]
    fro2 = inv2 = 0.0         # ||V_rows||_F^2 and ||L^-1||_F^2
    drift2 = 0.0              # ||I - Q Q^T||_F^2 over the rows of ortho
    bound2 = (condition_cap / 2) ** 2
    for cand, row in _candidate_rows(idx, tuple(bases), pts,
                                     candidate_order, 2 * K):
        c = ortho @ row
        resid = row - ortho.T @ c
        delta = np.linalg.norm(resid)
        if delta <= 1e-12 * max(1.0, np.linalg.norm(row)):
            continue  # would not raise the rank
        k = len(chosen)
        q = resid / delta
        g = ortho @ q
        t_drift2 = drift2 + 2.0 * (g @ g) + (q @ q - 1.0) ** 2
        w = (c @ Linv[:k, :k]) / -delta   # L_new^-1's last row: [w, 1/delta]
        t_fro2 = fro2 + row @ row
        t_inv2 = inv2 + w @ w + 1.0 / delta ** 2
        if not (t_fro2 * t_inv2 <= bound2 and t_drift2 <= 0.25):
            s = np.linalg.svd(np.vstack([V_rows, row]), compute_uv=False)
            if s[0] / s[-1] > condition_cap:
                continue
        V_rows = np.vstack([V_rows, row])
        chosen.append(int(cand))
        if len(chosen) == K:
            break
        ortho = np.vstack([ortho, q])
        Linv[k, :k], Linv[k, k] = w, 1.0 / delta
        fro2, inv2, drift2 = t_fro2, t_inv2, t_drift2
    if len(chosen) < K:
        raise SolverError(
            f"only {len(chosen)} of {K} testing points satisfy the rank and "
            f"condition-{condition_cap:g} screens")
    s = np.linalg.svd(V_rows, compute_uv=False)
    return TestingPointSet(pts[chosen], V_rows, float(s[0] / s[-1]))


def _candidate_rows(idx: MultiIndexSet, bases: tuple, pts: np.ndarray,
                    order: np.ndarray, first: int):
    """Yields (candidate, basis row) in `order`, evaluating the rows in
    chunks that start at `first` rows and double, so a selection that
    stops early never evaluates the rest of the grid.  The basis matrix is
    elementwise in the points, so a row's bits do not depend on its chunk.
    """
    lo, size = 0, first
    while lo < len(order):
        chunk = order[lo:lo + size]
        yield from zip(chunk, _basis_matrix(idx, bases, pts[chunk]))
        lo += size
        size *= 2


# ---------------------------------------------------------------------------
# deterministic primitives (also used by the Monte Carlo driver)


_ALL = slice(None)


def _row_norms(R: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(R * R, axis=1))


def _solve_rows(J: np.ndarray, R: np.ndarray):
    """Newton steps -J^-1 R per row, and the mask of rows whose J is
    singular (None when there are none); those rows get no step."""
    try:
        return np.linalg.solve(J, -R[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        step = np.zeros_like(R)
        singular = np.zeros(len(R), dtype=bool)
        for i in range(len(R)):
            try:
                step[i] = np.linalg.solve(J[i], -R[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _damped_newton(residual: Callable, jacobian: Callable, x0: np.ndarray,
                   tol: float, max_iter: int, max_damping: int):
    """Row-wise Newton with residual-norm damping on a stack X (N, n).

    residual(Y, rows) and jacobian(Y, rows) evaluate the rows `rows` of the
    stack (an index array, or slice(None) for all rows) at states Y
    (len(rows), n); they return (len(rows), n) residuals and
    (len(rows), n, n) Jacobians.  Each row follows the iterates of a scalar
    damped Newton on its own: a full step, then halvings until its residual
    norm drops, taking the last halving when none does.  A row stops once
    its norm is at most tol.  A row whose Jacobian is singular stops there,
    unconverged; the other rows go on.

    Returns (X, residual norms (N,), converged mask (N,)).
    """
    X = np.array(x0, dtype=float)
    N = len(X)
    R = residual(X, _ALL)
    rnorm = _row_norms(R)
    failed = None          # mask of rows stopped by a singular Jacobian
    for _ in range(max_iter):
        done = rnorm <= tol
        if failed is not None:
            done |= failed
        n_done = np.count_nonzero(done)
        if n_done == N:
            break
        rows = _ALL if not n_done else np.flatnonzero(~done)
        step, singular = _solve_rows(jacobian(X[rows], rows), R[rows])
        if singular is not None:
            rows = np.arange(N)[rows]
            if failed is None:
                failed = np.zeros(N, dtype=bool)
            failed[rows[singular]] = True
            rows, step = rows[~singular], step[~singular]
            if not rows.size:
                continue
        x_old, base = X[rows], rnorm[rows]
        pend = _ALL   # rows of `rows` still searching for a damping factor
        lam = 1.0
        for k in range(max_damping + 1):
            at = rows if pend is _ALL else np.arange(N)[rows][pend]
            Y = x_old[pend] + lam * step[pend]
            RY = residual(Y, at)
            nY = _row_norms(RY)
            if k == max_damping:
                ok = np.ones(len(nY), dtype=bool)
            else:
                ok = nY < base[pend]
            if np.count_nonzero(ok) == len(ok):
                if at is _ALL:
                    X, R, rnorm = Y, RY, nY
                else:
                    X[at], R[at], rnorm[at] = Y, RY, nY
                break
            took = np.arange(N)[at][ok]
            X[took], R[took], rnorm[took] = Y[ok], RY[ok], nY[ok]
            pend = (np.arange(len(step)) if pend is _ALL else pend)[~ok]
            lam *= 0.5
    converged = rnorm <= tol
    return X, rnorm, converged if failed is None else converged & ~failed


def _check_converged(rnorm: np.ndarray, ok: np.ndarray, tol: float,
                     options: SolverOptions) -> None:
    """Raises SolverError with the worst residual if a row failed."""
    if ok.all():
        return
    worst = float(np.max(rnorm[~ok]))
    raise SolverError(
        f"Newton did not converge at {len(ok) - np.count_nonzero(ok)} of "
        f"{len(ok)} points (residual {worst:.3e}, tol {tol:.3e}): "
        f"{options.newton_max_iter} iterations ran out or the Jacobian was "
        "singular", residual=worst)


def newton_dc(model: StochasticDae, xi: np.ndarray,
              x0: np.ndarray | None = None, t: float = 0.0,
              options: SolverOptions = SolverOptions()) -> np.ndarray:
    """DC operating point f(x, xi, t) = B u(t): x (n,) at one point xi
    (d,), or (N, n) at the rows of a stack xi (N, d), solved as one stacked
    Newton from the one start x0 (default model.initial_guess())."""
    P = np.asarray(xi, dtype=float)
    start = model.initial_guess() if x0 is None else np.asarray(x0, float)
    X, rnorm, ok = _solve_dc_rows(model, np.atleast_2d(P), start[None],
                                  options, t)
    _check_converged(rnorm, ok, options.dc_tol(model.n), options)
    return X if P.ndim == 2 else X[0]


def _solve_dc_rows(model: StochasticDae, P: np.ndarray, X0: np.ndarray,
                   options: SolverOptions, t: float = 0.0):
    """Stacked DC solves f(x_i, P_i, t) = B u(t), one per row of P (N, d).

    X0 is (N, n), or (1, n) for one start shared by every row.  Returns
    _damped_newton's (X, residual norms, converged mask).
    """
    rhs = model.B @ model.u(t)

    def residual(Y, rows):
        return model.f_many(Y, P[rows], t) - rhs

    def jacobian(Y, rows):
        return model.jac_f_many(Y, P[rows], t)

    return _damped_newton(residual, jacobian,
                          np.broadcast_to(X0, (len(P), model.n)),
                          options.dc_tol(model.n), options.newton_max_iter,
                          options.newton_max_damping)


def _map_points(fn: Callable, items):
    # a plain map that nothing calls since transient steps run as one
    # stacked Newton; kept as a name only because perfbench/tracer.py wraps it
    return [fn(it) for it in items]


def recover_coefficients(values: np.ndarray, tps: TestingPointSet,
                         idx: MultiIndexSet,
                         bases: Sequence[OrthoBasis]) -> GpcExpansion:
    """Solve V xhat = values with one refinement pass; checks the residual."""
    X = np.asarray(values, dtype=float).reshape(tps.n_points, -1)
    coeffs = np.linalg.solve(tps.V, X)
    coeffs += np.linalg.solve(tps.V, X - tps.V @ coeffs)  # refinement
    rel = (np.linalg.norm(tps.V @ coeffs - X)
           / max(np.linalg.norm(X), 1e-300))
    if rel > RECOVERY_RESIDUAL_CAP:
        raise SolverError(
            f"coefficient recovery residual {rel:.3e} exceeds "
            f"{RECOVERY_RESIDUAL_CAP:g}; V may be ill conditioned")
    return GpcExpansion(idx, coeffs, tuple(bases))


def solve_dc(model: StochasticDae, tps: TestingPointSet,
             bases: Sequence[OrthoBasis], idx: MultiIndexSet,
             options: SolverOptions = SolverOptions()) -> GpcExpansion:
    """Decoupled stochastic DC: one stacked Newton over the K testing
    points, warm-started from the nominal solution, then V^-1."""
    nominal = newton_dc(model, model.nominal_parameters(), options=options)
    X = newton_dc(model, tps.points, nominal, options=options)
    return recover_coefficients(X, tps, idx, tuple(bases))


# ---------------------------------------------------------------------------
# transient integration


@dataclass(frozen=True)
class StSolution:
    """Transient result: expansion series on a shared time grid."""

    index_set: MultiIndexSet
    bases: tuple
    times: np.ndarray
    expansions: tuple            # one GpcExpansion per time point
    step_log: tuple              # (t_start, h, accepted, lte_estimate)
    n_point_solves: int
    labels: tuple | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("time points must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def final(self) -> GpcExpansion:
        return self.expansions[-1]

    def mean_std_table(self) -> np.ndarray:
        """(T, 1 + 2*n) array: t, then mean and std per output."""
        rows = []
        for t, exp in zip(self.times, self.expansions):
            mean, var = exp.mean_variance()
            rows.append(np.concatenate([[t], mean,
                                        np.sqrt(np.maximum(var, 0.0))]))
        return np.array(rows)

    def to_csv(self) -> str:
        n = self.expansions[0].n_outputs
        labels = self.labels or tuple(f"x{i}" for i in range(n))
        header = ["t"] + [f"mean_{l}" for l in labels] + [
            f"std_{l}" for l in labels]
        lines = [",".join(header)]
        for row in self.mean_std_table():
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def expansions_json(self) -> str:
        import json

        return json.dumps({
            "schema": "st-solution/1",
            "times": [float(t) for t in self.times],
            "expansions": [expansion_to_dict(e) for e in self.expansions],
        }, indent=1, sort_keys=True)


class _PointIntegrator:
    """The implicit stepper of all parameter points: P (N, d), states X
    (N, n) and up to three past (t, X) pairs, on the driver's shared steps."""

    def __init__(self, model, points, X0, options):
        self.model = model
        self.P = np.asarray(points, dtype=float)
        self.X = np.array(X0, dtype=float)
        self.options = options
        self.history: list[tuple[float, np.ndarray]] = []

    def _implicit_solve(self, t_new, h, theta, q_old, g_old):
        """Solve (q(X) - q_old)/h + theta*g(X,t_new) + (1-theta)*g_old = 0,
        one stacked Newton over every row.

        Dividing by h keeps the residual on the scale of f itself, so the
        Newton tolerance stays meaningful for small steps.
        """
        model, P = self.model, self.P
        rhs_new = model.B @ model.u(t_new)
        old = (1.0 - theta) * g_old

        def residual(Y, rows):
            Pr = P[rows]
            g_new = model.f_many(Y, Pr, t_new) - rhs_new
            return ((model.q_many(Y, Pr) - q_old[rows]) / h
                    + theta * g_new + old[rows])

        def jacobian(Y, rows):
            Pr = P[rows]
            return (model.jac_q_many(Y, Pr) / h
                    + theta * model.jac_f_many(Y, Pr, t_new))

        opt = self.options
        tol = opt.dc_tol(model.n)
        X, rnorm, ok = _damped_newton(residual, jacobian, self.X, tol,
                                      opt.newton_max_iter,
                                      opt.newton_max_damping)
        _check_converged(rnorm, ok, tol, opt)
        return X

    def attempt(self, t, h):
        """Try one step; returns (X_new, largest lte estimate); no commit."""
        model, X = self.model, self.X
        q_old = model.q_many(X, self.P)
        t_new = t + h
        if not self.history:
            # backward Euler startup: damps any inconsistent algebraic part
            return self._implicit_solve(t_new, h, 1.0, q_old,
                                        np.zeros_like(X)), 0.0
        g_old = model.f_many(X, self.P, t) - model.B @ model.u(t)
        X_new = self._implicit_solve(t_new, h, 0.5, q_old, g_old)

        # predictor through past states; its mismatch with the corrector
        # estimates the local truncation error
        past = self.history[-2:] + [(t, X)]
        X_pred = _extrapolate(past, t_new)
        c_corr = h ** 3 / 12.0
        c_pred = abs(math.prod(t_new - tp for tp, _ in past)) / 6.0
        if len(past) < 3:
            c_pred = max(c_pred, h ** 2)
        lte = np.abs(X_new - X_pred).max() * c_corr / (c_pred + c_corr)
        return X_new, lte

    def commit(self, t, X_new):
        self.history = self.history[-2:] + [(t, self.X)]
        self.X = X_new


def _extrapolate(past: list, t_new: float) -> np.ndarray:
    """Newton divided-difference polynomial through past (t, x) pairs."""
    ts = [p[0] for p in past]
    coeffs = [p[1] for p in past]
    # divided differences in place in the list; the states are only read
    for level in range(1, len(ts)):
        for i in range(len(ts) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (ts[i] - ts[i - level])
    out = coeffs[-1]
    for i in range(len(ts) - 2, -1, -1):
        out = out * (t_new - ts[i]) + coeffs[i]
    return out


def _integrate_points(model, points, X0, t_span, options):
    """Shared-step integration of the parameter points' one stacked stepper.

    Returns (times, states per time (list of (N, n)), step log, solves).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise ValueError(f"t_span ({t0:g}, {t1:g}) must be finite, t1 > t0")
    span = t1 - t0
    min_step = span * options.min_step_fraction
    fixed = options.fixed_step
    if fixed is not None and not fixed >= min_step:
        raise ValueError(
            f"fixed_step {fixed:g} is below the step floor {min_step:g} "
            f"(min_step_fraction {options.min_step_fraction:g} of the span)")
    stepper = _PointIntegrator(model, points, X0, options)

    h = fixed if fixed is not None else span * min(
        options.max_step_fraction, 1e-3)
    times = [t0]
    states = [stepper.X]
    log = []
    t = t0
    streak = 0
    while t < t1 - 1e-14 * span:
        if fixed is None and h < min_step:
            raise SolverError(
                f"step size underflow at t = {t:.6e} (h = {h:.3e})",
                time=t)
        h_step = min(h, t1 - t)  # clip only at the end of the span
        X_new, lte = stepper.attempt(t, h_step)
        target = options.lte_tol * h_step / span  # error per unit time
        if fixed is None and lte > target:
            log.append((t, h_step, False, lte))
            h = 0.5 * h_step
            streak = 0
            continue
        log.append((t, h_step, True, lte))
        stepper.commit(t, X_new)
        # fixed steps place t at t0 + k*h: accumulating t += h drifts and
        # can leave a last step of ~1e-13 h on which Newton stalls
        t = (t + h_step if fixed is None
             else min(t0 + len(times) * fixed, t1))
        times.append(t)
        states.append(X_new)
        if fixed is None:
            streak += 1
            if streak >= options.accepts_before_double:
                h = min(2.0 * h, span * options.max_step_fraction)
                streak = 0
    return np.array(times), states, tuple(log), len(X0) * len(log)


def integrate_transient(model: StochasticDae, tps: TestingPointSet,
                        bases: Sequence[OrthoBasis], idx: MultiIndexSet,
                        t_span, x0: GpcExpansion | None = None,
                        options: SolverOptions = SolverOptions()
                        ) -> StSolution:
    """Integrate the stochastic DAE; one shared step sequence for all points."""
    if x0 is None:
        x0 = solve_dc(model, tps, bases, idx, options)
    X0 = tps.V @ np.asarray(x0.coefficients)
    times, states, log, solves = _integrate_points(
        model, tps.points, X0, t_span, options)
    expansions = tuple(recover_coefficients(X, tps, idx, tuple(bases))
                       for X in states)
    return StSolution(index_set=idx, bases=tuple(bases), times=times,
                      expansions=expansions, step_log=log,
                      n_point_solves=solves, labels=model.labels)


def integrate_deterministic(model: StochasticDae, xi: np.ndarray,
                            t_span, x0: np.ndarray,
                            options: SolverOptions = SolverOptions()):
    """Single-sample transient; returns (times, states (T, n), solves)."""
    times, states, _, solves = _integrate_points(
        model, [np.asarray(xi, dtype=float)], [np.asarray(x0, dtype=float)],
        t_span, options)
    return times, np.array([s[0] for s in states]), solves
