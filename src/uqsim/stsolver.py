"""Stochastic testing solver.

The spectral expansion x(t, xi) = sum_k xhat_k(t) Phi_k(xi) is determined by
collocating the model at K testing points: candidates are the nodes of the
tensor Gauss rule (order p+1 per dimension), and the K points with the
largest tensor weights that keep the collocation matrix V[j, k] =
Phi_k(xi_j) well conditioned are kept.  Candidates are ordered by their
tensor weights alone; a candidate's point, and its basis row, are built
from its flat node index only when the greedy reaches it, and the
condition screen accepts a trial on a cheap Frobenius-norm bound of its
condition number, running an SVD only for trials near the cap.  Because V is
square and invertible, every Newton iteration and every implicit time step
decouples into K independent n-by-n solves in point space; the DC solve and
each implicit time step run the K points as the rows of one stacked Newton.
Coefficients are recovered as V^-1 X, all states of a transient in one
stacked solve; a TestingPointSet carries the bases and total-degree index
set it was selected for, and every expansion recovered from it is on them.

Time integration is trapezoidal with a backward-Euler startup step, local
error estimated from a polynomial predictor, and error-per-unit-step
acceptance.  The testing points share one adaptive step sequence on a
clock of Python floats; the same stacked stepper runs Monte Carlo samples
on own clocks, kept in arrays, each with the steps of a one-sample run.
Newton stacks of PLANNED_LU_MIN_ROWS rows or more are solved by an LU
planned once per Jacobian pattern, shorter ones by LAPACK, so a row's
iterates depend on how many rows share its stack, in rounding only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import StochasticDae
from .polychaos import (CHUNK_BYTES, TENSOR_NODE_CAP, GpcExpansion,
                        MultiIndexSet, OrthoBasis, golub_welsch,
                        make_standard_basis, stieltjes_basis,
                        total_degree_index_set, _basis_matrix, _Immutable,
                        _frozen, _tensor_weights)

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
MIN_STEP_FRACTION = 1e-12       # of the span; adaptive steps underflow below
MAX_STEP_FRACTION = 0.1
ACCEPTS_BEFORE_DOUBLE = 5
# Newton stacks of at least this many rows run the model's planned LU;
# shorter ones keep LAPACK, whose per-matrix work is then cheaper than the
# planned LU's per-pivot numpy calls (crossover table in
# BENCH_netlist_scale.json)
PLANNED_LU_MIN_ROWS = 64
# the planned LU hands a row to LAPACK when a pivot is below this fraction
# of the largest entry of its column (KLU's default threshold)
PIVOT_FRACTION = 1e-3
# the planned LU works on row blocks whose stored entries and largest
# update temporaries take at most this many bytes, so its entry-major copy
# stays small against the Jacobian stack
LU_BLOCK_BYTES = 1 << 17
# Newton's safety limits: iterations per stack, and step halvings per
# iteration before the last halving is taken anyway
NEWTON_MAX_ITER = 50
NEWTON_MAX_DAMPING = 8


class SolverError(RuntimeError):
    """Newton divergence or step-size underflow; carries diagnostics."""

    def __init__(self, message: str, residual: float | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.time = time


# a dataclass only for the fields the CLI checks: it generates no method
@dataclass(init=False, repr=False, eq=False)
class SolverOptions(_Immutable):
    """Tolerances and caps shared by the DC and transient drivers.  Newton's
    iteration and damping limits are the constants NEWTON_MAX_ITER and
    NEWTON_MAX_DAMPING, not options."""

    dc_tol_scale: float        # Newton residual tol = scale * n
    condition_cap: float
    lte_tol: float             # transient error per unit time
    fixed_step: float | None   # disables step control when set
    threads = 1   # not a field; read by perfbench/launcher.py --env only

    def __init__(self, dc_tol_scale=1e-9, condition_cap=CONDITION_CAP,
                 lte_tol=1e-6, fixed_step=None):
        self.__dict__.update(
            dc_tol_scale=dc_tol_scale, condition_cap=condition_cap,
            lte_tol=lte_tol, fixed_step=fixed_step)
        for key, least in (("dc_tol_scale", 0), ("condition_cap", 1),
                           ("lte_tol", 0)):
            value = getattr(self, key)
            if not least <= value < math.inf:
                raise ValueError(f"solver option {key} must be finite and "
                                 f"at least {least}, got {value!r}")
        if self.fixed_step is not None and not 0 < self.fixed_step < math.inf:
            raise ValueError("solver option fixed_step must be finite and "
                             f"above 0, got {self.fixed_step!r}")

    def dc_tol(self, n: int) -> float:
        return self.dc_tol_scale * n


def standard_bases(model_or_dists, order: int) -> tuple[OrthoBasis, ...]:
    """Orthonormal basis per random input, from its distribution: the
    closed-form recurrence of a named family, Stieltjes for a custom one."""
    dists = getattr(model_or_dists, "distributions", model_or_dists)
    return tuple(stieltjes_basis(dist, order) if dist.kind == "custom"
                 else make_standard_basis(dist, order) for dist in dists)


class TestingPointSet(_Immutable):
    """K selected points, the collocation matrix V, its condition, and the
    bases and index set the points were selected for."""

    points: np.ndarray   # (K, d)
    V: np.ndarray        # (K, K), V[j, k] = Phi_k(points[j])
    condition: float
    bases: tuple         # one OrthoBasis per dimension
    index_set: MultiIndexSet

    def __init__(self, points, V, condition, bases, index_set):
        self.__dict__.update(points=_frozen(points), V=_frozen(V),
                             condition=condition, bases=bases,
                             index_set=index_set)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def select_testing_points(bases: Sequence[OrthoBasis], order: int,
                          condition_cap: float = CONDITION_CAP
                          ) -> TestingPointSet:
    """Greedy selection of K tensor-Gauss nodes by descending weight, for
    the total-degree-`order` expansion over `bases`.

    A candidate is kept only if it raises the rank of the partial
    collocation matrix and keeps its condition number at or below the cap.
    Ties in weight are broken by ascending lexicographic point order so the
    selection is deterministic: each axis's Gauss nodes ascend and the
    first axis is slowest, so a stable sort of the tensor weights leaves
    tied candidates in that order.  Only the d one-dimensional rules and
    the tensor weights are built; a rule of more than TENSOR_NODE_CAP
    nodes is refused before either is.  Points and basis rows are made
    from flat node indices, in candidate order and in doubling chunks of
    2K, 4K, ... rows, so the greedy that stops after K accepted points
    never builds the (N, d) grid or the (N, K) basis matrix.

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
    bases = tuple(bases)
    d = len(bases)
    nodes = (order + 1) ** d
    if nodes > TENSOR_NODE_CAP:
        raise ValueError(
            f"testing-point selection needs {order + 1}^{d} = {nodes:,} "
            f"tensor Gauss nodes, above the bound of {TENSOR_NODE_CAP:,}; "
            "use a lower --order, or the anova analysis")
    idx = total_degree_index_set(d, order)
    K = len(idx)
    if d == 0:
        return TestingPointSet(np.zeros((1, 0)), np.ones((1, 1)), 1.0, bases,
                               idx)
    rules = [golub_welsch(b, order + 1) for b in bases]
    axes = [r.points for r in rules]
    candidate_order = np.argsort(-_tensor_weights(rules), kind="stable")

    chosen: list[int] = []
    # the accepted rows of V and the orthonormal basis of their span, in
    # [:k] of the k accepted so far
    V_rows = np.zeros((K, K))
    Q = np.zeros((K, K))
    Linv = np.zeros((K, K))   # L^-1 for V_rows = L @ Q, in [:k, :k]
    fro2 = inv2 = 0.0         # ||V_rows||_F^2 and ||L^-1||_F^2
    drift2 = 0.0              # ||I - Q Q^T||_F^2 over the rows of Q
    bound2 = (condition_cap / 2) ** 2
    for cand, row in _candidate_rows(idx, bases, axes,
                                     candidate_order, 2 * K):
        k = len(chosen)
        ortho = Q[:k]
        c = ortho @ row
        resid = row - ortho.T @ c
        # np.linalg.norm's arithmetic for a real vector
        delta = math.sqrt(resid @ resid)
        row2 = row @ row
        if delta <= 1e-12 * max(1.0, math.sqrt(row2)):
            continue  # would not raise the rank
        q = resid / delta
        g = ortho @ q
        t_drift2 = drift2 + 2.0 * (g @ g) + (q @ q - 1.0) ** 2
        w = (c @ Linv[:k, :k]) / -delta   # L_new^-1's last row: [w, 1/delta]
        t_fro2 = fro2 + row2
        t_inv2 = inv2 + w @ w + 1.0 / delta ** 2
        V_rows[k] = row
        if not (t_fro2 * t_inv2 <= bound2 and t_drift2 <= 0.25):
            s = np.linalg.svd(V_rows[:k + 1], compute_uv=False)
            if s[0] / s[-1] > condition_cap:
                continue
        chosen.append(int(cand))
        if len(chosen) == K:
            break
        Q[k] = q
        Linv[k, :k], Linv[k, k] = w, 1.0 / delta
        fro2, inv2, drift2 = t_fro2, t_inv2, t_drift2
    if len(chosen) < K:
        raise SolverError(
            f"only {len(chosen)} of {K} testing points satisfy the rank and "
            f"condition-{condition_cap:g} screens")
    s = np.linalg.svd(V_rows, compute_uv=False)
    return TestingPointSet(_node_points(axes, chosen), V_rows,
                           float(s[0] / s[-1]), bases, idx)


def _node_points(axes: list, flat) -> np.ndarray:
    """(len(flat), d) nodes of the tensor rule on the 1-D node arrays in
    axes, at flat node indices (first axis slowest)."""
    digits = np.unravel_index(flat, tuple(len(a) for a in axes))
    return np.stack([a[i] for a, i in zip(axes, digits)], axis=-1)


def _candidate_rows(idx: MultiIndexSet, bases: tuple, axes: list,
                    order: np.ndarray, first: int):
    """Yields (candidate, basis row) in `order`, a sequence of flat node
    indices of the tensor rule on `axes`, making the points and rows in
    chunks that start at `first` rows and double, so a selection that
    stops early never evaluates the rest of the rule.  The basis matrix is
    elementwise in the points, so a row's bits do not depend on its chunk.
    """
    lo, size = 0, first
    while lo < len(order):
        chunk = order[lo:lo + size]
        yield from zip(chunk, _basis_matrix(idx, bases,
                                            _node_points(axes, chunk)))
        lo += size
        size *= 2


# ---------------------------------------------------------------------------
# deterministic primitives (also used by the Monte Carlo driver)


_ALL = slice(None)


def _row_norms(R: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(R * R, axis=1))


def _zero_free_rows(pattern: np.ndarray):
    """Row order that puts a structural nonzero on every diagonal entry of
    the boolean (n, n) pattern: position k holds row order[k].  Rows keep
    their own diagonal where they have one; the others are matched by
    augmenting paths.  None when no such order exists (the pattern is
    structurally singular)."""
    n = len(pattern)
    cols = [np.flatnonzero(row).tolist() for row in pattern]
    row_of = [i if pattern[i, i] else -1 for i in range(n)]  # per column

    def augment(i, seen):
        for j in cols[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    for i in range(n):
        if not pattern[i, i] and not augment(i, set()):
            return None
    return row_of


class _StackedLu:
    """LU of one Jacobian pattern, planned once and then solved numerically
    across the rows of a stack: KLU's split into a symbolic and a numeric
    phase (Davis and Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS
    2010), with the numeric phase run over rows instead of time steps.

    The plan permutes rows so that every diagonal entry is a structural
    nonzero (MNA branch rows of voltage sources have none), finds the fill
    of elimination in that order, and numbers the entries: the multipliers
    of L column by column, then per row its pivot, its entries of U and its
    right-hand side, which forward elimination updates as column n.  A
    block of rows is stored entry-major, each entry one contiguous vector
    over the rows, so that a pivot is one fused update of every row.
    Entries outside the pattern are read as zeros.  A row with a multiplier
    above 1/PIVOT_FRACTION, that is a pivot below that fraction of its
    column, or with a step that is not finite, is flagged for a pivoting
    solve.
    """

    def __init__(self, pattern: np.ndarray, order: list):
        n = len(pattern)
        rows = [set(np.flatnonzero(pattern[i]).tolist()) for i in order]
        for k in range(n):
            upper = [j for j in rows[k] if j > k]
            for i in range(k + 1, n):
                if k in rows[i]:
                    rows[i].update(upper)
        below = [[i for i in range(k + 1, n) if k in rows[i]]
                 for k in range(n)]
        right = [sorted(j for j in rows[k] if j > k) for k in range(n)]
        keys = [(i, k) for k in range(n) for i in below[k]]
        self.n_lower = len(keys)
        for k in range(n):
            keys += [(k, k)] + [(k, j) for j in right[k]] + [(k, n)]
        ids = {key: e for e, key in enumerate(keys)}
        self.size = len(keys)
        # J's flat index per entry; right-hand sides read a dummy 0
        self.gather = np.array([order[i] * n + j if j < n else 0
                                for i, j in keys])
        self.rhs = [(ids[k, n], order[k]) for k in range(n)]
        self.zeros = np.array([ids[i, j] for i, j in keys
                               if j < n and not pattern[order[i], j]],
                              dtype=np.intp)
        self.pivots = []
        for k in range(n):
            if not below[k]:
                continue
            cols = [ids[k, j] for j in right[k]] + [ids[k, n]]
            target = [ids[i, j] for i in below[k] for j in right[k] + [n]]
            lower = [ids[i, k] for i in below[k]]
            self.pivots.append((
                ids[k, k], slice(lower[0], lower[-1] + 1),
                slice(cols[0], cols[-1] + 1), np.array(target)))
        self.back = []
        for k in range(n - 1, -1, -1):
            cols = [ids[k, j] for j in right[k]]
            xs = [ids[j, n] for j in right[k]]
            self.back.append((k, ids[k, k], ids[k, n],
                              slice(cols[0], cols[-1] + 1) if cols else None,
                              np.array(xs, dtype=np.intp)))
        # vectors over the rows a block holds at once: its entries, and a
        # product and a gathered copy of the widest update
        self.width = self.size + 2 * max(
            [len(p[3]) for p in self.pivots] + [len(b[4]) for b in self.back])

    def solve(self, J: np.ndarray, R: np.ndarray):
        """Steps -J^-1 R of the rows of J (N, n, n) and R (N, n), and the
        mask of rows flagged for a pivoting solve, whose steps are void."""
        N, n = R.shape
        step = np.empty((N, n))
        flagged = np.zeros(N, dtype=bool)
        block = max(1, LU_BLOCK_BYTES // (8 * self.width))
        for lo in range(0, N, block):
            rows = slice(lo, min(N, lo + block))
            self._eliminate(J[rows], R[rows], step[rows], flagged[rows])
            flagged[rows] |= ~np.isfinite(step[rows]).all(axis=1)
        return step, flagged

    def _eliminate(self, J, R, step, flagged):
        """Entry-major LU and solve of one block: writes the steps -J^-1 R
        to step and flags rows in place."""
        N, n = R.shape
        E = J.reshape(N, n * n).T[self.gather]
        for e, i in self.rhs:
            E[e] = R[:, i]
        if self.zeros.size:
            E[self.zeros] = 0.0
        with np.errstate(all="ignore"):
            for diag, lower, upper, target in self.pivots:
                col = E[lower]
                col /= E[diag]
                E[target] -= (col[:, None] * E[upper]).reshape(-1, N)
            for k, diag, rhs, upper, xs in self.back:
                x = E[rhs]
                if upper is not None:
                    x -= (E[upper] * E[xs]).sum(axis=0)
                x /= E[diag]
                np.negative(x, out=step[:, k])
            if self.n_lower:
                L, big = E[:self.n_lower], 1.0 / PIVOT_FRACTION
                flagged |= (L.max(axis=0) > big) | (L.min(axis=0) < -big)


@functools.lru_cache(maxsize=32)
def _planned_lu(n: int, pattern: bytes):
    """The _StackedLu of an (n, n) boolean pattern given as bytes, built
    once per pattern; None when the pattern is structurally singular."""
    pattern = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    order = _zero_free_rows(pattern)
    return None if order is None else _StackedLu(pattern, order)


def _model_lu(model: StochasticDae, dc: bool):
    """The planned LU of the model's DC Jacobians df_dx (dc), or of its
    implicit steps' dq_dx / h + theta df_dx."""
    pattern = model.df_pattern if dc else model.df_pattern | model.dq_pattern
    return _planned_lu(model.n, pattern.tobytes())


def _solve_rows(J: np.ndarray, R: np.ndarray, lu: _StackedLu | None = None):
    """Newton steps -J^-1 R per row, and the mask of rows whose J is
    singular (None when there are none); those rows get no step.  A stack
    of at least PLANNED_LU_MIN_ROWS rows runs the planned LU lu, when
    given, and only the rows it flags go on to LAPACK."""
    if lu is None or len(R) < PLANNED_LU_MIN_ROWS:
        return _lapack_rows(J, R)
    step, flagged = lu.solve(J, R)
    if not np.count_nonzero(flagged):
        return step, None
    at = np.flatnonzero(flagged)
    step[at], singular = _lapack_rows(J[at], R[at])
    if singular is None:
        return step, None
    mask = np.zeros(len(R), dtype=bool)
    mask[at[singular]] = True
    return step, mask


def _lapack_rows(J: np.ndarray, R: np.ndarray):
    """_solve_rows by numpy's LAPACK solve, one row at a time after a
    singular row stops the stacked call."""
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
                   tol: float, lu: _StackedLu | None = None):
    """Row-wise Newton with residual-norm damping on a stack X (N, n).

    residual(Y, rows) and jacobian(Y, rows) evaluate the rows `rows` of the
    stack (an index array, or slice(None) for all rows) at states Y
    (len(rows), n); they return (len(rows), n) residuals and
    (len(rows), n, n) Jacobians.  Each row follows the iterates of a scalar
    damped Newton on its own: a full step, then up to NEWTON_MAX_DAMPING
    halvings until its residual norm drops, taking the last halving when
    none does.  A row stops once its norm is at most tol; one still above
    it after NEWTON_MAX_ITER iterations ends unconverged.  A row whose
    Jacobian is singular stops there, unconverged; the other rows go on.
    lu, the planned LU of the Jacobians' pattern, solves long stacks (see
    _solve_rows).

    Returns (X, residual norms (N,), converged mask (N,)).
    """
    X = np.array(x0, dtype=float)
    N = len(X)
    R = residual(X, _ALL)
    rnorm = _row_norms(R)
    failed = None          # mask of rows stopped by a singular Jacobian
    for _ in range(NEWTON_MAX_ITER):
        done = rnorm <= tol
        if failed is not None:
            done |= failed
        n_done = np.count_nonzero(done)
        if n_done == N:
            break
        rows = _ALL if not n_done else np.flatnonzero(~done)
        step, singular = _solve_rows(jacobian(X[rows], rows), R[rows], lu)
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
        for k in range(NEWTON_MAX_DAMPING + 1):
            at = rows if pend is _ALL else np.arange(N)[rows][pend]
            Y = x_old[pend] + lam * step[pend]
            RY = residual(Y, at)
            nY = _row_norms(RY)
            if k == NEWTON_MAX_DAMPING:
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


def _check_converged(rnorm: np.ndarray, ok: np.ndarray, tol: float) -> None:
    """Raises SolverError with the worst residual if a row failed."""
    if ok.all():
        return
    worst = float(np.max(rnorm[~ok]))
    raise SolverError(
        f"Newton did not converge at {len(ok) - np.count_nonzero(ok)} of "
        f"{len(ok)} points (residual {worst:.3e}, tol {tol:.3e}): "
        f"NEWTON_MAX_ITER ({NEWTON_MAX_ITER}) iterations ran out or the "
        "Jacobian was singular", residual=worst)


def _chunk_rows(n: int) -> int:
    """Rows per stacked solve of an n-state model: CHUNK_BYTES of (n, n)
    Jacobians, and at least one.  Building them (netlist stamps, finite
    differences) takes a few times more."""
    return max(1, CHUNK_BYTES // (8 * n * (n + 1)))


def newton_dc(model: StochasticDae, xi: np.ndarray,
              x0: np.ndarray | None = None,
              options: SolverOptions = SolverOptions()) -> np.ndarray:
    """DC operating point f(x, xi, 0) = 0: x (n,) at one point xi
    (d,), or (N, n) at the rows of a stack xi (N, d), from the one start x0
    (default model.initial_guess()).  Stacked Newtons of _chunk_rows(n) rows
    keep the Jacobians within CHUNK_BYTES.  Rows do not interact, except
    that the number of rows still iterating picks the linear solve
    (_solve_rows), so a row's bits depend on its chunk only in rounding."""
    P = np.atleast_2d(np.asarray(xi, dtype=float))
    start = model.initial_guess() if x0 is None else np.asarray(x0, float)
    rows = _chunk_rows(model.n)
    chunks = [_solve_dc_rows(model, P[lo:lo + rows], start[None], options)
              for lo in range(0, max(len(P), 1), rows)]   # 0 rows: one chunk
    X, rnorm, ok = (np.concatenate(parts) for parts in zip(*chunks))
    _check_converged(rnorm, ok, options.dc_tol(model.n))
    return X if np.ndim(xi) == 2 else X[0]


def _solve_dc_rows(model: StochasticDae, P: np.ndarray, X0: np.ndarray,
                   options: SolverOptions):
    """Stacked DC solves f(x_i, P_i, 0) = 0, one per row of P (N, d).

    X0 is (N, n), or (1, n) for one start shared by every row.  Returns
    _damped_newton's (X, residual norms, converged mask).
    """
    def residual(Y, rows):
        return model.f_many(Y, P[rows], 0.0)

    def jacobian(Y, rows):
        return model.jac_f_many(Y, P[rows], 0.0)

    return _damped_newton(residual, jacobian,
                          np.broadcast_to(X0, (len(P), model.n)),
                          options.dc_tol(model.n), _model_lu(model, True))


def _map_points(fn: Callable, items):
    # a plain map that nothing calls since transient steps run as one
    # stacked Newton; kept as a name only because perfbench/tracer.py wraps it
    return [fn(it) for it in items]


def recover_coefficients(values: np.ndarray, tps: TestingPointSet
                         ) -> GpcExpansion:
    """The expansion on tps's basis taking `values` at its points: V xhat =
    values with one refinement pass; checks the residual."""
    X = np.asarray(values, dtype=float).reshape(tps.n_points, -1)
    return GpcExpansion(tps.index_set, _recover([X], tps)[0], tps.bases)


def _recover(states, tps: TestingPointSet, times=None) -> np.ndarray:
    """Read-only coefficients (T, K, n) of T states (K, n) at tps's points.
    V broadcasts over stacks of states near CHUNK_BYTES, one LAPACK solve
    and refinement per state: the bits of a one-state recovery.  The worst
    state whose residual exceeds the cap raises SolverError, naming its
    time when `times` are given."""
    V, C = tps.V, np.empty((len(states),) + np.shape(states[0]))
    rel = np.empty(len(states))
    rows = max(1, CHUNK_BYTES // (8 * C[0].size))
    for lo in range(0, len(C), rows):
        X = np.stack(states[lo:lo + rows])
        c = np.linalg.solve(V, X)
        c += np.linalg.solve(V, X - V @ c)  # refinement
        size = np.maximum(np.linalg.norm(X, axis=(1, 2)), 1e-300)
        rel[lo:lo + rows] = np.linalg.norm(V @ c - X, axis=(1, 2)) / size
        C[lo:lo + rows] = c
    i = int(np.argmax(np.where(rel > RECOVERY_RESIDUAL_CAP, rel, -1.0)))
    if rel[i] > RECOVERY_RESIDUAL_CAP:
        t = None if times is None else float(times[i])
        raise SolverError(
            f"coefficient recovery residual {rel[i]:.3e}"
            + ("" if t is None else f" at t = {t:.6e}")
            + f" exceeds {RECOVERY_RESIDUAL_CAP:g}; V may be ill conditioned",
            residual=float(rel[i]), time=t)
    C.setflags(write=False)
    return C


def solve_dc(model: StochasticDae, tps: TestingPointSet,
             options: SolverOptions = SolverOptions()) -> GpcExpansion:
    """Decoupled stochastic DC on tps's basis: one stacked Newton over the
    K testing points, warm-started from the nominal solution, then V^-1."""
    nominal = newton_dc(model, model.nominal_parameters(), options=options)
    X = newton_dc(model, tps.points, nominal, options=options)
    return recover_coefficients(X, tps)


# ---------------------------------------------------------------------------
# transient integration


class StSolution(_Immutable):
    """Transient result: expansion series on one index set and time grid."""

    times: np.ndarray
    expansions: tuple            # one GpcExpansion per time point
    step_log: tuple              # (t_start, h, accepted, lte_estimate)
    n_point_solves: int
    labels: tuple

    def __init__(self, times, expansions, step_log, n_point_solves, labels):
        times = _frozen(times)
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("time points must be strictly increasing")
        self.__dict__.update(times=times, expansions=expansions,
                             step_log=step_log,
                             n_point_solves=n_point_solves, labels=labels)

    def final(self) -> GpcExpansion:
        return self.expansions[-1]


class _PointIntegrator:
    """The implicit stepper of all parameter points: P (N, d), states X
    (N, n), and the last two accepted states with their clocks' times.

    With `shared`, all rows are on one clock of Python floats (rows is
    slice(None)), and a Newton failure at any row raises SolverError.
    Otherwise row i is on clock i: the methods take `rows`, an index array
    of clocks or slice(None), and per-clock arrays over them, the model
    gets per-row times, and a row that fails is reported in the mask.
    """

    def __init__(self, model, points, X0, options, shared):
        self.model, self.options, self.shared = model, options, shared
        self.P = np.asarray(points, dtype=float)
        self.X = np.array(X0, dtype=float)
        self.past = []   # shared clock: up to two (t, X), older first
        if not shared:   # own clocks: past times and states, older, newer
            self.past_t = (np.zeros(len(self.X)), np.zeros(len(self.X)))
            self.past_X = (np.zeros_like(self.X), np.zeros_like(self.X))

    def _implicit_solve(self, rows, t_new, h, theta, q_old, g_old):
        """Solve (q(X) - q_old)/h + theta*g(X,t_new) + (1-theta)*g_old = 0
        at `rows`, one stacked Newton; returns (X, converged mask).

        Dividing by h keeps the residual on the scale of f itself, so the
        Newton tolerance stays meaningful for small steps.
        """
        model, P = self.model, self.P[rows]
        old = (1.0 - theta) * g_old
        own = not self.shared
        h = h[:, None] if own else h

        def residual(Y, at):
            Pr = P[at]
            g_new = model.f_many(Y, Pr, t_new[at] if own else t_new)
            return ((model.q_many(Y, Pr) - q_old[at]) / (h[at] if own else h)
                    + theta * g_new + old[at])

        def jacobian(Y, at):
            Pr = P[at]
            return (model.jac_q_many(Y, Pr) / (h[at][..., None] if own else h)
                    + theta * model.jac_f_many(Y, Pr,
                                               t_new[at] if own else t_new))

        tol = self.options.dc_tol(model.n)
        X, rnorm, ok = _damped_newton(residual, jacobian, self.X[rows], tol,
                                      _model_lu(model, False))
        if self.shared:
            _check_converged(rnorm, ok, tol)
        return X, ok

    def attempt(self, rows, t, h, steps):
        """Try one step of `rows` from their clocks' times t by steps h,
        after `steps` accepted steps; returns (X_new, lte estimate per
        clock, converged mask per row); no commit."""
        model, P, X = self.model, self.P[rows], self.X[rows]
        q_old = model.q_many(X, P)
        t_new = t + h
        if not (steps if self.shared else steps[0]):
            # backward Euler startup: damps any inconsistent algebraic part.
            # It is every clock's first step and always accepted, so the
            # clocks are all at their first step or all past it
            X_new, ok = self._implicit_solve(rows, t_new, h, 1.0, q_old,
                                             np.zeros_like(X))
            return X_new, 0.0 if self.shared else np.zeros(len(t)), ok
        g_old = model.f_many(X, P, t)
        X_new, ok = self._implicit_solve(rows, t_new, h, 0.5, q_old, g_old)

        # predictor through past states; its mismatch with the corrector
        # estimates the local truncation error
        if self.shared:
            past = self.past + [(t, X)]
            X_pred = _extrapolate(past, t_new)
            c_pred = abs(math.prod(t_new - tp for tp, _ in past)) / 6.0
            c_corr = h ** 3 / 12.0    # libm pow; overflows as OverflowError
            c_pred = max(c_pred, h ** 2) if steps < 2 else c_pred
            err = np.abs(X_new - X_pred).max()
            return X_new, err * c_corr / (c_pred + c_corr), ok
        # per clock, the same arithmetic: float_power is libm pow, as float
        # ** is, where np.power rounds differently
        c_corr = np.float_power(h, 3) / 12.0
        if math.isinf(c_corr.max()):
            raise OverflowError("h ** 3 overflows")
        deep = steps >= 2   # two past states: a quadratic predictor
        n_deep = np.count_nonzero(deep)
        if n_deep == len(deep):
            groups = ((2, _ALL),)
        elif not n_deep:
            groups = ((1, _ALL),)
        else:
            groups = ((1, ~deep), (2, deep))
        X_pred, c_pred = np.empty_like(X_new), np.empty(len(t))
        for k, sel in groups:
            at = rows if sel is _ALL else _subset(rows, sel)
            tn = t_new[sel][:, None]
            past = [(self.past_t[j][at][:, None], self.past_X[j][at])
                    for j in range(2 - k, 2)] + [(t[sel][:, None], X[sel])]
            X_pred[sel] = _extrapolate(past, tn)
            c_pred[sel] = abs(math.prod(tn - tp for tp, _ in past))[:, 0] / 6.0
        if n_deep < len(deep):
            c_pred = np.where(deep, c_pred,
                              np.maximum(c_pred, np.float_power(h, 2)))
        err = np.abs(X_new - X_pred).reshape(len(t), -1).max(axis=1)
        return X_new, err * c_corr / (c_pred + c_corr), ok

    def commit(self, rows, t, X_new):
        """Accept the steps of `rows` from their clocks' times t to X_new."""
        if self.shared:
            self.past, self.X = self.past[-1:] + [(t, self.X)], X_new
            return
        (older_t, newer_t), (older_X, newer_X) = self.past_t, self.past_X
        older_t[rows] = newer_t[rows]
        newer_t[rows] = t
        older_X[rows] = newer_X[rows]
        newer_X[rows] = self.X[rows]
        self.X[rows] = X_new


def _extrapolate(past: list, t_new):
    """Newton divided-difference polynomial through past (t, x) pairs;
    the times may be (N, 1) columns of per-row times for x (N, n)."""
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


def _subset(live, mask):
    """The clocks of `live` (an index array, or slice(None)) in mask."""
    return np.flatnonzero(mask) if live is _ALL else live[mask]


def _attempt(stepper, rows, t, h, steps, span):
    """stepper.attempt; an overflowing h ** 3 names step, time and span."""
    try:
        return stepper.attempt(rows, t, h, steps)
    except OverflowError as exc:
        i = int(np.argmax(h))
        raise OverflowError(
            f"step h = {np.ravel(h)[i]:.3e} at t = {np.ravel(t)[i]:.6e} "
            f"overflows double precision over the span {span:.3e}") from exc


class _RowSteps(_Immutable):
    """Step log of rows on their own clocks, as counts: accepted and
    rejected step attempts per row, (N,) each.  Iterating gives one
    (t, h, accepted, lte) entry per row attempt with only the accepted
    flag kept (t, h and lte are None), so a reader that counts entries
    reads the totals of one-row runs, in memory that does not grow with
    the number of steps."""

    accepted: np.ndarray
    rejected: np.ndarray

    def __init__(self, accepted, rejected):
        self.__dict__.update(accepted=accepted, rejected=rejected)

    def __len__(self):
        return int(self.accepted.sum() + self.rejected.sum())

    def __iter__(self):
        yield from itertools.repeat((None, None, True, None),
                                    int(self.accepted.sum()))
        yield from itertools.repeat((None, None, False, None),
                                    int(self.rejected.sum()))


def _integrate_points(model, points, X0, t_span, options, own_clocks=False):
    """Integrates the parameter points as one stacked stepper.

    A clock keeps its time, next step, accepts since the last doubling and
    accepted step count.  By default all rows share one clock of Python
    floats: a step's error estimate is the largest over the rows, a Newton
    failure or step underflow raises SolverError, and the result is (times
    (T,), states per time (list of (N, n)), step log of one (t, h,
    accepted, lte) per attempt, solves).  With own_clocks, each row has a
    clock, kept in arrays, and takes the steps of a one-row run, as Monte
    Carlo samples do; a row whose Newton fails or step underflows stops
    with NaN states.  The result is (end time per row (N,), [final states
    (N, n)], step counts (_RowSteps), solves).  solves counts row attempts.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise ValueError(f"t_span ({t0:g}, {t1:g}) must be finite, t1 > t0")
    span = t1 - t0
    fixed = options.fixed_step
    if fixed is not None and not fixed >= span * MIN_STEP_FRACTION:
        raise ValueError(f"fixed_step {fixed:g} is below the step floor "
                         f"{span * MIN_STEP_FRACTION:g} "
                         f"({MIN_STEP_FRACTION:g} of the span)")
    stepper = _PointIntegrator(model, points, X0, options, not own_clocks)
    h = fixed if fixed is not None else span * min(MAX_STEP_FRACTION, 1e-3)
    return (_own_clocks if own_clocks else _shared_clock)(
        stepper, t0, t1, h, options)


def _shared_clock(stepper, t0, t1, h, options):
    span, fixed = t1 - t0, options.fixed_step
    times, states, log = [t0], [stepper.X], []
    t, steps, streak = t0, 0, 0
    while t < t1 - 1e-14 * span:
        if fixed is None and h < span * MIN_STEP_FRACTION:
            raise SolverError(
                f"step size underflow at t = {t:.6e} (h = {h:.3e})", time=t)
        h_step = min(h, t1 - t)  # clip only at the end of the span
        X_new, lte, _ = _attempt(stepper, _ALL, t, h_step, steps, span)
        accept = (fixed is not None   # else the error per unit time decides
                  or not lte > options.lte_tol * h_step / span)
        log.append((t, h_step, accept, float(lte)))
        if not accept:
            h, streak = 0.5 * h_step, 0
            continue
        stepper.commit(_ALL, t, X_new)
        steps += 1
        # fixed steps place t at t0 + k*h: accumulating t += h drifts and
        # can leave a last step of ~1e-13 h on which Newton stalls
        t = t + h_step if fixed is None else min(t0 + steps * fixed, t1)
        times.append(t)
        states.append(X_new)
        if fixed is None:
            streak += 1
            if streak >= ACCEPTS_BEFORE_DOUBLE:
                h, streak = min(2.0 * h, span * MAX_STEP_FRACTION), 0
    return np.array(times), states, tuple(log), len(stepper.X) * len(log)


def _own_clocks(stepper, t0, t1, h0, options):
    span, fixed = t1 - t0, options.fixed_step
    N = len(stepper.X)
    t, h = np.full(N, t0), np.full(N, h0)
    # accepts since the last doubling, accepted and rejected steps
    streak, steps, rejected = (np.zeros(N, dtype=int) for _ in range(3))
    live = _ALL          # the clocks still stepping
    solves = 0
    while True:
        if fixed is None:
            small = h[live] < span * MIN_STEP_FRACTION
            if np.count_nonzero(small):
                stepper.X[_subset(live, small)] = np.nan
                live = _subset(live, ~small)
                if not live.size:
                    break
        t_live = t[live]
        h_step = np.minimum(h[live], t1 - t_live)  # clip only at the end
        X_new, lte, ok = _attempt(stepper, live, t_live, h_step, steps[live],
                                  span)
        solves += len(X_new)
        reject = (lte > options.lte_tol * h_step / span   # per unit time
                  if fixed is None else np.zeros(len(lte), dtype=bool))
        if np.count_nonzero(ok) < len(ok):
            stepper.X[_subset(live, ~ok)] = np.nan   # these rows stop
            live = _subset(live, ok)
            t_live, h_step = t_live[ok], h_step[ok]
            X_new, reject = X_new[ok], reject[ok]
            if not live.size:
                break
        accept, acc = ~reject, live
        if np.count_nonzero(reject):
            back = _subset(live, reject)
            h[back] = 0.5 * h_step[reject]
            streak[back] = 0
            rejected[back] += 1
            if not np.count_nonzero(accept):
                continue
            acc = _subset(live, accept)
            t_live, h_step = t_live[accept], h_step[accept]
            X_new = X_new[accept]
        stepper.commit(acc, t_live, X_new)
        steps[acc] += 1
        t[acc] = (t_live + h_step if fixed is None
                  else np.minimum(t0 + steps[acc] * fixed, t1))
        if fixed is None:
            streak[acc] += 1
            grow = streak >= ACCEPTS_BEFORE_DOUBLE
            if np.count_nonzero(grow):
                h[grow] = np.minimum(2.0 * h[grow], span * MAX_STEP_FRACTION)
                streak[grow] = 0
        running = t[live] < t1 - 1e-14 * span
        if np.count_nonzero(running) < len(running):
            live = _subset(live, running)
            if not live.size:
                break
    return t, [stepper.X], _RowSteps(steps, rejected), solves


def integrate_transient(model: StochasticDae, tps: TestingPointSet,
                        t_span, x0: GpcExpansion | None = None,
                        options: SolverOptions = SolverOptions()
                        ) -> StSolution:
    """Integrate the stochastic DAE on tps's basis, one shared step sequence
    for all points, from x0 (default: solve_dc's) evaluated at the testing
    points, so x0 may have any order; every stored state is recovered in
    one stacked solve."""
    if x0 is None:
        x0 = solve_dc(model, tps, options)
    times, states, log, solves = _integrate_points(
        model, tps.points, x0.eval_many(tps.points), t_span, options)
    expansions = tuple(GpcExpansion(tps.index_set, c, tps.bases)
                       for c in _recover(states, tps, times))
    return StSolution(times=times, expansions=expansions, step_log=log,
                      n_point_solves=solves, labels=model.labels)


def integrate_deterministic(model: StochasticDae, xi: np.ndarray,
                            t_span, x0: np.ndarray,
                            options: SolverOptions = SolverOptions()):
    """Single-sample transient; returns (times, states (T, n), solves)."""
    times, states, _, solves = _integrate_points(
        model, [np.asarray(xi, dtype=float)], [np.asarray(x0, dtype=float)],
        t_span, options)
    return times, np.array([s[0] for s in states]), solves
