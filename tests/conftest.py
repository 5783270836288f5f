"""Shared helpers for the test suite.

dc_newton, solve_dc_monolithic and select_testing_points_full_grid are
deliberately independent oracles; the package's own solvers must agree
with them, so they must not import from uqsim.stsolver.
"""

import numpy as np

from uqsim.polychaos import (GpcExpansion, QuadratureRule, _basis_matrix,
                             golub_welsch)


def tensor_quadrature(rules):
    """Tensor product of univariate rules, the whole (N, d) grid of nodes,
    first axis slowest; the library builds only the 1-D rules and the
    weights, and reads nodes by flat index."""
    grids = np.meshgrid(*[r.points for r in rules], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = np.ones(1)
    for r in rules:
        weights = np.multiply.outer(weights, r.weights).reshape(-1)
    degs = [r.exact_degree for r in rules]
    exact = None if None in degs else min(degs)
    return QuadratureRule(pts, weights, exact_degree=exact)


def damped_newton(residual, jacobian, x0, tol=1e-12, max_iter=80):
    """Solve residual(x) = 0 by damped Newton; raises on stagnation."""
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        r = residual(x)
        step = np.linalg.solve(jacobian(x), -r)
        lam = 1.0
        rnorm = np.linalg.norm(r)
        while lam > 1e-4:
            rn = np.linalg.norm(residual(x + lam * step))
            if rn <= (1.0 - 0.25 * lam) * rnorm + 1e-300:
                break
            lam *= 0.5
        x = x + lam * step
        if np.linalg.norm(lam * step) <= tol * (1.0 + np.linalg.norm(x)):
            return x
    raise RuntimeError("oracle Newton did not converge")


def dc_newton(dae, xi, x0=None, t=0.0, tol=1e-12, max_iter=80):
    """Solve f(x, xi, t) = 0 by damped Newton; raises on stagnation."""
    return damped_newton(lambda x: dae.f(x, xi, t),
                         lambda x: dae.jac_f(x, xi, t),
                         dae.initial_guess() if x0 is None else x0,
                         tol, max_iter)


def solve_dc_monolithic(dae, tps):
    """Stochastic DC as one coupled Newton on all nK unknowns.

    The unknown is the stacked coefficient matrix C (K, n); the residual
    stacks the model equations at every testing point evaluated at
    x_j = V[j] C.  The library decouples this system into K point solves
    and one V^-1; both routes must give the same coefficients.
    """
    K, n = tps.n_points, dae.n
    V = tps.V

    def states(z):
        return V @ z.reshape(K, n)

    def residual(z):
        X = states(z)
        return np.concatenate([dae.f(X[j], tps.points[j], 0.0)
                               for j in range(K)])

    def jacobian(z):
        # block (j, k) is V[j, k] * df/dx at testing point j
        X = states(z)
        return np.vstack([np.kron(V[j][None, :],
                                  dae.jac_f(X[j], tps.points[j], 0.0))
                          for j in range(K)])

    nominal = dc_newton(dae, dae.nominal_parameters())
    C0 = np.linalg.solve(V, np.tile(nominal, (K, 1)))
    C = damped_newton(residual, jacobian, C0.ravel()).reshape(K, n)
    return GpcExpansion(tps.index_set, C, tps.bases)


def select_testing_points_full_grid(bases, idx, condition_cap=1e8):
    """The greedy testing-point selection over a basis matrix built on the
    whole tensor-Gauss grid up front; returns (points, V, condition).

    The library evaluates basis rows only as the greedy reaches them; its
    selection must equal this one bit for bit.  A cap no K points meet
    raises RuntimeError with the library's message.
    """
    K, d = len(idx), idx.dimension
    rules = [golub_welsch(b, idx.total_order + 1) for b in bases]
    grid = tensor_quadrature(rules)
    pts = grid.points
    keys = tuple(pts[:, k] for k in reversed(range(d))) + (-grid.weights,)
    Phi = _basis_matrix(idx, tuple(bases), pts)  # (N, K)

    chosen = []
    ortho = np.zeros((0, K))
    V_rows = np.zeros((0, K))
    for cand in np.lexsort(keys):
        if len(chosen) == K:
            break
        row = Phi[cand]
        resid = row - ortho.T @ (ortho @ row)
        if np.linalg.norm(resid) <= 1e-12 * max(1.0, np.linalg.norm(row)):
            continue
        trial = np.vstack([V_rows, row])
        s = np.linalg.svd(trial, compute_uv=False)
        if s[0] / s[-1] > condition_cap:
            continue
        V_rows = trial
        chosen.append(int(cand))
        ortho = np.vstack([ortho, resid / np.linalg.norm(resid)])
    if len(chosen) < K:
        raise RuntimeError(
            f"only {len(chosen)} of {K} testing points satisfy the rank and "
            f"condition-{condition_cap:g} screens")
    s = np.linalg.svd(V_rows, compute_uv=False)
    return pts[chosen], V_rows, float(s[0] / s[-1])
