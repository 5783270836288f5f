"""Shared helpers for the test suite.

dc_newton and solve_dc_monolithic are deliberately independent oracles;
the package's own solvers must agree with them, so they must not import
from uqsim.stsolver.
"""

import numpy as np

from uqsim.polychaos import GpcExpansion


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
    """Solve f(x, xi, t) = B u(t) by damped Newton; raises on stagnation."""
    rhs = dae.B @ dae.u(t)
    return damped_newton(lambda x: dae.f(x, xi, t) - rhs,
                         lambda x: dae.jac_f(x, xi, t),
                         dae.initial_guess() if x0 is None else x0,
                         tol, max_iter)


def solve_dc_monolithic(dae, tps, bases, idx):
    """Stochastic DC as one coupled Newton on all nK unknowns.

    The unknown is the stacked coefficient matrix C (K, n); the residual
    stacks the model equations at every testing point evaluated at
    x_j = V[j] C.  The library decouples this system into K point solves
    and one V^-1; both routes must give the same coefficients.
    """
    K, n = tps.n_points, dae.n
    V = tps.V
    rhs = dae.B @ dae.u(0.0)

    def states(z):
        return V @ z.reshape(K, n)

    def residual(z):
        X = states(z)
        return np.concatenate([dae.f(X[j], tps.points[j], 0.0) - rhs
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
    return GpcExpansion(idx, C, tuple(bases))
