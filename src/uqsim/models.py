"""Model containers: stochastic DAEs, second-order mechanical form, builtins.

A stochastic DAE is

    d q(x, xi) / dt + f(x, xi, t) = 0,

with state x in R^n and d independent random inputs xi.  Every drive lives
in f: circuits assembled by modified nodal analysis put charges and fluxes
in q and resistive currents minus source values in f, and second-order
models carry their force inside f.  Second-order mechanical models are

    M(z, xi) z'' + D(z, xi) z' + force(z, xi, t) = 0,

which second_order_model rewrites in first-order form.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polychaos import Distribution, _Immutable

__all__ = [
    "StochasticDae",
    "UnknownModelError",
    "second_order_model",
    "algebraic_model",
    "builtin_model",
    "shockley_current",
    "mosfet_current",
    "BUILTIN_MODELS",
]

FD_STEP = 1e-7  # central-difference step scale for fallback Jacobians


class UnknownModelError(KeyError):
    """A registry has no model of the given name."""

    def __str__(self):
        # KeyError quotes its payload; the message reads better bare
        return str(self.args[0])


def _fd_jacobian(fn: Callable[[np.ndarray], np.ndarray],
                 x: np.ndarray) -> np.ndarray:
    """Central differences of fn at x (n,), or at every row of a stack x
    (N, n) that fn maps in one call; column i steps x_i by
    max(FD_STEP, FD_STEP |x_i|), so each row of a stack gets the bits a
    call at that row alone gives it.  A scalar fn gives J of shape (1, n).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        h = np.maximum(FD_STEP, FD_STEP * np.abs(x[..., i]))
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm)))
                    / (2.0 * h)[..., None])
    return np.stack(cols, axis=-1)


def _rows(fn: Callable, X: np.ndarray, P: np.ndarray, shape: tuple,
          *t) -> np.ndarray:
    """fn(x, xi[, t]) at each row of X (N, n) and P (N, d), stacked into
    `shape`.  A float t goes to every row; an (N,) array of times gives
    each row its own, as a float.  A single row is one direct call."""
    if t and isinstance(t[0], np.ndarray):
        out = [fn(x, xi, ti) for x, xi, ti in zip(X, P, t[0].tolist())]
    elif len(X) == 1:
        return np.asarray(fn(X[0], P[0], *t), dtype=float).reshape(shape)
    else:
        out = [fn(x, xi, *t) for x, xi in zip(X, P)]
    return np.array(out, dtype=float).reshape(shape)


# a dataclass only for dataclasses.replace: it generates no method
@dataclass(init=False, repr=False, eq=False)
class StochasticDae(_Immutable):
    """Differential-algebraic model with random parameters.

    q(x, xi) -> n-vector of charges/fluxes; f(x, xi, t) -> n-vector of
    resistive terms minus drives, so that d q/dt + f = 0.  Jacobians are
    optional; central finite differences with step max(1e-7, 1e-7|x_i|)
    stand in when they are missing.  The states are the outputs;
    unlabeled, they are "x0".."x{n-1}".

    A batched model's q, f, dq_dx and df_dx also accept stacks: x of shape
    (..., n) and xi of shape (..., d) with matching leading axes give
    (..., n) vectors and (..., n, n) Jacobians.  q_many, f_many, jac_q_many
    and jac_f_many evaluate N rows, x (N, n) and xi (N, d), in one call when
    the model is batched and row by row otherwise; a batched model without
    a Jacobian gets the finite differences above over the whole stack,
    with each row's bits.

    Stacked rows share one time t, a float, except in a Monte Carlo
    transient, where each sample steps on its own clock: there f_many and
    jac_f_many take an (N,) array of per-row times.  A row-by-row model
    still sees each row's time as a float; a batched model's f and df_dx
    get the array, so a batched f that reads t must broadcast it over the
    stack.  Per-row times reach the model through f and df_dx only.

    dq_pattern and df_pattern are the structural (n, n) patterns of dq_dx
    and df_dx: True where an entry may be nonzero, dense when not given.
    Long Newton stacks are solved by an LU planned once per pattern: DC
    stacks from df_pattern, implicit steps from the union of both.  An
    entry outside the pattern is read as zero there, which can only slow
    Newton or stop it, since convergence is judged on f.
    """

    n: int
    d: int
    distributions: tuple
    q: Callable
    f: Callable
    dq_dx: Callable | None
    df_dx: Callable | None
    x0_guess: np.ndarray | None
    labels: tuple[str, ...] | None
    batched: bool
    dq_pattern: np.ndarray | None
    df_pattern: np.ndarray | None

    def __init__(self, n, d, distributions, q, f, dq_dx=None, df_dx=None,
                 x0_guess=None, labels=None, batched=False, dq_pattern=None,
                 df_pattern=None):
        self.__dict__.update(
            n=n, d=d, distributions=distributions, q=q, f=f, dq_dx=dq_dx,
            df_dx=df_dx, x0_guess=x0_guess, labels=labels, batched=batched,
            dq_pattern=dq_pattern, df_pattern=df_pattern)
        self.__post_init__()

    def __post_init__(self):
        for name in ("dq_pattern", "df_pattern"):
            pattern = np.ones((self.n, self.n), dtype=bool)
            if getattr(self, name) is not None:
                pattern = np.array(getattr(self, name), dtype=bool)
                if pattern.shape != (self.n, self.n):
                    raise ValueError(f"{name} must be {self.n}x{self.n}, "
                                     f"got {pattern.shape}")
            pattern.setflags(write=False)
            object.__setattr__(self, name, pattern)
        object.__setattr__(self, "distributions", tuple(self.distributions))
        if len(self.distributions) != self.d:
            raise ValueError("need one distribution entry per random input")
        if self.labels is None:
            object.__setattr__(self, "labels",
                               tuple(f"x{j}" for j in range(self.n)))

    def output_index(self, output: int | str) -> int:
        """Position of an output given by index or by label."""
        if isinstance(output, bool):
            raise ValueError(f"output must be an index or a label, got "
                             f"{output!r}")
        if isinstance(output, int):
            if not 0 <= output < self.n:
                raise ValueError(f"output index {output} out of range for a "
                                 f"model with {self.n} outputs")
            return output
        if output in self.labels:
            return self.labels.index(output)
        raise ValueError(f"model has no output labeled {output!r}")

    def jac_q(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if self.dq_dx is not None:
            return np.asarray(self.dq_dx(x, xi), dtype=float)
        return _fd_jacobian(lambda y: self.q(y, xi), x)

    def jac_f(self, x: np.ndarray, xi: np.ndarray, t: float) -> np.ndarray:
        if self.df_dx is not None:
            return np.asarray(self.df_dx(x, xi, t), dtype=float)
        return _fd_jacobian(lambda y: self.f(y, xi, t), x)

    def q_many(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """q at N rows: X (N, n), P (N, d) -> (N, n)."""
        if self.batched:
            return self.q(X, P)
        return _rows(self.q, X, P, X.shape)

    def f_many(self, X: np.ndarray, P: np.ndarray, t) -> np.ndarray:
        """f at N rows: X (N, n), P (N, d) -> (N, n); t is a float, or an
        (N,) array of per-row times."""
        if self.batched:
            return self.f(X, P, t)
        return _rows(self.f, X, P, X.shape, t)

    def jac_q_many(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """dq/dx at N rows: X (N, n), P (N, d) -> (N, n, n)."""
        if not self.batched:
            return _rows(self.jac_q, X, P, X.shape + (self.n,))
        if self.dq_dx is not None:
            return np.asarray(self.dq_dx(X, P), dtype=float)
        return _fd_jacobian(lambda Y: self.q(Y, P), X)

    def jac_f_many(self, X: np.ndarray, P: np.ndarray, t) -> np.ndarray:
        """df/dx at N rows: X (N, n), P (N, d) -> (N, n, n); t as in
        f_many."""
        if not self.batched:
            return _rows(self.jac_f, X, P, X.shape + (self.n,), t)
        if self.df_dx is not None:
            return np.asarray(self.df_dx(X, P, t), dtype=float)
        return _fd_jacobian(lambda Y: self.f(Y, P, t), X)

    def nominal_parameters(self) -> np.ndarray:
        """Mean of each input; the deterministic reference point."""
        out = np.empty(self.d)
        for k, dist in enumerate(self.distributions):
            out[k] = dist.mean()
        return out

    def initial_guess(self) -> np.ndarray:
        if self.x0_guess is not None:
            return np.array(self.x0_guess, dtype=float)
        return np.zeros(self.n)


def second_order_model(mass: Callable, damping: Callable, force: Callable,
                       distributions: Sequence, z0, v0, labels=None,
                       batched: bool = False) -> StochasticDae:
    """M(z, xi) z'' + D(z, xi) z' + force(z, xi, t) = 0 as a first-order
    DAE on the stacked state x = (z, z'), starting from (z0, v0).

    q is the identity, so the residual dx/dt + f(x, xi, t) = 0 reproduces the
    second-order balance exactly: the z-rows give z' = v and the v-rows give
    M v' + D v + force = 0 after multiplying through by M.  force carries
    any drive and gets f's time.  A batched model's mass, damping and force
    also accept stacks, z (N, n) and xi (N, d), giving (N, n, n) or (n, n)
    matrices and (N, n) forces, with t a float or an (N,) array of per-row
    times; the DAE is then batched too.  ValueError if the mass is singular
    at z0 and the nominal parameters.
    """
    z0 = np.asarray(z0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = len(z0)

    def q(x, xi):
        return np.array(x, dtype=float)

    def dq_dx(x, xi):
        return np.broadcast_to(np.eye(2 * n), np.shape(x) + (2 * n,))

    def f(x, xi, t):
        z, v = x[..., :n], x[..., n:]
        M = np.asarray(mass(z, xi), dtype=float)
        D = np.asarray(damping(z, xi), dtype=float)
        accel_rhs = ((D @ v[..., None])[..., 0]
                     + np.asarray(force(z, xi, t), dtype=float))
        accel = np.linalg.solve(M, accel_rhs[..., None])[..., 0]
        return np.concatenate([-v, accel], axis=-1)

    if labels is not None:
        labels = tuple(labels) + tuple(f"d{l}/dt" for l in labels)
    dae = StochasticDae(
        n=2 * n, d=len(distributions), distributions=distributions,
        q=q, f=f, dq_dx=dq_dx, df_dx=None,
        x0_guess=np.concatenate([z0, v0]), labels=labels, batched=batched)
    m0 = np.asarray(mass(z0, dae.nominal_parameters()), dtype=float)
    if m0.shape != (n, n):
        raise ValueError(f"mass matrix must be {n}x{n}, got {m0.shape}")
    sv = np.linalg.svd(m0, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise ValueError(
            "mass matrix is singular at the initial state; the model cannot "
            "be rewritten in first-order form")
    return dae


def algebraic_model(fn: Callable, distributions: Sequence,
                    n_outputs: int, labels=None) -> StochasticDae:
    """Wrap a parameter-to-output map as a purely algebraic DAE x = fn(xi)."""
    def f(x, xi, t):
        return x - np.asarray(fn(xi), dtype=float).reshape(n_outputs)

    def df_dx(x, xi, t):
        return np.eye(n_outputs)

    return StochasticDae(
        n=n_outputs, d=len(distributions), distributions=tuple(distributions),
        q=lambda x, xi: np.zeros(n_outputs),
        f=f, dq_dx=lambda x, xi: np.zeros((n_outputs, n_outputs)),
        df_dx=df_dx, labels=tuple(labels) if labels else None)


# ---------------------------------------------------------------------------
# device equations shared with the netlist stamps


def _scalars(*arrays):
    """Python floats when the results are scalars, else the arrays."""
    if arrays[0].ndim == 0:
        return tuple(float(a) for a in arrays)
    return arrays


def shockley_current(v, i_s, n_vt):
    """Diode current and small-signal conductance, elementwise.

    Exponential up to 40 thermal voltages, then a C1 linear continuation so
    Newton iterates cannot overflow.  Inputs broadcast; scalar inputs give
    a tuple of floats.
    """
    v = np.asarray(v, dtype=float)
    e = np.exp(np.minimum(v / n_vt, 40.0))
    g = i_s * e / n_vt
    i = i_s * (e - 1.0) + g * np.maximum(v - 40.0 * n_vt, 0.0)
    return _scalars(i, g)


def mosfet_current(vgs, vds, kp, vth, lam):
    """Symmetric square-law drain current and (gm, gds), elementwise.

    Cutoff below vth, quadratic triode/saturation above, channel-length
    modulation lam; drain and source roles swap for vds < 0.  Inputs
    broadcast; scalar inputs give a tuple of floats.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    # a reversed device (vds < 0) is evaluated at (vgd, -vds), then mapped
    # back: i -> -i, gm -> -gm, gds -> gm + gds by the chain rule
    rev = vds < 0.0
    vds_e = np.abs(vds)
    vov = (vgs - np.minimum(vds, 0.0)) - vth
    vsat = np.minimum(vds_e, vov)      # vov in saturation, vds in triode
    on = vov > 0.0
    cl = (1.0 + lam * vds_e) * on      # zero in cutoff
    i0 = kp * (vov * vsat - 0.5 * vsat * vsat)
    i = i0 * cl
    gm = kp * vsat * cl
    gds = kp * (vov - vsat) * cl + i0 * lam * on
    sgn = 1.0 - 2.0 * rev
    return _scalars(sgn * i, sgn * gm, gds + gm * rev)


# ---------------------------------------------------------------------------
# builtin benchmark models


def _rc_lowpass(r: float = 1e3, c: float = 1e-6, vin: float = 1.0,
                rel: float = 0.1) -> StochasticDae:
    from . import netlist

    text = (f"V1 1 0 {vin!r}\n"
            f"R1 1 2 {r!r} variation=relative:uniform({1 - rel!r},{1 + rel!r})\n"
            f"C1 2 0 {c!r}\n")
    return netlist.elaborate(netlist.parse_netlist(text, "rc_lowpass"))


def _diode_rectifier(vin: float = 1.0, r: float = 1e3, i_s: float = 1e-9,
                     n_vt: float = 0.02585, sigma_is: float = 0.2,
                     rel_r: float = 0.1) -> StochasticDae:
    """Driven diode with a resistive load; x = (v_in, v_out, i_src).

    Random inputs: xi_0 ~ N(0,1) scales the saturation current as
    i_s * exp(sigma_is * xi_0); xi_1 ~ U(1-rel_r, 1+rel_r) multiplies the
    load resistance.
    """
    dists = (Distribution.gaussian(0.0, 1.0),
             Distribution.uniform(1.0 - rel_r, 1.0 + rel_r))

    def resolve(xi):
        xi = np.asarray(xi, dtype=float)
        return i_s * np.exp(sigma_is * xi[..., 0]), r * xi[..., 1]

    def f(x, xi, t):
        x = np.asarray(x, dtype=float)
        isat, rload = resolve(xi)
        i_d, _ = shockley_current(x[..., 0] - x[..., 1], isat, n_vt)
        return np.stack(np.broadcast_arrays(
            i_d + x[..., 2], -i_d + x[..., 1] / rload, x[..., 0] - vin),
            axis=-1)

    def df_dx(x, xi, t):
        x = np.asarray(x, dtype=float)
        isat, rload = resolve(xi)
        _, g = shockley_current(x[..., 0] - x[..., 1], isat, n_vt)
        g, rload = np.broadcast_arrays(g, rload)
        J = np.zeros(g.shape + (3, 3))
        J[..., 0, 0] = g
        J[..., 0, 1] = -g
        J[..., 1, 0] = -g
        J[..., 1, 1] = g + 1.0 / rload
        J[..., 0, 2] = 1.0
        J[..., 2, 0] = 1.0
        return J

    n = 3
    return StochasticDae(
        n=n, d=2, distributions=dists,
        q=lambda x, xi: np.zeros(np.shape(x)),
        f=f, dq_dx=lambda x, xi: np.zeros(np.shape(x) + (n,)), df_dx=df_dx,
        x0_guess=np.array([vin, 0.4, -1e-4]),
        batched=True,
        labels=("v(1)", "v(2)", "i(V1)"),
        dq_pattern=np.zeros((n, n)),
        df_pattern=[[1, 1, 1], [1, 1, 0], [1, 0, 0]])


def _plate_actuator(voltage: float = 1.0, damping: float = 0.6,
                    force_const: float = 0.02, k_sigma: float = 0.05,
                    gap_sigma: float = 0.05) -> StochasticDae:
    """Normalized parallel-plate electrostatic actuator, one mechanical DOF.

    z'' + b z' + k(xi_0) z = c V^2 / (gap(xi_1) - z)^2 with unit nominal
    mass, stiffness and gap; spring constant and gap carry Gaussian
    variations, and V is the (constant) applied voltage.  Written directly
    in the first-order form second_order_model gives it, x = (z, z'),
    with an analytic, batched Jacobian.
    """
    dists = (Distribution.gaussian(0.0, 1.0), Distribution.gaussian(0.0, 1.0))
    drive = force_const * voltage * voltage

    def spring_gap(x, xi):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        return (x[..., 0], x[..., 1], 1.0 + k_sigma * xi[..., 0],
                1.0 + gap_sigma * xi[..., 1])

    def f(x, xi, t):
        z, v, k, gap = spring_gap(x, xi)
        # float_power squares with libm pow, as a numpy scalar's ** 2 does;
        # an array's ** 2 is x*x, which rounds differently
        pull = drive / np.float_power(gap - z, 2)
        return np.stack(np.broadcast_arrays(-v, damping * v + (k * z - pull)),
                        axis=-1)

    def df_dx(x, xi, t):
        z, _, k, gap = spring_gap(x, xi)
        stiffness = k - 2.0 * drive / np.float_power(gap - z, 3)
        J = np.zeros(np.shape(stiffness) + (2, 2))
        J[..., 0, 1] = -1.0
        J[..., 1, 0] = stiffness
        J[..., 1, 1] = damping
        return J

    return StochasticDae(
        n=2, d=2, distributions=dists,
        q=lambda x, xi: np.array(x, dtype=float), f=f,
        dq_dx=lambda x, xi: np.broadcast_to(np.eye(2), np.shape(x) + (2,)),
        df_dx=df_dx, x0_guess=np.zeros(2), labels=("z", "dz/dt"),
        batched=True, dq_pattern=np.eye(2), df_pattern=[[0, 1], [1, 1]])


_OPAMP_LIKE_NETLIST = """\
* three-stage square-law amplifier, nine varied parameters
VDD vdd 0 5
VIN in 0 1.1
M1 d1 in 0 kp=2m vth=0.7 lam=0.05 variation.vth=gauss(0.7,0.02) variation.kp=relative:uniform(0.9,1.1)
R1 vdd d1 3k variation=relative:uniform(0.95,1.05)
M2 d2 d1 s2 kp=2m vth=0.7 lam=0.05 variation.vth=gauss(0.7,0.02) variation.kp=relative:uniform(0.9,1.1)
RS s2 0 2k
R2 vdd d2 1k variation=relative:uniform(0.95,1.05)
M3 vdd d2 out kp=2m vth=0.7 lam=0.05 variation.vth=gauss(0.7,0.02) variation.kp=relative:uniform(0.9,1.1)
R3 out 0 1.8k variation=relative:uniform(0.95,1.05)
"""


def _opamp_like() -> StochasticDae:
    from . import netlist

    return netlist.elaborate(netlist.parse_netlist(_OPAMP_LIKE_NETLIST,
                                                   "opamp_like"))


BUILTIN_MODELS = {
    "rc_lowpass": _rc_lowpass,
    "diode_rectifier": _diode_rectifier,
    "plate_actuator": _plate_actuator,
    "opamp_like": _opamp_like,
}


def builtin_model(name: str, **params) -> StochasticDae:
    """Builtin model `name`, also spelled `builtin:name`, with hyphens or
    underscores; `params` override its factory's defaults."""
    return _resolve(BUILTIN_MODELS, "builtin model", name, params)(**params)


def _resolve(registry: dict, what: str, name: str,
             params: dict) -> Callable:
    """The factory of `registry` that `name` names, also spelled
    `builtin:name`, with hyphens or underscores.  UnknownModelError if
    there is none; ValueError unless every key of `params` names a
    parameter of it that has a default, and every value is a number."""
    factory = registry.get(name.removeprefix("builtin:").replace("-", "_"))
    if factory is None:
        raise UnknownModelError(f"no {what} named '{name}'; available: "
                                f"{', '.join(sorted(registry))}")
    what = f"{what} '{name}'"
    names = [n for n, p in inspect.signature(factory).parameters.items()
             if p.default is not p.empty]
    for key, value in params.items():
        if key not in names:
            raise ValueError(
                f"{what} has no parameter {key!r}; it takes "
                f"{', '.join(names) or 'none'}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"parameter {key} of {what} must be a number, "
                             f"got {value!r}")
    return factory
