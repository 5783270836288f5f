"""Model containers: conversion fidelity, Jacobian fallbacks, builtins."""

import numpy as np
import pytest

from conftest import dc_newton
from uqsim import models
from uqsim.models import (SecondOrderModel, SingularMassError,
                          UnknownModelError, algebraic_model, builtin_model,
                          mosfet_current, second_order_to_first,
                          shockley_current)
from uqsim.polychaos import Distribution


def rk4_integrate(dae, xi, x0, t_end, steps):
    """Independent explicit integrator for q = identity models."""
    x = np.array(x0, dtype=float)
    t = 0.0
    h = t_end / steps

    def rhs(y, tt):
        return dae.B @ dae.u(tt) - dae.f(y, xi, tt)

    for _ in range(steps):
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def undamped_oscillator():
    return SecondOrderModel(
        n=1,
        mass=lambda z, xi: np.array([[1.0]]),
        damping=lambda z, xi: np.array([[0.0]]),
        force=lambda z, u, xi: np.array([z[0]]),
        distributions=(),
        u=lambda t: np.zeros(0),
        z0=np.array([1.0]), v0=np.array([0.0]),
        labels=("z",))


class TestSecondOrderConversion:
    def test_oscillator_reaches_cosine(self):
        dae = second_order_to_first(undamped_oscillator())
        x = rk4_integrate(dae, np.zeros(0), dae.initial_guess(), 1.0, 2000)
        assert abs(x[0] - np.cos(1.0)) < 1e-4

    def test_critically_damped_decay(self):
        # z'' + 2 z' + z = 0 with z(0)=1, z'(0)=-1 decays as exp(-t)
        model = SecondOrderModel(
            n=1,
            mass=lambda z, xi: np.array([[1.0]]),
            damping=lambda z, xi: np.array([[2.0]]),
            force=lambda z, u, xi: np.array([z[0]]),
            distributions=(),
            u=lambda t: np.zeros(0),
            z0=np.array([1.0]), v0=np.array([-1.0]))
        dae = second_order_to_first(model)
        x = rk4_integrate(dae, np.zeros(0), dae.initial_guess(), 1.0, 2000)
        assert abs(x[0] - np.exp(-1.0)) < 1e-4

    def test_singular_mass_rejected(self):
        model = SecondOrderModel(
            n=1,
            mass=lambda z, xi: np.array([[0.0]]),
            damping=lambda z, xi: np.array([[1.0]]),
            force=lambda z, u, xi: np.array([z[0]]),
            distributions=(),
            u=lambda t: np.zeros(0),
            z0=np.zeros(1), v0=np.zeros(1))
        with pytest.raises(SingularMassError):
            second_order_to_first(model)

    def test_quadratic_eigenvalues_preserved(self):
        M = np.array([[2.0, 0.0], [0.0, 1.0]])
        D = np.array([[0.3, 0.1], [0.1, 0.2]])
        K = np.array([[3.0, -1.0], [-1.0, 2.0]])
        model = SecondOrderModel(
            n=2,
            mass=lambda z, xi: M,
            damping=lambda z, xi: D,
            force=lambda z, u, xi: K @ z,
            distributions=(),
            u=lambda t: np.zeros(0),
            z0=np.zeros(2), v0=np.zeros(2))
        dae = second_order_to_first(model)
        # dx/dt = -f, so the state matrix is -df/dx
        A = -dae.jac_f(np.zeros(4), np.zeros(0), 0.0)
        got = np.sort_complex(np.linalg.eigvals(A))

        # oracle: roots of det(M s^2 + D s + K) via explicit 2x2 expansion
        def entry(i, j):
            return np.array([M[i, j], D[i, j], K[i, j]])

        charpoly = (np.convolve(entry(0, 0), entry(1, 1))
                    - np.convolve(entry(0, 1), entry(1, 0)))
        expected = np.sort_complex(np.roots(charpoly))
        assert np.allclose(got, expected, atol=1e-6)

    def test_conversion_state_layout(self):
        dae = second_order_to_first(undamped_oscillator())
        assert dae.n == 2
        assert dae.labels == ("z", "dz/dt")
        assert np.array_equal(dae.initial_guess(), [1.0, 0.0])
        # q is the identity
        x = np.array([0.3, -0.7])
        assert np.array_equal(dae.q(x, np.zeros(0)), x)
        assert np.array_equal(dae.jac_q(x, np.zeros(0)), np.eye(2))


class TestJacobians:
    def test_fd_fallback_matches_analytic(self):
        rng = np.random.default_rng(42)
        for name in ("rc_lowpass", "diode_rectifier", "opamp_like"):
            dae = builtin_model(name)
            xi = dae.nominal_parameters()
            x = rng.uniform(0.1, 2.0, size=dae.n)
            analytic = dae.jac_f(x, xi, 0.0)
            fd = models._fd_jacobian(lambda y: dae.f(y, xi, 0.0), x)
            scale = max(1.0, np.max(np.abs(analytic)))
            assert np.max(np.abs(analytic - fd)) / scale < 1e-5

    def test_stacked_fd_equals_rows(self):
        # a batched model without df_dx gets column-by-column differences
        # over the whole stack, with each row's step: the per-row bits
        dae = builtin_model("plate_actuator")
        assert dae.batched and dae.df_dx is None
        rng = np.random.default_rng(7)
        X = rng.normal(size=(64, 2)) * 10.0 ** rng.integers(-9, 2, (64, 1))
        X[0] = 0.0
        P = rng.normal(size=(64, 2))
        J = dae.jac_f_many(X, P, 0.0)
        rows = np.array([dae.jac_f(x, p, 0.0) for x, p in zip(X, P)])
        assert np.array_equal(J, rows)
        fd = models._fd_jacobian(lambda Y: dae.f(Y, P, 0.0), X)
        assert np.array_equal(fd, rows)

    def test_fd_step_respects_magnitude(self):
        # quadratic in a large variable still differentiates accurately
        def fn(x):
            return np.array([x[0] ** 2 * 1e-8, x[1] ** 2])

        J = models._fd_jacobian(fn, np.array([1e6, 2.0]))
        assert abs(J[0, 0] - 2e6 * 1e-8) < 1e-4
        assert abs(J[1, 1] - 4.0) < 1e-6


class TestDeviceEquations:
    def test_shockley_continuation_is_c1(self):
        i_s, n_vt = 1e-9, 0.02585
        knee = 40.0 * n_vt
        below_i, below_g = shockley_current(knee - 1e-12, i_s, n_vt)
        above_i, above_g = shockley_current(knee + 1e-12, i_s, n_vt)
        assert abs(below_i - above_i) <= 1e-9 * abs(below_i)
        assert abs(below_g - above_g) <= 1e-9 * abs(below_g)
        # linear far beyond the knee, never overflowing
        i1, g1 = shockley_current(100.0, i_s, n_vt)
        assert np.isfinite(i1) and g1 == pytest.approx(above_g)

    def test_mosfet_regions(self):
        kp, vth = 2e-3, 0.7
        # cutoff
        assert mosfet_current(0.5, 1.0, kp, vth, 0.0) == (0.0, 0.0, 0.0)
        # saturation: i = kp/2 vov^2
        i, gm, gds = mosfet_current(1.7, 2.0, kp, vth, 0.0)
        assert i == pytest.approx(0.5 * kp * 1.0 ** 2)
        assert gm == pytest.approx(kp * 1.0)
        assert gds == pytest.approx(0.0)
        # triode: i = kp (vov vds - vds^2/2)
        i, gm, gds = mosfet_current(1.7, 0.5, kp, vth, 0.0)
        assert i == pytest.approx(kp * (1.0 * 0.5 - 0.125))
        assert gds == pytest.approx(kp * (1.0 - 0.5))

    def test_mosfet_symmetry_under_terminal_swap(self):
        # swapping drain and source negates the current
        i_fwd, _, _ = mosfet_current(1.5, 0.4, 2e-3, 0.7, 0.05)
        i_rev, _, _ = mosfet_current(1.5 - 0.4, -0.4, 2e-3, 0.7, 0.05)
        assert i_rev == pytest.approx(-i_fwd)

    def test_mosfet_derivatives_match_fd(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            vgs, vds = rng.uniform(-2, 3), rng.uniform(-2, 3)
            _, gm, gds = mosfet_current(vgs, vds, 2e-3, 0.7, 0.05)
            gm_fd = (mosfet_current(vgs + h, vds, 2e-3, 0.7, 0.05)[0]
                     - mosfet_current(vgs - h, vds, 2e-3, 0.7, 0.05)[0]) / (2 * h)
            gds_fd = (mosfet_current(vgs, vds + h, 2e-3, 0.7, 0.05)[0]
                      - mosfet_current(vgs, vds - h, 2e-3, 0.7, 0.05)[0]) / (2 * h)
            assert abs(gm - gm_fd) < 1e-5
            assert abs(gds - gds_fd) < 1e-5


class TestAlgebraicModel:
    def test_wraps_map_as_dae(self):
        dists = (Distribution.uniform(0.0, 1.0),)
        dae = algebraic_model(lambda xi: [xi[0] ** 2, 1.0 - xi[0]],
                              dists, n_outputs=2, labels=("a", "b"))
        x = dc_newton(dae, np.array([0.5]))
        assert np.allclose(x, [0.25, 0.5], atol=1e-12)
        assert dae.labels == ("a", "b")
        assert np.array_equal(dae.q(x, [0.5]), np.zeros(2))


class TestBuiltins:
    def test_unknown_name_raises(self):
        with pytest.raises(UnknownModelError):
            builtin_model("no_such_model")

    def test_hyphen_alias(self):
        dae = builtin_model("plate-actuator")
        assert dae.n == 2 and dae.d == 2

    def test_builtin_prefix(self):
        dae = builtin_model("builtin:plate-actuator")
        assert dae.labels == builtin_model("plate_actuator").labels

    def test_outputs_resolve_by_index_or_label(self):
        dae = builtin_model("diode_rectifier")
        assert dae.output_index(1) == dae.output_index("v(2)") == 1
        with pytest.raises(ValueError, match="out of range"):
            dae.output_index(3)
        with pytest.raises(ValueError, match="no output labeled 'v[(]9[)]'"):
            dae.output_index("v(9)")
        # a bool is an int to Python, and True indexed a column mask
        with pytest.raises(ValueError, match="output must be"):
            dae.output_index(True)

    def test_unlabeled_outputs_are_x_j(self):
        dae = algebraic_model(lambda xi: [xi[0], 1.0],
                              (Distribution.gaussian(0.0, 1.0),), 2)
        assert dae.labels == ("x0", "x1")
        assert dae.output_index("x1") == 1

    def test_rc_lowpass_structure(self):
        dae = builtin_model("rc_lowpass")
        assert dae.n == 3 and dae.d == 1
        assert dae.distributions[0].kind == "uniform"
        x = dc_newton(dae, np.array([1.0]))
        # DC: capacitor open, no drop across the resistor
        assert np.allclose(x, [1.0, 1.0, 0.0], atol=1e-10)

    def test_diode_rectifier_dc(self):
        dae = builtin_model("diode_rectifier")
        xi = dae.nominal_parameters()
        x = dc_newton(dae, xi)
        v_d = x[0] - x[1]
        assert 0.3 < v_d < 0.4
        # KCL at the output node: diode current equals load current
        i_d, _ = shockley_current(v_d, 1e-9, 0.02585)
        assert abs(i_d - x[1] / 1e3) < 1e-9
        # larger saturation current lowers the diode drop
        x_hi = dc_newton(dae, np.array([2.0, 1.0]))
        assert x_hi[0] - x_hi[1] < v_d

    def test_plate_actuator_static_equilibrium(self):
        dae = builtin_model("plate_actuator", voltage=1.0)
        xi = np.zeros(2)
        x = dc_newton(dae, xi, x0=np.array([0.05, 0.0]))
        z = x[0]
        # k z = c V^2 / (gap - z)^2 with k = gap = 1, c = 0.02
        assert abs(z - 0.02 / (1.0 - z) ** 2) < 1e-10
        assert abs(x[1]) < 1e-10  # at rest

    def test_opamp_like_bias_point(self):
        dae = builtin_model("opamp_like")
        assert dae.d == 9
        xi = dae.nominal_parameters()
        x = dc_newton(dae, xi)
        state = dict(zip(dae.labels, x))
        # all three stages awake: every internal node strictly inside the rails
        for node in ("v(d1)", "v(d2)", "v(s2)", "v(out)"):
            assert 0.05 < state[node] < 4.95
        # output responds to threshold shifts
        xi2 = xi.copy()
        xi2[0] += 0.05  # first-stage threshold up
        x2 = dc_newton(dae, xi2)
        assert abs(x2[list(dae.labels).index("v(out)")]
                   - state["v(out)"]) > 1e-3

    def test_nominal_parameters_are_means(self):
        dae = builtin_model("diode_rectifier")
        assert np.allclose(dae.nominal_parameters(), [0.0, 1.0])
