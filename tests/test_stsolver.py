"""Stochastic testing solver: selection, decoupled DC, transient stepping."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from uqsim import anova, cli, hier, models, netlist, stsolver
from uqsim.models import algebraic_model, builtin_model
from uqsim.montecarlo import sample_parameters
from uqsim.polychaos import (Distribution, GpcExpansion, golub_welsch,
                             make_standard_basis, total_degree_index_set)
from uqsim.stsolver import (SolverError, SolverOptions, _damped_newton,
                            _integrate_points, _solve_dc_rows,
                            integrate_deterministic,
                            integrate_transient, newton_dc,
                            recover_coefficients, select_testing_points,
                            solve_dc, standard_bases)

from conftest import (select_testing_points_full_grid, solve_dc_monolithic,
                      tensor_quadrature)

HERMITE = Distribution.gaussian(0.0, 1.0)
UNIFORM = Distribution.uniform(-1.0, 1.0)
MIXED = (HERMITE, Distribution.gamma(2.0), Distribution.beta(2.0, 3.0),
         UNIFORM)

DIVIDER_VARIED = ("V1 1 0 1\nR1 1 2 1k\n"
                  "R2 2 0 1k variation=relative:uniform(0.9,1.1)\n")

NONLINEAR_2NODE = ("V1 1 0 1\nR1 1 2 1k variation=relative:uniform(0.9,1.1)\n"
                   "D1 2 0 variation.is=uniform(5e-10,2e-9)\n")

NONLINEAR_RC = (NONLINEAR_2NODE
                + "C1 2 0 1u variation=relative:uniform(0.8,1.2)\n")


def assert_matches_full_grid_reference(dists, order, cap):
    """The selection equals the full-grid greedy bit for bit, or fails
    with the same message."""
    bases = standard_bases(dists, order)
    idx = total_degree_index_set(len(dists), order)
    try:
        points, V, condition = select_testing_points_full_grid(
            bases, idx, cap)
    except RuntimeError as err:
        with pytest.raises(SolverError) as info:
            select_testing_points(bases, order, cap)
        assert str(info.value) == str(err)
        return
    tps = select_testing_points(bases, order, cap)
    assert np.array_equal(tps.points, points)
    assert np.array_equal(tps.V, V)
    assert tps.condition == condition


def setup_problem(model, order):
    return select_testing_points(standard_bases(model, order), order)


class TestSelection:
    def test_d1_p1_hermite_two_points(self):
        basis = make_standard_basis(HERMITE, 1)
        tps = select_testing_points([basis], 1)
        assert np.allclose(tps.points.ravel(), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(tps.V, [[1.0, -1.0], [1.0, 1.0]], atol=1e-12)
        assert tps.condition < 1.01

    def test_d2_p3_selects_10_of_16(self):
        basis = make_standard_basis(HERMITE, 3)
        tps = select_testing_points([basis, basis], 3)
        assert tps.n_points == 10
        # independent full-rank check
        assert abs(np.linalg.det(tps.V)) > 1e-12
        assert np.isfinite(tps.condition)
        # subset of the 4x4 tensor grid
        grid = tensor_quadrature([golub_welsch(basis, 4)] * 2).points
        for pt in tps.points:
            assert np.min(np.linalg.norm(grid - pt, axis=1)) < 1e-12

    def test_d4_p3_selects_35_of_256(self):
        basis = make_standard_basis(HERMITE, 3)
        tps = select_testing_points([basis] * 4, 3)
        assert tps.n_points == 35
        assert tps.condition <= 1e8

    def test_condition_cap_enforced(self):
        basis = make_standard_basis(HERMITE, 3)
        with pytest.raises(SolverError, match=r"only \d+ of 10"):
            select_testing_points([basis, basis], 3, condition_cap=1.5)

    @pytest.mark.parametrize("dists,order,cap", [
        ((UNIFORM,) * 8, 3, 1e8),
        (MIXED, 3, 1e8),
        # the cap rejects candidates the default cap keeps, so the greedy
        # reads past the first chunk of 2K rows
        ((Distribution.gaussian(1.0, 0.1), Distribution.gamma(3.0),
          Distribution.beta(0.5, 2.0)), 4, 1300.0),
        (MIXED, 3, 100.0),   # only 34 of 35 points meet it
        # nine inputs, as opamp-like has
        ((HERMITE,) * 9, 1, 1e8),
        (MIXED * 2 + (UNIFORM,), 2, 1e8),
    ], ids=["uniform-d8-p3", "mixed-d4-p3", "tight-cap", "failing-cap",
            "gaussian-d9-p1", "mixed-d9-p2"])
    def test_matches_full_grid_reference(self, dists, order, cap):
        assert_matches_full_grid_reference(dists, order, cap)

    @pytest.mark.parametrize("cap", [1e8, 1e3, 1.5])
    @pytest.mark.parametrize("family", [
        "uniform", "gaussian", "gamma", "beta", "mixed"])
    def test_condition_screen_matches_full_grid_reference(self, family,
                                                          cap):
        # every accept the bound makes without an SVD must be the one the
        # exact SVD test makes
        dist = {"uniform": UNIFORM, "gaussian": HERMITE,
                "gamma": Distribution.gamma(2.0),
                "beta": Distribution.beta(2.0, 3.0)}.get(family)
        for d in range(1, 5):
            dists = MIXED[:d] if dist is None else (dist,) * d
            for order in range(5):
                assert_matches_full_grid_reference(dists, order, cap)

    def test_condition_screen_skips_the_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        bases = standard_bases((UNIFORM,) * 8, 3)
        tps = select_testing_points(bases, 3)
        assert tps.n_points == 165
        assert len(calls) <= 2   # the SVD on every trial would make 166

    def test_evaluates_only_the_rows_it_visits(self, monkeypatch):
        rows = []
        basis_matrix = stsolver._basis_matrix

        def counting(idx, bases, points):
            rows.append(len(points))
            return basis_matrix(idx, bases, points)

        monkeypatch.setattr(stsolver, "_basis_matrix", counting)
        bases = standard_bases((UNIFORM,) * 8, 3)
        tps = select_testing_points(bases, 3)
        assert tps.n_points == 165
        assert 165 <= sum(rows) < 2000   # of the 4^8 = 65,536 grid nodes

    def test_holds_no_node_grid(self):
        # the 4^8 x 8 grid of points alone is 4 MiB; the weights and their
        # order are 0.5 MiB each
        bases = standard_bases((UNIFORM,) * 8, 3)
        tracemalloc.start()
        try:
            select_testing_points(bases, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_selection_is_deterministic(self):
        basis = make_standard_basis(Distribution.uniform(-1, 1), 2)
        a = select_testing_points([basis] * 3, 2)
        b = select_testing_points([basis] * 3, 2)
        assert np.array_equal(a.points, b.points)


class TestSolveDc:
    def test_divider_mean_matches_integral(self):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        tps = setup_problem(dae, 2)
        exp = solve_dc(dae, tps)
        mean, _ = exp.mean_variance()
        exact = quad(lambda r: r / (1 + r), 0.9, 1.1)[0] / 0.2
        # the K=3 collocation mean equals the 3-point Gauss quadrature of
        # r/(1+r), whose truncation error on this interval is ~1.8e-10
        assert abs(mean[1] - exact) < 5e-10

    def test_d0_reduces_to_deterministic(self):
        dae = netlist.elaborate(
            netlist.parse_netlist("V1 1 0 1\nR1 1 2 1k\nR2 2 0 1k\n"))
        tps = setup_problem(dae, 2)
        assert tps.n_points == 1
        exp = solve_dc(dae, tps)
        mean, var = exp.mean_variance()
        assert np.allclose(mean, [1.0, 0.5, -5e-4], atol=1e-9)
        assert np.max(var) == 0.0

    def test_diode_rectifier_matches_mc(self):
        from uqsim.montecarlo import run_mc

        dae = builtin_model("diode_rectifier")
        tps = setup_problem(dae, 3)
        exp = solve_dc(dae, tps)
        mean, var = exp.mean_variance()
        mc = run_mc(dae, "dc", n=20000, seed=11)
        out = 1  # rectified node voltage
        assert abs(mean[out] - mc.mean[out]) < 3 * mc.stderr[out]
        assert abs(np.sqrt(var[out]) - mc.std[out]) < 3 * mc.stderr_std[out]

    def test_polynomial_solution_recovered_exactly(self):
        # manufactured map whose components have total degree <= p
        dists = (Distribution.gaussian(0, 1), Distribution.uniform(-1, 1))

        def poly(xi):
            x0, x1 = xi[..., 0], xi[..., 1]
            return np.stack([0.3 + 0.5 * x0 - 0.2 * x0 * x1,
                             1.0 + 0.1 * x1 ** 2], axis=-1)

        dae = algebraic_model(poly, dists, n_outputs=2)
        tps = setup_problem(dae, 2)
        exp = solve_dc(dae, tps)
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = np.array([rng.normal(), rng.uniform(-1, 1)])
            assert np.allclose(exp.eval_many(xi[None])[0], poly(xi), atol=1e-8)

    def test_newton_divergence_reports_residual(self):
        dists = (Distribution.uniform(0.5, 1.5),)
        # x^2 + xi = 0 has no real solution for xi > 0
        bad = models.StochasticDae(
            n=1, d=1, distributions=dists,
            q=lambda x, xi: np.zeros(np.shape(x)),
            f=lambda x, xi, t: x ** 2 + xi[..., :1])
        with pytest.raises(SolverError) as err:
            newton_dc(bad, np.array([1.0]))
        assert err.value.residual is not None and err.value.residual > 0


    @pytest.mark.parametrize("model", [
        "builtin:diode-rectifier",
        "V1 1 0 1\nR1 1 2 1k\nD1 2 0\nI1 0 2 1m\nR2 2 0 2k\nC1 2 0 1u\n"])
    def test_f_is_the_whole_residual(self, model):
        # every drive is inside f, so f meets Newton's tolerance at the DC
        # point
        dae = (builtin_model(model) if model.startswith("builtin:")
               else netlist.elaborate(netlist.parse_netlist(model)))
        xi = dae.nominal_parameters()
        residual = dae.f(newton_dc(dae, xi), xi, 0.0)
        assert np.linalg.norm(residual) <= SolverOptions().dc_tol(dae.n)


class TestStackedNewton:
    @pytest.mark.parametrize("name", ["diode_rectifier", "opamp_like",
                                      "nonlinear_2node"])
    def test_matches_separate_newton_dc(self, name):
        if name == "nonlinear_2node":
            dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_2NODE))
        else:
            dae = builtin_model(name)
        P = sample_parameters(dae.distributions, 40, seed=1)
        nominal = newton_dc(dae, dae.nominal_parameters())
        X, rnorm, ok = _solve_dc_rows(dae, P, nominal[None], SolverOptions())
        assert ok.all()
        separate = np.array([newton_dc(dae, xi, x0=nominal) for xi in P])
        assert np.max(np.abs(X - separate)) <= 1e-12
        stacked = newton_dc(dae, P, nominal)
        assert stacked.shape == (40, dae.n)
        assert np.max(np.abs(stacked - separate)) <= 1e-12

    def test_chunks_do_not_change_a_bit(self, monkeypatch):
        dae = builtin_model("diode_rectifier")
        P = sample_parameters(dae.distributions, 40, seed=1)
        whole = newton_dc(dae, P)
        sizes = []
        solve_dc_rows = stsolver._solve_dc_rows

        def recording(model, rows, *args):
            sizes.append(len(rows))
            return solve_dc_rows(model, rows, *args)

        monkeypatch.setattr(stsolver, "_solve_dc_rows", recording)
        # 8 * n * (n + 1) = 96 bytes of Jacobian per row of the 3-state model
        monkeypatch.setattr(stsolver, "CHUNK_BYTES", 96 * 16)
        assert np.array_equal(newton_dc(dae, P), whole)
        assert sizes == [16, 16, 8]
        assert newton_dc(dae, P[:0]).shape == (0, dae.n)

    def test_singular_and_diverging_rows_fail_alone(self):
        # row i solves C[i,0] x + C[i,1] x^2 + C[i,2] = 0
        C = np.array([[1.0, 0.0, -0.5],    # root 0.5
                      [0.0, 0.0, -1.0],    # Jacobian identically zero
                      [0.0, 1.0, 1.0],     # x^2 + 1: no real root
                      [2.0, 1.0, -3.0]])   # root 1

        def residual(Y, rows):
            c, y = C[rows], Y[:, 0]
            return (c[:, 0] * y + c[:, 1] * y * y + c[:, 2])[:, None]

        def jacobian(Y, rows):
            c = C[rows]
            return (c[:, 0] + 2.0 * c[:, 1] * Y[:, 0])[:, None, None]

        X, rnorm, ok = _damped_newton(residual, jacobian,
                                      np.full((4, 1), 0.3), 1e-12)
        assert ok.tolist() == [True, False, False, True]
        assert X[[0, 3], 0] == pytest.approx([0.5, 1.0], abs=1e-12)
        assert rnorm[1] == 1.0 and rnorm[2] >= 1.0
        for i in (0, 3):
            Xi, _, oki = _damped_newton(
                lambda Y, rows: residual(Y, [i]),
                lambda Y, rows: jacobian(Y, [i]), [[0.3]], 1e-12)
            assert oki[0] and Xi[0, 0] == X[i, 0]


    def test_singular_jacobian_is_a_solver_error(self):
        # f = -1 everywhere: the Jacobian is exactly zero in DC and in
        # every implicit step
        dae = models.StochasticDae(
            n=1, d=1, distributions=(Distribution.uniform(0.0, 1.0),),
            q=lambda x, xi: 0.0 * x, f=lambda x, xi, t: 0.0 * x - 1.0)
        with pytest.raises(SolverError) as err:
            newton_dc(dae, np.array([0.5]))
        assert err.value.residual == 1.0
        with pytest.raises(SolverError, match="at 2 of 2 points"):
            newton_dc(dae, np.array([[0.5], [0.25]]))
        with pytest.raises(SolverError):
            integrate_deterministic(dae, np.array([0.5]), (0.0, 1.0),
                                    np.zeros(1))
        with pytest.raises(SolverError, match="at 2 of 2 points"):
            _integrate_points(dae, np.array([[0.5], [0.25]]),
                              np.zeros((2, 1)), (0.0, 1.0), SolverOptions())


def diode_rc_ladder(stages: int) -> str:
    """Diode-RC ladder with one relative resistor variation per stage."""
    lines = ["V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        lines += [f"R{k} n{k - 1} n{k} 1k variation=relative:uniform(0.9,1.1)",
                  f"D{k} n{k} 0 is=1e-9 nvt=0.02585", f"C{k} n{k} 0 1u"]
    return "\n".join(lines) + "\n"


def newton_stack(model, rows, seed=0):
    """Jacobians (rows, n, n) and residuals (rows, n) of a DC Newton stack
    near the nominal operating point."""
    P = sample_parameters(model.distributions, rows, seed)
    x0 = newton_dc(model, model.nominal_parameters())
    rng = np.random.default_rng(seed)
    X = x0 + 0.05 * rng.normal(size=(rows, model.n)) * (np.abs(x0) + 0.1)
    return (model.jac_f_many(X, P, 0.0),
            model.f_many(X, P, 0.0))


class TestPlannedLu:
    MODELS = {
        "ladder19": lambda: netlist.elaborate(
            netlist.parse_netlist(diode_rc_ladder(19))),
        "opamp_like": lambda: builtin_model("opamp_like"),
        "diode_rectifier": lambda: builtin_model("diode_rectifier"),
    }

    @staticmethod
    def assert_close(step, J, R):
        ref = np.linalg.solve(J, -R[..., None])[..., 0]
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(step - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_agrees_with_lapack_on_model_stacks(self, name):
        model = self.MODELS[name]()
        lu = stsolver._model_lu(model, True)
        J, R = newton_stack(model, 300)
        step, flagged = lu.solve(J, R)
        assert not flagged.any()
        self.assert_close(step, J, R)
        step, singular = stsolver._solve_rows(J, R, lu)
        assert singular is None
        self.assert_close(step, J, R)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_agrees_with_lapack_on_random_dense_stacks(self, n):
        rng = np.random.default_rng(n)
        J = rng.normal(size=(200, n, n)) + 4.0 * np.eye(n)
        R = rng.normal(size=(200, n))
        lu = stsolver._planned_lu(n, np.ones((n, n), dtype=bool).tobytes())
        step, flagged = lu.solve(J, R)
        self.assert_close(step[~flagged], J[~flagged], R[~flagged])
        step, singular = stsolver._solve_rows(J, R, lu)
        assert singular is None
        self.assert_close(step, J, R)

    def test_dc_plan_reads_df_dx_pattern_alone(self):
        # the plate's dq_dx is the identity, so its implicit steps plan a
        # dense pattern; its DC df_dx has a zero (0, 0) entry, which only
        # the DC plan's row order keeps off the pivots
        model = builtin_model("plate_actuator")
        J, R = newton_stack(model, stsolver.PLANNED_LU_MIN_ROWS)
        assert not J[:, 0, 0].any()
        step, flagged = stsolver._model_lu(model, True).solve(J, R)
        assert not flagged.any()
        self.assert_close(step, J, R)
        _, flagged = stsolver._model_lu(model, False).solve(J, R)
        assert flagged.all()

    def test_zero_diagonals_are_paired_by_the_row_order(self):
        # the source branch rows and opamp-like's `in` node, which only VIN
        # and a gate touch, have no diagonal entry
        model = builtin_model("opamp_like")
        assert not np.diag(model.df_pattern).all()
        order = stsolver._zero_free_rows(model.df_pattern)
        assert sorted(order) == list(range(model.n))
        assert model.df_pattern[order, range(model.n)].all()
        # a pattern with an empty column has no such order, and no plan
        empty = np.ones((3, 3), dtype=bool)
        empty[:, 1] = False
        assert stsolver._zero_free_rows(empty) is None
        assert stsolver._planned_lu(3, empty.tobytes()) is None

    @pytest.mark.parametrize("with_singular", [True, False],
                             ids=["singular-row", "no-singular-row"])
    def test_small_pivot_falls_back_and_singular_row_stops_alone(
            self, with_singular):
        n, rows = 2, stsolver.PLANNED_LU_MIN_ROWS
        rng = np.random.default_rng(5)
        J = rng.normal(size=(rows, n, n)) + 3.0 * np.eye(n)
        R = rng.normal(size=(rows, n))
        if with_singular:
            J[0] = [[1.0, 1.0], [1.0, 1.0]]
        J[1] = [[1e-6, 1.0], [1.0, 1.0]]    # pivot below 1e-3 of its column
        lu = stsolver._planned_lu(n, np.ones((n, n), dtype=bool).tobytes())
        _, flagged = lu.solve(J, R)
        assert np.flatnonzero(flagged).tolist() == ([0, 1] if with_singular
                                                    else [1])
        step, singular = stsolver._solve_rows(J, R, lu)
        if with_singular:
            assert np.flatnonzero(singular).tolist() == [0]
        else:
            assert singular is None
            self.assert_close(step[:1], J[:1], R[:1])
        assert np.array_equal(step[1], np.linalg.solve(J[1], -R[1]))
        self.assert_close(step[2:], J[2:], R[2:])

    def test_short_stacks_keep_lapack_bits(self):
        model = builtin_model("diode_rectifier")
        J, R = newton_stack(model, stsolver.PLANNED_LU_MIN_ROWS - 1)
        step, singular = stsolver._solve_rows(
            J, R, stsolver._model_lu(model, True))
        assert singular is None
        assert np.array_equal(step,
                              np.linalg.solve(J, -R[..., None])[..., 0])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_solve_allocates_well_under_its_stack(self, name):
        # the entry-major copy is made in row blocks of LU_BLOCK_BYTES; of
        # stack size, only the steps it returns are allocated, n / n^2 of
        # the Jacobians (LAPACK's path allocates them and -R)
        model = self.MODELS[name]()
        J, R = newton_stack(model, stsolver._chunk_rows(model.n))
        lu = stsolver._model_lu(model, True)
        lu.solve(J[:100], R[:100])   # warm caches
        tracemalloc.start()
        try:
            step, flagged = lu.solve(J, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not flagged.any()
        assert peak - step.nbytes < 0.3 * J.nbytes
        assert peak < 0.6 * J.nbytes

    def test_pattern_covers_the_jacobians(self):
        for name, make in [*self.MODELS.items(),
                           ("plate_actuator",
                            lambda: builtin_model("plate_actuator"))]:
            model = make()
            J, _ = newton_stack(model, 50)
            P = sample_parameters(model.distributions, 50, 0)
            Jq = model.jac_q_many(np.zeros((50, model.n)), P)
            assert not ((J != 0) & ~model.df_pattern).any(), name
            assert not ((Jq != 0) & ~model.dq_pattern).any(), name


class TestDecouplingEquivalence:
    def test_nonlinear_two_node_identical(self):
        dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_2NODE))
        tps = setup_problem(dae, 2)
        tight = SolverOptions(dc_tol_scale=1e-13)
        dec = solve_dc(dae, tps, tight)
        mono = solve_dc_monolithic(dae, tps)
        assert np.max(np.abs(dec.coefficients - mono.coefficients)) < 1e-9


class TestRecovery:
    def test_round_trip(self):
        basis = make_standard_basis(HERMITE, 3)
        tps = select_testing_points([basis, basis], 3)
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=(len(tps.index_set), 2))
        values = tps.V @ coeffs
        rec = recover_coefficients(values, tps)
        assert np.max(np.abs(rec.coefficients - coeffs)) < 1e-10

    def test_constant_values(self):
        basis = make_standard_basis(HERMITE, 2)
        tps = select_testing_points([basis], 2)
        rec = recover_coefficients(np.full((3, 1), 4.2), tps)
        assert abs(rec.coefficients[0, 0] - 4.2) < 1e-12
        assert np.max(np.abs(rec.coefficients[1:])) < 1e-12

    def test_aliasing_of_overdegree_polynomial(self):
        # degree-(p+1) data cannot be represented: the interpolant drops the
        # top component (which vanishes at the Gauss nodes), leaving a
        # nonzero residual away from the nodes; in one dimension collocation
        # at all p+1 nodes coincides with quadrature projection, so the mean
        # still matches it
        p = 3
        basis_p = make_standard_basis(HERMITE, p)
        tps = select_testing_points([basis_p], p)
        values = (tps.points[:, 0] ** 4).reshape(-1, 1)
        rec = recover_coefficients(values, tps)
        rule = golub_welsch(basis_p, p + 1)
        projected_mean = float(rule.weights @ rule.points.ravel() ** 4)
        assert abs(projected_mean - 3.0) < 1e-10  # E[xi^4], rule is exact
        assert abs(rec.coefficients[0, 0] - projected_mean) < 1e-8
        # aliasing residual at a non-node point
        assert abs(rec.eval_many(np.array([0.5])[None])[0, 0] - 0.5 ** 4) > 1e-2


class TestTransient:
    def rc_setup(self, order=3):
        dae = builtin_model("rc_lowpass")
        tps = setup_problem(dae, order)
        # consistent start: source on, capacitor empty, branch current -1/R
        X0 = np.array([[1.0, 0.0, -1.0 / (1e3 * pt[0])] for pt in tps.points])
        x0 = recover_coefficients(X0, tps)
        return dae, tps, x0

    def test_rc_mean_matches_quadrature_of_closed_form(self):
        dae, tps, x0 = self.rc_setup()
        tol = 1e-6
        sol = integrate_transient(dae, tps, (0.0, 1e-3), x0=x0,
                                  options=SolverOptions(lte_tol=tol))
        mean, _ = sol.final().mean_variance()
        exact = quad(lambda r: 1 - np.exp(-1e-3 / (1e3 * r * 1e-6)),
                     0.9, 1.1)[0] / 0.2
        assert abs(mean[1] - exact) < 2 * tol

    def test_zero_input_stays_zero(self):
        dae = builtin_model("rc_lowpass", vin=0.0)
        tps = setup_problem(dae, 2)
        idx = tps.index_set
        zero = GpcExpansion(idx, np.zeros((len(idx), dae.n)), tps.bases)
        sol = integrate_transient(dae, tps, (0.0, 1e-3), x0=zero)
        for exp in sol.expansions:
            assert np.max(np.abs(exp.coefficients)) < 1e-12

    def test_default_start_is_dc(self):
        dae, tps, _ = self.rc_setup(order=2)
        sol = integrate_transient(dae, tps, (0.0, 1e-4))
        mean, _ = sol.final().mean_variance()
        # already at the charged operating point, nothing moves
        assert abs(mean[1] - 1.0) < 1e-6

    def test_d0_equals_the_deterministic_run(self):
        # no random inputs: one testing point on the empty basis, so the
        # run is integrate_deterministic's with zero variance
        dae = netlist.elaborate(
            netlist.parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1u\n"))
        tps = setup_problem(dae, 2)
        start = np.array([1.0, 0.0, -1e-3])   # capacitor empty
        x0 = GpcExpansion(total_degree_index_set(0, 0), start[None], ())
        sol = integrate_transient(dae, tps, (0.0, 1e-3), x0=x0)
        times, states, _ = integrate_deterministic(
            dae, np.zeros(0), (0.0, 1e-3), start)
        assert np.array_equal(sol.times, times)
        mean, var = sol.final().mean_variance()
        assert np.allclose(mean, states[-1], rtol=1e-12, atol=1e-15)
        assert mean[1] > 0.6 and np.max(var) == 0.0
        # and from solve_dc's start, the charged operating point
        mean, var = integrate_transient(
            dae, tps, (0.0, 1e-4)).final().mean_variance()
        assert abs(mean[1] - 1.0) < 1e-6 and np.max(var) == 0.0

    def test_start_on_a_lower_order_is_lifted(self):
        # an order-1 start on order-1 bases is the order-3 expansion whose
        # coefficients of degree 2 and 3 are zero; both start the same run
        dae, tps, _ = self.rc_setup()
        _, tps1, x0 = self.rc_setup(order=1)
        idx = tps.index_set
        lifted = np.zeros((len(idx), dae.n))
        lifted[:len(x0.index_set)] = x0.coefficients   # graded order
        lifted = GpcExpansion(idx, lifted, tps.bases)
        low = integrate_transient(dae, tps, (0.0, 1e-3), x0=x0)
        high = integrate_transient(dae, tps, (0.0, 1e-3), x0=lifted)
        assert np.array_equal(low.times, high.times)
        for a, b in zip(low.expansions, high.expansions):
            assert a.index_set is tps.index_set
            assert np.allclose(a.coefficients, b.coefficients, rtol=1e-12,
                               atol=1e-15)

    def test_start_on_other_inputs_is_value_error(self):
        dae, tps, _ = self.rc_setup()
        other = GpcExpansion(total_degree_index_set(2, 0),
                             np.zeros((1, dae.n)),
                             standard_bases(MIXED[:2], 0))
        with pytest.raises(ValueError, match="random inputs"):
            integrate_transient(dae, tps, (0.0, 1e-3), x0=other)

    def test_times_increasing_and_log_recorded(self):
        dae, tps, x0 = self.rc_setup()
        sol = integrate_transient(dae, tps, (0.0, 1e-3), x0=x0)
        assert np.all(np.diff(sol.times) > 0)
        assert sol.times[0] == 0.0
        assert sol.times[-1] == pytest.approx(1e-3, rel=1e-12)
        accepted = [s for s in sol.step_log if s[2]]
        assert len(accepted) == len(sol.times) - 1
        assert sol.n_point_solves >= tps.n_points * len(accepted)

    def test_second_order_convergence(self):
        dae = builtin_model("rc_lowpass")
        x0 = np.array([1.0, 0.0, -1e-3])
        errs = []
        hs = [1e-3 / 2 ** k for k in range(3, 9)]
        for h in hs:
            _, states, _ = integrate_deterministic(
                dae, np.array([1.0]), (0.0, 1e-3), x0,
                SolverOptions(fixed_step=h))
            errs.append(abs(states[-1][1] - (1 - np.exp(-1.0))))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_fixed_step_span_ends_without_a_sliver(self):
        # accumulating t += h over 1000 steps of 0.01 left a 1.7e-13 s
        # last step, on which the h-scaled Newton residual stalled
        dae = builtin_model("plate_actuator")
        times, states, _ = integrate_deterministic(
            dae, dae.nominal_parameters(), (0.0, 10.0), dae.initial_guess(),
            SolverOptions(fixed_step=0.01))
        assert len(times) == 1001
        assert times[-1] == 10.0
        assert np.min(np.diff(times)) > 0.5 * 0.01
        assert np.all(np.isfinite(states))

    @pytest.mark.parametrize("name", ["plate_actuator", "nonlinear_rc"])
    def test_stacked_steps_equal_separate_runs(self, name):
        # with fixed steps, every row of the one stacked stepper takes the
        # iterates a one-row run takes, bit for bit; the plate actuator is
        # evaluated row by row, the netlist in batches
        if name == "nonlinear_rc":
            dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_RC))
            span, x0 = (0.0, 2e-3), np.zeros(dae.n)
        else:
            dae = builtin_model(name)
            span, x0 = (0.0, 1.0), dae.initial_guess()
        opts = SolverOptions(fixed_step=(span[1] - span[0]) / 40)
        P = sample_parameters(dae.distributions, 6, seed=2)
        times, states, log, solves = _integrate_points(
            dae, P, np.tile(x0, (len(P), 1)), span, opts)
        assert len(log) == 40 and solves == 40 * len(P)
        for i, xi in enumerate(P):
            t_i, s_i, _ = integrate_deterministic(dae, xi, span, x0, opts)
            assert np.array_equal(t_i, times)
            assert np.array_equal(s_i, np.array([X[i] for X in states]))

    @pytest.mark.parametrize("name", ["plate_actuator", "nonlinear_rc",
                                      "forced"])
    def test_own_clocks_equal_separate_adaptive_runs(self, name):
        # adaptive steps: on its own clock, each row of one stacked stepper
        # takes the steps, rejections and iterates of a one-sample run, bit
        # for bit, though the rows reject different steps; a model whose f
        # reads t gets each row's own time
        opts = SolverOptions()
        if name == "nonlinear_rc":
            dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_RC))
            span, x0 = (0.0, 2e-4), np.zeros(dae.n)
        elif name == "forced":
            # dx/dt = -xi x + sin(20 t), xi ~ U(-1, 1)
            dae = models.StochasticDae(
                n=1, d=1, distributions=(UNIFORM,),
                q=lambda x, xi: np.array(x, dtype=float),
                f=lambda x, xi, t: (xi[..., :1] * x
                                    - np.sin(20.0 * np.asarray(t))[..., None]),
                dq_dx=lambda x, xi: np.ones(np.shape(x) + (1,)),
                df_dx=lambda x, xi, t: xi[..., :1, None] * np.ones((1, 1)))
            span, x0 = (0.0, 0.5), np.zeros(1)
            opts = SolverOptions(lte_tol=1e-3)
        else:
            dae = builtin_model(name)
            span, x0 = (0.0, 1.0), dae.initial_guess()
        P = sample_parameters(dae.distributions, 4, seed=0)
        t_end, (X,), steps, solves = _integrate_points(
            dae, P, np.tile(x0, (len(P), 1)), span, opts, own_clocks=True)
        counts = []
        for i, xi in enumerate(P):
            times, states, _ = integrate_deterministic(dae, xi, span, x0,
                                                       opts)
            assert np.array_equal(X[i], states[-1])
            assert t_end[i] == times[-1]
            log = _integrate_points(dae, xi[None], x0[None], span, opts)[2]
            accepted = sum(1 for entry in log if entry[2])
            counts.append((accepted, len(log) - accepted))
        assert list(zip(steps.accepted, steps.rejected)) == counts
        assert len({rejected for _, rejected in counts}) > 1
        assert solves == len(steps) == sum(map(sum, counts))
        assert sum(1 for e in steps if e[2]) == sum(steps.accepted)

    @pytest.mark.parametrize("name", ["plate_actuator", "nonlinear_rc"])
    def test_own_clocks_of_a_planned_stack_match_runs_up_to_rounding(
            self, name, monkeypatch):
        # a stack of PLANNED_LU_MIN_ROWS rows or more solves its Newton
        # steps with the planned LU, a one-sample run with LAPACK, so each
        # row matches its one-sample run in its steps and up to rounding
        planned = []
        solve = stsolver._StackedLu.solve

        def counted(lu, J, R):
            planned.append(len(R))
            return solve(lu, J, R)

        monkeypatch.setattr(stsolver._StackedLu, "solve", counted)
        if name == "nonlinear_rc":
            dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_RC))
            span, x0 = (0.0, 2e-4), np.zeros(dae.n)
        else:
            dae = builtin_model(name)
            span, x0 = (0.0, 1.0), dae.initial_guess()
        P = sample_parameters(dae.distributions,
                              stsolver.PLANNED_LU_MIN_ROWS, seed=0)
        t_end, (X,), steps, _ = _integrate_points(
            dae, P, np.tile(x0, (len(P), 1)), span, SolverOptions(),
            own_clocks=True)
        assert planned
        planned.clear()
        for i, xi in enumerate(P):
            times, states, log, _ = _integrate_points(
                dae, xi[None], x0[None], span, SolverOptions())
            scale = np.abs(states[-1][0]).max()
            assert np.abs(X[i] - states[-1][0]).max() <= 1e-10 * scale
            assert t_end[i] == times[-1]
            accepted = sum(1 for entry in log if entry[2])
            assert (steps.accepted[i], steps.rejected[i]) == (
                accepted, len(log) - accepted)
        assert not planned

    def test_failed_row_stops_alone(self):
        # dx/dt = -xi x, except that rows with xi > 0.9 have no solution
        # after t = 0.3: a one-sample run of such a row fails there; on its
        # own clock the row stops with NaN states, and the other rows end
        # where they end without it
        def f(x, xi, t):
            broken = (xi[..., :1] > 0.9) & (np.asarray(t)[..., None] > 0.3)
            return np.where(broken, np.nan, xi[..., :1] * x)

        dae = models.StochasticDae(
            n=1, d=1, distributions=(UNIFORM,),
            q=lambda x, xi: np.array(x, dtype=float), f=f,
            dq_dx=lambda x, xi: np.ones(np.shape(x) + (1,)),
            df_dx=lambda x, xi, t: xi[..., :1, None] * np.ones((1, 1)))
        span, x0 = (0.0, 1.0), np.ones(1)
        with pytest.raises(SolverError, match="did not converge"):
            integrate_deterministic(dae, np.array([0.95]), span, x0)
        P = np.array([[0.2], [0.95], [0.5], [0.7]])
        t_end, (X,), _, _ = _integrate_points(
            dae, P, np.ones((4, 1)), span, SolverOptions(), own_clocks=True)
        _, (ref,), _, _ = _integrate_points(
            dae, np.delete(P, 1, axis=0), np.ones((3, 1)), span,
            SolverOptions(), own_clocks=True)
        assert np.isnan(X[1]).all() and 0.0 < t_end[1] <= 0.3
        assert np.array_equal(np.delete(X, 1, axis=0), ref)
        assert np.array_equal(np.delete(t_end, 1), [1.0, 1.0, 1.0])
        assert np.allclose(ref[:, 0], np.exp(-np.array([0.2, 0.5, 0.7])),
                           rtol=1e-3)

    def test_every_row_failing_at_once_stops_the_stepper(self):
        # f is NaN after t = 0: every row's first step fails, so the last
        # live rows go in one attempt and the stepper stops at t = 0
        dae = models.StochasticDae(
            n=1, d=1, distributions=(UNIFORM,),
            q=lambda x, xi: np.array(x, dtype=float),
            f=lambda x, xi, t: np.where(np.reshape(t, (-1, 1)) > 0, np.nan,
                                        x - xi[..., :1]))
        P = np.linspace(0.1, 0.9, 5)[:, None]
        t_end, (X,), steps, solves = _integrate_points(
            dae, P, P.copy(), (0.0, 1.0), SolverOptions(), own_clocks=True)
        assert np.isnan(X).all() and np.array_equal(t_end, np.zeros(5))
        assert solves == 5 and not steps.accepted.any()

    def test_underflow_stops_rows_on_own_clocks(self):
        # with lte_tol 0 a step is rejected unless its error estimate is
        # exactly 0, so every row underflows: a one-sample run raises at
        # some time, and on its own clock the row stops there, NaN
        dae, tps, x0 = self.rc_setup(order=2)
        opts = SolverOptions(lte_tol=0.0)
        X0 = tps.V @ x0.coefficients
        t_end, (X,), _, _ = _integrate_points(
            dae, tps.points, X0, (0.0, 1e-3), opts, own_clocks=True)
        assert np.isnan(X).all()
        for i, xi in enumerate(tps.points):
            with pytest.raises(SolverError, match="underflow") as err:
                integrate_deterministic(dae, xi, (0.0, 1e-3), X0[i], opts)
            assert t_end[i] == err.value.time

    @pytest.mark.parametrize("t_span,fixed_step", [
        ((0.0, np.nan), None), ((-np.inf, 1.0), None), ((1.0, 1.0), None),
        ((0.0, 1.0), np.nan), ((0.0, 1.0), 0.5e-12)])
    def test_bad_span_or_fixed_step_is_value_error(self, t_span, fixed_step):
        # the edges of the checks test_cli.py drives with t_end=inf and
        # fixed steps of -0.1, 0 and 1e-300; the step floor is the one
        # adaptive steps underflow at, 1e-12 of the span
        dae = builtin_model("rc_lowpass")
        with pytest.raises(ValueError, match="t_span|fixed_step"):
            integrate_deterministic(dae, np.array([1.0]), t_span,
                                    np.zeros(dae.n),
                                    SolverOptions(fixed_step=fixed_step))

    def test_step_underflow_raises_with_time(self):
        dae, tps, x0 = self.rc_setup(order=2)
        with pytest.raises(SolverError, match="underflow at t") as err:
            integrate_transient(dae, tps, (0.0, 1e-3), x0=x0,
                                options=SolverOptions(lte_tol=0.0))
        assert err.value.time is not None

    def test_plate_actuator_matches_mc(self):
        from uqsim.montecarlo import _aggregate

        dae = builtin_model("plate_actuator", voltage=1.0)
        tps = setup_problem(dae, 2)
        idx = tps.index_set
        # fixed shared step so the discretization bias cancels in the
        # comparison and only the stochastic approximation is tested
        opts = SolverOptions(fixed_step=0.05)
        start = dae.initial_guess()
        x0 = GpcExpansion(
            idx, np.outer(np.eye(len(idx))[0], start), tps.bases)
        sol = integrate_transient(dae, tps, (0.0, 1.0), x0=x0,
                                  options=opts)
        mean, var = sol.final().mean_variance()
        # MC from the same rest state; run_mc starts at the DC point.  One
        # stacked run gives each sample's fixed-step states bit for bit
        # (test_stacked_steps_equal_separate_runs)
        xis = sample_parameters(dae.distributions, 2000, 3)
        _, states, _, _ = _integrate_points(
            dae, xis, np.tile(start, (len(xis), 1)), (0.0, 1.0), opts)
        mc = _aggregate(states[-1], 0, 3, None)
        assert abs(mean[0] - mc.mean[0]) < 3 * mc.stderr[0]
        assert abs(np.sqrt(var[0]) - mc.std[0]) < 3 * mc.stderr_std[0]


class TestStackedRecovery:
    @staticmethod
    def system(name):
        """(model, order, span) of a system that moves from zero states."""
        if name == "rc_zeta":   # hier's rc-zeta system, as prop-rc runs it
            return hier._rc_zeta_system((UNIFORM,)), 3, (0.0, 2e-3)
        if name == "rc_zeta_p11":
            return hier._rc_zeta_system((UNIFORM,)), 11, (0.0, 2e-3)
        dae = netlist.elaborate(netlist.parse_netlist(NONLINEAR_RC))
        return dae, int(name[-1]), (0.0, 2e-4)

    def run(self, name):
        dae, order, span = self.system(name)
        tps = setup_problem(dae, order)
        idx = tps.index_set
        zero = GpcExpansion(idx, np.zeros((len(idx), dae.n)), tps.bases)
        return dae, tps, span, integrate_transient(dae, tps, span, x0=zero)

    @pytest.mark.parametrize("name,K,n", [("rc_zeta", 4, 1),
                                          ("nonlinear_rc_p3", 20, 3)])
    def test_expansions_equal_one_state_recoveries(self, name, K, n):
        # every stored state gets the bits of its own recover_coefficients;
        # one solve on the (K, T*n) side-by-side states changes most states
        # of both systems by an ulp, so this fails for that layout
        dae, tps, span, sol = self.run(name)
        assert (tps.n_points, dae.n) == (K, n)
        times, states, _, _ = _integrate_points(
            dae, tps.points, np.zeros((K, n)), span, SolverOptions())
        assert np.array_equal(times, sol.times)
        for X, exp in zip(states, sol.expansions):
            assert np.array_equal(recover_coefficients(X, tps).coefficients,
                                  exp.coefficients)
            assert not exp.coefficients.flags.writeable

    def test_transient_runs_one_recovery(self, monkeypatch):
        # all states in one stacked recovery, not one recovery per state
        calls = []
        recover = stsolver._recover

        def counting(states, tps, times=None):
            calls.append(len(states))
            return recover(states, tps, times)

        monkeypatch.setattr(stsolver, "_recover", counting)
        sol = self.run("rc_zeta")[-1]
        assert calls == [len(sol.times)] and len(sol.times) > 100

    @pytest.mark.parametrize("name", ["nonlinear_rc_p2", "rc_zeta_p11"])
    def test_csv_equals_per_expansion_reference(self, name):
        # K >= 10, so each variance sums at least 9 squares, where the
        # order of the additions shows in the bits
        _, tps, _, sol = self.run(name)
        assert tps.n_points >= 10
        lines = [",".join(["t"] + [f"mean_{l}" for l in sol.labels]
                          + [f"std_{l}" for l in sol.labels])]
        for t, exp in zip(sol.times, sol.expansions):
            mean, var = exp.mean_variance()
            row = np.concatenate([[t], mean, np.sqrt(var)])
            lines.append(",".join(repr(float(v)) for v in row))
        assert cli._waveform_csv(sol) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("build", ["TestingPointSet", "StSolution",
                                   "adaptive_anova"])
def test_value_types_leave_the_callers_arrays_writable(build):
    # each froze the caller's own arrays: writing to them afterwards
    # raised "assignment destination is read-only"
    if build == "TestingPointSet":
        args = [np.array([[0.5], [-0.5]]), np.array([[1.0, 0.5], [1.0, -0.5]])]
        value = stsolver.TestingPointSet(*args, 1.0, (),
                                         total_degree_index_set(0, 0))
        held = (value.points, value.V)
    elif build == "StSolution":
        args = [np.array([0.0, 1.0])]
        value = stsolver.StSolution(times=args[0], expansions=(), step_log=(),
                                    n_point_solves=0, labels=())
        held = (value.times,)
    else:
        args = [np.array([0.25, 0.5])]
        gauss = Distribution.gaussian(0.0, 1.0)
        decomp, _ = anova.adaptive_anova(lambda x: x[0] + x[1],
                                         (gauss, gauss), m=1, sigma=0.0,
                                         order=1, anchor=args[0])
        held = (decomp.anchor,)
    for arr in args:
        arr[0] = 2.0          # the caller's arrays stay writable
    for arr in held:
        assert not arr.flags.writeable and 2.0 not in arr


class TestSolutionExport:
    def test_csv_and_json_schema(self):
        dae = builtin_model("rc_lowpass")
        tps = setup_problem(dae, 2)
        X0 = np.array([[1.0, 0.0, -1.0 / (1e3 * pt[0])] for pt in tps.points])
        x0 = recover_coefficients(X0, tps)
        sol = integrate_transient(dae, tps, (0.0, 2e-4), x0=x0)
        csv = cli._waveform_csv(sol)
        header = csv.splitlines()[0].split(",")
        assert header[0] == "t"
        assert "mean_v(2)" in header and "std_v(2)" in header
        assert len(csv.splitlines()) == len(sol.times) + 1
        doc = json.loads(cli._solution_json(sol))
        assert doc["schema"] == "st-solution/1"
        assert len(doc["expansions"]) == len(sol.times)
        assert doc["times"] == [float(t) for t in sol.times]
