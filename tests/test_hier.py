"""Hierarchical propagation through normalized intermediate variables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsim import hier, polychaos
from uqsim.models import UnknownModelError, algebraic_model
from uqsim.polychaos import (DegenerateMeasureError, Distribution,
                             GpcExpansion, expansion_from_json,
                             expansion_to_json, golub_welsch,
                             make_standard_basis, total_degree_index_set)
from uqsim.stsolver import SolverOptions, standard_bases

from conftest import tensor_quadrature

GAUSS = Distribution.gaussian(0.0, 1.0)
UNIF01 = Distribution.uniform(0.0, 1.0)


def hermite_expansion(coeffs):
    """Scalar 1-D expansion with the given Hermite coefficients."""
    order = len(coeffs) - 1
    idx = total_degree_index_set(1, order)
    basis = make_standard_basis(GAUSS, order)
    return GpcExpansion(idx, np.asarray(coeffs, dtype=float).reshape(-1, 1),
                        (basis,))


def linear_gaussian_surrogate():
    block = algebraic_model(lambda xi: xi[..., :1], (GAUSS,), 1)
    return hier.extract_block_surrogate(block, 1)


def skewed_surrogate(order=2):
    block = algebraic_model(
        lambda xi: xi[..., :1] + 0.3 * xi[..., :1] ** 2 - 0.3, (GAUSS,), 1)
    return hier.extract_block_surrogate(block, order)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_shift_and_scale():
    s = hier.normalize_surrogate(hermite_expansion([3.0, 4.0]))
    assert s.a == pytest.approx(3.0, abs=1e-14)
    assert s.b == pytest.approx(4.0, abs=1e-14)
    np.testing.assert_allclose(s.zeta.scalar_coefficients(), [0.0, 1.0],
                               atol=1e-15)


def test_normalize_identity():
    s = hier.normalize_surrogate(hermite_expansion([0.0, 1.0]))
    assert s.a == 0.0
    assert s.b == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(s.zeta.scalar_coefficients(), [0.0, 1.0],
                               atol=1e-15)


def test_normalize_pythagorean_coefficients():
    s = hier.normalize_surrogate(hermite_expansion([5.0, 3.0, 4.0]))
    assert s.a == pytest.approx(5.0, abs=1e-14)
    assert s.b == pytest.approx(5.0, abs=1e-14)


def test_normalize_rejects_constant():
    with pytest.raises(ValueError, match="variance is zero"):
        hier.normalize_surrogate(hermite_expansion([2.0, 0.0, 0.0]))


def test_normalize_rejects_vector_output():
    idx = total_degree_index_set(1, 1)
    basis = make_standard_basis(GAUSS, 1)
    exp = GpcExpansion(idx, np.ones((2, 2)), (basis,))
    with pytest.raises(ValueError, match="scalar"):
        hier.normalize_surrogate(exp)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_normalized_zeta_has_unit_moments(coeffs):
    coeffs = np.asarray(coeffs)
    if np.sum(coeffs[1:] ** 2) < 1e-6:
        return
    s = hier.normalize_surrogate(hermite_expansion(coeffs))
    mean, var = s.zeta.mean_variance()
    assert abs(float(mean[0])) < 1e-12
    assert float(var[0]) == pytest.approx(1.0, abs=1e-12)


def test_extract_block_surrogate_by_label():
    block = algebraic_model(lambda xi: xi[..., :1] * [1.0, 2.0], (GAUSS,), 2,
                            labels=("first", "second"))
    s = hier.extract_block_surrogate(block, 1, output="second")
    assert s.b == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="labeled"):
        hier.extract_block_surrogate(block, 1, output="third")


# ---------------------------------------------------------------------------
# quadrature-backed density


def test_quadrature_density_gaussian_recurrence_matches_hermite():
    s = linear_gaussian_surrogate()
    dens = hier.density_by_quadrature(s)
    basis, _ = hier.build_intermediate_basis(dens, 4)
    ref = make_standard_basis(GAUSS, 4)
    np.testing.assert_allclose(basis.gamma, ref.gamma, atol=1e-8)
    np.testing.assert_allclose(basis.kappa, ref.kappa, atol=1e-8)


def test_quadrature_density_chi_square_like_moments():
    # zeta = (xi^2 - 1)/sqrt(2): normalized second Hermite polynomial
    s = hier.normalize_surrogate(hermite_expansion([1.0, 0.0, np.sqrt(2.0)]))
    dens = hier.density_by_quadrature(s)
    basis, _ = hier.build_intermediate_basis(dens, 3)
    assert basis.gamma[0] == pytest.approx(0.0, abs=1e-8)   # E[zeta]
    assert basis.kappa[1] == pytest.approx(1.0, abs=1e-8)   # Var[zeta]


def test_quadrature_density_degree_refusal():
    s = skewed_surrogate()
    dens = hier.density_by_quadrature(s, max_degree=4)
    with pytest.raises(ValueError, match="rebuild the density"):
        hier.build_intermediate_basis(dens, 4)   # needs degree 10 > 4
    hier.build_intermediate_basis(dens, 1)       # degree 4 available


def test_quadrature_density_evaluation_is_normalized():
    s = skewed_surrogate()
    dens = hier.density_by_quadrature(s)
    lo, hi = dens.support
    span = hi - lo
    zz = np.linspace(lo - span, hi + span, 1_200_001)
    rho = dens.density(zz)
    assert np.all(rho >= 0.0)
    assert float(np.trapezoid(rho, zz)) == pytest.approx(1.0, abs=1e-6)
    assert dens.density(np.array([lo - span, hi + span])) == pytest.approx(0.0)


def three_input_surrogate():
    # nonlinear in two uniforms and a Gaussian, cubic surrogate
    unif = Distribution.uniform(-1.0, 1.0)
    block = algebraic_model(
        lambda xi: (np.exp(0.4 * xi[..., :1]) + 0.3 * xi[..., 1:2]
                    + 0.2 * xi[..., :1] * xi[..., 2:]),
        (unif, unif, GAUSS), 1)
    return hier.extract_block_surrogate(block, 3)


def pushforward_rules(s, max_degree):
    """The one-dimensional Gauss rules of the pushforward's tensor rule."""
    p = max(1, s.zeta.index_set.total_order)
    nodes = int(np.ceil((max_degree * p + 1) / 2))
    return [golub_welsch(b, nodes)
            for b in standard_bases(s.distributions, nodes - 1)]


def full_pushforward(s, max_degree=hier.DEFAULT_ZETA_DEGREE):
    """Reference: the materialized (N, d) tensor rule, zeta evaluated there
    point by point with eval_many."""
    rule = tensor_quadrature(pushforward_rules(s, max_degree))
    return s.zeta.eval_many(rule.points).ravel(), rule.weights


def test_quadrature_density_keeps_the_pushforward_moments():
    s = three_input_surrogate()
    values, weights = full_pushforward(s)
    dens = hier.density_by_quadrature(s)
    pts, wts = dens.atoms
    assert len(values) == 22 ** 3 and len(pts) == 8
    assert dens.exact_degree == 14
    for k in range(16):     # 8 Gauss nodes are exact to degree 15
        full = np.sum(weights * values ** k)
        scale = np.sum(weights * np.abs(values) ** k)
        assert abs(np.sum(wts * pts ** k) - full) <= 1e-12 * scale, k
    assert dens.support == (values.min(), values.max())
    assert np.all(np.diff(dens.cdf(dens.cdf.x)) >= 0.0)


FAMILIES = {
    "uniform": Distribution.uniform(-1.0, 2.0),
    "gaussian": Distribution.gaussian(0.5, 2.0),
    "gamma": Distribution.gamma(2.5),
    "beta": Distribution.beta(2.0, 3.5),
}


def random_surrogate(family, d, p):
    """Surrogate whose zeta has seeded random coefficients on the
    total-degree set; 'mixed' cycles through the four families."""
    if family == "mixed":
        dists = [list(FAMILIES.values())[k % 4] for k in range(d)]
    else:
        dists = [FAMILIES[family]] * d
    bases = standard_bases(dists, p)
    idx = total_degree_index_set(d, p)
    rng = np.random.default_rng(100 * d + p)
    exp = GpcExpansion(idx, rng.standard_normal((len(idx), 1)), bases)
    return hier.Surrogate(expansion=exp, a=0.0, b=1.0, zeta=exp)


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("family", [*FAMILIES, "mixed"])
def test_grid_evaluation_matches_the_materialized_rule(family, d, p,
                                                       monkeypatch):
    s = random_surrogate(family, d, p)
    zeta = s.zeta
    rules = pushforward_rules(s, 4)
    values, weights = full_pushforward(s, 4)
    grid = zeta.eval_grid([r.points for r in rules]).ravel()
    # within a few ulps of the sum of |c_alpha Phi_alpha(x)|
    rule = tensor_quadrature(rules)
    scale = np.abs(polychaos._basis_matrix(zeta.index_set, zeta.bases,
                                           rule.points)) \
        @ np.abs(zeta.scalar_coefficients())
    assert np.all(np.abs(grid - values) <= 8 * np.finfo(float).eps * scale)
    # node order: output k is phi_1(xi_k) alone, so column k must equal
    # phi_1 at tensor_quadrature's k-th coordinate
    if p >= 1:
        unit = np.zeros((len(zeta.index_set), d))
        for k in range(d):
            unit[zeta.index_set.position(np.eye(d, dtype=int)[k]), k] = 1.0
        cols = GpcExpansion(zeta.index_set, unit, zeta.bases).eval_grid(
            [r.points for r in rules])
        for k in range(d):
            np.testing.assert_array_equal(
                cols[:, k], zeta.bases[k].eval_table(rule.points[:, k])[:, 1])
        # the density's pushforward is exactly the grid values, with the
        # materialized rule's weights bit for bit
        seen = []
        monkeypatch.setattr(
            hier.IntermediateDensity, "from_pushforward",
            lambda v, w, degree: seen.append((v, w)))
        hier.density_by_quadrature(s, 4)
        (v, w), = seen
        assert v.tobytes() == grid.tobytes()
        assert w.tobytes() == weights.tobytes()


def test_quadrature_density_evaluates_no_basis_matrix(monkeypatch):
    s = three_input_surrogate()
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GpcExpansion, "eval_many",
                        counting("eval_many", GpcExpansion.eval_many))
    monkeypatch.setattr(polychaos, "_basis_matrix",
                        counting("_basis_matrix", polychaos._basis_matrix))
    dens = hier.density_by_quadrature(s)
    assert len(dens.atoms[0]) == 8
    assert calls == []


def test_chi_square_like_pushforward_degenerates_at_degree_eight():
    # the 15-node Gauss-Hermite pushforward of zeta = (xi^2 - 1)/sqrt(2)
    # has 8 distinct values: claimed exact to degree 99, it compresses to
    # those 8 and the basis still fails where the full atoms failed
    xi, w = np.polynomial.hermite_e.hermegauss(15)
    dens = hier.IntermediateDensity.from_pushforward(
        (xi ** 2 - 1.0) / np.sqrt(2.0), w / w.sum(), exact_degree=99)
    assert len(dens.atoms[0]) == 8
    hier.build_intermediate_basis(dens, 7)
    with pytest.raises(DegenerateMeasureError) as err:
        hier.build_intermediate_basis(dens, 10)
    assert err.value.degree == 8
    # the surrogate's own rule resolves degree 14 and builds every basis
    # it allows
    s = hier.normalize_surrogate(hermite_expansion([1.0, 0.0, np.sqrt(2.0)]))
    dens = hier.density_by_quadrature(s)
    assert len(dens.atoms[0]) == 8
    for order in range(7):
        hier.build_intermediate_basis(dens, order)


# ---------------------------------------------------------------------------
# basis and rule construction


def test_gauss_hermite_four_point_rule():
    s = linear_gaussian_surrogate()
    dens = hier.density_by_quadrature(s)
    _, rule = hier.build_intermediate_basis(dens, 3)
    pts = np.sort(np.ravel(rule.points))
    # 4-point Gauss rule of the standard normal weight
    np.testing.assert_allclose(
        pts, [-2.3344142183389773, -0.7419637843027258,
              0.7419637843027258, 2.3344142183389773], atol=1e-6)
    wts = rule.weights[np.argsort(np.ravel(rule.points))]
    np.testing.assert_allclose(
        wts, [0.0458758547680685, 0.4541241452319315,
              0.4541241452319315, 0.0458758547680685], atol=1e-6)


def test_uniform_unit_variance_two_point_rule():
    # y = xi ~ U(0,1) normalizes to zeta ~ U(-sqrt(3), sqrt(3))
    block = algebraic_model(lambda xi: xi[..., :1], (UNIF01,), 1)
    s = hier.extract_block_surrogate(block, 1)
    dens = hier.density_by_quadrature(s)
    basis, rule = hier.build_intermediate_basis(dens, 1)
    pts = np.sort(np.ravel(rule.points))
    np.testing.assert_allclose(pts, [-1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-9)
    # support is the hull of the pushforward atoms, inside (-sqrt3, sqrt3)
    assert -np.sqrt(3.0) < dens.support[0] < -1.6


@pytest.mark.parametrize("values", [[0.0, np.nan, 1.0], [2.0, 2.0, 2.0]])
def test_pushforward_must_be_finite_and_span_an_interval(values):
    with pytest.raises(ValueError, match="finite and span an interval"):
        hier.IntermediateDensity.from_pushforward(
            np.array(values), np.full(3, 1.0 / 3.0), exact_degree=3)


def test_two_atom_measure_degenerates_at_degree_two():
    dens = hier.IntermediateDensity.from_pushforward(
        np.array([-1.0, 1.0]), np.array([0.5, 0.5]), exact_degree=99)
    with pytest.raises(DegenerateMeasureError) as err:
        hier.build_intermediate_basis(dens, 3)
    assert err.value.degree == 2


# ---------------------------------------------------------------------------
# sampled density


def test_sampled_density_matches_normal_curve():
    s = linear_gaussian_surrogate()
    dens = hier.density_by_sampling(s, 100_000, seed=1)
    zz = np.linspace(-3.0, 3.0, 1201)
    ref = np.exp(-zz ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert float(np.max(np.abs(dens.density(zz) - ref))) < 0.02


def test_sampled_density_moment_consistency():
    s = linear_gaussian_surrogate()
    dens = hier.density_by_sampling(s, 100_000, seed=1)
    basis, _ = hier.build_intermediate_basis(dens, 3)
    assert basis.gamma[0] == pytest.approx(0.0, abs=0.01)   # fitted mean
    assert basis.kappa[1] == pytest.approx(1.0, abs=0.02)   # fitted variance


def test_sampled_density_is_normalized():
    s = linear_gaussian_surrogate()
    dens = hier.density_by_sampling(s, 100_000, seed=3)
    lo, hi = dens.support
    zz = np.linspace(lo, hi, 20001)
    rho = dens.density(zz)
    assert np.all(rho >= 0.0)
    assert float(np.trapezoid(rho, zz)) == pytest.approx(1.0, abs=1e-6)


def test_route_agreement_on_bounded_surrogate():
    # recurrence coefficients from both density routes, uniform block
    block = algebraic_model(lambda xi: xi[..., :1], (UNIF01,), 1)
    s = hier.extract_block_surrogate(block, 1)
    bq, _ = hier.build_intermediate_basis(hier.density_by_quadrature(s), 3)
    bs, _ = hier.build_intermediate_basis(
        hier.density_by_sampling(s, 100_000, seed=0), 3)
    np.testing.assert_allclose(bs.gamma, bq.gamma, atol=0.02)
    np.testing.assert_allclose(bs.kappa, bq.kappa, atol=0.02)


def test_sampled_route_truncates_heavy_tails():
    # the outlier clip at quartiles +- 3 IQR drops upper-tail mass of the
    # skewed surrogate, biasing the fitted variance low; the quadrature
    # route keeps the exact moments
    s = skewed_surrogate()
    dens = hier.density_by_sampling(s, 100_000, seed=0)
    basis, _ = hier.build_intermediate_basis(dens, 2)
    assert 0.85 < float(basis.kappa[1]) < 0.97
    bq, _ = hier.build_intermediate_basis(hier.density_by_quadrature(s), 2)
    assert bq.kappa[1] == pytest.approx(1.0, abs=1e-10)


def test_sampled_density_input_validation():
    s = linear_gaussian_surrogate()
    with pytest.raises(ValueError, match="at least"):
        hier.density_by_sampling(s, 5000)
    # a constant block is rejected upstream, at normalization
    block = algebraic_model(lambda xi: 1.0 + 1e-300 * xi[..., :1], (GAUSS,), 1)
    with pytest.raises(ValueError, match="variance is zero"):
        hier.extract_block_surrogate(block, 1)
    # the degenerate-sample guard itself, on a hand-built surrogate
    flat = hier.Surrogate(expansion=hermite_expansion([1.0, 1.0]), a=1.0,
                          b=1.0, zeta=hermite_expansion([0.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate"):
        hier.density_by_sampling(flat, 10_000, seed=0)


# ---------------------------------------------------------------------------
# propagation


def test_identity_system_preserves_unit_moments():
    s = skewed_surrogate()
    dens = hier.density_by_quadrature(s)
    basis, _ = hier.build_intermediate_basis(dens, 3)
    system = algebraic_model(lambda z: z[..., :1],
                             (dens.as_distribution(),), 1)
    exp = hier.propagate_dc(system, (basis,), 3)
    mean, var = exp.mean_variance()
    assert float(mean[0]) == pytest.approx(0.0, abs=1e-10)
    assert float(var[0]) == pytest.approx(1.0, abs=1e-8)


def test_sum_of_independent_intermediates_has_variance_two():
    d1 = hier.density_by_quadrature(skewed_surrogate())
    block = algebraic_model(lambda xi: xi[..., :1], (UNIF01,), 1)
    d2 = hier.density_by_quadrature(hier.extract_block_surrogate(block, 1))
    b1, _ = hier.build_intermediate_basis(d1, 2)
    b2, _ = hier.build_intermediate_basis(d2, 2)
    system = hier.demo_system("sum", [d1, d2])
    exp = hier.propagate_dc(system, (b1, b2), 2)
    mean, var = exp.mean_variance()
    assert float(mean[0]) == pytest.approx(0.0, abs=1e-8)
    assert float(var[0]) == pytest.approx(2.0, abs=1e-8)


def test_two_level_toy_matches_flat_monte_carlo():
    # block y = xi + 0.3 xi^2 - 0.3 drives an RC time constant
    # tau = tau0 (1 + 0.1 zeta); compare against exact-solution sampling
    tau0 = 1e-3
    s = skewed_surrogate()
    assert s.b == pytest.approx(np.sqrt(1.18), abs=1e-12)
    dens = hier.density_by_quadrature(s)
    basis, _ = hier.build_intermediate_basis(dens, 3)
    system = hier.demo_system("rc_zeta", [dens], r=1e3, c=1e-6, vin=1.0,
                              spread=0.1)
    idx = total_degree_index_set(1, 3)
    x0 = GpcExpansion(idx, np.zeros((len(idx), 1)), (basis,))
    sol = hier.propagate_transient(system, (basis,), 3, (0.0, tau0), x0=x0,
                                   options=SolverOptions(lte_tol=1e-7))
    mean, var = sol.final().mean_variance()
    h_mean, h_std = float(mean[0]), float(np.sqrt(var[0]))

    rng = np.random.Generator(np.random.PCG64(42))
    xi = rng.standard_normal(100_000)
    zeta = (xi + 0.3 * xi ** 2 - 0.3) / np.sqrt(1.18)
    v = 1.0 - np.exp(-1.0 / (1.0 + 0.1 * zeta))
    se_mean = v.std(ddof=1) / np.sqrt(v.size)
    se_std = np.sqrt(max(np.mean((v - v.mean()) ** 4)
                         - v.var(ddof=1) ** 2, 0.0) / v.size) \
        / (2.0 * v.std(ddof=1))
    assert abs(h_mean - v.mean()) < 3.0 * se_mean
    assert abs(h_std - v.std(ddof=1)) < max(3.0 * se_std,
                                            0.005 * v.std(ddof=1))


def test_unknown_demo_system_is_an_unknown_model():
    # one resolver serves builtin models and demo systems alike
    with pytest.raises(UnknownModelError,
                       match="no demo system named 'ladder'; available: "
                             "rc_zeta, sum"):
        hier.demo_system("ladder", [])


def test_demo_system_validation():
    d1 = hier.density_by_quadrature(skewed_surrogate())
    with pytest.raises(KeyError, match="no demo system"):
        hier.demo_system("ladder", [d1])
    with pytest.raises(ValueError, match="exactly one"):
        hier.demo_system("rc_zeta", [d1, d1])


def test_demo_system_takes_the_builtin_spelling():
    d1 = hier.density_by_quadrature(skewed_surrogate())
    assert hier.demo_system("builtin:rc-zeta", [d1]).labels == ("v_out",)


# ---------------------------------------------------------------------------
# serialization


def test_surrogate_round_trips_through_expansion_json():
    s = skewed_surrogate()
    doc = expansion_to_json(s.expansion)
    back = hier.normalize_surrogate(expansion_from_json(doc))
    assert back.a == pytest.approx(s.a, abs=1e-14)
    assert back.b == pytest.approx(s.b, rel=1e-14)
    np.testing.assert_allclose(back.zeta.scalar_coefficients(),
                               s.zeta.scalar_coefficients(), atol=1e-14)
