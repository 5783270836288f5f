"""Anchored decomposition, variance screen, and sensitivity indices."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsim import anova, cli, netlist
from uqsim.montecarlo import sample_parameters
from uqsim.polychaos import (Distribution, GpcExpansion, MultiIndexSet,
                             make_standard_basis)
from uqsim.stsolver import SolverError, newton_dc, recover_coefficients, \
    select_testing_points, standard_bases

GAUSS = Distribution.gaussian(0.0, 1.0)
UNIF = Distribution.uniform(-1.0, 1.0)
BETA = Distribution.beta(2.0, 3.0)


# ---------------------------------------------------------------------------
# quantile transforms (Distribution.inv_cdf and cdf, which anchor_point
# reads) and anchors


def test_cdf_transform_uniform_is_identity():
    dist = Distribution.uniform(0.0, 1.0)
    to_param, to_unit = dist.inv_cdf, dist.cdf
    u = np.linspace(0.01, 0.99, 23)
    np.testing.assert_allclose(to_param(u), u, atol=1e-14)
    np.testing.assert_allclose(to_unit(u), u, atol=1e-14)


def test_cdf_transform_gaussian_median_and_sigma():
    to_param, to_unit = GAUSS.inv_cdf, GAUSS.cdf
    assert float(to_param(0.5)) == pytest.approx(0.0, abs=1e-14)
    # one-sigma quantile of the standard normal
    assert float(to_param(0.8413)) == pytest.approx(1.0, abs=1e-3)
    assert float(to_unit(1.0)) == pytest.approx(0.8413, abs=1e-3)


@pytest.mark.parametrize("dist", [GAUSS, UNIF, BETA,
                                  Distribution.gamma(2.5)])
def test_cdf_transform_round_trip(dist):
    to_param, to_unit = dist.inv_cdf, dist.cdf
    x = np.sort(sample_parameters((dist,), 50, seed=2).ravel())
    scale = float(np.max(np.abs(x)))
    np.testing.assert_allclose(to_param(to_unit(x)), x,
                               atol=1e-10 * max(1.0, scale))


def test_cdf_transform_round_trip_custom_density():
    tri = Distribution.custom(lambda x: 1.0 - np.abs(x), (-1.0, 1.0))
    to_param, to_unit = tri.inv_cdf, tri.cdf
    x = np.linspace(-0.9, 0.9, 19)
    np.testing.assert_allclose(to_param(to_unit(x)), x, atol=1e-10)


def test_cdf_transform_rejects_interior_zero():
    # validate=False skips the constructor probe, mirroring densities
    # assembled programmatically; the CDF table the anchor's quantile
    # reads probes them
    hollow = Distribution.custom(lambda x: 1.5 * x ** 2, (-1.0, 1.0),
                                 validate=False)
    with pytest.raises(ValueError, match="strictly positive"):
        anova.anchor_point((hollow,), 0.5)


def test_anchor_point_median_default():
    anchor = anova.anchor_point((GAUSS, UNIF), 0.5)
    np.testing.assert_allclose(anchor, [0.0, 0.0], atol=1e-14)
    assert anchor.shape == (2,) and not anchor.flags.writeable


def test_anchor_point_vector_quantiles():
    anchor = anova.anchor_point((GAUSS, Distribution.uniform(0.0, 2.0)),
                                [0.8413, 0.25])
    assert float(anchor[0]) == pytest.approx(1.0, abs=1e-3)
    assert float(anchor[1]) == pytest.approx(0.5, abs=1e-12)


def test_anchor_point_rejects_boundary_quantiles():
    for p_unit in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="strictly inside"):
            anova.anchor_point((GAUSS,), p_unit)


def test_anchor_point_rejects_zero_density_location():
    hollow = Distribution.custom(lambda x: 1.5 * x ** 2, (-1.0, 1.0),
                                 validate=False)
    with pytest.raises(ValueError):
        anova.anchor_point((hollow,), 0.5)


def test_anchor_where_the_density_vanishes_is_refused():
    with pytest.raises(ValueError, match="anchor coordinate 0 falls where "
                                         "the density vanishes"):
        anova.adaptive_anova(lambda x: x[0], (Distribution.uniform(0.0, 1.0),),
                             m=1, sigma=0.0, order=1, anchor=[2.0])


# ---------------------------------------------------------------------------
# anchored restrictions and composition


def anchor2():
    return anova.anchor_point((GAUSS, GAUSS), 0.5)


def anchored_subterm(g, subset, anchor, distributions, order):
    """Expansion of g restricted to `subset`, the rest frozen at the
    anchor, from a selection of its own: the per-subset reference that
    adaptive_anova's terms are compared against.  g maps a (d, K) array
    of K points to their K values; subset () gives the zero-variable
    expansion holding g(anchor)."""
    subset = tuple(sorted(int(k) for k in subset))
    bases = standard_bases(tuple(distributions), order)
    tps = select_testing_points(tuple(bases[k] for k in subset), order)
    points = np.tile(anchor, (tps.n_points, 1))
    points[:, list(subset)] = tps.points
    values = np.broadcast_to(np.asarray(g(points.T), dtype=float),
                             (len(points),))
    return recover_coefficients(values.reshape(-1, 1), tps)


def test_anchored_subterm_empty_subset_is_anchor_run():
    anchor = anchor2()
    exp = anchored_subterm(lambda x: 5.0 + x[0], (), anchor,
                           (GAUSS, GAUSS), 2)
    assert exp.index_set.dimension == 0
    assert float(exp.coefficients[0, 0]) == pytest.approx(5.0, abs=1e-14)


def test_anchored_subterm_additive_slice():
    exp = anchored_subterm(lambda x: x[0] + x[1], (0,), anchor2(),
                           (GAUSS, GAUSS), 2)
    coeffs = exp.scalar_coefficients()
    np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-12)


def test_anchored_subterm_product_slice_vanishes():
    # freezing the second factor at its zero anchor kills the product
    exp = anchored_subterm(lambda x: x[0] * x[1], (0,), anchor2(),
                           (GAUSS, GAUSS), 2)
    np.testing.assert_allclose(exp.scalar_coefficients(), 0.0, atol=1e-12)


def test_compose_term_recovers_pure_interaction():
    anchor = anchor2()
    dists = (GAUSS, GAUSS)

    def g(x):
        return x[0] * x[1]

    lower = {}
    for s in [(0,), (1,)]:
        ghat = anchored_subterm(g, s, anchor, dists, 2)
        lower[s] = anova.compose_term(s, ghat, 0.0, {})
        assert lower[s].variance == pytest.approx(0.0, abs=1e-24)
    ghat = anchored_subterm(g, (0, 1), anchor, dists, 2)
    term = anova.compose_term((0, 1), ghat, 0.0, lower)
    idx = term.expansion.index_set
    coeffs = term.expansion.scalar_coefficients()
    assert coeffs[idx.position((1, 1))] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(len(idx), dtype=bool)
    mask[idx.position((1, 1))] = False
    np.testing.assert_allclose(coeffs[mask], 0.0, atol=1e-12)


def test_compose_term_additive_interaction_vanishes():
    anchor = anchor2()
    dists = (GAUSS, GAUSS)

    def g(x):
        return x[0] + x[1]

    g0 = float(g(anchor))
    lower = {}
    for s in [(0,), (1,)]:
        ghat = anchored_subterm(g, s, anchor, dists, 2)
        lower[s] = anova.compose_term(s, ghat, g0, {})
    ghat = anchored_subterm(g, (0, 1), anchor, dists, 2)
    term = anova.compose_term((0, 1), ghat, g0, lower)
    np.testing.assert_allclose(term.expansion.scalar_coefficients(), 0.0,
                               atol=1e-10)
    assert term.variance == pytest.approx(0.0, abs=1e-20)


def test_compose_term_missing_subset_is_internal_error():
    ghat = anchored_subterm(lambda x: x[0] * x[1], (0, 1), anchor2(),
                            (GAUSS, GAUSS), 2)
    with pytest.raises(RuntimeError, match="invariant"):
        anova.compose_term((0, 1), ghat, 0.0, {})
    # declaring the subsets pruned treats them as zero instead
    term = anova.compose_term((0, 1), ghat, 0.0, {}, pruned=[(0,), (1,)])
    assert term.variance == pytest.approx(1.0, abs=1e-12)


def test_factored_bilinear_decomposition_reproduces_function():
    dists = (GAUSS, GAUSS)

    def g(x):
        return (1.0 + x[0]) * (1.0 + x[1])

    decomp, exp = anova.adaptive_anova(g, dists, m=2, sigma=0.0, order=2)
    assert decomp.g0 == pytest.approx(1.0, abs=1e-14)
    by_subset = {t.subset: t for t in decomp.terms}
    np.testing.assert_allclose(
        by_subset[(0,)].expansion.scalar_coefficients(), [0, 1, 0],
        atol=1e-12)
    np.testing.assert_allclose(
        by_subset[(1,)].expansion.scalar_coefficients(), [0, 1, 0],
        atol=1e-12)
    rng = np.random.Generator(np.random.PCG64(5))
    probes = rng.normal(size=(100, 2))
    vals = exp.eval_many(probes).ravel()
    ref = np.array([g(p) for p in probes])
    np.testing.assert_allclose(vals, ref, atol=1e-10)


# ---------------------------------------------------------------------------
# the adaptive loop


def test_count_identities_without_screen():
    def g(x):
        return np.sin(x[0]) + x[1] * x[2] + 0.5 * x[3]

    decomp, _ = anova.adaptive_anova(g, (UNIF,) * 4, m=2, sigma=0.0,
                                     order=3)
    assert decomp.n_by_level == (4, 6)          # C(4,1), C(4,2)
    assert len(decomp.terms) == 10
    assert decomp.pruned == ()


def test_g_sees_one_stack_per_level():
    # the 3-node rule of order 2 holds the median anchor 1.0 exactly, so
    # the subsets' testing points repeat the anchor and each other
    calls = []

    def g(x):
        calls.append(np.array(x))
        return x[0] + x[1] * x[2] + np.sin(x[2])

    decomp, _ = anova.adaptive_anova(g, (Distribution.gaussian(1.0, 0.05),)
                                     * 3, m=2, sigma=0.0, order=2)
    assert len(calls) == 1 + decomp.m == 3
    assert all(x.ndim == 2 and x.shape[0] == 3 for x in calls)
    points = np.concatenate([x.T for x in calls])
    assert len({p.tobytes() for p in points}) == len(points)
    assert decomp.n_evaluations == len(points)
    # anchor, 2 new points per level-1 subset, 1 per level-2 subset
    assert decomp.n_evaluations == 1 + 3 * 2 + 3 * 1
    assert [x.shape[1] for x in calls] == [1, 3 * 2, 3 * 1]


def ladder_netlist(stages: int) -> str:
    """Diode ladder with one relative resistor variation per stage."""
    lines = ["V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        lines.append(f"R{k} n{k - 1} n{k} 1k "
                     "variation=relative:uniform(0.9,1.1)")
        lines.append(f"D{k} n{k} 0 is=1e-9 nvt=0.02585")
    return "\n".join(lines) + "\n"


def test_level_stack_equals_one_subset_per_call():
    # a stacked Newton treats its rows independently, so solving all of a
    # level's points in one stack gives every term the bits that one
    # call per subset gives it
    model = netlist.elaborate(netlist.parse_netlist(ladder_netlist(4)))
    calls = []

    def g(x):
        calls.append(x.shape[1])
        return newton_dc(model, x.T)[:, -2]

    dists = model.distributions
    decomp, _ = anova.adaptive_anova(g, dists, m=2, sigma=0.0, order=2)
    assert len(calls) == 3 and decomp.n_by_level == (4, 6)
    assert decomp.g0 == float(g(decomp.anchor[:, None])[0])
    ref = {}
    for term in decomp.terms:
        ghat = anchored_subterm(g, term.subset, decomp.anchor, dists, 2)
        ref[term.subset] = anova.compose_term(term.subset, ghat, decomp.g0,
                                              ref)
        assert np.array_equal(term.expansion.coefficients,
                              ref[term.subset].expansion.coefficients)
        assert term.variance == ref[term.subset].variance


def test_one_selection_per_subset_signature(monkeypatch):
    # identical marginals give every subset of one size the same testing
    # points, so the selection runs once per size, and the result is the
    # one a fresh selection per subset gives
    def g(x):
        return np.sin(x[0]) + x[1] * x[2] + 0.5 * x[3] * x[4]

    def run():
        return anova.adaptive_anova(g, (UNIF,) * 5, m=2, sigma=0.0,
                                    order=3)

    sizes = []
    select, points = anova.select_testing_points, anova._restriction_points

    def counting(bases, order, condition_cap):
        sizes.append(len(bases))
        return select(bases, order, condition_cap)

    monkeypatch.setattr(anova, "select_testing_points", counting)
    decomp, exp = run()
    assert decomp.n_by_level == (5, 10)
    assert sorted(sizes) == [1, 2]

    monkeypatch.setattr(anova, "_restriction_points",
                        lambda *args: points(*args[:-1], {}))
    fresh_decomp, fresh_exp = run()
    assert len(sizes) == 2 + 15
    assert np.array_equal(exp.coefficients, fresh_exp.coefficients)
    assert decomp.n_evaluations == fresh_decomp.n_evaluations


def test_memoized_selection_keeps_each_subsets_bases():
    # equal marginals share one selection; each term still expands on the
    # bases of its own inputs
    dists = tuple(Distribution.uniform(-1.0, 1.0) for _ in range(3))
    decomp, exp = anova.adaptive_anova(lambda x: x[0] * x[1] + x[2], dists,
                                       m=2, sigma=0.0, order=2)
    for term in decomp.terms:
        assert all(b.distribution is dists[k] for b, k in
                   zip(term.expansion.bases, term.subset))
    assert all(b.distribution is dist
               for b, dist in zip(exp.bases, dists))


def test_engineered_screen_reaches_published_counts():
    # 9 strong mains, 44 weak mains, 36 strong pairs within the strong set
    strong = list(range(9))
    weak = list(range(9, 53))
    pairs = [(i, j) for i in strong for j in strong if i < j]

    def g(x):
        out = sum(x[i] for i in strong) + 0.01 * sum(x[i] for i in weak)
        return out + 0.05 * sum(x[i] * x[j] for i, j in pairs)

    dists = (GAUSS,) * 53
    decomp, exp = anova.adaptive_anova(g, dists, m=3, sigma=1e-3, order=3)
    assert decomp.n_by_level == (53, 36, 0)
    assert 1 + len(decomp.terms) == 90
    assert anova.sample_count(decomp.n_by_level, 3) == 573
    assert decomp.n_evaluations == 573
    # weak mains and all pairs fall under the screen; strong mains survive
    assert set(decomp.active[1]) == {(i,) for i in strong}
    assert len(decomp.pruned) == 44 + 36
    _, var = exp.mean_variance()
    exact = 9.0 + 44 * 1e-4 + 36 * 2.5e-3
    assert float(var[0]) == pytest.approx(exact, rel=1e-10)


def test_telescoping_exactness_with_full_depth():
    dists = (GAUSS, UNIF, BETA)

    def g(x):
        return 2.0 + x[0] - x[1] * x[2] + x[0] * x[1] * x[2] + x[2] ** 2

    decomp, exp = anova.adaptive_anova(g, dists, m=3, sigma=0.0, order=3)
    probes = sample_parameters(dists, 100, seed=11)
    vals = exp.eval_many(probes).ravel()
    ref = np.array([g(p) for p in probes])
    np.testing.assert_allclose(vals, ref, atol=1e-8)


def test_terms_vanish_at_anchor_coordinates():
    # exact only when the basis resolves g, so keep g polynomial
    dists = (GAUSS, UNIF, BETA)
    anchor = anova.anchor_point(dists, 0.5)

    def g(x):
        return (1.0 + 0.3 * x[0] ** 2) * (1.0 + x[1]) + x[2] ** 3 * x[0]

    decomp, _ = anova.adaptive_anova(g, dists, m=3, sigma=0.0, order=4,
                                     anchor=anchor)
    for term in decomp.terms:
        pts = sample_parameters(tuple(dists[k] for k in term.subset), 20,
                                seed=7)
        for slot, k in enumerate(term.subset):
            frozen = pts.copy()
            frozen[:, slot] = anchor[k]
            vals = term.expansion.eval_many(frozen).ravel()
            assert np.max(np.abs(vals)) < 1e-8


def test_assembly_matches_direct_projection():
    dists = (GAUSS, UNIF, BETA)

    def g(x):
        return 1.0 + x[0] * x[1] + 0.5 * x[2] ** 3 - x[0] * x[1] * x[2]

    _, assembled = anova.adaptive_anova(g, dists, m=3, sigma=0.0, order=3)
    tps = select_testing_points(standard_bases(dists, 3), 3)
    vals = np.array([g(p) for p in tps.points]).reshape(-1, 1)
    direct = recover_coefficients(vals, tps)
    direct_by_alpha = {tuple(a): float(c) for a, c in
                       zip(tps.index_set.indices,
                           direct.scalar_coefficients())}
    for alpha, c in zip(assembled.index_set.indices,
                        assembled.scalar_coefficients()):
        assert float(c) == pytest.approx(
            direct_by_alpha.pop(tuple(alpha)), abs=1e-9)
    for leftover in direct_by_alpha.values():
        assert leftover == pytest.approx(0.0, abs=1e-9)


def test_full_screen_keeps_univariate_terms():
    def g(x):
        return 1e-6 * x[0] + 1e-6 * x[1]

    decomp, exp = anova.adaptive_anova(g, (GAUSS, GAUSS), m=2, sigma=0.9,
                                       order=2)
    assert decomp.n_by_level == (2, 0)
    assert len(decomp.terms) == 2
    assert set(decomp.pruned) >= {(1,)}     # at least the smaller share
    _, var = exp.mean_variance()
    assert float(var[0]) == pytest.approx(2e-12, rel=1e-6)


def test_adaptive_anova_validates_inputs():
    def g(x):
        return x[0]

    with pytest.raises(ValueError, match="m="):
        anova.adaptive_anova(g, (GAUSS,), m=2, sigma=0.0, order=2)
    for sigma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            anova.adaptive_anova(g, (GAUSS,), m=1, sigma=sigma, order=2)
    for anchor in (0.0, [0.0], [[0.0, 0.0]], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match=r"anchor .*shape \(2,\)"):
            anova.adaptive_anova(g, (GAUSS, GAUSS), m=1, sigma=0.0, order=2,
                                 anchor=anchor)


def test_solver_errors_carry_the_subset_tag():
    def g(x):
        return x[0]

    with pytest.raises(SolverError, match=r"subset \(0,\)"):
        anova.adaptive_anova(g, (GAUSS, GAUSS), m=1, sigma=0.0, order=3,
                             condition_cap=1.0 + 1e-9)


def test_sample_count_formula():
    assert anova.sample_count([53, 36, 0], 3) == 573
    assert anova.sample_count([53, 1378, 23426], 3) == 482513
    assert anova.sample_count([], 3) == 1
    assert anova.sample_count([], 9) == 1


# ---------------------------------------------------------------------------
# sensitivity indices


def test_sensitivities_single_input():
    def g(x):
        return x[0]

    _, exp = anova.adaptive_anova(g, (GAUSS, GAUSS), m=2, sigma=0.0,
                                  order=2)
    S, T = anova.sensitivities(exp)
    np.testing.assert_allclose(S, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(T, [1.0, 0.0], atol=1e-12)


def test_sensitivities_interaction_bookkeeping():
    basis = make_standard_basis(GAUSS, 1)
    idx = MultiIndexSet.explicit([(0, 0), (1, 0), (1, 1)], 2)
    exp = GpcExpansion(idx, np.array([[0.0], [1.0], [1.0]]), (basis, basis))
    S, T = anova.sensitivities(exp)
    np.testing.assert_allclose(S, [0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(T, [1.0, 0.5], atol=1e-14)


def test_sensitivities_reject_constant():
    basis = make_standard_basis(GAUSS, 1)
    idx = MultiIndexSet.explicit([(0,)], 1)
    exp = GpcExpansion(idx, np.array([[3.0]]), (basis,))
    with pytest.raises(ValueError, match="zero-variance"):
        anova.sensitivities(exp)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_sensitivity_bounds(coeffs):
    if sum(c * c for c in coeffs[1:]) < 1e-8:
        return
    basis = make_standard_basis(GAUSS, 2)
    idx = MultiIndexSet.explicit([(0, 0), (1, 0), (0, 2), (1, 1)], 2)
    exp = GpcExpansion(idx, np.asarray(coeffs).reshape(-1, 1),
                       (basis, basis))
    S, T = anova.sensitivities(exp)
    assert np.all(S >= -1e-12) and np.all(T <= 1.0 + 1e-12)
    assert np.all(S <= T + 1e-12)
    assert float(np.sum(S)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the nonlinear benchmark with known indices


def ishigami(x, a=7.0, b=0.1):
    return np.sin(x[0]) + a * np.sin(x[1]) ** 2 + b * x[2] ** 4 * np.sin(x[0])


def ishigami_reference(a=7.0, b=0.1):
    v1 = 0.5 * (1.0 + b * np.pi ** 4 / 5.0) ** 2
    v2 = a ** 2 / 8.0
    v13 = 8.0 * b ** 2 * np.pi ** 8 / 225.0
    total = v1 + v2 + v13
    return np.array([v1 / total, v2 / total, 0.0]), v13 / total


def test_ishigami_sensitivities_with_off_median_anchor():
    dists = (Distribution.uniform(-np.pi, np.pi),) * 3
    anchor = anova.anchor_point(dists, 0.75)
    decomp, exp = anova.adaptive_anova(ishigami, dists, m=3, sigma=1e-4,
                                       order=9, anchor=anchor)
    S, T = anova.sensitivities(exp)
    S_ref, T3_ref = ishigami_reference()
    np.testing.assert_allclose(S, S_ref, atol=0.02)
    assert float(T[2]) == pytest.approx(T3_ref, abs=0.02)
    assert decomp.n_evaluations == anova.sample_count(decomp.n_by_level, 9)


def test_ishigami_median_anchor_hides_the_interaction():
    # at the median anchor sin(q1) = 0, so the third-coordinate slice is
    # constant, its term is screened out, and the {1,3} interaction is
    # never explored: a documented pathology of anchored screening
    dists = (Distribution.uniform(-np.pi, np.pi),) * 3
    decomp, exp = anova.adaptive_anova(ishigami, dists, m=3, sigma=1e-4,
                                       order=9)
    S, T = anova.sensitivities(exp)
    assert float(T[2]) < 0.01
    assert (2,) in decomp.pruned


# ---------------------------------------------------------------------------
# reporting


def test_decomposition_report_shape():
    def g(x):
        return x[0] + 0.5 * x[0] * x[1]

    decomp, exp = anova.adaptive_anova(g, (GAUSS, GAUSS), m=2, sigma=0.0,
                                       order=2)
    parsed = json.loads(cli._anova_report(decomp, exp))
    assert set(parsed) == {"g0", "terms", "S", "T", "N_samples"}
    assert len(parsed["S"]) == 2 and len(parsed["T"]) == 2
    assert parsed["N_samples"] == decomp.n_evaluations
    subsets = [tuple(t["s"]) for t in parsed["terms"]]
    assert subsets == [(0,), (1,), (0, 1)]
    for t in parsed["terms"]:
        assert t["variance"] >= 0.0 and 0.0 <= t["theta"] <= 1.0


def test_report_of_a_constant_response_has_zero_sensitivities():
    # sensitivities() refuses a zero-variance expansion; the report
    # attributes nothing instead
    decomp, exp = anova.adaptive_anova(lambda x: np.full(x.shape[1], 2.0),
                                       (GAUSS, GAUSS), m=2, sigma=0.0,
                                       order=2)
    parsed = json.loads(cli._anova_report(decomp, exp))
    assert parsed["g0"] == 2.0
    assert parsed["S"] == [0.0, 0.0] and parsed["T"] == [0.0, 0.0]


def test_sensitivity_csv_format():
    S = np.array([0.25, 0.5])
    T = np.array([0.5, 0.75])
    text = cli._sensitivity_csv(("r_load", "c_filter"), S, T)
    lines = text.strip().split("\n")
    assert lines[0] == "input,main_sensitivity,total_sensitivity"
    cells = lines[1].split(",")
    assert cells[0] == "r_load"
    assert float(cells[1]) == 0.25 and float(cells[2]) == 0.5
    assert len(lines) == 3
