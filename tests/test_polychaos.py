"""Basis construction, quadrature, index sets, expansion arithmetic."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uqsim import polychaos as pc


# --- oracle moments (independent of the package's recurrence code) ---------

def moment_oracle(dist: pc.Distribution, m: int) -> float:
    """E[X^m] from classical closed forms."""
    if dist.kind == "gaussian":
        mu, sig = dist.params
        mom = [1.0, mu]
        for k in range(2, m + 1):
            mom.append(mu * mom[k - 1] + (k - 1) * sig * sig * mom[k - 2])
        return mom[m]
    if dist.kind == "uniform":
        lo, hi = dist.params
        return (hi ** (m + 1) - lo ** (m + 1)) / ((m + 1) * (hi - lo))
    if dist.kind == "gamma":
        (k,) = dist.params
        out = 1.0
        for i in range(m):
            out *= k + i
        return out
    if dist.kind == "beta":
        a, b = dist.params
        out = 1.0
        for i in range(m):
            out *= (a + i) / (a + b + i)
        return out
    raise ValueError(dist.kind)


FAMILIES = [
    pc.Distribution.gaussian(0.0, 1.0),
    pc.Distribution.gaussian(0.3, 1.7),
    pc.Distribution.uniform(-1.0, 1.0),
    pc.Distribution.uniform(2.0, 4.0),
    pc.Distribution.gamma(3.0),
    pc.Distribution.beta(2.0, 4.0),
]


# --- named recurrences ------------------------------------------------------

def test_hermite_recurrence_matches_probabilists_values():
    b = pc.make_standard_basis(pc.Distribution.gaussian(0, 1), 2)
    assert np.allclose(b.gamma, 0.0, atol=1e-15)
    assert np.allclose(b.kappa, [1.0, 1.0, 2.0], atol=1e-15)
    # phi_2(x) = (x^2 - 1)/sqrt(2)
    x = np.linspace(-3, 3, 11)
    assert np.allclose(b.eval_table(x)[..., 2], (x * x - 1) / math.sqrt(2),
                       atol=1e-13)


def test_legendre_recurrence_and_normalization():
    b = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 1)
    x = np.linspace(-1, 1, 7)
    assert np.allclose(b.eval_table(x)[..., 1], math.sqrt(3) * x, atol=1e-14)
    b3 = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 3)
    assert np.allclose(b3.kappa, [1.0, 1 / 3, 4 / 15, 9 / 35], atol=1e-15)


def test_shifted_uniform_family():
    b = pc.make_standard_basis(pc.Distribution.uniform(2, 4), 1)
    x = np.linspace(2, 4, 7)
    assert np.allclose(b.eval_table(x)[..., 1], math.sqrt(3) * (x - 3),
                       atol=1e-13)


def test_beta_1_1_equals_uniform_0_1():
    bb = pc.make_standard_basis(pc.Distribution.beta(1, 1), 4)
    bu = pc.make_standard_basis(pc.Distribution.uniform(0, 1), 4)
    assert np.allclose(bb.gamma, bu.gamma, atol=1e-14)
    assert np.allclose(bb.kappa, bu.kappa, atol=1e-14)


def test_custom_family_refused_by_closed_form_constructor():
    d = pc.Distribution.custom(lambda x: np.full_like(np.asarray(x, float), 0.5),
                               (-1.0, 1.0))
    with pytest.raises(pc.UnsupportedFamilyError):
        pc.make_standard_basis(d, 2)


@given(order=st.integers(0, 8),
       mu=st.floats(-5, 5), sig=st.floats(0.1, 10))
@settings(max_examples=25, deadline=None)
def test_orthonormality_gaussian_property(order, mu, sig):
    b = pc.make_standard_basis(pc.Distribution.gaussian(mu, sig), order)
    rule = pc.golub_welsch(b, order + 1)
    table = b.eval_table(rule.points)
    gram = table.T @ (rule.weights[:, None] * table)
    assert np.allclose(gram, np.eye(order + 1), atol=1e-9)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: f"{d.kind}{d.params}")
def test_orthonormality_all_families(dist):
    order = 7
    b = pc.make_standard_basis(dist, order)
    rule = pc.golub_welsch(b, order + 1)
    table = b.eval_table(rule.points)
    gram = table.T @ (rule.weights[:, None] * table)
    assert np.allclose(gram, np.eye(order + 1), atol=1e-9)


# --- Stieltjes --------------------------------------------------------------

def test_stieltjes_blackbox_normal():
    d = pc.Distribution.custom(
        lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi),
        (-math.inf, math.inf))
    b = pc.stieltjes_basis(d, 3)
    assert np.allclose(b.gamma, 0.0, atol=1e-8)
    assert np.allclose(b.kappa, [1, 1, 2, 3], atol=1e-8)


def test_stieltjes_reproduces_named_families():
    for dist in FAMILIES:
        want = pc.make_standard_basis(dist, 5)
        got = pc.stieltjes_basis(dist, 5)
        assert np.allclose(got.gamma, want.gamma,
                           rtol=1e-7, atol=1e-7), dist.kind
        assert np.allclose(got.kappa, want.kappa,
                           rtol=1e-7, atol=1e-7), dist.kind


def test_stieltjes_degenerate_measure_names_degree():
    dirac_like = pc.Distribution.gaussian(0.0, 1e-14)
    with pytest.raises(pc.DegenerateMeasureError) as err:
        pc.stieltjes_basis(dirac_like, 2)
    assert err.value.degree == 1
    assert "degree 1" in str(err.value)


@pytest.mark.parametrize("make,args,name", [
    (pc.Distribution.gaussian, (math.inf, 1.0), "mean"),
    (pc.Distribution.gaussian, (math.nan, 1.0), "mean"),
    (pc.Distribution.gaussian, (0.0, math.inf), "stddev"),
    (pc.Distribution.gaussian, (0.0, math.nan), "stddev"),
    (pc.Distribution.uniform, (-math.inf, 0.0), "lo"),
    (pc.Distribution.uniform, (math.nan, 1.0), "lo"),
    (pc.Distribution.uniform, (0.0, math.inf), "hi"),
    (pc.Distribution.gamma, (math.inf,), "shape"),
    (pc.Distribution.gamma, (math.nan,), "shape"),
    (pc.Distribution.beta, (math.inf, 2.0), "a"),
    (pc.Distribution.beta, (2.0, math.nan), "b"),
])
def test_non_finite_parameters_are_rejected(make, args, name):
    # each was accepted (or, for a NaN lo, refused as "lo < hi") and failed
    # later in the Gauss rule or the basis
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(*args)


def test_nan_recurrence_is_degenerate():
    # the floor test kappa <= KAPPA_FLOOR let NaN through to a NaN basis
    kappa = np.array([1.0, np.nan, 1.0])
    with pytest.raises(pc.DegenerateMeasureError) as err:
        pc._basis_from_monic(np.zeros(3), kappa, 2, None)
    assert err.value.degree == 1


def test_stieltjes_two_atom_measure_degenerates_at_two():
    # a two-point measure supports degrees 0 and 1 only
    rule = pc.QuadratureRule(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1,
                             exact_degree=99)
    with pytest.raises(pc.DegenerateMeasureError) as err:
        pc.stieltjes_basis(None, 3, integrator=rule)
    assert err.value.degree == 2


def test_stieltjes_rejects_underresolved_integrator():
    rule = pc.golub_welsch(pc.make_standard_basis(pc.Distribution.gaussian(0, 1), 3), 3)
    with pytest.raises(ValueError, match="resolves degree"):
        pc.stieltjes_basis(None, 3, integrator=rule)


# --- Gauss rules ------------------------------------------------------------

def test_gauss_hermite_2_and_3_closed_forms():
    b = pc.make_standard_basis(pc.Distribution.gaussian(0, 1), 3)
    r2 = pc.golub_welsch(b, 2)
    assert np.allclose(r2.points, [-1.0, 1.0], atol=1e-10)
    assert np.allclose(r2.weights, [0.5, 0.5], atol=1e-10)
    r3 = pc.golub_welsch(b, 3)
    s3 = math.sqrt(3.0)
    assert np.allclose(r3.points, [-s3, 0.0, s3], atol=1e-10)
    assert np.allclose(r3.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-10)


def test_gauss_legendre_2_closed_form():
    b = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 2)
    r = pc.golub_welsch(b, 2)
    assert np.allclose(r.points, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-10)
    assert np.allclose(r.weights, [0.5, 0.5], atol=1e-10)


def test_rule_size_exceeding_recurrence_depth_is_rejected():
    b = pc.make_standard_basis(pc.Distribution.gaussian(0, 1), 2)
    with pytest.raises(ValueError, match="order"):
        pc.golub_welsch(b, 4)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: f"{d.kind}{d.params}")
def test_gauss_exactness_all_families(dist):
    # an n-point rule integrates monomials up to degree 2n-1; "relative" is
    # measured against the moment magnitude scale so that zero odd moments
    # of symmetric families are handled fairly
    basis = pc.make_standard_basis(dist, 10)
    for n in range(1, 11):
        rule = pc.golub_welsch(basis, n)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-10
        lo, hi = dist.support
        if math.isfinite(lo) and math.isfinite(hi):
            assert np.all((rule.points >= lo - 1e-12) & (rule.points <= hi + 1e-12))
        for m in range(2 * n):
            exact = moment_oracle(dist, m)
            got = float(np.sum(rule.weights * rule.points ** m))
            scale = max(1.0, abs(exact),
                        abs(moment_oracle(dist, 2 * ((m + 1) // 2))))
            assert abs(got - exact) <= 1e-9 * scale, (dist.kind, n, m)


# --- index sets -------------------------------------------------------------

def test_total_degree_counts():
    assert len(pc.total_degree_index_set(4, 3)) == 35
    assert len(pc.total_degree_index_set(3, 3)) == 20
    assert len(pc.total_degree_index_set(2, 3)) == 10
    assert len(pc.total_degree_index_set(2, 2)) == 6


def test_graded_lex_order():
    idx = pc.total_degree_index_set(2, 2)
    want = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [tuple(r) for r in idx.indices] == want
    for k, alpha in enumerate(want):
        assert idx.position(alpha) == k


def test_index_set_overflow_guard():
    with pytest.raises(OverflowError):
        pc.total_degree_index_set(53, 10)


@given(d=st.integers(1, 7), p=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_index_set_size_and_uniqueness(d, p):
    idx = pc.total_degree_index_set(d, p)
    assert len(idx) == math.comb(p + d, d)
    seen = {tuple(r) for r in idx.indices}
    assert len(seen) == len(idx)
    assert int(idx.indices.sum(axis=1).max(initial=0)) <= p


# --- multivariate evaluation and tensor rules -------------------------------

def test_multivariate_basis_value():
    dist = pc.Distribution.uniform(-1, 1)
    bases = [pc.make_standard_basis(dist, 2)] * 2
    idx = pc.total_degree_index_set(2, 2)
    # identity coefficients: output k is basis function k
    exp = pc.GpcExpansion(idx, np.eye(len(idx)), bases)
    vals = exp.eval_many(np.array([1.0, 0.3])[None])[0]
    # alpha = (2, 0): normalized Legendre P2 at x=1 -> sqrt(5)
    assert np.isclose(vals[idx.position((2, 0))], math.sqrt(5), atol=1e-12)
    assert np.isclose(vals[idx.position((0, 0))], 1.0)


def test_value_types_freeze_copies_not_the_callers_arrays():
    points, weights = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    rule = pc.QuadratureRule(points, weights, 1)
    points[0], weights[0] = 3.0, 0.25      # the caller's arrays stay writable
    assert rule.points.tolist() == [0.0, 1.0]
    assert rule.weights.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="read-only"):
        rule.points[0] = 3.0
    # an array that is read-only already is taken without a copy
    assert pc.QuadratureRule(rule.points, rule.weights, 1).points is rule.points
    gamma, kappa, norms = np.zeros(2), np.ones(2), np.ones(2)
    basis = pc.OrthoBasis(gamma, kappa, norms, 1, None)
    gamma[0] = kappa[1] = norms[1] = 2.0
    assert basis.gamma[0] == 0.0 and basis.kappa[1] == basis.norms[1] == 1.0
    indices = np.array([[0], [1]])
    idx = pc.MultiIndexSet(1, 1, indices)
    coeffs = np.array([1.0, 2.0])
    exp = pc.GpcExpansion(idx, coeffs, (basis,))
    indices[1, 0], coeffs[0] = 5, 9.0
    assert idx.indices.tolist() == [[0], [1]]
    assert exp.coefficients.tolist() == [[1.0], [2.0]]


# --- expansions --------------------------------------------------------------

def _toy_expansion():
    dists = [pc.Distribution.gaussian(0, 1), pc.Distribution.uniform(-1, 1)]
    bases = tuple(pc.make_standard_basis(d, 3) for d in dists)
    idx = pc.total_degree_index_set(2, 3)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(len(idx), 2))
    return pc.GpcExpansion(idx, coeffs, bases)


def test_eval_grid_refuses_mismatched_axes():
    exp = _toy_expansion()
    with pytest.raises(ValueError, match="2 random inputs"):
        exp.eval_grid([np.zeros(3)])
    with pytest.raises(ValueError, match="one-dimensional"):
        exp.eval_grid([np.zeros(3), np.zeros((3, 1))])
    low = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 2)
    short = pc.GpcExpansion(exp.index_set, exp.coefficients,
                            (exp.bases[0], low))
    with pytest.raises(ValueError, match="order 2"):
        short.eval_grid([np.zeros(3), np.zeros(3)])


def test_mean_variance_reads_coefficients():
    exp = _toy_expansion()
    mean, var = exp.mean_variance()
    k0 = exp.index_set.position((0, 0))
    assert np.allclose(mean, exp.coefficients[k0])
    mask = np.arange(len(exp.index_set)) != k0
    assert np.allclose(var, np.sum(exp.coefficients[mask] ** 2, axis=0))


def test_eval_matches_direct_sum():
    exp = _toy_expansion()
    pt = np.array([0.4, -0.2])
    vals = exp.eval_many(pt[None])[0]
    H = np.prod([b.eval_table(x)[exp.index_set.indices[:, k]]
                 for k, (b, x) in enumerate(zip(exp.bases, pt))], axis=0)
    assert np.allclose(vals, H @ exp.coefficients, atol=1e-14)


@pytest.mark.parametrize("inputs,shape", [(1, (3, 2)), (1, (3, 1, 1)),
                                          (2, (6,)), (2, (3, 1))])
def test_eval_many_refuses_points_of_another_width(inputs, shape):
    # a (3, 2) stack on a one-input expansion used to fail inside reshape,
    # and a flat (6,) array on a two-input one came back as 3 values
    basis = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 2)
    idx = pc.total_degree_index_set(inputs, 2)
    exp = pc.GpcExpansion(idx, np.ones((len(idx), 1)), (basis,) * inputs)
    with pytest.raises(ValueError, match=rf"\(N, {inputs}\): the expansion "
                                         rf"has {inputs} random inputs"):
        exp.eval_many(np.zeros(shape))


@pytest.mark.parametrize("outputs", [1, 2])
def test_eval_many_of_no_points_is_empty(outputs):
    # several outputs take one block of all the points; with none there
    # is no block to take
    basis = pc.make_standard_basis(pc.Distribution.uniform(-1, 1), 2)
    idx = pc.total_degree_index_set(2, 2)
    exp = pc.GpcExpansion(idx, np.ones((len(idx), outputs)), (basis,) * 2)
    assert exp.eval_many(np.zeros((0, 2))).shape == (0, outputs)


def test_parseval_against_monte_carlo():
    # variance read from coefficients must agree with the sampled variance of
    # the evaluated expansion within 3 standard errors
    exp = _toy_expansion()
    rng = np.random.default_rng(42)
    n = 1_000_000
    u = rng.random((n, 2))
    pts = np.column_stack([exp.bases[0].distribution.inv_cdf(u[:, 0]),
                           exp.bases[1].distribution.inv_cdf(u[:, 1])])
    samples = exp.eval_many(pts)
    _, var = exp.mean_variance()
    for j in range(samples.shape[1]):
        s = samples[:, j]
        s2 = np.var(s)
        m4 = np.mean((s - s.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - var[j]) <= 3 * se_var


# --- serialization -----------------------------------------------------------

def test_json_round_trip_bit_exact():
    exp = _toy_expansion()
    text = pc.expansion_to_json(exp)
    back = pc.expansion_from_json(text)
    assert np.array_equal(back.coefficients, exp.coefficients)
    assert np.array_equal(back.index_set.indices, exp.index_set.indices)
    for b0, b1 in zip(exp.bases, back.bases):
        assert np.array_equal(b0.gamma, b1.gamma)
        assert np.array_equal(b0.kappa, b1.kappa)
        assert b0.distribution.kind == b1.distribution.kind
        assert b0.distribution.params == b1.distribution.params
    # stable re-serialization
    assert pc.expansion_to_json(back) == text


def test_json_round_trip_every_named_family():
    dists = [pc.Distribution.gaussian(0.5, 2.0), pc.Distribution.uniform(-1, 3),
             pc.Distribution.gamma(2.5), pc.Distribution.beta(2.0, 3.0)]
    bases = tuple(pc.make_standard_basis(d, 2) for d in dists)
    idx = pc.total_degree_index_set(4, 2)
    exp = pc.GpcExpansion(idx, np.arange(len(idx), dtype=float), bases)
    text = pc.expansion_to_json(exp)
    back = pc.expansion_from_json(text)
    assert [(b.distribution.kind, b.distribution.params,
             b.distribution.support) for b in back.bases] == \
        [(d.kind, d.params, d.support) for d in dists]
    assert pc.expansion_to_json(back) == text
    keys = [sorted(set(f) - {"kind", "order", "gamma", "kappa"})
            for f in json.loads(text)["families"]]
    assert keys == [["mean", "stddev"], ["hi", "lo"], ["shape"], ["a", "b"]]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_json_round_trip_arbitrary_coefficients(values):
    dist = pc.Distribution.uniform(0, 1)
    bases = (pc.make_standard_basis(dist, 2),)
    idx = pc.total_degree_index_set(1, 2)
    exp = pc.GpcExpansion(idx, np.array(values)[:, None], bases)
    back = pc.expansion_from_json(pc.expansion_to_json(exp))
    assert np.array_equal(back.coefficients, exp.coefficients)


NAN, INF = float("nan"), float("inf")
# floats whose shortest repr needs 17 significant digits, then edge values
FLOAT_EDGES = [0.1 + 0.2, 1.0000000000000002, -1.2345678901234568e-89,
               2.2250738585072014e-308, 1.7976931348623157e308,
               5e-324, -0.0, 0.0, NAN, INF, -INF]
BLOCK_NUMBERS = st.one_of(st.floats(width=64), st.sampled_from(FLOAT_EDGES),
                          st.integers(-2 ** 70, 2 ** 70))


@st.composite
def number_blocks(draw):
    """A 2-D list of ints, of floats, or of both, with 0 to 3 rows and
    columns."""
    numbers = draw(st.sampled_from([st.floats(width=64), BLOCK_NUMBERS,
                                    st.integers(-9, 9)]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [[draw(numbers) for _ in range(cols)] for _ in range(rows)]


JSON_DOCS = st.recursive(
    st.one_of(number_blocks(), st.none(), st.booleans(), BLOCK_NUMBERS,
              st.text(max_size=3), st.lists(BLOCK_NUMBERS, max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@pytest.mark.parametrize("doc", [
    {"nan": [[1.0, NAN]], "inf": [[INF], [2.0]], "-inf": [[-INF, 0]]},
    {"zero": [[-0.0, 0.0]], "rows": [], "cols": [[], []], "one": [[7]]},
    {"digits": [FLOAT_EDGES[:2], FLOAT_EDGES[3:5]]},
    [[1, 2.5], [True, 3]],
    {"a": [[1.0]], "\0": "\x000", "b": ['x"\x001']},
])
def test_json_writer_edge_blocks(doc):
    assert pc._dump_json(doc) == json.dumps(doc, indent=1, sort_keys=True)


@given(JSON_DOCS)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_json_writer_matches_the_stdlib(doc):
    # the writer's one promise: the stdlib's indent-1, sorted-keys text
    assert pc._dump_json(doc) == json.dumps(doc, indent=1, sort_keys=True)


def test_expansion_json_is_the_stdlib_layout():
    exp = _toy_expansion()
    assert pc.expansion_to_json(exp) == json.dumps(
        pc.expansion_to_dict(exp), indent=1, sort_keys=True)


def test_schema_fields_present():
    doc = json.loads(pc.expansion_to_json(_toy_expansion()))
    for key in ("dimension", "order", "families", "indices", "coefficients"):
        assert key in doc
    assert doc["families"][0]["kind"] == "gaussian"
    assert doc["families"][1]["kind"] == "uniform"


# --- distributions ------------------------------------------------------------

def test_custom_density_must_normalize():
    with pytest.raises(ValueError, match="integrates"):
        pc.Distribution.custom(
            lambda x: np.full_like(np.asarray(x, float), 0.9), (0.0, 1.0))


def test_custom_density_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        pc.Distribution.custom(
            lambda x: np.maximum(np.sin(4 * np.pi * np.asarray(x)), 0.0) * 2.0,
            (0.0, 1.0))


def test_custom_cdf_probes_the_interior_and_mean_does_not():
    # validate=False densities (hier's fitted zeta densities) take a mean
    # without the probe; their CDF and quantiles need a positive interior
    hollow = pc.Distribution.custom(lambda x: 1.5 * x ** 2, (-1.0, 1.0),
                                    validate=False)
    assert abs(hollow.mean()) < 1e-15
    for transform in (hollow.cdf, hollow.inv_cdf):
        with pytest.raises(ValueError, match="strictly positive"):
            transform(0.5)


def test_custom_quantiles_are_bits_of_one_call_per_level():
    tri = pc.Distribution.custom(lambda x: 1.0 - np.abs(x), (-1.0, 1.0))
    u = np.concatenate(([0.0, 1.0, 0.5], np.random.default_rng(4).random(200)))
    x = tri.inv_cdf(u)
    one = np.array([tri.inv_cdf(v) for v in u])
    assert np.array_equal(x.view(np.int64), one.view(np.int64))
    assert x[0] == -1.0 and x[1] == 1.0 and abs(x[2]) < 1e-15
    assert np.max(np.abs(tri.cdf(x) - u)) < 1e-12
    assert np.isnan(tri.inv_cdf(np.nan))   # as the named families give


def test_composite_rule_matches_the_panel_loop():
    # the reference builds the rule panel by panel; the vectorized rule
    # does the same arithmetic, so it gives the same bits
    def panel_loop(cuts, pts):
        gx, gw = np.polynomial.legendre.leggauss(pts)
        xs, ws = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            h = 0.5 * (hi - lo)
            xs.append(0.5 * (lo + hi) + h * gx)
            ws.append(h * gw)
        return np.concatenate(xs), np.concatenate(ws)

    for cuts, pts in ((pc._panel_cuts(-1.5, 2.0, 64), 24),
                      (np.array([0.0, 0.1, 0.35, 1.0]), 5)):
        x, w = pc._panel_rule(cuts, pts)
        ref_x, ref_w = panel_loop(cuts, pts)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_inverse_cdf_round_trip():
    for dist in FAMILIES:
        u = np.linspace(0.01, 0.99, 23)
        x = dist.inv_cdf(u)
        assert np.allclose(dist.cdf(x), u, atol=1e-10)


def test_custom_inverse_cdf_round_trip():
    d = pc.Distribution.custom(
        lambda x: np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi),
        (-math.inf, math.inf))
    x = np.array([-1.3, -0.2, 0.0, 0.4, 2.1])
    assert np.allclose(d.inv_cdf(d.cdf(x)), x, atol=1e-10)
    # absolute accuracy of the numeric table is a softer claim
    assert abs(float(d.inv_cdf(0.5))) < 1e-6
