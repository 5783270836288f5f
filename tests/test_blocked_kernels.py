"""Blocked and in-place kernels against their whole-array forms, and the
memory of the two density routes.

Expansion evaluation, the quantile transform of the samples, the discrete
Stieltjes pass and the pushforward CDF table work in blocks of rows or in
reused buffers.  The whole-array forms they replaced are kept here as
references: each kernel must give their bits (expansion evaluation may
differ in the last bit in the few rows a BLAS gemv rounds in its leftover
kernel), and the density routes must hold a few arrays of N values, not an
(N, K) basis matrix.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from uqsim import hier, montecarlo, polychaos
from uqsim.polychaos import (KAPPA_FLOOR, DegenerateMeasureError,
                             Distribution, GpcExpansion, MultiIndexSet,
                             QuadratureRule, _basis_matrix,
                             discrete_stieltjes, golub_welsch,
                             make_standard_basis, monotone_cubic,
                             stieltjes_basis, total_degree_index_set)
from uqsim.stsolver import standard_bases

UNIF = Distribution.uniform(-1.0, 2.0)
GAUSS = Distribution.gaussian(0.5, 2.0)
TRI = Distribution.custom(lambda x: 1.0 - np.abs(x), (-1.0, 1.0))


# ---------------------------------------------------------------------------
# whole-array references


def eval_many_whole(exp, points):
    """The whole (N, K) basis matrix times the coefficients."""
    return _basis_matrix(exp.index_set, exp.bases, points) @ exp.coefficients


def basis_matrix_every_column(index_set, bases, points):
    """Every column times every axis's table, degree-0 factors included."""
    out = np.ones((points.shape[0], len(index_set)))
    for k, basis in enumerate(bases):
        out *= basis.eval_table(points[:, k])[:, index_set.indices[:, k]]
    return out


def sample_parameters_whole(distributions, n, seed):
    """One quantile call per whole column."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, len(distributions)))
    out = np.empty_like(u)
    for k, dist in enumerate(distributions):
        out[:, k] = dist.inv_cdf(u[:, k])
    return out


def discrete_stieltjes_whole(points, weights, order):
    """A fresh array for every product and every polynomial."""
    x = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    gamma = np.empty(order + 1)
    kappa = np.empty(order + 1)
    kappa[0] = 1.0
    pim1 = np.zeros_like(x)
    pi = np.ones_like(x)
    s_cur = float(np.sum(w))
    for j in range(order + 1):
        gamma[j] = float(np.sum(w * x * pi * pi)) / s_cur
        if j == order:
            break
        pinext = (x - gamma[j]) * pi - (kappa[j] if j > 0 else 0.0) * pim1
        s_next = float(np.sum(w * pinext * pinext))
        kappa[j + 1] = s_next / s_cur
        if not kappa[j + 1] > KAPPA_FLOOR:
            raise DegenerateMeasureError(j + 1, kappa[j + 1])
        pim1, pi = pi, pinext
        s_cur = s_next
    return gamma, kappa


def from_pushforward_whole(values, weights, exact_degree):
    """The sorted copies kept through the Stieltjes pass, and the midpoint
    CDF as one expression."""
    rule = QuadratureRule(values, weights)
    order = np.argsort(rule.points, kind="stable")
    z, w = rule.points[order], rule.weights[order]
    n = int(exact_degree) // 2 + 1
    try:
        basis = stieltjes_basis(None, n - 1, integrator=rule)
    except DegenerateMeasureError as err:
        n = err.degree
        basis = stieltjes_basis(None, n - 1, integrator=rule)
    gauss = golub_welsch(basis, n)
    cum = np.cumsum(w)
    levels = hier._cdf_levels()
    xs = np.interp(levels, (cum - 0.5 * w) / cum[-1], z)
    pad = (z[-1] - z[0]) / (hier.CDF_KNOTS - 1)
    xs[0], xs[-1] = z[0] - pad, z[-1] + pad
    xs, first = np.unique(xs, return_index=True)
    return hier.IntermediateDensity(
        kind="quadrature", support=(float(z[0]), float(z[-1])),
        cdf=monotone_cubic(xs, levels[first]),
        atoms=(gauss.points, gauss.weights), exact_degree=int(exact_degree))


def random_expansion(dists, p, n_outputs, seed=0):
    idx = total_degree_index_set(len(dists), p)
    coeffs = np.random.default_rng(seed).standard_normal((len(idx),
                                                          n_outputs))
    return GpcExpansion(idx, coeffs, standard_bases(dists, p))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# same bits as the whole-array forms


# 8 inputs at order 3: K = 165, so the library's blocks hold 768 rows
DISTS8 = [UNIF, GAUSS] * 4


def blocked_rows_off_the_whole_product():
    """Rows in which the blocked evaluation's bits differ from the whole
    product, over blocks of 768 and 64 rows and 2,880 and 12,288 rows, and
    whether every row stays within a few ulps of the whole product."""
    exp = random_expansion(DISTS8, 3, 1)
    pts = montecarlo.sample_parameters(DISTS8, 12_288, 3)
    off, close = 0, True
    for budget in (polychaos.CHUNK_BYTES, 8):        # 768 and 64 rows
        polychaos.CHUNK_BYTES = budget
        for n in (2_880, 12_288):
            B = _basis_matrix(exp.index_set, exp.bases, pts[:n])
            got, want = exp.eval_many(pts[:n]), B @ exp.coefficients
            off += int(np.sum(got.view(np.int64) != want.view(np.int64)))
            scale = np.abs(B) @ np.abs(exp.coefficients)
            close &= bool(np.all(np.abs(got - want)
                                 <= 4 * np.finfo(float).eps * scale))
    return off, close


def numpy_blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (TypeError, KeyError):                    # numpy before 1.25
        return ""


def test_eval_many_blocks_give_the_whole_product_bits():
    # How many rows a gemv leaves over for its leftover kernel depends on
    # how it splits them among BLAS threads, so this runs in a one-thread
    # process.  There, 2,880 and 12,288 rows and blocks of 64 and 768 rows
    # are whole groups of OpenBLAS's 4 rows, so the whole product and the
    # blocks round every row in the same kernel.  Another BLAS is held to
    # a few ulps.
    src = os.path.dirname(os.path.dirname(polychaos.__file__))
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_blocked_kernels as t; "
            "print(json.dumps(t.blocked_rows_off_the_whole_product()))")
    one_thread = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(__file__)],
        env={**os.environ, **one_thread, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    off, close = json.loads(proc.stdout.strip().splitlines()[-1])
    assert close
    if "openblas" in numpy_blas():
        assert off == 0


def test_eval_many_blocks_round_any_row_count_as_the_whole_product():
    # an odd row count leaves rows over at the end of the whole product's
    # thread shares: those may differ in the last bit
    exp = random_expansion(DISTS8, 3, 1)
    pts = montecarlo.sample_parameters(DISTS8, 5_001, 4)
    B = _basis_matrix(exp.index_set, exp.bases, pts)
    scale = np.abs(B) @ np.abs(exp.coefficients)
    diff = np.abs(exp.eval_many(pts) - B @ exp.coefficients)
    assert np.all(diff <= 4 * np.finfo(float).eps * scale)


def test_eval_many_of_several_outputs_is_one_product(monkeypatch):
    # a gemm's kernel depends on its row count: blocks would move bits
    exp = random_expansion(DISTS8, 3, 3)
    pts = montecarlo.sample_parameters(DISTS8, 5_001, 5)
    monkeypatch.setattr(polychaos, "CHUNK_BYTES", 8)
    assert_same_bits(exp.eval_many(pts), eval_many_whole(exp, pts))


def test_eval_many_blocks_on_a_one_input_expansion(monkeypatch):
    exp = random_expansion([GAUSS], 6, 1)
    x = np.linspace(-4.0, 5.0, 101)
    monkeypatch.setattr(polychaos, "CHUNK_BYTES", 8)   # blocks of 64 rows
    assert_same_bits(exp.eval_many(x), eval_many_whole(exp, x[:, None]))


FAMILY_BASES = {
    "uniform": make_standard_basis(UNIF, 5),
    "gaussian": make_standard_basis(GAUSS, 5),
    "gamma": make_standard_basis(Distribution.gamma(2.0), 5),
    "beta": make_standard_basis(Distribution.beta(2.0, 3.0), 5),
    "custom": stieltjes_basis(TRI, 5),
}


@pytest.mark.parametrize("family", sorted(FAMILY_BASES))
def test_degree_zero_basis_values_are_exactly_one(family):
    # _basis_matrix skips these factors on the strength of this
    basis = FAMILY_BASES[family]
    x = basis.distribution.inv_cdf(np.random.default_rng(1).random(1000))
    table = basis.eval_table(x)
    assert table.shape == (1000, 6)
    assert np.all(table[:, 0] == 1.0)


def anova_index_set(d, p, m):
    """The total-degree-p multi-indices with at most m nonzero degrees, as
    the anchored decomposition's union of order-m terms holds them."""
    idx = total_degree_index_set(d, p).indices
    return MultiIndexSet(d, p, idx[np.count_nonzero(idx, axis=1) <= m])


@pytest.mark.parametrize("index_set", [
    total_degree_index_set(4, 3),
    anova_index_set(8, 3, 2),
    anova_index_set(8, 3, 1),
], ids=["total-degree", "anova-m2", "anova-m1"])
def test_basis_matrix_skips_degree_zero_factors_with_the_same_bits(
        index_set):
    bases = [FAMILY_BASES[f] for f in sorted(FAMILY_BASES)]
    bases = (bases * 2)[:index_set.dimension]
    pts = montecarlo.sample_parameters(
        [b.distribution for b in bases], 3_000, 7)
    assert_same_bits(_basis_matrix(index_set, bases, pts),
                     basis_matrix_every_column(index_set, bases, pts))


def stieltjes_measures():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1001) * 3.0 - 1.0          # negative points
    w = rng.random(1001) + 0.1
    ties = np.repeat(rng.uniform(-2.0, 2.0, 40), 25)   # every point 25 times
    return {"random": (x, w, 8),
            "ties": (ties, rng.random(ties.size) + 1e-3, 12),
            "panel rule": (*polychaos._panel_rule(
                polychaos._panel_cuts(-1.0, 1.0, 8)), 10)}


@pytest.mark.parametrize("case", ["random", "ties", "panel rule"])
def test_discrete_stieltjes_in_place_gives_the_whole_array_bits(case):
    x, w, order = stieltjes_measures()[case]
    for want, got in zip(discrete_stieltjes_whole(x, w, order),
                         discrete_stieltjes(x, w, order)):
        assert_same_bits(got, want)


def test_discrete_stieltjes_in_place_fails_at_the_same_degree():
    # five distinct values support no degree-5 polynomial
    x = np.tile([-3.0, -1.0, 0.0, 0.5, 2.0], 7)
    w = np.random.default_rng(1).random(x.size) + 0.5
    with pytest.raises(DegenerateMeasureError) as want:
        discrete_stieltjes_whole(x, w, 8)
    with pytest.raises(DegenerateMeasureError) as got:
        discrete_stieltjes(x, w, 8)
    assert got.value.degree == want.value.degree == 5
    assert np.float64(got.value.kappa).tobytes() == \
        np.float64(want.value.kappa).tobytes()


@pytest.mark.parametrize("dists,n,rows", [
    ((UNIF, GAUSS, UNIF), 3 * montecarlo.QUANTILE_ROWS + 5, None),
    ((GAUSS, UNIF), 1000, 7),
    ((TRI, GAUSS), 40, 7),
], ids=["library-blocks", "small-blocks", "custom"])
def test_sample_parameters_blocks_give_whole_column_bits(dists, n, rows,
                                                         monkeypatch):
    if rows is not None:
        monkeypatch.setattr(montecarlo, "QUANTILE_ROWS", rows)
    assert_same_bits(montecarlo.sample_parameters(dists, n, 11),
                     sample_parameters_whole(dists, n, 11))


def test_sampling_route_streams_the_values_of_one_draw(monkeypatch):
    # the route draws and evaluates block by block; the sorted values it
    # fits, and so the whole fit, are those of one (n, d) draw evaluated
    # by eval_many, across three block boundaries and a short last block
    s = hier.normalize_surrogate(random_expansion([UNIF, GAUSS, TRI], 3, 1))
    n = 3 * s.zeta._block_rows + 17
    fitted = []
    sorted_quantiles = hier._sorted_quantiles
    monkeypatch.setattr(hier, "_sorted_quantiles",
                        lambda z, q: fitted.append(z.copy())
                        or sorted_quantiles(z, q))
    hier.density_by_sampling(s, n, 5)
    want = np.sort(s.zeta.eval_many(
        montecarlo.sample_parameters(s.distributions, n, 5)).ravel())
    assert_same_bits(fitted[0], want)


def test_from_pushforward_gives_the_whole_array_bits():
    rng = np.random.default_rng(2)
    values = np.round(rng.standard_normal(4000), 2)       # many ties
    values[::97] = 0.0
    values[::89] = -0.0
    weights = rng.random(values.size) + 0.01
    weights /= weights.sum()
    for data in ((values, weights), (values.tolist(), weights.tolist())):
        got = hier.IntermediateDensity.from_pushforward(*data, 14)
        want = from_pushforward_whole(*data, 14)
        assert got.support == want.support
        assert got.exact_degree == want.exact_degree
        for a, b in ((got.cdf.x, want.cdf.x), (got.cdf.c, want.cdf.c),
                     *zip(got.atoms, want.atoms)):
            assert_same_bits(a, b)


def test_quadrature_route_hands_its_values_over_without_a_copy(
        monkeypatch):
    # the Stieltjes pass runs over the very arrays the route made
    s = hier.normalize_surrogate(random_expansion([UNIF, GAUSS], 2, 1))
    given, seen = [], []
    from_pushforward = hier.IntermediateDensity.from_pushforward
    stieltjes = polychaos.discrete_stieltjes
    monkeypatch.setattr(hier.IntermediateDensity, "from_pushforward",
                        lambda v, w, degree: given.append((v, w))
                        or from_pushforward(v, w, degree))
    monkeypatch.setattr(polychaos, "discrete_stieltjes",
                        lambda x, w, order: seen.append((x, w))
                        or stieltjes(x, w, order))
    hier.density_by_quadrature(s)
    (values, weights), = given
    assert seen and all(x is values and w is weights for x, w in seen)


# ---------------------------------------------------------------------------
# memory of the density routes


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_sampling_route_memory_grows_with_the_samples_not_the_basis():
    # 9 inputs at order 3: K = 220, so 60,000 samples make a 106 MB basis
    # matrix; the route holds the samples, their values and one block
    exp = random_expansion([Distribution.uniform(-1.0, 1.0)] * 9, 3, 1)
    assert len(exp.index_set) == 220
    s = hier.normalize_surrogate(exp)
    dens, peak = traced_peak(lambda: hier.density_by_sampling(s, 60_000, 4))
    assert dens.kind == "sampled"
    assert peak < 16 * 2 ** 20


def test_quadrature_route_memory_stays_within_a_few_value_arrays():
    # 5 inputs at order 2 push 15^5 = 759,375 nodes forward: 5.8 MiB per
    # array of values
    exp = random_expansion([Distribution.uniform(-1.0, 1.0)] * 5, 2, 1)
    s = hier.normalize_surrogate(exp)
    dens, peak = traced_peak(lambda: hier.density_by_quadrature(s))
    assert dens.kind == "quadrature" and len(dens.atoms[0]) == 8
    assert peak < 40 * 2 ** 20
