"""The numpy ports in polychaos against the scipy routines they replace,
and hier's sorted-array shortcuts against the numpy calls they replace.

scipy stays installed as the oracle: `ndtri` must give scipy.special.ndtri's
bits, `monotone_cubic` PchipInterpolator's (values and derivative), and
`golub_welsch` the nodes and weights of a tridiagonal LAPACK solve.
`hier._sorted_quantiles` must give np.quantile's bits, and
`hier._stable_argsort` the permutation of np.argsort(kind="stable").
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigh_tridiagonal

from uqsim import hier
from uqsim import polychaos as pc


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


# --- ndtri ------------------------------------------------------------------

def test_ndtri_seeded_sweep_covers_both_tails():
    rng = np.random.default_rng(20140301)
    u = np.concatenate([
        rng.random(20000),
        10.0 ** rng.uniform(-300, 0, 5000),          # lower tail, both pieces
        1.0 - 10.0 ** rng.uniform(-16, 0, 5000),     # upper tail
    ])
    assert_same_bits(pc.ndtri(u), special.ndtri(u))


def test_ndtri_branch_points_and_edges():
    e2 = math.exp(-2.0)
    branch = [e2, 1.0 - e2, 0.13533528323661269189,
              1.0 - 0.13533528323661269189, math.exp(-32.0)]
    near = [np.nextafter(b, d) for b in branch for d in (0.0, 1.0)]
    edges = [0.0, -0.0, 1.0, np.nan, -0.1, 1.1, np.inf, -np.inf, 0.5]
    subnormal = [5e-324, 1e-310, 2.2e-308, np.nextafter(1.0, 0.0)]
    u = np.array(branch + near + edges + subnormal)
    with np.errstate(invalid="ignore"):
        want = special.ndtri(u)
    assert_same_bits(pc.ndtri(u), want)
    assert pc.ndtri(0.0) == -np.inf and pc.ndtri(1.0) == np.inf


@pytest.mark.parametrize("u", [0.3, 0.999, 1e-20, np.float64(0.5)])
def test_ndtri_scalar_in_scalar_out(u):
    got = pc.ndtri(u)
    assert np.ndim(got) == 0 and isinstance(got, np.float64)
    assert_same_bits(got, special.ndtri(u))


# --- monotone cubic ---------------------------------------------------------

def _probe_points(x, rng):
    mids = 0.5 * (x[1:] + x[:-1])
    span = x[-1] - x[0]
    outside = [x[0] - 0.5 * span, x[0] - 1e-9, x[-1] + 1e-9,
               x[-1] + 0.5 * span]
    return np.concatenate([x, mids, outside,
                           rng.uniform(x[0], x[-1], 50)])


def _knot_sets():
    rng = np.random.default_rng(7)
    sets = []
    for trial in range(150):
        n = [2, 3][trial % 2] if trial < 20 else int(rng.integers(4, 40))
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        if trial % 3 == 0:     # CDF-like: increasing from 0 to 1
            y = np.concatenate([[0.0], np.cumsum(rng.random(n - 1))])
            y /= y[-1]
        elif trial % 3 == 1:   # not monotone
            y = rng.normal(size=n)
        else:                  # plateaus and turns: zero slopes
            y = np.round(rng.normal(size=n))
        sets.append((x, y))
    return sets


def test_monotone_cubic_matches_pchip_values_and_derivative():
    rng = np.random.default_rng(11)
    for x, y in _knot_sets():
        ours, ref = pc.monotone_cubic(x, y), PchipInterpolator(x, y)
        assert_same_bits(ours.x, ref.x)
        t = _probe_points(x, rng)
        assert_same_bits(ours(t), ref(t))
        assert_same_bits(ours.derivative()(t), ref.derivative()(t))
        # 0-d input keeps its shape
        assert_same_bits(ours(t[1]), ref(t[1]))


def test_monotone_cubic_rejects_what_pchip_rejects():
    for x, y in [([0.0], [1.0]), ([0.0, 0.0], [0.0, 1.0]),
                 ([1.0, 0.0], [0.0, 1.0]), ([0.0, np.nan], [0.0, 1.0]),
                 ([0.0, 1.0], [0.0, np.inf])]:
        with pytest.raises(ValueError):
            PchipInterpolator(x, y)
        with pytest.raises(ValueError):
            pc.monotone_cubic(x, y)


# --- Gauss rules ------------------------------------------------------------

def reference_rule(basis, n):
    vals, vecs = eigh_tridiagonal(basis.gamma[:n], np.sqrt(basis.kappa[1:n]))
    return vals, vecs[0, :] ** 2


def assert_rule_matches(basis, n):
    rule = pc.golub_welsch(basis, n)
    nodes, weights = reference_rule(basis, n)
    assert_same_bits(rule.points, nodes)
    assert_same_bits(rule.weights, weights)


@pytest.mark.parametrize("dist", [
    pc.Distribution.gaussian(0.0, 1.0), pc.Distribution.gaussian(2.5, 0.3),
    pc.Distribution.uniform(-1.0, 1.0), pc.Distribution.uniform(0.9, 1.1),
    pc.Distribution.gamma(2.5), pc.Distribution.beta(2.0, 5.0),
], ids=["gauss01", "gauss", "uniform11", "uniform", "gamma", "beta"])
def test_golub_welsch_matches_tridiagonal_solver(dist):
    basis = pc.make_standard_basis(dist, 21)
    for n in range(1, 23):
        assert_rule_matches(basis, n)


def test_golub_welsch_matches_on_discrete_stieltjes_bases():
    rng = np.random.default_rng(3)
    for trial in range(40):
        m = int(rng.integers(12, 200))
        points = rng.normal(size=m) if trial % 2 else rng.random(m)
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        order = int(rng.integers(1, 11))
        gamma, kappa = pc.discrete_stieltjes(points, weights, order)
        basis = pc.OrthoBasis(gamma, kappa, np.sqrt(np.cumprod(kappa)),
                              order, None)
        for n in range(1, order + 2):
            assert_rule_matches(basis, n)


# --- sorted-array quantiles and the stable order ----------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 51, 52, 999, 10 ** 4,
                               10 ** 5 - 1, 10 ** 5])
def test_sorted_quantiles_match_np_quantile(n):
    rng = np.random.default_rng(n)
    levels = np.concatenate(([0.0, 1.0, 0.25, 0.75, 0.5],
                             hier._cdf_levels(), rng.random(40)))
    z = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    # long runs of equal values; no zeros, as neither np.sort nor
    # np.quantile's partition sets the order of -0.0 and 0.0
    tied = rng.integers(-20, 20, n) * 0.25 + 0.125
    for values in (z, tied):
        assert_same_bits(hier._sorted_quantiles(np.sort(values), levels),
                         np.quantile(values, levels))


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 234_256])
def test_stable_argsort_matches_the_stable_sort(n):
    rng = np.random.default_rng(n)
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 1e-300, 2.0, np.inf])
    for x in (rng.choice(pool, n), rng.standard_normal(n),
              np.where(rng.random(n) < 0.5, rng.standard_normal(n),
                       rng.choice(pool, n))):
        assert np.array_equal(hier._stable_argsort(x),
                              np.argsort(x, kind="stable"))
