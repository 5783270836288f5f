"""Orthonormal polynomial families, Gauss quadrature and chaos expansions.

Each random input is an independent scalar with marginal density rho.  The
monic orthogonal family of rho obeys the three-term recurrence

    pi_{j+1}(x) = (x - gamma_j) pi_j(x) - kappa_j pi_{j-1}(x),
    pi_{-1} = 0,  pi_0 = 1,

with gamma_j = <x pi_j, pi_j> / <pi_j, pi_j> and
kappa_{j+1} = <pi_{j+1}, pi_{j+1}> / <pi_j, pi_j>, kappa_0 = 1.  The
normalized members phi_j = pi_j / sqrt(kappa_0 * ... * kappa_j) are
orthonormal under rho.  Gauss rules come from the eigen-decomposition of the
symmetric tridiagonal (Jacobi) matrix of the recurrence, built densely and
handed to np.linalg.eigh: a rule has at most order + 1 nodes, so the dense
matrix is tiny, and it gives the same nodes and weights, bit for bit, as a
tridiagonal LAPACK solver without importing scipy.linalg.  The multivariate
basis is a tensor product over a graded-lexicographic total-degree index set.

scipy is imported only where a closed form needs it: gaussian CDF values and
the gamma and beta families.  A custom density's quantiles bisect its own CDF
table in numpy.  The gaussian quantile (`ndtri`) and the monotone cubic
(`monotone_cubic`) are numpy ports of Cephes `ndtri` and scipy's PCHIP that
reproduce those routines' bits.  The ndtri tails take their logarithms with
`math.log`, one value at a time: numpy's vectorized `np.log` may differ from
the C library's `log` in the last bit, which moves a few samples by an ulp.

All value types here are immutable; operations are pure functions.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Family",
    "FAMILIES",
    "OrthoBasis",
    "QuadratureRule",
    "MultiIndexSet",
    "GpcExpansion",
    "DegenerateMeasureError",
    "UnsupportedFamilyError",
    "make_standard_basis",
    "stieltjes_basis",
    "discrete_stieltjes",
    "golub_welsch",
    "ndtri",
    "monotone_cubic",
    "PiecewisePoly",
    "total_degree_index_set",
    "expansion_to_dict",
    "expansion_to_json",
    "expansion_from_json",
]

# Measures whose kappa_j falls below this floor cannot support an orthonormal
# family of that degree in double precision (inputs are expected at roughly
# unit scale; standardize wildly scaled parameters before building a basis).
KAPPA_FLOOR = 1e-20

# A tensor Gauss rule of more than this many nodes is refused before it is
# built; testing-point selection and a quadrature density hold 16 bytes of
# it per node (the 22^4 pushforward rule of a 4-input block has 234,256).
TENSOR_NODE_CAP = 2 ** 20

# The byte budget of the library's stacked work: Newton and recovery
# stacks (stsolver), blocks of rows of a basis matrix (eval_many) and of
# quantile transforms (montecarlo.sample_parameters) take about this many
# bytes at a time; the planned LU's row blocks take stsolver.LU_BLOCK_BYTES
CHUNK_BYTES = 1 << 20

_JSON_SCHEMA = "gpc-expansion/1"


def _frozen(values, dtype=float) -> np.ndarray:
    """values as a read-only array: the value types below freeze a copy,
    never the caller's array.  An array that is read-only already is taken
    as it is, so a builder hands a large fresh array over without a copy
    by freezing it first (recover_coefficients)."""
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.dtype == dtype):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Immutable:
    """Base of the library's value types.  Their hand-written __init__
    stores the attributes through the instance __dict__; assigning or
    deleting one afterwards raises AttributeError.  No code is generated
    when a subclass is created, unlike a frozen dataclass."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an "
                             f"immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an "
                             f"immutable {type(self).__name__}")


class DegenerateMeasureError(ValueError):
    """The measure cannot support an orthonormal family at some degree."""

    def __init__(self, degree: int, kappa: float):
        self.degree = degree
        self.kappa = kappa
        super().__init__(
            f"kappa_{degree} = {kappa:.3e} is at or below the numeric floor "
            f"{KAPPA_FLOOR:.0e}: the measure is numerically degenerate at "
            f"degree {degree}"
        )


class UnsupportedFamilyError(ValueError):
    pass


def _require_finite(family: str, **params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{family} {name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# distributions


class Distribution(_Immutable):
    """Scalar marginal distribution of one random input.

    Named kinds are the keys of FAMILIES, which holds their closed forms.
    "custom" wraps a black-box density on a support interval; the density
    must be strictly positive on the interior of the support and integrate
    to one.  It is integrated once, on one composite Gauss table over its
    window, and its mass check, mean and monotone CDF all read that table.

    Every distribution has one window, the finite interval carrying its
    mass that quadrature runs on (the cached `_window`): a bounded support
    as it is, a named family's Family.window, or for an unbounded custom
    density the window a doubling scan finds.  A density whose tails are
    too heavy for that scan is refused.
    """

    kind: str
    params: tuple[float, ...]
    support: tuple[float, float]
    density_fn: Callable[[np.ndarray], np.ndarray] | None

    def __init__(self, kind, params, support, density_fn=None):
        self.__dict__.update(kind=kind, params=params, support=support,
                             density_fn=density_fn)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(mean: float, stddev: float) -> "Distribution":
        _require_finite("gaussian", mean=mean, stddev=stddev)
        if stddev <= 0.0:
            raise ValueError(f"gaussian stddev must be positive, got {stddev}")
        return Distribution("gaussian", (float(mean), float(stddev)),
                            (-math.inf, math.inf))

    @staticmethod
    def uniform(lo: float, hi: float) -> "Distribution":
        _require_finite("uniform", lo=lo, hi=hi)
        if not hi > lo:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi}]")
        return Distribution("uniform", (float(lo), float(hi)),
                            (float(lo), float(hi)))

    @staticmethod
    def gamma(shape: float) -> "Distribution":
        _require_finite("gamma", shape=shape)
        if shape <= 0.0:
            raise ValueError(f"gamma shape must be positive, got {shape}")
        return Distribution("gamma", (float(shape),), (0.0, math.inf))

    @staticmethod
    def beta(a: float, b: float) -> "Distribution":
        _require_finite("beta", a=a, b=b)
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"beta parameters must be positive, got ({a}, {b})")
        return Distribution("beta", (float(a), float(b)), (0.0, 1.0))

    @staticmethod
    def custom(density: Callable, support: tuple[float, float],
               validate: bool = True) -> "Distribution":
        lo, hi = float(support[0]), float(support[1])
        if not hi > lo:
            raise ValueError(f"support must be a nonempty interval, got [{lo}, {hi}]")
        dist = Distribution("custom", (), (lo, hi), density)
        if validate:
            dist._custom_cdf  # probes the interior
            mass = float(np.sum(dist._custom_table[2]))
            if abs(mass - 1.0) > 1e-8:
                raise ValueError(
                    f"custom density integrates to {mass:.10f}, expected 1 within 1e-8")
        return dist

    # -- density, moments, cdf and inverse: closed forms live in FAMILIES ----

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].density(x, *self.params)
        return np.asarray(self.density_fn(x), dtype=float)

    def mean(self) -> float:
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].mean(*self.params)
        _, x, masses = self._custom_table
        return float(np.sum(masses * x)) / float(np.sum(masses))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].cdf(x, *self.params)
        interp = self._custom_cdf
        x = np.clip(x, interp.x[0], interp.x[-1])
        return np.clip(interp(x), 0.0, 1.0)

    def inv_cdf(self, u) -> np.ndarray:
        """Quantile function; maps (0, 1) onto the support interior."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].inv_cdf(u, *self.params)
        return self._custom_inv_cdf(u)

    # -- numerics for custom densities --------------------------------------

    @cached_property
    def _window(self) -> tuple[float, float]:
        # a custom density's unbounded side grows, the width doubling, until
        # the mass the 64-panel rule captures stabilizes; a heavy tail
        # stabilizes only once the panels have outgrown the peak, so a scan
        # that stops below half the largest mass it saw is refused
        lo, hi = self.support
        if math.isfinite(lo) and math.isfinite(hi):
            return lo, hi
        if self.kind in FAMILIES:
            return FAMILIES[self.kind].window(*self.params)
        c = 0.0
        if math.isfinite(lo):
            c = lo + 1.0
        elif math.isfinite(hi):
            c = hi - 1.0
        width, mass_prev, mass_max = 1.0, -1.0, 0.0
        for _ in range(60):
            a = c - width if not math.isfinite(lo) else lo
            b = c + width if not math.isfinite(hi) else hi
            x, w = _panel_rule(_panel_cuts(a, b, 64))
            mass = float(np.sum(w * self.density(x)))
            mass_max = max(mass_max, mass)
            if mass > 0 and abs(mass - mass_prev) < 1e-13:
                break
            mass_prev = mass
            width *= 2.0
        if mass < 0.5 * mass_max:
            raise ValueError(
                f"custom density's window scan did not converge: it stopped "
                f"at [{a:.3g}, {b:.3g}] with mass {mass:.3g}, below half the "
                f"largest mass {mass_max:.3g} it saw; the tails are too heavy")
        return float(a), float(b)

    @cached_property
    def _custom_table(self):
        """(cuts, nodes, masses) of the 512-panel rule on the window: the
        one integration of the density that its mass, mean and CDF read."""
        cuts = _panel_cuts(*self._window, 512)
        x, w = _panel_rule(cuts)
        return cuts, x, w * self.density(x)

    @cached_property
    def _custom_cdf(self) -> PiecewisePoly:
        """The monotone cubic through the CDF at the table's cuts, built
        once the density is probed positive and finite on the interior,
        the hypothesis behind the quantile transform; mean() alone never
        probes."""
        a, b = self._window
        probes = np.linspace(a, b, 2001)[1:-1]
        rho = self.density(probes)
        bad = probes[~(np.isfinite(rho) & (rho > 0.0))]
        if len(bad):
            raise ValueError(
                f"custom density must be strictly positive and finite on the "
                f"interior of its support; rho({bad[0]:.6g}) violates this")
        cuts, _, masses = self._custom_table
        vals = np.concatenate(
            ([0.0], np.cumsum(masses.reshape(len(cuts) - 1, -1).sum(axis=1))))
        return monotone_cubic(cuts, np.maximum.accumulate(vals) / vals[-1])

    def _custom_inv_cdf(self, u: np.ndarray):
        """Bisection of the CDF table inside each value's piece, the same
        60 halvings for every value, so a value's bits do not depend on
        the others: a piece at most (b - a) / 512 wide shrinks to
        (b - a) 2^-69, below the float spacing of every value farther than
        (b - a) 2^-17 from 0, where the bracket stops moving."""
        interp = self._custom_cdf
        uu = np.atleast_1d(u)
        # c[-1] holds the CDF at each piece's left end
        i = np.clip(np.searchsorted(interp.c[-1], uu, "right") - 1,
                    0, len(interp.x) - 2)
        lo, hi = interp.x[i], interp.x[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = interp(mid) < uu
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = np.select([uu <= 0.0, uu >= 1.0, np.isnan(uu)],
                        [interp.x[0], interp.x[-1], np.nan], hi)
        return out[0] if u.ndim == 0 else out


def _panel_cuts(a: float, b: float, panels: int) -> np.ndarray:
    """Panel breakpoints on [a, b]: uniform, with the two boundary panels
    subdivided geometrically toward the endpoints so integrable endpoint
    singularities converge too."""
    edges = np.linspace(a, b, panels + 1)
    left = [edges[0] + (edges[1] - edges[0]) * 0.25 ** k for k in range(6, 0, -1)]
    right = [edges[-1] - (edges[-1] - edges[-2]) * 0.25 ** k for k in range(1, 7)]
    return np.concatenate(([edges[0]], left, edges[1:-1], right, [edges[-1]]))


def _panel_rule(cuts, pts: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `pts` nodes on each panel between
    consecutive `cuts`, panel after panel."""
    gx, gw = np.polynomial.legendre.leggauss(pts)
    cuts = np.asarray(cuts, dtype=float)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    h = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + h * gx).ravel(), (h * gw).ravel()


# ---------------------------------------------------------------------------
# numpy ports of the scipy routines every run reaches


def _special():
    """scipy.special, imported at first use (see the module docstring)."""
    from scipy import special

    return special


# Cephes ndtri: rational approximations in y - 1/2 on the centre, and in
# 1/sqrt(-2 log y) on the tails, split at z = 8 (y = exp(-32)); each
# denominator's leading coefficient 1 is written out
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_NDTRI_EXP_M2 = 0.13533528323661269189  # exp(-2), the tail branch point
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    """The C library's log per element (see the module docstring)."""
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def ndtri(u):
    """Standard-normal quantile, bit for bit scipy.special.ndtri.

    0 and 1 map to -inf and inf; NaN and values outside [0, 1] give NaN;
    0-d input gives a scalar.
    """
    u = np.asarray(u, dtype=float)
    y0 = np.atleast_1d(u)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _NDTRI_EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = (y > _NDTRI_EXP_M2) & (y0 < 1.0)
    yc = y[centre] - 0.5
    y2 = yc * yc
    x = yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
    out[centre] = x * _SQRT_2PI
    tail = ~centre & (y0 > 0.0) & (y0 < 1.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2))
    x = x - _libm_log(x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out[0] if u.ndim == 0 else out


class PiecewisePoly:
    """Piecewise polynomial on the breakpoints x, laid out as scipy's PPoly.

    c[k, i] multiplies (t - x[i]) ** (K - 1 - k) on interval i.  Points
    outside [x[0], x[-1]] extrapolate the end pieces.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = np.clip(np.searchsorted(self.x, flat, "right") - 1,
                    0, len(self.x) - 2)
        s = flat - self.x[i]
        # PPoly's summation order: ascending powers, not Horner
        res = np.zeros_like(flat)
        z = np.ones_like(flat)
        for row in self.c[::-1]:
            res += row[i] * z
            z *= s
        return res.reshape(t.shape)

    def derivative(self) -> "PiecewisePoly":
        k = len(self.c) - 1
        return PiecewisePoly(self.x,
                             self.c[:-1] * np.arange(k, 0, -1.0)[:, None])


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def monotone_cubic(x, y) -> PiecewisePoly:
    """Fritsch-Butland monotone cubic through (x, y), bit for bit scipy's
    PCHIP interpolant: weighted-harmonic-mean slopes inside, zero where
    the data turn, and one-sided end slopes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("a monotone cubic needs two or more (x, y) knots")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("monotone cubic knots must be finite")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("monotone cubic abscissae must increase strictly")
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if len(x) > 2:
        turn = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(turn, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return PiecewisePoly(x, np.stack((t / h, (m - d[:-1]) / h - t,
                                      d[:-1], y[:-1])))


# ---------------------------------------------------------------------------
# named families


class Family(_Immutable):
    """Closed forms of one named distribution family.

    `params` names the family's parameters in order; they are also its JSON
    keys.  Every callable takes those parameters after its own arguments.
    `recurrence(j, *params)` gives the monic recurrence (gamma_j, kappa_j)
    at the degrees j (a float array); kappa_0 is then fixed to 1.  `window`
    is the finite interval standing in for an unbounded support.
    """

    params: tuple[str, ...]
    make: Callable[..., Distribution]  # the validating constructor
    density: Callable
    cdf: Callable
    inv_cdf: Callable
    mean: Callable
    recurrence: Callable
    window: Callable | None

    def __init__(self, params, make, density, cdf, inv_cdf, mean,
                 recurrence, window=None):
        self.__dict__.update(params=params, make=make, density=density,
                             cdf=cdf, inv_cdf=inv_cdf, mean=mean,
                             recurrence=recurrence, window=window)


def _density_inside(x: np.ndarray, inside: Callable, log_rho: Callable):
    """exp(log_rho) where inside holds and 0 elsewhere; 0-d stays 0-d."""
    scalar = x.ndim == 0
    xx = np.atleast_1d(x)
    out = np.zeros_like(xx)
    mask = inside(xx)
    out[mask] = np.exp(log_rho(xx[mask]))
    return out[0] if scalar else out


def _legendre_monic(j: np.ndarray, lo: float, hi: float):
    h = 0.5 * (hi - lo)
    return np.full_like(j, 0.5 * (lo + hi)), h * h * j * j / (4.0 * j * j - 1.0)


def _jacobi_monic_01(j: np.ndarray, a: float, b: float):
    """Monic recurrence for the beta(a, b) weight on [0, 1].

    Jacobi parameters on [-1, 1] are A = b-1, B = a-1; the affine map to
    [0, 1] shifts gamma and scales kappa by 1/4.
    """
    A, B = b - 1.0, a - 1.0
    m = len(j)
    gamma_t = np.empty(m)
    kappa_t = np.ones(m)
    for n in range(m):
        s = 2.0 * n + A + B
        if n == 0:
            gamma_t[0] = (B - A) / (A + B + 2.0)
        else:
            gamma_t[n] = (B * B - A * A) / (s * (s + 2.0))
        if n == 1:
            # the generic formula has a removable 0/0 at A+B = -1
            kappa_t[1] = 4.0 * (1 + A) * (1 + B) / ((2 + A + B) ** 2 * (3 + A + B))
        elif n >= 2:
            kappa_t[n] = (4.0 * n * (n + A) * (n + B) * (n + A + B)
                          / (s * s * (s + 1.0) * (s - 1.0)))
    return 0.5 * (gamma_t + 1.0), kappa_t / 4.0


# kind -> closed forms: gaussian -> Hermite, uniform -> Legendre,
# gamma -> Laguerre, beta -> Jacobi.  "custom" is the one kind outside.
FAMILIES: dict[str, Family] = {
    "gaussian": Family(
        params=("mean", "stddev"), make=Distribution.gaussian,
        density=lambda x, mu, sig: (np.exp(-0.5 * ((x - mu) / sig) ** 2)
                                    / (sig * math.sqrt(2 * math.pi))),
        cdf=lambda x, mu, sig: _special().ndtr((x - mu) / sig),
        inv_cdf=lambda u, mu, sig: mu + sig * ndtri(u),
        mean=lambda mu, sig: mu,
        recurrence=lambda j, mu, sig: (np.full_like(j, mu), j * sig * sig),
        # +-12 standard deviations: the excluded mass is ~1e-33, negligible
        # against every tolerance here
        window=lambda mu, sig: (mu - 12.0 * sig, mu + 12.0 * sig)),
    "uniform": Family(
        params=("lo", "hi"), make=Distribution.uniform,
        density=lambda x, lo, hi: np.where((x >= lo) & (x <= hi),
                                           1.0 / (hi - lo), 0.0),
        cdf=lambda x, lo, hi: np.clip((x - lo) / (hi - lo), 0.0, 1.0),
        inv_cdf=lambda u, lo, hi: lo + (hi - lo) * u,
        mean=lambda lo, hi: 0.5 * (lo + hi),
        recurrence=_legendre_monic),
    "gamma": Family(
        params=("shape",), make=Distribution.gamma,
        density=lambda x, k: _density_inside(
            x, lambda y: y > 0,
            lambda y: (k - 1) * np.log(y) - y - _special().gammaln(k)),
        cdf=lambda x, k: _special().gammainc(k, np.maximum(x, 0.0)),
        inv_cdf=lambda u, k: _special().gammaincinv(k, u),
        mean=lambda k: k,
        recurrence=lambda j, k: (2.0 * j + k, j * (j + k - 1.0)),
        # the slow tail gets a far quantile with headroom
        window=lambda k: (
            0.0, 1.5 * float(_special().gammaincinv(k, 1.0 - 1e-16)) + 10.0)),
    "beta": Family(
        params=("a", "b"), make=Distribution.beta,
        density=lambda x, a, b: _density_inside(
            x, lambda y: (y > 0) & (y < 1),
            lambda y: ((a - 1) * np.log(y) + (b - 1) * np.log1p(-y)
                       - (_special().gammaln(a) + _special().gammaln(b)
                          - _special().gammaln(a + b)))),
        cdf=lambda x, a, b: _special().betainc(a, b, np.clip(x, 0.0, 1.0)),
        inv_cdf=lambda u, a, b: _special().betaincinv(a, b, u),
        mean=lambda a, b: a / (a + b),
        recurrence=_jacobi_monic_01),
}


# ---------------------------------------------------------------------------
# orthonormal bases


class OrthoBasis(_Immutable):
    """Recurrence data of one orthonormal univariate family.

    gamma and kappa both hold order+1 entries (gamma_0..gamma_p and
    kappa_0..kappa_p with kappa_0 = 1); the extra gamma_p beyond the
    evaluation recurrence is what the (order+1)-point Gauss rule needs.
    norms[j] = sqrt(kappa_0 * ... * kappa_j).
    """

    gamma: np.ndarray
    kappa: np.ndarray
    norms: np.ndarray
    order: int
    distribution: Distribution | None

    def __init__(self, gamma, kappa, norms, order, distribution):
        self.__dict__.update(gamma=_frozen(gamma), kappa=_frozen(kappa),
                             norms=_frozen(norms), order=order,
                             distribution=distribution)
        if len(self.gamma) != self.order + 1 or len(self.kappa) != self.order + 1:
            raise ValueError("recurrence arrays must hold order+1 entries")
        if self.kappa[0] != 1.0:
            raise ValueError("kappa_0 must equal 1")

    def eval_table(self, x) -> np.ndarray:
        """Values phi_j(x) for j = 0..order; shape (..., order+1)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.order + 1,))
        pim1 = np.zeros_like(x)
        pi = np.ones_like(x)
        out[..., 0] = pi / self.norms[0]
        for j in range(self.order):
            pinext = (x - self.gamma[j]) * pi - self.kappa[j] * pim1
            pim1, pi = pi, pinext
            out[..., j + 1] = pi / self.norms[j + 1]
        return out


def _basis_from_monic(gamma: np.ndarray, kappa: np.ndarray, order: int,
                      dist: Distribution | None) -> OrthoBasis:
    kappa = np.asarray(kappa, dtype=float)
    floor_hits = np.nonzero(~(kappa[1:] > KAPPA_FLOOR))[0]   # NaN too
    if floor_hits.size:
        j = int(floor_hits[0]) + 1
        raise DegenerateMeasureError(j, float(kappa[j]))
    norms = np.sqrt(np.cumprod(kappa))
    return OrthoBasis(np.asarray(gamma, dtype=float), kappa, norms, order, dist)


def make_standard_basis(dist: Distribution, order: int) -> OrthoBasis:
    """Closed-form recurrence of a named family (see FAMILIES), shifted and
    scaled.  Custom densities are rejected; use stieltjes_basis."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if dist.kind not in FAMILIES:
        raise UnsupportedFamilyError(
            f"no closed-form recurrence for kind '{dist.kind}'; "
            "use stieltjes_basis")
    # recurrence entries gamma_0..gamma_p, kappa_0..kappa_p
    j = np.arange(order + 1, dtype=float)
    gamma, kappa = FAMILIES[dist.kind].recurrence(j, *dist.params)
    kappa[0] = 1.0
    return _basis_from_monic(gamma, kappa, order, dist)


def discrete_stieltjes(points: np.ndarray, weights: np.ndarray,
                       order: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic recurrence coefficients of a discrete measure sum w_i d(x_i).

    Returns (gamma_0..gamma_p, kappa_0..kappa_p).  Raises
    DegenerateMeasureError when some kappa_j falls to the numeric floor,
    naming the failing degree.  Three point-length buffers are updated in
    place, in the operation order of the expressions
    ((w*x)*pi)*pi, (x - gamma_j)*pi - kappa_j*pi_{j-1} and
    (w*pi_{j+1})*pi_{j+1}, so the sums keep their bits.
    """
    x = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    gamma = np.empty(order + 1)
    kappa = np.empty(order + 1)
    kappa[0] = 1.0
    pim1 = np.zeros_like(x)
    pi = np.ones_like(x)
    buf = np.empty_like(x)
    s_cur = float(np.sum(w))
    for j in range(order + 1):
        np.multiply(w, x, out=buf)
        buf *= pi
        buf *= pi
        gamma[j] = float(np.sum(buf)) / s_cur
        if j == order:
            break
        pim1 *= kappa[j] if j > 0 else 0.0
        np.subtract(x, gamma[j], out=buf)
        buf *= pi
        buf -= pim1                    # buf holds pi_{j+1}
        np.multiply(w, buf, out=pim1)
        pim1 *= buf
        s_next = float(np.sum(pim1))
        kappa[j + 1] = s_next / s_cur
        if not kappa[j + 1] > KAPPA_FLOOR:
            raise DegenerateMeasureError(j + 1, kappa[j + 1])
        pim1, pi, buf = pi, buf, pim1
        s_cur = s_next
    return gamma, kappa


def stieltjes_basis(dist: Distribution, order: int,
                    integrator: "QuadratureRule | None" = None) -> OrthoBasis:
    """Orthonormal basis for an arbitrary density via the Stieltjes procedure.

    The moment integrals are evaluated with an adaptive composite Gauss rule
    (panel count doubled until gamma and kappa move by less than 1e-10), or
    with the supplied integrator, a quadrature rule representing the
    probability measure itself (weights sum to one, density folded in) that
    resolves polynomials of degree >= 2*order + 2.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if integrator is not None:
        if integrator.exact_degree is not None and \
                integrator.exact_degree < 2 * order + 2:
            raise ValueError(
                f"integrator resolves degree {integrator.exact_degree} but the "
                f"order-{order} construction needs {2 * order + 2}")
        gamma, kappa = discrete_stieltjes(integrator.points, integrator.weights,
                                          order)
        return _basis_from_monic(gamma, kappa, order, dist)

    a, b = dist._window
    prev = None
    panels = 8
    while panels <= 4096:
        x, w = _panel_rule(_panel_cuts(a, b, panels))
        rho = np.asarray(dist.density(x), dtype=float)
        gamma, kappa = discrete_stieltjes(x, w * rho, order)
        if prev is not None:
            dg = np.max(np.abs(gamma - prev[0]) / np.maximum(1.0, np.abs(gamma)))
            dk = np.max(np.abs(kappa - prev[1]) / np.maximum(1.0, np.abs(kappa)))
            if max(dg, dk) < 1e-10:
                return _basis_from_monic(gamma, kappa, order, dist)
        prev = (gamma, kappa)
        panels *= 2
    raise RuntimeError(
        "stieltjes recurrence did not stabilize to 1e-10; the density may be "
        "too irregular for the composite Gauss integrator")


# ---------------------------------------------------------------------------
# quadrature


class QuadratureRule(_Immutable):
    """Nodes and weights of a positive quadrature rule with unit mass.

    points has shape (npts,) for one input and (npts, d) for d inputs.
    exact_degree is the per-axis polynomial exactness (None if unknown).
    """

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int | None

    def __init__(self, points, weights, exact_degree=None):
        pts, w = _frozen(points), _frozen(weights)
        self.__dict__.update(points=pts, weights=w, exact_degree=exact_degree)
        if np.any(w <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-10:
            raise ValueError(
                f"quadrature weights sum to {float(np.sum(w)):.15f}, "
                "expected 1 within 1e-10")


def golub_welsch(basis: OrthoBasis, n: int) -> QuadratureRule:
    """n-point Gauss rule from the basis recurrence (Jacobi-matrix route).

    The symmetric tridiagonal matrix has diagonal gamma_0..gamma_{n-1} and
    off-diagonal sqrt(kappa_1)..sqrt(kappa_{n-1}); its eigenvalues are the
    nodes and the squared first eigenvector components the weights.  n is
    at most order + 1, so the matrix is built densely.
    """
    if n < 1:
        raise ValueError("rule size must be at least 1")
    if n > basis.order + 1:
        raise ValueError(
            f"{n}-point rule needs recurrence depth {n} but the basis holds "
            f"order {basis.order} (max {basis.order + 1} points)")
    off = np.sqrt(basis.kappa[1:n])
    jacobi = np.diag(basis.gamma[:n]) + np.diag(off, 1) + np.diag(off, -1)
    try:
        vals, vecs = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic
        raise RuntimeError(f"Gauss-rule eigensolver failed: {exc}") from exc
    w = vecs[0, :] ** 2
    return QuadratureRule(vals, w, exact_degree=2 * n - 1)


def _tensor_weights(rules: Sequence[QuadratureRule]) -> np.ndarray:
    """Read-only weights of the tensor product of univariate rules, by flat
    node index, first axis slowest."""
    w = np.ones(1)
    for r in rules:
        w = np.multiply.outer(w, r.weights).reshape(-1)
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# multi-index sets


class MultiIndexSet(_Immutable):
    """Ordered set of d-dimensional multi-indices."""

    dimension: int
    total_order: int
    indices: np.ndarray  # (K, d) integer array

    def __init__(self, dimension, total_order, indices):
        arr = _frozen(indices, np.int64)
        if arr.ndim != 2 or arr.shape[1] != dimension:
            raise ValueError("indices must form a (K, d) array")
        self.__dict__.update(dimension=dimension, total_order=total_order,
                             indices=arr)

    def __len__(self) -> int:
        return self.indices.shape[0]

    @cached_property
    def _position(self) -> dict:
        return {tuple(int(v) for v in row): k
                for k, row in enumerate(self.indices)}

    def position(self, alpha: Sequence[int]) -> int:
        return self._position[tuple(int(v) for v in alpha)]

    def __contains__(self, alpha) -> bool:
        return tuple(int(v) for v in alpha) in self._position

    @staticmethod
    def explicit(indices, dimension: int) -> "MultiIndexSet":
        arr = np.asarray(indices, dtype=np.int64).reshape(-1, dimension)
        order = int(arr.sum(axis=1).max()) if arr.size else 0
        return MultiIndexSet(dimension, order, arr)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def total_degree_index_set(dimension: int, order: int) -> MultiIndexSet:
    """All alpha with |alpha|_1 <= order, graded-lexicographic.

    Indices are sorted by total degree, then ascending lexicographically
    within each degree level.  Size is C(order + dimension, dimension).
    """
    if dimension < 0:
        raise ValueError("dimension must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if dimension == 0:
        # deterministic degenerate case: the single empty index
        return MultiIndexSet(0, 0, np.zeros((1, 0), dtype=np.int64))
    count = math.comb(order + dimension, dimension)
    if count > 2**31 - 1:
        raise OverflowError(
            f"index set of size {count} exceeds the 32-bit bound; a dense "
            "total-degree basis this large is not representable")
    rows = []
    for g in range(order + 1):
        rows.extend(_compositions(g, dimension))
    idx = MultiIndexSet(dimension, order, np.array(rows, dtype=np.int64))
    assert len(idx) == count
    return idx


def _basis_matrix(index_set: MultiIndexSet, bases: Sequence[OrthoBasis],
                  points: np.ndarray) -> np.ndarray:
    """(N, K) matrix of basis values at N points."""
    if len(bases) != index_set.dimension:
        raise ValueError("one univariate basis per dimension is required")
    out = np.ones((points.shape[0], len(index_set)))
    for k, basis in enumerate(bases):
        maxdeg = int(index_set.indices[:, k].max()) if len(index_set) else 0
        if maxdeg > basis.order:
            raise ValueError(
                f"index set uses degree {maxdeg} in dimension {k} but the "
                f"basis there has order {basis.order}")
        table = basis.eval_table(points[:, k])
        out *= table[:, index_set.indices[:, k]]
    return out


# ---------------------------------------------------------------------------
# expansions


class GpcExpansion(_Immutable):
    """Spectral expansion x(xi) = sum_alpha c_alpha H_alpha(xi).

    coefficients has shape (K, n): one length-n coefficient vector per
    multi-index, n being the number of simultaneously expanded outputs.
    """

    index_set: MultiIndexSet
    coefficients: np.ndarray
    bases: tuple[OrthoBasis, ...]

    def __init__(self, index_set, coefficients, bases):
        arr = _frozen(coefficients)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] != len(index_set):
            raise ValueError(
                f"coefficient count {arr.shape[0]} does not match the "
                f"index set size {len(index_set)}")
        bases = tuple(bases)
        if len(bases) != index_set.dimension:
            raise ValueError("one basis per dimension is required")
        self.__dict__.update(index_set=index_set, coefficients=arr,
                             bases=bases)

    @property
    def dimension(self) -> int:
        return self.index_set.dimension

    @property
    def n_outputs(self) -> int:
        return self.coefficients.shape[1]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """(N, n) values at N points, given as (N, d), or as (N,) when
        d = 1; no support checking.

        With one output, the (N, K) basis matrix is built in blocks of
        about CHUNK_BYTES, a multiple of 64 rows, each times the
        coefficients in one BLAS gemv.  Basis values are elementwise in
        the points, and a gemv rounds a row as the whole product does,
        except the few rows left over at the end of a thread's share
        (x86-64 OpenBLAS takes rows in groups of 4), which may differ in
        the last bit.  Several outputs make a gemm, whose kernel depends
        on the row count, so they take one block.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1 and self.dimension == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points of shape {points.shape} are not (N, "
                f"{self.dimension}): the expansion has {self.dimension} "
                f"random inputs")
        rows = max(64, CHUNK_BYTES // (8 * len(self.index_set)) // 64 * 64)
        if self.n_outputs > 1:
            rows = max(1, len(points))
        out = np.empty((len(points), self.n_outputs))
        for lo in range(0, len(points), rows):
            out[lo:lo + rows] = (
                _basis_matrix(self.index_set, self.bases,
                              points[lo:lo + rows]) @ self.coefficients)
        return out

    def eval_grid(self, axes: Sequence) -> np.ndarray:
        """(N, n) values on the tensor grid of the 1-D node arrays in axes,
        N = prod(len(a) for a in axes), by flat node index, first axis
        slowest.

        Sum factorization (Orszag 1980): the coefficients are scattered
        into a dense tensor over the per-axis degrees 0..p_k, which is
        contracted with one basis table per axis.  Neither the (N, d)
        grid nor an (N, K) basis matrix is built; the values match
        eval_many at the grid points up to rounding.
        """
        if len(axes) != self.dimension:
            raise ValueError(
                f"{len(axes)} node arrays given, but the expansion has "
                f"{self.dimension} random inputs")
        idx = self.index_set.indices
        shape = tuple(idx.max(axis=0, initial=0) + 1)
        dense = np.zeros(shape + (self.n_outputs,))
        dense[tuple(idx.T)] = self.coefficients
        for k, (basis, x) in enumerate(zip(self.bases, axes)):
            x = np.asarray(x, dtype=float)
            if x.ndim != 1:
                raise ValueError(f"node array {k} is not one-dimensional")
            if shape[k] > basis.order + 1:
                raise ValueError(
                    f"index set uses degree {shape[k] - 1} in dimension {k} "
                    f"but the basis there has order {basis.order}")
            table = basis.eval_table(x)[:, :shape[k]]
            dense = np.moveaxis(np.tensordot(table, dense, axes=(1, k)), 0, k)
        return dense.reshape(-1, self.n_outputs)

    def mean_variance(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance per output, read off the orthonormal
        coefficients."""
        return _mean_variance(self.index_set, self.coefficients)

    def scalar_coefficients(self) -> np.ndarray:
        if self.n_outputs != 1:
            raise ValueError("expansion holds more than one output")
        return self.coefficients[:, 0]


def _mean_variance(index_set: MultiIndexSet, c: np.ndarray):
    """Mean and variance per output of orthonormal coefficients c
    (..., K, n) on index_set; a stack of expansions gets each one's bits."""
    zero = tuple([0] * index_set.dimension)
    mask = np.ones(c.shape[-2], dtype=bool)
    if zero in index_set:
        k0 = index_set.position(zero)
        mean = c[..., k0, :].copy()
        mask[k0] = False
    else:
        mean = np.zeros(c.shape[:-2] + c.shape[-1:])
    # C order, as c[mask] of one expansion is: the order of the additions
    # follows the layout, and so do the bits
    rest = np.ascontiguousarray(c[..., mask, :])
    return mean, np.sum(rest ** 2, axis=-2)


# ---------------------------------------------------------------------------
# serialization


def _family_dict(basis: OrthoBasis) -> dict:
    dist = basis.distribution
    kind = "custom" if dist is None else dist.kind
    entry: dict = {"kind": kind, "order": basis.order,
                   "gamma": basis.gamma.tolist(),
                   "kappa": basis.kappa.tolist()}
    if kind in FAMILIES:
        entry.update(zip(FAMILIES[kind].params, map(float, dist.params)))
    return entry


def _family_from_dict(entry: dict) -> OrthoBasis:
    kind = entry["kind"]
    if kind in FAMILIES:
        family = FAMILIES[kind]
        dist = family.make(*(entry[name] for name in family.params))
    elif kind == "custom":
        dist = None
    else:
        raise UnsupportedFamilyError(f"unknown family kind '{kind}'")
    return _basis_from_monic(entry["gamma"], entry["kappa"],
                             int(entry["order"]), dist)


def expansion_to_dict(expansion: GpcExpansion) -> dict:
    """The documented JSON schema as a dict, for embedding in a larger
    document; expansion_to_json writes it alone."""
    return {
        "schema": _JSON_SCHEMA,
        "dimension": expansion.dimension,
        "order": expansion.index_set.total_order,
        "families": [_family_dict(b) for b in expansion.bases],
        "indices": expansion.index_set.indices.tolist(),
        "coefficients": expansion.coefficients.tolist(),
    }


def expansion_to_json(expansion: GpcExpansion) -> str:
    """Serialize to the documented JSON schema; binary64 exact round-trip."""
    return _dump_json(expansion_to_dict(expansion))


_NUMBER_TYPES = frozenset((int, float))
_MARK = "\0"          # a block's stand-in string is _MARK + its number
_MARK_JSON = '"\\u0000'


def _block_text(items, level: int) -> str | None:
    """items, a list of ints and floats or of equal-length lists of them,
    as the indent-1 encoder writes it at indent level `level`, in one format
    pass; None for any other list, or for one holding NaN or an infinity."""
    outer = "\n" + " " * (level + 1)
    if type(items[0]) is list:
        n = len(items[0])
        if any(type(r) is not list or len(r) != n for r in items):
            return None
        flat = tuple(itertools.chain.from_iterable(items))
        inner = "\n" + " " * (level + 2)
        item = ("[" + inner + ("," + inner).join(["%r"] * n) + outer + "]"
                if n else "[]")
    else:
        flat, item = tuple(items), "%r"
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return None
    text = ("[" + outer + ("," + outer).join([item] * len(items)) + "\n"
            + " " * level + "]") % flat
    # an int's or a finite float's repr is what the encoder writes; nan
    # and inf, the only reprs with an "n", are not
    return None if "n" in text else text


def _dump_json(doc) -> str:
    """json.dumps(doc, indent=1, sort_keys=True), byte for byte.  Indenting
    makes the stdlib encode in Python, about 1 us per number, so each list
    of numbers, or of lists of numbers (an expansion's indices and
    coefficients), is written by _block_text and spliced in where the
    stdlib writes its stand-in."""
    blocks = []

    def stand_ins(o, level):
        if isinstance(o, dict):
            return {k: stand_ins(v, level + 1) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            text = _block_text(o, level) if o else None
            if text is not None:
                blocks.append(text)
                return _MARK + str(len(blocks) - 1)
            return [stand_ins(v, level + 1) for v in o]
        return o

    out = json.dumps(stand_ins(doc, 0), indent=1, sort_keys=True)
    if out.count(_MARK_JSON) != len(blocks):   # a string of doc's own
        return json.dumps(doc, indent=1, sort_keys=True)
    return re.sub(r'"\\u0000(\d+)"', lambda m: blocks[int(m[1])], out)


def expansion_from_json(text: str) -> GpcExpansion:
    doc = json.loads(text)
    if doc.get("schema") != _JSON_SCHEMA:
        raise ValueError(f"unrecognized expansion schema {doc.get('schema')!r}")
    d = int(doc["dimension"])
    idx = MultiIndexSet.explicit(np.asarray(doc["indices"], dtype=np.int64), d)
    bases = tuple(_family_from_dict(e) for e in doc["families"])
    coeffs = np.asarray(doc["coefficients"], dtype=float)
    return GpcExpansion(idx, coeffs, bases)
