"""Adaptive anchored decomposition with global sensitivity indices.

A d-variable function g is split into terms g_s indexed by coordinate
subsets s: the complement coordinates are frozen at a deterministic
anchor point, each restricted function is projected onto a low-order
gPC expansion, and lower-order terms are subtracted so that every g_s
vanishes whenever one of its own coordinates sits at the anchor.  A
variance screen decides, level by level, which subsets are worth
expanding further; screened-out subsets keep their computed term but
block all of their supersets.  The surviving terms are assembled into
one sparse d-variable expansion, from which main and total sensitivity
indices are read off coefficient-wise.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .polychaos import (Distribution, GpcExpansion, MultiIndexSet, OrthoBasis,
                        _Immutable, _frozen)
from .stsolver import (CONDITION_CAP, SolverError, TestingPointSet,
                       recover_coefficients, select_testing_points,
                       standard_bases)

__all__ = [
    "AnovaTerm",
    "AnovaDecomposition",
    "anchor_point",
    "compose_term",
    "adaptive_anova",
    "sample_count",
    "sensitivities",
]


class AnovaTerm(_Immutable):
    subset: tuple          # sorted coordinate indices
    expansion: GpcExpansion  # scalar expansion in the |subset| variables
    variance: float
    theta: float | None    # variance share at screening time

    def __init__(self, subset, expansion, variance, theta=None):
        self.__dict__.update(subset=subset, expansion=expansion,
                             variance=variance, theta=theta)


class AnovaDecomposition(_Immutable):
    g0: float
    terms: tuple             # every computed AnovaTerm, in computation order
    active: dict             # level -> subsets that passed the screen
    pruned: tuple            # subsets whose supersets were blocked
    beta: float              # accumulated variance over all computed terms
    m: int
    sigma: float
    order: int
    anchor: np.ndarray       # read-only (d,) anchor coordinates
    n_by_level: tuple        # computed subsets per level 1..m
    n_evaluations: int       # unique model evaluations spent

    def __init__(self, g0, terms, active, pruned, beta, m, sigma, order,
                 anchor, n_by_level, n_evaluations):
        self.__dict__.update(
            g0=g0, terms=terms, active=active, pruned=pruned, beta=beta,
            m=m, sigma=sigma, order=order, anchor=anchor,
            n_by_level=n_by_level, n_evaluations=n_evaluations)


def anchor_point(distributions: Sequence[Distribution],
                 p_unit=0.5) -> np.ndarray:
    """Anchor at given per-coordinate quantiles (scalar broadcasts): its
    read-only (d,) coordinates, coordinate k the quantile p_unit[k] of
    marginal k.  A custom density's quantiles need it strictly positive
    on its support interior, which its CDF table probes."""
    d = len(distributions)
    p = np.asarray(p_unit, dtype=float).ravel()
    if p.size not in (1, d):
        raise ValueError(f"anchor has {p.size} quantiles; give 1 or one per "
                         f"random input ({d})")
    p = np.broadcast_to(p, (d,)).copy()
    if not np.all((p > 0.0) & (p < 1.0)):   # NaN fails too
        raise ValueError("anchor quantiles must lie strictly inside (0, 1)")
    return _frozen([float(dist.inv_cdf(p[k]))
                    for k, dist in enumerate(distributions)])


# ---------------------------------------------------------------------------
# anchored terms


def _restriction_points(subset: tuple, anchor: np.ndarray,
                        bases: Sequence[OrthoBasis], order: int,
                        condition_cap: float, selections: dict):
    """Testing points of g restricted to `subset`, the complement frozen
    at the anchor: (points (K, d), the subset's TestingPointSet).

    `selections` memoizes the selection by the subset's marginal
    recurrences (the basis norms follow from kappa), which with `order`
    and `condition_cap` (fixed by the caller for one dict) are all it
    depends on; the returned set carries the subset's own bases.
    """
    sub_bases = tuple(bases[k] for k in subset)
    key = tuple((b.gamma.tobytes(), b.kappa.tobytes()) for b in sub_bases)
    tps = selections.get(key)
    if tps is None:
        try:
            tps = select_testing_points(sub_bases, order, condition_cap)
        except (ValueError, SolverError) as err:
            raise SolverError(f"subset {subset}: {err}") from err
        selections[key] = tps
    points = np.tile(anchor, (tps.n_points, 1))
    points[:, list(subset)] = tps.points
    return points, TestingPointSet(tps.points, tps.V, tps.condition,
                                   sub_bases, tps.index_set)


def _project(subset: tuple, values: np.ndarray, tps) -> GpcExpansion:
    """The restriction's expansion from its values at the testing points."""
    try:
        return recover_coefficients(values.reshape(-1, 1), tps)
    except SolverError as err:
        raise SolverError(f"subset {subset}: {err}") from err


def _embedded(term: AnovaTerm, positions, width: int):
    """(multi-index, coefficient) pairs of `term` in its own order, each
    index placed at `positions` among `width` coordinates."""
    for alpha, c in zip(term.expansion.index_set.indices,
                        term.expansion.scalar_coefficients()):
        key = [0] * width
        for pos, a in zip(positions, alpha):
            key[pos] = int(a)
        yield tuple(key), float(c)


def compose_term(subset, ghat: GpcExpansion, g0: float,
                 lower_terms: Mapping[tuple, AnovaTerm],
                 pruned=()) -> AnovaTerm:
    """Subtract every strict-subset term from the restricted expansion.

    Terms listed in `pruned` are taken as exactly zero.  A strict subset
    that is neither present nor pruned is an internal invariant
    violation: levels must be composed in order.
    """
    subset = tuple(sorted(int(k) for k in subset))
    pruned = set(tuple(p) for p in pruned)
    coeffs = ghat.scalar_coefficients().astype(float).copy()
    idx = ghat.index_set
    coeffs[idx.position((0,) * len(subset))] -= g0
    for size in range(1, len(subset)):
        for t in itertools.combinations(subset, size):
            if t in pruned:
                continue
            term = lower_terms.get(t)
            if term is None:
                raise RuntimeError(
                    f"internal invariant violation: subset {t} of {subset} "
                    "was neither computed nor pruned")
            positions = [subset.index(k) for k in t]
            for key, c in _embedded(term, positions, len(subset)):
                coeffs[idx.position(key)] -= c
    variance = float(np.sum(coeffs[1:] ** 2))
    exp = GpcExpansion(idx, coeffs.reshape(-1, 1), ghat.bases)
    return AnovaTerm(subset=subset, expansion=exp, variance=variance)


# ---------------------------------------------------------------------------
# the adaptive decomposition


def adaptive_anova(g: Callable, distributions: Sequence[Distribution],
                   m: int, sigma: float, order: int,
                   anchor: Sequence[float] | None = None,
                   condition_cap: float = CONDITION_CAP
                   ) -> tuple[AnovaDecomposition, GpcExpansion]:
    """Level-wise anchored decomposition with a variance screen.

    Levels k = 1..m: every size-k subset whose size-(k-1) subsets all
    passed the screen is projected and composed; beta accumulates the
    term variances; after the level, subsets with variance share
    theta = Var(g_s)/beta below sigma stop producing supersets.  All
    computed terms enter the assembled expansion regardless of the
    screen.  `anchor` holds the (d,) coordinates at which the inactive
    inputs are frozen (anchor_point gives them; by default the marginal
    medians); the record keeps a read-only copy.  Returns the
    decomposition record and the sparse d-variable expansion.  g maps a
    (d, K) array of K points (x[k] is coordinate k of every point) to
    their K values.  It is called once for the anchor
    and once per level, on all new testing points of the level's subsets
    in one stack, each point once; a g that treats its points
    independently gives every term the bits a call per subset gives it.
    A stacked Newton does so up to rounding: a long stack takes the
    planned LU, a short one LAPACK (stsolver._solve_rows).
    """
    distributions = tuple(distributions)
    d = len(distributions)
    if not 1 <= m <= d:
        raise ValueError(f"effective dimension m={m} must lie in 1..{d}")
    if not sigma >= 0.0:   # NaN fails too
        raise ValueError("the screen threshold sigma must be nonnegative")
    if anchor is None:
        anchor = anchor_point(distributions, 0.5)
    anchor = _frozen(anchor)
    if anchor.shape != (d,):
        raise ValueError(f"anchor must hold one coordinate per random input, "
                         f"shape ({d},); got {anchor.shape}")
    for k, dist in enumerate(distributions):
        if float(dist.density(float(anchor[k]))) <= 0.0:
            raise ValueError(
                f"anchor coordinate {k} falls where the density vanishes")
    bases = standard_bases(distributions, order)

    cache: dict[bytes, float] = {}
    selections: dict = {}   # testing points by marginal recurrences

    def evaluate(points: np.ndarray) -> np.ndarray:
        keys = [pt.tobytes() for pt in points.T]
        new = {key: k for k, key in enumerate(keys) if key not in cache}
        if new:
            values = np.asarray(g(points[:, list(new.values())]), dtype=float)
            cache.update(zip(new, np.broadcast_to(values, (len(new),))))
        return np.array([cache[key] for key in keys])

    g0 = float(evaluate(anchor[:, None])[0])
    computed: dict[tuple, AnovaTerm] = {}
    all_terms: list[AnovaTerm] = []
    pruned: list[tuple] = []
    active: dict[int, list] = {}
    beta = 0.0
    n_by_level = []

    for level in range(1, m + 1):
        if level == 1:
            candidates = [(k,) for k in range(d)]
        else:
            pool = sorted({k for s in active[level - 1] for k in s})
            prev = set(active[level - 1])
            candidates = [
                s for s in itertools.combinations(pool, level)
                if all(t in prev
                       for t in itertools.combinations(s, level - 1))
            ]
        n_by_level.append(len(candidates))
        # the level's points in one stack, then its terms in order
        specs = [_restriction_points(subset, anchor, bases, order,
                                     condition_cap, selections)
                 for subset in candidates]
        if specs:
            values = evaluate(np.concatenate([sp[0] for sp in specs]).T)
        level_terms = []
        lo = 0
        for subset, (points, tps) in zip(candidates, specs):
            ghat = _project(subset, values[lo:lo + len(points)], tps)
            lo += len(points)
            term = compose_term(subset, ghat, g0, computed, pruned)
            computed[subset] = term
            level_terms.append(term)
            beta += term.variance
        active[level] = []
        for term in level_terms:
            theta = term.variance / beta if beta > 0.0 else 0.0
            term = AnovaTerm(term.subset, term.expansion, term.variance,
                             theta)
            computed[term.subset] = term
            all_terms.append(term)
            if theta < sigma:
                pruned.append(term.subset)
            else:
                active[level].append(term.subset)

    decomp = AnovaDecomposition(
        g0=g0, terms=tuple(all_terms), active=active, pruned=tuple(pruned),
        beta=beta, m=m, sigma=sigma, order=order, anchor=anchor,
        n_by_level=tuple(n_by_level), n_evaluations=len(cache))
    return decomp, _assemble(decomp, d, bases)


def _assemble(decomp: AnovaDecomposition, d: int,
              bases: Sequence[OrthoBasis]) -> GpcExpansion:
    """Sum all computed terms into one sparse d-variable expansion."""
    accum: dict[tuple, float] = {(0,) * d: decomp.g0}
    for term in decomp.terms:
        for key, c in _embedded(term, term.subset, d):
            accum[key] = accum.get(key, 0.0) + c
    rows = sorted(accum, key=lambda a: (sum(a), a))
    idx = MultiIndexSet.explicit(np.array(rows, dtype=np.int64), d)
    coeffs = np.array([[accum[a]] for a in rows])
    return GpcExpansion(idx, coeffs, tuple(bases))


def sample_count(n_by_level: Sequence[int], order: int) -> int:
    """Total model evaluations: 1 + sum_k n_k * C(k + order, order)."""
    total = 1
    for k, n_k in enumerate(n_by_level, start=1):
        total += int(n_k) * math.comb(k + order, order)
    return total


# ---------------------------------------------------------------------------
# sensitivity indices


def sensitivities(exp: GpcExpansion) -> tuple[np.ndarray, np.ndarray]:
    """Main and total variance shares per input, from the coefficients.

    S[k] sums squared coefficients whose index involves coordinate k
    alone; T[k] sums those involving k at all.  Both divide by the total
    variance.
    """
    coeffs = exp.scalar_coefficients()
    indices = exp.index_set.indices
    d = exp.index_set.dimension
    nonconst = indices.sum(axis=1) > 0
    variance = float(np.sum(coeffs[nonconst] ** 2))
    if variance <= 0.0:
        raise ValueError("sensitivities are undefined for a zero-variance "
                         "expansion")
    S = np.zeros(d)
    T = np.zeros(d)
    sq = coeffs ** 2
    for k in range(d):
        involves = indices[:, k] > 0
        T[k] = np.sum(sq[involves]) / variance
        only_k = involves & (indices.sum(axis=1) == indices[:, k])
        S[k] = np.sum(sq[only_k]) / variance
    return S, T
