"""Lower/upper expectations of gambles via cut sets and bracketed quadrature.

A gamble on the underlying space enters as its lower (or upper) oscillation,
a bounded function of the quotient coordinate z.  The expectation is the
oscillation's infimum plus the integral over cut levels t of the lower
(upper) probability of the cut set ``{z : osc(z) >= t}``.  That integrand is
non-increasing in t, so lower and upper Darboux sums on any t-grid bracket
the integral with a rigorous two-sided error.  The grid is refined
adaptively: each round halves only the cells that carry a large share of the
bracket width, until the bracket is narrower than the requested tolerance.

Every cut set is represented the same way: the closed components ``[a, b]``
of ``{osc >= t}`` for a whole batch of levels, as flat arrays.  The
continuum formula of :mod:`pboxes.pbox` (``_piece_gains``) turns them into
lower probabilities and their complements into upper ones.  They are exact
wherever the oscillation's structure allows it: from the segment crossings
of a piecewise-linear oscillation's knots, or from a registered inverse.
Other declared-monotone oscillations bisect their one moving endpoint;
black-box non-monotone ones are scanned on a grid once per batch and every
boundary is bisected, which can miss components narrower than the grid
spacing.

Gambles over finite quotient spaces bypass quadrature entirely: the
expectation is an exact finite sum over the sorted distinct gamble values,
weighted by the finite formula of :func:`pboxes.pbox.lower_prob_event`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceError, ValidationError
from .pbox import PBox, _piece_gains, lower_prob_event, vectorized
from .preorder import ClassSubset, ZEventSet, ZInterval, _finite_number, normalize

__all__ = [
    "Oscillation",
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
    "cut_event",
    "lower_expectation",
    "upper_expectation",
    "lower_expectation_finite",
    "threshold_solve",
]

INCREASING = "increasing"
DECREASING = "decreasing"
GENERAL = "general"

_VALIDATION_POINTS = 129
_INVERSE_ROUNDTRIP_TOL = 1e-10
# hard cap on grid size so a hopeless tolerance flags instead of exhausting memory
_MAX_GRID = 1 << 21
# levels x cells per level handled in one vectorized pass, to bound its memory
_CUT_BATCH_CELLS = 1 << 22
# sections per round of the threshold search: 31 interior levels per batch
_SECTIONS = 32


@dataclass(frozen=True)
class Oscillation:
    """A bounded function of the quotient coordinate with monotonicity metadata.

    ``inverse``, when given, maps a level t to the coordinate solving
    ``f(z) = t`` on the declared monotone range; cut-set endpoints then come
    from it directly instead of bisection.  Discontinuous oscillations
    should always register an exact inverse, since bisection can only locate
    a jump to within the bisection tolerance.

    ``sup_value`` may be ``math.inf`` for upper oscillations that blow up at
    the top of the coordinate range; expectations then require a tail
    tolerance (see :class:`QuadratureConfig`).

    ``knots``, when given, are sorted ``(z, value)`` pairs of which ``f`` is
    the linear interpolation, held flat beyond the end knots (as
    ``np.interp`` does).  Cut sets then come exactly from the segment
    crossings, whatever the monotonicity.

    ``f`` and ``inverse`` may be scalar-only: each is probed once here and,
    if it rejects arrays, looped over elements (see :func:`vectorized`).
    """

    f: Callable
    inf_value: float
    sup_value: float
    monotonicity: str = GENERAL
    inverse: Callable | None = None
    knots: tuple | None = None

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING, GENERAL):
            raise ValidationError(f"unknown monotonicity {self.monotonicity!r}")
        # the infimum of a bounded gamble is finite; its supremum may be +inf
        object.__setattr__(self, "inf_value", _finite_number(self.inf_value))
        if math.isnan(self.sup_value) or self.inf_value > self.sup_value:
            raise ValidationError("inf_value exceeds sup_value")
        object.__setattr__(self, "f", vectorized(self.f))
        zs = np.linspace(0.0, 1.0, _VALIDATION_POINTS)
        vals = self.f(zs)
        if np.any(vals < self.inf_value - 1e-9):
            raise ValidationError("oscillation drops below its declared infimum")
        if not math.isinf(self.sup_value) and np.any(vals > self.sup_value + 1e-9):
            raise ValidationError("oscillation exceeds its declared supremum")
        if self.monotonicity == INCREASING and np.any(np.diff(vals) < -1e-9):
            raise ValidationError("oscillation is not increasing on the validation grid")
        if self.monotonicity == DECREASING and np.any(np.diff(vals) > 1e-9):
            raise ValidationError("oscillation is not decreasing on the validation grid")
        if self.inverse is not None:
            self._check_inverse(zs, vals)
        if self.knots is not None:
            knot_zs, knot_vs = np.asarray(self.knots, dtype=float).T
            if not np.allclose(vals, np.interp(zs, knot_zs, knot_vs), rtol=0.0, atol=1e-9):
                raise ValidationError("oscillation disagrees with its knots")

    @cached_property
    def _end_values(self) -> tuple:
        """``(f(0), f(1))``, evaluated once."""
        return float(self.f(0.0)), float(self.f(1.0))

    def _check_inverse(self, zs, vals):
        if self.monotonicity == GENERAL:
            raise ValidationError("an inverse requires declared monotonicity")
        # sample the central range only: near the ends of the coordinate
        # range the slope of an unbounded oscillation defeats any finite
        # roundtrip tolerance
        interior = slice(_VALIDATION_POINTS // 32, -_VALIDATION_POINTS // 32)
        ts = np.unique(vals[interior])
        ts = ts[np.isfinite(ts)]
        object.__setattr__(self, "inverse", vectorized(self.inverse, probe=ts))
        back_zs = np.clip(self.inverse(ts), 0.0, 1.0)
        back = self.f(back_zs)
        for t, z, b in zip(ts, back_zs, back):
            if abs(b - t) <= _INVERSE_ROUNDTRIP_TOL:
                continue
            # a discontinuous oscillation has no exact roundtrip: its inverse
            # lands on the jump itself, so accept a point that brackets the
            # cut-set boundary instead
            if self._brackets_boundary(float(z), float(t)):
                continue
            raise ValidationError(
                f"inverse inconsistent with oscillation: f(inverse({t})) = {b}")

    def _brackets_boundary(self, z: float, t: float, h: float = 1e-9) -> bool:
        above = float(self.f(min(z + h, 1.0)))
        below = float(self.f(max(z - h, 0.0)))
        if self.monotonicity == INCREASING:
            inside, outside = above, below
        else:
            inside, outside = below, above
        edge = (z <= h) if self.monotonicity == INCREASING else (z >= 1.0 - h)
        return inside >= t - 1e-9 and (edge or outside <= t + 1e-9)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the bracketed cut-level quadrature.

    ``max_refinements`` caps the rounds of adaptive refinement; a round
    halves every cell whose share of the bracket width is large, not the
    whole grid.  Knot oscillations and registered inverses give exact cut
    sets, so ``cut_grid`` and the cut-set use of ``bisect_tol`` only affect
    black-box oscillations: a non-monotone one is scanned once per batch of
    levels on ``cut_grid`` cells, and every cut-set boundary, of a scan or
    of a monotone oscillation without an inverse, is bisected to
    ``bisect_tol``.  ``bisect_tol`` is also the tolerance of
    :func:`threshold_solve`.
    """

    abs_tol: float = 1e-4
    max_refinements: int = 24
    cut_grid: int = 4096
    bisect_tol: float = 1e-12
    tail_tol: float = 1e-8

    def __post_init__(self):
        for key in ("abs_tol", "bisect_tol", "tail_tol"):
            object.__setattr__(self, key, _finite_number(getattr(self, key)))
        if self.abs_tol < 1e-12:
            raise ValidationError("abs_tol below 1e-12 is not honoured")
        if min(self.abs_tol, self.bisect_tol, self.tail_tol) <= 0:
            raise ValidationError("tolerances must be positive")
        if self.max_refinements <= 0 or self.cut_grid <= 0:
            raise ValidationError("refinement and grid counts must be positive")
        if self.cut_grid > _MAX_GRID:
            raise ValidationError(f"cut_grid above {_MAX_GRID} is not supported")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Bracket midpoint plus the half-width of the enclosing Darboux bracket.

    ``refinements`` counts the rounds of adaptive refinement; each round
    split some cells of the level grid at their midpoints.
    """

    value: float
    error_bound: float
    converged: bool
    refinements: int = 0

    @property
    def bracket(self) -> tuple:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def __float__(self) -> float:
        return self.value


def _bisect(f, ts: np.ndarray, lo: np.ndarray, hi: np.ndarray, rising,
            tol: float) -> np.ndarray:
    """Boundaries of ``{f >= t}``, one per level, each in its bracket ``[lo, hi]``.

    A rising boundary has ``f(lo) < t <= f(hi)``, a falling one (``rising``
    false, per level or for all) ``f(lo) >= t > f(hi)``.  Every bracket is
    halved while it is wider than ``tol`` and its midpoint still splits it,
    and its inside end is returned: ``hi`` if rising, else ``lo``.
    """
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not live.any():
            return np.where(rising, hi, lo)
        to_hi = (f(mid) >= ts) == rising
        lo = np.where(live & ~to_hi, mid, lo)
        hi = np.where(live & to_hi, mid, hi)


def _runs(inside: np.ndarray):
    """Row, first column and one-past-last column of every run of true cells."""
    edges = np.diff(np.pad(inside, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    row, first = np.nonzero(edges > 0)
    _, stop = np.nonzero(edges < 0)
    return row, first, stop


def _knot_components(knots, ts: np.ndarray):
    """Maximal components ``[a, b]`` of ``{f >= t}`` for every level in ``ts``.

    ``f`` is the linear interpolation of ``knots``, flat beyond the end
    knots.  A run of knots at or above a level is one component; its
    endpoints are the crossings of the segments leaving the run, measured
    from the inside knot so that a level equal to a knot value lands on that
    knot exactly.  A run that reaches an end knot extends to that end of
    [0, 1].  Components outside [0, 1] are dropped and the rest clipped to it.
    """
    zs, vs = np.asarray(knots, dtype=float).T
    last = len(zs) - 1
    level, first, stop = _runs(vs >= ts[:, None])
    t = ts[level]

    a = np.zeros(len(level))
    rise = first > 0
    k, t_in = first[rise], t[rise]
    a[rise] = zs[k] - (vs[k] - t_in) / (vs[k] - vs[k - 1]) * (zs[k] - zs[k - 1])

    b = np.ones(len(level))
    j = stop - 1
    fall = j < last
    j, t_in = j[fall], t[fall]
    b[fall] = zs[j] + (vs[j] - t_in) / (vs[j] - vs[j + 1]) * (zs[j + 1] - zs[j])

    keep = (b >= 0.0) & (a <= 1.0)
    return level[keep], np.clip(a[keep], 0.0, 1.0), np.clip(b[keep], 0.0, 1.0)


def _monotone_components(osc: Oscillation, ts: np.ndarray, cfg: QuadratureConfig):
    """The one component of a declared-monotone cut: ``[0, z]`` if decreasing,
    ``[z, 1]`` if increasing, with ``z`` from the inverse or by bisection.

    Levels at or below the value at the anchored end cut all of [0, 1];
    levels above the value at the free end cut nothing.
    """
    decreasing = osc.monotonicity == DECREASING
    f_anchor, f_free = osc._end_values[::-1] if decreasing else osc._end_values
    # the whole space until the level passes the value at the anchor
    moving = np.full(len(ts), 1.0 if decreasing else 0.0)
    inner = (ts > f_anchor) & (ts <= f_free)
    if inner.any():
        t = ts[inner]
        z = osc.inverse(t) if osc.inverse is not None else _bisect(
            osc.f, t, np.zeros(len(t)), np.ones(len(t)), not decreasing, cfg.bisect_tol)
        moving[inner] = np.clip(z, 0.0, 1.0)
    level = np.flatnonzero(ts <= f_free)
    # a read-only view of one value: the anchored ends take no memory
    anchor = np.broadcast_to(0.0 if decreasing else 1.0, level.shape)
    if decreasing:
        return level, anchor, moving[level]
    return level, moving[level], anchor


def _scan_components(f, ts: np.ndarray, cfg: QuadratureConfig):
    """Components of black-box cuts from one scan on ``cfg.cut_grid`` cells.

    ``f`` is evaluated on the grid once for the whole batch of levels; each
    run of grid points at or above a level is one component, and the
    boundaries between grid points, of all levels at once, are bisected in
    one pass.  A component narrower than the grid spacing can be missed.
    """
    zs = np.linspace(0.0, 1.0, cfg.cut_grid + 1)
    level, first, stop = _runs(f(zs) >= ts[:, None])
    a, b = zs[first], zs[stop - 1]
    rise = np.flatnonzero(first > 0)
    fall = np.flatnonzero(stop < len(zs))
    # the left grid point of the cell holding each boundary
    cell = np.concatenate([first[rise] - 1, stop[fall] - 1])
    rising = np.arange(len(cell)) < len(rise)
    ends = _bisect(f, ts[level[np.concatenate([rise, fall])]], zs[cell], zs[cell + 1],
                   rising, cfg.bisect_tol)
    a[rise], b[fall] = ends[:len(rise)], ends[len(rise):]
    return level, a, b


def _cut_components(osc: Oscillation, ts: np.ndarray, cfg: QuadratureConfig):
    """Closed components ``[a, b]`` of ``{osc >= t}`` for every level in ``ts``.

    Returns level indices and endpoints as flat arrays, sorted by level and
    then by coordinate, disjoint and within [0, 1]; a level with an empty
    cut has no entry.
    """
    if osc.knots is not None:
        return _knot_components(osc.knots, ts)
    if osc.monotonicity == GENERAL:
        return _scan_components(osc.f, ts, cfg)
    return _monotone_components(osc, ts, cfg)


def _component_probs(pbox: PBox, n: int, level: np.ndarray, a: np.ndarray, b: np.ndarray,
                     upper: bool) -> np.ndarray:
    """Lower (upper) probabilities of ``n`` cut sets given by their components.

    The lower probability of a union of closed components is the sum of
    their gains (:func:`pboxes.pbox._piece_gains`).  The upper one is 1
    minus the lower probability of the complement, whose pieces are
    ``[0, a_1)``, the open gaps ``(b_k, a_{k+1})`` and ``(b_n, 1]`` of each
    level (all of ``[0, 1]`` for an empty cut), all passed in one call.
    """
    m = len(a)
    if not upper:
        closed = np.zeros(m, dtype=bool)
        gains = _piece_gains(pbox, a, b, closed, closed)
        return np.clip(np.bincount(level, weights=gains, minlength=n), 0.0, 1.0)
    # first[k]: component k starts its level; first[m] stands for the next level
    first = np.ones(m + 1, dtype=bool)
    first[1:m] = level[1:] != level[:-1]
    last = first[1:]
    # the gap below each component, then per level the gap above its last one
    lo, hi = np.zeros(m + n), np.ones(m + n)
    lo_open, hi_open = np.zeros(m + n, dtype=bool), np.zeros(m + n, dtype=bool)
    lo[1:m] = np.where(first[1:m], 0.0, b[:-1])
    lo_open[:m], hi[:m], hi_open[:m] = ~first[:m], a, True
    lo[m:][level[last]], lo_open[m:][level[last]] = b[last], True
    gains = _piece_gains(pbox, lo, hi, lo_open, hi_open)
    # each level sums its gaps from the bottom up
    total = np.bincount(level, weights=gains[:m], minlength=n) + gains[m:]
    return 1.0 - np.clip(total, 0.0, 1.0)


def cut_event(osc: Oscillation, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> ZEventSet:
    """Normalized coordinate set ``{z : osc(z) >= t}``.

    The components are those the quadrature computes for a whole batch of
    levels (:func:`_cut_components`), here for one level: exact segment
    crossings for knot oscillations; for other declared-monotone ones a
    single interval anchored at 0 or 1, whose moving end comes from the
    registered inverse or by bisection; for black-box general ones a scan
    on ``cfg.cut_grid`` cells with every boundary bisected.
    """
    _, lo, hi = _cut_components(osc, np.array([float(t)]), cfg)
    return normalize([ZInterval.closed(a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def _batch_cut_probs(pbox: PBox, osc: Oscillation, ts: np.ndarray, upper: bool,
                     cfg: QuadratureConfig) -> np.ndarray:
    """Lower (upper) cut probabilities at every level in ``ts``.

    The components of all cut sets come from one :func:`_cut_components`
    pass and their probabilities from one :func:`_component_probs` pass.
    Levels go in chunks, so that levels times the cells scanned per level
    (one for a monotone oscillation, its knots, or the ``cut_grid`` points
    of a black box) stays within a fixed memory bound.
    """
    if osc.knots is not None:
        cells = len(osc.knots)
    else:
        cells = cfg.cut_grid + 1 if osc.monotonicity == GENERAL else 1
    n = len(ts)
    step = max(1, _CUT_BATCH_CELLS // cells)
    if n > step:
        return np.concatenate([_batch_cut_probs(pbox, osc, ts[i:i + step], upper, cfg)
                               for i in range(0, n, step)])
    level, a, b = _cut_components(osc, ts, cfg)
    return _component_probs(pbox, n, level, a, b, upper)


def _assert_monotone_integrand(rises: np.ndarray):
    """Reject an integrand that rises by more than float dust between levels."""
    if np.any(rises > 1e-7):
        raise ValidationError(
            "cut probability increased with the level; "
            "oscillation metadata or p-box inputs are inconsistent")


def _darboux(batch, a: float, b: float, cfg: QuadratureConfig):
    """Bracket the integral of a non-increasing integrand on [a, b].

    Returns midpoint, half-width, convergence flag, and the number of
    refinement rounds performed.  On every cell the integrand lies between
    its right and left endpoint values, so the bracket [lower sum, upper sum]
    (the right- and left-endpoint rules on the current, possibly non-uniform
    grid) contains the integral whatever the cell widths.

    Each round splits, at its midpoint, only the cells whose contribution
    ``c = width * (g_left - g_right)`` to the bracket width satisfies
    ``c * n >= abs_tol / 2`` for ``n`` cells: the cells left alone add up to
    less than ``abs_tol / 2``, and a split halves a cell's contribution.
    Flat stretches of the integrand thus stay coarse.  Cells only ever split
    at midpoints, so the grid for a tighter tolerance refines the grid for a
    looser one and the brackets nest.
    """
    ts = np.linspace(a, b, 17)
    g = np.clip(batch(ts), 0.0, 1.0)
    _assert_monotone_integrand(np.diff(g))
    g = np.minimum.accumulate(g)  # remove float dust only; checked just above
    rounds = 0
    while True:
        delta = ts[1:] - ts[:-1]
        gaps = delta * (g[:-1] - g[1:])
        width = float(gaps.sum())
        split = gaps >= 0.5 * cfg.abs_tol / len(gaps)
        cells = np.flatnonzero(split)
        converged = width < cfg.abs_tol
        if (converged or rounds >= cfg.max_refinements
                or len(gaps) + len(cells) > _MAX_GRID):
            lower = float(delta @ g[1:])
            return lower + 0.5 * width, 0.5 * width, converged, rounds
        right = cells + 1
        mids = 0.5 * (ts[cells] + ts[right])
        g_left, g_right = g[cells], g[right]
        gm = np.clip(batch(mids), 0.0, 1.0)
        # the rest of the grid is already monotone; clip float dust only
        _assert_monotone_integrand(np.maximum(gm - g_left, g_right - gm))
        gm = np.minimum(np.maximum(gm, g_right), g_left)
        # scatter: every level moves up by the number of midpoints below it
        at = np.arange(len(ts))
        at[1:] += np.cumsum(split)
        ts_new = np.empty(len(ts) + len(cells))
        g_new = np.empty_like(ts_new)
        at_mid = at[cells] + 1
        ts_new[at], g_new[at] = ts, g
        ts_new[at_mid], g_new[at_mid] = mids, gm
        ts, g = ts_new, g_new
        rounds += 1


def _require_continuum(pbox: PBox) -> None:
    """Refuse a finite-space p-box: cut sets and quadrature need the continuum."""
    if pbox.is_finite:
        raise ValidationError("use lower_expectation_finite on finite spaces")


def _integrand(pbox: PBox, osc: Oscillation, upper: bool, cfg: QuadratureConfig):
    """The lower (upper) cut probability of ``osc`` as a batch function of
    the level, the range ``[a, b]`` of levels it is integrated over, and the
    width charged for the tail beyond ``b``.

    An unbounded oscillation (``sup_value = inf``) is integrated up to the
    level where the integrand falls below ``cfg.tail_tol``; the truncated
    tail is charged ``tail_tol * (b - last level above tail_tol)``.
    """
    _require_continuum(pbox)
    batch = partial(_batch_cut_probs, pbox, osc, upper=upper, cfg=cfg)
    a, b = osc.inf_value, osc.sup_value
    if not math.isinf(b):
        return batch, a, b, 0.0
    b, last_above = _span_doubling(batch, a, cfg.tail_tol)
    return batch, a, b, cfg.tail_tol * max(b - last_above, 0.0)


def _expectation(pbox: PBox, osc: Oscillation, upper: bool,
                 cfg: QuadratureConfig) -> QuadratureResult:
    """``inf + integral of the cut probability``, bracketed by :func:`_darboux`."""
    batch, a, b, tail = _integrand(pbox, osc, upper, cfg)
    if b <= a:
        return QuadratureResult(a, 0.0, True)
    mid, hw, ok, rounds = _darboux(batch, a, b, cfg)
    return QuadratureResult(a + mid + 0.5 * tail, hw + 0.5 * tail, ok, rounds)


def lower_expectation(pbox: PBox, losc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Lower expectation of a gamble given its lower oscillation.

    Computes ``inf + integral of the lower cut probability`` over the
    oscillation's range, with the integral bracketed by Darboux sums.  The
    caller guarantees that ``losc`` is the per-class infimum of the target
    gamble.
    """
    if math.isinf(losc.sup_value):
        raise ValidationError("a lower oscillation of a bounded gamble is bounded")
    return _expectation(pbox, losc, False, cfg)


def upper_expectation(pbox: PBox, uosc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Upper expectation of a gamble given its upper oscillation.

    Mirrors :func:`lower_expectation` through conjugacy.  An unbounded
    oscillation (``sup_value = inf``) is integrated up to the level where the
    integrand falls below ``cfg.tail_tol``, and the tail beyond it is
    charged to the reported error (see :func:`_integrand`).
    """
    return _expectation(pbox, uosc, True, cfg)


def _span_doubling(batch, a: float, value: float):
    """First level ``a + 2**k`` (k = 0 .. 63) where the integrand is below
    ``value``, and the last probed level where it is not (``a`` if none).

    The levels are probed in blocks of eight per ``batch`` call; the answer
    is that of probing them one at a time.
    """
    t_above = a
    for k in range(0, 64, 8):
        ts = a + np.ldexp(1.0, np.arange(k, k + 8))
        below = np.flatnonzero(batch(ts) < value)
        if below.size:
            i = int(below[0])
            return float(ts[i]), (float(ts[i - 1]) if i else t_above)
        t_above = float(ts[-1])
    raise ToleranceError(f"integrand never fell below {value:g}")


def lower_expectation_finite(pbox: PBox, gamble: Sequence) -> float:
    """Exact expectation bound for a gamble on a finite quotient space.

    Sorts the distinct gamble values and accumulates value increments times
    the lower probability of the super-level class subsets; no quadrature is
    involved.
    """
    if not pbox.is_finite:
        raise ValidationError("lower_expectation_finite needs a finite-space p-box")
    values = [_finite_number(v) for v in gamble]
    if len(values) != pbox.space.size:
        raise ValidationError("gamble length must match the number of classes")
    distinct = sorted(set(values))
    total = distinct[0]
    for prev, cur in zip(distinct, distinct[1:]):
        level = ClassSubset(frozenset(i for i, v in enumerate(values) if v >= cur))
        total += (cur - prev) * lower_prob_event(pbox, level)
    return total


def threshold_solve(pbox: PBox, uosc: Oscillation, target: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Smallest level t with upper cut probability at most ``target``.

    Requires the upper cut probability to be non-increasing and continuous
    over the search range, which holds for continuous lower CDFs and
    strictly monotone oscillations.  The answer ``hi`` satisfies
    ``prob(hi) <= target < prob(lo)`` for some ``lo`` with
    ``hi - lo <= cfg.bisect_tol``: each round of the search evaluates
    ``_SECTIONS - 1`` interior levels of the bracket in one batch and keeps
    the section where the target is first met.
    """
    _require_continuum(pbox)
    if not 0.0 < target <= 1.0:
        raise ValidationError("threshold target must lie in (0, 1]")
    prob = partial(_batch_cut_probs, pbox, uosc, upper=True, cfg=cfg)
    lo = uosc.inf_value
    if prob(np.array([lo]))[0] <= target:
        return lo
    if math.isinf(uosc.sup_value):
        try:
            # prob <= target is prob < the next float above target
            hi, lo = _span_doubling(prob, lo, np.nextafter(target, np.inf))
        except ToleranceError:
            raise ToleranceError("threshold target unreachable on the search range") from None
    else:
        hi = uosc.sup_value
        if prob(np.array([hi]))[0] > target:
            raise ToleranceError("threshold target unreachable on the search range")
    while hi - lo > cfg.bisect_tol:
        ts = np.linspace(lo, hi, _SECTIONS + 1)
        met = np.flatnonzero(prob(ts[1:-1]) <= target)
        k = int(met[0]) + 1 if met.size else _SECTIONS
        if ts[k - 1] == lo and ts[k] == hi:
            raise ToleranceError("bisect_tol is below the float spacing of the threshold")
        lo, hi = float(ts[k - 1]), float(ts[k])
    return hi
