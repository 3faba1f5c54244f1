"""Lower/upper expectations of gambles via cut sets and bracketed quadrature.

A gamble on the underlying space enters as its lower (or upper) oscillation,
a bounded function of the quotient coordinate z.  The expectation is the
oscillation's infimum plus the integral over cut levels t of the lower
(upper) probability of the cut set ``{z : osc(z) >= t}``.  That integrand is
non-increasing in t, so lower and upper Darboux sums on a uniform t-grid
bracket the integral with a rigorous two-sided error; the grid is doubled
until the bracket is narrower than the requested tolerance.

Cut sets are exact wherever the oscillation's structure allows it: from the
segment crossings of a piecewise-linear oscillation's knots, for a whole
batch of levels at once, or from a registered inverse.  Only black-box
oscillations fall back to bisection, and non-monotone black boxes to a grid
scan, which can miss components narrower than the grid spacing.

Gambles over finite quotient spaces bypass quadrature entirely: the
expectation is an exact finite weighted sum over the sorted distinct gamble
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceError, ValidationError
from .pbox import PBox, lower_prob_event, upper_prob_event, vectorized
from .preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    ClassSubset,
    ZEventSet,
    ZInterval,
    complement_z,
    normalize,
)

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
# levels x knots handled in one vectorized pass, to bound its memory
_KNOT_BATCH_CELLS = 1 << 22


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
    name: str = ""
    knots: tuple | None = None

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING, GENERAL):
            raise ValidationError(f"unknown monotonicity {self.monotonicity!r}")
        if math.isnan(self.sup_value) or self.inf_value > self.sup_value:
            raise ValidationError("inf_value exceeds sup_value")
        if not math.isfinite(self.inf_value):
            raise ValidationError("the infimum of a bounded gamble is finite")
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

    Knot oscillations and registered inverses give exact cut sets, so
    ``cut_grid`` (the scan of non-monotone oscillations) and the cut-set use
    of ``bisect_tol`` only affect black-box oscillations; ``bisect_tol`` is
    also the tolerance of :func:`threshold_solve`.
    """

    abs_tol: float = 1e-4
    max_refinements: int = 24
    cut_grid: int = 4096
    bisect_tol: float = 1e-12
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not all(map(math.isfinite, (self.abs_tol, self.bisect_tol, self.tail_tol))):
            raise ValidationError("tolerances must be finite")
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
    """Bracket midpoint plus the half-width of the enclosing Darboux bracket."""

    value: float
    error_bound: float
    converged: bool
    refinements: int = 0

    @property
    def bracket(self) -> tuple:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def __float__(self) -> float:
        return self.value


def _bisect_batch(f, ts: np.ndarray, decreasing: bool, tol: float) -> np.ndarray:
    """Boundaries of {f >= t} for monotone f on [0, 1], every cut non-trivial."""
    lo = np.zeros_like(ts)
    hi = np.ones_like(ts)
    for _ in range(max(1, math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        inside = np.asarray(f(mid), dtype=float) >= ts
        take_lo = inside if decreasing else ~inside
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return lo if decreasing else hi


def _cut_endpoints(osc: Oscillation, ts: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """Moving cut-set endpoints of a declared-monotone oscillation.

    The levels must lie strictly inside the oscillation's range; the
    endpoints come from the registered inverse, or else by bisection.
    """
    if osc.inverse is not None:
        zb = osc.inverse(ts)
    else:
        zb = _bisect_batch(osc.f, ts, osc.monotonicity == DECREASING, cfg.bisect_tol)
    return np.clip(zb, 0.0, 1.0)


def _knot_components(knots, ts: np.ndarray):
    """Maximal components ``[a, b]`` of ``{f >= t}`` for every level in ``ts``.

    ``f`` is the linear interpolation of ``knots``, flat beyond the end
    knots.  A run of knots at or above a level is one component; its
    endpoints are the crossings of the segments leaving the run, measured
    from the inside knot so that a level equal to a knot value lands on that
    knot exactly.  A run that reaches an end knot extends to that end of
    [0, 1].  Returns level indices and endpoints as flat arrays, sorted by
    level and then by coordinate; components outside [0, 1] are dropped and
    the rest clipped to it.
    """
    zs, vs = np.asarray(knots, dtype=float).T
    last = len(zs) - 1
    inside = vs >= ts[:, None]
    edges = np.diff(np.pad(inside, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    level, first = np.nonzero(edges > 0)    # first knot of each run
    _, stop = np.nonzero(edges < 0)         # one past the last knot of each run
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


def _knot_cut_probs(pbox: PBox, knots, ts: np.ndarray, upper: bool) -> np.ndarray:
    """Lower (upper) probabilities of the knot cut sets at every level in ``ts``.

    The lower probability of a union of closed components is the sum of
    ``max(0, F_lower(b) - F_upper(a))``, with bottom 0 at a = 0.  The upper
    one is 1 minus the lower probability of the complement, whose pieces are
    ``[0, a_1)``, the open gaps ``(b_k, a_{k+1})`` and ``(b_n, 1]``.
    """
    n = len(ts)
    step = max(1, _KNOT_BATCH_CELLS // len(knots))
    if n > step:
        return np.concatenate([_knot_cut_probs(pbox, knots, ts[i:i + step], upper)
                               for i in range(0, n, step)])
    level, a, b = _knot_components(knots, ts)
    if not upper:
        bottom = np.where(a > 0.0, pbox.upper(a), 0.0)
        gains = np.maximum(0.0, pbox.lower(b) - bottom)
        return np.clip(np.bincount(level, weights=gains, minlength=n), 0.0, 1.0)

    first = np.ones(len(level), dtype=bool)
    first[1:] = level[1:] != level[:-1]
    is_last = np.ones(len(level), dtype=bool)
    is_last[:-1] = first[1:]
    upper_b = pbox.upper(b)
    # the gap below each component: [0, a) for the first, (b_prev, a) after
    bottom = np.where(first, 0.0, np.roll(upper_b, 1))
    gains = np.maximum(0.0, pbox.lower.left_limit(a) - bottom)
    total = np.bincount(level, weights=gains, minlength=n)
    # the gap above the last component, (b_n, 1]; all of [0, 1] for an empty cut
    lower_one = float(pbox.lower(np.ones(1))[0])
    top_gap = np.full(n, max(0.0, lower_one))
    top_gap[level[is_last]] = np.where(
        b[is_last] < 1.0, np.maximum(0.0, lower_one - upper_b[is_last]), 0.0)
    return 1.0 - np.clip(total + top_gap, 0.0, 1.0)


def _cut_general(osc: Oscillation, t: float, cfg: QuadratureConfig) -> ZEventSet:
    """Grid scan of a black-box oscillation, each sign change bisected."""
    zs = np.linspace(0.0, 1.0, cfg.cut_grid + 1)
    inside = osc.f(zs) >= t
    # padded with outside points, the changes alternate run start, run end
    changes = np.flatnonzero(np.diff(np.r_[False, inside, False]))
    intervals = []
    for start_idx, end_idx in zip(changes[0::2], changes[1::2] - 1):
        lo = zs[start_idx]
        if start_idx > 0:
            lo = _refine_boundary(osc.f, t, zs[start_idx - 1], zs[start_idx],
                                  rising=True, tol=cfg.bisect_tol)
        hi = zs[end_idx]
        if end_idx + 1 < len(zs):
            hi = _refine_boundary(osc.f, t, zs[end_idx + 1], zs[end_idx],
                                  rising=False, tol=cfg.bisect_tol)
        intervals.append(ZInterval.closed(lo, hi))
    return normalize(intervals)


def _refine_boundary(f, t, outside, inside, rising: bool, tol: float) -> float:
    """Bisect one sign change of ``f - t`` between an outside and an inside point."""
    lo, hi = (outside, inside) if rising else (inside, outside)
    # invariant for rising: f(lo) < t <= f(hi); mirrored otherwise
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) >= t) == rising:
            hi = mid
        else:
            lo = mid
    return hi if rising else lo


def cut_event(osc: Oscillation, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> ZEventSet:
    """Normalized coordinate set ``{z : osc(z) >= t}``.

    Oscillations with knots yield the exact components between segment
    crossings (the same computation the quadrature batches over levels).
    Otherwise, declared-monotone oscillations yield a single interval
    anchored at 0 or 1, with the moving endpoint taken from the registered
    inverse or located by bisection, and black-box general oscillations are
    scanned on ``cfg.cut_grid`` points with each sign change refined by
    bisection.
    """
    if osc.knots is not None:
        _, lo, hi = _knot_components(osc.knots, np.array([float(t)]))
        return normalize([ZInterval.closed(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
    if osc.monotonicity == GENERAL:
        return _cut_general(osc, t, cfg)
    decreasing = osc.monotonicity == DECREASING
    if t <= float(osc.f(1.0 if decreasing else 0.0)):
        return FULL_EVENT
    if t > float(osc.f(0.0 if decreasing else 1.0)):
        return EMPTY_EVENT
    z = float(_cut_endpoints(osc, np.array([float(t)]), cfg)[0])
    return normalize([ZInterval.closed(0.0, z) if decreasing else ZInterval.closed(z, 1.0)])


def _lower_cut_prob(pbox: PBox, osc: Oscillation, t: float, cfg: QuadratureConfig) -> float:
    return lower_prob_event(pbox, cut_event(osc, t, cfg))


def _upper_cut_prob(pbox: PBox, osc: Oscillation, t: float, cfg: QuadratureConfig) -> float:
    return upper_prob_event(pbox, complement_z(cut_event(osc, t, cfg)))


def _batch_cut_probs(pbox: PBox, osc: Oscillation, ts: np.ndarray, upper: bool,
                     cfg: QuadratureConfig) -> np.ndarray:
    """Cut probabilities for many levels at once.

    Oscillations with knots take their exact components from one vectorized
    pass over all levels.  For other declared-monotone oscillations the cut
    is a single anchored interval and its probability reduces to one CDF
    evaluation, which vectorizes; black-box general oscillations go through
    the per-level event machinery.
    """
    if osc.knots is not None:
        return _knot_cut_probs(pbox, osc.knots, ts, upper)
    if osc.monotonicity == GENERAL:
        fn = _upper_cut_prob if upper else _lower_cut_prob
        return np.array([fn(pbox, osc, float(t), cfg) for t in ts])

    decreasing = osc.monotonicity == DECREASING
    f_at_anchor = float(osc.f(1.0)) if decreasing else float(osc.f(0.0))
    f_at_free = float(osc.f(0.0)) if decreasing else float(osc.f(1.0))
    full = ts <= f_at_anchor
    empty = ts > f_at_free
    interior = ~(full | empty)

    out = np.empty_like(ts, dtype=float)
    out[full] = 1.0
    out[empty] = 0.0
    if interior.any():
        zb = _cut_endpoints(osc, ts[interior], cfg)
        if decreasing:
            if upper:
                # cut [0, b]: complement (b, 1], so 1 - max(0, 1 - F_upper(b))
                vals = np.minimum(1.0, pbox.upper(zb))
            else:
                vals = pbox.lower(zb)
        else:
            if upper:
                # cut [b, 1]: complement [0, b), so 1 - F_lower(b-)
                vals = 1.0 - pbox.lower.left_limit(zb)
            else:
                vals = np.maximum(0.0, 1.0 - pbox.upper(zb))
        out[interior] = np.clip(vals, 0.0, 1.0)
    return out


def _assert_monotone_integrand(g: np.ndarray):
    if np.any(np.diff(g) > 1e-7):
        raise ValidationError(
            "cut probability increased with the level; "
            "oscillation metadata or p-box inputs are inconsistent")


def _darboux(batch, a: float, b: float, cfg: QuadratureConfig):
    """Bracket the integral of a non-increasing integrand on [a, b].

    Returns midpoint, half-width, convergence flag, and the number of grid
    doublings performed.  The bracket is [lower sum, upper sum]; for a
    non-increasing integrand these are the right- and left-endpoint rules.
    """
    ts = np.linspace(a, b, 17)
    g = np.clip(batch(ts), 0.0, 1.0)
    _assert_monotone_integrand(g)
    g = np.minimum.accumulate(g)  # remove float dust only; checked just above
    rounds = 0
    while True:
        delta = (b - a) / (len(ts) - 1)
        upper = delta * float(np.sum(g[:-1]))
        lower = delta * float(np.sum(g[1:]))
        if upper - lower < cfg.abs_tol:
            return 0.5 * (upper + lower), 0.5 * (upper - lower), True, rounds
        if rounds >= cfg.max_refinements or (len(ts) - 1) * 2 > _MAX_GRID:
            return 0.5 * (upper + lower), 0.5 * (upper - lower), False, rounds
        mids = 0.5 * (ts[:-1] + ts[1:])
        gm = np.clip(batch(mids), 0.0, 1.0)
        ts_new = np.empty(2 * len(ts) - 1)
        g_new = np.empty_like(ts_new)
        ts_new[0::2], ts_new[1::2] = ts, mids
        g_new[0::2], g_new[1::2] = g, gm
        _assert_monotone_integrand(g_new)
        ts, g = ts_new, np.minimum.accumulate(g_new)
        rounds += 1


def lower_expectation(pbox: PBox, losc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Lower expectation of a gamble given its lower oscillation.

    Computes ``inf + integral of the lower cut probability`` over the
    oscillation's range, with the integral bracketed by Darboux sums.  The
    caller guarantees that ``losc`` is the per-class infimum of the target
    gamble.
    """
    if pbox.is_finite:
        raise ValidationError("use lower_expectation_finite on finite spaces")
    a, b = losc.inf_value, losc.sup_value
    if math.isinf(b):
        raise ValidationError("a lower oscillation of a bounded gamble is bounded")
    if b <= a:
        return QuadratureResult(a, 0.0, True)
    mid, hw, ok, rounds = _darboux(
        lambda ts: _batch_cut_probs(pbox, losc, ts, upper=False, cfg=cfg), a, b, cfg)
    return QuadratureResult(a + mid, hw, ok, rounds)


def upper_expectation(pbox: PBox, uosc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Upper expectation of a gamble given its upper oscillation.

    Mirrors :func:`lower_expectation` through conjugacy.  An unbounded
    oscillation (``sup_value = inf``) is integrated up to the level where the
    integrand falls below ``cfg.tail_tol``; the truncated tail contributes
    ``tail_tol * (stop - last level above tail_tol)`` to the reported error.
    """
    if pbox.is_finite:
        raise ValidationError("use lower_expectation_finite on finite spaces")
    a, b = uosc.inf_value, uosc.sup_value

    def batch(ts):
        return _batch_cut_probs(pbox, uosc, ts, upper=True, cfg=cfg)

    if not math.isinf(b):
        if b <= a:
            return QuadratureResult(a, 0.0, True)
        mid, hw, ok, rounds = _darboux(batch, a, b, cfg)
        return QuadratureResult(a + mid, hw, ok, rounds)

    t_stop, t_last_above = _truncation_point(batch, a, cfg)
    mid, hw, ok, rounds = _darboux(batch, a, t_stop, cfg)
    tail = cfg.tail_tol * max(t_stop - t_last_above, 0.0)
    return QuadratureResult(a + mid + 0.5 * tail, hw + 0.5 * tail, ok, rounds)


def _truncation_point(batch, a: float, cfg: QuadratureConfig):
    """First probed level with integrand below tail_tol, by span doubling."""
    span = 1.0
    t_last_above = a
    for _ in range(64):
        t = a + span
        value = float(batch(np.array([t]))[0])
        if value < cfg.tail_tol:
            return t, t_last_above
        t_last_above = t
        span *= 2.0
    raise ToleranceError("integrand never fell below the tail tolerance")


def lower_expectation_finite(pbox: PBox, gamble: Sequence) -> float:
    """Exact expectation bound for a gamble on a finite quotient space.

    Sorts the distinct gamble values and accumulates value increments times
    the lower probability of the super-level class subsets; no quadrature is
    involved.
    """
    if not pbox.is_finite:
        raise ValidationError("lower_expectation_finite needs a finite-space p-box")
    values = [float(v) for v in gamble]
    if len(values) != pbox.space.size:
        raise ValidationError("gamble length must match the number of classes")
    if any(math.isinf(v) or math.isnan(v) for v in values):
        raise ValidationError("gamble values must be finite")
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
    strictly monotone oscillations.  The answer is located by bisection to
    ``cfg.bisect_tol``.
    """
    if not 0.0 < target <= 1.0:
        raise ValidationError("threshold target must lie in (0, 1]")

    def prob(t: float) -> float:
        return float(_batch_cut_probs(pbox, uosc, np.array([t]), True, cfg)[0])

    lo = uosc.inf_value
    if prob(lo) <= target:
        return lo
    if math.isinf(uosc.sup_value):
        span, hi = 1.0, None
        for _ in range(64):
            t = lo + span
            if prob(t) <= target:
                hi = t
                break
            span *= 2.0
        if hi is None:
            raise ToleranceError("threshold target unreachable on the search range")
    else:
        hi = uosc.sup_value
        if prob(hi) > target:
            raise ToleranceError("threshold target unreachable on the search range")
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if prob(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
