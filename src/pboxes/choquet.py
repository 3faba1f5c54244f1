"""Lower/upper expectations of gambles via cut sets and bracketed quadrature.

A gamble enters as its lower (or upper) oscillation, a bounded function of
the quotient coordinate z.  The expectation is the oscillation's infimum
plus the integral over levels t of the lower (upper) probability of the cut
set ``{z : osc(z) >= t}``, non-increasing in t, so Darboux sums bracket it
rigorously; each round of refinement cuts every cell into equal parts,
as many as its share of the bracket width calls for (equidistribution).

Every cut set is exact.  An oscillation either has knots, of which it is
the linear interpolation, or is a black box declared increasing or
decreasing; a non-monotone oscillation needs knots.  A declared-monotone
oscillation without knots is integrated over its own coordinate: its cut
sets are the nested intervals ``[z, 1]`` or ``[0, z]``, so a cell of a
z-grid weighs the cut probabilities at its ends by the step of ``f``
across it, with no inverse and for any monotone ``f``.  Such a cut, or its
complement, is anchored at 0 or 1, so its lower probability is one read of
one CDF.  Knot oscillations are integrated over levels.  One scan finds,
for a batch of levels, the components of every cut set or, on the upper
side, of every complement: the oscillation is sampled on its knots (a
black box at 0 and 1), each run of samples inside the set is a component,
and an end between two samples is the exact segment crossing, or for a
black box its one end, bisected.  By conjugacy the upper probability of a
cut is 1 minus the lower probability of its complement, and
``pbox._piece_gains`` gives the lower probability of either.

Gambles over finite quotient spaces bypass quadrature entirely: the
expectation is an exact finite sum over the p-box's random set, each strip
of cumulative probability weighing the least gamble value on its focal
interval of classes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceError, ValidationError
from .pbox import PBox, _piece_gains, vectorized
from .preorder import ZEventSet, ZInterval, _finite_number, normalize

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
# hard cap on grid size so a hopeless tolerance flags instead of exhausting memory
_MAX_GRID = 1 << 21
# levels x cells per level handled in one vectorized pass, to bound its memory
_CUT_BATCH_CELLS = 1 << 22
# grid points per pass of a coordinate grid, to bound the memory of its temporaries
_CHUNK = 1 << 13
# sections per round of the threshold search: 31 interior points per batch
_SECTIONS = 32
# Darboux refinement: the bracket width a round aims for, as a share of the
# tolerance, and the most parts it cuts one cell into
_THETA = 0.8
_MAX_PARTS = 64
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Oscillation:
    """A bounded function of the quotient coordinate with monotonicity metadata.

    Without knots ``f`` is a black box and must be declared increasing or
    decreasing, so that each cut set is one interval with one end to find;
    it needs no inverse and may jump.

    ``sup_value`` may be ``math.inf`` for a black-box upper oscillation that
    blows up at the top of the coordinate range; expectations then require a
    tail tolerance (see :class:`QuadratureConfig`).  A knot oscillation is
    bounded by its knots.

    ``knots``, when given, are sorted ``(z, value)`` pairs of which ``f`` is
    the linear interpolation, held flat beyond the end knots (as
    ``np.interp`` does).  They are stored spanning [0, 1] exactly: the
    interpolation at 0 and at 1 and the knots strictly between.  Cut sets
    then come exactly from the segment crossings, whatever the monotonicity.

    ``f`` may be scalar-only: it is probed once here and, if it rejects
    arrays, looped over elements (see :func:`vectorized`).
    """

    f: Callable
    inf_value: float
    sup_value: float
    monotonicity: str = GENERAL
    knots: tuple | None = None

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING, GENERAL):
            raise ValidationError(f"unknown monotonicity {self.monotonicity!r}")
        if self.monotonicity == GENERAL and self.knots is None:
            raise ValidationError(
                "an oscillation without knots must be declared increasing or decreasing")
        # the infimum of a bounded gamble is finite; its supremum may be +inf
        object.__setattr__(self, "inf_value", _finite_number(self.inf_value))
        if math.isnan(self.sup_value) or self.inf_value > self.sup_value:
            raise ValidationError("inf_value exceeds sup_value")
        if self.knots is not None and math.isinf(self.sup_value):
            raise ValidationError("a knot oscillation is bounded by its knots")
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
        if self.knots is not None:
            knot_zs, knot_vs = np.asarray(self.knots, dtype=float).T
            head, tail = np.interp((0.0, 1.0), knot_zs, knot_vs)
            inside = (knot_zs > 0.0) & (knot_zs < 1.0)
            knot_zs = np.concatenate([[0.0], knot_zs[inside], [1.0]])
            knot_vs = np.concatenate([[head], knot_vs[inside], [tail]])
            object.__setattr__(self, "knots", tuple(zip(knot_zs.tolist(), knot_vs.tolist())))
            if not np.allclose(vals, np.interp(zs, knot_zs, knot_vs), rtol=0.0, atol=1e-9):
                raise ValidationError("oscillation disagrees with its knots")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the bracketed cut-level quadrature.

    ``max_refinements`` caps the rounds of adaptive refinement; a round
    cuts every cell into parts by its share of the bracket width.
    ``bisect_tol`` is the width to which the cut-set scan bisects the one
    end of a monotone black box's cut (knot oscillations need none), and
    the tolerance of :func:`threshold_solve`.
    """

    abs_tol: float = 1e-4
    max_refinements: int = 24
    bisect_tol: float = 1e-12
    tail_tol: float = 1e-8

    def __post_init__(self):
        for key in ("abs_tol", "bisect_tol", "tail_tol"):
            object.__setattr__(self, key, _finite_number(getattr(self, key)))
        if self.abs_tol < 1e-12:
            raise ValidationError("abs_tol below 1e-12 is not honoured")
        if min(self.abs_tol, self.bisect_tol, self.tail_tol) <= 0:
            raise ValidationError("tolerances must be positive")
        if self.max_refinements <= 0:
            raise ValidationError("max_refinements must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Bracket midpoint plus the half-width of the enclosing Darboux bracket,
    and the rounds of adaptive refinement that cut some cells of the grid."""

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


def _cut_components(osc: Oscillation, ts: np.ndarray, cfg: QuadratureConfig,
                    complement: bool = False):
    """Components of ``{osc >= t}``, or with ``complement`` of ``{osc < t}``,
    for every level in ``ts``: flat arrays ``level, a, b, a_open, b_open``.

    ``osc`` is sampled on its knots, or at 0 and 1 if it is a black box
    (declared monotone, so its set is one interval that holds 0 or 1), and
    each run of samples inside the set is a component.  A run that reaches
    the first or last sample ends at 0 or 1.  Any other end lies in the cell
    between the run and its neighbour: at the crossing of the knot segment,
    measured from the cell's end at or above the level so that a level
    equal to a knot value lands on that knot exactly, or for a black box
    bisected in the cell [0, 1] to ``cfg.bisect_tol``, all levels in one
    pass.  Cut components are closed; complement ends between samples are
    open.  The components are sorted by level and then by coordinate, and
    a level with an empty set has no entry.
    """
    if osc.knots is not None:
        zs, vs = np.asarray(osc.knots, dtype=float).T
    else:
        zs = np.array([0.0, 1.0])
        vs = osc.f(zs)
    level, first, stop = _runs(vs < ts[:, None] if complement else vs >= ts[:, None])
    a, b = zs[first], zs[stop - 1]
    a_open, b_open = first > 0, stop < len(zs)
    # the left sample of the cell holding each end between samples
    cell = np.concatenate([first[a_open] - 1, stop[b_open] - 1])
    t = ts[level[np.concatenate([np.flatnonzero(a_open), np.flatnonzero(b_open)])]]
    rising = vs[cell + 1] >= t
    if osc.knots is not None:
        k, o = np.where(rising, cell + 1, cell), np.where(rising, cell, cell + 1)
        ends = zs[k] + (vs[k] - t) / (vs[k] - vs[o]) * (zs[o] - zs[k])
    else:
        ends = _bisect(osc.f, t, zs[cell], zs[cell + 1], rising, cfg.bisect_tol)
    split = np.count_nonzero(a_open)
    a[a_open], b[b_open] = ends[:split], ends[split:]
    return level, a, b, a_open & complement, b_open & complement


def cut_event(osc: Oscillation, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> ZEventSet:
    """Normalized coordinate set ``{z : osc(z) >= t}``.

    The components of :func:`_cut_components` for one level: exact for a
    knot oscillation, and for a monotone black box the one interval that
    holds 0 or 1, its other end bisected to ``cfg.bisect_tol``.
    """
    _, lo, hi, _, _ = _cut_components(osc, np.array([float(t)]), cfg)
    return normalize([ZInterval.closed(a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def _batch_cut_probs(pbox: PBox, osc: Oscillation, ts: np.ndarray, upper: bool,
                     cfg: QuadratureConfig) -> np.ndarray:
    """Lower (upper) cut probabilities at every level in ``ts``.

    The lower probability of a cut set is the sum of the gains of its
    components (:func:`pboxes.pbox._piece_gains`); the upper one is 1 minus
    the lower probability of its complement, whose components come from
    the same scan.  Levels go in chunks, so that levels times the samples
    per level (the knots, or the 2 ends of a black box) stays within a
    fixed memory bound.
    """
    def probs(chunk):
        level, *pieces = _cut_components(osc, chunk, cfg, complement=upper)
        gains = np.bincount(level, weights=_piece_gains(pbox, *pieces), minlength=len(chunk))
        total = np.clip(gains, 0.0, 1.0)
        return 1.0 - total if upper else total

    cells = len(osc.knots) if osc.knots is not None else 2
    return _in_chunks(probs, ts, max(1, _CUT_BATCH_CELLS // cells))


def _in_chunks(fn, s: np.ndarray, size: int = _CHUNK) -> np.ndarray:
    """``fn(s)``, evaluated ``size`` points at a time to bound its temporaries."""
    out = np.empty(len(s))
    for i in range(0, len(s), size):
        out[i:i + size] = fn(s[i:i + size])
    return out


def _coordinate_grid(pbox: PBox, osc: Oscillation, upper: bool, a: float, b: float):
    """Level and lower (upper) cut probability, in chunks, at points ``s`` of
    a grid over the coordinate of a declared-monotone ``osc``.

    Point ``s`` is ``z = s``, or ``1 - s`` if ``osc`` decreases, so that its
    anchored cut ``[z, 1]`` or ``[0, z]`` shrinks as ``s`` grows.  Its level
    is ``clip(f(z), a, b)``; its probability is that of the anchored cut on
    the lower side and 1 minus that of its complement, ``[0, z)`` or ``(z,
    1]``, on the upper.  Every level ``t <= f(z)`` cuts a superset of the
    anchored cut and every level above ``f(z)`` a subset, whether ``f``
    jumps or not.  A piece anchored at 0 or 1 has one end to read, so its
    lower probability takes one call of one CDF per chunk, with the float
    operations of :func:`pboxes.pbox._piece_gains`.  ``F_lower`` gives at the
    ends of [0, 1] the values that formula fixes there, 0 below 0 and
    ``F_lower(1)`` at 1; ``F_upper`` need not, so it is not read at them.
    """
    rising = osc.monotonicity == INCREASING
    one = pbox.lower_at_one

    def level(s):
        return np.clip(osc.f(s if rising else 1.0 - s), a, b)

    def probs(s):
        z = s if rising else 1.0 - s
        if upper == rising:  # [0, z) or [0, z]: F_lower(z-) or F_lower(z)
            cdf = pbox.lower.left_limit if upper else pbox.lower
            gains = np.maximum(0.0, np.asarray(cdf(z), dtype=float))
        else:  # (z, 1] or [z, 1]: F_lower(1) - F_upper(z)
            gains = one - (_read(pbox.upper, z, z < 1.0, one) if upper
                           else _read(pbox.upper, z, z > 0.0, 0.0))
            np.maximum(0.0, gains, out=gains)
        total = np.clip(gains, 0.0, 1.0, out=gains)
        return 1.0 - total if upper else total

    return partial(_in_chunks, level), partial(_in_chunks, probs)


def _read(cdf, z: np.ndarray, where: np.ndarray, fixed: float) -> np.ndarray:
    """``cdf(z)`` as floats where ``where`` holds and ``fixed`` elsewhere; the
    CDF is called once, on those points only, and not at all if there are none."""
    if where.all():
        return np.asarray(cdf(z), dtype=float)
    out = np.full(z.shape, fixed)
    if where.any():
        out[where] = cdf(z[where])
    return out


def _darboux(batch, a: float, b: float, cfg: QuadratureConfig, level=np.asarray,
             tol: float | None = None):
    """Bracket the integral over levels of a non-increasing integrand: its
    midpoint, half-width, convergence flag and rounds of refinement.

    The grid runs over ``s`` in [a, b]; ``batch(s)`` is the integrand and
    ``level(s)`` the non-decreasing level (``np.asarray``, the identity, in
    level space), both evaluated once per point of each round's grid.  A
    cell weighs by its level step, and the integrand on it lies between its
    end values, so the lower and upper sums bracket it; the half-width also
    bounds the rounding of the steps and of both sums.  Each round cuts
    every cell into ``k`` equal parts by equidistribution: if a cell's
    contribution ``c = step * (g_left - g_right)`` fell to ``c / k``, the
    fewest parts in all that bring the width to ``_THETA * tol`` (``tol``
    defaults to ``cfg.abs_tol``) are ``k = sqrt(c) * S / (_THETA * tol)``
    with ``S = sum(sqrt(c))``.  ``k`` is rounded up and clipped to [1,
    ``_MAX_PARTS``] and to the parts the float spacing of the cell allows.
    A round that would pass ``_MAX_GRID`` cells, or that would cut no cell,
    is not taken.  The old points stay, so each grid refines the last and
    its Darboux sums lie within the last one's.
    """
    tol = cfg.abs_tol if tol is None else tol
    # parts per unit of s that keep the points of a cut cell distinct floats
    resolution = 0.5 / np.spacing(max(abs(a), abs(b)))
    s = np.linspace(a, b, 17)
    rounds = 0
    while True:
        g = _monotone_integrand(np.clip(batch(s), 0.0, 1.0))
        steps = np.diff(level(s))
        gaps = g[:-1] - g[1:]
        gaps *= steps
        width = float(gaps.sum())
        lower = float(steps @ g[1:])
        del g, steps
        # every term is >= 0, so the computed sums are within (n + 2) unit
        # roundoffs of the exact sums over this grid's levels; doubling the
        # bound covers the rounding of the midpoint and half-width as well
        half = 0.5 * width + 2.0 * (len(gaps) + 4) * _UNIT_ROUNDOFF * (lower + width)
        converged = half < 0.5 * tol
        if converged or rounds >= cfg.max_refinements:
            return lower + 0.5 * width, half, converged, rounds
        # a level that dips by float dust makes a step, and so a share, negative
        root = np.sqrt(np.maximum(gaps, 0.0, out=gaps), out=gaps)
        # a share beyond the float range is cut into _MAX_PARTS parts all the same
        with np.errstate(over="ignore"):
            parts = root * (root.sum() / (_THETA * tol))
        np.ceil(parts, out=parts)
        room = np.diff(s)
        room *= resolution
        np.minimum(parts, room, out=parts)
        parts = np.clip(parts, 1, _MAX_PARTS, out=parts).astype(np.intp)
        cells = int(parts.sum())
        if cells > _MAX_GRID or cells == len(parts):
            return lower + 0.5 * width, half, converged, rounds
        del gaps, root, room
        s = _subdivide(s, parts)
        rounds += 1


def _subdivide(s: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The sorted grid ``s`` with cell ``i`` cut into ``parts[i]`` equal
    parts; the points of ``s`` are kept bit for bit."""
    starts = np.cumsum(parts)
    starts -= parts
    offset = np.arange(starts[-1] + parts[-1])
    offset -= np.repeat(starts, parts)
    out = np.empty(len(offset) + 1)
    out[:-1] = np.repeat(np.diff(s) / parts, parts)
    out[:-1] *= offset
    del offset
    out[:-1] += np.repeat(s[:-1], parts)
    out[-1] = s[-1]
    return out


def _monotone_integrand(g: np.ndarray) -> np.ndarray:
    """``g`` with float dust removed, after rejecting an integrand that
    rises by more than float dust between levels."""
    rises = np.diff(g)
    if np.any(rises > 1e-7):
        raise ValidationError(
            "cut probability increased with the level; "
            "oscillation metadata or p-box inputs are inconsistent")
    # the running minimum of a non-increasing g is g itself, and the test
    # costs a sixth of it; a NaN fails the test, so the running minimum
    # still spreads it forward
    if (rises <= 0.0).all():
        return g
    return np.minimum.accumulate(g, out=g)


def _require_continuum(pbox: PBox) -> None:
    """Refuse a finite-space p-box: cut sets and quadrature need the continuum."""
    if pbox.is_finite:
        raise ValidationError("use lower_expectation_finite on finite spaces")


def _require_bounded(osc: Oscillation) -> None:
    """Refuse an unbounded lower oscillation: a bounded gamble has a bounded one."""
    if math.isinf(osc.sup_value):
        raise ValidationError("a lower oscillation of a bounded gamble is bounded")


def _require_target(target: float) -> None:
    """Refuse a threshold target outside (0, 1] (NaN included)."""
    if not 0.0 < target <= 1.0:
        raise ValidationError("threshold target must lie in (0, 1]")


def _integrand(pbox: PBox, osc: Oscillation, upper: bool, cfg: QuadratureConfig):
    """The lower (upper) cut probability of ``osc`` as a batch function of
    the level, the levels ``[a, b]`` to integrate over, and the width charged
    for the tail beyond ``b``: an unbounded oscillation stops at the level
    where the integrand falls below ``cfg.tail_tol``, and its tail is charged
    ``tail_tol * (b - last level above tail_tol)``.
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
    """``inf + integral of the cut probability``, bracketed by :func:`_darboux`.

    A declared-monotone oscillation without knots is integrated over its
    coordinate (:func:`_coordinate_grid`); the levels up to ``level(0)`` cut
    the whole space and add the exact head ``(level(0) - a) * P(whole
    space)``.  The tail's charge comes off the tolerance, so ``converged``
    means the reported bound meets ``abs_tol``.
    """
    batch, a, b, tail = _integrand(pbox, osc, upper, cfg)
    if b <= a:
        return QuadratureResult(a, 0.0, True)
    tol = cfg.abs_tol - tail
    level, lo, hi, head = np.asarray, a, b, 0.0
    if osc.knots is None:
        level, batch = _coordinate_grid(pbox, osc, upper, a, b)
        lo, hi, head = 0.0, 1.0, float((level(np.zeros(1))[0] - a) * batch(np.zeros(1))[0])
    # a tail charge beyond abs_tol cannot converge: refine to abs_tol instead
    mid, hw, ok, rounds = _darboux(batch, lo, hi, cfg, level, tol if tol > 0 else cfg.abs_tol)
    return QuadratureResult(a + (mid + head) + 0.5 * tail, hw + 0.5 * tail, ok and tol > 0,
                            rounds)


def lower_expectation(pbox: PBox, losc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Lower expectation of a gamble given its lower oscillation, the
    per-class infimum of the gamble (the caller guarantees it): ``inf +
    integral of the lower cut probability``, bracketed by Darboux sums."""
    _require_bounded(losc)
    return _expectation(pbox, losc, False, cfg)


def upper_expectation(pbox: PBox, uosc: Oscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Upper expectation of a gamble given its upper oscillation, the mirror
    of :func:`lower_expectation` through conjugacy.  The tail of an unbounded
    oscillation is charged to the reported error (see :func:`_integrand`)."""
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

    A p-box on a chain is a random set whose focal sets are intervals of
    classes (Kriegler & Held 2005; Destercke, Dubois & Chojnacki 2008).
    Sort the distinct cumulative bounds ``0 = a_0 < a_1 < ... < a_K = 1``:
    the strip ``(a_{k-1}, a_k]`` puts mass ``a_k - a_{k-1}`` on the classes
    from the first one with ``F_upper >= a_k`` to the first one with
    ``F_lower >= a_k``, and the lower expectation is the sum over strips of
    the mass times the least gamble value on the interval.  Both ends only
    move right as ``k`` grows, so a monotone deque gives every interval's
    least value in one pass after the one sort; no quadrature is involved.
    The sum is taken as the first least value plus each change of it times
    the mass above the strip, ``1 - a_{k-1}``, so a constant gamble has its
    own value.

    The CDFs may leave their bounds by a tolerance: a bound outside (0, 1)
    adds no level, an interval starts at the first class where either CDF
    reaches the level, and an end that no class reaches is the top class.
    """
    if not pbox.is_finite:
        raise ValidationError("lower_expectation_finite needs a finite-space p-box")
    values = [_finite_number(v) for v in gamble]
    n = len(values)
    if n != pbox.space.size:
        raise ValidationError("gamble length must match the number of classes")
    lower, upper = pbox.lower.values, pbox.upper.values
    levels = sorted({v for v in lower + upper if 0.0 < v < 1.0})
    levels.append(1.0)
    # minima: the classes pushed so far whose value is below that of every
    # later class pushed, in ascending order of class and of value
    minima = deque()
    left = right = pushed = 0
    total = previous = None
    below = 0.0
    for level in levels:
        while left < n - 1 and upper[left] < level:
            left += 1
        while right < n - 1 and lower[right] < level:
            right += 1
        while pushed <= right:
            value = values[pushed]
            while minima and values[minima[-1]] >= value:
                minima.pop()
            minima.append(pushed)
            pushed += 1
        # a lower CDF above the upper one, by the tolerance, starts the
        # interval where it reaches the level
        while minima[0] < min(left, right):
            minima.popleft()
        least = values[minima[0]]
        if total is None:
            total = least
        elif least != previous:
            total += (1.0 - below) * (least - previous)
        previous, below = least, level
    return total


def threshold_solve(pbox: PBox, uosc: Oscillation, target: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Smallest level t with upper cut probability at most ``target``.

    Requires the upper cut probability to be non-increasing and continuous
    over the search range, as for continuous lower CDFs and strictly
    monotone oscillations.  The search runs over the grid of
    :func:`_expectation`; its answer is ``level(hi)`` for a bracket with
    ``prob(hi) <= target < prob(lo)`` and ``level(hi) - level(lo) <=
    cfg.bisect_tol``, each round evaluating ``_SECTIONS - 1`` interior points
    in one batch and keeping the section where the target is first met.
    """
    _require_continuum(pbox)
    _require_target(target)
    prob = partial(_batch_cut_probs, pbox, uosc, upper=True, cfg=cfg)
    level, lo, hi = np.asarray, uosc.inf_value, uosc.sup_value
    if uosc.knots is None:
        level, prob = _coordinate_grid(pbox, uosc, True, lo, hi)
        lo, hi = 0.0, 1.0
    if prob(np.array([lo]))[0] <= target:
        return uosc.inf_value
    if prob(np.array([hi]))[0] > target:
        if level(np.array([hi]))[0] >= uosc.sup_value:
            raise ToleranceError("threshold target unreachable on the search range")
        lo = hi  # over the coordinate, the levels above f(1) < sup_value cut nothing
    while True:
        t_lo, t_hi = level(np.array([lo, hi]))
        if t_hi - t_lo <= cfg.bisect_tol:
            return float(t_hi)
        s = np.linspace(lo, hi, _SECTIONS + 1)
        met = np.flatnonzero(prob(s[1:-1]) <= target)
        k = int(met[0]) + 1 if met.size else _SECTIONS
        if s[k - 1] == lo and s[k] == hi:
            raise ToleranceError("bisect_tol is below the float spacing of the threshold")
        lo, hi = float(s[k - 1]), float(s[k])
