"""Lower/upper expectations of gambles via cut sets, exactly or by bracketed
quadrature.

A gamble enters as its lower (or upper) oscillation, a bounded function of
the quotient coordinate z.  The expectation is the oscillation's infimum
plus the integral over levels t of the lower (upper) probability of the cut
set ``{z : osc(z) >= t}``, non-increasing in t.  Where both CDFs are
piecewise polynomial and the oscillation has knots, that integrand is a
quadratic in t between breakpoints the algebra gives (the knot values, the
oscillation at every CDF break, and the zero of any clamped gain), and
each piece is integrated exactly, with a proven bound on float rounding
(:func:`_exact_expectation`).  Anywhere else Darboux sums bracket it
rigorously; each round of refinement cuts every cell into equal parts, as
many as its share of the bracket width calls for (equidistribution).  The
model's types choose the path.

Every cut set is exact.  An oscillation is a :class:`KnotOscillation`,
defined by its knots alone, or a black-box :class:`Oscillation`, defined
by its monotone function alone: its direction and bounds are its values at
0 and 1, and its bracket rests on its monotonicity on 129 points; a
non-monotone oscillation needs knots.  A monotone oscillation without
knots is integrated over its own coordinate: its cut
sets are the nested intervals ``[z, 1]`` or ``[0, z]``, so a cell of a
z-grid weighs the cut probabilities at its ends by the step of ``f``
across it, with no inverse and for any monotone ``f``.  Such a cut, or its
complement, is anchored at 0 or 1, so its lower probability is one read of
one CDF.  Knot oscillations are integrated over levels.  One scan finds,
for a batch of levels, the components of every cut set or, on the upper
side, of every complement: the oscillation is sampled on its knots (a
black box at 0 and 1), each run of samples inside the set is a component,
and an end between two samples is the exact segment crossing
(:func:`_crossings`, which the exact path reads too), or for a black box
its one end, bisected.  By conjugacy the upper probability of a
cut is 1 minus the lower probability of its complement, and
``pbox._piece_gains`` gives the lower probability of either.  An
unbounded upper oscillation is clipped at a finite level that a tail
certificate, passed with the expectation call, chose and bounds the
integral beyond; without one its expectation does not converge.

Gambles over finite quotient spaces bypass quadrature entirely: the
expectation is an exact finite sum over the p-box's random set, each strip
of cumulative probability weighing the least gamble value on its focal
interval of classes.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceError, ValidationError
from .pbox import _MAX_GRID, PBox, _knot_list, _piece_gains, vectorized
from .preorder import ZEventSet, ZInterval, _class_index, _finite_number, normalize

__all__ = [
    "Oscillation",
    "KnotOscillation",
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
# the share of abs_tol kept for the tail of an unbounded oscillation
_TAIL_SHARE = 2.0 ** -9


@dataclass(frozen=True)
class Oscillation:
    """A black-box oscillation, defined by a monotone function ``f`` of the
    quotient coordinate alone, so that each cut set is one interval with one
    end to find; it needs no inverse and may jump.

    ``f`` is read on 129 points, and a bracket rests on them: it is
    increasing if ``f(1) >= f(0)`` and decreasing otherwise, which those
    points must not contradict, and its bounds are ``f(0)`` and ``f(1)``.
    The infimum must be finite, and no point may read NaN; the supremum may
    be ``math.inf`` for an upper oscillation that blows up at an end of the
    coordinate range.  Its upper expectation then converges only with a
    tail certificate, which depends on the p-box as well and so is passed
    to :func:`upper_expectation`, not held here (see :func:`_integrand`).
    ``f`` may be scalar-only (see :func:`vectorized`)."""

    f: Callable
    inf_value: float = field(init=False)
    sup_value: float = field(init=False)
    monotonicity: str = field(init=False)
    knots = None  # the engine's test for a KnotOscillation

    def __post_init__(self):
        object.__setattr__(self, "f", vectorized(self.f))
        vals = np.asarray(self.f(np.linspace(0.0, 1.0, _VALIDATION_POINTS)), dtype=float)
        if np.isnan(vals).any():
            raise ValidationError("oscillation is NaN on the validation grid")
        head, tail = float(vals[0]), float(vals[-1])
        mono = INCREASING if tail >= head else DECREASING
        least, most = (head, tail) if mono == INCREASING else (tail, head)
        # the infimum of a bounded gamble is finite; its supremum may be +inf
        if not math.isfinite(least):
            raise ValidationError(f"oscillation has an infinite infimum, {least}")
        # a run of +inf at the supremum's end steps by NaN, which is no fall
        with np.errstate(invalid="ignore"):
            rises = np.diff(vals) if mono == INCREASING else -np.diff(vals)
        if np.any(rises < -1e-9):
            raise ValidationError(f"oscillation is not {mono} on the validation grid")
        for name, value in (("inf_value", least), ("sup_value", most), ("monotonicity", mono)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class KnotOscillation:
    """An oscillation defined by its knots alone, with nothing checked on a
    grid: ``f`` interpolates the sorted ``(z, value)`` knots linearly, flat
    beyond the end knots (as ``np.interp``), its bounds are the least and
    greatest knot values, and its monotonicity is ``GENERAL`` unless the
    values never fall or never rise.  The knots, two at least, pass every
    knot model's check (:func:`pboxes.pbox._knot_list`) and are stored
    spanning [0, 1]: the interpolation at 0 and at 1, kept within the
    bounds against rounding, and the knots between."""

    knots: tuple
    f: Callable = field(init=False, repr=False, compare=False)
    inf_value: float = field(init=False)
    sup_value: float = field(init=False)
    monotonicity: str = field(init=False)

    def __post_init__(self):
        zs, vs = map(np.array, _knot_list(self.knots))
        if len(zs) < 2:
            raise ValidationError("an oscillation needs at least two knots")
        zs.flags.writeable = vs.flags.writeable = False
        least, most = float(vs.min()), float(vs.max())
        head, tail = (min(max(v, least), most) for v in np.interp((0.0, 1.0), zs, vs).tolist())
        inside = (zs > 0.0) & (zs < 1.0)
        knots = ((0.0, head), *zip(zs[inside].tolist(), vs[inside].tolist()), (1.0, tail))
        falls, rises = np.any(np.diff(vs) < 0.0), np.any(np.diff(vs) > 0.0)
        mono = GENERAL if falls and rises else DECREASING if falls else INCREASING
        for name, value in (("knots", knots), ("f", partial(np.interp, xp=zs, fp=vs)),
                            ("inf_value", least), ("sup_value", most), ("monotonicity", mono)):
            object.__setattr__(self, name, value)


AnyOscillation = Oscillation | KnotOscillation


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the bracketed cut-level quadrature.

    ``abs_tol`` is the width a converged bracket stays below, the tail
    beyond an unbounded oscillation's truncation level included.
    ``max_refinements``, a positive int, caps the rounds of refinement; a
    round cuts every cell into parts by its share of the bracket width.
    ``bisect_tol`` is the width to which the cut-set scan bisects the one
    end of a monotone black box's cut (knot oscillations need none), and
    the tolerance of :func:`threshold_solve`.
    """

    abs_tol: float = 1e-4
    max_refinements: int = 24
    bisect_tol: float = 1e-12

    def __post_init__(self):
        for key in ("abs_tol", "bisect_tol"):
            object.__setattr__(self, key, _finite_number(getattr(self, key)))
        if self.abs_tol < 1e-12:
            raise ValidationError("abs_tol below 1e-12 is not honoured")
        if min(self.abs_tol, self.bisect_tol) <= 0:
            raise ValidationError("tolerances must be positive")
        object.__setattr__(self, "max_refinements", _class_index(
            self.max_refinements, math.inf, lowest=1, what="max_refinements values"))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """Bracket midpoint plus the half-width of the enclosing bracket (a
    Darboux bracket, or the rounding bound of an exact integral), and the
    rounds of adaptive refinement that cut some cells of the grid."""

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
    padded = np.zeros((len(inside), inside.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = inside
    edges = np.diff(padded, axis=1)
    row, first = np.nonzero(edges > 0)
    _, stop = np.nonzero(edges < 0)
    return row, first, stop


def _crossings(zs: np.ndarray, vs: np.ndarray, inside: np.ndarray, levels: np.ndarray):
    """Each run of knots marked in a row of ``inside`` (one row per level in
    the last axis of ``levels``): its row, whether it starts and whether it
    stops between knots, and the segment crossings there at its row's
    levels, starts first, each measured from the higher knot of its cell
    so that a level equal to a knot value lands on that knot."""
    row, first, stop = _runs(inside)
    starts, stops = first > 0, stop < len(zs)
    cell = np.concatenate([first[starts] - 1, stop[stops] - 1])
    hi = np.where(vs[cell + 1] > vs[cell], cell + 1, cell)
    lo = 2 * cell + 1 - hi
    at = levels[..., np.concatenate([row[starts], row[stops]])]
    return row, starts, stops, zs[hi] + (vs[hi] - at) / (vs[hi] - vs[lo]) * (zs[lo] - zs[hi])


def _cut_components(osc: AnyOscillation, ts: np.ndarray, cfg: QuadratureConfig,
                    complement: bool = False):
    """Components of ``{osc >= t}``, or with ``complement`` of ``{osc < t}``,
    for every level in ``ts``: flat arrays ``level, a, b, a_open, b_open``.

    ``osc`` is sampled on its knots, or at 0 and 1 if it is a black box
    (monotone, so its set is one interval that holds 0 or 1), and
    each run of samples inside the set is a component, ending at 0 or 1
    where it reaches the first or last sample.  Any other end is the
    crossing of its knot segment (:func:`_crossings`), or for a black box
    bisected in [0, 1] to ``cfg.bisect_tol``, all levels in one pass.  Cut
    components are closed; complement ends between samples are open.  The
    components are sorted by level and then by coordinate, and a level with
    an empty set has no entry.
    """
    if osc.knots is None:
        zs = np.array([0.0, 1.0])
        vs = osc.f(zs)
    else:
        zs, vs = np.asarray(osc.knots, dtype=float).T
    inside = vs < ts[:, None] if complement else vs >= ts[:, None]
    if osc.knots is None:
        level, first, stop = _runs(inside)
        a_open, b_open = first > 0, stop < 2
        t = ts[np.concatenate([level[a_open], level[b_open]])]
        ends = _bisect(osc.f, t, np.zeros(len(t)), np.ones(len(t)), vs[1] >= t,
                       cfg.bisect_tol)
    else:
        level, a_open, b_open, ends = _crossings(zs, vs, inside, ts)
    a, b = np.zeros(len(level)), np.ones(len(level))
    split = np.count_nonzero(a_open)
    a[a_open], b[b_open] = ends[:split], ends[split:]
    return level, a, b, a_open & complement, b_open & complement


def cut_event(osc: AnyOscillation, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> ZEventSet:
    """Normalized coordinate set ``{z : osc(z) >= t}``: the components of
    :func:`_cut_components` for one level, exact for a knot oscillation and
    for a monotone black box one interval holding 0 or 1, its other end
    bisected to ``cfg.bisect_tol``.  ``t`` is a finite number, or ``-inf``
    (the whole space) or ``inf`` (nothing); NaN is refused."""
    level = float(t) if t in (-math.inf, math.inf) else _finite_number(t)
    _, lo, hi, _, _ = _cut_components(osc, np.array([level]), cfg)
    return normalize([ZInterval.closed(a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def _batch_cut_probs(pbox: PBox, osc: AnyOscillation, ts: np.ndarray, upper: bool,
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
    a grid over the coordinate of a monotone black box ``osc``.

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


def _require_bounded(osc: AnyOscillation) -> None:
    """Refuse an unbounded lower oscillation: a bounded gamble has a bounded one."""
    if math.isinf(osc.sup_value):
        raise ValidationError("a lower oscillation of a bounded gamble is bounded")


def _require_target(target: float) -> None:
    """Refuse a threshold target outside (0, 1] (NaN included)."""
    if not 0.0 < target <= 1.0:
        raise ValidationError("threshold target must lie in (0, 1]")


def _integrand(pbox: PBox, osc: AnyOscillation, upper: bool, cfg: QuadratureConfig,
               tail: Callable | None = None):
    """The lower (upper) cut probability of ``osc`` as a batch function of
    the level, the levels ``[a, b]`` to integrate over, and the charge for
    the tail beyond ``b``: 0 for a bounded oscillation.

    An unbounded one is truncated at a finite level ``b``, read from the
    tail certificate ``tail`` alone, never from ``osc``:
    ``tail(T)`` is a proven upper bound on the integral of the upper cut
    probability beyond ``T``.  ``b`` is the first ``a + 2**k``, k = 0 ..
    63, where the certificate is at most ``_TAIL_SHARE * cfg.abs_tol``, or
    the last if none is, and the charge is the certificate there.  Without
    a certificate nothing bounds the tail: the charge is ``inf``, and ``b``
    is the greatest finite level of ``osc`` at the points ``1 - 2**-k`` of
    its coordinate grid, the top of what that grid reaches.
    """
    _require_continuum(pbox)
    batch = partial(_batch_cut_probs, pbox, osc, upper=upper, cfg=cfg)
    a, b = osc.inf_value, osc.sup_value
    if not math.isinf(b):
        return batch, a, b, 0.0
    if tail is None:
        return batch, a, _grid_top(osc), math.inf
    for k in range(64):
        b = a + 2.0 ** k
        charge = _certified(tail, b)
        if charge <= _TAIL_SHARE * cfg.abs_tol:
            break
    return batch, a, b, charge


def _certified(tail: Callable, level: float) -> float:
    """``tail(level)`` as a float, refused unless it is a number >= 0 (``inf``
    is allowed: it bounds nothing)."""
    bound = tail(level)
    if isinstance(bound, bool) or not isinstance(bound, numbers.Real) or not bound >= 0.0:
        raise ValidationError(f"a tail certificate gave {bound!r} at level {level!r}; "
                              "expected a number >= 0")
    return float(bound)


def _grid_top(osc: Oscillation) -> float:
    """The greatest finite level of a monotone black box at the points ``s =
    1 - 2**-k``, k = 1 .. 53, of its coordinate grid (see
    :func:`_coordinate_grid`), or its infimum if none is finite."""
    s = 1.0 - np.ldexp(1.0, -np.arange(1, 54))
    levels = osc.f(s if osc.monotonicity == INCREASING else 1.0 - s)
    finite = levels[np.isfinite(levels)]
    return float(finite.max()) if finite.size else osc.inf_value


def _expectation(pbox: PBox, osc: AnyOscillation, upper: bool,
                 cfg: QuadratureConfig, tail: Callable | None = None) -> QuadratureResult:
    """``inf + integral of the cut probability``, exact for a knot oscillation
    on a piecewise-polynomial p-box (:func:`_exact_expectation`), else
    bracketed by :func:`_darboux`.

    A monotone oscillation without knots is integrated over its coordinate
    (:func:`_coordinate_grid`), whose first point has the level ``a``, with
    its levels clipped at the truncation level ``b`` of :func:`_integrand`.
    A finite tail charge widens the bracket's top by the charge.  A charge
    within its share, ``_TAIL_SHARE * abs_tol``, leaves the rest of the
    tolerance to the quadrature, so ``converged`` means the reported bound
    meets ``abs_tol``; a charge beyond it never converges.  An infinite
    one, without a certificate, is left out: the bracket is then that of
    the integral up to ``b``, and is not converged.
    """
    if osc.knots is not None and pbox.is_polynomial:
        return _exact_expectation(pbox, osc, upper, cfg)
    batch, a, b, charge = _integrand(pbox, osc, upper, cfg, tail)
    unbounded = math.isinf(osc.sup_value)
    if b <= a and not unbounded:
        return QuadratureResult(a, 0.0, True)
    certified = charge <= _TAIL_SHARE * cfg.abs_tol
    level, lo, hi = np.asarray, a, b
    if osc.knots is None:
        level, batch = _coordinate_grid(pbox, osc, upper, a, b)
        lo, hi = 0.0, 1.0
    # a charge beyond its share cannot converge: refine to abs_tol instead
    tol = cfg.abs_tol * (1.0 - _TAIL_SHARE) if unbounded and certified else cfg.abs_tol
    mid, hw, ok, rounds = _darboux(batch, lo, hi, cfg, level, tol)
    known = charge if math.isfinite(charge) else 0.0
    return QuadratureResult(a + mid + 0.5 * known, hw + 0.5 * known, ok and certified, rounds)


def _exact_expectation(pbox: PBox, osc: KnotOscillation, upper: bool,
                       cfg: QuadratureConfig) -> QuadratureResult:
    """The expectation of a knot oscillation on a p-box of two
    piecewise-polynomial CDFs, piece by piece in the level, with a proven
    bound on its rounding.

    The level range splits at the knot values, at the level where ``f``
    crosses each break of either CDF, and within a piece at the zero of any
    gain whose clamp ``max(0, .)`` kinks there.  Between the first two, the
    components of every cut (on the upper side, of its complement) have
    fixed runs of knots, each end between knots moves linearly in the level,
    and each CDF it reads stays on one piece; so every gain ``F_lower(top) -
    F_upper(bottom)`` is a quadratic in the level.  It is taken at the
    piece's ends and middle, with the middle's knot cells and CDF pieces
    (the one-sided limits at the ends), and integrated exactly: by
    Simpson's rule where its clamp is idle, and over its positive part
    otherwise.  A gain is monotone in the level, falling as a cut shrinks
    and rising as a complement grows, so its clamp kinks at most once.

    The bound adds, with ``u`` the unit roundoff, ``L`` the steepest slope
    and ``K`` the largest curvature of either CDF, and ``w`` the width of a
    gain's piece:

    * ``w (2.5 e + |r| + 16 u s)`` per gain.  ``e = (14 L + 21) u`` bounds
      each of its three values: an end off by ``7 u``, a CDF value by
      ``10 u``.  Its quadratic interpolant is within ``1.25 e``, so a
      misplaced kink costs at most ``w`` times ``1.25 e`` plus the
      interpolant's residual ``|r|`` at the computed zero; ``s`` is the sum
      of its coefficients' sizes, for the rounding of the integral.
    * ``3 L u V``, ``V`` the largest level, for the rounding of the
      middles: weighed by the piece widths, the gains' slopes sum to at
      most ``L`` over all pieces, since each segment's end sweeps its cell
      once.
    * ``(L + K) |dz / dv| d**2`` per crossing of a CDF break, off by at
      most ``d = min(11 u v, |dv|)`` on a segment rising ``dv`` over
      ``dz`` between knot values of size at most ``v``: the two CDF pieces
      agree at the break, so over the misplaced levels they differ by at
      most ``2 (L + K)`` times the distance.
    * ``2 u`` of the sum and of the result, which take one rounding each.
    * For rounding into the subnormal range, absolute and at most
      ``2**-1075``: ``w 2**-1068`` per gain, whose integral takes 64 such
      roundings at most, and ``2**-1018 (1 + L + K)`` per gain and level
      bound, over a piece narrower than ``2**-1021`` or a misplaced break.

    ``converged`` means the bracket ``value -+ error_bound`` is narrower
    than ``cfg.abs_tol``; no round of refinement is made.
    """
    zs, vs = np.asarray(osc.knots, dtype=float).T
    a, b = osc.inf_value, osc.sup_value
    lower, upper_cdf = pbox.lower, pbox.upper
    # each interior break of either CDF lies on one segment, crossed at f(break)
    x = np.concatenate([lower._xs[1:-1], upper_cdf._xs[1:-1]])
    seg = np.searchsorted(zs, x, side="right") - 1
    v0, v1 = vs[seg], vs[seg + 1]
    rise, run = v1 - v0, zs[seg + 1] - zs[seg]
    crossing = np.minimum(np.maximum(v0 + (x - zs[seg]) * (rise / run), np.minimum(v0, v1)),
                          np.maximum(v0, v1))
    ts = np.sort(np.concatenate([(a, b), vs, crossing]))
    half = 0.5 * np.diff(ts)
    live = half > 0.0
    t0, half = ts[:-1][live], half[live]
    # each piece's ends and middle, one column per piece
    levels = np.stack([t0, t0 + half, ts[1:][live]])
    middle = levels[1, :, None]
    # the middle's runs, and each end between knots at the piece's three levels
    piece, bottom, top, ends = _crossings(zs, vs, vs < middle if upper else vs >= middle,
                                          levels)
    split = np.count_nonzero(bottom)
    bottoms, tops = ends[:, :split], ends[:, split:]
    # a run from the first knot is closed at 0 and one to the last reaches 1
    gains = np.full((3, len(piece)), pbox.lower_at_one)
    gains[:, top] = lower.on_piece(tops, lower.piece(tops[1]))
    gains[:, bottom] -= upper_cdf.on_piece(bottoms, upper_cdf.piece(bottoms[1]))
    # the quadratic through the three values, over x in [-1, 1] across the piece
    q0, qc, q1 = gains
    c0, c1, c2 = qc, 0.5 * (q1 - q0), 0.5 * (q0 + q1) - qc
    xl, xh = np.full(len(piece), -1.0), np.ones(len(piece))
    if upper:  # rising gains: positive on [x, 1]
        kink = (q0 < 0.0) & (q1 > 0.0)
        xl[q1 <= 0.0] = 1.0
        xl[kink] = root = _sign_change(c0[kink], c1[kink], c2[kink])
    else:  # falling gains: positive on [-1, x]
        kink = (q0 > 0.0) & (q1 < 0.0)
        xh[q0 <= 0.0] = -1.0
        xh[kink] = root = _sign_change(c0[kink], c1[kink], c2[kink])
    integral = (xh - xl) * (c0 + c1 * (0.5 * (xh + xl))
                            + c2 * ((xh * xh + xh * xl + xl * xl) / 3.0))
    total = math.fsum((half[piece] * integral).tolist())
    value = b - total if upper else a + total

    u = _UNIT_ROUNDOFF
    steep = max(lower.steepest, upper_cdf.steepest)
    bend = max(map(abs, lower.curvature + upper_cdf.curvature), default=0.0)
    residual = np.zeros(len(piece))
    residual[kink] = np.abs(c0[kink] + root * (c1[kink] + root * c2[kink]))
    size = np.abs(c0) + np.abs(c1) + np.abs(c2)
    rows = half[piece] * ((70.0 * steep + 105.0) * u + 2.0 * residual + 32.0 * u * size
                          + 2.0 ** -1068)
    miss = np.minimum(11.0 * u * np.maximum(np.abs(v0), np.abs(v1)), np.abs(rise))
    # miss is at most |rise|, so the ratio first keeps the product finite
    slivers = np.divide(miss, np.abs(rise), out=np.zeros(len(miss)), where=rise != 0.0)
    slivers *= run * miss
    bound = (math.fsum(rows.tolist()) + 3.0 * steep * u * max(abs(a), abs(b))
             + (steep + bend) * float(np.sum(slivers)) + 2.0 * u * (abs(total) + abs(value))
             + 2.0 ** -1018 * (1.0 + steep + bend) * (len(piece) + len(ts)))
    return QuadratureResult(value, bound, bound < 0.5 * cfg.abs_tol)


def _sign_change(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The root in [-1, 1] of each ``c0 + c1 x + c2 x**2``, which changes sign
    on it, by the stable quadratic formula; a root that rounding puts outside
    [-1, 1], or makes NaN, is clipped to it, and the residual at it enters
    the error bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(c1 * c1 - 4.0 * c0 * c2, 0.0)), c1))
        near, far = c0 / s, s / c2
        x = np.where(np.abs(near) <= 1.0, near, far)
    return np.fmin(np.fmax(x, -1.0), 1.0)


def lower_expectation(pbox: PBox, losc: AnyOscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Lower expectation of a gamble given its lower oscillation, the
    per-class infimum of the gamble (the caller guarantees it): ``inf +
    integral of the lower cut probability``, bracketed by Darboux sums."""
    _require_bounded(losc)
    return _expectation(pbox, losc, False, cfg)


def upper_expectation(pbox: PBox, uosc: AnyOscillation,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      tail: Callable | None = None) -> QuadratureResult:
    """Upper expectation of a gamble given its upper oscillation, the mirror
    of :func:`lower_expectation` through conjugacy.  An unbounded oscillation
    converges only with ``tail``, a certificate proven for this p-box: a
    function of a level ``T`` that bounds the integral of the upper cut
    probability beyond ``T``, whose bound is charged to the reported error
    (see :func:`_integrand`).  A bounded oscillation ignores it."""
    return _expectation(pbox, uosc, True, cfg, tail)


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
    own value.  A change too large for a float, where the gamble spans more
    than the float range, is added as its two terms instead: the sum of the
    strips below, the running total less the mass above times the old value,
    stays finite.

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
            step = least - previous
            if math.isinf(step):
                total = (total - (1.0 - below) * previous) + (1.0 - below) * least
            else:
                total += (1.0 - below) * step
        previous, below = least, level
    return total


def threshold_solve(pbox: PBox, uosc: AnyOscillation, target: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Smallest level t with upper cut probability at most ``target``.

    Requires the upper cut probability to be non-increasing and continuous
    over the search range, as for continuous lower CDFs and strictly
    monotone oscillations.  The search runs over the grid of
    :func:`_expectation`; its answer is ``level(hi)`` for a bracket with
    ``prob(hi) <= target < prob(lo)`` and ``level(hi) - level(lo) <=
    cfg.bisect_tol``, each round evaluating ``_SECTIONS - 1`` interior points
    in one batch and keeping the section where the target is first met.  A
    target that the top of the range, the supremum's cut, still misses is a
    :class:`ToleranceError`.
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
        raise ToleranceError("threshold target unreachable on the search range")
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
