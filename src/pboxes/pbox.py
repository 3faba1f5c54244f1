"""Cumulative distribution functions, p-boxes, and event inference.

A CDF is one of three types: a :class:`StepCdf` on the classes of a finite
space; a :class:`PiecewisePolynomialCdf` of degree at most 2 between knots,
the type of every CDF a scenario file can write or name; or an
:class:`AnalyticCdf`, a black-box function, continuous above 0.  A p-box of
two piecewise-polynomial CDFs is validated exactly from its pieces, and
:mod:`pboxes.choquet` integrates knot oscillations on it exactly; a p-box
with a black box is validated on a grid, on which its brackets then rest.

A p-box is an ordered pair of CDFs bounding an imprecisely known
distribution.  Its least-committal extension to an event is the sum, over
the full components of the event's interior image, of
``max(0, F_lower(top) - F_upper(predecessor of the bottom))``.  There is one
formula per space type, both behind :func:`lower_prob_event`: on a finite
space :func:`_run_sum`, a scalar loop over runs of consecutive classes,
each with its immediate predecessor; on the unit continuum
:func:`_piece_gains`, one vectorised pass over intervals, where only 0 has
a predecessor (of mass 0) and an open top reads the lower CDF's left
limit.  The same helper gives the probabilities of the cut sets that
:mod:`pboxes.choquet` finds from knots or by a level scan; a cut anchored
at 0 or 1 on a coordinate grid has one end and reads its one CDF
directly.  :func:`lower_prob_field` and
:func:`pboxes.multivariate.sublevel_box_lower` only convert their
arguments into events.  The caller supplies the interior image of the
event; this module never guesses interiors for raw events on the
underlying space.

A finite p-box is also a random set: each strip ``(a, b]`` between
consecutive distinct cumulative bounds puts its mass on the interval of
classes from the first where ``F_upper`` reaches ``b`` to the first where
``F_lower`` does.  :attr:`PBox.random_set` finds those strips once per
p-box, :func:`pboxes.choquet.lower_expectation_finite` sums them for each
gamble, and the lower probability of an event is the mass of the intervals
inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .preorder import (
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    UnitInterval,
    ZEventSet,
    ZInterval,
    _class_index,
    _coordinate,
    _finite_number,
    full_components_finite,
)

__all__ = [
    "StepCdf",
    "PiecewisePolynomialCdf",
    "PiecewiseLinearCdf",
    "AnalyticCdf",
    "PBox",
    "lower_prob_field",
    "lower_prob_event",
    "upper_prob_event",
]

_MONOTONE_SLACK = 1e-10
# the most points of any grid (validation, quadrature, a y_grid), so that a
# hopeless tolerance flags instead of exhausting memory
_MAX_GRID = 1 << 21


@dataclass(frozen=True)
class StepCdf:
    """CDF over a finite quotient space, one value per class index.

    Index -1 is accepted as the artificial predecessor of the smallest class
    and evaluates to 0.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(_finite_number(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValidationError("a step CDF needs at least one value")
        if any(v < -_MONOTONE_SLACK or v > 1.0 + _MONOTONE_SLACK for v in vals):
            raise ValidationError("CDF values must lie in [0, 1]")
        if any(b < a - _MONOTONE_SLACK for a, b in zip(vals, vals[1:])):
            raise ValidationError("CDF values must be non-decreasing")
        if abs(vals[-1] - 1.0) > 1e-9:
            raise ValidationError("the CDF must reach 1 at the top class")

    @property
    def size(self) -> int:
        return len(self.values)

    def __call__(self, index: int) -> float:
        index = _class_index(index, self.size, lowest=-1)
        return 0.0 if index == -1 else self.values[index]

    def left_limit(self, index: int) -> float:
        index = _class_index(index, self.size, lowest=-1)
        return 0.0 if index <= 0 else self.values[index - 1]


def _knot_list(knots) -> tuple:
    """The ``(x, value)`` pairs of every knot model as two lists of floats:
    finite numbers, strictly increasing ``x``, and no spread wider than the
    largest float, over which ``np.interp`` would read every slope as 0."""
    pairs = [(_finite_number(x), _finite_number(v)) for x, v in knots]
    xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidationError("knot coordinates must be strictly increasing")
    # a Python float overflows to inf without the warning numpy's difference would print
    if xs and xs[-1] - xs[0] == math.inf:
        raise ValidationError("knot coordinates differ by more than the largest float")
    if vs and max(vs) - min(vs) == math.inf:
        raise ValidationError("knot values differ by more than the largest float")
    return xs, vs


@dataclass(frozen=True)
class PiecewisePolynomialCdf:
    """Continuous CDF of degree at most 2 between sorted knots ``(x, F(x))``.

    On the piece between knots ``i`` and ``i + 1`` it is the linear
    interpolation of the two knots plus the bend ``curvature[i] * (x - x_i) *
    (x - x_{i+1})``, which vanishes at both; without ``curvature`` every
    piece is linear and the CDF evaluates by ``np.interp``.  A piece is
    non-decreasing when its bend is at most its rise, ``|curvature[i]| *
    (x_{i+1} - x_i)**2 <= F(x_{i+1}) - F(x_i)``, which is checked.  The
    domain is ``[knots[0].x, knots[-1].x]``; below the domain the CDF is 0
    and above it 1, so a positive value at the first knot encodes a jump at
    the bottom of the support.
    """

    knots: tuple
    curvature: tuple = ()

    def __post_init__(self):
        xs, fs = _knot_list(self.knots)
        object.__setattr__(self, "knots", tuple(zip(xs, fs)))
        if not xs:
            raise ValidationError("a piecewise-linear CDF needs at least one knot")
        if any(b < a for a, b in zip(fs, fs[1:])):
            raise ValidationError("knot values must be non-decreasing")
        if any(v < 0.0 or v > 1.0 for v in fs):
            raise ValidationError("CDF values must lie in [0, 1]")
        if fs[-1] != 1.0:
            raise ValidationError("the CDF must reach 1 at the top of its domain")
        bends = tuple(_finite_number(c) for c in self.curvature)
        if bends and len(bends) != len(xs) - 1:
            raise ValidationError("a piecewise-polynomial CDF takes one curvature per piece")
        # a bend that matches its rise to within rounding keeps its piece monotone
        if any(abs(c) * (b - a) * (b - a) > (fb - fa) * (1.0 + 2.0 ** -50)
               for c, a, b, fa, fb in zip(bends, xs, xs[1:], fs, fs[1:])):
            raise ValidationError("a bend exceeds the rise of its piece, so the CDF decreases")
        object.__setattr__(self, "curvature", bends if any(bends) else ())
        # read-only, as the CDF of a builtin scenario is shared within a process
        xs, fs = np.array(xs), np.array(fs)
        xs.flags.writeable = fs.flags.writeable = False
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_fs", fs)

    @property
    def domain(self) -> tuple:
        return (self.knots[0][0], self.knots[-1][0])

    @property
    def knot_xs(self) -> tuple:
        return tuple(x for x, _ in self.knots)

    def __call__(self, x):
        out = np.interp(x, self._xs, self._fs, left=0.0, right=1.0)
        if not self.curvature:
            return out
        x = np.asarray(x, dtype=float)
        piece = self.piece(x)
        bend = self._bends[piece] * (x - self._xs[piece]) * (x - self._xs[piece + 1])
        return out + np.where((x > self._xs[0]) & (x < self._xs[-1]), bend, 0.0)

    def left_limit(self, x):
        # continuous inside the domain; 0 below and at the bottom knot
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr <= self._xs[0], 0.0, self(x_arr))
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def piece(self, x):
        """Index of the piece holding each ``x``: the first below the domain,
        the last at and above its top."""
        return np.searchsorted(self._xs[1:-1], x, side="right")

    def on_piece(self, x, piece):
        """The polynomial of each ``piece`` at ``x``, continued beyond the piece's ends."""
        lo = self._xs[piece]
        return (self._fs[piece] + self._slopes[piece] * (x - lo)
                + self._bends[piece] * (x - lo) * (x - self._xs[piece + 1]))

    @cached_property
    def _slopes(self) -> np.ndarray:
        return np.diff(self._fs) / np.diff(self._xs)

    @cached_property
    def _bends(self) -> np.ndarray:
        return np.array(self.curvature) if self.curvature else np.zeros(len(self._xs) - 1)

    @cached_property
    def steepest(self) -> float:
        """The largest slope on any piece, reached at one of its ends."""
        return float(np.max(self._slopes + np.abs(self._bends) * np.diff(self._xs)))


def PiecewiseLinearCdf(knots) -> PiecewisePolynomialCdf:
    """The continuous piecewise-linear CDF through sorted ``knots`` ``(x, F(x))``:
    a :class:`PiecewisePolynomialCdf` without curvature."""
    return PiecewisePolynomialCdf(knots)


@dataclass(frozen=True)
class AnalyticCdf:
    """CDF given by one function ``fn`` of the quotient coordinate z in [0, 1],
    taken to be continuous above 0: its left limit is ``fn`` above 0 and 0 at
    or below 0.  So a jump at 0 is exact, and a bracket on a p-box with a
    jump above 0 rests on that assumption, as it rests on the validation
    grid.  ``fn`` may be scalar-only (see :func:`vectorized`).
    """

    fn: Callable

    def __post_init__(self):
        object.__setattr__(self, "fn", vectorized(self.fn))

    def __call__(self, z):
        return self.fn(z)

    def left_limit(self, z):
        # 0 is the bottom of [0, 1]: its artificial predecessor carries no mass
        out = np.where(np.asarray(z) <= 0.0, 0.0, self.fn(z))
        return float(out) if out.ndim == 0 else out


Cdf = StepCdf | PiecewisePolynomialCdf | AnalyticCdf

def vectorized(fn: Callable) -> Callable:
    """``fn`` if it maps arrays elementwise, else ``fn`` looped over elements.

    User callables are probed once, when the object holding them is built:
    one that raises on a two-point array or does not return an array of its
    shape is wrapped, so every later caller can pass arrays.  Scalars go
    straight to ``fn`` either way.
    """
    probe = np.array([0.25, 0.75])
    try:
        out = fn(probe)
        if isinstance(out, np.ndarray) and out.shape == probe.shape:
            return fn
    except Exception:  # a scalar-only callable can fail on an array in any way
        pass

    def elementwise(x):
        if np.ndim(x) == 0:
            return fn(x)
        return np.array([float(fn(v)) for v in np.ravel(x)]).reshape(np.shape(x))

    return elementwise


@dataclass(frozen=True)
class PBox:
    """A pair of CDFs ``lower <= upper`` over a common quotient space.

    Without a space, a step pair lives on its class indices and any other
    pair on [0, 1].  A pair of piecewise-polynomial CDFs is ordered exactly
    by :func:`_check_order`, the one order check that
    :class:`pboxes.multivariate.RealLinePBox` shares, with a slack of
    ``1e-10``.  Any other pair on the unit continuum has its ordering and
    monotonicity verified on ``validation_grid`` uniform points, an int
    from 2 to 2**21; exact global verification of black-box functions is
    not attempted.
    """

    lower: Cdf
    upper: Cdf
    space: FiniteQuotientSpace | UnitInterval | None = None
    validation_grid: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "validation_grid", _class_index(
            self.validation_grid, _MAX_GRID + 1, lowest=2, what="validation_grid values"))
        if self.space is None:
            space = (FiniteQuotientSpace(tuple(range(self.lower.size)))
                     if isinstance(self.lower, StepCdf) else UNIT_INTERVAL)
            object.__setattr__(self, "space", space)
        if isinstance(self.space, FiniteQuotientSpace):
            self._validate_finite()
        else:
            self._validate_continuum()

    def _validate_finite(self):
        if not isinstance(self.lower, StepCdf) or not isinstance(self.upper, StepCdf):
            raise ValidationError("p-boxes on finite spaces take step CDFs")
        n = self.space.size
        if self.lower.size != n or self.upper.size != n:
            raise ValidationError("CDF length must match the number of classes")
        for lo, hi in zip(self.lower.values, self.upper.values):
            if lo > hi + _MONOTONE_SLACK:
                raise ValidationError("lower CDF exceeds upper CDF")

    def _validate_continuum(self):
        if isinstance(self.lower, StepCdf) or isinstance(self.upper, StepCdf):
            raise ValidationError("step CDFs require a finite quotient space")
        for cdf in (self.lower, self.upper):
            if isinstance(cdf, PiecewisePolynomialCdf) and cdf.domain != (0.0, 1.0):
                raise ValidationError("continuum CDFs live on [0, 1]")
        if self.is_polynomial:
            _check_order(self.lower, self.upper, _MONOTONE_SLACK)
            return
        zs = np.linspace(0.0, 1.0, self.validation_grid)
        flo = self.lower(zs)
        fhi = self.upper(zs)
        for name, f in (("lower", flo), ("upper", fhi)):
            if np.any(f < -_MONOTONE_SLACK) or np.any(f > 1.0 + _MONOTONE_SLACK):
                raise ValidationError(f"{name} CDF leaves [0, 1] on the grid")
            if np.any(np.diff(f) < -_MONOTONE_SLACK):
                raise ValidationError(f"{name} CDF is not non-decreasing on the grid")
            if abs(f[-1] - 1.0) > 1e-9:
                raise ValidationError(f"{name} CDF must equal 1 at z = 1")
        if np.any(flo > fhi + _MONOTONE_SLACK):
            raise ValidationError("lower CDF exceeds upper CDF on the grid")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.space, FiniteQuotientSpace)

    @property
    def is_polynomial(self) -> bool:
        """Both CDFs piecewise polynomial: validated, and integrated against a
        knot oscillation, exactly."""
        return (isinstance(self.lower, PiecewisePolynomialCdf)
                and isinstance(self.upper, PiecewisePolynomialCdf))

    @property
    def is_precise(self) -> bool:
        if self.is_finite:
            return self.lower.values == self.upper.values
        return self.lower is self.upper

    @cached_property
    def lower_at_one(self) -> float:
        """``F_lower(1)`` on the unit continuum, evaluated once."""
        return float(self.lower(np.ones(1))[0])

    @cached_property
    def random_set(self) -> tuple:
        """The random set of a p-box on a finite space, found once.

        Sort the distinct cumulative bounds in (0, 1) and append 1: each
        level ``b`` closes the strip ``(a, b]`` from the level below, whose
        mass lies on the classes ``first..last``, from the first class where
        ``F_upper`` reaches ``b`` to the first where ``F_lower`` does.  One
        ``(b, first, last)`` per level, in ascending order; both ends only
        move right.  The CDFs may leave their bounds by a tolerance: a bound
        outside (0, 1) adds no level, an interval starts at the first class
        where either CDF reaches the level, and an end that no class reaches
        is the top class.
        """
        lower, upper = self.lower.values, self.upper.values
        top = len(lower) - 1
        levels = sorted({v for v in lower + upper if 0.0 < v < 1.0})
        levels.append(1.0)
        strips = []
        left = right = 0
        for level in levels:
            while left < top and upper[left] < level:
                left += 1
            while right < top and lower[right] < level:
                right += 1
            # a lower CDF above the upper one, by the tolerance, starts the
            # interval where it reaches the level
            strips.append((level, min(left, right), right))
        return tuple(strips)


def _check_order(lower: PiecewisePolynomialCdf, upper: PiecewisePolynomialCdf,
                 slack: float) -> None:
    """Refuse ``lower`` above ``upper`` by more than ``slack`` anywhere, exactly.

    Between consecutive breaks of either CDF their difference is one
    quadratic, continuous from the right at the piece's start and from the
    left at its end.  So it is read at every break, as values and as left
    limits, and where either CDF bends, at each piece's middle and at a
    least value strictly inside, the vertex of the quadratic through all three."""
    # deduplicated by a mask, as np.unique imports numpy.ma on its first call
    zs = np.sort(np.concatenate([lower._xs, upper._xs]))
    zs = zs[np.concatenate([[True], zs[1:] > zs[:-1]])]
    gap = upper(zs) - lower(zs)
    left = upper.left_limit(zs) - lower.left_limit(zs)
    reads = [gap, left]
    if lower.curvature or upper.curvature:
        mid = 0.5 * (zs[:-1] + zs[1:])
        middle = upper(mid) - lower(mid)
        # twice the bend; where it holds a least value, the vertex is inside
        bent, slope = gap[:-1] - 2.0 * middle + left[1:], left[1:] - gap[:-1]
        inner = (bent > 0.0) & (np.abs(slope) < 2.0 * bent)
        reads += [middle, middle[inner] - slope[inner] ** 2 / (8.0 * bent[inner])]
    if any(np.any(read < -slack) for read in reads):
        raise ValidationError("lower CDF exceeds upper CDF")


def _piece_gains(pbox: PBox, lo: np.ndarray, hi: np.ndarray, lo_open: np.ndarray,
                 hi_open: np.ndarray) -> np.ndarray:
    """``max(0, F_lower(top) - F_upper(bottom))`` for every piece of the continuum.

    The pieces are subintervals of [0, 1] given by flat arrays of ends and
    boolean arrays of their openness.  The top is ``F_lower(hi)`` at a closed
    end and ``F_lower(hi-)`` at an open one; the bottom is ``F_upper(lo)``,
    or 0 for a piece closed at 0.  Each CDF is called at most once, only on
    ends whose value is not known: ``F_lower(1)`` is read once per p-box, an
    open top 0 reads 0, and the empty ``(1, 1]`` gains 0.
    """
    below_one = lo < 1.0
    masks = (~hi_open & (hi < 1.0), hi_open & (hi > 0.0),
             np.where(lo_open, below_one, lo > 0.0))
    # read every CDF before the gains exist, so that the two never meet in memory
    reads = [cdf(z[where]) if where.any() else 0.0 for cdf, z, where in
             zip((pbox.lower, pbox.lower.left_limit, pbox.upper), (hi, hi, lo), masks)]
    one = pbox.lower_at_one
    gains = np.where(hi_open, 0.0, one)
    gains[masks[0]], gains[masks[1]] = reads[0], reads[1]
    gains[masks[2]] -= reads[2]
    gains[lo_open & ~below_one] -= one
    return np.maximum(0.0, gains, out=gains)


def lower_prob_field(pbox: PBox, endpoints: Sequence) -> float:
    """Lower probability of a finite union of half-open pieces.

    ``endpoints`` is the flat ascending sequence ``x0 < x1 < ... < x_{2n+1}``
    describing ``(x0, x1] ∪ (x2, x3] ∪ ...``.  The first element may be
    ``None``, the artificial predecessor of the smallest element, so that
    ``(None, x]`` means the closed sublevel set.  On a finite space the
    endpoints are class indices and the sentinel may also be written -1; on
    the continuum every other endpoint must lie in [0, 1].

    Returns ``sum_k max(0, lower(x_{2k+1}) - upper(x_{2k}))``, read off
    :func:`lower_prob_event`: the pieces are the event's full components.
    """
    xs = list(endpoints)
    if len(xs) < 2 or len(xs) % 2 != 0:
        raise ValidationError("field events need an even number of endpoints")
    if any(x is None for x in xs[1:]):
        raise ValidationError("only the first endpoint may be the sentinel")
    if pbox.is_finite:
        xs = [_class_index(-1 if x is None else x, pbox.space.size, lowest=-1) for x in xs]
    else:
        xs = [x if x is None else _coordinate(x) for x in xs]
    if any(a is not None and not b > a for a, b in zip(xs, xs[1:])):
        raise ValidationError("endpoints must be strictly increasing")
    pieces = zip(xs[::2], xs[1::2])
    if pbox.is_finite:
        return lower_prob_event(pbox, ClassSubset(frozenset(
            i for a, b in pieces for i in range(a + 1, b + 1))))
    return lower_prob_event(pbox, ZEventSet(tuple(
        ZInterval.closed(0.0, b) if a is None else ZInterval.left_open(a, b)
        for a, b in pieces)))


def lower_prob_event(pbox: PBox, interior_image) -> float:
    """Lower probability of an event, given the image of its interior.

    The value is the sum, over the full components of the image, of
    ``max(0, F_lower(top) - F_upper(predecessor of the bottom))``, clamped
    to [0, 1]; the caller guarantees that the argument is the image of the
    event's topological interior.  A :class:`ClassSubset` of a finite space
    is split into runs of consecutive classes, each with its immediate
    predecessor, in a scalar loop; the intervals of a :class:`ZEventSet`
    on the continuum go through :func:`_piece_gains` in one call.
    """
    if isinstance(interior_image, ClassSubset):
        if not pbox.is_finite:
            raise ValidationError("class subsets require a finite-space p-box")
        return _run_sum(pbox.lower.values, pbox.upper.values,
                        full_components_finite(pbox.space, interior_image))
    if not isinstance(interior_image, ZEventSet):
        raise ValidationError("events are ClassSubset or ZEventSet values")
    if pbox.is_finite:
        raise ValidationError("z-events require a continuum p-box")
    ends = [(iv.lo, iv.hi, iv.lo_open, iv.hi_open) for iv in interior_image]
    lo, hi, lo_open, hi_open = np.array(ends, dtype=float).reshape(-1, 4).T
    total = sum(_piece_gains(pbox, lo, hi, lo_open > 0, hi_open > 0).tolist(), 0.0)
    return min(max(total, 0.0), 1.0)


def _run_sum(lower: tuple, upper: tuple, runs) -> float:
    """The finite formula over ascending runs ``(a, b)`` of consecutive classes.

    ``lower`` and ``upper`` are the values of the two step CDFs, and the
    predecessor of class 0 reads 0.  The sum of ``max(0, lower[b] -
    upper[a - 1])`` starts at the float 0, so that an empty event has the
    float lower probability 0, and is clamped to [0, 1].
    """
    total = 0.0
    for a, b in runs:
        total += max(0.0, lower[b] - (upper[a - 1] if a else 0.0))
    return min(max(total, 0.0), 1.0)


def upper_prob_event(pbox: PBox, complement_interior_image) -> float:
    """Upper probability via conjugacy: ``1 - lower(interior of the complement)``."""
    return 1.0 - lower_prob_event(pbox, complement_interior_image)
