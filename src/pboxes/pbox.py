"""Cumulative distribution functions, p-boxes, and event inference.

A p-box is an ordered pair of CDFs bounding an imprecisely known
distribution.  Its least-committal extension to events is computed here in
closed form: on a finite union of half-open pieces it is a sum of clamped
increments, and on an arbitrary event it is the sum of those increments over
the full components of the event's interior image (class subsets on finite
spaces, interval unions on the unit continuum).

The caller supplies the interior image of the event; this module never
guesses interiors for raw events on the underlying space.
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
    full_components_finite,
)

__all__ = [
    "StepCdf",
    "PiecewiseLinearCdf",
    "AnalyticCdf",
    "PBox",
    "cdf_eval",
    "cdf_left_limit",
    "lower_prob_field",
    "lower_prob_interval",
    "lower_prob_event",
    "upper_prob_event",
    "best_pbox_approximation",
]

_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class StepCdf:
    """CDF over a finite quotient space, one value per class index.

    Index -1 is accepted as the artificial predecessor of the smallest class
    and evaluates to 0.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValidationError("a step CDF needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("CDF values must be finite")
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
        if index == -1:
            return 0.0
        if not 0 <= index < len(self.values):
            raise ValidationError(f"class index {index} out of range")
        return self.values[index]

    def left_limit(self, index: int) -> float:
        if not -1 <= index < len(self.values):
            raise ValidationError(f"class index {index} out of range")
        return 0.0 if index <= 0 else self.values[index - 1]


@dataclass(frozen=True)
class PiecewiseLinearCdf:
    """Continuous piecewise-linear CDF given by sorted knots ``(x, F(x))``.

    The domain is ``[knots[0].x, knots[-1].x]``; below the domain the CDF is
    0 and above it 1, so a positive value at the first knot encodes a jump at
    the bottom of the support.
    """

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(x), float(fx)) for x, fx in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ValidationError("a piecewise-linear CDF needs at least one knot")
        xs = [x for x, _ in knots]
        fs = [fx for _, fx in knots]
        if not all(math.isfinite(v) for v in xs + fs):
            raise ValidationError("knots must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValidationError("knot coordinates must be strictly increasing")
        if any(b < a for a, b in zip(fs, fs[1:])):
            raise ValidationError("knot values must be non-decreasing")
        if any(v < 0.0 or v > 1.0 for v in fs):
            raise ValidationError("CDF values must lie in [0, 1]")
        if fs[-1] != 1.0:
            raise ValidationError("the CDF must reach 1 at the top of its domain")
        object.__setattr__(self, "_xs", np.array(xs))
        object.__setattr__(self, "_fs", np.array(fs))

    @property
    def domain(self) -> tuple:
        return (self.knots[0][0], self.knots[-1][0])

    @property
    def knot_xs(self) -> tuple:
        return tuple(x for x, _ in self.knots)

    def __call__(self, x):
        return np.interp(x, self._xs, self._fs, left=0.0, right=1.0)

    def left_limit(self, x):
        # continuous inside the domain; 0 below and at the bottom knot
        x_arr = np.asarray(x, dtype=float)
        out = np.where(x_arr <= self._xs[0], 0.0,
                       np.interp(x_arr, self._xs, self._fs, left=0.0, right=1.0))
        return float(out) if np.isscalar(x) or out.ndim == 0 else out


@dataclass(frozen=True)
class AnalyticCdf:
    """CDF given as a function of the quotient coordinate z in [0, 1].

    Discontinuous forms must register an explicit left-limit companion;
    continuous forms default their left limit to the function itself.
    Either function may be scalar-only (see :func:`vectorized`).
    """

    fn: Callable
    left_limit_fn: Callable | None = None
    continuous: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.continuous and self.left_limit_fn is None:
            raise ValidationError(
                "a discontinuous analytic CDF needs an explicit left-limit function")
        object.__setattr__(self, "fn", vectorized(self.fn))
        if self.left_limit_fn is not None:
            object.__setattr__(self, "left_limit_fn", vectorized(self.left_limit_fn))

    @property
    def domain(self) -> tuple:
        return (0.0, 1.0)

    def __call__(self, z):
        return self.fn(z)

    def left_limit(self, z):
        # 0 is the bottom of [0, 1]: its artificial predecessor carries no mass
        value = self.fn(z) if self.continuous else self.left_limit_fn(z)
        out = np.where(np.asarray(z) <= 0.0, 0.0, value)
        return float(out) if out.ndim == 0 else out


Cdf = StepCdf | PiecewiseLinearCdf | AnalyticCdf

_PROBE = np.array([0.25, 0.75])


def vectorized(fn: Callable, probe: np.ndarray = _PROBE) -> Callable:
    """``fn`` if it maps arrays elementwise, else ``fn`` looped over elements.

    User callables are probed once, when the object holding them is built:
    one that raises on ``probe`` or does not return an array of its shape is
    wrapped, so every later caller can pass arrays.  Scalars go straight to
    ``fn`` either way.
    """
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


def cdf_eval(cdf, z):
    """F(z), validating the coordinate against the CDF's domain."""
    if isinstance(cdf, StepCdf):
        return cdf(int(z))
    lo, hi = cdf.domain
    if z < lo or z > hi:
        raise ValidationError(f"coordinate {z} outside CDF domain [{lo}, {hi}]")
    return float(cdf(z))


def cdf_left_limit(cdf, z):
    """F(z-) = sup of F strictly below z; 0 at or below the bottom element."""
    if isinstance(cdf, StepCdf):
        return cdf.left_limit(int(z))
    lo, hi = cdf.domain
    if z < lo or z > hi:
        raise ValidationError(f"coordinate {z} outside CDF domain [{lo}, {hi}]")
    return float(cdf.left_limit(z))


@dataclass(frozen=True)
class PBox:
    """A pair of CDFs ``lower <= upper`` over a common quotient space.

    On the unit continuum the ordering and monotonicity of analytic members
    are verified on a sampling grid (all knots plus ``validation_grid``
    uniform points); exact global verification of black-box functions is not
    attempted.
    """

    lower: Cdf
    upper: Cdf
    space: FiniteQuotientSpace | UnitInterval = UNIT_INTERVAL
    validation_grid: int = 10_000

    def __post_init__(self):
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
        zs = np.linspace(0.0, 1.0, max(self.validation_grid, 2))
        for cdf in (self.lower, self.upper):
            if isinstance(cdf, PiecewiseLinearCdf):
                if cdf.domain != (0.0, 1.0):
                    raise ValidationError("continuum CDFs live on [0, 1]")
                zs = np.union1d(zs, cdf._xs)
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
    def is_precise(self) -> bool:
        if self.is_finite:
            return self.lower.values == self.upper.values
        return self.lower is self.upper

    @cached_property
    def lower_at_one(self) -> float:
        """``F_lower(1)`` on the unit continuum, evaluated once."""
        return float(self.lower(np.ones(1))[0])


def _upper_at(pbox: PBox, x) -> float:
    """Upper CDF at an even endpoint; ``None`` is the below-everything sentinel."""
    if x is None:
        return 0.0
    return float(pbox.upper(x))


def lower_prob_field(pbox: PBox, endpoints: Sequence) -> float:
    """Lower probability of a finite union of half-open pieces.

    ``endpoints`` is the flat ascending sequence ``x0 < x1 < ... < x_{2n+1}``
    describing ``(x0, x1] ∪ (x2, x3] ∪ ...``.  The first element may be
    ``None`` (or -1 on finite spaces), the artificial predecessor of the
    smallest class, so that ``(None, x]`` means the closed sublevel set.

    Returns ``sum_k max(0, lower(x_{2k+1}) - upper(x_{2k}))``.
    """
    xs = list(endpoints)
    if len(xs) < 2 or len(xs) % 2 != 0:
        raise ValidationError("field events need an even number of endpoints")
    for a, b in zip(xs, xs[1:]):
        if a is not None and not b > a:
            raise ValidationError("endpoints must be strictly increasing")
    if any(x is None for x in xs[1:]):
        raise ValidationError("only the first endpoint may be the sentinel")
    total = 0.0
    for k in range(0, len(xs), 2):
        total += max(0.0, float(pbox.lower(xs[k + 1])) - _upper_at(pbox, xs[k]))
    return min(max(total, 0.0), 1.0)


def _interval_lower_continuum(pbox: PBox, iv: ZInterval) -> float:
    if iv.is_empty:
        raise ValidationError(f"degenerate empty interval {iv}")
    if iv.hi_open:
        top = cdf_left_limit(pbox.lower, iv.hi)
    else:
        top = float(pbox.lower(iv.hi))
    if iv.lo_open:
        bottom = float(pbox.upper(iv.lo))
    elif iv.lo == 0.0:
        # 0 is the only element of the continuum with an immediate
        # predecessor, the artificial one carrying cumulative mass 0
        bottom = 0.0
    else:
        bottom = float(pbox.upper(iv.lo))
    return max(0.0, top - bottom)


def lower_prob_interval(pbox: PBox, interval) -> float:
    """Lower probability of a single full interval.

    On a finite space ``interval`` is an inclusive index range ``(a, b)``
    and every class has an immediate predecessor; on the continuum it is a
    :class:`ZInterval` and only 0 has one.
    """
    if pbox.is_finite:
        a, b = interval
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValidationError("finite-space intervals are index pairs")
        if not 0 <= a <= b < pbox.space.size:
            raise ValidationError(f"index range ({a}, {b}) out of bounds")
        return max(0.0, pbox.lower(b) - pbox.upper.left_limit(a))
    if not isinstance(interval, ZInterval):
        raise ValidationError("continuum intervals must be ZInterval values")
    return _interval_lower_continuum(pbox, interval)


def lower_prob_event(pbox: PBox, interior_image) -> float:
    """Lower probability of an event, given the image of its interior.

    The value is the sum of :func:`lower_prob_interval` over the full
    components of the image; the caller guarantees that the argument is the
    image of the event's topological interior.
    """
    if isinstance(interior_image, ClassSubset):
        if not pbox.is_finite:
            raise ValidationError("class subsets require a finite-space p-box")
        runs = full_components_finite(pbox.space, interior_image)
        total = sum(lower_prob_interval(pbox, run) for run in runs)
    elif isinstance(interior_image, ZEventSet):
        if pbox.is_finite:
            raise ValidationError("z-events require a continuum p-box")
        total = sum(_interval_lower_continuum(pbox, iv)
                    for iv in interior_image.intervals)
    else:
        raise ValidationError("events are ClassSubset or ZEventSet values")
    return min(max(total, 0.0), 1.0)


def upper_prob_event(pbox: PBox, complement_interior_image) -> float:
    """Upper probability via conjugacy: ``1 - lower(interior of the complement)``."""
    return 1.0 - lower_prob_event(pbox, complement_interior_image)


def best_pbox_approximation(lower_sublevel, upper_sublevel,
                            space: FiniteQuotientSpace | UnitInterval = UNIT_INTERVAL,
                            lower_left_limit=None, upper_left_limit=None) -> PBox:
    """Tightest p-box dominated by a model with the given sublevel bounds.

    ``lower_sublevel`` and ``upper_sublevel`` map each coordinate z to the
    model's lower/upper probability of the closed sublevel set up to z; on a
    finite space they are per-class sequences instead.  Discontinuous
    sublevel maps on the continuum should pass explicit left-limit
    companions.
    """
    if isinstance(space, FiniteQuotientSpace):
        lo = StepCdf(tuple(lower_sublevel))
        hi = StepCdf(tuple(upper_sublevel))
        return PBox(lo, hi, space)
    lo = AnalyticCdf(lower_sublevel, left_limit_fn=lower_left_limit,
                     continuous=lower_left_limit is None, name="approx-lower")
    hi = AnalyticCdf(upper_sublevel, left_limit_fn=upper_left_limit,
                     continuous=upper_left_limit is None, name="approx-upper")
    return PBox(lo, hi, space)
