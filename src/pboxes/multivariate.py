"""Joint p-boxes from marginal models, and arithmetic on real-line p-boxes.

A joint model on a product space is induced by aggregating per-dimension
coordinates with a pointwise maximum, under which every joint sublevel set
is a product of marginal sublevel sets.  Any combination rule expressible as
a pair of pointwise combiners on marginal probabilities (Fréchet bounds for
unknown dependence, products for epistemic independence, or a user-supplied
pair) then yields the tightest p-box dominated by the combined model simply
by combining the marginal CDFs pointwise.

Arithmetic on real-line p-boxes (dependency-bounds convolution for sums,
differences, products, and quotients) is the special case where the
per-dimension coordinate rescalings are optimised out.  Along the line
``x1 op x2 = y`` both piecewise-linear CDFs are linear between corners, so
each bound is an exact maximum or minimum over those corners, their
one-sided limits and, for the upper bound of a product, one stationary
point per corner cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .pbox import AnalyticCdf, PBox, PiecewiseLinearCdf, StepCdf, lower_prob_field
from .preorder import (UNIT_INTERVAL, FiniteQuotientSpace, UnitInterval, _class_index,
                       _coordinate, _finite_number)

__all__ = [
    "MarginalSpec",
    "CombinationRule",
    "FRECHET",
    "INDEPENDENT",
    "RealLinePBox",
    "combine",
    "sublevel_box_lower",
    "prob_arith_add_lower",
    "prob_arith_add_upper",
    "prob_arith_transform",
]


@dataclass(frozen=True)
class MarginalSpec:
    """One factor of a product space: the CDF bounds of its coordinate.

    The CDFs are functions of the coordinate of a surjective mapping from
    the factor space onto [0, 1]; the mapping itself never enters the joint
    computation, only its CDFs do.  A finite factor takes a pair of step
    CDFs, one value per class.
    """

    lower: StepCdf | PiecewiseLinearCdf | AnalyticCdf
    upper: StepCdf | PiecewiseLinearCdf | AnalyticCdf

    def __post_init__(self):
        # delegate the pair validation (ordering, monotonicity, top value)
        PBox(self.lower, self.upper, self.space, validation_grid=512)

    @property
    def space(self) -> FiniteQuotientSpace | UnitInterval:
        """The class indices of a step pair; otherwise [0, 1]."""
        if isinstance(self.lower, StepCdf):
            return FiniteQuotientSpace(tuple(range(self.lower.size)))
        return UNIT_INTERVAL


@dataclass(frozen=True)
class CombinationRule:
    """A pair of n-ary combiners applied to marginal lower/upper probabilities.

    Both combiners take a sequence of values in [0, 1] (one per marginal) and
    must be non-decreasing in every argument, map all-ones to one, and
    satisfy ``ell <= u`` pointwise.  These invariants are spot-checked on a
    coarse grid by :meth:`validate`.
    """

    name: str
    ell: Callable
    u: Callable

    def validate(self, arity: int):
        if arity < 2:
            raise ValidationError("combination rules need at least two marginals")
        steps = np.linspace(0.0, 1.0, 5 if arity <= 3 else 3)
        ones = [1.0] * arity
        if abs(self.ell(ones) - 1.0) > 1e-12 or abs(self.u(ones) - 1.0) > 1e-12:
            raise ValidationError(f"rule {self.name!r} must map all-ones to 1")
        grids = np.meshgrid(*([steps] * arity), indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=1)
        lo = np.array([float(self.ell(list(p))) for p in points])
        hi = np.array([float(self.u(list(p))) for p in points])
        if np.any(lo > hi + 1e-12):
            raise ValidationError(f"rule {self.name!r} has ell above u on the grid")
        # a step along an axis of the grid is a step in that argument
        for axis in range(arity):
            for values in (lo, hi):
                if np.any(np.diff(values.reshape(grids[0].shape), axis=axis) < -1e-12):
                    raise ValidationError(
                        f"rule {self.name!r} is not monotone in argument {axis}")


def _frechet_lower(values) -> float:
    return np.maximum(0.0, 1.0 - len(values) + sum(values))


def _frechet_upper(values):
    out = values[0]
    for v in values[1:]:
        out = np.minimum(out, v)
    return out


def _product(values):
    out = values[0]
    for v in values[1:]:
        out = out * v
    return out


FRECHET = CombinationRule("frechet", _frechet_lower, _frechet_upper)
INDEPENDENT = CombinationRule("independence", _product, _product)


def _joint_cdf(cdfs: list, combiner: Callable):
    """``combiner`` of the marginal CDFs, class by class or point by point."""
    if isinstance(cdfs[0], StepCdf):
        return StepCdf(tuple(combiner([np.array(cdf.values) for cdf in cdfs])))
    continuous = all(getattr(cdf, "left_limit_fn", None) is None for cdf in cdfs)
    left = None if continuous else (lambda z: combiner([cdf.left_limit(z) for cdf in cdfs]))
    return AnalyticCdf(lambda z: combiner([cdf(z) for cdf in cdfs]), left)


def combine(marginals: Sequence[MarginalSpec], rule: CombinationRule) -> PBox:
    """Joint p-box of the max-aggregated coordinate under a combination rule.

    The joint lower CDF is ``ell`` of the marginal lower CDFs evaluated at
    the same coordinate, and likewise for the upper; this is the tightest
    p-box whose inferences are dominated by the combined marginal model.

    Finite marginals, step CDFs with a common number n of classes, give a
    joint on n classes: joint class k holds the points whose largest
    marginal class index is k, and the rule applies class by class.  So the
    bottom joint class is the product of the marginals' bottom classes.
    """
    if len(marginals) < 2:
        raise ValidationError("combine needs at least two marginals")
    rule.validate(len(marginals))
    spaces = {m.space for m in marginals}
    if len(spaces) != 1:
        raise ValidationError("finite marginals need step CDFs with the same number of classes")
    return PBox(_joint_cdf([m.lower for m in marginals], rule.ell),
                _joint_cdf([m.upper for m in marginals], rule.u),
                spaces.pop(), validation_grid=2048)


def sublevel_box_lower(joint: PBox, levels: Sequence) -> float:
    """Lower probability of a product of marginal sublevel sets.

    The largest joint sublevel set inside the box sits at the smallest of
    the per-dimension levels, so the p-box (outer-approximation) value is
    that of the field event ``(None, min(levels)]``.  The levels are class
    indices on a finite joint from :func:`combine`, else coordinates in [0, 1].
    """
    if not levels:
        raise ValidationError("at least one level is required")
    level = partial(_class_index, size=joint.space.size) if joint.is_finite else _coordinate
    return lower_prob_field(joint, [None, min(map(level, levels))])


# ---------------------------------------------------------------------------
# probabilistic arithmetic on the real line


@dataclass(frozen=True)
class RealLinePBox:
    """A p-box for a real variable with bounded support.

    The CDFs are functions of the real coordinate, 0 below and 1 above their
    knots.  The support is the hull of both CDFs' knot domains, so every
    change of either CDF lies inside it; a single knot gives a point
    support (a degenerate variable).
    """

    lower: PiecewiseLinearCdf
    upper: PiecewiseLinearCdf

    def __post_init__(self):
        # both CDFs are linear between consecutive knots of either one, so
        # values and left limits at those knots decide the ordering exactly
        xs = np.unique(np.concatenate([self.lower.knot_xs, self.upper.knot_xs]))
        if (np.any(self.lower(xs) > self.upper(xs) + 1e-12)
                or np.any(self.lower.left_limit(xs) > self.upper.left_limit(xs) + 1e-12)):
            raise ValidationError("lower CDF exceeds upper CDF on the support")

    @property
    def support(self) -> tuple:
        return (min(self.lower.domain[0], self.upper.domain[0]),
                max(self.lower.domain[1], self.upper.domain[1]))

    @classmethod
    def from_knots(cls, lower_knots, upper_knots=None) -> "RealLinePBox":
        lower = PiecewiseLinearCdf(tuple(lower_knots))
        upper = PiecewiseLinearCdf(tuple(upper_knots)) if upper_knots else lower
        return cls(lower, upper)

    @classmethod
    def point_mass(cls, c: float) -> "RealLinePBox":
        cdf = PiecewiseLinearCdf(((c, 1.0),))
        return cls(cdf, cdf)


# For each operation on the line ``x1 op x2 = y``: the partner x2 of x1 = x,
# the x1 whose partner is a given x2, and whether x2 falls as x1 rises
# (then X2's order runs against X1's and the other side of its p-box enters).
_PARTNERS = {
    "add": (lambda x, y: y - x, lambda k, y: y - k, False),
    "subtract": (lambda x, y: x - y, lambda k, y: k + y, True),
    "multiply": (lambda x, y: y / x, lambda k, y: y / k, False),
    "divide": (lambda x, y: x / y, lambda k, y: k * y, True),
}


def _arith_bound(op: str, side: str, x1: RealLinePBox, x2: RealLinePBox, y: float) -> float:
    """One side of the CDF of ``X1 op X2`` at y under unknown dependence.

    With ``p`` the partner map and ``T(x)`` the second variable's term
    (``F2(p(x))``, or ``1 - G2(p(x)-)`` when the order reverses), the lower
    bound is ``sup max(0, F1 + T - 1)`` and the upper ``inf min(1, F1 + T)``
    along the line.  Between consecutive corners (the ends of the feasible
    segment, X1's knots and the preimages of X2's knots, each paired with
    its exact partner) both CDFs are linear in their own argument, so the
    objective is linear in x, or ``a + s1 x + s2 y / x`` for a product.
    The extrema therefore sit at corners, in one-sided limits there, or at
    the product's stationary point ``sqrt(s2 y / s1)``.
    """
    if op not in _PARTNERS:
        raise ValidationError(f"unknown arithmetic operation {op!r}")
    y = _finite_number(y)
    if op in ("multiply", "divide") and min(x1.support[0], x2.support[0]) <= 0.0:
        raise ValidationError("multiplication and division need strictly positive supports")
    partner, preimage, reverses = _PARTNERS[op]
    (a1, b1), (a2, b2) = x1.support, x2.support
    ends = sorted((preimage(a2, y), preimage(b2, y)))
    lo, hi = max(a1, ends[0]), min(b1, ends[1])
    if hi < lo:
        # y lies below or above the whole support of X1 op X2
        return 0.0 if ends[1] < a1 else 1.0
    other = "upper" if side == "lower" else "lower"
    f1, f2 = getattr(x1, side), getattr(x2, other if reverses else side)
    xs1 = np.array((a1, b1) + f1.knot_xs)
    ks = np.array((a2, b2) + f2.knot_xs)
    xs = np.concatenate([xs1, preimage(ks, y)])
    ps = np.concatenate([partner(xs1, y), ks])
    keep = (xs >= lo) & (xs <= hi)
    xs, ps = xs[keep], ps[keep]
    # T at x and its limit from the right of x, both non-increasing in x
    if reverses:
        term, term_right = 1.0 - f2.left_limit(ps), 1.0 - f2(ps)
    else:
        term, term_right = f2(ps), f2.left_limit(ps)
    if side == "lower":
        value = np.max(f1(xs) + term - 1.0)
    else:
        value = np.min(np.minimum(f1.left_limit(xs) + term, f1(xs) + term_right))
        if op == "multiply":
            mid = _stationary_points(f1, f2, xs, ps, y)
            value = min(value, np.min(f1(mid) + f2(y / mid), initial=1.0))
    return min(max(float(value), 0.0), 1.0)


def _stationary_points(f1, f2, xs, ps, y) -> np.ndarray:
    """Minimisers of ``F1(x) + F2(y / x)`` strictly inside corner cells."""
    order = np.argsort(xs)
    xs, ps = xs[order], ps[order]
    left, right, p_hi, p_lo = xs[:-1], xs[1:], ps[:-1], ps[1:]
    cell = (right > left) & (p_hi > p_lo)
    left, right, p_hi, p_lo = left[cell], right[cell], p_hi[cell], p_lo[cell]
    s1 = (f1.left_limit(right) - f1(left)) / (right - left)
    s2 = (f2.left_limit(p_hi) - f2(p_lo)) / (p_hi - p_lo)
    curved = (s1 > 0.0) & (s2 > 0.0)
    mid = np.sqrt(s2[curved] * y / s1[curved])
    return mid[(mid > left[curved]) & (mid < right[curved])]


def prob_arith_add_lower(x1: RealLinePBox, x2: RealLinePBox, y: float) -> float:
    """Lower CDF of ``X1 + X2`` at y under unknown dependence.

    The maximum of ``max(0, F1(x) + F2(y - x) - 1)`` along ``x1 + x2 = y``;
    values of y outside the sum support clamp to 0 or 1.
    """
    return _arith_bound("add", "lower", x1, x2, y)


def prob_arith_add_upper(x1: RealLinePBox, x2: RealLinePBox, y: float) -> float:
    """Upper CDF of ``X1 + X2`` at y: the infimum of ``min(1, F1(x) + F2(y - x))``."""
    return _arith_bound("add", "upper", x1, x2, y)


def prob_arith_transform(op: str, x1: RealLinePBox, x2: RealLinePBox, y: float) -> tuple:
    """CDF bounds at y for ``X1 + X2``, ``X1 - X2``, ``X1 * X2`` or ``X1 / X2``.

    ``op`` is ``add``, ``subtract``, ``multiply`` or ``divide``; products
    and quotients need strictly positive supports.  Returns the
    ``(lower, upper)`` pair, exact up to rounding.
    """
    return (_arith_bound(op, "lower", x1, x2, y), _arith_bound(op, "upper", x1, x2, y))
