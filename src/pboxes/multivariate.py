"""Joint p-boxes from marginal models, and arithmetic on real-line p-boxes.

A joint model on a product space is induced by aggregating per-dimension
coordinates with a pointwise maximum, under which every joint sublevel set
is a product of marginal sublevel sets.  The marginals are p-boxes, and the
dependence model is a name: Fréchet bounds for unknown dependence, or
products for epistemic independence.  Either one yields the tightest p-box
dominated by the combined model by combining the marginal CDFs pointwise.

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
from typing import Sequence

import numpy as np

from .choquet import _in_chunks
from .errors import ValidationError, _checked
from .pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    PiecewisePolynomialCdf,
    StepCdf,
    _check_order,
    lower_prob_field,
)
from .preorder import _class_index, _coordinate, _finite_number, _finite_numbers

__all__ = [
    "FRECHET",
    "INDEPENDENT",
    "RealLinePBox",
    "combine",
    "sublevel_box_lower",
    "arith_bound",
]


FRECHET = "frechet"
INDEPENDENT = "independence"



def _frechet_floor(total: np.ndarray, n: int) -> np.ndarray:
    """``max(0, 1 - n + total)`` for the sum ``total`` of n values, in place."""
    np.add(total, 1.0 - n, out=total)
    return np.maximum(0.0, total, out=total)


# rule -> (lower, upper) combiner, each a fold over the marginals' values: the
# ufunc that takes in one marginal, and what finishes the fold of n (if anything)
_COMBINERS = {
    FRECHET: ((np.add, _frechet_floor), (np.minimum, None)),
    INDEPENDENT: ((np.multiply, None), (np.multiply, None)),
}


def _fold(combiner, values) -> np.ndarray:
    """``combiner`` folded over ``values``, an iterable of arrays (or numbers)
    of one shape, in their order: a running sum, minimum or product, so
    that the fold holds two arrays at a time whatever their number."""
    step, finish = combiner
    values = iter(values)
    out = np.array(next(values), dtype=float)
    n = 1
    for v in values:
        step(out, v, out=out)
        n += 1
    if finish is not None:
        out = finish(out, n)
    return out if out.ndim else out[()]


def _joint_cdf(cdfs: list, combiner):
    """``combiner`` of the marginal CDFs, class by class or point by point,
    each marginal read as the fold reaches it."""
    if isinstance(cdfs[0], StepCdf):
        return StepCdf(tuple(_fold(combiner, (cdf.values for cdf in cdfs)).tolist()))
    return AnalyticCdf(lambda z: _fold(combiner, (cdf(z) for cdf in cdfs)))


def combine(marginals: Sequence[PBox], rule: str) -> PBox:
    """Joint p-box of the max-aggregated coordinate under a dependence model.

    ``rule`` is :data:`FRECHET` (unknown dependence) or :data:`INDEPENDENT`
    (epistemic independence).  The joint lower CDF combines the marginal
    lower CDFs evaluated at the same coordinate, and likewise for the upper;
    this is the tightest p-box whose inferences are dominated by the
    combined marginal model.

    Finite marginals, whose spaces have a common number n of classes (their
    labels may differ), give a joint on the class indices 0..n-1: joint
    class k holds the points whose largest marginal class index is k, and
    the rule applies class by class.  So the bottom joint class is the
    product of the marginals' bottom classes.
    """
    if rule not in _COMBINERS:
        raise ValidationError(f"unknown combination rule {rule!r}")
    if len(marginals) < 2:
        raise ValidationError("combine needs at least two marginals")
    if len({m.space.size if m.is_finite else None for m in marginals}) != 1:
        raise ValidationError("finite marginals need step CDFs with the same number of classes")
    ell, u = _COMBINERS[rule]
    return PBox(_joint_cdf([m.lower for m in marginals], ell),
                _joint_cdf([m.upper for m in marginals], u), validation_grid=2048)


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

    The CDFs are piecewise-linear functions of the real coordinate, 0 below
    and 1 above their knots.  The support is the hull of both CDFs' knot
    domains, so every change of either CDF lies inside it; a single knot
    gives a point support (a degenerate variable).  Curvature is refused,
    and the CDFs are ordered by :class:`pboxes.pbox.PBox`'s exact order
    check (:func:`pboxes.pbox._check_order`), with a slack of ``1e-12``.
    """

    lower: PiecewisePolynomialCdf
    upper: PiecewisePolynomialCdf

    def __post_init__(self):
        if self.lower.curvature or self.upper.curvature:
            raise ValidationError("real-line p-boxes take piecewise-linear CDFs")
        _check_order(self.lower, self.upper, 1e-12)

    @property
    def support(self) -> tuple:
        return (min(self.lower.domain[0], self.upper.domain[0]),
                max(self.lower.domain[1], self.upper.domain[1]))

    @classmethod
    def from_knots(cls, lower_knots, upper_knots=None) -> "RealLinePBox":
        """The p-box of two knot lists (precise without ``upper_knots``), errors named by side."""
        lower = _checked("lower", PiecewiseLinearCdf, tuple(lower_knots))
        upper = lower if upper_knots is None else _checked(
            "upper", PiecewiseLinearCdf, tuple(upper_knots))
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


def _operation(op: str) -> tuple:
    """The partner maps of ``op``; an unknown operation is a validation error."""
    if op not in _PARTNERS:
        raise ValidationError(f"unknown arithmetic operation {op!r}")
    return _PARTNERS[op]


def _positive_support(op: str, x: RealLinePBox) -> None:
    """Refuse an operand whose support reaches 0 or below in a product or quotient."""
    if op in ("multiply", "divide") and x.support[0] <= 0.0:
        raise ValidationError("multiplication and division need strictly positive supports")


# corners per chunk of an array of y: each temporary array of a pass then takes
# at most 512 kB, whatever the length of the array
_ARITH_CELLS = 1 << 16


# a corner or stationary point beyond the float range overflows to ±inf, which
# the segment or its cell drops, or at which a CDF takes its limit, 0 or 1
@np.errstate(over="ignore")
def arith_bound(op: str, side: str, x1: RealLinePBox, x2: RealLinePBox, y):
    """One side of the CDF of ``X1 op X2`` under unknown dependence, at y: a
    float at a number, an array at each point of an array.

    ``op`` is ``add``, ``subtract``, ``multiply`` or ``divide``, and ``side``
    is ``lower`` or ``upper``; products and quotients need strictly positive
    supports, and every y must be finite.  The bound is exact up to rounding.

    With ``p`` the partner map and ``T(x)`` the second variable's term
    (``F2(p(x))``, or ``1 - G2(p(x)-)`` when the order reverses), the lower
    bound is ``sup max(0, F1 + T - 1)`` and the upper ``inf min(1, F1 + T)``
    along the line.  Between consecutive corners (the ends of the feasible
    segment, X1's knots and the preimages of X2's knots, each paired with
    its exact partner) both CDFs are linear in their own argument, so the
    objective is linear in x, or ``a + s1 x + s2 y / x`` for a product.
    The extrema therefore sit at corners, in one-sided limits there, or at
    the product's stationary point ``sqrt(s2 y / s1)``.  Each point takes a
    row of every corner, and the corners outside its segment are masked; an
    array of y goes in chunks of about ``_ARITH_CELLS`` corners.
    """
    partner, preimage, reverses = _operation(op)
    if side not in ("lower", "upper"):
        raise ValidationError(f"expected side 'lower' or 'upper', got {side!r}")
    scalar = np.ndim(y) == 0
    ys = np.array([_finite_number(y)]) if scalar else _finite_numbers(y)
    _positive_support(op, x1)
    _positive_support(op, x2)
    other = "upper" if side == "lower" else "lower"
    f1, f2 = getattr(x1, side), getattr(x2, other if reverses else side)
    # a row holds the ends of both supports and the knots of f1 and f2
    rows = max(1, _ARITH_CELLS // (4 + len(f1.knots) + len(f2.knots)))
    if ys.size > rows:
        bound = partial(arith_bound, op, side, x1, x2)
        return _in_chunks(bound, ys.ravel(), rows).reshape(ys.shape)
    (a1, b1), (a2, b2) = x1.support, x2.support
    ends = preimage(a2, ys), preimage(b2, ys)
    end_lo, end_hi = np.minimum(*ends), np.maximum(*ends)
    lo, hi = np.maximum(a1, end_lo), np.minimum(b1, end_hi)
    # where the segment is empty, y lies below or above the whole support of X1 op X2
    out = np.where(end_hi < a1, 0.0, 1.0)
    inside = hi >= lo
    y, lo, hi = ys[inside, None], lo[inside, None], hi[inside, None]
    xs1 = np.array((a1, b1) + f1.knot_xs)
    ks = np.array((a2, b2) + f2.knot_xs)
    xs = np.empty((len(y), len(xs1) + len(ks)))
    ps = np.empty_like(xs)
    xs[:, :len(xs1)], xs[:, len(xs1):] = xs1, preimage(ks, y)
    ps[:, :len(xs1)], ps[:, len(xs1):] = partner(xs1, y), ks
    keep = (xs >= lo) & (xs <= hi)
    # T at x and, for the upper bound, its limit from the right of x, both non-increasing in x
    term = 1.0 - f2.left_limit(ps) if reverses else f2(ps)
    if side == "lower":
        value = np.max(np.where(keep, f1(xs) + term - 1.0, -np.inf), axis=1)
    else:
        term_right = 1.0 - f2(ps) if reverses else f2.left_limit(ps)
        value = np.min(np.where(keep, np.minimum(f1.left_limit(xs) + term, f1(xs) + term_right),
                                np.inf), axis=1)
        if op == "multiply":
            least = _stationary_minima(f1, f2, xs, ps, keep, y[:, 0])
            value = np.where(least < value, least, value)
    # clamped to [0, 1] as min(max(value, 0), 1) clamps, signed zeros included
    value = np.where(value < 0.0, 0.0, value)
    out[inside] = np.where(value > 1.0, 1.0, value)
    return float(out[0]) if scalar else out


def _stationary_minima(f1, f2, xs, ps, keep, y) -> np.ndarray:
    """Per row, the least ``F1(x) + F2(y / x)`` at a stationary point strictly
    inside a corner cell, or 1 where there is none.

    A cell joins consecutive kept corners in order of x.  Corners of one x can
    hold different partners, one a rounded image of the other, and then their
    order decides the cells.  A stable sort keeps tied corners in column
    order, so a row's cells never depend on the rows beside it.
    """
    # dropped corners go last, and a cell that reaches one has no p_hi > p_lo
    xs, ps = np.where(keep, xs, np.inf), np.where(keep, ps, np.inf)
    order = np.argsort(xs, axis=1, kind="stable")
    sorted_x = np.take_along_axis(xs, order, axis=1)
    sorted_p = np.take_along_axis(ps, order, axis=1)
    left, right = sorted_x[:, :-1], sorted_x[:, 1:]
    p_hi, p_lo = sorted_p[:, :-1], sorted_p[:, 1:]
    cell = (right > left) & (p_hi > p_lo)
    row = np.nonzero(cell)[0]
    left, right, p_hi, p_lo = left[cell], right[cell], p_hi[cell], p_lo[cell]
    s1 = (f1.left_limit(right) - f1(left)) / (right - left)
    s2 = (f2.left_limit(p_hi) - f2(p_lo)) / (p_hi - p_lo)
    curved = (s1 > 0.0) & (s2 > 0.0)
    row, left, right, y_cell = row[curved], left[curved], right[curved], y[row[curved]]
    mid = np.sqrt(s2[curved] * y_cell / s1[curved])
    inner = (mid > left) & (mid < right)
    mid, y_cell = mid[inner], y_cell[inner]
    least = np.ones(len(xs))
    np.minimum.at(least, row[inner], f1(mid) + f2(y_cell / mid))
    return least
