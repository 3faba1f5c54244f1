"""Built-in scenario fixtures and the query executor behind the CLI.

Every query carries the model it asks about, and :func:`run_query` sends it
to the engine through one table from query kind to runner.  Each builtin is
a fixed query list, so the two engineering case studies (a damped
oscillator's damping ratio, a river dike's overflow height) and the finite
worked examples can be reproduced by name.  A case study's oscillations
are its gamble's values at the corners of the boxes that make up the
classes of its joint coordinate.  The joint examples build finite product
models with :func:`combine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .choquet import (
    DEFAULT_CONFIG,
    KnotOscillation,
    Oscillation,
    QuadratureConfig,
    QuadratureResult,
    _require_bounded,
    _require_target,
    lower_expectation,
    threshold_solve,
    upper_expectation,
)
from .errors import ValidationError, _checked
from .multivariate import (
    FRECHET,
    INDEPENDENT,
    RealLinePBox,
    _operation,
    _positive_support,
    arith_bound,
    combine,
)
from .pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    PiecewisePolynomialCdf,
    StepCdf,
    lower_prob_event,
    upper_prob_event,
)
from .preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    ZEventSet,
    ZInterval,
    _finite_number,
    _finite_numbers,
    full_components_finite,
    normalize,
)

__all__ = [
    "Query",
    "Scenario",
    "QueryResult",
    "BUILTIN_NAMES",
    "builtin_scenario",
    "run_query",
    "result_rows",
    "named_cdf",
    "named_oscillation",
    "named_tail",
    "diagonal_rectangle_interior",
]


@dataclass(frozen=True)
class Query:
    """One inference request, bound to its model: ``pbox`` for events,
    expectations and thresholds, ``x1`` and ``x2`` for arithmetic, whose
    ``y`` is a number or a tuple of numbers (a grid).  Building
    it checks the kind, ``side`` and ``op`` (``add`` in an ``arith_add``
    query), that the kind's payload is
    there (``event``; ``oscillation`` and, for a threshold, ``target``;
    ``x1``, ``x2`` and ``y``), that the p-box's space suits the query (a
    continuum for expectations, thresholds and z-events, a finite space for
    class subsets), the class indices of a finite event against its p-box,
    and the payload values the engine would refuse, through the engine's
    own checks; an error starts with the field.  ``tail``, a callable, is
    the tail certificate of an ``expectation_upper`` query (see
    :func:`pboxes.choquet.upper_expectation`); it is proven for the query's
    p-box and oscillation together, so it belongs to the query."""

    id: str
    kind: str
    pbox: PBox | None = None
    event: object = None
    oscillation: Oscillation | KnotOscillation | None = None
    target: float | None = None
    x1: RealLinePBox | None = None
    x2: RealLinePBox | None = None
    op: str = "add"
    y: float | tuple | None = None
    side: str = "lower"
    tail: Callable | None = None

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ValidationError(f"unknown query kind {self.kind!r}", "kind")
        if self.tail is not None and (self.kind != "expectation_upper"
                                      or not callable(self.tail)):
            raise ValidationError("a tail certificate is a callable, and only an "
                                  "expectation_upper query takes one", "tail")
        _checked("op", _operation, self.op)
        if self.kind == "arith_add" and self.op != "add":
            raise ValidationError(f"expected 'add' in an arith_add query, got {self.op!r}", "op")
        if self.side not in ("lower", "upper"):
            raise ValidationError(f"expected 'lower' or 'upper', got {self.side!r}", "side")
        if self.kind in ARITH_KINDS:
            for name in ("x1", "x2"):
                _checked(name, _positive_support, self.op, self._payload(name))
            y = self._payload("y")
            _checked("y", _finite_numbers if isinstance(y, tuple) else _finite_number, y)
            return
        if self.pbox is None:
            raise ValidationError(f"a {self.kind} query needs a p-box", "pbox")
        finite = self.pbox.is_finite
        if self.kind in INTEGRAL_KINDS:
            if finite:
                raise ValidationError(f"{self.kind} queries need a continuum p-box; "
                                      "use lower_expectation_finite on finite spaces", "pbox")
            oscillation = self._payload("oscillation")
            if self.kind == "expectation_lower":
                _checked("oscillation", _require_bounded, oscillation)
            if self.kind == "threshold":
                _checked("target", _require_target, self._payload("target"))
            return
        event = self._payload("event")
        if isinstance(event, ZEventSet) and finite:
            raise ValidationError("z-events require a continuum p-box", "event")
        if isinstance(event, ClassSubset):
            if not finite:
                raise ValidationError("class subsets require a finite-space p-box", "event")
            _checked("event", full_components_finite, self.pbox.space, event)

    def _payload(self, name: str):
        """The field ``name``, which this kind of query needs."""
        value = getattr(self, name)
        if value is None:
            raise ValidationError(f"missing from a {self.kind} query", name)
        return value


@dataclass(frozen=True)
class Scenario:
    """Queries run together, and the model ``table`` tabulates (if any)."""

    name: str
    pbox: PBox | None
    queries: tuple


@dataclass(frozen=True)
class QueryResult:
    """A query's value and error bound; ``converged`` is false when a
    quadrature stopped before its bound met ``abs_tol``."""

    id: str
    kind: str
    value: float
    error_bound: float
    converged: bool = True


ARITH_KINDS = ("arith_add", "arith_op")
INTEGRAL_KINDS = ("expectation_lower", "expectation_upper", "threshold")


def _bracket(res: QuadratureResult) -> tuple:
    return res.value, res.error_bound, res.converged


# kind -> runner(query, cfg) -> (value, error bound[, converged]).  The runners call the
# engine through this module's names at call time, so rebinding one of them
# (as a tracer does) reaches every query.
_RUNNERS = {
    "event_lower": lambda q, cfg: (lower_prob_event(q.pbox, q.event), 0.0),
    "event_upper": lambda q, cfg: (upper_prob_event(q.pbox, q.event), 0.0),
    "expectation_lower": lambda q, cfg: _bracket(lower_expectation(q.pbox, q.oscillation, cfg)),
    "expectation_upper": lambda q, cfg: _bracket(upper_expectation(q.pbox, q.oscillation, cfg,
                                                                   q.tail)),
    "threshold": lambda q, cfg: (threshold_solve(q.pbox, q.oscillation, q.target, cfg),
                                 cfg.bisect_tol),
    "arith_add": lambda q, cfg: (arith_bound(q.op, q.side, q.x1, q.x2, q.y), 0.0),
    "arith_op": lambda q, cfg: (arith_bound(q.op, q.side, q.x1, q.x2, q.y), 0.0),
}


def run_query(query: Query, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QueryResult:
    """Evaluate a single query; the error bound is 0 for exact computations.
    The value of a query on a grid of ``y`` is an array, one value per point."""
    return QueryResult(query.id, query.kind, *_RUNNERS[query.kind](query, cfg))


def result_rows(query: Query, result: QueryResult) -> list:
    """The ``(id, value)`` rows of a query's result: one, or one per point of a
    grid of ``y``, with ids suffixed ``_0``, ``_1``, ..."""
    if not isinstance(query.y, tuple):
        return [(result.id, result.value)]
    return [(f"{result.id}_{k}", value) for k, value in enumerate(result.value.tolist())]


# ---------------------------------------------------------------------------
# shared analytic ingredients: the builtins' marginal CDFs, and the CDFs a
# scenario file can name.  The builtins keep these callables: their pinned
# rows hold the bits they give, and a warm pass of both case studies reads
# them at about 520,000 points, where np.interp would cost more


def _uniform(z):
    return np.asarray(z, dtype=float) + 0.0


def _constant_one(z):
    return np.asarray(z, dtype=float) * 0.0 + 1.0


def _humped(z):
    # distribution of a symmetric triangular deviation: 1 - (1 - z)^2
    z = np.asarray(z, dtype=float)
    return 1.0 - (1.0 - z) ** 2


# each a polynomial of degree at most 2 on [0, 1], bent from the line z:
# square is z + z (z - 1) = z^2, triangular_sym z - z (z - 1) = 1 - (1 - z)^2
_UNIT_KNOTS = ((0.0, 0.0), (1.0, 1.0))
_NAMED_CDFS = {
    "uniform": lambda: PiecewisePolynomialCdf(_UNIT_KNOTS),
    "one": lambda: PiecewisePolynomialCdf(((0.0, 1.0), (1.0, 1.0))),
    "square": lambda: PiecewisePolynomialCdf(_UNIT_KNOTS, (1.0,)),
    "triangular_sym": lambda: PiecewisePolynomialCdf(_UNIT_KNOTS, (-1.0,)),
}


def _build(registry: dict, name: str, what: str):
    """``registry[name]()``; an unknown name is a validation error."""
    if name not in registry:
        raise ValidationError(
            f"unknown {what} {name!r}; choose from {', '.join(sorted(registry))}")
    return registry[name]()


def named_cdf(name: str) -> PiecewisePolynomialCdf:
    """The CDF a scenario file names ``analytic``, exactly polynomial."""
    return _build(_NAMED_CDFS, name, "analytic CDF")


# ---------------------------------------------------------------------------
# case studies: a gamble of several variables on the joint coordinate
# Z = max_i |x_i - c_i| / h_i, whose class at z is the boundary of the box of
# radius z about the centres


def _corner_oscillations(gamble, centres, half_widths, signs) -> tuple:
    """Lower and upper oscillation of ``gamble``, black boxes of z alone.

    ``gamble`` takes one argument per variable and is monotone in each,
    increasing where ``signs`` has +1 and decreasing where it has -1, so
    over the class at z its least and greatest values are at the corners
    ``c_i - s_i h_i z`` and ``c_i + s_i h_i z``.  So the lower oscillation
    decreases and the upper one increases, and each side's bounds, read by
    :class:`Oscillation` at z = 0 and 1, are its values at the centres and
    at the corner of radius 1.
    """

    def corner(direction: float):
        steps = [direction * s * h for s, h in zip(signs, half_widths)]

        def f(z):
            z = np.asarray(z, dtype=float)
            return gamble(*(c + step * z for c, step in zip(centres, steps)))

        return f

    return Oscillation(corner(-1.0)), Oscillation(corner(1.0))


def _damping_ratio(c, k):
    """Damping ratio of a unit-mass oscillator with damping c and stiffness k."""
    return c / (2.0 * np.sqrt(k))


# the dike's Gumbel flow law and river geometry
DIKE_GUMBEL_LOCATION = 1335.0
DIKE_GUMBEL_SCALE = 716.0
DIKE_RIVER_WIDTH = 300.0
DIKE_RIVER_LENGTH = 6400.0


def _overflow(r, k, u, d):
    """Overflow height at flow quantile r, Strickler coefficient k and the
    upstream and downstream levels u > d; +inf at r = 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flow = DIKE_GUMBEL_LOCATION - DIKE_GUMBEL_SCALE * np.log(-np.log(r))
        flow = np.maximum(flow, 0.0)
        return (flow / (k * np.sqrt((u - d) / DIKE_RIVER_LENGTH) * DIKE_RIVER_WIDTH)) ** 0.6


_CASE_STUDY_GAMBLES = {
    # the design (c, k) = (2, 1), coordinate max(|c - 2|, 2|k - 1|)
    "oscillator": (_damping_ratio, (2.0, 1.0), (1.0, 0.5), (1, -1)),
    # coordinate max(2|r - 1/2|, |k - 30|/15, |u - 55|, |d - 50|)
    "dike": (_overflow, (0.5, 30.0, 55.0, 50.0), (0.5, 15.0, 1.0, 1.0), (1, -1, -1, 1)),
}


def _dike_tail(t: float) -> float:
    """An upper bound on the integral, over levels beyond ``t``, of the upper
    probability that the dike's upper oscillation reaches the level, under
    the dike's joint p-box: ``inf`` for ``t <= 0``.

    Proof.  Write ``r = (1 + z) / 2`` and ``Q(r) = 1335 - 716 ln(-ln r)``.
    On the upper corner ``k = 30 - 15 z >= 15`` and ``u - d = 5 - 2 z >= 3``
    on [0, 1], so ``f(z) >= t > 0`` forces ``Q(r) >= D t**(5/3)`` with ``D =
    15 sqrt(3 / 6400) 300``.  Hence ``1 - r <= -ln r <= e(t) = exp(-(D
    t**(5/3) - 1335) / 716)``: the cut ``{f >= t}`` lies in ``[z_t, 1]``
    with ``1 - z_t = 2 e(t)``, and its upper probability is at most ``1 -
    F_lower(z_t-)``.  The joint lower CDF, the Fréchet bound of ``z`` and
    three ``1 - (1 - z)**2``, is ``max(0, 7 z - 3 z**2 - 3)``, so ``1 -
    F_lower(z) <= (1 - z)(4 - 3 z) <= 4 (1 - z)`` where it is positive and
    ``1 <= 4 (1 - z)`` where it is 0; it is continuous, so the cut's upper
    probability is at most ``8 e(t)``.  ``t**(5/3)`` is convex, so ``t**(5/3)
    >= T**(5/3) + (5/3) T**(2/3) (t - T)``, and the integral beyond ``T`` is
    at most ``8 e(T) 716 / (D (5/3) T**(2/3))``.

    The bound is non-increasing in ``T``, so a level beyond ``1e100``, whose
    power would overflow, reads the bound at ``1e100``.  It is evaluated as
    one ``exp`` of its logarithm.  Where that does not underflow, the
    logarithm is at most about 750 in size and off by a few unit roundoffs
    of it, under 1e-12 in all; the factor ``1 + 2**-36`` and one step up to
    the next float cover that, and an underflow to 0 becomes the least
    positive float, which exceeds the exact bound.
    """
    if not t > 0.0:
        return math.inf
    t = min(t, 1e100)
    d = 15.0 * math.sqrt(3.0 / DIKE_RIVER_LENGTH) * DIKE_RIVER_WIDTH
    log_bound = ((DIKE_GUMBEL_LOCATION - d * t ** (5.0 / 3.0)) / DIKE_GUMBEL_SCALE
                 + math.log(8.0 * DIKE_GUMBEL_SCALE / (d * (5.0 / 3.0) * t ** (2.0 / 3.0))))
    return math.nextafter(math.exp(log_bound) * (1.0 + 2.0 ** -36), math.inf)


def _case_study_oscillations(name: str) -> tuple:
    return _corner_oscillations(*_CASE_STUDY_GAMBLES[name])


def _oscillator_scenario() -> Scenario:
    marginals = [PBox(AnalyticCdf(_uniform), AnalyticCdf(_constant_one)) for _ in range(2)]
    joint = combine(marginals, INDEPENDENT)
    lower_osc, upper_osc = _case_study_oscillations("oscillator")
    queries = (
        Query("damping_ratio_lower", "expectation_lower", joint, oscillation=lower_osc),
        Query("damping_ratio_upper", "expectation_upper", joint, oscillation=upper_osc),
    )
    return Scenario("oscillator", joint, queries)


def _dike_scenario() -> Scenario:
    marginals = [PBox(AnalyticCdf(_uniform), AnalyticCdf(_constant_one))]
    marginals += [PBox(AnalyticCdf(_humped), AnalyticCdf(_constant_one)) for _ in range(3)]
    joint = combine(marginals, FRECHET)
    lower_osc, upper_osc = _case_study_oscillations("dike")
    queries = (
        Query("overflow_lower", "expectation_lower", joint, oscillation=lower_osc),
        Query("overflow_upper", "expectation_upper", joint, oscillation=upper_osc,
              tail=_dike_tail),
        Query("design_height_p01", "threshold", joint, oscillation=upper_osc,
              target=0.01),
    )
    return Scenario("dike", joint, queries)


# ---------------------------------------------------------------------------
# worked finite examples


def _interior_subset(partition, members: frozenset) -> ClassSubset:
    """Classes of a partition wholly contained in a set of atoms."""
    return ClassSubset(frozenset(
        idx for idx, cls in enumerate(partition) if set(cls) <= members))


def _ordering_scenario() -> Scenario:
    fine_partition = tuple((i,) for i in range(5))
    coarse_partition = ((0, 1), (2, 3, 4))
    fine_space = FiniteQuotientSpace(tuple("01234"))
    coarse_space = FiniteQuotientSpace(("01", "234"))
    step_fine = StepCdf((0.0, 0.0, 1.0, 1.0, 1.0))
    step_coarse = StepCdf((0.0, 1.0))
    fine = PBox(step_fine, step_fine, fine_space)
    coarse = PBox(step_coarse, step_coarse, coarse_space)
    queries = []
    for mask in range(32):
        members = frozenset(i for i in range(5) if mask & (1 << i))
        tag = "".join(str(i) for i in sorted(members)) or "empty"
        queries.append(Query(f"coarse_{tag}", "event_lower", coarse,
                             event=_interior_subset(coarse_partition, members)))
        queries.append(Query(f"fine_{tag}", "event_lower", fine,
                             event=_interior_subset(fine_partition, members)))
    return Scenario("example_ordering", fine, tuple(queries))


def _field_nonunique_scenario() -> Scenario:
    lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0)))
    upper = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
    box = PBox(lower, upper, UNIT_INTERVAL)
    piece = normalize([ZInterval.left_open(0.5, 0.6)])
    queries = (
        Query("natural_extension", "event_lower", box, event=piece),
        Query("precise_lower_cdf", "event_lower", PBox(lower, lower, UNIT_INTERVAL),
              event=piece),
        Query("precise_upper_cdf", "event_lower", PBox(upper, upper, UNIT_INTERVAL),
              event=piece),
    )
    return Scenario("example_field_nonunique", box, queries)


def _two_class_pbox(lower_first: float, upper_first: float) -> PBox:
    space = FiniteQuotientSpace(("low", "high"))
    return PBox(StepCdf((lower_first, 1.0)), StepCdf((upper_first, 1.0)), space)


def _joint(rule, boxes, firsts) -> PBox:
    """Max-coordinate joint of two-class marginals, each listing its class
    ``first`` first (the top class's probability lies in ``[1 - upper(0),
    1 - lower(0)]``): its bottom class is the product of those classes."""
    return combine([box if first == 0 else
                    PBox(StepCdf((1.0 - box.upper(0), 1.0)), StepCdf((1.0 - box.lower(0), 1.0)))
                    for box, first in zip(boxes, firsts)], rule)


def _frechet62_scenario() -> Scenario:
    m1 = _two_class_pbox(0.4, 0.6)
    m2 = _two_class_pbox(0.2, 0.3)
    # A = {low} x Y and B = X x {high}: A and B meet in the bottom class of
    # one joint, and A u B is the complement of {high} x {low}
    queries = (
        Query("A", "event_lower", m1, event=ClassSubset.of(0)),
        Query("B", "event_lower", m2, event=ClassSubset.of(1)),
        Query("A_union_B", "event_lower", _joint(FRECHET, (m1, m2), (1, 0)),
              event=ClassSubset.of(1)),
        Query("A_intersect_B", "event_lower", _joint(FRECHET, (m1, m2), (0, 1)),
              event=ClassSubset.of(0)),
    )
    return Scenario("example_frechet_62", None, queries)


def _independent63_scenario() -> Scenario:
    m1 = _two_class_pbox(0.4, 0.6)
    m2 = _two_class_pbox(0.3, 0.5)
    # the joint in the classes' own order: its bottom class is
    # {(low, low)}, so {(low, high)} contains no joint class
    joint = _joint(INDEPENDENT, (m1, m2), (0, 0))
    queries = (
        # the complement of {high} x {high}
        Query("A_union_B", "event_lower", _joint(INDEPENDENT, (m1, m2), (1, 1)),
              event=ClassSubset.of(1)),
        # {low} x {high}
        Query("A_intersect_B", "event_lower", _joint(INDEPENDENT, (m1, m2), (0, 1)),
              event=ClassSubset.of(0)),
        Query("A_intersect_B_joint_pbox", "event_lower", joint, event=ClassSubset()),
    )
    return Scenario("example_independent_63", joint, queries)


def diagonal_rectangle_interior(a: float, b: float, c: float, d: float) -> ZEventSet:
    """Interior image of the rectangle [a, b] x [c, d] under the diagonal order.

    The coordinate is z = (x + y) / 2, so equivalence classes are the
    anti-diagonal segments; a rectangle contains such a segment only when it
    is anchored at the lower-left or upper-right corner of the unit square.
    """
    if not (0.0 <= a <= b <= 1.0 and 0.0 <= c <= d <= 1.0):
        raise ValidationError("rectangle corners must satisfy 0 <= a <= b <= 1")
    if a == 0.0 and c == 0.0:
        if b == 1.0 and d == 1.0:
            return FULL_EVENT
        return normalize([ZInterval.closed(0.0, min(b, d) / 2.0)])
    if b == 1.0 and d == 1.0:
        return normalize([ZInterval.closed((1.0 + max(a, c)) / 2.0, 1.0)])
    return EMPTY_EVENT


def _diagonal_scenario() -> Scenario:
    box = PBox(AnalyticCdf(_uniform), AnalyticCdf(_uniform), UNIT_INTERVAL)
    queries = (
        Query("corner_rectangle", "event_lower", box,
              event=diagonal_rectangle_interior(0.0, 0.5, 0.0, 0.7)),
        Query("inner_rectangle", "event_lower", box,
              event=diagonal_rectangle_interior(0.2, 0.6, 0.1, 0.9)),
        Query("upper_rectangle", "event_lower", box,
              event=diagonal_rectangle_interior(0.3, 1.0, 0.5, 1.0)),
        Query("whole_square", "event_lower", box,
              event=diagonal_rectangle_interior(0.0, 1.0, 0.0, 1.0)),
    )
    return Scenario("example_diagonal_46", box, queries)


_BUILTIN_BUILDERS = {
    "oscillator": _oscillator_scenario,
    "dike": _dike_scenario,
    "example_ordering": _ordering_scenario,
    "example_field_nonunique": _field_nonunique_scenario,
    "example_frechet_62": _frechet62_scenario,
    "example_independent_63": _independent63_scenario,
    "example_diagonal_46": _diagonal_scenario,
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_BUILDERS))


@cache
def builtin_scenario(name: str) -> Scenario:
    """The builtin scenario ``name``, built once per process and then shared:
    a scenario and everything it holds is immutable."""
    return _build(_BUILTIN_BUILDERS, name, "builtin scenario")


_NAMED_OSCILLATIONS = {
    "oscillator_lower": lambda: _case_study_oscillations("oscillator")[0],
    "oscillator_upper": lambda: _case_study_oscillations("oscillator")[1],
    "dike_lower": lambda: _case_study_oscillations("dike")[0],
    "dike_upper": lambda: _case_study_oscillations("dike")[1],
}


def named_oscillation(name: str) -> Oscillation:
    return _build(_NAMED_OSCILLATIONS, name, "oscillation")


def named_tail(name: str, pbox: PBox) -> Callable | None:
    """The tail certificate of the named oscillation's upper expectation on
    ``pbox``: the dike's for ``dike_upper`` on the dike's own p-box, the one
    it is proven for, else None (no certificate)."""
    if name == "dike_upper" and pbox is builtin_scenario("dike").pbox:
        return _dike_tail
    return None
