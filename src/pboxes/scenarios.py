"""Built-in scenario fixtures and the query executor behind the CLI.

Every query carries the model it asks about, and :func:`run_query` sends it
to the engine through one table from query kind to runner.  Each builtin is
a fixed query list built from p-boxes and the closed-form oscillations and
inverses of its target quantity, so the two engineering case studies (a
damped oscillator's damping ratio, a river dike's overflow height) and the
finite worked examples can be reproduced by name.  The joint examples build
finite product models with :func:`combine`.  Fixture constants are asserted
against their defining closed forms when assertions are enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choquet import (
    DECREASING,
    GENERAL,
    INCREASING,
    DEFAULT_CONFIG,
    Oscillation,
    QuadratureConfig,
    QuadratureResult,
    _bisect,
    lower_expectation,
    threshold_solve,
    upper_expectation,
)
from .errors import ValidationError
from .multivariate import (
    _PARTNERS,
    FRECHET,
    INDEPENDENT,
    MarginalSpec,
    RealLinePBox,
    combine,
    prob_arith_transform,
)
from .pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
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
    "run_scenario",
    "named_cdf",
    "named_oscillation",
    "oscillator_lower_oscillation",
    "oscillator_upper_oscillation",
    "dike_lower_oscillation",
    "dike_upper_oscillation",
    "dike_overflow_curve",
    "diagonal_rectangle_interior",
]


@dataclass(frozen=True)
class Query:
    """One inference request, bound to its model: ``pbox`` for events,
    expectations and thresholds, ``x1`` and ``x2`` for arithmetic.  Building
    it checks the kind, ``side`` and ``op``, and the class indices of a
    finite event against its p-box; an error starts with the field."""

    id: str
    kind: str
    pbox: PBox | None = None
    event: object = None
    oscillation: Oscillation | None = None
    target: float | None = None
    x1: RealLinePBox | None = None
    x2: RealLinePBox | None = None
    op: str = "add"
    y: float | None = None
    side: str = "lower"

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ValidationError(f"kind: unknown query kind {self.kind!r}")
        if self.op not in _PARTNERS:
            raise ValidationError(f"op: unknown arithmetic operation {self.op!r}")
        if self.side not in ("lower", "upper"):
            raise ValidationError(f"side: expected 'lower' or 'upper', got {self.side!r}")
        if self.pbox is None and self.kind not in ARITH_KINDS:
            raise ValidationError(f"pbox: a {self.kind} query needs a p-box")
        if isinstance(self.event, ClassSubset) and self.pbox is not None and self.pbox.is_finite:
            try:
                full_components_finite(self.pbox.space, self.event)
            except ValidationError as exc:
                raise ValidationError(f"event: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """Queries run together, and the model ``table`` tabulates (if any)."""

    name: str
    pbox: PBox | None
    queries: tuple


@dataclass(frozen=True)
class QueryResult:
    id: str
    kind: str
    value: float
    error_bound: float


ARITH_KINDS = ("arith_add", "arith_op")


def _bracket(res: QuadratureResult) -> tuple:
    return res.value, res.error_bound


def _arith(q: Query, cfg: QuadratureConfig) -> tuple:
    lower, upper = prob_arith_transform(q.op, q.x1, q.x2, q.y)
    return (lower if q.side == "lower" else upper), 0.0


# kind -> runner(query, cfg) -> (value, error bound).  The runners call the
# engine through this module's names at call time, so rebinding one of them
# (as a tracer does) reaches every query.
_RUNNERS = {
    "event_lower": lambda q, cfg: (lower_prob_event(q.pbox, q.event), 0.0),
    "event_upper": lambda q, cfg: (upper_prob_event(q.pbox, q.event), 0.0),
    "expectation_lower": lambda q, cfg: _bracket(lower_expectation(q.pbox, q.oscillation, cfg)),
    "expectation_upper": lambda q, cfg: _bracket(upper_expectation(q.pbox, q.oscillation, cfg)),
    "threshold": lambda q, cfg: (threshold_solve(q.pbox, q.oscillation, q.target, cfg),
                                 cfg.bisect_tol),
    "arith_add": _arith,
    "arith_op": _arith,
}


def run_query(query: Query, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QueryResult:
    """Evaluate a single query; the error bound is 0 for exact computations."""
    value, error_bound = _RUNNERS[query.kind](query, cfg)
    return QueryResult(query.id, query.kind, value, error_bound)


def run_scenario(scenario: Scenario,
                 cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    return [run_query(q, cfg) for q in scenario.queries]


# ---------------------------------------------------------------------------
# shared analytic ingredients


def _uniform(z):
    return np.asarray(z, dtype=float) + 0.0


def _constant_one(z):
    return np.asarray(z, dtype=float) * 0.0 + 1.0


def _square(z):
    z = np.asarray(z, dtype=float)
    return z * z


def _humped(z):
    # distribution of a symmetric triangular deviation: 1 - (1 - z)^2
    z = np.asarray(z, dtype=float)
    return 1.0 - (1.0 - z) ** 2


_NAMED_CDFS = {
    "uniform": lambda: AnalyticCdf(_uniform),
    "one": lambda: AnalyticCdf(_constant_one),
    "square": lambda: AnalyticCdf(_square),
    "triangular_sym": lambda: AnalyticCdf(_humped),
}


def _build(registry: dict, name: str, what: str):
    """``registry[name]()``; an unknown name is a validation error."""
    if name not in registry:
        raise ValidationError(
            f"unknown {what} {name!r}; choose from {', '.join(sorted(registry))}")
    return registry[name]()


def named_cdf(name: str) -> AnalyticCdf:
    return _build(_NAMED_CDFS, name, "analytic CDF")


# ---------------------------------------------------------------------------
# damped oscillator: damping ratio of a unit-mass design at (c, k) = (2, 1),
# coordinate Z(c, k) = max(|c - 2|, 2|k - 1|) on the region Z <= 1

_SQRT6 = math.sqrt(6.0)
_RATIO_INF = 1.0 / _SQRT6
_RATIO_SUP = 3.0 / math.sqrt(2.0)


def _ratio_boundary(t):
    """Solves (2 - z) / (2 sqrt(1 + z/2)) = t for z.

    The mirrored upper branch (2 + z) / (2 sqrt(1 - z/2)) = t is solved by
    the negative of the same expression.
    """
    t = np.asarray(t, dtype=float)
    return 2.0 + t * t - t * np.sqrt(t * t + 8.0)


def oscillator_lower_oscillation() -> Oscillation:
    def f(z):
        z = np.asarray(z, dtype=float)
        return (2.0 - z) / (2.0 * np.sqrt(1.0 + z / 2.0))

    return Oscillation(f, inf_value=_RATIO_INF, sup_value=1.0,
                       monotonicity=DECREASING, inverse=_ratio_boundary)


def oscillator_upper_oscillation() -> Oscillation:
    def f(z):
        z = np.asarray(z, dtype=float)
        return (2.0 + z) / (2.0 * np.sqrt(1.0 - z / 2.0))

    def inverse(t):
        return -_ratio_boundary(t)

    return Oscillation(f, inf_value=1.0, sup_value=_RATIO_SUP,
                       monotonicity=INCREASING, inverse=inverse)


def _oscillator_scenario() -> Scenario:
    if __debug__:
        assert abs(_ratio_boundary(_RATIO_INF) - 1.0) < 1e-12
        assert abs(_ratio_boundary(1.0)) < 1e-12
        assert abs(float(oscillator_upper_oscillation().f(1.0)) - _RATIO_SUP) < 1e-12
    marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one")) for _ in range(2)]
    joint = combine(marginals, INDEPENDENT)
    queries = (
        Query("damping_ratio_lower", "expectation_lower", joint,
              oscillation=oscillator_lower_oscillation()),
        Query("damping_ratio_upper", "expectation_upper", joint,
              oscillation=oscillator_upper_oscillation()),
    )
    return Scenario("oscillator", joint, queries)


# ---------------------------------------------------------------------------
# river dike: overflow height under unknown dependence between flow rate,
# Strickler coefficient, and the two water levels, with deviation coordinates
# 2|r - 1/2|, |k - 30|/15, |u - 55| and |d - 50|

DIKE_GUMBEL_LOCATION = 1335.0
DIKE_GUMBEL_SCALE = 716.0
DIKE_RIVER_WIDTH = 300.0
DIKE_RIVER_LENGTH = 6400.0
# the registered inverse resolves cut endpoints to this grid of [-1, 1]
_DIKE_GRID_STEP = 2.0 ** -47
# a cap: every step is below 1e-12 after about 9 on levels in (1e-9, 40]
_DIKE_NEWTON_STEPS = 16
# levels per Newton pass, to bound the memory of its temporaries
_DIKE_INVERSE_CHUNK = 4096


def dike_overflow_curve(z):
    """Extreme overflow height over the contour at deviation coordinate z.

    Increasing from 0 at z = -1 to infinity at z = 1; the value at z is
    the worst case over the contour, the value at -z the best case.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = -np.log((1.0 + z) / 2.0)
        flow = DIKE_GUMBEL_LOCATION - DIKE_GUMBEL_SCALE * np.log(inner)
        flow = np.maximum(flow, 0.0)
        denom = ((30.0 - 15.0 * z)
                 * np.sqrt((5.0 - 2.0 * z) / DIKE_RIVER_LENGTH) * DIKE_RIVER_WIDTH)
        out = (flow / denom) ** 0.6
    return float(out) if out.ndim == 0 else out


def _dike_newton(t: np.ndarray) -> np.ndarray:
    """Approximate solutions z of ``dike_overflow_curve(z) = t``; NaN where none is found.

    Newton steps in ``w = log(-log((1 + z) / 2))``, in which the Gumbel flow
    ``mu - beta * w`` is linear, on the logarithm of the curve's 5/3 power,
    starting from the flow-only inverse with the denominator taken at z = 0.
    """
    with np.errstate(all="ignore"):
        rhs = (5.0 / 3.0) * np.log(t) + math.log(DIKE_RIVER_WIDTH)
        w = (DIKE_GUMBEL_LOCATION - np.exp(rhs) * 30.0 * math.sqrt(5.0 / DIKE_RIVER_LENGTH)
             ) / DIKE_GUMBEL_SCALE
        for _ in range(_DIKE_NEWTON_STEPS):
            e = np.exp(w)
            z_plus_one = 2.0 * np.exp(-e)
            z = z_plus_one - 1.0
            flow = DIKE_GUMBEL_LOCATION - DIKE_GUMBEL_SCALE * w
            g = (np.log(flow) - np.log(30.0 - 15.0 * z)
                 - 0.5 * np.log((5.0 - 2.0 * z) / DIKE_RIVER_LENGTH) - rhs)
            slope = (-DIKE_GUMBEL_SCALE / flow
                     - z_plus_one * e * (15.0 / (30.0 - 15.0 * z) + 1.0 / (5.0 - 2.0 * z)))
            step = g / slope
            w = w - step
            if not (np.abs(step) > 1e-12).any():
                break
        return 2.0 * np.exp(-np.exp(w)) - 1.0


def _dike_curve_inverse(t):
    """Smallest point of the grid ``-1 + k * 2**-47`` on [-1, 1] where
    ``dike_overflow_curve`` is at least ``t``.

    Newton's method (:func:`_dike_newton`) gives a bracket of 8 grid steps
    around the crossing, kept only where the curve is checked to cross inside
    it; the bracket is then bisected to one grid step, in about 3 halvings.
    A level whose bracket fails the check is bisected from all of [-1, 1],
    in 48 halvings.  Levels go in chunks of ``_DIKE_INVERSE_CHUNK`` to bound
    the memory of the Newton steps.
    """
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    if flat.size > _DIKE_INVERSE_CHUNK:
        z = np.concatenate([_dike_curve_inverse(flat[i:i + _DIKE_INVERSE_CHUNK])
                            for i in range(0, flat.size, _DIKE_INVERSE_CHUNK)])
        return z.reshape(t_arr.shape)
    # the window is shifted, not cut, at the ends of [-1, 1]: a bracket of
    # 2**j grid steps halves onto grid points only
    top = 2.0 / _DIKE_GRID_STEP - 8.0
    k = np.clip(np.rint((_dike_newton(flat) + 1.0) / _DIKE_GRID_STEP) - 4.0, 0.0, top)
    lo = -1.0 + k * _DIKE_GRID_STEP
    hi = lo + 8.0 * _DIKE_GRID_STEP
    checked = (dike_overflow_curve(hi) >= flat) & (dike_overflow_curve(lo) < flat)
    z = _bisect(dike_overflow_curve, flat, np.where(checked, lo, -1.0),
                np.where(checked, hi, 1.0), True, _DIKE_GRID_STEP)
    return z.reshape(t_arr.shape) if t_arr.ndim else float(z[0])


def dike_lower_oscillation() -> Oscillation:
    top = dike_overflow_curve(0.0)

    def f(z):
        return dike_overflow_curve(np.negative(z))

    def inverse(t):
        return np.negative(_dike_curve_inverse(t))

    return Oscillation(f, inf_value=0.0, sup_value=top,
                       monotonicity=DECREASING, inverse=inverse)


def dike_upper_oscillation() -> Oscillation:
    top = dike_overflow_curve(0.0)
    return Oscillation(dike_overflow_curve, inf_value=top, sup_value=math.inf,
                       monotonicity=INCREASING, inverse=_dike_curve_inverse)


def _dike_frechet_lower(z):
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, -3.0 + z + 3.0 * (1.0 - (1.0 - z) ** 2))


def _dike_scenario() -> Scenario:
    marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))]
    marginals += [MarginalSpec(named_cdf("triangular_sym"), named_cdf("one")) for _ in range(3)]
    joint = combine(marginals, FRECHET)
    if __debug__:
        assert abs(dike_overflow_curve(0.0) - 3.0315831610902353) < 1e-9
        assert dike_overflow_curve(-1.0) == 0.0
        zs = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(joint.lower(zs) - _dike_frechet_lower(zs))) < 1e-12
    upper_osc = dike_upper_oscillation()
    queries = (
        Query("overflow_lower", "expectation_lower", joint,
              oscillation=dike_lower_oscillation()),
        Query("overflow_upper", "expectation_upper", joint, oscillation=upper_osc),
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
    return combine([MarginalSpec(box.lower, box.upper) if first == 0 else
                    MarginalSpec(StepCdf((1.0 - box.upper(0), 1.0)),
                                 StepCdf((1.0 - box.lower(0), 1.0)))
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
    box = PBox(named_cdf("uniform"), named_cdf("uniform"), UNIT_INTERVAL)
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


def builtin_scenario(name: str) -> Scenario:
    return _build(_BUILTIN_BUILDERS, name, "builtin scenario")


_NAMED_OSCILLATIONS = {
    "oscillator_lower": oscillator_lower_oscillation,
    "oscillator_upper": oscillator_upper_oscillation,
    "dike_lower": dike_lower_oscillation,
    "dike_upper": dike_upper_oscillation,
}


def named_oscillation(name: str) -> Oscillation:
    return _build(_NAMED_OSCILLATIONS, name, "oscillation")


def piecewise_linear_oscillation(knots) -> Oscillation:
    """Oscillation from sorted (z, value) knots, with monotonicity detected.

    The knots are kept on the oscillation, so its cut sets are computed
    exactly from the segment crossings.
    """
    knots = [(_finite_number(z), _finite_number(v)) for z, v in knots]
    if len(knots) < 2:
        raise ValidationError("an oscillation needs at least two knots")
    zs = np.array([z for z, _ in knots])
    vs = np.array([v for _, v in knots])
    if np.any(np.diff(zs) <= 0):
        raise ValidationError("oscillation knots must be strictly increasing in z")
    diffs = np.diff(vs)
    if np.all(diffs >= 0):
        mono = INCREASING
    elif np.all(diffs <= 0):
        mono = DECREASING
    else:
        mono = GENERAL

    def f(z):
        return np.interp(z, zs, vs)

    return Oscillation(f, inf_value=float(vs.min()), sup_value=float(vs.max()),
                       monotonicity=mono, knots=tuple(knots))
