"""Built-in scenario fixtures and the query executor behind the CLI.

Each builtin bundles a p-box, the closed-form oscillations and inverses of
its target quantity, and a fixed query list, so the two engineering case
studies (a damped oscillator's damping ratio, a river dike's overflow
height) and the finite worked examples can be reproduced by name.  Fixture
constants are asserted against their defining closed forms when assertions
are enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .choquet import (
    DECREASING,
    GENERAL,
    INCREASING,
    DEFAULT_CONFIG,
    Oscillation,
    QuadratureConfig,
    QuadratureResult,
    lower_expectation,
    threshold_solve,
    upper_expectation,
)
from .errors import ValidationError
from .multivariate import (
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
    """One inference request against a scenario's model."""

    id: str
    kind: str
    event: object = None
    oscillation: Oscillation | None = None
    target: float | None = None
    x1: RealLinePBox | None = None
    x2: RealLinePBox | None = None
    op: str = "add"
    y: float | None = None
    side: str = "lower"
    pbox_override: PBox | None = None
    value_fn: Callable | None = None


@dataclass(frozen=True)
class Scenario:
    """A model plus the queries to run against it."""

    name: str
    pbox: PBox | None
    queries: tuple
    description: str = ""


@dataclass(frozen=True)
class QueryResult:
    id: str
    kind: str
    value: float
    error_bound: float


QUERY_KINDS = ("event_lower", "event_upper", "expectation_lower",
               "expectation_upper", "threshold", "arith_add", "arith_op")


def run_query(scenario: Scenario, query: Query,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> QueryResult:
    """Evaluate a single query; the error bound is 0 for exact computations."""
    if query.kind not in QUERY_KINDS:
        raise ValidationError(f"unknown query kind {query.kind!r}")
    if query.value_fn is not None:
        return QueryResult(query.id, query.kind, float(query.value_fn()), 0.0)
    pbox = query.pbox_override or scenario.pbox
    if query.kind == "event_lower":
        return QueryResult(query.id, query.kind,
                           lower_prob_event(pbox, query.event), 0.0)
    if query.kind == "event_upper":
        return QueryResult(query.id, query.kind,
                           upper_prob_event(pbox, query.event), 0.0)
    if query.kind == "expectation_lower":
        res = lower_expectation(pbox, query.oscillation, cfg)
        return QueryResult(query.id, query.kind, res.value, res.error_bound)
    if query.kind == "expectation_upper":
        res = upper_expectation(pbox, query.oscillation, cfg)
        return QueryResult(query.id, query.kind, res.value, res.error_bound)
    if query.kind == "threshold":
        value = threshold_solve(pbox, query.oscillation, query.target, cfg)
        return QueryResult(query.id, query.kind, value, cfg.bisect_tol)
    if query.side not in ("lower", "upper"):
        raise ValidationError(f"side must be 'lower' or 'upper', got {query.side!r}")
    lower, upper = prob_arith_transform(query.op, query.x1, query.x2, query.y)
    return QueryResult(query.id, query.kind,
                       lower if query.side == "lower" else upper, 0.0)


def run_scenario(scenario: Scenario,
                 cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    return [run_query(scenario, q, cfg) for q in scenario.queries]


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
    "uniform": lambda: AnalyticCdf(_uniform, name="uniform"),
    "one": lambda: AnalyticCdf(_constant_one, name="one"),
    "square": lambda: AnalyticCdf(_square, name="square"),
    "triangular_sym": lambda: AnalyticCdf(_humped, name="triangular_sym"),
}


def named_cdf(name: str) -> AnalyticCdf:
    try:
        return _NAMED_CDFS[name]()
    except KeyError:
        raise ValidationError(f"unknown analytic CDF {name!r}") from None


# ---------------------------------------------------------------------------
# damped oscillator: damping ratio of a unit-mass design at (c, k) = (2, 1),
# coordinate Z(c, k) = max(|c - 2|, 2|k - 1|) on the region Z <= 1

OSCILLATOR_DESIGN = (2.0, 1.0)
OSCILLATOR_Z_MAPS = ("|c - 2|", "2|k - 1|")

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
                       monotonicity=DECREASING, inverse=_ratio_boundary,
                       name="damping-ratio-lower")


def oscillator_upper_oscillation() -> Oscillation:
    def f(z):
        z = np.asarray(z, dtype=float)
        return (2.0 + z) / (2.0 * np.sqrt(1.0 - z / 2.0))

    def inverse(t):
        return -_ratio_boundary(t)

    return Oscillation(f, inf_value=1.0, sup_value=_RATIO_SUP,
                       monotonicity=INCREASING, inverse=inverse,
                       name="damping-ratio-upper")


def _oscillator_scenario() -> Scenario:
    if __debug__:
        assert abs(_ratio_boundary(_RATIO_INF) - 1.0) < 1e-12
        assert abs(_ratio_boundary(1.0)) < 1e-12
        assert abs(float(oscillator_upper_oscillation().f(1.0)) - _RATIO_SUP) < 1e-12
    marginals = [
        MarginalSpec(named_cdf("uniform"), named_cdf("one"), z_map=OSCILLATOR_Z_MAPS[0]),
        MarginalSpec(named_cdf("uniform"), named_cdf("one"), z_map=OSCILLATOR_Z_MAPS[1]),
    ]
    joint = combine(marginals, INDEPENDENT)
    queries = (
        Query("damping_ratio_lower", "expectation_lower",
              oscillation=oscillator_lower_oscillation()),
        Query("damping_ratio_upper", "expectation_upper",
              oscillation=oscillator_upper_oscillation()),
    )
    return Scenario("oscillator", joint, queries,
                    "independent uniform deviations of damping and stiffness")


# ---------------------------------------------------------------------------
# river dike: overflow height under unknown dependence between flow rate,
# Strickler coefficient, and the two water levels

DIKE_GUMBEL_LOCATION = 1335.0
DIKE_GUMBEL_SCALE = 716.0
DIKE_RIVER_WIDTH = 300.0
DIKE_RIVER_LENGTH = 6400.0
DIKE_Z_MAPS = ("2|r - 1/2|", "|k - 30|/15", "|u - 55|", "|d - 50|")


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


def _dike_curve_inverse(t):
    """Smallest coordinate with overflow curve at least t, by bisection."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo = np.full(t_arr.shape, -1.0)
    hi = np.ones(t_arr.shape)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = dike_overflow_curve(mid) >= t_arr
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi if np.asarray(t).ndim else float(hi[0])


def dike_lower_oscillation() -> Oscillation:
    top = dike_overflow_curve(0.0)

    def f(z):
        return dike_overflow_curve(np.negative(z))

    def inverse(t):
        return np.negative(_dike_curve_inverse(t))

    return Oscillation(f, inf_value=0.0, sup_value=top,
                       monotonicity=DECREASING, inverse=inverse,
                       name="overflow-lower")


def dike_upper_oscillation() -> Oscillation:
    top = dike_overflow_curve(0.0)
    return Oscillation(dike_overflow_curve, inf_value=top, sup_value=math.inf,
                       monotonicity=INCREASING, inverse=_dike_curve_inverse,
                       name="overflow-upper")


def _dike_frechet_lower(z):
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, -3.0 + z + 3.0 * (1.0 - (1.0 - z) ** 2))


def _dike_scenario() -> Scenario:
    marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"),
                              z_map=DIKE_Z_MAPS[0])]
    for z_map in DIKE_Z_MAPS[1:]:
        marginals.append(MarginalSpec(named_cdf("triangular_sym"),
                                      named_cdf("one"), z_map=z_map))
    joint = combine(marginals, FRECHET)
    if __debug__:
        assert abs(dike_overflow_curve(0.0) - 3.0315831610902353) < 1e-9
        assert dike_overflow_curve(-1.0) == 0.0
        zs = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(joint.lower(zs) - _dike_frechet_lower(zs))) < 1e-12
    upper_osc = dike_upper_oscillation()
    queries = (
        Query("overflow_lower", "expectation_lower",
              oscillation=dike_lower_oscillation()),
        Query("overflow_upper", "expectation_upper", oscillation=upper_osc),
        Query("design_height_p01", "threshold", oscillation=upper_osc,
              target=0.01),
    )
    return Scenario("dike", joint, queries,
                    "overflow height with unknown dependence between inputs")


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
        queries.append(Query(f"coarse_{tag}", "event_lower",
                             event=_interior_subset(coarse_partition, members),
                             pbox_override=coarse))
        queries.append(Query(f"fine_{tag}", "event_lower",
                             event=_interior_subset(fine_partition, members),
                             pbox_override=fine))
    return Scenario("example_ordering", fine, tuple(queries),
                    "the same degenerate CDF under two preorders")


def _field_nonunique_scenario() -> Scenario:
    lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0)))
    upper = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
    box = PBox(lower, upper, UNIT_INTERVAL)
    piece = normalize([ZInterval.left_open(0.5, 0.6)])
    queries = (
        Query("natural_extension", "event_lower", event=piece),
        Query("precise_lower_cdf", "event_lower", event=piece,
              pbox_override=PBox(lower, lower, UNIT_INTERVAL)),
        Query("precise_upper_cdf", "event_lower", event=piece,
              pbox_override=PBox(upper, upper, UNIT_INTERVAL)),
    )
    return Scenario("example_field_nonunique", box, queries,
                    "the envelope of two precise models is not the p-box value")


def _two_class_pbox(lower_first: float, upper_first: float) -> PBox:
    space = FiniteQuotientSpace(("low", "high"))
    return PBox(StepCdf((lower_first, 1.0)), StepCdf((upper_first, 1.0)), space)


def _frechet62_scenario() -> Scenario:
    m1 = _two_class_pbox(0.4, 0.6)
    m2 = _two_class_pbox(0.2, 0.3)
    first = ClassSubset.of(0)
    second = ClassSubset.of(1)
    p_a = lower_prob_event(m1, first)
    p_b = lower_prob_event(m2, second)
    up_a_c = upper_prob_event(m1, first)      # upper prob of {high} in dim 1
    up_b_c = upper_prob_event(m2, second)     # upper prob of {low} in dim 2
    queries = (
        Query("A", "event_lower", value_fn=lambda: p_a),
        Query("B", "event_lower", value_fn=lambda: p_b),
        Query("A_union_B", "event_lower",
              value_fn=lambda: 1.0 - FRECHET.u([up_a_c, up_b_c])),
        Query("A_intersect_B", "event_lower",
              value_fn=lambda: FRECHET.ell([p_a, p_b])),
    )
    return Scenario("example_frechet_62", None, queries,
                    "unknown-dependence joint of two binary marginals")


def _independent63_scenario() -> Scenario:
    m1 = _two_class_pbox(0.4, 0.6)
    m2 = _two_class_pbox(0.3, 0.5)
    p_x1 = lower_prob_event(m1, ClassSubset.of(0))
    p_y2 = lower_prob_event(m2, ClassSubset.of(1))
    # upper probability of a top class comes from the interior of its
    # complement, which is the bottom class
    up_x2 = upper_prob_event(m1, ClassSubset.of(0))
    up_y2 = upper_prob_event(m2, ClassSubset.of(0))

    # joint p-box on the max coordinate with the first classes at z = 0.5:
    # the only joint class below the top is {(low, low)}, so the image of
    # the interior of {(low, high)} is empty
    def staircase(first_value):
        def fn(z):
            z = np.asarray(z, dtype=float)
            return np.where(z >= 1.0, 1.0, np.where(z >= 0.5, first_value, 0.0))

        def left(z):
            z = np.asarray(z, dtype=float)
            return np.where(z > 1.0, 1.0, np.where(z > 0.5, first_value, 0.0))

        return AnalyticCdf(fn, left, continuous=False, name="two-step")

    joint = combine(
        [MarginalSpec(staircase(0.4), staircase(0.6)),
         MarginalSpec(staircase(0.3), staircase(0.5))],
        INDEPENDENT)
    queries = (
        Query("A_union_B", "event_lower",
              value_fn=lambda: 1.0 - INDEPENDENT.u([up_x2, up_y2])),
        Query("A_intersect_B", "event_lower",
              value_fn=lambda: INDEPENDENT.ell([p_x1, p_y2])),
        Query("A_intersect_B_joint_pbox", "event_lower", event=EMPTY_EVENT,
              pbox_override=joint),
    )
    return Scenario("example_independent_63", joint, queries,
                    "factorizing joint of two binary marginals")


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
        Query("corner_rectangle", "event_lower",
              event=diagonal_rectangle_interior(0.0, 0.5, 0.0, 0.7)),
        Query("inner_rectangle", "event_lower",
              event=diagonal_rectangle_interior(0.2, 0.6, 0.1, 0.9)),
        Query("upper_rectangle", "event_lower",
              event=diagonal_rectangle_interior(0.3, 1.0, 0.5, 1.0)),
        Query("whole_square", "event_lower",
              event=diagonal_rectangle_interior(0.0, 1.0, 0.0, 1.0)),
    )
    return Scenario("example_diagonal_46", box, queries,
                    "a diagonal preorder only resolves corner-anchored rectangles")


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
    try:
        builder = _BUILTIN_BUILDERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin scenario {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder()


_NAMED_OSCILLATIONS = {
    "oscillator_lower": oscillator_lower_oscillation,
    "oscillator_upper": oscillator_upper_oscillation,
    "dike_lower": dike_lower_oscillation,
    "dike_upper": dike_upper_oscillation,
}


def named_oscillation(name: str) -> Oscillation:
    try:
        return _NAMED_OSCILLATIONS[name]()
    except KeyError:
        raise ValidationError(f"unknown oscillation {name!r}") from None


def piecewise_linear_oscillation(knots) -> Oscillation:
    """Oscillation from sorted (z, value) knots, with monotonicity detected.

    The knots are kept on the oscillation, so its cut sets are computed
    exactly from the segment crossings.
    """
    knots = [(float(z), float(v)) for z, v in knots]
    if len(knots) < 2:
        raise ValidationError("an oscillation needs at least two knots")
    if not np.isfinite(knots).all():
        raise ValidationError("oscillation knots must be finite")
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
                       monotonicity=mono, name="piecewise-linear", knots=tuple(knots))
