"""Exact expectations of knot oscillations on piecewise-polynomial p-boxes,
and the exact validation of those p-boxes.

Degree 1 is checked against the exact rational Choquet integral of
``exact_expectation_reference``; degree 2, the named CDFs ``square`` and
``triangular_sym``, against a Darboux bracket on 2^20 uniform levels of the
same CDFs written as black-box callables, which take the scan of
``_batch_cut_probs`` rather than the exact pieces.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pboxes.choquet as choquet
from exact_expectation_reference import exact_expectation
from pboxes import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    PiecewisePolynomialCdf,
    RealLinePBox,
    ValidationError,
    lower_expectation,
    upper_expectation,
)
from pboxes.choquet import KnotOscillation, _batch_cut_probs
from pboxes.cli import main
from pboxes.scenarios import named_cdf

TOLERANCES = (1e-3, 1e-7, 1e-12)

# ROADMAP item 3's knot case; 6M uniform levels put the lower expectation in
# [0.42932682, 0.42932732] and the upper one in [2.39470182, 2.39470211]
ITEM3_LOWER = ((0.0, 0.0), (0.3, 0.1), (0.7, 0.6), (1.0, 1.0))
ITEM3_UPPER = ((0.0, 0.2), (0.4, 0.7), (0.8, 1.0), (1.0, 1.0))
ITEM3_OSCILLATION = ((0.0, 0.0), (0.2, 1.0), (0.5, 3.0), (0.6, 0.5), (0.9, 2.0), (1.0, 0.0))


@pytest.fixture
def no_darboux(monkeypatch):
    """Fail any call of the Darboux rounds."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exact path took a Darboux round")

    monkeypatch.setattr(choquet, "_darboux", refuse)


def contains(result, exact: Fraction) -> bool:
    lo, hi = result.bracket
    return Fraction(lo) <= exact <= Fraction(hi)


# ---------------------------------------------------------------------------
# degree 1 against the exact rational value

# coordinates and values on coarse grids make coincidences likely: flat
# pieces, knots of the oscillation on CDF breaks, and knot values equal to
# the oscillation's value at a CDF break
_FINE = st.floats(0.001, 0.999, allow_subnormal=False)


@st.composite
def cdf_knots(draw, coarse):
    """Knots of a piecewise-linear CDF on [0, 1], possibly jumping at 0."""
    if coarse:
        inner = draw(st.sets(st.integers(1, 19), max_size=4))
        xs = [k / 20 for k in sorted(inner)]
        values = draw(st.lists(st.integers(0, 10), min_size=len(xs) + 1,
                               max_size=len(xs) + 1))
        fs = [v / 10 for v in sorted(values)]
    else:
        xs = sorted(draw(st.sets(_FINE, max_size=4)))
        fs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs) + 1,
                                  max_size=len(xs) + 1)))
    if draw(st.booleans()):
        fs[0] = 0.0  # no jump at the bottom
    return tuple(zip([0.0] + xs + [1.0], fs + [1.0]))


@st.composite
def linear_pboxes(draw):
    """Lower and upper knots, the upper CDF raised to the lower one at every
    knot of either, so that it lies above it everywhere; or the mirror."""
    coarse = draw(st.booleans())
    first, second = draw(cdf_knots(coarse)), draw(cdf_knots(coarse))
    f = PiecewiseLinearCdf(first)
    g = PiecewiseLinearCdf(second)
    xs = sorted({x for x, _ in first} | {x for x, _ in second})
    if draw(st.booleans()):
        raised = tuple((x, float(max(f(x), g(x)))) for x in xs)
        return first, raised
    lowered = tuple((x, float(min(f(x), g(x)))) for x in xs)
    return lowered, second


@st.composite
def oscillation_knots(draw, breaks):
    coarse = draw(st.booleans())
    if coarse:
        zs = [k / 20 for k in sorted(draw(st.sets(st.integers(1, 19), max_size=5)))]
        vs = [k / 4 for k in draw(st.lists(st.integers(-8, 8), min_size=len(zs) + 2,
                                           max_size=len(zs) + 2))]
    else:
        zs = sorted(draw(st.sets(_FINE, max_size=5)))
        vs = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(zs) + 2, max_size=len(zs) + 2))
    knots = dict(zip([0.0] + zs + [1.0], vs))
    if breaks and draw(st.booleans()):
        # a knot on a CDF break whose value is another knot's: f there is a knot value
        knots[draw(st.sampled_from(breaks))] = draw(st.sampled_from(vs))
    return sorted(knots.items())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_degree_one_brackets_hold_the_exact_value(data):
    lower, upper = data.draw(linear_pboxes())
    breaks = sorted({x for x, _ in lower[1:-1] + upper[1:-1]})
    osc = KnotOscillation(data.draw(oscillation_knots(breaks)))
    box = PBox(PiecewiseLinearCdf(lower), PiecewiseLinearCdf(upper))
    for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
        exact = exact_expectation(osc.knots, lower, upper, osc.inf_value, osc.sup_value,
                                  upper_side)
        for tol in TOLERANCES:
            result = compute(box, osc, tol)
            assert result.refinements == 0
            assert contains(result, exact), (upper_side, tol, result, float(exact))


def test_item3_knot_case_converges_on_its_reference(no_darboux):
    box = PBox(PiecewiseLinearCdf(ITEM3_LOWER), PiecewiseLinearCdf(ITEM3_UPPER))
    osc = KnotOscillation(ITEM3_OSCILLATION)
    intervals = {False: (0.42932682, 0.42932732), True: (2.39470182, 2.39470211)}
    for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
        exact = exact_expectation(osc.knots, ITEM3_LOWER, ITEM3_UPPER, osc.inf_value,
                                  osc.sup_value, upper_side)
        for tol in (1e-7, 1e-12):
            result = compute(box, osc, tol)
            assert result.converged and result.refinements == 0
            assert result.error_bound < 0.5 * tol
            assert contains(result, exact)
            lo, hi = intervals[upper_side]
            assert lo <= result.bracket[0] and result.bracket[1] <= hi


def test_the_bound_covers_rounding_at_large_levels():
    # levels near 1e6 round the middles of the pieces by about 1e-10
    shift = 1e6
    knots = [(z, v + shift) for z, v in ITEM3_OSCILLATION]
    box = PBox(PiecewiseLinearCdf(ITEM3_LOWER), PiecewiseLinearCdf(ITEM3_UPPER))
    osc = KnotOscillation(knots)
    for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
        exact = exact_expectation(osc.knots, ITEM3_LOWER, ITEM3_UPPER, osc.inf_value,
                                  osc.sup_value, upper_side)
        result = compute(box, osc, 1e-12)
        assert contains(result, exact)
        assert not result.converged


@pytest.mark.parametrize("scale", [5e-324, 8e-323, 1e-315])
def test_the_bound_covers_rounding_into_subnormal_levels(no_darboux, scale):
    # rounding below 2**-1022 is absolute, where a bound relative to the
    # levels rounds to 0: a piece 5e-324 wide has a half-width of 0
    uniform = ((0.0, 0.0), (1.0, 1.0))
    for lower, upper in ((uniform, uniform), (ITEM3_LOWER, ITEM3_UPPER)):
        box = PBox(PiecewiseLinearCdf(lower), PiecewiseLinearCdf(upper))
        for knots in ([(0.0, 0.0), (1.0, scale)],
                      [(z, v * scale) for z, v in ITEM3_OSCILLATION]):
            osc = KnotOscillation(knots)
            for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
                exact = exact_expectation(osc.knots, lower, upper, osc.inf_value,
                                          osc.sup_value, upper_side)
                result = compute(box, osc)
                assert result.converged and contains(result, exact), (knots, upper_side)


def test_levels_near_the_float_range_keep_a_finite_bound(no_darboux):
    # the bound for misplaced CDF breaks once squared a level miss near 1e285
    # first, which overflowed to inf with a numpy warning
    box = PBox(PiecewiseLinearCdf(ITEM3_LOWER), PiecewiseLinearCdf(ITEM3_UPPER))
    osc = KnotOscillation([(z, v * 1e300) for z, v in ITEM3_OSCILLATION])
    for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
        exact = exact_expectation(osc.knots, ITEM3_LOWER, ITEM3_UPPER, osc.inf_value,
                                  osc.sup_value, upper_side)
        result = compute(box, osc)
        assert math.isfinite(result.error_bound) and contains(result, exact)


def test_levels_near_the_float_range_warn_not(no_darboux):
    # the mean of the line under a precise uniform law is 0; numpy warnings are errors here
    box = PBox(PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0))),
               PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0))))
    osc = KnotOscillation([[0, -8e307], [1, 8e307]])
    for compute in (lower_expectation, upper_expectation):
        result = compute(box, osc)
        assert not result.converged
        assert result.bracket[0] <= 0.0 <= result.bracket[1]


def test_constant_oscillation_is_its_value(no_darboux):
    box = PBox(PiecewiseLinearCdf(ITEM3_LOWER), PiecewiseLinearCdf(ITEM3_UPPER))
    osc = KnotOscillation([(0.0, 0.7), (1.0, 0.7)])
    for compute in (lower_expectation, upper_expectation):
        result = compute(box, osc)
        assert result.value == 0.7 and result.converged and result.error_bound < 1e-15


# ---------------------------------------------------------------------------
# degree 2 against a fine Darboux bracket

NAMED_PAIRS = {
    "square_uniform": ("square", "uniform",
                       lambda z: np.asarray(z, dtype=float) ** 2,
                       lambda z: np.asarray(z, dtype=float) + 0.0),
    "uniform_triangular": ("uniform", "triangular_sym",
                           lambda z: np.asarray(z, dtype=float) + 0.0,
                           lambda z: 1.0 - (1.0 - np.asarray(z, dtype=float)) ** 2),
}


def darboux_bracket(box, osc, upper_side, levels=1 << 20):
    """The lower and upper Darboux sums of the expectation on ``levels``
    uniform cells, each cell's cut probabilities read at its two ends."""
    ts = np.linspace(osc.inf_value, osc.sup_value, levels + 1)
    g = np.concatenate([_batch_cut_probs(box, osc, chunk, upper_side)
                        for chunk in np.array_split(ts, 32)])
    step = (osc.sup_value - osc.inf_value) / levels
    return (osc.inf_value + step * math.fsum(g[1:].tolist()),
            osc.inf_value + step * math.fsum(g[:-1].tolist()))


@st.composite
def tent_or_monotone(draw):
    """Tent knots, up and down with random coordinates, or monotone ones.  The
    values are distinct, so that the Darboux bracket is no wider than its
    levels' spacing and no narrower than float rounding."""
    zs = [0.0] + sorted(draw(st.sets(st.floats(0.02, 0.98), min_size=2, max_size=4))) + [1.0]
    vs = [k / 100 for k in sorted(draw(st.sets(st.integers(-200, 200), min_size=len(zs),
                                               max_size=len(zs))))]
    shape = draw(st.sampled_from(["tent", "rising", "falling"]))
    if shape == "tent":
        peak = draw(st.integers(1, len(zs) - 2))
        vs = vs[:peak] + vs[peak:][::-1]
    elif shape == "falling":
        vs.reverse()
    return list(zip(zs, vs))


@pytest.mark.parametrize("pair", sorted(NAMED_PAIRS))
@settings(max_examples=4, deadline=None)
@given(knots=tent_or_monotone())
def test_degree_two_inside_a_fine_darboux_bracket(pair, knots):
    lower_name, upper_name, lower_fn, upper_fn = NAMED_PAIRS[pair]
    exact_box = PBox(named_cdf(lower_name), named_cdf(upper_name))
    black_box = PBox(AnalyticCdf(lower_fn), AnalyticCdf(upper_fn))
    osc = KnotOscillation(knots)
    for upper_side, compute in ((False, lower_expectation), (True, upper_expectation)):
        result = compute(exact_box, osc, 1e-12)
        lo, hi = darboux_bracket(black_box, osc, upper_side)
        assert lo <= result.bracket[0] and result.bracket[1] <= hi, (upper_side, result, lo, hi)


def test_named_cdfs_are_their_polynomials():
    zs = np.linspace(0.0, 1.0, 1001)
    assert np.array_equal(named_cdf("uniform")(zs), zs)
    assert np.array_equal(named_cdf("one")(zs), np.ones_like(zs))
    # within two units in the last place of the closed forms
    assert np.allclose(named_cdf("square")(zs), zs * zs, rtol=0.0, atol=2.3e-16)
    assert np.allclose(named_cdf("triangular_sym")(zs), 1.0 - (1.0 - zs) ** 2, rtol=0.0,
                       atol=2.3e-16)


# ---------------------------------------------------------------------------
# the CDF type and its validation


def test_degree_one_evaluates_by_interp_bit_for_bit():
    knots = ((0.0, 0.1), (0.3, 0.35), (0.71, 0.9), (1.0, 1.0))
    cdf = PiecewisePolynomialCdf(knots)
    assert cdf == PiecewiseLinearCdf(knots) == PiecewisePolynomialCdf(knots, (0.0, 0.0, 0.0))
    zs = np.concatenate([np.linspace(-0.5, 1.5, 2001), [0.3, 0.71]])
    xs, fs = zip(*knots)
    assert np.array_equal(cdf(zs), np.interp(zs, xs, fs, left=0.0, right=1.0))
    assert cdf(0.3) == 0.35 and cdf.left_limit(0.0) == 0.0 and cdf(0.0) == 0.1


def test_a_bend_is_zero_at_the_knots_and_off_the_domain():
    cdf = PiecewisePolynomialCdf(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), (1.0, -0.5))
    assert cdf(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.5, 1.0]
    assert cdf(np.array([-1.0, 2.0])).tolist() == [0.0, 1.0]
    assert cdf(0.25) == pytest.approx(0.25 - 0.25 * 0.25)
    assert cdf(0.75) == pytest.approx(0.75 + 0.5 * 0.25 * 0.25)


@pytest.mark.parametrize("curvature, message", [
    ((2.0,), "a bend exceeds the rise of its piece"),
    ((0.5, 0.5), "one curvature per piece"),
    ((math.nan,), "finite"),
])
def test_bad_curvature_refused(curvature, message):
    with pytest.raises(ValidationError, match=message):
        PiecewisePolynomialCdf(((0.0, 0.0), (1.0, 1.0)), curvature)


def test_real_line_operands_stay_linear():
    curved = PiecewisePolynomialCdf(((1.0, 0.0), (2.0, 1.0)), (1.0,))
    with pytest.raises(ValidationError, match="piecewise-linear"):
        RealLinePBox(curved, curved)


@pytest.mark.parametrize("lower, upper", [
    # the difference is z^2 - z: zero at both breaks, negative between
    ("uniform", "square"),
    ("triangular_sym", "uniform"),
    ("triangular_sym", "square"),
    ("one", "uniform"),
])
def test_named_pair_with_lower_above_upper_refused(lower, upper):
    with pytest.raises(ValidationError, match="lower CDF exceeds upper CDF"):
        PBox(named_cdf(lower), named_cdf(upper))


def test_vertex_below_the_lower_cdf_between_breaks_refused():
    # both CDFs meet at 0, 0.5 and 1; the upper one bends below the lower between them
    lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
    for bend in (1e-6, 1.0):
        upper = PiecewisePolynomialCdf(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), (0.0, bend))
        with pytest.raises(ValidationError, match="lower CDF exceeds upper CDF"):
            PBox(lower, upper)
    upper = PiecewisePolynomialCdf(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), (0.0, -1.0))
    assert PBox(lower, upper).is_polynomial


def test_mixed_pair_is_validated_on_its_grid():
    box = PBox(named_cdf("square"), AnalyticCdf(lambda z: np.asarray(z, dtype=float)))
    assert not box.is_polynomial
    with pytest.raises(ValidationError, match="on the grid"):
        PBox(named_cdf("uniform"), AnalyticCdf(lambda z: np.asarray(z, dtype=float) ** 2))


REFUSED = {
    "decreasing": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.8], [0.7, 0.6], [1.0, 1.0]],
                              "upper": [[0.0, 0.5], [1.0, 1.0]]}},
    "below_zero": {"linear": {"lower": [[0.0, -0.1], [1.0, 1.0]],
                              "upper": [[0.0, 0.5], [1.0, 1.0]]}},
    "above_one": {"linear": {"lower": [[0.0, 0.0], [0.5, 1.2], [1.0, 1.0]],
                             "upper": [[0.0, 0.5], [1.0, 1.0]]}},
    "not_reaching_one": {"linear": {"lower": [[0.0, 0.0], [1.0, 0.9]],
                                    "upper": [[0.0, 0.5], [1.0, 1.0]]}},
    "lower_above_upper_at_a_knot": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.7], [1.0, 1.0]],
                                               "upper": [[0.0, 0.0], [0.4, 0.5], [1.0, 1.0]]}},
    "lower_above_upper_at_zero": {"linear": {"lower": [[0.0, 0.3], [1.0, 1.0]],
                                             "upper": [[0.0, 0.2], [1.0, 1.0]]}},
    "lower_above_upper_between_breaks": {"analytic": {"lower": "uniform", "upper": "square"}},
    "one_above_uniform": {"analytic": {"lower": "one", "upper": "uniform"}},
    "marginal_lower_above_upper": {"marginals": [
        {"lower": {"analytic": "triangular_sym"}, "upper": {"analytic": "uniform"}},
        {"lower": {"analytic": "uniform"}, "upper": {"analytic": "one"}}]},
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_pboxes_exit_3(tmp_path, capsys, name):
    doc = {"pbox": REFUSED[name],
           "queries": [{"id": "e", "kind": "event_lower",
                        "intervals": [[0.0, 0.5, False, False]]}]}
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    assert main(["infer", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("validation error: pbox")
