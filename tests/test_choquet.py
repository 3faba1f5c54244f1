import dataclasses
import functools
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from coordinate_grid_reference import anchored_probs
from finite_sum_reference import event_reference, finite_sum_reference, run_scan_reference
from jump_cdf import JumpCdf
from lp_reference import chain_vertex_min
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pboxes.choquet import (
    DECREASING,
    GENERAL,
    INCREASING,
    KnotOscillation,
    Oscillation,
    QuadratureResult,
    cut_event,
    lower_expectation,
    lower_expectation_finite,
    threshold_solve,
    upper_expectation,
)
import pboxes
from pboxes import choquet
from pboxes.choquet import _batch_cut_probs, _darboux, _monotone_integrand
from pboxes.errors import ValidationError
from pboxes.oracle import FiniteCredalInstance, lp_lower_expectation, random_credal_instance
from pboxes.pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    StepCdf,
    lower_prob_event,
    upper_prob_event,
)
from pboxes.preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    ZInterval,
    complement_z,
)
from pboxes.scenarios import (
    Query,
    builtin_scenario,
    named_cdf,
    named_oscillation,
    named_tail,
    run_query,
)

UNIFORM_BOX = PBox(AnalyticCdf(lambda z: np.asarray(z, dtype=float)),
                   AnalyticCdf(lambda z: np.asarray(z, dtype=float)), UNIT_INTERVAL)
TIGHT = 1e-6


def constant_oscillation(c):
    return Oscillation(lambda z: np.asarray(z, float) * 0.0 + c)


class TestCutEvent:
    def test_oscillator_boundary_level_gives_whole_space(self):
        osc = named_oscillation("oscillator_lower")
        assert cut_event(osc, 1.0 / math.sqrt(6.0)) == FULL_EVENT

    def test_oscillator_interior_level(self):
        osc = named_oscillation("oscillator_lower")
        cut = cut_event(osc, 0.7)
        assert len(cut.intervals) == 1
        iv = cut.intervals[0]
        assert iv.lo == 0.0
        assert float(osc.f(iv.hi)) == pytest.approx(0.7, abs=1e-9)

    def test_constant_oscillation(self):
        osc = constant_oscillation(0.4)
        assert cut_event(osc, 0.4) == FULL_EVENT
        assert cut_event(osc, 0.41) == EMPTY_EVENT

    def test_tent_cut_is_exact_superlevel_set(self):
        tent = KnotOscillation([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert tent.monotonicity == GENERAL
        cut = cut_event(tent, 0.5)
        assert len(cut.intervals) == 1
        iv = cut.intervals[0]
        assert iv.lo == pytest.approx(0.25, abs=1e-9)
        assert iv.hi == pytest.approx(0.75, abs=1e-9)
        for k in range(10**5):
            z = (2 * k + 1) / (2 * 10**5)
            assert (z in cut) == (float(tent.f(z)) >= 0.5)

    def test_nan_level_refused_and_infinities_kept(self):
        for osc in (KnotOscillation(KNOT_CASES["tent"]), constant_oscillation(0.4)):
            with pytest.raises(ValidationError, match="got nan"):
                cut_event(osc, math.nan)
            assert cut_event(osc, -math.inf) == FULL_EVENT
            assert cut_event(osc, math.inf) == EMPTY_EVENT
        with pytest.raises(TypeError):
            cut_event(constant_oscillation(0.4), "0.5")

    def test_double_hump_gives_two_intervals(self):
        hump = KnotOscillation(
            [(0.0, 1.0), (0.25, 0.0), (0.5, 1.0), (0.75, 0.0), (1.0, 1.0)])
        cut = cut_event(hump, 0.9)
        assert len(cut.intervals) == 3


KNOT_CASES = {
    "tent": [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)],
    "double_hump": [(0.0, 1.0), (0.25, 0.0), (0.5, 1.0), (0.75, 0.0), (1.0, 1.0)],
    "inside_unit": [(0.2, 0.3), (0.4, 1.0), (0.7, -0.5), (0.9, 0.6)],
    "beyond_unit": [(-0.5, 1.0), (0.3, 0.0), (0.6, 0.7), (1.5, -1.0)],
    "plateau": [(0.0, 0.0), (0.3, 0.8), (0.6, 0.8), (1.0, 0.0)],
    "increasing": [(0.0, 0.0), (0.4, 0.2), (1.0, 1.0)],
    "decreasing": [(0.0, 2.0), (0.5, 1.5), (0.8, 0.0), (1.0, 0.0)],
}


# a spike narrower than the validation grid, centred between two points of it
SPIKE_Z0, SPIKE_W = 0.5 + 0.3 / 4096, 2e-5


def _knot_test_boxes():
    def jump_lower(z):
        z = np.asarray(z, float)
        return np.where(z >= 0.5, 0.5 + 0.5 * z, 0.4 * z)

    def jump_lower_left(z):
        z = np.asarray(z, float)
        return np.where(z > 0.5, 0.5 + 0.5 * z, 0.4 * z)

    return (
        PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
             AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0), UNIT_INTERVAL),
        PBox(PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0))),
             PiecewiseLinearCdf(((0.0, 0.1), (0.4, 0.7), (1.0, 1.0))), UNIT_INTERVAL),
        PBox(JumpCdf(jump_lower, jump_lower_left),
             AnalyticCdf(lambda z: np.minimum(1.0, 2.0 * np.asarray(z, float))),
             UNIT_INTERVAL),
    )


def assert_batch_matches_event(osc, ts, label):
    """The batched cut probabilities equal the event path's at 1e-12."""
    for box in _knot_test_boxes():
        for upper in (False, True):
            fast = _batch_cut_probs(box, osc, ts, upper)
            for t, val in zip(ts, fast):
                cut = cut_event(osc, float(t))
                if upper:
                    slow = upper_prob_event(box, complement_z(cut))
                else:
                    slow = lower_prob_event(box, cut)
                assert abs(val - slow) <= 1e-12, (label, upper, t)


def monotone_knots(name):
    """A knot case with its values sorted: a ramp through the same values,
    rising, or falling for the decreasing case."""
    zs, vs = zip(*KNOT_CASES[name])
    return list(zip(zs, sorted(vs, reverse=name == "decreasing")))


def halvings_to_adjacent_floats(f, t):
    """Halvings of [0, 1] that bring the end of ``{f >= t}`` of an increasing
    ``f`` between adjacent floats, one level at a time; 0 if no end lies
    inside."""
    lo, hi, count = 0.0, 1.0, 0
    if f(lo) >= t or f(hi) < t:
        return 0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) >= t else (mid, hi)
        count += 1
    return count


def monotone_black_box(knots):
    """The oscillation of monotone ``knots``, and its ``f`` as a black box,
    which reads its direction and bounds at 0 and 1."""
    exact = KnotOscillation(knots)
    return exact, Oscillation(exact.f)


def knot_levels(knots, osc):
    """Every knot value, levels across the range, and levels outside it."""
    values = [v for _, v in knots]
    return np.union1d(np.linspace(osc.inf_value, osc.sup_value, 37),
                      values + [osc.inf_value - 0.1, osc.sup_value + 0.1])


class TestKnotCutSets:
    @pytest.mark.parametrize("name", sorted(KNOT_CASES))
    def test_batch_path_matches_event_path(self, name):
        knots = KNOT_CASES[name]
        osc = KnotOscillation(knots)
        assert osc.knots is not None
        assert_batch_matches_event(osc, knot_levels(knots, osc), name)

    @pytest.mark.parametrize("name", sorted(KNOT_CASES))
    def test_black_box_batch_path_matches_event_path(self, name):
        knots = monotone_knots(name)
        exact, black_box = monotone_black_box(knots)
        assert_batch_matches_event(black_box, knot_levels(knots, exact), name)

    def test_monotone_bisection_batch_path_matches_event_path(self):
        osc = Oscillation(lambda z: np.sqrt(np.asarray(z, float)))
        assert osc.knots is None
        ts = np.linspace(-0.1, 1.1, 49)
        assert_batch_matches_event(osc, ts, "sqrt")

    def test_black_box_scan_is_batched(self):
        counting = CountingBatch(lambda z: np.interp(z, *zip(*KNOT_CASES["increasing"])))
        osc = Oscillation(counting)
        counting.calls = 0
        ts = np.linspace(0.0, 1.0, 64)
        _batch_cut_probs(UNIFORM_BOX, osc, ts, False)
        # one call at the ends 0 and 1, then one per halving of the cells [0, 1],
        # all levels at once, each halved until its ends are adjacent floats
        assert counting.calls <= 1 + max(halvings_to_adjacent_floats(counting.g, t) for t in ts)

    def test_chunked_batches_match_one_pass(self, monkeypatch):
        import pboxes.choquet as choquet_mod

        box = _knot_test_boxes()[1]
        _, black_box = monotone_black_box(monotone_knots("double_hump"))
        # a black box scans its 2 ends per level, a knot oscillation its knots
        cases = (black_box, KnotOscillation(KNOT_CASES["double_hump"]))
        ts = np.linspace(-0.1, 1.1, 200)
        for osc in cases:
            for upper in (False, True):
                whole = _batch_cut_probs(box, osc, ts, upper)
                monkeypatch.setattr(choquet_mod, "_CUT_BATCH_CELLS", 64)
                chunked = _batch_cut_probs(box, osc, ts, upper)
                monkeypatch.undo()
                assert np.array_equal(chunked, whole), (osc.knots is not None, upper)

    def test_fixed_values_are_read_once(self):
        # F_lower(1) does not depend on the levels, and the scan calls f on arrays
        scalars, ones = [], []

        def f(z):
            if np.ndim(z) == 0:
                scalars.append(z)
            return np.sqrt(z)

        def lower(z):
            if np.array_equal(z, [1.0]):
                ones.append(z)
            return np.asarray(z, dtype=float)

        box = PBox(AnalyticCdf(lower), AnalyticCdf(lambda z: np.asarray(z, dtype=float)),
                   UNIT_INTERVAL)
        osc = Oscillation(f)
        for upper in (False, True, True):
            _batch_cut_probs(box, osc, np.linspace(0.0, 1.0, 17), upper)
        assert (len(scalars), len(ones)) == (0, 1)

    @pytest.mark.parametrize("name", sorted(KNOT_CASES))
    def test_cut_event_is_the_exact_superlevel_set(self, name):
        osc = KnotOscillation(KNOT_CASES[name])
        zs = (np.arange(20_000) + 0.5) / 20_000
        fz = osc.f(zs)
        for t in np.linspace(osc.inf_value, osc.sup_value, 13):
            cut = cut_event(osc, float(t))
            members = np.array([z in cut for z in zs])
            np.testing.assert_array_equal(members, fz >= t)

    def test_knot_level_lands_on_the_knot(self):
        osc = KnotOscillation(KNOT_CASES["plateau"])
        assert cut_event(osc, 0.8).intervals == (ZInterval.closed(0.3, 0.6),)
        tent = KnotOscillation(KNOT_CASES["tent"])
        assert cut_event(tent, 1.0).intervals == (ZInterval.point(0.5),)

    def test_black_box_scan_matches_knots(self):
        for name in sorted(KNOT_CASES):
            exact, black_box = monotone_black_box(monotone_knots(name))
            for t in (0.05, 0.45, 0.9):
                want = cut_event(exact, t).intervals
                got = cut_event(black_box, t).intervals
                assert len(got) == len(want), (name, t)
                for g, w in zip(got, want):
                    assert (g.lo, g.hi) == pytest.approx((w.lo, w.hi), abs=1e-9)

    def test_bisection_stops_at_float_resolution(self):
        _, ramp = monotone_black_box([(0.0, 0.0), (1.0, 1.0)])
        # the halving ends at adjacent floats: the cut starts at the least
        # float where the ramp reaches the level
        cut = cut_event(ramp, 0.3)
        (iv,) = cut.intervals
        assert (iv.lo, iv.hi) == pytest.approx((0.3, 1.0), abs=1e-15)
        assert ramp.f(iv.lo) >= 0.3 > ramp.f(math.nextafter(iv.lo, 0.0))

    def test_narrow_spike_between_grid_points(self):
        spike = KnotOscillation(
            [(0.0, 0.0), (0.50001, 0.0), (0.500015, 1.0), (0.50002, 0.0), (1.0, 0.0)])
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0), UNIT_INTERVAL)
        res = upper_expectation(box, spike)
        lo, hi = res.bracket
        assert res.converged
        assert lo <= 0.75 <= hi
        # 1 - integral of a(t)^2 over the rising edge a(t) = 0.50001 + 5e-6 t
        exact = 1.0 - (0.500015 ** 3 - 0.50001 ** 3) / (3 * 5e-6)
        assert lo <= exact <= hi

    def test_black_box_spike_is_refused(self):
        # a black box must be monotone, so a spike, which needs knots, is
        # refused where a validation point sees it; one between the points
        # is not seen, and a black box's bracket rests on those points
        def spike(z):
            return 1.0 + 10.0 * np.maximum(0.0, 1.0 - np.abs(np.asarray(z, float) - 0.5)
                                           / SPIKE_W)

        with pytest.raises(ValidationError, match="^oscillation is not increasing on the"):
            Oscillation(spike)

    def test_spike_knots_bracket_the_exact_value(self):
        z0, w = SPIKE_Z0, SPIKE_W
        spike = KnotOscillation(
            [(0.0, 1.0), (z0 - w, 1.0), (z0, 11.0), (z0 + w, 1.0), (1.0, 1.0)])
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float)), UNIT_INTERVAL)
        res = upper_expectation(box, spike)
        # the cut at level t in (1, 11] is [z0 - h, z0 + h], h = w (11 - t) / 10,
        # of upper probability (z0 + h) - (z0 - h)^2
        exact = 1.0 + 10.0 * (z0 * (1.0 - z0) + w * (1.0 + 2.0 * z0) / 2.0 - w * w / 3.0)
        lo, hi = res.bracket
        assert res.converged
        assert lo <= exact <= hi

    def test_a_black_box_takes_no_knots(self):
        # a knot oscillation's function is the interpolation of its knots, so
        # the two cannot disagree, and a black box has no knots to disagree with
        with pytest.raises(TypeError):
            Oscillation(lambda z: np.asarray(z, float), knots=((0.0, 0.0), (1.0, 0.5)))
        osc = KnotOscillation(((0.0, 0.0), (1.0, 0.5)))
        zs = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_array_equal(osc.f(zs), np.interp(zs, (0.0, 1.0), (0.0, 0.5)))
        assert (osc.inf_value, osc.sup_value, osc.monotonicity) == (0.0, 0.5, INCREASING)


# cut sets of knots that do not span [0, 1] exactly, as the clipped segment
# crossings gave them: level -> (lo, hi) of each closed component
OFF_UNIT_CUTS = {
    "inside_unit": {
        -0.6: [(0.0, 1.0)],
        -0.2: [(0.0, 0.6399999999999999), (0.7545454545454545, 1.0)],
        0.3: [(0.0, 0.54), (0.8454545454545455, 1.0)],
        0.45: [(0.24285714285714285, 0.51), (0.8727272727272728, 1.0)],
        0.6: [(0.2857142857142857, 0.48), (0.9, 1.0)],
        0.8: [(0.34285714285714286, 0.44)],
        1.0: [(0.4, 0.4)],
        1.1: [],
    },
    "beyond_unit": {
        -0.2: [(0.0, 1.0)],
        0.0: [(0.0, 0.9705882352941176)],
        0.3: [(0.0, 0.05999999999999994), (0.4285714285714286, 0.8117647058823529)],
        0.45: [(0.4928571428571429, 0.7323529411764705)],
        0.6: [(0.5571428571428572, 0.6529411764705882)],
        0.7: [(0.6, 0.6)],
        0.75: [],
    },
}


class TestKnotNormalisation:
    @pytest.mark.parametrize("name", sorted(OFF_UNIT_CUTS))
    def test_knots_span_the_unit_interval(self, name):
        osc = KnotOscillation(KNOT_CASES[name])
        f = lambda z: float(np.interp(z, *zip(*KNOT_CASES[name])))
        assert osc.knots[0] == (0.0, f(0.0))
        assert osc.knots[-1] == (1.0, f(1.0))
        zs = np.linspace(0.0, 1.0, 10_001)
        np.testing.assert_array_equal(osc.f(zs), np.interp(zs, *zip(*KNOT_CASES[name])))

    @pytest.mark.parametrize("name", sorted(OFF_UNIT_CUTS))
    def test_cut_sets_are_kept(self, name):
        osc = KnotOscillation(KNOT_CASES[name])
        for t, want in OFF_UNIT_CUTS[name].items():
            cut = cut_event(osc, t).intervals
            assert not any(iv.lo_open or iv.hi_open for iv in cut)
            got = [(iv.lo, iv.hi) for iv in cut]
            # the crossing on the segment cut at z = 0 is now measured from
            # (0, 0.375): 0.06000000000000001 instead of 0.05999999999999994
            np.testing.assert_allclose(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)),
                                       rtol=0.0, atol=1e-16, err_msg=f"{name} at {t}")

    def test_knots_on_the_unit_interval_are_unchanged(self):
        for name in ("tent", "double_hump", "plateau", "increasing", "decreasing"):
            knots = tuple(KNOT_CASES[name])
            assert KnotOscillation(knots).knots == knots


def _inf_at_one(z):
    """``z``, and ``inf`` at 1."""
    z = np.asarray(z, dtype=float)
    return np.where(z < 1.0, z, math.inf)


class TestOscillationValidation:
    def test_monotonicity_checked(self):
        # the direction is read at 0 and 1, and the grid must not contradict it
        for f, direction in ((lambda z: np.minimum(z, 1.0 - np.asarray(z)), "increasing"),
                             (lambda z: np.abs(np.asarray(z) - 0.6), "decreasing")):
            with pytest.raises(ValidationError,
                               match=f"^oscillation is not {direction} on the validation grid$"):
                Oscillation(f)

    def test_bounds_checked(self):
        # the infimum of a bounded gamble is finite, at whichever end it is
        for f in (lambda z: np.log(np.asarray(z, dtype=float)),
                  lambda z: np.log(1.0 - np.asarray(z, dtype=float))):
            with np.errstate(divide="ignore"), pytest.raises(
                    ValidationError, match="^oscillation has an infinite infimum, -inf$"):
                Oscillation(f)
        with pytest.raises(ValidationError, match="^oscillation has an infinite infimum, inf$"):
            Oscillation(lambda z: np.asarray(z, dtype=float) * 0.0 + math.inf)

    def test_nan_is_refused(self):
        # a NaN level would reach the refinement of a bracket, where numpy
        # fails with "repeats may not contain negative values"
        def half_nan(z):
            z = np.asarray(z, dtype=float)
            return np.where(z > 0.5, np.nan, z)

        with pytest.raises(ValidationError, match="^oscillation is NaN on the validation grid$"):
            Oscillation(half_nan)

    def test_only_its_function_is_taken(self):
        for name, value in (("inf_value", 0.0), ("sup_value", 1.0),
                            ("monotonicity", INCREASING)):
            with pytest.raises(TypeError):
                Oscillation(lambda z: np.asarray(z, float), **{name: value})

    @pytest.mark.parametrize("f, bounds, direction", [
        (lambda z: np.asarray(z, dtype=float) * 0.0 + 2.5, (2.5, 2.5), INCREASING),
        (lambda z: np.asarray(z, dtype=float) ** 2 - 1.0, (-1.0, 0.0), INCREASING),
        (lambda z: 3.0 - 2.0 * np.asarray(z, dtype=float), (1.0, 3.0), DECREASING),
        (_inf_at_one, (0.0, math.inf), INCREASING),
        (lambda z: _inf_at_one(1.0 - np.asarray(z, dtype=float)), (0.0, math.inf), DECREASING),
        (lambda z: np.where(np.asarray(z) > 0.98, math.inf, z), (0.0, math.inf), INCREASING),
    ], ids=["constant", "increasing", "decreasing", "increasing_to_inf", "decreasing_from_inf",
            "inf_on_several_points"])
    def test_direction_and_bounds_are_read_at_the_ends(self, f, bounds, direction):
        osc = Oscillation(f)
        assert (osc.inf_value, osc.sup_value, osc.monotonicity) == (*bounds, direction)
        assert type(osc.inf_value) is float and type(osc.sup_value) is float

    def test_knot_oscillation_refuses_an_infinite_supremum(self):
        # its supremum is its greatest knot value, which must be finite
        with pytest.raises(ValidationError, match="^expected a finite number, got inf$"):
            KnotOscillation(((0.0, 0.0), (1.0, math.inf)))
        with pytest.raises(TypeError):
            Oscillation(_inf_at_one, knots=((0.0, 0.0), (1.0, 1.0)))


class TestKnotOscillation:
    # a spike of height 5 and width 2e-4, far narrower than the 129-point grid
    # on which a black box's declared bounds are checked
    SPIKE = ((0.0, 0.0), (0.5001, 0.0), (0.5002, 5.0), (0.5003, 0.0), (1.0, 0.0))

    def test_narrow_spike_brackets_its_exact_expectation(self):
        # under the uniform distribution the expectation is the spike's area,
        # 0.5 * 2e-4 * 5; bounds declared by a caller once gave -3.9995 here
        uniform = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
        osc = KnotOscillation(self.SPIKE)
        assert (osc.inf_value, osc.sup_value, osc.monotonicity) == (0.0, 5.0, GENERAL)
        for side in (lower_expectation, upper_expectation):
            res = side(PBox(uniform, uniform), osc)
            lo, hi = res.bracket
            assert res.converged and lo <= 0.0005 <= hi, side.__name__

    @given(st.lists(st.tuples(st.floats(-2.0, 3.0), st.floats(-1e6, 1e6)),
                    min_size=2, max_size=8, unique_by=lambda knot: knot[0]))
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold_every_stored_knot(self, knots):
        # the stored knots span [0, 1], and those at 0 and 1 are interpolated
        osc = KnotOscillation(sorted(knots))
        values = [v for _, v in osc.knots]
        assert osc.inf_value <= min(values) and max(values) <= osc.sup_value

    def test_cdf_shares_the_knot_list_check(self):
        for knots, message in (
                ([(0.0, 0.0), (0.0, 1.0)], "knot coordinates must be strictly increasing"),
                ([(-1e308, 0.0), (1e308, 1.0)],
                 "knot coordinates differ by more than the largest float")):
            for model in (KnotOscillation, PiecewiseLinearCdf):
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    model(knots)

    def test_equal_knot_oscillations_have_equal_bounds(self):
        assert KnotOscillation(self.SPIKE) == KnotOscillation(list(map(list, self.SPIKE)))
        assert "f=" not in repr(KnotOscillation(self.SPIKE))
        # the same stored knots, but bounds from knots beyond [0, 1]
        beyond = KnotOscillation(KNOT_CASES["beyond_unit"])
        inside = KnotOscillation(beyond.knots)
        assert inside.knots == beyond.knots
        assert (inside.inf_value, inside.sup_value) != (beyond.inf_value, beyond.sup_value)
        assert inside != beyond


class TestLowerExpectation:
    def test_constant_gamble_exact(self):
        res = lower_expectation(UNIFORM_BOX, constant_oscillation(2.5))
        assert res.value == 2.5
        assert res.error_bound == 0.0
        assert res.converged

    def test_identity_gamble_under_precise_uniform(self):
        osc = Oscillation(lambda z: np.asarray(z, dtype=float))
        res = lower_expectation(UNIFORM_BOX, osc, TIGHT)
        assert res.value == pytest.approx(0.5, abs=2e-6)
        assert res.converged

    def test_unbounded_lower_oscillation_rejected(self):
        with pytest.raises(ValidationError, match="is bounded$"):
            lower_expectation(UNIFORM_BOX, Oscillation(_inf_at_one))

    def test_finite_space_redirected(self):
        space = FiniteQuotientSpace(("a", "b"))
        box = PBox(StepCdf((0.3, 1.0)), StepCdf((0.7, 1.0)), space)
        with pytest.raises(ValidationError):
            lower_expectation(box, constant_oscillation(1.0))

    def test_constant_shift(self):
        base = named_oscillation("oscillator_lower")
        shifted = Oscillation(lambda z: base.f(z) + 3.0)
        assert (shifted.inf_value, shifted.sup_value) == (base.inf_value + 3.0,
                                                          base.sup_value + 3.0)
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        abs_tol = 1e-5
        a = lower_expectation(box, base, abs_tol)
        b = lower_expectation(box, shifted, abs_tol)
        assert b.value == pytest.approx(a.value + 3.0, abs=2 * abs_tol)

    def test_budget_exhaustion_is_flagged_not_raised(self):
        osc = named_oscillation("oscillator_lower")
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        # the oscillator stops on the grid cap, far from abs_tol
        res = lower_expectation(box, osc, 1e-9)
        assert not res.converged
        assert res.error_bound > 1e-9
        # the wider bracket is still correct
        exact = lower_expectation(box, osc, 1e-6)
        assert abs(res.value - exact.value) <= res.error_bound

    def test_bracket_width_halves_with_refinement(self):
        osc = named_oscillation("oscillator_lower")
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        coarse = lower_expectation(box, osc, 1e-3)
        fine = lower_expectation(box, osc, 1e-5)
        assert fine.error_bound < coarse.error_bound
        assert abs(fine.value - coarse.value) <= coarse.error_bound + fine.error_bound


class TestUpperExpectation:
    def test_identity_gamble_under_precise_uniform(self):
        osc = Oscillation(lambda z: np.asarray(z, dtype=float))
        res = upper_expectation(UNIFORM_BOX, osc, TIGHT)
        # integral of 1 - t over [0, 1] on top of inf = 0
        assert res.value == pytest.approx(0.5, abs=2e-6)

    def test_dominates_lower(self):
        losc = named_oscillation("oscillator_lower")
        uosc = named_oscillation("oscillator_upper")
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        low = lower_expectation(box, losc)
        high = upper_expectation(box, uosc)
        assert low.value <= high.value

    def test_batch_path_matches_event_path(self):
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        for osc, upper in ((named_oscillation("oscillator_lower"), False),
                           (named_oscillation("oscillator_upper"), True)):
            ts = np.linspace(osc.inf_value, osc.sup_value, 23)
            fast = _batch_cut_probs(box, osc, ts, upper)
            for t, val in zip(ts, fast):
                cut = cut_event(osc, float(t))
                if upper:
                    slow = upper_prob_event(box, complement_z(cut))
                else:
                    slow = lower_prob_event(box, cut)
                assert val == pytest.approx(slow, abs=1e-9)

    def test_gap_below_a_cut_reads_the_left_limit(self):
        # lower CDF 0 below 0.5, 0.6 from 0.5 on, 1 at 1; upper CDF 1: the
        # cut [t, 1] of the identity has complement [0, t), whose lower
        # probability is F_lower(t-), 0 at the jump itself
        def jump(z):
            z = np.asarray(z, dtype=float)
            return np.where(z >= 1.0, 1.0, np.where(z >= 0.5, 0.6, 0.0))

        def jump_left(z):
            return np.where(np.asarray(z, dtype=float) > 0.5, 0.6, 0.0)

        box = PBox(JumpCdf(jump, jump_left),
                   AnalyticCdf(lambda z: np.ones_like(np.asarray(z, float))), UNIT_INTERVAL)
        osc = Oscillation(lambda z: np.asarray(z, dtype=float))
        ts = np.array([0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(_batch_cut_probs(box, osc, ts, True),
                              1.0 - np.array([0.0, 0.0, 0.6, 0.6]))
        assert np.array_equal(_batch_cut_probs(box, osc, ts, False),
                              np.zeros(4))
        res = upper_expectation(box, osc, TIGHT)
        assert res.bracket[0] <= 0.5 + 0.5 * 0.4 <= res.bracket[1]

    def test_levels_near_the_float_range_warn_not(self):
        # the shares of the refinement overflow: each such cell is cut into
        # the most parts, with no numpy warning (an error under the test
        # configuration), and the value and bound stay as pinned
        osc = KnotOscillation([[0, -8e307], [1, 8e307]])
        res = upper_expectation(UNIFORM_BOX, osc)
        assert not res.converged
        assert res.value == pytest.approx(-9.9792015476736e+291, rel=1e-9)
        assert res.error_bound == pytest.approx(1.2207042892420372e+303, rel=1e-9)
        # the exact value, the mean of the line under a precise uniform law
        assert res.bracket[0] <= 0.0 <= res.bracket[1]


class TestScalarOnlyCallables:
    """A CDF or oscillation written for scalars only is looped over elements,
    and gives the expectations of its numpy equivalent bit for bit."""

    @staticmethod
    def expectations(lower, upper, f):
        box = PBox(AnalyticCdf(lower), AnalyticCdf(upper), UNIT_INTERVAL)
        osc = Oscillation(f)
        assert (osc.inf_value, osc.sup_value) == (0.0, 3.0)
        return lower_expectation(box, osc), upper_expectation(box, osc)

    def test_equal_to_the_vectorised_callables(self):
        def square(z):
            return float(z) * float(z)

        def rising(z):
            return 2.0 * math.sqrt(z) + z

        probe = np.array([0.25, 0.75])
        for scalar_only in (math.sqrt, square, rising):
            with pytest.raises(TypeError):
                scalar_only(probe)
        assert AnalyticCdf(math.sqrt).fn is not math.sqrt
        scalar = self.expectations(square, math.sqrt, rising)
        vector = self.expectations(lambda z: np.asarray(z, float) * z, np.sqrt,
                                   lambda z: 2.0 * np.sqrt(z) + z)
        assert scalar == vector
        assert all(result.converged for result in scalar)


class TestFiniteChoquet:
    def test_indicator_reduces_to_event(self, rng):
        for _ in range(20):
            n = rng.randint(2, 6)
            instance = random_credal_instance(rng, n)
            space = FiniteQuotientSpace(tuple(range(n)))
            box = PBox(StepCdf(tuple(map(float, instance.lower_cum))),
                       StepCdf(tuple(map(float, instance.upper_cum))), space)
            mask = rng.randrange(1, 1 << n)
            members = frozenset(i for i in range(n) if mask & (1 << i))
            gamble = [1.0 if i in members else 0.0 for i in range(n)]
            assert lower_expectation_finite(box, gamble) == pytest.approx(
                lower_prob_event(box, ClassSubset(members)), abs=1e-12)

    def test_matches_lp_oracle(self, rng):
        for _ in range(25):
            n = 4
            instance = random_credal_instance(rng, n)
            space = FiniteQuotientSpace(tuple(range(n)))
            box = PBox(StepCdf(tuple(map(float, instance.lower_cum))),
                       StepCdf(tuple(map(float, instance.upper_cum))), space)
            gamble = [rng.randrange(-400, 401) / 100 for _ in range(n)]
            assert lower_expectation_finite(box, gamble) == pytest.approx(
                lp_lower_expectation(instance, gamble), abs=1e-9)

    def test_precise_collapse(self, rng):
        cum = [0.2, 0.5, 0.9, 1.0]
        space = FiniteQuotientSpace(tuple(range(4)))
        box = PBox(StepCdf(tuple(cum)), StepCdf(tuple(cum)), space)
        masses = [0.2, 0.3, 0.4, 0.1]
        for _ in range(10):
            gamble = [rng.randrange(-300, 301) / 100 for _ in range(4)]
            expected = sum(p * g for p, g in zip(masses, gamble))
            assert lower_expectation_finite(box, gamble) == pytest.approx(
                expected, abs=1e-12)

    def test_dimension_mismatch(self):
        space = FiniteQuotientSpace(("a", "b"))
        box = PBox(StepCdf((0.3, 1.0)), StepCdf((0.7, 1.0)), space)
        with pytest.raises(ValidationError):
            lower_expectation_finite(box, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("gamble", [[-1e308, 1e308], [1e308, -1e308]])
    @pytest.mark.parametrize("lower", [0.0, 0.5])
    def test_gamble_wider_than_the_float_range(self, lower, gamble):
        # the least value can change by 2e308, which overflows a float; the
        # expectation, a mean of the two values, does not
        box = PBox(StepCdf((lower, 1.0)), StepCdf((0.5, 1.0)))
        instance = FiniteCredalInstance((lower, 1), (0.5, 1))
        assert lower_expectation_finite(box, gamble) == lp_lower_expectation(instance, gamble)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gamble_wider_than_the_float_range_on_random_instances(self, rng, n):
        # values near both ends of the float range, mixed with ordinary ones,
        # so an overflowing change can come after strips already summed
        pool = [-1.7976931348623157e308, -1e308, -1.0, 0.0, 2.5, 1e308,
                1.7976931348623157e308]
        for _ in range(40):
            instance = random_credal_instance(rng, n, rng.choice([4, 100, 1000]))
            box = PBox(StepCdf(tuple(map(float, instance.lower_cum))),
                       StepCdf(tuple(map(float, instance.upper_cum))))
            gamble = [rng.choice(pool) for _ in range(n)]
            got = lower_expectation_finite(box, gamble)
            assert math.isfinite(got)
            assert got == pytest.approx(lp_lower_expectation(instance, gamble),
                                        abs=1e-12 * max(1.0, *map(abs, gamble)))

    def test_cdfs_past_each_other_within_their_tolerance(self, rng):
        # a lower CDF above the upper one by 5e-11 at some classes, and a top
        # of 1 - 5e-10, both within what StepCdf and PBox accept, move the
        # value by about as much
        for _ in range(200):
            n = rng.randint(2, 8)
            upper = sorted(rng.randrange(4) / 4 for _ in range(n - 1)) + [1.0]
            lower = [u + 5e-11 if rng.random() < 0.5 else u for u in upper[:-1]]
            box = PBox(StepCdf(tuple(lower) + (1.0 - 5e-10,)), StepCdf(tuple(upper)))
            gamble = [rng.uniform(-10, 10) for _ in range(n)]
            assert lower_expectation_finite(box, gamble) == pytest.approx(
                run_scan_reference(box, gamble), abs=1e-8 * max(1.0, *map(abs, gamble)))

    def test_one_box_answers_every_gamble_as_a_fresh_one(self, rng):
        # the strips a box keeps after its first gamble give each later gamble,
        # bit for bit, the value of an equal box built for it alone; a lower
        # bound above the upper one by 5e-11 moves the value by under 1e-9
        # from the LP of the uncrossed bounds
        for _ in range(40):
            n = rng.randint(1, 10)
            instance = random_credal_instance(rng, n, rng.choice([4, 100, 1000]))
            lower = tuple(float(v) + (5e-11 if i < n - 1 and rng.random() < 0.5 else 0.0)
                          for i, v in enumerate(instance.lower_cum))
            upper = tuple(map(float, instance.upper_cum))
            box = PBox(StepCdf(lower), StepCdf(upper))
            for _ in range(25):
                gamble = [rng.randrange(-200, 201) / 100 for _ in range(n)]
                got = lower_expectation_finite(box, gamble)
                fresh = lower_expectation_finite(PBox(StepCdf(lower), StepCdf(upper)), gamble)
                assert got.hex() == fresh.hex()
                assert got == pytest.approx(lp_lower_expectation(instance, gamble), abs=1e-9)

    def test_a_box_finds_its_strips_once_and_only_for_gambles(self, rng, monkeypatch):
        built = []
        find = PBox.random_set.func

        def counted(box):
            built.append(box)
            return find(box)

        prop = functools.cached_property(counted)
        prop.__set_name__(PBox, "random_set")
        monkeypatch.setattr(PBox, "random_set", prop)
        instance = random_credal_instance(rng, 6)
        lower, upper = (tuple(map(float, cum)) for cum in (instance.lower_cum, instance.upper_cum))
        events_only = PBox(StepCdf(lower), StepCdf(upper))
        for mask in range(1, 1 << 6):
            event = ClassSubset(frozenset(i for i in range(6) if mask >> i & 1))
            lower_prob_event(events_only, event)
            upper_prob_event(events_only, event)
        assert built == []
        box = PBox(StepCdf(lower), StepCdf(upper))
        for _ in range(10):
            lower_expectation_finite(box, [rng.uniform(-1, 1) for _ in range(6)])
        assert built == [box]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_run_scan_equals_per_level_events_bitwise(self, data):
        # a CDF value of 0.0 or -0.0, tied cumulative bounds and tied gamble
        # values, and ints mixed with floats, each in its own class; one
        # non-empty event through lower_prob_event's share of the run sum
        n = data.draw(st.integers(1, 12), label="n")
        bound = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                          st.floats(0.0, 1.0))
        a = sorted(data.draw(st.lists(bound, min_size=n - 1, max_size=n - 1), label="a"))
        b = sorted(data.draw(st.lists(bound, min_size=n - 1, max_size=n - 1), label="b"))
        box = PBox(StepCdf(tuple(min(x, y) for x, y in zip(a, b)) + (1.0,)),
                   StepCdf(tuple(max(x, y) for x, y in zip(a, b)) + (1.0,)))
        value = st.one_of(st.integers(-3, 3), st.sampled_from([0.0, -0.0, 0.5, -1.5]),
                          st.floats(-1e6, 1e6, allow_nan=False))
        gamble = data.draw(st.lists(value, min_size=n, max_size=n), label="gamble")
        assert run_scan_reference(box, gamble).hex() == finite_sum_reference(box, gamble).hex()
        # the random-set sum, against the exact value of the same floats
        got = lower_expectation_finite(box, gamble)
        assert type(got) is float
        instance = FiniteCredalInstance(tuple(map(Fraction, box.lower.values)),
                                        tuple(map(Fraction, box.upper.values)))
        exact = chain_vertex_min(instance, gamble)
        assert abs(Fraction(got) - exact) <= 1e-12 * max(1.0, *map(abs, gamble))
        mask = data.draw(st.integers(1, (1 << n) - 1), label="event")
        event = ClassSubset(frozenset(i for i in range(n) if mask >> i & 1))
        assert lower_prob_event(box, event).hex() == event_reference(box, event).hex()


def staircase(values):
    """A step CDF on [0, 1] whose class k is the cell ``(k/n, (k+1)/n]``
    (class 0 also holds 0), vectorised, with its class lookup."""
    values = np.asarray(values)
    edges = np.arange(1, len(values)) / len(values)

    def class_of(z):
        return np.searchsorted(edges, np.asarray(z, dtype=float))

    def fn(z):
        return values[class_of(z)]

    # every class is closed on the right, so the left limit is the value
    # itself except at the bottom of the continuum, as for any AnalyticCdf
    return AnalyticCdf(fn), class_of


def staircase_case(rng, n):
    """A random finite p-box on ``n`` classes, its staircase embedding on the
    continuum, a sorted gamble and the class lookup of the staircases."""
    instance = random_credal_instance(rng, n, denominator=16)
    lower = [float(v) for v in instance.lower_cum]
    upper = [float(v) for v in instance.upper_cum]
    gamble = np.sort([rng.randrange(0, 400) / 100 for _ in range(n)])
    finite_box = PBox(StepCdf(tuple(lower)), StepCdf(tuple(upper)),
                      FiniteQuotientSpace(tuple(range(n))))
    (lower_cdf, class_of), (upper_cdf, _) = staircase(lower), staircase(upper)
    cont_box = PBox(lower_cdf, upper_cdf, UNIT_INTERVAL, validation_grid=256)
    return finite_box, cont_box, gamble, class_of


def finite_values(finite_box, gamble):
    """The exact lower and upper expectations of ``gamble`` on the finite space."""
    return (lower_expectation_finite(finite_box, gamble),
            -lower_expectation_finite(finite_box, -gamble))


class TestStaircaseAgreement:
    def test_finite_and_continuum_paths_agree(self, rng):
        """Quadrature on a staircase embedding of a finite p-box brackets the
        finite run-loop value on both sides, and the two share no code
        below the expectation."""
        abs_tol = 1e-5
        for n in (4, 12, 25, 50, 100):
            for _ in range(10):
                finite_box, cont_box, gamble, _ = staircase_case(rng, n)
                # a continuous ramp from g[k] to g[k + 1] on the second half
                # of class k's cell, where both staircases are flat: the cut
                # {osc >= t} for t in (g[k], g[k + 1]] is [z, 1] with z in
                # class k, of the same probabilities as the classes above k
                halves = (np.arange(n - 1) + 0.5) / n
                edges = np.arange(1, n) / n
                zs = np.concatenate([[0.0], np.column_stack([halves, edges]).ravel(), [1.0]])
                vs = np.concatenate([[gamble[0]],
                                     np.column_stack([gamble[:-1], gamble[1:]]).ravel(),
                                     [gamble[-1]]])
                osc = Oscillation(lambda z: np.interp(z, zs, vs))
                for side, exact in zip((lower_expectation, upper_expectation),
                                       finite_values(finite_box, gamble)):
                    approx = side(cont_box, osc, abs_tol)
                    assert approx.converged
                    assert approx.value == pytest.approx(exact, abs=1e-5 + 1e-12)
                    lo, hi = approx.bracket
                    assert lo - 1e-12 <= exact <= hi + 1e-12

    def test_step_gamble_brackets_the_finite_value(self, rng):
        """A monotone step gamble, integrated over its coordinate without an
        inverse, still brackets the exact value on both sides: the jumps of
        the gamble and of the staircases meet at the class edges, so the
        bracket need not converge, but it holds for discontinuous gambles."""
        abs_tol = 1e-5
        for n in (4, 12, 25):
            for _ in range(10):
                finite_box, cont_box, gamble, class_of = staircase_case(rng, n)
                osc = Oscillation(lambda z: gamble[class_of(z)])
                for side, exact in zip((lower_expectation, upper_expectation),
                                       finite_values(finite_box, gamble)):
                    lo, hi = side(cont_box, osc, abs_tol).bracket
                    assert lo - 1e-12 <= exact <= hi + 1e-12, (n, side.__name__)


class CountingBatch:
    """A vectorised callable that counts its calls and the points passed."""

    def __init__(self, g):
        self.g, self.calls, self.levels = g, 0, 0

    def __call__(self, ts):
        self.calls += 1
        self.levels += len(ts)
        return self.g(ts)


def doubling_cost(width, drop, abs_tol):
    """Rounds and evaluations of uniform grid doubling from 16 cells.

    On a uniform grid the bracket of a non-increasing integrand is exactly
    ``cell width * (g(a) - g(b))``, so the cost follows in closed form.
    """
    rounds, cells = 0, 16
    while width / cells * drop >= abs_tol:
        rounds, cells = rounds + 1, 2 * cells
    return rounds, cells + 1


def long_tail(ts):
    return np.exp(-ts)


def step_with_flat_tail(ts):
    return 0.2 + 0.5 * (ts < 1.0) + 0.3 * (ts < 2.5)


class TestAdaptiveDarboux:
    @pytest.mark.parametrize("g, exact", [
        (long_tail, 1.0 - math.exp(-40.0)),
        (step_with_flat_tail, 0.2 * 40.0 + 0.5 * 1.0 + 0.3 * 2.5),
    ])
    def test_bracket_contains_closed_form(self, g, exact):
        abs_tol = 1e-4
        mid, half, converged, _ = _darboux(g, 0.0, 40.0, abs_tol)
        assert converged
        assert half < 0.5 * abs_tol
        assert mid - half <= exact <= mid + half

    def test_linear_integrand_costs_at_most_doubling(self):
        abs_tol = 1e-4
        batch = CountingBatch(lambda ts: 1.0 - ts)
        _, _, converged, rounds = _darboux(batch, 0.0, 1.0, abs_tol)
        assert converged
        assert batch.levels <= doubling_cost(1.0, 1.0, abs_tol)[1]
        # one batch per round
        assert batch.calls == rounds + 1

    def test_long_tail_needs_a_quarter_of_doubling(self):
        abs_tol = 1e-4
        batch = CountingBatch(long_tail)
        _, _, converged, rounds = _darboux(batch, 0.0, 40.0, abs_tol)
        doubling_rounds, doubling_levels = doubling_cost(40.0, 1.0 - math.exp(-40.0),
                                                         abs_tol)
        assert converged
        assert rounds <= doubling_rounds
        assert batch.levels <= doubling_levels / 4

    def test_level_dip_within_validation_dust_is_tolerated(self):
        # increasing from f(0) to f(1), but f drops by 9e-10 at 0.5, which
        # the 1e-9 slack of the validation grid lets through: the cells
        # across the drop have negative level steps
        def f(z):
            z = np.asarray(z, dtype=float)
            return 1e-6 * z - 9e-10 * (z > 0.5)

        osc = Oscillation(f)
        res = upper_expectation(UNIFORM_BOX, osc, 1e-11)
        assert res.converged
        assert res.bracket[0] <= 0.5e-6 - 0.5 * 9e-10 <= res.bracket[1]

    def test_dike_upper_evaluates_fewer_levels_than_bisection(self, monkeypatch):
        # halving the cells with a large share of the bracket each round took
        # 130,805 levels for the dike's upper expectation at abs_tol 1e-4
        batches = []

        def counted(batch, *args, **kwargs):
            batches.append(CountingBatch(batch))
            return _darboux(batches[-1], *args, **kwargs)

        monkeypatch.setattr(choquet, "_darboux", counted)
        box = builtin_scenario("dike").pbox
        res = upper_expectation(box, named_oscillation("dike_upper"),
                                1e-4, named_tail("dike_upper", box))
        assert res.converged
        assert len(batches) == 1
        assert batches[0].levels < 130_805

    @pytest.mark.parametrize("case", ["oscillator_lower", "oscillator_upper", "dike_lower",
                                      "dike_upper"])
    def test_brackets_nest(self, case):
        box, osc = builtin_scenario(case.split("_")[0]).pbox, named_oscillation(case)
        # at 1e-6 the dike's upper level grid reaches its cap of 2**21 before converging
        fine_tol = 1e-5 if case == "dike_upper" else 1e-6
        if case.endswith("upper"):
            def compute(box, osc, abs_tol):
                return upper_expectation(box, osc, abs_tol, named_tail(case, box))
        else:
            compute = lower_expectation
        coarse = compute(box, osc, 1e-3)
        fine = compute(box, osc, fine_tol)
        assert coarse.converged and fine.converged
        assert fine.error_bound < 0.5 * fine_tol
        assert coarse.bracket[0] - 1e-12 <= fine.bracket[0]
        assert fine.bracket[1] <= coarse.bracket[1] + 1e-12

    @pytest.mark.parametrize("case", ["oscillator_lower", "oscillator_upper", "dike_lower",
                                      "dike_upper"])
    def test_case_studies_stop_before_the_round_bound(self, case):
        # converged or not, each stops on its bracket or its grid, never on
        # the count of rounds, from the coarsest tolerance to the finest
        box, osc = builtin_scenario(case.split("_")[0]).pbox, named_oscillation(case)
        for tol in (1e-3, 1e-4, 1e-6, 1e-8, 1e-12):
            res = (upper_expectation(box, osc, tol, named_tail(case, box))
                   if case.endswith("upper") else lower_expectation(box, osc, tol))
            assert res.refinements < choquet._MAX_ROUNDS, tol


def _jumping_cdf_box():
    """A lower CDF that jumps by 0.3 at 0.5, with its own left limit, and an
    upper CDF of float32 values, which are read as floats."""
    return PBox(JumpCdf(lambda z: 0.7 * np.asarray(z) + 0.3 * (np.asarray(z) >= 0.5),
                        lambda z: 0.7 * np.asarray(z) + 0.3 * (np.asarray(z) > 0.5)),
                AnalyticCdf(lambda z: np.minimum(1.0, 0.8 * np.asarray(z) + 0.3).astype(
                    np.float32)),
                UNIT_INTERVAL)


ANCHORED_BOXES = {
    # positive first knot values: both CDFs jump at 0
    "jump_at_zero": lambda: PBox(PiecewiseLinearCdf(((0.0, 0.2), (0.5, 0.6), (1.0, 1.0))),
                                 PiecewiseLinearCdf(((0.0, 0.4), (0.3, 0.9), (1.0, 1.0))),
                                 UNIT_INTERVAL),
    "uniform_one": lambda: PBox(named_cdf("uniform"), named_cdf("one"), UNIT_INTERVAL),
    "left_limit_jump": _jumping_cdf_box,
    "dike_frechet": lambda: builtin_scenario("dike").pbox,
    "oscillator_independence": lambda: builtin_scenario("oscillator").pbox,
}


class TestAnchoredReads:
    """The coordinate grid's direct CDF reads against the generic piece formula."""

    # three chunks of the grid: the ends 0 and 1, the points next to them
    # (1 - 2**-53 is the float below 1) and a chunk without either end
    GRID = np.sort(np.concatenate([np.linspace(0.0, 1.0, 20_001),
                                   [2.0 ** -53, 1e-300, 0.5 - 2.0 ** -54, 1.0 - 2.0 ** -53]]))

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("rising", [True, False], ids=["increasing", "decreasing"])
    @pytest.mark.parametrize("name", sorted(ANCHORED_BOXES))
    def test_reads_match_the_piece_formula_bit_for_bit(self, name, rising, upper):
        box = ANCHORED_BOXES[name]()
        osc = Oscillation(lambda z: np.asarray(z, dtype=float) if rising
                          else 1.0 - np.asarray(z, dtype=float))
        assert (osc.inf_value, osc.sup_value) == (0.0, 1.0)
        assert len(self.GRID) > 2 * choquet._CHUNK
        _, probs = choquet._coordinate_grid(box, osc, upper, 0.0, 1.0)
        # the grid, and the one- and two-point calls at its ends
        for s in (self.GRID, np.zeros(1), np.ones(1), np.array([0.0, 1.0])):
            got, want = probs(s), anchored_probs(box, rising, upper, s)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), len(s)


@st.composite
def integrands(draw):
    """Non-increasing runs with flat stretches, rises of float dust (up to
    1e-7) or beyond it, ties of 0.0 and -0.0, and NaNs."""
    g = [draw(st.sampled_from([1.0, 0.5, 0.0, -0.0]) | st.floats(0.0, 1.0))]
    for step in draw(st.lists(st.sampled_from(
            ["flat", "drop", "dust", "rise", "zero", "signed_zero", "nan"]), max_size=40)):
        prev = g[-1]
        if step == "flat":
            g.append(prev)
        elif step == "drop":
            g.append(prev - draw(st.floats(0.0, 1.0)))
        elif step == "dust":
            g.append(prev + draw(st.floats(0.0, 1e-7)))
        elif step == "rise":
            g.append(prev + draw(st.floats(1e-7, 1.0, exclude_min=True)))
        elif step == "zero":
            g.append(draw(st.sampled_from([0.0, -0.0])))
        elif step == "signed_zero":
            g.append(-prev if prev == 0.0 else prev)
        else:
            g.append(math.nan)
    return np.array(g)


class TestMonotoneIntegrand:
    @settings(max_examples=400, deadline=None)
    @given(integrands())
    # a rise of one subnormal, ties of signed zeros, a NaN between falls
    @example(np.array([0.0, 5e-324]))
    @example(np.array([0.5, 0.0, -0.0, -0.0, 0.0]))
    @example(np.array([1.0, math.nan, 0.5]))
    def test_equals_the_running_minimum(self, g):
        if np.any(np.diff(g) > 1e-7):
            with pytest.raises(ValidationError, match="increased with the level"):
                _monotone_integrand(g.copy())
            return
        expected = np.minimum.accumulate(g)
        assert _monotone_integrand(g.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("g", [[0.5, 0.5 + 2e-7], [0.0, -0.0, 1e-7 + 1e-9],
                                   [1.0, math.nan, 0.4, 0.6]], ids=["rise", "after_zeros",
                                                                    "after_nan"])
    def test_rise_beyond_dust_raises(self, g):
        with pytest.raises(ValidationError, match="increased with the level"):
            _monotone_integrand(np.array(g))

    def test_nan_spreads_forward(self):
        # a NaN makes the skip test false, so the running minimum spreads it
        out = _monotone_integrand(np.array([1.0, math.nan, 0.5, 0.25]))
        assert out[0] == 1.0 and np.isnan(out[1:]).all()


class TestMemory:
    # bytes traced by the same call when the dike's cut sets came from its
    # registered inverse on a level grid
    LEVEL_GRID_PEAK = 7_241_228

    def test_dike_upper_expectation_peak(self):
        """Integrating over the coordinate keeps the grid and the cut
        probabilities only, and evaluates the curve and the CDFs in chunks."""
        box, osc = builtin_scenario("dike").pbox, named_oscillation("dike_upper")
        upper_expectation(box, osc)  # warm-up: caches and first-call allocations
        tracemalloc.start()
        try:
            upper_expectation(box, osc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.LEVEL_GRID_PEAK


def _blow_up(z):
    """``(1 - z)**(-2/3) - 1``: under a lower CDF ``z`` and an upper CDF 1 the
    upper cut probability at level t is ``(1 + t)**(-3/2)``, so the upper
    expectation is exactly 2 and the integral beyond ``T`` is ``2 / sqrt(1 +
    T)``."""
    with np.errstate(divide="ignore"):
        return (1.0 - np.asarray(z, dtype=float)) ** (-2.0 / 3.0) - 1.0


def _blow_up_tail(t):
    """``2 / sqrt(1 + t)``, rounded up."""
    return math.nextafter(2.0 / math.sqrt(1.0 + t) * (1.0 + 2.0 ** -40), math.inf)


BLOW_UP_BOX = PBox(named_cdf("uniform"), named_cdf("one"))


class TestCertifiedTails:
    # abs_tol of the three reproducer rows, which the level search this
    # replaced reported converged without containing the exact 2
    ROWS = (1e-3, 0.05, 0.01)

    @pytest.mark.parametrize("abs_tol", ROWS)
    def test_no_converged_bracket_misses_the_exact_value(self, abs_tol):
        osc = Oscillation(_blow_up)
        assert osc.sup_value == math.inf
        for tail in (None, _blow_up_tail):
            res = upper_expectation(BLOW_UP_BOX, osc, abs_tol, tail)
            assert math.isfinite(res.value) and math.isfinite(res.error_bound)
            # the lower end is a lower bound, certificate or not
            assert res.bracket[0] <= 2.0
            if res.converged:
                assert res.bracket[0] <= 2.0 <= res.bracket[1]
                assert res.error_bound < 0.5 * abs_tol
            if tail is None:  # nothing bounds the tail
                assert not res.converged

    @pytest.mark.parametrize("abs_tol", [0.05, 0.01])
    def test_a_certificate_lets_the_reproducer_converge(self, abs_tol):
        res = upper_expectation(BLOW_UP_BOX, Oscillation(_blow_up),
                                abs_tol, _blow_up_tail)
        assert res.converged and res.bracket[0] <= 2.0 <= res.bracket[1]

    def test_truncation_reads_the_certificate_alone(self, monkeypatch):
        osc = Oscillation(_blow_up)
        levels = []

        def tail(t):
            levels.append(t)
            return _blow_up_tail(t)

        seen = []
        original = choquet._coordinate_grid

        def grid(pbox, osc_, upper, a, b):
            seen.append(b)
            return original(pbox, osc_, upper, a, b)

        monkeypatch.setattr(choquet, "_coordinate_grid", grid)
        abs_tol = 1e-3
        upper_expectation(BLOW_UP_BOX, osc, abs_tol, tail)
        # the first a + 2**k whose certificate is within its share of abs_tol
        k = len(levels) - 1
        assert levels == [osc.inf_value + 2.0 ** j for j in range(k + 1)]
        assert _blow_up_tail(levels[-1]) <= choquet._TAIL_SHARE * abs_tol
        assert _blow_up_tail(levels[-2]) > choquet._TAIL_SHARE * abs_tol
        assert seen == [levels[-1]]

    @pytest.mark.parametrize("bound", [math.nan, -1e-300, "0.1", None, True,
                                       np.array([0.1])])
    def test_a_certificate_must_give_a_number_at_least_0(self, bound):
        with pytest.raises(ValidationError, match="^a tail certificate gave"):
            upper_expectation(BLOW_UP_BOX, Oscillation(_blow_up), choquet._ABS_TOL,
                              lambda t: bound)

    @pytest.mark.parametrize("bound", [1.0, math.inf, 0.5 * choquet._ABS_TOL])
    def test_a_certificate_above_its_share_never_converges(self, bound):
        # 64 doublings and no level within the share: no error is raised,
        # and a finite charge still widens the bracket
        levels = []

        def tail(t):
            levels.append(t)
            return bound

        res = upper_expectation(BLOW_UP_BOX, Oscillation(_blow_up), choquet._ABS_TOL, tail)
        assert len(levels) == 64 and not res.converged
        assert math.isfinite(res.value) and math.isfinite(res.error_bound)
        if math.isfinite(bound):
            assert res.error_bound >= 0.5 * bound

    def test_no_infinite_level_reaches_the_quadrature(self, monkeypatch):
        seen = []
        original = choquet._darboux

        def darboux(batch, lo, hi, tol, level):
            seen.append(level(np.linspace(lo, hi, 5)))
            return original(batch, lo, hi, tol, level)

        monkeypatch.setattr(choquet, "_darboux", darboux)
        for f in (_blow_up, _inf_at_one, lambda z: _inf_at_one(1.0 - np.asarray(z, float)),
                  lambda z: np.where(np.asarray(z) > 0.98, math.inf, z)):
            for tail in (None, lambda t: 0.0):
                res = upper_expectation(BLOW_UP_BOX, Oscillation(f), choquet._ABS_TOL, tail)
                assert math.isfinite(res.value) and math.isfinite(res.error_bound)
                assert res.converged == (tail is not None)
        assert seen and all(np.isfinite(levels).all() for levels in seen)

    def test_without_a_certificate_the_grid_top_truncates(self):
        # the top finite level of the dike's upper oscillation on its grid
        osc = named_oscillation("dike_upper")
        top = float(osc.f(1.0 - 2.0 ** -52))
        assert math.isinf(float(osc.f(1.0 - 2.0 ** -53)))
        assert choquet._grid_top(osc) == top == pytest.approx(29.63, abs=0.01)
        a, b, charge = choquet._integrand(BLOW_UP_BOX, osc, choquet._ABS_TOL)
        assert (a, b, charge) == (osc.inf_value, top, math.inf)

    def test_a_bounded_oscillation_ignores_a_certificate(self):
        osc = Oscillation(lambda z: np.asarray(z, dtype=float))
        plain = upper_expectation(UNIFORM_BOX, osc, TIGHT)
        assert upper_expectation(UNIFORM_BOX, osc, TIGHT, lambda t: math.nan) == plain


class TestThresholdSolve:
    def test_trivial_target_one(self):
        osc = named_oscillation("oscillator_upper")
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        assert threshold_solve(box, osc, 1.0) == QuadratureResult(osc.inf_value, 0.0, True)

    def test_matches_direct_inversion(self):
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, float) ** 2),
                   AnalyticCdf(lambda z: np.asarray(z, float) * 0 + 1.0),
                   UNIT_INTERVAL)
        osc = named_oscillation("oscillator_upper")
        target = 0.3
        res = threshold_solve(box, osc, target)
        # direct inversion: upper cut probability is 1 - (boundary)^2
        boundary = math.sqrt(1.0 - target)
        assert float(osc.f(boundary)) == pytest.approx(res.value, abs=1e-6)
        assert res.converged and res.refinements > 0

    @pytest.mark.parametrize("upper_cdf, knots, target", [
        # the upper CDF jumps to 0.5 at 0, so the cut of the supremum of 1 - z,
        # the point {0}, keeps upper probability 0.5
        (PiecewiseLinearCdf(((0.0, 0.5), (1.0, 1.0))), ((0.0, 1.0), (1.0, 0.0)), 0.3),
        # a flat top: the cut of the supremum is [0.5, 1], of upper probability 0.5
        (named_cdf("one"), ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)), 0.1),
    ], ids=["decreasing", "flat_top"])
    def test_a_missed_supremum_cut_gives_the_supremum_on_both_paths(self, upper_cdf, knots,
                                                                     target):
        # every level above the supremum cuts nothing, so the threshold, the
        # infimum of the levels whose cut meets the target, is the supremum
        box = PBox(named_cdf("uniform"), upper_cdf)
        exact, black_box = monotone_black_box(knots)
        for osc in (exact, black_box):
            res = threshold_solve(box, osc, target)
            assert (res.bracket, res.converged) == ((1.0, 1.0), True), osc

    def test_a_met_supremum_cut_is_searched_up_to_it(self):
        # the cut of 1 - z at a level t below 1 is [0, 1 - t], of upper
        # probability 1 - t / 2 above the target 0.5, which the supremum's meets
        box = PBox(named_cdf("uniform"), PiecewiseLinearCdf(((0.0, 0.5), (1.0, 1.0))))
        exact, black_box = monotone_black_box(((0.0, 1.0), (1.0, 0.0)))
        for osc in (exact, black_box):
            res = threshold_solve(box, osc, 0.5)
            lo, hi = res.bracket
            # 1 - t / 2 rounds to 0.5 within a few float steps of 1, so those
            # levels stay in the bracket, which holds the threshold 1
            assert lo < hi == 1.0 and res.converged, osc

    @pytest.mark.parametrize("box", [
        UNIFORM_BOX, PBox(named_cdf("uniform"), named_cdf("uniform"))], ids=["analytic", "linear"])
    def test_a_threshold_that_rounding_blurs_stays_in_the_bracket(self, box):
        # 2 z - 1 on a precise uniform box has the upper cut probability
        # (1 - t) / 2, which rounds to the target 0.5 at levels a few float
        # steps from the threshold 0, on either side
        exact, black_box = monotone_black_box(((0.0, -1.0), (1.0, 1.0)))
        for osc in (exact, black_box):
            res = threshold_solve(box, osc, 0.5)
            lo, hi = res.bracket
            assert lo < 0.0 < hi and res.converged, osc

    def test_cut_rounding(self):
        # per component 4 (r + u), r = 10 u for a read of a piecewise-polynomial
        # CDF and 0 for an analytic one; a knot cut drifts by 7 u times the
        # steepest segment's slope, here 3 / 0.5
        u = 2.0 ** -53
        tent = KnotOscillation(((0.0, 0.0), (0.5, 3.0), (1.0, 0.0)))
        black_box = Oscillation(lambda z: np.asarray(z, dtype=float))
        assert choquet._cut_rounding(UNIFORM_BOX, black_box) == (4.0 * u, 0.0)
        assert choquet._cut_rounding(BLOW_UP_BOX, black_box) == (44.0 * u, 0.0)
        assert choquet._cut_rounding(UNIFORM_BOX, tent) == (8.0 * u, 42.0 * u)

    def test_invalid_target(self):
        osc = named_oscillation("oscillator_upper")
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf, 10**400):
            with pytest.raises(ValidationError, match=r"^threshold target must lie in \(0, 1\]"):
                threshold_solve(UNIFORM_BOX, osc, bad)

    @pytest.mark.parametrize("bad, name", [(True, "bool"), ("0.5", "str"), (None, "NoneType")])
    def test_a_target_that_is_no_number_is_refused(self, bad, name):
        # a boolean is no number, though Python takes True for 1
        for osc in (KnotOscillation(((0.0, 0.0), (1.0, 1.0))),
                    named_oscillation("oscillator_upper")):
            with pytest.raises(TypeError, match=f"^expected a number, got {name}$"):
                threshold_solve(UNIFORM_BOX, osc, bad)

    def test_numeric_targets_of_other_types(self):
        osc = named_oscillation("oscillator_upper")
        want = threshold_solve(UNIFORM_BOX, osc, 0.5)
        for target in (Fraction(1, 2), np.float64(0.5), np.float32(0.5)):
            assert threshold_solve(UNIFORM_BOX, osc, target) == want
        assert threshold_solve(UNIFORM_BOX, osc, 1) == threshold_solve(UNIFORM_BOX, osc, 1.0)


def _bracketed_calls():
    """Each bracketed call of the library, as a function of its tolerance: the
    engine's three, the exact path of a knot oscillation, and ``run_query``
    on an event, whose result takes no tolerance but whose call checks it."""
    osc = named_oscillation("oscillator_lower")
    knots = KnotOscillation(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    polynomial = PBox(named_cdf("uniform"), named_cdf("one"))
    event = Query("e", "event_lower", UNIFORM_BOX, event=FULL_EVENT)
    return {
        "lower_expectation": lambda tol: lower_expectation(UNIFORM_BOX, osc, tol),
        "exact lower_expectation": lambda tol: lower_expectation(polynomial, knots, tol),
        "upper_expectation": lambda tol: upper_expectation(UNIFORM_BOX, osc, tol),
        "threshold_solve": lambda tol: threshold_solve(UNIFORM_BOX, osc, 0.5, tol),
        "threshold_solve at 1": lambda tol: threshold_solve(UNIFORM_BOX, osc, 1.0, tol),
        "run_query": lambda tol: run_query(event, tol),
    }


class TestTolerance:
    def test_one_tolerance(self):
        # cut ends and thresholds run to the float; abs_tol is the only tolerance,
        # a number with one default
        for fn, params in ((lower_expectation, ["pbox", "losc", "abs_tol"]),
                           (upper_expectation, ["pbox", "uosc", "abs_tol", "tail"]),
                           (threshold_solve, ["pbox", "uosc", "target", "abs_tol"]),
                           (run_query, ["query", "abs_tol"])):
            signature = inspect.signature(fn).parameters
            assert list(signature) == params, fn.__name__
            assert signature["abs_tol"].default == choquet._ABS_TOL == 1e-4
        for name in ("QuadratureConfig", "DEFAULT_CONFIG"):
            assert name not in pboxes.__all__
            assert not hasattr(pboxes, name) and not hasattr(choquet, name)

    @pytest.mark.parametrize("call", sorted(_bracketed_calls()))
    def test_tolerance_floor(self, call):
        run = _bracketed_calls()[call]
        # the floor itself is honoured
        assert run(1e-12).value is not None
        with pytest.raises(ValidationError, match="^abs_tol below 1e-12 is not honoured$"):
            run(1e-15)

    @pytest.mark.parametrize("call", sorted(_bracketed_calls()))
    def test_non_finite_tolerance_rejected(self, call):
        run = _bracketed_calls()[call]
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"^expected a finite number, got {bad}$"):
                run(bad)
        with pytest.raises(TypeError):
            run("1e-4")


class TestThresholdSearch:
    CASES = {
        # unbounded upper oscillation: like every black box, the search runs
        # over its coordinate, whose range is [0, 1] whatever the levels' range
        "dike": (lambda: builtin_scenario("dike").pbox,
                 lambda: named_oscillation("dike_upper"), 0.01),
        "oscillator": (lambda: builtin_scenario("oscillator").pbox,
                       lambda: named_oscillation("oscillator_upper"), 0.3),
    }

    @staticmethod
    def scalar_bisection(prob, osc, target):
        """Adjacent float levels around the least level whose cut probability
        ``prob`` meets ``target``, by one level at a time."""
        lo = osc.inf_value
        if math.isinf(osc.sup_value):
            span = 1.0
            while prob(lo + span) > target:
                span *= 2.0
            hi = lo + span
        else:
            hi = osc.sup_value
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if prob(mid) <= target:
                hi = mid
            else:
                lo = mid
        return lo, hi

    @staticmethod
    def level_prob(box, osc):
        """The upper cut probability at one level, with the level-space cut
        sets, whose black-box ends are bisected to the float."""
        return lambda t: float(_batch_cut_probs(box, osc, np.array([t]), True)[0])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_answer_brackets_the_target(self, name):
        make_box, make_osc, target = self.CASES[name]
        box, osc = make_box(), make_osc()
        prob = self.level_prob(box, osc)
        res = threshold_solve(box, osc, target)
        lo, hi = res.bracket
        # the threshold is the least level whose cut meets the target: the
        # bracket's top meets it and its bottom does not
        assert prob(hi) <= target < prob(lo)
        # the two searches bracket the same threshold
        scalar_lo, scalar_hi = self.scalar_bisection(prob, osc, target)
        assert max(lo, scalar_lo) <= min(hi, scalar_hi)
        assert res.converged and res.error_bound < 1e-12

    def test_a_jump_at_the_threshold(self):
        # every level in (0.9, 1.4] cuts [0.9, 1], of upper probability 0.1,
        # and so does 0.9; a level below 0.9 cuts more
        box = PBox(named_cdf("uniform"), named_cdf("one"))
        osc = Oscillation(lambda z: np.asarray(z, float) + 0.5 * (np.asarray(z, float) >= 0.9))
        res = threshold_solve(box, osc, 0.1)
        lo, hi = res.bracket
        assert lo <= 0.9 <= hi
        assert not res.converged

    @pytest.mark.parametrize("target", [1e-12, 1e-15])
    def test_the_dike_far_in_its_tail(self, target):
        box, osc = builtin_scenario("dike").pbox, named_oscillation("dike_upper")
        prob = self.level_prob(box, osc)
        res = threshold_solve(box, osc, target)
        lo, hi = res.bracket
        assert math.isfinite(hi)
        assert prob(hi) <= target < prob(lo)
        # converged is measured against abs_tol, as for an expectation
        assert res.converged == (res.error_bound < 0.5 * choquet._ABS_TOL)
        loose = 4.0 * res.error_bound
        assert threshold_solve(box, osc, target, loose) == dataclasses.replace(res, converged=True)
        if target == 1e-15:
            assert not res.converged

    def test_an_unbounded_search_that_ends_at_the_supremum(self):
        # F_lower(z-) = 0.9 z: every finite level cuts [z, 1] with z < 1, of
        # upper probability above 0.1, so the threshold at 0.1 is inf
        lower = JumpCdf(lambda z: np.where(np.asarray(z, float) >= 1.0, 1.0,
                                           0.9 * np.asarray(z, float)),
                        lambda z: 0.9 * np.asarray(z, float))
        box = PBox(lower, named_cdf("one"), UNIT_INTERVAL)
        res = threshold_solve(box, Oscillation(_blow_up), 0.1)
        assert math.isfinite(res.value) and res.error_bound == math.inf
        assert not res.converged
        # an atom at 1 above the target: the supremum, exactly
        atom = JumpCdf(lower.fn, lambda z: 0.5 * np.asarray(z, float))
        res = threshold_solve(PBox(atom, named_cdf("one"), UNIT_INTERVAL),
                              Oscillation(_blow_up), 0.1)
        assert res == QuadratureResult(math.inf, 0.0, True)
