import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from arith_oracle import ORACLES, random_real_line_pbox
from hypothesis import given, settings
from hypothesis import strategies as st
from jump_cdf import JumpCdf
from stationary_minima_reference import stationary_minima

from pboxes import multivariate
from pboxes.errors import ValidationError
from pboxes.multivariate import (
    FRECHET,
    INDEPENDENT,
    RealLinePBox,
    arith_bound,
    combine,
    sublevel_box_lower,
)
from pboxes.pbox import AnalyticCdf, PBox, PiecewiseLinearCdf, StepCdf, lower_prob_event
from pboxes.preorder import FiniteQuotientSpace, ZEventSet, ZInterval
from pboxes.scenarios import Query, named_cdf, result_rows, run_query

UNIFORM01 = RealLinePBox.from_knots([(0.0, 0.0), (1.0, 1.0)])


def bounds(op, x1, x2, y):
    """The ``(lower, upper)`` CDF bounds of ``X1 op X2`` at y."""
    return arith_bound(op, "lower", x1, x2, y), arith_bound(op, "upper", x1, x2, y)


def vacuous_lower_cdf():
    def fn(z):
        return np.where(np.asarray(z, dtype=float) >= 1.0, 1.0, 0.0)

    def left(z):
        return np.where(np.asarray(z, dtype=float) > 1.0, 1.0, 0.0)

    return JumpCdf(fn, left)


class TestCombine:
    def test_dike_frechet_closed_form(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))]
        marginals += [PBox(named_cdf("triangular_sym"), named_cdf("one"))
                      for _ in range(3)]
        joint = combine(marginals, FRECHET)
        zs = np.linspace(0.0, 1.0, 501)
        expected = np.maximum(0.0, -3.0 + zs + 3.0 * (1.0 - (1.0 - zs) ** 2))
        assert np.allclose(joint.lower(zs), expected, atol=1e-12)
        assert np.allclose(joint.upper(zs), 1.0, atol=0)

    def test_oscillator_independence_closed_form(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        zs = np.linspace(0.0, 1.0, 501)
        assert np.allclose(joint.lower(zs), zs ** 2, atol=1e-15)

    def test_vacuous_marginal_absorbs_frechet(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one")),
                     PBox(vacuous_lower_cdf(), named_cdf("one"))]
        joint = combine(marginals, FRECHET)
        zs = np.linspace(0.0, 1.0, 101)
        lower = np.asarray(joint.lower(zs))
        assert np.all(lower[:-1] == 0.0)
        assert lower[-1] == 1.0

    @pytest.mark.parametrize("rule", [FRECHET, INDEPENDENT])
    def test_joint_left_limit_combines_the_marginals_left_limits(self, rule):
        # the marginal lower CDFs jump at 0, to 0.6 and 0.8, where a CDF on
        # the continuum models a jump exactly: the joint's left limit
        # combines theirs, 0 at 0 and their values above it, and the point
        # {0} keeps the joint's jump
        first = PiecewiseLinearCdf(((0.0, 0.6), (1.0, 1.0)))
        second = PiecewiseLinearCdf(((0.0, 0.8), (1.0, 1.0)))
        one = named_cdf("one")
        joint = combine([PBox(first, one), PBox(second, one)], rule)
        combined = {FRECHET: lambda a, b: max(0.0, a + b - 1.0), INDEPENDENT: operator.mul}[rule]
        for z in (0.0, 0.5, 1.0):
            assert joint.lower.left_limit(z) == pytest.approx(
                combined(first.left_limit(z), second.left_limit(z)), abs=1e-15), z
        assert joint.lower.left_limit(0.0) == 0.0
        assert joint.lower(0.0) == pytest.approx(combined(0.6, 0.8), abs=1e-15)
        assert lower_prob_event(joint, ZEventSet((ZInterval.point(0.0),))) == joint.lower(0.0)
        event = ZEventSet((ZInterval.right_open(0.0, 0.5),))
        assert lower_prob_event(joint, event) == joint.lower.left_limit(0.5)

    def test_needs_two_marginals(self):
        with pytest.raises(ValidationError):
            combine([PBox(named_cdf("uniform"), named_cdf("one"))], FRECHET)

    def test_finite_class_counts_must_match(self):
        two = PBox(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)))
        three = PBox(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.3, 0.7, 1.0)))
        with pytest.raises(ValidationError, match="same number of classes"):
            combine([two, three], FRECHET)

    def test_finite_and_continuum_marginals_do_not_mix(self):
        two = PBox(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)))
        with pytest.raises(ValidationError):
            combine([two, PBox(named_cdf("uniform"), named_cdf("one"))], INDEPENDENT)

    def test_finite_marginal_pair_validated(self):
        with pytest.raises(ValidationError):
            PBox(StepCdf((0.6, 1.0)), StepCdf((0.4, 1.0)))
        with pytest.raises(ValidationError):
            PBox(StepCdf((0.4, 1.0)), StepCdf((0.4, 0.6, 1.0)))
        with pytest.raises(ValidationError):
            PBox(StepCdf((0.4, 1.0)), named_cdf("one"))

    def test_finite_joint_applies_rule_class_by_class(self):
        m1 = PBox(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.3, 0.7, 1.0)))
        m2 = PBox(StepCdf((0.1, 0.6, 1.0)), StepCdf((0.4, 0.6, 1.0)))
        joint = combine([m1, m2], INDEPENDENT)
        assert joint.is_finite and joint.space.size == 3
        assert joint.lower.values == (0.2 * 0.1, 0.5 * 0.6, 1.0)
        assert joint.upper.values == (0.3 * 0.4, 0.7 * 0.6, 1.0)

    def test_bound_ordering_between_rules(self):
        cdfs = [named_cdf("uniform"), named_cdf("triangular_sym"), named_cdf("square")]
        # precise marginals, so each joint CDF is its rule's combiner of the same values
        marginals = [PBox(cdf, cdf) for cdf in cdfs]
        frechet, independent = (combine(marginals, rule) for rule in (FRECHET, INDEPENDENT))
        zs = np.linspace(0.0, 1.0, 201)
        assert np.all(frechet.lower(zs) <= independent.lower(zs) + 1e-12)
        assert np.all(independent.upper(zs) <= frechet.upper(zs) + 1e-12)

    def test_labelled_finite_marginals_give_the_index_joint(self):
        labelled = [PBox(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)),
                         FiniteQuotientSpace(("low", "high"))),
                    PBox(StepCdf((0.7, 1.0)), StepCdf((0.8, 1.0)),
                         FiniteQuotientSpace(("dry", "wet")))]
        unlabelled = [PBox(m.lower, m.upper) for m in labelled]
        for rule in (FRECHET, INDEPENDENT):
            joint = combine(labelled, rule)
            assert joint == combine(unlabelled, rule)
            assert joint.space == FiniteQuotientSpace((0, 1))

    @pytest.mark.parametrize("rule", ["max", "Frechet", None, 3])
    def test_unknown_rule_refused(self, rule):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one")) for _ in range(2)]
        with pytest.raises(ValidationError, match="unknown combination rule"):
            combine(marginals, rule)


def list_combiners(rule):
    """The joint's (lower, upper) combiners as they were before the fold: each
    takes the list of all marginal values at once."""
    def frechet_lower(values):
        return np.maximum(0.0, 1.0 - len(values) + sum(values))

    def running(op):
        def combiner(values):
            out = values[0]
            for v in values[1:]:
                out = op(out, v)
            return out
        return combiner

    if rule == FRECHET:
        return frechet_lower, running(np.minimum)
    return running(operator.mul), running(operator.mul)


class TestCombinerFold:
    """The joint CDF folds its combiner over the marginals, one at a time."""

    @pytest.mark.parametrize("name, rule", [("dike", FRECHET), ("oscillator", INDEPENDENT)])
    def test_builtins_equal_the_list_combiners_bit_for_bit(self, name, rule):
        from pboxes.scenarios import _constant_one, _humped, _uniform, builtin_scenario

        firsts = {"dike": [_uniform, _humped, _humped, _humped], "oscillator": [_uniform] * 2}
        joint = builtin_scenario(name).pbox
        zs = np.linspace(0.0, 1.0, 300_001)
        lower, upper = list_combiners(rule)
        for z in (zs, 0.3, 1.0):
            want_lower = lower([cdf(z) for cdf in firsts[name]])
            want_upper = upper([_constant_one(z) for _ in firsts[name]])
            for got, want in ((joint.lower(z), want_lower), (joint.upper(z), want_upper)):
                assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("rule", [FRECHET, INDEPENDENT])
    def test_finite_marginals_equal_the_list_combiners(self, rule):
        rng = random.Random(5)
        marginals = []
        for _ in range(6):
            lower = sorted(rng.random() for _ in range(4)) + [1.0]
            upper = [min(1.0, v + 0.2) for v in lower]
            marginals.append(PBox(StepCdf(tuple(lower)), StepCdf(tuple(upper)),
                                  FiniteQuotientSpace(tuple("abcde"))))
        joint = combine(marginals, rule)
        for side, combiner in zip(("lower", "upper"), list_combiners(rule)):
            want = combiner([np.array(getattr(m, side).values) for m in marginals])
            assert getattr(joint, side).values == tuple(want.tolist())

    @pytest.mark.parametrize("rule", [FRECHET, INDEPENDENT])
    def test_memory_does_not_grow_with_the_marginals(self, rule):
        # 1,024 marginals on 8,192 points: a list of their values would hold
        # 64 MB, the fold two arrays of 64 kB and the CDFs' temporaries
        marginal = PBox(PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0))),
                        PiecewiseLinearCdf(((0.0, 1.0), (1.0, 1.0))))
        joint = combine([marginal] * 1024, rule)
        zs = np.linspace(0.0, 1.0, 8192)
        tracemalloc.start()
        try:
            joint.lower(zs)
            joint.upper(zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * zs.nbytes


class TestSublevelBox:
    def test_all_ones(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        assert sublevel_box_lower(joint, (1.0, 1.0)) == 1.0

    def test_independent_product(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("uniform"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        assert sublevel_box_lower(joint, (0.5, 0.5)) == pytest.approx(0.25)

    def test_saturated_second_marginal(self):
        # second factor's classes all sit below the queried level, so the
        # joint value reduces to the first marginal's CDF
        def low_scale(z):
            return np.minimum(1.0, np.asarray(z, dtype=float) * 4.0)

        first = PBox(PiecewiseLinearCdf(((0.0, 0.0), (0.9, 0.4), (1.0, 1.0))),
                     named_cdf("one"))
        second = PBox(AnalyticCdf(low_scale), AnalyticCdf(low_scale))
        joint = combine([first, second], FRECHET)
        level = 0.9
        value = sublevel_box_lower(joint, (level, 1.0))
        assert value == pytest.approx(max(0.0, 1 - 2 + 0.4 + 1.0)) == pytest.approx(0.4)

    def test_rejects_bad_levels(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        with pytest.raises(ValidationError):
            sublevel_box_lower(joint, (0.5, 1.2))

    def test_nan_level_rejected(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        # NaN fails every comparison, so min() would drop it unchecked
        for levels in ([0.5, math.nan], [math.nan, 0.5]):
            with pytest.raises(ValidationError):
                sublevel_box_lower(joint, levels)

    def test_finite_joint_takes_class_indices(self):
        joint = combine([PBox(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.4, 0.7, 1.0))),
                         PBox(StepCdf((0.3, 0.6, 1.0)), StepCdf((0.5, 0.9, 1.0)))],
                        FRECHET)
        # the joint lower CDF at class 1 is max(0, 0.5 + 0.6 - 1)
        assert sublevel_box_lower(joint, [1, 2]) == pytest.approx(0.1)
        assert sublevel_box_lower(joint, [2, 2]) == 1.0
        assert sublevel_box_lower(joint, [np.int64(0), 2]) == 0.0

    def test_finite_joint_takes_numpy_integers(self):
        joint = combine([PBox(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.4, 0.7, 1.0))),
                         PBox(StepCdf((0.3, 0.6, 1.0)), StepCdf((0.5, 0.9, 1.0)))],
                        FRECHET)
        for levels in ([1, 2], [2, 2], [0, 1]):
            assert (sublevel_box_lower(joint, [np.int64(a) for a in levels])
                    == sublevel_box_lower(joint, levels))
        with pytest.raises(TypeError):
            sublevel_box_lower(joint, [True, 2])

    def test_finite_joint_rejects_coordinates(self):
        two = combine([PBox(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0))),
                       PBox(StepCdf((0.7, 1.0)), StepCdf((0.8, 1.0)))], FRECHET)
        for levels in ([0.0, 1.0], [1, 0.5], [2, 1], [-1, 1]):
            with pytest.raises(ValidationError, match="class indices"):
                sublevel_box_lower(two, levels)
        assert sublevel_box_lower(two, [0, 1]) == pytest.approx(max(0.0, 0.4 + 0.7 - 1.0))


class TestAdditionClosedForms:
    def test_precise_uniform_lower(self):
        for k in range(101):
            y = 2.0 * k / 100
            assert arith_bound("add", "lower", UNIFORM01, UNIFORM01, y) == pytest.approx(
                max(0.0, y - 1.0), abs=1e-12)

    def test_precise_uniform_upper_midpoint(self):
        assert arith_bound("add", "upper", UNIFORM01, UNIFORM01, 0.5) == pytest.approx(
            0.5, abs=1e-9)

    def test_support_edges(self):
        assert arith_bound("add", "upper", UNIFORM01, UNIFORM01, 2.0) == 1.0
        assert arith_bound("add", "lower", UNIFORM01, UNIFORM01, 0.0) == 0.0
        assert arith_bound("add", "lower", UNIFORM01, UNIFORM01, -0.5) == 0.0
        assert arith_bound("add", "lower", UNIFORM01, UNIFORM01, 2.5) == 1.0

    def test_monotone_in_y(self):
        values = [arith_bound("add", "lower", UNIFORM01, UNIFORM01, y)
                  for y in np.linspace(-0.2, 2.2, 61)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        values = [arith_bound("add", "upper", UNIFORM01, UNIFORM01, y)
                  for y in np.linspace(-0.2, 2.2, 61)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestTransforms:
    def test_self_difference_of_precise_uniform(self):
        for y in np.linspace(-1.0, 1.0, 41):
            low, up = bounds("subtract", UNIFORM01, UNIFORM01, float(y))
            assert low == pytest.approx(max(0.0, y), abs=1e-9)
            assert up == pytest.approx(min(1.0, 1.0 + y), abs=1e-9)

    def test_multiply_by_unit_point_mass(self):
        box = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 0.6), (3.0, 1.0)],
                                      [(1.0, 0.2), (2.0, 0.8), (3.0, 1.0)])
        one = RealLinePBox.point_mass(1.0)
        for y in np.linspace(1.0, 3.0, 21):
            low, up = bounds("multiply", box, one, float(y))
            assert low == pytest.approx(float(box.lower(y)), abs=1e-9)
            assert up == pytest.approx(float(box.upper(y)), abs=1e-9)

    def test_divide_uniform_by_point_mass(self):
        uniform12 = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 1.0)])
        two = RealLinePBox.point_mass(2.0)
        for y in np.linspace(0.5, 1.0, 11):
            low, up = bounds("divide", uniform12, two, float(y))
            assert low == pytest.approx(2.0 * y - 1.0, abs=1e-9)
            assert up == pytest.approx(2.0 * y - 1.0, abs=1e-9)

    def test_positive_support_required(self):
        with pytest.raises(ValidationError):
            bounds("multiply", UNIFORM01, UNIFORM01, 0.5)

    def test_unknown_operation(self):
        with pytest.raises(ValidationError):
            bounds("modulo", UNIFORM01, UNIFORM01, 0.5)

    def test_unknown_side(self):
        with pytest.raises(ValidationError, match="side"):
            arith_bound("add", "lowr", UNIFORM01, UNIFORM01, 0.5)


class TestExactCorners:
    def test_subtract_lower_pairs_knot_with_its_preimage(self):
        # the lower bound sits at x = 0.3, exactly where X2 = 0.1 jumps to 0.5
        x2 = RealLinePBox.from_knots([(0.1, 0.0), (1.0, 1.0)], [(0.1, 0.5), (1.0, 1.0)])
        low, _ = bounds("subtract", UNIFORM01, x2, 0.2)
        assert low == pytest.approx(0.3, abs=1e-12)

    def test_product_upper_at_stationary_point(self):
        # inf over x of (x - 1) + (y / x - 1) sits at x = sqrt(y), inside a cell
        uniform12 = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 1.0)])
        for y in (1.2, 1.69, 2.0):
            _, up = bounds("multiply", uniform12, uniform12, y)
            assert up == pytest.approx(min(1.0, 2.0 * np.sqrt(y) - 2.0), abs=1e-12)

    def test_non_finite_point_rejected(self):
        for y in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                bounds("add", UNIFORM01, UNIFORM01, y)


class TestRealLinePBoxValidation:
    def test_crossing_between_grid_points_rejected(self):
        # lower is 0.25 and upper 0 at 0.4995, between the points of a uniform grid
        with pytest.raises(ValidationError):
            RealLinePBox.from_knots([(0.0, 0.0), (0.499, 0.0), (0.5, 0.5), (1.0, 1.0)],
                                    [(0.5, 0.6), (1.0, 1.0)])

    def test_crossing_at_shared_knot_refused(self):
        # the knot 1.0 of both CDFs is checked
        with pytest.raises(ValidationError, match="lower CDF exceeds upper CDF"):
            RealLinePBox.from_knots([(0.0, 0.0), (1.0, 0.6), (2.0, 1.0)],
                                    [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)])

    def test_one_order_check_with_the_slack_of_each_type(self):
        # lower above upper at 0.5 by 1e-11 passes the slack 1e-10 of a PBox
        # but not the 1e-12 of a RealLinePBox; by 1e-9 it passes neither
        upper = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
        lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.5 + 1e-11), (1.0, 1.0)))
        assert PBox(lower, upper).is_polynomial
        with pytest.raises(ValidationError, match="^lower CDF exceeds upper CDF$"):
            RealLinePBox(lower, upper)
        lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.5 + 1e-9), (1.0, 1.0)))
        for model in (PBox, RealLinePBox):
            with pytest.raises(ValidationError, match="^lower CDF exceeds upper CDF$"):
                model(lower, upper)

    def test_touching_at_shared_knot_accepted(self):
        box = RealLinePBox.from_knots([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
                                      [(0.0, 0.0), (1.0, 0.5), (1.5, 1.0), (2.0, 1.0)])
        assert box.support == (0.0, 2.0)


    def test_support_is_hull_of_the_knots(self):
        uniform02 = PiecewiseLinearCdf(((0.0, 0.0), (2.0, 1.0)))
        box = RealLinePBox(uniform02, uniform02)
        assert box.support == (0.0, 2.0)
        lower, _ = bounds("add", box, box, 2.5)
        assert lower == pytest.approx(0.25, abs=1e-12)


def test_import_leaves_scipy_out():
    import pboxes

    src = os.path.dirname(os.path.dirname(os.path.abspath(pboxes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pboxes; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


class TestAgainstFineGridOracle:
    def test_random_pairs_all_operations(self, rng):
        for trial in range(6):
            x1 = random_real_line_pbox(rng, positive=True)
            x2 = random_real_line_pbox(rng, positive=True)
            for op, (oracle_lower, oracle_upper) in ORACLES.items():
                lo_y, hi_y = _op_support(op, x1, x2)
                for frac in (0.15, 0.5, 0.85):
                    y = lo_y + frac * (hi_y - lo_y)
                    low, up = bounds(op, x1, x2, y)
                    assert low == pytest.approx(oracle_lower(x1, x2, y), abs=1e-6), \
                        (trial, op, y, "lower")
                    assert up == pytest.approx(oracle_upper(x1, x2, y), abs=1e-6), \
                        (trial, op, y, "upper")


class TestNearTheFloatRange:
    """Corners and stationary points beyond the float range overflow to inf
    with no numpy warning, which the test configuration makes an error."""

    WIDE = RealLinePBox.from_knots([[1e-300, 0.0], [1e300, 1.0]])
    STEPPED = RealLinePBox.from_knots([[1e-300, 0.0], [1.0, 0.5], [1e300, 1.0]],
                                      [[1e-300, 0.2], [1.0, 0.7], [1e300, 1.0]])
    # supports near 1e308 and near -1e308
    NEAR_TOP = RealLinePBox.from_knots([[5e307, 0.0], [1e308, 0.4], [1.5e308, 1.0]],
                                       [[5e307, 0.3], [1e308, 0.8], [1.5e308, 1.0]])
    NEAR_BOTTOM = RealLinePBox.from_knots([[-1.5e308, 0.0], [-1e308, 0.4], [-5e307, 1.0]],
                                          [[-1.5e308, 0.3], [-1e308, 0.8], [-5e307, 1.0]])

    def test_divide_partner_beyond_the_float_range(self):
        # the preimage k * y of x2's top knot, 1e300 * 1e10, overflows
        low, up = bounds("divide", self.WIDE, self.WIDE, 1e10)
        # X1 / X2 keeps its law when both operands are scaled by one factor:
        # the oracle checks the bound on operands scaled into its range
        scaled = RealLinePBox.from_knots([[1e-310, 0.0], [1e290, 1.0]])
        oracle_lower, oracle_upper = ORACLES["divide"]
        assert low == pytest.approx(oracle_lower(scaled, scaled, 1e10), abs=1e-6)
        assert up == pytest.approx(oracle_upper(scaled, scaled, 1e10), abs=1e-6)
        # and, its sweep clipped to the float range, on the operands themselves
        assert low == pytest.approx(oracle_lower(self.WIDE, self.WIDE, 1e10), abs=1e-6)
        assert up == pytest.approx(oracle_upper(self.WIDE, self.WIDE, 1e10), abs=1e-6)
        assert (low, up) == (pytest.approx(1.0 - 1e-10, abs=1e-15), 1.0)

    def test_multiply_stationary_point_beyond_the_float_range(self):
        low, up = bounds("multiply", self.WIDE, self.STEPPED, 1e10)
        assert (low, up) == (0.0, pytest.approx(0.7, abs=1e-12))

    @pytest.mark.parametrize("op, x1, x2", [("add", NEAR_TOP, NEAR_BOTTOM),
                                            ("subtract", NEAR_BOTTOM, NEAR_BOTTOM)],
                             ids=["add", "subtract"])
    def test_sum_and_difference_near_the_ends_of_the_float_range(self, op, x1, x2):
        # at y = -9e307 (add) and 9e307 (subtract) the oracle's sweep spans both
        # signs and is wider than the largest float
        ys = (-1.2e308, -9e307, -3e307, 0.0, 3e307, 9e307, 1.2e308)
        for side, oracle in zip(("lower", "upper"), ORACLES[op]):
            grid = run_query(Query("g", "arith_op", x1=x1, x2=x2, op=op, side=side, y=ys)).value
            for y, value in zip(ys, grid):
                expected = oracle(x1, x2, y)
                point = bounds(op, x1, x2, y)[side == "upper"]
                assert point == pytest.approx(expected, abs=1e-6), (side, y)
                assert value == pytest.approx(expected, abs=1e-6), (side, y)


_OPERATIONS = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul,
               "divide": operator.truediv}


def draw_grid(data, op):
    """Operands of ``op`` and a grid of y for them: random operands, on a
    dyadic lattice or scaled off it, point masses and float-range operands,
    and points where knots of both operands meet, between those points, and
    anywhere.  Off the lattice, the corner where a meet's line crosses one
    knot can tie with the other knot in x and differ from it in partner."""
    positive = op in ("multiply", "divide")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    near = TestNearTheFloatRange
    far = [near.WIDE, near.STEPPED] + ([] if positive else [near.NEAR_TOP, near.NEAR_BOTTOM])

    def operand(label):
        kind = data.draw(st.sampled_from(["random", "scaled", "point", "far"]), label=label)
        if kind == "far":
            return data.draw(st.sampled_from(far), label=f"{label} far")
        box = random_real_line_pbox(rng, positive=positive)
        if kind == "scaled":
            scale = rng.uniform(1.0, 3.0)
            return RealLinePBox.from_knots(*([(x * scale, p) for x, p in cdf.knots]
                                             for cdf in (box.lower, box.upper)))
        return RealLinePBox.point_mass(rng.choice(box.lower.knot_xs)) if kind == "point" else box

    x1, x2 = operand("x1"), operand("x2")
    meets = [y for y in (_OPERATIONS[op](a, b)
                         for a in x1.lower.knot_xs + x1.upper.knot_xs
                         for b in x2.lower.knot_xs + x2.upper.knot_xs) if math.isfinite(y)]
    point = st.one_of(st.sampled_from(meets), st.floats(min(meets), max(meets)),
                      st.floats(-1e308, 1e308))
    return x1, x2, tuple(data.draw(st.lists(point, min_size=1, max_size=40), label="ys"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_values_equal_pointwise(data):
    """A grid of y runs as one pass, and each of its values is the pointwise one."""
    op = data.draw(st.sampled_from(sorted(_OPERATIONS)), label="op")
    x1, x2, ys = draw_grid(data, op)
    pointwise = [bounds(op, x1, x2, y) for y in ys]
    for index, side in enumerate(("lower", "upper")):
        grid = run_query(Query("g", "arith_op", x1=x1, x2=x2, op=op, side=side, y=ys)).value
        assert grid.tolist() == [bounds[index] for bounds in pointwise], side


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_sort_equals_the_sort_by_group(data):
    """The cells of a product's upper bound come from one stable sort of every
    row, bit for bit as when the rows with one number of kept corners sort alone."""
    x1, x2, ys = draw_grid(data, "multiply")
    one_sort = arith_bound("multiply", "upper", x1, x2, ys)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multivariate, "_stationary_minima", stationary_minima)
        by_group = arith_bound("multiply", "upper", x1, x2, ys)
    assert one_sort.tobytes() == by_group.tobytes()


def test_grid_makes_one_engine_call_per_chunk(monkeypatch):
    """A long array of y goes in chunks inside arith_bound, whoever calls it,
    and a y of any shape gives values of that shape."""
    calls = []
    bound = multivariate.arith_bound

    def counted(op, side, x1, x2, y):
        calls.append(np.shape(y))
        return bound(op, side, x1, x2, y)

    monkeypatch.setattr(multivariate, "arith_bound", counted)
    ys = tuple(np.linspace(-0.5, 2.5, 1000).tolist())
    query = Query("g", "arith_op", x1=UNIFORM01, x2=UNIFORM01, y=ys, side="upper")
    whole = run_query(query).value
    assert calls == []
    # 8 corners a point: the ends of both supports and two knots for one CDF of each operand
    monkeypatch.setattr(multivariate, "_ARITH_CELLS", 800)
    rows = result_rows(query, run_query(query))
    assert calls == [(100,)] * 10
    assert [rid for rid, _ in rows] == [f"g_{k}" for k in range(1000)]
    assert [value for _, value in rows] == whole.tolist()
    calls.clear()
    square = counted("add", "upper", UNIFORM01, UNIFORM01, np.reshape(ys, (40, 25)))
    assert calls == [(40, 25)] + [(100,)] * 10
    assert square.shape == (40, 25) and square.tobytes() == whole.tobytes()


def test_a_library_call_bounds_its_own_memory():
    """2^18 points of a product's upper bound, called directly, in chunks."""
    x1 = RealLinePBox.from_knots([[1.0, 0.0], [2.0, 0.4], [3.0, 1.0]],
                                 [[1.0, 0.2], [2.0, 0.7], [3.0, 1.0]])
    x2 = RealLinePBox.from_knots([[1.0, 0.0], [2.5, 0.5], [4.0, 1.0]])
    ys = np.linspace(-4.0, 14.0, 1 << 18)
    tracemalloc.start()
    try:
        values = arith_bound("multiply", "upper", x1, x2, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == ys.shape
    # the y and the values take 4 MB; one pass over all the rows would take about 125 MB
    assert peak < 16 << 20


def _op_support(op, x1, x2):
    (a1, b1), (a2, b2) = x1.support, x2.support
    if op == "add":
        return a1 + a2, b1 + b2
    if op == "subtract":
        return a1 - b2, b1 - a2
    if op == "multiply":
        return a1 * a2, b1 * b2
    return a1 / b2, b1 / a2
