import math
import os
import subprocess
import sys

import numpy as np
import pytest
from arith_oracle import ORACLES, random_real_line_pbox

from pboxes.errors import ValidationError
from pboxes.multivariate import (
    FRECHET,
    INDEPENDENT,
    CombinationRule,
    MarginalSpec,
    RealLinePBox,
    combine,
    prob_arith_add_lower,
    prob_arith_add_upper,
    prob_arith_transform,
    sublevel_box_lower,
)
from pboxes.pbox import AnalyticCdf, PiecewiseLinearCdf, StepCdf
from pboxes.scenarios import named_cdf

UNIFORM01 = RealLinePBox.from_knots([(0.0, 0.0), (1.0, 1.0)])


def vacuous_lower_cdf():
    def fn(z):
        return np.where(np.asarray(z, dtype=float) >= 1.0, 1.0, 0.0)

    def left(z):
        return np.where(np.asarray(z, dtype=float) > 1.0, 1.0, 0.0)

    return AnalyticCdf(fn, left)


class TestCombine:
    def test_dike_frechet_closed_form(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))]
        marginals += [MarginalSpec(named_cdf("triangular_sym"), named_cdf("one"))
                      for _ in range(3)]
        joint = combine(marginals, FRECHET)
        zs = np.linspace(0.0, 1.0, 501)
        expected = np.maximum(0.0, -3.0 + zs + 3.0 * (1.0 - (1.0 - zs) ** 2))
        assert np.allclose(joint.lower(zs), expected, atol=1e-12)
        assert np.allclose(joint.upper(zs), 1.0, atol=0)

    def test_oscillator_independence_closed_form(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        zs = np.linspace(0.0, 1.0, 501)
        assert np.allclose(joint.lower(zs), zs ** 2, atol=1e-15)

    def test_vacuous_marginal_absorbs_frechet(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one")),
                     MarginalSpec(vacuous_lower_cdf(), named_cdf("one"))]
        joint = combine(marginals, FRECHET)
        zs = np.linspace(0.0, 1.0, 101)
        lower = np.asarray(joint.lower(zs))
        assert np.all(lower[:-1] == 0.0)
        assert lower[-1] == 1.0

    def test_needs_two_marginals(self):
        with pytest.raises(ValidationError):
            combine([MarginalSpec(named_cdf("uniform"), named_cdf("one"))], FRECHET)

    def test_finite_class_counts_must_match(self):
        two = MarginalSpec(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)))
        three = MarginalSpec(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.3, 0.7, 1.0)))
        with pytest.raises(ValidationError, match="same number of classes"):
            combine([two, three], FRECHET)

    def test_finite_and_continuum_marginals_do_not_mix(self):
        two = MarginalSpec(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)))
        with pytest.raises(ValidationError):
            combine([two, MarginalSpec(named_cdf("uniform"), named_cdf("one"))], INDEPENDENT)

    def test_finite_marginal_pair_validated(self):
        with pytest.raises(ValidationError):
            MarginalSpec(StepCdf((0.6, 1.0)), StepCdf((0.4, 1.0)))
        with pytest.raises(ValidationError):
            MarginalSpec(StepCdf((0.4, 1.0)), StepCdf((0.4, 0.6, 1.0)))
        with pytest.raises(ValidationError):
            MarginalSpec(StepCdf((0.4, 1.0)), named_cdf("one"))

    def test_finite_joint_applies_rule_class_by_class(self):
        m1 = MarginalSpec(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.3, 0.7, 1.0)))
        m2 = MarginalSpec(StepCdf((0.1, 0.6, 1.0)), StepCdf((0.4, 0.6, 1.0)))
        joint = combine([m1, m2], INDEPENDENT)
        assert joint.is_finite and joint.space.size == 3
        assert joint.lower.values == (0.2 * 0.1, 0.5 * 0.6, 1.0)
        assert joint.upper.values == (0.3 * 0.4, 0.7 * 0.6, 1.0)

    def test_bound_ordering_between_rules(self):
        lowers = [named_cdf("uniform"), named_cdf("triangular_sym"), named_cdf("square")]
        zs = np.linspace(0.0, 1.0, 201)
        values = [np.asarray(cdf(zs)) for cdf in lowers]
        frechet = FRECHET.ell(values)
        product = INDEPENDENT.ell(values)
        upper_prod = INDEPENDENT.u(values)
        upper_min = FRECHET.u(values)
        assert np.all(frechet <= product + 1e-12)
        assert np.all(upper_prod <= upper_min + 1e-12)


class TestCombinationRuleValidation:
    def test_must_map_ones_to_one(self):
        bad = CombinationRule("bad", lambda v: 0.5, lambda v: 1.0)
        with pytest.raises(ValidationError):
            bad.validate(2)

    def test_lower_must_not_exceed_upper(self):
        bad = CombinationRule("bad", lambda v: max(v), lambda v: min(v))
        with pytest.raises(ValidationError):
            bad.validate(2)

    def test_monotonicity_enforced(self):
        # decreasing in the first argument
        bad = CombinationRule("bad", lambda v: (1.0 - v[0]) * (1.0 - v[1]) + v[0] * v[1],
                              lambda v: 1.0)
        with pytest.raises(ValidationError):
            bad.validate(2)


class TestSublevelBox:
    def test_all_ones(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        assert sublevel_box_lower(joint, (1.0, 1.0)) == 1.0

    def test_independent_product(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("uniform"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        assert sublevel_box_lower(joint, (0.5, 0.5)) == pytest.approx(0.25)

    def test_saturated_second_marginal(self):
        # second factor's classes all sit below the queried level, so the
        # joint value reduces to the first marginal's CDF
        def low_scale(z):
            return np.minimum(1.0, np.asarray(z, dtype=float) * 4.0)

        first = MarginalSpec(PiecewiseLinearCdf(((0.0, 0.0), (0.9, 0.4), (1.0, 1.0))),
                             named_cdf("one"))
        second = MarginalSpec(AnalyticCdf(low_scale), AnalyticCdf(low_scale))
        joint = combine([first, second], FRECHET)
        level = 0.9
        value = sublevel_box_lower(joint, (level, 1.0))
        assert value == pytest.approx(max(0.0, 1 - 2 + 0.4 + 1.0)) == pytest.approx(0.4)

    def test_rejects_bad_levels(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        with pytest.raises(ValidationError):
            sublevel_box_lower(joint, (0.5, 1.2))

    def test_nan_level_rejected(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        # NaN fails every comparison, so min() would drop it unchecked
        for levels in ([0.5, math.nan], [math.nan, 0.5]):
            with pytest.raises(ValidationError):
                sublevel_box_lower(joint, levels)

    def test_finite_joint_takes_class_indices(self):
        joint = combine([MarginalSpec(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.4, 0.7, 1.0))),
                         MarginalSpec(StepCdf((0.3, 0.6, 1.0)), StepCdf((0.5, 0.9, 1.0)))],
                        FRECHET)
        # the joint lower CDF at class 1 is max(0, 0.5 + 0.6 - 1)
        assert sublevel_box_lower(joint, [1, 2]) == pytest.approx(0.1)
        assert sublevel_box_lower(joint, [2, 2]) == 1.0
        assert sublevel_box_lower(joint, [np.int64(0), 2]) == 0.0

    def test_finite_joint_takes_numpy_integers(self):
        joint = combine([MarginalSpec(StepCdf((0.2, 0.5, 1.0)), StepCdf((0.4, 0.7, 1.0))),
                         MarginalSpec(StepCdf((0.3, 0.6, 1.0)), StepCdf((0.5, 0.9, 1.0)))],
                        FRECHET)
        for levels in ([1, 2], [2, 2], [0, 1]):
            assert (sublevel_box_lower(joint, [np.int64(a) for a in levels])
                    == sublevel_box_lower(joint, levels))
        with pytest.raises(TypeError):
            sublevel_box_lower(joint, [True, 2])

    def test_finite_joint_rejects_coordinates(self):
        two = combine([MarginalSpec(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0))),
                       MarginalSpec(StepCdf((0.7, 1.0)), StepCdf((0.8, 1.0)))], FRECHET)
        for levels in ([0.0, 1.0], [1, 0.5], [2, 1], [-1, 1]):
            with pytest.raises(ValidationError, match="class indices"):
                sublevel_box_lower(two, levels)
        assert sublevel_box_lower(two, [0, 1]) == pytest.approx(max(0.0, 0.4 + 0.7 - 1.0))


class TestAdditionClosedForms:
    def test_precise_uniform_lower(self):
        for k in range(101):
            y = 2.0 * k / 100
            assert prob_arith_add_lower(UNIFORM01, UNIFORM01, y) == pytest.approx(
                max(0.0, y - 1.0), abs=1e-12)

    def test_precise_uniform_upper_midpoint(self):
        assert prob_arith_add_upper(UNIFORM01, UNIFORM01, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_support_edges(self):
        assert prob_arith_add_upper(UNIFORM01, UNIFORM01, 2.0) == 1.0
        assert prob_arith_add_lower(UNIFORM01, UNIFORM01, 0.0) == 0.0
        assert prob_arith_add_lower(UNIFORM01, UNIFORM01, -0.5) == 0.0
        assert prob_arith_add_lower(UNIFORM01, UNIFORM01, 2.5) == 1.0

    def test_monotone_in_y(self):
        values = [prob_arith_add_lower(UNIFORM01, UNIFORM01, y)
                  for y in np.linspace(-0.2, 2.2, 61)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        values = [prob_arith_add_upper(UNIFORM01, UNIFORM01, y)
                  for y in np.linspace(-0.2, 2.2, 61)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestTransforms:
    def test_self_difference_of_precise_uniform(self):
        for y in np.linspace(-1.0, 1.0, 41):
            low, up = prob_arith_transform("subtract", UNIFORM01, UNIFORM01, float(y))
            assert low == pytest.approx(max(0.0, y), abs=1e-9)
            assert up == pytest.approx(min(1.0, 1.0 + y), abs=1e-9)

    def test_multiply_by_unit_point_mass(self):
        box = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 0.6), (3.0, 1.0)],
                                      [(1.0, 0.2), (2.0, 0.8), (3.0, 1.0)])
        one = RealLinePBox.point_mass(1.0)
        for y in np.linspace(1.0, 3.0, 21):
            low, up = prob_arith_transform("multiply", box, one, float(y))
            assert low == pytest.approx(float(box.lower(y)), abs=1e-9)
            assert up == pytest.approx(float(box.upper(y)), abs=1e-9)

    def test_divide_uniform_by_point_mass(self):
        uniform12 = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 1.0)])
        two = RealLinePBox.point_mass(2.0)
        for y in np.linspace(0.5, 1.0, 11):
            low, up = prob_arith_transform("divide", uniform12, two, float(y))
            assert low == pytest.approx(2.0 * y - 1.0, abs=1e-9)
            assert up == pytest.approx(2.0 * y - 1.0, abs=1e-9)

    def test_positive_support_required(self):
        with pytest.raises(ValidationError):
            prob_arith_transform("multiply", UNIFORM01, UNIFORM01, 0.5)

    def test_unknown_operation(self):
        with pytest.raises(ValidationError):
            prob_arith_transform("modulo", UNIFORM01, UNIFORM01, 0.5)


class TestExactCorners:
    def test_subtract_lower_pairs_knot_with_its_preimage(self):
        # the lower bound sits at x = 0.3, exactly where X2 = 0.1 jumps to 0.5
        x2 = RealLinePBox.from_knots([(0.1, 0.0), (1.0, 1.0)], [(0.1, 0.5), (1.0, 1.0)])
        low, _ = prob_arith_transform("subtract", UNIFORM01, x2, 0.2)
        assert low == pytest.approx(0.3, abs=1e-12)

    def test_product_upper_at_stationary_point(self):
        # inf over x of (x - 1) + (y / x - 1) sits at x = sqrt(y), inside a cell
        uniform12 = RealLinePBox.from_knots([(1.0, 0.0), (2.0, 1.0)])
        for y in (1.2, 1.69, 2.0):
            _, up = prob_arith_transform("multiply", uniform12, uniform12, y)
            assert up == pytest.approx(min(1.0, 2.0 * np.sqrt(y) - 2.0), abs=1e-12)

    def test_non_finite_point_rejected(self):
        for y in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                prob_arith_transform("add", UNIFORM01, UNIFORM01, y)


class TestRealLinePBoxValidation:
    def test_crossing_between_grid_points_rejected(self):
        # lower is 0.25 and upper 0 at 0.4995, between the points of a uniform grid
        with pytest.raises(ValidationError):
            RealLinePBox.from_knots([(0.0, 0.0), (0.499, 0.0), (0.5, 0.5), (1.0, 1.0)],
                                    [(0.5, 0.6), (1.0, 1.0)])


    def test_support_is_hull_of_the_knots(self):
        uniform02 = PiecewiseLinearCdf(((0.0, 0.0), (2.0, 1.0)))
        box = RealLinePBox(uniform02, uniform02)
        assert box.support == (0.0, 2.0)
        lower, _ = prob_arith_transform("add", box, box, 2.5)
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
                    low, up = prob_arith_transform(op, x1, x2, y)
                    assert low == pytest.approx(oracle_lower(x1, x2, y), abs=1e-6), \
                        (trial, op, y, "lower")
                    assert up == pytest.approx(oracle_upper(x1, x2, y), abs=1e-6), \
                        (trial, op, y, "upper")


def _op_support(op, x1, x2):
    (a1, b1), (a2, b2) = x1.support, x2.support
    if op == "add":
        return a1 + a2, b1 + b2
    if op == "subtract":
        return a1 - b2, b1 - a2
    if op == "multiply":
        return a1 * a2, b1 * b2
    return a1 / b2, b1 / a2
