import math

import numpy as np
import pytest
from scipy import optimize

from pboxes.choquet import QuadratureConfig, threshold_solve
from pboxes.errors import ValidationError
from pboxes.multivariate import INDEPENDENT, MarginalSpec, RealLinePBox, combine
from pboxes.pbox import best_pbox_approximation, cdf_eval
from pboxes import scenarios
from pboxes.scenarios import (
    BUILTIN_NAMES,
    Query,
    Scenario,
    builtin_scenario,
    dike_lower_oscillation,
    dike_overflow_curve,
    dike_upper_oscillation,
    named_cdf,
    named_oscillation,
    oscillator_lower_oscillation,
    oscillator_upper_oscillation,
    piecewise_linear_oscillation,
    run_query,
    run_scenario,
)


class TestOscillatorFixture:
    def test_oscillation_endpoints(self):
        losc = oscillator_lower_oscillation()
        uosc = oscillator_upper_oscillation()
        assert float(losc.f(0.0)) == pytest.approx(1.0)
        assert float(losc.f(1.0)) == pytest.approx(1.0 / math.sqrt(6.0))
        assert float(uosc.f(1.0)) == pytest.approx(3.0 / math.sqrt(2.0))

    def test_inverse_roundtrip(self):
        losc = oscillator_lower_oscillation()
        for t in np.linspace(losc.inf_value, losc.sup_value, 17):
            z = float(losc.inverse(t))
            assert float(losc.f(np.clip(z, 0.0, 1.0))) == pytest.approx(t, abs=1e-12)

    def test_joint_pbox_is_squared_coordinate(self):
        scenario = builtin_scenario("oscillator")
        zs = np.linspace(0.0, 1.0, 101)
        assert np.allclose(scenario.pbox.lower(zs), zs ** 2, atol=1e-15)

    def test_lower_below_upper_expectation(self):
        results = {r.id: r.value for r in run_scenario(builtin_scenario("oscillator"))}
        assert results["damping_ratio_lower"] <= results["damping_ratio_upper"]


DIKE_GRID_STEP = 2.0 ** -47


def bisect_48(ts):
    """The dike inverse by 48 plain halvings of [-1, 1], the reference."""
    lo, hi = np.full(ts.shape, -1.0), np.ones(ts.shape)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = dike_overflow_curve(mid) >= ts
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi


class TestDikeFixture:
    def test_inverse_contract(self):
        # tiny levels, where the curve leaves 0 and Newton's method gives
        # up, take the full bisection; levels above about 28 return z = 1
        ts = np.concatenate([np.linspace(0.0, 40.0, 10_001)[1:],
                             np.geomspace(5e-324, 40.0, 2_000)])
        z = scenarios._dike_curve_inverse(ts)
        assert np.array_equal(np.rint((z + 1.0) / DIKE_GRID_STEP) * DIKE_GRID_STEP - 1.0, z)
        assert np.all(dike_overflow_curve(z) >= ts)
        assert np.all((z == -1.0) | (dike_overflow_curve(z - DIKE_GRID_STEP) < ts))

    def test_inverse_matches_reference_bisection(self, monkeypatch):
        inverse, seen = scenarios._dike_curve_inverse, []

        def recording(t):
            seen.append(np.ravel(np.asarray(t, dtype=float)).copy())
            return inverse(t)

        monkeypatch.setattr(scenarios, "_dike_curve_inverse", recording)
        run_scenario(builtin_scenario("dike"))
        query_levels = np.concatenate(seen)
        assert query_levels.size > 10_000
        random_levels = np.random.default_rng(3).uniform(0.0, 25.0, 20_000)
        for ts in (query_levels, random_levels):
            assert np.array_equal(inverse(ts), bisect_48(ts))

    def test_inverse_batch_needs_few_curve_calls(self, monkeypatch):
        curve, calls = dike_overflow_curve, []

        def counting(z):
            calls.append(np.size(z))
            return curve(z)

        monkeypatch.setattr(scenarios, "dike_overflow_curve", counting)
        scenarios._dike_curve_inverse(np.linspace(0.04, 40.0, 1_000))
        # 48 for a bisection of all of [-1, 1]
        assert len(calls) <= 8

    def test_inverse_of_scalar_is_float(self):
        z = scenarios._dike_curve_inverse(5.0)
        assert isinstance(z, float)
        assert z == bisect_48(np.array([5.0]))[0]

    def test_curve_landmarks(self):
        assert dike_overflow_curve(-1.0) == 0.0
        assert dike_overflow_curve(0.0) == pytest.approx(3.032, abs=1e-3)
        assert math.isinf(dike_overflow_curve(1.0))

    def test_threshold_cross_checked_by_direct_inversion(self):
        scenario = builtin_scenario("dike")
        uosc = dike_upper_oscillation()
        target = 0.5
        t_star = threshold_solve(scenario.pbox, uosc, target)

        def direct(t):
            z = optimize.brentq(lambda w: dike_overflow_curve(w) - t,
                                -1 + 1e-12, 1 - 1e-12, xtol=1e-13)
            return 1.0 - float(scenario.pbox.lower(z)) - target

        assert direct(t_star) == pytest.approx(0.0, abs=1e-6)

    def test_lower_below_upper_expectation(self):
        results = {r.id: r.value for r in run_scenario(builtin_scenario("dike"))}
        assert results["overflow_lower"] <= results["overflow_upper"]

    def test_deterministic_rerun(self):
        first = [(r.id, r.value, r.error_bound)
                 for r in run_scenario(builtin_scenario("dike"))]
        second = [(r.id, r.value, r.error_bound)
                  for r in run_scenario(builtin_scenario("dike"))]
        assert first == second

    def test_tail_tolerance_controls_reported_error(self):
        scenario = builtin_scenario("dike")
        uosc = dike_lower_oscillation()
        # a tighter quadrature tolerance narrows the bracket
        from pboxes.choquet import lower_expectation
        loose = lower_expectation(scenario.pbox, uosc, QuadratureConfig(abs_tol=1e-3))
        tight = lower_expectation(scenario.pbox, uosc, QuadratureConfig(abs_tol=1e-4))
        assert tight.error_bound < loose.error_bound
        assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound


class TestIndependentJointBound:
    def test_union_image_value_is_one_sided(self):
        scenario = builtin_scenario("example_independent_63")
        # the interior image of the union is the single bottom joint class
        from pboxes.preorder import ZInterval, normalize
        from pboxes.pbox import lower_prob_event
        image = normalize([ZInterval.closed(0.0, 0.5)])
        value = lower_prob_event(scenario.pbox, image)
        assert value <= 0.58 + 1e-12
        assert value == pytest.approx(0.4 * 0.3)


class TestApproximationConsistency:
    def test_product_rule_inputs_reproduce_joint(self):
        marginals = [MarginalSpec(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        # feed the joint's own sublevel bounds back through the
        # least-conservative construction
        rebuilt = best_pbox_approximation(lambda z: joint.lower(z),
                                          lambda z: joint.upper(z))
        for z in np.linspace(0.0, 1.0, 41):
            assert cdf_eval(rebuilt.lower, z) == pytest.approx(
                cdf_eval(joint.lower, z), abs=1e-15)
            assert cdf_eval(rebuilt.upper, z) == pytest.approx(
                cdf_eval(joint.upper, z), abs=1e-15)


class TestRegistries:
    def test_unknown_builtin(self):
        with pytest.raises(ValidationError):
            builtin_scenario("no_such_scenario")

    def test_unknown_oscillation(self):
        with pytest.raises(ValidationError):
            named_oscillation("no_such_oscillation")

    def test_unknown_cdf(self):
        with pytest.raises(ValidationError):
            named_cdf("no_such_cdf")

    def test_builtin_list_is_sorted_and_complete(self):
        assert BUILTIN_NAMES == tuple(sorted(BUILTIN_NAMES))
        assert {"oscillator", "dike", "example_ordering", "example_field_nonunique",
                "example_frechet_62", "example_independent_63",
                "example_diagonal_46"} == set(BUILTIN_NAMES)

    def test_piecewise_oscillation_needs_two_knots(self):
        with pytest.raises(ValidationError):
            piecewise_linear_oscillation([(0.0, 1.0)])

    def test_piecewise_oscillation_rejects_non_finite_knots(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                piecewise_linear_oscillation([(0.0, 0.0), (0.5, bad), (1.0, 0.0)])
            with pytest.raises(ValidationError):
                piecewise_linear_oscillation([(0.0, 0.0), (bad, 1.0), (1.0, 0.0)])


class TestArithmeticQuery:
    UNIFORM = RealLinePBox.from_knots(((0.0, 0.0), (1.0, 1.0)))

    def query(self, side):
        return Query("a", "arith_op", x1=self.UNIFORM, x2=self.UNIFORM, y=0.5, side=side)

    def test_sides(self):
        scenario = Scenario("s", None, ())
        assert run_query(scenario, self.query("lower")).value == pytest.approx(0.0, abs=1e-12)
        assert run_query(scenario, self.query("upper")).value == pytest.approx(0.5, abs=1e-12)

    def test_unknown_side_rejected(self):
        # the file parser checks side, but a library caller builds the Query itself
        with pytest.raises(ValidationError, match="side"):
            run_query(Scenario("s", None, ()), self.query("lowr"))
