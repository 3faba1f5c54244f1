import math

import numpy as np
import pytest
from case_study_reference import REFERENCE_CURVES, dike_overflow_curve

from pboxes import choquet
from pboxes.choquet import (
    KnotOscillation,
    QuadratureConfig,
    threshold_solve,
    upper_expectation,
)
from pboxes.errors import ValidationError
from pboxes.multivariate import INDEPENDENT, RealLinePBox, combine
from pboxes.pbox import AnalyticCdf, PBox
from pboxes.preorder import FULL_EVENT, ClassSubset
from pboxes.scenarios import (
    BUILTIN_NAMES,
    Query,
    builtin_scenario,
    named_cdf,
    named_oscillation,
    named_tail,
    run_query,
)
from pboxes.scenarios import _dike_tail


# the case-study rows (value, error bound) at the default configuration; a
# change that keeps the Darboux refinement rule should leave them unchanged
PINNED_ROWS = {
    "damping_ratio_lower": (0.583877959891, 3.70047708194e-05),
    "damping_ratio_upper": (1.66375182442, 3.85557807826e-05),
    "overflow_lower": (1.51507930027, 4.13674808643e-05),
    "overflow_upper": (6.42349333933, 3.69017225974e-05),
    "design_height_p01": (10.7246505658, 1e-12),
}


def assert_pinned_rows(results):
    """Every row of ``results`` matches its pinned value and bound to 1e-9 relative."""
    for r in results:
        value, error_bound = PINNED_ROWS[r.id]
        assert r.value == pytest.approx(value, rel=1e-9, abs=0.0), r.id
        assert r.error_bound == pytest.approx(error_bound, rel=1e-9, abs=0.0), r.id


class TestCornerOscillations:
    """The case studies' oscillations, built from their gambles by the corner
    rule, against the hand-derived curves of ``case_study_reference``."""

    GRID = np.concatenate([np.linspace(0.0, 1.0, 1025), [1e-9, 0.5 - 1e-12, 1.0 - 1e-9]])

    @pytest.mark.parametrize("name", sorted(REFERENCE_CURVES))
    def test_agrees_with_the_hand_derived_curve(self, name):
        osc = named_oscillation(name)
        got, want = osc.f(self.GRID), REFERENCE_CURVES[name](self.GRID)
        finite = np.isfinite(want)
        assert np.array_equal(finite, np.isfinite(got))
        # the dike's upper side is unbounded, so its agreement is relative
        scale = np.abs(want[finite]) if name == "dike_upper" else 1.0
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale)
        for z in (0.0, 1.0):
            assert float(osc.f(z)) == pytest.approx(REFERENCE_CURVES[name](z),
                                                    rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name, bounds", [
        ("oscillator_lower", (1.0 / math.sqrt(6.0), 1.0)),
        ("oscillator_upper", (1.0, 3.0 / math.sqrt(2.0))),
        ("dike_lower", (0.0, 3.0315831610902353)),
        ("dike_upper", (3.0315831610902353, math.inf)),
    ])
    def test_bounds_are_the_corner_values(self, name, bounds):
        osc = named_oscillation(name)
        assert (osc.inf_value, osc.sup_value) == bounds
        assert type(osc.inf_value) is float and type(osc.sup_value) is float


class TestOscillatorFixture:
    def test_oscillation_endpoints(self):
        losc = named_oscillation("oscillator_lower")
        uosc = named_oscillation("oscillator_upper")
        assert float(losc.f(0.0)) == pytest.approx(1.0)
        assert float(losc.f(1.0)) == pytest.approx(1.0 / math.sqrt(6.0))
        assert float(uosc.f(1.0)) == pytest.approx(3.0 / math.sqrt(2.0))

    def test_joint_pbox_is_squared_coordinate(self):
        scenario = builtin_scenario("oscillator")
        zs = np.linspace(0.0, 1.0, 101)
        assert np.allclose(scenario.pbox.lower(zs), zs ** 2, atol=1e-15)

    def test_lower_below_upper_expectation(self):
        rows = [run_query(q) for q in builtin_scenario("oscillator").queries]
        assert_pinned_rows(rows)
        results = {r.id: r.value for r in rows}
        assert results["damping_ratio_lower"] <= results["damping_ratio_upper"]


class TestDikeFixture:
    def test_curve_landmarks(self):
        assert dike_overflow_curve(-1.0) == 0.0
        assert dike_overflow_curve(0.0) == pytest.approx(3.032, abs=1e-3)
        assert math.isinf(dike_overflow_curve(1.0))

    def test_threshold_cross_checked_by_direct_inversion(self):
        scenario = builtin_scenario("dike")
        uosc = named_oscillation("dike_upper")
        target = 0.5
        t_star = threshold_solve(scenario.pbox, uosc, target)

        def direct(t):
            # bisect the increasing overflow curve down to a bracket of 1e-13 around t
            lo, hi = -1 + 1e-12, 1 - 1e-12
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if dike_overflow_curve(mid) < t else (lo, mid)
            return 1.0 - float(scenario.pbox.lower(hi)) - target

        assert direct(t_star) == pytest.approx(0.0, abs=1e-6)

    def test_lower_below_upper_expectation(self):
        rows = [run_query(q) for q in builtin_scenario("dike").queries]
        assert_pinned_rows(rows)
        results = {r.id: r.value for r in rows}
        assert results["overflow_lower"] <= results["overflow_upper"]

    def test_deterministic_rerun(self):
        first = [(r.id, r.value, r.error_bound)
                 for r in map(run_query, builtin_scenario("dike").queries)]
        second = [(r.id, r.value, r.error_bound)
                  for r in map(run_query, builtin_scenario("dike").queries)]
        assert first == second

    def test_abs_tol_controls_reported_error(self):
        scenario = builtin_scenario("dike")
        uosc = named_oscillation("dike_lower")
        # a tighter quadrature tolerance narrows the bracket
        from pboxes.choquet import lower_expectation
        loose = lower_expectation(scenario.pbox, uosc, QuadratureConfig(abs_tol=1e-3))
        tight = lower_expectation(scenario.pbox, uosc, QuadratureConfig(abs_tol=1e-4))
        assert tight.error_bound < loose.error_bound
        assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound


class TestDikeTail:
    """The dike's tail certificate, which its overflow_upper query carries."""

    @pytest.mark.parametrize("level", [11.03, 19.03])
    def test_bounds_the_upper_darboux_sum_to_the_grid_top(self, level):
        # the upper sum over the coordinate grid, 1 - z geometric from 1 to
        # 2**-52, of the upper cut probability between level and the top
        # finite level of that grid
        box, osc = builtin_scenario("dike").pbox, named_oscillation("dike_upper")
        top = float(osc.f(1.0 - 2.0 ** -52))
        assert top == pytest.approx(29.63, abs=0.01)
        levels, probs = choquet._coordinate_grid(box, osc, True, level, top)
        s = np.concatenate([[0.0], 1.0 - np.geomspace(1.0, 2.0 ** -52, 1 << 16)])
        upper_sum = float(np.diff(levels(s)) @ probs(s)[:-1])
        assert 0.0 < upper_sum <= _dike_tail(level)

    def test_falls_as_the_level_grows(self):
        levels = [0.5, 1.0, 3.03, 4.03, 11.03, 19.03, 35.03, 67.03, 1e6, 2.0 ** 63, 1e300]
        bounds = [_dike_tail(t) for t in levels]
        assert all(b > c for b, c in zip(bounds, bounds[1:-2]))
        assert bounds[-3] >= bounds[-2] >= bounds[-1] > 0.0
        assert _dike_tail(19.03) == pytest.approx(3.1e-7, rel=0.02)
        assert _dike_tail(35.03) == pytest.approx(1.5e-21, rel=0.05)
        assert _dike_tail(0.0) == _dike_tail(-1.0) == math.inf

    def test_only_the_dike_pbox_gets_it(self):
        dike = builtin_scenario("dike")
        query = next(q for q in dike.queries if q.id == "overflow_upper")
        assert query.tail is _dike_tail
        assert all(q.tail is None for q in dike.queries if q.id != "overflow_upper")
        assert named_tail("dike_upper", dike.pbox) is _dike_tail
        uniform = PBox(named_cdf("uniform"), named_cdf("one"))
        assert named_tail("dike_upper", uniform) is None
        assert named_tail("oscillator_upper", builtin_scenario("oscillator").pbox) is None

    def test_without_it_the_dike_upper_expectation_is_not_converged(self):
        # on any other p-box the dike's bound is unsound, so none is taken
        uniform = PBox(named_cdf("uniform"), named_cdf("one"))
        res = upper_expectation(uniform, named_oscillation("dike_upper"))
        assert not res.converged
        assert math.isfinite(res.value) and math.isfinite(res.error_bound)

    @pytest.mark.parametrize("kind, fields", [
        ("expectation_lower", {"oscillation": "dike_lower"}),
        ("threshold", {"oscillation": "dike_upper", "target": 0.1}),
        ("event_lower", {"event": ClassSubset()}),
    ])
    def test_only_an_upper_expectation_takes_a_tail(self, kind, fields):
        box = builtin_scenario("dike").pbox
        if "oscillation" in fields:
            fields = dict(fields, oscillation=named_oscillation(fields["oscillation"]))
        with pytest.raises(ValidationError, match="^tail: "):
            Query("q", kind, box, tail=_dike_tail, **fields)

    def test_a_tail_is_callable(self):
        with pytest.raises(ValidationError, match="^tail: "):
            Query("q", "expectation_upper", builtin_scenario("dike").pbox,
                  oscillation=named_oscillation("dike_upper"), tail=1e-9)


class TestIndependentJointBound:
    def test_union_image_value_is_one_sided(self):
        scenario = builtin_scenario("example_independent_63")
        # the interior image of the union is the single bottom joint class
        from pboxes.pbox import lower_prob_event
        value = lower_prob_event(scenario.pbox, ClassSubset.of(0))
        assert value <= 0.58 + 1e-12
        assert value == pytest.approx(0.4 * 0.3)


class TestApproximationConsistency:
    def test_product_rule_inputs_reproduce_joint(self):
        marginals = [PBox(named_cdf("uniform"), named_cdf("one"))
                     for _ in range(2)]
        joint = combine(marginals, INDEPENDENT)
        # feed the joint's own sublevel bounds back through the
        # least-conservative construction
        rebuilt = PBox(AnalyticCdf(lambda z: joint.lower(z)),
                       AnalyticCdf(lambda z: joint.upper(z)))
        for z in np.linspace(0.0, 1.0, 41):
            assert float(rebuilt.lower(z)) == pytest.approx(float(joint.lower(z)), abs=1e-15)
            assert float(rebuilt.upper(z)) == pytest.approx(float(joint.upper(z)), abs=1e-15)


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

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_built_once(self, name):
        assert builtin_scenario(name) is builtin_scenario(name)

    def test_piecewise_oscillation_needs_two_knots(self):
        with pytest.raises(ValidationError):
            KnotOscillation([(0.0, 1.0)])

    def test_piecewise_oscillation_rejects_non_finite_knots(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                KnotOscillation([(0.0, 0.0), (0.5, bad), (1.0, 0.0)])
            with pytest.raises(ValidationError):
                KnotOscillation([(0.0, 0.0), (bad, 1.0), (1.0, 0.0)])


class TestArithmeticQuery:
    UNIFORM = RealLinePBox.from_knots(((0.0, 0.0), (1.0, 1.0)))

    def query(self, side):
        return Query("a", "arith_op", x1=self.UNIFORM, x2=self.UNIFORM, y=0.5, side=side)

    def test_sides(self):
        assert run_query(self.query("lower")).value == pytest.approx(0.0, abs=1e-12)
        assert run_query(self.query("upper")).value == pytest.approx(0.5, abs=1e-12)

    def test_unknown_side_rejected(self):
        # a library caller builds the Query itself; building it checks side
        with pytest.raises(ValidationError, match="side"):
            self.query("lowr")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError, match="^op: "):
            Query("a", "arith_op", x1=self.UNIFORM, x2=self.UNIFORM, y=0.5, op="modulo")

    def test_arith_add_only_adds(self):
        u12 = RealLinePBox.from_knots(((1.0, 0.0), (2.0, 1.0)))
        with pytest.raises(ValidationError, match="^op: expected 'add' in an arith_add query, "
                                                  "got 'multiply'$"):
            Query("q", "arith_add", x1=u12, x2=u12, op="multiply", y=2.25)
        added = Query("q", "arith_add", x1=u12, x2=u12, op="add", y=2.25)
        assert run_query(added).value == run_query(Query("q", "arith_add", x1=u12, x2=u12,
                                                         y=2.25)).value
        multiplied = Query("q", "arith_op", x1=u12, x2=u12, op="multiply", y=2.25)
        assert run_query(multiplied).value == pytest.approx(0.125, abs=1e-12)


class TestQueryValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="^kind: "):
            Query("q", "sorcery")

    @pytest.mark.parametrize("kind", ["event_lower", "event_upper", "expectation_lower",
                                      "expectation_upper", "threshold"])
    def test_model_queries_need_a_pbox(self, kind):
        with pytest.raises(ValidationError, match="^pbox: "):
            Query("q", kind)

    @pytest.mark.parametrize("kind, fields, field", [
        ("event_lower", {}, "event"),
        ("expectation_lower", {}, "oscillation"),
        ("expectation_upper", {}, "oscillation"),
        ("threshold", {"target": 0.5}, "oscillation"),
        ("threshold", {"oscillation": named_oscillation("dike_upper")}, "target"),
        ("arith_op", {"x2": TestArithmeticQuery.UNIFORM, "y": 0.5}, "x1"),
        ("arith_add", {"x1": TestArithmeticQuery.UNIFORM, "y": 0.5}, "x2"),
        ("arith_op", {"x1": TestArithmeticQuery.UNIFORM, "x2": TestArithmeticQuery.UNIFORM},
         "y"),
    ])
    def test_missing_payload_names_its_field(self, kind, fields, field):
        box = None if kind.startswith("arith") else builtin_scenario("oscillator").pbox
        with pytest.raises(ValidationError, match=f"^{field}: missing from a {kind} query$"):
            Query("q", kind, box, **fields)

    def test_engine_checks_run_when_built(self):
        box = builtin_scenario("dike").pbox
        uniform = TestArithmeticQuery.UNIFORM
        with pytest.raises(ValidationError, match=r"^target: threshold target must lie"):
            Query("q", "threshold", box, oscillation=named_oscillation("dike_upper"), target=1.5)
        with pytest.raises(ValidationError, match="^oscillation: a lower oscillation"):
            Query("q", "expectation_lower", box, oscillation=named_oscillation("dike_upper"))
        with pytest.raises(ValidationError, match="^y: expected a finite number"):
            Query("q", "arith_op", x1=uniform, x2=uniform, y=math.inf)
        with pytest.raises(ValidationError, match="^y: expected a finite number, got nan$"):
            Query("q", "arith_op", x1=uniform, x2=uniform, y=(0.5, math.nan))
        with pytest.raises(ValidationError, match="^y: expected a finite number, got one too"):
            Query("q", "arith_op", x1=uniform, x2=uniform, y=(0.5, 10**400))
        with pytest.raises(TypeError, match="expected a number, got str"):
            Query("q", "arith_op", x1=uniform, x2=uniform, y=(0.5, "1"))
        with pytest.raises(ValidationError, match="^x1: multiplication and division need"):
            Query("q", "arith_op", x1=uniform, x2=uniform, y=0.5, op="divide")

    def test_query_must_suit_the_space_of_its_pbox(self):
        finite = builtin_scenario("example_independent_63").pbox
        continuum = builtin_scenario("oscillator").pbox
        with pytest.raises(ValidationError, match="^pbox: expectation_lower queries need"):
            Query("q", "expectation_lower", finite,
                  oscillation=named_oscillation("oscillator_lower"))
        with pytest.raises(ValidationError, match="^pbox: threshold queries need"):
            Query("q", "threshold", finite, oscillation=named_oscillation("oscillator_upper"),
                  target=0.5)
        with pytest.raises(ValidationError, match="^event: z-events"):
            Query("q", "event_lower", finite, event=FULL_EVENT)
        with pytest.raises(ValidationError, match="^event: class subsets"):
            Query("q", "event_lower", continuum, event=ClassSubset.of(0))
