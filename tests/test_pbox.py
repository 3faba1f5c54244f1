import math

import numpy as np
import pytest

from pboxes.errors import ValidationError
from pboxes.oracle import lp_lower_expectation, random_credal_instance
from pboxes.pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    StepCdf,
    lower_prob_event,
    lower_prob_field,
    upper_prob_event,
)
from pboxes.preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    ZEventSet,
    ZInterval,
    normalize,
)


def finite_pbox(lower, upper):
    space = FiniteQuotientSpace(tuple(range(len(lower))))
    return PBox(StepCdf(tuple(lower)), StepCdf(tuple(upper)), space)


def instance_pbox(instance):
    return finite_pbox([float(v) for v in instance.lower_cum],
                       [float(v) for v in instance.upper_cum])


UNIFORM = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
# flat up to 0.5, then rising at slope 2
KINKED = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0)))
NONUNIQUE_BOX = PBox(KINKED, UNIFORM, UNIT_INTERVAL)


class TestCdfEval:
    def test_step_lookup(self):
        step = StepCdf((0.2, 0.7, 1.0))
        assert step(1) == 0.7

    def test_analytic_square(self):
        square = AnalyticCdf(lambda z: z * z)
        assert square(0.5) == 0.25

    def test_identity_interpolation(self):
        assert UNIFORM(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(ValidationError):
            StepCdf((1.0,))(3)
        with pytest.raises(ValidationError):
            StepCdf((1.0,)).left_limit(3)

    def test_step_cdf_rejects_non_integer_index(self):
        step = StepCdf((0.2, 0.7, 1.0))
        for evaluate, index in ((step, 1.5), (step, -0.5), (step.left_limit, 2.9),
                                (step.left_limit, 1.0)):
            with pytest.raises(ValidationError, match="class indices"):
                evaluate(index)
        assert step(np.int64(1)) == step(1) == 0.7
        assert step.left_limit(np.int64(2)) == step.left_limit(2) == 0.7


class TestCdfLeftLimit:
    def test_step_bottom_convention(self):
        step = StepCdf((0.2, 0.7, 1.0))
        assert step.left_limit(0) == 0.0

    def test_step_interior(self):
        step = StepCdf((0.2, 0.7, 1.0))
        assert step.left_limit(2) == 0.7

    def test_continuous_analytic(self):
        ident = AnalyticCdf(lambda z: z)
        assert ident.left_limit(0.4) == 0.4


class TestStepCdfValidation:
    def test_monotone_required(self):
        with pytest.raises(ValidationError):
            StepCdf((0.5, 0.3, 1.0))

    def test_top_value_required(self):
        with pytest.raises(ValidationError):
            StepCdf((0.2, 0.9))

    def test_pbox_ordering_required(self):
        with pytest.raises(ValidationError):
            finite_pbox([0.5, 1.0], [0.3, 1.0])

    def test_non_finite_values_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                StepCdf((bad, 1.0))


class TestPBoxSpace:
    def test_space_inferred_without_one(self):
        step = PBox(StepCdf((0.4, 1.0)), StepCdf((0.6, 1.0)))
        assert step.space == FiniteQuotientSpace((0, 1))
        continuous = PBox(AnalyticCdf(lambda z: z), AnalyticCdf(lambda z: z))
        assert continuous.space is UNIT_INTERVAL
        knots = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
        assert PBox(knots, knots).space is UNIT_INTERVAL


class TestSharedKnotCrossing:
    """The validation grid lists a knot of both CDFs twice; that must not
    hide a crossing there, nor refuse a p-box that only touches there."""

    # lower exceeds upper only on (0.49999, 0.50001), between two points of
    # the uniform validation grid, and most at the shared knot 0.5
    LOWER = ((0.0, 0.0), (0.49999, 0.49), (0.5, 0.6), (1.0, 1.0))
    UPPER = ((0.0, 0.0), (0.5, 0.5), (0.50001, 0.61), (1.0, 1.0))

    def test_crossing_at_shared_knot_refused(self):
        lower, upper = PiecewiseLinearCdf(self.LOWER), PiecewiseLinearCdf(self.UPPER)
        zs = np.linspace(0.0, 1.0, 10_000)
        assert np.all(lower(zs) <= upper(zs))
        assert lower(0.5) > upper(0.5)
        with pytest.raises(ValidationError, match="lower CDF exceeds upper CDF"):
            PBox(lower, upper, UNIT_INTERVAL)

    def test_touching_at_shared_knot_accepted(self):
        touching = ((0.0, 0.0), (0.49999, 0.49), (0.5, 0.5), (1.0, 1.0))
        box = PBox(PiecewiseLinearCdf(touching), PiecewiseLinearCdf(self.UPPER),
                   UNIT_INTERVAL)
        assert box.lower(0.5) == box.upper(0.5)


class TestPiecewiseLinearCdfValidation:
    def test_non_finite_knots_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                PiecewiseLinearCdf(((0.0, 0.0), (bad, 0.5), (1.0, 1.0)))
            with pytest.raises(ValidationError):
                PiecewiseLinearCdf(((0.0, 0.0), (0.5, bad), (1.0, 1.0)))


class TestLowerProbField:
    def test_slack_swallows_increment(self):
        # lower CDF still at 0 when the upper has already reached 0.5
        assert lower_prob_field(NONUNIQUE_BOX, [0.5, 0.6]) == 0.0

    def test_envelope_of_precise_models_differs(self):
        precise_low = PBox(KINKED, KINKED, UNIT_INTERVAL)
        precise_high = PBox(UNIFORM, UNIFORM, UNIT_INTERVAL)
        values = (lower_prob_field(precise_low, [0.5, 0.6]),
                  lower_prob_field(precise_high, [0.5, 0.6]))
        assert values == (pytest.approx(0.2), pytest.approx(0.1))

    def test_precise_is_additive(self, rng):
        box = PBox(UNIFORM, UNIFORM, UNIT_INTERVAL)
        for _ in range(25):
            cuts = sorted(rng.random() for _ in range(6))
            total = lower_prob_field(box, cuts)
            parts = sum(lower_prob_field(box, cuts[k:k + 2]) for k in (0, 2, 4))
            assert total == pytest.approx(parts, abs=1e-12)
            assert total == pytest.approx(
                sum(cuts[k + 1] - cuts[k] for k in (0, 2, 4)), abs=1e-12)

    def test_whole_space_with_sentinel(self):
        assert lower_prob_field(NONUNIQUE_BOX, [None, 1.0]) == 1.0
        box = finite_pbox([0.1, 0.4, 1.0], [0.5, 0.8, 1.0])
        assert lower_prob_field(box, [-1, 2]) == 1.0
        assert lower_prob_field(box, [None, 2]) == 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            lower_prob_field(NONUNIQUE_BOX, [0.6, 0.5])
        with pytest.raises(ValidationError):
            lower_prob_field(NONUNIQUE_BOX, [0.1, 0.2, 0.3])
        with pytest.raises(ValidationError, match="sentinel"):
            lower_prob_field(NONUNIQUE_BOX, [0.1, None])

    def test_sentinel_minus_one_is_finite_only(self):
        # on the continuum every endpoint but the sentinel lies in [0, 1]
        for endpoints in ([-1, 0.5], [0.5, 1.5]):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                lower_prob_field(NONUNIQUE_BOX, endpoints)

    def test_finite_endpoints_are_class_indices(self):
        box = finite_pbox([0.1, 0.4, 1.0], [0.5, 0.8, 1.0])
        for endpoints in ([-1, 1.0], [0.5, 2], [-2, 1], [0, 3]):
            with pytest.raises(ValidationError, match="class indices"):
                lower_prob_field(box, endpoints)
        with pytest.raises(ValidationError, match="increasing"):
            lower_prob_field(box, [None, -1])
        # (-1, 0] u (1, 2] is {0} u {2}: 0.1 + max(0, 1.0 - 0.8)
        assert lower_prob_field(box, [-1, 0, 1, 2]) == pytest.approx(0.1 + 0.2)
        # (0, 2] is {1, 2}: 1.0 - 0.5, with numpy integers as indices
        assert lower_prob_field(box, [np.int64(0), np.int64(2)]) == pytest.approx(0.5)

    def test_open_bottom_at_zero_reads_the_upper_cdf(self):
        # a precise CDF with an atom of 0.25 at 0: (0, 0.6] leaves the atom
        # out, the sentinel's closed sublevel set [0, 0.6] keeps it
        atom = PiecewiseLinearCdf(((0.0, 0.25), (1.0, 1.0)))
        box = PBox(atom, atom, UNIT_INTERVAL)
        assert lower_prob_field(box, [0.0, 0.6, 0.7, 1.0]) == pytest.approx(0.45 + 0.225)
        assert lower_prob_field(box, [None, 0.6]) == pytest.approx(0.7)
        event = normalize([ZInterval.left_open(0.0, 0.6), ZInterval.left_open(0.7, 1.0)])
        assert lower_prob_field(box, [0.0, 0.6, 0.7, 1.0]) == lower_prob_event(box, event)


def _jump_at_half(z):
    z = np.asarray(z, dtype=float)
    return np.where(z >= 1.0, 1.0, np.where(z >= 0.5, 0.6, 0.0))


def _jump_at_half_left(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0.5, 0.6, 0.0)


# 0 below 0.5, 0.6 from 0.5 on, 1 at 1: the left limit at 0.5 is 0
JUMP_AT_HALF = AnalyticCdf(_jump_at_half, _jump_at_half_left)

ORDERING_FINE = finite_pbox([0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0, 1.0])
ORDERING_COARSE = finite_pbox([0.0, 1.0], [0.0, 1.0])


def one_interval(iv):
    """The event of a single full interval, not normalized, so that an empty
    one is refused."""
    return ZEventSet((iv,))


class TestLowerProbInterval:
    """A single full interval: a run of consecutive classes, where every
    class has an immediate predecessor, or one interval of the continuum,
    where only 0 has one."""

    def test_singleton_with_predecessor(self):
        assert lower_prob_event(ORDERING_FINE, ClassSubset.of(2)) == 1.0

    def test_singleton_on_coarser_preorder(self):
        assert lower_prob_event(ORDERING_COARSE, ClassSubset.of(1)) == 1.0

    def test_sublevel_closed_interval(self):
        assert lower_prob_event(NONUNIQUE_BOX, one_interval(ZInterval.closed(0.0, 0.75))) == \
            pytest.approx(0.5)

    def test_interior_closed_interval_uses_value_not_left_limit(self):
        # away from 0 there is no immediate predecessor, so the upper CDF is
        # evaluated at the endpoint itself
        box = NONUNIQUE_BOX
        got = lower_prob_event(box, one_interval(ZInterval.closed(0.5, 0.9)))
        assert got == pytest.approx(max(0.0, 0.8 - 0.5))

    def test_open_interval_uses_left_limit(self):
        got = lower_prob_event(NONUNIQUE_BOX, one_interval(ZInterval.open(0.5, 0.9)))
        assert got == pytest.approx(0.3)

    def test_open_top_at_a_jump_reads_the_left_limit(self):
        box = PBox(JUMP_AT_HALF, AnalyticCdf(lambda z: np.ones_like(np.asarray(z, float))),
                   UNIT_INTERVAL)
        assert lower_prob_event(box, one_interval(ZInterval.right_open(0.0, 0.5))) == 0.0
        assert lower_prob_event(box, one_interval(ZInterval.closed(0.0, 0.5))) == 0.6
        assert lower_prob_event(box, one_interval(ZInterval.right_open(0.0, 1.0))) == 0.6

    def test_degenerate_open_rejected(self):
        with pytest.raises(ValidationError):
            lower_prob_event(NONUNIQUE_BOX, one_interval(ZInterval(0.4, 0.4, True, False)))

    def test_finite_range_validated(self):
        with pytest.raises(ValidationError):
            lower_prob_event(ORDERING_FINE, ClassSubset(frozenset(range(3, 10))))

    def test_numpy_integer_indices(self):
        box = finite_pbox([0.1, 0.4, 1.0], [0.5, 0.8, 1.0])
        for a, b in ((0, 1), (1, 2), (2, 2)):
            assert (lower_prob_event(box, ClassSubset.of(np.int64(a), np.int32(b)))
                    == lower_prob_event(box, ClassSubset.of(a, b)))
        assert (lower_prob_field(box, [np.int64(-1), np.int64(0), np.int64(1), np.int64(2)])
                == lower_prob_field(box, [-1, 0, 1, 2]))
        for indices in ((0.0, 1.0), (True, 1)):
            with pytest.raises((TypeError, ValidationError)):
                lower_prob_event(box, ClassSubset.of(*indices))


class TestOrderingExample:
    def test_fine_ordering_all_subsets(self):
        for mask in range(32):
            members = frozenset(i for i in range(5) if mask & (1 << i))
            value = lower_prob_event(ORDERING_FINE, ClassSubset(members))
            assert value == (1.0 if 2 in members else 0.0)

    def test_coarse_ordering_all_subsets(self):
        partition = ((0, 1), (2, 3, 4))
        for mask in range(32):
            members = frozenset(i for i in range(5) if mask & (1 << i))
            interior = ClassSubset(frozenset(
                idx for idx, cls in enumerate(partition) if set(cls) <= members))
            value = lower_prob_event(ORDERING_COARSE, interior)
            assert value == (1.0 if {2, 3, 4} <= members else 0.0)


class TestLowerProbEvent:
    def test_diagonal_corner_rectangle(self):
        box = PBox(AnalyticCdf(lambda z: z), AnalyticCdf(lambda z: z), UNIT_INTERVAL)
        image = normalize([ZInterval.closed(0.0, 0.25)])
        assert lower_prob_event(box, image) == pytest.approx(0.25)

    def test_empty_interior_gives_zero(self):
        assert lower_prob_event(NONUNIQUE_BOX, EMPTY_EVENT) == 0.0

    @pytest.mark.parametrize("box, event", [(NONUNIQUE_BOX, EMPTY_EVENT),
                                            (ORDERING_FINE, ClassSubset())],
                             ids=["z-event", "class-subset"])
    def test_empty_event_is_the_float_zero(self, box, event):
        value = lower_prob_event(box, event)
        assert type(value) is float and value == 0.0

    def test_matches_lp_oracle_on_random_finite_instances(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            instance = random_credal_instance(rng, n)
            box = instance_pbox(instance)
            mask = rng.randrange(1, 1 << n)
            members = frozenset(i for i in range(n) if mask & (1 << i))
            formula = lower_prob_event(box, ClassSubset(members))
            exact = lp_lower_expectation(
                instance, [1 if i in members else 0 for i in range(n)])
            assert formula == pytest.approx(exact, abs=1e-9)

    def test_monotone_in_event(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            box = instance_pbox(random_credal_instance(rng, n))
            small_mask = rng.randrange(1 << n)
            extra = rng.randrange(1 << n)
            small = ClassSubset(frozenset(i for i in range(n) if small_mask & (1 << i)))
            big = ClassSubset(frozenset(
                i for i in range(n) if (small_mask | extra) & (1 << i)))
            assert lower_prob_event(box, small) <= lower_prob_event(box, big) + 1e-12

    def test_superadditive_on_disjoint_unions(self, rng):
        for _ in range(30):
            n = rng.randint(3, 6)
            box = instance_pbox(random_credal_instance(rng, n))
            mask_a = rng.randrange(1 << n)
            mask_b = rng.randrange(1 << n) & ~mask_a
            to_subset = lambda m: ClassSubset(frozenset(
                i for i in range(n) if m & (1 << i)))
            union = lower_prob_event(box, to_subset(mask_a | mask_b))
            parts = (lower_prob_event(box, to_subset(mask_a))
                     + lower_prob_event(box, to_subset(mask_b)))
            assert union >= parts - 1e-12

    def test_space_type_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            lower_prob_event(NONUNIQUE_BOX, ClassSubset.of(0))
        with pytest.raises(ValidationError):
            lower_prob_event(ORDERING_FINE, FULL_EVENT)


class TestUpperProbEvent:
    def test_whole_space(self):
        assert upper_prob_event(NONUNIQUE_BOX, EMPTY_EVENT) == 1.0

    def test_singleton_by_complement(self):
        # the complement of {2} has two runs, each of lower probability 0
        complement = ClassSubset.of(0, 1, 3, 4)
        assert upper_prob_event(ORDERING_FINE, complement) == 1.0

    def test_precise_collapse(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            cum = sorted(rng.random() for _ in range(n - 1)) + [1.0]
            box = finite_pbox(cum, cum)
            mask = rng.randrange(1 << n)
            members = frozenset(i for i in range(n) if mask & (1 << i))
            others = frozenset(range(n)) - members
            low = lower_prob_event(box, ClassSubset(members))
            up = upper_prob_event(box, ClassSubset(others))
            assert low == pytest.approx(up, abs=1e-12)

    def test_conjugacy_bounds(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            box = instance_pbox(random_credal_instance(rng, n))
            mask = rng.randrange(1 << n)
            members = frozenset(i for i in range(n) if mask & (1 << i))
            others = frozenset(range(n)) - members
            low = lower_prob_event(box, ClassSubset(members))
            up = upper_prob_event(box, ClassSubset(others))
            assert low <= up + 1e-12
            assert 0.0 <= low and up <= 1.0


class TestBestPBoxApproximation:
    """The tightest p-box under a model's sublevel bounds is the PBox of
    those bounds: step CDFs on a finite space, analytic ones on [0, 1]."""

    def test_vacuous_input(self):
        box = PBox(AnalyticCdf(lambda z: np.where(np.asarray(z) >= 1.0, 1.0, 0.0),
                               lambda z: 0.0),
                   AnalyticCdf(lambda z: np.asarray(z) * 0.0 + 1.0))
        assert float(box.lower(0.999)) == 0.0
        assert float(box.upper(0.0)) == 1.0
        # an interval that stops short of the top has lower probability 0
        assert lower_prob_event(box, normalize([ZInterval.open(0.2, 1.0)])) == 0.0
        assert lower_prob_event(box, FULL_EVENT) == 1.0

    def test_precise_input(self):
        box = PBox(AnalyticCdf(lambda z: np.asarray(z, dtype=float)),
                   AnalyticCdf(lambda z: np.asarray(z, dtype=float)))
        assert float(box.lower(0.3)) == float(box.upper(0.3)) == pytest.approx(0.3)

    def test_finite_vectors(self):
        space = FiniteQuotientSpace(("a", "b", "c"))
        box = PBox(StepCdf((0.1, 0.5, 1.0)), StepCdf((0.4, 0.9, 1.0)), space)
        assert isinstance(box.lower, StepCdf)
        assert lower_prob_event(box, ClassSubset.of(0)) == pytest.approx(0.1)

    def test_monotonicity_violation_rejected(self):
        space = FiniteQuotientSpace(("a", "b"))
        with pytest.raises(ValidationError):
            PBox(StepCdf((0.5, 1.0)), StepCdf((0.4, 1.0)), space)
