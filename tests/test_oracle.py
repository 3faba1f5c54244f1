import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboxes.errors import ValidationError
from pboxes.oracle import (
    FiniteCredalInstance,
    FiniteLowerProbability,
    additivity_check,
    complete_monotonicity_check,
    envelope_sample_bound,
    lp_lower_expectation,
    natural_extension_table,
    pbox_representability_check,
    random_credal_instance,
)
from pboxes.choquet import lower_expectation_finite
from pboxes.multivariate import FRECHET, INDEPENDENT, MarginalSpec, combine
from pboxes.oracle import _chain_vertex_min, _fraction
from pboxes.pbox import PBox, StepCdf, lower_prob_event
from pboxes.preorder import ClassSubset, FiniteQuotientSpace

from lp_reference import credal_lp, simplex_min


def coupling_lower_probability(p1_band, p2_band):
    """Lower probability of every subset of a 2x2 product space.

    Atoms are indexed 0=(low, low), 1=(low, high), 2=(high, low),
    3=(high, high); the bands constrain the first-margin and second-margin
    probabilities of the "low" value.  Solved by the exact rational simplex
    over the coupling polytope.
    """
    lo1, hi1 = (_fraction(v) for v in p1_band)
    lo2, hi2 = (_fraction(v) for v in p2_band)
    row1 = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]   # q(low, .)
    col1 = [Fraction(1), Fraction(0), Fraction(1), Fraction(0)]   # q(., low)
    a_ub = [row1, [-v for v in row1], col1, [-v for v in col1]]
    b_ub = [hi1, -lo1, hi2, -lo2]
    a_eq = [[Fraction(1)] * 4]
    b_eq = [Fraction(1)]
    values = {}
    for mask in range(16):
        cost = [Fraction(1 if mask & (1 << i) else 0) for i in range(4)]
        values[mask] = float(simplex_min(cost, a_ub, b_ub, a_eq, b_eq))
    return FiniteLowerProbability(4, values)


class TestLpLowerExpectation:
    def test_precise_instance_is_dot_product(self):
        cum = (Fraction(1, 5), Fraction(1, 2), Fraction(1))
        instance = FiniteCredalInstance(cum, cum)
        masses = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
        gamble = [3.0, -1.0, 2.0]
        expected = float(sum(m * _fraction(g) for m, g in zip(masses, gamble)))
        assert lp_lower_expectation(instance, gamble) == pytest.approx(expected, abs=0)

    def test_two_class_band(self):
        instance = FiniteCredalInstance((0.4, 1.0), (0.6, 1.0))
        assert lp_lower_expectation(instance, [1, 0]) == pytest.approx(0.4)
        assert lp_lower_expectation(instance, [0, 1]) == pytest.approx(0.4)

    def test_sweep_equals_simplex(self, rng):
        for _ in range(60):
            n = rng.randint(2, 12)
            instance = random_credal_instance(rng, n, denominator=rng.choice([4, 20, 997]))
            gamble = [_fraction(rng.randrange(-300, 301)) / 100 for _ in range(n)]
            assert _chain_vertex_min(instance, gamble) == credal_lp(instance, gamble)

    def test_twelve_classes_equal_simplex_exactly(self, rng):
        instance = random_credal_instance(rng, 12, denominator=50)
        gamble = [rng.randrange(-100, 101) / 10 for _ in range(12)]
        exact = credal_lp(instance, [_fraction(g) for g in gamble])
        assert _chain_vertex_min(instance, [_fraction(g) for g in gamble]) == exact
        assert lp_lower_expectation(instance, gamble) == float(exact)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_sweep_equals_simplex(self, data):
        # bounds with mixed denominators up to 10**12, as limit_denominator
        # leaves them in pbox_representability_check
        n = data.draw(st.integers(1, 8), label="n")
        bound = st.fractions(min_value=0, max_value=1, max_denominator=10**12)
        a = sorted(data.draw(st.lists(bound, min_size=n - 1, max_size=n - 1), label="a"))
        b = sorted(data.draw(st.lists(bound, min_size=n - 1, max_size=n - 1), label="b"))
        instance = FiniteCredalInstance(
            tuple(min(x, y) for x, y in zip(a, b)) + (Fraction(1),),
            tuple(max(x, y) for x, y in zip(a, b)) + (Fraction(1),))
        indicator = st.sampled_from([Fraction(0), Fraction(1)])
        value = st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False).map(Fraction),  # binary denominators
            st.fractions(min_value=-100, max_value=100, max_denominator=10**6))
        gamble = data.draw(st.one_of(st.lists(indicator, min_size=n, max_size=n),
                                     st.lists(value, min_size=n, max_size=n)), label="gamble")
        assert _chain_vertex_min(instance, gamble) == credal_lp(instance, gamble)

    def test_matches_finite_formula_at_large_n(self, rng):
        for n in (25, 50, 100, 200):
            instance = random_credal_instance(rng, n)
            box = PBox(StepCdf(tuple(float(v) for v in instance.lower_cum)),
                       StepCdf(tuple(float(v) for v in instance.upper_cum)),
                       FiniteQuotientSpace(tuple(range(n))))
            for _ in range(5):
                gamble = [rng.randrange(-500, 501) / 100 for _ in range(n)]
                assert lp_lower_expectation(instance, gamble) == pytest.approx(
                    lower_expectation_finite(box, gamble), abs=1e-9)
            for _ in range(5):
                members = [i for i in range(n) if rng.random() < 0.5]
                assert lp_lower_expectation(
                    instance, [1 if i in members else 0 for i in range(n)]) == pytest.approx(
                    lower_prob_event(box, ClassSubset(members)), abs=1e-9)

    def test_length_mismatch(self):
        instance = FiniteCredalInstance((1,), (1,))
        with pytest.raises(ValidationError):
            lp_lower_expectation(instance, [1.0, 2.0])


class TestInstanceValidation:
    def test_monotone_required(self):
        with pytest.raises(ValidationError):
            FiniteCredalInstance((0.5, 0.4, 1.0), (0.6, 0.8, 1.0))

    def test_ordering_required(self):
        with pytest.raises(ValidationError):
            FiniteCredalInstance((0.7, 1.0), (0.6, 1.0))

    def test_top_value_required(self):
        with pytest.raises(ValidationError):
            FiniteCredalInstance((0.2, 0.9), (0.4, 0.9))


class TestEnvelopeSampleBound:
    def test_precise_instance_exact_for_any_samples(self):
        cum = (0.25, 0.75, 1.0)
        instance = FiniteCredalInstance(cum, cum)
        gamble = [2.0, 0.0, -1.0]
        expected = 0.25 * 2.0 + 0.5 * 0.0 + 0.25 * -1.0
        assert envelope_sample_bound(instance, gamble, samples=3, seed=1) == \
            pytest.approx(expected, abs=1e-12)

    def test_always_dominates_lp(self, rng):
        for _ in range(25):
            n = rng.randint(2, 5)
            instance = random_credal_instance(rng, n)
            gamble = [rng.randrange(-200, 201) / 50 for _ in range(n)]
            bound = envelope_sample_bound(instance, gamble, samples=20,
                                          seed=rng.randrange(1 << 20))
            assert bound >= lp_lower_expectation(instance, gamble) - 1e-12

    def test_joint_band_instance_statistical_band(self):
        # two-class image of the unknown-dependence joint of the worked
        # binary example: lower cumulative 0, upper 0.3 at the first class
        instance = FiniteCredalInstance((0.0, 1.0), (0.3, 1.0))
        for gamble, expected in (([1.0, 0.0], 0.0), ([0.0, 1.0], 0.7)):
            exact = lp_lower_expectation(instance, gamble)
            assert exact == pytest.approx(expected)
            bound = envelope_sample_bound(instance, gamble, samples=10_000, seed=5)
            assert exact <= bound <= exact + 0.02

    def test_deterministic_for_fixed_seed(self):
        instance = FiniteCredalInstance((0.1, 1.0), (0.9, 1.0))
        a = envelope_sample_bound(instance, [1.0, -1.0], samples=64, seed=9)
        b = envelope_sample_bound(instance, [1.0, -1.0], samples=64, seed=9)
        assert a == b

    def test_requires_samples(self):
        instance = FiniteCredalInstance((1.0,), (1.0,))
        with pytest.raises(ValidationError):
            envelope_sample_bound(instance, [1.0], samples=0)


class TestCompleteMonotonicity:
    def test_pbox_extensions_pass(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            table = natural_extension_table(random_credal_instance(rng, n, 24))
            report = complete_monotonicity_check(table, p_max=4)
            assert report.passed, report.violations

    def test_masses_envelope_is_completely_monotone(self):
        # the envelope of (.8,.1,.1), (.1,.8,.1), (.1,.1,.8): additive on
        # components yet not a p-box extension; it is a belief function, so
        # the order checks all pass
        lp = FiniteLowerProbability.from_sets(3, {
            (): 0.0, (0,): 0.1, (1,): 0.1, (2,): 0.1,
            (0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2, (0, 1, 2): 1.0})
        report = complete_monotonicity_check(lp, p_max=4, max_violations=None)
        assert report.passed

    def test_coupling_joint_fails_two_monotonicity(self):
        lp = coupling_lower_probability((0.4, 0.6), (0.2, 0.3))
        a_mask = 0b0011      # {x1} x Y        -> atoms 0, 1
        b_mask = 0b1010      # X x {y2}        -> atoms 1, 3
        union = a_mask | b_mask
        assert lp[a_mask] == pytest.approx(0.4)
        assert lp[b_mask] == pytest.approx(0.7)
        assert lp[union] == pytest.approx(0.7)
        assert lp[a_mask & b_mask] == pytest.approx(0.1)
        report = complete_monotonicity_check(lp, p_max=2, max_violations=None)
        assert not report.passed
        events = {(v.event, frozenset(v.parts)) for v in report.violations}
        key = (frozenset({0, 1, 3}), frozenset({frozenset({0, 1}), frozenset({1, 3})}))
        assert key in events
        defect = next(v.defect for v in report.violations
                      if (v.event, frozenset(v.parts)) == key)
        assert defect == pytest.approx((0.7 + 0.1) - (0.4 + 0.7), abs=1e-9)

    def test_first_violation_short_circuits(self):
        lp = coupling_lower_probability((0.4, 0.6), (0.2, 0.3))
        report = complete_monotonicity_check(lp, p_max=2, max_violations=1)
        assert not report.passed
        assert len(report.violations) == 1

    def test_refuses_large_inputs(self, rng):
        table = natural_extension_table(random_credal_instance(rng, 3, 8))
        with pytest.raises(ValidationError):
            complete_monotonicity_check(table, p_max=5)
        with pytest.raises(ValidationError):
            complete_monotonicity_check(table, p_max=1)


class TestRepresentability:
    def test_round_trip_is_empty(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            table = natural_extension_table(random_credal_instance(rng, n, 40))
            report = pbox_representability_check(table)
            assert report.matches, report.mismatches

    def test_masses_envelope_fails_at_middle_singleton(self):
        lp = FiniteLowerProbability.from_sets(3, {
            (): 0.0, (0,): 0.1, (1,): 0.1, (2,): 0.1,
            (0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2, (0, 1, 2): 1.0})
        report = pbox_representability_check(lp)
        assert not report.matches
        mismatch = {m.event: m for m in report.mismatches}
        middle = mismatch[frozenset({1})]
        assert middle.formula_value == pytest.approx(0.0)
        assert middle.stored_value == pytest.approx(0.1)

    def test_injected_perturbation_detected(self, rng):
        instance = FiniteCredalInstance((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
        table = natural_extension_table(instance)
        values = dict(table.values)
        bumped = 0b101  # {0, 2}: not a full set, bump stays below supersets
        values[bumped] += 0.05
        report = pbox_representability_check(FiniteLowerProbability(3, values))
        assert not report.matches
        assert [m.event for m in report.mismatches] == [frozenset({0, 2})]

    def test_rejects_non_permutation(self):
        lp = natural_extension_table(FiniteCredalInstance((0.5, 1.0), (0.5, 1.0)))
        with pytest.raises(ValidationError):
            pbox_representability_check(lp, ordering=(0, 0))


class TestAdditivity:
    def test_random_subsets_pass(self, rng):
        instance = random_credal_instance(rng, 5)
        report = additivity_check(instance, trials=100, seed=11)
        assert report.passed
        assert report.trials == 100

    def test_two_component_subset(self):
        instance = FiniteCredalInstance((0.2, 0.5, 0.8, 1.0), (0.4, 0.7, 0.9, 1.0))
        whole = lp_lower_expectation(instance, [1, 0, 1, 0])
        parts = (lp_lower_expectation(instance, [1, 0, 0, 0])
                 + lp_lower_expectation(instance, [0, 0, 1, 0]))
        assert whole == pytest.approx(parts, abs=1e-12)


class TestRandomInstances:
    def test_deterministic(self):
        a = random_credal_instance(random.Random(3), 5)
        b = random_credal_instance(random.Random(3), 5)
        assert a == b

    def test_valid_by_construction(self, rng):
        for _ in range(50):
            random_credal_instance(rng, rng.randint(1, 8))


class TestFiniteCombineAgainstCoupling:
    """The max-coordinate joint of two binary marginals against the 2x2 LP.

    Listing class ``c`` of a marginal first puts the atom with that class
    in the bottom joint class, so the joint's bottom class is one atom of
    the product space and its other class the complement of that atom.
    """

    @staticmethod
    def listed_first(band, c):
        """A binary marginal with "low"-probability band ``band``, class ``c`` first."""
        lo, hi = band if c == 0 else (1.0 - band[1], 1.0 - band[0])
        return MarginalSpec(StepCdf((lo, 1.0)), StepCdf((hi, 1.0)))

    def bands(self, rng):
        return [tuple(sorted((rng.random(), rng.random()))) for _ in range(2)]

    def test_frechet_bottom_class_is_coupling_atom(self, rng):
        for _ in range(25):
            band1, band2 = self.bands(rng)
            lp = coupling_lower_probability(band1, band2)
            for c1 in (0, 1):
                for c2 in (0, 1):
                    joint = combine([self.listed_first(band1, c1),
                                     self.listed_first(band2, c2)], FRECHET)
                    atom = 1 << (2 * c1 + c2)
                    bottom = lower_prob_event(joint, ClassSubset.of(0))
                    rest = lower_prob_event(joint, ClassSubset.of(1))
                    assert bottom == pytest.approx(lp[atom], abs=1e-12)
                    assert rest == pytest.approx(lp[0b1111 ^ atom], abs=1e-12)

    def test_independent_bottom_class_is_product(self, rng):
        for _ in range(25):
            band1, band2 = self.bands(rng)
            for c1 in (0, 1):
                for c2 in (0, 1):
                    m1, m2 = self.listed_first(band1, c1), self.listed_first(band2, c2)
                    joint = combine([m1, m2], INDEPENDENT)
                    assert lower_prob_event(joint, ClassSubset.of(0)) == (
                        m1.lower(0) * m2.lower(0))
                    assert lower_prob_event(joint, ClassSubset.of(1)) == (
                        1.0 - m1.upper(0) * m2.upper(0))
