import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboxes.errors import ValidationError
from pboxes.oracle import (
    AdditivityReport,
    FiniteCredalInstance,
    FiniteLowerProbability,
    additivity_check,
    envelope_sample_bound,
    lp_event_ratio,
    lp_lower_expectation,
    mobius_check,
    natural_extension_numerators,
    natural_extension_table,
    pbox_representability_check,
    random_credal_instance,
)
from pboxes.choquet import lower_expectation_finite
from pboxes.multivariate import FRECHET, INDEPENDENT, combine
from pboxes.oracle import _chain_sweep, _fraction
from pboxes.pbox import PBox, StepCdf, lower_prob_event
from pboxes.preorder import ClassSubset, FiniteQuotientSpace

from lp_reference import chain_sweep_reference, chain_vertex_min, credal_lp, simplex_min
from monotonicity_reference import from_sets, monotonicity_reference

# both read a gamble, and both check it by the same rules
GAMBLE_READERS = (lp_lower_expectation,
                  lambda instance, g: envelope_sample_bound(instance, [g], samples=4)[0])


def coupling_exact(p1_band, p2_band) -> list:
    """Exact lower probability of every subset of a 2x2 product space, by bitmask.

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
    return [simplex_min([Fraction(mask >> i & 1) for i in range(4)], a_ub, b_ub, a_eq, b_eq)
            for mask in range(16)]


def coupling_lower_probability(p1_band, p2_band):
    """The table of :func:`coupling_exact`, each value rounded to a float."""
    exact = coupling_exact(p1_band, p2_band)
    return FiniteLowerProbability(4, {mask: float(v) for mask, v in enumerate(exact)})


def envelope_reference(instance, gamble, samples, seed=0):
    """Sorted uniform draws clamped left to right, each class floored by the
    value of the class before it; the least expectation over the samples."""
    n = instance.n
    lo = [float(v) for v in instance.lower_cum]
    hi = [float(v) for v in instance.upper_cum]
    g = [float(v) for v in gamble]
    rng = random.Random(seed)
    best = None
    for _ in range(samples):
        draws = sorted(rng.random() for _ in range(n))
        s_prev = 0.0
        expectation = 0.0
        for i in range(n):
            v = min(max(draws[i], lo[i], s_prev), hi[i])
            if i == n - 1:
                v = 1.0
            expectation += (v - s_prev) * g[i]
            s_prev = v
        if best is None or expectation < best:
            best = expectation
    return best


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
            assert chain_vertex_min(instance, gamble) == credal_lp(instance, gamble)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sweep_equals_the_sweep_of_every_step(self, rng, n):
        # the skipped steps of zero cost change no integer: events (every mask
        # up to n = 8) and gambles with equal neighbours, 0.0 and -0.0, on
        # lattice bounds with ties and on a precise and a vacuous instance
        top = (Fraction(1),)
        precise = random_credal_instance(rng, n, 100).lower_cum
        instances = [random_credal_instance(rng, n, d) for d in (4, 100, 1000)] + [
            FiniteCredalInstance(precise, precise),
            FiniteCredalInstance((Fraction(0),) * (n - 1) + top, top * n)]
        levels = [0.0, -0.0, 0.5, -1.5, 2, 7]
        masks = range(1 << n) if n <= 8 else [rng.randrange(1 << n) for _ in range(300)]
        for instance in instances:
            scale = instance._integer_chain[0]
            for mask in masks:
                indicator = [(mask >> i & 1, 1) for i in range(n)]
                assert lp_event_ratio(instance, mask) == chain_sweep_reference(instance, indicator)
            for _ in range(40):
                gamble = []
                while len(gamble) < n:
                    value = rng.choice(levels + [rng.randrange(-500, 501) / 100])
                    gamble += [value] * rng.randint(1, 3)
                gamble = gamble[:n]
                pairs = [_fraction(v).as_integer_ratio() for v in gamble]
                numerator, den = chain_sweep_reference(instance, pairs)
                e = den // scale
                assert _chain_sweep(instance, [p * (e // d) for p, d in pairs]) == numerator
                assert lp_lower_expectation(instance, gamble).hex() == (numerator / den).hex()

    def test_twelve_classes_equal_simplex_exactly(self, rng):
        instance = random_credal_instance(rng, 12, denominator=50)
        gamble = [rng.randrange(-100, 101) / 10 for _ in range(12)]
        exact = credal_lp(instance, [_fraction(g) for g in gamble])
        assert chain_vertex_min(instance, [_fraction(g) for g in gamble]) == exact
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
        assert chain_vertex_min(instance, gamble) == credal_lp(instance, gamble)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_float_is_the_rounded_exact_minimum(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        instance = random_credal_instance(
            random.Random(data.draw(st.integers(0, 2**32), label="seed")), n,
            denominator=data.draw(st.sampled_from([4, 997, 10**12]), label="denominator"))
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        value = st.one_of(st.integers(-10**6, 10**6), finite,
                          st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
                          finite.map(np.float64))
        gamble = data.draw(st.lists(value, min_size=n, max_size=n), label="gamble")
        got = lp_lower_expectation(instance, gamble)
        exact = chain_vertex_min(instance, [Fraction(x) for x in gamble])
        assert got.hex() == float(exact).hex()

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
        for read in GAMBLE_READERS:
            for gamble in ([1.0, 2.0], []):
                with pytest.raises(ValidationError):
                    read(instance, gamble)


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

    @pytest.mark.parametrize("lower, upper", [((Fraction(-1, 3), 1), (0.5, 1)),
                                              ((0.5, 1), (0.5, Fraction(4, 3)))])
    def test_unit_interval_required(self, lower, upper):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            FiniteCredalInstance(lower, upper)


class TestInputNumbers:
    INSTANCE = FiniteCredalInstance((0.5, 1), (0.6, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gamble_value_rejected(self, bad):
        for read in GAMBLE_READERS:
            with pytest.raises(ValidationError):
                read(self.INSTANCE, [bad, 1.0])

    @pytest.mark.parametrize("bad", [10**400, -10**400, Fraction(10**400, 3),
                                     2**1024 - 2**970])
    def test_gamble_value_beyond_float_range_rejected(self, bad):
        for read in GAMBLE_READERS:
            with pytest.raises(ValidationError, match="too large for a float"):
                read(self.INSTANCE, [bad, 1.0])

    def test_largest_value_below_float_overflow_accepted(self):
        # the next integer up rounds to infinity as a float
        value = 2**1024 - 2**970 - 1
        for read in GAMBLE_READERS:
            assert read(self.INSTANCE, [value, value]) == float(value)

    @pytest.mark.parametrize("bad", ["1", True, None])
    def test_non_number_gamble_value_rejected(self, bad):
        for read in GAMBLE_READERS:
            with pytest.raises(TypeError):
                read(self.INSTANCE, [bad, 0])

    @pytest.mark.parametrize("bad", ["0.5", False, None])
    def test_non_number_bound_rejected(self, bad):
        with pytest.raises(TypeError):
            FiniteCredalInstance((bad, 1), (0.6, 1))

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValidationError):
            FiniteCredalInstance((float("nan"), 1), (0.6, 1))

    def test_exact_numbers_kept(self):
        # the most mass the bounds allow, 0.6, sits on the smaller value
        top = Fraction(0.6)
        assert lp_lower_expectation(self.INSTANCE, [Fraction(1, 3), 10**20]) == float(
            Fraction(1, 3) * top + 10**20 * (1 - top))
        assert _fraction(0.1) == Fraction(0.1)

    def test_oracle_imports_nothing_it_checks(self):
        import ast
        import pboxes.oracle

        with open(pboxes.oracle.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        local = {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level > 0}
        assert local == {"errors"}
        # and no numpy: the oracle stays plain Python
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not {name for name in imported if name.split(".")[0] == "numpy"}

    def test_public_names_resolve_through_the_package(self):
        # the package loads the oracle on first use of one of its names
        import pboxes
        import pboxes.oracle

        for name in pboxes.oracle.__all__:
            assert getattr(pboxes, name) is getattr(pboxes.oracle, name)
            assert name in dir(pboxes)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            getattr(pboxes, "no_such_name")

    def test_star_import_binds_the_oracle_and_no_submodule(self):
        # a fresh interpreter: the bare import leaves the oracle unloaded
        import pboxes

        src = os.path.dirname(os.path.dirname(os.path.abspath(pboxes.__file__)))
        script = ("import sys, pboxes; loaded = 'pboxes.oracle' in sys.modules; "
                  "from pboxes import *; "
                  "print(loaded, lp_lower_expectation.__module__, 'choquet' in dir())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out.split() == ["False", "pboxes.oracle", "False"]


class TestEnvelopeSampleBound:
    def test_precise_instance_exact_for_any_samples(self):
        cum = (0.25, 0.75, 1.0)
        instance = FiniteCredalInstance(cum, cum)
        gamble = [2.0, 0.0, -1.0]
        expected = 0.25 * 2.0 + 0.5 * 0.0 + 0.25 * -1.0
        assert envelope_sample_bound(instance, [gamble], samples=3, seed=1)[0] == \
            pytest.approx(expected, abs=1e-12)

    def test_always_dominates_lp(self, rng):
        for _ in range(25):
            n = rng.randint(2, 5)
            instance = random_credal_instance(rng, n)
            gamble = [rng.randrange(-200, 201) / 50 for _ in range(n)]
            bound = envelope_sample_bound(instance, [gamble], samples=20,
                                          seed=rng.randrange(1 << 20))[0]
            assert bound >= lp_lower_expectation(instance, gamble) - 1e-12

    def test_joint_band_instance_statistical_band(self):
        # two-class image of the unknown-dependence joint of the worked
        # binary example: lower cumulative 0, upper 0.3 at the first class
        instance = FiniteCredalInstance((0.0, 1.0), (0.3, 1.0))
        for gamble, expected in (([1.0, 0.0], 0.0), ([0.0, 1.0], 0.7)):
            exact = lp_lower_expectation(instance, gamble)
            assert exact == pytest.approx(expected)
            bound = envelope_sample_bound(instance, [gamble], samples=10_000, seed=5)[0]
            assert exact <= bound <= exact + 0.02

    def test_deterministic_for_fixed_seed(self):
        instance = FiniteCredalInstance((0.1, 1.0), (0.9, 1.0))
        a = envelope_sample_bound(instance, [[1.0, -1.0]], samples=64, seed=9)[0]
        b = envelope_sample_bound(instance, [[1.0, -1.0]], samples=64, seed=9)[0]
        assert a == b

    def test_requires_samples(self):
        instance = FiniteCredalInstance((1.0,), (1.0,))
        with pytest.raises(ValidationError):
            envelope_sample_bound(instance, [[1.0]], samples=0)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 16.0, "16", None])
    def test_samples_must_be_an_int(self, samples):
        instance = FiniteCredalInstance((0.5, 1.0), (0.6, 1.0))
        with pytest.raises(ValidationError, match="must be an int"):
            envelope_sample_bound(instance, [[1.0, 0.0]], samples=samples)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_bound_is_that_of_its_gamble_alone(self, rng, n):
        # the samples are drawn once and shared, so every gamble sees the
        # draws it would see alone at the same seed
        for _ in range(10):
            instance = random_credal_instance(rng, n, rng.choice([4, 20, 1000]))
            gambles = [[rng.uniform(-5, 5) for _ in range(n)]
                       for _ in range(rng.randint(0, 6))]
            samples, seed = rng.randint(1, 20), rng.randrange(1 << 30)
            bounds = envelope_sample_bound(instance, gambles, samples, seed)
            assert len(bounds) == len(gambles)
            for gamble, bound in zip(gambles, bounds):
                alone = envelope_sample_bound(instance, [gamble], samples, seed)[0]
                assert bound.hex() == alone.hex()
                assert bound == pytest.approx(
                    envelope_reference(instance, gamble, samples, seed), abs=1e-12)

    def test_floats_read_as_their_ratios(self, rng):
        # a float is used as it is and a Fraction through its ratio, so the
        # bounds agree bit for bit; -0.0 reads as 0.0 either way
        cases = [(FiniteCredalInstance((1,), (1,)), [-0.0])]
        for n in range(1, 7):
            instance = random_credal_instance(rng, n, 100)
            cases += [(instance, [rng.choice([0.0, -0.0, rng.uniform(-5, 5)])
                                  for _ in range(n)]) for _ in range(10)]
        for instance, gamble in cases:
            seed = rng.randrange(1 << 30)
            floats = envelope_sample_bound(instance, [gamble], 8, seed)[0]
            ratios = envelope_sample_bound(instance, [list(map(Fraction, gamble))], 8, seed)[0]
            assert floats.hex() == ratios.hex()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_clamp_closed_form_matches_sequential_clamp(self, rng, n):
        # clamping each class on its own equals carrying the previous value forward
        for precise in (True, False):
            for _ in range(10):
                instance = random_credal_instance(rng, n, rng.choice([4, 20, 1000]))
                if precise:
                    instance = FiniteCredalInstance(instance.lower_cum, instance.lower_cum)
                gamble = [rng.uniform(-5, 5) for _ in range(n)]
                seed = rng.randrange(1 << 30)
                assert envelope_sample_bound(instance, [gamble], samples=16, seed=seed)[0] == \
                    pytest.approx(envelope_reference(instance, gamble, 16, seed), abs=1e-12)


class TestCompleteMonotonicity:
    def test_pbox_extensions_pass(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            table = natural_extension_table(random_credal_instance(rng, n, 24))
            report = monotonicity_reference(table, p_max=4)
            assert report.passed, report.violations

    def test_masses_envelope_is_completely_monotone(self):
        # the envelope of (.8,.1,.1), (.1,.8,.1), (.1,.1,.8): additive on
        # components yet not a p-box extension; it is a belief function, so
        # the order checks all pass
        lp = from_sets(3, {
            (): 0.0, (0,): 0.1, (1,): 0.1, (2,): 0.1,
            (0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2, (0, 1, 2): 1.0})
        report = monotonicity_reference(lp, p_max=4, max_violations=None)
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
        report = monotonicity_reference(lp, p_max=2, max_violations=None)
        assert not report.passed
        events = {(v.event, frozenset(v.parts)) for v in report.violations}
        key = (frozenset({0, 1, 3}), frozenset({frozenset({0, 1}), frozenset({1, 3})}))
        assert key in events
        defect = next(v.defect for v in report.violations
                      if (v.event, frozenset(v.parts)) == key)
        assert defect == pytest.approx((0.7 + 0.1) - (0.4 + 0.7), abs=1e-9)

    def test_first_violation_short_circuits(self):
        lp = coupling_lower_probability((0.4, 0.6), (0.2, 0.3))
        report = monotonicity_reference(lp, p_max=2, max_violations=1)
        assert not report.passed
        assert len(report.violations) == 1

    @staticmethod
    def assert_matches_masses(lp, p_max, max_violations):
        """The enumeration against the Möbius masses of the same float table.

        Every family of 2 to ``p_max`` distinct nonempty proper subsets of
        each event is checked once, a cut-off report is a prefix of the full
        one, each flagged family's defect is the sum of the masses of the
        subsets of its event below none of its parts, and each negative mass
        on an event of 2 to ``p_max`` classes is flagged at the family of the
        event's maximal proper subsets."""
        masses = mobius_check([Fraction(lp[mask]) for mask in range(1 << lp.n)]).masses
        full = monotonicity_reference(lp, p_max=p_max, max_violations=None)
        got = monotonicity_reference(lp, p_max=p_max, max_violations=max_violations)
        assert full.checked == sum(comb(lp.n, k) * comb((1 << k) - 2, j)
                                   for k in range(1, lp.n + 1) for j in range(2, p_max + 1))
        assert got.passed == full.passed
        assert got.checked <= full.checked
        assert got.violations == full.violations[:max_violations]
        flagged = set()
        for v in full.violations:
            event = sum(1 << i for i in v.event)
            parts = [sum(1 << i for i in part) for part in v.parts]
            assert v.order == len(set(parts)) and all(0 < p < event and p & ~event == 0
                                                      for p in parts)
            gap = sum(mass for c, mass in enumerate(masses)
                      if c & ~event == 0 and all(c & ~p for p in parts))
            assert v.defect == pytest.approx(float(gap), abs=1e-15)
            flagged.add((v.event, frozenset(v.parts)))
        for c, mass in enumerate(masses):
            members = lp.event(c)
            if mass < -1e-9 and 2 <= len(members) <= p_max:
                facets = frozenset(members - {i} for i in members)
                assert (members, facets) in flagged
        return got

    @pytest.mark.parametrize("max_violations", [None, 1, 3])
    @pytest.mark.parametrize("p_max", [2, 3, 4])
    def test_natural_extensions_match_reference(self, rng, p_max, max_violations):
        for _ in range(30):
            instance = random_credal_instance(rng, rng.randint(2, 5), rng.choice([24, 100]))
            report = self.assert_matches_masses(
                natural_extension_table(instance), p_max, max_violations)
            assert report.passed
            assert mobius_check(*natural_extension_numerators(instance)).passed

    @pytest.mark.parametrize("max_violations", [None, 1, 3])
    @pytest.mark.parametrize("p_max", [2, 3, 4])
    def test_coupling_joints_match_reference(self, rng, p_max, max_violations):
        bands = [((0.4, 0.6), (0.2, 0.3))] + [
            tuple(tuple(sorted((rng.random(), rng.random()))) for _ in range(2))
            for _ in range(9)]
        failed = 0
        for band1, band2 in bands:
            report = self.assert_matches_masses(
                coupling_lower_probability(band1, band2), p_max, max_violations)
            failed += not report.passed
        assert failed

    def test_refuses_large_inputs(self, rng):
        table = natural_extension_table(random_credal_instance(rng, 3, 8))
        with pytest.raises(ValidationError):
            monotonicity_reference(table, p_max=5)
        with pytest.raises(ValidationError):
            monotonicity_reference(table, p_max=1)


class TestMobiusCheck:
    def test_natural_extensions_are_belief_functions_on_chain_intervals(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            instance = random_credal_instance(rng, n, rng.choice([24, 100, 1000]))
            numerators, scale = natural_extension_numerators(instance)
            report = mobius_check(numerators, scale)
            assert report.passed, report.violations
            assert sum(report.masses) == scale
            for mask, mass in enumerate(report.masses):
                run = mask >> ((mask & -mask).bit_length() - 1) if mask else 0
                assert mass == 0 or run & (run + 1) == 0, (mask, mass)

    def test_table_floats_are_the_lp_floats(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            instance = random_credal_instance(rng, n, rng.choice([24, 997]))
            table = natural_extension_table(instance)
            for mask in range(1 << n):
                indicator = [mask >> i & 1 for i in range(n)]
                assert table[mask].hex() == lp_lower_expectation(instance, indicator).hex()

    def test_lowered_additive_pair_is_caught(self, rng):
        # {0, 2} splits into two runs, so its mass is 0; one unit of 1/D less
        # is a negative mass (one unit more can leave a belief function)
        for _ in range(20):
            numerators, scale = natural_extension_numerators(
                random_credal_instance(rng, rng.randint(3, 6), rng.choice([24, 100])))
            assert mobius_check(numerators, scale).masses[0b101] == 0
            numerators[0b101] -= 1
            report = mobius_check(numerators, scale)
            assert not report.passed
            assert report.violations[0].event == frozenset({0, 2})
            assert report.violations[0].mass == Fraction(-1, scale)

    @staticmethod
    def gap(masses, a, b) -> Fraction:
        """The masses of the subsets of ``a | b`` in neither ``a`` nor ``b``, summed."""
        return sum(mass for c, mass in enumerate(masses)
                   if c & ~(a | b) == 0 and c & ~a and c & ~b)

    def test_coupling_joint_has_a_negative_mass(self, rng):
        # criterion 6's joint, not 2-monotone at A = {0, 1} and B = {1, 3}: the
        # masses of the subsets of A | B in neither A nor B sum to the defect
        exact = coupling_exact((0.4, 0.6), (0.2, 0.3))
        report = mobius_check(exact)
        assert not report.passed
        a, b = 0b0011, 0b1010
        gap = self.gap(report.masses, a, b)
        assert gap == exact[a | b] + exact[a & b] - exact[a] - exact[b]
        assert float(gap) == pytest.approx(-0.3, abs=1e-9)
        # and so at every pair the enumeration flags on ten coupling joints:
        # the masses alone name each failing pair
        bands = [((0.4, 0.6), (0.2, 0.3))] + [
            tuple(tuple(sorted((rng.random(), rng.random()))) for _ in range(2))
            for _ in range(9)]
        flagged = []
        for band1, band2 in bands:
            exact = coupling_exact(band1, band2)
            masses = mobius_check(exact).masses
            violations = monotonicity_reference(coupling_lower_probability(band1, band2),
                                                p_max=2, max_violations=None).violations
            for v in violations:
                a, b = (sum(1 << i for i in part) for part in v.parts)
                assert v.event == v.parts[0] | v.parts[1]
                gap = self.gap(masses, a, b)
                assert gap == exact[a | b] + exact[a & b] - exact[a] - exact[b]
                assert v.defect == pytest.approx(float(gap), abs=1e-15)
                flagged.append((band1, band2, a, b))
        assert ((0.4, 0.6), (0.2, 0.3), 0b0011, 0b1010) in flagged
        assert len(flagged) > 1

    def test_agrees_with_the_enumeration_on_coupling_joints(self, rng):
        # a failed order up to 4 is a negative mass, and with no negative mass
        # every order passes; a vacuous margin leaves a belief function
        bands = [((0.4, 0.6), (0.2, 0.3)), ((0.4, 0.6), (0.0, 1.0)),
                 ((0.0, 1.0), (0.0, 1.0))] + [
            tuple(tuple(sorted((rng.random(), rng.random()))) for _ in range(2))
            for _ in range(9)]
        outcomes = set()
        for band1, band2 in bands:
            mobius = mobius_check(coupling_exact(band1, band2))
            enumerated = monotonicity_reference(
                coupling_lower_probability(band1, band2), p_max=4)
            assert mobius.passed <= enumerated.passed
            outcomes.add(mobius.passed)
        assert outcomes == {True, False}

    def test_refuses_malformed_tables(self):
        with pytest.raises(ValidationError):
            mobius_check([0, 1, 1])
        with pytest.raises(ValidationError):
            mobius_check([1])
        with pytest.raises(ValidationError):
            mobius_check([1, 1])
        with pytest.raises(TypeError):
            mobius_check([0.0, 1.0])

    @pytest.mark.parametrize("scale", [0, -1, True, 1.0, Fraction(1), None])
    def test_refuses_a_scale_that_is_not_a_positive_int(self, scale):
        # [0, -1] over -1 would be a valid table, [0, 1], with the mass -1
        with pytest.raises(ValidationError, match="scale must be a positive int"):
            mobius_check([0, -1], scale=scale)


class TestRepresentability:
    def test_round_trip_is_empty(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            table = natural_extension_table(random_credal_instance(rng, n, 40))
            report = pbox_representability_check(table)
            assert report.matches, report.mismatches

    def test_masses_envelope_fails_at_middle_singleton(self):
        lp = from_sets(3, {
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


class TestEventMemo:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_sweep_per_distinct_mask(self, rng, monkeypatch, n):
        import pboxes.oracle as oracle_mod

        sweep = oracle_mod._chain_sweep
        swept = []

        def counted(instance, gamble):
            swept.append(gamble)
            return sweep(instance, gamble)

        instance = random_credal_instance(rng, n, rng.choice([4, 100, 1000]))
        scale = lcm(*(v.denominator for v in instance.lower_cum + instance.upper_cum))
        monkeypatch.setattr(oracle_mod, "_chain_sweep", counted)
        masks = [rng.randrange(1 << n) for _ in range(3 << n)]
        for mask in masks:
            indicator = [mask >> i & 1 for i in range(n)]
            assert lp_event_ratio(instance, mask) == (sweep(instance, indicator), scale)
            assert lp_event_ratio(instance, mask)[1] == scale
        assert len(swept) == len(set(masks))
        numerators, table_scale = natural_extension_numerators(instance)
        assert len(swept) == 1 << n and table_scale == scale
        assert numerators == [sweep(instance, [mask >> i & 1 for i in range(n)])
                              for mask in range(1 << n)]
        assert additivity_check(instance, trials=20, seed=n).passed
        assert len(swept) == 1 << n
        for mask in range(1 << n):
            indicator = [mask >> i & 1 for i in range(n)]
            assert (numerators[mask] / scale).hex() == \
                lp_lower_expectation(instance, indicator).hex()

    @pytest.mark.parametrize("mask", [-1, 8, 1.0, True, "1", None])
    def test_refuses_a_mask_outside_the_classes(self, mask):
        # also once every mask is kept, where True and 1.0 would find the key 1
        instance = FiniteCredalInstance((0.2, 0.5, 1.0), (0.4, 0.7, 1.0))
        natural_extension_numerators(instance)
        with pytest.raises(ValidationError, match="event bitmask of 3 classes"):
            lp_event_ratio(instance, mask)


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

    def test_negative_trials_refused(self):
        instance = FiniteCredalInstance((0.2, 1.0), (0.4, 1.0))
        with pytest.raises(ValidationError, match="trials"):
            additivity_check(instance, trials=-1)
        assert additivity_check(instance, trials=0) == AdditivityReport(True, 0)


class TestRandomInstances:
    def test_deterministic(self):
        a = random_credal_instance(random.Random(3), 5)
        b = random_credal_instance(random.Random(3), 5)
        assert a == b

    def test_valid_by_construction(self, rng):
        for _ in range(50):
            random_credal_instance(rng, rng.randint(1, 8))

    def test_lattice_draws_equal_the_fraction_draws(self, rng):
        # the instances drawn as Fractions, sorted and compared as Fractions
        for _ in range(200):
            n, denominator, seed = rng.randint(1, 12), rng.choice([1, 3, 16, 1000]), rng.random()
            draws = random.Random(seed)
            a = sorted(Fraction(draws.randrange(denominator + 1), denominator)
                       for _ in range(n - 1))
            b = sorted(Fraction(draws.randrange(denominator + 1), denominator)
                       for _ in range(n - 1))
            expected = FiniteCredalInstance(
                tuple(min(x, y) for x, y in zip(a, b)) + (Fraction(1),),
                tuple(max(x, y) for x, y in zip(a, b)) + (Fraction(1),))
            lattice = random.Random(seed)
            assert random_credal_instance(lattice, n, denominator) == expected
            assert lattice.getstate() == draws.getstate()

    @pytest.mark.parametrize("denominator", [0, -3])
    def test_denominator_below_one_refused_before_any_draw(self, denominator):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValidationError, match="denominator"):
            random_credal_instance(rng, 3, denominator=denominator)
        assert rng.getstate() == state


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
        return PBox(StepCdf((lo, 1.0)), StepCdf((hi, 1.0)))

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
