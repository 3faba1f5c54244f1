"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest report.  Tolerances are fixed here and nowhere else.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from arith_oracle import ORACLES, random_real_line_pbox
from lower_probability_reference import natural_extension_table, pbox_representability_check
from monotonicity_reference import from_sets, monotonicity_reference
from test_oracle import coupling_lower_probability

from pboxes.choquet import (
    Oscillation,
    QuadratureConfig,
    lower_expectation,
    lower_expectation_finite,
    upper_expectation,
)
from pboxes.cli import CSV_HEADER, main
from pboxes.multivariate import RealLinePBox, arith_bound
from pboxes.oracle import lp_lower_expectation, random_credal_instance
from pboxes.pbox import (
    AnalyticCdf,
    PBox,
    PiecewiseLinearCdf,
    StepCdf,
    lower_prob_event,
    lower_prob_field,
)
from pboxes.preorder import UNIT_INTERVAL, ClassSubset, FiniteQuotientSpace


@contextmanager
def criterion(number, description):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        print(f"\nACCEPTANCE {number:02d} {outcome}: {description}")


def cli_rows(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    rows = {}
    for line in lines[1:]:
        qid, kind, value, err, _ = line.split(",")
        rows[qid] = (kind, float(value), float(err))
    return rows, elapsed


def test_criterion_1_oscillator_expectations(capsys):
    with criterion(1, "oscillator expectation bounds 0.584 / 1.664 (+-0.002), < 1 s"):
        rows, elapsed = cli_rows(capsys, ["paper", "oscillator"])
        low = rows["damping_ratio_lower"]
        high = rows["damping_ratio_upper"]
        assert low[1] == pytest.approx(0.584, abs=2e-3)
        assert high[1] == pytest.approx(1.664, abs=2e-3)
        assert low[2] <= 2e-3 and high[2] <= 2e-3
        assert elapsed < 1.0


def test_criterion_2_dike_expectations(capsys):
    with criterion(2, "dike expectation bounds 1.515 / 6.423 (+-0.01), < 2 s"):
        rows, elapsed = cli_rows(capsys, ["paper", "dike"])
        assert rows["overflow_lower"][1] == pytest.approx(1.515, abs=1e-2)
        assert rows["overflow_upper"][1] == pytest.approx(6.423, abs=1e-2)
        assert elapsed < 2.0


def test_criterion_3_dike_design_threshold(capsys):
    with criterion(3, "dike design height at 1% upper risk: 10.725 (+-0.01)"):
        rows, _ = cli_rows(capsys, ["paper", "dike"])
        assert rows["design_height_p01"][1] == pytest.approx(10.725, abs=1e-2)


def test_criterion_4_field_formula_vs_envelope():
    with criterion(4, "field value 0 on (0.5, 0.6] while the two-CDF envelope gives 0.1"):
        lower = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0)))
        upper = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))
        box = PBox(lower, upper, UNIT_INTERVAL)
        assert lower_prob_field(box, [0.5, 0.6]) == 0.0
        envelope = min(
            lower_prob_field(PBox(lower, lower, UNIT_INTERVAL), [0.5, 0.6]),
            lower_prob_field(PBox(upper, upper, UNIT_INTERVAL), [0.5, 0.6]))
        assert envelope == pytest.approx(0.1, abs=1e-12)
        assert envelope > 0.0


def test_criterion_5_preorder_sensitivity():
    with criterion(5, "degenerate CDF under two preorders, all 32 subsets exact"):
        fine_space = FiniteQuotientSpace(tuple(range(5)))
        coarse_space = FiniteQuotientSpace(("01", "234"))
        fine = PBox(StepCdf((0.0, 0.0, 1.0, 1.0, 1.0)),
                    StepCdf((0.0, 0.0, 1.0, 1.0, 1.0)), fine_space)
        coarse = PBox(StepCdf((0.0, 1.0)), StepCdf((0.0, 1.0)), coarse_space)
        partition = ((0, 1), (2, 3, 4))
        for mask in range(32):
            members = frozenset(i for i in range(5) if mask & (1 << i))
            fine_value = lower_prob_event(fine, ClassSubset(members))
            assert fine_value == (1.0 if 2 in members else 0.0)
            interior = ClassSubset(frozenset(
                i for i, cls in enumerate(partition) if set(cls) <= members))
            coarse_value = lower_prob_event(coarse, interior)
            assert coarse_value == (1.0 if {2, 3, 4} <= members else 0.0)


def test_criterion_6_frechet_joint(capsys):
    with criterion(6, "unknown-dependence joint: 0.4 / 0.7 / 0.7 / 0.1 and a "
                      "2-monotonicity violation at (A, B)"):
        rows, _ = cli_rows(capsys, ["paper", "example_frechet_62"])
        assert rows["A"][1] == 0.4
        assert rows["B"][1] == pytest.approx(0.7, abs=1e-15)
        assert rows["A_union_B"][1] == pytest.approx(0.7, abs=1e-15)
        assert rows["A_intersect_B"][1] == pytest.approx(0.1, abs=1e-12)
        joint = coupling_lower_probability((0.4, 0.6), (0.2, 0.3))
        report = monotonicity_reference(joint, p_max=2, max_violations=None)
        assert not report.passed
        a_set, b_set = frozenset({0, 1}), frozenset({1, 3})
        flagged = [v for v in report.violations
                   if v.event == a_set | b_set and set(v.parts) == {a_set, b_set}]
        assert flagged and flagged[0].defect == pytest.approx(-0.3, abs=1e-9)


def test_criterion_7_independent_joint(capsys):
    with criterion(7, "independent joint: 0.58 / 0.2 exactly, joint p-box <= 0.2"):
        rows, _ = cli_rows(capsys, ["paper", "example_independent_63"])
        assert rows["A_union_B"][1] == pytest.approx(0.58, abs=1e-12)
        assert rows["A_intersect_B"][1] == pytest.approx(0.2, abs=1e-12)
        assert rows["A_intersect_B_joint_pbox"][1] <= 0.2


def test_criterion_8_oracle_equivalence_campaign():
    with criterion(8, "200 random p-boxes (n <= 6), 10 events + 5 gambles each, "
                      "formula == exact LP to 1e-9, < 30 s"):
        rng = random.Random(42)
        start = time.perf_counter()
        for _ in range(200):
            n = rng.randint(2, 6)
            instance = random_credal_instance(rng, n)
            space = FiniteQuotientSpace(tuple(range(n)))
            box = PBox(StepCdf(tuple(float(v) for v in instance.lower_cum)),
                       StepCdf(tuple(float(v) for v in instance.upper_cum)), space)
            for _ in range(10):
                mask = rng.randrange(1, 1 << n)
                members = frozenset(i for i in range(n) if mask & (1 << i))
                formula = lower_prob_event(box, ClassSubset(members))
                exact = lp_lower_expectation(
                    instance, [1 if i in members else 0 for i in range(n)])
                assert abs(formula - exact) <= 1e-9
            for _ in range(5):
                gamble = [rng.randrange(-500, 501) / 100 for _ in range(n)]
                formula = lower_expectation_finite(box, gamble)
                exact = lp_lower_expectation(instance, gamble)
                assert abs(formula - exact) <= 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_9_complete_monotonicity_and_representability():
    with criterion(9, "50 random p-box extensions pass p <= 4 monotonicity; the "
                      "three-point counterexample fails representability at {1}"):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(2, 5)
            table = natural_extension_table(random_credal_instance(rng, n, 60))
            report = monotonicity_reference(table, p_max=4, tol=1e-12)
            assert report.passed, report.violations
        counterexample = from_sets(3, {
            (): 0.0, (0,): 0.1, (1,): 0.1, (2,): 0.1,
            (0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2, (0, 1, 2): 1.0})
        report = pbox_representability_check(counterexample)
        assert not report.matches
        middle = {m.event: m for m in report.mismatches}[frozenset({1})]
        assert middle.formula_value == pytest.approx(0.0, abs=1e-12)
        assert middle.stored_value == pytest.approx(0.1, abs=1e-12)


def test_criterion_10_probabilistic_arithmetic():
    with criterion(10, "uniform sum CDF exact on 1001 points; 20 random pairs "
                       "match the fine-grid oracle to 1e-6 on all four operations"):
        uniform = RealLinePBox.from_knots([(0.0, 0.0), (1.0, 1.0)])
        for k in range(1001):
            y = 2.0 * k / 1000
            got = arith_bound("add", "lower", uniform, uniform, y)
            assert abs(got - max(0.0, y - 1.0)) <= 1e-9
        rng = random.Random(99)
        supports = {"add": lambda s1, s2: (s1[0] + s2[0], s1[1] + s2[1]),
                    "subtract": lambda s1, s2: (s1[0] - s2[1], s1[1] - s2[0]),
                    "multiply": lambda s1, s2: (s1[0] * s2[0], s1[1] * s2[1]),
                    "divide": lambda s1, s2: (s1[0] / s2[1], s1[1] / s2[0])}
        for _ in range(20):
            x1 = random_real_line_pbox(rng, positive=True)
            x2 = random_real_line_pbox(rng, positive=True)
            for op, (oracle_lower, oracle_upper) in ORACLES.items():
                lo_y, hi_y = supports[op](x1.support, x2.support)
                for frac in (0.2, 0.5, 0.8):
                    y = lo_y + frac * (hi_y - lo_y)
                    low, up = (arith_bound(op, side, x1, x2, y) for side in ("lower", "upper"))
                    assert abs(low - oracle_lower(x1, x2, y)) <= 1e-6, (op, y)
                    assert abs(up - oracle_upper(x1, x2, y)) <= 1e-6, (op, y)


def test_criterion_11_bracket_contains_refined_value():
    with criterion(11, "Darboux bracket contains the value refined by two more "
                       "equidistributed rounds at abs_tol 1e-12, 20 random "
                       "analytic pairs"):
        rng = random.Random(7)
        for trial in range(20):
            p = 1.0 + 2.0 * rng.random()
            q = p * (0.3 + 0.7 * rng.random())
            box = PBox(AnalyticCdf(lambda z, p=p: np.asarray(z, float) ** p),
                       AnalyticCdf(lambda z, q=q: np.asarray(z, float) ** q),
                       UNIT_INTERVAL, validation_grid=512)
            base_level = rng.uniform(-1.0, 1.0)
            scale = 0.5 + 1.5 * rng.random()
            shape = 0.5 + 1.5 * rng.random()
            if trial % 2 == 0:
                osc = Oscillation(
                    lambda z, a=base_level, s=scale, r=shape:
                        a + s * (1.0 - np.asarray(z, float) ** r))
                compute = lower_expectation
            else:
                osc = Oscillation(
                    lambda z, a=base_level, s=scale, r=shape:
                        a + s * np.asarray(z, float) ** r)
                compute = upper_expectation
            base = compute(box, osc, QuadratureConfig(abs_tol=1e-3))
            assert base.converged
            refined = compute(box, osc, QuadratureConfig(
                abs_tol=1e-12, max_refinements=base.refinements + 2))
            assert abs(refined.value - base.value) <= base.error_bound, trial
