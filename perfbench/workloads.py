"""Seeded inputs of the three workloads, and the checks of their outputs.

``generate`` writes everything a workload's processes read into the run
directory and returns the plan: the argv of every CLI call in one pass, the
agreement-check instances, and the reference values the outputs are checked
against.  The program sees only the argv and the generated JSON files.

Costs are kept independent of the seed, so that runs with different seeds
measure the same amount of work: every tent oscillation spans exactly
[0, 1] with the same up-down pattern (so the quadrature always needs 1,024
levels at abs_tol 1e-3 and crosses the same number of segments per level),
and the agreement block always uses the same instance sizes.
"""

from __future__ import annotations

import json
import os
import random

import reference

# the paper's values and the acceptance tolerances of the case studies
CASE_STUDY_VALUES = {
    "dike": {"overflow_lower": (1.515, 1e-2),
             "overflow_upper": (6.423, 1e-2),
             "design_height_p01": (10.725, 1e-2)},
    "oscillator": {"damping_ratio_lower": (0.584, 2e-3),
                   "damping_ratio_upper": (1.664, 2e-3)},
}
CASE_STUDY_ABS_TOL = 1e-4  # the CLI default
FILES_ABS_TOL = 1e-3
ARITH_TOL = 1e-6
LP_TOL = 1e-9
EXACT_TOL = 1e-12

# up-down pattern of the tent oscillations; 0 and 1 are kept exact so the
# range is always [0, 1]
_TENT_PATTERN = (0.2, 1.0, 0.35, 0.8, 0.0, 0.45)
_AGREEMENT_SIZES = (9, 10, 11, 12, 9, 10, 11, 12)
_ARITH_OPS = ("add", "subtract", "multiply", "divide")


def generate(workload, seed, directory):
    rng = random.Random(f"{workload}:{seed}")
    plan = {"workload": workload, "seed": seed}
    if workload == "casestudies":
        plan["builtins"] = ["dike", "oscillator"]
        plan["argvs"] = [["paper", "dike"], ["paper", "oscillator"]]
    elif workload == "files":
        plan["argvs"], plan["expected"] = _files(rng, directory)
    elif workload == "verify":
        plan["argvs"] = [["verify", "--seed", str(rng.randrange(1 << 30)),
                          "--trials", "200", "--n-max", "6"]]
        plan["agreement"] = _agreement(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(directory, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
    return plan


# ---------------------------------------------------------------------------
# files


def _stratified(rng, count):
    """``count`` increasing points in (0, 1), one in each equal stratum."""
    return [(i + rng.uniform(0.2, 0.8)) / count for i in range(count)]


def _tent(rng):
    zs = [0.0] + _stratified(rng, len(_TENT_PATTERN) - 2) + [1.0]
    values = [v if v in (0.0, 1.0) else round(v + rng.uniform(-0.05, 0.05), 6)
              for v in _TENT_PATTERN]
    return [[round(z, 6), v] for z, v in zip(zs, values)]


def _monotone(rng, decreasing):
    zs = [0.0] + _stratified(rng, 3) + [1.0]
    values = [0.0] + sorted(round(rng.random(), 6) for _ in range(3)) + [1.0]
    if decreasing:
        values.reverse()
    return [[round(z, 6), v] for z, v in zip(zs, values)]


def _cdf_pair(rng, xs):
    """Continuous lower/upper knot lists on shared coordinates, upper - lower <= 0.3."""
    inner = sorted(round(rng.random(), 6) for _ in range(len(xs) - 2))
    lower = [0.0] + inner + [1.0]
    upper, top = [0.0], 0.0
    for value in lower[1:-1]:
        top = max(top, min(1.0, round(value + rng.uniform(0.05, 0.3), 6)))
        upper.append(top)
    upper.append(1.0)
    return ([[x, f] for x, f in zip(xs, lower)], [[x, f] for x, f in zip(xs, upper)])


def _real_line(rng):
    xs = sorted(round(1.0 + 4.0 * rng.random(), 6) for _ in range(4))
    lower, upper = _cdf_pair(rng, xs)
    return {"lower": lower, "upper": upper}


def _support(op, x1, x2):
    a1, b1 = x1["lower"][0][0], x1["lower"][-1][0]
    a2, b2 = x2["lower"][0][0], x2["lower"][-1][0]
    return {"add": (a1 + a2, b1 + b2), "subtract": (a1 - b2, b1 - a2),
            "multiply": (a1 * a2, b1 * b2), "divide": (a1 / b2, b1 / a2)}[op]


def _files(rng, directory):
    """Three scenario documents; returns their argvs and the expected rows."""
    expected = {}
    docs = {}

    # a linear p-box with a non-monotone lower oscillation
    lower, upper = _cdf_pair(rng, [0.0] + _stratified(rng, 3) + [1.0])
    lower_cdf, upper_cdf = reference.knots_cdf(lower), reference.knots_cdf(upper)
    tent = _tent(rng)
    docs["linear"] = {
        "name": "linear", "space": {"type": "continuum"},
        "pbox": {"linear": {"lower": lower, "upper": upper}},
        "queries": [{"id": "tent_lower", "kind": "expectation_lower",
                     "oscillation": {"knots": tent}}],
        "config": {"abs_tol": FILES_ABS_TOL}}
    expected["linear"] = {"tent_lower": {
        "bracket": reference.expectation_bracket(tent, lower_cdf, upper_cdf, "lower")}}

    # an analytic p-box with a non-monotone upper oscillation and a monotone
    # one without an inverse
    pair = rng.choice([("square", "uniform"), ("uniform", "triangular_sym")])
    lower_cdf, upper_cdf = reference.ANALYTIC[pair[0]], reference.ANALYTIC[pair[1]]
    tent = _tent(rng)
    decreasing = rng.random() < 0.5
    mono = _monotone(rng, decreasing)
    mono_side = "lower" if decreasing else "upper"
    docs["analytic"] = {
        "name": "analytic", "space": {"type": "continuum"},
        "pbox": {"analytic": {"lower": pair[0], "upper": pair[1]}},
        "queries": [{"id": "tent_upper", "kind": "expectation_upper",
                     "oscillation": {"knots": tent}},
                    {"id": "monotone", "kind": f"expectation_{mono_side}",
                     "oscillation": {"knots": mono}}],
        "config": {"abs_tol": FILES_ABS_TOL}}
    expected["analytic"] = {
        "tent_upper": {"bracket": reference.expectation_bracket(
            tent, lower_cdf, upper_cdf, "upper")},
        "monotone": {"bracket": reference.expectation_bracket(
            mono, lower_cdf, upper_cdf, mono_side)}}

    # a finite step p-box with event queries, and arithmetic on two real-line
    # p-boxes
    n = 6
    inner_lower, inner_upper = _cdf_pair(rng, list(range(n + 1)))
    step_lower = [f for _, f in inner_lower[1:]]
    step_upper = [f for _, f in inner_upper[1:]]
    queries, rows = [], {}
    for k in range(4):
        side = "lower" if k < 2 else "upper"
        classes = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        qid = f"event_{k}"
        queries.append({"id": qid, "kind": f"event_{side}", "classes": classes})
        value = reference.step_event_lower(step_lower, step_upper, classes)
        rows[qid] = {"value": value if side == "lower" else 1.0 - value, "tol": EXACT_TOL}
    x1, x2 = _real_line(rng), _real_line(rng)
    for op in _ARITH_OPS:
        lo, hi = _support(op, x1, x2)
        ys = [round(lo + (hi - lo) * rng.uniform(0.1, 0.9), 6) for _ in range(4)]
        refs = [reference.arithmetic(op, x1, x2, y) for y in ys]
        for side_index, side in enumerate(("lower", "upper")):
            qid = f"{op}_{side}"
            queries.append({"id": qid, "kind": "arith_op", "op": op, "side": side,
                            "x1": x1, "x2": x2, "y_grid": ys})
            for k, ref in enumerate(refs):
                rows[f"{qid}_{k}"] = {"value": ref[side_index], "tol": ARITH_TOL}
    docs["finite"] = {
        "name": "finite", "space": {"type": "finite", "classes": [f"c{i}" for i in range(n)]},
        "pbox": {"step": {"lower": step_lower, "upper": step_upper}},
        "queries": queries}
    expected["finite"] = rows

    argvs, by_path = [], {}
    for name, doc in docs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        argvs.append(["infer", path])
        by_path[path] = expected[name]
    return argvs, by_path


# ---------------------------------------------------------------------------
# verify


def _agreement(rng):
    """Instances at 9 <= n <= 12 with one event and one gamble each."""
    import pboxes
    items = []
    for n in _AGREEMENT_SIZES:
        instance = pboxes.random_credal_instance(rng, n)
        mask = rng.randrange(1, (1 << n) - 1)
        items.append({
            "lower": [str(v) for v in instance.lower_cum],
            "upper": [str(v) for v in instance.upper_cum],
            "event": [i for i in range(n) if mask >> i & 1],
            "gamble": [rng.randrange(-500, 501) / 100.0 for _ in range(n)],
        })
    return items


# ---------------------------------------------------------------------------
# checks


def _csv_rows(text):
    rows = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if len(fields) >= 4:
            try:
                rows[fields[0]] = (float(fields[2]), float(fields[3]))
            except ValueError:
                rows[fields[0]] = None
    return rows


def check(plan, outputs):
    """Operations attempted in one pass's outputs, and a line per failure.

    An operation is a CSV row, a verify invocation or an agreement check.
    """
    attempted, failures = 0, []
    for call in outputs["calls"]:
        argv = call["argv"]
        if argv[0] == "verify":
            attempted += 1
            if call["code"] != 0 or "RESULT: PASS" not in call["out"]:
                failures.append(f"verify {' '.join(argv[1:])}: exit {call['code']}, "
                                f"last line {call['out'].strip().splitlines()[-1:]}")
            continue
        if argv[0] == "paper":
            expected = {qid: ("paper", ref, tol)
                        for qid, (ref, tol) in CASE_STUDY_VALUES[argv[1]].items()}
        else:
            expected = {qid: ("file", spec, None)
                        for qid, spec in plan["expected"][argv[1]].items()}
        rows = _csv_rows(call["out"]) if call["code"] == 0 else {}
        for qid, (kind, spec, tol) in expected.items():
            attempted += 1
            row = rows.get(qid)
            problem = _row_problem(kind, spec, tol, row)
            if call["code"] != 0:
                problem = f"exit {call['code']}: {call['err'].strip()[:200]}"
            if problem:
                failures.append(f"{' '.join(argv)} row {qid}: {problem}")
    for formula, exact in outputs["pairs"]:
        attempted += 1
        if formula is None or abs(formula - exact) > LP_TOL:
            failures.append(f"agreement check: formula {formula!r} vs lp {exact!r}")
    return attempted, failures


def _row_problem(kind, spec, tol, row):
    if row is None:
        return "missing or unparsable row"
    value, error = row
    if kind == "paper":
        if abs(value - spec) > tol:
            return f"value {value!r} is not within {tol} of {spec}"
        if error > CASE_STUDY_ABS_TOL:
            return f"error_bound {error!r} exceeds abs_tol {CASE_STUDY_ABS_TOL}"
        return None
    if "bracket" in spec:
        ref_lo, ref_hi = spec["bracket"]
        if value + error < ref_lo - 1e-9 or value - error > ref_hi + 1e-9:
            return (f"bracket [{value - error!r}, {value + error!r}] misses the "
                    f"reference [{ref_lo!r}, {ref_hi!r}]")
        return None
    if abs(value - spec["value"]) > spec["tol"]:
        return f"value {value!r} differs from the reference {spec['value']!r} by more than {spec['tol']}"
    return None
