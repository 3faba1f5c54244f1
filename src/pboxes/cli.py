"""Batch command-line front-end.

Subcommands:

* ``infer <file>``   -- run the queries of a JSON scenario file, CSV out.
* ``paper <name>``   -- run a named builtin scenario (case studies, worked
  examples), CSV out.
* ``table <source> --what cdf|integrand --grid N`` -- tabulate the p-box
  CDFs or the first expectation query's integrand on a uniform grid.
* ``verify``         -- run the oracle campaign; exit 1 on any violation.

CSV rows are ``query_id,kind,value,error_bound,elapsed_ms`` with floats at
12 significant digits.  Exit codes: 0 success, 1 verification violations,
2 scenario parse error, 3 validation error.  Values and error bounds are
deterministic for a fixed file, flags, and seed; the elapsed column is wall
time and naturally jitters between runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import choquet as _choquet
from . import pbox as _pbox
from .choquet import DEFAULT_CONFIG, QuadratureConfig
from .errors import ParseError, ToleranceError, ValidationError
from .multivariate import FRECHET, RealLinePBox, combine
from .oracle import (
    FiniteCredalInstance,
    additivity_check,
    complete_monotonicity_check,
    envelope_sample_bound,
    lp_lower_expectation,
    natural_extension_table,
    pbox_representability_check,
    random_credal_instance,
)
from .pbox import PBox, PiecewiseLinearCdf, StepCdf
from .preorder import (
    UNIT_INTERVAL,
    ClassSubset,
    FiniteQuotientSpace,
    ZInterval,
    _finite_number,
    normalize,
)
from .scenarios import (
    ARITH_KINDS,
    BUILTIN_NAMES,
    INTEGRAL_KINDS,
    Query,
    Scenario,
    _checked,
    builtin_scenario,
    named_cdf,
    named_oscillation,
    piecewise_linear_oscillation,
    run_query,
)

CSV_HEADER = "query_id,kind,value,error_bound,elapsed_ms"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# scenario files

_REQUIRED = object()
_NUMBER = (int, float)
# in matching order: a boolean is an int to Python, and any int is a number
_JSON_TYPES = {bool: "a boolean", dict: "an object", list: "an array",
               str: "a string", _NUMBER: "a number", int: "an integer"}
_CONFIG_FIELDS = {"abs_tol": _NUMBER, "max_refinements": int, "bisect_tol": _NUMBER,
                  "tail_tol": _NUMBER}


def _expect(value, types, path: str):
    """``value`` if it is of ``types`` (a boolean is never a number); else a ParseError."""
    if isinstance(value, types) and not isinstance(value, bool):
        return value
    got = next((name for kind, name in _JSON_TYPES.items() if isinstance(value, kind)),
               "null")
    raise ParseError(f"{path}: expected {_JSON_TYPES[types]}, got {got}")


def _field(obj: dict, key: str, path: str, types, default=_REQUIRED):
    """``obj[key]`` checked by :func:`_expect`, or ``default`` when absent."""
    where = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing")
        return default
    return _expect(obj[key], types, where)


@contextmanager
def _malformed(path: str):
    """Report a specification the builders cannot read as a ParseError at ``path``."""
    try:
        yield
    except (ParseError, ValidationError):
        raise
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed specification: {exc}") from exc


def _knots(value, path: str) -> tuple:
    """The ``[z, value]`` pairs of the knot list at ``path``; else a ParseError."""
    for k, pair in enumerate(_expect(value, list, path)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{path}[{k}]: expected a [z, value] pair")
    return tuple(map(tuple, value))


def _linear_cdf(value, path: str) -> PiecewiseLinearCdf:
    """The CDF of the knot list at ``path``, its validation errors prefixed by ``path``."""
    return _checked(path, PiecewiseLinearCdf, _knots(value, path))


def _cdf_from_spec(spec, path: str) -> object:
    if isinstance(spec, dict) and "linear" in spec:
        return _linear_cdf(spec["linear"], f"{path}.linear")
    if isinstance(spec, dict) and "analytic" in spec:
        return named_cdf(spec["analytic"])
    raise ValidationError(f"unrecognized CDF specification: {spec!r}")


def _real_line_pbox(spec: dict, path: str) -> RealLinePBox:
    """The operand at ``path``, its validation errors prefixed by ``path``."""
    if "point" in spec:
        return _checked(path, RealLinePBox.point_mass, spec["point"])
    lower, upper = spec.get("lower"), spec.get("upper")
    if lower is None:
        raise ValidationError(f"{path}: real-line p-boxes need 'lower' knots or a 'point'")
    return _checked(path, RealLinePBox.from_knots, _knots(lower, f"{path}.lower"),
                    _knots(upper, f"{path}.upper") if upper else None)


def _oscillation_from_spec(spec, path: str):
    if "builtin" in spec:
        return named_oscillation(spec["builtin"])
    if "knots" in spec:
        where = f"{path}.knots"
        return _checked(where, piecewise_linear_oscillation, _knots(spec["knots"], where))
    raise ValidationError("oscillations need 'builtin' or 'knots'")


def _event_from_spec(query: dict, path: str):
    if "classes" in query:
        return ClassSubset(query["classes"])
    if "intervals" in query:
        return normalize([_checked(f"{path}.intervals[{k}]", ZInterval, lo, hi, lo_open, hi_open)
                          for k, (lo, hi, lo_open, hi_open) in enumerate(query["intervals"])])
    raise ParseError(f"{path}: missing 'classes' or 'intervals'")


def _pbox_from_spec(spec, space) -> PBox | None:
    if spec is None:
        return None
    if "builtin" in spec:
        pbox = builtin_scenario(spec["builtin"]).pbox
        if pbox is None:
            raise ValidationError(f"builtin scenario {spec['builtin']!r} carries no p-box")
        return pbox
    if "step" in spec:
        if not isinstance(space, FiniteQuotientSpace):
            raise ValidationError("step p-boxes need a finite space")
        return PBox(StepCdf(tuple(spec["step"]["lower"])),
                    StepCdf(tuple(spec["step"]["upper"])), space)
    if "linear" in spec:
        return PBox(_linear_cdf(spec["linear"]["lower"], "pbox.linear.lower"),
                    _linear_cdf(spec["linear"]["upper"], "pbox.linear.upper"),
                    UNIT_INTERVAL)
    if "analytic" in spec:
        return PBox(named_cdf(spec["analytic"]["lower"]),
                    named_cdf(spec["analytic"]["upper"]), UNIT_INTERVAL)
    if "marginals" in spec:
        return combine([PBox(_cdf_from_spec(m["lower"], f"pbox.marginals[{k}].lower"),
                             _cdf_from_spec(m["upper"], f"pbox.marginals[{k}].upper"))
                        for k, m in enumerate(spec["marginals"])],
                       _field(spec, "rule", "pbox", str, FRECHET))
    raise ValidationError(f"unrecognized p-box specification: {spec!r}")


def _query(path: str, *args, **fields) -> Query:
    """A :class:`Query` whose validation error names its field under ``path``."""
    try:
        return Query(*args, **fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc}") from None


def _arith_queries(raw: dict, path: str, qid: str, kind: str) -> list:
    """One query per point of the ``y_grid`` (ids suffixed ``_k``), or one for ``y``."""
    x1, x2 = (_real_line_pbox(_field(raw, name, path, dict), f"{path}.{name}")
              for name in ("x1", "x2"))
    op = _field(raw, "op", path, str, "add") if kind == "arith_op" else "add"
    fields = {"x1": x1, "x2": x2, "op": op, "side": _field(raw, "side", path, str, "lower")}
    if "y_grid" not in raw:
        y = _checked(f"{path}.y", _finite_number, _field(raw, "y", path, _NUMBER))
        return [_query(path, qid, kind, y=y, **fields)]
    y_grid = _field(raw, "y_grid", path, list)
    if not y_grid:
        raise ValidationError(f"{path}.y_grid: expected at least one point")
    if len(y_grid) > _choquet._MAX_GRID:
        raise ValidationError(f"{path}.y_grid: more than {_choquet._MAX_GRID} points")
    ys = []
    for k, y in enumerate(y_grid):
        where = f"{path}.y_grid[{k}]"
        ys.append(_checked(where, _finite_number, _expect(y, _NUMBER, where)))
    return [_query(path, f"{qid}_{k}", kind, y=y, **fields) for k, y in enumerate(ys)]


def _queries_from_spec(raw_queries, pbox) -> tuple:
    queries = []
    for idx, raw in enumerate(raw_queries):
        path = f"queries[{idx}]"
        raw = _expect(raw, dict, path)
        kind = _field(raw, "kind", path, str)
        qid = str(raw.get("id", f"q{idx}"))
        with _malformed(path):
            if kind in ARITH_KINDS:
                queries.extend(_arith_queries(raw, path, qid, kind))
                continue
            fields = {}
            if kind in ("event_lower", "event_upper"):
                fields["event"] = _event_from_spec(raw, path)
            elif kind in INTEGRAL_KINDS:
                fields["oscillation"] = _oscillation_from_spec(
                    _field(raw, "oscillation", path, dict), f"{path}.oscillation")
                if kind == "threshold":
                    fields["target"] = _field(raw, "target", path, _NUMBER)
            # each of these kinds asks about the document's p-box
            if fields and pbox is None:
                raise ParseError("pbox: missing")
            queries.append(_query(path, qid, kind, pbox, **fields))
    return tuple(queries)


def load_scenario(path: str):
    """Parse a scenario file into a runnable scenario and its config.

    A document without the documented shape raises :class:`ParseError`
    naming the offending field, such as ``queries[2].target`` or an
    unknown ``config`` setting.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = _expect(json.load(handle), dict, "document")
    space_spec = _field(doc, "space", "", dict, {"type": "continuum"})
    space_type = space_spec.get("type")
    if space_type == "finite":
        classes = _field(space_spec, "classes", "space", list)
        with _malformed("space.classes"):
            space = FiniteQuotientSpace(tuple(classes))
    elif space_type in ("continuum", "z_induced"):
        space = UNIT_INTERVAL
    else:
        raise ValidationError(f"unknown space type {space_type!r}")
    pbox_spec = doc.get("pbox")
    if pbox_spec is not None:
        _expect(pbox_spec, dict, "pbox")
    with _malformed("pbox"):
        pbox = _pbox_from_spec(pbox_spec, space)
    queries = _queries_from_spec(_field(doc, "queries", "", list, []), pbox)
    raw_cfg = _field(doc, "config", "", dict, {})
    for key in raw_cfg:
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"config.{key}: unknown setting")
    known = {key: _field(raw_cfg, key, "config", types)
             for key, types in _CONFIG_FIELDS.items() if key in raw_cfg}
    cfg = replace(DEFAULT_CONFIG, **known) if known else DEFAULT_CONFIG
    return Scenario(str(doc.get("name", path)), pbox, queries), cfg


def _merge_config(cfg: QuadratureConfig, args) -> QuadratureConfig:
    flags = {"abs_tol": args.tol, "tail_tol": args.tail_tol,
             "max_refinements": args.max_refine}
    overrides = {key: value for key, value in flags.items() if value is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _emit_scenario(scenario: Scenario, cfg: QuadratureConfig, args) -> int:
    """Run every query under ``cfg`` and the command-line overrides, CSV out;
    a query whose quadrature did not converge also gets a line on stderr."""
    cfg = _merge_config(cfg, args)
    print(CSV_HEADER)
    for query in scenario.queries:
        start = time.perf_counter()
        result = run_query(query, cfg)
        elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
        print(f"{result.id},{result.kind},{_fmt(result.value)},"
              f"{_fmt(result.error_bound)},{elapsed_ms}")
        if not result.converged:
            print(f"not converged: {result.id} error bound {_fmt(result.error_bound)} "
                  f"above abs_tol {_fmt(cfg.abs_tol)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_infer(args) -> int:
    return _emit_scenario(*load_scenario(args.file), args)


def _cmd_paper(args) -> int:
    return _emit_scenario(builtin_scenario(args.name), DEFAULT_CONFIG, args)


def _cmd_table(args) -> int:
    grid = args.grid
    if grid < 2:
        raise ValidationError("table grids need at least two points")
    if grid > _choquet._MAX_GRID:
        raise ValidationError(f"table grids above {_choquet._MAX_GRID} points are not supported")
    if args.source in BUILTIN_NAMES:
        scenario, cfg = builtin_scenario(args.source), DEFAULT_CONFIG
    else:
        scenario, cfg = load_scenario(args.source)
    cfg = _merge_config(cfg, args)
    pbox = scenario.pbox
    if pbox is None:
        raise ValidationError(f"scenario {scenario.name!r} carries no p-box to tabulate")
    if args.what == "cdf":
        # a finite p-box has one row per class index; the grid is for [0, 1]
        if pbox.is_finite:
            print("class,lower,upper")
            points = range(pbox.space.size)
        else:
            print("z,lower,upper")
            points = np.linspace(0.0, 1.0, grid)
        for x in points:
            print(f"{_fmt(float(x))},{_fmt(float(pbox.lower(x)))},"
                  f"{_fmt(float(pbox.upper(x)))}")
        return 0
    query = next((q for q in scenario.queries
                  if q.kind in INTEGRAL_KINDS and args.query in (None, q.id)), None)
    if query is None:
        raise ValidationError(
            "no expectation query to take an integrand from" if args.query is None
            else f"no expectation query with id {args.query!r} in {scenario.name!r}")
    # the levels the quadrature integrates over, truncated where it truncates
    integrand, lo, hi, _ = _choquet._integrand(
        query.pbox, query.oscillation, query.kind != "expectation_lower", cfg)
    ts = np.linspace(lo, hi, grid)
    print("t,integrand")
    for t, g in zip(ts.tolist(), integrand(ts).tolist()):
        print(f"{_fmt(t)},{_fmt(g)}")
    return 0


# ---------------------------------------------------------------------------
# oracle campaign


# random events and gambles per instance of the campaign, each checked against the LP
_EVENTS, _GAMBLES = 10, 5


def _instance_pbox(instance: FiniteCredalInstance) -> PBox:
    space = FiniteQuotientSpace(tuple(range(instance.n)))
    return PBox(StepCdf(instance.lower_cum), StepCdf(instance.upper_cum), space)


def run_verify(seed: int = 42, trials: int = 200, n_max: int = 6) -> int:
    """Full oracle campaign, printed to stdout; returns 0 iff no violations were found.

    Compares the closed-form event and expectation machinery against the
    exact credal-polytope optimum on random instances, then runs the
    structural checkers (additivity on components, complete monotonicity,
    p-box representability round trips, envelope sampling bounds).  A
    ``trials`` below 0 or an ``n_max`` below 2 is a validation error,
    raised before anything is printed.
    """
    if trials < 0:
        raise ValidationError(f"--trials must be at least 0, got {trials}")
    if n_max < 2:
        raise ValidationError(f"--n-max must be at least 2, got {n_max}")
    rng = random.Random(seed)
    violations = []
    lp_checks = 0
    for index in range(trials):
        n = rng.randint(2, n_max)
        instance = random_credal_instance(rng, n)
        box = _instance_pbox(instance)
        for _ in range(_EVENTS):
            mask = rng.randrange(1, 1 << n)
            subset = ClassSubset(frozenset(i for i in range(n) if mask & (1 << i)))
            formula = _pbox.lower_prob_event(box, subset)
            exact = lp_lower_expectation(instance, [1 if i in subset.members else 0
                                                    for i in range(n)])
            lp_checks += 1
            if abs(formula - exact) > 1e-9:
                violations.append(
                    f"event mismatch: instance #{index} {_serialize(instance)} "
                    f"subset={sorted(subset.members)} formula={formula!r} lp={exact!r}")
        for _ in range(_GAMBLES):
            gamble = [rng.randrange(-500, 501) / 100.0 for _ in range(n)]
            formula = _choquet.lower_expectation_finite(box, gamble)
            exact = lp_lower_expectation(instance, gamble)
            lp_checks += 1
            if abs(formula - exact) > 1e-9:
                violations.append(
                    f"gamble mismatch: instance #{index} {_serialize(instance)} "
                    f"gamble={gamble} formula={formula!r} lp={exact!r}")
            bound = envelope_sample_bound(instance, gamble, samples=16,
                                          seed=rng.randrange(1 << 30))
            if bound < exact - 1e-12:
                violations.append(
                    f"envelope bound below lp: instance #{index} {_serialize(instance)} "
                    f"gamble={gamble} bound={bound!r} lp={exact!r}")
        report = additivity_check(instance, trials=4, seed=rng.randrange(1 << 30))
        if not report.passed:
            violations.append(
                f"additivity violation: instance #{index} {_serialize(instance)} "
                f"{report.violations[0]}")
    print(f"lp-agreement: {trials} instances, {lp_checks} checks")

    structural = min(trials, 20)
    for index in range(structural):
        n = rng.randint(2, min(n_max, 5))
        instance = random_credal_instance(rng, n, denominator=100)
        table = natural_extension_table(instance)
        mono = complete_monotonicity_check(table, p_max=3)
        if not mono.passed:
            violations.append(
                f"monotonicity violation: {_serialize(instance)} {mono.violations[0]}")
        rep = pbox_representability_check(table)
        if not rep.matches:
            violations.append(
                f"representability mismatch: {_serialize(instance)} {rep.mismatches[0]}")
    print(f"structural: {structural} instances")

    for line in violations:
        print(line)
    print(f"RESULT: {'FAIL' if violations else 'PASS'} ({len(violations)} violations)")
    return 1 if violations else 0


def _serialize(instance: FiniteCredalInstance) -> str:
    lo = [str(v) for v in instance.lower_cum]
    hi = [str(v) for v in instance.upper_cum]
    return f"lower={lo} upper={hi}"


def _cmd_verify(args) -> int:
    return run_verify(seed=args.seed, trials=args.trials, n_max=args.n_max)


# ---------------------------------------------------------------------------
# parser


def _add_quadrature_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help="absolute quadrature tolerance (default 1e-4)")
    sub.add_argument("--tail-tol", type=float, default=None,
                     help="tail truncation tolerance (default 1e-8)")
    sub.add_argument("--max-refine", type=int, default=None,
                     help="maximum rounds of adaptive refinement (default 24)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pboxes",
        description="lower/upper probabilities and expectations from p-boxes")
    commands = parser.add_subparsers(dest="command", required=True)

    infer = commands.add_parser("infer", help="run a JSON scenario file")
    infer.add_argument("file")
    _add_quadrature_flags(infer)
    infer.set_defaults(func=_cmd_infer)

    paper = commands.add_parser("paper", help="run a builtin scenario by name")
    paper.add_argument("name", choices=BUILTIN_NAMES)
    _add_quadrature_flags(paper)
    paper.set_defaults(func=_cmd_paper)

    table = commands.add_parser("table", help="tabulate CDFs or an integrand")
    table.add_argument("source", help="scenario file or builtin name")
    table.add_argument("--what", choices=("cdf", "integrand"), default="cdf")
    table.add_argument("--grid", type=int, default=101)
    table.add_argument("--query", default=None,
                       help="id of the expectation query to tabulate "
                            "(default: the first one)")
    _add_quadrature_flags(table)
    table.set_defaults(func=_cmd_table)

    verify = commands.add_parser("verify", help="run the oracle campaign")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--n-max", type=int, default=6)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ToleranceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
