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
from functools import cache
from itertools import chain

import numpy as np

from . import choquet as _choquet
from . import pbox as _pbox
from .choquet import KnotOscillation
from .errors import ParseError, ValidationError, _checked
from .multivariate import FRECHET, RealLinePBox, combine
from .pbox import PBox, PiecewisePolynomialCdf, StepCdf
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
    builtin_scenario,
    named_cdf,
    named_oscillation,
    named_tail,
    result_rows,
    run_query,
)

CSV_HEADER = "query_id,kind,value,error_bound,elapsed_ms"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# scenario files

# each JSON type by the exact Python types json.load gives it: a boolean is no number
_TYPES = {"an object": (dict,), "an array": (list,), "a string": (str,), "a boolean": (bool,),
          "a number": (int, float)}
# the most entries of an array; a y_grid takes up to choquet._MAX_GRID points
_MAX_ITEMS = 1 << 16


class _Node:
    """A JSON value and its path in the document, such as ``queries[2].x1.lower``: a
    wrong type, member or shape is a ParseError there, and :meth:`build` prefixes the
    path to a ValidationError."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: str):
        self.value, self.path = value, path

    def fail(self, message: str, error=ParseError) -> Exception:
        return error(message, self.path or "document")

    def of(self, name: str):
        """The value, if it is of the JSON type ``name``, such as ``"a number"``."""
        if type(self.value) in _TYPES[name]:
            return self.value
        got = next((got for got, types in _TYPES.items() if type(self.value) in types), "null")
        raise self.fail(f"expected {name}, got {got}")

    def get(self, key: str, default=None) -> "_Node":
        """The member ``key`` of an object; ``default`` where absent, unless it is None."""
        obj = self.of("an object")
        path = f"{self.path}.{key}" if self.path else key
        if key not in obj and default is None:
            raise ParseError("missing", path)
        return _Node(obj.get(key, default), path)

    def values(self, name: str | None = None, most: int = _MAX_ITEMS) -> list:
        """The entries of an array of at most ``most``, each of JSON type ``name``:
        checked in one pass, with a node per entry only to name a wrong one."""
        entries = self.of("an array")
        if len(entries) > most:
            raise self.fail(f"more than {most} entries", ValidationError)
        if name is not None and not set(map(type, entries)).issubset(_TYPES[name]):
            for item in self.items():
                item.of(name)
        return entries

    def items(self, name: str | None = None, most: int = _MAX_ITEMS) -> list:
        """The entries of :meth:`values`, as nodes."""
        return [_Node(v, f"{self.path}[{k}]") for k, v in enumerate(self.values(name, most))]

    def one_of(self, *keys: str) -> str:
        """The one member of an object among ``keys``, which names its variant."""
        obj = self.of("an object")
        found = [key for key in keys if key in obj]
        if len(found) != 1:
            raise self.fail(f"expected exactly one of {' or '.join(map(repr, keys))}")
        return found[0]

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``, its validation error prefixed by this path."""
        return _checked(self.path, make, *args, **kwargs)


def _knots(node: _Node) -> tuple:
    """The ``[z, value]`` pairs of a knot list, their types checked in one pass."""
    pairs = node.values("an array")
    numbers = set(map(type, chain.from_iterable(pairs)))
    if set(map(len, pairs)) - {2} or not numbers.issubset(_TYPES["a number"]):
        for pair in node.items():
            if len(pair.value) != 2:
                raise pair.fail("expected a [z, value] pair")
            pair.values("a number")
    return tuple(map(tuple, pairs))


# the CDF of each kind, from the node of its values, knots or name
_CDFS = {"step": lambda node: node.build(StepCdf, tuple(node.values("a number"))),
         "linear": lambda node: node.build(PiecewisePolynomialCdf, _knots(node)),
         "analytic": lambda node: node.build(named_cdf, node.of("a string"))}


def _cdf(node: _Node):
    """A marginal's CDF: ``linear`` knots or an ``analytic`` name."""
    variant = node.one_of("linear", "analytic")
    return _CDFS[variant](node.get(variant))


def _box(node: _Node, space) -> PBox:
    variant = node.one_of("builtin", "step", "linear", "analytic", "marginals")
    spec = node.get(variant)
    if variant == "builtin":
        pbox = spec.build(builtin_scenario, spec.of("a string")).pbox
        if pbox is None:
            raise spec.fail(f"builtin scenario {spec.value!r} carries no p-box", ValidationError)
        return pbox
    if variant == "marginals":
        # every joint CDF point reads every marginal, so their knots in all are capped
        marginals, knots = [], 0
        for m in spec.items():
            marginals.append(m.build(PBox, _cdf(m.get("lower")), _cdf(m.get("upper"))))
            knots += len(marginals[-1].lower.knots) + len(marginals[-1].upper.knots)
            if knots > _MAX_ITEMS:
                raise spec.fail(f"more than {_MAX_ITEMS} knots in all", ValidationError)
        return node.build(combine, marginals, node.get("rule", FRECHET).of("a string"))
    if variant == "step" and not isinstance(space, FiniteQuotientSpace):
        raise spec.fail("step p-boxes need a finite space", ValidationError)
    lower, upper = (_CDFS[variant](spec.get(side)) for side in ("lower", "upper"))
    return spec.build(PBox, lower, upper, space if variant == "step" else UNIT_INTERVAL)


def _space(node: _Node):
    kind = node.get("type")
    if kind.of("a string") == "finite":
        classes = node.get("classes")
        return classes.build(FiniteQuotientSpace, tuple(classes.values("a string")))
    if kind.value != "continuum":
        raise kind.fail(f"unknown space type {kind.value!r}", ValidationError)
    return UNIT_INTERVAL


def _oscillation(node: _Node):
    """The oscillation, and its builtin name (None for knots)."""
    variant = node.one_of("builtin", "knots")
    spec = node.get(variant)
    if variant == "builtin":
        return spec.build(named_oscillation, spec.of("a string")), spec.value
    return spec.build(KnotOscillation, _knots(spec)), None


def _operand(node: _Node, operands: dict) -> RealLinePBox:
    """A real-line p-box: a ``point``, or ``lower`` knots and optional ``upper`` ones.

    ``operands`` maps the JSON value of each operand the document has built, by
    its ``repr`` (which keeps ``-0.0`` apart from ``0.0``), to its p-box, so an
    operand that repeats is built, and validated, at its first occurrence only.
    """
    key = repr(node.value)
    if key in operands:
        return operands[key]
    if node.one_of("point", "lower") == "point":
        point = node.get("point")
        built = point.build(RealLinePBox.point_mass, point.of("a number"))
    else:
        upper = _knots(node.get("upper")) if "upper" in node.value else None
        built = node.build(RealLinePBox.from_knots, _knots(node.get("lower")), upper)
    operands[key] = built
    return built


def _event(node: _Node):
    if node.one_of("classes", "intervals") == "classes":
        classes = node.get("classes")
        return classes.build(ClassSubset, classes.values("a number"))
    intervals = []
    for item in node.get("intervals").items():
        if len(item.of("an array")) != 4:
            raise item.fail("expected a [lo, hi, lo_open, hi_open] interval")
        lo, hi, lo_open, hi_open = item.items()
        intervals.append(item.build(ZInterval, lo.of("a number"), hi.of("a number"),
                                    lo_open.of("a boolean"), hi_open.of("a boolean")))
    return normalize(intervals)


def _arith(node: _Node, qid: str, kind: str, operands: dict) -> Query:
    """The query of a ``y``, or of a ``y_grid`` as a tuple of its points."""
    fields = {"x1": _operand(node.get("x1"), operands),
              "x2": _operand(node.get("x2"), operands),
              "op": node.get("op", "add").of("a string"),
              "side": node.get("side", "lower").of("a string")}
    if "y_grid" not in node.value:
        return node.build(Query, qid, kind, y=node.get("y").of("a number"), **fields)
    grid = node.get("y_grid")
    ys = grid.values("a number", _choquet._MAX_GRID)
    if not ys:
        raise grid.fail("expected at least one point", ValidationError)
    try:
        return node.build(Query, qid, kind, y=tuple(ys), **fields)
    except ValidationError:
        for y in grid.items():  # the first point that is not finite, by its path
            y.build(_finite_number, y.value)
        raise


def _query(node: _Node, index: int, pbox, operands: dict) -> Query:
    """The query of one entry of ``queries``; ``operands`` as for :func:`_operand`."""
    kind = node.get("kind").of("a string")
    qid = node.get("id", f"q{index}")
    if not set(',"\r\n').isdisjoint(qid.of("a string")):  # one CSV field, unquoted
        raise qid.fail("expected no ',', '\"', carriage return or line feed", ValidationError)
    if kind in ARITH_KINDS:
        return _arith(node, qid.value, kind, operands)
    fields = {}
    if kind in ("event_lower", "event_upper"):
        fields["event"] = _event(node)
    elif kind in INTEGRAL_KINDS:
        fields["oscillation"], name = _oscillation(node.get("oscillation"))
        if kind == "threshold":
            fields["target"] = node.get("target").of("a number")
    # each of these kinds asks about the document's p-box
    if fields and pbox is None:
        raise ParseError("missing", "pbox")
    if kind == "expectation_upper" and name is not None:
        fields["tail"] = named_tail(name, pbox)
    return node.build(Query, qid.value, kind, pbox, **fields)


def _integer(literal: str) -> int:
    """A JSON integer literal as an int; one longer than Python converts (4,300
    digits by default) is a parse error, not a ValueError from ``json.load``."""
    try:
        return int(literal)
    except ValueError:
        digits = len(literal.lstrip("-"))
        raise ParseError(f"an integer literal of {digits} digits is too long", "document") from None


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file into a runnable scenario, its tolerance included; a
    :class:`ParseError` (a document of the wrong shape) or a :class:`ValidationError`
    (a value the model refuses) names the field, such as ``queries[2].target``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = _Node(json.load(handle, parse_int=_integer), "")
        except RecursionError:
            raise ParseError("nested too deeply", "document") from None
    space = _space(doc.get("space", {"type": "continuum"}))
    pbox = _box(doc.get("pbox"), space) if "pbox" in doc.of("an object") else None
    operands = {}
    queries = tuple(_query(node, index, pbox, operands)
                    for index, node in enumerate(doc.get("queries", []).items()))
    config = doc.get("config", {})
    for key in config.of("an object"):
        if key != "abs_tol":
            raise config.get(key).fail("unknown setting")
    tol = config.get("abs_tol", _choquet._ABS_TOL)
    abs_tol = tol.build(_choquet._tolerance, tol.of("a number"))
    return Scenario(doc.get("name", path).of("a string"), pbox, queries, abs_tol)


def _abs_tol(scenario: Scenario, args) -> float:
    """The tolerance to run ``scenario`` to: ``--tol`` if given, else its own; checked."""
    return _choquet._tolerance(scenario.abs_tol if args.tol is None else args.tol)


def _emit_scenario(scenario: Scenario, args) -> int:
    """Run every query to the tolerance of :func:`_abs_tol`, CSV out; a query
    whose quadrature did not converge also gets a line on stderr."""
    abs_tol = _abs_tol(scenario, args)
    print(CSV_HEADER)
    for query in scenario.queries:
        start = time.perf_counter()
        result = run_query(query, abs_tol)
        rows = result_rows(query, result)
        # the rows of a grid share its wall time evenly
        elapsed_ms = int(round((time.perf_counter() - start) * 1000.0 / len(rows)))
        for rid, value in rows:
            print(f"{rid},{query.kind},{_fmt(value)},{_fmt(result.error_bound)},{elapsed_ms}")
        if not result.converged:
            print(f"not converged: {query.id} error bound {_fmt(result.error_bound)} "
                  f"above abs_tol {_fmt(abs_tol)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(args) -> int:
    grid = args.grid
    if grid < 2:
        raise ValidationError("table grids need at least two points")
    if grid > _choquet._MAX_GRID:
        raise ValidationError(f"table grids above {_choquet._MAX_GRID} points are not supported")
    scenario = (builtin_scenario(args.source) if args.source in BUILTIN_NAMES
                else load_scenario(args.source))
    abs_tol = _abs_tol(scenario, args)
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
    lo, hi, _ = _choquet._integrand(query.pbox, query.oscillation, abs_tol, query.tail)
    ts = np.linspace(lo, hi, grid)
    probs = _choquet._batch_cut_probs(query.pbox, query.oscillation, ts,
                                      query.kind != "expectation_lower")
    print("t,integrand")
    for t, g in zip(ts.tolist(), probs.tolist()):
        print(f"{_fmt(t)},{_fmt(g)}")
    return 0


# ---------------------------------------------------------------------------
# oracle campaign


# random events and gambles per instance of the campaign, each checked against the LP
_EVENTS, _GAMBLES = 10, 5


def _instance_pbox(instance) -> PBox:
    space = FiniteQuotientSpace(tuple(range(instance.n)))
    # each float is that of its Fraction, read without the number-tower dispatch
    lower, upper = ([v.numerator / v.denominator for v in cum]
                    for cum in (instance.lower_cum, instance.upper_cum))
    return PBox(StepCdf(tuple(lower)), StepCdf(tuple(upper)), space)


def _event_mismatch(where: str, instance, box: PBox, mask: int, numerator: int,
                    scale: int):
    """The violation line if the formula's lower probability of the event
    ``mask`` is off the exact ``numerator / scale`` by more than 1e-9, else None."""
    subset = ClassSubset(frozenset(i for i in range(instance.n) if mask >> i & 1))
    formula = _pbox.lower_prob_event(box, subset)
    exact = numerator / scale
    if abs(formula - exact) <= 1e-9:
        return None
    return (f"event mismatch: {where} {_serialize(instance)} "
            f"subset={sorted(subset.members)} formula={formula!r} lp={exact!r}")


def run_verify(seed: int = 42, trials: int = 200, n_max: int = 6) -> int:
    """Full oracle campaign, printed to stdout; returns 0 iff no violations were found.

    Compares the closed-form event and expectation machinery against the
    exact credal-polytope optimum on random instances, with additivity on
    components of the exact table.  Then, on smaller instances, it reads
    the exact lower probability of every subset once: no Möbius mass of
    that table may be negative (complete monotonicity of every order), and
    the library's event formula must give every subset its exact value.  A
    ``trials`` below 0 or an ``n_max`` below 2 is a validation error,
    raised before anything is printed.
    """
    # the oracle, with fractions and decimal, loads only for this command
    from .oracle import (
        additivity_check,
        lp_event_ratio,
        lp_lower_expectation,
        mobius_check,
        natural_extension_numerators,
        random_credal_instance,
    )

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
            lp_checks += 1
            mismatch = _event_mismatch(f"instance #{index}", instance, box, mask,
                                       *lp_event_ratio(instance, mask))
            if mismatch:
                violations.append(mismatch)
        for _ in range(_GAMBLES):
            gamble = [rng.randrange(-500, 501) / 100.0 for _ in range(n)]
            formula = _choquet.lower_expectation_finite(box, gamble)
            exact = lp_lower_expectation(instance, gamble)
            lp_checks += 1
            if abs(formula - exact) > 1e-9:
                violations.append(
                    f"gamble mismatch: instance #{index} {_serialize(instance)} "
                    f"gamble={gamble} formula={formula!r} lp={exact!r}")
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
        # one exact sweep per subset feeds both checks
        numerators, scale = natural_extension_numerators(instance)
        mono = mobius_check(numerators, scale)
        if not mono.passed:
            violations.append(
                f"monotonicity violation: {_serialize(instance)} {mono.violations[0]}")
            # one report per defective table
            continue
        box = _instance_pbox(instance)
        for mask in range(1 << n):
            mismatch = _event_mismatch(f"structural #{index}", instance, box, mask,
                                       numerators[mask], scale)
            if mismatch:
                violations.append(mismatch)
                break
    print(f"structural: {structural} instances")

    for line in violations:
        print(line)
    print(f"RESULT: {'FAIL' if violations else 'PASS'} ({len(violations)} violations)")
    return 1 if violations else 0


def _serialize(instance) -> str:
    lo = [str(v) for v in instance.lower_cum]
    hi = [str(v) for v in instance.upper_cum]
    return f"lower={lo} upper={hi}"


# ---------------------------------------------------------------------------
# parser


def _add_quadrature_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help="absolute quadrature tolerance (default 1e-4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pboxes",
        description="lower/upper probabilities and expectations from p-boxes")
    commands = parser.add_subparsers(dest="command", required=True)

    infer = commands.add_parser("infer", help="run a JSON scenario file")
    infer.add_argument("file")
    _add_quadrature_flags(infer)
    infer.set_defaults(func=lambda args: _emit_scenario(load_scenario(args.file), args))

    paper = commands.add_parser("paper", help="run a builtin scenario by name")
    paper.add_argument("name", choices=BUILTIN_NAMES)
    _add_quadrature_flags(paper)
    paper.set_defaults(func=lambda args: _emit_scenario(builtin_scenario(args.name), args))

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
    verify.set_defaults(func=lambda args: run_verify(args.seed, args.trials, args.n_max))
    return parser


# one parser per process: parse_args gives each call a fresh namespace
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
