"""Benchmark-side tracing of the pboxes layers, and the per-layer metrics.

The tracer never edits or copies program code.  For the duration of a traced
run it rebinds public module attributes of ``pboxes``:

* functions at a layer boundary are replaced by a wrapper that records a span
  (name, start, end, parent span, pass id) around the original call;
* the public constructors ``PBox``, ``Oscillation`` and the real-line
  ``PiecewiseLinearCdf`` are replaced by factories that call the real
  constructor with the user-level callables (CDFs, oscillations, inverses)
  wrapped, so every evaluation of them is counted.  A counted CDF is an
  instance of a subclass of the CDF's own class, with the same field values,
  so the program's ``isinstance`` checks take the paths they take untraced;
  :meth:`Tracer.check_validation_paths` tests that they do.

Callable evaluations are too frequent to keep one span each: they are
aggregated (calls, points, scalar calls, time) onto the innermost open span.
Spans stay in memory and are written out as JSON lines when the run ends;
:func:`derive` turns them into the per-layer metrics.

A hook whose target attribute no longer exists is skipped; the layers it
fed then see no calls and are reported as unavailable.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

_now = time.perf_counter_ns

# (module, attribute, span name).  The same function is rebound wherever a
# layer above reaches it through its own module namespace.
FUNCTION_HOOKS = (
    ("pboxes", "builtin_scenario", "scenarios.build"),
    ("pboxes.cli", "load_scenario", "cli.parse"),
    ("pboxes.scenarios", "combine", "multivariate.combine"),
    ("pboxes.scenarios", "lower_expectation", "choquet.expectation"),
    ("pboxes.scenarios", "upper_expectation", "choquet.expectation"),
    ("pboxes.scenarios", "threshold_solve", "choquet.threshold"),
    ("pboxes", "lower_expectation_finite", "choquet.finite"),
    ("pboxes.choquet", "lower_expectation_finite", "choquet.finite"),
    ("pboxes", "lower_prob_event", "pbox.event"),
    ("pboxes.pbox", "lower_prob_event", "pbox.event"),
    ("pboxes.choquet", "lower_prob_event", "pbox.event"),
    ("pboxes.choquet", "upper_prob_event", "pbox.event"),
    ("pboxes.scenarios", "lower_prob_event", "pbox.event"),
    ("pboxes.scenarios", "upper_prob_event", "pbox.event"),
    ("pboxes.scenarios", "prob_arith_transform", "multivariate.arith"),
    ("pboxes", "lp_lower_expectation", "oracle.lp"),
    ("pboxes.cli", "lp_lower_expectation", "oracle.lp"),
    ("pboxes.oracle", "lp_lower_expectation", "oracle.lp"),
)
FUNCTION_HOOKS += tuple(("pboxes.cli", name, "oracle.structural") for name in (
    "natural_extension_table", "complete_monotonicity_check",
    "pbox_representability_check", "additivity_check", "envelope_sample_bound"))

# (module, constructor attribute, {parameter: callable kind})
CONSTRUCTOR_HOOKS = (
    ("pboxes.cli", "PBox", {"lower": "cdf", "upper": "cdf"}),
    ("pboxes.scenarios", "PBox", {"lower": "cdf", "upper": "cdf"}),
    ("pboxes.multivariate", "PBox", {"lower": "cdf", "upper": "cdf"}),
    ("pboxes.scenarios", "Oscillation", {"f": "osc", "inverse": "inverse"}),
    ("pboxes.multivariate", "PiecewiseLinearCdf", {None: "arith_cdf"}),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # span: [id, name, start_ns, end_ns, parent_id, pass_id, attrs, leaves]
        # leaves: {kind: [calls, points, scalar_calls, ns]}
        self.spans = []
        self._stack = []
        self._in_leaf = False
        self.pass_id = -1
        self._restore = []
        self.installed = []
        self._counted = {}          # id(base CDF): (base, counted CDF)
        self._counted_classes = {}  # (CDF class, kind): counted subclass

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        rec = [len(self.spans), name, 0, 0, parent, self.pass_id, None, None]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[2] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = _now()
            self._stack.pop()
        rec[6] = _attributes(name, args, result)
        return result

    def leaf(self, kind, x, fn, *args):
        """``fn(*args)``, counted onto the innermost span as a call on ``x``."""
        if self._in_leaf or not self._stack:
            return fn(*args)
        self._in_leaf = True
        start = _now()
        try:
            return fn(*args)
        finally:
            elapsed = _now() - start
            self._in_leaf = False
            rec = self._stack[-1]
            if rec[7] is None:
                rec[7] = {}
            agg = rec[7].setdefault(kind, [0, 0, 0, 0])
            agg[0] += 1
            ndim = getattr(x, "ndim", None)
            if ndim is None or ndim == 0:
                agg[1] += 1
                agg[2] += 1
            else:
                agg[1] += int(x.size)
            agg[3] += elapsed

    # -- hooks -------------------------------------------------------------

    def install(self):
        """Rebind the hooked attributes; :meth:`uninstall` restores them."""
        for module_name, attr, span_name in FUNCTION_HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._rebind(module, attr, self._function_wrapper(span_name, original))
        for module_name, attr, params in CONSTRUCTOR_HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._rebind(module, attr, self._constructor_wrapper(original, params))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _rebind(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)
        self.installed.append(f"{module.__name__}.{attr}")

    def _function_wrapper(self, span_name, original):
        def traced(*args, **kwargs):
            return self.span(span_name, original, *args, **kwargs)
        traced.__wrapped__ = original
        return traced

    def _constructor_wrapper(self, cls, params):
        if None in params:
            # the constructed object itself is the callable to count
            kind = params[None]

            def build_counted(*args, **kwargs):
                return self._counted_cdf(kind, cls(*args, **kwargs))
            return build_counted

        signature = inspect.signature(cls)
        import pboxes
        step_cdf = pboxes.StepCdf

        def build(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, kind in params.items():
                value = bound.arguments.get(param)
                if value is None or isinstance(value, step_cdf):
                    continue
                if kind == "cdf":
                    bound.arguments[param] = self._counted_cdf(kind, value)
                else:
                    bound.arguments[param] = self._counted_function(kind, value)
            return cls(*bound.args, **bound.kwargs)
        return build

    def _counted_function(self, kind, fn):
        def counted(x, *rest):
            return self.leaf(kind, x, fn, x, *rest)
        return counted

    def _counted_cdf(self, kind, base):
        """``base`` with its value and left-limit evaluations counted.

        The result is an instance of a subclass of ``type(base)`` holding a
        copy of ``base``'s fields.  The same base always gives the same
        counted CDF, so identity checks between CDFs hold as they do
        untraced.
        """
        held = self._counted.get(id(base))
        if held is not None:
            return held[1]
        cls = type(base)
        sub = self._counted_classes.get((cls, kind))
        if sub is None:
            leaf, call, left_limit = self.leaf, cls.__call__, cls.left_limit
            sub = type(cls.__name__, (cls,), {
                "__module__": cls.__module__,
                "__qualname__": cls.__qualname__,
                "__call__": lambda cdf, x: leaf(kind, x, call, cdf, x),
                "left_limit": lambda cdf, x: leaf(kind, x, left_limit, cdf, x),
            })
            self._counted_classes[(cls, kind)] = sub
        counted = object.__new__(sub)
        counted.__dict__.update(base.__dict__)
        self._counted[id(base)] = (base, counted)  # keeps id(base) unique
        return counted

    def check_validation_paths(self):
        """Problems where a PBox built through the hooks is validated differently.

        Builds the same p-boxes with the untouched ``pboxes.PBox`` and with
        the rebound ``pboxes.cli.PBox``, whose CDFs are counted.  The specs
        hit the checks that depend on the CDF's class: the domain check,
        the knots added to the validation grid, and identity of lower and
        upper.
        """
        import pboxes
        import pboxes.cli
        linear = pboxes.PiecewiseLinearCdf
        same = linear(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
        specs = {
            "domain check": (linear(((0.0, 0.0), (2.0, 1.0))),
                             linear(((0.0, 0.0), (2.0, 1.0))), {}),
            # lower exceeds upper only at the knot z = 0.5, off the 2-point grid
            "knots in the grid": (linear(((0.0, 0.0), (0.5, 0.8), (1.0, 1.0))),
                                  linear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0))),
                                  {"validation_grid": 2}),
            "valid": (linear(((0.0, 0.0), (0.5, 0.4), (1.0, 1.0))),
                      linear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0))),
                      {"validation_grid": 2}),
            "precise": (same, same, {}),
        }

        def outcome(constructor, lower, upper, options):
            try:
                box = constructor(lower, upper, pboxes.UNIT_INTERVAL, **options)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                return f"{type(exc).__name__}: {exc}"
            return f"valid, is_precise={box.is_precise}"

        problems = []
        for name, (lower, upper, options) in specs.items():
            plain = outcome(pboxes.PBox, lower, upper, options)
            traced = outcome(pboxes.cli.PBox, lower, upper, options)
            if plain != traced:
                problems.append(f"validation path '{name}': untraced gives {plain!r}, "
                                f"traced gives {traced!r}")
        return problems

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def _attributes(name, args, result):
    if name == "choquet.expectation":
        return {"refinements": getattr(result, "refinements", None),
                "converged": getattr(result, "converged", None)}
    if name == "oracle.lp" and len(args) > 1:
        return {"n": len(args[1])}
    return None


def read_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------------
# per-layer metrics

# metric: evidence.  A metric is unavailable when no traced pass saw a call
# of its evidence: a span name, or "leaf:<kind>" for a counted callable
# inside quadrature.  Set-up import times and the overhead need none.
# BENCHMARK.json lists the same metrics with their units.
EVIDENCE = {
    "setup.import_numpy_s": None,
    "setup.import_scipy_s": None,
    "setup.import_pboxes_s": None,
    "scenarios.build_s": "scenarios.build",
    "multivariate.combine_s": "multivariate.combine",
    "cli.parse_calls": "cli.parse",
    "cli.parse_s": "cli.parse",
    "cli.emit_rows": "cli.emit",
    "choquet.expectation_calls": "choquet.expectation",
    "choquet.expectation_s": "choquet.expectation",
    "choquet.refinements": "choquet.expectation",
    "choquet.unconverged": "choquet.expectation",
    "choquet.inverse_points": "leaf:inverse",
    "choquet.inverse_s": "leaf:inverse",
    "choquet.osc_points": "leaf:osc",
    "choquet.osc_scalar_calls": "leaf:osc",
    "choquet.osc_s": "leaf:osc",
    "choquet.self_s": "choquet.quadrature",
    "choquet.threshold_calls": "choquet.threshold",
    "choquet.threshold_s": "choquet.threshold",
    "choquet.finite_calls": "choquet.finite",
    "choquet.finite_s": "choquet.finite",
    "pbox.cdf_calls": "leaf:cdf",
    "pbox.cdf_points": "leaf:cdf",
    "pbox.cdf_scalar_calls": "leaf:cdf",
    "pbox.cdf_s": "leaf:cdf",
    "pbox.event_calls": "pbox.event",
    "pbox.event_s": "pbox.event",
    "multivariate.arith_calls": "multivariate.arith",
    "multivariate.arith_s": "multivariate.arith",
    "multivariate.arith_cdf_points": "multivariate.arith",
    "multivariate.arith_ms_p50": "multivariate.arith",
    "multivariate.arith_ms_p90": "multivariate.arith",
    "oracle.lp_small_calls": "oracle.lp_small",
    "oracle.lp_small_s": "oracle.lp_small",
    "oracle.lp_large_calls": "oracle.lp_large",
    "oracle.lp_large_s": "oracle.lp_large",
    "oracle.structural_s": "oracle.structural",
    "oracle.checks": "oracle.checks",
    "trace.overhead_frac": None,
}

_QUADRATURE = ("choquet.expectation", "choquet.threshold")
_SETUP_PHASE = ("scenarios.build", "multivariate.combine")


def pass_metrics(spans, pass_id):
    """Per-layer values of one pass, plus the evidence keys it saw calls for."""
    recs = [s for s in spans if s[5] == pass_id]
    by_id = {s[0]: s for s in recs}
    children = {}
    for s in recs:
        children.setdefault(s[4], []).append(s)

    def has_ancestor(s, names):
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = by_id.get(parent[4])
        return False

    def dur(s):
        return (s[3] - s[2]) * 1e-9

    def leaves(s, kind):
        return (s[7] or {}).get(kind, [0, 0, 0, 0])

    m = {}
    seen = set()

    def outermost(name):
        out = [s for s in recs if s[1] == name and not has_ancestor(s, (name,))]
        if out:
            seen.add(name)
        return out

    parse = outermost("cli.parse")
    m["cli.parse_calls"] = len(parse)
    m["cli.parse_s"] = sum(map(dur, parse))

    expectation = outermost("choquet.expectation")
    m["choquet.expectation_calls"] = len(expectation)
    m["choquet.expectation_s"] = sum(map(dur, expectation))
    m["choquet.refinements"] = sum((s[6] or {}).get("refinements") or 0 for s in expectation)
    m["choquet.unconverged"] = sum(1 for s in expectation
                                   if (s[6] or {}).get("converged") is False)
    threshold = outermost("choquet.threshold")
    m["choquet.threshold_calls"] = len(threshold)
    m["choquet.threshold_s"] = sum(map(dur, threshold))

    quadrature = expectation + threshold
    if quadrature:
        seen.add("choquet.quadrature")
    self_ns = 0
    for s in quadrature:
        inner = sum(c[3] - c[2] for c in children.get(s[0], ()))
        inner += sum(agg[3] for agg in (s[7] or {}).values())
        self_ns += (s[3] - s[2]) - inner
    m["choquet.self_s"] = self_ns * 1e-9

    in_quadrature = [s for s in recs if s[1] in _QUADRATURE or has_ancestor(s, _QUADRATURE)]
    for kind, prefix in (("inverse", "choquet.inverse"), ("osc", "choquet.osc")):
        aggs = [leaves(s, kind) for s in in_quadrature]
        if any(a[0] for a in aggs):
            seen.add("leaf:" + kind)
        m[prefix + "_points"] = sum(a[1] for a in aggs)
        m[prefix + "_s"] = sum(a[3] for a in aggs) * 1e-9
        if kind == "osc":
            m["choquet.osc_scalar_calls"] = sum(a[2] for a in aggs)

    finite = outermost("choquet.finite")
    m["choquet.finite_calls"] = len(finite)
    m["choquet.finite_s"] = sum(map(dur, finite))

    cdf = [leaves(s, "cdf") for s in recs]
    if any(a[0] for a in cdf):
        seen.add("leaf:cdf")
    m["pbox.cdf_calls"] = sum(a[0] for a in cdf)
    m["pbox.cdf_points"] = sum(a[1] for a in cdf)
    m["pbox.cdf_scalar_calls"] = sum(a[2] for a in cdf)
    m["pbox.cdf_s"] = sum(a[3] for a in cdf) * 1e-9

    event = outermost("pbox.event")
    m["pbox.event_calls"] = len(event)
    m["pbox.event_s"] = sum(map(dur, event))

    arith = outermost("multivariate.arith")
    m["multivariate.arith_calls"] = len(arith)
    m["multivariate.arith_s"] = sum(map(dur, arith))
    in_arith = [s for s in recs if s[1] == "multivariate.arith"
                or has_ancestor(s, ("multivariate.arith",))]
    m["multivariate.arith_cdf_points"] = sum(leaves(s, "arith_cdf")[1] for s in in_arith)

    lp = outermost("oracle.lp")
    small = [s for s in lp if (s[6] or {}).get("n", 0) <= 8]
    large = [s for s in lp if (s[6] or {}).get("n", 0) >= 9]
    for key, group in (("oracle.lp_small", small), ("oracle.lp_large", large)):
        if group:
            seen.add(key)
        m[f"{key}_calls"] = len(group)
        m[f"{key}_s"] = sum(map(dur, group))
    structural = outermost("oracle.structural")
    m["oracle.structural_s"] = sum(
        dur(s) - sum(dur(c) for c in children.get(s[0], ()) if c[1] == "oracle.lp")
        for s in structural)

    build = outermost("scenarios.build")
    m["scenarios.build_s"] = sum(map(dur, build))
    combine = outermost("multivariate.combine")
    m["multivariate.combine_s"] = sum(map(dur, combine))
    return m, seen, [dur(s) * 1e3 for s in arith]


def derive(traced_children, untraced_warm):
    """Per-layer metrics from the traced children of one run.

    ``traced_children`` holds each traced child's result (with its spans
    and its speed-scaled warm passes); ``untraced_warm`` the speed-scaled warm pass
    times of the untraced children, for the tracing overhead.  Layer times
    are wall times, not scaled.  Pass metrics are medians over all traced warm passes;
    set-up metrics are medians over the traced children, whose set-up phase
    is pass -1.  Returns ``(metrics, unavailable)``.
    """
    per_pass, setup_phase, arith_ms = [], [], []
    seen = set()
    for child in traced_children:
        spans = child["spans"]
        m, s, _ = pass_metrics(spans, -1)
        setup_phase.append(m)
        seen |= s & set(_SETUP_PHASE)
        for index, rows in enumerate(child["rows"][1:], start=1):
            m, s, ms = pass_metrics(spans, index)
            m["cli.emit_rows"] = rows
            m["oracle.checks"] = child["checks"][index]
            if rows:
                s.add("cli.emit")
            if child["checks"][index]:
                s.add("oracle.checks")
            seen |= s - set(_SETUP_PHASE)
            per_pass.append(m)
            arith_ms.extend(ms)

    metrics = {}
    for name in EVIDENCE:
        if name.startswith("setup."):
            values = [c["imports"].get(name) for c in traced_children]
            values = [v for v in values if v is not None]
            metrics[name] = statistics.median(values) if values else None
        elif name.startswith(_SETUP_PHASE):
            metrics[name] = statistics.median(m[name] for m in setup_phase)
        elif name == "multivariate.arith_ms_p50":
            metrics[name] = statistics.median(arith_ms) if arith_ms else None
        elif name == "multivariate.arith_ms_p90":
            metrics[name] = (statistics.quantiles(arith_ms, n=10, method="inclusive")[8]
                             if len(arith_ms) > 1 else None)
        elif name == "trace.overhead_frac":
            traced_warm = [t for c in traced_children for t in c["warm_scaled"]]
            metrics[name] = (statistics.median(traced_warm)
                             / statistics.median(untraced_warm) - 1.0)
        else:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    unavailable = sorted(
        name for name, evidence in EVIDENCE.items()
        if metrics[name] is None or (evidence is not None and evidence not in seen))
    return metrics, unavailable
