"""Independent brute-force verification of the closed-form machinery.

Everything here recomputes inferences at small finite scale without touching
the formula modules: expectations come from exact optimisation over the
credal polytope ``{p >= 0, sum p = 1, lower_cum <= cumsum(p) <= upper_cum}``,
and the structural checkers (complete monotonicity, additivity on components,
p-box representability) enumerate their defining conditions directly.

The polytope is optimised exactly by sweeping every candidate vertex: the
chain constraints are totally unimodular, so each vertex of the
cumulative-chain polytope takes its coordinates from the finite grid of
cumulative bounds, and a monotone dynamic sweep over that grid visits every
vertex in ``O(n * grid)`` steps, for any number of classes.  The sweep runs
on Python integers: the bounds are scaled once per instance to a common
denominator, each gamble to the common denominator of its own values, and
the minimum is divided by both once at the end, so the result is the same
exact rational.  No external solver is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "FiniteCredalInstance",
    "FiniteLowerProbability",
    "MonotonicityReport",
    "RepresentabilityReport",
    "AdditivityReport",
    "lp_lower_expectation",
    "envelope_sample_bound",
    "natural_extension_table",
    "complete_monotonicity_check",
    "pbox_representability_check",
    "additivity_check",
    "random_credal_instance",
]

def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class FiniteCredalInstance:
    """Cumulative probability bounds over n ordered classes, held exactly."""

    lower_cum: tuple
    upper_cum: tuple

    def __post_init__(self):
        lo = tuple(_fraction(v) for v in self.lower_cum)
        hi = tuple(_fraction(v) for v in self.upper_cum)
        object.__setattr__(self, "lower_cum", lo)
        object.__setattr__(self, "upper_cum", hi)
        n = len(lo)
        if n == 0 or len(hi) != n:
            raise ValidationError("cumulative bound vectors must share a positive length")
        for vec, name in ((lo, "lower"), (hi, "upper")):
            if any(v < 0 or v > 1 for v in vec):
                raise ValidationError(f"{name} cumulative bounds must lie in [0, 1]")
            if any(b < a for a, b in zip(vec, vec[1:])):
                raise ValidationError(f"{name} cumulative bounds must be non-decreasing")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValidationError("lower cumulative bounds exceed upper ones")
        if lo[-1] != 1 or hi[-1] != 1:
            raise ValidationError("cumulative bounds must reach 1 at the top class")

    @property
    def n(self) -> int:
        return len(self.lower_cum)

    @cached_property
    def _integer_chain(self) -> tuple:
        """The bounds over their common denominator ``D``, as the sweep uses them.

        Returns ``(D, grid, windows)``: the sorted distinct scaled bounds and,
        per class, the index range ``(a, b)`` of ``grid`` between its scaled
        lower and upper bound.
        """
        scale = lcm(*(v.denominator for v in self.lower_cum + self.upper_cum))
        lo = [v.numerator * (scale // v.denominator) for v in self.lower_cum]
        hi = [v.numerator * (scale // v.denominator) for v in self.upper_cum]
        grid = sorted(set(lo) | set(hi))
        index = {v: j for j, v in enumerate(grid)}
        return scale, grid, tuple((index[a], index[b]) for a, b in zip(lo, hi))


def _chain_vertex_min(instance: FiniteCredalInstance, gamble: Sequence[Fraction]) -> Fraction:
    """Exact minimum of the expectation over the credal polytope.

    Rewrites ``sum p_i g_i`` as ``g_{n-1} + sum_i (g_i - g_{i+1}) s_i`` in the
    cumulative coordinates ``s`` and sweeps all monotone assignments of the
    candidate vertex values (the cumulative bounds themselves).  Every
    polytope vertex appears in the sweep and every swept point is feasible,
    so the sweep minimum is the exact linear-programming minimum.

    The sweep runs on integers: ``s`` over the instance's common denominator
    ``D`` and the costs over the gamble's common denominator ``E``, so the
    value is an integer multiple of ``1 / (D * E)``, divided out once.
    """
    n = instance.n
    if n == 1:
        return gamble[0]
    scale, grid, windows = instance._integer_chain
    e = lcm(*(v.denominator for v in gamble))
    g = [v.numerator * (e // v.denominator) for v in gamble]
    # best[j - a]: least partial cost with the current s at grid[j], a <= j <= b
    a, b = windows[0]
    cost = g[0] - g[1]
    best = [cost * v for v in grid[a:b + 1]]
    for i in range(1, n - 1):
        prefix = list(accumulate(best, min))
        na, nb = windows[i]
        cost = g[i] - g[i + 1]
        # windows only move right, so every j >= na has a predecessor k <= min(j, b)
        best = [prefix[min(j, b) - a] + cost * grid[j] for j in range(na, nb + 1)]
        a, b = na, nb
    if not best:
        raise ValidationError("internal consistency error: empty credal polytope")
    return Fraction(g[n - 1] * scale + min(best), scale * e)


def lp_lower_expectation(instance: FiniteCredalInstance, gamble: Sequence) -> float:
    """Exact minimum expectation of a gamble over the credal polytope.

    Computed by the integer vertex sweep, exact for any number of classes,
    and rounded to a float once at the end.
    """
    if len(gamble) != instance.n:
        raise ValidationError("gamble length must match the number of classes")
    return float(_chain_vertex_min(instance, [_fraction(g) for g in gamble]))


def envelope_sample_bound(instance: FiniteCredalInstance, gamble: Sequence,
                          samples: int, seed: int = 0) -> float:
    """Upper bound on the minimum expectation from sampled feasible CDFs.

    Draws uniform cumulative candidates, sorts them, and clamps left to
    right into the cumulative bands, preserving monotonicity.  The minimum
    sampled expectation dominates the exact value; it is reproducible for a
    fixed seed and never used for equality claims.
    """
    if samples < 1:
        raise ValidationError("at least one sample is required")
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


def random_credal_instance(rng: random.Random, n: int,
                           denominator: int = 1000) -> FiniteCredalInstance:
    """A random valid instance with bounds on a rational lattice.

    Drawing both cumulative vectors as sorted uniforms and taking their
    pointwise minimum and maximum keeps each vector sorted; snapping to
    multiples of ``1/denominator`` keeps the exact arithmetic cheap and
    makes ties (active constraints) common, which is what the vertex sweep
    needs exercised.
    """
    if n < 1:
        raise ValidationError("instances need at least one class")
    a = sorted(Fraction(rng.randrange(denominator + 1), denominator)
               for _ in range(n - 1))
    b = sorted(Fraction(rng.randrange(denominator + 1), denominator)
               for _ in range(n - 1))
    lower = tuple(min(x, y) for x, y in zip(a, b)) + (Fraction(1),)
    upper = tuple(max(x, y) for x, y in zip(a, b)) + (Fraction(1),)
    return FiniteCredalInstance(lower, upper)


@dataclass(frozen=True)
class FiniteLowerProbability:
    """A lower probability on all subsets of ``{0, ..., n-1}``, keyed by bitmask."""

    n: int
    values: Mapping

    def __post_init__(self):
        if not 1 <= self.n <= 16:
            raise ValidationError("subset tables support 1 to 16 classes")
        full = (1 << self.n) - 1
        vals = dict(self.values)
        if set(vals) != set(range(full + 1)):
            raise ValidationError("a value is required for every subset bitmask")
        object.__setattr__(self, "values", vals)
        if abs(vals[0]) > 1e-12 or abs(vals[full] - 1.0) > 1e-12:
            raise ValidationError("the empty set maps to 0 and the full set to 1")
        for mask in range(full + 1):
            for bit in range(self.n):
                ext = mask | (1 << bit)
                if ext != mask and vals[mask] > vals[ext] + 1e-12:
                    raise ValidationError("lower probability must be monotone under inclusion")

    @classmethod
    def from_sets(cls, n: int, assignments: Mapping) -> "FiniteLowerProbability":
        vals = {}
        for key, v in assignments.items():
            mask = 0
            for i in key:
                mask |= 1 << i
            vals[mask] = float(v)
        return cls(n, vals)

    def __getitem__(self, mask: int) -> float:
        return self.values[mask]

    def event(self, mask: int) -> frozenset:
        return frozenset(i for i in range(self.n) if mask & (1 << i))


def natural_extension_table(instance: FiniteCredalInstance) -> FiniteLowerProbability:
    """Lower probability of every subset, each computed by the exact LP."""
    n = instance.n
    table = {}
    for mask in range(1 << n):
        gamble = [1 if mask & (1 << i) else 0 for i in range(n)]
        table[mask] = lp_lower_expectation(instance, gamble)
    return FiniteLowerProbability(n, table)


@dataclass(frozen=True)
class MonotonicityViolation:
    order: int
    event: frozenset
    parts: tuple
    defect: float


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    checked: int
    violations: tuple = ()


def complete_monotonicity_check(lp: FiniteLowerProbability, p_max: int,
                                tol: float = 1e-12,
                                max_violations: int = 1) -> MonotonicityReport:
    """Verify p-monotonicity for all orders up to ``p_max`` by enumeration.

    For every event A and every family of 2 to ``p_max`` distinct nonempty
    proper subsets of A, the signed inclusion-exclusion sum of the lower
    probability over all intersections must be non-negative (within ``tol``).
    Restricting the family to distinct proper subsets of A is exact: repeats
    and parts not below A reduce to smaller families.

    Returns the violations in deterministic enumeration order, at most
    ``max_violations`` of them (pass ``None`` to collect every violation).
    """
    if p_max < 2:
        raise ValidationError("p_max must be at least 2")
    if lp.n > 5 or p_max > 4:
        raise ValidationError("enumeration limited to 5 classes and order 4")
    limit = max_violations if max_violations is not None else -1
    violations = []
    checked = 0

    def descend(a_mask, candidates, start, terms, total, chosen):
        nonlocal checked
        for idx in range(start, len(candidates)):
            part = candidates[idx]
            new_terms = [(m & part, -s) for (m, s) in terms]
            new_total = total + sum(s * lp.values[m] for (m, s) in new_terms)
            all_terms = terms + new_terms
            depth = len(chosen) + 1
            if depth >= 2:
                checked += 1
                if new_total < -tol:
                    violations.append(MonotonicityViolation(
                        order=depth, event=lp.event(a_mask),
                        parts=tuple(lp.event(p) for p in chosen + [part]),
                        defect=new_total))
                    if limit >= 0 and len(violations) >= limit:
                        return True
            if depth < p_max:
                if descend(a_mask, candidates, idx + 1, all_terms, new_total,
                           chosen + [part]):
                    return True
        return False

    full = (1 << lp.n) - 1
    for a_mask in range(1, full + 1):
        candidates = [m for m in range(1, a_mask) if (m & a_mask) == m]
        stop = descend(a_mask, candidates, 0, [(a_mask, 1)], lp.values[a_mask], [])
        if stop:
            break
    return MonotonicityReport(not violations, checked, tuple(violations))


def _formula_value(instance: FiniteCredalInstance, positions: Sequence[int]) -> float:
    """Interval-sum value of a subset given by its sorted rank positions."""
    lo = [float(v) for v in instance.lower_cum]
    hi = [float(v) for v in instance.upper_cum]
    total = 0.0
    i = 0
    positions = sorted(positions)
    while i < len(positions):
        j = i
        while j + 1 < len(positions) and positions[j + 1] == positions[j] + 1:
            j += 1
        a, b = positions[i], positions[j]
        below = hi[a - 1] if a > 0 else 0.0
        total += max(0.0, lo[b] - below)
        i = j + 1
    return min(total, 1.0)


@dataclass(frozen=True)
class RepresentabilityMismatch:
    event: frozenset
    formula_value: float
    stored_value: float


@dataclass(frozen=True)
class RepresentabilityReport:
    matches: bool
    mismatches: tuple
    instance: FiniteCredalInstance


def pbox_representability_check(lp: FiniteLowerProbability,
                                ordering: Sequence[int] | None = None,
                                tol: float = 1e-9) -> RepresentabilityReport:
    """Test whether a lower probability is exactly a p-box extension.

    Derives the tightest cumulative bounds under the given total order
    (prefix values and one minus suffix values), recomputes every subset
    through the interval-sum formula, and reports each subset where the
    stored value differs.  An empty report means the lower probability is
    exactly the extension of the derived p-box.
    """
    n = lp.n
    order = list(ordering) if ordering is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValidationError("ordering must be a permutation of the class indices")
    prefix_masks = []
    mask = 0
    for cls in order:
        mask |= 1 << cls
        prefix_masks.append(mask)
    full = (1 << n) - 1
    lower_cum = tuple(Fraction(lp.values[m]).limit_denominator(10**12)
                      for m in prefix_masks)
    upper_cum = tuple(Fraction(1) - Fraction(lp.values[full ^ m]).limit_denominator(10**12)
                      for m in prefix_masks)
    instance = FiniteCredalInstance(lower_cum, upper_cum)
    rank_of = {cls: r for r, cls in enumerate(order)}
    mismatches = []
    for m in range(full + 1):
        positions = [rank_of[i] for i in range(n) if m & (1 << i)]
        value = _formula_value(instance, positions)
        if abs(value - lp.values[m]) > tol:
            mismatches.append(RepresentabilityMismatch(lp.event(m), value, lp.values[m]))
    return RepresentabilityReport(not mismatches, tuple(mismatches), instance)


@dataclass(frozen=True)
class AdditivityViolation:
    event: frozenset
    whole: float
    component_sum: float


@dataclass(frozen=True)
class AdditivityReport:
    passed: bool
    trials: int
    violations: tuple = ()


def additivity_check(instance: FiniteCredalInstance, trials: int,
                     seed: int = 0, tol: float = 1e-9) -> AdditivityReport:
    """Check additivity over runs of consecutive classes on random subsets.

    Both sides of each identity come from the exact LP: the value of the
    whole subset must equal the sum of the values of its maximal consecutive
    runs.
    """
    n = instance.n
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        members = [i for i in range(n) if rng.random() < 0.5]
        if not members:
            continue
        whole = lp_lower_expectation(
            instance, [1 if i in members else 0 for i in range(n)])
        runs = []
        for i in members:
            if runs and i == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((i, i))
        parts = 0.0
        for a, b in runs:
            parts += lp_lower_expectation(
                instance, [1 if a <= i <= b else 0 for i in range(n)])
        if abs(whole - parts) > tol:
            violations.append(AdditivityViolation(frozenset(members), whole, parts))
    return AdditivityReport(not violations, trials, tuple(violations))
