"""Independent brute-force verification of the closed-form machinery.

Everything here recomputes inferences at small finite scale without touching
the formula modules: expectations come from exact optimisation over the
credal polytope ``{p >= 0, sum p = 1, lower_cum <= cumsum(p) <= upper_cum}``,
and the structural checkers (complete monotonicity, additivity on components,
p-box representability) test their defining conditions directly.
Complete monotonicity of every order is read off the Möbius transform of
the exact table: a lower probability is a belief function exactly when no
Möbius mass is negative (Shafer 1976; Chateauneuf & Jaffray 1989).  It is
the one check of that property here; the enumeration of inclusion-exclusion
families, which names the family that fails, is kept as a test reference.

The polytope is optimised exactly by sweeping every candidate vertex: the
chain constraints are totally unimodular, so each vertex of the
cumulative-chain polytope takes its coordinates from the finite grid of
cumulative bounds, and a monotone dynamic sweep over that grid visits every
vertex in ``O(n * grid)`` steps, for any number of classes.  The sweep runs
on Python integers: the bounds are scaled once per instance to a common
denominator, on which the instance also validates them, each gamble value
enters as its exact integer ratio and is scaled to the common denominator
of the gamble, and the minimum is divided by both once at the end, so the
result is the same exact rational.  No external solver is used.  An
instance keeps the integer lower probability of every event it has been
swept for, so each event is swept once however many checks read it.

The envelope sampler clamps each sorted uniform draw into its class's
cumulative band on its own.  The draws and both bands never decrease and
the clamp never decreases in any argument, so the clamped values already
form a monotone CDF; carrying the previous value forward changes nothing.
It draws the CDFs once per call and evaluates every gamble on them.

The module is plain Python and imports no numpy, whose kernels would add to
the memory of every run of the oracle for arrays of a few classes.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "FiniteCredalInstance",
    "FiniteLowerProbability",
    "MobiusReport",
    "RepresentabilityReport",
    "AdditivityReport",
    "lp_lower_expectation",
    "lp_event_ratio",
    "envelope_sample_bound",
    "natural_extension_numerators",
    "natural_extension_table",
    "mobius_check",
    "pbox_representability_check",
    "additivity_check",
    "random_credal_instance",
]

# the least magnitude that rounds to infinity as a float: a gamble bounded by
# less has an expectation that rounds to a finite float
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _fraction(x) -> Fraction:
    """``x`` held exactly, by the library's rule for input numbers, restated
    so that the oracle imports nothing it checks: a TypeError unless it is a
    number (a string, bool or ``None`` is not), a ValidationError unless finite."""
    if isinstance(x, Fraction):
        return x
    # plain ints and floats skip the slower check of the abstract number type
    if type(x) not in (int, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    if not isinstance(x, int) and not math.isfinite(x):
        raise ValidationError(f"expected a finite number, got {x}")
    return Fraction(x)


@dataclass(frozen=True)
class FiniteCredalInstance:
    """Cumulative probability bounds over n ordered classes, held exactly.

    The bounds are validated as integers over their common denominator ``D``,
    the chain the sweep runs on.  The instance also keeps the exact lower
    probability of every event that :func:`lp_event_ratio` has swept, so
    each event is swept once.
    """

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
        scale = lcm(*(v.denominator for v in lo + hi))
        lo = [v.numerator * (scale // v.denominator) for v in lo]
        hi = [v.numerator * (scale // v.denominator) for v in hi]
        for vec, name in ((lo, "lower"), (hi, "upper")):
            if any(v < 0 or v > scale for v in vec):
                raise ValidationError(f"{name} cumulative bounds must lie in [0, 1]")
            if any(b < a for a, b in zip(vec, vec[1:])):
                raise ValidationError(f"{name} cumulative bounds must be non-decreasing")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValidationError("lower cumulative bounds exceed upper ones")
        if lo[-1] != scale or hi[-1] != scale:
            raise ValidationError("cumulative bounds must reach 1 at the top class")
        # (D, grid, windows): the sorted distinct scaled bounds and, per class,
        # the index range (a, b) of grid between its scaled lower and upper bound
        grid = sorted(set(lo) | set(hi))
        index = {v: j for j, v in enumerate(grid)}
        object.__setattr__(self, "_integer_chain",
                           (scale, grid, tuple((index[a], index[b]) for a, b in zip(lo, hi))))
        # event bitmask -> numerator of its exact lower probability over D
        object.__setattr__(self, "_events", {})

    @property
    def n(self) -> int:
        return len(self.lower_cum)


def _ratio(x) -> tuple:
    """``x`` as an exact ``(numerator, denominator)`` pair, checked as by
    :func:`_fraction`; a ValidationError if it is too large for a float."""
    if type(x) is int:
        if abs(x) < _FLOAT_LIMIT:
            return x, 1
    elif type(x) is float:
        if not math.isfinite(x):
            raise ValidationError(f"expected a finite number, got {x}")
        return x.as_integer_ratio()
    else:
        x = _fraction(x)
        if abs(x) < _FLOAT_LIMIT:
            return x.as_integer_ratio()
    raise ValidationError("expected a finite number, got one too large for a float")


def _chain_sweep(instance: FiniteCredalInstance, gamble: Sequence[tuple]) -> tuple:
    """Exact minimum of the expectation over the credal polytope.

    Rewrites ``sum p_i g_i`` as ``g_{n-1} + sum_i (g_i - g_{i+1}) s_i`` in the
    cumulative coordinates ``s`` and sweeps all monotone assignments of the
    candidate vertex values (the cumulative bounds themselves).  Every
    polytope vertex appears in the sweep and every swept point is feasible,
    so the sweep minimum is the exact linear-programming minimum.

    The gamble values come as ``(numerator, denominator)`` pairs.  The sweep
    runs on integers: ``s`` over the instance's common denominator ``D`` and
    the costs over the gamble's common denominator ``E``, so the minimum is
    returned as the pair ``(numerator, D * E)``.
    """
    n = instance.n
    if n == 1:
        return gamble[0]
    scale, grid, windows = instance._integer_chain
    e = lcm(*(d for _, d in gamble))
    g = [p * (e // d) for p, d in gamble]
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
    return g[n - 1] * scale + min(best), scale * e


def lp_lower_expectation(instance: FiniteCredalInstance, gamble: Sequence) -> float:
    """Exact minimum expectation of a gamble over the credal polytope.

    Computed by the integer vertex sweep, exact for any number of classes,
    and rounded to a float once at the end: integer true division rounds
    correctly, so the float is that of the exact rational.
    """
    num, den = _chain_sweep(instance, _gamble(instance, gamble))
    return num / den


def _gamble(instance: FiniteCredalInstance, gamble: Sequence) -> list:
    """The gamble as one exact ``(numerator, denominator)`` pair per class of the
    instance, each value checked by :func:`_ratio`."""
    if len(gamble) != instance.n:
        raise ValidationError("gamble length must match the number of classes")
    return [_ratio(g) for g in gamble]


def lp_event_ratio(instance: FiniteCredalInstance, mask: int) -> tuple:
    """Exact lower probability of the event ``mask`` (bit ``i`` for class ``i``).

    Returns ``(numerator, D)`` with ``D`` the instance's common denominator,
    so ``numerator / D`` is :func:`lp_lower_expectation` of the event's
    indicator, bit for bit: an indicator has integer values, so its sweep
    returns its minimum over ``D`` itself.  Each event is swept once per
    instance; later reads return the kept numerator.  A mask that is not an
    int in ``[0, 2**n)`` is a validation error.
    """
    if type(mask) is not int or not 0 <= mask < 1 << instance.n:
        raise ValidationError(f"expected an event bitmask of {instance.n} classes, "
                              f"got {mask!r}")
    events = instance._events
    numerator = events.get(mask)
    if numerator is None:
        numerator = events[mask] = _chain_sweep(
            instance, [(mask >> i & 1, 1) for i in range(instance.n)])[0]
    return numerator, instance._integer_chain[0]


def envelope_sample_bound(instance: FiniteCredalInstance, gambles: Sequence[Sequence],
                          samples: int, seed: int = 0) -> list:
    """Upper bounds on the minimum expectations of gambles from sampled feasible CDFs.

    Draws ``n`` uniform cumulative candidates per sample, sorts them, and
    clamps each into its band, ``s_i = min(max(d_i, lo_i), hi_i)``, which is
    monotone in ``i`` (see the module docstring).  The samples are drawn once
    and shared by every gamble, whose expectation under a sample is
    ``g_{n-1} + sum_{i<n-1} (g_i - g_{i+1}) s_i``.  Returns one bound per
    gamble, its least sampled expectation, which dominates the exact value;
    each is reproducible for a fixed seed, equal to the bound of that gamble
    alone, and never used for equality claims.
    """
    if type(samples) is not int:
        raise ValidationError(f"the number of samples must be an int, got {samples!r}")
    if samples < 1:
        raise ValidationError("at least one sample is required")
    n = instance.n
    gambles = [[num / den for num, den in _gamble(instance, gamble)] for gamble in gambles]
    scale, grid, windows = instance._integer_chain
    # (lower bound, upper bound) of every class below the top
    bands = [(grid[a] / scale, grid[b] / scale) for a, b in windows[:n - 1]]
    draw = random.Random(seed).random
    sorted_draws = [sorted([draw() for _ in range(n)]) for _ in range(samples)]
    # per class below the top, its clamped value in every sample
    columns = [[lo if d < lo else hi if d > hi else d for d in draws]
               for draws, (lo, hi) in zip(zip(*sorted_draws), bands)]
    bounds = []
    for g in gambles:
        expectations = [g[n - 1]] * samples
        for step, column in zip([a - b for a, b in zip(g, g[1:])], columns):
            expectations = [e + step * s for e, s in zip(expectations, column)]
        bounds.append(min(expectations))
    return bounds


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
    if denominator < 1:
        raise ValidationError(f"the lattice denominator must be at least 1, got {denominator}")
    a = sorted([rng.randrange(denominator + 1) for _ in range(n - 1)])
    b = sorted([rng.randrange(denominator + 1) for _ in range(n - 1)])
    top = Fraction(1)
    lower = tuple(Fraction(min(x, y), denominator) for x, y in zip(a, b)) + (top,)
    upper = tuple(Fraction(max(x, y), denominator) for x, y in zip(a, b)) + (top,)
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
    def from_numerators(cls, numerators: Sequence[int], scale: int) -> "FiniteLowerProbability":
        """The table of ``numerators[mask] / scale`` over ``len(numerators) == 2**n``
        subsets; integer true division rounds each value correctly."""
        n = len(numerators).bit_length() - 1
        return cls(n, {mask: num / scale for mask, num in enumerate(numerators)})

    def __getitem__(self, mask: int) -> float:
        return self.values[mask]

    def event(self, mask: int) -> frozenset:
        return frozenset(i for i in range(self.n) if mask & (1 << i))


def natural_extension_numerators(instance: FiniteCredalInstance) -> tuple:
    """Exact lower probability of every subset, by bitmask, over a common denominator.

    Returns ``(numerators, D)`` with ``D`` the instance's common denominator
    (1 for a single class), each subset read through :func:`lp_event_ratio`,
    so a subset the instance has already swept is not swept again.
    """
    numerators = [lp_event_ratio(instance, mask)[0] for mask in range(1 << instance.n)]
    return numerators, instance._integer_chain[0]


def natural_extension_table(instance: FiniteCredalInstance) -> FiniteLowerProbability:
    """Lower probability of every subset, each computed by the exact LP and
    bitwise equal to :func:`lp_lower_expectation` of its indicator."""
    return FiniteLowerProbability.from_numerators(*natural_extension_numerators(instance))


@dataclass(frozen=True)
class NegativeMass:
    event: frozenset
    mass: Fraction


@dataclass(frozen=True)
class MobiusReport:
    passed: bool
    masses: tuple
    violations: tuple = ()


def mobius_check(values: Sequence, scale: int = 1) -> MobiusReport:
    """Complete monotonicity of every order, exactly, from the Möbius transform.

    ``values[mask]`` is the lower probability of the subset ``mask`` of
    ``{0, ..., n-1}`` times ``scale``, held exactly: integers over a common
    denominator, as :func:`natural_extension_numerators` returns them, or
    Fractions.  The fast transform takes ``n * 2**(n-1)`` subtractions and
    gives each subset's Möbius mass times ``scale``, in ``masses``.  The
    lower probability is completely monotone exactly when no mass is
    negative; each negative mass is a violation, with no tolerance.  A
    ``scale`` that is not a positive int is a validation error.
    """
    if type(scale) is not int or scale < 1:
        raise ValidationError(f"the scale must be a positive int, got {scale!r}")
    masses = list(values)
    n = len(masses).bit_length() - 1
    if n < 1 or len(masses) != 1 << n:
        raise ValidationError("Möbius masses need a value for each of 2**n subsets, n >= 1")
    if any(type(v) is not int and not isinstance(v, numbers.Rational) for v in masses):
        raise TypeError("Möbius masses need exact values: integers or Fractions")
    if masses[0] != 0:
        raise ValidationError("the empty set maps to 0")
    for i in range(n):
        bit = 1 << i
        for block in range(0, len(masses), 2 * bit):
            for mask in range(block + bit, block + 2 * bit):
                masses[mask] -= masses[mask - bit]
    violations = tuple(
        NegativeMass(frozenset(i for i in range(n) if mask >> i & 1), Fraction(mass, scale))
        for mask, mass in enumerate(masses) if mass < 0)
    return MobiusReport(not violations, tuple(masses), violations)


def _formula_value(instance: FiniteCredalInstance, positions: Sequence[int]) -> float:
    """Interval-sum value of a subset given by its sorted class positions."""
    lo = [float(v) for v in instance.lower_cum]
    hi = [float(v) for v in instance.upper_cum]
    total = 0.0
    i = 0
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
                                tol: float = 1e-9) -> RepresentabilityReport:
    """Test whether a lower probability is exactly a p-box extension.

    Derives the tightest cumulative bounds under the class order (prefix
    values and one minus suffix values), recomputes every subset through
    the interval-sum formula, and reports each subset where the stored
    value differs.  An empty report means the lower probability is exactly
    the extension of the derived p-box.
    """
    n = lp.n
    full = (1 << n) - 1
    prefix_masks = [(2 << k) - 1 for k in range(n)]
    lower_cum = tuple(Fraction(lp.values[m]).limit_denominator(10**12)
                      for m in prefix_masks)
    upper_cum = tuple(Fraction(1) - Fraction(lp.values[full ^ m]).limit_denominator(10**12)
                      for m in prefix_masks)
    instance = FiniteCredalInstance(lower_cum, upper_cum)
    mismatches = []
    for m in range(full + 1):
        value = _formula_value(instance, [i for i in range(n) if m & (1 << i)])
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

    Both sides of each identity come from the exact LP, each event read
    through :func:`lp_event_ratio`: the value of the whole subset must equal
    the sum of the values of its maximal consecutive runs.  A negative
    ``trials`` is a validation error; zero trials pass vacuously.
    """
    if trials < 0:
        raise ValidationError(f"trials must be at least 0, got {trials}")

    def value(mask: int) -> float:
        numerator, scale = lp_event_ratio(instance, mask)
        return numerator / scale

    n = instance.n
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        members = [i for i in range(n) if rng.random() < 0.5]
        if not members:
            continue
        whole = value(sum(1 << i for i in members))
        runs = []
        for i in members:
            if runs and i == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((i, i))
        parts = 0.0
        for a, b in runs:
            parts += value((2 << b) - (1 << a))
        if abs(whole - parts) > tol:
            violations.append(AdditivityViolation(frozenset(members), whole, parts))
    return AdditivityReport(not violations, trials, tuple(violations))
