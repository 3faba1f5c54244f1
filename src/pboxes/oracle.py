"""Independent brute-force verification of the closed-form machinery.

Everything here recomputes inferences at small finite scale without touching
the formula modules: expectations come from exact optimisation over the
credal polytope ``{p >= 0, sum p = 1, lower_cum <= cumsum(p) <= upper_cum}``,
and the structural checkers (complete monotonicity, additivity on components)
test their defining conditions directly, with no tolerance.
Complete monotonicity of every order is read off the Möbius transform of
the exact table: a lower probability is a belief function exactly when no
Möbius mass is negative (Shafer 1976; Chateauneuf & Jaffray 1989).  It is
the one check of that property here; the enumeration of inclusion-exclusion
families, which names the family that fails, is kept as a test reference.
The same exact table of every subset is the reference for the library's
interval-sum formula, which is compared with it subset by subset.

The polytope is optimised exactly by sweeping every candidate vertex: the
chain constraints are totally unimodular, so each vertex of the
cumulative-chain polytope takes its coordinates from the finite grid of
cumulative bounds, and a monotone dynamic sweep over that grid visits every
vertex in ``O(n * grid)`` steps, for any number of classes.  The sweep runs
on Python integers: the bounds are scaled once per instance to a common
denominator, on which the instance also validates them, each gamble value
enters as its exact integer ratio and is scaled to the common denominator
of the gamble, and the minimum is divided by both once at the end, so the
result is the same exact rational.  A step between two classes of equal
gamble value costs nothing and changes no prefix minimum of the sweep, so
it is skipped: an event is swept only across the ends of its runs.  No
external solver is used.  An instance keeps the integer lower probability
of every event it has been swept for, so each event is swept once however
many checks read it.

The module is plain Python and imports no numpy, whose kernels would add to
the memory of every run of the oracle for arrays of a few classes.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from .errors import ValidationError

__all__ = [
    "FiniteCredalInstance",
    "MobiusReport",
    "AdditivityReport",
    "lp_lower_expectation",
    "lp_event_ratio",
    "natural_extension_numerators",
    "mobius_check",
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
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = tuple(_fraction(v) for v in self.lower_cum)
        hi = tuple(_fraction(v) for v in self.upper_cum)
        object.__setattr__(self, "lower_cum", lo)
        object.__setattr__(self, "upper_cum", hi)
        n = len(lo)
        object.__setattr__(self, "n", n)
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


def _chain_sweep(instance: FiniteCredalInstance, g: Sequence[int]) -> int:
    """Exact minimum of the expectation over the credal polytope, times ``D``.

    Rewrites ``sum p_i g_i`` as ``g_{n-1} + sum_i (g_i - g_{i+1}) s_i`` in the
    cumulative coordinates ``s`` and sweeps all monotone assignments of the
    candidate vertex values (the cumulative bounds themselves).  Every
    polytope vertex appears in the sweep and every swept point is feasible,
    so the sweep minimum is the exact linear-programming minimum.

    The gamble comes as integers, one per class, and the sweep runs on
    integers, with ``s`` over the instance's common denominator ``D``: the
    minimum is returned as its numerator over ``D``.  A step of zero cost
    leaves every prefix minimum as it is, because the windows only move
    right, so only the steps where the gamble changes are swept: at most
    two per run of an event.
    """
    scale, grid, windows = instance._integer_chain
    # prefix[j - a]: least partial cost with the current s at or below grid[j],
    # a <= j <= b, for the last step of nonzero cost; none yet costs 0 everywhere
    prefix = None
    for i in range(len(g) - 1):
        cost = g[i] - g[i + 1]
        if not cost:
            continue
        na, nb = windows[i]
        if prefix is None:
            best = [cost * v for v in grid[na:nb + 1]]
        else:
            # windows only move right, so every j >= na has a predecessor k <= min(j, b)
            best = [prefix[min(j, b) - a] + cost * grid[j] for j in range(na, nb + 1)]
        prefix = list(accumulate(best, min))
        a, b = na, nb
    return g[-1] * scale + (0 if prefix is None else prefix[-1])


def lp_lower_expectation(instance: FiniteCredalInstance, gamble: Sequence) -> float:
    """Exact minimum expectation of a gamble over the credal polytope.

    Computed by the integer vertex sweep, exact for any number of classes,
    and rounded to a float once at the end: integer true division rounds
    correctly, so the float is that of the exact rational.
    """
    if len(gamble) != instance.n:
        raise ValidationError("gamble length must match the number of classes")
    pairs = [_ratio(g) for g in gamble]
    # each value scaled to the gamble's common denominator e
    e = lcm(*(d for _, d in pairs))
    numerator = _chain_sweep(instance, [p * (e // d) for p, d in pairs])
    return numerator / (instance._integer_chain[0] * e)


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
            instance, [mask >> i & 1 for i in range(instance.n)])
    return numerator, instance._integer_chain[0]


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


def natural_extension_numerators(instance: FiniteCredalInstance) -> tuple:
    """Exact lower probability of every subset, by bitmask, over a common denominator.

    Returns ``(numerators, D)`` with ``D`` the instance's common denominator
    (1 for a single class), each subset read through :func:`lp_event_ratio`,
    so a subset the instance has already swept is not swept again.
    """
    numerators = [lp_event_ratio(instance, mask)[0] for mask in range(1 << instance.n)]
    return numerators, instance._integer_chain[0]


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


@dataclass(frozen=True)
class AdditivityViolation:
    event: frozenset
    whole: Fraction
    component_sum: Fraction


@dataclass(frozen=True)
class AdditivityReport:
    passed: bool
    trials: int
    violations: tuple = ()


def additivity_check(instance: FiniteCredalInstance, trials: int,
                     seed: int = 0) -> AdditivityReport:
    """Check additivity over runs of consecutive classes on random subsets.

    Both sides of each identity come from the exact LP, each event read
    through :func:`lp_event_ratio`: the numerator of the whole subset must
    equal the sum of the numerators of its maximal consecutive runs, with no
    tolerance.  A negative ``trials`` is a validation error; zero trials
    pass vacuously.
    """
    if trials < 0:
        raise ValidationError(f"trials must be at least 0, got {trials}")
    n = instance.n
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        members = [i for i in range(n) if rng.random() < 0.5]
        if not members:
            continue
        whole, scale = lp_event_ratio(instance, sum(1 << i for i in members))
        runs = []
        for i in members:
            if runs and i == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((i, i))
        parts = sum(lp_event_ratio(instance, (2 << b) - (1 << a))[0] for a, b in runs)
        if whole != parts:
            violations.append(AdditivityViolation(
                frozenset(members), Fraction(whole, scale), Fraction(parts, scale)))
    return AdditivityReport(not violations, trials, tuple(violations))
