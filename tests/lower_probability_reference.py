"""Float subset tables and the p-box representability checker, for the tests.

A ``FiniteLowerProbability`` holds a lower probability of every subset of a
few classes as floats, as the enumeration of ``monotonicity_reference`` and
the coupling joints of the tests read it.  ``natural_extension_table`` rounds
the oracle's exact table of a credal instance into one, and
``pbox_representability_check`` tests whether a table is the natural
extension of the p-box it determines: it recovers the cumulative bounds from
the prefix and suffix values and recomputes every subset by the interval-sum
formula.  The campaign of ``verify`` compares the library's formula with the
exact table directly, which needs neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from pboxes.errors import ValidationError
from pboxes.oracle import FiniteCredalInstance, natural_extension_numerators


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


def natural_extension_table(instance: FiniteCredalInstance) -> FiniteLowerProbability:
    """Lower probability of every subset, each computed by the exact LP and
    bitwise equal to ``lp_lower_expectation`` of its indicator."""
    return FiniteLowerProbability.from_numerators(*natural_extension_numerators(instance))


def _formula_value(lo: Sequence[float], hi: Sequence[float],
                   positions: Sequence[int]) -> float:
    """Interval-sum value of a subset given by its sorted class positions, on
    the float cumulative bounds ``lo`` and ``hi``."""
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
    lo, hi = [float(v) for v in lower_cum], [float(v) for v in upper_cum]
    mismatches = []
    for m in range(full + 1):
        value = _formula_value(lo, hi, [i for i in range(n) if m & (1 << i)])
        if abs(value - lp.values[m]) > tol:
            mismatches.append(RepresentabilityMismatch(lp.event(m), value, lp.values[m]))
    return RepresentabilityReport(not mismatches, tuple(mismatches), instance)


