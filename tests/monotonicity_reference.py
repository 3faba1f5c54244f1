"""Reference complete-monotonicity enumerator for the oracle tests.

A plain recursive enumeration that lists every family's inclusion-exclusion
terms in full.  The oracle checks complete monotonicity by Möbius masses
alone; the enumeration is what names the failing family of events, and the
tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from lower_probability_reference import FiniteLowerProbability

from pboxes.errors import ValidationError


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


def from_sets(n: int, assignments: Mapping) -> FiniteLowerProbability:
    """The table of ``n`` classes with ``assignments[members]`` as the lower
    probability of each event, keyed by an iterable of its members."""
    values = {}
    for key, v in assignments.items():
        mask = 0
        for i in key:
            mask |= 1 << i
        values[mask] = float(v)
    return FiniteLowerProbability(n, values)


def monotonicity_reference(lp: FiniteLowerProbability, p_max: int, tol: float = 1e-12,
                           max_violations: int | None = 1) -> MonotonicityReport:
    """Every family of 2 to ``p_max`` distinct nonempty proper subsets of every
    event, depth first, each family's inclusion-exclusion terms listed in full.

    Restricting the family to distinct proper subsets of the event is exact:
    repeats and parts not below it reduce to smaller families.  Returns the
    violations (sums below ``-tol``) in enumeration order, at most
    ``max_violations`` of them (``None`` collects every violation)."""
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
        if descend(a_mask, candidates, 0, [(a_mask, 1)], lp.values[a_mask], []):
            break
    return MonotonicityReport(not violations, checked, tuple(violations))
