"""Reference finite Choquet sum, for the choquet tests.

The lower expectation of a gamble on a finite quotient space, written level
by level: each super-level set becomes a validated ``ClassSubset``, split
into its runs of consecutive classes by
``pboxes.preorder.full_components_finite``, and every CDF value is read
through ``StepCdf.__call__`` and ``StepCdf.left_limit``.
:func:`run_scan_reference` finds the runs of every level in one scan and
``pboxes.pbox._run_sum`` reads the step CDFs' values directly, as
``pboxes.choquet.lower_expectation_finite`` did before it summed the
p-box's random set; the tests compare the two references, and
``lower_prob_event`` with :func:`event_reference`, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from pboxes.pbox import PBox, _run_sum
from pboxes.preorder import ClassSubset, _finite_number, full_components_finite


def event_reference(pbox: PBox, subset: ClassSubset) -> float:
    """``max(0, F_lower(b) - F_upper(a - 1))`` summed over the runs ``(a, b)``
    of ``subset``, in ascending order, and clamped to [0, 1]."""
    total = sum(max(0.0, pbox.lower(b) - pbox.upper.left_limit(a))
                for a, b in full_components_finite(pbox.space, subset))
    return min(max(total, 0.0), 1.0)


def finite_sum_reference(pbox: PBox, gamble: Sequence) -> float:
    """Lowest value plus each increment of the sorted distinct values times the
    lower probability of the classes at or above it."""
    values = [_finite_number(v) for v in gamble]
    distinct = sorted(set(values))
    total = distinct[0]
    for prev, cur in zip(distinct, distinct[1:]):
        level = ClassSubset(frozenset(i for i, v in enumerate(values) if v >= cur))
        total += (cur - prev) * event_reference(pbox, level)
    return total


def run_scan_reference(pbox: PBox, gamble: Sequence) -> float:
    """:func:`finite_sum_reference` with the runs of each level found by one
    scan of the classes and summed by ``pboxes.pbox._run_sum``."""
    values = [_finite_number(v) for v in gamble]
    n = len(values)
    lower, upper = pbox.lower.values, pbox.upper.values
    distinct = sorted(set(values))
    total = distinct[0]
    for prev, cur in zip(distinct, distinct[1:]):
        runs, start = [], None
        for i, v in enumerate(values):
            if v < cur:
                if start is not None:
                    runs.append((start, i - 1))
                    start = None
            elif start is None:
                start = i
        if start is not None:
            runs.append((start, n - 1))
        total += (cur - prev) * _run_sum(lower, upper, runs)
    return total
