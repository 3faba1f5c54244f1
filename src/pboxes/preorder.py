"""Totally preordered spaces represented through their quotient structure.

Two kinds of quotient space are supported: a finite ordered list of
equivalence classes, and the unit interval [0, 1] arising from a surjective
real-valued mapping.  Events are never stored as subsets of the underlying
space; callers work with the image of an event's topological interior, which
is a set of class indices in the finite case and a finite union of
subintervals of [0, 1] in the continuum case.

Every input number of every module passes one of three checks here:
:func:`_finite_number` (:func:`_finite_numbers` for a sequence of them, in
one array pass), :func:`_coordinate` (a point of [0, 1]) and
:func:`_class_index` (-1 may stand for the artificial predecessor of the
smallest class).  Python and numpy numbers and fractions come out as
``float`` or ``int``; a non-number (string, boolean, ``None``, container) is
a ``TypeError``, and a number that is not finite, out of range, or a float
where an index belongs is a :class:`ValidationError`.

All values are immutable and all operations are pure functions, so they are
safe to use concurrently without coordination.  Endpoint comparisons are
exact floating-point comparisons; callers who need fuzzy endpoints must
quantize before building intervals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "FiniteQuotientSpace",
    "UnitInterval",
    "UNIT_INTERVAL",
    "ClassSubset",
    "ZInterval",
    "ZEventSet",
    "EMPTY_EVENT",
    "FULL_EVENT",
    "normalize",
    "complement_z",
    "full_components_finite",
]


def _finite_number(x) -> float:
    """``x`` as a float: a TypeError unless it is a number, a ValidationError unless finite."""
    # plain ints and floats skip the slower check of the abstract number type
    if type(x) not in (int, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    try:
        value = float(x)
    except OverflowError:  # an int or a fraction beyond the float range
        raise ValidationError("expected a finite number, got one too large for a float") from None
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {value}")
    return value


def _finite_numbers(xs) -> np.ndarray:
    """A float array of ``xs``, each entry checked as by :func:`_finite_number`: a float
    array, or a sequence of plain ints and floats, in one array pass, and entry by entry
    only to raise the first entry's error, or for entries of other numeric types."""
    if not (isinstance(xs, np.ndarray) and xs.dtype == float
            or {int, float}.issuperset(map(type, xs))):
        return np.array([_finite_number(x) for x in xs], dtype=float)
    try:
        points = np.asarray(xs, dtype=float)
    except OverflowError:  # an int beyond the float range
        points = None
    if points is None or not np.isfinite(points).all():
        for x in xs:
            _finite_number(x)
    return points


def _coordinate(z) -> float:
    """``z`` as a float in [0, 1], checked by :func:`_finite_number` first."""
    value = _finite_number(z)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"coordinate {value:g} outside [0, 1]")
    return value


def _class_index(i, size, lowest: int = 0) -> int:
    """``i`` as an int with ``lowest <= i < size``; a float is never an index."""
    if type(i) is not int and (isinstance(i, bool) or not isinstance(i, numbers.Integral)):
        _finite_number(i)  # a TypeError for what is not a number at all
    elif lowest <= i < size:
        return int(i)
    raise ValidationError(f"class indices are integers in [{lowest}, {size}), got {i!r}")


@dataclass(frozen=True)
class FiniteQuotientSpace:
    """A finite totally preordered space given by its ordered classes.

    Index 0 is the smallest class and index ``n - 1`` the largest.  Index -1
    conventionally denotes the artificial predecessor of the smallest class,
    which carries cumulative probability 0.
    """

    classes: tuple

    def __post_init__(self):
        if not self.classes:
            raise ValidationError("a quotient space needs at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("class labels must be unique")
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def size(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class UnitInterval:
    """Marker for the connected continuum quotient induced by a mapping onto [0, 1]."""


UNIT_INTERVAL = UnitInterval()


@dataclass(frozen=True)
class ClassSubset:
    """A subset of the classes of a finite quotient space, by index."""

    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # checked before the set is made, where True would merge into 1
        members = frozenset(_class_index(i, math.inf) for i in self.members)
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, *indices: int) -> "ClassSubset":
        return cls(indices)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ZInterval:
    """A subinterval of [0, 1] with explicit endpoint openness.

    Represents ``{z : lo < z < hi}`` with each strict inequality relaxed to
    non-strict when the corresponding endpoint is closed.  ``lo == hi`` with
    any open endpoint is an empty interval; such values may be constructed
    but are dropped by :func:`normalize`.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if not all(isinstance(x, (bool, np.bool_)) for x in (self.lo_open, self.hi_open)):
            raise TypeError("interval openness must be a boolean")
        object.__setattr__(self, "lo", _coordinate(self.lo))
        object.__setattr__(self, "hi", _coordinate(self.hi))
        if self.lo > self.hi:
            raise ValidationError(f"malformed interval: lo {self.lo} > hi {self.hi}")

    @classmethod
    def closed(cls, lo: float, hi: float) -> "ZInterval":
        return cls(lo, hi, False, False)

    @classmethod
    def open(cls, lo: float, hi: float) -> "ZInterval":
        return cls(lo, hi, True, True)

    @classmethod
    def left_open(cls, lo: float, hi: float) -> "ZInterval":
        """The interval (lo, hi]."""
        return cls(lo, hi, True, False)

    @classmethod
    def right_open(cls, lo: float, hi: float) -> "ZInterval":
        """The interval [lo, hi)."""
        return cls(lo, hi, False, True)

    @classmethod
    def point(cls, z: float) -> "ZInterval":
        return cls(z, z, False, False)

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def __contains__(self, z: float) -> bool:
        if z < self.lo or (z == self.lo and self.lo_open):
            return False
        if z > self.hi or (z == self.hi and self.hi_open):
            return False
        return True

    def _start_key(self):
        # closed start precedes open start at the same coordinate
        return (self.lo, self.lo_open)

    def _end_key(self):
        # closed end extends past open end at the same coordinate
        return (self.hi, not self.hi_open)


def _mergeable(a: ZInterval, b: ZInterval) -> bool:
    """Whether a ∪ b is an interval, given a starts no later than b."""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return not (a.hi_open and b.lo_open)
    return False


@dataclass(frozen=True)
class ZEventSet:
    """A normalized finite union of disjoint, non-touching subintervals of [0, 1].

    Each member interval is by construction a maximal full component of the
    set.  Build instances through :func:`normalize` unless the input is
    already known to be normalized.
    """

    intervals: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        prev = None
        for iv in self.intervals:
            if not isinstance(iv, ZInterval):
                raise ValidationError("event sets hold ZInterval members")
            if iv.is_empty:
                raise ValidationError("normalized event sets hold no empty intervals")
            if prev is not None and _mergeable(prev, iv):
                raise ValidationError("intervals must be disjoint and non-touching")
            if prev is not None and iv._start_key() < prev._start_key():
                raise ValidationError("intervals must be sorted by lower endpoint")
            prev = iv

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __contains__(self, z: float) -> bool:
        return any(z in iv for iv in self.intervals)

    def __iter__(self):
        return iter(self.intervals)


EMPTY_EVENT = ZEventSet()
FULL_EVENT = ZEventSet((ZInterval.closed(0.0, 1.0),))


def normalize(intervals: Iterable[ZInterval]) -> ZEventSet:
    """Return the unique normalized form of a union of intervals.

    Empty intervals are dropped; overlapping or touching intervals are
    merged, so that every member of the result is a maximal full component.
    Normalization is idempotent.
    """
    items = sorted((iv for iv in intervals if not iv.is_empty),
                   key=ZInterval._start_key)
    merged: list[ZInterval] = []
    for iv in items:
        if merged and _mergeable(merged[-1], iv):
            cur = merged[-1]
            if iv._end_key() > cur._end_key():
                merged[-1] = ZInterval(cur.lo, iv.hi, cur.lo_open, iv.hi_open)
        else:
            merged.append(iv)
    return ZEventSet(tuple(merged))


def complement_z(event: ZEventSet) -> ZEventSet:
    """Set complement within [0, 1]; endpoint openness flips at every boundary."""
    pieces: list[ZInterval] = []
    cursor, cursor_open = 0.0, False

    def emit(lo, hi, lo_open, hi_open):
        if lo < hi or (lo == hi and not lo_open and not hi_open):
            pieces.append(ZInterval(lo, hi, lo_open, hi_open))

    for iv in event.intervals:
        emit(cursor, iv.lo, cursor_open, not iv.lo_open)
        cursor, cursor_open = iv.hi, not iv.hi_open
    emit(cursor, 1.0, cursor_open, False)
    return ZEventSet(tuple(pieces))


def full_components_finite(space: FiniteQuotientSpace, subset: ClassSubset) -> tuple:
    """Decompose a class subset into maximal runs of consecutive indices.

    Returns index ranges ``(a, b)`` (both inclusive) that are disjoint,
    sorted, and cover the subset exactly.
    """
    indices = sorted(subset.members)
    if indices:
        # the members are non-negative integers already
        _class_index(indices[-1], space.size)
    runs: list[tuple[int, int]] = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return tuple(runs)
