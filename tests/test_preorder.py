import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pboxes.errors import ValidationError
from pboxes.preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    ClassSubset,
    FiniteQuotientSpace,
    ZEventSet,
    ZInterval,
    _class_index,
    _coordinate,
    _finite_number,
    complement_z,
    full_components_finite,
    normalize,
)

# endpoints on a coarse lattice so touching and overlapping cases are common
_coords = st.integers(0, 24).map(lambda k: k / 24)


@st.composite
def intervals(draw):
    a = draw(_coords)
    b = draw(_coords)
    lo, hi = min(a, b), max(a, b)
    lo_open = draw(st.booleans())
    hi_open = draw(st.booleans())
    return ZInterval(lo, hi, lo_open, hi_open)


interval_lists = st.lists(intervals(), max_size=8)


def grid_membership(event, step=1000):
    # probe strictly between lattice points so endpoint openness cannot bite
    return [((2 * k + 1) / (2 * step)) in event for k in range(step)]


class TestNormalize:
    def test_touching_half_open_intervals_merge(self):
        out = normalize([ZInterval.left_open(0.0, 0.5), ZInterval.left_open(0.5, 0.7)])
        assert out.intervals == (ZInterval.left_open(0.0, 0.7),)

    def test_empty_input(self):
        assert normalize([]) == EMPTY_EVENT

    def test_overlapping_closed_intervals_merge(self):
        raw = [ZInterval.closed(0.2, 0.4), ZInterval.right_open(0.3, 0.9)]
        out = normalize(raw)
        assert out.intervals == (ZInterval.right_open(0.2, 0.9),)
        # membership agrees with the raw union on a fine grid
        raw_set = ZEventSet.__new__(ZEventSet)
        for k in range(1001):
            z = k / 1000
            assert (z in out) == any(z in iv for iv in raw)

    def test_open_adjacency_does_not_merge(self):
        out = normalize([ZInterval.open(0.0, 0.5), ZInterval.open(0.5, 1.0)])
        assert len(out.intervals) == 2

    def test_closed_open_adjacency_merges(self):
        out = normalize([ZInterval.right_open(0.0, 0.5), ZInterval.closed(0.5, 1.0)])
        assert out.intervals == (ZInterval.closed(0.0, 1.0),)

    def test_empty_intervals_dropped(self):
        out = normalize([ZInterval(0.3, 0.3, True, False), ZInterval.point(0.6)])
        assert out.intervals == (ZInterval.point(0.6),)

    def test_malformed_interval_rejected(self):
        with pytest.raises(ValidationError):
            ZInterval(0.7, 0.2)
        with pytest.raises(ValidationError):
            ZInterval(-0.1, 0.5)

    @given(interval_lists)
    def test_idempotent(self, items):
        once = normalize(items)
        assert normalize(once.intervals) == once

    @given(interval_lists)
    def test_membership_preserved(self, items):
        out = normalize(items)
        for k in range(0, 49):
            z = (2 * k + 1) / 48
            if z > 1.0:
                continue
            assert (z in out) == any(z in iv for iv in items)

    @given(interval_lists)
    def test_members_pairwise_unmergeable(self, items):
        out = normalize(items)
        for a, b in zip(out.intervals, out.intervals[1:]):
            assert a.hi < b.lo or (a.hi == b.lo and a.hi_open and b.lo_open)


class TestComplement:
    def test_half_open_prefix(self):
        out = complement_z(normalize([ZInterval.right_open(0.0, 0.4)]))
        assert out.intervals == (ZInterval.closed(0.4, 1.0),)

    def test_empty(self):
        assert complement_z(EMPTY_EVENT) == FULL_EVENT
        assert complement_z(FULL_EVENT) == EMPTY_EVENT

    def test_interior_point_complement(self):
        out = complement_z(normalize([ZInterval.open(0.0, 1.0)]))
        assert out.intervals == (ZInterval.point(0.0), ZInterval.point(1.0))

    @given(interval_lists)
    def test_involution(self, items):
        event = normalize(items)
        assert complement_z(complement_z(event)) == event

    @given(interval_lists)
    def test_partitions_unit_interval(self, items):
        event = normalize(items)
        other = complement_z(event)
        for k in range(0, 49):
            z = k / 48
            assert (z in event) != (z in other)


class TestFullComponentsFinite:
    space = FiniteQuotientSpace(tuple("abcde"))

    def test_consecutive_runs(self):
        assert full_components_finite(self.space, ClassSubset.of(0, 2, 3)) == \
            ((0, 0), (2, 3))

    def test_whole_space(self):
        assert full_components_finite(self.space, ClassSubset.of(0, 1, 2, 3, 4)) == \
            ((0, 4),)

    def test_scattered_singletons_brute_force(self):
        subset = ClassSubset.of(1, 3)
        got = full_components_finite(self.space, subset)
        # oracle: a run [a, b] is a maximal full subset iff all of a..b is in
        # the subset and neither a-1 nor b+1 is
        expected = []
        members = subset.members
        for a in range(5):
            for b in range(a, 5):
                inside = all(i in members for i in range(a, b + 1))
                maximal = (a - 1) not in members and (b + 1) not in members
                if inside and maximal:
                    expected.append((a, b))
        assert got == tuple(expected) == ((1, 1), (3, 3))

    def test_partition_property(self, rng):
        for _ in range(50):
            members = frozenset(i for i in range(5) if rng.random() < 0.5)
            runs = full_components_finite(self.space, ClassSubset(members))
            covered = [i for a, b in runs for i in range(a, b + 1)]
            assert sorted(covered) == sorted(members)
            assert len(covered) == len(set(covered))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            full_components_finite(self.space, ClassSubset.of(7))


class TestFullComponentsZ:
    def test_random_union_matches_grid_scan(self, rng):
        raw = []
        for _ in range(50):
            a = rng.randrange(0, 200) / 200
            b = min(1.0, a + rng.randrange(0, 20) / 200)
            raw.append(ZInterval(a, b, rng.random() < 0.5, rng.random() < 0.5))
        components = normalize(raw).intervals
        # oracle: connected runs of membership sampled between lattice points
        probes = grid_membership(normalize(raw), step=10_000)
        runs = 0
        prev = False
        for inside in probes:
            if inside and not prev:
                runs += 1
            prev = inside
        # isolated lattice points are invisible to the probe grid
        fat = [iv for iv in components if iv.hi - iv.lo >= 1e-3]
        assert runs == len(fat)
        for iv in fat:
            mid = (iv.lo + iv.hi) / 2
            assert mid in normalize(raw)


def sublevel_event(z, closed=True):
    """The z-image ``[0, z]`` (or ``[0, z)``) of a sublevel set."""
    return normalize([ZInterval(0.0, z, False, not closed)])


class TestSublevelEvent:
    def test_whole_space(self):
        assert sublevel_event(1.0, closed=True) == FULL_EVENT

    def test_smallest_class(self):
        assert sublevel_event(0.0, closed=True).intervals == (ZInterval.point(0.0),)

    def test_generic_level(self):
        assert sublevel_event(0.37, closed=True).intervals == \
            (ZInterval.closed(0.0, 0.37),)

    def test_open_at_zero_is_empty(self):
        assert sublevel_event(0.0, closed=False) == EMPTY_EVENT

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            sublevel_event(1.2)


class TestZEventSetInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            ZEventSet((ZInterval.closed(0.5, 0.7), ZInterval.closed(0.0, 0.2)))

    def test_rejects_touching(self):
        with pytest.raises(ValidationError):
            ZEventSet((ZInterval.closed(0.0, 0.5), ZInterval.closed(0.5, 1.0)))

    def test_rejects_empty_member(self):
        with pytest.raises(ValidationError):
            ZEventSet((ZInterval(0.5, 0.5, True, False),))


class TestFiniteQuotientSpace:
    def test_labels_unique(self):
        with pytest.raises(ValidationError):
            FiniteQuotientSpace(("a", "a"))

    def test_non_empty(self):
        with pytest.raises(ValidationError):
            FiniteQuotientSpace(())


class TestInputChecks:
    NOT_NUMBERS = ("1", True, np.bool_(False), None, [1.0], (0.5,), {"x": 1})

    def test_numbers_of_every_kind_become_floats(self):
        for x in (2, 0.25, np.float32(0.25), np.int64(2), Fraction(1, 4)):
            value = _finite_number(x)
            assert type(value) is float and value == float(x)

    def test_non_numbers_are_type_errors(self):
        for check in (_finite_number, _coordinate, lambda x: _class_index(x, 3)):
            for x in self.NOT_NUMBERS:
                with pytest.raises(TypeError):
                    check(x)

    def test_non_finite_numbers_are_validation_errors(self):
        for check in (_finite_number, _coordinate, lambda x: _class_index(x, 3)):
            for x in (math.nan, math.inf, -math.inf, np.float64("nan"),
                      10**400, -10**400, Fraction(10**400, 3)):
                with pytest.raises(ValidationError):
                    check(x)

    def test_coordinates_lie_in_their_range(self):
        assert _coordinate(np.float32(0.5)) == 0.5
        assert _coordinate(Fraction(1, 2)) == 0.5
        for z in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                _coordinate(z)

    def test_class_indices_are_integers_in_range(self):
        index = _class_index(np.int64(2), 3)
        assert type(index) is int and index == 2
        assert _class_index(-1, 3, lowest=-1) == -1
        for i, lowest in ((1.0, 0), (np.float64(1.0), 0), (Fraction(1, 1), 0),
                          (3, 0), (-1, 0), (-2, -1)):
            with pytest.raises(ValidationError, match="class indices"):
                _class_index(i, 3, lowest)

    def test_class_subsets_take_numpy_integers_and_no_booleans(self):
        assert ClassSubset.of(np.int64(1)) == ClassSubset.of(1)
        assert ClassSubset(np.arange(3)).members == frozenset({0, 1, 2})
        for members in ((True,), (1, True), ("1",)):
            with pytest.raises(TypeError):
                ClassSubset.of(*members)
        for members in ((1.5,), (-1,)):
            with pytest.raises(ValidationError):
                ClassSubset.of(*members)

    def test_interval_ends_are_checked_coordinates(self):
        iv = ZInterval(np.float32(0.25), Fraction(1, 2), np.bool_(True), False)
        assert (type(iv.lo), type(iv.hi)) == (float, float)
        assert iv == ZInterval.left_open(0.25, 0.5)
        with pytest.raises(TypeError):
            ZInterval(0.2, 0.5, 1, 0)
        with pytest.raises(TypeError):
            ZInterval(0.2, 0.5, "false", False)
        with pytest.raises(ValidationError):
            ZInterval(0.2, math.nan)
        with pytest.raises(ValidationError):
            sublevel_event(math.nan)
