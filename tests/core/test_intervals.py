"""IntervalSet unit + property tests."""

from hypothesis import given, strategies as st

from repro.core.intervals import IntervalSet


class TestBasics:
    def test_add_and_contains(self):
        s = IntervalSet()
        s.add(10, 20)
        assert s.contains(10, 20)
        assert s.contains(15)
        assert not s.contains(9)
        assert not s.contains(20)
        assert not s.contains(15, 25)

    def test_merge_adjacent(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(10, 20)
        assert len(s) == 1
        assert s.contains(0, 20)

    def test_merge_overlapping(self):
        s = IntervalSet()
        s.add(0, 15)
        s.add(10, 30)
        s.add(50, 60)
        assert list(s) == [(0, 30), (50, 60)]

    def test_remove_splits(self):
        s = IntervalSet([(0, 100)])
        s.remove(40, 60)
        assert list(s) == [(0, 40), (60, 100)]

    def test_remove_edges(self):
        s = IntervalSet([(0, 100)])
        s.remove(0, 10)
        s.remove(90, 100)
        assert list(s) == [(10, 90)]

    def test_remove_everything(self):
        s = IntervalSet([(10, 20), (30, 40)])
        s.remove(0, 100)
        assert not s

    def test_empty_operations(self):
        s = IntervalSet()
        s.add(5, 5)  # empty span ignored
        s.remove(0, 10)
        assert not s
        assert s.contains(3, 3)  # empty query trivially true

    def test_overlaps(self):
        s = IntervalSet([(10, 20)])
        assert s.overlaps(15, 25)
        assert s.overlaps(5, 11)
        assert not s.overlaps(20, 30)
        assert not s.overlaps(0, 10)

    def test_negative_coordinates(self):
        s = IntervalSet([(-100, -50)])
        assert s.contains(-75)
        assert s.find_gap(-100, -50, 10) == -100


class TestFindGap:
    def test_basic_first_fit(self):
        s = IntervalSet([(100, 200)])
        assert s.find_gap(0, 1000, 50) == 100

    def test_start_must_be_in_window(self):
        s = IntervalSet([(100, 200)])
        assert s.find_gap(150, 160, 10) == 150
        assert s.find_gap(210, 300, 10) is None

    def test_extent_may_exceed_window(self):
        # Only the start is window-constrained (the pun target).
        s = IntervalSet([(100, 200)])
        assert s.find_gap(195, 196, 5) == 195

    def test_too_small_gaps_skipped(self):
        s = IntervalSet([(0, 5), (10, 100)])
        assert s.find_gap(0, 50, 20) == 10

    def test_alignment(self):
        s = IntervalSet([(100, 300)])
        assert s.find_gap(0, 1000, 50, align=128) == 128
        assert s.find_gap(0, 1000, 500, align=128) is None

    def test_window_lo_inside_span(self):
        s = IntervalSet([(0, 1000)])
        assert s.find_gap(137, 200, 10) == 137


@st.composite
def interval_ops(draw):
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["add", "remove"]),
                  st.integers(0, 500), st.integers(0, 500)),
        max_size=30,
    ))
    return [(op, min(a, b), max(a, b)) for op, a, b in ops]


class TestProperties:
    @given(interval_ops())
    def test_matches_reference_set_semantics(self, ops):
        s = IntervalSet()
        reference: set[int] = set()
        for op, lo, hi in ops:
            if op == "add":
                s.add(lo, hi)
                reference |= set(range(lo, hi))
            else:
                s.remove(lo, hi)
                reference -= set(range(lo, hi))
        # Same membership.
        covered = set()
        for lo, hi in s:
            assert lo < hi
            covered |= set(range(lo, hi))
        assert covered == reference
        # Disjoint, sorted, non-adjacent spans.
        spans = list(s)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi < b_lo

    @given(interval_ops(), st.integers(0, 500), st.integers(1, 50))
    def test_find_gap_returns_valid_slot(self, ops, window_lo, size):
        s = IntervalSet()
        for op, lo, hi in ops:
            (s.add if op == "add" else s.remove)(lo, hi)
        window_hi = window_lo + 64
        t = s.find_gap(window_lo, window_hi, size)
        if t is not None:
            assert window_lo <= t < window_hi
            assert s.contains(t, t + size)

    @given(interval_ops(), st.integers(0, 500), st.integers(1, 20))
    def test_find_gap_none_means_no_slot(self, ops, window_lo, size):
        s = IntervalSet()
        for op, lo, hi in ops:
            (s.add if op == "add" else s.remove)(lo, hi)
        window_hi = window_lo + 40
        if s.find_gap(window_lo, window_hi, size) is None:
            for t in range(window_lo, window_hi):
                assert not s.contains(t, t + size)

    @given(interval_ops(), st.integers(1, 50))
    def test_find_gap_is_first_fit(self, ops, size):
        """find_gap returns the *lowest* viable start in the window."""
        s = IntervalSet()
        for op, lo, hi in ops:
            (s.add if op == "add" else s.remove)(lo, hi)
        t = s.find_gap(0, 500, size)
        naive = next((x for x in range(0, 500) if s.contains(x, x + size)),
                     None)
        assert t == naive

    @given(interval_ops(), st.integers(-10, 510))
    def test_span_at_matches_reference(self, ops, point):
        s = IntervalSet()
        for op, lo, hi in ops:
            (s.add if op == "add" else s.remove)(lo, hi)
        expected = next(
            ((lo, hi) for lo, hi in s if lo <= point < hi), None)
        assert s.span_at(point) == expected


class TestVisitsCounter:
    def test_counts_spans_examined(self):
        s = IntervalSet([(0, 5), (10, 15), (20, 25), (30, 100)])
        before = s.visits
        assert s.find_gap(0, 200, 50) == 30
        # First-fit walked all four spans to find the large gap.
        assert s.visits - before == 4

    def test_successful_first_span_is_one_visit(self):
        s = IntervalSet([(0, 100), (200, 300)])
        before = s.visits
        assert s.find_gap(0, 50, 10) == 0
        assert s.visits - before == 1

    def test_miss_still_counts(self):
        s = IntervalSet([(0, 5)])
        before = s.visits
        assert s.find_gap(0, 100, 50) is None
        assert s.visits - before == 1
