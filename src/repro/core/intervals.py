"""Disjoint half-open interval set with gap search.

The allocator's workhorse: tracks free virtual address space as a sorted
list of disjoint ``[start, end)`` intervals and supports first-fit
searches restricted to a window (the pun-constrained trampoline range).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class IntervalSet:
    """A set of integers stored as sorted disjoint half-open intervals."""

    def __init__(self, intervals: list[tuple[int, int]] | None = None) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        #: Observability: spans examined by :meth:`find_gap` over this
        #: set's lifetime.  The allocator's search-cursor optimization is
        #: measured (and gated) as a reduction of this counter.
        self.visits: int = 0
        if intervals:
            for lo, hi in intervals:
                self.add(lo, hi)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        return iter(zip(self._starts, self._ends))

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s:#x},{e:#x})" for s, e in self)
        return f"IntervalSet({spans})"

    def total(self) -> int:
        """Total number of integers covered."""
        return sum(e - s for s, e in self)

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)``, merging with any overlapping/adjacent spans."""
        if lo >= hi:
            return
        i = bisect_left(self._ends, lo)  # first span with end >= lo
        j = bisect_right(self._starts, hi)  # spans entirely before hi
        if i < j:
            lo = min(lo, self._starts[i])
            hi = max(hi, self._ends[j - 1])
        self._starts[i:j] = [lo]
        self._ends[i:j] = [hi]

    def remove(self, lo: int, hi: int) -> None:
        """Delete ``[lo, hi)`` from the set."""
        if lo >= hi:
            return
        i = bisect_right(self._ends, lo)  # first span with end > lo
        new_starts: list[int] = []
        new_ends: list[int] = []
        j = i
        while j < len(self._starts) and self._starts[j] < hi:
            s, e = self._starts[j], self._ends[j]
            if s < lo:
                new_starts.append(s)
                new_ends.append(lo)
            if e > hi:
                new_starts.append(hi)
                new_ends.append(e)
            j += 1
        self._starts[i:j] = new_starts
        self._ends[i:j] = new_ends

    def contains(self, lo: int, hi: int | None = None) -> bool:
        """True if ``[lo, hi)`` (or the single point *lo*) is fully covered."""
        if hi is None:
            hi = lo + 1
        if lo >= hi:
            return True
        i = bisect_right(self._starts, lo) - 1
        return i >= 0 and self._ends[i] >= hi

    def overlaps(self, lo: int, hi: int) -> bool:
        """True if ``[lo, hi)`` intersects the set."""
        if lo >= hi:
            return False
        i = bisect_right(self._ends, lo)
        return i < len(self._starts) and self._starts[i] < hi

    def find_gap(
        self, window_lo: int, window_hi: int, size: int, align: int = 1
    ) -> int | None:
        """First-fit: lowest aligned ``t`` with ``t`` in
        ``[window_lo, window_hi)`` and ``[t, t+size)`` fully covered by
        this (free) set.

        Note the asymmetry matching trampoline allocation: only the *start*
        must lie in the window; the extent may run past ``window_hi``.
        """
        if window_lo >= window_hi or size <= 0:
            return None
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, window_lo) - 1
        if i < 0 or ends[i] <= window_lo:
            i += 1  # window_lo is not free: start at the next span
        n = len(starts)
        while i < n and starts[i] < window_hi:
            self.visits += 1
            t = starts[i] if starts[i] > window_lo else window_lo
            if align != 1:
                t = -((-t) // align) * align
            if t < window_hi and ends[i] - t >= size:
                return t
            i += 1
        return None

    def span_at(self, point: int) -> tuple[int, int] | None:
        """The span containing *point* (or starting at it), if any."""
        i = bisect_right(self._starts, point) - 1
        if i >= 0 and self._ends[i] > point:
            return self._starts[i], self._ends[i]
        return None

    def spans_overlapping(self, lo: int, hi: int,
                          limit: int | None = None) -> list[tuple[int, int]]:
        """Spans intersecting ``[lo, hi)``, in order (optionally capped)."""
        out: list[tuple[int, int]] = []
        i = bisect_right(self._ends, lo)
        while i < len(self._starts) and self._starts[i] < hi:
            out.append((self._starts[i], self._ends[i]))
            if limit is not None and len(out) >= limit:
                break
            i += 1
        return out

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        return out
