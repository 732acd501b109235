"""Property test for the indexed allocator's fast paths.

PR 4 rebuilt ``AddressSpace`` around dict-keyed allocations, per-window
gap hints with release invalidation, and refcounted page-occupancy
hints.  This test drives random interleavings of ``allocate`` /
``release`` / abort (allocate-then-immediately-release, the tactic
rollback pattern) against a brute-force byte-set reference allocator,
asserting that

* every allocation lands at the *identical* address the reference's
  first-fit picks (the hints are an optimization, never a policy change);
* ``check_invariants()`` holds after every single step.
"""

from hypothesis import given, settings, strategies as st

from repro.core.allocator import AddressSpace

SPACE_LO = 0
SPACE_HI = 4096


class ReferenceAllocator:
    """Brute-force first-fit over an explicit byte set.

    Mirrors ``IntervalSet.find_gap`` semantics: the lowest aligned start
    inside ``[window_lo, window_hi)`` whose whole extent is free — the
    extent may run past ``window_hi`` but never past the space bounds.
    """

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        self.free = set(range(lo, hi))

    def reserve(self, lo: int, hi: int) -> None:
        self.free -= set(range(lo, hi))

    def allocate(self, window_lo: int, window_hi: int, size: int,
                 align: int = 1) -> int | None:
        lo = max(window_lo, self.lo)
        hi = min(window_hi, self.hi)
        t = -((-lo) // align) * align
        while t < hi:
            extent = range(t, t + size)
            if all(b in self.free for b in extent):
                self.free -= set(extent)
                return t
            t += align
        return None

    def release(self, vaddr: int, size: int) -> None:
        self.free |= set(range(vaddr, vaddr + size))


# One operation: (kind, a, b, c, d) interpreted against current state.
ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "alloc", "alloc", "release", "abort"]),
        st.integers(min_value=SPACE_LO, max_value=SPACE_HI - 1),  # window lo
        st.integers(min_value=16, max_value=1024),  # window length
        st.integers(min_value=1, max_value=48),  # size
        st.sampled_from([1, 1, 1, 2, 4, 16, 64]),  # align
    ),
    min_size=1, max_size=60,
)

reserves = st.lists(
    st.tuples(
        st.integers(min_value=SPACE_LO, max_value=SPACE_HI - 64),
        st.integers(min_value=16, max_value=256),
    ),
    max_size=3,
)


def build_pair(reserved):
    space = AddressSpace(lo_bound=SPACE_LO, hi_bound=SPACE_HI)
    ref = ReferenceAllocator(SPACE_LO, SPACE_HI)
    for lo, length in reserved:
        space.reserve(lo, lo + length)
        ref.reserve(lo, lo + length)
    return space, ref


@settings(max_examples=200, deadline=None)
@given(reserved=reserves, operations=ops)
def test_matches_reference_with_invariants(reserved, operations):
    space, ref = build_pair(reserved)
    live: list[tuple[int, int]] = []  # (vaddr, size) of live allocations

    for kind, a, b, size, align in operations:
        if kind == "release" and live:
            vaddr, rsize = live.pop(a % len(live))
            space.release(vaddr, rsize)
            ref.release(vaddr, rsize)
        else:
            window_lo, window_hi = a, a + b
            got = space.allocate(window_lo, window_hi, size, align=align)
            want = ref.allocate(window_lo, window_hi, size, align=align)
            assert got == want, (
                f"placement diverged for window [{window_lo:#x},"
                f"{window_hi:#x}) size {size} align {align}: "
                f"fast {got} != reference {want}"
            )
            if got is not None:
                if kind == "abort":
                    # Tactic rollback: release immediately, exercising
                    # gap-hint invalidation right after the hint moved.
                    space.release(got, size)
                    ref.release(got, size)
                else:
                    live.append((got, size))
        space.check_invariants()

    # Drain everything; the allocator must return to a consistent state
    # and agree with the reference on total free space.
    for vaddr, size in live:
        space.release(vaddr, size)
        ref.release(vaddr, size)
        space.check_invariants()
    assert space.used_bytes() == 0
    assert not space.allocations


@settings(max_examples=50, deadline=None)
@given(reserved=reserves, operations=ops)
def test_hint_churn_keeps_first_fit(reserved, operations):
    """Same-window churn: every allocation uses one fixed window, the
    worst case for the per-window-origin gap hint (it must be invalidated
    by every merging release or first-fit placements drift high)."""
    space, ref = build_pair(reserved)
    live: list[tuple[int, int]] = []

    for kind, a, _b, size, align in operations:
        if kind in ("release", "abort") and live:
            vaddr, rsize = live.pop(a % len(live))
            space.release(vaddr, rsize)
            ref.release(vaddr, rsize)
        else:
            got = space.allocate(SPACE_LO, SPACE_HI, size, align=align)
            want = ref.allocate(SPACE_LO, SPACE_HI, size, align=align)
            assert got == want
            if got is not None:
                live.append((got, size))
        space.check_invariants()


@settings(max_examples=100, deadline=None)
@given(reserved=reserves, operations=ops)
def test_packed_page_hints_stay_consistent(reserved, operations):
    """``pack_pages`` places by page occupancy rather than first fit, so
    only the invariants (page hints included) are checked."""
    space, _ = build_pair(reserved)
    space.pack_pages = True
    live: list[tuple[int, int]] = []
    for kind, a, b, size, align in operations:
        if kind == "release" and live:
            space.release(*live.pop(a % len(live)))
        else:
            got = space.allocate(a, a + b, size, align=align)
            if got is not None:
                if kind == "abort":
                    space.release(got, size)
                else:
                    live.append((got, size))
        space.check_invariants()
    for vaddr, size in live:
        space.release(vaddr, size)
    space.check_invariants()
    assert not space._page_refs and not space._used_pages


class EagerHintSpace(AddressSpace):
    """The gap-hint scheme with eager invalidation: every release
    rebuilds the hint dict without the hints above the merged span.
    Reference for the lazy invalidation :class:`AddressSpace` uses."""

    def _find_gap_hinted(self, lo, hi, size):
        hint = self._gap_hints.get(lo)
        start = lo
        if hint is not None and size >= hint[1] and hint[0] > lo:
            start = min(hint[0], hi)
        t = self.free.find_gap(start, hi, size)
        self._gap_hints[lo] = (t if t is not None else hi, size)
        return t

    def release(self, vaddr, size):
        self.free.add(vaddr, vaddr + size)
        self.allocations.pop(vaddr, None)
        if self._gap_hints:
            span = self.free.span_at(vaddr)
            merged_lo = span[0] if span is not None else vaddr
            self._gap_hints = {k: v for k, v in self._gap_hints.items()
                               if v[0] <= merged_lo}


@settings(max_examples=200, deadline=None)
@given(reserved=reserves, operations=ops)
def test_lazy_hint_invalidation_matches_eager(reserved, operations):
    """Lazy invalidation must keep the exact search work of the eager
    scheme, not just its placements: ``span_visits`` is a gated metric."""
    lazy = AddressSpace(lo_bound=SPACE_LO, hi_bound=SPACE_HI)
    eager = EagerHintSpace(lo_bound=SPACE_LO, hi_bound=SPACE_HI)
    for lo, length in reserved:
        lazy.reserve(lo, lo + length)
        eager.reserve(lo, lo + length)
    live: list[tuple[int, int]] = []
    for kind, a, b, size, align in operations:
        if kind == "release" and live:
            vaddr, rsize = live.pop(a % len(live))
            lazy.release(vaddr, rsize)
            eager.release(vaddr, rsize)
            continue
        # Few window origins, so hints are reused and invalidated often.
        lo = (a % 8) * 256
        got = lazy.allocate(lo, lo + b, size, align=align)
        assert got == eager.allocate(lo, lo + b, size, align=align)
        if got is not None:
            if kind == "abort":
                lazy.release(got, size)
                eager.release(got, size)
            else:
                live.append((got, size))
        assert lazy.span_visits == eager.span_visits
