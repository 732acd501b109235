"""Virtual address-space allocator for trampolines.

Models the patched program's virtual address space: existing PT_LOAD
segments (and the NULL guard region) are reserved; trampolines are
allocated first-fit inside pun-constrained windows.  For PIE binaries the
usable space extends to *negative* link-time offsets — at runtime the
image is loaded high, so the whole ±2 GiB window around the code is
valid, which is the paper's explanation for the much higher PIE baseline
coverage.

Hot-path structure (see INTERNALS.md §7): ``allocations`` is a dict from
vaddr to size so rollback ``release`` is O(1), and first-fit searches keep a
*gap hint* per window origin — "no gap of ≥ N bytes starts below address
A in this window" — so thousands of same-window allocations stop
rescanning the exhausted low spans.  Hints are conservative: they are
only consulted for requests at least as large as the proven size, and
released space invalidates every hint above the released (merged) span.
That invalidation is lazy: a hint is checked against the spans freed
since it was recorded when it is next read, so a release never scans
the hints of every window origin.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.intervals import IntervalSet

# Linux vm.mmap_min_addr default: the NULL guard.
MMAP_MIN_ADDR = 0x10000
# Upper end of the canonical user address space (47-bit, minus stack slack).
USER_SPACE_TOP = 0x7FFF_F000_0000


@dataclass
class AddressSpace:
    """Free-space tracker with windowed first-fit allocation.

    ``lo_bound``/``hi_bound`` delimit addresses trampolines may occupy;
    reserved ranges (the binary's own segments, guard pages) are carved
    out at construction time.

    ``pack_pages`` makes allocation prefer pages that already hold
    trampolines.  It is **off by default on purpose**: packing barely
    reduces the virtual page count (constrained windows scatter anyway)
    while making pages dense — and dense pages cannot merge under
    physical page grouping, so the *physical* footprint grows.  The
    ablation benchmark quantifies this; it is the paper's design insight
    in miniature: exploit fragmentation at mapping time instead of
    fighting it at allocation time.
    """

    lo_bound: int = MMAP_MIN_ADDR
    hi_bound: int = USER_SPACE_TOP
    free: IntervalSet = field(default_factory=IntervalSet)
    #: Live allocations: start vaddr -> size.
    allocations: dict[int, int] = field(default_factory=dict)
    #: Set before the first allocation: page-occupancy hints are only
    #: kept while it is on.
    pack_pages: bool = False
    # Observability: number of free-list gap searches performed (one per
    # find_gap call, including failed and packed-page attempts).
    probes: int = 0
    #: Verify free/allocated/page-hint consistency after every mutation
    #: (expensive; enabled by tests and ``REPRO_DEBUG_ALLOC``).
    debug_invariants: bool = False
    _used_pages: IntervalSet = field(default_factory=IntervalSet)
    # page vaddr -> number of live allocations touching it; drives
    # _used_pages eviction on release.
    _page_refs: dict[int, int] = field(default_factory=dict)
    # window origin (clamped lo) -> (addr, size, n): no gap of >= size
    # bytes started in [lo, addr) as of release number n.  Only
    # maintained for align == 1 searches.
    _gap_hints: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    # Release count, and a stack of (release number, merged free span
    # start) increasing in both: the lowest start freed since release n
    # is _freed_lo[j] for the first j with _freed_at[j] >= n.
    _releases: int = 0
    _freed_at: list[int] = field(default_factory=list)
    _freed_lo: list[int] = field(default_factory=list)

    PAGE = 4096

    def __post_init__(self) -> None:
        if not self.free:
            self.free.add(self.lo_bound, self.hi_bound)
        if os.environ.get("REPRO_DEBUG_ALLOC"):
            self.debug_invariants = True

    @classmethod
    def for_binary(
        cls,
        segments: list[tuple[int, int]],
        *,
        pie: bool = False,
        shared: bool = False,
        image_base: int = 0,
        guard: int = 4096,
    ) -> "AddressSpace":
        """Build the address space for a binary with the given PT_LOAD
        ``(vaddr, memsz)`` extents.

        For PIE *executables*, link-time addresses start near zero but
        load at a high runtime base, so negative link-time offsets are
        usable (reached through the rewriter's loader); the bounds are
        widened to the full signed rel32 reach around the image.  Shared
        objects are position-independent too, but the paper found
        negative offsets "generally incompatible with the dynamic linker"
        (other libraries get loaded there), so they are restricted to
        positive offsets like non-PIE code.
        """
        if pie and not shared:
            space = cls(lo_bound=-(1 << 31) + (1 << 20), hi_bound=(1 << 31))
        elif shared:
            space = cls(lo_bound=4096, hi_bound=(1 << 31))
        else:
            space = cls()
        for vaddr, memsz in segments:
            space.reserve(vaddr - guard, vaddr + memsz + guard)
        return space

    def reserve(self, lo: int, hi: int) -> None:
        """Mark ``[lo, hi)`` permanently unusable."""
        self.free.remove(lo, hi)

    @property
    def span_visits(self) -> int:
        """Free-list spans examined across all gap searches (see
        :attr:`IntervalSet.visits`)."""
        return self.free.visits

    def allocate(self, window_lo: int, window_hi: int, size: int,
                 align: int = 1) -> int | None:
        """Allocate *size* bytes with the start address inside the window.

        Returns the start vaddr, or None if the window has no free slot.
        The extent may run past ``window_hi`` (only the jump *target* is
        constrained); it must simply be free space.
        """
        lo = max(window_lo, self.lo_bound)
        hi = min(window_hi, self.hi_bound)
        t = None
        if self.pack_pages and align == 1:
            page = self.PAGE
            for plo, phi in self._used_pages.spans_overlapping(
                    lo - page, hi + page, limit=8):
                self.probes += 1
                t = self.free.find_gap(max(lo, plo), min(hi, phi), size)
                if t is not None:
                    break
        if t is None:
            self.probes += 1
            if align == 1:
                t = self._find_gap_hinted(lo, hi, size)
            else:
                t = self.free.find_gap(lo, hi, size, align=align)
        if t is None:
            return None
        self.free.take(t, t + size)
        self.allocations[t] = size
        if self.pack_pages:
            pages = self._pages(t, t + size)
            self._used_pages.add(pages.start, pages.stop)
            refs = self._page_refs
            for p in pages:
                refs[p] = refs.get(p, 0) + 1
        if self.debug_invariants:
            self.check_invariants()
        return t

    def _pages(self, lo: int, hi: int) -> range:
        """Start addresses of the pages ``[lo, hi)`` touches."""
        return range(lo - lo % self.PAGE, hi + (-hi) % self.PAGE, self.PAGE)

    def _find_gap_hinted(self, lo: int, hi: int, size: int) -> int | None:
        """First-fit search with a per-window-origin skip cursor.

        A recorded hint ``(addr, proven, n)`` for origin *lo* means
        first-fit proved no gap of ≥ *proven* bytes started in
        ``[lo, addr)`` as of release *n*; unless a later release freed a
        span starting below *addr*, a request of ``size >= proven`` may
        therefore begin at *addr*.
        """
        hint = self._gap_hints.get(lo)
        start = lo
        if hint is not None and size >= hint[1] and hint[0] > lo:
            j = bisect_left(self._freed_at, hint[2])
            if j == len(self._freed_at) or self._freed_lo[j] >= hint[0]:
                start = min(hint[0], hi)
        t = self.free.find_gap(start, hi, size)
        self._gap_hints[lo] = (t if t is not None else hi, size,
                               self._releases)
        return t

    def release(self, vaddr: int, size: int) -> None:
        """Return an extent to the free pool (tactic rollback)."""
        self.free.add(vaddr, vaddr + size)
        if self.allocations.get(vaddr) == size:
            del self.allocations[vaddr]
        # Freed space may merge with a lower span, creating gaps below any
        # recorded search cursor: every hint above the merged span's start
        # is now dead.  Stacked starts at or above it can never again be
        # the minimum a hint is checked against.
        if self._gap_hints:
            span = self.free.span_at(vaddr)
            merged_lo = span[0] if span is not None else vaddr
            at, los = self._freed_at, self._freed_lo
            while los and los[-1] >= merged_lo:
                at.pop()
                los.pop()
            at.append(self._releases)
            los.append(merged_lo)
        self._releases += 1
        # Page-occupancy hints: un-count this extent's pages and evict
        # pages with no remaining allocation, so rollback-heavy runs do
        # not leave ``pack_pages`` probing dead pages forever.
        if self.pack_pages:
            refs = self._page_refs
            for p in self._pages(vaddr, vaddr + size):
                n = refs.get(p)
                if n is None:
                    continue
                if n <= 1:
                    del refs[p]
                    self._used_pages.remove(p, p + self.PAGE)
                else:
                    refs[p] = n - 1
        if self.debug_invariants:
            self.check_invariants()

    def check_invariants(self) -> None:
        """Assert allocator consistency (debug aid; O(n log n)).

        * live allocations are non-empty, disjoint from free space and
          pairwise disjoint;
        * under ``pack_pages``, every page of every live allocation is in
          the page-occupancy hint set, and every hinted page is backed by
          a reference count.
        """
        prev_end = None
        for vaddr, size in sorted(self.allocations.items()):
            end = vaddr + size
            assert size > 0, f"empty allocation at {vaddr:#x}"
            assert not self.free.overlaps(vaddr, end), (
                f"allocation [{vaddr:#x},{end:#x}) overlaps free space"
            )
            assert prev_end is None or vaddr >= prev_end, (
                f"allocations overlap at {vaddr:#x}"
            )
            prev_end = end
            if not self.pack_pages:
                continue
            for p in self._pages(vaddr, end):
                assert self._used_pages.contains(p, p + self.PAGE), (
                    f"page {p:#x} of live allocation missing from page hints"
                )
                assert self._page_refs.get(p, 0) > 0, (
                    f"page {p:#x} of live allocation has no reference count"
                )
        for p, n in self._page_refs.items():
            assert n > 0, f"page {p:#x} has non-positive refcount {n}"

    def used_bytes(self) -> int:
        return sum(self.allocations.values())
