"""AddressSpace allocation semantics."""

from repro.core.allocator import MMAP_MIN_ADDR, AddressSpace


class TestAllocate:
    def test_first_fit_in_window(self):
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x100000)
        t = space.allocate(0x20000, 0x30000, 64)
        assert t == 0x20000
        t2 = space.allocate(0x20000, 0x30000, 64)
        assert t2 == 0x20040  # packs after the first

    def test_reserved_avoided(self):
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x100000)
        space.reserve(0x20000, 0x28000)
        t = space.allocate(0x20000, 0x30000, 64)
        assert t == 0x28000

    def test_window_exhaustion(self):
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x100000)
        space.reserve(0x20000, 0x30000)
        assert space.allocate(0x20000, 0x30000, 16) is None

    def test_release_returns_space(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x1000)
        t = space.allocate(0, 0x1000, 256)
        space.release(t, 256)
        assert space.allocate(0, 0x1000, 256) == t
        assert len(space.allocations) == 1

    def test_alignment(self):
        space = AddressSpace(lo_bound=0x100, hi_bound=0x10000)
        t = space.allocate(0x100, 0x10000, 64, align=0x1000)
        assert t == 0x1000

    def test_used_bytes(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x10000)
        space.allocate(0, 0x10000, 100)
        space.allocate(0, 0x10000, 50)
        assert space.used_bytes() == 150


class TestForBinary:
    SEGMENTS = [(0x400000, 0x2000), (0x403000, 0x1000)]

    def test_nonpie_bounds(self):
        space = AddressSpace.for_binary(self.SEGMENTS, pie=False)
        assert space.lo_bound == MMAP_MIN_ADDR
        # Segments plus guards are reserved.
        assert space.allocate(0x400000, 0x400100, 16) is None
        assert space.allocate(0x3FF800, 0x3FFC00, 16) is None  # guard page

    def test_pie_bounds_include_negative(self):
        space = AddressSpace.for_binary(
            [(0, 0x2000)], pie=True
        )
        assert space.lo_bound < 0
        t = space.allocate(-0x100000, -0x80000, 64)
        assert t is not None and t < 0

    def test_shared_positive_only(self):
        space = AddressSpace.for_binary([(0, 0x2000)], pie=True, shared=True)
        assert space.lo_bound >= 0
        assert space.allocate(-0x100000, -0x80000, 64) is None

    def test_guard_scales(self):
        space = AddressSpace.for_binary(self.SEGMENTS, guard=0x10000)
        assert space.allocate(0x3F8000, 0x400000, 16) is None
        assert space.allocate(0x414000, 0x500000, 16) == 0x414000


class TestGapHints:
    """The per-window search cursor must never change allocation results,
    only the number of free-list spans examined."""

    def test_repeated_window_allocs_skip_exhausted_spans(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x100000)
        # Fragment the low space into many tiny free slivers.
        for i in range(64):
            space.reserve(i * 32, i * 32 + 24)
        before = space.free.visits
        first = space.allocate(0, 0x100000, 64)
        cold = space.free.visits - before
        results = [first]
        before = space.free.visits
        for _ in range(20):
            results.append(space.allocate(0, 0x100000, 64))
        warm = (space.free.visits - before) / 20
        assert all(t is not None for t in results)
        # Warm searches start at the cursor instead of rescanning the
        # 64 exhausted slivers the cold search walked.
        assert cold > 32
        assert warm < cold / 8

    def test_hint_never_changes_results(self):
        import random

        rng = random.Random(1234)
        hinted = AddressSpace(lo_bound=0, hi_bound=0x40000)
        plain = AddressSpace(lo_bound=0, hi_bound=0x40000)
        plain._gap_hints = None  # force the unhinted path to explode if used
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                vaddr, size = live.pop(rng.randrange(len(live)))
                hinted.release(vaddr, size)
                plain.free.add(vaddr, vaddr + size)
            else:
                lo = rng.randrange(0, 0x40000, 16)
                size = rng.choice((8, 24, 64, 200))
                a = hinted.allocate(lo, lo + 0x2000, size)
                b = plain.free.find_gap(lo, lo + 0x2000, size)
                assert a == b, f"divergence at step {step}: {a} != {b}"
                if a is not None:
                    plain.free.remove(a, a + size)
                    live.append((a, size))

    def test_release_invalidates_cursor_below_merge(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x10000)
        # Exhaust the low space, recording a high cursor for window 0.
        blocks = [space.allocate(0, 0x10000, 0x100) for _ in range(8)]
        assert space._gap_hints[0][0] >= 0x700
        # Freeing the lowest block must drop the stale cursor so the
        # next same-window search finds the recycled space.
        space.release(blocks[0], 0x100)
        assert space.allocate(0, 0x10000, 0x100) == blocks[0]

    def test_release_at_cursor_keeps_hint(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x100000)
        for i in range(64):
            space.reserve(i * 32, i * 32 + 24)
        space.allocate(0, 0x100000, 64)
        top = space.allocate(0, 0x100000, 64)
        # The freed span starts exactly at window 0's cursor: nothing
        # opened up below it, so the cursor stays valid.
        space.release(top, 64)
        before = space.span_visits
        assert space.allocate(0, 0x100000, 64) == top
        assert space.span_visits - before == 1  # no rescan of the slivers


class TestInvariants:
    def test_debug_invariants_pass_through_churn(self):
        import random

        rng = random.Random(99)
        space = AddressSpace(lo_bound=0, hi_bound=0x100000, pack_pages=True,
                             debug_invariants=True)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.45:
                vaddr, size = live.pop(rng.randrange(len(live)))
                space.release(vaddr, size)
            else:
                lo = rng.randrange(0, 0x100000, 64)
                size = rng.choice((16, 100, 4096, 5000))
                t = space.allocate(lo, lo + 0x4000, size)
                if t is not None:
                    live.append((t, size))
        for vaddr, size in live:
            space.release(vaddr, size)
        assert space.used_bytes() == 0
        assert not space._page_refs

    def test_env_var_enables_invariants(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_ALLOC", "1")
        assert AddressSpace(lo_bound=0, hi_bound=0x1000).debug_invariants

    def test_release_clears_page_hints(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x100000, pack_pages=True,
                             debug_invariants=True)
        a = space.allocate(0, 0x100000, 100)
        b = space.allocate(0, 0x100000, 100)
        space.release(a, 100)
        # Page still hinted: b lives on it.
        assert space._page_refs
        space.release(b, 100)
        assert not space._page_refs
        assert not space._used_pages

    def test_page_hints_kept_only_when_packing(self):
        space = AddressSpace(lo_bound=0, hi_bound=0x100000,
                             debug_invariants=True)
        a = space.allocate(0, 0x100000, 5000)
        assert not space._page_refs and not space._used_pages
        space.release(a, 5000)
        assert space.used_bytes() == 0
