"""Physical page grouping: partitioning invariants and space accounting."""

from hypothesis import given, strategies as st

from repro.core.grouping import (
    PAGE_SIZE,
    group_trampolines,
    split_into_blocks,
)
from repro.core.trampoline import Trampoline


def tramp(vaddr: int, size: int, fill: int = 0xAB) -> Trampoline:
    return Trampoline(vaddr=vaddr, code=bytes([fill]) * size)


class TestSplit:
    def test_simple(self):
        blocks = split_into_blocks([tramp(0x1000, 32)], block_pages=1)
        assert len(blocks) == 1
        assert blocks[0].index == 1
        assert blocks[0].mask() == (1 << 32) - 1

    def test_boundary_spanning_becomes_two_minis(self):
        blocks = split_into_blocks([tramp(0x1FF0, 0x20)], block_pages=1)
        assert [b.index for b in blocks] == [1, 2]
        assert blocks[0].mask() == ((1 << 0x10) - 1) << 0xFF0
        assert blocks[1].mask() == (1 << 0x10) - 1

    def test_negative_vaddr_blocks(self):
        blocks = split_into_blocks([tramp(-0x1000, 16)], block_pages=1)
        assert blocks[0].index == -1
        assert blocks[0].mask() == (1 << 16) - 1

    def test_granularity(self):
        blocks = split_into_blocks([tramp(0x5000, 16)], block_pages=4)
        assert blocks[0].index == 1  # 0x5000 // 0x4000
        assert blocks[0].mask() == ((1 << 0x10) - 1) << 0x1000


class TestGrouping:
    def test_figure3_scenario(self):
        """Five trampolines over three pages with disjoint in-page
        offsets merge into a single physical page (Figure 3)."""
        tramps = [
            tramp(0x1000, 0x100, 1),  # t1: page 1, offset 0x000
            tramp(0x1800, 0x100, 2),  # t2: page 1, offset 0x800
            tramp(0x2400, 0x100, 3),  # t3: page 2, offset 0x400
            tramp(0x3200, 0x100, 4),  # t4: page 3, offset 0x200
            tramp(0x3C00, 0x100, 5),  # t5: page 3, offset 0xC00
        ]
        result = group_trampolines(tramps, block_pages=1)
        assert len(result.blocks) == 3
        assert len(result.groups) == 1
        assert result.mapping_count == 3
        assert result.grouped_physical_bytes == PAGE_SIZE
        assert result.naive_physical_bytes == 3 * PAGE_SIZE
        assert abs(result.savings_ratio - 2 / 3) < 1e-9
        # Merged content holds every trampoline at its in-block offset.
        merged = result.groups[0].merged_content(PAGE_SIZE)
        assert merged[0x000:0x100] == b"\x01" * 0x100
        assert merged[0x800:0x900] == b"\x02" * 0x100
        assert merged[0x400:0x500] == b"\x03" * 0x100
        assert merged[0x200:0x300] == b"\x04" * 0x100
        assert merged[0xC00:0xD00] == b"\x05" * 0x100

    def test_conflicting_blocks_not_merged(self):
        tramps = [tramp(0x1000, 0x100), tramp(0x2000, 0x100)]  # same offset 0
        result = group_trampolines(tramps, block_pages=1)
        assert len(result.groups) == 2

    def test_disabled_grouping_is_one_to_one(self):
        tramps = [tramp(0x1000, 16), tramp(0x2800, 16)]
        result = group_trampolines(tramps, block_pages=1, enabled=False)
        assert len(result.groups) == len(result.blocks) == 2

    def test_mappings_point_to_admitting_group(self):
        tramps = [tramp(0x1000 + i * 0x1000 + (i % 4) * 0x400, 0x100)
                  for i in range(16)]
        result = group_trampolines(tramps, block_pages=1)
        group_contents = [g.merged_content(PAGE_SIZE) for g in result.groups]
        for block_base, gi in result.mappings():
            merged = group_contents[gi]
            block = next(b for b in result.blocks
                         if b.index * PAGE_SIZE == block_base)
            for rel, data in block.pieces:
                assert merged[rel:rel + len(data)] == data


@st.composite
def trampoline_sets(draw):
    n = draw(st.integers(1, 40))
    out = []
    for i in range(n):
        vaddr = draw(st.integers(0, 60)) * 0x400 + draw(st.integers(0, 63))
        size = draw(st.integers(1, 600))
        out.append(Trampoline(vaddr=vaddr, code=bytes([i % 251 + 1]) * size))
    # Trampolines must not overlap (the allocator guarantees this).
    out.sort(key=lambda t: t.vaddr)
    pruned = []
    cursor = -1
    for t in out:
        if t.vaddr > cursor:
            pruned.append(t)
            cursor = t.vaddr + t.size - 1
    return pruned


class TestGroupingProperties:
    @given(trampoline_sets(), st.sampled_from([1, 2, 4]))
    def test_every_trampoline_byte_preserved(self, tramps, m):
        """The merged physical block a mapping points at must contain the
        exact bytes of every trampoline in the mapped virtual block."""
        result = group_trampolines(tramps, block_pages=m)
        contents = [g.merged_content(result.block_size) for g in result.groups]
        group_of = dict(result.mappings())
        for t in tramps:
            pos = t.vaddr
            data = t.code
            while data:
                block_base = (pos // result.block_size) * result.block_size
                rel = pos - block_base
                take = min(len(data), result.block_size - rel)
                merged = contents[group_of[block_base]]
                assert merged[rel:rel + take] == data[:take]
                pos += take
                data = data[take:]

    @given(trampoline_sets(), st.sampled_from([1, 2]))
    def test_groups_partition_blocks(self, tramps, m):
        result = group_trampolines(tramps, block_pages=m)
        seen = [b.index for g in result.groups for b in g.members]
        assert sorted(seen) == sorted(b.index for b in result.blocks)
        assert len(seen) == len(set(seen))

    @given(trampoline_sets())
    def test_grouping_never_worse_than_naive(self, tramps):
        result = group_trampolines(tramps, block_pages=1)
        assert result.grouped_physical_bytes <= result.naive_physical_bytes
        assert result.mapping_count == len(result.blocks)

    @given(trampoline_sets())
    def test_group_occupancies_disjoint(self, tramps):
        result = group_trampolines(tramps, block_pages=1)
        for grp in result.groups:
            total = sum(b.occupied_bytes() for b in grp.members)
            assert grp.occupancy.bit_count() == total  # no double-booking
