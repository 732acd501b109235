"""Physical page grouping (paper Section 4).

Trampolines are scattered over virtual pages by pun constraints, so a
naive one-to-one physical mapping wastes enormous amounts of file/RAM
space.  Physical page grouping partitions virtual *blocks* (M consecutive
pages) into groups whose trampoline extents are disjoint relative to the
block base; each group is merged into a single physical block that is
mapped at every member's virtual address (one-to-many).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trampoline import Trampoline

PAGE_SIZE = 4096
# Linux default vm.max_map_count; the paper notes M>=64 keeps the number
# of mappings below this limit for a single binary.
DEFAULT_MAX_MAP_COUNT = 65536


@dataclass
class BlockOccupancy:
    """Trampoline bytes falling inside one virtual block."""

    index: int  # block number = vaddr // block_size
    pieces: list[tuple[int, bytes]] = field(default_factory=list)  # (rel_off, data)

    def mask(self) -> int:
        """The occupied block-relative bytes as a bit mask."""
        mask = 0
        for rel, data in self.pieces:
            mask |= ((1 << len(data)) - 1) << rel
        return mask

    def occupied_bytes(self) -> int:
        return self.mask().bit_count()


@dataclass
class Group:
    """A set of blocks with pairwise-disjoint occupancy, merged into one
    physical block."""

    members: list[BlockOccupancy] = field(default_factory=list)
    #: The members' occupied bytes as one mask: a block fits exactly
    #: when its mask shares no bit with it.
    occupancy: int = 0

    def admit(self, block: BlockOccupancy, mask: int) -> None:
        self.members.append(block)
        self.occupancy |= mask

    def merged_content(self, block_size: int) -> bytes:
        buf = bytearray(block_size)
        for block in self.members:
            for rel, data in block.pieces:
                buf[rel : rel + len(data)] = data
        return bytes(buf)


@dataclass
class GroupingResult:
    """Outcome of the partitioning, with the paper's space metrics."""

    block_pages: int
    blocks: list[BlockOccupancy]
    groups: list[Group]

    @property
    def block_size(self) -> int:
        return self.block_pages * PAGE_SIZE

    @property
    def naive_physical_bytes(self) -> int:
        """File/RAM bytes under a one-to-one physical mapping."""
        return len(self.blocks) * self.block_size

    @property
    def grouped_physical_bytes(self) -> int:
        return len(self.groups) * self.block_size

    @property
    def mapping_count(self) -> int:
        """One mmap per member block (the one-to-many fan-out)."""
        return len(self.blocks)

    @property
    def savings_ratio(self) -> float:
        naive = self.naive_physical_bytes
        return 1.0 - self.grouped_physical_bytes / naive if naive else 0.0

    def mappings(self) -> list[tuple[int, int]]:
        """(virtual block base, group index) pairs, one per mapping."""
        group_of = {}
        for gi, grp in enumerate(self.groups):
            for block in grp.members:
                group_of[block.index] = gi
        return [
            (b.index * self.block_size, group_of[b.index]) for b in self.blocks
        ]


def split_into_blocks(
    trampolines: list[Trampoline], block_pages: int
) -> list[BlockOccupancy]:
    """Slice trampoline extents at block boundaries.

    Trampolines spanning a boundary become two "mini-trampolines" in two
    blocks, as described in the paper.
    """
    block_size = block_pages * PAGE_SIZE
    blocks: dict[int, BlockOccupancy] = {}
    for tramp in trampolines:
        vaddr, data = tramp.vaddr, tramp.code
        while data:
            # Use floor division (not %) so negative PIE link addresses
            # slice consistently.
            index = vaddr // block_size
            rel = vaddr - index * block_size
            take = min(len(data), block_size - rel)
            block = blocks.get(index)
            if block is None:
                block = blocks[index] = BlockOccupancy(index=index)
            block.pieces.append((rel, data[:take]))
            vaddr += take
            data = data[take:]
    return [blocks[i] for i in sorted(blocks)]


def group_blocks(
    blocks: list[BlockOccupancy], block_pages: int = 1
) -> GroupingResult:
    """Greedy first-fit partition (the paper's "simple greedy algorithm").

    Blocks are visited densest-first so heavy blocks seed groups and light
    blocks fill their holes.
    """
    groups: list[Group] = []
    # Masks live only for the sort and the admissions: one stored on
    # every block would stay resident until emission.
    masked = sorted(((block.mask(), block) for block in blocks),
                    key=lambda mb: -mb[0].bit_count())
    for mask, block in masked:
        for grp in groups:
            if not grp.occupancy & mask:
                break
        else:
            grp = Group()
            groups.append(grp)
        grp.admit(block, mask)
    return GroupingResult(block_pages=block_pages, blocks=list(blocks), groups=groups)


def group_trampolines(
    trampolines: list[Trampoline], block_pages: int = 1, *, enabled: bool = True
) -> GroupingResult:
    """End-to-end: slice into blocks then partition.

    With ``enabled=False`` every block is its own group (the naive
    one-to-one mapping used for the paper's ablation).
    """
    blocks = split_into_blocks(trampolines, block_pages)
    if enabled:
        return group_blocks(blocks, block_pages)
    groups = []
    for block in blocks:
        grp = Group()
        grp.admit(block, block.mask())
        groups.append(grp)
    return GroupingResult(block_pages=block_pages, blocks=blocks, groups=groups)
