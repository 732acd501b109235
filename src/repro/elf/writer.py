"""In-place ELF rewriting with appended segments (paper Section 5.1).

The rewriter never moves existing file data: code bytes are patched in
place, and all new data (trampolines, loader tables, the relocated
program-header table) is appended to the end of the file.  The program
header table must grow, so it is moved to the end of the file inside a
new PT_LOAD segment — the standard trick (also used by patchelf and
E9Patch): the Linux kernel locates the table through the PT_LOAD segment
that covers ``e_phoff``, and ``PT_PHDR`` is updated for the dynamic
linker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.errors import ElfError
from repro.elf import constants as c
from repro.elf.reader import ElfFile
from repro.elf.structs import Ehdr, Phdr


@dataclass
class AppendedSegment:
    """New data to be appended and mapped at *vaddr*."""

    vaddr: int
    data: bytes
    flags: int = c.PF_R | c.PF_X
    memsz: int | None = None  # defaults to len(data)

    def __post_init__(self) -> None:
        if self.memsz is None:
            self.memsz = len(self.data)
        if self.memsz < len(self.data):
            raise ElfError("memsz smaller than segment data")


@dataclass
class ElfRewriter:
    """Accumulates in-place patches and appended segments, then emits.

    Usage::

        rw = ElfRewriter(elf)
        rw.patch_vaddr(0x401000, b"\\xe9...")
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=tramp))
        out = rw.finalize(phdr_vaddr=0x6ff000)
    """

    elf: ElfFile
    patches: list[tuple[int, bytes]] = field(default_factory=list)
    segments: list[AppendedSegment] = field(default_factory=list)
    blobs: list[bytes] = field(default_factory=list)
    new_entry: int | None = None

    def append_blob(self, data: bytes) -> int:
        """Append raw page-aligned file data with **no** program header.

        Used for the merged physical blocks in loader mode — they are
        mapped manually by the injected loader stub, not by the kernel.
        Returns the (deterministic) file offset the blob will occupy:
        blobs are laid out first, page-aligned, right after the original
        file contents.
        """
        end = len(self.elf.data)
        end = (end + c.PAGE_SIZE - 1) & ~(c.PAGE_SIZE - 1)
        for blob in self.blobs:
            end += (len(blob) + c.PAGE_SIZE - 1) & ~(c.PAGE_SIZE - 1)
        self.blobs.append(data)
        return end

    def patch_vaddr(self, vaddr: int, data: bytes) -> None:
        """Overwrite bytes at *vaddr* (must be file-backed)."""
        off = self.elf.vaddr_to_offset(vaddr)
        end = self.elf.vaddr_to_offset(vaddr + len(data) - 1)
        if end != off + len(data) - 1:
            raise ElfError(f"patch at {vaddr:#x} crosses a segment boundary")
        self.patches.append((off, data))

    def patch_offset(self, offset: int, data: bytes) -> None:
        if offset + len(data) > len(self.elf.data):
            raise ElfError("patch beyond end of file")
        self.patches.append((offset, data))

    def append_segment(self, seg: AppendedSegment) -> None:
        self.segments.append(seg)

    def set_entry(self, vaddr: int) -> None:
        self.new_entry = vaddr

    # -- emission ---------------------------------------------------------------

    def finalize(self, phdr_vaddr: int) -> bytes:
        """Emit the rewritten ELF image.

        *phdr_vaddr* is the virtual address at which the relocated program
        header table will be mapped; the caller must pick an address that
        does not collide with any existing or appended segment.

        The output is joined once from the input's untouched spans, the
        patches (read now; a later one wins where two overlap) and the
        appended data, so each output byte is copied once.
        """
        starts, pieces = [0], [memoryview(self.elf.data)]
        for off, data in self.patches:
            _overlay(starts, pieces, off, memoryview(data))
        size = len(self.elf.data)

        def put(data: bytes) -> int:  # append; returns the file offset
            nonlocal size
            pieces.append(data)
            size += len(data)
            return size - len(data)

        if self.blobs:
            put(bytes((-size) % c.PAGE_SIZE))
            for blob in self.blobs:
                put(blob)
                put(bytes((-len(blob)) % c.PAGE_SIZE))

        if not self.segments and self.new_entry is None and not self.blobs:
            return b"".join(pieces)

        # New phdr table: existing entries + one per appended segment +
        # one PT_LOAD covering the relocated table itself.
        nseg = len(self.segments)
        new_phnum = self.elf.ehdr.phnum + nseg + 1
        table_size = new_phnum * c.PHDR_SIZE

        # Layout: append each segment at a file offset congruent to its
        # vaddr modulo the page size, then the phdr table likewise.
        def pad_to_congruence(vaddr: int) -> None:
            put(bytes((vaddr - size) % c.PAGE_SIZE))

        seg_offsets: list[int] = []
        for seg in self.segments:
            pad_to_congruence(seg.vaddr)
            seg_offsets.append(put(seg.data))

        pad_to_congruence(phdr_vaddr)
        phdr_off = size

        phdrs: list[Phdr] = []
        for p in self.elf.phdrs:
            q = Phdr(**vars(p))
            if q.type == c.PT_PHDR:
                q.offset = phdr_off
                q.vaddr = phdr_vaddr
                q.paddr = phdr_vaddr
                q.filesz = table_size
                q.memsz = table_size
            phdrs.append(q)
        new_loads = [
            Phdr(
                type=c.PT_LOAD,
                flags=seg.flags,
                offset=off,
                vaddr=seg.vaddr,
                paddr=seg.vaddr,
                filesz=len(seg.data),
                memsz=seg.memsz or len(seg.data),
                align=c.PAGE_SIZE,
            )
            for seg, off in zip(self.segments, seg_offsets)
        ]
        new_loads.append(
            Phdr(
                type=c.PT_LOAD,
                flags=c.PF_R,
                offset=phdr_off,
                vaddr=phdr_vaddr,
                paddr=phdr_vaddr,
                filesz=table_size,
                memsz=table_size,
                align=c.PAGE_SIZE,
            )
        )
        # Program loaders require PT_LOAD entries in ascending vaddr
        # order (and mapping order resolves overlaps: later entries
        # overlay earlier reservations).  Sort stably so a zero-fill
        # reservation starting at the same page as a real segment is
        # mapped first.
        new_loads.sort(key=lambda p: (p.vaddr, -p.memsz))
        phdrs.extend(new_loads)
        table = b"".join(p.pack() for p in phdrs)
        assert len(table) == table_size
        put(table)

        head = pieces[: bisect_left(starts, c.EHDR_SIZE)]
        ehdr = Ehdr.unpack(b"".join(p[: c.EHDR_SIZE] for p in head)[: c.EHDR_SIZE])
        ehdr.phoff = phdr_off
        ehdr.phnum = new_phnum
        if self.new_entry is not None:
            ehdr.entry = self.new_entry
        _overlay(starts, pieces, 0, memoryview(ehdr.pack()))
        return b"".join(pieces)


def _overlay(starts: list[int], pieces: list, off: int, data) -> None:
    """Replace bytes ``[off, off + len(data))`` of the file held as
    *pieces* (contiguous from 0, piece ``k`` starting at ``starts[k]``)
    with *data*, cutting the pieces it meets.  A cut may leave an empty
    piece, always just before the piece sharing its start."""
    end = off + len(data)
    i = bisect_right(starts, off) - 1
    j = bisect_left(starts, end)  # pieces [i, j) meet [off, end)
    head = pieces[i][: off - starts[i]]
    tail = pieces[j - 1][end - starts[j - 1] :]
    starts[i:j] = [starts[i], off, end]
    pieces[i:j] = [head, data, tail]
