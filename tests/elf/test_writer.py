"""ElfRewriter: in-place patching, appended segments, phdr relocation."""

import pytest

from repro.elf import constants as c
from repro.elf.builder import hello_world
from repro.elf.reader import ElfFile
from repro.elf.writer import AppendedSegment, ElfRewriter
from repro.errors import ElfError


def fresh():
    return ElfFile(hello_world())


class TestInPlacePatch:
    def test_patch_vaddr(self):
        elf = fresh()
        rw = ElfRewriter(elf)
        rw.patch_vaddr(0x401000, b"\xcc\xcc")
        out = rw.finalize(phdr_vaddr=0)
        assert out[0x1000:0x1002] == b"\xcc\xcc"
        assert len(out) == len(elf.data)  # nothing appended

    def test_patch_beyond_file_rejected(self):
        rw = ElfRewriter(fresh())
        with pytest.raises(ElfError):
            rw.patch_offset(10**9, b"\x00")

    def test_overlapping_patches_apply_in_order(self):
        """Patches are applied in the order they were made, a later one
        winning where two overlap, also across earlier patches' edges
        and over the ELF header that finalize rewrites last."""
        import random

        elf = fresh()
        rng = random.Random(5)
        for round_ in range(40):
            rw = ElfRewriter(elf)
            want = bytearray(elf.data)
            for _ in range(rng.randrange(1, 12)):
                off = rng.randrange(0, len(elf.data) - 1)
                n = rng.randrange(1, min(300, len(elf.data) - off) + 1)
                data = bytearray(rng.randbytes(n))  # bytearrays too
                rw.patch_offset(off, data)
                want[off:off + n] = data
            if round_ % 2:
                rw.set_entry(0x700000)  # finalize then rewrites the header
                out = rw.finalize(phdr_vaddr=0x7F0000)
                assert out[c.EHDR_SIZE:len(want)] == want[c.EHDR_SIZE:]
                assert ElfFile(out).entry == 0x700000
            else:
                assert rw.finalize(phdr_vaddr=0) == want

    def test_original_untouched(self):
        elf = fresh()
        rw = ElfRewriter(elf)
        rw.patch_vaddr(0x401000, b"\xcc")
        rw.finalize(phdr_vaddr=0)
        assert elf.data[0x1000] != 0xCC


class TestAppend:
    def test_appended_segment_parses_back(self):
        elf = fresh()
        rw = ElfRewriter(elf)
        payload = b"\x90" * 100
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=payload))
        out = ElfFile(rw.finalize(phdr_vaddr=0x6FF000))
        # New PT_LOAD for the payload + one for the phdr table.
        assert len(out.phdrs) == len(elf.phdrs) + 2
        seg = [p for p in out.phdrs if p.vaddr == 0x700000]
        assert len(seg) == 1
        assert out.data[seg[0].offset:seg[0].offset + 100] == payload
        # Congruence for the kernel mapper.
        assert seg[0].offset % c.PAGE_SIZE == seg[0].vaddr % c.PAGE_SIZE

    def test_phdr_table_covered_by_load(self):
        elf = fresh()
        rw = ElfRewriter(elf)
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=b"\x90"))
        out = ElfFile(rw.finalize(phdr_vaddr=0x6FF000))
        covering = [p for p in out.phdrs
                    if p.type == c.PT_LOAD and p.contains_offset(out.ehdr.phoff)]
        assert covering, "phdr table must live inside a PT_LOAD"

    def test_memsz_bss(self):
        rw = ElfRewriter(fresh())
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=b"x",
                                          memsz=0x2000))
        out = ElfFile(rw.finalize(phdr_vaddr=0x7F0000))
        seg = [p for p in out.phdrs if p.vaddr == 0x700000][0]
        assert seg.filesz == 1 and seg.memsz == 0x2000

    def test_memsz_smaller_than_data_rejected(self):
        with pytest.raises(ElfError):
            AppendedSegment(vaddr=0x700000, data=b"xy", memsz=1)

    def test_entry_update(self):
        rw = ElfRewriter(fresh())
        rw.set_entry(0x700000)
        out = ElfFile(rw.finalize(phdr_vaddr=0x7F0000))
        assert out.entry == 0x700000

    def test_blob_offsets_deterministic(self):
        rw = ElfRewriter(fresh())
        off1 = rw.append_blob(b"\xaa" * 100)
        off2 = rw.append_blob(b"\xbb" * 5000)
        out = rw.finalize(phdr_vaddr=0x7F0000)
        assert off1 % c.PAGE_SIZE == 0
        assert off2 % c.PAGE_SIZE == 0
        assert out[off1:off1 + 100] == b"\xaa" * 100
        assert out[off2:off2 + 5000] == b"\xbb" * 5000

    def test_existing_offsets_never_move(self):
        elf = fresh()
        rw = ElfRewriter(elf)
        rw.append_blob(b"z" * 10)
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=b"\x90" * 64))
        out = rw.finalize(phdr_vaddr=0x7F0000)
        # Pure append: everything after the (necessarily updated) ELF
        # header keeps its offset and content.
        assert out[c.EHDR_SIZE : len(elf.data)] == elf.data[c.EHDR_SIZE :]

    def test_pt_phdr_updated(self):
        # Build a file with a PT_PHDR entry first.
        elf = fresh()

        from repro.elf.structs import Phdr

        phdr_entry = Phdr(type=c.PT_PHDR, flags=c.PF_R,
                          offset=elf.ehdr.phoff, vaddr=0x400000 + elf.ehdr.phoff,
                          paddr=0, filesz=elf.ehdr.phnum * c.PHDR_SIZE,
                          memsz=elf.ehdr.phnum * c.PHDR_SIZE, align=8)
        # Splice it in manually by rebuilding the phdr table in place is
        # overkill; instead check behaviour through a synthetic ElfFile.
        raw = bytearray(elf.data)
        # Overwrite the PT_GNU_STACK entry (last) with PT_PHDR.
        idx = elf.ehdr.phnum - 1
        off = elf.ehdr.phoff + idx * c.PHDR_SIZE
        raw[off:off + c.PHDR_SIZE] = phdr_entry.pack()
        elf2 = ElfFile(bytes(raw))
        rw = ElfRewriter(elf2)
        rw.append_segment(AppendedSegment(vaddr=0x700000, data=b"\x90"))
        out = ElfFile(rw.finalize(phdr_vaddr=0x7F0000))
        updated = [p for p in out.phdrs if p.type == c.PT_PHDR][0]
        assert updated.vaddr == 0x7F0000
        assert updated.offset == out.ehdr.phoff
        assert updated.filesz == out.ehdr.phnum * c.PHDR_SIZE
