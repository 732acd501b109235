"""ELF64 reader: headers, segments, sections, and vaddr<->offset mapping."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ElfError
from repro.elf import constants as c
from repro.elf.structs import Ehdr, Phdr, Shdr


@dataclass
class Segment:
    """A program header plus convenience accessors."""

    phdr: Phdr
    index: int

    @property
    def executable(self) -> bool:
        return bool(self.phdr.flags & c.PF_X)

    @property
    def writable(self) -> bool:
        return bool(self.phdr.flags & c.PF_W)


@dataclass
class Section:
    """A section header plus its resolved name."""

    shdr: Shdr
    name: str
    index: int

    @property
    def vaddr(self) -> int:
        return self.shdr.addr

    @property
    def offset(self) -> int:
        return self.shdr.offset

    @property
    def size(self) -> int:
        return self.shdr.size

    @property
    def executable(self) -> bool:
        return bool(self.shdr.flags & c.SHF_EXECINSTR)


class ElfFile:
    """A parsed ELF64 file backed by its raw bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self.ehdr = Ehdr.unpack(self.data)
        if self.ehdr.machine != c.EM_X86_64:
            raise ElfError(f"unsupported machine {self.ehdr.machine}")
        self.phdrs: list[Phdr] = []
        for i in range(self.ehdr.phnum):
            off = self.ehdr.phoff + i * c.PHDR_SIZE
            if off + c.PHDR_SIZE > len(self.data):
                raise ElfError("program header table out of bounds")
            self.phdrs.append(Phdr.unpack(self.data, off))
        self.shdrs: list[Shdr] = []
        if self.ehdr.shoff and self.ehdr.shnum:
            for i in range(self.ehdr.shnum):
                off = self.ehdr.shoff + i * c.SHDR_SIZE
                if off + c.SHDR_SIZE > len(self.data):
                    raise ElfError("section header table out of bounds")
                self.shdrs.append(Shdr.unpack(self.data, off))
        self._sections = self._resolve_sections()
        self._cet: bool | None = None  # is_cet_enabled() result

    @classmethod
    def from_path(cls, path: str) -> "ElfFile":
        with open(path, "rb") as f:
            return cls(f.read())

    # -- basic properties -----------------------------------------------------

    @property
    def is_pie(self) -> bool:
        """True for position-independent executables / shared objects."""
        return self.ehdr.type == c.ET_DYN

    @property
    def elf_type(self) -> str:
        """The e_type as its standard name (``"ET_EXEC"``/``"ET_DYN"``)."""
        return {c.ET_EXEC: "ET_EXEC", c.ET_DYN: "ET_DYN"}.get(
            self.ehdr.type, f"ET_{self.ehdr.type:#x}"
        )

    @property
    def is_shared_object(self) -> bool:
        """True for ET_DYN objects carrying a PT_DYNAMIC segment (a PIE
        executable is also ET_DYN + PT_DYNAMIC; the distinction the
        rewriter cares about is ET_DYN-ness, not executability)."""
        return self.ehdr.type == c.ET_DYN and any(
            p.type == c.PT_DYNAMIC for p in self.phdrs
        )

    @property
    def entry(self) -> int:
        return self.ehdr.entry

    def load_segments(self) -> list[Segment]:
        return [
            Segment(p, i)
            for i, p in enumerate(self.phdrs)
            if p.type == c.PT_LOAD
        ]

    @property
    def image_end(self) -> int:
        """Highest vaddr used by any PT_LOAD segment (memsz included)."""
        end = 0
        for p in self.phdrs:
            if p.type == c.PT_LOAD:
                end = max(end, p.vaddr + p.memsz)
        return end

    @property
    def image_base(self) -> int:
        """Lowest vaddr of any PT_LOAD segment."""
        bases = [p.vaddr for p in self.phdrs if p.type == c.PT_LOAD]
        return min(bases) if bases else 0

    # -- sections -------------------------------------------------------------

    def _resolve_sections(self) -> list[Section]:
        sections: list[Section] = []
        if not self.shdrs:
            return sections
        strndx = self.ehdr.shstrndx
        if strndx >= len(self.shdrs):
            return sections
        strtab = self.shdrs[strndx]
        names = self.data[strtab.offset : strtab.offset + strtab.size]
        for i, sh in enumerate(self.shdrs):
            end = names.find(b"\x00", sh.name)
            name = names[sh.name : end if end >= 0 else None].decode(
                "utf-8", "replace"
            )
            sections.append(Section(sh, name, i))
        return sections

    @property
    def sections(self) -> list[Section]:
        return self._sections

    def section(self, name: str) -> Section | None:
        for sec in self._sections:
            if sec.name == name:
                return sec
        return None

    def section_bytes(self, name: str) -> bytes:
        sec = self.section(name)
        if sec is None:
            raise ElfError(f"no section named {name!r}")
        if sec.shdr.type == c.SHT_NOBITS:
            return b"\x00" * sec.size
        return self.data[sec.offset : sec.offset + sec.size]

    def section_view(self, name: str) -> memoryview:
        """Zero-copy read-only view of the named section's file bytes.

        Unlike :meth:`section_bytes` this never copies: the view aliases
        the loaded image, which is immutable for the lifetime of this
        reader.  NOBITS sections (no file bytes) still fall back to a
        zero buffer.
        """
        sec = self.section(name)
        if sec is None:
            raise ElfError(f"no section named {name!r}")
        if sec.shdr.type == c.SHT_NOBITS:
            return memoryview(b"\x00" * sec.size)
        return memoryview(self.data)[sec.offset : sec.offset + sec.size]

    # -- CET / IBT detection -----------------------------------------------------

    def _note_regions(self) -> list[bytes]:
        """Raw byte ranges that may hold ELF notes: every SHT_NOTE
        section plus every PT_NOTE segment (stripped binaries keep the
        segment even when the section table is gone)."""
        regions = []
        for sec in self._sections:
            if sec.shdr.type == c.SHT_NOTE and sec.size:
                regions.append(self.data[sec.offset : sec.offset + sec.size])
        for p in self.phdrs:
            if p.type == c.PT_NOTE and p.filesz:
                regions.append(self.data[p.offset : p.offset + p.filesz])
        return regions

    @property
    def has_ibt_note(self) -> bool:
        """True when a ``.note.gnu.property`` note advertises IBT
        (GNU_PROPERTY_X86_FEATURE_1_AND with the IBT bit set)."""
        for region in self._note_regions():
            if self._ibt_in_notes(region):
                return True
        return False

    @staticmethod
    def _ibt_in_notes(region: bytes) -> bool:
        """Walk one note region looking for the x86 feature property."""
        import struct

        off = 0
        while off + 12 <= len(region):
            namesz, descsz, ntype = struct.unpack_from("<III", region, off)
            off += 12
            name = region[off : off + namesz]
            off += (namesz + 3) & ~3
            desc = region[off : off + descsz]
            off += (descsz + 3) & ~3
            if ntype != c.NT_GNU_PROPERTY_TYPE_0 or name != b"GNU\x00":
                continue
            # desc: a sequence of (pr_type u32, pr_datasz u32, data...)
            # entries, each padded to 8 bytes on ELF64.
            p = 0
            while p + 8 <= len(desc):
                pr_type, pr_datasz = struct.unpack_from("<II", desc, p)
                p += 8
                data = desc[p : p + pr_datasz]
                p += (pr_datasz + 7) & ~7
                if (pr_type == c.GNU_PROPERTY_X86_FEATURE_1_AND
                        and len(data) >= 4):
                    features = int.from_bytes(data[:4], "little")
                    if features & c.GNU_PROPERTY_X86_FEATURE_1_IBT:
                        return True
        return False

    def is_cet_enabled(self) -> bool:
        """Best-effort CET/IBT detection, computed once per reader.

        The authoritative signal is the GNU property note; toolchains
        exist (this container's binutils among them) that emit endbr64
        instructions under ``-fcf-protection`` without writing the note,
        so fall back to scanning executable segments for any endbr64
        byte pattern (in place: no segment copy).  False positives from
        data-in-text are harmless: they only make the rewriter more
        conservative.
        """
        if self._cet is None:
            self._cet = self.has_ibt_note or any(
                self.data.find(c.ENDBR64, p.offset, p.offset + p.filesz) >= 0
                for p in self.phdrs
                if p.type == c.PT_LOAD and p.flags & c.PF_X
            )
        return self._cet

    # -- address translation ----------------------------------------------------

    def vaddr_to_offset(self, vaddr: int) -> int:
        """Translate a virtual address to a file offset via PT_LOAD."""
        for p in self.phdrs:
            if p.type == c.PT_LOAD and p.vaddr <= vaddr < p.vaddr + p.filesz:
                return p.offset + (vaddr - p.vaddr)
        raise ElfError(f"vaddr {vaddr:#x} not backed by any PT_LOAD segment")

    def offset_to_vaddr(self, offset: int) -> int:
        for p in self.phdrs:
            if p.type == c.PT_LOAD and p.contains_offset(offset):
                return p.vaddr + (offset - p.offset)
        raise ElfError(f"offset {offset:#x} not inside any PT_LOAD segment")

    def read_vaddr(self, vaddr: int, size: int) -> bytes:
        off = self.vaddr_to_offset(vaddr)
        return self.data[off : off + size]

    def exec_ranges(self) -> list[tuple[int, int]]:
        """Virtual [start, end) ranges of executable PT_LOAD segments."""
        return [
            (p.vaddr, p.vaddr + p.memsz)
            for p in self.phdrs
            if p.type == c.PT_LOAD and p.flags & c.PF_X
        ]
