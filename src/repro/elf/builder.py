"""Build minimal static x86-64 ELF executables from scratch.

Used by tests and examples to create fully controlled input binaries that
run natively on Linux (no libc, direct syscalls).  Supports both non-PIE
(ET_EXEC at a fixed low base, the paper's "hard" case) and PIE (ET_DYN)
layouts, plus a shared-object mode (``shared=True``) that adds the
dynamic machinery a loader-mode rewrite needs to hijack: a writable
``.dynamic`` array with ``DT_INIT``, a ``.dynsym``/``.dynstr`` export
table, ``.gnu.hash``, and a ``PT_DYNAMIC`` segment.  ``cet_note=True``
additionally embeds a ``.note.gnu.property`` advertising IBT, matching
what ``gcc -fcf-protection`` produces on note-emitting toolchains.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.elf import constants as c
from repro.elf import dynamic as d
from repro.elf.structs import Ehdr, Phdr, Shdr
from repro.x86.encoder import Assembler

NONPIE_BASE = 0x400000
HEADER_ROOM = 0x1000  # ehdr + phdrs (+ property note) fit in the first page


def gnu_hash(name: bytes) -> int:
    """The GNU symbol-hash function (dl-new-hash)."""
    h = 5381
    for b in name:
        h = (h * 33 + b) & 0xFFFFFFFF
    return h


def build_gnu_property_note(features: int = c.GNU_PROPERTY_X86_FEATURE_1_IBT) -> bytes:
    """A ``.note.gnu.property`` blob advertising x86 feature bits."""
    desc = struct.pack(
        "<II4s4x", c.GNU_PROPERTY_X86_FEATURE_1_AND, 4,
        features.to_bytes(4, "little"),
    )
    return struct.pack(
        "<III4s", 4, len(desc), c.NT_GNU_PROPERTY_TYPE_0, b"GNU\x00"
    ) + desc


@dataclass
class TinyProgram:
    """A tiny static executable under construction.

    The caller provides machine code through an :class:`Assembler` rooted
    at the text virtual address, plus optional data blobs placed in a
    read-write segment.  ``build()`` returns a runnable ELF image.

    >>> prog = TinyProgram()
    >>> a = prog.text
    >>> a.mov_imm32(0, 60 & 0xffffffff)  # doctest: +SKIP
    """

    pie: bool = False
    base: int = NONPIE_BASE
    data_blobs: list[tuple[str, bytes]] = field(default_factory=list)
    bss_size: int = 0
    # Extra anonymous read-write PT_LOAD segments: (vaddr, memsz).  Used
    # e.g. to pre-map the low-fat heap regions so hardened workloads run
    # both natively and in the VM.
    extra_segments: list[tuple[int, int]] = field(default_factory=list)
    #: Shared-object mode: ET_DYN with PT_DYNAMIC, .dynamic (DT_INIT at
    #: the text entry), .dynsym/.dynstr exports and .gnu.hash.
    shared: bool = False
    #: Embed a .note.gnu.property advertising IBT (CET marker).
    cet_note: bool = False
    #: DT_INIT target; defaults to the text entry point.
    init_vaddr: int | None = None
    #: Exported (name, vaddr) pairs for .dynsym; defaults to a single
    #: "_repro_init" export at the init target.
    export_symbols: list[tuple[str, int]] = field(default_factory=list)
    _text: Assembler | None = None

    def __post_init__(self) -> None:
        if self.shared:
            self.pie = True
        if self.pie:
            self.base = 0
        self._text = Assembler(base=self.text_vaddr)

    @property
    def text_vaddr(self) -> int:
        return self.base + HEADER_ROOM

    @property
    def text(self) -> Assembler:
        assert self._text is not None
        return self._text

    def add_data(self, name: str, data: bytes) -> int:
        """Add a named blob to the data segment; returns its vaddr."""
        addr = self._data_vaddr() + sum(
            (len(d) + 7) & ~7 for _, d in self.data_blobs
        )
        self.data_blobs.append((name, data))
        return addr

    def data_vaddr(self, name: str) -> int:
        addr = self._data_vaddr()
        for blob_name, data in self.data_blobs:
            if blob_name == name:
                return addr
            addr += (len(data) + 7) & ~7
        raise KeyError(name)

    def _data_vaddr(self) -> int:
        # The data segment starts on the page after the (padded) text.
        text_end = self.text_vaddr + max(len(self.text.buf), 1)
        return (text_end + c.PAGE_SIZE - 1) & ~(c.PAGE_SIZE - 1)

    # -- common code fragments ----------------------------------------------

    def emit_exit(self, code: int) -> None:
        """exit(code) via syscall."""
        a = self.text
        a.mov_imm32(7, code)  # mov edi, code
        a.mov_imm32(0, c.SYS_EXIT)  # mov eax, 60
        a.syscall()

    # -- emission -------------------------------------------------------------

    def _dynamic_machinery(
        self, data_len: int, data_vaddr: int
    ) -> tuple[bytes, dict[str, tuple[int, int]]]:
        """Build .dynstr/.dynsym/.gnu.hash/.dynamic image bytes appended
        to the data segment at *data_len*; returns (bytes, name ->
        (segment offset, size)) for the program/section headers."""
        init = self.init_vaddr if self.init_vaddr is not None else self.text_vaddr
        exports = self.export_symbols or [("_repro_init", init)]

        dynstr = bytearray(b"\x00")
        name_offs = []
        for name, _ in exports:
            name_offs.append(len(dynstr))
            dynstr.extend(name.encode() + b"\x00")

        # Null symbol + one GLOBAL FUNC per export, defined in .text (1).
        # Extents span to the next export (or text end), the way a real
        # linker records them — symbol-table consumers drop zero-sized
        # entries.
        text_end = self.text_vaddr + len(self.text.buf)
        svaddrs = sorted(v for _, v in exports)
        ends = {v: (svaddrs[i + 1] if i + 1 < len(svaddrs) else text_end)
                for i, v in enumerate(svaddrs)}
        dynsym = bytearray(struct.pack("<IBBHQQ", 0, 0, 0, 0, 0, 0))
        for (name, vaddr), noff in zip(exports, name_offs):
            size = max(1, ends.get(vaddr, text_end) - vaddr)
            dynsym.extend(struct.pack("<IBBHQQ", noff, 0x12, 0, 1,
                                      vaddr, size))

        # A one-bucket GNU hash table: every export chains from bucket 0
        # in dynsym order; the last chain entry carries the stop bit.
        hashes = [gnu_hash(name.encode()) for name, _ in exports]
        chain = [h & ~1 for h in hashes]
        if chain:
            chain[-1] = hashes[-1] | 1
        gnuhash = struct.pack("<IIII", 1, 1, 1, 6)
        gnuhash += (0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")  # bloom: pass
        gnuhash += struct.pack("<I", 1 if exports else 0)
        gnuhash += b"".join(struct.pack("<I", h) for h in chain)

        blob = bytearray()
        layout: dict[str, tuple[int, int]] = {}

        def place(name: str, payload: bytes) -> int:
            blob.extend(b"\x00" * ((-len(blob)) % 8))
            off = data_len + len(blob)
            layout[name] = (off, len(payload))
            blob.extend(payload)
            return data_vaddr + off

        str_vaddr = place(".dynstr", bytes(dynstr))
        sym_vaddr = place(".dynsym", bytes(dynsym))
        hash_vaddr = place(".gnu.hash", gnuhash)
        dyn = b"".join(
            struct.pack("<qQ", tag, value)
            for tag, value in (
                (d.DT_INIT, init),
                (d.DT_GNU_HASH, hash_vaddr),
                (d.DT_STRTAB, str_vaddr),
                (d.DT_SYMTAB, sym_vaddr),
                (d.DT_STRSZ, len(dynstr)),
                (d.DT_SYMENT, 24),
                (d.DT_NULL, 0),
            )
        )
        place(".dynamic", dyn)
        return bytes(blob), layout

    def build(self) -> bytes:
        """Assemble the final ELF image."""
        text_bytes = self.text.bytes()

        data_bytes = bytearray()
        for _, blob in self.data_blobs:
            data_bytes.extend(blob)
            pad = (-len(data_bytes)) % 8
            data_bytes.extend(b"\x00" * pad)

        text_off = HEADER_ROOM
        text_vaddr = self.text_vaddr
        data_off = (text_off + len(text_bytes) + c.PAGE_SIZE - 1) & ~(
            c.PAGE_SIZE - 1
        )
        data_vaddr = self._data_vaddr()

        dyn_layout: dict[str, tuple[int, int]] = {}
        if self.shared:
            dyn_blob, dyn_layout = self._dynamic_machinery(
                len(data_bytes), data_vaddr
            )
            data_bytes.extend(dyn_blob)

        phdrs = [
            Phdr(  # headers (read-only)
                type=c.PT_LOAD, flags=c.PF_R, offset=0, vaddr=self.base,
                paddr=self.base, filesz=HEADER_ROOM, memsz=HEADER_ROOM,
                align=c.PAGE_SIZE,
            ),
            Phdr(  # text
                type=c.PT_LOAD, flags=c.PF_R | c.PF_X, offset=text_off,
                vaddr=text_vaddr, paddr=text_vaddr,
                filesz=len(text_bytes), memsz=len(text_bytes),
                align=c.PAGE_SIZE,
            ),
        ]
        have_data = bool(data_bytes) or self.bss_size
        if have_data:
            phdrs.append(
                Phdr(
                    type=c.PT_LOAD, flags=c.PF_R | c.PF_W, offset=data_off,
                    vaddr=data_vaddr, paddr=data_vaddr,
                    filesz=len(data_bytes),
                    memsz=len(data_bytes) + self.bss_size,
                    align=c.PAGE_SIZE,
                )
            )
        if self.shared:
            dyn_off, dyn_size = dyn_layout[".dynamic"]
            phdrs.append(
                Phdr(
                    type=c.PT_DYNAMIC, flags=c.PF_R | c.PF_W,
                    offset=data_off + dyn_off, vaddr=data_vaddr + dyn_off,
                    paddr=data_vaddr + dyn_off,
                    filesz=dyn_size, memsz=dyn_size, align=8,
                )
            )
        for seg_vaddr, seg_memsz in self.extra_segments:
            phdrs.append(
                Phdr(
                    type=c.PT_LOAD, flags=c.PF_R | c.PF_W,
                    offset=seg_vaddr % c.PAGE_SIZE,  # congruence, no file bytes
                    vaddr=seg_vaddr, paddr=seg_vaddr,
                    filesz=0, memsz=seg_memsz, align=c.PAGE_SIZE,
                )
            )
        phdrs.append(
            Phdr(  # non-executable stack
                type=c.PT_GNU_STACK, flags=c.PF_R | c.PF_W, offset=0,
                vaddr=0, paddr=0, filesz=0, memsz=0, align=16,
            )
        )
        note = b""
        if self.cet_note:
            note = build_gnu_property_note()
            phdrs.append(
                Phdr(  # placeholder; offset patched once phnum is final
                    type=c.PT_NOTE, flags=c.PF_R, offset=0, vaddr=0,
                    paddr=0, filesz=len(note), memsz=len(note), align=8,
                )
            )
        note_off = (c.EHDR_SIZE + len(phdrs) * c.PHDR_SIZE + 7) & ~7
        if note:
            phdrs[-1].offset = note_off
            phdrs[-1].vaddr = phdrs[-1].paddr = self.base + note_off

        # Section headers — so frontends can locate .text (and the
        # dynamic machinery) the same way they would in a compiler-
        # produced binary.  .text must stay at index 1 (dynsym st_shndx).
        sec_specs: list[tuple[str, Shdr]] = [
            ("", Shdr(0, c.SHT_NULL, 0, 0, 0, 0, 0, 0, 0, 0)),
            (".text", Shdr(0, c.SHT_PROGBITS, c.SHF_ALLOC | c.SHF_EXECINSTR,
                           text_vaddr, text_off, len(text_bytes), 0, 0, 16, 0)),
            (".data", Shdr(0, c.SHT_PROGBITS, c.SHF_ALLOC | c.SHF_WRITE,
                           data_vaddr, data_off, len(data_bytes), 0, 0, 8, 0)),
        ]
        if note:
            sec_specs.append(
                (".note.gnu.property",
                 Shdr(0, c.SHT_NOTE, c.SHF_ALLOC, self.base + note_off,
                      note_off, len(note), 0, 0, 8, 0))
            )
        if self.shared:
            dynstr_index = len(sec_specs) + 1  # .dynstr follows .dynsym
            sec_types = {
                ".dynsym": (c.SHT_DYNSYM, dynstr_index, 24),
                ".dynstr": (c.SHT_STRTAB, 0, 0),
                ".gnu.hash": (c.SHT_GNU_HASH, dynstr_index - 1, 0),
                ".dynamic": (c.SHT_DYNAMIC, dynstr_index, 16),
            }
            for name in (".dynsym", ".dynstr", ".gnu.hash", ".dynamic"):
                off, size = dyn_layout[name]
                sh_type, link, entsize = sec_types[name]
                sec_specs.append(
                    (name,
                     Shdr(0, sh_type, c.SHF_ALLOC, data_vaddr + off,
                          data_off + off, size, link,
                          1 if name == ".dynsym" else 0, 8, entsize))
                )
        sec_specs.append((".shstrtab", Shdr(0, c.SHT_STRTAB, 0, 0, 0, 0,
                                            0, 0, 1, 0)))

        shstrtab = bytearray(b"\x00")
        shdrs = []
        for name, sh in sec_specs:
            if name:
                sh.name = len(shstrtab)
                shstrtab.extend(name.encode() + b"\x00")
            shdrs.append(sh)
        file_end = (data_off + len(data_bytes) if have_data
                    else text_off + len(text_bytes))
        shstr_off = file_end
        shdrs[-1].offset = shstr_off
        shdrs[-1].size = len(shstrtab)
        shoff = shstr_off + len(shstrtab)

        ehdr = Ehdr.new(
            entry=text_vaddr,
            phoff=c.EHDR_SIZE,
            phnum=len(phdrs),
            type=c.ET_DYN if self.pie else c.ET_EXEC,
            shoff=shoff,
            shnum=len(shdrs),
            shstrndx=len(shdrs) - 1,
        )

        out = bytearray()
        out.extend(ehdr.pack())
        for p in phdrs:
            out.extend(p.pack())
        if note:
            out.extend(b"\x00" * (note_off - len(out)))
            out.extend(note)
        if len(out) > HEADER_ROOM:
            raise OverflowError("too many program headers for header page")
        out.extend(b"\x00" * (HEADER_ROOM - len(out)))
        out.extend(text_bytes)
        if have_data:
            out.extend(b"\x00" * (data_off - len(out)))
            out.extend(data_bytes)
        out.extend(shstrtab)
        for s in shdrs:
            out.extend(s.pack())
        return bytes(out)


HelloBuilder = Callable[[], bytes]


def hello_world(message: bytes = b"hello, world\n", *, pie: bool = False) -> bytes:
    """Build a runnable hello-world executable (used by tests/examples)."""
    prog = TinyProgram(pie=pie)
    prog.add_data("msg", message)
    a = prog.text
    a.mov_imm32(7, 1)  # rdi = stdout
    if pie:
        a.lea_rip(6, "msg_label")
    else:
        a.mov_imm64(6, prog.data_vaddr("msg"))
    a.mov_imm32(2, len(message))
    a.mov_imm32(0, c.SYS_WRITE)
    a.syscall()
    a.mov_imm32(7, 0)
    a.mov_imm32(0, c.SYS_EXIT)
    a.syscall()
    if pie:
        # Place a rip-relative label at the data vaddr: emit padding into
        # text until the data page, which TinyProgram handles via blobs —
        # instead record the label at the known relative distance.
        a.labels["msg_label"] = prog.data_vaddr("msg") - a.base
    return prog.build()
