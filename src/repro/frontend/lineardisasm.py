"""Linear-sweep disassembly of a binary's code section.

The paper's prototype frontend applies linear disassembly to the
``.text`` section; E9Patch itself only consumes the resulting instruction
locations and sizes.  Bytes that fail to decode are kept as single-byte
``(bad)`` pseudo-instructions (data embedded in code) — the rewriter
never patches them, but may use them as pun material, exactly like any
other byte it is told about.
"""

from __future__ import annotations

from repro.errors import ElfError
from repro.elf.reader import ElfFile
from repro.x86.decoder import decode_buffer
from repro.x86.insn import Instruction


def disassemble_section(elf: ElfFile, name: str) -> list[Instruction]:
    """Linearly disassemble the named section."""
    sec = elf.section(name)
    if sec is None:
        raise ElfError(f"binary has no {name!r} section")
    data = elf.section_bytes(name)
    return decode_buffer(data, address=sec.vaddr)


def disassemble_text_stream(elf: ElfFile):
    """Zero-copy stream variant of :func:`disassemble_text`.

    Decodes the code region into a lazy
    :class:`~repro.x86.fastscan.InstructionStream` over a read-only
    ``memoryview`` of the ELF image — no section-bytes copy, no eager
    ``Instruction`` materialization.

    Returns ``None`` when the layout needs the legacy list path (a
    stripped binary with several executable segments — streams cover one
    contiguous region).
    """
    from repro.x86.fastscan import decode_stream

    sec = elf.section(".text")
    if sec is not None:
        return decode_stream(elf.section_view(".text"), sec.vaddr)
    segs = [seg for seg in elf.load_segments() if seg.executable]
    if len(segs) != 1:
        return None
    phdr = segs[0].phdr
    view = memoryview(elf.data)[phdr.offset : phdr.offset + phdr.filesz]
    return decode_stream(view, phdr.vaddr)


def disassemble_text(elf: ElfFile) -> list[Instruction]:
    """Disassemble ``.text``, falling back to the executable segment when
    the binary is stripped of section headers."""
    if elf.section(".text") is not None:
        return disassemble_section(elf, ".text")
    insns: list[Instruction] = []
    for seg in elf.load_segments():
        if not seg.executable:
            continue
        data = elf.data[seg.phdr.offset : seg.phdr.offset + seg.phdr.filesz]
        insns.extend(decode_buffer(data, address=seg.phdr.vaddr))
    return insns


def disassemble_functions(elf: ElfFile) -> list[Instruction]:
    """Symbol-guided disassembly: a linear sweep per *function extent*.

    Hand-written assembly (glibc's string routines, etc.) embeds data
    islands in ``.text`` that desynchronize a whole-section linear
    sweep — phantom instructions overlap real ones and a patch placed on
    a phantom corrupts live code.  Function symbols give ground-truth
    re-synchronization points (this is still control-flow agnostic: no
    jump targets, no basic blocks — just where functions *start*, the
    same frontend information the paper's design delegates).

    Bytes outside any known function are never offered for patching.
    """
    from repro.elf.symbols import function_ranges

    ranges = function_ranges(elf)
    if not ranges:
        raise ElfError(
            "binary has no usable function symbols; "
            "use the linear frontend instead"
        )
    out: list[Instruction] = []
    data = elf.data
    for start, end in ranges:
        offset = elf.vaddr_to_offset(start)
        chunk = data[offset : offset + (end - start)]
        out.extend(decode_buffer(chunk, address=start))
    return out
