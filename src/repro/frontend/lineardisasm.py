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
from repro.x86.fastscan import InstructionStream, decode_stream
from repro.x86.insn import Instruction


def disassemble_text(elf: ElfFile) -> InstructionStream | list[Instruction]:
    """Linearly disassemble the code region: ``.text``, or the executable
    segment of a binary stripped of section headers.

    One region decodes into a lazy
    :class:`~repro.x86.fastscan.InstructionStream` over a read-only view
    of the ELF image: no bytes are copied and no ``Instruction`` is built
    until a consumer reads it.  A stripped binary with several
    executable segments decodes eagerly into one list (a stream covers
    one contiguous region).
    """
    sec = elf.section(".text")
    if sec is not None:
        return decode_stream(elf.section_view(".text"), sec.vaddr)
    phdrs = [seg.phdr for seg in elf.load_segments() if seg.executable]
    if len(phdrs) == 1:
        [p] = phdrs
        view = memoryview(elf.data)[p.offset : p.offset + p.filesz]
        return decode_stream(view, p.vaddr)
    insns: list[Instruction] = []
    for p in phdrs:
        data = elf.data[p.offset : p.offset + p.filesz]
        insns.extend(decode_buffer(data, address=p.vaddr))
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
