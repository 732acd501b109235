"""x86-64 encoder for the instruction repertoire the rewriter emits.

E9Patch only ever needs to *emit* a small, fixed set of instructions:
relative jumps (possibly prefix-padded for tactic T1), trampoline
bookkeeping (push/pop, pushf/popf, mov, lea, call), and the loader stub
(mov imm, syscall).  This module provides those encodings plus a tiny
label-based :class:`Assembler` used to build trampolines and loaders.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import EncodeError
from repro.x86 import prefixes as pfx
from repro.x86.insn import Instruction

JMP_REL32_OPCODE = 0xE9
JMP_REL8_OPCODE = 0xEB
CALL_REL32_OPCODE = 0xE8

REL32_MIN = -(1 << 31)
REL32_MAX = (1 << 31) - 1
REL8_MIN = -128
REL8_MAX = 127

# Register numbers.
RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)


# Packers: one or two opcode bytes + rel32, and a bare rel32.
_OP_REL32, _OP2_REL32, _REL32 = (struct.Struct(f).pack for f in ("<Bi", "<BBi", "<i"))


def _check_rel(rel: int, lo: int, hi: int) -> None:
    if not lo <= rel <= hi:
        raise EncodeError(f"relative displacement {rel:#x} out of range [{lo:#x}, {hi:#x}]")


def encode_rel32(rel: int) -> bytes:
    """A range-checked little-endian rel32 field."""
    _check_rel(rel, REL32_MIN, REL32_MAX)
    return _REL32(rel)


def encode_jmp_rel32(rel: int, padding: int = 0) -> bytes:
    """Encode ``jmpq rel32``, optionally padded with redundant prefixes.

    *padding* extra prefix bytes lengthen the encoding without changing
    semantics (tactic T1).  The total length is ``padding + 5``.
    """
    _check_rel(rel, REL32_MIN, REL32_MAX)
    jmp = _OP_REL32(JMP_REL32_OPCODE, rel)
    return pfx.jump_padding(padding) + jmp if padding else jmp


def encode_jmp_rel8(rel: int) -> bytes:
    """Encode ``jmp rel8`` (two bytes)."""
    _check_rel(rel, REL8_MIN, REL8_MAX)
    return bytes((JMP_REL8_OPCODE, rel & 0xFF))


def encode_jcc_rel32(cc: int, rel: int) -> bytes:
    """Encode ``jcc rel32`` (0F 80+cc, six bytes); *cc* in 0..15."""
    if not 0 <= cc <= 15:
        raise EncodeError(f"condition code {cc} out of range")
    _check_rel(rel, REL32_MIN, REL32_MAX)
    return _OP2_REL32(0x0F, 0x80 | cc, rel)


def encode_call_rel32(rel: int) -> bytes:
    """Encode ``callq rel32`` (five bytes)."""
    _check_rel(rel, REL32_MIN, REL32_MAX)
    return _OP_REL32(CALL_REL32_OPCODE, rel)


def encode_int3() -> bytes:
    return b"\xcc"


def encode_ret() -> bytes:
    return b"\xc3"


_NOPS = {
    1: b"\x90",
    2: b"\x66\x90",
    3: b"\x0f\x1f\x00",
    4: b"\x0f\x1f\x40\x00",
    5: b"\x0f\x1f\x44\x00\x00",
    6: b"\x66\x0f\x1f\x44\x00\x00",
    7: b"\x0f\x1f\x80\x00\x00\x00\x00",
    8: b"\x0f\x1f\x84\x00\x00\x00\x00\x00",
    9: b"\x66\x0f\x1f\x84\x00\x00\x00\x00\x00",
}


def encode_nop(length: int = 1) -> bytes:
    """Encode a NOP of exactly *length* bytes (standard long-NOP forms)."""
    if length <= 0:
        raise EncodeError("nop length must be positive")
    out = bytearray()
    while length > 9:
        out += _NOPS[9]
        length -= 9
    out += _NOPS[length]
    return bytes(out)


def encode_lea_from_modrm(reg: int, insn: Instruction) -> bytes:
    """``lea <mem operand of insn>, %reg``.

    Rebuilds *insn*'s memory addressing expression as a ``lea`` so a
    trampoline can compute the effective address the original
    instruction was about to access (used by the LowFat hardening
    instrumentation).  rip-relative operands are rejected.
    """
    if not insn.has_mem_operand:
        raise EncodeError("instruction has no memory operand")
    if insn.rip_relative:
        raise EncodeError("cannot rebuild a rip-relative operand with lea")
    assert insn.modrm is not None
    src_rex = insn.rex or 0
    rex = (
        pfx.REX_BASE
        | pfx.REX_W
        | (pfx.REX_R if reg >= 8 else 0)
        | (src_rex & (pfx.REX_X | pfx.REX_B))
    )
    modrm = (insn.modrm & 0xC7) | ((reg & 7) << 3)
    out = bytes((rex, 0x8D, modrm))
    if insn.sib is not None:
        out += bytes((insn.sib,))
    if insn.disp_size:
        out += insn.raw[insn.disp_offset : insn.disp_offset + insn.disp_size]
    return out


def _rex(w: bool = False, r: int = 0, x: int = 0, b: int = 0) -> int:
    return (
        pfx.REX_BASE
        | (pfx.REX_W if w else 0)
        | (pfx.REX_R if r >= 8 else 0)
        | (pfx.REX_X if x >= 8 else 0)
        | (pfx.REX_B if b >= 8 else 0)
    )


@dataclass
class _Fixup:
    """A pending displacement or absolute address referring to a label."""

    offset: int  # position of the displacement field
    size: int  # 1 or 4 (relative) / 8 (absolute)
    label: str
    addend: int  # displacement is label - (offset + size) + addend
    absolute: bool = False  # write base+label as a 64-bit absolute value


@dataclass
class Assembler:
    """A tiny label-based x86-64 assembler for trampolines and loaders.

    The assembler emits at a known *base* virtual address so absolute
    branch targets outside the buffer can be encoded directly.

    >>> a = Assembler(base=0x1000)
    >>> a.push(RAX); a.pop(RAX); a.ret()
    >>> a.bytes()
    b'PX\\xc3'
    """

    base: int = 0
    buf: bytearray = field(default_factory=bytearray)
    labels: dict[str, int] = field(default_factory=dict)
    fixups: list[_Fixup] = field(default_factory=list)

    # -- plumbing -----------------------------------------------------------

    @property
    def here(self) -> int:
        """Current emission address."""
        return self.base + len(self.buf)

    def raw(self, data: bytes) -> None:
        """Append raw machine code."""
        self.buf += data

    def label(self, name: str) -> None:
        if name in self.labels:
            raise EncodeError(f"duplicate label {name!r}")
        self.labels[name] = len(self.buf)

    def _emit_rel(self, size: int, target: int | str | None) -> None:
        if isinstance(target, str):
            self.fixups.append(_Fixup(len(self.buf), size, target, 0))
            self.buf += b"\x00" * size
        else:
            assert target is not None
            rel = target - (self.here + size)
            if size == 1:
                _check_rel(rel, REL8_MIN, REL8_MAX)
            else:
                _check_rel(rel, REL32_MIN, REL32_MAX)
            self.buf += (rel & ((1 << (size * 8)) - 1)).to_bytes(size, "little")

    def bytes(self) -> bytes:
        """Resolve fixups and return the machine code."""
        for fix in self.fixups:
            if fix.label not in self.labels:
                raise EncodeError(f"undefined label {fix.label!r}")
            target = self.base + self.labels[fix.label]
            if fix.absolute:
                raw = ((target + fix.addend) & 0xFFFFFFFFFFFFFFFF).to_bytes(
                    8, "little"
                )
                self.buf[fix.offset : fix.offset + 8] = raw
                continue
            rel = target - (self.base + fix.offset + fix.size) + fix.addend
            if fix.size == 1:
                _check_rel(rel, REL8_MIN, REL8_MAX)
            else:
                _check_rel(rel, REL32_MIN, REL32_MAX)
            raw = (rel & ((1 << (fix.size * 8)) - 1)).to_bytes(fix.size, "little")
            self.buf[fix.offset : fix.offset + fix.size] = raw
        self.fixups.clear()
        return bytes(self.buf)

    # -- instructions ---------------------------------------------------------

    def push(self, reg: int) -> None:
        if reg >= 8:
            self.buf.append(_rex(b=reg))
        self.buf.append(0x50 | (reg & 7))

    def pop(self, reg: int) -> None:
        if reg >= 8:
            self.buf.append(_rex(b=reg))
        self.buf.append(0x58 | (reg & 7))

    def pushfq(self) -> None:
        self.buf.append(0x9C)

    def popfq(self) -> None:
        self.buf.append(0x9D)

    def mov_imm64(self, reg: int, imm: int) -> None:
        """movabs $imm64, %reg"""
        self.buf.append(_rex(w=True, b=reg))
        self.buf.append(0xB8 | (reg & 7))
        self.buf += (imm & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def mov_label64(self, reg: int, label: str, addend: int = 0) -> None:
        """movabs $<base+label+addend>, %reg (resolved at bytes() time)."""
        self.buf.append(_rex(w=True, b=reg))
        self.buf.append(0xB8 | (reg & 7))
        self.fixups.append(
            _Fixup(len(self.buf), 8, label, addend, absolute=True)
        )
        self.buf += b"\x00" * 8

    def mov_imm32(self, reg: int, imm: int) -> None:
        """mov $imm32, %reg32 (zero-extends)."""
        if reg >= 8:
            self.buf.append(_rex(b=reg))
        self.buf.append(0xB8 | (reg & 7))
        self.buf += (imm & 0xFFFFFFFF).to_bytes(4, "little")

    def mov_reg(self, dst: int, src: int) -> None:
        """mov %src, %dst (64-bit)."""
        self.buf.append(_rex(w=True, r=src, b=dst))
        self.buf.append(0x89)
        self.buf.append(0xC0 | ((src & 7) << 3) | (dst & 7))

    def mov_load(self, dst: int, base: int, disp: int = 0) -> None:
        """mov disp(%base), %dst (64-bit load)."""
        self._mem_op(0x8B, dst, base, disp)

    def mov_store(self, base: int, src: int, disp: int = 0) -> None:
        """mov %src, disp(%base) (64-bit store)."""
        self._mem_op(0x89, src, base, disp)

    def _mem_op(self, opcode: int, reg: int, base: int, disp: int) -> None:
        self.buf.append(_rex(w=True, r=reg, b=base))
        self.buf.append(opcode)
        basel = base & 7
        need_sib = basel == RSP
        if disp == 0 and basel != RBP:
            self.buf.append(0x00 | ((reg & 7) << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
        elif -128 <= disp <= 127:
            self.buf.append(0x40 | ((reg & 7) << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
            self.buf.append(disp & 0xFF)
        else:
            self.buf.append(0x80 | ((reg & 7) << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
            self.buf += (disp & 0xFFFFFFFF).to_bytes(4, "little")

    def add_imm(self, reg: int, imm: int) -> None:
        """add $imm32, %reg (64-bit)."""
        self.buf.append(_rex(w=True, b=reg))
        if -128 <= imm <= 127:
            self.buf += bytes((0x83, 0xC0 | (reg & 7), imm & 0xFF))
        else:
            self.buf += bytes((0x81, 0xC0 | (reg & 7)))
            self.buf += (imm & 0xFFFFFFFF).to_bytes(4, "little")

    def sub_imm(self, reg: int, imm: int) -> None:
        self.buf.append(_rex(w=True, b=reg))
        if -128 <= imm <= 127:
            self.buf += bytes((0x83, 0xE8 | (reg & 7), imm & 0xFF))
        else:
            self.buf += bytes((0x81, 0xE8 | (reg & 7)))
            self.buf += (imm & 0xFFFFFFFF).to_bytes(4, "little")

    def inc_mem64(self, base: int, disp: int = 0) -> None:
        """incq disp(%base)."""
        self._mem_op_noreg(0xFF, 0, base, disp)

    def inc_mem64_rip(self, target: int) -> None:
        """incq (target - rip)(%rip) — position-independent, fixed 7 bytes.

        Trampolines mapped inside the image (base + link-time vaddr)
        keep their displacement to *target* constant under any load
        base, so this is the counter encoding for ET_DYN images.
        """
        rel = target - (self.here + 7)
        _check_rel(rel, -(1 << 31), (1 << 31) - 1)
        self.buf += bytes((0x48, 0xFF, 0x05))
        self.buf += (rel & 0xFFFFFFFF).to_bytes(4, "little")

    def _mem_op_noreg(self, opcode: int, ext: int, base: int, disp: int) -> None:
        self.buf.append(_rex(w=True, b=base))
        self.buf.append(opcode)
        basel = base & 7
        need_sib = basel == RSP
        if disp == 0 and basel != RBP:
            self.buf.append(0x00 | (ext << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
        elif -128 <= disp <= 127:
            self.buf.append(0x40 | (ext << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
            self.buf.append(disp & 0xFF)
        else:
            self.buf.append(0x80 | (ext << 3) | (0x04 if need_sib else basel))
            if need_sib:
                self.buf.append(0x24)
            self.buf += (disp & 0xFFFFFFFF).to_bytes(4, "little")

    def lea_rip(self, reg: int, target: int | str) -> None:
        """lea target(%rip), %reg."""
        self.buf.append(_rex(w=True, r=reg))
        self.buf.append(0x8D)
        self.buf.append(0x05 | ((reg & 7) << 3))
        self._emit_rel(4, target)

    def lea_from_modrm(self, reg: int, insn: Instruction) -> None:
        """lea <mem operand of insn>, %reg (:func:`encode_lea_from_modrm`)."""
        self.buf += encode_lea_from_modrm(reg, insn)

    def call(self, target: int | str) -> None:
        self.buf.append(CALL_REL32_OPCODE)
        self._emit_rel(4, target)

    def call_reg(self, reg: int) -> None:
        if reg >= 8:
            self.buf.append(_rex(b=reg))
        self.buf += bytes((0xFF, 0xD0 | (reg & 7)))

    def jmp(self, target: int | str) -> None:
        self.buf.append(JMP_REL32_OPCODE)
        self._emit_rel(4, target)

    def jmp_short(self, target: int | str) -> None:
        self.buf.append(JMP_REL8_OPCODE)
        self._emit_rel(1, target)

    def jmp_reg(self, reg: int) -> None:
        if reg >= 8:
            self.buf.append(_rex(b=reg))
        self.buf += bytes((0xFF, 0xE0 | (reg & 7)))

    def jcc(self, cc: int, target: int | str) -> None:
        self.buf += bytes((0x0F, 0x80 | cc))
        self._emit_rel(4, target)

    def jcc_short(self, cc: int, target: int | str) -> None:
        self.buf.append(0x70 | cc)
        self._emit_rel(1, target)

    def cmp_imm(self, reg: int, imm: int) -> None:
        self.buf.append(_rex(w=True, b=reg))
        if -128 <= imm <= 127:
            self.buf += bytes((0x83, 0xF8 | (reg & 7), imm & 0xFF))
        else:
            self.buf += bytes((0x81, 0xF8 | (reg & 7)))
            self.buf += (imm & 0xFFFFFFFF).to_bytes(4, "little")

    def ret(self) -> None:
        self.buf.append(0xC3)

    def syscall(self) -> None:
        self.buf += b"\x0f\x05"

    def int3(self) -> None:
        self.buf.append(0xCC)

    def nop(self, length: int = 1) -> None:
        self.buf += encode_nop(length)
