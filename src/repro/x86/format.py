"""AT&T-syntax operand formatting for decoded instructions.

Gives :class:`Instruction` human-readable rendering comparable to
``objdump``'s (and validated against it in the test suite for the
instruction forms the rewriter deals in).  Formatting is best-effort: for
exotic opcodes ``format_operands`` returns ``None`` and callers fall
back to raw bytes.
"""

from __future__ import annotations

from repro.x86 import prefixes as pfx
from repro.x86.insn import Instruction

REG64 = ("rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
         "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")
REG32 = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
         "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d")
REG16 = ("ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
         "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w")
REG8 = ("al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
        "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b")
REG8_LEGACY = ("al", "cl", "dl", "bl", "ah", "ch", "dh", "bh")


def reg_name(reg: int, size: int, *, rex: bool = True) -> str:
    """AT&T register name for the encoded register number."""
    if size == 8:
        return "%" + REG64[reg]
    if size == 4:
        return "%" + REG32[reg]
    if size == 2:
        return "%" + REG16[reg]
    if not rex and reg < 8:
        return "%" + REG8_LEGACY[reg]
    return "%" + REG8[reg]


def _hex(value: int) -> str:
    """objdump-style hex: 0x10 / -0x8."""
    return f"-{-value:#x}" if value < 0 else f"{value:#x}"


def _imm_hex(insn: Instruction, size: int) -> str:
    """objdump-style immediate: sign-extended to the operand size, then
    printed as unsigned hex."""
    value = insn.imm or 0
    if insn.imm_size < size:  # sign-extended encodings (e.g. 83 /r imm8)
        bit = 1 << (insn.imm_size * 8 - 1)
        value = (value ^ bit) - bit
    mask = (1 << (size * 8)) - 1
    return f"{value & mask:#x}"


def _opsize(insn: Instruction) -> int:
    if insn.rex is not None and insn.rex & pfx.REX_W:
        return 8
    if pfx.OPSIZE in insn.legacy_prefixes:
        return 2
    return 4


def _reg_operand(insn: Instruction, size: int, reg: int) -> str:
    return reg_name(reg, size, rex=insn.rex is not None)


class _NoOperands(Exception):
    """Internal: the instruction lacks the fields its opcode implies
    (e.g. a (bad) pseudo-instruction from a robust linear sweep)."""


_SEGMENTS = {pfx.SEG_FS: "%fs:", pfx.SEG_GS: "%gs:", pfx.SEG_CS: "%cs:",
             pfx.SEG_SS: "%ss:", pfx.SEG_DS: "%ds:", pfx.SEG_ES: "%es:"}


def _segment(insn: Instruction) -> str:
    for byte in insn.legacy_prefixes:
        if byte in _SEGMENTS:
            return _SEGMENTS[byte]
    return ""


def format_mem(insn: Instruction) -> str:
    """The ModRM memory operand, AT&T style."""
    if insn.modrm is None:
        raise _NoOperands
    mod = insn.mod
    rm = insn.modrm & 7
    rex = insn.rex or 0
    disp = insn.disp or 0
    seg = _segment(insn)
    asize = 4 if pfx.ADDRSIZE in insn.legacy_prefixes else 8

    if mod == 0 and rm == 5:
        rip = "%eip" if asize == 4 else "%rip"
        return f"{seg}{_hex(disp)}({rip})"

    parts = ""
    no_base = False
    if rm == 4:
        assert insn.sib is not None
        scale = 1 << (insn.sib >> 6)
        index = (insn.sib >> 3) & 7
        base = insn.sib & 7
        if rex & pfx.REX_X:
            index |= 8
        if rex & pfx.REX_B:
            base |= 8
        base_str = ""
        if (base & 7) == 5 and mod == 0:
            no_base = True
        else:
            base_str = reg_name(base, asize)
        if index != 4 or (rex & pfx.REX_X):
            parts = f"({base_str},{reg_name(index, asize)},{scale})"
        else:
            parts = f"({base_str})"
        if no_base and "," not in parts:
            parts = ""
    else:
        if rex & pfx.REX_B:
            rm |= 8
        parts = f"({reg_name(rm, asize)})"

    if no_base and not parts:
        # Absolute address: objdump prints the 64-bit unsigned value.
        return f"{seg}{disp & 0xFFFFFFFFFFFFFFFF:#x}"
    if insn.disp_size or not parts:
        return f"{seg}{_hex(disp)}{parts}"
    return f"{seg}{parts}"


def _rm_operand(insn: Instruction, size: int) -> str:
    if insn.modrm is None:
        raise _NoOperands
    if insn.mod == 3:
        return _reg_operand(insn, size, insn.rm or 0)
    return format_mem(insn)


def format_operands(insn: Instruction) -> str | None:  # noqa: C901
    """AT&T operand string (sources first), or None when unsupported."""
    if insn.mnemonic == "(bad)":
        return None
    op = insn.opcode
    if insn.opmap == 1:
        return _format_operands_0f(insn)
    if insn.opmap != 0:
        return None

    # ALU block.
    if op <= 0x3D and (op & 7) <= 5:
        kind = op & 7
        size = 1 if kind in (0, 2, 4) else _opsize(insn)
        if kind in (0, 1):
            return f"{_reg_operand(insn, size, insn.reg or 0)},{_rm_operand(insn, size)}"
        if kind in (2, 3):
            return f"{_rm_operand(insn, size)},{_reg_operand(insn, size, insn.reg or 0)}"
        return f"${_imm_hex(insn, size)},{_reg_operand(insn, size, 0)}"

    if 0x50 <= op <= 0x57 or 0x58 <= op <= 0x5F:
        reg = (op & 7) | (8 if insn.rex and insn.rex & pfx.REX_B else 0)
        return reg_name(reg, 8)
    if op in (0x68, 0x6A):
        return f"${_imm_hex(insn, _opsize(insn))}"
    if op == 0x63:
        return f"{_rm_operand(insn, 4)},{_reg_operand(insn, _opsize(insn), insn.reg or 0)}"
    if op in (0x69, 0x6B):
        size = _opsize(insn)
        return (f"${_imm_hex(insn, size)},{_rm_operand(insn, size)},"
                f"{_reg_operand(insn, size, insn.reg or 0)}")

    if 0x70 <= op <= 0x7F or op in (0xE8, 0xE9, 0xEB) or 0xE0 <= op <= 0xE3:
        return f"{insn.target:x}" if insn.target is not None else None

    if op in (0x80, 0x81, 0x83):
        size = 1 if op == 0x80 else _opsize(insn)
        return f"${_imm_hex(insn, size)},{_rm_operand(insn, size)}"
    if op in (0x84, 0x85):
        size = 1 if op == 0x84 else _opsize(insn)
        return f"{_reg_operand(insn, size, insn.reg or 0)},{_rm_operand(insn, size)}"
    if op in (0x86, 0x87):
        size = 1 if op == 0x86 else _opsize(insn)
        return f"{_reg_operand(insn, size, insn.reg or 0)},{_rm_operand(insn, size)}"
    if op in (0x88, 0x89):
        size = 1 if op == 0x88 else _opsize(insn)
        return f"{_reg_operand(insn, size, insn.reg or 0)},{_rm_operand(insn, size)}"
    if op in (0x8A, 0x8B):
        size = 1 if op == 0x8A else _opsize(insn)
        return f"{_rm_operand(insn, size)},{_reg_operand(insn, size, insn.reg or 0)}"
    if op == 0x8D:
        return f"{format_mem(insn)},{_reg_operand(insn, _opsize(insn), insn.reg or 0)}"
    if op == 0x8F:
        return _rm_operand(insn, 8)

    if op == 0x90 and insn.rex is None:
        return ""
    if 0xB0 <= op <= 0xB7:
        reg = (op & 7) | (8 if insn.rex and insn.rex & pfx.REX_B else 0)
        return f"${_hex(insn.imm or 0)},{_reg_operand(insn, 1, reg)}"
    if 0xB8 <= op <= 0xBF:
        reg = (op & 7) | (8 if insn.rex and insn.rex & pfx.REX_B else 0)
        return f"${_hex(insn.imm or 0)},{reg_name(reg, _opsize(insn))}"

    if op in (0xC0, 0xC1):
        size = 1 if op == 0xC0 else _opsize(insn)
        return f"${_hex(insn.imm or 0)},{_rm_operand(insn, size)}"
    if op in (0xD0, 0xD1):
        size = 1 if op == 0xD0 else _opsize(insn)
        return _rm_operand(insn, size)
    if op in (0xD2, 0xD3):
        size = 1 if op == 0xD2 else _opsize(insn)
        return f"%cl,{_rm_operand(insn, size)}"
    if op == 0xC2:
        return f"${_hex(insn.imm or 0)}"
    if op in (0xC3, 0xC9, 0xCC, 0x9C, 0x9D, 0x98, 0x99):
        return ""
    if op in (0xC6, 0xC7):
        size = 1 if op == 0xC6 else _opsize(insn)
        return f"${_imm_hex(insn, size)},{_rm_operand(insn, size)}"

    if op in (0xF6, 0xF7):
        size = 1 if op == 0xF6 else _opsize(insn)
        kind = insn.reg_raw or 0
        if kind in (0, 1):
            return f"${_imm_hex(insn, size)},{_rm_operand(insn, size)}"
        return _rm_operand(insn, size)
    if op == 0xFE:
        return _rm_operand(insn, 1)
    if op == 0xFF:
        kind = insn.reg_raw or 0
        size = _opsize(insn) if kind in (0, 1) else 8
        operand = _rm_operand(insn, size)
        if kind in (2, 3, 4, 5):
            return f"*{operand}"
        return operand

    return None


def _format_operands_0f(insn: Instruction) -> str | None:
    op = insn.opcode
    if 0x80 <= op <= 0x8F:
        return f"{insn.target:x}" if insn.target is not None else None
    if 0x90 <= op <= 0x9F:
        return _rm_operand(insn, 1)
    if 0x40 <= op <= 0x4F:  # cmov
        size = _opsize(insn)
        return f"{_rm_operand(insn, size)},{_reg_operand(insn, size, insn.reg or 0)}"
    if op in (0xB6, 0xB7, 0xBE, 0xBF):  # movzx/movsx
        src = 1 if op in (0xB6, 0xBE) else 2
        return f"{_rm_operand(insn, src)},{_reg_operand(insn, _opsize(insn), insn.reg or 0)}"
    if op == 0xAF:
        size = _opsize(insn)
        return f"{_rm_operand(insn, size)},{_reg_operand(insn, size, insn.reg or 0)}"
    if op == 0x05:
        return ""
    if 0xC8 <= op <= 0xCF:
        reg = (op & 7) | (8 if insn.rex and insn.rex & pfx.REX_B else 0)
        return reg_name(reg, _opsize(insn))
    return None


def format_insn(insn: Instruction) -> str:
    """``mnemonic operands`` (falls back to bytes for exotic opcodes)."""
    try:
        operands = format_operands(insn)
    except _NoOperands:
        operands = None
    if operands is None:
        return f"{insn.mnemonic} <{insn.raw.hex()}>"
    if operands:
        return f"{insn.mnemonic} {operands}"
    return insn.mnemonic
