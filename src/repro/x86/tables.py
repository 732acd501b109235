"""Opcode metadata tables for x86-64 length decoding and semantics.

The decoder needs, for every opcode, three facts: whether a ModRM byte
follows, what immediate (if any) follows the addressing bytes, and a small
set of semantic flags (branch kind, whether the r/m operand is written,
...).  These tables cover the full one-byte map, the 0F two-byte map, the
0F38/0F3A three-byte maps, and the VEX/EVEX-mapped equivalents — enough to
length-decode arbitrary compiled x86-64 userland code (validated against
objdump in the test suite).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Imm(enum.Enum):
    """Immediate operand kinds (sizes may depend on prefixes)."""

    NONE = 0
    IB = 1  # 1 byte
    IW = 2  # 2 bytes
    IZ = 3  # 4 bytes, or 2 with the 0x66 operand-size prefix
    IV = 4  # 2/4/8 bytes by effective operand size (mov r64, imm64)
    IW_IB = 5  # enter: imm16 + imm8
    REL8 = 6  # 1-byte branch displacement
    REL32 = 7  # 4-byte branch displacement (2 with 0x66, never emitted)
    MOFFS = 8  # 8-byte absolute moffs (4 with 0x67)
    GROUP3 = 9  # F6/F7: Ib/Iz when modrm.reg is 0 or 1 (test), else none


class Flow(enum.Enum):
    """Control-flow classification of an opcode."""

    NONE = 0
    JMP = 1  # direct relative jmp
    JCC = 2  # direct relative conditional jump
    CALL = 3  # direct relative call
    RET = 4
    LOOP = 5  # loop/loopcc/jrcxz: rel8 conditional branches
    INT3 = 6
    SYSCALL = 7
    HLT = 8
    GROUP5 = 9  # FF group: /2 /3 call ind, /4 /5 jmp ind
    INT = 10


# Semantic flags --------------------------------------------------------
F_NONE = 0
F_WRITES_RM = 1 << 0  # instruction writes its ModRM r/m operand
F_GROUP_WRITE = 1 << 1  # write depends on modrm.reg (see GROUP_WRITES)
F_STRING_WRITE = 1 << 2  # implicit store through %rdi (movs/stos)
F_INVALID64 = 1 << 3  # not a valid opcode in 64-bit mode


@dataclass(frozen=True)
class OpSpec:
    """Decoding metadata for a single opcode."""

    mnemonic: str
    modrm: bool = False
    imm: Imm = Imm.NONE
    flow: Flow = Flow.NONE
    flags: int = F_NONE


def _alu_block(base: int, name: str, writes: bool) -> dict[int, OpSpec]:
    """The classic 8-opcode ALU block layout (add/or/.../cmp)."""
    w = F_WRITES_RM if writes else F_NONE
    return {
        base + 0: OpSpec(name, modrm=True, flags=w),  # Eb, Gb
        base + 1: OpSpec(name, modrm=True, flags=w),  # Ev, Gv
        base + 2: OpSpec(name, modrm=True),  # Gb, Eb
        base + 3: OpSpec(name, modrm=True),  # Gv, Ev
        base + 4: OpSpec(name, imm=Imm.IB),  # AL, Ib
        base + 5: OpSpec(name, imm=Imm.IZ),  # rAX, Iz
    }


ONE_BYTE: dict[int, OpSpec] = {}

for _base, _name in (
    (0x00, "add"),
    (0x08, "or"),
    (0x10, "adc"),
    (0x18, "sbb"),
    (0x20, "and"),
    (0x28, "sub"),
    (0x30, "xor"),
):
    ONE_BYTE.update(_alu_block(_base, _name, writes=True))
ONE_BYTE.update(_alu_block(0x38, "cmp", writes=False))

# 0x06/0x0E/... legacy push/pop seg and BCD opcodes: invalid in 64-bit.
for _op in (0x06, 0x07, 0x0E, 0x16, 0x17, 0x1E, 0x1F, 0x27, 0x2F, 0x37, 0x3F):
    ONE_BYTE[_op] = OpSpec("(bad)", flags=F_INVALID64)

# 0x40-0x4F are REX prefixes (consumed before opcode dispatch).
# 0x50-0x5F: push/pop r64.
for _i in range(8):
    ONE_BYTE[0x50 + _i] = OpSpec("push")
    ONE_BYTE[0x58 + _i] = OpSpec("pop")

ONE_BYTE[0x60] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0x61] = OpSpec("(bad)", flags=F_INVALID64)
# 0x62 is the EVEX prefix in 64-bit mode (handled by the decoder).
ONE_BYTE[0x63] = OpSpec("movsxd", modrm=True)
ONE_BYTE[0x68] = OpSpec("push", imm=Imm.IZ)
ONE_BYTE[0x69] = OpSpec("imul", modrm=True, imm=Imm.IZ)
ONE_BYTE[0x6A] = OpSpec("push", imm=Imm.IB)
ONE_BYTE[0x6B] = OpSpec("imul", modrm=True, imm=Imm.IB)
ONE_BYTE[0x6C] = OpSpec("insb", flags=F_STRING_WRITE)
ONE_BYTE[0x6D] = OpSpec("insd", flags=F_STRING_WRITE)
ONE_BYTE[0x6E] = OpSpec("outsb")
ONE_BYTE[0x6F] = OpSpec("outsd")

_CCS = (
    "o", "no", "b", "ae", "e", "ne", "be", "a",
    "s", "ns", "p", "np", "l", "ge", "le", "g",
)
for _i, _cc in enumerate(_CCS):
    ONE_BYTE[0x70 + _i] = OpSpec(f"j{_cc}", imm=Imm.REL8, flow=Flow.JCC)

ONE_BYTE[0x80] = OpSpec("grp1", modrm=True, imm=Imm.IB, flags=F_GROUP_WRITE)
ONE_BYTE[0x81] = OpSpec("grp1", modrm=True, imm=Imm.IZ, flags=F_GROUP_WRITE)
ONE_BYTE[0x82] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0x83] = OpSpec("grp1", modrm=True, imm=Imm.IB, flags=F_GROUP_WRITE)
ONE_BYTE[0x84] = OpSpec("test", modrm=True)
ONE_BYTE[0x85] = OpSpec("test", modrm=True)
ONE_BYTE[0x86] = OpSpec("xchg", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0x87] = OpSpec("xchg", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0x88] = OpSpec("mov", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0x89] = OpSpec("mov", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0x8A] = OpSpec("mov", modrm=True)
ONE_BYTE[0x8B] = OpSpec("mov", modrm=True)
ONE_BYTE[0x8C] = OpSpec("mov", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0x8D] = OpSpec("lea", modrm=True)
ONE_BYTE[0x8E] = OpSpec("mov", modrm=True)
ONE_BYTE[0x8F] = OpSpec("pop", modrm=True, flags=F_WRITES_RM)

ONE_BYTE[0x90] = OpSpec("nop")
for _i in range(1, 8):
    ONE_BYTE[0x90 + _i] = OpSpec("xchg")
ONE_BYTE[0x98] = OpSpec("cwtl")
ONE_BYTE[0x99] = OpSpec("cltd")
ONE_BYTE[0x9A] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0x9B] = OpSpec("fwait")
ONE_BYTE[0x9C] = OpSpec("pushf")
ONE_BYTE[0x9D] = OpSpec("popf")
ONE_BYTE[0x9E] = OpSpec("sahf")
ONE_BYTE[0x9F] = OpSpec("lahf")

ONE_BYTE[0xA0] = OpSpec("mov", imm=Imm.MOFFS)
ONE_BYTE[0xA1] = OpSpec("mov", imm=Imm.MOFFS)
ONE_BYTE[0xA2] = OpSpec("mov", imm=Imm.MOFFS, flags=F_STRING_WRITE)
ONE_BYTE[0xA3] = OpSpec("mov", imm=Imm.MOFFS, flags=F_STRING_WRITE)
ONE_BYTE[0xA4] = OpSpec("movsb", flags=F_STRING_WRITE)
ONE_BYTE[0xA5] = OpSpec("movsd", flags=F_STRING_WRITE)
ONE_BYTE[0xA6] = OpSpec("cmpsb")
ONE_BYTE[0xA7] = OpSpec("cmpsd")
ONE_BYTE[0xA8] = OpSpec("test", imm=Imm.IB)
ONE_BYTE[0xA9] = OpSpec("test", imm=Imm.IZ)
ONE_BYTE[0xAA] = OpSpec("stosb", flags=F_STRING_WRITE)
ONE_BYTE[0xAB] = OpSpec("stosd", flags=F_STRING_WRITE)
ONE_BYTE[0xAC] = OpSpec("lodsb")
ONE_BYTE[0xAD] = OpSpec("lodsd")
ONE_BYTE[0xAE] = OpSpec("scasb")
ONE_BYTE[0xAF] = OpSpec("scasd")

for _i in range(8):
    ONE_BYTE[0xB0 + _i] = OpSpec("mov", imm=Imm.IB)
    ONE_BYTE[0xB8 + _i] = OpSpec("mov", imm=Imm.IV)

ONE_BYTE[0xC0] = OpSpec("grp2", modrm=True, imm=Imm.IB, flags=F_WRITES_RM)
ONE_BYTE[0xC1] = OpSpec("grp2", modrm=True, imm=Imm.IB, flags=F_WRITES_RM)
ONE_BYTE[0xC2] = OpSpec("ret", imm=Imm.IW, flow=Flow.RET)
ONE_BYTE[0xC3] = OpSpec("ret", flow=Flow.RET)
# 0xC4/0xC5 are VEX prefixes in 64-bit mode (handled by the decoder).
ONE_BYTE[0xC6] = OpSpec("mov", modrm=True, imm=Imm.IB, flags=F_WRITES_RM)
ONE_BYTE[0xC7] = OpSpec("mov", modrm=True, imm=Imm.IZ, flags=F_WRITES_RM)
ONE_BYTE[0xC8] = OpSpec("enter", imm=Imm.IW_IB)
ONE_BYTE[0xC9] = OpSpec("leave")
ONE_BYTE[0xCA] = OpSpec("retf", imm=Imm.IW, flow=Flow.RET)
ONE_BYTE[0xCB] = OpSpec("retf", flow=Flow.RET)
ONE_BYTE[0xCC] = OpSpec("int3", flow=Flow.INT3)
ONE_BYTE[0xCD] = OpSpec("int", imm=Imm.IB, flow=Flow.INT)
ONE_BYTE[0xCE] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0xCF] = OpSpec("iret", flow=Flow.RET)

for _op in (0xD0, 0xD1, 0xD2, 0xD3):
    ONE_BYTE[_op] = OpSpec("grp2", modrm=True, flags=F_WRITES_RM)
ONE_BYTE[0xD4] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0xD5] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0xD6] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0xD7] = OpSpec("xlat")

# x87 escapes: always ModRM.  Memory-store forms are resolved by
# X87_STORE_REGS below (opcode low 3 bits -> modrm.reg values that store).
for _op in range(0xD8, 0xE0):
    ONE_BYTE[_op] = OpSpec("x87", modrm=True, flags=F_GROUP_WRITE)

ONE_BYTE[0xE0] = OpSpec("loopne", imm=Imm.REL8, flow=Flow.LOOP)
ONE_BYTE[0xE1] = OpSpec("loope", imm=Imm.REL8, flow=Flow.LOOP)
ONE_BYTE[0xE2] = OpSpec("loop", imm=Imm.REL8, flow=Flow.LOOP)
ONE_BYTE[0xE3] = OpSpec("jrcxz", imm=Imm.REL8, flow=Flow.LOOP)
ONE_BYTE[0xE4] = OpSpec("in", imm=Imm.IB)
ONE_BYTE[0xE5] = OpSpec("in", imm=Imm.IB)
ONE_BYTE[0xE6] = OpSpec("out", imm=Imm.IB)
ONE_BYTE[0xE7] = OpSpec("out", imm=Imm.IB)
ONE_BYTE[0xE8] = OpSpec("call", imm=Imm.REL32, flow=Flow.CALL)
ONE_BYTE[0xE9] = OpSpec("jmp", imm=Imm.REL32, flow=Flow.JMP)
ONE_BYTE[0xEA] = OpSpec("(bad)", flags=F_INVALID64)
ONE_BYTE[0xEB] = OpSpec("jmp", imm=Imm.REL8, flow=Flow.JMP)
ONE_BYTE[0xEC] = OpSpec("in")
ONE_BYTE[0xED] = OpSpec("in")
ONE_BYTE[0xEE] = OpSpec("out")
ONE_BYTE[0xEF] = OpSpec("out")

# 0xF0/F2/F3 are prefixes.
ONE_BYTE[0xF1] = OpSpec("int1", flow=Flow.INT)
ONE_BYTE[0xF4] = OpSpec("hlt", flow=Flow.HLT)
ONE_BYTE[0xF5] = OpSpec("cmc")
ONE_BYTE[0xF6] = OpSpec("grp3", modrm=True, imm=Imm.GROUP3, flags=F_GROUP_WRITE)
ONE_BYTE[0xF7] = OpSpec("grp3", modrm=True, imm=Imm.GROUP3, flags=F_GROUP_WRITE)
ONE_BYTE[0xF8] = OpSpec("clc")
ONE_BYTE[0xF9] = OpSpec("stc")
ONE_BYTE[0xFA] = OpSpec("cli")
ONE_BYTE[0xFB] = OpSpec("sti")
ONE_BYTE[0xFC] = OpSpec("cld")
ONE_BYTE[0xFD] = OpSpec("std")
ONE_BYTE[0xFE] = OpSpec("grp4", modrm=True, flags=F_GROUP_WRITE)
ONE_BYTE[0xFF] = OpSpec("grp5", modrm=True, flow=Flow.GROUP5, flags=F_GROUP_WRITE)

# modrm.reg values that make a "group" opcode write its r/m operand.
GROUP_WRITES: dict[int, frozenset[int]] = {
    0x80: frozenset({0, 1, 2, 3, 4, 5, 6}),  # /7 is cmp
    0x81: frozenset({0, 1, 2, 3, 4, 5, 6}),
    0x83: frozenset({0, 1, 2, 3, 4, 5, 6}),
    0xF6: frozenset({2, 3}),  # not, neg
    0xF7: frozenset({2, 3}),
    0xFE: frozenset({0, 1}),  # inc, dec
    0xFF: frozenset({0, 1}),  # inc, dec (others are call/jmp/push)
    # x87: store forms.  fst/fstp (D9 /2 /3, DD /2 /3, D8 none),
    # fist/fistp families, fstcw/fnstsw, fsave etc.  Conservative superset.
    0xD8: frozenset(),
    0xD9: frozenset({2, 3, 6, 7}),  # fst, fstp, fnstenv, fnstcw
    0xDA: frozenset(),
    0xDB: frozenset({1, 2, 3, 7}),  # fisttp, fist, fistp, fstp80
    0xDC: frozenset(),
    0xDD: frozenset({1, 2, 3, 6, 7}),  # fisttp, fst, fstp, fnsave, fnstsw
    0xDE: frozenset(),
    0xDF: frozenset({1, 2, 3, 6, 7}),  # fisttp, fist, fistp, fbstp, fistp64
}

# modrm.reg values of the FF group that are indirect calls / jumps.
GRP5_CALL_REGS = frozenset({2, 3})
GRP5_JMP_REGS = frozenset({4, 5})
GRP5_PUSH_REG = 6


# ---------------------------------------------------------------------------
# Two-byte (0F) map.
# ---------------------------------------------------------------------------
# Default for unlisted 0F opcodes: ModRM present, no immediate.  This is
# correct for the large uniform SSE/MMX region (0F 10-7F, 0F 90-FF) except
# for the immediates and no-ModRM opcodes listed explicitly below.

_TB_DEFAULT = OpSpec("op0f", modrm=True)

TWO_BYTE: dict[int, OpSpec] = {}

TWO_BYTE[0x00] = OpSpec("grp6", modrm=True)
TWO_BYTE[0x01] = OpSpec("grp7", modrm=True)
TWO_BYTE[0x02] = OpSpec("lar", modrm=True)
TWO_BYTE[0x03] = OpSpec("lsl", modrm=True)
TWO_BYTE[0x05] = OpSpec("syscall", flow=Flow.SYSCALL)
TWO_BYTE[0x06] = OpSpec("clts")
TWO_BYTE[0x07] = OpSpec("sysret")
TWO_BYTE[0x08] = OpSpec("invd")
TWO_BYTE[0x09] = OpSpec("wbinvd")
TWO_BYTE[0x0B] = OpSpec("ud2")
TWO_BYTE[0x0D] = OpSpec("prefetch", modrm=True)
TWO_BYTE[0x0E] = OpSpec("femms")
# 0F 0F (3DNow!) takes ModRM + imm8 opcode suffix.
TWO_BYTE[0x0F] = OpSpec("3dnow", modrm=True, imm=Imm.IB)

# SSE mov block: stores flagged (destination is r/m).
for _op in (0x10, 0x12, 0x14, 0x15, 0x16, 0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x1D, 0x1E):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
for _op in (0x11, 0x13, 0x17):
    TWO_BYTE[_op] = OpSpec("sse-store", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0x1F] = OpSpec("nop", modrm=True)

for _op in range(0x20, 0x24):
    TWO_BYTE[_op] = OpSpec("movcr", modrm=True)
for _op in (0x28, 0x2A, 0x2C, 0x2D, 0x2E, 0x2F):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x29] = OpSpec("movaps-store", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0x2B] = OpSpec("movntps", modrm=True, flags=F_WRITES_RM)

TWO_BYTE[0x30] = OpSpec("wrmsr")
TWO_BYTE[0x31] = OpSpec("rdtsc")
TWO_BYTE[0x32] = OpSpec("rdmsr")
TWO_BYTE[0x33] = OpSpec("rdpmc")
TWO_BYTE[0x34] = OpSpec("sysenter")
TWO_BYTE[0x35] = OpSpec("sysexit")
TWO_BYTE[0x37] = OpSpec("getsec")

for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x40 + _i] = OpSpec(f"cmov{_cc}", modrm=True)

for _op in range(0x50, 0x70):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x70] = OpSpec("pshuf", modrm=True, imm=Imm.IB)
TWO_BYTE[0x71] = OpSpec("grp12", modrm=True, imm=Imm.IB)
TWO_BYTE[0x72] = OpSpec("grp13", modrm=True, imm=Imm.IB)
TWO_BYTE[0x73] = OpSpec("grp14", modrm=True, imm=Imm.IB)
for _op in range(0x74, 0x77):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x77] = OpSpec("emms")
TWO_BYTE[0x78] = OpSpec("vmread", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0x79] = OpSpec("vmwrite", modrm=True)
TWO_BYTE[0x7C] = OpSpec("sse", modrm=True)
TWO_BYTE[0x7D] = OpSpec("sse", modrm=True)
TWO_BYTE[0x7E] = OpSpec("movd-store", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0x7F] = OpSpec("movq-store", modrm=True, flags=F_WRITES_RM)

for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x80 + _i] = OpSpec(f"j{_cc}", imm=Imm.REL32, flow=Flow.JCC)
for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x90 + _i] = OpSpec(f"set{_cc}", modrm=True, flags=F_WRITES_RM)

TWO_BYTE[0xA0] = OpSpec("push")
TWO_BYTE[0xA1] = OpSpec("pop")
TWO_BYTE[0xA2] = OpSpec("cpuid")
TWO_BYTE[0xA3] = OpSpec("bt", modrm=True)
TWO_BYTE[0xA4] = OpSpec("shld", modrm=True, imm=Imm.IB, flags=F_WRITES_RM)
TWO_BYTE[0xA5] = OpSpec("shld", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xA8] = OpSpec("push")
TWO_BYTE[0xA9] = OpSpec("pop")
TWO_BYTE[0xAA] = OpSpec("rsm")
TWO_BYTE[0xAB] = OpSpec("bts", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xAC] = OpSpec("shrd", modrm=True, imm=Imm.IB, flags=F_WRITES_RM)
TWO_BYTE[0xAD] = OpSpec("shrd", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xAE] = OpSpec("grp15", modrm=True)
TWO_BYTE[0xAF] = OpSpec("imul", modrm=True)

TWO_BYTE[0xB0] = OpSpec("cmpxchg", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xB1] = OpSpec("cmpxchg", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xB2] = OpSpec("lss", modrm=True)
TWO_BYTE[0xB3] = OpSpec("btr", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xB4] = OpSpec("lfs", modrm=True)
TWO_BYTE[0xB5] = OpSpec("lgs", modrm=True)
TWO_BYTE[0xB6] = OpSpec("movzx", modrm=True)
TWO_BYTE[0xB7] = OpSpec("movzx", modrm=True)
TWO_BYTE[0xB8] = OpSpec("popcnt", modrm=True)
TWO_BYTE[0xB9] = OpSpec("ud1", modrm=True)
TWO_BYTE[0xBA] = OpSpec("grp8", modrm=True, imm=Imm.IB, flags=F_GROUP_WRITE)
TWO_BYTE[0xBB] = OpSpec("btc", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xBC] = OpSpec("bsf", modrm=True)
TWO_BYTE[0xBD] = OpSpec("bsr", modrm=True)
TWO_BYTE[0xBE] = OpSpec("movsx", modrm=True)
TWO_BYTE[0xBF] = OpSpec("movsx", modrm=True)

TWO_BYTE[0xC0] = OpSpec("xadd", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xC1] = OpSpec("xadd", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xC2] = OpSpec("cmpps", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC3] = OpSpec("movnti", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xC4] = OpSpec("pinsrw", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC5] = OpSpec("pextrw", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC6] = OpSpec("shufps", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC7] = OpSpec("grp9", modrm=True, flags=F_GROUP_WRITE)
for _i in range(8):
    TWO_BYTE[0xC8 + _i] = OpSpec("bswap")

for _op in range(0xD0, 0x100):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0xD6] = OpSpec("movq-store", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xE7] = OpSpec("movnt", modrm=True, flags=F_WRITES_RM)
TWO_BYTE[0xF7] = OpSpec("maskmov", modrm=True, flags=F_STRING_WRITE)
TWO_BYTE[0xFF] = OpSpec("ud0", modrm=True)

GROUP_WRITES[0x0FBA] = frozenset({5, 6, 7})  # bts/btr/btc imm forms
GROUP_WRITES[0x0FC7] = frozenset({1})  # cmpxchg8b/16b

# ---------------------------------------------------------------------------
# Three-byte maps.
# ---------------------------------------------------------------------------
# 0F 38: ModRM, no immediate (movbe/crc32 included).
THREE_BYTE_38_DEFAULT = OpSpec("op0f38", modrm=True)
THREE_BYTE_38_STORES = frozenset({0xF1})  # movbe m, r

# 0F 3A: ModRM + imm8 throughout.
THREE_BYTE_3A_DEFAULT = OpSpec("op0f3a", modrm=True, imm=Imm.IB)
THREE_BYTE_3A_STORES = frozenset({0x14, 0x15, 0x16, 0x17})  # pextrb/w/d, extractps


def two_byte_spec(opcode: int) -> OpSpec:
    """Return the OpSpec for a 0F-map opcode."""
    return TWO_BYTE.get(opcode, _TB_DEFAULT)


# VEX/EVEX map-1 opcodes whose r/m operand is the destination (the
# vmovups/vmovlps/vmovhps/vmovaps/vmovntps/vmovdqa/vmovq/vmovntdq stores).
VEX_MAP1_STORES = frozenset({0x11, 0x13, 0x17, 0x29, 0x2B, 0x7F, 0xD6, 0xE7})

# (map, opcode) pairs of VEX/EVEX instructions without a ModRM byte:
# vzeroupper/vzeroall.
VEX_NO_MODRM = frozenset({(1, 0x77)})


# Immediate kind of every VEX/EVEX (map, opcode): map 1 (the 0F map)
# reuses the legacy table's classification, map 3 (0F3A) is imm8
# throughout, and maps 2 (0F38) and 4+ (EVEX only) carry no immediates in
# the subset we care about.
_VEX_IMM = [[Imm.NONE] * 256 for _ in range(32)]
_VEX_IMM[1] = [two_byte_spec(_op).imm for _op in range(256)]
_VEX_IMM[3] = [Imm.IB] * 256


def vex_imm_kind(map_select: int, opcode: int) -> Imm:
    """Immediate kind for a VEX/EVEX-encoded opcode in the given map
    (0-31, the widest map-select field)."""
    return _VEX_IMM[map_select][opcode]
