"""The opcode table: every x86-64 opcode's layout, flow, name and effects.

Each opcode has one row (:class:`OpSpec`) holding what the rest of the
package knows about it: whether a ModRM byte follows, what immediate
(if any) follows the addressing bytes, its control-flow class, its
mnemonic, and an effect template (:class:`Effects`) giving the
registers, flags and memory it reads and writes.  The decoder, the
vectorized length scan (:mod:`repro.x86.fastscan`) and the fact engine
(:mod:`repro.analysis.facts`) all derive their dense per-opcode lists
from these rows at import, so a fact is written here once.

The rows cover the full one-byte map, the 0F two-byte map and the
0F38/0F3A three-byte maps; VEX/EVEX opcodes reuse the 0F row's
immediate kind (:func:`vex_imm_kind`).  That is enough to length-decode
arbitrary compiled x86-64 userland code (validated against objdump in
the test suite).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


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


# Layout flags ------------------------------------------------------------
F_STRING_WRITE = 1 << 2  # implicit store through %rdi (movs/stos) or moffs
F_INVALID64 = 1 << 3  # not a valid opcode in 64-bit mode

# Flag bits, one per tracked RFLAGS bit ----------------------------------
CF = 1 << 0
PF = 1 << 1
AF = 1 << 2
ZF = 1 << 3
SF = 1 << 4
OF = 1 << 5
DF = 1 << 6

#: The six status flags the ALU defines (DF is control, not status).
STATUS_FLAGS = CF | PF | AF | ZF | SF | OF
ALL_FLAGS = STATUS_FLAGS | DF

# ALU flag behaviour, shared by many rows.
_ARITH = STATUS_FLAGS  # add/sub/cmp/neg: all six defined
_LOGIC = CF | PF | ZF | SF | OF  # and/or/xor/test: AF undefined
_INCDEC = PF | AF | ZF | SF | OF  # inc/dec: CF preserved

# Implicit registers (ModRM/REX numbering).
_RAX, _RCX, _RDX = 1 << 0, 1 << 1, 1 << 2
_RSP, _RBP, _RSI, _RDI = 1 << 4, 1 << 5, 1 << 6, 1 << 7


@dataclass(frozen=True)
class Effects:
    """One opcode's operand roles, resolved per instruction by
    :func:`repro.analysis.facts.facts_for`.

    ``rm_*``/``reg_*`` describe the ModRM operands; ``plusr_*`` the
    register encoded in the opcode's low three bits (push/pop/xchg/
    mov-imm/bswap); the ``reads``/``writes``/``kills`` masks are implicit
    registers (``push`` touches ``rsp``, ``mul`` writes ``rdx``...).
    ``mem`` classifies an implicit memory operand (push/pop, string
    ops, moffs) and ``mem_r``/``mem_w`` give its direction.

    ``known=False`` marks an opcode the fact engine does not model; its
    ``rm_w`` still records whether the r/m operand is written, which is
    what the decoder's ``writes_rm`` reads.
    """

    known: bool = True
    rm_r: bool = False
    rm_w: bool = False
    rm_byte: bool = False  # rm operand is 8-bit regardless of opsize (movzx)
    reg_r: bool = False
    reg_w: bool = False
    reg_no_kill: bool = False  # reg write is conditional or undefined (cmov, bsf)
    plusr_r: bool = False
    plusr_w: bool = False
    reads: int = 0
    writes: int = 0
    kills: int = 0
    flags_r: int = 0
    flags_w: int = 0
    flags_must: int = 0
    byte_op: bool = False  # 8-bit operand size (no 66/REX.W sizing)
    no_mem: bool = False  # mem-form r/m is address-only (lea, multi-byte nop)
    cc_uses: bool = False  # opcode & 0xF selects a condition code
    string_op: bool = False  # rep-prefixable rsi/rdi stepper
    mem: str | None = None  # implicit memory: "stack" | "heap" | "global"
    mem_r: bool = False
    mem_w: bool = False


#: An opcode the fact engine does not model.
UNKNOWN = Effects(known=False)
#: An unmodelled opcode that writes its r/m operand (stores).
STORE = Effects(known=False, rm_w=True)


@dataclass(frozen=True)
class OpSpec:
    """One opcode's row.

    Group opcodes, whose ModRM.reg field selects the operation, give
    ``mnemonic`` and/or ``effects`` as 8-tuples indexed by ModRM.reg.
    """

    mnemonic: str | tuple[str, ...]
    modrm: bool = False
    imm: Imm = Imm.NONE
    flow: Flow = Flow.NONE
    flags: int = 0
    effects: Effects | tuple[Effects, ...] = UNKNOWN


_BAD = OpSpec("(bad)", flags=F_INVALID64)
_STACK = dict(reads=_RSP, writes=_RSP, kills=_RSP, mem="stack")
_PUSH = Effects(**_STACK, mem_w=True)
_POP = Effects(**_STACK, mem_r=True)


def _byte(effects: Effects) -> Effects:
    return replace(effects, byte_op=True)


def _pair(table: dict, op: int, name, effects: Effects, **layout) -> None:
    """An operation's byte form at even *op* and its word form at *op* + 1
    (the low opcode bit selects the operand size)."""
    table[op] = OpSpec(name, effects=_byte(effects), **layout)
    table[op + 1] = OpSpec(name, effects=effects, **layout)


# ---------------------------------------------------------------------------
# One-byte map.
# ---------------------------------------------------------------------------

ONE_BYTE: dict[int, OpSpec] = {}

#: The eight ALU operations in opcode (and grp1 ModRM.reg) order: name,
#: must-defined flags, flags read.
_ALU = (
    ("add", _ARITH, 0), ("or", _LOGIC, 0), ("adc", _ARITH, CF),
    ("sbb", _ARITH, CF), ("and", _LOGIC, 0), ("sub", _ARITH, 0),
    ("xor", _LOGIC, 0), ("cmp", _ARITH, 0),
)
_GRP1 = tuple(name for name, _, _ in _ALU)

# The 00-3D two-operand ALU blocks: Eb,Gb / Ev,Gv / Gb,Eb / Gv,Ev, then
# the AL,Ib / eAX,Iz implicit-register forms.
for _i, (_name, _must, _cf) in enumerate(_ALU):
    _w = _name != "cmp"
    _fx = dict(flags_r=_cf, flags_w=STATUS_FLAGS, flags_must=_must)
    _to_rm = Effects(rm_r=True, rm_w=_w, reg_r=True, **_fx)
    _to_reg = Effects(rm_r=True, reg_r=True, reg_w=_w, **_fx)
    _ax = _RAX if _w else 0
    _base = _i * 8
    _pair(ONE_BYTE, _base, _name, _to_rm, modrm=True)
    _pair(ONE_BYTE, _base + 2, _name, _to_reg, modrm=True)
    ONE_BYTE[_base + 4] = OpSpec(_name, imm=Imm.IB, effects=Effects(
        reads=_RAX, writes=_ax, byte_op=True, **_fx))
    ONE_BYTE[_base + 5] = OpSpec(_name, imm=Imm.IZ, effects=Effects(
        reads=_RAX, writes=_ax, kills=_ax, **_fx))

# 0x06/0x0E/... legacy push/pop seg and BCD opcodes: invalid in 64-bit.
for _op in (0x06, 0x07, 0x0E, 0x16, 0x17, 0x1E, 0x1F, 0x27, 0x2F, 0x37, 0x3F):
    ONE_BYTE[_op] = _BAD

# 0x40-0x4F are REX prefixes (consumed before opcode dispatch).
# 0x50-0x5F: push/pop r64.
for _i in range(8):
    ONE_BYTE[0x50 + _i] = OpSpec("push", effects=replace(_PUSH, plusr_r=True))
    ONE_BYTE[0x58 + _i] = OpSpec("pop", effects=replace(_POP, plusr_w=True))

ONE_BYTE[0x60] = _BAD
ONE_BYTE[0x61] = _BAD
# 0x62 is the EVEX prefix in 64-bit mode (handled by the decoder).
ONE_BYTE[0x63] = OpSpec("movsxd", modrm=True, effects=Effects(rm_r=True, reg_w=True))
ONE_BYTE[0x68] = OpSpec("push", imm=Imm.IZ, effects=_PUSH)
_IMUL = Effects(rm_r=True, reg_w=True, flags_w=STATUS_FLAGS, flags_must=CF | OF)
ONE_BYTE[0x69] = OpSpec("imul", modrm=True, imm=Imm.IZ, effects=_IMUL)
ONE_BYTE[0x6A] = OpSpec("push", imm=Imm.IB, effects=_PUSH)
ONE_BYTE[0x6B] = OpSpec("imul", modrm=True, imm=Imm.IB, effects=_IMUL)
ONE_BYTE[0x6C] = OpSpec("insb", flags=F_STRING_WRITE)
ONE_BYTE[0x6D] = OpSpec("insd", flags=F_STRING_WRITE)
ONE_BYTE[0x6E] = OpSpec("outsb")
ONE_BYTE[0x6F] = OpSpec("outsd")

_CCS = (
    "o", "no", "b", "ae", "e", "ne", "be", "a",
    "s", "ns", "p", "np", "l", "ge", "le", "g",
)
_JCC = Effects(cc_uses=True)  # direct branches touch no register or memory
for _i, _cc in enumerate(_CCS):
    ONE_BYTE[0x70 + _i] = OpSpec(f"j{_cc}", imm=Imm.REL8, flow=Flow.JCC, effects=_JCC)

# grp1: /7 is cmp (no write); adc/sbb read CF.
_GRP1_FX = tuple(
    Effects(rm_r=True, rm_w=name != "cmp", flags_r=cf, flags_w=STATUS_FLAGS, flags_must=must)
    for name, must, cf in _ALU
)
ONE_BYTE[0x80] = OpSpec(_GRP1, modrm=True, imm=Imm.IB,
                        effects=tuple(map(_byte, _GRP1_FX)))
ONE_BYTE[0x81] = OpSpec(_GRP1, modrm=True, imm=Imm.IZ, effects=_GRP1_FX)
ONE_BYTE[0x82] = _BAD
ONE_BYTE[0x83] = OpSpec(_GRP1, modrm=True, imm=Imm.IB, effects=_GRP1_FX)
_pair(ONE_BYTE, 0x84, "test", Effects(rm_r=True, reg_r=True, flags_w=STATUS_FLAGS,
                                      flags_must=_LOGIC), modrm=True)
_pair(ONE_BYTE, 0x86, "xchg", Effects(rm_r=True, rm_w=True, reg_r=True, reg_w=True),
      modrm=True)
_MOV_TO_REG = Effects(rm_r=True, reg_w=True)
_pair(ONE_BYTE, 0x88, "mov", Effects(rm_w=True, reg_r=True), modrm=True)
_pair(ONE_BYTE, 0x8A, "mov", _MOV_TO_REG, modrm=True)
ONE_BYTE[0x8C] = OpSpec("mov", modrm=True, effects=STORE)
ONE_BYTE[0x8D] = OpSpec("lea", modrm=True, effects=Effects(reg_w=True, no_mem=True))
ONE_BYTE[0x8E] = OpSpec("mov", modrm=True)
ONE_BYTE[0x8F] = OpSpec("pop", modrm=True,
                        effects=(replace(_POP, rm_w=True),) + (STORE,) * 7)

ONE_BYTE[0x90] = OpSpec("nop", effects=Effects())
_XCHG_AX = OpSpec("xchg", effects=Effects(plusr_r=True, plusr_w=True,
                                          reads=_RAX, writes=_RAX))
for _i in range(1, 8):
    ONE_BYTE[0x90 + _i] = _XCHG_AX
ONE_BYTE[0x98] = OpSpec("cwtl", effects=Effects(reads=_RAX, writes=_RAX))
ONE_BYTE[0x99] = OpSpec("cltd", effects=Effects(reads=_RAX, writes=_RDX))
ONE_BYTE[0x9A] = _BAD
ONE_BYTE[0x9B] = OpSpec("fwait")
ONE_BYTE[0x9C] = OpSpec("pushf", effects=replace(_PUSH, flags_r=ALL_FLAGS))
ONE_BYTE[0x9D] = OpSpec("popf", effects=replace(
    _POP, flags_w=ALL_FLAGS, flags_must=ALL_FLAGS))
_AH_FLAGS = CF | PF | AF | ZF | SF
ONE_BYTE[0x9E] = OpSpec("sahf", effects=Effects(
    reads=_RAX, flags_w=_AH_FLAGS, flags_must=_AH_FLAGS))
ONE_BYTE[0x9F] = OpSpec("lahf", effects=Effects(writes=_RAX, flags_r=_AH_FLAGS))

# moffs forms: absolute-address loads and stores through rax.
_pair(ONE_BYTE, 0xA0, "mov", Effects(writes=_RAX, mem="global", mem_r=True),
      imm=Imm.MOFFS)
_pair(ONE_BYTE, 0xA2, "mov", Effects(reads=_RAX, mem="global", mem_w=True),
      imm=Imm.MOFFS, flags=F_STRING_WRITE)

# String ops step rsi/rdi (pointer-typed: an unclassifiable "heap"
# target); byte forms first.
_STRINGS = (
    # movs: [rsi] -> [rdi]
    (0xA4, "movs", F_STRING_WRITE, dict(reads=_RSI | _RDI, writes=_RSI | _RDI,
                                        mem_r=True, mem_w=True)),
    # cmps: compare [rsi], [rdi]
    (0xA6, "cmps", 0, dict(reads=_RSI | _RDI, writes=_RSI | _RDI, mem_r=True,
                           flags_w=STATUS_FLAGS, flags_must=_ARITH)),
    # stos: al/eax/rax -> [rdi]
    (0xAA, "stos", F_STRING_WRITE, dict(reads=_RAX | _RDI, writes=_RDI,
                                        mem_w=True)),
    # lods: [rsi] -> al/eax/rax
    (0xAC, "lods", 0, dict(reads=_RSI, writes=_RAX | _RSI, mem_r=True)),
    # scas: compare al/eax/rax with [rdi]
    (0xAE, "scas", 0, dict(reads=_RAX | _RDI, writes=_RDI, mem_r=True,
                           flags_w=STATUS_FLAGS, flags_must=_ARITH)),
)
for _op, _name, _flags, _fx in _STRINGS:
    _string = Effects(flags_r=DF, string_op=True, mem="heap", **_fx)
    ONE_BYTE[_op] = OpSpec(_name + "b", flags=_flags, effects=_byte(_string))
    ONE_BYTE[_op + 1] = OpSpec(_name + "d", flags=_flags, effects=_string)
_TEST_AX = Effects(reads=_RAX, flags_w=STATUS_FLAGS, flags_must=_LOGIC)
ONE_BYTE[0xA8] = OpSpec("test", imm=Imm.IB, effects=_byte(_TEST_AX))
ONE_BYTE[0xA9] = OpSpec("test", imm=Imm.IZ, effects=_TEST_AX)

# mov r, imm: the 8-bit form merges; the 32/64-bit B8+r form
# zero-extends and kills (facts_for resolves kills from operand size).
for _i in range(8):
    ONE_BYTE[0xB0 + _i] = OpSpec("mov", imm=Imm.IB,
                                 effects=Effects(plusr_w=True, byte_op=True))
    ONE_BYTE[0xB8 + _i] = OpSpec("mov", imm=Imm.IV, effects=Effects(plusr_w=True))

# grp2 shifts/rotates: a zero count changes nothing, so every flag is
# may-written and none must-defined; rcl/rcr additionally read CF.
_GRP2 = ("rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar")
_SHIFT = Effects(rm_r=True, rm_w=True, flags_r=CF, flags_w=STATUS_FLAGS)
_pair(ONE_BYTE, 0xC0, _GRP2, _SHIFT, modrm=True, imm=Imm.IB)
ONE_BYTE[0xC2] = OpSpec("ret", imm=Imm.IW, flow=Flow.RET)
ONE_BYTE[0xC3] = OpSpec("ret", flow=Flow.RET)
# 0xC4/0xC5 are VEX prefixes in 64-bit mode (handled by the decoder).
_MOV_IMM = Effects(rm_w=True)
ONE_BYTE[0xC6] = OpSpec("mov", modrm=True, imm=Imm.IB,
                        effects=(_byte(_MOV_IMM),) + (STORE,) * 7)
ONE_BYTE[0xC7] = OpSpec("mov", modrm=True, imm=Imm.IZ,
                        effects=(_MOV_IMM,) + (STORE,) * 7)
ONE_BYTE[0xC8] = OpSpec("enter", imm=Imm.IW_IB)
ONE_BYTE[0xC9] = OpSpec("leave", effects=Effects(
    reads=_RBP | _RSP, writes=_RSP | _RBP, kills=_RSP | _RBP,
    mem="stack", mem_r=True))
ONE_BYTE[0xCA] = OpSpec("retf", imm=Imm.IW, flow=Flow.RET)
ONE_BYTE[0xCB] = OpSpec("retf", flow=Flow.RET)
ONE_BYTE[0xCC] = OpSpec("int3", flow=Flow.INT3)
ONE_BYTE[0xCD] = OpSpec("int", imm=Imm.IB, flow=Flow.INT)
ONE_BYTE[0xCE] = _BAD
ONE_BYTE[0xCF] = OpSpec("iret", flow=Flow.RET)

_pair(ONE_BYTE, 0xD0, _GRP2, _SHIFT, modrm=True)
_pair(ONE_BYTE, 0xD2, _GRP2, replace(_SHIFT, reads=_RCX), modrm=True)
ONE_BYTE[0xD4] = _BAD
ONE_BYTE[0xD5] = _BAD
ONE_BYTE[0xD6] = _BAD
ONE_BYTE[0xD7] = OpSpec("xlat")

# x87 escapes: always ModRM.  The ModRM.reg values that store to memory
# (a conservative superset): fst/fstp/fnstenv/fnstcw (D9), fisttp/fist/
# fistp/fstp80 (DB), fisttp/fst/fstp/fnsave/fnstsw (DD), fisttp/fist/
# fistp/fbstp/fistp64 (DF).
for _op, _stores in (
    (0xD8, ()), (0xD9, (2, 3, 6, 7)), (0xDA, ()), (0xDB, (1, 2, 3, 7)),
    (0xDC, ()), (0xDD, (1, 2, 3, 6, 7)), (0xDE, ()), (0xDF, (1, 2, 3, 6, 7)),
):
    ONE_BYTE[_op] = OpSpec("x87", modrm=True, effects=tuple(
        STORE if _reg in _stores else UNKNOWN for _reg in range(8)))

# Direct branches transfer control with no register or memory effects;
# loopcc additionally decrements rcx (loope/loopne read ZF).  Direct
# call (E8) stays unknown: it writes the return address and the callee
# may clobber anything.
_LOOP = Effects(reads=_RCX, writes=_RCX, kills=_RCX)
ONE_BYTE[0xE0] = OpSpec("loopne", imm=Imm.REL8, flow=Flow.LOOP,
                        effects=replace(_LOOP, flags_r=ZF))
ONE_BYTE[0xE1] = OpSpec("loope", imm=Imm.REL8, flow=Flow.LOOP,
                        effects=replace(_LOOP, flags_r=ZF))
ONE_BYTE[0xE2] = OpSpec("loop", imm=Imm.REL8, flow=Flow.LOOP, effects=_LOOP)
ONE_BYTE[0xE3] = OpSpec("jrcxz", imm=Imm.REL8, flow=Flow.LOOP,
                        effects=Effects(reads=_RCX))
ONE_BYTE[0xE4] = OpSpec("in", imm=Imm.IB)
ONE_BYTE[0xE5] = OpSpec("in", imm=Imm.IB)
ONE_BYTE[0xE6] = OpSpec("out", imm=Imm.IB)
ONE_BYTE[0xE7] = OpSpec("out", imm=Imm.IB)
ONE_BYTE[0xE8] = OpSpec("call", imm=Imm.REL32, flow=Flow.CALL)
ONE_BYTE[0xE9] = OpSpec("jmp", imm=Imm.REL32, flow=Flow.JMP, effects=Effects())
ONE_BYTE[0xEA] = _BAD
ONE_BYTE[0xEB] = OpSpec("jmp", imm=Imm.REL8, flow=Flow.JMP, effects=Effects())
ONE_BYTE[0xEC] = OpSpec("in")
ONE_BYTE[0xED] = OpSpec("in")
ONE_BYTE[0xEE] = OpSpec("out")
ONE_BYTE[0xEF] = OpSpec("out")

# 0xF0/F2/F3 are prefixes.
ONE_BYTE[0xF1] = OpSpec("int1", flow=Flow.INT)
ONE_BYTE[0xF4] = OpSpec("hlt", flow=Flow.HLT)
ONE_BYTE[0xF5] = OpSpec("cmc", effects=Effects(flags_r=CF, flags_w=CF, flags_must=CF))
# grp3: test /0 /1, not /2 (no flags), neg /3, then mul/imul/div/idiv.
# The byte form works on AL with the result in AX (rdx untouched); the
# word form uses rdx:rax.  div/idiv leave every flag undefined.
_GRP3 = ("test", "test", "not", "neg", "mul", "imul", "div", "idiv")
_MUL = Effects(rm_r=True, flags_w=STATUS_FLAGS, flags_must=CF | OF)
_DIV = Effects(rm_r=True, flags_w=STATUS_FLAGS)
_GRP3_FX = (
    Effects(rm_r=True, flags_w=STATUS_FLAGS, flags_must=_LOGIC),
    Effects(rm_r=True, flags_w=STATUS_FLAGS, flags_must=_LOGIC),
    Effects(rm_r=True, rm_w=True),
    Effects(rm_r=True, rm_w=True, flags_w=STATUS_FLAGS, flags_must=_ARITH),
)
ONE_BYTE[0xF6] = OpSpec(_GRP3, modrm=True, imm=Imm.GROUP3, effects=tuple(
    map(_byte, _GRP3_FX + (replace(_MUL, reads=_RAX, writes=_RAX),) * 2
        + (replace(_DIV, reads=_RAX, writes=_RAX),) * 2)))
ONE_BYTE[0xF7] = OpSpec(_GRP3, modrm=True, imm=Imm.GROUP3, effects=(
    _GRP3_FX + (replace(_MUL, reads=_RAX, writes=_RAX | _RDX),) * 2
    + (replace(_DIV, reads=_RAX | _RDX, writes=_RAX | _RDX),) * 2))
ONE_BYTE[0xF8] = OpSpec("clc", effects=Effects(flags_w=CF, flags_must=CF))
ONE_BYTE[0xF9] = OpSpec("stc", effects=Effects(flags_w=CF, flags_must=CF))
ONE_BYTE[0xFA] = OpSpec("cli")
ONE_BYTE[0xFB] = OpSpec("sti")
ONE_BYTE[0xFC] = OpSpec("cld", effects=Effects(flags_w=DF, flags_must=DF))
ONE_BYTE[0xFD] = OpSpec("std", effects=Effects(flags_w=DF, flags_must=DF))
# grp4/grp5: inc/dec rm; grp5 call/jmp are Flow.GROUP5 (liveness stops
# there anyway) and push /6 reads its operand.
_INC = Effects(rm_r=True, rm_w=True, flags_w=_INCDEC, flags_must=_INCDEC)
ONE_BYTE[0xFE] = OpSpec(("inc", "dec") + ("(bad)",) * 6, modrm=True,
                        effects=(_byte(_INC),) * 2 + (UNKNOWN,) * 6)
ONE_BYTE[0xFF] = OpSpec(
    ("inc", "dec", "call", "lcall", "jmp", "ljmp", "push", "(bad)"),
    modrm=True, flow=Flow.GROUP5,
    effects=(_INC, _INC) + (UNKNOWN,) * 4 + (replace(_PUSH, rm_r=True), UNKNOWN),
)

#: One-byte rows REX.B replaces.  With REX.B, 90 exchanges %eax with
#: %r8d (objdump: ``41 90`` is ``xchg %eax,%r8d``); without it, 90 is
#: ``nop``.
REX_B_ROWS = {0x90: _XCHG_AX}

# modrm.reg values of the FF group that are indirect calls / jumps.
GRP5_CALL_REGS = frozenset({2, 3})
GRP5_JMP_REGS = frozenset({4, 5})


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
TWO_BYTE[0x05] = OpSpec("syscall", flow=Flow.SYSCALL)  # kernel-defined effects
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
    TWO_BYTE[_op] = OpSpec("sse-store", modrm=True, effects=STORE)
# Multi-byte nop (any /reg): the memory operand is address-only.
TWO_BYTE[0x1F] = OpSpec("nop", modrm=True, effects=Effects(no_mem=True))

for _op in range(0x20, 0x24):
    TWO_BYTE[_op] = OpSpec("movcr", modrm=True)
for _op in (0x28, 0x2A, 0x2C, 0x2D, 0x2E, 0x2F):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x29] = OpSpec("movaps-store", modrm=True, effects=STORE)
TWO_BYTE[0x2B] = OpSpec("movntps", modrm=True, effects=STORE)

TWO_BYTE[0x30] = OpSpec("wrmsr")
TWO_BYTE[0x31] = OpSpec("rdtsc")
TWO_BYTE[0x32] = OpSpec("rdmsr")
TWO_BYTE[0x33] = OpSpec("rdpmc")
TWO_BYTE[0x34] = OpSpec("sysenter")
TWO_BYTE[0x35] = OpSpec("sysexit")
TWO_BYTE[0x37] = OpSpec("getsec")

# cmovcc: the destination is written only when the condition holds.
_CMOV = Effects(rm_r=True, reg_r=True, reg_w=True, reg_no_kill=True, cc_uses=True)
for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x40 + _i] = OpSpec(f"cmov{_cc}", modrm=True, effects=_CMOV)

for _op in range(0x50, 0x70):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x70] = OpSpec("pshuf", modrm=True, imm=Imm.IB)
TWO_BYTE[0x71] = OpSpec("grp12", modrm=True, imm=Imm.IB)
TWO_BYTE[0x72] = OpSpec("grp13", modrm=True, imm=Imm.IB)
TWO_BYTE[0x73] = OpSpec("grp14", modrm=True, imm=Imm.IB)
for _op in range(0x74, 0x77):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0x77] = OpSpec("emms")
TWO_BYTE[0x78] = OpSpec("vmread", modrm=True, effects=STORE)
TWO_BYTE[0x79] = OpSpec("vmwrite", modrm=True)
TWO_BYTE[0x7C] = OpSpec("sse", modrm=True)
TWO_BYTE[0x7D] = OpSpec("sse", modrm=True)
# 66 0F 7E / 0F 7E store; F3 0F 7E is the movq load (see the decoder).
TWO_BYTE[0x7E] = OpSpec("movd-store", modrm=True, effects=STORE)
TWO_BYTE[0x7F] = OpSpec("movq-store", modrm=True, effects=STORE)

for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x80 + _i] = OpSpec(f"j{_cc}", imm=Imm.REL32, flow=Flow.JCC, effects=_JCC)
_SETCC = Effects(rm_w=True, byte_op=True, cc_uses=True)
for _i, _cc in enumerate(_CCS):
    TWO_BYTE[0x90 + _i] = OpSpec(f"set{_cc}", modrm=True, effects=_SETCC)

TWO_BYTE[0xA0] = OpSpec("push")
TWO_BYTE[0xA1] = OpSpec("pop")
TWO_BYTE[0xA2] = OpSpec("cpuid")
_BT = Effects(rm_r=True, reg_r=True, flags_w=STATUS_FLAGS, flags_must=CF)
_BT_W = replace(_BT, rm_w=True)
TWO_BYTE[0xA3] = OpSpec("bt", modrm=True, effects=_BT)
TWO_BYTE[0xA4] = OpSpec("shld", modrm=True, imm=Imm.IB, effects=STORE)
TWO_BYTE[0xA5] = OpSpec("shld", modrm=True, effects=STORE)
TWO_BYTE[0xA8] = OpSpec("push")
TWO_BYTE[0xA9] = OpSpec("pop")
TWO_BYTE[0xAA] = OpSpec("rsm")
TWO_BYTE[0xAB] = OpSpec("bts", modrm=True, effects=_BT_W)
TWO_BYTE[0xAC] = OpSpec("shrd", modrm=True, imm=Imm.IB, effects=STORE)
TWO_BYTE[0xAD] = OpSpec("shrd", modrm=True, effects=STORE)
# grp15: /0 fxsave, /3 stmxcsr, /4 xsave and /6 xsaveopt store (the
# prefixed /6 forms clwb and ptwrite only over-approximate).
TWO_BYTE[0xAE] = OpSpec("grp15", modrm=True, effects=(
    STORE, UNKNOWN, UNKNOWN, STORE, STORE, UNKNOWN, STORE, UNKNOWN))
TWO_BYTE[0xAF] = OpSpec("imul", modrm=True, effects=replace(_IMUL, reg_r=True))

_pair(TWO_BYTE, 0xB0, "cmpxchg", Effects(rm_r=True, rm_w=True, reg_r=True, reads=_RAX,
                                        writes=_RAX, flags_w=STATUS_FLAGS, flags_must=_ARITH),
      modrm=True)
TWO_BYTE[0xB2] = OpSpec("lss", modrm=True)
TWO_BYTE[0xB3] = OpSpec("btr", modrm=True, effects=_BT_W)
TWO_BYTE[0xB4] = OpSpec("lfs", modrm=True)
TWO_BYTE[0xB5] = OpSpec("lgs", modrm=True)
TWO_BYTE[0xB6] = OpSpec("movzx", modrm=True, effects=replace(_MOV_TO_REG, rm_byte=True))
TWO_BYTE[0xB7] = OpSpec("movzx", modrm=True, effects=_MOV_TO_REG)
# popcnt only under F3 (the fact engine checks the prefix).
TWO_BYTE[0xB8] = OpSpec("popcnt", modrm=True, effects=Effects(
    rm_r=True, reg_w=True, flags_w=STATUS_FLAGS, flags_must=_LOGIC))
TWO_BYTE[0xB9] = OpSpec("ud1", modrm=True)
# grp8: bt/bts/btr/btc with imm8; /5 /6 /7 write.
TWO_BYTE[0xBA] = OpSpec("grp8", modrm=True, imm=Imm.IB,
                        effects=(UNKNOWN,) * 5 + (STORE,) * 3)
TWO_BYTE[0xBB] = OpSpec("btc", modrm=True, effects=_BT_W)
# bsf/bsr: the destination is undefined on ZF=1 (written, never killed).
_BSF = Effects(rm_r=True, reg_w=True, reg_no_kill=True, flags_w=STATUS_FLAGS, flags_must=ZF)
TWO_BYTE[0xBC] = OpSpec("bsf", modrm=True, effects=_BSF)
TWO_BYTE[0xBD] = OpSpec("bsr", modrm=True, effects=_BSF)
TWO_BYTE[0xBE] = OpSpec("movsx", modrm=True, effects=replace(_MOV_TO_REG, rm_byte=True))
TWO_BYTE[0xBF] = OpSpec("movsx", modrm=True, effects=_MOV_TO_REG)

_pair(TWO_BYTE, 0xC0, "xadd", Effects(rm_r=True, rm_w=True, reg_r=True, reg_w=True,
                                     flags_w=STATUS_FLAGS, flags_must=_ARITH), modrm=True)
TWO_BYTE[0xC2] = OpSpec("cmpps", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC3] = OpSpec("movnti", modrm=True, effects=STORE)
TWO_BYTE[0xC4] = OpSpec("pinsrw", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC5] = OpSpec("pextrw", modrm=True, imm=Imm.IB)
TWO_BYTE[0xC6] = OpSpec("shufps", modrm=True, imm=Imm.IB)
# grp9: /1 cmpxchg8b/16b, /4 xsavec, /5 xsaves and /7 vmptrst store.
TWO_BYTE[0xC7] = OpSpec("grp9", modrm=True, effects=(
    UNKNOWN, STORE, UNKNOWN, UNKNOWN, STORE, STORE, UNKNOWN, STORE))
for _i in range(8):
    TWO_BYTE[0xC8 + _i] = OpSpec("bswap", effects=Effects(plusr_r=True, plusr_w=True))

for _op in range(0xD0, 0x100):
    TWO_BYTE[_op] = OpSpec("sse", modrm=True)
TWO_BYTE[0xD6] = OpSpec("movq-store", modrm=True, effects=STORE)
TWO_BYTE[0xE7] = OpSpec("movnt", modrm=True, effects=STORE)
TWO_BYTE[0xF7] = OpSpec("maskmov", modrm=True, flags=F_STRING_WRITE)
TWO_BYTE[0xFF] = OpSpec("ud0", modrm=True)


def two_byte_spec(opcode: int) -> OpSpec:
    """Return the OpSpec for a 0F-map opcode."""
    return TWO_BYTE.get(opcode, _TB_DEFAULT)


# ---------------------------------------------------------------------------
# Three-byte maps.
# ---------------------------------------------------------------------------
# 0F 38: ModRM, no immediate (movbe/crc32 included); 0F 38 F1 is movbe m, r.
# 0F 3A: ModRM + imm8 throughout; 14-17 are pextrb/w/d and extractps.
_38 = OpSpec("op0f38", modrm=True)
_3A = OpSpec("op0f3a", modrm=True, imm=Imm.IB)
_MAP_0F38 = [_38] * 256
_MAP_0F38[0xF1] = replace(_38, effects=STORE)
_MAP_0F3A = [_3A] * 256
for _op in (0x14, 0x15, 0x16, 0x17):
    _MAP_0F3A[_op] = replace(_3A, effects=STORE)


def legacy_rows(opmap: int) -> list[OpSpec | None]:
    """Dense rows of legacy map *opmap* (0: one-byte, 1: 0F, 2: 0F 38,
    3: 0F 3A), indexed by opcode; None marks a byte that is no opcode
    there (prefix, escape, VEX lead).  The one-byte map has 512 rows,
    indexed ``REX.B << 8 | opcode`` (:data:`REX_B_ROWS`)."""
    if opmap == 0:
        rows = [ONE_BYTE.get(op) for op in range(256)]
        return rows + [REX_B_ROWS.get(op, row) for op, row in enumerate(rows)]
    if opmap == 1:
        return [two_byte_spec(op) for op in range(256)]
    return list(_MAP_0F38 if opmap == 2 else _MAP_0F3A)


# ---------------------------------------------------------------------------
# VEX/EVEX.
# ---------------------------------------------------------------------------

# VEX/EVEX stores, whose r/m operand is the destination: each (map,
# opcode) with the pp values (0: none, 1: 66, 2: F3, 3: F2) and the
# ModRM.reg values under which it stores.  Map 1: vmovups/vmovlps/
# vmovhps/vmovaps/vmovntps/vmovd/vmovq/vmovdqa/vmovntdq (7E not under
# F3: VEX.F3.0F 7E is a vmovq load) and vstmxcsr (AE /3; /2 is the
# vldmxcsr load).  Map 2: vmaskmovps/pd and vpmaskmovd/q, the compresses
# (vpcompressb/w, vcompressps/pd, vpcompressd/q), the scatters, and the
# vpmov* down-converts (F3 only: under 66 the same opcodes are
# vpmovsx*/vpmovzx* loads and vpsrlvw-style ops).  Map 3: vpextrb/w/d/q,
# vextractps, vextractf128/f32x8, vcvtps2ph and vextracti128/i32x8.
_ANY_PP = frozenset(range(4))
_ANY_REG = frozenset(range(8))
VEX_STORE_FORMS: dict[tuple[int, int], tuple[frozenset, frozenset]] = {
    **{(1, op): (_ANY_PP, _ANY_REG)
       for op in (0x11, 0x13, 0x17, 0x29, 0x2B, 0x7F, 0xD6, 0xE7)},
    (1, 0x7E): (frozenset({0, 1, 3}), _ANY_REG),
    (1, 0xAE): (_ANY_PP, frozenset({3})),
    **{(2, op): (_ANY_PP, _ANY_REG)
       for op in (0x2E, 0x2F, 0x8E, 0x63, 0x8A, 0x8B, 0xA0, 0xA1, 0xA2, 0xA3)},
    **{(2, hi | lo): (frozenset({2}), _ANY_REG)
       for hi in (0x10, 0x20, 0x30) for lo in range(6)},
    **{(3, op): (_ANY_PP, _ANY_REG)
       for op in (0x14, 0x15, 0x16, 0x17, 0x19, 0x1B, 0x1D, 0x39, 0x3B)},
}

#: The (map, opcode) pairs that store under some pp and ModRM.reg.
VEX_STORES = frozenset(VEX_STORE_FORMS)


def vex_writes_rm(map_select: int, opcode: int, pp: int, reg: int | None) -> bool:
    """True when the VEX/EVEX instruction (map, opcode) under pp bits
    *pp* and ModRM.reg *reg* stores to its r/m operand."""
    form = VEX_STORE_FORMS.get((map_select, opcode))
    return form is not None and pp in form[0] and reg in form[1]


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
