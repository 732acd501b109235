"""Semantic facts per instruction, resolved from the opcode rows.

The rows of :mod:`repro.x86.tables` give every opcode's layout and an
effect template (:class:`~repro.x86.tables.Effects`); this module
resolves a decoded instruction against its template to answer the
*semantic* questions the liveness pass and the ``match_expr`` DSL need:
which registers an instruction reads and writes, which flags it uses
and defines, and what kind of memory it touches.

Facts come in two strengths, and the distinction is what keeps every
consumer sound:

* **may** sets (``regs_written``, ``flags_written``) over-approximate:
  anything that could possibly change is included.  The differential VM
  test checks exactly this — a register the engine claims "not written"
  must never change under single-step execution.
* **must** sets (``regs_killed``, ``flags_killed``) under-approximate:
  only effects guaranteed on every execution, at full width (a 32-bit
  register write zero-extends and therefore kills the 64-bit register;
  8/16-bit writes merge and kill nothing).  Liveness may only treat a
  value as dead past a *must* kill.

Unknown instructions (a template with ``known=False``, VEX/EVEX, the
0F38/0F3A maps) resolve to :data:`UNKNOWN_FACTS`: ``known=False``,
everything read, nothing killed — the conservative fixpoint.

The templates sit in dense lists indexed by opcode (one per opcode
map), generated at import from the rows: one index per lookup, no
hashing, the decoder's own table style.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x86 import prefixes as pfx
from repro.x86.flow import is_endbr64
from repro.x86.insn import Instruction, OperandKind
from repro.x86.tables import (
    AF,
    ALL_FLAGS,
    CF,
    DF,
    Effects,
    OF,
    PF,
    SF,
    STATUS_FLAGS,
    UNKNOWN,
    ZF,
    legacy_rows,
)

__all__ = [
    "CF", "PF", "AF", "ZF", "SF", "OF", "DF",
    "STATUS_FLAGS", "ALL_FLAGS", "ALL_REGS",
    "FLAG_NAMES", "InsnFacts", "UNKNOWN_FACTS",
    "facts_for", "is_endbr64", "flag_mask_names", "reg_mask_names",
]

FLAG_NAMES = {CF: "cf", PF: "pf", AF: "af", ZF: "zf", SF: "sf",
              OF: "of", DF: "df"}

#: All 16 general-purpose registers as a bit mask (bit n = register n,
#: ModRM/REX numbering: rax=0 .. r15=15).
ALL_REGS = 0xFFFF

_RSP = 4
_RBP = 5

#: Flags read by each condition code (jcc/setcc/cmovcc, cc = opcode & 0xF).
CC_FLAGS = (
    OF, OF,  # o / no
    CF, CF,  # b / ae
    ZF, ZF,  # e / ne
    CF | ZF, CF | ZF,  # be / a
    SF, SF,  # s / ns
    PF, PF,  # p / np
    SF | OF, SF | OF,  # l / ge
    ZF | SF | OF, ZF | SF | OF,  # le / g
)


def flag_mask_names(mask: int) -> list[str]:
    """Human-readable names for a flag mask (lint/debug output)."""
    return [name for bit, name in FLAG_NAMES.items() if mask & bit]


def reg_mask_names(mask: int) -> list[str]:
    """Human-readable register names for a register mask."""
    from repro.x86.insn import REG_NAMES_64

    return [REG_NAMES_64[i] for i in range(16) if mask >> i & 1]


@dataclass(frozen=True)
class InsnFacts:
    """Resolved semantic facts for one decoded instruction."""

    known: bool
    regs_read: int = 0  # may-read register mask
    regs_written: int = 0  # may-write register mask
    regs_killed: int = 0  # must-kill mask (full-width writes only)
    flags_read: int = 0  # may-use flag mask
    flags_written: int = 0  # may-modify flag mask
    flags_killed: int = 0  # must-define flag mask
    mem_class: str | None = None  # "stack" | "global" | "heap" | None
    mem_width: int = 0  # access width in bytes (0 = n/a / unknown)
    mem_read: bool = False
    mem_write: bool = False

    @property
    def preserves_flags(self) -> bool:
        """True when the instruction provably leaves every flag alone."""
        return self.known and self.flags_written == 0

    def reads_reg(self, reg: int) -> bool:
        return bool(self.regs_read >> reg & 1)

    def writes_reg(self, reg: int) -> bool:
        return bool(self.regs_written >> reg & 1)

    def kills_reg(self, reg: int) -> bool:
        return bool(self.regs_killed >> reg & 1)


#: The conservative answer for anything the tables do not cover.
UNKNOWN_FACTS = InsnFacts(
    known=False,
    regs_read=ALL_REGS,
    regs_written=ALL_REGS,
    regs_killed=0,
    flags_read=ALL_FLAGS,
    flags_written=ALL_FLAGS,
    flags_killed=0,
)


# -- the dense template lists -------------------------------------------------

#: Effect templates (or group 8-tuples) of the one-byte map, indexed
#: ``REX.B << 8 | opcode``, and of the 0F map, indexed by opcode.
_ONE, _TWO = (
    [UNKNOWN if row is None else row.effects for row in legacy_rows(m)]
    for m in (0, 1)
)

_ENDBR_FACTS = InsnFacts(known=True)  # architectural no-op


def _opsize(insn: Instruction, entry: Effects) -> int:
    if entry.byte_op:
        return 1
    if pfx.OPSIZE in insn.legacy_prefixes:
        return 2
    if insn.rex is not None and insn.rex & pfx.REX_W:
        return 8
    return 4


def _mem_regs(insn: Instruction) -> int:
    """Registers read to form a (non-rip) memory operand's address."""
    mask = 0
    base = insn.mem_base
    if base is not None:
        mask |= 1 << base
    if insn.modrm is not None and (insn.modrm & 7) == 4 and insn.sib is not None:
        index = (insn.sib >> 3) & 7
        rex_x = insn.rex is not None and insn.rex & pfx.REX_X
        if rex_x:
            index |= 8
        if index != _RSP:  # index 4 without REX.X means "no index"
            mask |= 1 << index
    return mask


def _mem_class(insn: Instruction) -> str:
    """stack / global / heap classification of a ModRM memory operand."""
    if insn.rm_kind == OperandKind.MEM_RIP:
        return "global"
    base = insn.mem_base
    if base is None:
        return "global"  # absolute disp32 (SIB, no base)
    if base in (_RSP, _RBP):
        return "stack"
    return "heap"


def _gpr8(insn: Instruction, reg: int) -> int:
    """Map an 8-bit register operand number to the GPR it aliases.

    Without a REX prefix, byte-register numbers 4-7 name AH/CH/DH/BH,
    which live inside rax..rbx — reporting them as rsp..rdi would make
    the may-write set *miss* the register that actually changes.
    """
    if insn.rex is None and 4 <= reg <= 7:
        return reg - 4
    return reg


def facts_for(insn: Instruction) -> InsnFacts:
    """Resolve *insn* against its row's effect template.

    Returns :data:`UNKNOWN_FACTS` (``known=False``, everything live) for
    any opcode the templates do not model — VEX/EVEX encodings, the
    0F38/0F3A maps, privileged/system opcodes — so consumers degrade
    conservatively rather than wrongly.
    """
    if insn.vex is not None:
        return UNKNOWN_FACTS
    if is_endbr64(insn):
        return _ENDBR_FACTS
    opcode = insn.opcode
    if insn.opmap == 0:
        rex = insn.rex
        entry = _ONE[opcode if rex is None else (rex & pfx.REX_B) << 8 | opcode]
    elif insn.opmap == 1:
        entry = _TWO[opcode]
        if opcode == 0xB8 and pfx.REP not in insn.legacy_prefixes:
            return UNKNOWN_FACTS  # 0F B8 is popcnt only under F3
    else:
        return UNKNOWN_FACTS
    if entry.__class__ is tuple:  # opcode group: ModRM.reg selects
        sel = insn.reg_raw
        if sel is None:
            return UNKNOWN_FACTS
        entry = entry[sel]
    if not entry.known:
        return UNKNOWN_FACTS

    opsize = _opsize(insn, entry)
    kill_width = opsize >= 4  # 32-bit writes zero-extend; 8/16-bit merge
    reads = entry.reads
    writes = entry.writes
    kills = entry.kills  # implicit kills (rsp adjusts) are always 64-bit
    mem_class: str | None = None
    mem_width = 0
    mem_read = False
    mem_write = False

    if entry.rm_r or entry.rm_w:
        if insn.modrm is None:
            return UNKNOWN_FACTS
        if insn.rm_kind == OperandKind.REG:
            rm = insn.rm
            if entry.byte_op or entry.rm_byte:
                rm = _gpr8(insn, rm)
            bit = 1 << rm
            if entry.rm_r:
                reads |= bit
            if entry.rm_w:
                writes |= bit
                if kill_width:
                    kills |= bit
        else:
            reads |= _mem_regs(insn)
            mem_class = _mem_class(insn)
            mem_width = 1 if entry.rm_byte else opsize
            mem_read = entry.rm_r
            mem_write = entry.rm_w
    elif entry.no_mem and insn.modrm is not None:
        # Address-only operand (lea, long nop): base/index registers are
        # read to little effect, memory is never touched.
        if insn.rm_kind == OperandKind.MEM:
            reads |= _mem_regs(insn)

    if entry.reg_r or entry.reg_w:
        if insn.modrm is None:
            return UNKNOWN_FACTS
        reg = insn.reg
        if entry.byte_op:
            reg = _gpr8(insn, reg)
        bit = 1 << reg
        if entry.reg_r:
            reads |= bit
        if entry.reg_w:
            writes |= bit
            if kill_width and not entry.reg_no_kill:
                kills |= bit

    if entry.plusr_r or entry.plusr_w:
        reg = insn.opcode & 7
        if insn.rex is not None and insn.rex & pfx.REX_B:
            reg |= 8
        if entry.byte_op:
            reg = _gpr8(insn, reg)
        bit = 1 << reg
        if entry.plusr_r:
            reads |= bit
        if entry.plusr_w:
            writes |= bit
            if kill_width:
                kills |= bit

    flags_r = entry.flags_r
    if entry.cc_uses:
        flags_r |= CC_FLAGS[insn.opcode & 0xF]

    if entry.string_op and (pfx.REP in insn.legacy_prefixes
                            or pfx.REPNE in insn.legacy_prefixes):
        # A REP/REPNE string op also steps the rcx counter (read and
        # written, never killed: cmps/scas may stop early at a
        # data-dependent count).
        reads |= 1 << 1
        writes |= 1 << 1
    if entry.mem is not None and mem_class is None:
        # Implicit memory: push/pop (8 bytes on the stack), string ops
        # (pointer-typed rsi/rdi: an unclassifiable target), moffs.
        mem_class = entry.mem
        mem_width = 8 if mem_class == "stack" else opsize
        mem_read = entry.mem_r
        mem_write = entry.mem_w

    return InsnFacts(
        known=True,
        regs_read=reads,
        regs_written=writes,
        regs_killed=kills,
        flags_read=flags_r,
        flags_written=entry.flags_w,
        flags_killed=entry.flags_must,
        mem_class=mem_class,
        mem_width=mem_width,
        mem_read=mem_read,
        mem_write=mem_write,
    )
