"""Instruction model: the decoded form of one x86-64 instruction.

An :class:`Instruction` records the exact byte layout (prefixes, opcode,
ModRM/SIB, displacement, immediate) plus the semantic facts the binary
rewriter needs.  It deliberately does *not* model full operand semantics;
the rewriter (like E9Patch itself) cares about lengths, byte values,
control flow and memory-write classification.

``Instruction`` is a ``__slots__`` class rather than a dataclass: the
decoder creates one per instruction over multi-megabyte code sections,
so attribute storage must be flat and ``raw`` is a *lazy view* — the
underlying buffer plus ``(start, length)`` — materialized into a
``bytes`` object only when first read.
"""

from __future__ import annotations

import enum

from repro.x86 import prefixes as pfx
from repro.x86.tables import Flow


class OperandKind(enum.Enum):
    """Coarse classification of the ModRM r/m operand."""

    NONE = 0  # no ModRM, or not applicable
    REG = 1  # mod == 3: register operand
    MEM = 2  # memory operand (non rip-relative)
    MEM_RIP = 3  # rip-relative memory operand


# Register numbers (ModRM encoding, before REX extension).
RSP = 4
RBP = 5
R12 = 12
R13 = 13

REG_NAMES_64 = (
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

#: Public fields, in the order of the historical dataclass definition
#: (pickling, equality, and ``__repr__`` all use this order).
_FIELDS = (
    "raw", "mnemonic", "address", "legacy_prefixes", "rex", "vex",
    "opmap", "opcode", "opcode_offset", "modrm", "sib", "disp",
    "disp_offset", "disp_size", "imm", "imm_offset", "imm_size",
    "flow", "writes_rm", "string_write",
)


class Instruction:
    """One decoded x86-64 instruction.

    Offsets (``disp_offset`` / ``imm_offset``) are relative to the start of
    the instruction so that byte-level tools (pun search, relocation) can
    address individual fields of ``raw``.
    """

    __slots__ = (
        "_raw", "_data", "_start", "_len",
        "mnemonic", "address", "_legacy", "rex", "vex",
        "opmap", "opcode", "opcode_offset", "modrm", "sib", "disp",
        "disp_offset", "disp_size", "imm", "imm_offset", "imm_size",
        "flow", "writes_rm", "string_write",
    )

    def __init__(
        self,
        raw: bytes = b"",
        mnemonic: str = "",
        address: int = 0,
        legacy_prefixes: bytes = b"",
        rex: int | None = None,
        vex: bytes | None = None,  # full VEX/EVEX prefix incl. leading byte
        opmap: int = 0,  # 0 = one-byte map, 1 = 0F, 2 = 0F38, 3 = 0F3A
        opcode: int = 0,
        opcode_offset: int = 0,
        modrm: int | None = None,
        sib: int | None = None,
        disp: int | None = None,
        disp_offset: int = 0,
        disp_size: int = 0,
        imm: int | None = None,
        imm_offset: int = 0,
        imm_size: int = 0,
        flow: Flow = Flow.NONE,
        writes_rm: bool = False,  # writes its ModRM r/m operand
        string_write: bool = False,  # implicit store through %rdi / moffs
    ) -> None:
        self._raw = raw
        self._data = None
        self._start = 0
        self._len = len(raw)
        self.mnemonic = mnemonic
        self.address = address
        self._legacy = legacy_prefixes
        self.rex = rex
        self.vex = vex
        self.opmap = opmap
        self.opcode = opcode
        self.opcode_offset = opcode_offset
        self.modrm = modrm
        self.sib = sib
        self.disp = disp
        self.disp_offset = disp_offset
        self.disp_size = disp_size
        self.imm = imm
        self.imm_offset = imm_offset
        self.imm_size = imm_size
        self.flow = flow
        self.writes_rm = writes_rm
        self.string_write = string_write

    # -- lazy raw bytes ----------------------------------------------------

    @property
    def raw(self) -> bytes:
        """The instruction's exact bytes (materialized on first access)."""
        r = self._raw
        if r is None:
            start = self._start
            r = self._raw = bytes(self._data[start : start + self._len])
            self._data = None
        return r

    @raw.setter
    def raw(self, value: bytes) -> None:
        self._raw = value
        self._data = None
        self._len = len(value)

    @property
    def legacy_prefixes(self) -> bytes:
        """Legacy prefix bytes (lazy: the decoder stores only the count).

        The prefixes are always the first ``n`` bytes of :attr:`raw`, so
        the fast decoder records just ``n`` and the bytes are sliced out
        on first access.
        """
        v = self._legacy
        if type(v) is int:
            v = self._legacy = bytes(self.raw[:v])
        return v

    @legacy_prefixes.setter
    def legacy_prefixes(self, value) -> None:
        self._legacy = value

    # -- layout ------------------------------------------------------------

    @property
    def length(self) -> int:
        return self._len

    @property
    def end(self) -> int:
        """Address of the next instruction."""
        return self.address + self._len

    # -- ModRM helpers -----------------------------------------------------

    @property
    def mod(self) -> int | None:
        return None if self.modrm is None else self.modrm >> 6

    @property
    def reg(self) -> int | None:
        """ModRM.reg field, extended with REX.R / VEX.R."""
        if self.modrm is None:
            return None
        reg = (self.modrm >> 3) & 7
        if self.rex is not None and self.rex & pfx.REX_R:
            reg |= 8
        return reg

    @property
    def reg_raw(self) -> int | None:
        """ModRM.reg field without REX extension (group selector)."""
        return None if self.modrm is None else (self.modrm >> 3) & 7

    @property
    def rm(self) -> int | None:
        if self.modrm is None:
            return None
        rm = self.modrm & 7
        if self.rex is not None and self.rex & pfx.REX_B:
            rm |= 8
        return rm

    @property
    def rm_kind(self) -> OperandKind:
        if self.modrm is None:
            return OperandKind.NONE
        if self.mod == 3:
            return OperandKind.REG
        if self.mod == 0 and (self.modrm & 7) == 5:
            return OperandKind.MEM_RIP
        return OperandKind.MEM

    @property
    def rip_relative(self) -> bool:
        """True if the instruction has a rip-relative memory operand."""
        return self.rm_kind == OperandKind.MEM_RIP

    @property
    def has_mem_operand(self) -> bool:
        return self.rm_kind in (OperandKind.MEM, OperandKind.MEM_RIP)

    @property
    def mem_base(self) -> int | None:
        """Base register of a memory operand (REX-extended), or None.

        Returns None for rip-relative operands and for SIB forms with no
        base (mod=0, base=101).
        """
        if self.rm_kind != OperandKind.MEM:
            return None
        rm = self.modrm & 7
        rexb = 8 if (self.rex is not None and self.rex & pfx.REX_B) else 0
        if rm != 4:
            return rm | rexb
        assert self.sib is not None
        base = self.sib & 7
        if base == 5 and self.mod == 0:
            return None  # disp32, no base register
        return base | rexb

    # -- control flow -------------------------------------------------------

    @property
    def is_direct_branch(self) -> bool:
        """jmp/jcc/call/loop with an encoded relative displacement."""
        return self.flow in (Flow.JMP, Flow.JCC, Flow.CALL, Flow.LOOP)

    @property
    def is_jump(self) -> bool:
        """Direct relative jmp or jcc (the paper's A1 instrumentation set)."""
        return self.flow in (Flow.JMP, Flow.JCC)

    @property
    def is_indirect_call(self) -> bool:
        from repro.x86.tables import GRP5_CALL_REGS

        return self.flow == Flow.GROUP5 and self.reg_raw in GRP5_CALL_REGS

    @property
    def is_indirect_jump(self) -> bool:
        from repro.x86.tables import GRP5_JMP_REGS

        return self.flow == Flow.GROUP5 and self.reg_raw in GRP5_JMP_REGS

    @property
    def is_ret(self) -> bool:
        return self.flow == Flow.RET

    @property
    def rel(self) -> int | None:
        """Signed branch displacement for direct branches, else None."""
        if self.is_direct_branch:
            return self.imm
        return None

    @property
    def target(self) -> int | None:
        """Absolute branch target for direct branches, else None."""
        if self.rel is None:
            return None
        return self.end + self.rel

    # -- value semantics ----------------------------------------------------

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Instruction:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # mutable, like the historical dataclass

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in _FIELDS)
        return f"Instruction({body})"

    # -- pickling (materialize the lazy view; never ship the buffer) --------

    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple) -> None:
        raw, rest = state[0], state[1:]
        self._raw = raw
        self._data = None
        self._start = 0
        self._len = len(raw)
        for name, value in zip(_FIELDS[1:], rest):
            setattr(self, name, value)

    def __reduce__(self) -> tuple:
        return (_unpickle_insn, (self._astuple(),))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        from repro.x86.format import format_insn

        hexbytes = " ".join(f"{b:02x}" for b in self.raw)
        loc = f"{self.address:#x}: " if self.address else ""
        return f"{loc}{hexbytes:<30} {format_insn(self)}"


def _unpickle_insn(state: tuple) -> Instruction:
    insn = Instruction.__new__(Instruction)
    insn.__setstate__(state)
    return insn
