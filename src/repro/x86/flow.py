"""Control-flow, memory-write and landing-pad classification.

Implements the paper's two instrumentation applications:

* **A1** — all direct ``jmp``/``jcc`` instructions (a control-flow-agnostic
  analogue of basic-block counting);
* **A2** — all instructions that may write to heap pointers, i.e. memory
  writes excluding stores through ``%rsp`` (stack) and ``%rip`` (globals);

and the one CET landing-pad predicate (:func:`is_endbr64`) that the
tactics, the linter and the fact engine share.
"""

from __future__ import annotations

from repro.x86 import prefixes as pfx
from repro.x86.insn import Instruction, OperandKind, RSP


def is_patchable_jump(insn: Instruction) -> bool:
    """A1 matcher: direct relative jmp / jcc instructions."""
    return insn.is_jump


def is_memory_write(insn: Instruction) -> bool:
    """True if the instruction stores to memory through any operand."""
    if insn.string_write:
        return True
    if not insn.writes_rm:
        return False
    return insn.rm_kind in (OperandKind.MEM, OperandKind.MEM_RIP)


def is_heap_write(insn: Instruction) -> bool:
    """A2 matcher: memory writes that may target the heap.

    Excludes rip-relative stores (globals) and stores whose base register
    is ``%rsp`` (stack-local writes), per Section 6.3 of the paper.
    """
    if insn.string_write and not insn.imm_size:  # movs/stos via %rdi
        return True
    if not insn.writes_rm:
        return False
    kind = insn.rm_kind
    if kind == OperandKind.MEM_RIP or kind != OperandKind.MEM:
        return False
    if insn.mem_base == RSP:
        return False
    return True


def is_endbr64(insn: Instruction) -> bool:
    """True for a CET landing pad: ``endbr64`` (F3 0F 1E FA), with any
    other prefixes (objdump reads ``f3 48 0f 1e fa`` as ``rex.W endbr64``
    and ``66 f3 0f 1e fa`` as ``data16 endbr64``).

    The tactics refuse to overwrite one in CET mode, the linter flags one
    that was overwritten, and the fact engine models it as a no-op, all
    through this predicate.  Protecting a prefixed form that hardware
    might not treat as a pad costs one patch site; missing a real pad
    breaks every indirect branch to it under IBT.
    """
    return (
        insn.opmap == 1
        and insn.opcode == 0x1E
        and insn.modrm == 0xFA
        and pfx.REP in insn.legacy_prefixes
    )


def branch_target(insn: Instruction) -> int | None:
    """Absolute target of a direct relative branch, else None."""
    return insn.target
