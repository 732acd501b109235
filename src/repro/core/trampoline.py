"""Trampoline templates and displaced-instruction relocation.

Every successful patch diverts control to a trampoline that (1) runs the
instrumentation body, (2) executes a *relocated* copy of the displaced
instruction, and (3) jumps back to the next original instruction.
Evictee trampolines (tactics T2/T3) are the degenerate case with an
empty body.

Relocation must preserve semantics at the new address:

* direct rel8/rel32 branches are re-encoded against their absolute target;
* ``loop``/``jrcxz`` (rel8-only encodings) are expanded into a
  branch-out trampoline pattern;
* rip-relative memory operands get their disp32 rebased;
* everything else is position-independent and copied verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.analysis.facts import AF, OF, PF, SF, STATUS_FLAGS, ZF
from repro.analysis.liveness import LivenessAnalysis, SiteLiveness
from repro.errors import PatchError
from repro.x86 import encoder as enc
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

JMP_BACK_SIZE = 5


def inject_bug_enabled() -> bool:
    """Test-only fault injection (``$REPRO_CHECK_INJECT_BUG``): when set,
    every trampoline's jump-back displacement is miscomputed.  Exists so
    the equivalence-check CI gate can prove it is able to fail.  Read
    once per rewrite (into :class:`~repro.core.tactics.TacticContext`),
    so tests can still toggle it per case."""
    return bool(os.environ.get("REPRO_CHECK_INJECT_BUG"))

# Caller-saved registers preserved around a call-style instrumentation.
_SCRATCH_REGS = (enc.RAX, enc.RCX, enc.RDX, enc.RSI, enc.RDI,
                 enc.R8, enc.R9, enc.R10, enc.R11)
RED_ZONE = 128

#: Flags clobbered by the Counter body's ``incq`` (CF is untouched).
_INC_FLAGS = PF | AF | ZF | SF | OF


def relocated_size(insn: Instruction) -> int:
    """Exact size of the relocated copy of *insn* (address-independent)."""
    if insn.flow == Flow.JMP:
        return 5
    if insn.flow == Flow.JCC:
        return 6
    if insn.flow == Flow.CALL and insn.is_direct_branch:
        return 5
    if insn.flow == Flow.LOOP:
        return 9
    return insn.length


def relocate(insn: Instruction, at_addr: int) -> bytes:
    """Encode *insn* so it behaves identically when placed at *at_addr*."""
    # insn.target is spelled out as address + length + imm here: the
    # property chain (target -> rel -> is_direct_branch) is measurable at
    # thousands of relocations per rewrite.
    flow = insn.flow
    if flow is Flow.JMP and insn.imm is not None:
        target = insn.address + insn.length + insn.imm
        return enc.encode_jmp_rel32(target - (at_addr + 5))
    if flow is Flow.JCC:
        target = insn.address + insn.length + insn.imm
        cc = insn.opcode & 0x0F
        return enc.encode_jcc_rel32(cc, target - (at_addr + 6))
    if flow is Flow.CALL and insn.imm is not None:
        target = insn.address + insn.length + insn.imm
        return enc.encode_call_rel32(target - (at_addr + 5))
    if flow is Flow.LOOP:
        # loopcc/jrcxz only exist with rel8; expand to the standard
        # branch-out pattern:  loopcc +2; jmp +5; jmp target
        target = insn.address + insn.length + insn.imm
        out = bytearray()
        out += bytes((insn.opcode, 0x02))  # taken -> out[4]
        out += enc.encode_jmp_rel8(5)  # not taken -> fall through at out[9]
        out += enc.encode_jmp_rel32(target - (at_addr + 9))
        return bytes(out)
    if insn.rip_relative:
        orig_target = insn.end + (insn.disp or 0)
        new_disp = orig_target - (at_addr + insn.length)
        if not -(1 << 31) <= new_disp < (1 << 31):
            raise PatchError(
                f"rip-relative operand of {insn.mnemonic} at {insn.address:#x} "
                f"unreachable from trampoline at {at_addr:#x}"
            )
        raw = bytearray(insn.raw)
        raw[insn.disp_offset : insn.disp_offset + 4] = (
            new_disp & 0xFFFFFFFF
        ).to_bytes(4, "little")
        return bytes(raw)
    return insn.raw


class Instrumentation:
    """Base class for trampoline instrumentation bodies.

    Bodies must be position-independent (or use ``movabs``) so that their
    size is known before the trampoline address is chosen.

    A body may additionally be *liveness-bound*
    (:meth:`bind_liveness`): per-site dead-register/dead-flag facts then
    let it drop provably unnecessary save/restore pairs.  Binding must
    happen before the first :meth:`size` query for a site — the planner
    memoizes sizes, and the emitted bytes must match the allocation.
    Unbound bodies keep their historical byte-exact encodings.
    """

    name = "base"

    #: Optional :class:`~repro.analysis.liveness.LivenessAnalysis`;
    #: ``None`` means every register and flag is assumed live.
    liveness: LivenessAnalysis | None = None

    def bind_liveness(self, liveness: LivenessAnalysis | None) -> None:
        self.liveness = liveness

    def size(self, insn: Instruction) -> int:
        probe = enc.Assembler(base=0)
        self.emit(probe, insn)
        return len(probe.bytes())

    def reach(self, insn: Instruction) -> tuple[int, int] | None:
        """Half-open range of trampoline starts from which the body's
        rip-relative reference encodes, or None when any start does."""
        return None

    def saved_cost(self, insn: Instruction) -> tuple[int, int]:
        """(bytes, register save/restore pairs) trimmed at this site by
        the bound liveness, relative to the liveness-blind encoding:
        none, unless the body slims (:class:`_PlannedBody`)."""
        return (0, 0)

    def emit(self, asm: enc.Assembler, insn: Instruction) -> None:
        raise NotImplementedError


class _PlannedBody(Instrumentation):
    """A body that liveness slims through a per-site *plan*: which
    registers and flags it saves.  Subclasses give ``_plan(live)`` (the
    plan under a :class:`SiteLiveness`, or liveness-blind under None),
    ``_plan_regs(plan)`` (its register save/restore pairs) and
    ``_emit_plan(asm, insn, plan)``.  The encoding depends only on the
    plan and on :meth:`_layout` of the site, so each site's plan is
    computed once per :meth:`bind_liveness` and each distinct (plan,
    layout) is sized once: a handful of sizes per body."""

    _plans: dict | None = None
    _sizes: dict | None = None

    def bind_liveness(self, liveness: LivenessAnalysis | None) -> None:
        self.liveness = liveness
        self._plans = None

    def _layout(self, insn: Instruction):
        """What of *insn* the encoding reads besides the plan."""
        return None

    def _site_plan(self, insn: Instruction):
        if self.liveness is None:
            return self._plan(None)
        if self._plans is None:
            self._plans = {}
        plan = self._plans.get(insn.address)
        if plan is None:
            plan = self._plans[insn.address] = self._plan(
                self.liveness.at(insn.address))
        return plan

    def _plan_size(self, plan, insn: Instruction) -> int:
        if self._sizes is None:
            self._sizes = {}
        key = (plan, self._layout(insn))
        size = self._sizes.get(key)
        if size is None:
            probe = enc.Assembler(base=0)
            self._emit_plan(probe, insn, plan)
            size = self._sizes[key] = len(probe.bytes())
        return size

    def size(self, insn: Instruction) -> int:
        return self._plan_size(self._site_plan(insn), insn)

    def saved_cost(self, insn: Instruction) -> tuple[int, int]:
        if self.liveness is None:
            return (0, 0)
        blind, plan = self._plan(None), self._site_plan(insn)
        return (self._plan_size(blind, insn) - self._plan_size(plan, insn),
                self._plan_regs(blind) - self._plan_regs(plan))

    def emit(self, asm: enc.Assembler, insn: Instruction) -> None:
        self._emit_plan(asm, insn, self._site_plan(insn))


class Empty(Instrumentation):
    """The paper's "empty" instrumentation: displaced instruction only."""

    name = "empty"

    def size(self, insn: Instruction) -> int:
        return 0

    def emit(self, asm: enc.Assembler, insn: Instruction) -> None:
        return


class Counter(_PlannedBody):
    """Increment a 64-bit counter in memory (basic-block-counting style).

    Respects the System V red zone and preserves flags and registers.
    With liveness bound, each of those protections is dropped where the
    analysis proves it unnecessary: a dead scratch register is used
    directly instead of saving ``%rax``; the ``pushfq``/``popfq`` pair
    is skipped when every flag ``incq`` clobbers is dead; and the
    red-zone ``lea`` pair goes away once nothing touches the stack.
    The fully slimmed body is ``movabs; incq`` — 13 bytes and 2 dynamic
    instructions versus the blind 30 bytes and 8.

    With ``pic=True`` the increment is a single ``incq disp32(%rip)``:
    the counter lives in the image's own runtime-data segment, so the
    trampoline-to-counter displacement is load-base-invariant — required
    for ET_DYN images (shared objects, PIE), whose ``movabs`` link-time
    address would be wrong at any nonzero base.  No scratch register is
    needed, so only the flags save remains to slim away.
    """

    name = "counter"

    def __init__(self, counter_vaddr: int, *, pic: bool = False) -> None:
        self.counter_vaddr = counter_vaddr
        self.pic = pic

    def _plan(self, live: SiteLiveness | None) -> tuple[int, bool, bool]:
        """(scratch reg, save that reg?, save flags?); a ``pic`` body
        has no scratch register to save."""
        if live is None:
            return (enc.RAX, not self.pic, True)
        save_flags = not live.flags_are_dead(_INC_FLAGS)
        if self.pic:
            return (enc.RAX, False, save_flags)
        for reg in _SCRATCH_REGS:
            if live.reg_is_dead(reg):
                return (reg, False, save_flags)
        return (enc.RAX, True, save_flags)

    def _plan_regs(self, plan: tuple[int, bool, bool]) -> int:
        return 1 if plan[1] else 0

    def reach(self, insn: Instruction) -> tuple[int, int] | None:
        if not self.pic:
            return None
        # The incq's rel32 counts from its end: 13 bytes into the body
        # behind the red-zone lea and pushfq, 7 bytes in without them.
        at = self.counter_vaddr - (13 if self._site_plan(insn)[2] else 7)
        return (at - (1 << 31) + 1, at + (1 << 31) + 1)

    def _emit_plan(self, asm: enc.Assembler, insn: Instruction,
                   plan: tuple[int, bool, bool]) -> None:
        scratch, save_reg, save_flags = plan
        if self.pic:
            if save_flags:
                asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp
                asm.pushfq()
            asm.inc_mem64_rip(self.counter_vaddr)
            if save_flags:
                asm.popfq()
                asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")
            return
        # Any push dips below %rsp, so the red-zone adjustment is needed
        # exactly when something is saved.
        red_zone = save_reg or save_flags
        if red_zone:
            asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp
        if save_flags:
            asm.pushfq()
        if save_reg:
            asm.push(scratch)
        asm.mov_imm64(scratch, self.counter_vaddr)
        asm.inc_mem64(scratch)
        if save_reg:
            asm.pop(scratch)
        if save_flags:
            asm.popfq()
        if red_zone:
            asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")  # lea 0x80(%rsp), %rsp


class CallFunction(_PlannedBody):
    """Call an absolute function, optionally passing the effective address
    of the displaced instruction's memory operand in ``%rdi`` (the shape
    used by the LowFat heap-write hardening of Section 6.3).

    *clobbers* narrows the saved register set when the callee's clobbers
    are known (E9Patch hand-optimizes its trampolines the same way); the
    default (``None``) saves every caller-saved register, while an
    explicit empty tuple means "the callee preserves everything" and
    saves only what the call sequence itself clobbers.  With liveness
    bound, registers and status flags that are dead at the patch site
    are additionally dropped from the saved set; the red-zone ``lea``
    pair is *always* kept, because ``call`` pushes a return address
    below ``%rsp`` regardless of what is live.
    """

    name = "call"

    def __init__(self, func_vaddr: int, pass_mem_operand: bool = False,
                 clobbers: tuple[int, ...] | None = None,
                 preserves_flags: bool = False) -> None:
        self.func_vaddr = func_vaddr
        self.pass_mem_operand = pass_mem_operand
        # None (unknown callee: save all scratch) and () (callee preserves
        # everything: save only the call sequence's own clobbers) must
        # stay distinguishable wherever this is threaded.
        self.clobbers = None if clobbers is None else tuple(clobbers)
        self.preserves_flags = preserves_flags

    @property
    def saved(self) -> tuple[int, ...]:
        """The liveness-blind saved set (site-independent)."""
        base = self.clobbers if self.clobbers is not None else _SCRATCH_REGS
        saved = tuple(base)
        if enc.R11 not in saved:
            saved += (enc.R11,)  # used for the call itself
        if self.pass_mem_operand and enc.RDI not in saved:
            saved += (enc.RDI,)  # argument register the body overwrites
        return saved

    def _plan(self, live: SiteLiveness | None) -> tuple[tuple[int, ...], bool]:
        """(registers to save, save flags?)."""
        saved = self.saved
        save_flags = not self.preserves_flags
        if live is None:
            return (saved, save_flags)
        # DF is deliberately ignored here: the SysV ABI requires callees
        # to preserve the cleared direction flag, so a compliant callee
        # never changes it and the status flags alone decide the save.
        if save_flags and live.flags_are_dead(STATUS_FLAGS):
            save_flags = False
        return (tuple(r for r in saved if not live.reg_is_dead(r)),
                save_flags)

    def _plan_regs(self, plan: tuple[tuple[int, ...], bool]) -> int:
        return len(plan[0])

    def _layout(self, insn: Instruction):
        """The rebuilt operand's SIB and displacement size, or None
        when the body moves 0 into ``%rdi`` instead."""
        if self.pass_mem_operand and insn.has_mem_operand \
                and not insn.rip_relative:
            return (insn.sib is not None, insn.disp_size)
        return None

    def _emit_plan(self, asm: enc.Assembler, insn: Instruction,
                   plan: tuple[tuple[int, ...], bool]) -> None:
        saved, save_flags = plan
        asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp
        if save_flags:
            asm.pushfq()
        for reg in saved:
            asm.push(reg)
        if self.pass_mem_operand:
            if insn.has_mem_operand and not insn.rip_relative:
                asm.lea_from_modrm(enc.RDI, insn)
            else:
                asm.mov_imm32(enc.RDI, 0)
        asm.mov_imm64(enc.R11, self.func_vaddr)
        asm.call_reg(enc.R11)
        for reg in reversed(saved):
            asm.pop(reg)
        if save_flags:
            asm.popfq()
        asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")  # lea 0x80(%rsp), %rsp


def trampoline_size(insn: Instruction, instr: Instrumentation) -> int:
    """Exact trampoline size for *insn* with *instr* (address-independent)."""
    size = instr.size(insn) + relocated_size(insn)
    if not _no_return(insn):
        size += JMP_BACK_SIZE
    return size


def _no_return(insn: Instruction) -> bool:
    """True if control never falls through the displaced instruction."""
    return insn.flow in (Flow.JMP, Flow.RET)


def build_trampoline(insn: Instruction, instr: Instrumentation,
                     tramp_addr: int, expected: int | None = None,
                     inject_bug: bool = False) -> bytes:
    """Emit the trampoline body for *insn* at *tramp_addr*.

    *expected* is the size the caller allocated (normally the memoized
    :func:`trampoline_size`); passing it skips re-probing the
    instrumentation body while still failing loudly if the encoding does
    not fit the allocation.  *inject_bug* applies the test-only
    miscompile of :func:`inject_bug_enabled`.
    """
    asm = enc.Assembler(base=tramp_addr)
    instr.emit(asm, insn)
    asm.raw(relocate(insn, asm.here))
    if not _no_return(insn):
        back = insn.end - (asm.here + JMP_BACK_SIZE)
        if inject_bug:
            # Test-only miscompile: land the jump-back 2 bytes past the
            # displaced instruction's end (mid-instruction), the classic
            # displacement-math bug the equivalence oracle must catch.
            back += 2
        asm.raw(enc.encode_jmp_rel32(back))
    out = asm.bytes()
    if expected is None:
        expected = trampoline_size(insn, instr)
    if len(out) != expected:
        raise PatchError(
            f"trampoline size mismatch: {len(out)} != predicted {expected}"
        )
    return out


@dataclass
class Trampoline:
    """An allocated, encoded trampoline."""

    vaddr: int
    code: bytes
    tag: str = ""

    @property
    def size(self) -> int:
        return len(self.code)

    @property
    def end(self) -> int:
        return self.vaddr + len(self.code)
