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

#: Flags clobbered by the Counter body's ``incq`` (CF is untouched).
_INC_FLAGS = PF | AF | ZF | SF | OF

#: The skip over the 128-byte red zone around a body that touches the
#: stack.
RED_ZONE_DOWN = b"\x48\x8d\x64\x24\x80"  # lea -0x80(%rsp), %rsp
RED_ZONE_UP = b"\x48\x8d\xa4\x24\x80\x00\x00\x00"  # lea 0x80(%rsp), %rsp


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
    # insn.target and insn.rip_relative are spelled out here: their
    # property chains are measurable at thousands of relocations per
    # rewrite.
    flow = insn.flow
    if flow is Flow.JMP and insn.imm is not None:
        return enc.encode_jmp_rel32(insn.end + insn.imm - (at_addr + 5))
    if flow is Flow.JCC:
        return enc.encode_jcc_rel32(insn.opcode & 0x0F,
                                    insn.end + insn.imm - (at_addr + 6))
    if flow is Flow.CALL and insn.imm is not None:
        return enc.encode_call_rel32(insn.end + insn.imm - (at_addr + 5))
    if flow is Flow.LOOP:
        # loopcc/jrcxz only exist with rel8; expand to the standard
        # branch-out pattern:  loopcc +2; jmp +5; jmp target
        return (bytes((insn.opcode, 0x02, enc.JMP_REL8_OPCODE, 0x05,
                       enc.JMP_REL32_OPCODE))
                + enc.encode_rel32(insn.end + insn.imm - (at_addr + 9)))
    modrm = insn.modrm
    if modrm is not None and modrm & 0xC7 == 0x05:  # mod 0, rm 5: rip-relative
        new_disp = insn.end + (insn.disp or 0) - (at_addr + insn.length)
        if not enc.REL32_MIN <= new_disp <= enc.REL32_MAX:
            raise PatchError(
                f"rip-relative operand of {insn.mnemonic} at {insn.address:#x} "
                f"unreachable from trampoline at {at_addr:#x}"
            )
        raw, i = insn.raw, insn.disp_offset
        return raw[:i] + enc.encode_rel32(new_disp) + raw[i + 4:]
    return insn.raw


def operand_address(reg: int, insn: Instruction) -> bytes:
    """``lea`` of *insn*'s memory operand into *reg*; ``mov $0`` into
    *reg* when it has none, or only a rip-relative one."""
    if insn.has_mem_operand and not insn.rip_relative:
        return enc.encode_lea_from_modrm(reg, insn)
    mov = bytes((0xB8 | (reg & 7),)) + bytes(4)
    return b"\x41" + mov if reg >= 8 else mov


class Instrumentation:
    """Base class for trampoline instrumentation bodies.

    :meth:`body` gives a body's bytes at the head of one trampoline:
    the built-in bodies fill byte templates assembled once per distinct
    encoding (a constant body just returns its bytes).  The *size* must
    not depend on the trampoline address (position-independent code, or
    ``movabs``), so that it is known before the address is chosen.

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
        return len(self.body(insn, 0))

    def body(self, insn: Instruction, at: int) -> bytes:
        """The body's bytes for *insn* in a trampoline starting at *at*."""
        raise NotImplementedError

    def reach(self, insn: Instruction) -> tuple[int, int] | None:
        """Half-open range of trampoline starts from which the body's
        rip-relative reference encodes, or None when any start does."""
        return None

    def saved_cost(self, insn: Instruction) -> tuple[int, int]:
        """(bytes, register save/restore pairs) trimmed at this site by
        the bound liveness, relative to the liveness-blind encoding:
        none, unless the body slims (:class:`_PlannedBody`)."""
        return (0, 0)


class _PlannedBody(Instrumentation):
    """A body that liveness slims through a per-site *plan*: which
    registers and flags it saves.  Subclasses give ``_plan(live)`` (the
    plan under a :class:`SiteLiveness`, or liveness-blind under None),
    ``_plan_regs(plan)`` (its register save/restore pairs),
    ``_template(plan)`` (the plan's bytes as a ``(head, tail)`` pair)
    and ``_fill(insn, at)``, the per-site bytes between the two, placed
    at *at*.  Each site's plan is computed once per
    :meth:`bind_liveness` and each plan's template is assembled once: a
    handful of templates per body."""

    _plans: dict | None = None
    _templates: dict | None = None

    def bind_liveness(self, liveness: LivenessAnalysis | None) -> None:
        self.liveness = liveness
        self._plans = None

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

    def _parts(self, plan) -> tuple[bytes, bytes]:
        if self._templates is None:
            self._templates = {}
        parts = self._templates.get(plan)
        if parts is None:
            parts = self._templates[plan] = self._template(plan)
        return parts

    def _fill_size(self, insn: Instruction) -> int:
        return len(self._fill(insn, 0))

    def size(self, insn: Instruction) -> int:
        head, tail = self._parts(self._site_plan(insn))
        return len(head) + self._fill_size(insn) + len(tail)

    def body(self, insn: Instruction, at: int) -> bytes:
        head, tail = self._parts(self._site_plan(insn))
        return head + self._fill(insn, at + len(head)) + tail

    def saved_cost(self, insn: Instruction) -> tuple[int, int]:
        if self.liveness is None:
            return (0, 0)
        blind, plan = self._plan(None), self._site_plan(insn)
        # The per-site fill does not depend on the plan.
        return (sum(map(len, self._parts(blind)))
                - sum(map(len, self._parts(plan))),
                self._plan_regs(blind) - self._plan_regs(plan))


class Empty(Instrumentation):
    """The paper's "empty" instrumentation: displaced instruction only."""

    name = "empty"

    def size(self, insn: Instruction) -> int:
        return 0

    def body(self, insn: Instruction, at: int) -> bytes:
        return b""


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
    needed, so only the flags save remains to slim away.  Its template
    leaves the disp32 to be filled in per trampoline.
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
        # The incq's rel32 counts from its end, 4 bytes past the head.
        at = self.counter_vaddr - len(self._parts(self._site_plan(insn))[0]) - 4
        return (at - (1 << 31) + 1, at + (1 << 31) + 1)

    def _template(self, plan: tuple[int, bool, bool]) -> tuple[bytes, bytes]:
        scratch, save_reg, save_flags = plan
        pre, post = enc.Assembler(), enc.Assembler()
        # Any push dips below %rsp, so the red-zone adjustment is needed
        # exactly when something is saved.
        red_zone = save_reg or save_flags
        if red_zone:
            pre.raw(RED_ZONE_DOWN)
        if save_flags:
            pre.pushfq()
        if save_reg:
            pre.push(scratch)
            post.pop(scratch)
        if save_flags:
            post.popfq()
        if red_zone:
            post.raw(RED_ZONE_UP)
        if self.pic:  # incq disp32(%rip), the disp32 filled per trampoline
            return pre.bytes() + b"\x48\xff\x05", post.bytes()
        pre.mov_imm64(scratch, self.counter_vaddr)
        pre.inc_mem64(scratch)
        return pre.bytes() + post.bytes(), b""

    def _fill(self, insn: Instruction, at: int) -> bytes:
        if not self.pic:
            return b""
        return enc.encode_rel32(self.counter_vaddr - (at + 4))

    def _fill_size(self, insn: Instruction) -> int:
        return 4 if self.pic else 0


class CallFunction(_PlannedBody):
    """Call an absolute function, optionally passing the effective address
    of the displaced instruction's memory operand in ``%rdi`` (the shape
    used by the LowFat hardening of Section 6.3).

    *clobbers* narrows the saved register set when the callee's clobbers
    are known (E9Patch hand-optimizes its trampolines the same way); the
    default (``None``) saves every caller-saved register, while an
    explicit empty tuple means "the callee preserves everything" and
    saves only what the call sequence itself clobbers.  With liveness
    bound, registers and status flags that are dead at the patch site
    are additionally dropped from the saved set; the red-zone ``lea``
    pair is *always* kept, because ``call`` pushes a return address
    below ``%rsp`` regardless of what is live.  The template leaves the
    operand's ``lea`` (or ``mov $0``) into ``%rdi`` to be filled in per
    site.
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

    def _template(self, plan: tuple[tuple[int, ...], bool]
                  ) -> tuple[bytes, bytes]:
        saved, save_flags = plan
        head, tail = enc.Assembler(), enc.Assembler()
        head.raw(RED_ZONE_DOWN)
        if save_flags:
            head.pushfq()
        for reg in saved:
            head.push(reg)
        tail.mov_imm64(enc.R11, self.func_vaddr)
        tail.call_reg(enc.R11)
        for reg in reversed(saved):
            tail.pop(reg)
        if save_flags:
            tail.popfq()
        tail.raw(RED_ZONE_UP)
        return head.bytes(), tail.bytes()

    def _fill(self, insn: Instruction, at: int) -> bytes:
        if self.pass_mem_operand:
            return operand_address(enc.RDI, insn)
        return b""


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
    """Emit the trampoline for *insn* at *tramp_addr*: the body, the
    relocated instruction and the jump back, each a byte template with
    its displacements filled in.

    *expected* is the size the caller allocated (normally the memoized
    :func:`trampoline_size`); passing it skips re-probing the
    instrumentation body while still failing loudly if the encoding does
    not fit the allocation.  *inject_bug* applies the test-only
    miscompile of :func:`inject_bug_enabled`.
    """
    code = instr.body(insn, tramp_addr)
    code += relocate(insn, tramp_addr + len(code))
    if not _no_return(insn):
        back = insn.end - (tramp_addr + len(code) + JMP_BACK_SIZE)
        if inject_bug:
            # Test-only miscompile: land the jump-back 2 bytes past the
            # displaced instruction's end (mid-instruction), the classic
            # displacement-math bug the equivalence oracle must catch.
            back += 2
        code += enc.encode_jmp_rel32(back)
    if expected is None:
        expected = trampoline_size(insn, instr)
    if len(code) != expected:
        raise PatchError(
            f"trampoline size mismatch: {len(code)} != predicted {expected}"
        )
    return code


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
