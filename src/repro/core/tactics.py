"""Patching tactics B0/B1/B2/T1/T2/T3 (paper Sections 2.1 and 3).

Each tactic attempts to redirect one patch-site instruction to its
trampoline without moving any other instruction and while preserving the
set of jump targets.  Tactics that perform multi-step searches (T2/T3)
run inside a :class:`Transaction` so failed attempts roll back cleanly.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import EncodeError, PatchError
from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.puns import PunWindow, pun_windows, short_jump_spec
from repro.core.trampoline import (
    Empty,
    Instrumentation,
    Trampoline,
    build_trampoline,
    inject_bug_enabled,
    trampoline_size,
)
from repro.x86.flow import is_endbr64
from repro.x86.insn import Instruction


class Tactic(enum.Enum):
    """Which methodology successfully patched a site."""

    B0 = "B0"  # int3 + trap handler
    B1 = "B1"  # direct jump replacement (length >= 5)
    B2 = "B2"  # punned jump, no padding
    T1 = "T1"  # padded punned jump
    T2 = "T2"  # successor eviction
    T3 = "T3"  # neighbour eviction (double jump)

    @property
    def is_baseline(self) -> bool:
        return self in (Tactic.B1, Tactic.B2)


@dataclass
class SitePatch:
    """Successful patch record for one site."""

    site: int
    tactic: Tactic
    trampolines: list[Trampoline] = field(default_factory=list)


class Transaction:
    """Undo log over the code image and address space."""

    def __init__(self, image: CodeImage, space: AddressSpace) -> None:
        self.image = image
        self.space = space
        # (vaddr, bytes, locks) as they were before each write or pun.
        self._undo: list[tuple[int, bytes, bytes]] = []
        self.trampolines: list[Trampoline] = []

    def write(self, vaddr: int, data: bytes) -> None:
        before = self.image.snapshot(vaddr, len(data))
        self.image.write(vaddr, data)
        self._undo.append((vaddr, *before))

    def pun(self, vaddr: int, length: int) -> None:
        if length <= 0:
            return
        before = self.image.snapshot(vaddr, length)
        self.image.pun(vaddr, length)
        self._undo.append((vaddr, *before))

    def add_trampoline(self, tramp: Trampoline) -> None:
        """Adopt an allocated trampoline: abort releases its extent."""
        self.trampolines.append(tramp)

    def abort(self) -> None:
        for vaddr, data, locks in reversed(self._undo):
            self.image.restore(vaddr, data, locks)
        for tramp in reversed(self.trampolines):
            self.space.release(tramp.vaddr, tramp.size)
        self._undo.clear()
        self.trampolines.clear()


#: Shared empty instrumentation for evictee trampolines.  A singleton so
#: the per-(insn, instrumentation) trampoline-size memo keys stay stable
#: across the thousands of T2/T3 eviction attempts.
_EMPTY = Empty()


@dataclass
class TacticContext:
    """Everything a tactic needs: image, allocator, instruction index.

    Also hosts the plan pass's per-rewrite state (INTERNALS.md §7): the
    :meth:`trampoline_size` memo and the ``$REPRO_CHECK_INJECT_BUG``
    flag, read once here rather than per trampoline.
    """

    image: CodeImage
    space: AddressSpace
    instructions: Sequence[Instruction]  # sorted by address (linear stream)
    #: CET/IBT mode: endbr64 landing pads are hard constraints — no
    #: tactic may overwrite or pun through one (an indirect branch to a
    #: clobbered pad would fault under IBT enforcement).
    cet: bool = False
    inject_bug: bool = field(default_factory=inject_bug_enabled)
    # Sorted instruction start offsets from _base: a zero-copy view of
    # an InstructionStream's offsets, else a list of addresses.
    _offs: Sequence[int] = ()
    _base: int = 0
    _ts_cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        view = getattr(self.instructions, "offsets_view", None)
        if view is not None:  # InstructionStream: no materialization
            self._offs = view()
            self._base = self.instructions.address
        else:
            self._offs = [i.address for i in self.instructions]

    def protects(self, insn: Instruction) -> bool:
        """True when *insn* is an IBT landing pad this rewrite must keep
        byte-identical (only in CET mode)."""
        return self.cet and is_endbr64(insn)

    def insn_at(self, addr: int) -> Instruction | None:
        """Instruction starting exactly at *addr*."""
        off = addr - self._base
        i = bisect_right(self._offs, off) - 1
        if i >= 0 and self._offs[i] == off:
            return self.instructions[i]
        return None

    def insn_containing(self, addr: int) -> Instruction | None:
        """Instruction whose byte range covers *addr*."""
        i = bisect_right(self._offs, addr - self._base) - 1
        if i >= 0:
            insn = self.instructions[i]
            if insn.address <= addr < insn.end:
                return insn
        return None

    def trampoline_size(self, insn: Instruction, instr: Instrumentation) -> int:
        """Memoized :func:`repro.core.trampoline.trampoline_size`.

        Sizes are address-independent, so entries never invalidate.  The
        entry pins both objects, keeping the id-based key unambiguous.
        """
        key = (id(insn), id(instr))
        hit = self._ts_cache.get(key)
        if hit is not None:
            return hit[2]
        size = trampoline_size(insn, instr)
        self._ts_cache[key] = (insn, instr, size)
        return size


def _emit_jump(
    tx: Transaction,
    window: PunWindow,
    target: int,
) -> None:
    """Write a punned jump through *window* to *target* and set locks."""
    tx.write(window.jump_addr, window.encode(target))
    if window.punned_len:
        tx.pun(window.jump_addr + window.written_len, window.punned_len)


def _place_trampoline(
    ctx: TacticContext,
    insn: Instruction,
    instr: Instrumentation,
    lo: int,
    hi: int,
    size: int,
    tag: str,
) -> Trampoline | None:
    """Allocate and encode *insn*'s trampoline with its start in
    ``[lo, hi)`` and in the body's reach; None (with nothing left
    allocated) on failure."""
    reach = instr.reach(insn)
    if reach is not None:
        lo, hi = max(lo, reach[0]), min(hi, reach[1])
        if lo >= hi:
            return None
    t = ctx.space.allocate(lo, hi, size)
    if t is None:
        return None
    try:
        code = build_trampoline(insn, instr, t, size, ctx.inject_bug)
    except (PatchError, EncodeError):  # e.g. an out-of-reach rel32
        ctx.space.release(t, size)
        return None
    return Trampoline(vaddr=t, code=code, tag=tag)


def _try_jump_to_new_trampoline(
    ctx: TacticContext,
    tx: Transaction,
    jump_addr: int,
    writable_end: int,
    tramp_insn: Instruction,
    instr: Instrumentation,
    tag: str,
) -> PunWindow | None:
    """Try every pun window at *jump_addr*; on success the jump is written
    and the trampoline (for *tramp_insn* with *instr*) is allocated and
    encoded.  Returns the window used, or None."""
    size = ctx.trampoline_size(tramp_insn, instr)
    for window in pun_windows(ctx.image, jump_addr, writable_end):
        tramp = _place_trampoline(ctx, tramp_insn, instr, window.target_lo,
                                  window.target_hi, size, tag)
        if tramp is not None:
            tx.add_trampoline(tramp)
            _emit_jump(tx, window, tramp.vaddr)
            return window
    return None


# ---------------------------------------------------------------------------
# B1 / B2 / T1: (padded) punned jump at the patch site itself.
# ---------------------------------------------------------------------------

def try_direct(
    ctx: TacticContext,
    insn: Instruction,
    instr: Instrumentation,
    *,
    allow_padding: bool = True,
) -> SitePatch | None:
    """Tactics B1 (len>=5), B2 (no padding) and T1 (padded) unified.

    Windows are tried least-constrained first; the tactic label is derived
    from the winning window (free==4 -> B1, padding==0 -> B2, else T1).
    A site of five or more bytes has a padding-0 window spanning the
    whole rel32 range, so it is tried directly as ``E9 rel32`` without
    enumerating windows; only if it fails does the enumeration resume at
    padding 1.  Every window still gets exactly one allocation probe.

    Unlike the multi-step tactics this one needs no :class:`Transaction`:
    the image is only written on the success path (failed allocation
    probes are released directly), so there is never anything to roll
    back — and skipping the undo log (byte and lock snapshots)
    keeps the most common tactic on the fast path.
    """
    if ctx.protects(insn):
        return None  # never pun through an IBT landing pad
    image = ctx.image
    addr = insn.address
    # Not memoized: most sites are sized here once and never retried.
    size = trampoline_size(insn, instr)
    tag = f"patch@{addr:#x}"
    min_padding = 0
    if insn.length >= 5:
        if not image.is_writable(addr, insn.length):
            return None  # no window of any padding
        jump_end = addr + 5
        tramp = _place_trampoline(ctx, insn, instr, jump_end - (1 << 31),
                                  jump_end + (1 << 31), size, tag)
        if tramp is not None:
            rel = (tramp.vaddr - jump_end) & 0xFFFFFFFF
            image.write(addr, b"\xe9" + rel.to_bytes(4, "little"))
            return SitePatch(site=addr, tactic=Tactic.B1,
                             trampolines=[tramp])
        min_padding = 1
    for window in pun_windows(
        image, addr, insn.end, min_padding=min_padding,
        max_padding=None if allow_padding else 0,
    ):
        tramp = _place_trampoline(ctx, insn, instr, window.target_lo,
                                  window.target_hi, size, tag)
        if tramp is None:
            continue
        image.write(window.jump_addr, window.encode(tramp.vaddr))
        if window.punned_len:
            image.pun(window.jump_addr + window.written_len, window.punned_len)
        if window.free == 4:
            tactic = Tactic.B1
        elif window.padding == 0:
            tactic = Tactic.B2
        else:
            tactic = Tactic.T1
        return SitePatch(site=addr, tactic=tactic, trampolines=[tramp])
    return None


# ---------------------------------------------------------------------------
# T2: successor eviction.
# ---------------------------------------------------------------------------

def try_successor_eviction(
    ctx: TacticContext,
    insn: Instruction,
    instr: Instrumentation,
) -> SitePatch | None:
    """Evict the successor instruction, then re-attempt punning at the site
    against the successor's new (jump) bytes."""
    if ctx.protects(insn):
        return None
    succ = ctx.insn_at(insn.end)
    if succ is None:
        return None
    if ctx.protects(succ):
        return None  # evicting a landing pad would break IBT targets
    if not ctx.image.is_writable(succ.address, succ.length):
        return None  # successor already patched/locked

    evictee_size = ctx.trampoline_size(succ, _EMPTY)
    for s_window in pun_windows(ctx.image, succ.address, succ.end):
        # One evictee placement per successor window: its jump's bytes
        # fix the site's own pun windows.
        evictee = _place_trampoline(
            ctx, succ, _EMPTY, s_window.target_lo, s_window.target_hi,
            evictee_size, f"evictee@{succ.address:#x}",
        )
        if evictee is None:
            continue
        tx = Transaction(ctx.image, ctx.space)
        tx.add_trampoline(evictee)
        _emit_jump(tx, s_window, evictee.vaddr)
        window = _try_jump_to_new_trampoline(
            ctx, tx, insn.address, insn.end, insn, instr,
            f"patch@{insn.address:#x}",
        )
        if window is not None:
            return SitePatch(
                site=insn.address, tactic=Tactic.T2, trampolines=list(tx.trampolines)
            )
        tx.abort()
    return None


# ---------------------------------------------------------------------------
# T3: neighbour eviction (double jump).
# ---------------------------------------------------------------------------

def try_neighbour_eviction(
    ctx: TacticContext,
    insn: Instruction,
    instr: Instrumentation,
    *,
    max_victims: int = 128,
) -> SitePatch | None:
    """Short-jump to a punned ``J_patch`` carved out of an evicted victim.

    The patch site gets a 2-byte short jump to location ``L`` (forward
    only); ``L`` must fall strictly inside a fully unlocked victim
    instruction V (or inside the patch instruction's own leftover bytes).
    V's head is replaced by a punned ``J_victim`` to V's evictee
    trampoline, preserving V's semantics for any jump that targets it.
    """
    if ctx.protects(insn):
        return None
    spec = short_jump_spec(ctx.image, insn.address, insn.length)
    if spec is None:
        return None

    tried = 0
    for L in spec.targets:
        if tried >= max_victims:
            break
        # Case 1: L inside the patch instruction's own leftover bytes.
        if insn.address + 2 <= L < insn.end:
            tried += 1
            tx = Transaction(ctx.image, ctx.space)
            # Reserve the short-jump bytes first so J_patch's pun cannot
            # claim them.
            tx.write(insn.address, spec.encode(L))
            window = _try_jump_to_new_trampoline(
                ctx, tx, L, insn.end, insn, instr, f"patch@{insn.address:#x}"
            )
            if window is not None:
                return SitePatch(
                    site=insn.address, tactic=Tactic.T3, trampolines=list(tx.trampolines)
                )
            tx.abort()
            continue

        # Case 2: L strictly inside a later victim instruction.
        victim = ctx.insn_containing(L)
        if victim is None or victim.address >= L:
            continue
        if victim.address < insn.end:
            continue  # victim must lie entirely after the patch site
        if ctx.protects(victim):
            continue  # a landing-pad victim must stay byte-identical
        if not ctx.image.is_writable(victim.address, victim.length):
            continue
        tried += 1

        tx = Transaction(ctx.image, ctx.space)
        # J_patch: punned jump at L (inside the victim) to the patch
        # trampoline.
        window = _try_jump_to_new_trampoline(
            ctx, tx, L, victim.end, insn, instr, f"patch@{insn.address:#x}"
        )
        if window is None:
            tx.abort()
            continue
        # J_victim: punned jump at the victim's head to its evictee
        # trampoline; its writable window ends at L (J_patch's bytes are
        # now locked and serve as fixed rel32 cells).
        v_window = _try_jump_to_new_trampoline(
            ctx, tx, victim.address, L, victim, _EMPTY,
            f"evictee@{victim.address:#x}",
        )
        if v_window is None:
            tx.abort()
            continue
        # J_short at the patch site.
        tx.write(insn.address, spec.encode(L))
        if not spec.rel8_free:
            tx.pun(insn.address + 1, 1)
        return SitePatch(
            site=insn.address, tactic=Tactic.T3, trampolines=list(tx.trampolines)
        )
    return None


# ---------------------------------------------------------------------------
# B0: int3 fallback.
# ---------------------------------------------------------------------------

def apply_int3(ctx: TacticContext, insn: Instruction) -> SitePatch | None:
    """Replace the first byte with int3; a trap handler implements the
    patch (orders of magnitude slower — used only as an explicit
    fallback)."""
    if ctx.protects(insn):
        # int3 would replace the endbr64 opcode: an IBT-checked indirect
        # branch to the site faults (#CP) before the trap even fires.
        return None
    if not ctx.image.is_writable(insn.address, 1):
        return None
    tx = Transaction(ctx.image, ctx.space)
    tx.write(insn.address, b"\xcc")
    return SitePatch(site=insn.address, tactic=Tactic.B0)
