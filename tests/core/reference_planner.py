"""Reference planner: the eager window enumeration and the generic
window loop of ``try_direct``, kept as the oracle for the production
planner.

Production :func:`repro.core.puns.pun_windows` is a lazy generator, and
production :func:`repro.core.tactics.try_direct` places a site of five
or more bytes straight into its padding-0 full-reach window before it
enumerates anything.  These two functions are the straightforward
versions both were derived from: build every window up front, then
probe each in order.  ``tests/core/test_planner_differential.py`` asserts
the two planners agree byte for byte and probe for probe.
"""

from __future__ import annotations

from repro.core.binary import CodeImage
from repro.core.puns import MAX_JUMP_LEN, PunWindow
from repro.core.tactics import SitePatch, Tactic, TacticContext
from repro.core.trampoline import Instrumentation, Trampoline, build_trampoline
from repro.errors import PatchError
from repro.x86.insn import Instruction


def pun_windows(
    image: CodeImage,
    jump_addr: int,
    writable_end: int,
    *,
    min_padding: int = 0,
    max_padding: int | None = None,
) -> list[PunWindow]:
    """Every pun placement for a jump at *jump_addr*, smallest padding
    first, as a list."""
    windows: list[PunWindow] = []
    room = writable_end - jump_addr
    if room <= 0:
        return windows
    if max_padding is None:
        max_padding = room - 1
    max_padding = min(max_padding, room - 1, MAX_JUMP_LEN - 5)
    if not image.is_writable(jump_addr, room):
        return windows
    for p in range(min_padding, max_padding + 1):
        rel_pos = jump_addr + p + 1
        jump_end = rel_pos + 4
        free = max(0, min(4, writable_end - rel_pos))
        n_fixed = 4 - free
        if n_fixed:
            fixed_at = rel_pos + free
            if not image.readable(fixed_at, n_fixed):
                continue  # fixed bytes fall outside the mapped image
            high = int.from_bytes(image.read(fixed_at, n_fixed),
                                  "little") << (8 * free)
            lo = jump_end + ((high ^ 0x80000000) - 0x80000000)
            hi = lo + (1 << (8 * free))
        else:
            lo = jump_end - (1 << 31)
            hi = jump_end + (1 << 31)
        windows.append(
            PunWindow(jump_addr, p, free, lo, hi, p + 1 + free, n_fixed))
    return windows


def try_direct(
    ctx: TacticContext,
    insn: Instruction,
    instr: Instrumentation,
    *,
    allow_padding: bool = True,
) -> SitePatch | None:
    """B1/B2/T1 by probing every window of :func:`pun_windows` in order."""
    if ctx.protects(insn):
        return None
    space = ctx.space
    image = ctx.image
    size = ctx.trampoline_size(insn, instr)
    tag = f"patch@{insn.address:#x}"
    for window in pun_windows(image, insn.address, insn.end,
                              max_padding=None if allow_padding else 0):
        t = space.allocate(window.target_lo, window.target_hi, size, tag)
        if t is None:
            continue
        try:
            code = build_trampoline(insn, instr, t, size, ctx.inject_bug)
        except PatchError:
            space.release(t, size)
            continue
        image.write(window.jump_addr, window.encode(t))
        if window.punned_len:
            image.pun(window.jump_addr + window.written_len, window.punned_len)
        if window.free == 4:
            tactic = Tactic.B1
        elif window.padding == 0:
            tactic = Tactic.B2
        else:
            tactic = Tactic.T1
        return SitePatch(
            site=insn.address, tactic=tactic,
            trampolines=[Trampoline(vaddr=t, code=code, tag=tag)],
        )
    return None
