"""The dict-based liveness solver, kept as the oracle of the differential
tests.

:class:`repro.analysis.liveness.LivenessAnalysis` solves from
shape-keyed effect columns in one flat sweep; this is the solver it
replaced, unchanged: one ``Instruction`` and one ``facts_for`` per
entry, an address-to-index dict, a successor tuple per instruction and
the same two reverse passes with the early exit.  Both must give the
same ``(live_regs, live_flags)`` at every instruction.
"""

from __future__ import annotations

from repro.analysis.facts import ALL_FLAGS, ALL_REGS, facts_for
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

#: The production solver's default number of reverse sweeps.
PASSES = 2


def reference_live(
    insns: list[Instruction], passes: int = PASSES
) -> dict[int, tuple[int, int]]:
    """``{address: (live_regs, live_flags)}`` over *insns*."""
    n = len(insns)
    if n == 0:
        return {}

    index_of = {insn.address: i for i, insn in enumerate(insns)}
    facts = [facts_for(insn) for insn in insns]

    # Successor shape per instruction, precomputed once:
    #   None          -> ⊤ live-out (unknown / unresolved flow)
    #   (i,)          -> single successor index
    #   (i, j)        -> jcc/loop: union of both successor live-ins
    succs: list[tuple[int, ...] | None] = [None] * n
    for i, insn in enumerate(insns):
        flow = insn.flow
        if flow == Flow.NONE:
            nxt = index_of.get(insn.end)
            succs[i] = None if nxt is None else (nxt,)
        elif flow == Flow.JMP:
            tgt = index_of.get(insn.target)
            succs[i] = None if tgt is None else (tgt,)
        elif flow in (Flow.JCC, Flow.LOOP):
            nxt = index_of.get(insn.end)
            tgt = index_of.get(insn.target)
            if nxt is None or tgt is None:
                succs[i] = None
            else:
                succs[i] = (nxt, tgt)
        # CALL / RET / GROUP5 / SYSCALL / INT3 / INT / HLT: leave None.

    live_regs = [ALL_REGS] * n
    live_flags = [ALL_FLAGS] * n
    for _ in range(passes):
        changed = False
        for i in range(n - 1, -1, -1):
            succ = succs[i]
            if succ is None:
                out_regs, out_flags = ALL_REGS, ALL_FLAGS
            else:
                out_regs = out_flags = 0
                for s in succ:
                    out_regs |= live_regs[s]
                    out_flags |= live_flags[s]
            f = facts[i]
            in_regs = (out_regs & ~f.regs_killed) | f.regs_read
            in_flags = (out_flags & ~f.flags_killed) | f.flags_read
            if in_regs != live_regs[i] or in_flags != live_flags[i]:
                live_regs[i] = in_regs
                live_flags[i] = in_flags
                changed = True
        if not changed:
            break

    return {
        insn.address: (live_regs[i], live_flags[i])
        for i, insn in enumerate(insns)
    }
