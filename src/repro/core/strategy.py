"""Strategy S1: reverse-order patching (paper Section 3.4).

Sites are patched from highest to lowest address so that punning only
ever creates dependencies on bytes that have already reached their final
value.  Per site the tactics are tried cheapest-first:
B1/B2 -> T1 -> T2 -> T3 (-> optional B0 fallback).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.stats import PatchStats
from repro.core.tactics import (
    SitePatch,
    Tactic,
    TacticContext,
    apply_int3,
    try_direct,
    try_neighbour_eviction,
    try_successor_eviction,
)
from repro.core.trampoline import Instrumentation
from repro.x86.insn import Instruction


@dataclass
class TacticToggles:
    """Enable/disable individual tactics (for the paper's ablations)."""

    t1: bool = True
    t2: bool = True
    t3: bool = True
    b0_fallback: bool = False


@dataclass
class PatchRequest:
    """One instruction to patch, with its instrumentation body."""

    insn: Instruction
    instrumentation: Instrumentation


@dataclass
class PatchPlan:
    """Output of a strategy run."""

    patches: list[SitePatch] = field(default_factory=list)
    failures: list[int] = field(default_factory=list)
    stats: PatchStats = field(default_factory=PatchStats)

    @property
    def trampolines(self):
        for patch in self.patches:
            yield from patch.trampolines


def patch_all(
    ctx: TacticContext,
    requests: list[PatchRequest],
    toggles: TacticToggles | None = None,
) -> PatchPlan:
    """Apply S1 reverse-order patching to all *requests*."""
    toggles = toggles or TacticToggles()
    plan = PatchPlan()

    for req in sorted(requests, key=lambda r: r.insn.address, reverse=True):
        result = _patch_one(ctx, req, toggles)
        if result is None:
            plan.failures.append(req.insn.address)
        else:
            plan.patches.append(result)
    # Tallied once per plan; by_tactic keeps first-seen order.
    trampolines = list(plan.trampolines)
    plan.stats = PatchStats(
        total=len(requests),
        by_tactic=dict(Counter(p.tactic for p in plan.patches)),
        failed=len(plan.failures),
        trampoline_bytes=sum(len(t.code) for t in trampolines),
        trampoline_count=len(trampolines),
    )
    return plan


def _patch_one(
    ctx: TacticContext, req: PatchRequest, toggles: TacticToggles
) -> SitePatch | None:
    insn, instr = req.insn, req.instrumentation
    result = try_direct(ctx, insn, instr, allow_padding=toggles.t1)
    if result is None and toggles.t2:
        result = try_successor_eviction(ctx, insn, instr)
    if result is None and toggles.t3:
        result = try_neighbour_eviction(ctx, insn, instr)
    if result is None and toggles.b0_fallback:
        result = apply_int3(ctx, insn)
    return result
