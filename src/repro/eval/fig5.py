"""Figure 5 harness: empty (A2) vs LowFat heap-write instrumentation.

For each SPEC profile (plus browser means), run the same workload three
ways in the VM — original, A2 with the empty instrumentation, A2 with
the LowFat redzone check — and report the two relative overheads.  The
paper's headline: SPEC mean rises from +64.71% (empty) to +127.27%
(LowFat); Chrome/FireFox from +113%/+46% to +170%/+60%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import RewriteConfig, rewrite_many
from repro.lowfat import (
    LowFatAllocator,
    LowFatLayout,
    install_lowfat_heap,
    lowfat_instrumentation,
)
from repro.synth.generator import BUFFER_SIZE, SynthesisParams, synthesize
from repro.synth.profiles import BinaryProfile, SPEC_PROFILES
from repro.vm.machine import run_elf

TRANSFER_WEIGHT = 2
LOOP_ITERS = 3


@dataclass
class Fig5Row:
    name: str
    empty_pct: float  # A2 empty instrumentation overhead (100 = parity)
    lowfat_pct: float  # A2 LowFat redzone-check overhead
    paper_empty_pct: float | None = None


def run_one(profile: BinaryProfile) -> Fig5Row:
    """Measure empty-vs-LowFat overhead for one profile's workload."""
    layout = LowFatLayout()
    allocator = LowFatAllocator(layout)
    buffer_ptr = allocator.malloc(BUFFER_SIZE)

    params = SynthesisParams.from_profile(profile, loop_iters=LOOP_ITERS)
    params.buffer_addr = buffer_ptr
    # Keep the timing workload bounded for the interpreter.
    params.n_jump_sites = min(params.n_jump_sites, 120)
    params.n_write_sites = min(params.n_write_sites, 160)
    binary = synthesize(params)
    orig = run_elf(binary.data)

    def lowfat_factory(ctx):
        return lowfat_instrumentation(install_lowfat_heap(ctx, layout))

    # One batch, one decode: empty-body and LowFat configurations.
    options = RewriteOptions(mode="loader")
    reports = rewrite_many(
        binary.data,
        [RewriteConfig(instrumentation="empty", options=options,
                       label="empty"),
         RewriteConfig(instrumentation=lowfat_factory, options=options,
                       label="lowfat")],
        matcher="heap-writes",
    )

    def cost(report) -> int:
        run = run_elf(report.result.data)
        if run.observable != orig.observable:
            raise AssertionError(f"behaviour changed for {profile.name}")
        return run.weighted_cost(TRANSFER_WEIGHT)

    base_cost = max(1, orig.weighted_cost(TRANSFER_WEIGHT))
    return Fig5Row(
        name=profile.name,
        empty_pct=100.0 * cost(reports[0]) / base_cost,
        lowfat_pct=100.0 * cost(reports[1]) / base_cost,
        paper_empty_pct=profile.a2.time_pct,
    )


def run_fig5(profiles: list[BinaryProfile] | None = None) -> list[Fig5Row]:
    profiles = profiles if profiles is not None else SPEC_PROFILES
    return [run_one(p) for p in profiles]


def format_fig5(rows: list[Fig5Row]) -> str:
    lines = [f"{'binary':<14}{'A2 empty':>12}{'LowFat':>12}{'paper A2':>12}"]
    for row in rows:
        paper = f"{row.paper_empty_pct:.1f}%" if row.paper_empty_pct else "-"
        lines.append(
            f"{row.name:<14}{row.empty_pct:>11.1f}%{row.lowfat_pct:>11.1f}%"
            f"{paper:>12}"
        )
    if rows:
        mean_e = sum(r.empty_pct for r in rows) / len(rows)
        mean_l = sum(r.lowfat_pct for r in rows) / len(rows)
        lines.append(f"{'Mean':<14}{mean_e:>11.1f}%{mean_l:>11.1f}%{'-':>12}")
    return "\n".join(lines)
