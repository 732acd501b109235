"""Ablations reproducing the paper's in-text claims (Section 6.1).

* **No-T3 coverage** — "Without T3, the overall coverage would be merely
  ~90.5% (Base+T1+T2) for A1 rather than ~100%."
* **Grouping off** — "the average file size balloons to
  +2239.83%/+568.96% for A1/A2" without physical page grouping.
* **B0 slowdown** — signal-handler patching is orders of magnitude
  slower than jump-based patching.
* **PIE effect** — "Even the baseline (Base%) for PIE binaries is >93%."
* **Scale invariance** — coverage percentages are stable under the
  profile scale factor (justifying the scaled-down corpus).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.rewriter import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.frontend.tool import instrument_elf, rewrite_many
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import BinaryProfile
from repro.vm.machine import Machine, TrapHandler, run_elf
from repro.x86.decoder import decode


@dataclass
class AblationResult:
    label: str
    value: float
    unit: str = "%"

    def __str__(self) -> str:
        return f"{self.label}: {self.value:.2f}{self.unit}"


def coverage_without_t3(profile: BinaryProfile,
                        app: str = "A1") -> tuple[float, float]:
    """(Succ% with all tactics, Succ% with T3 disabled)."""
    binary = synthesize(SynthesisParams.from_profile(profile))
    matcher = "jumps" if app == "A1" else "heap-writes"
    full, no_t3 = rewrite_many(
        binary.data,
        [RewriteOptions(mode="loader"),
         RewriteOptions(mode="loader", toggles=TacticToggles(t3=False))],
        matcher=matcher,
    )
    return full.stats.success_pct, no_t3.stats.success_pct


def grouping_size_blowup(profile: BinaryProfile,
                         app: str = "A1") -> tuple[float, float]:
    """(Size% with grouping, Size% with the naive 1:1 mapping)."""
    binary = synthesize(SynthesisParams.from_profile(profile))
    matcher = "jumps" if app == "A1" else "heap-writes"
    grouped, naive = rewrite_many(
        binary.data,
        [RewriteOptions(mode="loader", grouping=True),
         RewriteOptions(mode="loader", grouping=False)],
        matcher=matcher,
    )
    return grouped.result.size_pct, naive.result.size_pct


def pie_effect(profile: BinaryProfile, app: str = "A1") -> tuple[float, float]:
    """(non-PIE Base%, PIE Base%) for the same workload shape."""
    base_params = SynthesisParams.from_profile(profile)
    matcher = "jumps" if app == "A1" else "heap-writes"
    out = []
    for pie in (False, True):
        params = replace(base_params, pie=pie)
        binary = synthesize(params)
        report = instrument_elf(binary.data, matcher,
                                options=RewriteOptions(mode="loader"))
        out.append(report.stats.base_pct)
    return out[0], out[1]


def scale_invariance(profile: BinaryProfile, factors: tuple[float, ...] = (0.5, 1.0, 2.0),
                     app: str = "A1") -> list[float]:
    """Succ% across workload scales (should be ~constant)."""
    base = SynthesisParams.from_profile(profile)
    matcher = "jumps" if app == "A1" else "heap-writes"
    out = []
    for f in factors:
        params = replace(
            base,
            n_jump_sites=max(8, int(base.n_jump_sites * f)),
            n_write_sites=max(8, int(base.n_write_sites * f)),
        )
        binary = synthesize(params)
        report = instrument_elf(binary.data, matcher,
                                options=RewriteOptions(mode="loader"))
        out.append(report.stats.success_pct)
    return out


def b0_slowdown(seed: int = 5, n_sites: int = 40, loop_iters: int = 3) -> tuple[float, float]:
    """(B1-family Time%, B0 Time%): signal handlers vs jumps.

    B0 is modelled by replacing every A1 site with int3 and charging the
    configured kernel-roundtrip cost per trap.
    """
    params = SynthesisParams(n_jump_sites=n_sites, n_write_sites=10,
                             seed=seed, loop_iters=loop_iters)
    binary = synthesize(params)
    orig = run_elf(binary.data)

    jumps = instrument_elf(binary.data, "jumps",
                           options=RewriteOptions(mode="loader"))
    patched = run_elf(jumps.result.data)
    jump_pct = 100.0 * patched.cost / max(1, orig.cost)

    # B0: int3 at every site, trap handler emulates the instruction.
    from repro.elf.reader import ElfFile
    from repro.frontend.lineardisasm import disassemble_text
    from repro.frontend.matchers import match_jumps

    elf = ElfFile(binary.data)
    sites = [i for i in disassemble_text(elf) if match_jumps(i)]
    data = bytearray(binary.data)
    machine = Machine(bytes(data))
    for insn in sites:
        off = elf.vaddr_to_offset(insn.address)
        data[off] = 0xCC
    machine = Machine(bytes(data))
    for insn in sites:
        machine.register_trap(insn.address, TrapHandler(insn_bytes=insn.raw))
    trapped = machine.run()
    if trapped.observable != orig.observable:
        raise AssertionError("B0 emulation changed behaviour")
    b0_pct = 100.0 * trapped.cost / max(1, orig.cost)
    return jump_pct, b0_pct
