"""Cost-model sensitivity analysis for the Time% estimates.

The VM reports overheads as dynamic instruction-count ratios, optionally
charging taken control transfers extra (approximating pipeline
redirects).  A reproduction claim based on *orderings* should not hinge
on that knob — this harness sweeps the transfer weight and checks that
the ranking of benchmarks by overhead is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import rewrite_many
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import BinaryProfile
from repro.vm.machine import run_elf


@dataclass
class SensitivityResult:
    """Per-profile overheads under each transfer weight."""

    weights: tuple[int, ...]
    overheads: dict[str, dict[int, float]]  # name -> weight -> Time%

    def ranking(self, weight: int) -> list[str]:
        return sorted(self.overheads,
                      key=lambda name: -self.overheads[name][weight])

    def ranking_stable(self, tolerance_pct: float = 2.0) -> bool:
        """True when no *decisive* pairwise ordering inverts across
        weights; pairs within *tolerance_pct* of each other are ties and
        may swap freely."""
        names = list(self.overheads)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                signs = set()
                for w in self.weights:
                    diff = self.overheads[a][w] - self.overheads[b][w]
                    if abs(diff) > tolerance_pct:
                        signs.add(diff > 0)
                if len(signs) > 1:
                    return False
        return True


def run_sensitivity(
    profiles: list[BinaryProfile],
    weights: tuple[int, ...] = (0, 2, 5),
    *,
    loop_iters: int = 3,
) -> SensitivityResult:
    overheads: dict[str, dict[int, float]] = {}
    for profile in profiles:
        params = SynthesisParams.from_profile(profile, loop_iters=loop_iters)
        params.n_jump_sites = min(params.n_jump_sites, 120)
        params.n_write_sites = min(params.n_write_sites, 80)
        binary = synthesize(params)
        orig = run_elf(binary.data)
        [report] = rewrite_many(binary.data,
                                [RewriteOptions(mode="loader")],
                                matcher="jumps")
        patched = run_elf(report.result.data)
        assert patched.observable == orig.observable
        overheads[profile.name] = {
            w: 100.0 * patched.weighted_cost(w) / max(1, orig.weighted_cost(w))
            for w in weights
        }
    return SensitivityResult(weights=weights, overheads=overheads)


def format_sensitivity(result: SensitivityResult) -> str:
    lines = [("benchmark".ljust(12)
              + "".join(f"w={w}".rjust(10) for w in result.weights))]
    for name, row in result.overheads.items():
        lines.append(name.ljust(12)
                     + "".join(f"{row[w]:>9.1f}%" for w in result.weights))
    lines.append(f"ranking stable across weights: {result.ranking_stable()}")
    return "\n".join(lines)
