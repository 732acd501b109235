"""Table 1 harness: patching statistics per binary and application.

For every profile row, synthesize the scaled stand-in binary, run the
rewriter for A1 (jumps) and A2 (heap writes), and report #Loc, the
per-tactic coverage breakdown, Succ%, Size%, and (optionally, via the
VM) Time%.  The published numbers ride along for paper-vs-measured
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.elf.reader import ElfFile
from repro.frontend.tool import RewriteConfig, rewrite_many
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import ALL_PROFILES, BinaryProfile, PaperRow
from repro.vm.machine import run_elf

# Loop iterations for the VM timing runs (kept modest: the VM is an
# interpreter; overhead ratios converge quickly).
TIME_LOOP_ITERS = 4

# Extra cost charged per taken control transfer when estimating Time%.
TRANSFER_WEIGHT = 2


@dataclass
class Table1Row:
    """One (binary, application) measurement."""

    name: str
    app: str  # "A1" or "A2"
    locs: int
    base_pct: float
    t1_pct: float
    t2_pct: float
    t3_pct: float
    succ_pct: float
    size_pct: float
    time_pct: float | None
    paper: PaperRow

    def cells(self) -> list[str]:
        time = f"{self.time_pct:.2f}" if self.time_pct is not None else "-"
        return [
            self.name, self.app, str(self.locs),
            f"{self.base_pct:.2f}", f"{self.t1_pct:.2f}",
            f"{self.t2_pct:.2f}", f"{self.t3_pct:.2f}",
            f"{self.succ_pct:.2f}", time, f"{self.size_pct:.2f}",
        ]


def run_profile(
    profile: BinaryProfile,
    apps: tuple[str, ...] = ("A1", "A2"),
    *,
    measure_time: bool = False,
    toggles: TacticToggles | None = None,
    grouping: bool = True,
    granularity: int = 1,
) -> list[Table1Row]:
    """Measure the Table 1 cells for *profile*, one row per application.

    The applications are batched through :func:`rewrite_many`, so the
    stand-in binary is synthesized and disassembled once per profile.
    """
    loop_iters = TIME_LOOP_ITERS if measure_time else 0
    binary = synthesize(
        SynthesisParams.from_profile(profile, loop_iters=loop_iters)
    )
    # Reserve the *unscaled* image footprint so big binaries (browsers)
    # crowd their rel32 window the way the real ones do.
    image_end = ElfFile(binary.data).image_end
    pressure = int(profile.image_pressure_mb * 1024 * 1024)
    reserve = ((image_end, image_end + pressure),) if pressure else ()
    options = RewriteOptions(
        mode="loader", grouping=grouping, granularity=granularity,
        toggles=toggles or TacticToggles(),
        shared=profile.shared,
        # Shared stand-ins are real ET_DYN objects whose loader stub
        # reopens the library by its install path (no /proc/self/exe).
        library_path=f"/usr/lib/{profile.name}" if profile.shared else None,
        reserve_extra=reserve,
    )
    configs = [
        RewriteConfig(
            matcher="jumps" if app == "A1" else "heap-writes",
            options=options, label=app,
        )
        for app in apps
    ]
    reports = rewrite_many(binary.data, configs)

    orig = run_elf(binary.data) if measure_time else None
    rows: list[Table1Row] = []
    for app, report in zip(apps, reports):
        stats = report.stats
        time_pct: float | None = None
        if measure_time:
            patched = run_elf(report.result.data)
            if patched.observable != orig.observable:
                raise AssertionError(
                    f"behaviour changed for {profile.name}/{app}"
                )
            time_pct = 100.0 * patched.weighted_cost(TRANSFER_WEIGHT) / max(
                1, orig.weighted_cost(TRANSFER_WEIGHT)
            )
        paper = profile.a1 if app == "A1" else profile.a2
        rows.append(Table1Row(
            name=profile.name,
            app=app,
            locs=stats.total,
            base_pct=stats.base_pct,
            t1_pct=stats.t1_pct,
            t2_pct=stats.t2_pct,
            t3_pct=stats.t3_pct,
            succ_pct=stats.success_pct,
            size_pct=report.result.size_pct,
            time_pct=time_pct,
            paper=paper,
        ))
    return rows


def run_row(
    profile: BinaryProfile,
    app: str,
    *,
    measure_time: bool = False,
    toggles: TacticToggles | None = None,
    grouping: bool = True,
    granularity: int = 1,
) -> Table1Row:
    """Measure one Table 1 cell pair for *profile*."""
    return run_profile(
        profile, (app,),
        measure_time=measure_time, toggles=toggles,
        grouping=grouping, granularity=granularity,
    )[0]


def run_table(
    profiles: list[BinaryProfile] | None = None,
    apps: tuple[str, ...] = ("A1", "A2"),
    *,
    time_for_categories: tuple[str, ...] = ("spec",),
) -> list[Table1Row]:
    """Reproduce the full Table 1 (Time% measured for SPEC rows only,
    matching the paper)."""
    profiles = profiles if profiles is not None else ALL_PROFILES
    rows: list[Table1Row] = []
    for profile in profiles:
        rows.extend(
            run_profile(
                profile, apps,
                measure_time=profile.category in time_for_categories,
            )
        )
    return rows


_HEADER = ["binary", "app", "#Loc", "Base%", "T1%", "T2%", "T3%",
           "Succ%", "Time%", "Size%"]


def format_table(rows: list[Table1Row], *, with_paper: bool = True) -> str:
    """Render rows in the paper's column layout, optionally interleaving
    the published values as ``(paper ...)`` reference lines."""
    lines = ["  ".join(f"{h:>10}" for h in _HEADER)]
    for row in rows:
        lines.append("  ".join(f"{c:>10}" for c in row.cells()))
        if with_paper:
            p = row.paper
            ref = [
                "(paper)", row.app, str(p.locs),
                f"{p.base_pct:.2f}", f"{p.t1_pct:.2f}", f"{p.t2_pct:.2f}",
                f"{p.t3_pct:.2f}", f"{p.succ_pct:.2f}",
                f"{p.time_pct:.2f}" if p.time_pct is not None else "-",
                f"{p.size_pct:.2f}",
            ]
            lines.append("  ".join(f"{c:>10}" for c in ref))
    return "\n".join(lines)


def rank_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation — the reproduction's shape-agreement
    metric: do the binaries the paper found hard rank hard here too?"""
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need >= 3 paired samples")

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while (j + 1 < len(order)
                   and values[order[j + 1]] == values[order[i]]):
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n + 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    varx = sum((a - mean) ** 2 for a in rx)
    vary = sum((b - mean) ** 2 for b in ry)
    if varx == 0 or vary == 0:
        return 0.0
    return cov / (varx * vary) ** 0.5


def shape_agreement(rows: list[Table1Row]) -> dict[str, float]:
    """Rank correlations between measured and published per-row values."""
    out = {}
    for attr in ("base_pct", "succ_pct", "size_pct"):
        measured = [getattr(r, attr) for r in rows]
        published = [getattr(r.paper, attr) for r in rows]
        try:
            out[attr] = rank_correlation(measured, published)
        except ValueError:
            pass
    timed = [r for r in rows if r.time_pct is not None
             and r.paper.time_pct is not None]
    if len(timed) >= 3:
        out["time_pct"] = rank_correlation(
            [r.time_pct for r in timed],
            [r.paper.time_pct for r in timed])
    return out


def aggregate(rows: list[Table1Row]) -> dict[str, float]:
    """Location-weighted aggregate percentages (the paper's Total/Avg row)."""
    total = sum(r.locs for r in rows)
    if not total:
        return {}

    def wavg(attr: str) -> float:
        return sum(getattr(r, attr) * r.locs for r in rows) / total

    out = {
        "locs": total,
        "base_pct": wavg("base_pct"),
        "t1_pct": wavg("t1_pct"),
        "t2_pct": wavg("t2_pct"),
        "t3_pct": wavg("t3_pct"),
        "succ_pct": wavg("succ_pct"),
        "size_pct": sum(r.size_pct for r in rows) / len(rows),
    }
    timed = [r for r in rows if r.time_pct is not None]
    if timed:
        out["time_pct"] = sum(r.time_pct for r in timed) / len(timed)
    return out
