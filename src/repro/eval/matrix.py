"""Cross-configuration evaluation matrix (the standing Table-1-style sweep).

The paper's evaluation is a *matrix* — binaries x patch configurations —
but the bench scripts answer only "did this PR regress one baseline".
This module generalizes them into a declarative evaluation matrix in the
spirit of "A Broad Comparative Evaluation of x86-64 Binary Rewriters"
(PAPERS.md): every **cell** is one synthesis profile x one patch
configuration x one rewriter-option combo (serial / artifact cache /
``--check``), run through the production
:class:`~repro.frontend.engine.RewriteEngine` path, and measured along
the axes the comparative-evaluation literature cares about:

* **patch success rate** (``succ_pct``) and **B0 fraction** (``b0_pct``);
* **rewrite throughput** (``decode_mb_s``, ``plan_sites_s``, ``rewrite_s``);
* **dynamic-instruction overhead** (``vm_overhead_ratio``): the
  rewritten binary's VM instruction count over the original's, judged
  on a small fixed-seed draw by the :mod:`repro.check` oracle;
* **output size** (``size_pct``).

Results are emitted as versioned ``repro-matrix/1`` JSON keyed by cell
id (``profile/patch-config/combo``); :mod:`repro.eval.trend` diffs a run
against the committed per-cell baseline (``benchmarks/BENCH_matrix.json``)
and classifies each cell as improved / stable / regressed / weak.
``benchmarks/bench_matrix.py`` and ``repro matrix`` are the entry
points; ``docs/EVAL.md`` documents the schema and how to add a cell.
"""

from __future__ import annotations

import os
import platform
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.cache import CacheConfig
from repro.core.observe import Observer
from repro.core.rewriter import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.errors import PatchError
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import profile_by_name

#: Result schema tag (bump on incompatible changes).
SCHEMA = "repro-matrix/1"

#: Site-count cap for workload binaries so a full matrix stays CI-sized
#: (the cap only binds for the largest profiles; coverage percentages
#: are scale-free, see repro.synth.profiles).
MAX_WORKLOAD_SITES = 1200

#: Site-count floor: rates measured over a handful of milliseconds are
#: dominated by scheduler noise on shared CI runners, so every workload
#: is generated with at least this much decode/plan work even when the
#: profile's scaled site count is tiny.
MIN_WORKLOAD_SITES = 400

#: Oracle-draw sizing: every cell's overhead ratio is judged on a small
#: fixed-seed binary (two full VM executions per cell).
ORACLE_JUMP_SITES = 24
ORACLE_WRITE_SITES = 12

#: VM instruction budget for the oracle draw (mirrors repro.check).
ORACLE_BUDGET = 400_000


@dataclass(frozen=True)
class PatchConfigSpec:
    """One point on the patch-configuration axis."""

    name: str
    matcher: str = "jumps"
    options: RewriteOptions = field(default_factory=lambda: RewriteOptions(mode="loader"))
    #: Named instrumentation body ("counter") or None for empty
    #: trampolines; the ``*-slim`` configs pair a real body with
    #: liveness-driven save/restore elision so ``vm_overhead_ratio``
    #: exposes the slimming win.
    instrumentation: str | None = None


@dataclass(frozen=True)
class OptionCombo:
    """One point on the rewriter-option axis.

    ``cache`` runs cold then warm through a fresh
    :class:`~repro.core.cache.ArtifactStore`; ``check`` enables the
    in-pipeline :class:`EquivalencePass` (``--check``).
    """

    name: str
    cache: bool = False
    check: bool = False


#: Patch-configuration axis (mirrors the check campaign's sweep).
PATCH_CONFIGS: dict[str, PatchConfigSpec] = {
    spec.name: spec
    for spec in (
        PatchConfigSpec("full-jumps", "jumps", RewriteOptions(mode="loader")),
        PatchConfigSpec(
            "baseline-jumps",
            "jumps",
            RewriteOptions(mode="loader", toggles=TacticToggles(t1=False, t2=False, t3=False)),
        ),
        PatchConfigSpec("g16-writes", "heap-writes", RewriteOptions(mode="loader", granularity=16)),
        PatchConfigSpec(
            "counter-jumps",
            "jumps",
            RewriteOptions(mode="loader"),
            instrumentation="counter",
        ),
        PatchConfigSpec(
            "counter-jumps-slim",
            "jumps",
            RewriteOptions(mode="loader", liveness=True),
            instrumentation="counter",
        ),
    )
}

#: Rewriter-option axis.
OPTION_COMBOS: dict[str, OptionCombo] = {
    combo.name: combo
    for combo in (
        OptionCombo("serial"),
        OptionCombo("cached", cache=True),
        OptionCombo("checked", check=True),
        OptionCombo("checked-cached", check=True, cache=True),
    )
}

#: Synthesis-profile axis: one row per Table-1 category in the PR suite
#: (non-PIE SPEC, PIE system, PIE browser) plus the CET conformance
#: shared object (ET_DYN, DT_INIT-hijack loader, endbr64 landing pads),
#: widened in the full suite.
PR_PROFILES: tuple[str, ...] = ("bzip2", "vim", "FireFox", "libsynth-cet.so")
FULL_PROFILES: tuple[str, ...] = (
    "bzip2", "gcc", "vim", "xterm", "FireFox", "libsynth.so",
    "libsynth-cet.so",
)

#: dlopen-style load base used when judging shared-object cells: a
#: mmap-region address far from the link-time image, so displacement
#: bugs that cancel out at base 0 cannot hide.
SO_ORACLE_BASE = 0x7F12_3456_0000

PR_PATCH_CONFIGS: tuple[str, ...] = ("full-jumps",)
FULL_PATCH_CONFIGS: tuple[str, ...] = (
    "full-jumps",
    "baseline-jumps",
    "g16-writes",
    "counter-jumps",
    "counter-jumps-slim",
)

PR_COMBOS: tuple[str, ...] = ("serial", "cached", "checked")
FULL_COMBOS: tuple[str, ...] = (
    "serial",
    "cached",
    "checked",
    "checked-cached",
)


@dataclass(frozen=True)
class MatrixCell:
    """One evaluation-matrix cell: profile x patch config x option combo."""

    profile: str
    patch_config: str
    combo: str

    @property
    def cell_id(self) -> str:
        return f"{self.profile}/{self.patch_config}/{self.combo}"

    @property
    def spec(self) -> PatchConfigSpec:
        return PATCH_CONFIGS[self.patch_config]

    @property
    def options(self) -> OptionCombo:
        return OPTION_COMBOS[self.combo]


#: The PR suite carries the counter configs as serial-only extra cells
#: (the unslim/slim pair per profile is what the trend gate watches for
#: the liveness win); the full suite sweeps them across every combo.
PR_EXTRA_CONFIGS: tuple[str, ...] = ("counter-jumps", "counter-jumps-slim")


def cells_for(suite: str) -> list[MatrixCell]:
    """The declarative cell list for a named suite (``pr`` or ``full``)."""
    if suite == "pr":
        axes = (PR_PROFILES, PR_PATCH_CONFIGS, PR_COMBOS)
        extra = [
            MatrixCell(p, c, "serial")
            for p in PR_PROFILES
            for c in PR_EXTRA_CONFIGS
        ]
    elif suite == "full":
        axes = (FULL_PROFILES, FULL_PATCH_CONFIGS, FULL_COMBOS)
        extra = []
    else:
        raise ValueError(f"unknown suite {suite!r} (expected 'pr' or 'full')")
    profiles, configs, combos = axes
    return [
        MatrixCell(p, c, o)
        for p in profiles
        for c in configs
        for o in combos
    ] + extra


def parse_cells(spec: str) -> list[MatrixCell]:
    """``--cells`` parser: a suite name or comma-separated cell ids."""
    spec = spec.strip()
    if spec in ("pr", "full"):
        return cells_for(spec)
    cells = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("/")
        if len(parts) != 3:
            raise ValueError(f"bad cell id {item!r} (expected profile/patch-config/combo)")
        profile, config, combo = parts
        profile_by_name(profile)  # raises KeyError on unknown profiles
        if config not in PATCH_CONFIGS:
            raise ValueError(f"unknown patch config {config!r} in cell {item!r}")
        if combo not in OPTION_COMBOS:
            raise ValueError(f"unknown option combo {combo!r} in cell {item!r}")
        cells.append(MatrixCell(profile, config, combo))
    if not cells:
        raise ValueError(f"no cells in spec {spec!r}")
    return cells


@dataclass
class CellResult:
    """Measured outcome of one cell run."""

    cell: MatrixCell
    metrics: dict[str, float | int] = field(default_factory=dict)
    #: Non-numeric cell metadata (ELF type, CET), kept out of ``metrics``
    #: so the trend gate's numeric comparisons never see strings.
    meta: dict = field(default_factory=dict)
    verdict: str = "ok"  # "ok" | "divergent" | "unsupported" | "error"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("ok", "unsupported")

    def to_dict(self) -> dict:
        return {
            "profile": self.cell.profile,
            "patch_config": self.cell.patch_config,
            "combo": self.cell.combo,
            "verdict": self.verdict,
            "error": self.error,
            "meta": dict(self.meta),
            "metrics": {
                k: round(v, 6) if isinstance(v, float) else v
                for k, v in sorted(self.metrics.items())
            },
        }


def workload_params(profile_name: str, *, max_sites: int = MAX_WORKLOAD_SITES) -> SynthesisParams:
    """Throughput-workload synthesis parameters for one profile.

    Profile-derived (PIE-ness, length mixes, seed) but capped so a full
    matrix stays CI-sized, and without the multi-hundred-MB ``bss``
    segments some SPEC rows carry.
    """
    base = SynthesisParams.from_profile(profile_by_name(profile_name))
    return replace(
        base,
        n_jump_sites=max(MIN_WORKLOAD_SITES, min(base.n_jump_sites, max_sites)),
        n_write_sites=max(MIN_WORKLOAD_SITES // 2, min(base.n_write_sites, max_sites // 2)),
        bss_bytes=0,
    )


def oracle_params(profile_name: str) -> SynthesisParams:
    """Overhead-oracle synthesis parameters: small enough to execute
    twice on the pure-Python VM, with the profile's character kept."""
    base = SynthesisParams.from_profile(profile_by_name(profile_name))
    return replace(
        base,
        n_jump_sites=ORACLE_JUMP_SITES,
        n_write_sites=ORACLE_WRITE_SITES,
        bss_bytes=0,
        loop_iters=1,
        seed=base.seed ^ 0x5EED,
    )


def _profile_options(profile_name: str, options: RewriteOptions) -> RewriteOptions:
    """Adapt a patch config's options to the profile's binary kind.

    Shared-object profiles synthesize real ET_DYN images: the rewrite
    needs ``shared`` mode and a library install path for the loader stub
    to reopen (``/proc/self/exe`` names the host executable, not the
    library).
    """
    profile = profile_by_name(profile_name)
    if profile.shared and not options.shared:
        options = replace(options, shared=True)
    if options.shared and options.library_path is None:
        options = replace(options, library_path=f"/usr/lib/{profile.name}")
    return options


def _measure_oracle(cell: MatrixCell, metrics: dict) -> str:
    """Dynamic-overhead measurement: rewrite the small oracle draw under
    the cell's patch config and judge it with the differential oracle.

    Returns the oracle verdict; ``vm_overhead_ratio`` is recorded only
    for an ``equivalent`` verdict (a divergent or unsupported run has no
    meaningful ratio).
    """
    from repro.check.oracle import check_rewrite
    from repro.frontend.tool import instrument_elf

    spec = cell.spec
    options = _profile_options(cell.profile, spec.options)
    shared = options.shared and profile_by_name(cell.profile).shared
    binary = synthesize(oracle_params(cell.profile))
    report = instrument_elf(
        binary.data,
        spec.matcher,
        instrumentation=spec.instrumentation,
        options=options,
    )
    oracle = check_rewrite(
        binary.data,
        report.result.data,
        b0_sites=report.result.b0_sites,
        matcher=spec.matcher,
        max_instructions=ORACLE_BUDGET,
        # Shared-object cells are judged dlopen-style: entered through
        # their init hook at a nonzero load base.
        load_base=SO_ORACLE_BASE if shared else 0,
        entry_from_init=shared,
        self_paths=(options.library_path,) if shared else (),
    )
    metrics["oracle_events"] = oracle.events_compared
    if oracle.verdict == "equivalent" and oracle.original.instructions > 0:
        metrics["vm_overhead_ratio"] = round(
            oracle.rewritten.instructions / oracle.original.instructions, 4
        )
    return oracle.verdict


def _measure_workload(
    cell: MatrixCell,
    *,
    max_sites: int,
    meta: dict | None = None,
) -> dict[str, float | int]:
    """One timed workload measurement for *cell* (see :func:`run_cell`).

    The workload rewrite always goes through the production
    :class:`RewriteEngine`; ``cached`` combos run cold-then-warm
    through a throwaway :class:`~repro.core.cache.ArtifactStore`.
    Raises :class:`PatchError` when the rewrite itself fails.
    """
    from repro.frontend.engine import EngineConfig, RewriteEngine

    spec = cell.spec
    combo = cell.options
    metrics: dict[str, float | int] = {}
    # Every workload rewrite runs under the static linter: lint_errors is
    # a correctness metric (expected 0 — a LintError fails the cell).
    options = replace(_profile_options(cell.profile, spec.options),
                      check=combo.check, lint=True)
    binary = synthesize(workload_params(cell.profile, max_sites=max_sites))
    metrics["input_bytes"] = len(binary.data)
    if meta is not None:
        from repro.elf.reader import ElfFile

        elf = ElfFile(binary.data)
        meta["elf_type"] = elf.elf_type
        meta["cet"] = elf.is_cet_enabled()
        meta["cet_note"] = elf.has_ibt_note

    with tempfile.TemporaryDirectory(prefix="repro-matrix-") as tmp:
        cache_config = CacheConfig(root=Path(tmp)) if combo.cache else None
        engine = RewriteEngine(EngineConfig(cache=cache_config))
        observer = Observer()
        t0 = time.perf_counter()
        report = engine.rewrite(
            binary.data,
            matcher=spec.matcher,
            instrumentation=spec.instrumentation,
            options=options,
            observer=observer,
        )
        metrics["rewrite_s"] = time.perf_counter() - t0

        if combo.cache:
            warm_observer = Observer()
            t0 = time.perf_counter()
            engine.rewrite(
                binary.data,
                matcher=spec.matcher,
                options=options,
                observer=warm_observer,
            )
            warm_s = time.perf_counter() - t0
            metrics["warm_s"] = warm_s
            if warm_s > 0:
                metrics["warm_speedup"] = round(metrics["rewrite_s"] / warm_s, 3)
            metrics["cache_hits"] = engine.store.stats.hits

    stats = report.stats
    metrics["sites"] = report.n_sites
    metrics["succ_pct"] = round(stats.success_pct, 3)
    metrics["b0_pct"] = round(stats.b0_pct, 3)
    metrics["size_pct"] = round(report.result.size_pct, 3)
    metrics["trampoline_bytes"] = sum(
        len(t.code) for t in report.result.trampolines
    )
    metrics["lint_errors"] = observer.counters.get("lint.errors", 0)
    throughput = observer.throughput()
    for name in ("decode_mb_s", "plan_sites_s",
                 "trampoline_saved_bytes", "trampoline_saved_regs"):
        if name in throughput:
            metrics[name] = throughput[name]
    if combo.check and report.result.equivalence is not None:
        metrics["check_equivalent"] = int(report.result.equivalence.equivalent)
        metrics["check_events"] = report.result.equivalence.events_compared
    return metrics


#: Best-of-N aggregation directions for the timed workload metrics: a
#: single scheduler blip on a shared CI runner can move a millisecond-
#: scale measurement by far more than the gate threshold, so each cell
#: takes the best of ``repeats`` measurements (deterministic metrics are
#: identical across repeats and kept from the first).
_BEST_MIN_SUFFIXES = ("_s",)
_BEST_MAX_SUFFIXES = ("_mb_s", "_sites_s", "speedup")


def _merge_best(best: dict, new: dict) -> dict:
    merged = dict(best)
    for name, value in new.items():
        if name not in merged:
            merged[name] = value
        elif name.endswith(_BEST_MAX_SUFFIXES):
            merged[name] = max(merged[name], value)
        elif name.endswith(_BEST_MIN_SUFFIXES):
            merged[name] = min(merged[name], value)
    return merged


def run_cell(
    cell: MatrixCell,
    *,
    max_sites: int = MAX_WORKLOAD_SITES,
    oracle: bool = True,
    repeats: int = 3,
) -> CellResult:
    """Run one cell end to end and return its measured metrics.

    The timed workload measurement runs ``repeats`` times and keeps the
    best value per timing/rate metric (see :data:`_BEST_MAX_SUFFIXES`);
    the VM overhead oracle is deterministic and runs once.
    """
    result = CellResult(cell=cell)
    try:
        for _ in range(max(1, repeats)):
            measured = _measure_workload(cell, max_sites=max_sites, meta=result.meta)
            result.metrics = _merge_best(result.metrics, measured)
    except PatchError as exc:
        result.verdict = "error"
        result.error = str(exc)
        return result

    if oracle:
        verdict = _measure_oracle(cell, result.metrics)
        if verdict == "divergent":
            result.verdict = "divergent"
            result.error = "oracle judged the rewritten oracle draw divergent"
        elif verdict == "unsupported":
            result.verdict = "unsupported"
    return result


def _warmup() -> None:
    """One untimed throwaway rewrite before the first cell.

    The first rewrite in a process pays import, table-construction and
    allocator warmup costs; without this the matrix's first cell reports
    systematically lower throughput than the same cell anywhere else in
    the run (and than the committed baseline).
    """
    from repro.frontend.tool import instrument_elf

    binary = synthesize(SynthesisParams(n_jump_sites=16, n_write_sites=8, seed=1))
    instrument_elf(binary.data, "jumps", options=RewriteOptions(mode="loader"))


def run_matrix(
    cells: list[MatrixCell],
    *,
    suite: str = "custom",
    max_sites: int = MAX_WORKLOAD_SITES,
    oracle: bool = True,
    repeats: int = 3,
    progress=None,
) -> dict:
    """Run every cell and assemble the versioned ``repro-matrix/1`` payload.

    *progress* (optional) is called with ``(index, total, result)`` after
    each cell — the bench driver uses it for per-cell console lines.
    """
    _warmup()
    results: dict[str, CellResult] = {}
    for index, cell in enumerate(cells):
        result = run_cell(cell, max_sites=max_sites, oracle=oracle, repeats=repeats)
        results[cell.cell_id] = result
        if progress is not None:
            progress(index, len(cells), result)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "cells": {cell_id: r.to_dict() for cell_id, r in results.items()},
    }


def inject_slowdown(payload: dict, factor: float) -> dict:
    """Scale time-like metrics by *factor* (``$BENCH_INJECT_SLOWDOWN``).

    The documented way to prove the trend gate can fail: wall times grow,
    throughput rates fall, everything else is untouched.
    """
    if factor == 1.0:
        return payload

    def scale(name: str, value):
        if not isinstance(value, (int, float)):
            return value
        if name.endswith(("_mb_s", "_sites_s")):
            return value / factor
        if name.endswith("_s"):
            return value * factor
        return value

    out = dict(payload)
    out["cells"] = {
        cell_id: {
            **cell,
            "metrics": {k: scale(k, v) for k, v in cell.get("metrics", {}).items()},
        }
        for cell_id, cell in payload.get("cells", {}).items()
    }
    return out
