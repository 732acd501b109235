"""Seeded differential-testing campaigns over synthetic workloads.

:func:`run_campaign` sweeps synthesis profiles x patch configurations:
every iteration draws one workload binary (sized for VM speed, but with
the profile's PIE-ness and instruction-length character), rewrites it
under one :class:`PatchConfig`, and judges the result with the
:mod:`repro.check.oracle`.  Everything is derived from one
``random.Random(seed)``, so a campaign is a pure function of
``(seed, count, profiles, configs)`` — the same seed replays the same
binaries in the same order on any machine.

When a binary diverges, the campaign *shrinks* its
:class:`~repro.synth.generator.SynthesisParams` — greedily retrying
smaller site counts, fewer iterations, and shorter filler blocks while
the divergence persists — and dumps a replayable ``.repro.json``
artifact.  :func:`replay_artifact` re-runs such an artifact with nothing
but this module, which is the debugging entry point:

    PYTHONPATH=src python -c "from repro.check import replay_artifact; \
        print(replay_artifact('campaign-1-17.repro.json').to_dict())"

Campaign totals flow through an :class:`~repro.core.observe.Observer`
as ``check.binaries`` / ``check.divergences`` / ``check.shrink_steps``
(plus per-verdict counts), which is how the CLI's ``--check`` mode and
``benchmarks/bench_check.py`` surface them.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.check.oracle import Divergence, EquivalenceReport, RunSummary, check_rewrite
from repro.core.observe import Observer
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.errors import PatchError
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import profile_by_name

#: Artifact schema tag (bump on incompatible changes).
ARTIFACT_SCHEMA = "repro-check-repro/1"

#: Default per-run VM instruction budget: campaign binaries are tiny
#: (tens of sites, one iteration), so this is generous headroom while
#: still converting displacement-bug runaways into quick verdicts.
CAMPAIGN_BUDGET = 400_000

#: Default profile sweep: one row per Table-1 category (non-PIE SPEC,
#: PIE system binary, PIE browser) so campaigns cover both address-space
#: geometries and all three length-mix calibrations, plus the two
#: conformance shared objects (plain and CET) so every sweep also
#: exercises the DT_INIT-hijack loader path and endbr64 protection.
DEFAULT_PROFILES = ("bzip2", "vim", "FireFox", "libsynth.so",
                    "libsynth-cet.so")

#: Install path assumed for conformance shared objects (the loader stub
#: reopens the library here; the VM serves the image at this alias).
SYNTH_LIBRARY_PATH = "/usr/lib/libsynth.so"

#: Site-count range for campaign binaries (kept small: every binary is
#: executed twice on the pure-Python VM, plus again per shrink step).
SITE_RANGE = (8, 36)


@dataclass
class PatchConfig:
    """One point in the patch-configuration sweep."""

    name: str
    matcher: str = "jumps"
    options: RewriteOptions = field(default_factory=RewriteOptions)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "matcher": self.matcher,
            "options": options_to_dict(self.options),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PatchConfig":
        return cls(
            name=d["name"],
            matcher=d.get("matcher", "jumps"),
            options=options_from_dict(d.get("options", {})),
        )


def default_patch_configs() -> list[PatchConfig]:
    """The standard sweep: full tactics, baseline, coarse grouping,
    forced B0 fallback, and ungrouped emission — every tactic and both
    named matchers are exercised."""
    return [
        PatchConfig("full-jumps", "jumps",
                    RewriteOptions(mode="loader")),
        PatchConfig("baseline-jumps", "jumps",
                    RewriteOptions(mode="loader",
                                   toggles=TacticToggles(
                                       t1=False, t2=False, t3=False))),
        PatchConfig("g16-writes", "heap-writes",
                    RewriteOptions(mode="loader", granularity=16)),
        PatchConfig("b0-forced", "jumps",
                    RewriteOptions(mode="loader",
                                   toggles=TacticToggles(
                                       t1=False, t2=False, t3=False,
                                       b0_fallback=True))),
        PatchConfig("nogroup-writes", "heap-writes",
                    RewriteOptions(mode="loader", grouping=False)),
    ]


# -- options serialization (for .repro.json replayability) -------------------


def options_to_dict(options: RewriteOptions) -> dict:
    d = asdict(options)
    d["reserve_extra"] = [list(pair) for pair in options.reserve_extra]
    return d


def options_from_dict(d: dict) -> RewriteOptions:
    d = dict(d)
    # Artifacts written before lint absorbed verify carry its flag.
    d["lint"] = d.get("lint", False) or d.pop("verify", False)
    d["toggles"] = TacticToggles(**d.get("toggles", {}))
    d["reserve_extra"] = tuple(
        tuple(pair) for pair in d.get("reserve_extra", ())
    )
    return RewriteOptions(**d)


# -- campaign configuration and results --------------------------------------


@dataclass
class CampaignConfig:
    """Everything a campaign run depends on (fully serializable)."""

    seed: int = 1
    count: int = 200
    profiles: tuple[str, ...] = DEFAULT_PROFILES
    configs: list[PatchConfig] = field(default_factory=default_patch_configs)
    max_instructions: int = CAMPAIGN_BUDGET
    shrink: bool = True
    max_shrink_steps: int = 48
    artifact_dir: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "profiles": list(self.profiles),
            "configs": [c.to_dict() for c in self.configs],
            "max_instructions": self.max_instructions,
        }


@dataclass
class CampaignFailure:
    """One divergent binary, with its shrunken reproducer."""

    index: int
    profile: str
    config: PatchConfig
    params: SynthesisParams
    report: EquivalenceReport
    shrunk_params: SynthesisParams | None = None
    shrunk_report: EquivalenceReport | None = None
    shrink_steps: int = 0
    artifact_path: str | None = None

    def artifact(self, campaign: CampaignConfig) -> dict:
        """The replayable ``.repro.json`` payload for this failure."""
        final = self.shrunk_report or self.report
        return {
            "schema": ARTIFACT_SCHEMA,
            "campaign": campaign.to_dict(),
            "index": self.index,
            "profile": self.profile,
            "config": self.config.to_dict(),
            "params": self.params.to_dict(),
            "shrunk_params": (self.shrunk_params.to_dict()
                              if self.shrunk_params is not None else None),
            "shrink_steps": self.shrink_steps,
            "report": final.to_dict(),
        }


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    config: CampaignConfig
    binaries: int = 0
    equivalent: int = 0
    unsupported: int = 0
    failures: list[CampaignFailure] = field(default_factory=list)
    shrink_steps: int = 0
    events_compared: int = 0

    @property
    def divergences(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return self.divergences == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "binaries": self.binaries,
            "equivalent": self.equivalent,
            "divergences": self.divergences,
            "unsupported": self.unsupported,
            "shrink_steps": self.shrink_steps,
            "events_compared": self.events_compared,
            "failures": [f.artifact(self.config) for f in self.failures],
        }


# -- single-binary harness ---------------------------------------------------


def run_one(
    params: SynthesisParams,
    config: PatchConfig,
    *,
    max_instructions: int = CAMPAIGN_BUDGET,
) -> EquivalenceReport:
    """Synthesize, rewrite under *config*, and judge with the oracle.

    A :class:`~repro.errors.PatchError` raised by the rewriter itself is
    reported as a divergence of kind ``rewrite_error`` — a binary the
    rewriter rejects outright still fails the campaign, with the same
    shrinking machinery applied.
    """
    binary = synthesize(params)
    # Imported here: repro.frontend.tool imports the pipeline, which must
    # stay importable without this package.
    from repro.frontend.tool import instrument_elf

    options = config.options
    if params.shared and not options.shared:
        options = replace(options, shared=True)
    if options.shared and options.library_path is None:
        options = replace(options, library_path=SYNTH_LIBRARY_PATH)

    try:
        report = instrument_elf(binary.data, config.matcher,
                                options=options)
    except PatchError as exc:
        return EquivalenceReport(
            verdict="divergent",
            original=RunSummary(reason="not-run"),
            rewritten=RunSummary(reason="not-run"),
            divergence=Divergence(kind="rewrite_error", detail=str(exc)),
        )
    self_paths = (options.library_path,) if params.shared else ()
    return check_rewrite(
        binary.data, report.result.data,
        b0_sites=report.result.b0_sites,
        matcher=config.matcher,
        max_instructions=max_instructions,
        # A shared object is entered through its init hook, the way the
        # dynamic linker reaches it (the rewritten hook runs the loader
        # stub first); its stub reopens the library by install path.
        entry_from_init=params.shared,
        self_paths=self_paths,
    )


# -- shrinking ---------------------------------------------------------------


def _shrink_candidates(p: SynthesisParams):
    """Strictly-smaller parameter variants, most aggressive first."""
    if p.n_jump_sites > 0:
        yield replace(p, n_jump_sites=p.n_jump_sites // 2)
        yield replace(p, n_jump_sites=p.n_jump_sites - 1)
    if p.n_write_sites > 0:
        yield replace(p, n_write_sites=p.n_write_sites // 2)
        yield replace(p, n_write_sites=p.n_write_sites - 1)
    if p.loop_iters > 1:
        yield replace(p, loop_iters=1)
    if p.block_len != (1, 2):
        yield replace(p, block_len=(1, 2))
    if p.bss_bytes:
        yield replace(p, bss_bytes=0)


def shrink_params(
    params: SynthesisParams,
    still_failing,
    *,
    max_steps: int = 48,
) -> tuple[SynthesisParams, int]:
    """Greedy delta-debugging over the synthesis parameters.

    *still_failing* is a predicate over candidate params (True while the
    original failure reproduces).  Returns the smallest reproducing
    params found and the number of candidate evaluations spent — each
    evaluation is a full synthesize/rewrite/oracle cycle, so the count
    is the campaign's honest ``check.shrink_steps`` cost.
    """
    current = params
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _shrink_candidates(current):
            if steps >= max_steps:
                break
            steps += 1
            if still_failing(candidate):
                current = candidate
                progress = True
                break
    return current, steps


# -- the campaign loop -------------------------------------------------------


def _draw_params(rng: random.Random, profile_name: str) -> SynthesisParams:
    """One campaign workload: profile character, campaign-sized counts."""
    profile = profile_by_name(profile_name)
    base = SynthesisParams.from_profile(profile)
    return replace(
        base,
        n_jump_sites=rng.randint(*SITE_RANGE),
        n_write_sites=rng.randint(*SITE_RANGE),
        bss_bytes=0,  # VM-speed: no giant zero-fill segments
        seed=rng.randrange(1 << 32),
        loop_iters=1,
    )


def run_campaign(
    config: CampaignConfig | None = None,
    *,
    observer: Observer | None = None,
    progress=None,
) -> CampaignResult:
    """Run a full differential campaign; deterministic in ``config.seed``.

    *observer* (optional) receives the campaign counters
    (``check.binaries``, ``check.divergences``, ``check.shrink_steps``,
    ``check.equivalent``, ``check.unsupported``); *progress* (optional)
    is called with ``(index, total, verdict)`` after every binary.
    """
    config = config or CampaignConfig()
    if not config.profiles or not config.configs:
        raise ValueError("campaign needs at least one profile and one config")
    rng = random.Random(config.seed)
    result = CampaignResult(config=config)
    artifact_dir = (Path(config.artifact_dir)
                    if config.artifact_dir is not None else None)

    for index in range(config.count):
        profile_name = config.profiles[index % len(config.profiles)]
        patch_config = config.configs[index % len(config.configs)]
        params = _draw_params(rng, profile_name)

        report = run_one(params, patch_config,
                         max_instructions=config.max_instructions)
        result.binaries += 1
        result.events_compared += report.events_compared
        if report.verdict == "equivalent":
            result.equivalent += 1
        elif report.verdict == "unsupported":
            result.unsupported += 1
        else:
            failure = CampaignFailure(
                index=index, profile=profile_name, config=patch_config,
                params=params, report=report,
            )
            if config.shrink:
                kind = report.divergence.kind if report.divergence else None

                def still_failing(candidate: SynthesisParams) -> bool:
                    r = run_one(candidate, patch_config,
                                max_instructions=config.max_instructions)
                    return (r.verdict == "divergent"
                            and (r.divergence.kind if r.divergence else None)
                            == kind)

                shrunk, steps = shrink_params(
                    params, still_failing,
                    max_steps=config.max_shrink_steps,
                )
                failure.shrunk_params = shrunk
                failure.shrink_steps = steps
                failure.shrunk_report = run_one(
                    shrunk, patch_config,
                    max_instructions=config.max_instructions,
                )
                result.shrink_steps += steps
            if artifact_dir is not None:
                artifact_dir.mkdir(parents=True, exist_ok=True)
                path = artifact_dir / (
                    f"campaign-{config.seed}-{index}.repro.json"
                )
                path.write_text(
                    json.dumps(failure.artifact(config), indent=2) + "\n"
                )
                failure.artifact_path = str(path)
            result.failures.append(failure)
        if progress is not None:
            progress(index, config.count, report.verdict)

    if observer is not None:
        observer.count("check.binaries", result.binaries)
        observer.count("check.equivalent", result.equivalent)
        observer.count("check.divergences", result.divergences)
        observer.count("check.unsupported", result.unsupported)
        observer.count("check.shrink_steps", result.shrink_steps)
        observer.count("check.events", result.events_compared)
    return result


# -- artifact replay ---------------------------------------------------------


def replay_artifact(
    source: str | Path | dict,
    *,
    use_shrunk: bool = True,
) -> EquivalenceReport:
    """Re-run a ``.repro.json`` failure artifact and return the verdict.

    *source* is a path or an already-loaded artifact dict.  By default
    the shrunken parameters are replayed (that is the minimal
    reproducer); pass ``use_shrunk=False`` for the original draw.
    """
    if isinstance(source, (str, Path)):
        artifact = json.loads(Path(source).read_text())
    else:
        artifact = source
    schema = artifact.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(f"unknown artifact schema {schema!r}")
    params_dict = (artifact.get("shrunk_params") if use_shrunk else None) \
        or artifact["params"]
    params = SynthesisParams.from_dict(params_dict)
    config = PatchConfig.from_dict(artifact["config"])
    budget = artifact.get("campaign", {}).get(
        "max_instructions", CAMPAIGN_BUDGET)
    return run_one(params, config, max_instructions=budget)
