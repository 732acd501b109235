"""Semantic-equivalence checking: the standing behavioural oracle.

The static linter (:mod:`repro.analysis.lint`) only proves the
rewriter produced well-formed bytes; the broad rewriter surveys show
that real rewriters fail on *behaviour*, not on byte shape.  This
subpackage wires the two halves the repo already owns — the
:mod:`repro.vm` interpreter and the :mod:`repro.synth` generator — into
a first-class differential-testing subsystem:

* :mod:`repro.check.oracle` — run original and rewritten ELF images on
  :class:`~repro.vm.machine.Machine` under identical trap handlers and
  compare observables (exit status, output bytes, and the ordered
  trap/patch-site event sequence), with first-divergence diagnostics;
* :mod:`repro.check.campaign` — a seeded, deterministic campaign runner
  sweeping synthesis profiles x patch configurations, with parameter
  shrinking and replayable ``.repro.json`` failure artifacts.

The pipeline's opt-in :class:`~repro.core.pipeline.EquivalencePass`
(``RewriteOptions(check=True)``) and the CLI's ``--check`` /
``--check-seed`` modes are thin wrappers over these two modules.
"""

from repro.check.oracle import (
    Divergence,
    EquivalenceReport,
    RunSummary,
    check_equivalence,
    check_rewrite,
    sites_and_traps,
)
from repro.check.campaign import (
    CampaignConfig,
    CampaignFailure,
    CampaignResult,
    PatchConfig,
    default_patch_configs,
    replay_artifact,
    run_campaign,
    shrink_params,
)

__all__ = [
    "Divergence",
    "EquivalenceReport",
    "RunSummary",
    "check_equivalence",
    "check_rewrite",
    "sites_and_traps",
    "CampaignConfig",
    "CampaignFailure",
    "CampaignResult",
    "PatchConfig",
    "default_patch_configs",
    "replay_artifact",
    "run_campaign",
    "shrink_params",
]
