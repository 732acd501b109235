"""Core binary-rewriting engine: tactics, strategy, allocation, grouping.

This is the reproduction of the paper's primary contribution.  The public
entry point is :class:`repro.core.pipeline.RewriteContext`, whose
:meth:`~repro.core.pipeline.RewriteContext.rewrite` runs the staged pass
pipeline of :mod:`repro.core.pipeline`; the individual pieces (pun math,
tactics B1/B2/T1/T2/T3, reverse-order strategy S1, physical page
grouping) live in their own modules and are unit-testable in isolation.
:mod:`repro.core.observe` provides per-pass wall-time, counters, and
trace hooks.
"""

from repro.core.observe import Observer, TraceHook
from repro.core.pipeline import (
    DecodePass,
    EmitPass,
    GroupPass,
    MatchPass,
    PipelinePass,
    PlanPass,
    RewriteContext,
    RewriteOptions,
    RewriteResult,
)
from repro.core.stats import PatchStats
from repro.core.tactics import Tactic

__all__ = [
    "RewriteContext",
    "RewriteOptions",
    "RewriteResult",
    "Tactic",
    "PatchStats",
    "Observer",
    "TraceHook",
    "PipelinePass",
    "DecodePass",
    "MatchPass",
    "PlanPass",
    "GroupPass",
    "EmitPass",
]
