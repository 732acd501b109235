"""Static analyses over decoded instruction streams.

Three layers, each feeding the next:

* :mod:`repro.analysis.facts` — a semantic-fact engine: the effect
  templates of the opcode rows (:mod:`repro.x86.tables`), in dense
  per-map lists, resolving every decoded instruction to the registers
  it reads/writes/kills, the flags it uses/defines, and its
  memory-access class, with an explicit ``known`` bit so every
  consumer can stay conservative on gaps;
* :mod:`repro.analysis.liveness` — conservative backward liveness over
  the fact stream (any unknown control flow = everything live), whose
  dead-register/dead-flag answers let trampoline bodies shrink their
  save/restore sets (``RewriteOptions(liveness=True)``);
* :mod:`repro.analysis.lint` — a rewrite-plan linter that statically
  re-derives the invariants of an emitted rewrite (``repro lint``,
  :class:`~repro.analysis.lint.LintPass`).

See ``docs/ANALYSIS.md``.
"""

from repro.analysis.facts import InsnFacts, facts_for, is_endbr64
from repro.analysis.liveness import LivenessAnalysis, SiteLiveness

__all__ = [
    "InsnFacts",
    "facts_for",
    "is_endbr64",
    "LivenessAnalysis",
    "SiteLiveness",
    "Finding",
    "LintPass",
    "LintReport",
    "lint_context",
]

_LINT_EXPORTS = ("Finding", "LintPass", "LintReport", "lint_context")


def __getattr__(name: str):
    # The lint layer imports repro.core (which imports the fact engine);
    # loading it lazily keeps ``repro.core.trampoline -> repro.analysis``
    # acyclic while preserving ``from repro.analysis import LintPass``.
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
