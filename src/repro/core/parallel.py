"""Worker-count configuration for long-lived processes.

Every rewrite runs in-process on one decode path; the only concurrency
knob left is how many requests a long-lived process (the service
daemon) serves at once.  That count resolves, in order, from the
explicit ``jobs`` argument, the ``REPRO_JOBS`` environment variable,
and finally ``1``.  ``jobs <= 0`` means "one per CPU".

All of that resolution happens exactly once, when an
:class:`ExecutorConfig` is constructed — a long-lived service resolves
its configuration at startup and every request reuses it, so changing
``$REPRO_JOBS`` mid-flight cannot change worker behaviour.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: argument > ``$REPRO_JOBS`` > 1 (serial).

    Non-positive values request one worker per CPU; unparsable
    environment values fall back to serial rather than failing a run
    over a typo.  This is a *configuration-time* helper — call it when
    building an :class:`ExecutorConfig`, never on a per-request path.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class ExecutorConfig:
    """Immutable worker-count configuration, resolved once.

    ``jobs`` is always a concrete positive worker count here — the
    ``$REPRO_JOBS`` / "0 = one per CPU" conveniences are applied by
    :meth:`from_env` when the config is built, so a long-lived service
    never consults the environment again.
    """

    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            object.__setattr__(self, "jobs", os.cpu_count() or 1)

    @classmethod
    def from_env(cls, jobs: int | None = None) -> "ExecutorConfig":
        """Resolve configuration: argument > ``$REPRO_JOBS`` > serial."""
        return cls(jobs=resolve_jobs(jobs))
