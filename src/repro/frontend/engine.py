"""A reentrant rewrite engine: resolve configuration once, serve many.

The one-shot CLI builds its configuration from flags and environment
variables every invocation; a long-lived process (the service daemon,
an embedding tool) must not — two requests racing through one process
should share nothing but the artifact store, and nothing on the request
path may consult ``os.environ`` or module globals.

:class:`RewriteEngine` is that contract made explicit:

* an :class:`EngineConfig` freezes the frontend choice, the
  :class:`~repro.core.cache.CacheConfig`, and the
  :class:`~repro.core.parallel.ExecutorConfig` at construction;
* one :class:`~repro.core.cache.ArtifactStore` (concurrency-safe) is
  shared by every request;
* :meth:`RewriteEngine.rewrite` is stateless per request — a fresh
  :class:`~repro.core.observe.Observer`, a fresh
  :class:`~repro.core.pipeline.RewriteContext`, a fresh allocator —
  so N threads rewriting the same or different binaries produce
  byte-identical outputs to N serial one-shot runs.

:func:`options_from_dict` converts the JSON-level options object used
by the service API and the JSON-RPC ``options`` method of
:mod:`repro.frontend.protocol` into a typed
:class:`~repro.core.pipeline.RewriteOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import ArtifactStore, CacheConfig
from repro.core.observe import Observer
from repro.core.parallel import ExecutorConfig
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.frontend.tool import InstrumentReport, instrument_elf

__all__ = ["EngineConfig", "RewriteEngine", "options_from_dict"]

#: JSON option keys accepted by :func:`options_from_dict` (``verify``
#: is a spelling of ``lint``, the one post-emit static check).
_OPTION_KEYS = frozenset({
    "mode", "grouping", "granularity", "shared",
    "library_path", "pack_allocations", "verify", "check",
    "liveness", "lint", "t1", "t2", "t3", "b0",
})


def options_from_dict(params: dict) -> RewriteOptions:
    """Typed :class:`RewriteOptions` from a JSON options object.

    Values are validated, never coerced: boolean keys take JSON
    booleans, ``granularity`` an integer of at least 1 and
    ``library_path`` a string or null.  A bad value or an unknown key
    raises ``ValueError`` naming the key (the service maps that to a
    400) — ``"false"`` must not quietly read as true, nor a typoed
    ``granularty`` rewrite with defaults.
    """
    unknown = set(params) - _OPTION_KEYS
    if unknown:
        raise ValueError(f"unknown option(s): {', '.join(sorted(unknown))}")
    mode = params.get("mode", "auto")
    if mode not in ("auto", "phdr", "loader"):
        raise ValueError(f"invalid mode {mode!r}")

    def flag(key: str, default: bool) -> bool:
        value = params.get(key, default)
        if type(value) is not bool:
            raise ValueError(f"option {key!r} must be a boolean, not {value!r}")
        return value

    granularity = params.get("granularity", 1)
    if type(granularity) is not int or granularity < 1:
        raise ValueError(
            f"option 'granularity' must be an integer >= 1, not {granularity!r}")
    library_path = params.get("library_path")
    if library_path is not None and type(library_path) is not str:
        raise ValueError(
            f"option 'library_path' must be a string or null, not {library_path!r}")
    toggles = TacticToggles(
        t1=flag("t1", True),
        t2=flag("t2", True),
        t3=flag("t3", True),
        b0_fallback=flag("b0", False),
    )
    return RewriteOptions(
        mode=mode,
        grouping=flag("grouping", True),
        granularity=granularity,
        shared=flag("shared", False),
        library_path=library_path,
        pack_allocations=flag("pack_allocations", False),
        check=flag("check", False),
        liveness=flag("liveness", False),
        lint=flag("lint", False) | flag("verify", False),
        toggles=toggles,
    )


@dataclass(frozen=True)
class EngineConfig:
    """Everything a long-lived engine resolves exactly once.

    ``cache=None`` disables the artifact store entirely;
    ``executor`` defaults to a fresh ``$REPRO_JOBS`` resolution *at
    config construction* — the only moment the environment is read.
    Every rewrite runs in the calling thread; ``executor.jobs`` sizes
    the service daemon's worker pool when its ``workers`` is unset.
    """

    frontend: str = "linear"
    cache: CacheConfig | None = None
    executor: ExecutorConfig = field(default_factory=ExecutorConfig.from_env)


class RewriteEngine:
    """Shared-nothing-but-the-store rewrite engine.

    Safe to call from many threads concurrently: the engine owns only
    immutable configuration and the concurrency-safe
    :class:`ArtifactStore`; every mutable pipeline object is created per
    request.
    """

    def __init__(self, config: EngineConfig | None = None, *,
                 store: ArtifactStore | None = None) -> None:
        self.config = config or EngineConfig()
        if store is not None:
            self.store = store
        elif self.config.cache is not None:
            self.store = ArtifactStore(config=self.config.cache)
        else:
            self.store = None

    def rewrite(
        self,
        data: bytes,
        *,
        matcher: str = "jumps",
        instrumentation: str | None = None,
        options: RewriteOptions | None = None,
        frontend: str | None = None,
        observer: Observer | None = None,
    ) -> InstrumentReport:
        """One stateless rewrite request.

        *matcher* is a named matcher or a match expression (compiled per
        request, off the engine's shared state); *observer* defaults to
        a fresh per-request instance so concurrent requests never share
        timing accumulators.
        """
        return instrument_elf(
            bytes(data), matcher, instrumentation, options,
            frontend=frontend or self.config.frontend,
            observer=observer or Observer(),
            cache=self.store,
        )
