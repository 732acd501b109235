"""Service configuration: every knob resolved once, before serving.

Like :class:`~repro.core.cache.CacheConfig` and
:class:`~repro.core.parallel.ExecutorConfig`, a :class:`ServiceConfig`
is an immutable snapshot — :meth:`ServiceConfig.from_env` reads the
``REPRO_SERVICE_*`` environment variables exactly once at daemon
startup, and nothing on the request path consults the environment
afterwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from repro.core.cache import CacheConfig

#: Environment overrides, consulted once by :meth:`ServiceConfig.from_env`.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"
HOST_ENV = "REPRO_SERVICE_HOST"
PORT_ENV = "REPRO_SERVICE_PORT"
WORKERS_ENV = "REPRO_SERVICE_WORKERS"
QUEUE_ENV = "REPRO_SERVICE_QUEUE"
TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT"
DRAIN_TIMEOUT_ENV = "REPRO_SERVICE_DRAIN_TIMEOUT"
MAX_BODY_MB_ENV = "REPRO_SERVICE_MAX_BODY_MB"
#: Test hook: per-request artificial delay in milliseconds, applied in
#: the worker before the rewrite.  Lets the CI smoke test hold requests
#: in flight long enough to exercise backpressure and SIGTERM draining
#: deterministically.  Never set it in production.
TEST_DELAY_MS_ENV = "REPRO_SERVICE_TEST_DELAY_MS"

DEFAULT_PORT = 9321
DEFAULT_QUEUE_DEPTH = 64
DEFAULT_REQUEST_TIMEOUT = 120.0
DEFAULT_DRAIN_TIMEOUT = 30.0
DEFAULT_MAX_BODY_BYTES = 256 * 1024 * 1024


def _get(env: Mapping[str, str], name: str, cast, default):
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable daemon configuration.

    ``socket_path`` selects a unix-domain socket; when ``None`` the
    daemon binds TCP ``host:port`` (``port=0`` asks the kernel for a
    free port — the bound address is reported by
    :attr:`~repro.service.server.RewriteService.address`).
    """

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Concurrent rewrite workers.  ``0`` means "use the engine's
    #: ``executor.jobs``" (i.e. ``$REPRO_JOBS`` resolved at startup).
    workers: int = 0
    #: Bounded request queue; a full queue answers 429 + Retry-After.
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    #: Per-request budget covering queue wait + execution (504 after).
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    #: How long SIGTERM waits for queued + in-flight work to finish.
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    frontend: str = "linear"
    cache: CacheConfig | None = None
    #: Test-only artificial per-request delay (seconds); see
    #: :data:`TEST_DELAY_MS_ENV`.
    test_delay_s: float = 0.0

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None,
                 **overrides) -> "ServiceConfig":
        """Resolve defaults from ``REPRO_SERVICE_*`` once; *overrides*
        (constructor fields) win over the environment."""
        env = os.environ if environ is None else environ
        resolved = dict(
            socket_path=env.get(SOCKET_ENV, "").strip() or None,
            host=env.get(HOST_ENV, "").strip() or "127.0.0.1",
            port=_get(env, PORT_ENV, int, DEFAULT_PORT),
            workers=_get(env, WORKERS_ENV, int, 0),
            queue_depth=_get(env, QUEUE_ENV, int, DEFAULT_QUEUE_DEPTH),
            request_timeout=_get(env, TIMEOUT_ENV, float,
                                 DEFAULT_REQUEST_TIMEOUT),
            drain_timeout=_get(env, DRAIN_TIMEOUT_ENV, float,
                               DEFAULT_DRAIN_TIMEOUT),
            max_body_bytes=_get(env, MAX_BODY_MB_ENV, int,
                                DEFAULT_MAX_BODY_BYTES // (1024 * 1024))
            * 1024 * 1024,
            test_delay_s=_get(env, TEST_DELAY_MS_ENV, float, 0.0) / 1e3,
        )
        resolved.update(overrides)
        return cls(**resolved)
