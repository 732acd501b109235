"""Shared helpers for the service suite: tiny binaries and an
in-process daemon running on a background thread."""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro.core.cache import CacheConfig
from repro.service import RewriteService, ServiceClient, ServiceConfig
from repro.synth.generator import SynthesisParams, synthesize


def make_binary(seed: int = 1, sites: int = 25) -> bytes:
    """A small, fast-to-rewrite synthetic ELF."""
    return synthesize(SynthesisParams(
        n_jump_sites=sites, n_write_sites=sites // 2, seed=seed)).data


@contextmanager
def running_service(tmp_path, *, cache: bool = True, engine=None,
                    **config_overrides):
    """Boot a daemon on a unix socket in *tmp_path* (over *engine*, if
    given); yield (service, client); always drain and join on exit."""
    overrides = dict(
        socket_path=str(tmp_path / "svc.sock"),
        workers=2,
        queue_depth=8,
        request_timeout=30.0,
        drain_timeout=10.0,
    )
    overrides.update(config_overrides)
    if cache and "cache" not in overrides:
        overrides["cache"] = CacheConfig.from_env(tmp_path / "store")
    service = RewriteService(ServiceConfig.from_env(environ={}, **overrides),
                             engine=engine)
    thread = threading.Thread(target=lambda: asyncio.run(service.run()),
                              daemon=True)
    thread.start()
    if not service.ready.wait(timeout=15):
        raise RuntimeError("service did not become ready")
    if overrides["socket_path"] is not None:
        client = ServiceClient(socket_path=overrides["socket_path"],
                               timeout=60.0)
    else:
        host, port = service.address
        client = ServiceClient(host=host, port=port, timeout=60.0)
    try:
        yield service, client
    finally:
        service.request_shutdown()
        thread.join(timeout=15)
        if thread.is_alive():  # pragma: no cover - hang diagnostics
            pytest.fail("service thread failed to drain and exit")
