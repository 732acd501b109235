"""The daemon end to end: correctness under concurrency, typed
backpressure, per-request errors, and graceful drain."""

from __future__ import annotations

import base64
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.parallel import ExecutorConfig
from repro.core.rewriter import RewriteOptions
from repro.frontend.engine import EngineConfig, RewriteEngine
from repro.frontend.tool import instrument_elf
from repro.service import ServiceClient, ServiceError

from tests.service.conftest import make_binary, running_service


def one_shot(data: bytes) -> bytes:
    return instrument_elf(data, "jumps",
                          options=RewriteOptions(mode="loader")).result.data


class TestRewriteEndpoint:
    def test_roundtrip_byte_identical_to_cli(self, tmp_path):
        data = make_binary(seed=21)
        with running_service(tmp_path) as (_, client):
            body = client.rewrite(data, options={"mode": "loader"})
            assert body["ok"] is True
            assert body["report"]["stats"]["succ_pct"] > 0
            assert base64.b64decode(body["output"]) == one_shot(data)

    def test_report_matches_cli_json_shape(self, tmp_path):
        data = make_binary(seed=22)
        with running_service(tmp_path) as (_, client):
            report = client.rewrite(data, options={"mode": "loader"})["report"]
        for key in ("n_sites", "mode", "stats", "timings", "counters",
                    "input_size", "output_size"):
            assert key in report

    def test_output_omitted_on_request(self, tmp_path):
        data = make_binary(seed=23)
        with running_service(tmp_path) as (_, client):
            body = client.rewrite(data, return_output=False)
            assert "output" not in body

    def test_concurrent_requests_byte_identical(self, tmp_path):
        binaries = {seed: make_binary(seed=seed, sites=15)
                    for seed in (31, 32, 33)}
        expected = {seed: one_shot(d) for seed, d in binaries.items()}
        with running_service(tmp_path, workers=4, queue_depth=32) as (_, client):
            def submit(seed):
                return seed, client.rewrite_bytes(
                    binaries[seed], options={"mode": "loader"})

            with ThreadPoolExecutor(max_workers=12) as pool:
                jobs = [s for s in binaries for _ in range(4)]
                for seed, out in pool.map(submit, jobs):
                    assert out == expected[seed]


class TestErrors:
    def test_invalid_json_is_400(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            status, body, _ = client.request("POST", "/rewrite")
            assert status == 400
            assert body["error"]["type"] == "bad_request"

    def test_missing_binary_is_400(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            status, body, _ = client.request("POST", "/rewrite",
                                             {"matcher": "jumps"})
            assert status == 400
            assert "binary" in body["error"]["message"]

    def test_invalid_base64_is_400(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            status, body, _ = client.request(
                "POST", "/rewrite", {"binary": "!!!not-base64!!!"})
            assert status == 400
            assert body["error"]["type"] == "bad_request"

    def test_not_an_elf_is_422(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            with pytest.raises(ServiceError) as excinfo:
                client.rewrite(b"\x7fNOT-AN-ELF" + b"\x00" * 64)
            assert excinfo.value.status == 422
            assert excinfo.value.kind == "rewrite_failed"

    def test_unknown_option_is_400(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            with pytest.raises(ServiceError) as excinfo:
                client.rewrite(make_binary(seed=2),
                               options={"granularty": 2})
            assert excinfo.value.status == 400

    def test_unknown_route_is_404_and_wrong_method_is_405(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            assert client.request("GET", "/nope")[0] == 404
            assert client.request("GET", "/rewrite")[0] == 405


class TestObservability:
    def test_healthz_and_metrics(self, tmp_path):
        data = make_binary(seed=41)
        with running_service(tmp_path) as (_, client):
            health = client.health()
            assert health["_status"] == 200
            assert health["status"] == "ok"
            assert health["workers"] == 2

            client.rewrite(data, options={"mode": "loader"})
            metrics = client.metrics()
            counters = metrics["service"]["counters"]
            assert counters["ok"] == 1
            assert counters["rewrites_total"] == 1
            assert metrics["service"]["latency"]["count"] == 1
            assert metrics["service"]["latency"]["p95_s"] > 0
            assert metrics["cache"]["stores"] > 0

    def test_cache_disabled_metrics_report_null(self, tmp_path):
        with running_service(tmp_path, cache=False) as (_, client):
            assert client.metrics()["cache"] is None


class TestWorkerPool:
    def test_unset_workers_use_engine_executor_jobs(self, tmp_path):
        engine = RewriteEngine(EngineConfig(executor=ExecutorConfig(jobs=3)))
        with running_service(tmp_path, cache=False, engine=engine,
                             workers=0) as (service, client):
            assert service.pool_size == 3
            assert client.health()["workers"] == 3

    def test_explicit_workers_beat_engine_executor(self, tmp_path):
        engine = RewriteEngine(EngineConfig(executor=ExecutorConfig(jobs=3)))
        with running_service(tmp_path, cache=False, engine=engine,
                             workers=2) as (service, client):
            assert service.pool_size == 2
            assert client.health()["workers"] == 2


class TestBackpressure:
    def test_queue_full_is_typed_429_with_retry_after(self, tmp_path):
        data = make_binary(seed=51, sites=10)
        # One slow worker, queue of one: a burst must overflow.
        with running_service(tmp_path, cache=False, workers=1, queue_depth=1,
                             test_delay_s=0.4) as (_, client):
            outcomes: list[int | bytes] = []
            lock = threading.Lock()

            def submit(_):
                try:
                    out = client.rewrite_bytes(data,
                                               options={"mode": "loader"})
                    with lock:
                        outcomes.append(out)
                except ServiceError as exc:
                    with lock:
                        outcomes.append(exc.status)
                        if exc.status == 429:
                            assert exc.headers.get("retry-after") == "1"
                            assert exc.kind == "overloaded"

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(submit, range(8)))

            rejected = [o for o in outcomes if o == 429]
            succeeded = [o for o in outcomes if isinstance(o, bytes)]
            assert rejected, "burst never hit the bounded queue"
            assert succeeded, "every request was rejected"
            expected = one_shot(data)
            assert all(out == expected for out in succeeded)

    def test_429_retry_eventually_succeeds(self, tmp_path):
        data = make_binary(seed=52, sites=10)
        with running_service(tmp_path, cache=False, workers=1, queue_depth=1,
                             test_delay_s=0.2) as (_, client):
            with ThreadPoolExecutor(max_workers=6) as pool:
                outs = list(pool.map(
                    lambda _: client.rewrite_bytes(
                        data, options={"mode": "loader"}, retries=50),
                    range(6)))
            expected = one_shot(data)
            assert all(out == expected for out in outs)


class TestTimeouts:
    def test_deadline_miss_is_typed_504(self, tmp_path):
        data = make_binary(seed=61, sites=10)
        with running_service(tmp_path, cache=False, workers=1, queue_depth=8,
                             test_delay_s=0.6,
                             request_timeout=0.3) as (_, client):
            with pytest.raises(ServiceError) as excinfo:
                client.rewrite(data, options={"mode": "loader"})
            assert excinfo.value.status == 504
            assert excinfo.value.kind == "timeout"


class TestGracefulDrain:
    def test_sigterm_drains_inflight_requests(self, tmp_path):
        data = make_binary(seed=71, sites=10)
        expected = one_shot(data)
        with running_service(tmp_path, cache=False, workers=2, queue_depth=16,
                             test_delay_s=0.3) as (service, client):
            results: list[bytes] = []
            errors: list[Exception] = []

            def submit():
                try:
                    results.append(client.rewrite_bytes(
                        data, options={"mode": "loader"}))
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for t in threads:
                t.start()
            # Let the requests reach the queue, then pull the plug.
            import time

            time.sleep(0.15)
            service.request_shutdown()
            for t in threads:
                t.join(timeout=30)

            assert not errors
            assert len(results) == 6
            assert all(out == expected for out in results)

    def test_rewrite_during_drain_is_typed_503(self, tmp_path):
        data = make_binary(seed=72, sites=10)
        with running_service(tmp_path, cache=False, workers=1,
                             test_delay_s=0.5) as (service, client):
            # Occupy the worker so drain is still in progress when the
            # follow-up request arrives on an existing connection.
            background = threading.Thread(
                target=lambda: client.rewrite(data,
                                              options={"mode": "loader"}))
            background.start()
            import time

            time.sleep(0.1)
            service.request_shutdown()
            time.sleep(0.1)
            try:
                status, body, _ = client.request(
                    "POST", "/rewrite",
                    {"binary": base64.b64encode(data).decode()})
                assert status == 503
                assert body["error"]["type"] == "draining"
            except (ConnectionError, OSError):
                pass  # listener already closed: also a clean refusal
            background.join(timeout=30)


class TestClient:
    def test_client_requires_endpoint(self):
        with pytest.raises(ValueError):
            ServiceClient()

    def test_tcp_endpoint(self, tmp_path):
        data = make_binary(seed=81, sites=10)
        with running_service(tmp_path, cache=False, socket_path=None,
                             host="127.0.0.1", port=0) as (service, _):
            host, port = service.address
            client = ServiceClient(host=host, port=port)
            assert client.wait_ready(timeout=5)
            out = client.rewrite_bytes(data, options={"mode": "loader"})
            assert out == one_shot(data)
