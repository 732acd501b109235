"""The rewrite daemon: asyncio HTTP front end over the reentrant engine.

Architecture (one process, one event loop):

* **connections** — ``asyncio.start_unix_server`` / ``start_server``
  accepts clients speaking plain HTTP/1.1 (one request per connection,
  ``Connection: close``); no third-party HTTP stack is involved, the
  parser below handles the request line, headers, and a
  ``Content-Length`` body;
* **bounded queue** — an accepted ``POST /rewrite`` is validated and
  enqueued; a full queue is answered *immediately* with a typed
  ``429 {"error": {"type": "overloaded"}}`` plus ``Retry-After`` —
  backpressure is an API response, never a crash or an unbounded
  buffer;
* **worker pool** — N loop tasks pull jobs and run the CPU-bound
  rewrite in a thread pool via ``run_in_executor``; the engine
  (:class:`~repro.frontend.engine.RewriteEngine`) is shared and
  reentrant, so workers share only the artifact store;
* **deadlines** — each request carries ``enqueue time +
  request_timeout``; a job that exceeds its budget (queue wait
  included) answers ``504 {"error": {"type": "timeout"}}``;
* **graceful drain** — SIGTERM/SIGINT stop the listener, flip
  ``/healthz`` to ``draining`` (new rewrites get 503), wait up to
  ``drain_timeout`` for queued + in-flight requests to finish *and*
  their responses to be written, then exit.

Responses are JSON throughout; the rewrite payload mirrors the CLI's
``--json`` output (see ``docs/SERVICE.md`` for the schema).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.cache import ArtifactStore
from repro.errors import ReproError
from repro.frontend.engine import EngineConfig, RewriteEngine, options_from_dict
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Instrumentation specs accepted over the wire (callables are not).
_INSTRUMENTATIONS = (None, "empty", "counter")


class _BadRequest(Exception):
    """Malformed HTTP or request payload (mapped to 400/413)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Job:
    """One queued rewrite: payload in, (status, body) out via future."""

    payload: dict
    future: asyncio.Future
    deadline: float


def _error_body(kind: str, message: str, **extra) -> dict:
    return {"ok": False, "error": {"type": kind, "message": message, **extra}}


class RewriteService:
    """A single daemon process serving many concurrent rewrites."""

    def __init__(self, config: ServiceConfig | None = None,
                 engine: RewriteEngine | None = None) -> None:
        self.config = config or ServiceConfig.from_env()
        self.engine = engine or RewriteEngine(EngineConfig(
            frontend=self.config.frontend,
            cache=self.config.cache,
        ))
        #: The configured worker count, else the engine's
        #: ``executor.jobs`` (``$REPRO_JOBS`` resolved at startup).
        self.pool_size = (self.config.workers if self.config.workers > 0
                          else max(1, self.engine.config.executor.jobs))
        self.metrics = ServiceMetrics()
        self.address: str | tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Job] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._stop: asyncio.Event | None = None
        self._draining = False
        self._inflight = 0
        self._conns: set[asyncio.Task] = set()
        self._workers: list[asyncio.Task] = []
        #: Set (thread-safely) once the listener is bound — test/bench
        #: harnesses running the daemon on a thread wait on it.
        import threading

        self.ready = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe from any thread or signal."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._begin_shutdown)

    def _begin_shutdown(self) -> None:
        if self._stop is not None and not self._stop.is_set():
            self._log("shutdown requested: draining")
            self._draining = True
            self._stop.set()

    async def run(self) -> None:
        """Serve until shutdown is requested, then drain and return."""
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=cfg.queue_depth)
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_size,
            thread_name_prefix="rewrite-worker",
        )
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self._begin_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread (tests) or unsupported platform

        if cfg.socket_path:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=cfg.socket_path)
            self.address = cfg.socket_path
        else:
            server = await asyncio.start_server(
                self._handle_connection, cfg.host, cfg.port)
            sockname = server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        self._workers = [
            self._loop.create_task(self._worker())
            for _ in range(self.pool_size)
        ]
        self._log(f"listening on {self.address} "
                  f"(workers={self.pool_size}, "
                  f"queue={cfg.queue_depth})")
        self.ready.set()

        try:
            await self._stop.wait()
            await self._drain(server)
        finally:
            self.ready.clear()
            for task in self._workers:
                task.cancel()
            await asyncio.gather(*self._workers, return_exceptions=True)
            self._pool.shutdown(wait=False, cancel_futures=True)
            server.close()
            self._log("stopped")

    async def _drain(self, server: asyncio.AbstractServer) -> None:
        """Stop accepting, then finish queued + in-flight work."""
        cfg = self.config
        server.close()  # no new connections; accepted ones keep running
        deadline = time.monotonic() + cfg.drain_timeout
        try:
            await asyncio.wait_for(self._queue.join(),
                                   timeout=cfg.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._log(f"drain timeout: {self._queue.qsize()} request(s) "
                      "abandoned")
        # Queue processed — now let the connection handlers flush their
        # responses before tearing the loop down.
        pending = [t for t in self._conns if not t.done()]
        if pending:
            remaining = max(0.5, deadline - time.monotonic())
            await asyncio.wait(pending, timeout=remaining)
        self._log(f"drained ({self.metrics.counters['ok']} ok, "
                  f"{self.metrics.counters['rejected']} rejected)")

    def _log(self, message: str) -> None:
        print(f"[repro-serve] {message}", file=sys.stderr, flush=True)

    # -- worker pool ------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            except Exception as exc:  # never kill the worker loop
                if not job.future.done():
                    job.future.set_result((500, _error_body(
                        "internal", f"worker failure: {exc!r}")))
            finally:
                self._queue.task_done()

    async def _run_job(self, job: _Job) -> None:
        remaining = job.deadline - time.monotonic()
        if remaining <= 0:
            self.metrics.count("timeouts")
            job.future.set_result((504, _error_body(
                "timeout", "request timed out while queued")))
            return
        self._inflight += 1
        try:
            status, body = await asyncio.wait_for(
                self._loop.run_in_executor(self._pool, self._execute,
                                           job.payload),
                timeout=remaining,
            )
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.count("timeouts")
            status, body = 504, _error_body(
                "timeout",
                f"rewrite exceeded {self.config.request_timeout:.0f}s budget")
        finally:
            self._inflight -= 1
        if not job.future.done():
            job.future.set_result((status, body))

    def _execute(self, payload: dict) -> tuple[int, dict]:
        """Worker-thread body: decode the payload, run one rewrite.

        Domain failures come back as typed JSON errors, never
        exceptions — the HTTP status is decided here, next to the cause.
        """
        if self.config.test_delay_s > 0:
            time.sleep(self.config.test_delay_s)
        try:
            data = base64.b64decode(payload["binary"], validate=True)
        except (binascii.Error, ValueError) as exc:
            self.metrics.count("bad_requests")
            return 400, _error_body("bad_request", f"invalid base64: {exc}")
        try:
            options = options_from_dict(payload.get("options") or {})
        except (TypeError, ValueError) as exc:
            self.metrics.count("bad_requests")
            return 400, _error_body("bad_request", str(exc))
        try:
            report = self.engine.rewrite(
                data,
                matcher=payload.get("matcher", "jumps"),
                instrumentation=payload.get("instrumentation"),
                options=options,
                frontend=payload.get("frontend"),
            )
        except ReproError as exc:
            self.metrics.count("rewrite_errors")
            return 422, _error_body("rewrite_failed", str(exc))
        except Exception as exc:
            self.metrics.count("internal_errors")
            return 500, _error_body("internal", f"{type(exc).__name__}: {exc}")
        body = {"ok": True, "report": report.to_dict()}
        if payload.get("return_output", True):
            body["output"] = base64.b64encode(report.result.data).decode()
        self.metrics.count("ok")
        return 200, body

    # -- HTTP front end ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            if task is not None:
                self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except _BadRequest as exc:
            self._write_response(writer, exc.status,
                                 _error_body("bad_request", str(exc)))
            return
        self.metrics.count("requests_total")
        status, payload, headers = await self._dispatch(method, path, body)
        self._write_response(writer, status, payload, headers)
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        line = await reader.readline()
        if not line:
            raise _BadRequest("empty request")
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest(f"malformed request line {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("invalid Content-Length") from None
        if length > self.config.max_body_bytes:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit", status=413)
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        body: dict,
                        headers: list[tuple[str, str]] | None = None) -> None:
        data = json.dumps(body).encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in headers or ():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)

    # -- endpoints --------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, list[tuple[str, str]] | None]:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200 if not self._draining else 503, self._health(), None
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_payload(), None
        if path == "/rewrite":
            if method != "POST":
                return 405, _error_body("method_not_allowed",
                                        "use POST /rewrite"), None
            return await self._rewrite_endpoint(body)
        return 404, _error_body("not_found", f"no route for {path}"), None

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "queued": self._queue.qsize() if self._queue else 0,
            "inflight": self._inflight,
            "workers": self.pool_size,
            "queue_depth": self.config.queue_depth,
        }

    def _metrics_payload(self) -> dict:
        store: ArtifactStore | None = self.engine.store
        return {
            "service": self.metrics.snapshot(
                queued=self._queue.qsize() if self._queue else 0,
                inflight=self._inflight,
                workers=self.pool_size,
                queue_depth=self.config.queue_depth,
            ),
            "cache": store.stats.as_dict() if store is not None else None,
        }

    async def _rewrite_endpoint(
        self, body: bytes
    ) -> tuple[int, dict, list[tuple[str, str]] | None]:
        received = time.monotonic()
        if self._draining:
            self.metrics.count("draining")
            return 503, _error_body(
                "draining", "daemon is shutting down; retry elsewhere"), None
        try:
            payload = self._parse_rewrite_payload(body)
        except _BadRequest as exc:
            self.metrics.count("bad_requests")
            return exc.status, _error_body("bad_request", str(exc)), None

        job = _Job(
            payload=payload,
            future=self._loop.create_future(),
            deadline=received + self.config.request_timeout,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.metrics.count("rejected")
            return 429, _error_body(
                "overloaded",
                f"request queue is full ({self.config.queue_depth} deep)",
                queue_depth=self.config.queue_depth,
            ), [("Retry-After", "1")]
        self.metrics.count("rewrites_total")

        status, response = await job.future
        self.metrics.observe_latency(time.monotonic() - received)
        return status, response, None

    def _parse_rewrite_payload(self, body: bytes) -> dict:
        """Cheap, loop-side validation — garbage never occupies a queue
        slot; the expensive base64/ELF work happens in the worker."""
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        if not isinstance(payload.get("binary"), str):
            raise _BadRequest("'binary' (base64 string) is required")
        if not isinstance(payload.get("matcher", "jumps"), str):
            raise _BadRequest("'matcher' must be a string")
        if payload.get("instrumentation") not in _INSTRUMENTATIONS:
            raise _BadRequest(
                "'instrumentation' must be one of "
                + "/".join(str(i) for i in _INSTRUMENTATIONS if i))
        options = payload.get("options")
        if options is not None and not isinstance(options, dict):
            raise _BadRequest("'options' must be an object")
        frontend = payload.get("frontend")
        if frontend not in (None, "linear", "symbols"):
            raise _BadRequest("'frontend' must be 'linear' or 'symbols'")
        return payload
