"""End-to-end smoke test for the rewrite daemon as a real subprocess.

CI boots the daemon exactly the way an operator would —
``python -m repro.service serve --socket ...`` — and proves the three
service-level guarantees that the in-process test suite cannot fully
witness across a process boundary:

1. **Correctness under concurrency** — 50 concurrent requests over a
   rotation of synthetic binaries all succeed and every response is
   byte-identical to the serial one-shot (``instrument_elf``) output.
2. **Typed backpressure** — with one slow worker and a queue of one, a
   burst observes HTTP 429 with ``Retry-After`` and a typed
   ``overloaded`` error body, and honouring the retry hint eventually
   lands every request.
3. **Graceful drain** — SIGTERM with requests in flight: all of them
   complete byte-identically, the process exits 0 within the drain
   budget, and the socket refuses connections afterwards.

Run locally with ``PYTHONPATH=src python benchmarks/service_smoke.py``.
Exits nonzero on the first violated guarantee.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.service import ServiceClient, ServiceError
from repro.synth.generator import SynthesisParams, synthesize

REPO = pathlib.Path(__file__).resolve().parent.parent
LOG_PATH = REPO / "benchmarks" / "out" / "service_smoke.log"
N_CONCURRENT = 50
N_SITES = 60


def fail(message: str) -> None:
    raise SystemExit(f"service_smoke: FAIL: {message}")


def record(label: str, text: str) -> None:
    """Append daemon output to the log CI uploads when the smoke fails."""
    LOG_PATH.parent.mkdir(parents=True, exist_ok=True)
    with LOG_PATH.open("a") as fh:
        fh.write(f"===== {label} =====\n{text or '(no output)'}\n")


def make_binaries(n: int = 4) -> dict[int, bytes]:
    return {
        seed: synthesize(SynthesisParams(
            n_jump_sites=N_SITES, n_write_sites=N_SITES // 2,
            seed=seed)).data
        for seed in range(1, n + 1)
    }


def spawn_daemon(socket_path: pathlib.Path, *args: str,
                 env_extra: dict[str, str] | None = None
                 ) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--socket", str(socket_path), *args],
        env=env, cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServiceClient(socket_path=str(socket_path), timeout=60.0)
    if not client.wait_ready(timeout=30):
        proc.kill()
        out = proc.communicate(timeout=10)[0]
        record(f"daemon never ready ({socket_path.name})", out)
        fail(f"daemon never became ready; output:\n{out}")
    return proc


def terminate(proc: subprocess.Popen, *, expect_zero: bool = True) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        out = proc.communicate(timeout=60)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        record("daemon ignored SIGTERM", proc.communicate()[0] or "")
        fail("daemon ignored SIGTERM for 60s")
    record(f"daemon exit {proc.returncode}", out)
    if expect_zero and proc.returncode != 0:
        fail(f"daemon exited {proc.returncode} after SIGTERM; "
             f"output:\n{out}")
    return out


def phase_concurrent_correctness(tmp: pathlib.Path) -> None:
    print(f"== phase 1: {N_CONCURRENT} concurrent requests, "
          "byte-identical to one-shots ==")
    binaries = make_binaries()
    options = RewriteOptions(mode="loader")
    expected = {seed: instrument_elf(data, "jumps",
                                     options=options).result.data
                for seed, data in binaries.items()}
    socket_path = tmp / "p1.sock"
    proc = spawn_daemon(socket_path, "--workers", "4", "--queue", "64",
                        "--cache-dir", str(tmp / "p1-store"))
    try:
        client = ServiceClient(socket_path=str(socket_path), timeout=120.0)
        seeds = sorted(binaries)

        def one(i: int) -> tuple[int, bytes]:
            seed = seeds[i % len(seeds)]
            return seed, client.rewrite_bytes(
                binaries[seed], options={"mode": "loader"}, retries=20)

        with ThreadPoolExecutor(max_workers=16) as pool:
            for seed, out in pool.map(one, range(N_CONCURRENT)):
                if out != expected[seed]:
                    fail(f"concurrent output mismatch for seed {seed}")

        metrics = client.metrics()
        ok = metrics["service"]["counters"]["ok"]
        if ok < N_CONCURRENT:
            fail(f"daemon counted {ok} ok rewrites, expected "
                 f">= {N_CONCURRENT}")
        print(f"   all {N_CONCURRENT} responses byte-identical "
              f"(daemon ok={ok})")
    finally:
        terminate(proc)
    print("   drained and exited 0")


def phase_backpressure(tmp: pathlib.Path) -> None:
    print("== phase 2: bounded queue answers typed 429, "
          "retries succeed ==")
    data = make_binaries(1)[1]
    expected = instrument_elf(
        data, "jumps", options=RewriteOptions(mode="loader")).result.data
    socket_path = tmp / "p2.sock"
    proc = spawn_daemon(socket_path, "--workers", "1", "--queue", "1",
                        "--no-cache",
                        env_extra={"REPRO_SERVICE_TEST_DELAY_MS": "200"})
    try:
        client = ServiceClient(socket_path=str(socket_path), timeout=120.0)
        rejected: list[ServiceError] = []
        lock = threading.Lock()

        def burst(_: int) -> bytes | None:
            try:
                return client.rewrite_bytes(data,
                                            options={"mode": "loader"})
            except ServiceError as exc:
                with lock:
                    rejected.append(exc)
                return None

        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(burst, range(8)))
        if not rejected:
            fail("burst of 8 against queue=1 never observed a 429")
        for exc in rejected:
            if exc.status != 429 or exc.kind != "overloaded":
                fail(f"expected typed 429/overloaded, got {exc.status} "
                     f"{exc.kind}")
            if exc.retry_after is None:
                fail("429 response missing Retry-After header")
        if not any(out == expected for out in outs if out is not None):
            fail("every request in the burst was rejected")
        print(f"   {len(rejected)} typed 429s with Retry-After observed")

        with ThreadPoolExecutor(max_workers=6) as pool:
            outs = list(pool.map(
                lambda _: client.rewrite_bytes(
                    data, options={"mode": "loader"}, retries=100),
                range(6)))
        if not all(out == expected for out in outs):
            fail("retried request returned wrong bytes")
        print("   6/6 retried requests succeeded byte-identically")
    finally:
        terminate(proc)
    print("   drained and exited 0")


def phase_graceful_drain(tmp: pathlib.Path) -> None:
    print("== phase 3: SIGTERM drains in-flight requests ==")
    data = make_binaries(1)[1]
    expected = instrument_elf(
        data, "jumps", options=RewriteOptions(mode="loader")).result.data
    socket_path = tmp / "p3.sock"
    proc = spawn_daemon(socket_path, "--workers", "2", "--queue", "16",
                        "--no-cache", "--drain-timeout", "30",
                        env_extra={"REPRO_SERVICE_TEST_DELAY_MS": "300"})
    client = ServiceClient(socket_path=str(socket_path), timeout=120.0)
    results: list[bytes] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def inflight() -> None:
        try:
            out = client.rewrite_bytes(data, options={"mode": "loader"})
            with lock:
                results.append(out)
        except Exception as exc:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=inflight) for _ in range(6)]
    for t in threads:
        t.start()
    time.sleep(0.15)  # let the burst reach the queue
    out = terminate(proc)
    for t in threads:
        t.join(timeout=30)
    if errors:
        fail(f"in-flight request failed during drain: {errors[0]!r}")
    if len(results) != 6:
        fail(f"only {len(results)}/6 in-flight requests completed; "
             f"daemon output:\n{out}")
    if not all(r == expected for r in results):
        fail("drained response was not byte-identical")
    print("   6/6 in-flight requests completed byte-identically")

    try:
        client.health()
    except (ConnectionError, OSError):
        print("   socket refuses connections after exit")
    else:
        fail("daemon socket still answering after exit")


def main() -> int:
    # Start every run with a fresh daemon log; CI uploads it on failure.
    LOG_PATH.parent.mkdir(parents=True, exist_ok=True)
    LOG_PATH.write_text("")
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        root = pathlib.Path(tmp)
        phase_concurrent_correctness(root)
        phase_backpressure(root)
        phase_graceful_drain(root)
    print("\nservice_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
