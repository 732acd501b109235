"""Rewrite-service throughput/latency bench with a regression baseline.

Boots the daemon in-process on a unix socket, drives it with a pool of
concurrent clients over a small set of synthetic binaries, and checks
every response byte-for-byte against the serial one-shot path before
reporting numbers — a throughput figure for a service that returns the
wrong bytes would be meaningless.

Reported metrics (schema ``repro-bench/1``, default output
``benchmarks/out/BENCH_service.json``):

* ``service.throughput_rps`` — sustained requests per second across the
  whole concurrent phase (higher is better; gated by the ``_rps`` rule
  in ``bench_gate.py``);
* ``service.p50_s`` / ``service.p95_s`` — client-observed request
  latency percentiles;
* ``service.total_s`` — wall time for the concurrent phase;
* ``service.requests`` / ``service.clients`` — workload shape
  (informational, never gated).

CI compares the JSON against the committed baseline
``benchmarks/BENCH_service.json`` via ``bench_gate.py`` with a relaxed
threshold — service throughput on shared runners is noisier than the
single-process pass timings.

``BENCH_INJECT_SLOWDOWN=<factor>`` multiplies the reported latencies
(and divides throughput) before writing, to prove the gate trips.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.cache import CacheConfig
from repro.core.rewriter import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.service import RewriteService, ServiceClient, ServiceConfig
from repro.service.metrics import percentile
from repro.synth.generator import SynthesisParams, synthesize

SCHEMA = "repro-bench/1"
#: Distinct binaries in rotation; exercises the store without making the
#: run a pure cache benchmark.
N_BINARIES = 3
N_SITES = 120
N_REQUESTS = 48
N_CLIENTS = 8
N_WORKERS = 4


def make_binaries() -> dict[int, bytes]:
    return {
        seed: synthesize(SynthesisParams(
            n_jump_sites=N_SITES, n_write_sites=N_SITES // 2,
            seed=seed)).data
        for seed in range(1, N_BINARIES + 1)
    }


def serial_expected(binaries: dict[int, bytes]) -> dict[int, bytes]:
    options = RewriteOptions(mode="loader")
    return {seed: instrument_elf(data, "jumps", options=options).result.data
            for seed, data in binaries.items()}


def run_service_phase(tmp: pathlib.Path, binaries: dict[int, bytes],
                      expected: dict[int, bytes]) -> dict[str, float]:
    import asyncio

    config = ServiceConfig.from_env(
        environ={},
        socket_path=str(tmp / "bench.sock"),
        workers=N_WORKERS,
        queue_depth=N_REQUESTS,
        request_timeout=120.0,
        drain_timeout=30.0,
        cache=CacheConfig.from_env(tmp / "store"),
    )
    service = RewriteService(config)
    thread = threading.Thread(target=lambda: asyncio.run(service.run()),
                              daemon=True)
    thread.start()
    if not service.ready.wait(timeout=30):
        raise SystemExit("bench_service: daemon did not become ready")
    client = ServiceClient(socket_path=config.socket_path, timeout=120.0)

    seeds = sorted(binaries)
    # Warm the store and the worker pool before timing anything.
    for seed in seeds:
        out = client.rewrite_bytes(binaries[seed],
                                   options={"mode": "loader"})
        if out != expected[seed]:
            raise SystemExit(f"bench_service: warmup output mismatch "
                             f"for seed {seed}")

    latencies: list[float] = []
    lock = threading.Lock()

    def one_request(i: int) -> None:
        seed = seeds[i % len(seeds)]
        t0 = time.perf_counter()
        out = client.rewrite_bytes(binaries[seed],
                                   options={"mode": "loader"}, retries=20)
        dt = time.perf_counter() - t0
        if out != expected[seed]:
            raise SystemExit(f"bench_service: concurrent output mismatch "
                             f"for seed {seed} (request {i})")
        with lock:
            latencies.append(dt)

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        list(pool.map(one_request, range(N_REQUESTS)))
    total_s = time.perf_counter() - t0

    service.request_shutdown()
    thread.join(timeout=30)
    if thread.is_alive():
        raise SystemExit("bench_service: daemon failed to drain and exit")

    latencies.sort()
    return {
        "service.throughput_rps": round(N_REQUESTS / total_s, 2),
        "service.p50_s": round(percentile(latencies, 0.50), 6),
        "service.p95_s": round(percentile(latencies, 0.95), 6),
        "service.total_s": round(total_s, 6),
        "service.requests": N_REQUESTS,
        "service.clients": N_CLIENTS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json-out",
        default=str(pathlib.Path(__file__).parent / "out"
                    / "BENCH_service.json"))
    args = parser.parse_args(argv)

    binaries = make_binaries()
    expected = serial_expected(binaries)
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        metrics = run_service_phase(pathlib.Path(tmp), binaries, expected)

    slowdown = float(os.environ.get("BENCH_INJECT_SLOWDOWN", "1") or "1")
    if slowdown != 1.0:
        for name in ("service.p50_s", "service.p95_s", "service.total_s"):
            metrics[name] = round(metrics[name] * slowdown, 6)
        metrics["service.throughput_rps"] = round(
            metrics["service.throughput_rps"] / slowdown, 2)

    payload = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "metrics": metrics,
    }
    out_path = pathlib.Path(args.json_out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    width = max(len(k) for k in metrics)
    print("== service bench ==")
    for name in sorted(metrics):
        print(f"  {name.ljust(width)}  {metrics[name]}")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
