"""The processes a run starts, and the service client.

The program runs in its own processes (``worker.py``, or ``repro serve``
for ``service``), the drift reference in another (``reference.py``);
this module starts, drives and stops them.  Program processes and the
reference are pinned to one CPU, the benchmark to another.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_S, STARTUP_NOMINAL_S, STARTUP_SOURCE

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

REF_EVERY_S = 0.2
REF_MAX_SLICES = 20
#: Reference slices within this many seconds of an operation scale it
#: (at least the REF_MIN_SLICES nearest).
REF_WINDOW_S = 1.0
REF_MIN_SLICES = 5
SERVICE_CONNECTIONS = 2


class BenchError(Exception):
    """A check failed: the run prints no result and exits nonzero."""


#: The program and the reference share one CPU, so the reference sees
#: the same core the program runs on; the benchmark itself (the service
#: clients) runs on another when there is one.
CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPU = {CPUS[-1]}
BENCH_CPU = {CPUS[0]}


def pin() -> None:
    """``preexec_fn`` for the program's and the reference's processes."""
    os.sched_setaffinity(0, PROGRAM_CPU)


def program_env() -> dict:
    """The environment every program process gets: the checkout's
    ``src`` on the path and no ``REPRO_*`` knob from the caller's shell."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Reference:
    """The drift reference process (see ``reference.py``), running slices
    of the *kind* that drifts like the workload."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin)
        # (when, slice seconds over the nominal for the kind that ran)
        self.samples: list[tuple[float, float]] = []
        self.startups: list[tuple[float, float]] = []
        self.last = time.perf_counter()

    def startup(self) -> None:
        """Time one fresh interpreter importing the startup mix."""
        env = {k: v for k, v in program_env().items() if k != "PYTHONPATH"}
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_SOURCE], check=True,
                       env=env, cwd=HERE, preexec_fn=pin)
        t1 = time.perf_counter()
        self.startups.append((t1, t1 - t0))

    def startup_scale(self, start: float, end: float) -> float:
        """Host slowness for set-up: the startup samples on either side."""
        near = [s for when, s in self.startups
                if start - REF_WINDOW_S <= when <= end + REF_WINDOW_S]
        return statistics.median(near) / STARTUP_NOMINAL_S

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.proc.stdin.write(self.kind + "\n")
            self.proc.stdin.flush()
            kind, seconds = self.proc.stdout.readline().split()
            self.samples.append((time.perf_counter(),
                                 float(seconds) / NOMINAL_S[kind]))
        self.last = time.perf_counter()

    def due(self) -> None:
        """Sample in proportion to the time spent since the last sample."""
        owed = (time.perf_counter() - self.last) / REF_EVERY_S
        if owed >= 1:
            self.sample(min(REF_MAX_SLICES, int(owed)))

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """How much slower than nominal the host ran from *start* to
        *end*, judged by the slices within REF_WINDOW_S of that span (at
        least the REF_MIN_SLICES nearest)."""
        near = sorted(self.samples, key=lambda s: max(start - s[0],
                                                      s[0] - end, 0.0))
        inside = [s for when, s in near
                  if start - REF_WINDOW_S <= when <= end + REF_WINDOW_S]
        if len(inside) < REF_MIN_SLICES:
            inside = [s for _, s in near[:REF_MIN_SLICES]]
        return statistics.median(inside)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class Worker:
    """A program process (``worker.py``); its spawn-to-ready time is one
    set-up sample."""

    def __init__(self, indir: Path, warmup: str) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(indir), warmup],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=program_env(), cwd=ROOT, preexec_fn=pin)
        ready = self._read()
        self.setup = (t0, time.perf_counter())
        if not ready.get("ready"):
            raise BenchError(f"worker failed to start: {ready}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def rewrite(self, op: dict, op_id: int, traced: bool) -> dict:
        """One timed rewrite; ``at`` is when the call left and returned."""
        t0 = time.perf_counter()
        r = self.call({"cmd": "rewrite", "trace": traced,
                       "op": {**op, "id": op_id}})
        r["at"] = (t0, time.perf_counter())
        r["label"] = op["label"]
        return r

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Daemon:
    """``repro serve`` with its defaults in a subprocess; spawn to the
    answer of one warm-up request is one set-up sample."""

    _LISTENING = re.compile(r"listening on \('([^']+)', (\d+)\)")

    def __init__(self, store: Path, log: Path, warmup: bytes) -> None:
        t0 = time.perf_counter()
        self.log = log
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--cache-dir", str(store)],
                stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                env=program_env(), cwd=ROOT, preexec_fn=pin)
        try:
            self.address = self._wait_listening()
            status, _, _, _ = self.post(warmup_body(warmup))
            if status != 200:
                raise BenchError(f"daemon warm-up answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup = (t0, time.perf_counter())

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = self._LISTENING.search(self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited: {self.log.read_text()}")
            time.sleep(0.002)
        raise BenchError("daemon did not start listening")

    def _conn(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=170)

    def post(self, body: bytes) -> tuple[int, bytes, float, float]:
        conn = self._conn()
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/rewrite", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, data, t0, time.perf_counter()

    def metrics(self) -> dict:
        conn = self._conn()
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def warmup_body(data: bytes) -> bytes:
    return json.dumps({"binary": base64.b64encode(data).decode(),
                       "matcher": "jumps", "instrumentation": "empty",
                       "options": {"mode": "loader"}}).encode()


def request_key(op: dict) -> str:
    return f"{op['file']}|{op['matcher']}"


class RequestBodies:
    """JSON request bodies, encoded once per distinct request."""

    def __init__(self, indir: Path) -> None:
        self.indir = indir
        self.bodies: dict[str, bytes] = {}
        self.sizes: dict[str, int] = {}

    def __call__(self, op: dict) -> bytes:
        key = request_key(op)
        if key not in self.bodies:
            data = (self.indir / op["file"]).read_bytes()
            self.sizes[key] = len(data)
            self.bodies[key] = json.dumps({
                "binary": base64.b64encode(data).decode(),
                "matcher": op["matcher"],
                "instrumentation": op["instrumentation"],
                "options": op["options"]}).encode()
        return self.bodies[key]


def closed_loop(daemon: Daemon, batch: list[dict], body,
                tamper=None) -> tuple[list[dict], tuple[float, float]]:
    """SERVICE_CONNECTIONS clients, each sending its next request only
    after the previous reply.  Returns the results in request order and
    the loop's (start, end); replies are parsed after the loop, so the
    benchmark's own JSON and base64 work stays out of the throughput."""
    replies: list[tuple | None] = [None] * len(batch)
    lock = threading.Lock()
    cursor = iter(range(len(batch)))
    errors = []

    def client() -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                replies[i] = daemon.post(body(batch[i]))
        except Exception as exc:  # reported after the join
            errors.append(exc)

    threads = [threading.Thread(target=client)
               for _ in range(SERVICE_CONNECTIONS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = time.perf_counter()
    if errors:
        raise BenchError(f"service client failed: {errors[0]!r}")
    results = []
    for op, reply in zip(batch, replies):
        r = parse_reply(op, *reply, tamper)
        r["input_bytes"] = body.sizes[request_key(op)]
        results.append(r)
    return results, (start, end)


def parse_reply(op: dict, status: int, data: bytes, t0: float, t1: float,
                tamper=None) -> dict:
    r = {"label": op["label"], "key": request_key(op), "seconds": t1 - t0,
         "span": {"start": t0, "end": t1}, "at": (t0, t1), "status": status}
    payload = json.loads(data)
    if status != 200 or not payload.get("ok"):
        error = payload.get("error", {})
        r.update(ok=False, error=f"{status} {error.get('type')}: "
                 f"{error.get('message')}", sites=0, timings={}, counters={})
        return r
    report = payload["report"]
    output = base64.b64decode(payload["output"])
    if tamper is not None:
        output = tamper(op, output)
    r.update(ok=True, sites=report["n_sites"], output_bytes=len(output),
             digest=hashlib.sha256(output).hexdigest(),
             timings=report["timings"], counters=report["counters"])
    return r
