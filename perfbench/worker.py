"""The process that runs the program: one JSON command per stdin line.

Started by ``procs.Worker`` with ``PYTHONPATH=src``.  Set-up
(interpreter start, ``import repro``, engine construction and one
warm-up rewrite) ends with a ``{"ready": ...}`` line; the benchmark
times set-up from the spawn to that line.  Every later reply is one JSON line on the
protocol stream; anything the program prints goes to stderr.

Commands:

* ``rewrite`` — one timed :meth:`RewriteEngine.rewrite`; with
  ``trace`` set, an ``Observer`` hook records a span per pass;
* ``check`` — the same request again with the program's own lint
  and/or verify passes switched on, outside any timed region; the
  reply carries the output digest for the benchmark to compare;
* ``liveness`` — a forced :class:`LivenessAnalysis` solve on the
  binary's decoded stream, timed on its own;
* ``rss`` — the process's peak resident set so far;
* ``exit``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

# The protocol owns the real stdout; program output goes to stderr.
_PROTOCOL = os.fdopen(os.dup(sys.stdout.fileno()), "w")
sys.stdout = sys.stderr

from repro.analysis.liveness import LivenessAnalysis  # noqa: E402
from repro.core.observe import Observer  # noqa: E402
from repro.core.parallel import ExecutorConfig  # noqa: E402
from repro.frontend.engine import (  # noqa: E402
    EngineConfig,
    RewriteEngine,
    options_from_dict,
)
from repro.frontend.tool import prepare_binary  # noqa: E402


def reply(payload: dict) -> None:
    _PROTOCOL.write(json.dumps(payload) + "\n")
    _PROTOCOL.flush()


def make_options(spec: dict):
    spec = dict(spec)
    reserve = tuple(tuple(r) for r in spec.pop("reserve_extra", ()))
    return replace(options_from_dict(spec), reserve_extra=reserve)


class SpanRecorder:
    """Observer hook keeping one span per pass of the current rewrite."""

    def __init__(self, parent: int) -> None:
        self.parent = parent
        self.spans: list[dict] = []
        self._open: dict[str, float] = {}

    def __call__(self, event: str, payload: dict) -> None:
        now = time.perf_counter()
        name = payload.get("name", "?")
        if event == "pass:start":
            self._open[name] = now
        elif event == "pass:end" and name in self._open:
            self.spans.append({"name": name, "start": self._open.pop(name),
                               "end": now, "parent": self.parent})


def summarize(report) -> dict:
    result = report.result
    out = {
        "sites": report.n_sites,
        "input_bytes": result.input_size,
        "output_bytes": result.output_size,
        "digest": hashlib.sha256(result.data).hexdigest(),
        "timings": result.timings,
        "counters": result.counters,
    }
    eq = result.equivalence
    if eq is not None:
        out["verdict"] = eq.verdict
        out["vm_insns"] = [eq.original.instructions, eq.rewritten.instructions]
    return out


class Worker:
    def __init__(self, indir: Path) -> None:
        self.indir = indir
        self.engine = RewriteEngine(EngineConfig(executor=ExecutorConfig(jobs=1)))
        self.files: dict[str, bytes] = {}

    def data(self, name: str) -> bytes:
        if name not in self.files:
            self.files[name] = (self.indir / name).read_bytes()
        return self.files[name]

    def rewrite(self, op: dict, *, trace: bool = False,
                extra: dict | None = None) -> dict:
        data = self.data(op["file"])
        options = make_options({**op["options"], **(extra or {})})
        observer = Observer()
        recorder = None
        if trace:
            recorder = SpanRecorder(op.get("id", 0))
            observer.add_hook(recorder)
        t0 = time.perf_counter()
        try:
            report = self.engine.rewrite(
                data, matcher=op["matcher"],
                instrumentation=op["instrumentation"], options=options,
                observer=observer,
            )
        except Exception as exc:  # every failure is counted, never fatal
            t1 = time.perf_counter()
            out = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                   "sites": observer.counters.get("match.sites", 0),
                   "input_bytes": len(data),
                   "timings": dict(observer.timings),
                   "counters": dict(observer.counters)}
        else:
            t1 = time.perf_counter()
            out = {"ok": True, **summarize(report)}
        out["seconds"] = t1 - t0
        if recorder is not None:
            out["span"] = {"start": t0, "end": t1}
            out["spans"] = recorder.spans
        return out

    def liveness(self, op: dict) -> dict:
        ctx = prepare_binary(self.data(op["file"]))
        analysis = LivenessAnalysis(ctx.instructions)
        t0 = time.perf_counter()
        analysis.at(ctx.instructions[0].address)
        return {"seconds": time.perf_counter() - t0}


def main() -> None:
    indir = Path(sys.argv[1])
    warmup = sys.argv[2]
    worker = Worker(indir)
    worker.rewrite({"file": warmup, "matcher": "jumps",
                    "instrumentation": "empty", "options": {"mode": "loader"}})
    reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        kind = cmd["cmd"]
        if kind == "rewrite":
            reply(worker.rewrite(cmd["op"], trace=cmd.get("trace", False)))
        elif kind == "check":
            reply(worker.rewrite(cmd["op"], extra=cmd["passes"]))
        elif kind == "liveness":
            reply(worker.liveness(cmd["op"]))
        elif kind == "rss":
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": kb / 1024})
        elif kind == "exit":
            break
        else:
            reply({"error": f"unknown command {kind!r}"})


if __name__ == "__main__":
    main()
