"""Pass-level observability: wall-time, counters, and trace hooks.

Every pipeline pass (see :mod:`repro.core.pipeline`) runs under an
:class:`Observer`, which accumulates

* **timings** — wall-clock seconds per pass (summed across repeat runs,
  e.g. one :class:`~repro.core.pipeline.PlanPass` per batch config);
* **counters** — named integer counters (``decode.instructions``,
  ``plan.tactic.B1``, ``emit.output_bytes``, ``alloc.probes``, ...);
* **trace hooks** — pluggable callables receiving ``(event, payload)``
  pairs as passes start and finish, for live progress output or custom
  profiling.

A single observer may be shared across many rewrites (the batch API does
exactly that), so counters are cumulative by design: the
``pass.<name>.runs`` counter is how the batch tests assert that decoding
happened exactly once for N configurations.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: A trace hook receives an event name (``"pass:start"`` / ``"pass:end"``
#: / anything a pass chooses to emit) and a payload dict.  Hooks must not
#: raise; they are observation only.
TraceHook = Callable[[str, dict], None]


@dataclass
class Observer:
    """Accumulates per-pass timings and counters; fans out trace events."""

    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    hooks: list[TraceHook] = field(default_factory=list)

    def add_hook(self, hook: TraceHook) -> None:
        self.hooks.append(hook)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def emit(self, event: str, **payload) -> None:
        for hook in self.hooks:
            hook(event, payload)

    @contextmanager
    def measure(self, name: str, **payload) -> Iterator[None]:
        """Time one pass run: emits ``pass:start``/``pass:end`` events,
        accumulates wall time under *name*, and bumps
        ``pass.<name>.runs``."""
        self.emit("pass:start", name=name, **payload)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.timings[name] = self.timings.get(name, 0.0) + dt
            self.count(f"pass.{name}.runs")
            self.emit("pass:end", name=name, seconds=dt, **payload)

    def runs(self, name: str) -> int:
        """How many times pass *name* has executed under this observer."""
        return self.counters.get(f"pass.{name}.runs", 0)

    # -- scoped views ----------------------------------------------------

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        """Freeze the current timings/counters (see :meth:`since`)."""
        return dict(self.timings), dict(self.counters)

    def since(
        self, snapshot: tuple[dict[str, float], dict[str, int]]
    ) -> tuple[dict[str, float], dict[str, int]]:
        """Timings/counters accumulated *after* *snapshot* was taken.

        This is how the batch API reports per-configuration numbers from
        one shared observer: the observer stays cumulative (so
        ``runs("decode") == 1`` across a batch remains checkable), while
        each :class:`RewriteResult` carries only its own run's delta.
        """
        t0, c0 = snapshot
        timings = {k: v - t0.get(k, 0.0) for k, v in self.timings.items()
                   if v - t0.get(k, 0.0) > 0.0}
        counters = {k: v - c0.get(k, 0) for k, v in self.counters.items()
                    if v - c0.get(k, 0) != 0}
        return timings, counters

    def throughput(self) -> dict[str, float | int]:
        """Derived hot-path rate metrics (see INTERNALS.md §7).

        * ``decode_mb_s`` — megabytes of instruction bytes decoded per
          second of DecodePass wall time;
        * ``plan_sites_s`` — patch sites planned per second of PlanPass
          wall time;
        * ``alloc_span_visits`` — free-list spans examined across all
          allocator gap searches (plan + emit); the indexed allocator's
          figure of merit — lower is better.

        Rates whose timing denominator is missing or zero are omitted,
        so the dict is safe to merge into JSON reports unconditionally.
        """
        return derive_throughput(self.timings, self.counters)

    def as_dict(self) -> dict:
        """JSON-ready snapshot (timings rounded to microseconds)."""
        return {
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "counters": dict(sorted(self.counters.items())),
            "throughput": self.throughput(),
        }

    def format_timings(self) -> str:
        """Human-readable per-pass timing table (for the bench smoke job)."""
        if not self.timings:
            return "(no passes ran)"
        width = max(len(k) for k in self.timings)
        lines = [
            f"{name.ljust(width)}  {1e3 * seconds:9.3f} ms"
            f"  ({self.runs(name)} run{'s' if self.runs(name) != 1 else ''})"
            for name, seconds in sorted(
                self.timings.items(), key=lambda kv: -kv[1]
            )
        ]
        return "\n".join(lines)


def derive_throughput(
    timings: dict[str, float], counters: dict[str, int]
) -> dict[str, float | int]:
    """Compute the hot-path rate metrics from raw timings/counters.

    Works on any (timings, counters) pair — a live :class:`Observer`'s
    accumulations or a per-run delta from :meth:`Observer.since` — so
    per-configuration reports can derive their own rates.
    """
    out: dict[str, float | int] = {}
    decode_s = timings.get("decode", 0.0)
    decode_bytes = counters.get("decode.bytes", 0)
    if decode_s > 0.0 and decode_bytes:
        out["decode_mb_s"] = round(decode_bytes / decode_s / 1e6, 3)
    plan_s = timings.get("plan", 0.0)
    plan_sites = counters.get("plan.sites", 0)
    if plan_s > 0.0 and plan_sites:
        out["plan_sites_s"] = round(plan_sites / plan_s, 1)
    visits = (counters.get("plan.alloc_span_visits", 0)
              + counters.get("emit.alloc_span_visits", 0))
    if visits:
        out["alloc_span_visits"] = visits
    saved_bytes = counters.get("plan.trampoline_saved_bytes", 0)
    saved_regs = counters.get("plan.trampoline_saved_regs", 0)
    if saved_bytes or saved_regs:
        out["trampoline_saved_bytes"] = saved_bytes
        out["trampoline_saved_regs"] = saved_regs
    return out


def stderr_trace_hook(event: str, payload: dict) -> None:
    """The CLI ``--trace`` hook: one line per pass event on stderr."""
    if event == "pass:end":
        detail = f" {1e3 * payload['seconds']:.3f} ms"
    else:
        detail = ""
    extra = " ".join(
        f"{k}={v}" for k, v in payload.items() if k not in ("name", "seconds")
    )
    name = payload.get("name", "?")
    print(f"[trace] {event} {name}{detail}{' ' + extra if extra else ''}",
          file=sys.stderr)
