"""Metric definitions and their derivation from a run's results.

``end_to_end`` gives the gated end-to-end metrics of an untraced run,
``per_layer`` the per-layer ones of a traced run; each also returns the
metrics printed only where they apply.  ``annotate`` first scales every
timing by the drift reference (see perfbench/README.md).
"""

from __future__ import annotations

import math
import statistics

from procs import SERVICE_CONNECTIONS, BenchError, Reference

TAIL_BEYOND = 10
JUMP_TACTICS = ("B1", "B2", "T1", "T2", "T3")
PASSES = ("decode", "match", "plan", "group", "emit")

END_TO_END = {
    "setup_s": "s",
    "rewrite_p50_s": "s",
    "sites_per_s": "sites/s",
    "mb_per_s": "MB/s",
    "rewrites_per_s": "1/s",
    "succ_pct": "%",
    "ok_pct": "%",
    "size_pct": "%",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decode.s": "s",
    "decode.mb_per_s": "MB/s",
    "match.s": "s",
    "plan.s": "s",
    "plan.sites_per_s": "sites/s",
    "group.s": "s",
    "emit.s": "s",
    **{f"plan.tactic.{t}": "count" for t in JUMP_TACTICS + ("B0",)},
    "plan.failed": "count",
    "plan.alloc_probes": "count",
    "plan.alloc_span_visits": "count",
    "plan.trampoline_bytes": "count",
    "decode.instructions": "count",
    "group.physical_bytes": "count",
    "emit.output_bytes": "count",
    "trace.overhead_pct": "%",
}
#: Metrics printed only where they apply (see perfbench/README.md).
PRINTED = {
    "check_s": "s", "vm_overhead_ratio": "ratio", "engine.self_s": "s",
    "lint.s": "s", "verify.s": "s", "lint.errors": "count",
    "liveness.s": "s", "oracle.s": "s", "vm.insns_per_s": "insns/s",
    "service.server_s": "s", "service.overhead_s": "s",
    "cache.hit_ratio": "ratio", "cache.get_s": "s",
}
#: Counters that must repeat exactly from run to run.
COUNTS = [k for k, unit in PER_LAYER.items() if unit == "count"]


def median(values) -> float:
    """The median, estimated as a Gaussian-weighted mean of the order
    statistics around rank n/2, with the spread of the Harrell-Davis
    weights (sigma = 0.5 / sqrt(n + 2) of the ranks), cut at 3 sigma.

    A plain sample median of one corpus pass jumps with the gap between
    the two binaries that happen to sit in the middle; this estimate of
    the same quantity does not.  Infinite values (failed operations,
    which rank above every completed one) inside the window make the
    result infinite."""
    ordered = sorted(values)
    n = len(ordered)
    sigma = 0.5 / math.sqrt(n + 2)
    total = weight = 0.0
    for i, x in enumerate(ordered):
        z = ((i + 0.5) / n - 0.5) / sigma
        if abs(z) <= 3:
            w = math.exp(-z * z / 2)
            total += w * x
            weight += w
    return total / weight


def completed(r: dict) -> bool:
    """Whether an operation completed with a correct output."""
    return r["ok"] and "wrong" not in r


def patched(r: dict) -> int:
    """Sites the operation patched with a jump (B0 traps, it does not
    patch); none when the operation failed."""
    if not completed(r):
        return 0
    return sum(r["counters"].get(f"plan.tactic.{t}", 0) for t in JUMP_TACTICS)


def ranked(results: list[dict], scaled: bool = False) -> list[float]:
    """Operation latencies, a failed operation ranking above all others."""
    return sorted((r["seconds"] / r["scale"] if scaled else r["seconds"])
                  if completed(r) else math.inf for r in results)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return f"p{100 * (k + 1) // n}", values[k]


def count_totals(results: list[dict]) -> dict:
    return {c: sum(r["counters"].get(c, 0) for r in results) for c in COUNTS}


def annotate(run: dict, ref: Reference) -> None:
    """Give every operation, unit and set-up its own scale: the host's
    slowness against nominal, judged by the reference slices nearest in
    time.  Scaled seconds are raw seconds divided by it."""
    run["setups_scaled"] = [(t1 - t0) / ref.startup_scale(t0, t1)
                            for t0, t1 in run["setups"]]
    for r in ([r for u in run["units"] for r in u["results"]]
              + run["oracle"] + run.get("warm", [])):
        r["scale"] = ref.scale(*r["at"])
    for unit in run["units"]:
        unit["scale"] = ref.scale(*unit["at"])
        results = unit["results"]
        if unit["loop"] is not None:
            t0, t1 = unit["loop"]
            unit["busy"] = (t1 - t0, (t1 - t0) / ref.scale(t0, t1))
        else:
            unit["busy"] = (sum(r["seconds"] for r in results),
                            sum(r["seconds"] / r["scale"] for r in results))
    run["liveness"] = [(s, ref.scale(*at)) for s, at in run["liveness"]]


def end_to_end(run: dict) -> tuple[dict, dict]:
    """(metrics, printed-only extras) from the untraced units; ``raw``
    in the extras holds the unscaled value of each scaled metric."""
    units = [u for u in run["units"] if not u["traced"]]
    results = [r for u in units for r in u["results"]]
    done = [r for r in results if completed(r)]
    if not done:
        raise BenchError(f"none of {len(results)} operations completed")
    # Oracle rewrites are timed only into check_s, but a non-equivalent
    # verdict is a failed operation like any other.
    attempts = results + run["oracle"]
    failed = sum(1 for r in attempts if not completed(r))
    sites = sum(patched(r) for r in results)
    mb = sum(r["input_bytes"] for r in results) / 1e6
    busy = sum(u["busy"][0] for u in units)
    scaled_busy = sum(u["busy"][1] for u in units)
    raw_times = ranked(results)
    times = ranked(results, scaled=True)
    raw = {
        "setup_s": median(t1 - t0 for t0, t1 in run["setups"]),
        "rewrite_p50_s": median(raw_times),
        "sites_per_s": sites / busy,
        "mb_per_s": mb / busy,
        "rewrites_per_s": len(done) / busy,
    }
    metrics = {
        "setup_s": median(run["setups_scaled"]),
        "rewrite_p50_s": median(times),
        "sites_per_s": sites / scaled_busy,
        "mb_per_s": mb / scaled_busy,
        "rewrites_per_s": len(done) / scaled_busy,
        "succ_pct": 100.0 * sites / sum(r["sites"] for r in results),
        "ok_pct": 100.0 * (len(attempts) - failed) / len(attempts),
        "size_pct": statistics.mean(
            100.0 * r["output_bytes"] / r["input_bytes"] for r in done),
        "peak_rss_mb": run["rss"],
    }
    extras = {"raw": raw, "fail_pct": 100.0 * failed / len(attempts)}
    t = tail(times)
    if t is not None:
        extras["rewrite_tail_s"] = (t[0], t[1], tail(raw_times)[1],
                                    len(times))
    oracle = run["oracle"]
    if oracle:
        extras["check_s"] = median(
            r["seconds"] / r["scale"] for r in oracle)
        ratios = [r["vm_insns"][1] / r["vm_insns"][0] for r in oracle
                  if completed(r)]
        if ratios:
            extras["vm_overhead_ratio"] = math.exp(
                statistics.mean(math.log(x) for x in ratios))
    return metrics, extras


def per_layer(run: dict, workload: str) -> tuple[dict, dict]:
    """(metrics, printed-only extras) from the traced units.

    For ``service`` the pass times come from every reply, the warm-up's
    included: the daemon reports them whether or not the client traces,
    and only the warm-up fills the artifact store, so only it decodes."""
    traced = [r for u in run["units"] if u["traced"] for r in u["results"]]
    if workload == "service":
        results = run["warm"] + [r for u in run["units"] for r in u["results"]]
    else:
        results = traced
    n = len(results)

    def scaled(name: str, rs=results) -> float:
        return sum(r["timings"].get(name, 0.0) / r["scale"] for r in rs)

    total = {p: scaled(p) for p in PASSES}
    if not (total["decode"] and total["plan"]):
        raise BenchError("no traced operation decoded and planned")
    metrics = {f"{p}.s": total[p] / n for p in PASSES}
    decoded = sum(r["counters"].get("decode.bytes", 0) for r in results)
    metrics["decode.mb_per_s"] = decoded / 1e6 / total["decode"]
    metrics["plan.sites_per_s"] = sum(
        r["counters"].get("plan.sites", 0) for r in results) / total["plan"]
    first = run["units"][0]["results"]
    metrics.update(count_totals(first))
    # Tracing overhead: traced over untraced time of the same operation,
    # leaving out the process's first unit, which also pays for growing
    # its heap (a second of page faults for the 1 GB of ``browser``).
    plain = {}
    for u in run["units"][1:]:
        if not u["traced"]:
            for r in u["results"]:
                plain.setdefault(r["label"], []).append(
                    r["seconds"] / r["scale"])
    ratios = [r["seconds"] / r["scale"] / statistics.median(plain[r["label"]])
              for r in traced if r["ok"] and r["label"] in plain]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)

    extras = {}
    spans = [r for r in results if "spans" in r]
    if spans:
        self_s = [((r["span"]["end"] - r["span"]["start"])
                   - sum(s["end"] - s["start"] for s in r["spans"]))
                  / r["scale"] for r in spans]
        extras["engine.self_s"] = statistics.mean(self_s)
    for p in ("lint", "verify"):
        if any(p in r["timings"] for r in results):
            extras[f"{p}.s"] = scaled(p) / n
    if any("lint" in r["timings"] for r in first):
        extras["lint.errors"] = sum(
            r["counters"].get("lint.errors", 0) for r in first)
    if run["liveness"]:
        extras["liveness.s"] = statistics.mean(
            s / scale for s, scale in run["liveness"])
    oracle = run["oracle"]
    if oracle:
        check_s = scaled("check", oracle)
        extras["oracle.s"] = check_s / len(oracle)
        insns = sum(sum(r["vm_insns"]) for r in oracle if "vm_insns" in r)
        extras["vm.insns_per_s"] = insns / check_s
    if workload == "service":
        served = run["served"]
        scale = statistics.median(u["scale"] for u in run["units"])
        extras["service.server_s"] = (
            served["service"]["latency"]["p50_s"] / scale)
        extras["service.overhead_s"] = statistics.median(
            (r["seconds"] - sum(r["timings"].values())) / r["scale"]
            for r in results if r["ok"])
        cache = served["cache"]
        lookups = cache["hits"] + cache["misses"]
        extras["cache.hit_ratio"] = cache["hits"] / max(1, lookups)
        extras["cache.get_s"] = cache["get_seconds"] / max(1, lookups) / scale
    return metrics, extras


def properties(manifest: dict, units: list) -> list[str]:
    """Workload properties a later claim may need."""
    inputs = manifest["inputs"]
    kinds = {}
    for meta in inputs.values():
        kind = ("ET_DYN shared" if meta["shared"]
                else "ET_DYN PIE" if meta["pie"] else "ET_EXEC")
        kinds[kind] = kinds.get(kind, 0) + 1
    cet = sum(1 for meta in inputs.values() if meta["cet"])
    mb = sum(meta["bytes"] for meta in inputs.values()) / 1e6
    first = units[0]["results"]
    lines = [
        f"inputs: {len(inputs)} files, {mb:.2f} MB, "
        f"{', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}, "
        f"CET {cet}",
        f"unit: {len(first)} operations, "
        f"{sum(r['sites'] for r in first)} requested sites",
    ]
    if manifest["workload"] == "service":
        period = manifest["ops"][:manifest["period"]]
        warm = manifest["warmup_ops"]
        seen, repeats = {op["file"] for op in warm}, 0
        for op in period:
            repeats += op["file"] in seen
            seen.add(op["file"])
        n_expr = sum(1 for op in period if op["expression"])
        lines.append(
            f"requests: {sum(len(u['results']) for u in units)} in periods "
            f"of {len(period)} after {len(warm)} warm-up requests; per "
            f"period, {100.0 * repeats / len(period):.1f}% "
            f"repeat an earlier binary (warm-up included) and "
            f"{100.0 * n_expr / len(period):.1f}% carry match expressions; "
            f"{SERVICE_CONNECTIONS} connections, closed loop")
    return lines
