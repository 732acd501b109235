"""Benchmark regression gate: compare a bench result to the baseline.

Reads two ``repro-bench/1`` JSON files — the committed baseline
(``benchmarks/BENCH_passes.json``) and the current run's output — and
exits nonzero when any metric regresses past the threshold (default
25%, ``--threshold`` / ``$BENCH_GATE_THRESHOLD``).

Comparison rules, by metric name:

* ``*_s`` (wall-time seconds) — regression when the current value is
  more than ``(1 + threshold)`` times the baseline *and* at least
  ``--min-delta`` seconds slower, so microsecond-scale passes cannot
  trip the gate on scheduler noise;
* ``*speedup`` (ratios, higher is better) — regression when the current
  value falls below ``baseline / (1 + threshold)``;
* ``*_mb_s`` / ``*_sites_s`` / ``*_rps`` (throughput rates, higher is
  better) — regression when the current value falls below
  ``baseline / (1 + threshold)``;
* ``*_visits`` (work counters) and ``*.loc`` (source line counts, e.g.
  ``src.loc``), lower is better — regression when the current value
  grows past ``baseline * (1 + threshold)``;
* ``*_runs`` / ``*_configs`` / ``*_pct`` and other exact metrics —
  regression when a counter grows (``_runs``: the warm cache must keep
  reporting zero decode work) or a percentage shrinks (``_pct``).

Metrics present only in the current run are reported but never fail
the gate, so adding a measurement does not require regenerating the
baseline in the same commit.  Metrics present only in the *baseline*
get a distinct ``missing-metric`` warning — a measurement that stops
being reported can otherwise vanish without ever failing — and the
``--strict`` flag turns those warnings into a failing gate (CI uses it
so matrix cells and metrics cannot silently disappear).  CI runs this
in the ``bench-gate`` job; the ``bench-regression-ok`` PR label skips
the job for intentional, reviewed slowdowns.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

DEFAULT_BASELINE = pathlib.Path(__file__).parent / "BENCH_passes.json"
DEFAULT_CURRENT = pathlib.Path(__file__).parent / "out" / "BENCH_passes.json"
SCHEMA = "repro-bench/1"


def load(path: pathlib.Path) -> dict:
    payload = json.loads(path.read_text())
    if payload.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload


def compare_metric(name: str, base, cur, threshold: float,
                   min_delta: float) -> tuple[bool, str]:
    """(regressed, verdict text) for one metric pair."""
    # Throughput rates end in "_s" too — they must be classified before
    # the wall-time rule, and their regression direction is inverted.
    if name.endswith(("_mb_s", "_sites_s", "_rps")):
        floor = base / (1.0 + threshold)
        if cur < floor:
            return True, (f"throughput dropped: {base} -> {cur} "
                          f"(<{floor:.1f})")
        return False, f"{base} -> {cur}"
    if name.endswith(("_visits", ".loc")):
        limit = base * (1.0 + threshold)
        if cur > limit:
            return True, f"work grew: {base} -> {cur} (>{limit:.0f})"
        return False, f"{base} -> {cur}"
    if name.endswith("_s"):
        limit = base * (1.0 + threshold)
        if cur > limit and cur - base > min_delta:
            return True, f"slower: {base:.3f}s -> {cur:.3f}s (>{limit:.3f}s)"
        return False, f"{base:.3f}s -> {cur:.3f}s"
    if name.endswith("speedup"):
        floor = base / (1.0 + threshold)
        if cur < floor:
            return True, f"dropped: {base:.2f}x -> {cur:.2f}x (<{floor:.2f}x)"
        return False, f"{base:.2f}x -> {cur:.2f}x"
    if name.endswith("_runs"):
        if cur > base:
            return True, f"counter grew: {base} -> {cur}"
        return False, f"{base} -> {cur}"
    if name.endswith("_pct"):
        if cur < base - 0.5:
            return True, f"dropped: {base} -> {cur}"
        return False, f"{base} -> {cur}"
    return False, f"{base} -> {cur} (informational)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--current", default=str(DEFAULT_CURRENT))
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("BENCH_GATE_THRESHOLD", "0.25")),
        help="allowed relative regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=0.05,
        help="absolute seconds a timing must slow down by before the "
        "relative threshold applies (noise floor, default 0.05)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail when a baseline metric is missing from the current "
        "run (instead of only warning)",
    )
    args = parser.parse_args(argv)

    baseline = load(pathlib.Path(args.baseline))
    current = load(pathlib.Path(args.current))
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]

    regressions = []
    missing = []
    width = max((len(k) for k in base_metrics), default=10)
    print(f"bench gate: threshold {args.threshold:.0%}, "
          f"baseline host {baseline.get('host', {})}")
    for name in sorted(base_metrics):
        if name not in cur_metrics:
            # A metric present only in the baseline would otherwise read
            # as "never fails": warn distinctly so it cannot vanish
            # unnoticed, and fail under --strict.
            print(f"  {name.ljust(width)}  WARN  missing-metric "
                  "(in baseline, absent from current run)")
            missing.append(name)
            continue
        regressed, verdict = compare_metric(
            name, base_metrics[name], cur_metrics[name],
            args.threshold, args.min_delta,
        )
        flag = "FAIL" if regressed else "ok  "
        print(f"  {name.ljust(width)}  {flag}  {verdict}")
        if regressed:
            regressions.append(name)
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"  {name.ljust(width)}  (new metric, not gated)")

    failed = list(regressions)
    if missing:
        print(f"\nmissing-metric: {len(missing)} baseline metric(s) "
              f"absent from the current run: {', '.join(missing)}"
              + ("" if args.strict else " (warning; use --strict to fail)"),
              file=sys.stderr)
        if args.strict:
            failed.extend(missing)
    if failed:
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed past "
                  f"{args.threshold:.0%}: {', '.join(regressions)}",
                  file=sys.stderr)
        print("If intentional, apply the 'bench-regression-ok' PR label "
              "or regenerate benchmarks/BENCH_passes.json.",
              file=sys.stderr)
        return 1
    print("\nbench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
