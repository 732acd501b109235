"""Cross-configuration evaluation matrix driver (see docs/EVAL.md).

Runs the declarative cell matrix from :mod:`repro.eval.matrix` —
synthesis profiles x patch configs x rewriter-option combos — and
writes one versioned ``repro-matrix/1`` JSON result file (default
``benchmarks/out/BENCH_matrix.json``).  Per cell it measures patch
success rate, B0 fraction, rewrite throughput, VM dynamic-instruction
overhead, and output-size delta.

CI runs this twice:

* the ``eval-matrix`` job runs ``--cells pr`` (the reduced 20-cell
  matrix, including the ``libsynth-cet.so`` shared-object column
  judged dlopen-style at a nonzero base) on every PR and gates the
  result against the committed
  baseline ``benchmarks/BENCH_matrix.json`` via
  ``python -m repro.eval.trend``;
* the scheduled / ``workflow_dispatch`` full run uses ``--cells full``
  and uploads the markdown trend report as a build artifact.

``BENCH_INJECT_SLOWDOWN=<factor>`` scales every time-like metric before
writing — the documented way to prove the trend gate trips (set it to
2, watch ``repro.eval.trend`` fail, unset it).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.eval.matrix import MAX_WORKLOAD_SITES, inject_slowdown, parse_cells, run_matrix

DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_matrix.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells",
        default="pr",
        help="'pr' (reduced PR matrix), 'full', or comma-separated "
        "cell ids like bzip2/full-jumps/serial (default: pr)",
    )
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        help="result JSON path (schema repro-matrix/1)",
    )
    parser.add_argument(
        "--max-sites",
        type=int,
        default=MAX_WORKLOAD_SITES,
        help="site-count cap for workload binaries (default "
        f"{MAX_WORKLOAD_SITES})",
    )
    parser.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the VM overhead oracle (faster; drops "
        "vm_overhead_ratio from every cell)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed measurements per cell; the best value per "
        "timing/rate metric is kept (default 3)",
    )
    args = parser.parse_args(argv)

    cells = parse_cells(args.cells)
    suite = args.cells if args.cells in ("pr", "full") else "custom"
    print(f"evaluation matrix: {len(cells)} cell(s), suite {suite!r}")

    def progress(index, total, result):
        mark = "ok" if result.ok else f"FAIL ({result.verdict})"
        rewrite_s = result.metrics.get("rewrite_s")
        timing = f"{rewrite_s:8.3f} s" if rewrite_s is not None else "       - "
        print(f"  [{index + 1:3}/{total}] {result.cell.cell_id:<40} {timing}  {mark}")

    t0 = time.perf_counter()
    payload = run_matrix(
        cells,
        suite=suite,
        max_sites=args.max_sites,
        oracle=not args.no_oracle,
        repeats=args.repeats,
        progress=progress,
    )
    total_s = time.perf_counter() - t0

    inject = float(os.environ.get("BENCH_INJECT_SLOWDOWN", "1") or "1")
    if inject != 1.0:
        payload = inject_slowdown(payload, inject)
        print(f"(BENCH_INJECT_SLOWDOWN={inject}: time-like metrics scaled)")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(cells)} cells in {total_s:.1f} s)")

    failed = [
        cell_id
        for cell_id, cell in payload["cells"].items()
        if cell["verdict"] not in ("ok", "unsupported")
    ]
    if failed:
        for cell_id in failed:
            print(f"FAIL: cell {cell_id}: {payload['cells'][cell_id]['error']}",
                  file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
