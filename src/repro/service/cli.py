"""``repro`` — operational entry points: the daemon and the eval matrix.

``repro serve`` runs the rewrite daemon: every flag maps onto one
:class:`~repro.service.config.ServiceConfig` field; environment
defaults (``REPRO_SERVICE_*``, ``$REPRO_CACHE_DIR``) are resolved
here, exactly once, before the event loop starts; an unset worker
count falls back to the engine's ``$REPRO_JOBS`` resolution.  See
``docs/SERVICE.md`` and ``docs/CLI.md``.

``repro matrix`` runs the cross-configuration evaluation matrix
(:mod:`repro.eval.matrix`) and, when ``--baseline`` comparison is
requested, the trend classifier (:mod:`repro.eval.trend`).  See
``docs/EVAL.md``.

``repro lint`` rewrites each input binary with the rewrite-plan linter
enabled (:mod:`repro.analysis.lint`) and reports its typed findings;
any error-severity finding makes the exit status nonzero.  See
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib

from repro.core.cache import CacheConfig
from repro.frontend.tool import INSTRUMENTATIONS
from repro.service.config import ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E9Patch-reproduction service tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve",
        help="run the rewrite daemon (unix socket or TCP)",
        description="Serve rewrite requests over a local JSON/HTTP API "
        "with a bounded queue, worker pool, and graceful SIGTERM drain.",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="bind a unix-domain socket at PATH (default: "
        "$REPRO_SERVICE_SOCKET, else TCP)",
    )
    serve.add_argument(
        "--host", default=None,
        help="TCP bind address (default: $REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="TCP port; 0 picks a free port (default: $REPRO_SERVICE_PORT "
        "or 9321)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="concurrent rewrite workers (default: $REPRO_SERVICE_WORKERS, "
        "else $REPRO_JOBS, else 1)",
    )
    serve.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help="bounded request-queue depth; a full queue answers 429 "
        "(default: $REPRO_SERVICE_QUEUE or 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-request budget in seconds, queue wait included "
        "(default: $REPRO_SERVICE_TIMEOUT or 120)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="S",
        help="how long SIGTERM waits for in-flight work "
        "(default: $REPRO_SERVICE_DRAIN_TIMEOUT or 30)",
    )
    serve.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="share an on-disk artifact store across requests "
        "(default: on; --no-cache disables)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact store location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    serve.add_argument(
        "--frontend", default="linear", choices=("linear", "symbols"),
        help="default disassembly frontend (per-request override allowed)",
    )

    matrix = sub.add_parser(
        "matrix",
        help="run the cross-configuration evaluation matrix",
        description="Run evaluation-matrix cells (synthesis profiles x "
        "patch configs x rewriter options) and optionally classify the "
        "result against a committed baseline (see docs/EVAL.md).",
    )
    matrix.add_argument(
        "--cells", default="pr", metavar="SPEC",
        help="'pr', 'full', or comma-separated cell ids like "
        "bzip2/full-jumps/serial (default: pr)",
    )
    matrix.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the repro-matrix/1 result JSON to PATH",
    )
    matrix.add_argument(
        "--report", metavar="PATH", default=None,
        help="compare against the committed baseline and write the "
        "markdown trend report to PATH",
    )
    matrix.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline to classify against (default: "
        "benchmarks/BENCH_matrix.json; implies a trend comparison)",
    )
    matrix.add_argument(
        "--no-oracle", action="store_true",
        help="skip the VM overhead oracle (drops vm_overhead_ratio)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically lint a rewrite of each input binary",
        description="Rewrite each input ELF with the given matcher and "
        "instrumentation, then statically re-derive the emitted "
        "invariants: patch-site jump chains, trampoline layout and "
        "image bytes, displaced-instruction replay equivalence, and "
        "jump-back targets.  Error findings exit nonzero.",
    )
    lint.add_argument(
        "inputs", nargs="+", metavar="ELF",
        help="input binaries to rewrite and lint",
    )
    lint.add_argument(
        "-M", "--match", default="all", metavar="EXPR",
        help="patch-site matcher name or expression (default: all)",
    )
    lint.add_argument(
        "-I", "--instrument", default="counter", choices=INSTRUMENTATIONS,
        help="instrumentation to rewrite with (default: counter)",
    )
    lint.add_argument(
        "--mode", default="auto", choices=("auto", "phdr", "loader"),
        help="emission mode (default: auto)",
    )
    lint.add_argument(
        "--liveness", action=argparse.BooleanOptionalAction, default=True,
        help="liveness-driven trampoline slimming (default: on); the "
        "linter checks the slimmed trampolines",
    )
    lint.add_argument(
        "--json", metavar="PATH", default=None,
        help="write per-input finding reports as JSON to PATH",
    )
    lint.add_argument(
        "-q", "--quiet", action="store_true",
        help="only print failures",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """One-time resolution: CLI flags > REPRO_SERVICE_* env > defaults."""
    overrides: dict = {}
    if args.socket is not None:
        overrides["socket_path"] = args.socket
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.queue is not None:
        overrides["queue_depth"] = args.queue
    if args.timeout is not None:
        overrides["request_timeout"] = args.timeout
    if args.drain_timeout is not None:
        overrides["drain_timeout"] = args.drain_timeout
    overrides["frontend"] = args.frontend
    overrides["cache"] = (CacheConfig.from_env(args.cache_dir)
                          if args.cache else None)
    return ServiceConfig.from_env(**overrides)


def run_matrix_command(args: argparse.Namespace) -> int:
    """``repro matrix``: run cells, optionally classify against a baseline."""
    from repro.eval import trend
    from repro.eval.matrix import parse_cells, run_matrix

    cells = parse_cells(args.cells)
    suite = args.cells if args.cells in ("pr", "full") else "custom"
    print(f"evaluation matrix: {len(cells)} cell(s), suite {suite!r}")

    def progress(index, total, result):
        mark = "ok" if result.ok else f"FAIL ({result.verdict})"
        print(f"  [{index + 1:3}/{total}] {result.cell.cell_id:<40} {mark}")

    payload = run_matrix(cells, suite=suite, oracle=not args.no_oracle,
                         progress=progress)
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    failed = [cell_id for cell_id, cell in payload["cells"].items()
              if cell["verdict"] not in ("ok", "unsupported")]
    status = 0
    if failed:
        for cell_id in failed:
            print(f"FAIL: cell {cell_id}: {payload['cells'][cell_id]['error']}")
        status = 1

    if args.report or args.baseline:
        baseline_path = pathlib.Path(args.baseline or trend.DEFAULT_BASELINE)
        report = trend.compare(payload, trend.load_matrix(baseline_path))
        trend.print_console(report)
        if args.report:
            path = pathlib.Path(args.report)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(trend.render_markdown(report))
            print(f"wrote {path}")
        if report.regressed:
            print(f"FAIL: {len(report.regressed)} cell(s) regressed vs "
                  f"{baseline_path}")
            status = 1
    return status


def run_lint_command(args: argparse.Namespace) -> int:
    """``repro lint``: rewrite inputs with the linter on, report findings."""
    from repro.analysis.lint import LintError
    from repro.core.pipeline import RewriteOptions
    from repro.errors import ReproError
    from repro.frontend.tool import instrument_elf

    options = RewriteOptions(mode=args.mode, lint=True,
                             liveness=args.liveness)
    results: dict[str, dict] = {}
    status = 0
    for name in args.inputs:
        path = pathlib.Path(name)
        try:
            data = path.read_bytes()
            try:
                report = instrument_elf(
                    data, args.match, instrumentation=args.instrument,
                    options=options,
                ).result.lint
            except LintError as exc:
                report = exc.report
        except (OSError, ReproError) as exc:
            print(f"{name}: FAIL ({type(exc).__name__}: {exc})")
            results[name] = {"ok": False, "error": str(exc)}
            status = 1
            continue
        results[name] = report.to_dict()
        if report.ok:
            if not args.quiet:
                print(f"{name}: ok ({report.sites_checked} sites, "
                      f"{report.trampolines_checked} trampolines, "
                      f"{len(report.warnings)} warning(s))")
                for finding in report.warnings:
                    print(f"  {finding}")
        else:
            status = 1
            print(f"{name}: FAIL ({len(report.errors)} error(s))")
            for finding in report.findings:
                print(f"  {finding}")
    if args.json:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"schema": "repro-lint/1", "inputs": results},
            indent=2, sort_keys=True,
        ) + "\n")
        if not args.quiet:
            print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        from repro.service.server import RewriteService

        service = RewriteService(config_from_args(args))
        try:
            asyncio.run(service.run())
        except KeyboardInterrupt:
            pass
        return 0
    if args.command == "matrix":
        return run_matrix_command(args)
    if args.command == "lint":
        return run_lint_command(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
