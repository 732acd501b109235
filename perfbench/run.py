#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rewriter.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units of the same
seeded workload and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import (  # noqa: E402
    COUNTS,
    END_TO_END,
    PER_LAYER,
    PRINTED,
    TAIL_BEYOND,
    annotate,
    completed,
    count_totals,
    end_to_end,
    per_layer,
    properties,
)
from procs import (  # noqa: E402
    BENCH_CPU,
    HERE,
    ROOT,
    BenchError,
    Daemon,
    Reference,
    RequestBodies,
    Worker,
    closed_loop,
    program_env,
    request_key,
)
from reference import NOMINAL_S  # noqa: E402

WORK = ROOT / ".perfbench_work"
WORKLOADS = ("table1", "coverage", "browser", "service")
DEFAULT_SEED = 1
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 90210

SETUP_REPS = 4
#: Whole units every run measures, however fast the host: enough
#: samples for a steady median.  A traced run has at least three
#: (untraced, traced, untraced).
MIN_UNITS = {"table1": 3, "coverage": 1, "browser": 2, "service": 4}
#: The reference slice that drifts like the workload (measurements in
#: perfbench/README.md): ``browser`` spends about 70% of its rewrite in
#: numpy decode, and the daemon much of its time in C-level JSON, base64
#: and socket work; both drift with the numpy slice, not the interpreted
#: one.
REFERENCE = {"browser": "numpy", "service": "numpy"}


# -- workloads ---------------------------------------------------------------


def digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def gen_inputs(workload: str, seed: int, indir: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), workload, str(seed),
         str(indir)],
        check=True, env=program_env(), cwd=ROOT, stdout=sys.stderr)
    return json.loads((indir / "manifest.json").read_text())


def timed_units(args, min_units: int, run_unit, ref: Reference) -> list:
    """Run whole units until ``--seconds`` have passed (at least
    *min_units*); in a traced run every second unit is traced.
    *run_unit* returns the unit's results and, for a closed loop, the
    (start, end) of the loop, whose wall time is the unit's busy time;
    otherwise the busy time is the sum of the results' times."""
    if args.trace:
        min_units = max(3, min_units)  # untraced, traced, untraced
    units = []
    deadline = time.perf_counter() + args.seconds
    while len(units) < min_units or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(units) % 2 == 1
        t0 = time.perf_counter()
        results, loop = run_unit(len(units), traced)
        units.append({"traced": traced, "results": results,
                      "at": (t0, time.perf_counter()), "loop": loop})
        ref.due()
    return units


def run_inprocess(args, manifest: dict, indir: Path, ref: Reference) -> dict:
    worker = None
    setups = []
    for _ in range(SETUP_REPS):
        if worker is not None:
            worker.close()
        ref.startup()
        worker = Worker(indir, manifest["warmup"])
        setups.append(worker.setup)
    ref.startup()
    ref.sample(3)
    ops = manifest["ops"]
    try:
        def run_unit(n: int, traced: bool):
            results = []
            for i, op in enumerate(ops):
                results.append(worker.rewrite(op, n * len(ops) + i, traced))
                ref.due()
            return results, None

        units = timed_units(args, MIN_UNITS[manifest["workload"]], run_unit,
                            ref)
        rss = worker.call({"cmd": "rss"})["peak_rss_mb"]

        oracle = []
        for op in manifest.get("oracle_ops", ()):
            r = worker.rewrite(op, -2 - len(oracle), bool(args.trace))
            if r["ok"] and r["verdict"] != "equivalent":
                r.update(ok=False, error=f"oracle verdict {r['verdict']}")
            oracle.append(r)
            ref.due()

        wrong = check_outputs(worker, ops, units, manifest["check"])
        liveness = []
        if args.trace and manifest["workload"] in ("table1", "coverage"):
            for name in sorted({op["file"] for op in ops}):
                t0 = time.perf_counter()
                seconds = worker.call(
                    {"cmd": "liveness", "op": {"file": name}})["seconds"]
                liveness.append((seconds, (t0, time.perf_counter())))
                ref.due()
    finally:
        worker.close()
    return {"setups": setups, "units": units, "rss": rss, "oracle": oracle,
            "wrong": wrong, "liveness": liveness}


def check_outputs(worker: Worker, ops: list[dict], units: list,
                  passes: dict) -> list[str]:
    """Re-run each operation once with the program's own check *passes*
    on (lint and/or verify; outside every timed region) and compare
    output bytes; mark every attempt of an operation that fails as
    ``wrong``.  Then require every later unit to repeat the first."""
    wrong = {}
    first = units[0]["results"]
    for op, r in zip(ops, first):
        if not r["ok"]:
            continue
        if all(op["options"].get(p) for p in passes):
            continue  # the timed rewrite already ran the check passes
        check = worker.call({"cmd": "check", "op": op, "passes": passes})
        if not check["ok"]:
            wrong[op["label"]] = f"lint/verify: {check['error']}"
        elif check["digest"] != r["digest"]:
            wrong[op["label"]] = "output differs from its check"
    for unit in units:
        for r in unit["results"]:
            if r["label"] in wrong:
                r["wrong"] = wrong[r["label"]]
    for unit in units[1:]:
        for a, b in zip(first, unit["results"]):
            same = (a["ok"] == b["ok"] and a.get("digest") == b.get("digest")
                    and all(a["counters"].get(c) == b["counters"].get(c)
                            for c in COUNTS))
            if not same:
                raise BenchError(
                    f"nondeterministic: {a['label']} changed between "
                    "iterations of one run")
    return [f"{label}: {msg}" for label, msg in wrong.items()]


def run_service(args, manifest: dict, indir: Path, ref: Reference) -> dict:
    warmup = (indir / manifest["warmup"]).read_bytes()
    daemon = None
    setups = []
    for i in range(SETUP_REPS):
        if daemon is not None:
            daemon.stop()
        ref.startup()
        daemon = Daemon(indir / f"store-{i}", indir / f"serve-{i}.log", warmup)
        setups.append(daemon.setup)
    ref.startup()
    ref.sample(3)
    ops = manifest["ops"]
    period = manifest["period"]
    body = RequestBodies(indir)
    try:
        warm, _ = closed_loop(daemon, manifest["warmup_ops"], body)
        ref.sample(3)

        def run_unit(n: int, traced: bool):
            batch = ops[n * period:(n + 1) * period]
            if not batch:
                raise BenchError("service request sequence exhausted")
            for op in batch:
                body(op)  # encoded before the clock starts
            return closed_loop(daemon, batch, body)

        units = timed_units(args, MIN_UNITS["service"], run_unit, ref)
        served = daemon.metrics()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    worker = Worker(indir, manifest["warmup"])
    try:
        wrong = check_service(worker, ops, units, manifest["check"])
    finally:
        worker.close()
    return {"setups": setups, "units": units, "rss": rss, "oracle": [],
            "wrong": wrong, "liveness": [], "served": served, "warm": warm}


def check_service(worker: Worker, ops: list[dict], units: list,
                  passes: dict) -> list[str]:
    """Every reply must equal an in-process rewrite of the same request
    (run with the check passes on), and every period, which sends the
    same requests, must repeat the first period's counts."""
    by_key = {request_key(op): op for op in ops}
    expected: dict[str, dict] = {}
    wrong = []
    for unit in units:
        for r in unit["results"]:
            if not r["ok"]:
                continue
            key = r["key"]
            if key not in expected:
                expected[key] = worker.call(
                    {"cmd": "check", "op": by_key[key], "passes": passes})
            check = expected[key]
            if not check["ok"]:
                r["wrong"] = f"lint/verify: {check['error']}"
            elif check["digest"] != r["digest"]:
                r["wrong"] = "reply differs from the in-process rewrite"
            else:
                continue
            wrong.append(f"{r['label']}: {r['wrong']}")
    totals = [count_totals(u["results"]) for u in units]
    if any(t != totals[0] for t in totals):
        raise BenchError("nondeterministic: counts changed between periods "
                         "of one run")
    return wrong


# -- reporting and entry points ----------------------------------------------


def remember(key: str, record: dict) -> None:
    """Compare *record* with the one a previous run of the same code,
    workload and seed left behind; fail loudly on any difference."""
    path = WORK / "determinism.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    before = known.get(key)
    if before is not None:
        for field, value in record.items():
            if field in before and before[field] != value:
                raise BenchError(
                    f"nondeterministic across runs: {key} {field}: "
                    f"{before[field]!r} != {value!r}")
        record = {**before, **record}
    known[key] = record
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def determinism_record(workload: str, run: dict, metrics: dict) -> dict:
    """What must repeat exactly in every run of one workload and seed."""
    first = run["units"][0]["results"]
    record = count_totals(first)
    if workload == "service":  # one output per distinct request
        replies = {r["key"]: r["digest"] for r in first if r["ok"]}
        record["digest"] = digest(f"{key}={value}"
                                  for key, value in sorted(replies.items()))
    else:
        record["digest"] = digest(r.get("digest") or r["error"]
                                  for r in first)
    for name in ("succ_pct", "ok_pct", "size_pct", "vm_overhead_ratio"):
        if name in metrics:
            record[name] = round(metrics[name], 9)
    return record


def fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError("run from the root of a checkout: src/repro is "
                         "missing")
    WORK.mkdir(exist_ok=True)
    indir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(indir, ignore_errors=True)
    try:
        manifest = gen_inputs(args.workload, args.seed, indir)
        ref = Reference(REFERENCE.get(args.workload, "python"))
        try:
            if args.workload == "service":
                run = run_service(args, manifest, indir, ref)
            else:
                run = run_inprocess(args, manifest, indir, ref)
            ref.sample(3)
        finally:
            ref.close()
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    annotate(run, ref)
    workload = args.workload
    for line in properties(manifest, run["units"]):
        print(f"{workload}: {line}")
    scales = [u["scale"] for u in run["units"]]
    print(f"{workload}: reference {len(ref.samples)} {ref.kind} slices, "
          f"scale {ref.scale():.4f} (slice median over nominal "
          f"{1e3 * NOMINAL_S[ref.kind]:.1f} ms), units {min(scales):.4f}.."
          f"{max(scales):.4f}")
    for msg in run["wrong"]:
        print(f"{workload}: WRONG OUTPUT {msg}")
    results = [r for u in run["units"] for r in u["results"]] + run["oracle"]
    failures = {}
    for r in results:
        if not r["ok"]:
            key = f"{r['label']}: {r['error']}"
            failures[key] = failures.get(key, 0) + 1
    for key, n in failures.items():
        print(f"{workload}: failed {n}x {key}")

    if args.trace:
        metrics, extras = per_layer(run, workload)
        units = PER_LAYER
        for name, unit in units.items():
            print(f"{workload}: {name} = {fmt(metrics[name])} {unit}")
        write_trace(args, run)
    else:
        metrics, extras = end_to_end(run)
        units = END_TO_END
        print_end_to_end(workload, metrics, extras)
    for name, value in extras.items():
        print(f"{workload}: {name} = {fmt(value)} {PRINTED[name]}")

    record = determinism_record(workload, run, {**metrics, **extras})
    print(f"{workload}: output digest {record['digest']}")
    remember(f"{workload}/{args.seed}/{code_hash()}", record)

    attempted = len(results)
    failed = sum(1 for r in results if not completed(r))
    unbounded = [name for name in units if not math.isfinite(metrics[name])]
    if unbounded:
        raise BenchError(f"{', '.join(unbounded)} unbounded: {failed} of "
                         f"{attempted} operations failed")
    return {
        "correct": not run["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def print_end_to_end(workload: str, metrics: dict, extras: dict) -> None:
    """The gated metrics with their raw values, then the printed-only
    ones the gate cannot take (removed from *extras*)."""
    raw = extras.pop("raw")
    for name, unit in END_TO_END.items():
        note = f"  (raw {fmt(raw[name])})" if name in raw else ""
        print(f"{workload}: {name} = {fmt(metrics[name])} {unit}{note}")
    print(f"{workload}: fail_pct = {fmt(extras.pop('fail_pct'))} %")
    if "rewrite_tail_s" in extras:
        label, value, raw_value, n = extras.pop("rewrite_tail_s")
        print(f"{workload}: rewrite_tail_s = {fmt(value)} s at {label} "
              f"of {n} samples, {TAIL_BEYOND} beyond (raw {fmt(raw_value)})")
    else:
        print(f"{workload}: rewrite_tail_s = n/a (fewer than "
              f"{TAIL_BEYOND + 1} samples)")


def write_trace(args, run: dict) -> None:
    """Write the traced run's spans, kept in memory until now."""
    spans = []
    for unit in run["units"]:
        if not unit["traced"]:
            continue
        for i, r in enumerate(unit["results"]):
            rid = f"{r['label']}#{i}"
            spans.append({"name": "rewrite", "id": rid, "parent": None,
                          **r["span"]})
            for s in r.get("spans", ()):
                spans.append({**s, "id": rid, "parent": "rewrite"})
            if "spans" not in r:  # service: daemon-side pass durations
                for name, seconds in r["timings"].items():
                    spans.append({"name": name, "id": rid,
                                  "parent": "rewrite", "start": None,
                                  "end": None, "seconds": seconds})
    path = WORK / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(spans))
    print(f"{args.workload}: {len(spans)} spans written to "
          f"{path.relative_to(ROOT)}")


def self_test() -> int:
    """Prove that the checks trip: a truncated ELF must land in the
    failure count without stopping the run, and a tampered service reply
    must fail the output check."""
    WORK.mkdir(exist_ok=True)
    indir = WORK / f"self-test-{os.getpid()}"
    shutil.rmtree(indir, ignore_errors=True)
    args = argparse.Namespace(seconds=0, trace=0)
    passed = True
    try:
        manifest = gen_inputs("table1", DEFAULT_SEED, indir)
        ops = manifest["ops"][:4]
        data = (indir / ops[1]["file"]).read_bytes()
        (indir / "truncated.elf").write_bytes(data[:len(data) // 3])
        ops[1] = {**ops[1], "file": "truncated.elf", "label": "truncated"}
        ref = Reference("python")
        try:
            run = run_inprocess(args, {**manifest, "ops": ops}, indir, ref)
            ref.sample()
        finally:
            ref.close()
        results = run["units"][0]["results"]
        failed = [f"{r['label']}: {r['error']}" for r in results
                  if not r["ok"]]
        annotate(run, ref)
        _, extras = end_to_end(run)
        ok = (len(failed) == 1 and failed[0].startswith("truncated:")
              and extras["fail_pct"] == 25.0
              and not run["wrong"])
        print(f"self-test: truncated ELF counted as 1 of {len(results)} "
              f"failed operations (fail_pct {extras['fail_pct']:g}): "
              f"{'PASS' if ok else 'FAIL'} {failed}")
        passed &= ok

        svcdir = indir / "service"
        manifest = gen_inputs("service", DEFAULT_SEED, svcdir)
        batch = manifest["ops"][:4]
        victim = batch[2]

        def tamper(op: dict, output: bytes) -> bytes:
            if op is not victim:
                return output
            return output[:-1] + bytes([output[-1] ^ 0xFF])

        daemon = Daemon(svcdir / "store", svcdir / "serve.log",
                        (svcdir / manifest["warmup"]).read_bytes())
        try:
            results, _ = closed_loop(daemon, batch, RequestBodies(svcdir),
                                     tamper)
        finally:
            daemon.stop()
        worker = Worker(svcdir, manifest["warmup"])
        try:
            wrong = check_service(worker, batch, [{"results": results}],
                                  manifest["check"])
        finally:
            worker.close()
        ok = len(wrong) == 1 and wrong[0].startswith(victim["label"])
        print(f"self-test: tampered service reply fails the output check: "
              f"{'PASS' if ok else 'FAIL'} {wrong}")
        passed &= ok
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}); seed {HELD_OUT_SEED} "
        "is held out from tuning, and a claimed gain must also hold on it")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove that the failure and output checks trip")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, BENCH_CPU)
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
