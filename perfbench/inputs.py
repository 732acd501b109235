"""Generate one workload's inputs from a seed, before the program starts.

Run as ``python3 perfbench/inputs.py WORKLOAD SEED OUTDIR``: writes the
input binaries into OUTDIR plus ``manifest.json``, which lists every
operation the benchmark will send to the program.  It runs in its own
process, so neither its time nor its memory counts against the program.
The same seed gives byte-identical inputs and the same manifest.
"""

from __future__ import annotations

import json
import random
import sys
import zlib
from dataclasses import replace
from pathlib import Path

from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.eval.matrix import oracle_params
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import (
    ALL_PROFILES,
    CONFORMANCE_PROFILES,
    LARGE_TEXT_PROFILES,
)

CORPUS = ALL_PROFILES + CONFORMANCE_PROFILES
APPS = (("A1", "jumps"), ("A2", "heap-writes"))

#: Oracle-sized draws rewritten with the equivalence check (coverage).
ORACLE_SAMPLE = 2

#: Service pool size, Zipf exponent, share of match-expression requests,
#: requests per period and periods drawn (the run stops early).
SERVICE_POOL = 16
SERVICE_ZIPF = 1.1
SERVICE_EXPR_SHARE = 0.3
SERVICE_PERIOD = 200
SERVICE_PERIODS = 40
SERVICE_NAMED = ("jumps", "heap-writes", "calls")
SERVICE_EXPRS = ("jcc", 'mnemonic == "call"', "mem-write and not rip-relative")


def _seed(seed: int, *parts) -> int:
    """A 32-bit seed for one item, derived from the workload seed."""
    return zlib.crc32(repr((seed,) + parts).encode())


def _library_options(profile) -> dict:
    if not profile.shared:
        return {}
    return {"shared": True, "library_path": f"/usr/lib/{profile.name}"}


def _corpus(seed: int, out: Path) -> list[dict]:
    """The Table 1 stand-ins, synthesized as ``run_profile`` does but with
    a per-seed generator seed; one entry per binary."""
    entries = []
    for profile in CORPUS:
        params = replace(SynthesisParams.from_profile(profile),
                         seed=_seed(seed, profile.name))
        data = synthesize(params).data
        name = f"{profile.name}.elf"
        (out / name).write_bytes(data)
        # The unscaled image-pressure reservation run_profile applies.
        image_end = ElfFile(data).image_end
        pressure = int(profile.image_pressure_mb * 1024 * 1024)
        entries.append({
            "file": name,
            "profile": profile,
            "reserve": [[image_end, image_end + pressure]] if pressure else [],
        })
    return entries


def _table1(seed: int, out: Path, *, coverage: bool) -> list[dict]:
    ops = []
    for entry in _corpus(seed, out):
        profile = entry["profile"]
        options = {"mode": "loader", "reserve_extra": entry["reserve"],
                   **_library_options(profile)}
        if coverage:
            options.update(liveness=True, lint=True, verify=True)
        for app, matcher in APPS:
            ops.append({
                "label": f"{profile.name}/{app}",
                "file": entry["file"],
                "matcher": matcher,
                "instrumentation": "counter" if coverage else "empty",
                "options": options,
            })
    return ops


def _oracle_sample(seed: int, out: Path) -> list[dict]:
    rng = random.Random(_seed(seed, "oracle"))
    ops = []
    for profile in rng.sample(CORPUS, ORACLE_SAMPLE):
        params = replace(oracle_params(profile.name),
                         seed=_seed(seed, "oracle", profile.name))
        name = f"oracle-{profile.name}.elf"
        (out / name).write_bytes(synthesize(params).data)
        ops.append({
            "label": f"oracle/{profile.name}",
            "file": name,
            "matcher": "jumps",
            "instrumentation": "counter",
            "options": {"mode": "loader", "check": True, "lint": True,
                        "verify": True, **_library_options(profile)},
        })
    return ops


def _browser(seed: int, out: Path) -> list[dict]:
    profile = replace(LARGE_TEXT_PROFILES["bigtext-50"],
                      base_seed=_seed(seed, "bigtext") & 0xFFFFFF)
    prog = TinyProgram(pie=True)
    prog.text.raw(profile.build())
    (out / "bigtext-50.elf").write_bytes(prog.build())
    return [{
        "label": "bigtext-50/calls",
        "file": "bigtext-50.elf",
        "matcher": "calls",
        "instrumentation": "empty",
        "options": {"mode": "loader"},
    }]


def _service(seed: int, out: Path) -> tuple[list[dict], list[dict]]:
    """Zipf-popular requests over a pool of stand-ins, in periods.

    The pool and its popularity ranks are the same for every seed (the
    first SERVICE_POOL profiles in name-hash order).  One period holds
    each binary's Zipf share of SERVICE_PERIOD requests, SERVICE_EXPR_SHARE
    of them with match expressions, each binary cycling through the
    expressions and through the named matchers.  So every period, and
    every run, sends the same mix; the seed changes only the binaries'
    bytes and the order of each period.
    Returns the requests and the warm-up requests: one per distinct
    (binary, named matcher), sent before timing so the artifact store is
    in its steady state."""
    rng = random.Random(_seed(seed, "service"))
    pool = sorted(CORPUS, key=lambda p: zlib.crc32(p.name.encode()))
    pool = pool[:SERVICE_POOL]
    weights = [1.0 / (rank + 1) ** SERVICE_ZIPF for rank in range(len(pool))]
    shares = [SERVICE_PERIOD * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(pool)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:SERVICE_PERIOD - sum(counts)]:
        counts[i] += 1
    period = []
    for profile, count in zip(pool, counts):
        params = replace(SynthesisParams.from_profile(profile),
                         seed=_seed(seed, profile.name))
        (out / f"{profile.name}.elf").write_bytes(synthesize(params).data)
        n_expr = round(count * SERVICE_EXPR_SHARE)
        for k in range(count):
            if k < n_expr:
                matcher = SERVICE_EXPRS[k % len(SERVICE_EXPRS)]
            else:
                matcher = SERVICE_NAMED[(k - n_expr) % len(SERVICE_NAMED)]
            period.append({
                "label": f"{profile.name}/{matcher}",
                "file": f"{profile.name}.elf",
                "matcher": matcher,
                "instrumentation": "empty",
                "options": {"mode": "loader", **_library_options(profile)},
                "expression": matcher in SERVICE_EXPRS,
            })
    warmup = list({op["label"]: op for op in period
                   if not op["expression"]}.values())
    ops = []
    for _ in range(SERVICE_PERIODS):
        rng.shuffle(period)
        ops.extend(period)
    return ops, warmup


def _warmup(out: Path) -> str:
    """The small fixed binary every set-up rewrites once."""
    name = "warmup.elf"
    data = synthesize(SynthesisParams(n_jump_sites=40, n_write_sites=40,
                                      seed=7)).data
    (out / name).write_bytes(data)
    return name


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "warmup": _warmup(out),
                "check": {"lint": True, "verify": True}}
    if workload == "table1":
        manifest["ops"] = _table1(seed, out, coverage=False)
    elif workload == "coverage":
        manifest["ops"] = _table1(seed, out, coverage=True)
        manifest["oracle_ops"] = _oracle_sample(seed, out)
    elif workload == "browser":
        manifest["ops"] = _browser(seed, out)
        # Lint takes about a minute on a 50 MB output; verify re-decodes
        # every patched site in a fraction of a second.
        manifest["check"] = {"verify": True}
    elif workload == "service":
        manifest["ops"], manifest["warmup_ops"] = _service(seed, out)
        manifest["period"] = SERVICE_PERIOD
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {op["file"] for op in manifest["ops"]}
    files.update(op["file"] for op in manifest.get("oracle_ops", ()))
    manifest["inputs"] = {}
    for name in sorted(files):
        elf = ElfFile((out / name).read_bytes())
        manifest["inputs"][name] = {
            "bytes": len(elf.data),
            "type": elf.elf_type,
            "pie": elf.is_pie,
            "shared": any(op["file"] == name and op["options"].get("shared")
                          for op in manifest["ops"]),
            "cet": elf.is_cet_enabled(),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
