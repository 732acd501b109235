"""Rewriter throughput: how fast does the tool itself patch?

The paper's scalability story is that E9Patch handles >100 MB binaries;
this benchmark measures our rewriter's sites-per-second across binary
sizes (repeated rounds — a genuine pytest-benchmark measurement rather
than a one-shot table job).
"""

import pytest

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize


def _binary(n_sites: int):
    return synthesize(SynthesisParams(
        n_jump_sites=n_sites, n_write_sites=n_sites // 2, seed=4242))


@pytest.mark.benchmark(group="rewriter-throughput")
@pytest.mark.parametrize("n_sites", [100, 500, 2000])
def test_rewrite_throughput(benchmark, n_sites):
    binary = _binary(n_sites)

    def run():
        return instrument_elf(binary.data, "jumps",
                              options=RewriteOptions(mode="loader"))

    report = benchmark(run)
    assert report.stats.success_pct > 99.0
    benchmark.extra_info["sites"] = report.stats.total
    benchmark.extra_info["sites_per_sec"] = (
        report.stats.total / benchmark.stats["mean"]
    )


@pytest.mark.benchmark(group="rewriter-throughput")
def test_disassembly_throughput(benchmark):
    from repro.elf.reader import ElfFile
    from repro.frontend.lineardisasm import disassemble_text

    binary = _binary(2000)
    elf = ElfFile(binary.data)
    # Materialized: the stream alone would count instructions it has
    # not decoded yet.
    insns = benchmark(lambda: list(disassemble_text(elf)))
    benchmark.extra_info["insns_per_sec"] = (
        len(insns) / benchmark.stats["mean"]
    )


@pytest.mark.benchmark(group="rewriter-scalability")
def test_rewrite_system_libc(benchmark):
    """Scalability on a real, large binary: instrument every direct jump
    in the system libc (the paper's point is exactly this robustness)."""
    import os

    path = "/lib/x86_64-linux-gnu/libc.so.6"
    if not os.path.exists(path):
        pytest.skip("system libc not found")
    with open(path, "rb") as f:
        data = f.read()

    def run():
        return instrument_elf(
            data, "jumps",
            options=RewriteOptions(mode="loader", shared=True,
                                   library_path="/tmp/libc.patched.so"))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.n_sites > 10000
    assert report.stats.success_pct > 99.0
    benchmark.extra_info["sites"] = report.stats.total
    benchmark.extra_info["succ_pct"] = report.stats.success_pct


@pytest.mark.benchmark(group="rewriter-scalability")
def test_browser_scale_synthetic(benchmark):
    """A Chrome-shaped stress: tens of thousands of patch sites in one
    synthetic binary (the paper's scalability claim at reduced scale)."""
    binary = synthesize(SynthesisParams(
        n_jump_sites=30000, n_write_sites=10000, seed=777777))

    def run():
        return instrument_elf(binary.data, "jumps",
                              options=RewriteOptions(mode="loader"))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.n_sites >= 30000
    assert report.stats.success_pct > 99.0
    benchmark.extra_info["sites"] = report.stats.total
    benchmark.extra_info["output_mb"] = round(
        report.result.output_size / 2**20, 1)
