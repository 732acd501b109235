"""Native end-to-end: rewrite real gcc-compiled (and synthetic) binaries
and execute them on the host CPU."""

import pytest

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from tests.conftest import corpus_variant, requires_native, requires_toolchain


@requires_native
class TestSyntheticNative:
    @pytest.mark.parametrize("matcher", ["jumps", "heap-writes"])
    @pytest.mark.parametrize("mode,grouping", [
        ("phdr", False), ("loader", True),
    ])
    def test_patched_synthetic_runs_natively(self, run_native, matcher,
                                             mode, grouping):
        binary = synthesize(SynthesisParams(
            n_jump_sites=30, n_write_sites=30, seed=300, loop_iters=2))
        code0, out0 = run_native(binary.data)
        report = instrument_elf(
            binary.data, matcher,
            options=RewriteOptions(mode=mode, grouping=grouping))
        code1, out1 = run_native(report.result.data)
        assert (code1, out1) == (code0, out0)

    def test_pie_loader_native(self, run_native):
        binary = synthesize(SynthesisParams(
            n_jump_sites=20, n_write_sites=20, seed=301, pie=True,
            loop_iters=2))
        code0, out0 = run_native(binary.data)
        report = instrument_elf(binary.data, "jumps",
                                options=RewriteOptions(mode="loader"))
        code1, out1 = run_native(report.result.data)
        assert (code1, out1) == (code0, out0)


@requires_toolchain
class TestCompiledNative:
    """The paper's claim, in miniature: rewrite compiler-produced,
    dynamically-linked binaries with zero knowledge of their control
    flow, and they still work."""

    @pytest.mark.parametrize("variant", ["O0_pie", "O2_pie", "O2_nopie"])
    @pytest.mark.parametrize("matcher", ["jumps", "heap-writes"])
    def test_rewrite_compiled_program(self, compiled_corpus, run_native,
                                      variant, matcher):
        data = corpus_variant(compiled_corpus, variant).read_bytes()
        code0, out0 = run_native(data)
        report = instrument_elf(data, matcher,
                                options=RewriteOptions(mode="loader"))
        assert report.stats.success_pct == 100.0
        code1, out1 = run_native(report.result.data)
        assert (code1, out1) == (code0, out0)

    def test_rewrite_static_binary(self, static_toolchain, run_native):
        data = static_toolchain.read_bytes()
        code0, out0 = run_native(data)
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        code1, out1 = run_native(report.result.data)
        assert (code1, out1) == (code0, out0)

    def test_nonpie_exercises_eviction_tactics(self, nopie_toolchain):
        data = nopie_toolchain.read_bytes()
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        stats = report.stats
        # Non-PIE: the baseline alone cannot cover everything.
        assert stats.base_pct < 100.0
        assert stats.success_pct == 100.0


@requires_native
class TestSystemBinary:
    def test_rewrite_bin_ls(self, run_native):
        import os

        if not os.path.exists("/bin/ls"):
            pytest.skip("/bin/ls not present")
        with open("/bin/ls", "rb") as f:
            data = f.read()
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        assert report.stats.success_pct > 99.0
        assert report.n_sites > 1000
        code, out = run_native(report.result.data, args=["/etc/hostname"])
        import subprocess

        ref = subprocess.run(["/bin/ls", "/etc/hostname"], capture_output=True)
        assert (code, out) == (ref.returncode, ref.stdout)
