"""The VM-backed differential oracle: verdicts, diagnostics, integration."""

from __future__ import annotations

import json

import pytest

from repro import RewriteOptions, instrument_elf
from repro.check import check_equivalence, check_rewrite, sites_and_traps
from repro.core.strategy import TacticToggles
from repro.errors import PatchError
from repro.synth.generator import SynthesisParams, synthesize

PARAMS = SynthesisParams(n_jump_sites=12, n_write_sites=10, seed=21,
                         loop_iters=1)


def rewrite(data: bytes, matcher: str = "jumps", **kw):
    return instrument_elf(data, matcher,
                          options=RewriteOptions(mode="loader", **kw))


class TestVerdicts:
    def test_identity_is_equivalent(self):
        data = synthesize(PARAMS).data
        sites, traps = sites_and_traps(data, matcher="jumps")
        report = check_equivalence(data, data, sites=sites, traps=traps)
        assert report.verdict == "equivalent"
        assert report.equivalent
        assert report.divergence is None
        assert report.events_compared > len(sites)
        assert report.original.exit_code == report.rewritten.exit_code

    def test_real_rewrite_is_equivalent(self):
        binary = synthesize(PARAMS)
        report = rewrite(binary.data)
        oracle = check_rewrite(binary.data, report.result.data,
                               b0_sites=report.result.b0_sites,
                               matcher="jumps")
        assert oracle.verdict == "equivalent"
        # The rewritten run executes trampolines on top of the original
        # work, so it must retire strictly more instructions.
        assert (oracle.rewritten.instructions
                > oracle.original.instructions)

    def test_different_programs_diverge(self):
        a = synthesize(PARAMS).data
        b = synthesize(SynthesisParams(n_jump_sites=12, n_write_sites=10,
                                       seed=22, loop_iters=1)).data
        report = check_equivalence(a, b)
        assert report.verdict == "divergent"
        assert report.divergence is not None

    def test_unrunnable_original_is_unsupported(self):
        """An original the VM cannot finish yields no verdict at all."""
        data = synthesize(PARAMS).data
        report = check_equivalence(data, data, max_instructions=50)
        assert report.verdict == "unsupported"
        assert report.divergence.kind == "budget"
        assert not report.equivalent


class TestDiagnostics:
    def test_first_divergence_is_located(self):
        """Site streams from two different binaries: the report must pin
        the event index, per-machine step counts, and a register delta."""
        a = synthesize(PARAMS)
        b = synthesize(SynthesisParams(n_jump_sites=12, n_write_sites=10,
                                       seed=23, loop_iters=1))
        sites, _ = sites_and_traps(a.data, matcher="jumps")
        report = check_equivalence(a.data, b.data, sites=sites, traps={})
        d = report.divergence
        assert d is not None
        assert d.event_index is not None
        assert d.step_original is not None and d.step_rewritten is not None
        # Two independent programs stopped mid-run: registers differ.
        assert d.register_delta
        for name, (va, vb) in d.register_delta.items():
            assert va != vb, name

    def test_report_round_trips_through_json(self):
        data = synthesize(PARAMS).data
        sites, traps = sites_and_traps(data, matcher="jumps")
        report = check_equivalence(data, data, sites=sites, traps=traps)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == "equivalent"
        assert payload["original"]["stdout_sha"] == \
            payload["rewritten"]["stdout_sha"]

    def test_divergent_report_serializes(self):
        a = synthesize(PARAMS).data
        b = synthesize(SynthesisParams(n_jump_sites=12, n_write_sites=10,
                                       seed=24, loop_iters=1)).data
        report = check_equivalence(a, b)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == "divergent"
        assert payload["divergence"]["kind"]
        assert payload["divergence"]["detail"]


class TestB0Traps:
    def test_forced_b0_rewrite_checks_clean(self):
        """B0 traps fire only in the rewritten run; the oracle must pair
        every trap with a site visit instead of treating it as an event."""
        binary = synthesize(PARAMS)
        report = rewrite(binary.data,
                         toggles=TacticToggles(t1=False, t2=False, t3=False,
                                               b0_fallback=True))
        assert report.result.b0_sites, "config should force B0 sites"
        oracle = check_rewrite(binary.data, report.result.data,
                               b0_sites=report.result.b0_sites,
                               matcher="jumps")
        assert oracle.verdict == "equivalent"
        assert oracle.rewritten.traps > 0
        assert oracle.original.traps == 0

    def test_sites_and_traps_extracts_original_bytes(self):
        binary = synthesize(PARAMS)
        report = rewrite(binary.data,
                         toggles=TacticToggles(t1=False, t2=False, t3=False,
                                               b0_fallback=True))
        sites, traps = sites_and_traps(binary.data, report.result.b0_sites,
                                       "jumps")
        assert set(traps) == set(report.result.b0_sites)
        assert set(traps) <= sites
        for vaddr, raw in traps.items():
            # Handler bytes come from the *original* image, pre-int3.
            assert binary.data.find(raw) != -1
            assert raw[0] != 0xCC

    def test_sites_and_traps_builds_only_sites_and_traps(self, monkeypatch):
        """Over a lazy stream, a ``jumps`` call materializes the selected
        sites and the B0 traps only, and returns what a filter over the
        whole decoded stream returns."""
        import repro.frontend.tool as tool
        from repro.elf.reader import ElfFile
        from repro.frontend.lineardisasm import disassemble_text
        from repro.frontend.matchers import match_jumps
        from repro.x86 import fastscan

        data = synthesize(SynthesisParams(n_jump_sites=400, n_write_sites=200,
                                          seed=11)).data
        report = rewrite(data, toggles=TacticToggles(
            t1=False, t2=False, t3=False, b0_fallback=True))
        b0 = report.result.b0_sites
        assert b0
        streams = []

        def spy(*args, **kwargs):
            ctx = real(*args, **kwargs)
            streams.append(ctx.instructions)
            return ctx

        real = tool.prepare_binary
        monkeypatch.setattr(tool, "prepare_binary", spy)
        sites, traps = sites_and_traps(data, b0 + [1], "jumps")
        everything, _ = sites_and_traps(data)

        insns = list(disassemble_text(ElfFile(data)))
        assert sites == {i.address for i in insns if match_jumps(i)}
        assert everything == {i.address for i in insns}
        by_addr = {i.address: i for i in insns}
        assert traps == {s: bytes(by_addr[s].raw) for s in b0}
        stream = streams[0]
        assert isinstance(stream, fastscan.InstructionStream)
        if fastscan.HAVE_NUMPY:  # a stdlib stream is built eagerly
            assert len(stream._cache) <= len(sites) + len(traps)
            assert len(stream._cache) < len(insns) // 4


class TestEquivalencePass:
    def test_check_option_records_report(self):
        binary = synthesize(PARAMS)
        report = rewrite(binary.data, check=True)
        assert report.result.equivalence is not None
        assert report.result.equivalence.verdict == "equivalent"

    def test_injected_miscompile_fails_the_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INJECT_BUG", "1")
        binary = synthesize(PARAMS)
        with pytest.raises(PatchError, match="equivalence"):
            rewrite(binary.data, check=True)

    def test_check_off_by_default(self):
        binary = synthesize(PARAMS)
        report = rewrite(binary.data)
        assert report.result.equivalence is None
