"""CET/IBT semantics: endbr64 predicates, tactic refusals, and lint
severity escalation.

An ``endbr64`` is where every IBT-checked indirect branch must land;
overwriting its first byte (jump patch, int3, eviction) makes the
*hardware* fault before any trampoline runs.  So in CET mode the
rewriter treats landing pads as hard constraints (tactics refuse), and
the plan linter escalates any endbr clobber it still finds from ``warn``
to ``error``.
"""

from __future__ import annotations

import pytest

from repro import analysis
from repro.analysis import lint
from repro.analysis.facts import UNKNOWN_FACTS, facts_for, is_endbr64
from repro.analysis.lint import lint_context
from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core import tactics
from repro.core.tactics import TacticContext
from repro.core.trampoline import Empty
from repro.elf.builder import TinyProgram
from repro.elf.constants import ENDBR64
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_jumps
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.x86.decoder import decode_buffer
from repro.x86.flow import is_endbr64 as flow_is_endbr64


def decode_one(raw: bytes):
    return decode_buffer(raw, address=0x1000)[0]


#: Landing pads with extra prefixes, as objdump reads them:
#: ``rex.W endbr64`` and ``data16 endbr64``.
PREFIXED_PADS = [b"\xf3\x48\x0f\x1e\xfa", b"\x66\xf3\x0f\x1e\xfa"]


def cet_binary(seed: int = 41):
    return synthesize(SynthesisParams(
        n_jump_sites=25, n_write_sites=10, seed=seed, pie=True, cet=True))


def protects(insn) -> bool:
    """What the CET-mode tactics refuse to overwrite."""
    return TacticContext(image=None, space=None, instructions=[], cet=True,
                         inject_bug=False).protects(insn)


class TestEndbrPredicates:
    def test_one_predicate(self):
        """Tactics, lint and the fact engine share one definition."""
        assert is_endbr64 is flow_is_endbr64 is analysis.is_endbr64
        assert lint.is_endbr64 is tactics.is_endbr64 is flow_is_endbr64

    def test_endbr64_recognized(self):
        insn = decode_one(ENDBR64)
        assert is_endbr64(insn)
        assert protects(insn)

    @pytest.mark.parametrize("raw", PREFIXED_PADS, ids=["rex.W", "data16"])
    def test_prefixed_endbr64_recognized(self, raw):
        insn = decode_one(raw)
        assert insn.length == len(raw)
        assert is_endbr64(insn)
        assert protects(insn)
        assert facts_for(insn).known

    @pytest.mark.parametrize("raw", [
        b"\x90",              # nop
        b"\xf3\x90",          # pause (F3-prefixed, not endbr)
        b"\x0f\x1e\xfa",      # missing the F3 prefix: nop variant
        b"\xf3\x0f\x1e\xfb",  # endbr32, not endbr64
    ])
    def test_non_landing_pads_rejected(self, raw):
        insn = decode_one(raw)
        assert not is_endbr64(insn)
        assert not protects(insn)

    def test_endbr_has_known_facts(self):
        """The fact tables must model endbr64 (semantic nop), not fall
        back to everything-live UNKNOWN."""
        facts = facts_for(decode_one(ENDBR64))
        assert facts is not UNKNOWN_FACTS
        assert facts.known


class TestSyntheticCetBinaries:
    def test_endbr_sites_recorded_and_real(self):
        binary = cet_binary()
        assert binary.endbr_sites
        elf = ElfFile(binary.data)
        for site in binary.endbr_sites:
            assert elf.read_vaddr(site, 4) == ENDBR64
        assert elf.is_cet_enabled()
        assert elf.has_ibt_note

    def test_non_cet_binary_has_none(self):
        binary = synthesize(SynthesisParams(
            n_jump_sites=10, n_write_sites=5, seed=42, pie=True))
        assert binary.endbr_sites == []
        assert not ElfFile(binary.data).has_ibt_note

    def test_cet_mode_auto_detected(self):
        binary = cet_binary()
        elf = ElfFile(binary.data)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=disassemble_text(elf))
        assert ctx.cet is True
        forced = RewriteContext(elf=elf,
                                options=RewriteOptions(mode="loader", cet=False),
                                instructions=disassemble_text(elf))
        assert forced.cet is False


def rewrite_endbr_sites(binary, *, cet: bool | None):
    """Request a patch at every endbr64 landing pad (B0 fallback on, so
    only a CET refusal can make a site fail)."""
    elf = ElfFile(binary.data)
    instructions = disassemble_text(elf)
    sites = [i for i in instructions if is_endbr64(i)]
    assert sites
    ctx = RewriteContext(elf=elf, instructions=instructions, options=RewriteOptions(
        mode="loader", cet=cet,
        toggles=TacticToggles(b0_fallback=True)))
    result = ctx.rewrite(
        [PatchRequest(insn=i, instrumentation=Empty()) for i in sites])
    return ctx, result, [i.address for i in sites]


class TestTacticRefusals:
    def test_cet_mode_refuses_to_clobber_landing_pads(self):
        binary = cet_binary()
        ctx, result, sites = rewrite_endbr_sites(binary, cet=None)
        assert set(sites) <= set(result.plan.failures)
        out = ElfFile(result.data)
        for site in sites:
            assert out.read_vaddr(site, 4) == ENDBR64

    def test_non_cet_mode_patches_them(self):
        binary = cet_binary()
        _, result, sites = rewrite_endbr_sites(binary, cet=False)
        patched = [s for s in sites if s not in result.plan.failures]
        assert patched
        out = ElfFile(result.data)
        assert any(out.read_vaddr(s, 4) != ENDBR64 for s in patched)

    def test_jump_sites_unaffected_by_cet(self):
        """CET mode only constrains landing pads: ordinary jump patching
        must reach the same coverage either way."""
        binary = cet_binary()
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        jumps = [i for i in instructions
                 if match_jumps(i) and not is_endbr64(i)]
        for cet in (True, False):
            ctx = RewriteContext(elf=elf,
                                 options=RewriteOptions(mode="loader", cet=cet),
                                 instructions=disassemble_text(elf))
            result = ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                                  for i in jumps])
            assert result.stats.success_pct == 100.0


def pad_program(pad: bytes) -> bytes:
    """A CET-marked static executable whose text is *pad*, then exit."""
    prog = TinyProgram(cet_note=True)
    prog.text.raw(pad)
    prog.emit_exit(0)
    return prog.build()


class TestPrefixedPads:
    @pytest.mark.parametrize("pad", PREFIXED_PADS + [ENDBR64],
                             ids=["rex.W", "data16", "plain"])
    def test_cet_rewrite_refuses_pad_and_lints_clean(self, pad):
        """The tactics refuse every landing pad the linter knows, so a
        CET rewrite that asks for one fails that site instead of
        clobbering it, and lint passes."""
        data = pad_program(pad)
        entry = ElfFile(data).entry
        report = instrument_elf(data, 'mnemonic == "sse"',
                                options=RewriteOptions(cet=True, lint=True))
        assert report.n_sites == 1
        assert entry in report.result.plan.failures
        assert ElfFile(report.result.data).read_vaddr(entry, len(pad)) == pad


class TestLintEscalation:
    def test_clobber_warns_without_cet(self):
        binary = cet_binary()
        ctx, _, _ = rewrite_endbr_sites(binary, cet=False)
        report = lint_context(ctx)
        endbr = [f for f in report.findings if f.check == "endbr"]
        assert endbr
        assert all(f.severity == "warn" for f in endbr)
        assert report.ok

    def test_clobber_is_error_under_cet(self):
        """Same damaged rewrite, CET semantics applied: every endbr
        finding escalates to error and the report fails."""
        binary = cet_binary()
        ctx, _, _ = rewrite_endbr_sites(binary, cet=False)
        ctx.cet = True
        report = lint_context(ctx)
        endbr = [f for f in report.findings if f.check == "endbr"]
        assert endbr
        assert all(f.severity == "error" for f in endbr)
        assert not report.ok

    def test_clean_cet_rewrite_has_zero_endbr_findings(self):
        binary = cet_binary()
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        jumps = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=instructions)
        ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                     for i in jumps])
        assert ctx.cet is True
        report = lint_context(ctx)
        assert not [f for f in report.findings if f.check == "endbr"]
        assert report.ok
