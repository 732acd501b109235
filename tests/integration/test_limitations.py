"""The paper's Section 5.2 limitations, reproduced as scenarios.

L1: huge static allocations squeeze the trampoline address space;
L2: single-byte instructions (ret/push/pop) are the hardest sites;
L3: patching everything causes inter-patch interference.
"""


from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import PatchRequest, patch_all
from repro.core.tactics import Tactic, TacticContext
from repro.core.trampoline import Empty
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf
from repro.x86.decoder import decode_buffer

BASE = 0x400000


class TestL1AddressSpaceSqueeze:
    def test_bss_reduces_coverage_or_forces_tactics(self):
        """gamess-style .bss: the baseline succeeds less often than with
        a roomy address space."""
        base_params = SynthesisParams(n_jump_sites=150, n_write_sites=50,
                                      seed=500, short_jump_frac=0.6)
        roomy = instrument_elf(synthesize(base_params).data, "jumps",
                               options=RewriteOptions(mode="loader"))
        from dataclasses import replace

        squeezed_params = replace(base_params, bss_bytes=800 * 1024 * 1024)
        squeezed = instrument_elf(synthesize(squeezed_params).data, "jumps",
                                  options=RewriteOptions(mode="loader"))
        assert squeezed.stats.base_pct < roomy.stats.base_pct

    def test_extreme_squeeze_causes_failures(self):
        """With almost no free address space, sites genuinely fail —
        coverage below 100% is reported, not hidden."""
        code = bytes.fromhex("4889d8") * 30 + b"\x90" * 16
        image = CodeImage.from_ranges([(BASE, code)])
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x10040)
        instructions = decode_buffer(code, address=BASE)
        ctx = TacticContext(image=image, space=space, instructions=instructions)
        requests = [PatchRequest(insn=i, instrumentation=Empty())
                    for i in instructions[:10]]
        plan = patch_all(ctx, requests)
        assert plan.stats.failed > 0
        assert plan.stats.success_pct < 100.0


class TestL2SingleByteInstructions:
    def test_ret_heavy_code_hard_to_patch(self):
        """1-byte rets: no padding room (T1 n/a), one B2 candidate, one
        punned short-jump target for T3 -> visibly lower coverage."""
        # Two flavours of ret neighbourhood: rets followed by 2-byte
        # movs (every fixed rel32 has its MSB set -> B2/T2/T3 all
        # geometrically impossible) and rets followed by 4-byte adds
        # (B2's single candidate is valid).  Patch only the rets.
        doomed = b"\xc3" + bytes.fromhex("89d8") * 8
        lucky = b"\xc3" + bytes.fromhex("4883c020") * 4
        code = (doomed + lucky) * 10 + b"\x90" * 32
        image = CodeImage.from_ranges([(BASE, code)])
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)
        space.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
        instructions = decode_buffer(code, address=BASE)
        ctx = TacticContext(image=image, space=space, instructions=instructions)
        rets = [i for i in instructions if i.mnemonic == "ret"]
        plan = patch_all(ctx, [PatchRequest(insn=i, instrumentation=Empty())
                               for i in rets])
        # T1 is impossible for 1-byte sites by construction.
        assert plan.stats.count(Tactic.T1) == 0
        # Single-byte sites are the paper's hard case: the doomed half
        # fails, the lucky half succeeds via B2's single candidate.
        assert 0.0 < plan.stats.success_pct < 100.0

    def test_single_byte_b2_single_candidate_can_win(self):
        """A 1-byte site whose 4 successor bytes happen to form a valid
        rel32 is patchable by B2 alone."""
        # ret followed by bytes spelling rel32 = 0x10000000-ish.
        code = b"\xc3" + bytes.fromhex("00000010") + b"\x90" * 16
        image = CodeImage.from_ranges([(BASE, code)])
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)
        space.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
        instructions = decode_buffer(code, address=BASE)
        ctx = TacticContext(image=image, space=space, instructions=instructions)
        plan = patch_all(ctx, [PatchRequest(insn=instructions[0],
                                            instrumentation=Empty())])
        assert plan.patches and plan.patches[0].tactic == Tactic.B2


class TestL3PatchEverything:
    def test_interference_lowers_coverage(self):
        """Patching all instructions achieves less coverage than patching
        only the A1 subset (tactics fight over shared bytes)."""
        params = SynthesisParams(n_jump_sites=40, n_write_sites=40, seed=501)
        binary = synthesize(params)
        subset = instrument_elf(binary.data, "jumps",
                                options=RewriteOptions(mode="loader"))
        everything = instrument_elf(binary.data, "all",
                                    options=RewriteOptions(mode="loader"))
        assert everything.stats.total > subset.stats.total
        assert everything.stats.success_pct <= subset.stats.success_pct

    def test_patch_everything_still_correct(self):
        params = SynthesisParams(n_jump_sites=20, n_write_sites=20, seed=502,
                                 loop_iters=1)
        binary = synthesize(params)
        orig = run_elf(binary.data)
        report = instrument_elf(binary.data, "all",
                                options=RewriteOptions(mode="loader"))
        patched = run_elf(report.result.data)
        assert patched.observable == orig.observable
