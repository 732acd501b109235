"""Liveness-driven trampoline slimming: smaller bodies, preserved
semantics, and honest savings accounting."""

import random

from repro.analysis.liveness import LivenessAnalysis
from repro.check.campaign import _draw_params, synthesize
from repro.core.pipeline import RewriteOptions
from repro.core.trampoline import _SCRATCH_REGS, CallFunction, Counter
from repro.frontend.tool import instrument_elf
from repro.x86 import encoder as enc
from repro.x86.decoder import decode_buffer


def synthetic_binary(seed: int = 5, profile: str = "bzip2") -> bytes:
    return synthesize(_draw_params(random.Random(seed), profile)).data


def rewrite(data: bytes, *, liveness: bool, check: bool = False):
    return instrument_elf(
        data, "jumps", instrumentation="counter",
        options=RewriteOptions(mode="loader", liveness=liveness,
                               check=check, lint=True),
    ).result


class TestCounterSlimming:
    def test_slimmed_rewrite_is_smaller_and_counted(self):
        data = synthetic_binary()
        blind = rewrite(data, liveness=False)
        slim = rewrite(data, liveness=True)
        blind_bytes = sum(len(t.code) for t in blind.trampolines)
        slim_bytes = sum(len(t.code) for t in slim.trampolines)
        assert slim_bytes < blind_bytes
        saved = slim.counters["plan.trampoline_saved_bytes"]
        assert saved == blind_bytes - slim_bytes
        assert slim.counters["plan.trampoline_saved_regs"] > 0
        assert "plan.trampoline_saved_bytes" not in blind.counters

    def test_slimmed_rewrite_stays_oracle_equivalent(self):
        data = synthetic_binary()
        result = rewrite(data, liveness=True, check=True)
        assert result.equivalence is not None
        assert result.equivalence.verdict == "equivalent"
        assert result.lint.ok

    def test_throughput_reports_savings(self):
        from repro.core.observe import derive_throughput

        report = instrument_elf(
            synthetic_binary(), "jumps", instrumentation="counter",
            options=RewriteOptions(mode="loader", liveness=True),
        )
        # The savings travel through the counters into derive_throughput.
        out = derive_throughput({}, report.result.counters)
        assert out["trampoline_saved_bytes"] > 0
        assert out["trampoline_saved_regs"] > 0

    def test_fully_slimmed_body_is_movabs_incq(self):
        # mov rax,1 kills rax and add defines the flags afterwards, so at
        # the nop site rax and the incq flags are all dead: the counter
        # body needs no saves at all (movabs + incq = 13 bytes).
        code = bytes.fromhex(
            "90"  # nop                    <- patch site
            "48c7c001000000"  # mov rax, 1: rax dead before this
            "4801d8"  # add rax, rbx: flags dead before this
            "c3"
        )
        insns = decode_buffer(code, address=0x401000)
        counter = Counter(0x500000)
        blind = counter.size(insns[0])
        counter.bind_liveness(LivenessAnalysis(insns))
        assert counter.size(insns[0]) == 13
        saved_bytes, saved_regs = counter.saved_cost(insns[0])
        assert saved_bytes == blind - 13
        assert saved_regs == 1


class TestCallFunctionClobbers:
    """Regression: explicit ``clobbers=()`` ("callee preserves
    everything") must not fall back to the save-everything default."""

    def test_none_saves_all_scratch(self):
        call = CallFunction(0x500000, clobbers=None)
        assert set(call.saved) == set(_SCRATCH_REGS)

    def test_empty_tuple_saves_only_call_sequence_clobbers(self):
        call = CallFunction(0x500000, clobbers=())
        assert call.saved == (enc.R11,)

    def test_empty_tuple_with_mem_operand_adds_rdi(self):
        call = CallFunction(0x500000, pass_mem_operand=True, clobbers=())
        assert set(call.saved) == {enc.R11, enc.RDI}

    def test_empty_tuple_body_is_smaller(self):
        insns = decode_buffer(b"\x90\xc3", address=0x401000)
        insn = insns[0]
        narrow = CallFunction(0x500000, clobbers=())
        broad = CallFunction(0x500000, clobbers=None)
        assert narrow.size(insn) < broad.size(insn)

    def test_saved_cost_is_zero_without_liveness(self):
        insns = decode_buffer(b"\x90\xc3", address=0x401000)
        call = CallFunction(0x500000)
        assert call.saved_cost(insns[0]) == (0, 0)
