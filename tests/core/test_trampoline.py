"""Trampoline construction and displaced-instruction relocation."""

import pytest

from repro.core.trampoline import (
    CallFunction,
    Counter,
    Empty,
    build_trampoline,
    relocate,
    relocated_size,
    trampoline_size,
)
from repro.errors import EncodeError, PatchError
from repro.x86.decoder import decode, decode_buffer


def d(hexstr: str, address: int = 0x401000):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=address)


class TestRelocate:
    def test_plain_instruction_copied(self):
        insn = d("48 89 03")
        assert relocate(insn, 0x700000) == insn.raw

    def test_jmp_retargeted(self):
        insn = d("eb 10")  # jmp +0x10 -> target 0x401012
        out = relocate(insn, 0x700000)
        new = decode(out, 0, address=0x700000)
        assert new.target == insn.target
        assert len(out) == 5

    def test_jcc_retargeted_preserves_condition(self):
        insn = d("75 f0")  # jne back
        out = relocate(insn, 0x700000)
        new = decode(out, 0, address=0x700000)
        assert new.mnemonic == "jne"
        assert new.target == insn.target

    def test_jcc_rel32_retargeted(self):
        insn = d("0f 8c 00 10 00 00")
        new = decode(relocate(insn, 0x500000), 0, address=0x500000)
        assert new.mnemonic == "jl"
        assert new.target == insn.target

    def test_call_retargeted(self):
        insn = d("e8 fb ff ff ff")  # call 0x401000
        new = decode(relocate(insn, 0x600000), 0, address=0x600000)
        assert new.mnemonic == "call"
        assert new.target == insn.target == 0x401000

    def test_loop_expanded(self):
        insn = d("e2 05")  # loop +5
        out = relocate(insn, 0x700000)
        assert len(out) == 9 == relocated_size(insn)
        insns = decode_buffer(out, address=0x700000)
        assert insns[0].mnemonic == "loop"
        assert insns[0].target == 0x700004
        assert insns[1].mnemonic == "jmp" and insns[1].target == 0x700009
        assert insns[2].mnemonic == "jmp" and insns[2].target == insn.target

    def test_rip_relative_rebased(self):
        insn = d("48 8b 05 00 10 00 00")  # mov rax, [rip+0x1000]
        orig_target = insn.end + 0x1000
        out = relocate(insn, 0x500000)
        new = decode(out, 0, address=0x500000)
        assert new.rip_relative
        assert new.end + new.disp == orig_target
        assert len(out) == len(insn.raw)

    def test_rip_relative_out_of_reach_raises(self):
        insn = d("48 8b 05 00 10 00 00")
        with pytest.raises(PatchError):
            relocate(insn, 0x40_0000_0000)

    def test_ret_copied(self):
        insn = d("c3")
        assert relocate(insn, 0x700000) == b"\xc3"


class TestTrampolineBuild:
    def test_size_prediction_exact(self):
        for hexstr in ("48 89 03", "eb 10", "75 f0", "c3", "e2 05",
                       "48 8b 05 00 10 00 00", "e8 00 00 00 00"):
            insn = d(hexstr)
            for instr in (Empty(), Counter(0x800000), CallFunction(0x800000)):
                code = build_trampoline(insn, instr, 0x700000)
                assert len(code) == trampoline_size(insn, instr)

    def test_empty_trampoline_layout(self):
        insn = d("48 89 03")
        code = build_trampoline(insn, Empty(), 0x700000)
        insns = decode_buffer(code, address=0x700000)
        assert insns[0].raw == insn.raw
        assert insns[-1].mnemonic == "jmp"
        assert insns[-1].target == insn.end  # back to the next instruction

    def test_unconditional_jmp_has_no_back_jump(self):
        insn = d("eb 10")
        code = build_trampoline(insn, Empty(), 0x700000)
        insns = decode_buffer(code, address=0x700000)
        assert len(insns) == 1
        assert insns[0].target == insn.target

    def test_jcc_keeps_back_jump_for_fallthrough(self):
        insn = d("74 10")
        code = build_trampoline(insn, Empty(), 0x700000)
        insns = decode_buffer(code, address=0x700000)
        assert insns[0].mnemonic == "je" and insns[0].target == insn.target
        assert insns[1].mnemonic == "jmp" and insns[1].target == insn.end

    def test_counter_preserves_size_independence(self):
        insn = d("48 89 03")
        instr = Counter(0xDEAD0000)
        a = build_trampoline(insn, instr, 0x700000)
        b = build_trampoline(insn, instr, 0x12340000)
        assert len(a) == len(b)

    def test_call_function_passes_mem_operand(self):
        insn = d("48 89 43 10")  # mov [rbx+0x10], rax
        instr = CallFunction(0x900000, pass_mem_operand=True)
        code = build_trampoline(insn, instr, 0x700000)
        insns = decode_buffer(code, address=0x700000)
        leas = [i for i in insns if i.mnemonic == "lea"]
        # one lea for the red-zone skip, one rebuilding the operand, one restore
        assert any(i.reg == 7 and i.disp == 0x10 for i in leas)  # lea rdi, [rbx+0x10]
        assert any(i.mnemonic == "call" for i in insns)
        assert insns[-1].mnemonic == "jmp" and insns[-1].target == insn.end


class _FlagsDead:
    """A liveness stand-in under which every flag is dead."""

    def at(self, address):
        return self

    def flags_are_dead(self, mask):
        return True


class TestCounterReach:
    @pytest.mark.parametrize("flags_dead", [False, True])
    def test_pic_reach_is_exact(self, flags_dead):
        insn = d("c3")  # no jump back to constrain the placement
        instr = Counter(0x7000_0000, pic=True)
        if flags_dead:
            instr.bind_liveness(_FlagsDead())
        lo, hi = instr.reach(insn)
        size = trampoline_size(insn, instr)
        for t in (lo, hi - 1):
            assert len(build_trampoline(insn, instr, t, size)) == size
        for t in (lo - 1, hi):
            with pytest.raises(EncodeError):
                build_trampoline(insn, instr, t, size)

    def test_movabs_counter_and_empty_reach_anywhere(self):
        insn = d("48 89 03")
        assert Counter(0x7000_0000).reach(insn) is None
        assert Empty().reach(insn) is None
