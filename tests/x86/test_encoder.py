"""Encoder tests: every emitted encoding must decode back correctly."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodeError
from repro.x86 import encoder as enc
from repro.x86.decoder import decode, decode_buffer
from repro.x86.tables import Flow


class TestJumps:
    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_jmp_rel32_roundtrip(self, rel):
        raw = enc.encode_jmp_rel32(rel)
        insn = decode(raw, 0)
        assert insn.length == 5
        assert insn.flow == Flow.JMP
        assert insn.rel == rel

    @given(st.integers(min_value=-128, max_value=127))
    def test_jmp_rel8_roundtrip(self, rel):
        insn = decode(enc.encode_jmp_rel8(rel), 0)
        assert insn.length == 2
        assert insn.rel == rel

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_jcc_rel32_roundtrip(self, cc, rel):
        insn = decode(enc.encode_jcc_rel32(cc, rel), 0)
        assert insn.length == 6
        assert insn.flow == Flow.JCC
        assert insn.rel == rel

    @pytest.mark.parametrize("padding", range(0, 11))
    def test_padded_jump_decodes_as_one_jump(self, padding):
        raw = enc.encode_jmp_rel32(0x1234, padding=padding)
        assert len(raw) == padding + 5
        insn = decode(raw, 0)
        assert insn.length == len(raw)
        assert insn.flow == Flow.JMP
        assert insn.rel == 0x1234

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodeError):
            enc.encode_jmp_rel32(1 << 31)
        with pytest.raises(EncodeError):
            enc.encode_jmp_rel8(128)

    def test_call(self):
        insn = decode(enc.encode_call_rel32(-5), 0)
        assert insn.flow == Flow.CALL
        assert insn.rel == -5


class TestNops:
    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_nop_exact_length_and_decodable(self, n):
        raw = enc.encode_nop(n)
        assert len(raw) == n
        insns = decode_buffer(raw)
        assert all(i.mnemonic == "nop" for i in insns)

    def test_zero_rejected(self):
        with pytest.raises(EncodeError):
            enc.encode_nop(0)


class TestAssembler:
    def test_push_pop_all_registers(self):
        a = enc.Assembler()
        for reg in range(16):
            a.push(reg)
            a.pop(reg)
        insns = decode_buffer(a.bytes())
        assert len(insns) == 32
        assert {i.mnemonic for i in insns} == {"push", "pop"}

    def test_mov_imm64_roundtrip(self):
        a = enc.Assembler()
        a.mov_imm64(enc.R11, 0x1122334455667788)
        insn = decode(a.bytes(), 0)
        assert insn.imm == 0x1122334455667788
        assert insn.imm_size == 8

    def test_labels_forward_and_backward(self):
        a = enc.Assembler(base=0x1000)
        a.label("top")
        a.nop()
        a.jmp("end")
        a.nop(3)
        a.label("end")
        a.jmp("top")
        code = a.bytes()
        insns = decode_buffer(code, address=0x1000)
        jmps = [i for i in insns if i.flow == Flow.JMP]
        assert jmps[0].target == 0x1000 + len(code) - 5  # "end"
        assert jmps[1].target == 0x1000  # "top"

    def test_duplicate_label_rejected(self):
        a = enc.Assembler()
        a.label("x")
        with pytest.raises(EncodeError):
            a.label("x")

    def test_undefined_label_rejected(self):
        a = enc.Assembler()
        a.jmp("nowhere")
        with pytest.raises(EncodeError):
            a.bytes()

    def test_mem_ops_decode(self):
        a = enc.Assembler()
        a.mov_load(enc.RAX, enc.RBX, 8)
        a.mov_store(enc.RSP, enc.RCX, 0x100)
        a.inc_mem64(enc.RBP)
        a.mov_load(enc.RDX, enc.RSP)  # SIB path
        insns = decode_buffer(a.bytes())
        assert [i.mnemonic for i in insns] == ["mov", "mov", "inc", "mov"]
        assert insns[1].writes_rm
        assert insns[2].writes_rm

    def test_lea_rip(self):
        a = enc.Assembler(base=0x1000)
        a.lea_rip(enc.RSI, 0x2000)
        insn = decode(a.bytes(), 0, address=0x1000)
        assert insn.rip_relative
        assert insn.end + insn.disp == 0x2000

    def test_lea_from_modrm_rebuilds_address(self):
        # Original: mov [rbx + rcx*4 + 0x20], rax
        store = decode(bytes.fromhex("48 89 44 8b 20".replace(" ", "")), 0)
        a = enc.Assembler()
        a.lea_from_modrm(enc.RDI, store)
        lea = decode(a.bytes(), 0)
        assert lea.mnemonic == "lea"
        assert lea.sib == store.sib
        assert lea.disp == store.disp
        assert lea.reg == enc.RDI

    def test_lea_from_modrm_rejects_rip_relative(self):
        store = decode(bytes.fromhex("48 89 05 00 10 00 00".replace(" ", "")), 0)
        a = enc.Assembler()
        with pytest.raises(EncodeError):
            a.lea_from_modrm(enc.RDI, store)

    def test_lea_from_modrm_preserves_rex_xb(self):
        # mov [r12 + r13*2 + 8], rax has REX.X and REX.B
        store = decode(bytes.fromhex("4b 89 44 6c 08".replace(" ", "")), 0)
        a = enc.Assembler()
        a.lea_from_modrm(enc.R10, store)
        lea = decode(a.bytes(), 0)
        assert lea.reg == enc.R10
        assert lea.rex is not None and lea.rex & 0x03 == store.rex & 0x03

    def test_add_sub_cmp_imm_widths(self):
        a = enc.Assembler()
        a.add_imm(enc.RAX, 5)
        a.add_imm(enc.RAX, 0x1000)
        a.sub_imm(enc.R9, -3)
        a.cmp_imm(enc.RDI, 127)
        a.cmp_imm(enc.RDI, 128)
        insns = decode_buffer(a.bytes())
        assert [i.mnemonic for i in insns] == ["add", "add", "sub", "cmp", "cmp"]
        assert insns[0].length < insns[1].length

    def test_control_ops(self):
        a = enc.Assembler(base=0)
        a.call_reg(enc.R11)
        a.jmp_reg(enc.RAX)
        a.syscall()
        a.int3()
        a.ret()
        a.pushfq()
        a.popfq()
        insns = decode_buffer(a.bytes())
        names = [i.mnemonic for i in insns]
        assert names == ["call", "jmp", "syscall", "int3", "ret", "pushf", "popf"]
