"""Instruction-model helpers (insn.py) exercised directly."""

from repro.x86.decoder import decode
from repro.x86.insn import OperandKind


def d(hexstr: str, address: int = 0x1000):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=address)


class TestFields:
    def test_end(self):
        insn = d("48 89 d8", address=0x400000)
        assert insn.end == 0x400003

    def test_mod_reg_rm_none_without_modrm(self):
        insn = d("90")
        assert insn.mod is None
        assert insn.reg is None
        assert insn.rm is None
        assert insn.rm_kind == OperandKind.NONE

    def test_reg_raw_ignores_rex(self):
        insn = d("4d 89 d8")  # mov r8, r11: REX.R extends reg
        assert insn.reg == 11
        assert insn.reg_raw == 3

    def test_has_mem_operand(self):
        assert d("48 89 03").has_mem_operand
        assert not d("48 89 d8").has_mem_operand
        assert d("48 8b 05 00 00 00 00").has_mem_operand  # rip-rel

    def test_mem_base_variants(self):
        assert d("48 89 07").mem_base == 7  # (%rdi)
        assert d("49 89 00").mem_base == 8  # (%r8)
        assert d("48 89 44 24 08").mem_base == 4  # 0x8(%rsp) via SIB
        assert d("48 89 04 25 00 10 00 00").mem_base is None  # abs32
        assert d("48 89 05 00 10 00 00").mem_base is None  # rip-rel
        assert d("48 89 d8").mem_base is None  # register form

    def test_indirect_classification(self):
        assert d("ff e0").is_indirect_jump
        assert not d("ff e0").is_indirect_call
        assert d("ff d0").is_indirect_call
        assert not d("ff 30").is_indirect_jump  # push [rax]

    def test_rel_and_target_only_for_direct(self):
        assert d("e9 00 00 00 00").rel == 0
        assert d("ff e0").rel is None
        assert d("c3").target is None

    def test_str_contains_address_and_bytes(self):
        text = str(d("48 89 d8", address=0x401000))
        assert "0x401000" in text
        assert "48 89 d8" in text
        assert "mov" in text

