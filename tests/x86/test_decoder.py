"""Unit tests for the exact-length x86-64 decoder."""

import pytest

from repro.analysis.facts import facts_for
from repro.errors import DecodeError
from repro.x86.decoder import decode, decode_buffer
from repro.x86.flow import is_heap_write, is_memory_write
from repro.x86.insn import OperandKind
from repro.x86.tables import Flow


def d(hexstr: str, address: int = 0x1000):
    return decode(bytes.fromhex(hexstr), 0, address=address)


class TestLengths:
    """Exact instruction lengths for representative encodings."""

    CASES = [
        ("90", 1, "nop"),
        ("c3", 1, "ret"),
        ("cc", 1, "int3"),
        ("50", 1, "push"),
        ("5d", 1, "pop"),
        ("f4", 1, "hlt"),
        ("eb 05", 2, "jmp"),
        ("74 10", 2, "je"),
        ("89 d8", 2, "mov"),
        ("48 89 d8", 3, "mov"),
        ("48 83 c0 20", 4, "add"),
        ("e9 00 01 00 00", 5, "jmp"),
        ("e8 00 01 00 00", 5, "call"),
        ("b8 78 56 34 12", 5, "mov"),
        ("0f 84 00 01 00 00", 6, "je"),
        ("48 b8 88 77 66 55 44 33 22 11", 10, "mov"),
        ("48 8b 04 25 00 10 00 00", 8, "mov"),  # SIB abs32
        ("48 8b 80 00 01 00 00", 7, "mov"),  # disp32
        ("48 8b 40 08", 4, "mov"),  # disp8
        ("48 8b 05 10 00 00 00", 7, "mov"),  # rip-relative
        ("48 8d 44 88 08", 5, "lea"),  # SIB with index
        ("66 90", 2, "nop"),
        ("48 90", 2, "nop"),  # rex.W nop
        ("41 90", 2, "xchg"),  # xchg %eax,%r8d: REX.B names r8
        ("f3 90", 2, "pause"),
        ("f3 41 90", 3, "pause"),  # objdump's reading
        ("f3 0f 7e 00", 4, "movq"),  # movq (%rax),%xmm0
        ("0f 1f 84 00 00 00 00 00", 8, "nop"),
        ("f3 0f 1e fa", 4, "sse"),  # endbr64
        ("f2 48 0f 38 f1 c8", 6, "op0f38"),  # crc32
        ("66 0f 3a 0f c1 08", 6, "op0f3a"),  # palignr imm8
        ("c5 f8 77", 3, "vzeroupper"),
        ("c5 f1 fe c2", 4, "vex.m1.fe"),  # vpaddd xmm
        ("c4 e2 71 40 c2", 5, "vex.m2.40"),  # vpmulld
        ("c4 e3 71 0f c2 08", 6, "vex.m3.0f"),  # vpalignr imm8
        ("62 f1 75 08 fe c2", 6, "vex.m1.fe"),  # EVEX vpaddd
        ("f6 c1 01", 3, "test"),  # grp3 /0 has imm8
        ("f7 c1 01 00 00 00", 6, "test"),  # grp3 /0 has imm32
        ("f7 d1", 2, "not"),  # grp3 /2 has no imm
        ("f7 e1", 2, "mul"),
        ("c2 08 00", 3, "ret"),
        ("c8 20 00 01", 4, "enter"),
        ("66 b8 34 12", 4, "mov"),  # opsize16 imm16
        ("66 05 34 12", 4, "add"),  # Iz under 0x66
        ("a4", 1, "movsb"),
        ("f3 aa", 2, "stosb"),
        ("e2 fe", 2, "loop"),
        ("e3 02", 2, "jrcxz"),
        ("ff d0", 2, "call"),  # call rax
        ("ff 25 00 10 00 00", 6, "jmp"),  # jmp [rip+...]
        ("41 ff e3", 3, "jmp"),  # jmp r11
        ("0f 05", 2, "syscall"),
        ("0f af c1", 3, "imul"),
        ("0f b6 c0", 3, "movzx"),
        ("48 0f be 00", 4, "movsx"),
        ("48 63 c8", 3, "movsxd"),
        ("a1 88 77 66 55 44 33 22 11", 9, "mov"),  # moffs64
        ("67 a1 44 33 22 11", 6, "mov"),  # moffs32 with 0x67
        ("0f 90 c0", 3, "seto"),
        ("48 0f 47 c1", 4, "cmova"),
        ("0f c8", 2, "bswap"),
        ("48 0f ba e0 07", 5, "grp8"),  # bt r/m, imm8
    ]

    @pytest.mark.parametrize("hexstr,length,mnemonic", CASES,
                             ids=[c[0] for c in CASES])
    def test_length_and_mnemonic(self, hexstr, length, mnemonic):
        insn = d(hexstr)
        assert insn.length == length
        assert insn.mnemonic == mnemonic


class TestBranches:
    def test_jmp_rel32_target(self):
        insn = d("e9 10 00 00 00", address=0x400000)
        assert insn.flow == Flow.JMP
        assert insn.target == 0x400000 + 5 + 0x10

    def test_jmp_rel8_negative(self):
        insn = d("eb fe", address=0x400000)
        assert insn.target == 0x400000  # self-loop

    def test_jcc_rel32(self):
        insn = d("0f 85 f6 ff ff ff", address=0x1000)
        assert insn.flow == Flow.JCC
        assert insn.rel == -10
        assert insn.target == 0x1000 + 6 - 10

    def test_call_rel32(self):
        insn = d("e8 00 00 00 00", address=0x2000)
        assert insn.flow == Flow.CALL
        assert insn.target == 0x2005

    def test_indirect_jump_has_no_target(self):
        insn = d("ff e0")
        assert insn.is_indirect_jump
        assert insn.target is None

    def test_indirect_call(self):
        insn = d("ff 15 00 10 00 00")
        assert insn.is_indirect_call
        assert insn.rip_relative

    def test_ret(self):
        assert d("c3").is_ret
        assert d("c2 10 00").is_ret

    def test_loop_is_direct_branch(self):
        insn = d("e2 02", address=0x100)
        assert insn.is_direct_branch
        assert insn.target == 0x104
        assert not insn.is_jump  # A1 excludes loop


class TestModRM:
    def test_register_operand(self):
        insn = d("48 89 d8")  # mov rax, rbx
        assert insn.rm_kind == OperandKind.REG
        assert insn.rm == 0  # rax
        assert insn.reg == 3  # rbx

    def test_rex_extension(self):
        insn = d("4d 89 d8")  # mov r8, r11
        assert insn.rm == 8
        assert insn.reg == 11

    def test_rip_relative(self):
        insn = d("48 8b 05 10 00 00 00", address=0x1000)
        assert insn.rm_kind == OperandKind.MEM_RIP
        assert insn.rip_relative
        assert insn.disp == 0x10
        assert insn.mem_base is None

    def test_mem_base_simple(self):
        insn = d("48 89 03")  # mov [rbx], rax
        assert insn.mem_base == 3

    def test_mem_base_sib_rsp(self):
        insn = d("48 89 04 24")  # mov [rsp], rax
        assert insn.mem_base == 4

    def test_mem_base_sib_no_base(self):
        insn = d("48 8b 04 25 00 10 00 00")  # mov rax, [0x1000]
        assert insn.mem_base is None

    def test_mem_base_r13_disp8(self):
        insn = d("41 89 45 00")  # mov [r13], eax
        assert insn.mem_base == 13

    def test_disp_offsets(self):
        insn = d("48 8b 80 44 33 22 11")
        assert insn.disp == 0x11223344
        assert insn.raw[insn.disp_offset:insn.disp_offset + 4] == bytes.fromhex("44332211")

    def test_imm_offsets(self):
        insn = d("48 c7 c0 78 56 34 12")  # mov rax, 0x12345678
        assert insn.imm == 0x12345678
        assert insn.imm_offset == 3
        assert insn.imm_size == 4


#: VEX/EVEX stores to (%rax), as objdump prints them.
VEX_STORES = (
    "c5 f9 7e 00",  # vmovd %xmm0,(%rax)
    "c4 e1 f9 7e 00",  # vmovq %xmm0,(%rax)
    "62 f1 7d 08 7e 00",  # {evex} vmovd %xmm0,(%rax)
    "c4 e3 79 14 00 00",  # vpextrb
    "c4 e3 79 15 00 00",  # vpextrw
    "c4 e3 79 16 00 00",  # vpextrd
    "c4 e3 f9 16 00 00",  # vpextrq
    "c4 e3 79 17 00 00",  # vextractps
    "c4 e3 7d 19 00 00",  # vextractf128
    "c4 e3 79 1d 00 00",  # vcvtps2ph
    "c4 e3 7d 39 00 00",  # vextracti128
    "c4 e2 79 2e 00",  # vmaskmovps %xmm0,%xmm0,(%rax)
    "c4 e2 79 2f 00",  # vmaskmovpd
    "c4 e2 79 8e 00",  # vpmaskmovd
    "c4 e2 f9 8e 00",  # vpmaskmovq
    "62 f3 7d 48 1b 00 00",  # vextractf32x8 $0x0,%zmm0,(%rax)
    "62 f3 7d 48 3b 00 00",  # vextracti32x8 $0x0,%zmm0,(%rax)
    "62 f2 7d 08 8a 00",  # vcompressps %xmm0,(%rax)
    "62 f2 7d 08 8b 00",  # vpcompressd %xmm0,(%rax)
    "62 f2 7d 08 63 00",  # vpcompressb %xmm0,(%rax)
    "62 f2 7d 09 a0 04 08",  # vpscatterdd %xmm0,(%rax,%xmm1,1){%k1}
    "62 f2 7d 09 a1 04 08",  # vpscatterqd
    "62 f2 7d 09 a2 04 08",  # vscatterdps
    "62 f2 7d 09 a3 04 08",  # vscatterqps
    "62 f2 7e 08 30 00",  # vpmovwb %xmm0,(%rax) (EVEX.F3 map 2)
    "62 f2 7e 08 21 00",  # vpmovsdb %xmm0,(%rax)
    "62 f2 7e 08 15 00",  # vpmovusqd %xmm0,(%rax)
    "c5 f8 ae 18",  # vstmxcsr (%rax) (VEX.0F AE /3)
)

#: VEX/EVEX loads sharing an opcode with a store above, as objdump prints
#: them.
VEX_LOADS = (
    "c5 fa 7e 00",  # vmovq (%rax),%xmm0 (VEX.F3.0F 7E)
    "62 f2 7d 08 30 00",  # {evex} vpmovzxbw (%rax),%xmm0 (66, not F3)
    "62 f2 7d 08 21 00",  # {evex} vpmovsxbd (%rax),%xmm0
    "c4 e2 79 20 00",  # vpmovsxbw (%rax),%xmm0
    "62 f2 fd 08 10 00",  # vpsrlvw (%rax),%xmm0,%xmm0
    "c5 f8 ae 10",  # vldmxcsr (%rax) (VEX.0F AE /2)
)

#: Legacy group-opcode (0F AE grp15, 0F C7 grp9) stores, as objdump
#: prints them.
GROUP_STORES = (
    "0f ae 00",  # fxsave (%rax)
    "0f ae 18",  # stmxcsr (%rax)
    "0f ae 20",  # xsave (%rax)
    "48 0f ae 30",  # xsaveopt64 (%rax)
    "0f c7 08",  # cmpxchg8b (%rax)
    "0f c7 20",  # xsavec (%rax)
    "0f c7 28",  # xsaves (%rax)
    "0f c7 38",  # vmptrst (%rax)
)

#: Loads in the same groups.
GROUP_LOADS = (
    "0f ae 08",  # fxrstor (%rax)
    "0f ae 10",  # ldmxcsr (%rax)
    "0f ae 28",  # xrstor (%rax)
    "0f c7 30",  # vmptrld (%rax)
)


class TestWriteDetection:
    def test_mov_store(self):
        assert d("48 89 03").writes_rm  # mov [rbx], rax

    def test_mov_load(self):
        assert not d("48 8b 03").writes_rm

    def test_cmp_never_writes(self):
        assert not d("48 39 03").writes_rm
        assert not d("48 83 3b 05").writes_rm  # grp1 /7 cmp

    def test_grp1_add_writes(self):
        assert d("48 83 03 05").writes_rm  # add qword [rbx], 5

    def test_test_never_writes(self):
        assert not d("f6 03 01").writes_rm
        assert not d("85 03").writes_rm

    def test_not_neg_write(self):
        assert d("f6 13").writes_rm  # not byte [rbx]
        assert d("48 f7 1b").writes_rm  # neg qword [rbx]

    def test_mul_does_not_write_rm(self):
        assert not d("48 f7 23").writes_rm  # mul qword [rbx]

    def test_inc_dec(self):
        assert d("fe 03").writes_rm
        assert d("48 ff 0b").writes_rm
        assert not d("ff 23").writes_rm  # jmp [rbx]

    def test_string_ops(self):
        assert d("aa").string_write  # stosb
        assert d("a4").string_write  # movsb
        assert not d("ac").string_write  # lodsb

    def test_setcc_writes(self):
        assert d("0f 94 03").writes_rm  # sete [rbx]

    def test_sse_store(self):
        assert d("0f 11 03").writes_rm  # movups [rbx], xmm0
        assert not d("0f 10 03").writes_rm  # movups xmm0, [rbx]

    def test_xchg_writes(self):
        assert d("48 87 03").writes_rm

    def test_movq_xmm_load_does_not_write(self):
        assert not d("f3 0f 7e 03").writes_rm  # movq (%rbx),%xmm0
        assert d("66 0f 7e 03").writes_rm  # movd %xmm0,(%rbx)
        assert not d("c5 fa 7e 00").writes_rm  # vmovq (%rax),%xmm0 (VEX.F3)

    @pytest.mark.parametrize("hexstr", VEX_STORES)
    def test_vex_store_writes(self, hexstr):
        assert d(hexstr).writes_rm

    @pytest.mark.parametrize("hexstr", VEX_LOADS)
    def test_vex_load_does_not_write(self, hexstr):
        assert not d(hexstr).writes_rm

    @pytest.mark.parametrize("hexstr", GROUP_STORES)
    def test_group_store_writes(self, hexstr):
        insn = d(hexstr)
        assert insn.writes_rm
        assert is_memory_write(insn) and is_heap_write(insn)
        # The facts stay unknown: xsave* also read EDX:EAX implicitly.
        assert not facts_for(insn).known

    @pytest.mark.parametrize("hexstr", GROUP_LOADS)
    def test_group_load_does_not_write(self, hexstr):
        assert not d(hexstr).writes_rm


class TestErrors:
    def test_truncated(self):
        with pytest.raises(DecodeError):
            decode(b"\xe9\x00\x00", 0)

    def test_invalid_64bit_opcode(self):
        for byte in (0x06, 0x27, 0x60, 0x9A, 0xD4, 0xEA, 0xCE):
            with pytest.raises(DecodeError):
                decode(bytes([byte]), 0)

    def test_empty(self):
        with pytest.raises(DecodeError):
            decode(b"", 0)

    def test_offset_beyond_end(self):
        with pytest.raises(DecodeError):
            decode(b"\x90", 5)

    def test_prefix_run_too_long(self):
        with pytest.raises(DecodeError):
            decode(b"\x66" * 16, 0)


class TestBulk:
    def test_decode_buffer_skips_bad_bytes(self):
        code = b"\x90" + b"\x06" + b"\xc3"  # nop, invalid, ret
        insns = decode_buffer(code)
        assert [i.mnemonic for i in insns] == ["nop", "(bad)", "ret"]
        assert sum(i.length for i in insns) == 3

    def test_addresses_assigned(self):
        insns = decode_buffer(b"\x90\x90\xc3", address=0x400000)
        assert [i.address for i in insns] == [0x400000, 0x400001, 0x400002]
