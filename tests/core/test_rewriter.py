"""RewriteContext.rewrite end to end: options, emission modes, stats,
failure modes."""

import pytest

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Counter, Empty
from repro.elf import constants as elfc
from repro.elf.builder import TinyProgram, hello_world
from repro.elf.reader import ElfFile
from repro.errors import PatchError
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_jumps
from repro.vm.machine import run_elf


def looping_program(pie: bool = False) -> bytes:
    prog = TinyProgram(pie=pie)
    msg = prog.add_data("m", b"ab")
    a = prog.text
    a.mov_imm32(1, 5)  # rcx = 5
    a.label("loop")
    a.push(1)
    a.mov_imm32(7, 1)
    if pie:
        a.lea_rip(6, "m")
    else:
        a.mov_imm64(6, msg)
    a.mov_imm32(2, 2)
    a.mov_imm32(0, elfc.SYS_WRITE)
    a.syscall()
    a.pop(1)
    a.sub_imm(1, 1)
    a.cmp_imm(1, 0)
    a.jcc(0x5, "loop")
    a.mov_imm32(7, 3)
    a.mov_imm32(0, elfc.SYS_EXIT)
    a.syscall()
    if pie:
        a.labels["m"] = prog.data_vaddr("m") - a.base
    return prog.build()


def rewrite(data: bytes, options: RewriteOptions, instr=None):
    elf = ElfFile(data)
    insns = disassemble_text(elf)
    sites = [i for i in insns if match_jumps(i)]
    ctx = RewriteContext(elf=elf, options=options, instructions=insns)
    return ctx.rewrite([PatchRequest(insn=i, instrumentation=instr or Empty())
                        for i in sites])


class TestModes:
    @pytest.mark.parametrize("mode,grouping", [
        ("phdr", False), ("loader", False), ("loader", True),
    ])
    def test_patched_binary_behaviour_unchanged(self, mode, grouping):
        data = looping_program()
        orig = run_elf(data)
        result = rewrite(data, RewriteOptions(mode=mode, grouping=grouping))
        patched = run_elf(result.data)
        assert patched.observable == orig.observable
        assert patched.instructions > orig.instructions  # trampolines ran

    def test_auto_mode_resolution(self):
        assert RewriteOptions(mode="auto", grouping=True).resolve_mode() == "loader"
        assert RewriteOptions(mode="auto", grouping=False).resolve_mode() == "phdr"

    def test_phdr_mode_output_is_valid_elf(self):
        data = looping_program()
        result = rewrite(data, RewriteOptions(mode="phdr", grouping=False))
        out = ElfFile(result.data)
        # Original entry kept; extra PT_LOADs appended.
        assert out.entry == ElfFile(data).entry
        assert len(out.phdrs) > len(ElfFile(data).phdrs)

    def test_loader_mode_redirects_entry(self):
        data = looping_program()
        result = rewrite(data, RewriteOptions(mode="loader"))
        out = ElfFile(result.data)
        assert out.entry != ElfFile(data).entry

    def test_pie_loader_mode(self):
        data = looping_program(pie=True)
        orig = run_elf(data)
        result = rewrite(data, RewriteOptions(mode="loader"))
        patched = run_elf(result.data)
        assert patched.observable == orig.observable

    def test_pie_negative_offsets_rejected_in_phdr_mode(self):
        data = looping_program(pie=True)
        # PIE space allows negative trampolines; if any land there, phdr
        # mode must refuse rather than emit an invalid p_vaddr.
        try:
            result = rewrite(data, RewriteOptions(mode="phdr"))
        except PatchError:
            return  # acceptable: explicit refusal
        assert all(t.vaddr >= 0 for t in result.trampolines)


class TestStatsAndSize:
    def test_size_pct(self):
        data = looping_program()
        result = rewrite(data, RewriteOptions(mode="loader"))
        assert result.output_size > result.input_size
        assert result.size_pct > 100.0

    def test_grouping_result_attached(self):
        data = looping_program()
        result = rewrite(data, RewriteOptions(mode="loader", granularity=2))
        assert result.grouping is not None
        assert result.grouping.block_pages == 2

    def test_counter_instrumentation_counts(self):
        data = looping_program()
        elf = ElfFile(data)
        counter_vaddr = 0x900000
        insns = disassemble_text(elf)
        sites = [i for i in insns if match_jumps(i)]
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=insns)
        ctx.space.reserve(counter_vaddr, counter_vaddr + 0x1000)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=Counter(counter_vaddr))
             for i in sites]
        )
        from repro.vm.machine import Machine
        from repro.vm.memory import PROT_READ, PROT_WRITE

        machine = Machine(result.data)
        machine.mem.map_anonymous(counter_vaddr, 0x1000, PROT_READ | PROT_WRITE)
        run = machine.run()
        assert run.observable == run_elf(data).observable
        # The loop's jcc executes 5 times.
        assert machine.mem.read_u64(counter_vaddr) == 5


class TestRuntimeCode:
    def test_add_runtime_code_included(self):
        data = looping_program()
        elf = ElfFile(data)
        insns = disassemble_text(elf)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=insns)
        vaddr = ctx.add_runtime_code(lambda v: b"\xc3" * 16, 16)
        result = ctx.rewrite([])
        assert any(t.vaddr == vaddr for t in result.trampolines)

    def test_runtime_code_size_mismatch_rejected(self):
        data = looping_program()
        elf = ElfFile(data)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(),
                             instructions=disassemble_text(elf))
        with pytest.raises(PatchError):
            ctx.add_runtime_code(lambda v: b"\xc3", 16)


class TestErrorPaths:
    def test_unknown_emission_mode_rejected(self):
        data = looping_program()
        with pytest.raises(PatchError, match="unknown emission mode"):
            rewrite(data, RewriteOptions(mode="bogus"))

    def test_phdr_segment_overflow_rejected(self):
        data = looping_program()
        elf = ElfFile(data)
        # Simulate a program-header table already at the 16-bit e_phnum
        # limit: appending even one trampoline segment must overflow.
        elf.ehdr.phnum = 0xFFFF
        insns = disassemble_text(elf)
        sites = [i for i in insns if match_jumps(i)]
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="phdr"),
                             instructions=insns)
        with pytest.raises(PatchError, match="too many segments"):
            ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                         for i in sites])

    def test_phdr_negative_pie_offset_rejected(self):
        data = looping_program(pie=True)
        elf = ElfFile(data)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="phdr"),
                             instructions=disassemble_text(elf))
        # Exhaust the non-negative range so the next allocation must land
        # at a negative PIE link-time offset.
        ctx.space.reserve(0, ctx.space.hi_bound)
        vaddr = ctx.add_runtime_code(lambda v: b"\xc3" * 16, 16)
        assert vaddr < 0
        with pytest.raises(PatchError, match="negative PIE"):
            ctx.rewrite([])

    def test_runtime_code_size_mismatch_message(self):
        data = looping_program()
        elf = ElfFile(data)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(),
                             instructions=disassemble_text(elf))
        with pytest.raises(PatchError, match=r"size 1 != reserved 16"):
            ctx.add_runtime_code(lambda v: b"\xc3", 16)
        # The failed registration must not leave a half-added trampoline.
        assert ctx.runtime == []


class TestEdgeCases:
    def test_no_sites_returns_original(self):
        data = hello_world()
        elf = ElfFile(data)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(),
                             instructions=disassemble_text(elf))
        result = ctx.rewrite([])
        assert result.data == data

    def test_no_exec_segment_rejected(self):
        data = bytearray(hello_world())
        elf = ElfFile(bytes(data))
        # Clear PF_X on every phdr.
        for p in elf.phdrs:
            p.flags &= ~elfc.PF_X
        with pytest.raises(PatchError):
            RewriteContext(elf=elf, options=RewriteOptions(), instructions=[])
