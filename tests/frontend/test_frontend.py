"""Frontend: linear disassembly, matchers on real streams, CLI tool."""

from repro.elf.builder import hello_world
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import MATCHERS, select_sites
from repro.frontend.tool import instrument_elf, main
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


class TestLinearDisasm:
    def test_covers_whole_text(self):
        elf = ElfFile(hello_world())
        insns = disassemble_text(elf)
        text = elf.section(".text")
        assert insns[0].address == text.vaddr
        assert sum(i.length for i in insns) == text.size

    def test_stripped_fallback(self):
        # Strip section headers: e_shoff/e_shnum zeroed.
        raw = bytearray(hello_world())
        raw[0x28:0x30] = b"\x00" * 8  # e_shoff
        raw[0x3C:0x3E] = b"\x00\x00"  # e_shnum
        raw[0x3E:0x40] = b"\x00\x00"  # e_shstrndx
        elf = ElfFile(bytes(raw))
        assert elf.section(".text") is None
        insns = disassemble_text(elf)
        assert insns, "fallback must disassemble the exec segment"

    def test_data_in_code_survives(self):
        binary = synthesize(SynthesisParams(seed=42))
        elf = ElfFile(binary.data)
        insns = disassemble_text(elf)
        # linear stream is contiguous
        for a, b in zip(insns, insns[1:]):
            assert a.end == b.address


class TestMatcherRegistry:
    def test_named_matchers(self):
        assert set(MATCHERS) == {"jumps", "heap-writes", "calls", "all"}

    def test_select_sites_ordered(self):
        binary = synthesize(SynthesisParams(n_jump_sites=20, seed=2))
        insns = disassemble_text(ElfFile(binary.data))
        sites = select_sites(insns, MATCHERS["jumps"])
        assert sites == sorted(sites, key=lambda i: i.address)

    def test_calls_matcher(self):
        binary = synthesize(SynthesisParams(seed=3))
        insns = disassemble_text(ElfFile(binary.data))
        calls = select_sites(insns, MATCHERS["calls"])
        assert calls  # main calls each generated function
        assert all(i.mnemonic == "call" for i in calls)


class TestInstrumentElf:
    def test_report_fields(self):
        binary = synthesize(SynthesisParams(n_jump_sites=25, seed=4))
        report = instrument_elf(binary.data, "jumps")
        assert report.n_sites >= 25
        assert report.stats.total == report.n_sites
        assert "Succ%" in report.summary()

    def test_accepts_callable_matcher(self):
        binary = synthesize(SynthesisParams(seed=5))
        report = instrument_elf(binary.data, lambda i: i.mnemonic == "call")
        assert report.n_sites > 0


class TestCli:
    def test_cli_end_to_end(self, tmp_path, capsys):
        binary = synthesize(SynthesisParams(
            n_jump_sites=15, n_write_sites=10, seed=6, loop_iters=1))
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(binary.data)
        rc = main([str(src), str(dst), "-M", "jumps"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Succ%" in out
        orig = run_elf(binary.data)
        patched = run_elf(dst.read_bytes())
        assert patched.observable == orig.observable

    def test_cli_ablation_flags(self, tmp_path):
        binary = synthesize(SynthesisParams(n_jump_sites=10, seed=7))
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(binary.data)
        rc = main([str(src), str(dst), "-M", "jumps", "--no-t3",
                   "--no-grouping", "--mode", "phdr"])
        assert rc == 0

    def test_cli_counter(self, tmp_path):
        binary = synthesize(SynthesisParams(n_jump_sites=10, seed=8,
                                            loop_iters=1))
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(binary.data)
        rc = main([str(src), str(dst), "-M", "jumps", "-i", "counter"])
        assert rc == 0
