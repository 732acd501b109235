"""Symbol-guided disassembly (the data-in-.text countermeasure)."""

import pytest

from repro.elf.reader import ElfFile
from repro.elf.symbols import function_ranges, function_symbols
from repro.errors import ElfError
from repro.frontend.lineardisasm import disassemble_functions, disassemble_text
from repro.frontend.tool import instrument_elf
from repro.core.pipeline import RewriteOptions
from repro.synth.generator import SynthesisParams, synthesize
from tests.conftest import requires_gcc


class TestSymbolParsing:
    @requires_gcc
    def test_compiled_binary_symbols(self, compiled_corpus):
        path = next(iter(compiled_corpus.values()))
        elf = ElfFile(path.read_bytes())
        syms = function_symbols(elf)
        names = {s.name for s in syms}
        assert "main" in names
        assert "fib" in names
        main = next(s for s in syms if s.name == "main")
        assert main.size > 0
        text = elf.section(".text")
        assert text.vaddr <= main.value < text.vaddr + text.size

    @requires_gcc
    def test_ranges_disjoint_sorted(self, compiled_corpus):
        path = next(iter(compiled_corpus.values()))
        ranges = function_ranges(ElfFile(path.read_bytes()))
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi <= b_lo
            assert a_lo < a_hi

    def test_synthetic_binary_has_no_symbols(self):
        binary = synthesize(SynthesisParams(seed=1))
        elf = ElfFile(binary.data)
        assert function_symbols(elf) == []
        with pytest.raises(ElfError):
            disassemble_functions(elf)


@requires_gcc
class TestSymbolFrontend:
    def test_instructions_subset_of_linear_on_clean_binary(self, compiled_corpus):
        """On clean compiler output, symbol-guided decoding agrees with
        the linear sweep wherever both cover an address."""
        path = next(iter(compiled_corpus.values()))
        elf = ElfFile(path.read_bytes())
        linear = {i.address: i.raw for i in disassemble_text(elf)}
        for insn in disassemble_functions(elf):
            if insn.address in linear:
                assert linear[insn.address] == insn.raw

    def test_instrument_with_symbols_frontend(self, compiled_corpus,
                                              run_native):
        variant = "O2_pie"
        if variant not in compiled_corpus:
            pytest.skip("O2_pie unavailable")
        data = compiled_corpus[variant].read_bytes()
        ref_code, ref_out = run_native(data)
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"),
                                frontend="symbols")
        assert report.n_sites > 0
        code, out = run_native(report.result.data)
        assert (code, out) == (ref_code, ref_out)

    def test_unknown_frontend_rejected(self, compiled_corpus):
        path = next(iter(compiled_corpus.values()))
        with pytest.raises(ValueError):
            instrument_elf(path.read_bytes(), "jumps", frontend="psychic")
