"""The matcher-expression DSL: lexer, parser, evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.frontend.match_expr import (
    And,
    Bareword,
    Comparison,
    MatchExprError,
    Not,
    Or,
    compile_matcher,
    parse,
    tokenize,
)
from repro.x86.decoder import decode


def d(hexstr: str, address: int = 0x401000):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=address)


JCC = d("74 10")
JMP32 = d("e9 00 01 00 00")
CALL = d("e8 00 01 00 00")
STORE = d("48 89 03")
LOAD = d("48 8b 03")
RET = d("c3")
RIPSTORE = d("48 89 05 00 10 00 00")


class TestLexer:
    def test_tokens(self):
        tokens = tokenize('size >= 0x10 and mnemonic == "mov"')
        kinds = [t.kind for t in tokens]
        assert kinds == ["word", "cmp", "hex", "word", "word", "cmp",
                        "string", "eof"]

    def test_regex_token(self):
        tokens = tokenize("mnemonic =~ /j.*/")
        assert tokens[2].kind == "regex"

    def test_bad_character(self):
        with pytest.raises(MatchExprError):
            tokenize("size $ 5")


class TestParser:
    def test_precedence_and_binds_tighter(self):
        ast = parse("ret or jmp and jcc")
        assert isinstance(ast, Or)
        assert isinstance(ast.right, And)

    def test_parentheses(self):
        ast = parse("(ret or jmp) and jcc")
        assert isinstance(ast, And)
        assert isinstance(ast.left, Or)

    def test_not(self):
        ast = parse("not not ret")
        assert isinstance(ast, Not)
        assert isinstance(ast.operand, Not)
        assert isinstance(ast.operand.operand, Bareword)

    def test_comparison_nodes(self):
        ast = parse("size >= 5")
        assert isinstance(ast, Comparison)
        assert ast.field == "size" and ast.op == ">=" and ast.value == 5

    @pytest.mark.parametrize("bad", [
        "", "size >=", "size 5", "(ret", "ret)", "bogusword",
        "mnemonic > 5", "size =~ 5", "size == \"x\" extra",
        "mnemonic =~ /(/",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(MatchExprError):
            parse(bad)


class TestEvaluation:
    def test_barewords(self):
        matcher = compile_matcher("jumps")
        assert matcher(JCC) and matcher(JMP32)
        assert not matcher(CALL) and not matcher(RET)

    def test_mnemonic_equality(self):
        matcher = compile_matcher('mnemonic == "call"')
        assert matcher(CALL)
        assert not matcher(JMP32)

    def test_size_comparisons(self):
        big = compile_matcher("size >= 5")
        assert big(JMP32) and big(CALL) and not big(JCC)
        assert compile_matcher("size < 2")(RET)

    def test_regex(self):
        matcher = compile_matcher("mnemonic =~ /j.*/")
        assert matcher(JCC) and matcher(JMP32)
        assert not matcher(CALL)

    def test_regex_is_fullmatch(self):
        assert not compile_matcher("mnemonic =~ /mo/")(STORE)
        assert compile_matcher("mnemonic =~ /mov/")(STORE)

    def test_addr_ranges(self):
        matcher = compile_matcher("addr >= 0x401000 and addr < 0x402000")
        assert matcher(JCC)
        assert not matcher(d("74 10", address=0x500000))

    def test_mem_write_vs_heap_write(self):
        assert compile_matcher("mem-write")(RIPSTORE)
        assert not compile_matcher("heap-writes")(RIPSTORE)
        assert compile_matcher("mem-write and not rip-relative")(STORE)
        assert not compile_matcher("mem-write and not rip-relative")(RIPSTORE)

    def test_target_field(self):
        matcher = compile_matcher("target == 0x401105")
        assert matcher(JMP32)  # 0x401000 + 5 + 0x100
        assert not matcher(RET)  # target is None -> False

    def test_boolean_composition(self):
        matcher = compile_matcher('(jumps or calls) and size >= 5')
        assert matcher(JMP32) and matcher(CALL)
        assert not matcher(JCC)

    def test_mem_read(self):
        assert compile_matcher("mem-read")(LOAD)
        assert not compile_matcher("mem-read")(STORE)

    def test_movq_xmm_load_is_a_read(self):
        """F3 0F 7E is ``movq (%rax),%xmm0``, a load; 66 0F 7E (movd
        %xmm0,(%rax)) shares the opcode and stores."""
        load = d("f3 0f 7e 00")
        assert compile_matcher("mem-read")(load)
        assert not compile_matcher("mem-write")(load)
        assert not compile_matcher("heap-writes")(load)
        store = d("66 0f 7e 00")
        assert compile_matcher("mem-write")(store)
        assert not compile_matcher("mem-read")(store)

    @given(st.sampled_from(["jumps", "heap-writes", "calls", "all"]))
    def test_barewords_match_registry(self, name):
        from repro.frontend.matchers import MATCHERS

        matcher = compile_matcher(name)
        registry = MATCHERS[name]
        for insn in (JCC, JMP32, CALL, STORE, LOAD, RET, RIPSTORE):
            assert matcher(insn) == registry(insn)


class TestIntegration:
    def test_expression_in_instrument_elf(self):
        from repro.core.pipeline import RewriteOptions
        from repro.frontend.tool import instrument_elf
        from repro.synth.generator import SynthesisParams, synthesize
        from repro.vm.machine import run_elf

        binary = synthesize(SynthesisParams(
            n_jump_sites=15, n_write_sites=15, seed=888, loop_iters=1))
        orig = run_elf(binary.data)
        report = instrument_elf(
            binary.data, compile_matcher("jcc and size == 2"),
            options=RewriteOptions(mode="loader"))
        assert report.n_sites > 0
        assert run_elf(report.result.data).observable == orig.observable
