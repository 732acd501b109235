"""JSON trampoline templates: validation, emission, end-to-end use."""

import pytest

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    TemplateError,
    TrampolineTemplate,
    load_template,
)
from repro.core.trampoline import build_trampoline, trampoline_size
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_jumps
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import Machine, run_elf
from repro.x86.decoder import decode, decode_buffer


def d(hexstr: str, address: int = 0x401000):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=address)


class TestValidation:
    def test_minimal(self):
        t = TrampolineTemplate.from_dict({"name": "t", "body": []})
        assert t.name == "t" and t.params == ()

    def test_json_loading(self):
        t = TrampolineTemplate.from_json(
            '{"name": "x", "params": ["p"], '
            '"body": [{"op": "load_imm", "reg": "rax", "value": "{p}"}]}'
        )
        assert t.params == ("p",)

    @pytest.mark.parametrize("bad", [
        {},  # no name
        {"name": "t"},  # no body
        {"name": "t", "body": [{"nop": 1}]},  # op missing
        {"name": "t", "body": [{"op": "frobnicate"}]},
        {"name": "t", "body": [{"op": "save"}]},  # reg missing
        {"name": "t", "body": [{"op": "save", "reg": "xmm0"}]},
        {"name": "t", "body": [{"op": "load_imm", "reg": "rax"}]},
        {"name": "t", "body": [{"op": "call"}]},
        {"name": "t", "body": [{"op": "raw", "hex": "zz"}]},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(TemplateError):
            TrampolineTemplate.from_dict(bad)

    def test_bad_json(self):
        with pytest.raises(TemplateError):
            TrampolineTemplate.from_json("{not json")

    def test_instantiation_argument_checking(self):
        t = BUILTIN_TEMPLATES["counter"]
        with pytest.raises(TemplateError):
            t.instantiate()  # missing 'counter'
        with pytest.raises(TemplateError):
            t.instantiate(counter=1, bogus=2)

    def test_load_template_builtin(self):
        assert load_template("counter") is BUILTIN_TEMPLATES["counter"]


class TestEmission:
    def test_counter_template_matches_stock_shape(self):
        instr = BUILTIN_TEMPLATES["counter"].instantiate(counter=0x900000)
        insn = d("48 89 03")
        code = build_trampoline(insn, instr, 0x700000)
        names = [i.mnemonic for i in decode_buffer(code, address=0x700000)]
        assert "pushf" in names and "popf" in names
        assert "inc" in names
        assert names[-1] == "jmp"

    def test_size_is_address_independent(self):
        instr = BUILTIN_TEMPLATES["counter"].instantiate(counter=0x900000)
        insn = d("74 10")
        assert (trampoline_size(insn, instr)
                == len(build_trampoline(insn, instr, 0x12345000)))

    def test_empty_template_adds_nothing(self):
        instr = BUILTIN_TEMPLATES["empty"].instantiate()
        insn = d("48 89 03")
        from repro.core.trampoline import Empty

        assert (trampoline_size(insn, instr)
                == trampoline_size(insn, Empty()))

    def test_raw_op(self):
        t = TrampolineTemplate.from_dict({
            "name": "raw", "body": [{"op": "raw", "hex": "90 90".replace(" ", "")}],
        })
        code = build_trampoline(d("c3"), t.instantiate(), 0x700000)
        assert code.startswith(b"\x90\x90")

    def test_store_imm8_variants(self):
        t = TrampolineTemplate.from_dict({
            "name": "s", "body": [
                {"op": "store_imm8", "base": "rax", "value": 7},
                {"op": "store_imm8", "base": "rax", "offset": 16, "value": 9},
            ],
        })
        code = build_trampoline(d("c3"), t.instantiate(), 0x700000)
        insns = decode_buffer(code, address=0x700000)
        stores = [i for i in insns if i.mnemonic == "mov" and i.writes_rm]
        assert len(stores) == 2

    def test_unbound_parameter_rejected_at_emit(self):
        t = TrampolineTemplate(name="x", params=(),
                               body=({"op": "load_imm", "reg": "rax",
                                      "value": "{oops}"},))
        with pytest.raises(TemplateError):
            build_trampoline(d("c3"), t.instantiate(), 0x700000)


class TestEndToEnd:
    def test_counter_template_counts_in_vm(self):
        binary = synthesize(SynthesisParams(
            n_jump_sites=10, n_write_sites=5, seed=909, loop_iters=3))
        orig = run_elf(binary.data)
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=instructions)
        counter = ctx.add_runtime_data(4096)
        instr = BUILTIN_TEMPLATES["counter"].instantiate(counter=counter)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=instr) for i in sites])
        machine = Machine(result.data)
        run = machine.run()
        assert run.observable == orig.observable
        assert machine.mem.read_u64(counter) > 0

    def test_custom_template_from_json(self):
        """A user-supplied template setting a byte flag."""
        template = load_template("""
        {
          "name": "poke",
          "params": ["flag"],
          "body": [
            {"op": "save", "reg": "rax"},
            {"op": "load_imm", "reg": "rax", "value": "{flag}"},
            {"op": "store_imm8", "base": "rax", "value": 1},
            {"op": "restore", "reg": "rax"}
          ]
        }
        """)
        binary = synthesize(SynthesisParams(
            n_jump_sites=5, n_write_sites=5, seed=910, loop_iters=1))
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)][:1]
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=instructions)
        flag = ctx.add_runtime_data(4096)
        result = ctx.rewrite(
            [PatchRequest(insn=sites[0],
                          instrumentation=template.instantiate(flag=flag))])
        machine = Machine(result.data)
        machine.run()
        assert machine.mem.read(flag, 1) == b"\x01"
