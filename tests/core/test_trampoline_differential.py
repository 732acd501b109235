"""Production trampoline templates vs the Assembler-built reference
(``reference_trampoline``).

Every combination of displaced instruction, instrumentation body,
trampoline address and ``inject_bug`` must give the same bytes, the same
size and the same exception (type and message) on both paths.
"""

import pytest

from repro.analysis.liveness import LivenessAnalysis
from repro.apps.tracer import TraceRecord
from repro.core.templates import (
    BUILTIN_TEMPLATES,
    TemplateError,
    TrampolineTemplate,
)
from repro.core.trampoline import (
    CallFunction,
    Counter,
    Empty,
    build_trampoline,
    trampoline_size,
)
from repro.errors import EncodeError, PatchError
from repro.frontend.matchers import match_heap_writes, match_jumps
from repro.synth.generator import SynthesisParams, synthesize
from repro.x86 import encoder as enc
from repro.x86.decoder import decode
from repro.frontend.lineardisasm import disassemble_text
from repro.elf.reader import ElfFile

from tests.core import reference_trampoline as ref

SITE = 0x401000

#: Displaced instructions: every relocation kind, and the memory-operand
#: layouts a body's operand ``lea`` rebuilds.
INSNS = {
    "plain": "48 89 03",
    "disp8": "48 89 43 10",
    "disp32": "48 89 83 00 01 00 00",
    "sib-rsp": "48 89 04 24",
    "sib-rex-xb": "4a 89 44 e5 08",
    "sib-nobase": "c6 04 25 00 10 00 00 01",
    "rex-b": "41 89 07",
    "reg-reg": "89 c8",
    "nop": "90",
    "movabs": "48 b9 88 77 66 55 44 33 22 11",
    "ret": "c3",
    "jmp-rel8": "eb 10",
    "jmp-rel8-back": "eb f0",
    "jmp-rel32": "e9 00 10 00 00",
    "jcc-rel8": "74 10",
    "jcc-rel8-back": "75 f0",
    "jcc-rel32": "0f 8c 00 10 00 00",
    "call": "e8 fb ff ff ff",
    "loop": "e2 05",
    "loopz": "e1 05",
    "loopnz": "e0 05",
    "jrcxz": "e3 05",
    "jmp-reg": "ff e0",
    "rip-load": "48 8b 05 00 10 00 00",
    "rip-store-imm": "c7 05 10 00 00 00 01 00 00 00",
    "rip-jmp-mem": "ff 25 00 10 00 00",
    "rip-vex": "c5 fa 6f 05 00 10 00 00",
}


class _Live:
    """A liveness stand-in: the given registers (and, optionally, every
    flag) are dead at every site."""

    def __init__(self, dead=(), flags_dead=False):
        self.dead = frozenset(dead)
        self.flags_dead = flags_dead

    def at(self, address):
        return self

    def reg_is_dead(self, reg):
        return reg in self.dead

    def flags_are_dead(self, mask):
        return self.flags_dead


def _bound(instr, live):
    instr.bind_liveness(live)
    return instr


def bodies():
    """(id, factory) for every body shape; factories give fresh bodies
    so no template memo is shared between the two paths' runs."""
    custom = TrampolineTemplate.from_dict({
        "name": "custom", "params": ["flag"],
        "body": [
            {"op": "save", "reg": "r12"},
            {"op": "load_operand_addr", "reg": "r12"},
            {"op": "load_imm", "reg": "rax", "value": "{flag}"},
            {"op": "store_imm8", "base": "rax", "value": 1},
            {"op": "store_imm8", "base": "r13", "offset": 16, "value": 2},
            {"op": "store_imm8", "base": "rsp", "value": 3},
            {"op": "load_operand_addr", "reg": "rsi"},
            {"op": "inc_mem", "base": "rbp", "offset": 0x200},
            {"op": "raw", "hex": "9090"},
            {"op": "restore", "reg": "r12"},
        ],
    })
    return [
        ("empty", Empty),
        ("counter", lambda: Counter(0x600000)),
        ("counter-slim-flags", lambda: _bound(Counter(0x600000),
                                              _Live(flags_dead=True))),
        ("counter-slim-rcx", lambda: _bound(Counter(0x600000),
                                            _Live(dead={enc.RCX}))),
        ("counter-slim-r9", lambda: _bound(Counter(0x600000),
                                           _Live(dead={enc.R9}, flags_dead=True))),
        ("counter-pic", lambda: Counter(0x600000, pic=True)),
        ("counter-pic-noflags", lambda: _bound(Counter(0x600000, pic=True),
                                               _Live(flags_dead=True))),
        ("call", lambda: CallFunction(0x900000)),
        ("call-mem", lambda: CallFunction(0x900000, pass_mem_operand=True)),
        ("call-clobbers", lambda: CallFunction(
            0x900000, pass_mem_operand=True, clobbers=(enc.RAX, enc.R10))),
        ("call-nothing-clobbered", lambda: CallFunction(
            0x900000, clobbers=(), preserves_flags=True)),
        ("call-slim", lambda: _bound(
            CallFunction(0x900000, pass_mem_operand=True),
            _Live(dead={enc.RCX, enc.R8, enc.RDI}, flags_dead=True))),
        ("json-counter", lambda: BUILTIN_TEMPLATES["counter"].instantiate(
            counter=0x600000)),
        ("json-call-with-addr", lambda: BUILTIN_TEMPLATES[
            "call-with-addr"].instantiate(func=0x900000)),
        ("json-empty", lambda: BUILTIN_TEMPLATES["empty"].instantiate()),
        ("json-custom", lambda: custom.instantiate(flag=0x600010)),
        ("trace", lambda: TraceRecord(0x600000, 1024)),
    ]


#: Trampoline starts: ordinary, far above the site, negative PIE link
#: offsets, both edges of a site's rel32 reach and past them, and out of
#: every reach (rip-relative operands then fail with PatchError).
ADDRESSES = (
    0x700000,
    0x12345000,
    -0x1000,
    -0x7FF00000,
    SITE - (1 << 31) + 64,
    SITE + (1 << 31) - 64,
    SITE + (1 << 31) + 64,
    0x40_0000_0000,
)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (PatchError, EncodeError, TemplateError) as exc:
        return (type(exc).__name__, str(exc))


def d(hexstr: str, address: int = SITE):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=address)


@pytest.mark.parametrize("body_id,factory", bodies(),
                         ids=[b for b, _ in bodies()])
def test_templates_match_reference(body_id, factory):
    for name, hexstr in INSNS.items():
        insn = d(hexstr)
        got_size = outcome(trampoline_size, insn, factory())
        want_size = outcome(ref.trampoline_size, insn, factory())
        assert got_size == want_size, name
        for t in ADDRESSES:
            for bug in (False, True):
                got = outcome(build_trampoline, insn, factory(), t, None, bug)
                want = outcome(ref.build_trampoline, insn, factory(), t, None,
                               bug)
                assert got == want, (name, hex(t), bug)


def test_exceptions_are_the_documented_ones():
    # An unreachable rip-relative operand is a PatchError, an
    # out-of-range rel32 an EncodeError, on both paths.
    for impl in (build_trampoline, ref.build_trampoline):
        with pytest.raises(PatchError):
            impl(d(INSNS["rip-load"]), Empty(), 0x40_0000_0000)
        with pytest.raises(EncodeError):
            impl(d(INSNS["plain"]), Empty(), 0x40_0000_0000)
        with pytest.raises(EncodeError):
            impl(d(INSNS["jcc-rel32"]), Counter(0x600000), SITE + (1 << 31))


def test_size_mismatch_still_raises():
    insn = d(INSNS["plain"])
    size = trampoline_size(insn, Counter(0x600000))
    for impl in (build_trampoline, ref.build_trampoline):
        with pytest.raises(PatchError, match="size mismatch"):
            impl(insn, Counter(0x600000), 0x700000, size + 1)


@pytest.mark.parametrize("flags_dead", [False, True])
def test_pic_counter_reach_edges_match(flags_dead):
    insn = d(INSNS["ret"])
    instr = _bound(Counter(0x7000_0000, pic=True), _Live(flags_dead=flags_dead))
    lo, hi = instr.reach(insn)
    for t in (lo - 1, lo, hi - 1, hi):
        for bug in (False, True):
            got = outcome(build_trampoline, insn, instr, t, None, bug)
            want = outcome(ref.build_trampoline, insn, instr, t, None, bug)
            assert got == want
    assert outcome(build_trampoline, insn, instr, lo)[0] == "ok"
    assert outcome(build_trampoline, insn, instr, lo - 1)[0] == "EncodeError"


@pytest.mark.parametrize("pie", [False, True])
def test_liveness_bound_bodies_match_on_a_binary(pie):
    """Real liveness plans, at every jump and heap-write site of a
    synthesized binary, below and above the image."""
    data = synthesize(SynthesisParams(n_jump_sites=60, n_write_sites=60,
                                      seed=21, pie=pie)).data
    insns = list(disassemble_text(ElfFile(data)))
    analysis = LivenessAnalysis(insns)
    sites = [i for i in insns if match_jumps(i) or match_heap_writes(i)]
    assert len(sites) > 60

    def fresh():
        out = [Counter(0x600000), Counter(0x600000, pic=True),
               CallFunction(0x900000, pass_mem_operand=True),
               CallFunction(0x900000, clobbers=(enc.RAX,))]
        for instr in out:
            instr.bind_liveness(analysis)
        return out

    prod, oracle = fresh(), fresh()
    blind = [Counter(0x600000), Counter(0x600000, pic=True),
             CallFunction(0x900000, pass_mem_operand=True),
             CallFunction(0x900000, clobbers=(enc.RAX,))]
    for insn in sites:
        for p, o, b in zip(prod, oracle, blind):
            assert trampoline_size(insn, p) == ref.trampoline_size(insn, o)
            saved = ref.trampoline_size(insn, b) - ref.trampoline_size(insn, o)
            assert p.saved_cost(insn)[0] == saved
            for t in (-0x200000, 0x700000, 0x7FFF0000):
                assert (outcome(build_trampoline, insn, p, t, None, False)
                        == outcome(ref.build_trampoline, insn, o, t, None,
                                   False))
