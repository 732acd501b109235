"""Execution tests of the paper's core invariant: **the set of jump
targets is preserved**.

Section 2: "treat all instructions as potential jump targets ... and
preserve the program semantics should control flow happen to jump to I
at runtime."  These programs take indirect jumps straight *onto*
patched sites, T2-evicted successors, and T3-evicted victims — the
punned/overlapping bytes at those addresses must still implement the
original instruction's semantics.
"""


from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.tactics import Tactic
from repro.core.trampoline import Counter, Empty
from repro.elf import constants as elfc
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.vm.machine import Machine, run_elf
from repro.x86 import encoder as enc
from tests.conftest import requires_native


def build_indirect_to_site() -> tuple[bytes, int]:
    """Phase 1 falls through the patch site; phase 2 jumps *onto* it
    indirectly.  Returns (image, site_vaddr)."""
    prog = TinyProgram()
    a = prog.text
    a.raw(b"\x48\x31\xc9")  # xor rcx, rcx
    a.raw(b"\x48\x31\xd2")  # xor rdx, rdx
    a.mov_label64(enc.RAX, "site")
    a.label("site")
    site_off = a.labels["site"]
    a.raw(b"\x48\xff\xc1")  # inc rcx            <- the patch site
    a.raw(b"\x48\x83\xc1\x05")  # add rcx, 5
    a.raw(b"\x48\xff\xc2")  # inc rdx
    a.cmp_imm(enc.RDX, 2)
    a.jcc(0xD, "done")  # jge
    a.jmp_reg(enc.RAX)  # indirect jump BACK ONTO the patched site
    a.label("done")
    # exit(rcx & 0x7f): two passes -> rcx == 12
    a.raw(b"\x48\x89\xcf")  # mov rdi, rcx
    a.raw(b"\x48\x83\xe7\x7f")  # and rdi, 0x7f
    a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
    a.syscall()
    return prog.build(), prog.text_vaddr + site_off


def build_t2_scenario() -> tuple[bytes, int, int]:
    """A site whose only escape is T2 (hostile successor bytes), plus an
    indirect jump straight onto the *evicted successor* in phase 2.

    Returns (image, site_vaddr, successor_vaddr)."""
    prog = TinyProgram()
    a = prog.text
    a.raw(b"\x48\x31\xc9")  # xor rcx, rcx
    a.raw(b"\x48\x31\xd2")  # xor rdx, rdx
    a.mov_label64(enc.RAX, "succ")
    a.jmp("site")
    a.label("site")
    a.raw(b"\x48\xff\xc1")  # inc rcx                 <- patch site (3B)
    a.label("succ")
    a.raw(b"\x48\x83\xc1\xf0")  # add rcx, -16        <- will be evicted
    a.push(enc.RAX)  # 0x50: positive pun material for the eviction
    a.pop(enc.RAX)
    a.raw(b"\x48\xff\xc2")  # inc rdx
    a.cmp_imm(enc.RDX, 2)
    a.jcc(0xD, "done")  # jge
    a.jmp_reg(enc.RAX)  # phase 2: jump ONTO the evicted successor
    a.label("done")
    a.raw(b"\x48\x89\xcf")  # mov rdi, rcx
    a.raw(b"\x48\x83\xe7\x7f")  # and rdi, 0x7f
    a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
    a.syscall()
    image = prog.build()
    return (image, prog.text_vaddr + prog.text.labels["site"],
            prog.text_vaddr + prog.text.labels["succ"])


def patch_site(image: bytes, site_vaddr: int, *, toggles=None,
               instrumentation=None, counter=False):
    elf = ElfFile(image)
    instructions = disassemble_text(elf)
    site = next(i for i in instructions if i.address == site_vaddr)
    ctx = RewriteContext(elf=elf, instructions=instructions,
                         options=RewriteOptions(
                             mode="loader", toggles=toggles or TacticToggles()))
    counter_vaddr = ctx.add_runtime_data(4096) if counter else None
    instr = Counter(counter_vaddr) if counter else (instrumentation or Empty())
    result = ctx.rewrite([PatchRequest(insn=site, instrumentation=instr)])
    return result, counter_vaddr


class TestIndirectJumpOntoPatchedSite:
    def test_semantics_preserved(self):
        image, site = build_indirect_to_site()
        orig = run_elf(image)
        assert orig.exit_code == 12  # 2 * (1 + 5)
        result, counter = patch_site(image, site, counter=True)
        assert result.stats.success_pct == 100.0
        machine = Machine(result.data)
        run = machine.run()
        assert run.exit_code == 12
        # The trampoline executed on BOTH entries: fall-through and the
        # indirect jump straight onto the punned bytes.
        assert machine.mem.read_u64(counter) == 2

    @requires_native
    def test_native(self, run_native):
        image, site = build_indirect_to_site()
        result, _ = patch_site(image, site, counter=True)
        code, _ = run_native(result.data)
        assert code == 12


class TestJumpOntoEvictedSuccessor:
    def test_t2_used_and_semantics_preserved(self):
        image, site, succ = build_t2_scenario()
        orig = run_elf(image)
        # pass 1: inc(1) + add(-16) = -15; pass 2 (enter at succ): -31;
        # exit code = -31 & 0x7f.
        assert orig.exit_code == (-31) & 0x7F
        result, counter = patch_site(image, site, counter=True)
        patch = result.plan.patches[0]
        assert patch.tactic == Tactic.T2, "scenario must force T2"
        machine = Machine(result.data)
        run = machine.run()
        assert run.exit_code == orig.exit_code
        # Site executed once (phase 2 entered at the successor, which
        # must NOT run the patch trampoline).
        assert machine.mem.read_u64(counter) == 1

    @requires_native
    def test_t2_native(self, run_native):
        image, site, _ = build_t2_scenario()
        orig_code, _ = run_native(image)
        result, _ = patch_site(image, site, counter=True)
        code, _ = run_native(result.data)
        assert code == orig_code


class TestJumpOntoT3Victim:
    def test_t3_victim_entry_preserved(self):
        """With T2 disabled the scenario resolves via T3; whichever
        instruction was evicted as the victim, entering the *successor*
        address directly must still behave."""
        image, site, succ = build_t2_scenario()
        orig = run_elf(image)
        result, counter = patch_site(
            image, site, counter=True,
            toggles=TacticToggles(t1=True, t2=False, t3=True))
        patch = result.plan.patches[0]
        assert patch.tactic == Tactic.T3, "scenario must force T3"
        machine = Machine(result.data)
        run = machine.run()
        assert run.exit_code == orig.exit_code
        assert machine.mem.read_u64(counter) == 1

    @requires_native
    def test_t3_native(self, run_native):
        image, site, _ = build_t2_scenario()
        orig_code, _ = run_native(image)
        result, _ = patch_site(
            image, site,
            toggles=TacticToggles(t1=True, t2=False, t3=True))
        code, _ = run_native(result.data)
        assert code == orig_code
