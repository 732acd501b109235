"""The injected loader stub: correct mappings, register transparency."""

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Empty
from repro.elf.builder import hello_world
from repro.elf.loader import Mapping, build_loader, loader_size_estimate
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.vm.machine import Machine
from repro.x86.decoder import decode_buffer
from tests.conftest import requires_native


class TestBuildLoader:
    def test_size_estimate_holds(self):
        for n in (0, 1, 10, 100):
            mappings = [Mapping(vaddr=0x700000 + i * 0x1000, size=0x1000,
                                offset=0x2000 + i * 0x1000) for i in range(n)]
            stub = build_loader(0x600000, mappings, 0x401000, pie=False)
            assert len(stub) <= loader_size_estimate(n)

    def test_stub_decodes(self):
        stub = build_loader(0x600000, [Mapping(0x700000, 0x1000, 0x2000)],
                            0x401000, pie=False)
        insns = decode_buffer(stub, address=0x600000)
        names = [i.mnemonic for i in insns]
        assert "syscall" in names
        assert names.count("syscall") >= 3  # open, mmap, close
        assert "ret" in names  # the tail-jump

    def test_pie_stub_has_base_discovery(self):
        stub = build_loader(0x600000, [Mapping(0x700000, 0x1000, 0x2000)],
                            0x1000, pie=True)
        insns = decode_buffer(stub, address=0x600000)
        # A rip-relative lea computing the runtime base.
        assert any(i.mnemonic == "lea" and i.rip_relative for i in insns)


def _patched_hello(**opt):
    data = hello_world(b"stub test\n")
    elf = ElfFile(data)
    insns = disassemble_text(elf)
    # hello_world has no jumps; patch the first mov instead so a
    # trampoline (and hence loader mappings) exist.
    site = insns[0]
    ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader", **opt),
                         instructions=insns)
    return data, ctx.rewrite([PatchRequest(insn=site, instrumentation=Empty())])


class TestStubExecution:
    def test_mappings_performed_in_vm(self):
        data, result = _patched_hello()
        machine = Machine(result.data)
        run = machine.run()
        assert run.stdout == b"stub test\n"
        assert run.exit_code == 0
        # Every grouped mapping must be live in the address space.
        for block_base, _ in result.grouping.mappings():
            assert machine.mem.is_mapped(block_base)

    def test_physical_sharing_observable(self):
        """Two blocks mapped to the same merged physical blob share a
        frame in the VM (the page-grouping RAM saving)."""
        data, result = _patched_hello()
        machine = Machine(result.data)
        machine.run()
        frames = machine.mem.physical_frames()
        pages = machine.mem.mapped_pages()
        assert frames <= pages  # sharing can only reduce

    @requires_native
    def test_stub_runs_natively(self, run_native):
        _, result = _patched_hello()
        code, out = run_native(result.data)
        assert (code, out) == (0, b"stub test\n")

    @requires_native
    def test_granularity_64_native(self, run_native):
        _, result = _patched_hello(granularity=64)
        code, out = run_native(result.data)
        assert (code, out) == (0, b"stub test\n")
