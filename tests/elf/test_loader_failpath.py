"""The loader stub's failure diagnostics, exercised in the VM."""

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Empty
from repro.elf.builder import hello_world
from repro.elf.loader import LOADER_FAIL_EXIT, _FAIL_MESSAGE, build_loader, Mapping
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.vm.machine import run_elf
from repro.x86.decoder import decode_buffer


class TestFailPath:
    def test_stub_reports_unopenable_binary(self):
        """With a path the VM cannot open, the stub must exit loudly
        instead of letting execution reach unmapped trampolines."""
        data = hello_world(b"never printed\n")
        elf = ElfFile(data)
        instructions = disassemble_text(elf)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=instructions[0], instrumentation=Empty())])

        # Corrupt the embedded path: replace "/proc/self/exe" with a
        # path the VM's open() rejects.
        patched = result.data.replace(b"/proc/self/exe\x00",
                                      b"/no/such/path\x00\x00")
        run = run_elf(patched)
        assert run.exit_code == LOADER_FAIL_EXIT
        assert run.stdout == _FAIL_MESSAGE  # written to fd 2

    def test_happy_path_prints_nothing(self):
        data = hello_world(b"yes\n")
        elf = ElfFile(data)
        instructions = disassemble_text(elf)
        ctx = RewriteContext(elf=elf, options=RewriteOptions(mode="loader"),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=instructions[0], instrumentation=Empty())])
        run = run_elf(result.data)
        assert run.exit_code == 0
        assert run.stdout == b"yes\n"  # no loader noise

    def test_custom_self_path_embedded(self):
        stub = build_loader(0x600000, [Mapping(0x700000, 0x1000, 0x2000)],
                            0x401000, pie=False,
                            self_path="/opt/lib/libx.so")
        assert b"/opt/lib/libx.so\x00" in stub

    def test_fail_path_decodes(self):
        stub = build_loader(0x600000, [], 0x401000, pie=False)
        insns = decode_buffer(stub, address=0x600000)
        names = [i.mnemonic for i in insns]
        # open, (mmap loop skipped: no mappings), close, plus the failure
        # path's write+exit syscalls are all present in the stub body.
        assert names.count("syscall") >= 4
