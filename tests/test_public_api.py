"""The README's advertised top-level API must work as documented."""

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_flow(self):
        """The exact flow the README shows, on a synthetic binary."""
        from repro.synth.generator import SynthesisParams, synthesize

        binary = synthesize(SynthesisParams(
            n_jump_sites=10, n_write_sites=5, seed=31337, loop_iters=1))

        elf = repro.ElfFile(binary.data)
        instructions = repro.disassemble_text(elf)
        from repro.frontend.matchers import match_jumps

        sites = [i for i in instructions if match_jumps(i)]
        ctx = repro.RewriteContext(elf=elf,
                                   options=repro.RewriteOptions(mode="loader"),
                                   instructions=instructions)
        counter = ctx.add_runtime_data(4096)
        result = ctx.rewrite(
            [repro.PatchRequest(insn=i,
                                instrumentation=repro.Counter(counter))
             for i in sites])
        assert result.stats.success_pct == 100.0

        machine = repro.Machine(result.data)
        run = machine.run()
        assert run.observable == repro.run_elf(binary.data).observable

    def test_version(self):
        assert repro.__version__

    def test_compile_matcher_export(self):
        matcher = repro.compile_matcher("size >= 5 and jumps")
        insn = repro.decode(b"\xe9\x00\x00\x00\x00", 0)
        assert matcher(insn)

    def test_error_hierarchy(self):
        from repro.errors import (
            DecodeError,
            ElfError,
            EncodeError,
            PatchError,
            VmError,
        )

        for exc in (DecodeError, EncodeError, ElfError, PatchError, VmError):
            assert issubclass(exc, repro.ReproError)
