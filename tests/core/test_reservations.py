"""Loader-mode reservation segments and PT_LOAD ordering.

Regression tests for the two ELF-loading hazards discovered while
instrumenting glibc: (1) the stub's MAP_FIXED mmaps must land inside a
span the program loader reserved (zero-fill PT_LOADs), or they clobber
whatever ASLR placed nearby; (2) dynamic loaders derive the total map
span from the first/last PT_LOAD, so entries must be vaddr-sorted.
"""

from repro.core.pipeline import RewriteOptions
from repro.elf import constants as elfc
from repro.elf.reader import ElfFile
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


def patched(pie=True, **opts):
    binary = synthesize(SynthesisParams(
        n_jump_sites=40, n_write_sites=20, seed=60606, pie=pie, loop_iters=1))
    options = RewriteOptions(mode="loader", **opts)
    report = instrument_elf(binary.data, "jumps", options=options)
    return binary, report


class TestPhdrOrdering:
    def test_pt_loads_sorted_by_vaddr(self):
        _, report = patched()
        out = ElfFile(report.result.data)
        loads = [p for p in out.phdrs if p.type == elfc.PT_LOAD]
        vaddrs = [p.vaddr for p in loads]
        assert vaddrs == sorted(vaddrs)

    def test_first_and_last_span_everything(self):
        _, report = patched()
        out = ElfFile(report.result.data)
        loads = [p for p in out.phdrs if p.type == elfc.PT_LOAD]
        hi = max(p.vaddr + p.memsz for p in loads)
        assert loads[-1].vaddr + loads[-1].memsz == hi


class TestReservations:
    def test_trampoline_span_covered_by_pt_loads(self):
        """Every positive-vaddr loader mapping must fall inside some
        PT_LOAD (reservation or real), so the stub overlays the
        process's own memory."""
        _, report = patched()
        out = ElfFile(report.result.data)
        loads = [(p.vaddr, p.vaddr + p.memsz) for p in out.phdrs
                 if p.type == elfc.PT_LOAD]
        assert report.result.grouping is not None
        block = report.result.grouping.block_size
        for base, _gi in report.result.grouping.mappings():
            if base < 0:
                continue  # negative PIE offsets: outside PT_LOAD by design
            assert any(lo <= base and base + block <= hi
                       for lo, hi in loads), hex(base)

    def test_reservations_never_cover_original_image(self):
        binary, report = patched()
        orig = ElfFile(binary.data)
        out = ElfFile(report.result.data)
        orig_loads = {(p.vaddr, p.offset) for p in orig.phdrs
                      if p.type == elfc.PT_LOAD}
        for p in out.phdrs:
            if p.type != elfc.PT_LOAD or p.filesz != 0 or p.memsz == 0:
                continue
            # zero-fill reservation: must not overlap any original range
            for q in orig.phdrs:
                if q.type != elfc.PT_LOAD:
                    continue
                assert (p.vaddr + p.memsz <= q.vaddr
                        or p.vaddr >= q.vaddr + q.memsz)

    def test_behaviour_with_reservations(self):
        binary, report = patched()
        assert (run_elf(report.result.data).observable
                == run_elf(binary.data).observable)

    def test_nonpie_also_reserved(self):
        binary, report = patched(pie=False)
        out = ElfFile(report.result.data)
        zero_loads = [p for p in out.phdrs
                      if p.type == elfc.PT_LOAD and p.filesz == 0
                      and p.memsz > 0]
        assert zero_loads, "loader mode must reserve the trampoline span"
        assert (run_elf(report.result.data).observable
                == run_elf(binary.data).observable)
