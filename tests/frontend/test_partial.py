"""Partial-disassembly (locality) patching."""

import pytest

from repro.core.pipeline import RewriteOptions
from repro.elf.reader import ElfFile
from repro.errors import PatchError
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.partial import (
    WINDOW_BYTES,
    decode_window,
    decode_windows,
    patch_addresses,
)
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


def workload(**kw):
    defaults = dict(n_jump_sites=20, n_write_sites=15, seed=321, loop_iters=2)
    defaults.update(kw)
    return synthesize(SynthesisParams(**defaults))


class TestDecodeWindow:
    def test_window_matches_linear_disassembly(self):
        binary = workload()
        elf = ElfFile(binary.data)
        full = {i.address: i for i in disassemble_text(elf)}
        site = binary.jump_sites[3]
        window = decode_window(elf, site)
        assert window[0].address == site
        for insn in window:
            assert full[insn.address].raw == insn.raw

    def test_window_bounded(self):
        binary = workload()
        elf = ElfFile(binary.data)
        site = binary.jump_sites[0]
        window = decode_window(elf, site)
        assert window[-1].end <= site + WINDOW_BYTES + 15

    def test_non_exec_site_rejected(self):
        binary = workload()
        elf = ElfFile(binary.data)
        with pytest.raises(PatchError):
            decode_window(elf, 0x10)

    def test_window_stops_at_range_end(self):
        binary = workload()
        elf = ElfFile(binary.data)
        lo, hi = elf.exec_ranges()[0]
        window = decode_window(elf, hi - 3)
        assert window
        assert window[-1].end <= hi


class TestDecodeWindows:
    def test_union_dedupes(self):
        binary = workload()
        elf = ElfFile(binary.data)
        sites = binary.jump_sites[:3]
        union = decode_windows(elf, sites)
        addrs = [i.address for i in union]
        assert addrs == sorted(set(addrs))

    def test_inconsistent_sites_rejected(self):
        binary = workload()
        elf = ElfFile(binary.data)
        site = binary.jump_sites[5]
        # A bogus site one byte into the real instruction decodes a
        # different instruction stream covering the same bytes.
        with pytest.raises(PatchError):
            decode_windows(elf, [site, site + 1])


class TestPatchAddresses:
    def test_single_site_local_patch(self):
        """The headline: patch one instruction in a binary without ever
        disassembling the rest of it."""
        binary = workload()
        orig = run_elf(binary.data)
        site = binary.jump_sites[7]
        result = patch_addresses(binary.data, [site],
                                 options=RewriteOptions(mode="loader"))
        assert result.stats.succeeded == 1
        assert run_elf(result.data).observable == orig.observable
        # Only a handful of instruction windows were ever decoded.
        assert len(result.plan.patches) == 1

    def test_multiple_scattered_sites(self):
        binary = workload()
        orig = run_elf(binary.data)
        sites = binary.jump_sites[::5]
        result = patch_addresses(binary.data, sites,
                                 options=RewriteOptions(mode="loader"))
        assert result.stats.succeeded == len(sites)
        assert run_elf(result.data).observable == orig.observable

    def test_coverage_close_to_full_disasm(self):
        """Local windows supply the same forward material the tactics use,
        so per-site success matches the full-disassembly run."""
        binary = workload(n_jump_sites=40)
        sites = binary.jump_sites
        local = patch_addresses(binary.data, sites,
                                options=RewriteOptions(mode="loader"))

        from repro.frontend.tool import instrument_elf

        elf_sites = set(sites)
        full = instrument_elf(
            binary.data,
            lambda i: i.address in elf_sites,
            options=RewriteOptions(mode="loader"),
        )
        assert local.stats.succeeded == full.stats.succeeded

    def test_bad_address_rejected(self):
        binary = workload()
        with pytest.raises(PatchError):
            patch_addresses(binary.data, [0x10])
