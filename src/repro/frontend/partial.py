"""Partial (local) disassembly around patch sites.

A key property of the paper's methodology (Section 2.2, Example 3.1):
patching is *local* — "it is possible to patch specific instructions
without complete disassembly information being known".  Tactics only
ever look **forward** from a site (pun material, the successor for T2,
short-jump victims within +129 bytes for T3), so a small window of
instructions after each site is all the rewriter needs.

This module decodes exactly those windows, letting a user patch a
handful of addresses in a huge binary without ever disassembling it.
"""

from __future__ import annotations

from repro.errors import DecodeError, PatchError
from repro.elf.reader import ElfFile
from repro.x86.decoder import decode
from repro.x86.insn import Instruction

# Forward reach a tactic can need: JShort range (2+127) plus one maximal
# instruction so the victim containing the last reachable byte is fully
# decoded.
WINDOW_BYTES = 2 + 127 + 15


def decode_window(elf: ElfFile, site_vaddr: int,
                  window_bytes: int = WINDOW_BYTES) -> list[Instruction]:
    """Decode the instruction at *site_vaddr* and its forward window.

    Stops early (without error) at undecodable bytes or the end of the
    executable range — the rewriter simply sees fewer T2/T3 candidates.
    Raises :class:`PatchError` if the site itself cannot be decoded.
    """
    exec_ranges = elf.exec_ranges()
    containing = [r for r in exec_ranges if r[0] <= site_vaddr < r[1]]
    if not containing:
        raise PatchError(f"site {site_vaddr:#x} is not in executable memory")
    range_end = containing[0][1]

    limit = min(site_vaddr + window_bytes, range_end)
    out: list[Instruction] = []
    vaddr = site_vaddr
    while vaddr < limit:
        avail = min(15, range_end - vaddr)
        try:
            raw = elf.read_vaddr(vaddr, avail)
            insn = decode(raw, 0, address=vaddr)
        except (DecodeError, Exception) as exc:
            if not out:
                raise PatchError(
                    f"cannot decode patch site {site_vaddr:#x}: {exc}"
                ) from exc
            break
        out.append(insn)
        vaddr = insn.end
    return out


def decode_windows(elf: ElfFile, sites: list[int]) -> list[Instruction]:
    """Union of the forward windows of several sites, deduplicated and
    sorted — a drop-in for the ``instructions`` field of
    :class:`repro.core.pipeline.RewriteContext`.

    Windows that disagree about instruction boundaries (a site placed
    mid-instruction of another window) raise: the caller's site list is
    inconsistent.
    """
    by_addr: dict[int, Instruction] = {}
    covered: set[int] = set()
    for site in sorted(sites):
        for insn in decode_window(elf, site):
            prev = by_addr.get(insn.address)
            if prev is not None:
                if prev.raw != insn.raw:
                    raise PatchError(
                        f"inconsistent decodings at {insn.address:#x}"
                    )
                continue
            overlap = set(range(insn.address, insn.end)) & covered
            if overlap and insn.address not in by_addr:
                raise PatchError(
                    f"site windows disagree about instruction boundaries "
                    f"near {insn.address:#x}"
                )
            by_addr[insn.address] = insn
            covered.update(range(insn.address, insn.end))
    return [by_addr[a] for a in sorted(by_addr)]


def patch_addresses(
    data: bytes,
    sites: list[int],
    instrumentation=None,
    options=None,
):
    """Patch the given instruction addresses using only local windows.

    Convenience wrapper mirroring :func:`repro.frontend.tool.instrument_elf`
    but driven by explicit addresses instead of a matcher — the paper's
    binary-patching use case.
    """
    from repro.core.pipeline import RewriteContext, RewriteOptions
    from repro.core.strategy import PatchRequest
    from repro.core.trampoline import Empty

    elf = ElfFile(data)
    ctx = RewriteContext(elf=elf, options=options or RewriteOptions(),
                         instructions=decode_windows(elf, sites))
    insns = [ctx.tactics.insn_at(s) for s in sites]
    missing = [hex(s) for s, insn in zip(sites, insns) if insn is None]
    if missing:
        raise PatchError(f"sites not decodable: {missing}")
    return ctx.rewrite(
        [PatchRequest(insn=insn, instrumentation=instrumentation or Empty())
         for insn in insns]
    )
