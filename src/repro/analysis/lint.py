"""Static rewrite-plan linter: re-derive and check emitted invariants.

The PR-5 VM oracle proves a rewrite correct by *executing* it — too slow
to run on every rewrite.  This linter proves a complementary set of
invariants *statically*, straight from the emitted artifacts, in
milliseconds:

* **site integrity** — every patched site in the final image decodes to
  the expected shape (``int3`` for B0, a direct-jump chain for
  everything else) and the chain reaches that site's own trampoline
  within a bounded number of hops (T3's short-jump indirection included);
  punned displacement bytes that would send the chain somewhere else are
  caught here, because the check decodes the *final* bytes, not the
  planner's intent;
* **layout** — no trampoline overlaps another trampoline, a metadata
  segment (loader stub, relocated phdr table), an instrumentation data
  segment, or the original image;
* **image bytes** — each trampoline's encoded bytes are actually present
  in the output file at the address the loader will map them to (via
  PT_LOAD in phdr mode, via the recorded blob maps in loader mode);
* **replay equivalence** — the relocated copy of every displaced
  instruction is decode-equivalent to the original: same absolute branch
  target, same rip-relative effective address, or byte-identical body;
* **jump-back** — every fall-through trampoline ends in ``jmp rel32``
  landing *exactly* at the displaced instruction's end.  This is the
  check that catches the ``REPRO_CHECK_INJECT_BUG`` displacement
  miscompile statically, without running a single instruction;
* **CET landing pads** — patching or evicting an ``endbr64`` destroys a
  landing pad for indirect branches (warning: our synthetic corpus never
  branches indirectly, real CET binaries do).

Findings are typed (:class:`Finding`: severity, check id, vaddr,
message).  :class:`LintPass` runs after ``EmitPass``, publishes
``lint.*`` counters, stores the :class:`LintReport` on the context, and
raises :class:`LintError` (a :class:`~repro.errors.PatchError` carrying
the report) when any error-severity finding exists.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.facts import is_endbr64
from repro.core.pipeline import PipelinePass, RewriteContext
from repro.core.tactics import Tactic
from repro.core.trampoline import (
    JMP_BACK_SIZE,
    Trampoline,
    _no_return,
    relocated_size,
)
from repro.elf import constants as elfc
from repro.elf.reader import ElfFile
from repro.errors import DecodeError, PatchError
from repro.x86.decoder import decode
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

__all__ = ["Finding", "LintError", "LintPass", "LintReport", "lint_context"]

#: Maximum direct-jump hops from a patch site to its trampoline
#: (B1/B2/T1/T2 need one; T3 needs two: short jump, then punned jump).
_MAX_HOPS = 4

#: Decode window at a patch site (longest padded jump).
_SITE_WINDOW = 16


@dataclass(frozen=True)
class Finding:
    """One linter diagnosis, anchored to a virtual address."""

    severity: str  # "error" | "warn"
    check: str  # "site" | "reach" | "overlap" | "image-bytes" | ...
    vaddr: int
    message: str

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "check": self.check,
            "vaddr": self.vaddr,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.severity}[{self.check}] {self.vaddr:#x}: {self.message}"


@dataclass
class LintReport:
    """All findings from one lint run, plus coverage counts."""

    findings: list[Finding] = field(default_factory=list)
    sites_checked: int = 0
    trampolines_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "sites_checked": self.sites_checked,
            "trampolines_checked": self.trampolines_checked,
            "findings": [f.to_dict() for f in self.findings],
        }


class LintError(PatchError):
    """Raised by :class:`LintPass` when error-severity findings exist.

    Carries the full :class:`LintReport` so callers (the ``repro lint``
    CLI, the eval matrix) can surface every finding, not just the first.
    """

    def __init__(self, report: LintReport) -> None:
        first = report.errors[0]
        super().__init__(
            f"lint: {len(report.errors)} error(s); first: {first}"
        )
        self.report = report


class _OutputImage:
    """Byte access into the *emitted* file by virtual address.

    Original-image and phdr-mode trampoline addresses resolve through the
    output's PT_LOAD table; loader-mode trampoline blocks have no
    file-backed PT_LOAD (the stub mmaps them at runtime), so those reads
    go through the pipeline's recorded ``blob_maps``.  Both are merged
    once into one extent list sorted by vaddr (emitted extents are
    disjoint), so a read bisects instead of scanning every map.
    """

    def __init__(self, output: bytes,
                 blob_maps: list[tuple[int, int, int]]) -> None:
        loads = [(p.vaddr, p.filesz, p.offset) for p in ElfFile(output).phdrs
                 if p.type == elfc.PT_LOAD and p.filesz]
        self.extents = sorted([*blob_maps, *loads])
        self.starts = [base for base, _, _ in self.extents]
        self.data = output

    def read(self, vaddr: int, size: int) -> bytes | None:
        # Piecewise: a trampoline may straddle two adjacent block
        # mappings (the allocator packs across page boundaries; the
        # grouped loader maps each block separately).
        out = bytearray()
        while len(out) < size:
            at = vaddr + len(out)
            i = bisect_right(self.starts, at) - 1
            if i < 0:
                return None
            base, msize, off = self.extents[i]
            avail = min(size - len(out), base + msize - at)
            lo = off + (at - base)
            chunk = self.data[lo : lo + avail]
            if avail <= 0 or len(chunk) != avail:
                return None
            out += chunk
        return bytes(out)


def _parse_tag(tag: str) -> tuple[str, int] | None:
    """Split an address-qualified trampoline tag (``patch@0x401000``)."""
    kind, sep, addr = tag.partition("@")
    if not sep or kind not in ("patch", "evictee"):
        return None
    try:
        return kind, int(addr, 16)
    except ValueError:
        return None


def lint_context(ctx: RewriteContext) -> LintReport:
    """Statically check an emitted rewrite context's invariants."""
    if ctx.output is None or ctx.plan is None:
        raise PatchError("lint needs an emitted context (plan + output)")
    report = LintReport()
    img = _OutputImage(ctx.output, ctx.blob_maps)
    # The planner's bisect index: lint's cost follows the patch count,
    # not the size of the instruction stream.
    insn_at = ctx.tactics.insn_at

    _check_layout(ctx, report)
    for patch in ctx.plan.patches:
        _check_site(ctx, img, insn_at, patch, report)
        report.sites_checked += 1
    for patch in ctx.plan.patches:
        for tramp in patch.trampolines:
            _check_trampoline(img, insn_at, tramp, report, cet=ctx.cet)
            report.trampolines_checked += 1
    return report


# -- layout ------------------------------------------------------------------


def _check_layout(ctx: RewriteContext, report: LintReport) -> None:
    """No trampoline may overlap another extent the output relies on."""
    extents: list[tuple[int, int, str]] = []
    for t in ctx.trampolines:
        extents.append((t.vaddr, t.end, f"trampoline {t.tag or '?'}"))
    for vaddr, size in ctx.meta_segments:
        extents.append((vaddr, vaddr + size, "metadata segment"))
    for vaddr, size in ctx.data_segments:
        extents.append((vaddr, vaddr + size, "data segment"))
    for p in ctx.elf.phdrs:
        if p.type == elfc.PT_LOAD:
            extents.append((p.vaddr, p.vaddr + p.memsz, "original image"))
    extents.sort(key=lambda e: (e[0], e[1]))
    for (lo_a, hi_a, what_a), (lo_b, hi_b, what_b) in zip(extents,
                                                          extents[1:]):
        if hi_a <= lo_b:
            continue
        if what_a == what_b == "original image":
            continue  # the input's own layout is not ours to judge
        report.findings.append(Finding(
            severity="error", check="overlap", vaddr=lo_b,
            message=(f"{what_b} [{lo_b:#x}, {hi_b:#x}) overlaps "
                     f"{what_a} [{lo_a:#x}, {hi_a:#x})"),
        ))


# -- patch sites -------------------------------------------------------------


def _check_site(ctx: RewriteContext, img: _OutputImage,
                insn_at: Callable[[int], Instruction | None], patch,
                report: LintReport) -> None:
    site = patch.site
    original = insn_at(site)
    if original is not None and is_endbr64(original):
        # In CET mode this is a rewriter bug (the tactics refuse these
        # sites); for non-CET inputs it stays advisory.
        report.findings.append(Finding(
            severity="error" if ctx.cet else "warn",
            check="endbr", vaddr=site,
            message="patched instruction is an endbr64 landing pad; "
                    "CET indirect branches to it will fault",
        ))

    if patch.tactic == Tactic.B0:
        head = img.read(site, 1)
        if head != b"\xcc":
            report.findings.append(Finding(
                severity="error", check="site", vaddr=site,
                message=f"B0 site byte is {head!r}, expected int3",
            ))
        return

    expected = next(
        (t.vaddr for t in patch.trampolines
         if t.tag.startswith("patch")), None,
    )
    if expected is None:
        report.findings.append(Finding(
            severity="error", check="site", vaddr=site,
            message=f"{patch.tactic.name} patch has no patch trampoline",
        ))
        return

    # Follow the final image's direct-jump chain from the site; it must
    # land on this site's trampoline within _MAX_HOPS.  Decoding the
    # emitted bytes (rather than trusting the plan) is what makes punned
    # displacement corruption visible.
    at = site
    for _ in range(_MAX_HOPS):
        raw = img.read(at, _SITE_WINDOW) or img.read(at, 5) or img.read(at, 2)
        if raw is None:
            report.findings.append(Finding(
                severity="error", check="reach", vaddr=at,
                message=f"jump chain from site {site:#x} reaches "
                        f"unreadable address {at:#x}",
            ))
            return
        try:
            insn = decode(raw, address=at)
        except DecodeError as exc:
            report.findings.append(Finding(
                severity="error", check="reach", vaddr=at,
                message=f"jump chain from site {site:#x} fails to "
                        f"decode at {at:#x}: {exc}",
            ))
            return
        if insn.flow != Flow.JMP or insn.target is None:
            report.findings.append(Finding(
                severity="error", check="reach", vaddr=at,
                message=f"jump chain from site {site:#x} hits "
                        f"non-jump {insn.mnemonic} at {at:#x}",
            ))
            return
        at = insn.target
        if at == expected:
            return
    report.findings.append(Finding(
        severity="error", check="reach", vaddr=site,
        message=f"jump chain from site {site:#x} does not reach its "
                f"trampoline at {expected:#x} within {_MAX_HOPS} hops",
    ))


# -- trampolines -------------------------------------------------------------


def _check_trampoline(img: _OutputImage,
                      insn_at: Callable[[int], Instruction | None],
                      tramp: Trampoline, report: LintReport,
                      *, cet: bool = False) -> None:
    parsed = _parse_tag(tramp.tag)
    if parsed is None:
        return  # runtime blobs and legacy tags: nothing to re-derive
    kind, addr = parsed
    insn = insn_at(addr)
    if insn is None:
        report.findings.append(Finding(
            severity="error", check="replay", vaddr=tramp.vaddr,
            message=f"{kind} trampoline names unknown instruction "
                    f"{addr:#x}",
        ))
        return

    if kind == "evictee" and is_endbr64(insn):
        report.findings.append(Finding(
            severity="error" if cet else "warn",
            check="endbr", vaddr=addr,
            message="evicted instruction is an endbr64 landing pad; "
                    "CET indirect branches to it will fault",
        ))

    emitted = img.read(tramp.vaddr, len(tramp.code))
    if emitted != tramp.code:
        report.findings.append(Finding(
            severity="error", check="image-bytes", vaddr=tramp.vaddr,
            message=f"trampoline bytes at {tramp.vaddr:#x} differ "
                    "between plan and emitted file",
        ))
        # Keep going: the remaining checks run on the planned bytes.

    reloc_sz = relocated_size(insn)
    back = 0 if _no_return(insn) else JMP_BACK_SIZE
    instr_off = len(tramp.code) - reloc_sz - back
    if instr_off < 0:
        report.findings.append(Finding(
            severity="error", check="replay", vaddr=tramp.vaddr,
            message=f"trampoline too small ({len(tramp.code)} bytes) for "
                    f"relocated {insn.mnemonic} (+{reloc_sz}) and return",
        ))
        return

    _check_replay(tramp, insn, instr_off, reloc_sz, report)

    if back:
        tail_vaddr = tramp.end - JMP_BACK_SIZE
        try:
            jback = decode(tramp.code[-JMP_BACK_SIZE:], address=tail_vaddr)
        except DecodeError as exc:
            report.findings.append(Finding(
                severity="error", check="jump-back", vaddr=tail_vaddr,
                message=f"jump-back fails to decode: {exc}",
            ))
            return
        if jback.flow != Flow.JMP or jback.target != insn.end:
            report.findings.append(Finding(
                severity="error", check="jump-back", vaddr=tail_vaddr,
                message=(f"jump-back targets "
                         f"{jback.target:#x}" if jback.target is not None
                         else "jump-back is not a direct jump")
                + f", expected {insn.end:#x} "
                  f"(end of {insn.mnemonic} at {insn.address:#x})",
            ))


def _check_replay(tramp: Trampoline, insn: Instruction, instr_off: int,
                  reloc_sz: int, report: LintReport) -> None:
    """Decode-level equivalence of the relocated displaced instruction."""
    vaddr = tramp.vaddr + instr_off
    chunk = tramp.code[instr_off : instr_off + reloc_sz]

    def fail(message: str) -> None:
        report.findings.append(Finding(
            severity="error", check="replay", vaddr=vaddr, message=message,
        ))

    if insn.flow == Flow.LOOP:
        # Expanded branch-out pattern: loopcc +2; jmp rel8 +5; jmp target.
        bad = (len(chunk) != 9 or chunk[0] != insn.opcode or chunk[1] != 2
               or chunk[2:4] != b"\xeb\x05")
        if bad:
            fail(f"relocated {insn.mnemonic} does not use the expected "
                 "loop branch-out pattern")
            return
        try:
            out = decode(chunk[4:9], address=vaddr + 4)
        except DecodeError as exc:
            fail(f"loop branch-out target fails to decode: {exc}")
            return
        if out.target != insn.target:
            fail(f"relocated {insn.mnemonic} branches to {out.target:#x}, "
                 f"original target {insn.target:#x}")
        return

    try:
        new = decode(chunk, address=vaddr)
    except DecodeError as exc:
        fail(f"relocated {insn.mnemonic} fails to decode: {exc}")
        return
    if new.length != reloc_sz:
        fail(f"relocated {insn.mnemonic} decodes to {new.length} bytes, "
             f"expected {reloc_sz}")
        return

    if insn.flow in (Flow.JMP, Flow.JCC, Flow.CALL) and insn.is_direct_branch:
        if new.flow != insn.flow:
            fail(f"relocated {insn.mnemonic} decodes as {new.mnemonic}")
            return
        if insn.flow == Flow.JCC and (new.opcode & 0xF) != (insn.opcode & 0xF):
            fail(f"relocated {insn.mnemonic} changed condition code")
            return
        if new.target != insn.target:
            fail(f"relocated {insn.mnemonic} branches to "
                 f"{new.target:#x} instead of {insn.target:#x}")
        return

    if insn.rip_relative:
        orig_eff = insn.end + (insn.disp or 0)
        new_eff = new.end + (new.disp or 0)
        if (new.opcode, new.opmap, new.modrm) != (insn.opcode, insn.opmap,
                                                  insn.modrm):
            fail(f"relocated {insn.mnemonic} changed encoding")
            return
        if new_eff != orig_eff:
            fail(f"relocated {insn.mnemonic} rip-relative operand points "
                 f"at {new_eff:#x} instead of {orig_eff:#x}")
        return

    if chunk != insn.raw:
        fail(f"relocated {insn.mnemonic} bytes differ from the original "
             "position-independent instruction")


# -- the pipeline pass -------------------------------------------------------


class LintPass(PipelinePass):
    """Run the linter after emission; error findings fail the rewrite.

    Publishes ``lint.sites``, ``lint.trampolines``, ``lint.errors`` and
    ``lint.warnings`` counters and stores the report on ``ctx.lint``
    (surfaced as ``RewriteResult.lint``) before raising, so findings
    stay reachable from :class:`LintError` handlers.
    """

    name = "lint"

    def execute(self, ctx: RewriteContext) -> None:
        report = lint_context(ctx)
        ctx.lint = report
        obs = ctx.observer
        obs.count("lint.sites", report.sites_checked)
        obs.count("lint.trampolines", report.trampolines_checked)
        obs.count("lint.errors", len(report.errors))
        obs.count("lint.warnings", len(report.warnings))
        if not report.ok:
            raise LintError(report)
