"""The staged rewrite pipeline: explicit passes over a shared context.

The paper's rewriter is a fixed sequence — disassemble, match, strategy
S1, physical page grouping, emission — and this module expresses it as
exactly that: a list of :class:`Pass` objects run over one
:class:`RewriteContext` that owns every inter-stage hand-off as a typed
field (instruction stream, matched sites, patch plan, grouping, emission
artifacts).  The standard passes are

* :class:`DecodePass`   — frontend disassembly (skipped when the context
  already carries an instruction stream, which is how the batch API
  reuses one decode across many configurations);
* :class:`MatchPass`    — patch-site selection;
* :class:`PlanPass`     — strategy S1 over the requests (tactics B1..T3);
* :class:`GroupPass`    — emission-mode resolution + physical page
  grouping of the planned trampolines;
* :class:`EmitPass`     — ELF emission (phdr or loader mode);
* :class:`VerifyPass`   — optional: re-decode every patched site and
  check its jump lands in a trampoline or back inside the image.

Every pass runs under the context's :class:`~repro.core.observe.Observer`
(wall-time, counters, trace hooks).  :class:`repro.core.rewriter.Rewriter`
is a thin compatibility facade over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.grouping import PAGE_SIZE, GroupingResult, group_trampolines
from repro.core.intervals import IntervalSet
from repro.core.observe import Observer
from repro.core.stats import PatchStats
from repro.core.strategy import (
    PatchPlan,
    PatchRequest,
    TacticToggles,
    patch_all,
)
from repro.core.tactics import Tactic, TacticContext
from repro.analysis.liveness import LivenessAnalysis
from repro.core.trampoline import Trampoline
from repro.elf import constants as elfc
from repro.elf.dynamic import find_init_target, retarget_init
from repro.elf.loader import Mapping, build_loader, loader_size_estimate
from repro.elf.reader import ElfFile
from repro.elf.writer import AppendedSegment, ElfRewriter
from repro.errors import DecodeError, PatchError
from repro.x86.decoder import decode
from repro.x86.insn import Instruction
from repro.x86.tables import Flow


@dataclass
class RewriteOptions:
    """Knobs for a rewrite run (defaults match the paper's main setup)."""

    mode: str = "auto"  # "phdr" | "loader" | "auto"
    grouping: bool = True  # physical page grouping on/off (ablation)
    granularity: int = 1  # M pages per block
    toggles: TacticToggles = field(default_factory=TacticToggles)
    guard_pages: int = 1  # guard between segments and trampolines
    # Treat the input as a shared object: positive link-time offsets only
    # (the dynamic linker loads other objects into the negative range).
    # Loader-mode .so rewriting hijacks DT_INIT instead of e_entry and
    # mmaps from library_path (``/proc/self/exe`` names the executable,
    # not the library), which must be where the patched file will be
    # installed.
    shared: bool = False
    library_path: str | None = None
    # Extra address ranges to treat as occupied (e.g. modelling the
    # unscaled image footprint of a synthesized stand-in binary).
    reserve_extra: tuple[tuple[int, int], ...] = ()
    # Ablation knob: pack trampolines into already-used pages.  Off by
    # default — see AddressSpace.pack_pages for why packing *loses* to
    # physical page grouping.
    pack_allocations: bool = False
    # Run VerifyPass after emission: re-decode every patched site and
    # check the rewritten jump has somewhere to land.
    verify: bool = False
    # Run EquivalencePass after VerifyPass: execute original and output
    # on the VM and compare observable behaviour (see repro.check).
    check: bool = False
    # Bind a backward-liveness analysis (repro.analysis.liveness) to every
    # instrumentation body before planning, letting trampolines drop
    # save/restore pairs at sites where registers/flags are provably dead.
    liveness: bool = False
    # Run LintPass after emission: statically re-derive and check the
    # rewrite's invariants (repro.analysis.lint); errors raise PatchError.
    lint: bool = False
    # CET/IBT awareness: endbr64 landing pads become hard constraints for
    # every tactic and endbr-clobber lint findings become errors.  None
    # auto-detects from the input (GNU property note, else endbr64
    # presence in executable segments); True/False force the mode.
    cet: bool | None = None

    def resolve_mode(self) -> str:
        if self.mode != "auto":
            return self.mode
        return "loader" if self.grouping else "phdr"


@dataclass
class RewriteResult:
    """Everything produced by a rewrite."""

    data: bytes
    plan: PatchPlan
    grouping: GroupingResult | None
    stats: PatchStats
    input_size: int
    mode: str
    trampolines: list[Trampoline]
    b0_sites: list[int] = field(default_factory=list)
    # Observability snapshot: per-pass wall time and counters (cumulative
    # over the observer's lifetime — shared across a batch on purpose).
    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    # EquivalencePass product, when RewriteOptions(check=True) ran
    # (a repro.check.oracle.EquivalenceReport).
    equivalence: object | None = None
    # LintPass product, when RewriteOptions(lint=True) ran
    # (a repro.analysis.lint.LintReport).
    lint: object | None = None

    @property
    def output_size(self) -> int:
        return len(self.data)

    @property
    def size_pct(self) -> float:
        """Output size as a percentage of input size (paper's Size%)."""
        return 100.0 * self.output_size / self.input_size


@dataclass
class RewriteContext:
    """All state flowing through the pipeline, as explicit typed fields.

    A context is built once per rewrite configuration; decode-level
    fields (``instructions``, ``sites``) may be injected from a previous
    context to share work (see ``rewrite_many``).
    """

    elf: ElfFile
    options: RewriteOptions
    observer: Observer = field(default_factory=Observer)

    # -- decode/match products ------------------------------------------
    instructions: Sequence[Instruction] | None = None
    sites: list[Instruction] | None = None
    requests: list[PatchRequest] | None = None

    # -- mutable workspace (built by prepare_workspace) -----------------
    image: CodeImage | None = None
    space: AddressSpace | None = None
    tactics: TacticContext | None = None

    # -- injected artifacts registered before planning ------------------
    runtime: list[Trampoline] = field(default_factory=list)
    data_segments: list[tuple[int, int]] = field(default_factory=list)

    # -- plan/group/emit products ---------------------------------------
    plan: PatchPlan | None = None
    mode: str | None = None
    trampolines: list[Trampoline] = field(default_factory=list)
    b0_sites: list[int] = field(default_factory=list)
    grouping: GroupingResult | None = None
    # Loader-mode mappings awaiting zero-fill reservation segments
    # (formerly the ``_pending_reservation`` attribute hack).
    pending_reservation: list[Mapping] = field(default_factory=list)
    output: bytes | None = None
    # EquivalencePass product (a repro.check.oracle.EquivalenceReport;
    # typed loosely to keep repro.check out of the pipeline's imports).
    equivalence: object | None = None
    # LintPass product (a repro.analysis.lint.LintReport; loosely typed
    # for the same reason).
    lint: object | None = None
    # Resolved CET mode (options.cet, auto-detected from the input when
    # None); set by prepare_workspace.
    cet: bool = False
    # Block-aligned metadata allocations (phdr table, loader stub) as
    # (vaddr, size) — recorded so the linter can prove no trampoline
    # shares a block with them.
    meta_segments: list[tuple[int, int]] = field(default_factory=list)
    # Loader-mode trampoline placement as (vaddr, size, file_offset):
    # where each mapped block's bytes live in the *output file*, which no
    # PT_LOAD filesz covers (the loader stub mmaps them at runtime).
    blob_maps: list[tuple[int, int, int]] = field(default_factory=list)

    # -- workspace construction -----------------------------------------

    def prepare_workspace(self) -> None:
        """Build the mutable code image, address space and tactic context
        from the ELF.  Idempotent; requires a decoded instruction stream."""
        if self.image is not None:
            return
        # Views, not slices: CodeImage copies each segment exactly once.
        view = memoryview(self.elf.data)
        exec_ranges = [
            (p.vaddr, view[p.offset : p.offset + p.filesz])
            for p in self.elf.phdrs
            if p.type == elfc.PT_LOAD and p.flags & elfc.PF_X
        ]
        if not exec_ranges:
            raise PatchError("binary has no executable PT_LOAD segment")
        self.image = CodeImage.from_ranges(exec_ranges)

        block = self.options.granularity * PAGE_SIZE
        guard = max(self.options.guard_pages * PAGE_SIZE, block)
        self.space = AddressSpace.for_binary(
            [(p.vaddr, p.memsz) for p in self.elf.phdrs
             if p.type == elfc.PT_LOAD],
            pie=self.elf.is_pie,
            shared=self.options.shared,
            guard=guard,
        )
        self.space.pack_pages = self.options.pack_allocations
        for lo, hi in self.options.reserve_extra:
            self.space.reserve(lo, hi)
        self.cet = (self.options.cet if self.options.cet is not None
                    else self.elf.is_cet_enabled())
        self.tactics = TacticContext(
            image=self.image, space=self.space,
            instructions=self.instructions or [],
            cet=self.cet,
        )

    # -- injected runtime code/data (must precede planning) -------------

    def add_runtime_code(self, build, size: int, tag: str = "runtime") -> int:
        """Allocate *size* bytes of free space for injected runtime code.

        *build* is called with the chosen vaddr and must return exactly
        *size* bytes.  Returns the vaddr.  Must happen before planning so
        trampolines can reference the address.
        """
        self.prepare_workspace()
        lo, hi = self.space.lo_bound, self.space.hi_bound
        vaddr = self.space.allocate(lo, hi, size, tag)
        if vaddr is None:
            raise PatchError("no space for runtime code")
        code = build(vaddr)
        if len(code) != size:
            raise PatchError(f"runtime code size {len(code)} != reserved {size}")
        self.runtime.append(Trampoline(vaddr=vaddr, code=code, tag=tag))
        return vaddr

    def add_runtime_data(self, size: int) -> int:
        """Reserve a zero-initialized read-write region in the output
        binary (e.g. for instrumentation counters); returns its vaddr."""
        self.prepare_workspace()
        vaddr = self.allocate_exclusive(size)
        # Reclassify: allocate_exclusive records every block as metadata,
        # but this one is instrumentation data (lint tracks them apart).
        self.meta_segments.pop()
        self.data_segments.append((vaddr, size))
        return vaddr

    def allocate_exclusive(self, size: int) -> int:
        """Allocate block-aligned whole blocks for metadata (loader stub,
        phdr table): non-negative (PT_LOAD-expressible), within rip-
        relative reach of the entry point, and never sharing a block with
        any trampoline (later loader mappings must not clobber it)."""
        block = self.options.granularity * PAGE_SIZE
        size = -(-size // block) * block
        entry = self.elf.entry
        margin = 1 << 20
        lo = max(self.space.lo_bound, 0, entry - (1 << 31) + margin)
        hi = min(self.space.hi_bound, entry + (1 << 31) - margin)
        vaddr = self.space.allocate(lo, hi, size, tag="meta", align=block)
        if vaddr is None:
            raise PatchError("no space for metadata segment")
        self.meta_segments.append((vaddr, size))
        return vaddr

    def result(self) -> RewriteResult:
        """Bundle the context's products into a :class:`RewriteResult`."""
        if self.output is None or self.plan is None:
            raise PatchError("pipeline has not emitted yet")
        return RewriteResult(
            data=self.output,
            plan=self.plan,
            grouping=self.grouping,
            stats=self.plan.stats,
            input_size=len(self.elf.data),
            mode=self.mode or self.options.resolve_mode(),
            trampolines=self.trampolines,
            b0_sites=self.b0_sites,
            timings=dict(self.observer.timings),
            counters=dict(self.observer.counters),
            equivalence=self.equivalence,
            lint=self.lint,
        )


@runtime_checkable
class Pass(Protocol):
    """One pipeline stage: reads and extends the shared context."""

    name: str

    def run(self, ctx: RewriteContext) -> None: ...


class PipelinePass:
    """Base class wiring a pass into the observability layer."""

    name = "pass"

    def run(self, ctx: RewriteContext) -> None:
        with ctx.observer.measure(self.name):
            self.execute(ctx)

    def execute(self, ctx: RewriteContext) -> None:
        raise NotImplementedError


class DecodePass(PipelinePass):
    """Frontend disassembly.  A no-op when the context already carries an
    instruction stream — sharing decoded streams across configurations is
    the batch API's whole point, asserted via ``pass.decode.runs``."""

    name = "decode"

    def __init__(self, frontend: str = "linear") -> None:
        self.frontend = frontend

    def execute(self, ctx: RewriteContext) -> None:
        if ctx.instructions is not None:
            return
        # Imported here, not at module top: repro.frontend.__init__ pulls
        # in the CLI, which imports this module back.
        from repro.frontend.lineardisasm import (
            disassemble_functions,
            disassemble_text,
            disassemble_text_stream,
        )

        if self.frontend == "symbols":
            ctx.instructions = disassemble_functions(ctx.elf)
        elif self.frontend == "linear":
            stream = disassemble_text_stream(ctx.elf)
            ctx.instructions = (
                stream if stream is not None else disassemble_text(ctx.elf)
            )
        else:
            raise ValueError(f"unknown frontend {self.frontend!r}")
        insns = ctx.instructions
        ctx.observer.count("decode.instructions", len(insns))
        total = getattr(insns, "total_bytes", None)
        if total is not None:  # InstructionStream: bytes without iteration
            ctx.observer.count("decode.bytes", total)
        else:
            ctx.observer.count("decode.bytes", sum(i.length for i in insns))


class MatchPass(PipelinePass):
    """Select patch sites from the instruction stream."""

    name = "match"

    def __init__(self, matcher) -> None:
        self.matcher = matcher

    def execute(self, ctx: RewriteContext) -> None:
        if ctx.instructions is None:
            raise PatchError("MatchPass needs a decoded instruction stream")
        select = getattr(ctx.instructions, "select", None)
        if select is not None:  # InstructionStream: candidate-bit pruning
            ctx.sites = select(self.matcher)
        else:
            ctx.sites = [i for i in ctx.instructions if self.matcher(i)]
        ctx.observer.count("match.sites", len(ctx.sites))


class PlanPass(PipelinePass):
    """Strategy S1 (reverse-order patching) over the requests."""

    name = "plan"

    def __init__(self, requests: list[PatchRequest] | None = None) -> None:
        self.requests = requests

    def execute(self, ctx: RewriteContext) -> None:
        ctx.prepare_workspace()
        requests = self.requests if self.requests is not None else ctx.requests
        if requests is None:
            raise PatchError(
                "PlanPass needs patch requests (run MatchPass and build "
                "requests, or set ctx.requests)"
            )
        ctx.requests = requests
        if ctx.options.liveness:
            # Bind before any size query: the planner memoizes trampoline
            # sizes, so the slimmed encodings must be in force from the
            # first probe.
            analysis = LivenessAnalysis(ctx.instructions or [])
            for req in requests:
                if req.instrumentation is not None:
                    req.instrumentation.bind_liveness(analysis)
        probes_before = ctx.space.probes
        visits_before = ctx.space.span_visits
        ctx.plan = patch_all(ctx.tactics, requests, ctx.options.toggles)

        obs = ctx.observer
        obs.count("plan.sites", len(requests))
        obs.count("plan.failed", len(ctx.plan.failures))
        for tactic, n in ctx.plan.stats.by_tactic.items():
            obs.count(f"plan.tactic.{tactic.name}", n)
        obs.count("plan.trampolines", ctx.plan.stats.trampoline_count)
        obs.count("plan.trampoline_bytes", ctx.plan.stats.trampoline_bytes)
        obs.count("plan.alloc_probes", ctx.space.probes - probes_before)
        obs.count("plan.alloc_span_visits",
                  ctx.space.span_visits - visits_before)
        if ctx.options.liveness:
            by_site = {req.insn.address: req for req in requests}
            saved_bytes = saved_regs = 0
            for patch in ctx.plan.patches:
                if patch.tactic == Tactic.B0:
                    continue  # no trampoline to slim
                req = by_site.get(patch.site)
                if req is None or req.instrumentation is None:
                    continue
                nbytes, nregs = req.instrumentation.saved_cost(req.insn)
                saved_bytes += nbytes
                saved_regs += nregs
            obs.count("plan.trampoline_saved_bytes", saved_bytes)
            obs.count("plan.trampoline_saved_regs", saved_regs)


class GroupPass(PipelinePass):
    """Resolve the emission mode and run physical page grouping."""

    name = "group"

    def execute(self, ctx: RewriteContext) -> None:
        if ctx.plan is None:
            raise PatchError("GroupPass needs a patch plan")
        mode = ctx.options.resolve_mode()
        ctx.mode = mode
        ctx.trampolines = list(ctx.plan.trampolines) + list(ctx.runtime)
        ctx.b0_sites = [
            p.site for p in ctx.plan.patches if p.tactic == Tactic.B0
        ]
        if not ctx.trampolines:
            ctx.grouping = None
            return
        if mode == "phdr":
            if any(t.vaddr < 0 for t in ctx.trampolines):
                raise PatchError(
                    "phdr mode cannot express negative PIE offsets; "
                    "use loader mode"
                )
            ctx.grouping = group_trampolines(
                ctx.trampolines, block_pages=1, enabled=False
            )
        elif mode == "loader":
            ctx.grouping = group_trampolines(
                ctx.trampolines,
                block_pages=ctx.options.granularity,
                enabled=ctx.options.grouping,
            )
        else:
            raise PatchError(f"unknown emission mode {mode!r}")
        obs = ctx.observer
        obs.count("group.blocks", len(ctx.grouping.blocks))
        obs.count("group.groups", len(ctx.grouping.groups))
        obs.count("group.physical_bytes", ctx.grouping.grouped_physical_bytes)


class EmitPass(PipelinePass):
    """Produce the patched ELF (phdr or loader mode)."""

    name = "emit"

    def execute(self, ctx: RewriteContext) -> None:
        ctx.prepare_workspace()
        probes_before = ctx.space.probes
        visits_before = ctx.space.span_visits
        rw = ElfRewriter(ctx.elf)
        for vaddr, data in ctx.image.dirty_patches():
            rw.patch_vaddr(vaddr, data)

        if ctx.grouping is not None:
            if ctx.mode == "phdr":
                self._emit_phdr(ctx, rw)
            else:
                self._emit_loader(ctx, rw)
        for vaddr, size in ctx.data_segments:
            rw.append_segment(
                AppendedSegment(vaddr=vaddr, data=b"", memsz=size,
                                flags=elfc.PF_R | elfc.PF_W)
            )

        if rw.segments or rw.blobs or rw.new_entry is not None:
            phdr_vaddr = ctx.allocate_exclusive(
                (rw.elf.ehdr.phnum + len(rw.segments) + 4) * elfc.PHDR_SIZE
            )
            self._emit_reservations(ctx, rw, phdr_vaddr)
            # Dynamic loaders require PT_LOAD entries in ascending vaddr
            # order, and a reservation segment must precede the real
            # segments that overlay it.
            rw.segments.sort(key=lambda seg: seg.vaddr)
            ctx.output = rw.finalize(phdr_vaddr=phdr_vaddr)
        else:
            ctx.output = rw.finalize(phdr_vaddr=0)

        obs = ctx.observer
        obs.count("emit.output_bytes", len(ctx.output))
        obs.count("emit.segments", len(rw.segments))
        obs.count("emit.blobs", len(rw.blobs))
        obs.count("emit.alloc_probes", ctx.space.probes - probes_before)
        obs.count("emit.alloc_span_visits",
                  ctx.space.span_visits - visits_before)

    # -- emission helpers ------------------------------------------------

    def _emit_phdr(self, ctx: RewriteContext, rw: ElfRewriter) -> None:
        """Naive one-to-one emission: one PT_LOAD per trampoline block."""
        grouping = ctx.grouping
        for grp in grouping.groups:
            block = grp.members[0]
            base = block.index * grouping.block_size
            rw.append_segment(
                AppendedSegment(
                    vaddr=base,
                    data=grp.merged_content(grouping.block_size),
                    flags=elfc.PF_R | elfc.PF_X,
                )
            )
        if ctx.elf.ehdr.phnum + len(rw.segments) + 1 > 0xFFFF:
            raise PatchError("too many segments for phdr mode; use loader mode")

    def _emit_loader(self, ctx: RewriteContext, rw: ElfRewriter) -> None:
        """Grouped emission through the injected loader stub."""
        grouping = ctx.grouping
        block_size = grouping.block_size

        group_offsets: list[int] = []
        for grp in grouping.groups:
            group_offsets.append(rw.append_blob(grp.merged_content(block_size)))

        mappings = [
            Mapping(vaddr=block_base, size=block_size, offset=group_offsets[gi])
            for block_base, gi in grouping.mappings()
        ]
        ctx.blob_maps = [(m.vaddr, m.size, m.offset) for m in mappings]
        ctx.pending_reservation = [m for m in mappings if m.vaddr >= 0]

        if ctx.options.shared and find_init_target(ctx.elf) is not None:
            # A real shared object: no usable e_entry; hijack DT_INIT.
            if ctx.options.library_path is None:
                raise PatchError(
                    "loader-mode shared-object rewriting needs "
                    "options.library_path (the library's install path)"
                )
            init_value_offset, original_init = retarget_init(ctx.elf, 0)
            path = ctx.options.library_path
            stub_size = loader_size_estimate(len(mappings), len(path) + 1)
            stub_vaddr = ctx.allocate_exclusive(stub_size)
            stub = build_loader(
                stub_vaddr, mappings, original_init,
                pie=True, self_path=path, cet=ctx.cet,
            )
            if len(stub) > stub_size:
                raise PatchError("loader stub exceeded its size estimate")
            rw.append_segment(
                AppendedSegment(vaddr=stub_vaddr, data=stub,
                                flags=elfc.PF_R | elfc.PF_X)
            )
            # Redirect DT_INIT to the stub (in place, like any patch).
            rw.patch_offset(
                init_value_offset,
                stub_vaddr.to_bytes(8, "little"),
            )
            return

        stub_size = loader_size_estimate(len(mappings))
        stub_vaddr = ctx.allocate_exclusive(stub_size)
        stub = build_loader(
            stub_vaddr, mappings, ctx.elf.entry, pie=ctx.elf.is_pie,
            cet=ctx.cet,
        )
        if len(stub) > stub_size:
            raise PatchError("loader stub exceeded its size estimate")
        rw.append_segment(
            AppendedSegment(vaddr=stub_vaddr, data=stub,
                            flags=elfc.PF_R | elfc.PF_X)
        )
        rw.set_entry(stub_vaddr)

    def _emit_reservations(
        self, ctx: RewriteContext, rw: ElfRewriter, phdr_vaddr: int
    ) -> None:
        """Reserve the loader-mapped trampoline span with zero-fill
        PT_LOADs so the program loader owns it: the stub's MAP_FIXED
        mmaps then overlay pages *inside* the process's own reservation
        instead of clobbering whatever ASLR placed nearby.  Existing
        image ranges, real appended segments, and the relocated phdr
        table are carved out."""
        positive = ctx.pending_reservation
        if not positive:
            return
        span = IntervalSet()
        span.add(min(m.vaddr for m in positive),
                 max(m.vaddr + m.size for m in positive))
        page = PAGE_SIZE

        def carve(lo: int, hi: int) -> None:
            span.remove(lo & ~(page - 1), -(-hi // page) * page)

        for p in ctx.elf.phdrs:
            if p.type == elfc.PT_LOAD:
                carve(p.vaddr, p.vaddr + p.memsz)
        for seg in rw.segments:
            carve(seg.vaddr, seg.vaddr + (seg.memsz or len(seg.data)))
        table_size = (ctx.elf.ehdr.phnum + len(rw.segments) + 4) * elfc.PHDR_SIZE
        carve(phdr_vaddr, phdr_vaddr + table_size)
        for res_lo, res_hi in span:
            rw.append_segment(
                AppendedSegment(vaddr=res_lo, data=b"",
                                memsz=res_hi - res_lo, flags=elfc.PF_R)
            )
        ctx.pending_reservation = []


class VerifyPass(PipelinePass):
    """Re-decode the bytes written at every patched site and check the
    rewritten jump has somewhere meaningful to land: a trampoline extent
    (B1/B2/T1/T2) or a punned jump inside the image (T3's ``jmp rel8``
    into a victim's interior)."""

    name = "verify"

    #: How many bytes to re-decode at a site (longest padded jump).
    WINDOW = 16

    def execute(self, ctx: RewriteContext) -> None:
        if ctx.plan is None or ctx.image is None:
            raise PatchError("VerifyPass needs a planned, emitted context")
        extents = IntervalSet()
        for tramp in ctx.trampolines:
            extents.add(tramp.vaddr, tramp.vaddr + len(tramp.code))

        checked = 0
        for patch in ctx.plan.patches:
            site = patch.site
            raw = self._read_site(ctx, site)
            if patch.tactic == Tactic.B0:
                if raw[:1] != b"\xcc":
                    raise PatchError(
                        f"verify: B0 site {site:#x} is not int3"
                    )
                checked += 1
                continue
            try:
                insn = decode(raw, address=site)
            except DecodeError as exc:
                raise PatchError(
                    f"verify: patched site {site:#x} fails to decode: {exc}"
                ) from exc
            if insn.flow != Flow.JMP or insn.target is None:
                raise PatchError(
                    f"verify: patched site {site:#x} is not a direct jump "
                    f"({insn.mnemonic})"
                )
            target = insn.target
            in_trampoline = extents.contains(target, target + 1)
            in_image = ctx.image.readable(target, 1)
            if not (in_trampoline or in_image):
                raise PatchError(
                    f"verify: jump at {site:#x} targets {target:#x}, "
                    "outside every trampoline and the image"
                )
            checked += 1
        ctx.observer.count("verify.sites", checked)

    def _read_site(self, ctx: RewriteContext, site: int) -> bytes:
        for length in (self.WINDOW, 8, 6, 5, 2, 1):
            if ctx.image.readable(site, length):
                return ctx.image.read(site, length)
        raise PatchError(f"verify: site {site:#x} is outside the image")


class EquivalencePass(PipelinePass):
    """Semantic check: run the original and the emitted output on the VM
    (:mod:`repro.check.oracle`) and compare observable behaviour — exit
    status, output bytes, and the ordered patch-site visit sequence, with
    B0 trap handlers registered on both machines.

    A ``divergent`` verdict is a rewriter bug and raises
    :class:`~repro.errors.PatchError` with the first-divergence
    diagnostics.  ``unsupported`` (the VM cannot faithfully execute the
    *original* — e.g. a real dynamically-linked binary) is recorded but
    not an error: no claim is made either way.  The report lands in
    ``ctx.equivalence`` and the ``check.*`` counters.
    """

    name = "check"

    def __init__(self, max_instructions: int | None = None) -> None:
        self.max_instructions = max_instructions

    def execute(self, ctx: RewriteContext) -> None:
        if ctx.output is None or ctx.plan is None:
            raise PatchError("EquivalencePass needs an emitted context")
        # Local import: repro.check.oracle must stay importable without
        # the pipeline and vice versa.
        from repro.check.oracle import DEFAULT_BUDGET, check_equivalence

        watched = (ctx.sites if ctx.sites is not None
                   else [r.insn for r in (ctx.requests or ())])
        sites = frozenset(i.address for i in watched)
        by_addr = {i.address: i for i in (ctx.instructions or ())}
        traps = {
            site: bytes(by_addr[site].raw)
            for site in ctx.b0_sites if site in by_addr
        }
        # A shared object is entered through its init hook (dlopen-style)
        # — the rewritten image only maps its trampolines once the loader
        # stub installed over DT_INIT has run; e_entry would skip it.
        shared = ctx.options.shared
        self_paths = ((ctx.options.library_path,)
                      if shared and ctx.options.library_path else ())
        report = check_equivalence(
            ctx.elf.data, ctx.output, sites=sites, traps=traps,
            max_instructions=self.max_instructions or DEFAULT_BUDGET,
            entry_from_init=shared, self_paths=self_paths,
        )
        ctx.equivalence = report
        obs = ctx.observer
        obs.count(f"check.{report.verdict}")
        obs.count("check.events", report.events_compared)
        if report.verdict == "divergent":
            d = report.divergence
            raise PatchError(
                "equivalence check failed: "
                f"{d.kind if d else '?'}: {d.detail if d else ''}"
            )


def standard_passes(
    matcher=None,
    requests: list[PatchRequest] | None = None,
    *,
    frontend: str = "linear",
    verify: bool = False,
    check: bool = False,
    lint: bool = False,
) -> list[Pass]:
    """The canonical pass sequence for one rewrite configuration."""
    passes: list[Pass] = [DecodePass(frontend)]
    if matcher is not None:
        passes.append(MatchPass(matcher))
    passes += [PlanPass(requests), GroupPass(), EmitPass()]
    if lint:
        # Local import: the lint layer imports this module back.
        from repro.analysis.lint import LintPass

        passes.append(LintPass())
    if verify:
        passes.append(VerifyPass())
    if check:
        passes.append(EquivalencePass())
    return passes


def run_pipeline(ctx: RewriteContext, passes: list[Pass]) -> RewriteContext:
    """Run *passes* in order over *ctx* and return it."""
    for p in passes:
        p.run(ctx)
    return ctx
