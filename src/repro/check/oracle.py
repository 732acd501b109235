"""VM-backed differential oracle for rewritten binaries.

:func:`check_equivalence` loads the original and the rewritten image
into two independent :class:`~repro.vm.machine.Machine` instances with
identical stdin and identical B0 trap handlers, then advances both in
*event lockstep*: each machine runs until its next observable event —

* ``site``  — control reached a patch-site vaddr (tactics never move a
  site's entry point, so the rewritten program must visit every site in
  the same order as the original);
* ``write`` — an output-producing ``write`` syscall (the bytes);
* ``exit`` / ``hlt`` / ``budget`` / ``error`` — the run ended.

B0 ``int3`` traps fire only in the rewritten image, so they are not
stream events; instead every trap must pair with a ``site`` visit, and
the rewritten run's trap total must equal the original run's visit
count over the B0 site subset (the ordered trap sequence is exactly the
ordered B0-site subsequence of the compared stream).

The two event streams must match element for element.  Because both
machines are *live* at the first mismatch, the oracle can report exact
first-divergence diagnostics: the vaddr and per-machine step index, the
register delta, and the first differing bytes of commonly-mapped
writable memory — the data a human needs to debug a pun-math or
displacement bug without re-running anything.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import VmError
from repro.vm.machine import Machine, TrapHandler
from repro.vm.memory import PAGE_SIZE, PROT_WRITE

#: Architectural register names in the machine's ``regs`` index order.
REG_NAMES = (
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

#: Default instruction budget for the original run.
DEFAULT_BUDGET = 2_000_000
#: Rewritten runs execute trampoline code and B0 emulations on top of
#: the original work; give them headroom before calling "budget" a
#: divergence (a wrong displacement typically shows up as a runaway
#: loop, which this bound converts into a caught divergence).
REWRITTEN_BUDGET_FACTOR = 8
#: Cap on compared events so pathological loops terminate.
DEFAULT_MAX_EVENTS = 250_000


@dataclass
class RunSummary:
    """Observable outcome of one machine's run, JSON-ready."""

    exit_code: int | None = None
    stdout: bytes = b""
    instructions: int = 0
    traps: int = 0
    events: int = 0
    reason: str = "running"

    def to_dict(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "stdout_sha": __import__("hashlib").sha256(self.stdout).hexdigest()[:16],
            "stdout_bytes": len(self.stdout),
            "instructions": self.instructions,
            "traps": self.traps,
            "events": self.events,
            "reason": self.reason,
        }


@dataclass
class Divergence:
    """First point where the rewritten run left the original behaviour."""

    kind: str  # "events" | "exit_code" | "stdout" | "error" | "budget"
    detail: str
    vaddr: int | None = None
    step_original: int | None = None
    step_rewritten: int | None = None
    event_index: int | None = None
    register_delta: dict[str, tuple[int, int]] = field(default_factory=dict)
    memory_delta: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "vaddr": self.vaddr,
            "step_original": self.step_original,
            "step_rewritten": self.step_rewritten,
            "event_index": self.event_index,
            "register_delta": {
                name: [hex(a), hex(b)]
                for name, (a, b) in self.register_delta.items()
            },
            "memory_delta": self.memory_delta,
        }


@dataclass
class EquivalenceReport:
    """Outcome of one oracle comparison."""

    verdict: str  # "equivalent" | "divergent" | "unsupported"
    original: RunSummary
    rewritten: RunSummary
    divergence: Divergence | None = None
    events_compared: int = 0

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "events_compared": self.events_compared,
            "original": self.original.to_dict(),
            "rewritten": self.rewritten.to_dict(),
            "divergence": (self.divergence.to_dict()
                           if self.divergence is not None else None),
        }


class _Cursor:
    """Drives one machine to its next observable event.

    ``site`` events fire when the *next* instruction to execute starts at
    a watched patch-site vaddr; the check happens before the step, so B0
    sites report both their ``site`` visit and the subsequent ``trap``.
    """

    def __init__(self, data: bytes, *, sites: frozenset[int],
                 traps: dict[int, bytes], stdin: bytes,
                 budget: int, load_base: int = 0,
                 entry_vaddr: int | None = None,
                 entry_from_init: bool = False,
                 self_paths: tuple[str, ...] = ()) -> None:
        self.load_base = load_base
        if entry_from_init and entry_vaddr is None:
            # dlopen-style run: enter at this image's *own* init hook
            # (the rewritten object's hook points at the loader stub).
            from repro.elf.dynamic import find_init_target
            from repro.elf.reader import ElfFile

            target = find_init_target(ElfFile(data))
            if target is not None:
                entry_vaddr = target[2]
        self.machine = Machine(data, max_instructions=budget, stdin=stdin,
                               load_base=load_base, entry_vaddr=entry_vaddr,
                               self_path_aliases=tuple(self_paths))
        for vaddr, insn_bytes in traps.items():
            # Sites are link-time vaddrs; handlers key on runtime rip.
            self.machine.register_trap(load_base + vaddr,
                                       TrapHandler(insn_bytes=insn_bytes))
        self.sites = sites
        self.b0_sites = frozenset(traps)
        self.b0_visits = 0
        self.budget = budget
        self.events = 0
        self.finished = False
        self.reason = "running"
        self._stdout_seen = 0
        self._skip_site_check = False

    # -- event stream ----------------------------------------------------

    def next_event(self) -> tuple:
        """Advance to the next event: ``(kind, vaddr, payload)``."""
        m = self.machine
        if self.finished:
            return ("end", None, self.reason)
        while True:
            if m.cpu.icount >= self.budget:
                self.finished = True
                self.reason = "budget"
                return self._emit("budget",
                                  m.cpu.state.rip - self.load_base, None)
            # Normalize to link-time vaddrs so the event stream is
            # invariant under the runtime load base (a rewritten PIE or
            # shared object must behave identically wherever it lands).
            rip = m.cpu.state.rip - self.load_base
            if not self._skip_site_check and rip in self.sites:
                self._skip_site_check = True
                if rip in self.b0_sites:
                    self.b0_visits += 1
                return self._emit("site", rip, None)
            self._skip_site_check = False
            try:
                tag = m.step_once()
            except VmError as exc:
                self.finished = True
                self.reason = "error"
                return self._emit("error", rip, str(exc))
            if tag is None:
                continue
            if tag == "trap":
                # B0 emulation: not a stream event (the original image
                # never traps); accounted for against b0_visits instead.
                continue
            if tag == "syscall":
                new = bytes(m.stdout[self._stdout_seen:])
                if new:
                    self._stdout_seen = len(m.stdout)
                    return self._emit("write", rip, new)
                continue
            # "exit" / "hlt"
            self.finished = True
            self.reason = tag
            return self._emit(tag, rip, m.exit_code)

    def _emit(self, kind: str, vaddr: int | None, payload) -> tuple:
        self.events += 1
        return (kind, vaddr, payload)

    def summary(self) -> RunSummary:
        m = self.machine
        return RunSummary(
            exit_code=m.exit_code,
            stdout=bytes(m.stdout),
            instructions=m.cpu.icount,
            traps=m.traps,
            events=self.events,
            reason=self.reason if self.finished else "running",
        )


def _register_delta(a: Machine, b: Machine) -> dict[str, tuple[int, int]]:
    delta = {}
    for i, name in enumerate(REG_NAMES):
        va, vb = a.cpu.state.regs[i], b.cpu.state.regs[i]
        if va != vb:
            delta[name] = (va, vb)
    if a.cpu.state.rip != b.cpu.state.rip:
        delta["rip"] = (a.cpu.state.rip, b.cpu.state.rip)
    return delta


def _memory_delta(a: Machine, b: Machine, limit: int = 4) -> list[dict]:
    """First differing byte runs of commonly-mapped writable pages."""
    out: list[dict] = []
    common = sorted(set(a.mem.pages) & set(b.mem.pages))
    for page_no in common:
        if len(out) >= limit:
            break
        frame_a, prot_a = a.mem.pages[page_no]
        frame_b, prot_b = b.mem.pages[page_no]
        if not (prot_a & PROT_WRITE and prot_b & PROT_WRITE):
            continue
        da, db = bytes(frame_a.data()), bytes(frame_b.data())
        if da == db:
            continue
        lo = next(i for i in range(len(da)) if da[i : i + 1] != db[i : i + 1])
        hi = min(lo + 16, len(da))
        out.append({
            "vaddr": hex(page_no * PAGE_SIZE + lo),
            "original": da[lo:hi].hex(),
            "rewritten": db[lo:hi].hex(),
        })
    return out


def _event_repr(event: tuple) -> str:
    kind, vaddr, payload = event
    where = f" @ {vaddr:#x}" if isinstance(vaddr, int) else ""
    extra = ""
    if kind == "write":
        extra = f" {payload.hex() if isinstance(payload, bytes) else payload}"
    elif payload is not None:
        extra = f" {payload}"
    return f"{kind}{where}{extra}"


def check_equivalence(
    original: bytes,
    rewritten: bytes,
    *,
    sites: frozenset[int] | set[int] | tuple[int, ...] = (),
    traps: dict[int, bytes] | None = None,
    stdin: bytes = b"",
    max_instructions: int = DEFAULT_BUDGET,
    max_events: int = DEFAULT_MAX_EVENTS,
    load_base: int = 0,
    entry_vaddr: int | None = None,
    entry_from_init: bool = False,
    self_paths: tuple[str, ...] = (),
) -> EquivalenceReport:
    """Differentially execute *original* and *rewritten* and compare.

    *sites* is the set of patch-site vaddrs to watch (ordered visits must
    match); *traps* maps B0 site vaddrs to the displaced instruction's
    original bytes, registered identically on both machines (the original
    image contains no ``int3`` at those sites, so its handlers stay
    inert).  Returns an :class:`EquivalenceReport`; a verdict of
    ``"unsupported"`` means the *original* image itself cannot be judged
    by the VM (it faulted or exhausted the instruction budget), so no
    claim is made either way.

    *load_base* maps both images at a nonzero base (dlopen-style, only
    meaningful for ET_DYN/PIE images); *sites*, *traps* and all reported
    event vaddrs stay link-time, so reports from different bases are
    directly comparable.  *entry_vaddr* overrides the entry point with a
    link-time vaddr — e.g. a shared object's ``DT_INIT`` target.
    *entry_from_init* instead enters each image at its *own* current
    init hook (DT_INIT / first INIT_ARRAY slot), which is how the
    dynamic linker reaches a library — and how the rewritten object's
    loader stub gets control.  *self_paths* lists extra paths at which
    the VM's ``open`` serves the image (a rewritten library reopens
    itself by its install path).
    """
    watch = frozenset(sites)
    handlers = dict(traps or {})
    orig = _Cursor(original, sites=watch, traps=handlers, stdin=stdin,
                   budget=max_instructions, load_base=load_base,
                   entry_vaddr=entry_vaddr, entry_from_init=entry_from_init,
                   self_paths=self_paths)
    new = _Cursor(rewritten, sites=watch, traps=handlers, stdin=stdin,
                  budget=max_instructions * REWRITTEN_BUDGET_FACTOR + 10_000,
                  load_base=load_base, entry_vaddr=entry_vaddr,
                  entry_from_init=entry_from_init, self_paths=self_paths)

    compared = 0
    divergence: Divergence | None = None
    verdict = "equivalent"
    while compared < max_events:
        ev_orig = orig.next_event()
        ev_new = new.next_event()
        compared += 1
        if ev_orig[0] in ("error", "budget"):
            # The VM cannot faithfully run the original: no verdict.
            verdict = "unsupported"
            divergence = Divergence(
                kind=ev_orig[0],
                detail=f"original run is not VM-checkable: {_event_repr(ev_orig)}",
                vaddr=ev_orig[1],
                step_original=orig.machine.cpu.icount,
                step_rewritten=new.machine.cpu.icount,
                event_index=compared - 1,
            )
            break
        if not _events_match(ev_orig, ev_new):
            verdict = "divergent"
            divergence = Divergence(
                kind="error" if ev_new[0] == "error" else (
                    "budget" if ev_new[0] == "budget" else "events"),
                detail=(f"event {compared - 1}: original "
                        f"{_event_repr(ev_orig)} != rewritten "
                        f"{_event_repr(ev_new)}"),
                vaddr=ev_new[1] if ev_new[1] is not None else ev_orig[1],
                step_original=orig.machine.cpu.icount,
                step_rewritten=new.machine.cpu.icount,
                event_index=compared - 1,
                register_delta=_register_delta(orig.machine, new.machine),
                memory_delta=_memory_delta(orig.machine, new.machine),
            )
            break
        if orig.finished and new.finished:
            break
    else:
        verdict = "unsupported"
        divergence = Divergence(
            kind="budget",
            detail=f"event budget of {max_events} exhausted before both "
                   "runs finished",
            step_original=orig.machine.cpu.icount,
            step_rewritten=new.machine.cpu.icount,
            event_index=compared,
        )

    if verdict == "equivalent":
        so, sn = orig.summary(), new.summary()
        if so.exit_code != sn.exit_code:
            verdict = "divergent"
            divergence = Divergence(
                kind="exit_code",
                detail=f"exit {so.exit_code} != {sn.exit_code}",
                step_original=so.instructions, step_rewritten=sn.instructions,
            )
        elif so.stdout != sn.stdout:
            verdict = "divergent"
            divergence = Divergence(
                kind="stdout",
                detail=(f"stdout differs: {len(so.stdout)} vs "
                        f"{len(sn.stdout)} bytes"),
                step_original=so.instructions, step_rewritten=sn.instructions,
            )
        elif handlers and new.machine.traps != orig.b0_visits:
            # The ordered trap sequence is the B0-site subsequence of the
            # compared site stream; after a clean stream match only the
            # totals can still disagree (e.g. a trap at a never-matched
            # address).
            verdict = "divergent"
            divergence = Divergence(
                kind="traps",
                detail=(f"rewritten fired {new.machine.traps} B0 traps, "
                        f"original visited B0 sites {orig.b0_visits} times"),
                step_original=so.instructions, step_rewritten=sn.instructions,
            )

    return EquivalenceReport(
        verdict=verdict,
        original=orig.summary(),
        rewritten=new.summary(),
        divergence=divergence,
        events_compared=compared,
    )


def _events_match(a: tuple, b: tuple) -> bool:
    """Event equality; terminal exits compare the exit code as payload."""
    return a == b


# -- rewrite-report helpers -------------------------------------------------


def sites_and_traps(
    data: bytes,
    b0_sites: list[int] | tuple[int, ...] = (),
    matcher=None,
    *,
    frontend: str = "linear",
) -> tuple[frozenset[int], dict[int, bytes]]:
    """Disassemble *data* and derive the oracle inputs for a rewrite.

    Returns ``(watch_sites, traps)``: the vaddrs *matcher* selects (all
    instructions when ``None``), and the original instruction bytes for
    every B0 site in *b0_sites* (needed to emulate the displaced
    instruction under ``int3``).
    """
    # Local imports: repro.frontend pulls in the CLI, which imports the
    # pipeline, which must stay importable without this module.
    from repro.frontend.matchers import resolve_matcher, select_sites
    from repro.frontend.tool import prepare_binary
    from repro.x86.fastscan import InstructionStream

    instructions = prepare_binary(data, frontend=frontend).instructions
    matcher = resolve_matcher(matcher)
    # Only the selected sites and the traps are materialized: addresses
    # come from the stream's offsets, traps by bisecting them.
    if isinstance(instructions, InstructionStream):
        base, offsets = instructions.address, instructions.offsets_view()
        everything = (base + off for off in instructions.start_offsets())
    else:  # an eager list (the symbols frontend), sorted and disjoint
        base, offsets = 0, [i.address for i in instructions]
        everything = offsets
    sites = frozenset(everything if matcher is None else
                      (i.address for i in select_sites(instructions, matcher)))
    traps = {}
    for site in b0_sites:
        i = bisect_left(offsets, site - base)
        if i < len(offsets) and offsets[i] == site - base:
            traps[site] = bytes(instructions[i].raw)
    return sites, traps


def check_rewrite(
    original: bytes,
    rewritten: bytes,
    *,
    b0_sites: list[int] | tuple[int, ...] = (),
    matcher=None,
    frontend: str = "linear",
    stdin: bytes = b"",
    max_instructions: int = DEFAULT_BUDGET,
    load_base: int = 0,
    entry_from_init: bool = False,
    self_paths: tuple[str, ...] = (),
) -> EquivalenceReport:
    """One-call oracle for a finished rewrite: derive the watch set and
    B0 trap handlers from the original image, then run
    :func:`check_equivalence`."""
    sites, traps = sites_and_traps(original, b0_sites, matcher,
                                   frontend=frontend)
    return check_equivalence(
        original, rewritten, sites=sites, traps=traps, stdin=stdin,
        max_instructions=max_instructions, load_base=load_base,
        entry_from_init=entry_from_init, self_paths=self_paths,
    )
