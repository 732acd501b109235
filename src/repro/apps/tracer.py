"""Execution tracing (the paper's debugging use case).

Each instrumented site appends its address to a ring buffer in an
appended read-write segment — a control-flow trace recorded by a binary
that was never recompiled.  The buffer layout is::

    +0x00: u64 head        (total records written; monotonically grows)
    +0x08: u64 capacity    (power of two)
    +0x10: u64 entries[capacity]

The trampoline body preserves flags and registers, so traced and
untraced runs behave identically (checked by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observe import Observer
from repro.core.pipeline import MatchPass, RewriteContext, RewriteOptions, RewriteResult
from repro.core.strategy import PatchRequest
from repro.core.trampoline import RED_ZONE_DOWN, RED_ZONE_UP, Instrumentation
from repro.frontend.matchers import Matcher, resolve_matcher
from repro.frontend.tool import prepare_binary
from repro.vm.machine import Machine
from repro.x86 import encoder as enc

HEADER_SIZE = 16


class TraceRecord(Instrumentation):
    """Append the site address to the ring buffer.  The body is
    assembled once, around the 8-byte record each trampoline fills in."""

    name = "trace"

    def __init__(self, buffer_vaddr: int, capacity: int) -> None:
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self.buffer_vaddr = buffer_vaddr
        self.capacity = capacity
        self._head, self._tail = self._template()

    def body(self, insn, at: int) -> bytes:
        return self._head + insn.address.to_bytes(8, "little") + self._tail

    def _template(self) -> tuple[bytes, bytes]:
        asm = enc.Assembler()
        asm.raw(RED_ZONE_DOWN)
        asm.pushfq()
        asm.push(enc.RAX)
        asm.push(enc.RCX)
        asm.push(enc.RDX)
        asm.push(enc.R11)
        asm.mov_imm64(enc.RAX, self.buffer_vaddr)
        asm.mov_load(enc.RCX, enc.RAX, 0)  # rcx = head
        asm.mov_reg(enc.RDX, enc.RCX)
        # rdx = head & (capacity - 1)
        asm.raw(b"\x48\x81\xe2" + (self.capacity - 1).to_bytes(4, "little"))
        asm.mov_imm64(enc.R11, 0)  # the record: the site address
        record = len(asm.buf) - 8
        # entries[rdx] = r11:  mov [rax + rdx*8 + 16], r11
        asm.raw(b"\x4c\x89\x5c\xd0\x10")
        asm.add_imm(enc.RCX, 1)
        asm.mov_store(enc.RAX, enc.RCX, 0)  # head = rcx
        asm.pop(enc.R11)
        asm.pop(enc.RDX)
        asm.pop(enc.RCX)
        asm.pop(enc.RAX)
        asm.popfq()
        asm.raw(RED_ZONE_UP)
        code = asm.bytes()
        return code[:record], code[record + 8:]


@dataclass
class Tracer:
    """Instrument a binary so matched sites record an execution trace."""

    matcher: Matcher | str = "jumps"
    capacity: int = 4096
    options: RewriteOptions = field(default_factory=lambda: RewriteOptions(mode="loader"))
    observer: Observer | None = None

    def instrument(self, data: bytes) -> "TracedBinary":
        matcher = resolve_matcher(self.matcher)
        base = prepare_binary(data, observer=self.observer)
        MatchPass(matcher).run(base)
        sites = base.sites

        ctx = RewriteContext(elf=base.elf, options=self.options,
                             observer=base.observer,
                             instructions=base.instructions)
        size = HEADER_SIZE + 8 * self.capacity
        buffer_vaddr = ctx.add_runtime_data(size)
        instr = TraceRecord(buffer_vaddr, self.capacity)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=instr) for i in sites]
        )
        return TracedBinary(result=result, buffer_vaddr=buffer_vaddr,
                            capacity=self.capacity)


@dataclass
class TracedBinary:
    result: RewriteResult
    buffer_vaddr: int
    capacity: int

    @property
    def data(self) -> bytes:
        return self.result.data

    def run_with_trace(self, **machine_kwargs) -> "Trace":
        machine = Machine(self.data, **machine_kwargs)
        # Pre-set the capacity header so natively-run binaries could
        # share the layout (the VM map is zero-filled; head starts 0).
        machine.mem.write_u64(self.buffer_vaddr + 8, self.capacity)
        run = machine.run()
        head = machine.mem.read_u64(self.buffer_vaddr)
        count = min(head, self.capacity)
        start = head - count
        records = []
        for i in range(start, head):
            slot = self.buffer_vaddr + HEADER_SIZE + 8 * (i % self.capacity)
            records.append(machine.mem.read_u64(slot))
        return Trace(run=run, total=head, records=records)


@dataclass
class Trace:
    """The recovered execution trace."""

    run: object
    total: int  # records ever written (may exceed len(records))
    records: list[int]

    @property
    def truncated(self) -> bool:
        return self.total > len(self.records)

    def transitions(self) -> list[tuple[int, int]]:
        """Consecutive (from_site, to_site) pairs — a dynamic edge list
        recovered with zero static control-flow knowledge."""
        return list(zip(self.records, self.records[1:]))
