"""Machine-code redzone checker injected into hardened binaries.

The check function is real x86-64 emitted by our assembler and placed in
the rewritten binary by :meth:`RewriteContext.add_runtime_code`; every
heap-write trampoline calls it with the effective store address in
``%rdi`` (see :class:`repro.core.trampoline.CallFunction`).  On a redzone
violation it prints a diagnostic and exits with code 42 — in both the VM
and native execution.
"""

from __future__ import annotations

from repro.core.trampoline import CallFunction, Instrumentation
from repro.elf import constants as elfc
from repro.lowfat.lowfat import REDZONE_SIZE, LowFatLayout
from repro.x86 import encoder as enc

VIOLATION_EXIT_CODE = 42
VIOLATION_MESSAGE = b"lowfat: redzone violation detected\n"


def build_check_function(layout: LowFatLayout, vaddr: int) -> bytes:
    """Emit the redzone check at *vaddr*.

    Pseudo-code (rdi = written-to pointer)::

        if rdi < region_base or rdi >= region_end: return   # not low-fat
        index  = (rdi - region_base) >> log2(region_size)
        mask   = masks[index]            # size - 1 (sizes are powers of 2)
        offset = rdi & mask              # == rdi - base(rdi)
        if offset >= REDZONE_SIZE: return
        write(2, message); exit(42)
    """
    region_end = layout.region_base + len(layout.sizes) * layout.region_size
    shift = layout.region_size.bit_length() - 1
    if 1 << shift != layout.region_size:
        raise ValueError("region size must be a power of two")
    for size in layout.sizes:
        if size & (size - 1):
            raise ValueError("size classes must be powers of two")

    # Hand-optimized calling convention, like E9Patch's own trampoline
    # templates: the checker preserves every register and the flags
    # itself, so the caller saves nothing but the call-scratch register.
    a = enc.Assembler(base=vaddr)
    a.pushfq()
    a.push(enc.RAX)
    a.push(enc.RCX)
    a.push(enc.RDX)
    a.push(enc.RSI)
    a.mov_imm64(enc.RAX, layout.region_base)
    a.raw(b"\x48\x39\xc7")  # cmp rdi, rax
    a.jcc(0x2, "pass")  # jb
    a.mov_imm64(enc.RCX, region_end)
    a.raw(b"\x48\x39\xcf")  # cmp rdi, rcx
    a.jcc(0x3, "pass")  # jae
    a.mov_reg(enc.RCX, enc.RDI)
    a.raw(b"\x48\x29\xc1")  # sub rcx, rax
    a.raw(bytes((0x48, 0xC1, 0xE9, shift)))  # shr rcx, shift
    a.lea_rip(enc.RSI, "masks")
    a.raw(b"\x48\x8b\x14\xce")  # mov rdx, [rsi + rcx*8]
    a.mov_reg(enc.RAX, enc.RDI)
    a.raw(b"\x48\x21\xd0")  # and rax, rdx
    a.cmp_imm(enc.RAX, REDZONE_SIZE)
    a.jcc(0x3, "pass")  # jae

    # Violation path: report and abort.
    a.mov_imm32(enc.RDI, 2)
    a.lea_rip(enc.RSI, "msg")
    a.mov_imm32(enc.RDX, len(VIOLATION_MESSAGE))
    a.mov_imm32(enc.RAX, elfc.SYS_WRITE)
    a.syscall()
    a.mov_imm32(enc.RDI, VIOLATION_EXIT_CODE)
    a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
    a.syscall()

    a.label("pass")
    a.pop(enc.RSI)
    a.pop(enc.RDX)
    a.pop(enc.RCX)
    a.pop(enc.RAX)
    a.popfq()
    a.ret()

    pad = (-len(a.buf)) % 8
    a.raw(b"\x00" * pad)
    a.label("masks")
    for size in layout.sizes:
        a.raw((size - 1).to_bytes(8, "little"))
    a.label("msg")
    a.raw(VIOLATION_MESSAGE)
    return a.bytes()


def check_function_size(layout: LowFatLayout) -> int:
    """Exact emitted size (address-independent)."""
    return len(build_check_function(layout, 0))


def lowfat_instrumentation(check_vaddr: int) -> Instrumentation:
    """The A2 hardening body: call the checker with the store address.

    The checker preserves all registers and flags internally, so the
    trampoline only saves ``%rdi`` (the argument slot) and the call
    scratch — the hand-optimized shape E9Patch's templates use.
    """
    return CallFunction(check_vaddr, pass_mem_operand=True,
                        clobbers=(enc.RDI,), preserves_flags=True)


def install_lowfat_heap(ctx, layout: LowFatLayout | None = None) -> int:
    """Inject the check function into *ctx* (a
    :class:`repro.core.pipeline.RewriteContext`); returns its address."""
    layout = layout or LowFatLayout()
    size = check_function_size(layout)
    return ctx.add_runtime_code(
        lambda vaddr: build_check_function(layout, vaddr), size, tag="lowfat"
    )
