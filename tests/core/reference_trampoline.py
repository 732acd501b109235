"""Reference trampoline builder: every trampoline assembled from scratch
with an :class:`~repro.x86.encoder.Assembler`, kept as the oracle for
the production byte templates.

Production :func:`repro.core.trampoline.build_trampoline` fills byte
templates: the relocated instruction and the jump back with their rel32
packed in, and each body from a template assembled once per plan (the
pic ``Counter`` fills its ``incq`` disp32, ``CallFunction`` and JSON
templates their operand's ``lea``).  These functions are the
straightforward versions the templates were derived from: one
``Assembler`` per trampoline, each body emitted instruction by
instruction at the trampoline's address.
``tests/core/test_trampoline_differential.py`` asserts the two give
equal bytes, equal sizes and the same exceptions.
"""

from __future__ import annotations

from repro.apps.tracer import TraceRecord
from repro.core.templates import REG_NAMES, TemplateError, TemplateInstrumentation
from repro.core.trampoline import (
    JMP_BACK_SIZE,
    CallFunction,
    Counter,
    Empty,
    Instrumentation,
    relocated_size,
)
from repro.errors import PatchError
from repro.x86 import encoder as enc
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

_LEA_DOWN = b"\x48\x8d\x64\x24\x80"  # lea -0x80(%rsp), %rsp
_LEA_UP = b"\x48\x8d\xa4\x24\x80\x00\x00\x00"  # lea 0x80(%rsp), %rsp


def relocate(insn: Instruction, at_addr: int) -> bytes:
    """Encode *insn* so it behaves identically when placed at *at_addr*."""
    if insn.flow == Flow.JMP and insn.imm is not None:
        return enc.encode_jmp_rel32(insn.target - (at_addr + 5))
    if insn.flow == Flow.JCC:
        cc = insn.opcode & 0x0F
        return enc.encode_jcc_rel32(cc, insn.target - (at_addr + 6))
    if insn.flow == Flow.CALL and insn.imm is not None:
        return enc.encode_call_rel32(insn.target - (at_addr + 5))
    if insn.flow == Flow.LOOP:
        out = bytearray()
        out += bytes((insn.opcode, 0x02))  # taken -> out[4]
        out += enc.encode_jmp_rel8(5)  # not taken -> fall through at out[9]
        out += enc.encode_jmp_rel32(insn.target - (at_addr + 9))
        return bytes(out)
    if insn.rip_relative:
        orig_target = insn.end + (insn.disp or 0)
        new_disp = orig_target - (at_addr + insn.length)
        if not -(1 << 31) <= new_disp < (1 << 31):
            raise PatchError(
                f"rip-relative operand of {insn.mnemonic} at {insn.address:#x} "
                f"unreachable from trampoline at {at_addr:#x}"
            )
        raw = bytearray(insn.raw)
        raw[insn.disp_offset : insn.disp_offset + 4] = (
            new_disp & 0xFFFFFFFF
        ).to_bytes(4, "little")
        return bytes(raw)
    return insn.raw


def _plan(instr, insn: Instruction):
    """The body's save plan at *insn*, recomputed without the memo."""
    live = None if instr.liveness is None else instr.liveness.at(insn.address)
    return instr._plan(live)


def _emit_counter(asm: enc.Assembler, insn: Instruction, instr: Counter) -> None:
    scratch, save_reg, save_flags = _plan(instr, insn)
    if instr.pic:
        if save_flags:
            asm.raw(_LEA_DOWN)
            asm.pushfq()
        asm.inc_mem64_rip(instr.counter_vaddr)
        if save_flags:
            asm.popfq()
            asm.raw(_LEA_UP)
        return
    red_zone = save_reg or save_flags
    if red_zone:
        asm.raw(_LEA_DOWN)
    if save_flags:
        asm.pushfq()
    if save_reg:
        asm.push(scratch)
    asm.mov_imm64(scratch, instr.counter_vaddr)
    asm.inc_mem64(scratch)
    if save_reg:
        asm.pop(scratch)
    if save_flags:
        asm.popfq()
    if red_zone:
        asm.raw(_LEA_UP)


def _emit_call(asm: enc.Assembler, insn: Instruction,
               instr: CallFunction) -> None:
    saved, save_flags = _plan(instr, insn)
    asm.raw(_LEA_DOWN)
    if save_flags:
        asm.pushfq()
    for reg in saved:
        asm.push(reg)
    if instr.pass_mem_operand:
        if insn.has_mem_operand and not insn.rip_relative:
            asm.lea_from_modrm(enc.RDI, insn)
        else:
            asm.mov_imm32(enc.RDI, 0)
    asm.mov_imm64(enc.R11, instr.func_vaddr)
    asm.call_reg(enc.R11)
    for reg in reversed(saved):
        asm.pop(reg)
    if save_flags:
        asm.popfq()
    asm.raw(_LEA_UP)


def _emit_template(asm: enc.Assembler, insn: Instruction,
                   instr: TemplateInstrumentation) -> None:
    body = instr.template.body
    if not body:
        return
    touches_stack = any(
        op["op"] in ("save", "restore", "save_flags", "restore_flags", "call")
        for op in body
    )
    if touches_stack:
        asm.raw(_LEA_DOWN)
    for op in body:
        kind = op["op"]
        if kind == "save":
            asm.push(REG_NAMES[op["reg"]])
        elif kind == "restore":
            asm.pop(REG_NAMES[op["reg"]])
        elif kind == "save_flags":
            asm.pushfq()
        elif kind == "restore_flags":
            asm.popfq()
        elif kind == "load_imm":
            asm.mov_imm64(REG_NAMES[op["reg"]], instr._value(op["value"]))
        elif kind == "load_operand_addr":
            reg = REG_NAMES[op["reg"]]
            if insn.has_mem_operand and not insn.rip_relative:
                asm.lea_from_modrm(reg, insn)
            else:
                asm.mov_imm32(reg, 0)
        elif kind == "call":
            asm.mov_imm64(enc.R11, instr._value(op["target"]))
            asm.call_reg(enc.R11)
        elif kind == "inc_mem":
            asm.inc_mem64(REG_NAMES[op["base"]], op.get("offset", 0))
        elif kind == "store_imm8":
            base = REG_NAMES[op["base"]]
            offset = op.get("offset", 0)
            value = instr._value(op.get("value", 0)) & 0xFF
            if base >= 8:
                asm.buf.append(0x41)
            if -128 <= offset <= 127 and (offset or (base & 7) == enc.RBP):
                asm.buf += bytes((0xC6, 0x40 | (base & 7), offset & 0xFF, value))
            elif offset == 0:
                if (base & 7) == enc.RSP:
                    asm.buf += bytes((0xC6, 0x04, 0x24, value))
                else:
                    asm.buf += bytes((0xC6, base & 7, value))
            else:
                raise TemplateError("store_imm8 offset out of range")
        elif kind == "raw":
            asm.raw(bytes.fromhex(op.get("hex", "")))
    if touches_stack:
        asm.raw(_LEA_UP)


def _emit_trace(asm: enc.Assembler, insn: Instruction,
                instr: TraceRecord) -> None:
    asm.raw(_LEA_DOWN)
    asm.pushfq()
    asm.push(enc.RAX)
    asm.push(enc.RCX)
    asm.push(enc.RDX)
    asm.push(enc.R11)
    asm.mov_imm64(enc.RAX, instr.buffer_vaddr)
    asm.mov_load(enc.RCX, enc.RAX, 0)
    asm.mov_reg(enc.RDX, enc.RCX)
    asm.raw(b"\x48\x81\xe2" + (instr.capacity - 1).to_bytes(4, "little"))
    asm.mov_imm64(enc.R11, insn.address)
    asm.raw(b"\x4c\x89\x5c\xd0\x10")
    asm.add_imm(enc.RCX, 1)
    asm.mov_store(enc.RAX, enc.RCX, 0)
    asm.pop(enc.R11)
    asm.pop(enc.RDX)
    asm.pop(enc.RCX)
    asm.pop(enc.RAX)
    asm.popfq()
    asm.raw(_LEA_UP)


def emit_body(asm: enc.Assembler, insn: Instruction,
              instr: Instrumentation) -> None:
    """Assemble *instr*'s body for *insn* at ``asm.here``."""
    if isinstance(instr, Empty):
        return
    if isinstance(instr, Counter):
        _emit_counter(asm, insn, instr)
    elif isinstance(instr, CallFunction):
        _emit_call(asm, insn, instr)
    elif isinstance(instr, TemplateInstrumentation):
        _emit_template(asm, insn, instr)
    elif isinstance(instr, TraceRecord):
        _emit_trace(asm, insn, instr)
    else:
        asm.raw(instr.body(insn, asm.here))


def _no_return(insn: Instruction) -> bool:
    return insn.flow in (Flow.JMP, Flow.RET)


def trampoline_size(insn: Instruction, instr: Instrumentation) -> int:
    """The body probed at address 0, plus the relocation and jump back."""
    probe = enc.Assembler(base=0)
    emit_body(probe, insn, instr)
    size = len(probe.bytes()) + relocated_size(insn)
    if not _no_return(insn):
        size += JMP_BACK_SIZE
    return size


def build_trampoline(insn: Instruction, instr: Instrumentation,
                     tramp_addr: int, expected: int | None = None,
                     inject_bug: bool = False) -> bytes:
    """One Assembler per trampoline: body, relocation, jump back."""
    asm = enc.Assembler(base=tramp_addr)
    emit_body(asm, insn, instr)
    asm.raw(relocate(insn, asm.here))
    if not _no_return(insn):
        back = insn.end - (asm.here + JMP_BACK_SIZE)
        if inject_bug:
            back += 2
        asm.raw(enc.encode_jmp_rel32(back))
    out = asm.bytes()
    if expected is None:
        expected = trampoline_size(insn, instr)
    if len(out) != expected:
        raise PatchError(
            f"trampoline size mismatch: {len(out)} != predicted {expected}"
        )
    return out
