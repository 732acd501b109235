"""JSON trampoline templates (the shape of E9Patch's input API).

The real E9Patch takes *trampoline templates* from its frontend as
structured messages; this module implements the analogue: a declarative
template — a list of operations with ``{parameter}`` substitution — that
compiles into an :class:`Instrumentation` emitting real machine code.

Template format::

    {
      "name": "counter",
      "params": ["counter"],
      "body": [
        {"op": "save_flags"},
        {"op": "save", "reg": "rax"},
        {"op": "load_imm", "reg": "rax", "value": "{counter}"},
        {"op": "inc_mem", "base": "rax"},
        {"op": "restore", "reg": "rax"},
        {"op": "restore_flags"}
      ]
    }

Operations:

========================  ====================================================
``save`` / ``restore``    push/pop a register (``reg``)
``save_flags``            pushfq (the template adds the red-zone skip
                          automatically around the whole body)
``restore_flags``         popfq
``load_imm``              movabs ``value`` (int or ``{param}``) into ``reg``
``load_operand_addr``     lea of the displaced instruction's memory operand
                          into ``reg`` (fails for rip-relative operands)
``call``                  movabs ``target`` into r11 + call r11
``inc_mem``               incq (``base`` register [+ ``offset``])
``store_imm8``            mov byte [``base`` + ``offset``], ``value``
``raw``                   literal machine code (``hex`` string)
========================  ====================================================

The displaced instruction and the jump back to the original stream are
appended by the trampoline builder as always.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.x86 import encoder as enc
from repro.x86.insn import Instruction
from repro.core.trampoline import (
    RED_ZONE_DOWN,
    RED_ZONE_UP,
    Instrumentation,
    operand_address,
)

REG_NAMES = {
    "rax": enc.RAX, "rcx": enc.RCX, "rdx": enc.RDX, "rbx": enc.RBX,
    "rsp": enc.RSP, "rbp": enc.RBP, "rsi": enc.RSI, "rdi": enc.RDI,
    "r8": enc.R8, "r9": enc.R9, "r10": enc.R10, "r11": enc.R11,
    "r12": enc.R12, "r13": enc.R13, "r14": enc.R14, "r15": enc.R15,
}

_OPS = frozenset({
    "save", "restore", "save_flags", "restore_flags", "load_imm",
    "load_operand_addr", "call", "inc_mem", "store_imm8", "raw",
})


class TemplateError(ReproError):
    """Malformed trampoline template or bad instantiation."""


@dataclass(frozen=True)
class TrampolineTemplate:
    """A parsed, validated template ready for instantiation."""

    name: str
    params: tuple[str, ...]
    body: tuple[dict[str, Any], ...]

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "TrampolineTemplate":
        if not isinstance(spec, dict):
            raise TemplateError("template must be a JSON object")
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise TemplateError("template needs a non-empty 'name'")
        params = tuple(spec.get("params", ()))
        body = spec.get("body")
        if not isinstance(body, list):
            raise TemplateError("template 'body' must be a list of ops")
        for op in body:
            cls._validate_op(op)
        return cls(name=name, params=params, body=tuple(body))

    @classmethod
    def from_json(cls, text: str) -> "TrampolineTemplate":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TemplateError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(spec)

    @staticmethod
    def _validate_op(op: dict[str, Any]) -> None:
        if not isinstance(op, dict) or "op" not in op:
            raise TemplateError(f"malformed operation {op!r}")
        kind = op["op"]
        if kind not in _OPS:
            raise TemplateError(f"unknown operation {kind!r}")
        for key in ("reg", "base"):
            if key in op and op[key] not in REG_NAMES:
                raise TemplateError(f"unknown register {op[key]!r}")
        if kind in ("save", "restore", "load_imm", "load_operand_addr"):
            if "reg" not in op:
                raise TemplateError(f"{kind} requires 'reg'")
        if kind in ("inc_mem", "store_imm8") and "base" not in op:
            raise TemplateError(f"{kind} requires 'base'")
        if kind == "load_imm" and "value" not in op:
            raise TemplateError("load_imm requires 'value'")
        if kind == "call" and "target" not in op:
            raise TemplateError("call requires 'target'")
        if kind == "raw":
            try:
                bytes.fromhex(op.get("hex", ""))
            except ValueError as exc:
                raise TemplateError(f"bad hex in raw op: {exc}") from exc

    def instantiate(self, **arguments: int) -> "TemplateInstrumentation":
        """Bind ``{param}`` placeholders to concrete integer values."""
        missing = set(self.params) - set(arguments)
        if missing:
            raise TemplateError(f"missing arguments: {sorted(missing)}")
        extra = set(arguments) - set(self.params)
        if extra:
            raise TemplateError(f"unknown arguments: {sorted(extra)}")
        return TemplateInstrumentation(self, dict(arguments))


class TemplateInstrumentation(Instrumentation):
    """An instantiated template, usable anywhere an Instrumentation is.

    The body is assembled once, as byte chunks around one hole per
    ``load_operand_addr``, which each trampoline fills with its site's
    operand."""

    _chunks: tuple | None = None

    def __init__(self, template: TrampolineTemplate,
                 arguments: dict[str, int]) -> None:
        self.template = template
        self.arguments = arguments
        self.name = template.name

    def _value(self, raw: Any) -> int:
        if isinstance(raw, int):
            return raw
        if isinstance(raw, str) and raw.startswith("{") and raw.endswith("}"):
            key = raw[1:-1]
            if key not in self.arguments:
                raise TemplateError(f"unbound parameter {key!r}")
            return self.arguments[key]
        if isinstance(raw, str):
            try:
                return int(raw, 0)
            except ValueError as exc:
                raise TemplateError(f"bad value {raw!r}") from exc
        raise TemplateError(f"bad value {raw!r}")

    def _template(self) -> tuple:
        """Byte chunks, and between them the register each
        ``load_operand_addr`` loads."""
        if self._chunks is None:
            body = self.template.body
            # Skip the red zone while the body may touch the stack.
            stack = any(op["op"] in ("save", "restore", "save_flags",
                                     "restore_flags", "call") for op in body)
            chunks, asm = [], enc.Assembler()
            asm.raw(RED_ZONE_DOWN if stack else b"")
            for op in body:
                if op["op"] == "load_operand_addr":
                    chunks += (asm.bytes(), REG_NAMES[op["reg"]])
                    asm = enc.Assembler()
                else:
                    self._emit_op(asm, op)
            asm.raw(RED_ZONE_UP if stack else b"")
            self._chunks = (*chunks, asm.bytes())
        return self._chunks

    def body(self, insn: Instruction, at: int) -> bytes:
        return b"".join(part if type(part) is bytes
                        else operand_address(part, insn)
                        for part in self._template())

    def _emit_op(self, asm: enc.Assembler, op: dict[str, Any]) -> None:
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
            asm.mov_imm64(REG_NAMES[op["reg"]], self._value(op["value"]))
        elif kind == "call":
            asm.mov_imm64(enc.R11, self._value(op["target"]))
            asm.call_reg(enc.R11)
        elif kind == "inc_mem":
            asm.inc_mem64(REG_NAMES[op["base"]], op.get("offset", 0))
        elif kind == "store_imm8":
            base = REG_NAMES[op["base"]]
            offset = op.get("offset", 0)
            value = self._value(op.get("value", 0)) & 0xFF
            rex = 0x41 if base >= 8 else None
            if rex is not None:
                asm.buf.append(rex)
            if -128 <= offset <= 127 and (offset or (base & 7) == enc.RBP):
                asm.buf += bytes((0xC6, 0x40 | (base & 7), offset & 0xFF, value))
            elif offset == 0:
                if (base & 7) == enc.RSP:
                    asm.buf += bytes((0xC6, 0x04, 0x24, value))
                else:
                    asm.buf += bytes((0xC6, 0x00 | (base & 7), value))
            else:
                raise TemplateError("store_imm8 offset out of range")
        elif kind == "raw":
            asm.raw(bytes.fromhex(op.get("hex", "")))
        else:  # pragma: no cover - validated earlier
            raise TemplateError(f"unknown operation {kind!r}")


# Built-in templates mirroring the stock instrumentations.
BUILTIN_TEMPLATES: dict[str, TrampolineTemplate] = {
    "empty": TrampolineTemplate(name="empty", params=(), body=()),
    "counter": TrampolineTemplate.from_dict({
        "name": "counter",
        "params": ["counter"],
        "body": [
            {"op": "save_flags"},
            {"op": "save", "reg": "rax"},
            {"op": "load_imm", "reg": "rax", "value": "{counter}"},
            {"op": "inc_mem", "base": "rax"},
            {"op": "restore", "reg": "rax"},
            {"op": "restore_flags"},
        ],
    }),
    "call-with-addr": TrampolineTemplate.from_dict({
        "name": "call-with-addr",
        "params": ["func"],
        "body": [
            {"op": "save_flags"},
            {"op": "save", "reg": "rax"},
            {"op": "save", "reg": "rcx"},
            {"op": "save", "reg": "rdx"},
            {"op": "save", "reg": "rsi"},
            {"op": "save", "reg": "rdi"},
            {"op": "save", "reg": "r8"},
            {"op": "save", "reg": "r9"},
            {"op": "save", "reg": "r10"},
            {"op": "save", "reg": "r11"},
            {"op": "load_operand_addr", "reg": "rdi"},
            {"op": "call", "target": "{func}"},
            {"op": "restore", "reg": "r11"},
            {"op": "restore", "reg": "r10"},
            {"op": "restore", "reg": "r9"},
            {"op": "restore", "reg": "r8"},
            {"op": "restore", "reg": "rdi"},
            {"op": "restore", "reg": "rsi"},
            {"op": "restore", "reg": "rdx"},
            {"op": "restore", "reg": "rcx"},
            {"op": "restore", "reg": "rax"},
            {"op": "restore_flags"},
        ],
    }),
}


def load_template(source: str | dict[str, Any]) -> TrampolineTemplate:
    """Load a template from a JSON string, dict, or builtin name."""
    if isinstance(source, dict):
        return TrampolineTemplate.from_dict(source)
    if source in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[source]
    return TrampolineTemplate.from_json(source)
