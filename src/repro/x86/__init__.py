"""x86-64 instruction substrate: exact length decoding, semantics, encoding.

This subpackage is a from-scratch replacement for an external disassembler
library.  The rewriter only needs *exact instruction lengths and byte
values* (for instruction punning) plus a handful of semantic facts
(branch classification, memory-write detection, rip-relative operands),
all of which are computed here directly from the Intel encoding grammar.
"""

from repro.x86.insn import Instruction, OperandKind
from repro.x86.decoder import decode, decode_buffer
from repro.x86.encoder import (
    encode_jmp_rel32,
    encode_jmp_rel8,
    encode_jcc_rel32,
    encode_call_rel32,
    encode_int3,
    encode_nop,
    encode_ret,
    Assembler,
)
from repro.x86.flow import (
    is_patchable_jump,
    is_heap_write,
    branch_target,
)

__all__ = [
    "Instruction",
    "OperandKind",
    "decode",
    "decode_buffer",
    "encode_jmp_rel32",
    "encode_jmp_rel8",
    "encode_jcc_rel32",
    "encode_call_rel32",
    "encode_int3",
    "encode_nop",
    "encode_ret",
    "Assembler",
    "is_patchable_jump",
    "is_heap_write",
    "branch_target",
]
