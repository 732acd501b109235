"""Patch-site matchers: which instructions get instrumented.

``A1`` (all jmp/jcc) and ``A2`` (heap writes) are the two applications
evaluated in the paper's Table 1; ``all`` patches every real instruction
(the paper's limitation-L3 stress case).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.x86.fastscan import (
    SB_CALL,
    SB_JUMP,
    SB_VALID,
    SB_WRITE,
    InstructionStream,
)
from repro.x86.flow import is_heap_write
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

Matcher = Callable[[Instruction], bool]

_JMP = Flow.JMP
_JCC = Flow.JCC


def _is_real(insn: Instruction) -> bool:
    return insn.mnemonic != "(bad)"


def match_jumps(insn: Instruction) -> bool:
    """A1: direct jmp/jcc instructions (:func:`~repro.x86.flow.is_patchable_jump`).

    Written against raw attributes, flow test first: this predicate runs
    once per decoded instruction and rejects ~90% of them on the flow
    check alone.
    """
    f = insn.flow
    return (f is _JMP or f is _JCC) and insn.mnemonic != "(bad)"


def match_heap_writes(insn: Instruction) -> bool:
    """A2: instructions that may write through heap pointers."""
    return _is_real(insn) and is_heap_write(insn)


def match_all(insn: Instruction) -> bool:
    """Every decodable instruction (limitation L3 stress test)."""
    return _is_real(insn)


def match_calls(insn: Instruction) -> bool:
    """Direct calls (useful for call-tracing applications)."""
    return _is_real(insn) and insn.mnemonic == "call" and insn.is_direct_branch


# The candidate bit of each named matcher: every instruction it accepts
# has that SB_* bit set, so InstructionStream.select runs it only there.
match_jumps.candidate_bit = SB_JUMP
match_heap_writes.candidate_bit = SB_WRITE
match_all.candidate_bit = SB_VALID
match_calls.candidate_bit = SB_CALL

MATCHERS: dict[str, Matcher] = {
    "jumps": match_jumps,
    "heap-writes": match_heap_writes,
    "calls": match_calls,
    "all": match_all,
}


def resolve_matcher(spec: Matcher | str | None) -> Matcher | None:
    """The predicate for a matcher spec: the :data:`MATCHERS` entry for a
    name, a compiled match expression for any other string, and anything
    else (a callable, or ``None``) unchanged."""
    if not isinstance(spec, str):
        return spec
    named = MATCHERS.get(spec)
    if named is not None:
        return named
    # Imported here: the expression language pulls in repro.analysis,
    # which named matchers never need.
    from repro.frontend.match_expr import compile_matcher

    return compile_matcher(spec)


def select_sites(
    instructions: Sequence[Instruction], matcher: Matcher
) -> list[Instruction]:
    """All instructions selected by *matcher*, in address order.

    A stream selects through :meth:`InstructionStream.select`, which
    materializes only the instructions the matcher may accept; any
    other sequence is filtered.
    """
    if isinstance(instructions, InstructionStream):
        return instructions.select(matcher)
    return [i for i in instructions if matcher(i)]
