"""Conservative backward liveness over linearly decoded regions.

The rewriter's trampolines save and restore every scratch register plus
the flags because, without control-flow recovery, nothing is known about
what the interrupted code still needs.  This pass recovers exactly
enough to shrink those saves: for each instruction address, the set of
registers and flags whose *current* value may still be consumed before
being overwritten.  Anything provably dead at a patch site is free real
estate for the instrumentation body.

Soundness over precision, in three layers:

* per-instruction facts come from :mod:`repro.analysis.facts`, whose
  unknown fallback reads everything and kills nothing — an unknown
  instruction therefore forces everything live across it;
* control flow is resolved only where it is syntactically certain:
  straight-line fall-through, direct ``jmp``, and the two-successor
  union for ``jcc``/``loop``.  Every other flow (``call``, ``ret``,
  indirect branches, ``syscall``, decode gaps) feeds the ⊤ live-out —
  *everything live* — exactly like E9Patch's own no-CFG stance;
* the fixpoint iterates **downward from ⊤** (all live) for a bounded
  number of reverse passes.  Each update recomputes a live-in from
  successor live-ins that over-approximate the least fixpoint, so every
  intermediate state also over-approximates it: stopping after any
  number of passes is sound, only precision is lost.  Two passes settle
  acyclic fall-through chains (one to seed, one to propagate across
  backward jumps); loops simply stay at ⊤, which is correct.

The solve runs on *effect columns*, one entry per instruction: the
registers and flags it may read, those it must kill, and its
successors.  Instructions repeat, and an instruction's facts and flow
are pure functions of its *shape* (the fields
:meth:`~repro.x86.fastscan.InstructionStream.shape_keys` packs), so a
numpy-backed stream decodes one representative per distinct shape
(:meth:`~repro.x86.fastscan.InstructionStream.shapes`), runs
:func:`~repro.analysis.facts.facts_for` on it and gathers the per-shape
answers into columns; branch targets come from the branches' own
displacement bytes.  Any other sequence (a list, a stdlib-backed
stream) runs ``facts_for`` per instruction.  Either way one flat
reverse sweep over Python int lists solves the columns.

Results are exposed per address through :meth:`LivenessAnalysis.at`, and
the whole analysis is lazy: constructing one costs nothing until the
first query.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.facts import (
    ALL_FLAGS,
    ALL_REGS,
    facts_for,
    flag_mask_names,
    reg_mask_names,
)
from repro.x86.insn import Instruction
from repro.x86.tables import Flow

__all__ = ["LivenessAnalysis", "SiteLiveness"]

#: Number of reverse sweeps.  One pass settles pure fall-through; the
#: second tightens across resolved backward branches.  More passes only
#: refine loop bodies, which our conservative ⊤ join keeps live anyway.
_DEFAULT_PASSES = 2

# A live set packs the register mask into bits 0-15 and the flag mask
# above them, so that one int operation updates both.
_FLAG_SHIFT = 16
_TOP = ALL_REGS | ALL_FLAGS << _FLAG_SHIFT

# Successor codes of the sweep.  A code >= 0 is a jcc/loop: the next
# instruction joined with the target index.  Codes <= _JUMP encode one
# successor j as _JUMP - j; a list whose jcc falls through to an
# instruction other than the next one gets j = n + k for pair k.
_FALL = -1  # the next instruction only
_UNKNOWN = -2  # ⊤ live-out
_JUMP = -3

# Flow classes of an instruction.
_K_FALL, _K_JUMP, _K_BRANCH, _K_UNKNOWN = range(4)


@dataclass(frozen=True, slots=True)
class SiteLiveness:
    """Live-in masks at one instruction address.

    ``live_regs``/``live_flags`` are may-live: a set bit means the value
    *might* still be needed.  The complementary ``dead_*`` masks are the
    actionable ones — a dead register may be clobbered without saving.
    """

    address: int
    live_regs: int = ALL_REGS
    live_flags: int = ALL_FLAGS

    @property
    def dead_regs(self) -> int:
        return ALL_REGS & ~self.live_regs

    @property
    def dead_flags(self) -> int:
        return ALL_FLAGS & ~self.live_flags

    def reg_is_dead(self, reg: int) -> bool:
        return not self.live_regs >> reg & 1

    def flags_are_dead(self, mask: int) -> bool:
        """True when every flag in *mask* is provably dead."""
        return not self.live_flags & mask

    def describe(self) -> str:
        regs = reg_mask_names(self.dead_regs) or ["-"]
        flags = flag_mask_names(self.dead_flags) or ["-"]
        return (f"dead regs: {', '.join(regs)}; "
                f"dead flags: {', '.join(flags)}")


class LivenessAnalysis:
    """Backward liveness over one decoded instruction sequence.

    The instruction sequence is the decoder's linear output for a
    region; instructions must be address-sorted (the decoder guarantees
    this).  The fixpoint is computed lazily on the first :meth:`at`,
    and each queried address's answer is kept.
    """

    def __init__(self, instructions: Sequence[Instruction],
                 passes: int = _DEFAULT_PASSES) -> None:
        self._instructions = instructions
        self._passes = passes
        self._live: list[int] | None = None
        self._index_of: Callable[[int], int | None] = {}.get
        self._sites: dict[int, SiteLiveness] = {}

    # -- queries -----------------------------------------------------------

    def at(self, address: int) -> SiteLiveness:
        """Live-in masks at *address* (⊤ for unanalyzed addresses)."""
        site = self._sites.get(address)
        if site is None:
            if self._live is None:
                self._solve()
            i = self._index_of(address)
            if i is None:
                site = SiteLiveness(address=address)
            else:
                live = self._live[i]
                site = SiteLiveness(address, live & ALL_REGS, live >> _FLAG_SHIFT)
            self._sites[address] = site
        return site

    # -- fixpoint ----------------------------------------------------------

    def _solve(self) -> None:
        insns = self._instructions
        shapes = getattr(insns, "shapes", None)
        shapes = shapes() if shapes is not None and len(insns) else None
        if shapes is not None:
            self._index_of, columns = _stream_columns(insns, shapes)
        else:
            self._index_of, columns = _list_columns(insns)
        self._live = _sweep(*columns, self._passes)


def _effects(insn: Instruction) -> tuple[int, int]:
    """(read, keep) of *insn*: the packed live set it may read, and the
    complement of the one it must kill."""
    f = facts_for(insn)
    read = f.regs_read | f.flags_read << _FLAG_SHIFT
    kill = f.regs_killed | f.flags_killed << _FLAG_SHIFT
    return read, _TOP & ~kill


def _kind(flow: Flow) -> int:
    if flow is Flow.NONE:
        return _K_FALL
    if flow is Flow.JMP:
        return _K_JUMP
    if flow is Flow.JCC or flow is Flow.LOOP:
        return _K_BRANCH
    return _K_UNKNOWN  # CALL / RET / GROUP5 / SYSCALL / INT3 / INT / HLT


def _stream_columns(stream, shapes):
    """Columns of a numpy-backed stream: ``facts_for`` and the flow of
    one representative per distinct shape key, gathered per start."""
    import numpy as np

    _, reps, inverse = shapes
    rows = []
    for r in reps.tolist():
        insn = stream[r]
        rows.append((*_effects(insn), _kind(insn.flow), insn.imm_size))
    read, keep, kind, imm = (np.array(col, np.int64) for col in zip(*rows))
    kind = kind[inverse]
    succ = np.where(kind == _K_UNKNOWN, _UNKNOWN, _FALL)
    br = np.flatnonzero((kind == _K_JUMP) | (kind == _K_BRANCH))
    if len(br):
        tgt = stream.branch_targets(br, imm[inverse[br]])
        code = np.where(kind[br] == _K_BRANCH, tgt, _JUMP - tgt)
        succ[br] = np.where(tgt < 0, _UNKNOWN, code)

    offs, base = stream.offsets_view(), stream.address

    def index_of(address: int) -> int | None:
        off = address - base
        i = bisect_right(offs, off) - 1
        return i if i >= 0 and offs[i] == off else None

    columns = (read[inverse].tolist(), keep[inverse].tolist(), succ.tolist(), [])
    return index_of, columns


def _list_columns(instructions: Sequence[Instruction]):
    """Columns of any other sequence, one ``facts_for`` per instruction."""
    insns = list(instructions)
    n = len(insns)
    index = {insn.address: i for i, insn in enumerate(insns)}
    read, keep, succ = [], [], []
    pairs: list[tuple[int, int]] = []
    for i, insn in enumerate(insns):
        r, k = _effects(insn)
        read.append(r)
        keep.append(k)
        kind = _kind(insn.flow)
        code = _UNKNOWN
        if kind == _K_FALL:
            nxt = index.get(insn.end)
            if nxt is not None:
                code = _FALL if nxt == i + 1 else _JUMP - nxt
        elif kind == _K_JUMP:
            tgt = index.get(insn.target)
            if tgt is not None:
                code = _JUMP - tgt
        elif kind == _K_BRANCH:
            nxt = index.get(insn.end)
            tgt = index.get(insn.target)
            if nxt == i + 1 and tgt is not None:
                code = tgt
            elif nxt is not None and tgt is not None:
                code = _JUMP - n - len(pairs)
                pairs.append((nxt, tgt))
        succ.append(code)
    return index.get, (read, keep, succ, pairs)


def _sweep(read, keep, succ, pairs, passes: int) -> list[int]:
    """Packed live-in sets: *passes* reverse sweeps from ⊤, updating in
    place (a backward successor reads the previous pass), stopping early
    once a pass changes nothing."""
    n = len(succ)
    live = [_TOP] * n
    for _ in range(passes):
        before = live.copy()
        cur = _TOP  # live-in past the last instruction
        for i in range(n - 1, -1, -1):
            s = succ[i]
            if s == _FALL:
                out = cur
            elif s >= 0:
                out = cur | live[s]
            elif s == _UNKNOWN:
                out = _TOP
            else:
                j = _JUMP - s
                if j < n:
                    out = live[j]
                else:
                    a, b = pairs[j - n]
                    out = live[a] | live[b]
            cur = out & keep[i] | read[i]
            live[i] = cur
        if live == before:
            break
    return live
