"""Instruction-punning arithmetic (paper Sections 2.1.3 and 3.1).

A relative near jump written at address ``j`` with ``p`` bytes of prefix
padding occupies ``[j, j+p+5)``: the padding, the 0xE9 opcode at ``j+p``,
and rel32 at ``[j+p+1, j+p+5)``.  Bytes inside the *writable window*
``[j, writable_end)`` may be chosen freely; rel32 bytes at or past
``writable_end`` are **fixed** to whatever currently occupies them (they
belong to successor instructions and become PUNNED).

Because the writable window is a contiguous range starting at ``j``, the
free rel32 bytes are always a low-order (little-endian) prefix, so every
``(j, p)`` attempt yields exactly **one contiguous window** of candidate
jump targets ``[target_base, target_base + 256**free)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.binary import CodeImage
from repro.x86.prefixes import jump_padding

JMP_OPCODE = 0xE9
SHORT_JMP_OPCODE = 0xEB
MAX_JUMP_LEN = 15  # architectural instruction-length limit


_PW_FIELDS = ("jump_addr", "padding", "free", "target_lo", "target_hi",
              "written_len", "punned_len")


class PunWindow:
    """One candidate punned-jump placement.

    A plain ``__slots__`` class (not a dataclass): window enumeration is
    the plan pass's hottest constructor, and most windows are discarded
    after one allocation probe.  Treat instances as immutable.

    Attributes:
        jump_addr: address of the first written byte (padding or opcode).
        padding: number of redundant prefix bytes before 0xE9.
        free: number of freely choosable low-order rel32 bytes (0..4).
        target_lo/target_hi: the half-open window of reachable targets.
        written_len: bytes that will be overwritten ([jump_addr, +written_len)).
        punned_len: fixed rel32 bytes past the writable window that must be
            locked PUNNED ([jump_addr+written_len, +punned_len)).
    """

    __slots__ = _PW_FIELDS

    def __init__(self, jump_addr: int, padding: int, free: int,
                 target_lo: int, target_hi: int,
                 written_len: int, punned_len: int) -> None:
        self.jump_addr = jump_addr
        self.padding = padding
        self.free = free
        self.target_lo = target_lo
        self.target_hi = target_hi
        self.written_len = written_len
        self.punned_len = punned_len

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PunWindow:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in _PW_FIELDS)

    __hash__ = None  # mutable container semantics, like the old dataclass

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in _PW_FIELDS)
        return f"PunWindow({body})"

    @property
    def jump_end(self) -> int:
        """Address the rel32 is relative to (end of the jump instruction)."""
        return self.jump_addr + self.padding + 5

    def rel32_for(self, target: int) -> int:
        rel = target - self.jump_end
        if not -(1 << 31) <= rel < (1 << 31):
            raise ValueError(f"target {target:#x} out of rel32 range")
        return rel

    def encode(self, target: int) -> bytes:
        """The *written* bytes (padding + opcode + free rel32 bytes) for
        a jump to *target*; fixed rel32 bytes are not written."""
        rel = self.rel32_for(target) & 0xFFFFFFFF
        full = (
            jump_padding(self.padding)
            + bytes((JMP_OPCODE,))
            + rel.to_bytes(4, "little")
        )
        return full[: self.written_len]


def pun_windows(
    image: CodeImage,
    jump_addr: int,
    writable_end: int,
    *,
    min_padding: int = 0,
    max_padding: int | None = None,
) -> Iterator[PunWindow]:
    """Lazily enumerate the pun placements for a jump at *jump_addr*.

    *writable_end* bounds the bytes this jump may overwrite (typically the
    end of the instruction being replaced).  All bytes of
    ``[jump_addr, writable_end)`` must currently be unlocked; fixed rel32
    bytes past *writable_end* must be readable in the image.

    Yields windows least-constrained first (smallest padding).  Each
    window's fixed bytes are read when it is reached, so a caller that
    stops at the first usable window never pays for the rest; callers
    must not change the image between windows without restoring it.
    """
    room = writable_end - jump_addr
    if room <= 0:
        return
    if max_padding is None:
        max_padding = room - 1
    max_padding = min(max_padding, room - 1, MAX_JUMP_LEN - 5)

    if not image.is_writable(jump_addr, room):
        return
    # One range lookup for the whole enumeration; the padding loop reads
    # fixed bytes straight out of the range buffer.
    r = image.range_at(jump_addr)
    r_base, r_end, r_data = r.base, r.end, r.data

    from_bytes = int.from_bytes
    for p in range(min_padding, max_padding + 1):
        rel_pos = jump_addr + p + 1
        jump_end = rel_pos + 4
        free = writable_end - rel_pos
        if free > 4:
            free = 4
        elif free < 0:
            free = 0
        n_fixed = 4 - free
        if n_fixed:
            fixed_at = rel_pos + free
            if fixed_at >= r_base and fixed_at + n_fixed <= r_end:
                i = fixed_at - r_base
                fixed = r_data[i : i + n_fixed]
            elif image.readable(fixed_at, n_fixed):
                fixed = image.read(fixed_at, n_fixed)
            else:
                continue  # fixed bytes fall outside the mapped image
            high = from_bytes(fixed, "little") << (8 * free)
            lo = jump_end + ((high ^ 0x80000000) - 0x80000000)
            hi = lo + (1 << (8 * free))
        else:
            lo = jump_end - (1 << 31)
            hi = jump_end + (1 << 31)
        yield PunWindow(jump_addr, p, free, lo, hi, p + 1 + free, n_fixed)


@dataclass(frozen=True)
class ShortJumpSpec:
    """A (possibly punned) two-byte short jump at a patch site.

    For single-byte patch instructions the rel8 byte is *fixed* to the
    successor's first byte, leaving exactly one reachable target
    (limitation L2 of the paper).
    """

    site: int
    rel8_free: bool
    targets: tuple[int, ...]  # candidate JPatch locations, best-first

    @property
    def written_len(self) -> int:
        return 2 if self.rel8_free else 1

    def encode(self, target: int) -> bytes:
        rel = target - (self.site + 2)
        if not 0 <= rel <= 127:
            raise ValueError("short jump target out of forward rel8 range")
        full = bytes((SHORT_JMP_OPCODE, rel))
        return full[: self.written_len]


def short_jump_spec(image: CodeImage, site: int, ilen: int) -> ShortJumpSpec | None:
    """Candidate targets for tactic T3's ``JShort`` at *site*.

    Per the paper's lock discipline, only forward (positive rel8) targets
    are considered.
    """
    if not image.is_writable(site, min(2, ilen)):
        return None
    if ilen >= 2:
        targets = tuple(site + 2 + rel for rel in range(0, 128))
        return ShortJumpSpec(site=site, rel8_free=True, targets=targets)
    # Single-byte instruction: rel8 is the successor's first byte (punned).
    if not image.readable(site + 1, 1):
        return None
    rel = image.read(site + 1, 1)[0]
    if rel > 127:
        return None  # negative rel8: disallowed by the lock discipline
    return ShortJumpSpec(site=site, rel8_free=False, targets=(site + 2 + rel,))
