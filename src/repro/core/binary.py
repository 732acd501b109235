"""The rewritable code image: each code byte's value and lock state.

Reverse-order patching (paper Section 3.4) rests on one per-byte lock
discipline, kept here and nowhere else.  Every byte of an executable
range is in one of three states:

* ``UNLOCKED`` — may be modified or relied upon by future patches;
* ``MODIFIED`` — overwritten by a previous patch; immutable;
* ``PUNNED`` — retains its original value but is read as part of a punned
  jump's rel32; immutable (its *value* is load-bearing).

Writing requires ``UNLOCKED``.  Punning (treating a byte as a fixed rel32
cell) is allowed in any state — a MODIFIED or PUNNED byte can never change
again, so relying on its current value is always safe — and promotes
UNLOCKED bytes to PUNNED.

Tactics read *current* bytes (a T2 retry must see the successor's new
jump bytes).  At emission the ELF writer takes each range whole, in
place of the input's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LockViolation, PatchError

UNLOCKED = 0
MODIFIED = 1
PUNNED = 2

_NAMES = ("unlocked", "modified", "punned")
_MODIFIED_BYTE = bytes((MODIFIED,))


@dataclass
class CodeRange:
    """One contiguous executable range under rewriting."""

    base: int
    data: bytearray
    #: One lock state per byte of ``data``.
    locks: bytearray

    @property
    def end(self) -> int:
        return self.base + len(self.data)


class CodeImage:
    """Mutable view of the executable portions of a binary."""

    def __init__(self) -> None:
        self.ranges: list[CodeRange] = []
        # Single-entry range cache: patch loops hammer the same range.
        self._last_range: CodeRange | None = None

    @classmethod
    def from_ranges(cls, ranges: list[tuple[int, bytes]]) -> "CodeImage":
        img = cls()
        for base, data in ranges:
            img.add_range(base, data)
        return img

    def add_range(self, base: int, data: bytes) -> None:
        self.ranges.append(CodeRange(base=base, data=bytearray(data),
                                     locks=bytearray(len(data))))
        self.ranges.sort(key=lambda r: r.base)

    def range_at(self, vaddr: int) -> CodeRange | None:
        r = self._last_range
        if r is not None and r.base <= vaddr < r.base + len(r.data):
            return r
        for r in self.ranges:
            if r.base <= vaddr < r.base + len(r.data):
                self._last_range = r
                return r
        return None

    def _span(self, vaddr: int, length: int, what: str) -> tuple[CodeRange, int]:
        """The range holding ``[vaddr, vaddr+length)`` and *vaddr*'s index
        in it; PatchError if the span leaves the image."""
        r = self.range_at(vaddr)
        if r is None or vaddr + length > r.end:
            raise PatchError(f"{what} outside code image at {vaddr:#x}")
        return r, vaddr - r.base

    def readable(self, vaddr: int, length: int) -> bool:
        r = self.range_at(vaddr)
        return r is not None and vaddr + length <= r.end

    def read(self, vaddr: int, length: int) -> bytes:
        """Current bytes at *vaddr* (reflecting prior patches)."""
        r, i = self._span(vaddr, length, "read")
        return bytes(r.data[i : i + length])

    def write(self, vaddr: int, data: bytes) -> None:
        """Overwrite bytes that are all UNLOCKED and lock them MODIFIED.

        A locked byte raises :class:`LockViolation` naming the first one
        before anything changes.
        """
        n = len(data)
        r, i = self._span(vaddr, n, "write")
        locks = r.locks
        if locks.count(UNLOCKED, i, i + n) != n:
            k = next(k for k in range(i, i + n) if locks[k] != UNLOCKED)
            raise LockViolation(
                f"byte {r.base + k:#x} already {_NAMES[locks[k]]}")
        r.data[i : i + n] = data
        locks[i : i + n] = _MODIFIED_BYTE * n

    def pun(self, vaddr: int, length: int) -> None:
        """Mark bytes as fixed rel32 cells: UNLOCKED bytes become PUNNED,
        MODIFIED and PUNNED bytes keep their state."""
        r, i = self._span(vaddr, length, "pun")
        locks = r.locks
        for k in range(i, i + length):
            if locks[k] == UNLOCKED:
                locks[k] = PUNNED

    def is_writable(self, vaddr: int, length: int) -> bool:
        """True if every byte of ``[vaddr, vaddr+length)`` is in the image
        and UNLOCKED."""
        r = self.range_at(vaddr)
        if r is None or vaddr + length > r.end:
            return False
        i = vaddr - r.base
        return r.locks.count(UNLOCKED, i, i + length) == length

    def state(self, vaddr: int) -> int:
        """Lock state of the byte at *vaddr*."""
        r, i = self._span(vaddr, 1, "lock query")
        return r.locks[i]

    def state_name(self, vaddr: int) -> str:
        return _NAMES[self.state(vaddr)]

    def snapshot(self, vaddr: int, length: int) -> tuple[bytes, bytes]:
        """The bytes and lock states of ``[vaddr, vaddr+length)``, for
        :meth:`restore` (transaction rollback)."""
        r, i = self._span(vaddr, length, "snapshot")
        return bytes(r.data[i : i + length]), bytes(r.locks[i : i + length])

    def restore(self, vaddr: int, data: bytes, locks: bytes) -> None:
        """Put back a :meth:`snapshot`'s bytes and lock states, unchecked."""
        n = len(data)
        r, i = self._span(vaddr, n, "restore")
        r.data[i : i + n] = data
        r.locks[i : i + n] = locks
