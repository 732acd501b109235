"""The rewritable code image: current bytes + lock state per exec range.

Tactics read *current* bytes (a T2 retry must see the successor's new
jump bytes) and write through lock checks.  At emission the ELF writer
takes each range whole, in place of the input's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PatchError
from repro.core.locks import LockMap


@dataclass
class CodeRange:
    """One contiguous executable range under rewriting."""

    base: int
    data: bytearray
    locks: LockMap

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
        self.ranges.append(
            CodeRange(base=base, data=bytearray(data), locks=LockMap(base, len(data)))
        )
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

    def readable(self, vaddr: int, length: int) -> bool:
        r = self.range_at(vaddr)
        return r is not None and vaddr + length <= r.end

    def read(self, vaddr: int, length: int) -> bytes:
        """Current bytes at *vaddr* (reflecting prior patches)."""
        r = self.range_at(vaddr)
        if r is None or vaddr + length > r.end:
            raise PatchError(f"read outside code image at {vaddr:#x}")
        i = vaddr - r.base
        return bytes(r.data[i : i + length])

    def write(self, vaddr: int, data: bytes) -> None:
        """Overwrite bytes, enforcing and setting MODIFIED locks."""
        r = self.range_at(vaddr)
        if r is None or vaddr + len(data) > r.end:
            raise PatchError(f"write outside code image at {vaddr:#x}")
        r.locks.lock_modified(vaddr, len(data))  # LockViolation if locked
        i = vaddr - r.base
        r.data[i : i + len(data)] = data

    def write_unchecked(self, vaddr: int, data: bytes) -> None:
        """Overwrite bytes without lock bookkeeping (rollback support)."""
        r = self.range_at(vaddr)
        if r is None or vaddr + len(data) > r.end:
            raise PatchError(f"write outside code image at {vaddr:#x}")
        i = vaddr - r.base
        r.data[i : i + len(data)] = data

    def pun(self, vaddr: int, length: int) -> None:
        """Mark bytes as fixed rel32 cells (PUNNED)."""
        r = self.range_at(vaddr)
        if r is None or vaddr + length > r.end:
            raise PatchError(f"pun outside code image at {vaddr:#x}")
        r.locks.lock_punned(vaddr, length)

    def restore_locks(self, vaddr: int, states: bytes) -> None:
        """Restore a lock-state snapshot (transaction rollback)."""
        self.locks_for(vaddr).restore(vaddr, states)

    def is_writable(self, vaddr: int, length: int) -> bool:
        r = self.range_at(vaddr)
        return r is not None and r.locks.is_writable(vaddr, length)

    def locks_for(self, vaddr: int) -> LockMap:
        r = self.range_at(vaddr)
        if r is None:
            raise PatchError(f"address {vaddr:#x} outside code image")
        return r.locks
