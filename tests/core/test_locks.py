"""The code image's per-byte lock map (paper Section 3.4)."""

import pytest

from repro.core.binary import MODIFIED, PUNNED, UNLOCKED, CodeImage
from repro.errors import LockViolation, PatchError


def image(size: int = 16, base: int = 0x1000) -> CodeImage:
    return CodeImage.from_ranges([(base, bytes(range(size)))])


class TestLockMap:
    def test_initial_state(self):
        img = image()
        assert img.is_writable(0x1000, 16)
        assert img.state(0x1008) == UNLOCKED

    def test_modified_blocks_writes(self):
        img = image()
        img.write(0x1000, b"\xaa" * 4)
        assert not img.is_writable(0x1000, 1)
        assert not img.is_writable(0x1002, 4)
        assert img.is_writable(0x1004, 4)
        with pytest.raises(LockViolation):
            img.write(0x1003, b"\xbb" * 2)

    def test_punned_blocks_writes(self):
        img = image()
        img.pun(0x1004, 2)
        assert not img.is_writable(0x1004, 1)
        assert img.state(0x1004) == PUNNED

    def test_pun_over_modified_keeps_modified(self):
        """A MODIFIED byte may serve as a fixed rel32 cell; its state must
        not be downgraded (the byte was still overwritten)."""
        img = image()
        img.write(0x1000, b"\xaa" * 2)
        img.pun(0x1000, 4)
        assert img.state(0x1000) == MODIFIED
        assert img.state(0x1002) == PUNNED

    def test_pun_idempotent(self):
        img = image()
        img.pun(0x1000, 4)
        img.pun(0x1002, 4)  # overlapping pun is fine
        assert img.state(0x1003) == PUNNED

    def test_out_of_range(self):
        img = image()
        assert not img.is_writable(0x0FFF, 1)
        assert not img.is_writable(0x100F, 2)
        with pytest.raises(PatchError):
            img.state(0x2000)

    def test_snapshot_restore(self):
        img = image(8)
        snap = img.snapshot(0x1000, 8)
        img.write(0x1000, b"\xaa" * 3)
        img.pun(0x1003, 2)
        img.restore(0x1000, *snap)
        assert img.is_writable(0x1000, 8)
        assert img.read(0x1000, 8) == bytes(range(8))

    def test_locked_write_names_first_byte_and_changes_nothing(self):
        img = image()
        img.write(0x1004, b"\xaa")
        img.pun(0x1005, 1)
        before = img.snapshot(0x1002, 6)
        with pytest.raises(LockViolation, match="0x1004 already modified"):
            img.write(0x1002, b"\xcc" * 6)  # spans MODIFIED, then PUNNED
        assert img.snapshot(0x1002, 6) == before
        assert img.state_name(0x1005) == "punned"
