"""CodeImage behaviour: reads reflect writes; locks enforced."""

import pytest

from repro.core.binary import CodeImage
from repro.errors import LockViolation, PatchError


def image() -> CodeImage:
    return CodeImage.from_ranges([(0x1000, bytes(range(64))),
                                  (0x4000, b"\xff" * 32)])


class TestCodeImage:
    def test_read_initial(self):
        img = image()
        assert img.read(0x1000, 4) == bytes([0, 1, 2, 3])
        assert img.read(0x4000, 2) == b"\xff\xff"

    def test_write_then_read(self):
        img = image()
        img.write(0x1010, b"\xAA\xBB")
        assert img.read(0x1010, 2) == b"\xaa\xbb"

    def test_write_locks(self):
        img = image()
        img.write(0x1010, b"\xAA")
        with pytest.raises(LockViolation):
            img.write(0x1010, b"\xBB")

    def test_pun_locks(self):
        img = image()
        img.pun(0x1020, 4)
        with pytest.raises(LockViolation):
            img.write(0x1022, b"\x00")

    def test_out_of_range_read(self):
        img = image()
        with pytest.raises(PatchError):
            img.read(0x2000, 1)
        with pytest.raises(PatchError):
            img.read(0x103E, 4)  # crosses range end

    def test_readable_predicate(self):
        img = image()
        assert img.readable(0x1000, 64)
        assert not img.readable(0x1000, 65)
        assert not img.readable(0x3000, 1)

    def test_restore_undoes_write(self):
        img = image()
        before = img.snapshot(0x1000, 2)
        img.write(0x1000, b"\xAA\xBB")
        img.restore(0x1000, *before)
        assert img.read(0x1000, 2) == b"\x00\x01"
        img.write(0x1000, b"\xCC")  # unlocked again

    def test_ranges_sorted(self):
        img = CodeImage()
        img.add_range(0x5000, b"\x00" * 8)
        img.add_range(0x1000, b"\x00" * 8)
        assert [r.base for r in img.ranges] == [0x1000, 0x5000]
