"""Pun-window arithmetic, including the paper's Figure 1 values."""

import pytest

from repro.core.binary import CodeImage
from repro.core.puns import ShortJumpSpec, pun_windows, short_jump_spec
from repro.x86.decoder import decode

# The paper's running example (Figure 1):
#   Ins1: 48 89 03        mov %rax,(%rbx)      @ 0
#   Ins2: 48 83 c0 20     add $32,%rax         @ 3
#   Ins3: 48 31 c1        xor %rax,%rcx        @ 7
#   Ins4: 83 7b fc 4d     cmpl $77,-4(%rbx)    @ 10
FIG1 = bytes.fromhex("488903" "4883c020" "4831c1" "837bfc4d")
BASE = 0x400000


def fig1_image() -> CodeImage:
    return CodeImage.from_ranges([(BASE, FIG1 + b"\x90" * 32)])


class TestFigure1Windows:
    def test_b2_window_matches_paper(self):
        """B2 on Ins1: rel32 = 0x8348XXXX (paper Section 2.1.3)."""
        img = fig1_image()
        windows = list(pun_windows(img, BASE, BASE + 3))
        b2 = windows[0]
        assert b2.padding == 0
        assert b2.free == 2
        # Fixed high bytes are Ins2's first two bytes (48 83) ->
        # rel32 in 0x83480000..0x8348ffff (little endian), sign-extended
        # negative.
        rel_lo = b2.target_lo - b2.jump_end
        rel_hi = b2.target_hi - b2.jump_end
        assert rel_lo & 0xFFFFFFFF == 0x83480000
        assert rel_hi - rel_lo == 0x10000
        assert rel_lo < 0  # MSB set: negative offset, as the paper notes

    def test_t1a_window_matches_paper(self):
        """T1(a): one pad byte -> rel32 = 0xc08348XX."""
        img = fig1_image()
        windows = list(pun_windows(img, BASE, BASE + 3))
        t1a = windows[1]
        assert t1a.padding == 1
        assert t1a.free == 1
        rel_lo = (t1a.target_lo - t1a.jump_end) & 0xFFFFFFFF
        assert rel_lo == 0xC0834800
        assert t1a.target_hi - t1a.target_lo == 0x100

    def test_t1b_window_matches_paper(self):
        """T1(b): two pad bytes -> exactly rel32 = 0x20c08348 (positive)."""
        img = fig1_image()
        windows = list(pun_windows(img, BASE, BASE + 3))
        t1b = windows[2]
        assert t1b.padding == 2
        assert t1b.free == 0
        rel = t1b.target_lo - t1b.jump_end
        assert rel == 0x20C08348
        assert t1b.target_hi - t1b.target_lo == 1

    def test_no_more_windows_than_room(self):
        img = fig1_image()
        assert len(list(pun_windows(img, BASE, BASE + 3))) == 3


class TestWindowMechanics:
    def test_b1_full_freedom_for_long_instruction(self):
        img = CodeImage.from_ranges([(BASE, b"\x90" * 64)])
        windows = list(pun_windows(img, BASE, BASE + 5))
        w = windows[0]
        assert w.free == 4
        assert w.target_hi - w.target_lo == 1 << 32
        assert w.target_lo == w.jump_end - (1 << 31)
        assert w.punned_len == 0

    def test_single_byte_instruction_single_candidate(self):
        img = fig1_image()
        windows = list(pun_windows(img, BASE, BASE + 1))
        assert len(windows) == 1
        w = windows[0]
        assert w.free == 0
        assert w.written_len == 1  # only the opcode byte
        assert w.punned_len == 4

    def test_encode_writes_only_free_bytes(self):
        img = fig1_image()
        w = next(pun_windows(img, BASE, BASE + 3))
        target = w.target_lo + 0x1234
        raw = w.encode(target)
        assert len(raw) == w.written_len == 3
        assert raw[0] == 0xE9
        # Reassembled jump must decode to the target.
        full = raw + img.read(BASE + 3, 2)
        insn = decode(full, 0, address=BASE)
        assert insn.target == target

    @pytest.mark.parametrize("ilen", [2, 3, 4, 5, 6, 7])
    def test_every_window_target_encodable(self, ilen):
        img = CodeImage.from_ranges([(BASE, bytes(range(64)))])
        for w in pun_windows(img, BASE, BASE + ilen):
            for target in (w.target_lo, w.target_hi - 1):
                raw = w.encode(target)
                assert len(raw) == w.written_len
                tail = img.read(BASE + len(raw), (w.padding + 5) - len(raw))
                insn = decode(raw + tail, 0, address=BASE)
                assert insn.target == target, (ilen, w.padding)

    def test_locked_bytes_block_windows(self):
        img = fig1_image()
        img.write(BASE + 1, b"\x00")  # lock one byte inside Ins1
        assert list(pun_windows(img, BASE, BASE + 3)) == []

    def test_fixed_bytes_must_be_readable(self):
        # Instruction at the very end of the image: no successor bytes.
        img = CodeImage.from_ranges([(BASE, b"\x90\x90\x90")])
        windows = list(pun_windows(img, BASE, BASE + 3))
        # p=0/p=1 need fixed bytes beyond the image: only p=2 survives
        # (rel32 would still need 2 bytes beyond -> none survive).
        assert windows == []

    def test_window_count_scales_with_length(self):
        img = CodeImage.from_ranges([(BASE, bytes(64))])
        for ilen in range(1, 8):
            assert len(list(pun_windows(img, BASE, BASE + ilen))) == ilen


class TestShortJumpSpec:
    def test_two_byte_site_has_128_targets(self):
        img = fig1_image()
        spec = short_jump_spec(img, BASE, 3)
        assert spec is not None
        assert spec.rel8_free
        assert len(spec.targets) == 128
        assert spec.targets[0] == BASE + 2
        assert spec.targets[-1] == BASE + 2 + 127

    def test_single_byte_site_fixed_target(self):
        # rel8 is the successor's first byte; Ins1's second byte (0x89)
        # has its MSB set (backward jump), so no spec is available.
        img = fig1_image()
        assert short_jump_spec(img, BASE, 1) is None

    def test_encode(self):
        img = fig1_image()
        spec = short_jump_spec(img, BASE, 3)
        raw = spec.encode(BASE + 2 + 7)
        assert raw == b"\xeb\x07"
        with pytest.raises(ValueError):
            spec.encode(BASE - 10)  # backward: forbidden


def test_single_byte_msb_cases():
    # successor byte 0x90 (<=127? no, 0x90=144>127) -> rejected
    img = CodeImage.from_ranges([(BASE, b"\xc3\x90" + bytes(40))])
    assert short_jump_spec(img, BASE, 1) is None
    # successor byte 0x05 -> exactly one candidate
    img2 = CodeImage.from_ranges([(BASE, b"\xc3\x05" + bytes(40))])
    spec = short_jump_spec(img2, BASE, 1)
    assert spec is not None
    assert spec.targets == (BASE + 2 + 5,)
    assert spec.encode(BASE + 7) == b"\xeb"  # only opcode written
