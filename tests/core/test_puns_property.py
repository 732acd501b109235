"""Hypothesis properties over the pun-window arithmetic."""

from hypothesis import given, strategies as st

from repro.core.binary import CodeImage
from repro.core.puns import pun_windows, short_jump_spec
from repro.x86.decoder import decode

from tests.core import reference_planner as ref

BASE = 0x400000


@st.composite
def code_and_site(draw):
    code = draw(st.binary(min_size=24, max_size=64))
    ilen = draw(st.integers(1, 8))
    return code, ilen


class TestWindowProperties:
    @given(code_and_site())
    def test_windows_well_formed(self, data):
        code, ilen = data
        image = CodeImage.from_ranges([(BASE, code)])
        windows = list(pun_windows(image, BASE, BASE + ilen))
        paddings = [w.padding for w in windows]
        assert paddings == sorted(paddings)  # least-constrained first
        for w in windows:
            # Free bytes shrink as padding grows; window size = 256^free.
            assert 0 <= w.free <= 4
            assert w.target_hi - w.target_lo == 1 << (8 * w.free)
            # Written bytes stay inside the instruction.
            assert w.jump_addr == BASE
            assert w.written_len <= ilen
            # Written + punned account for the full jump encoding.
            assert w.written_len + w.punned_len == w.padding + 5

    @given(code_and_site())
    def test_encode_roundtrip_at_window_edges(self, data):
        """For boundary targets, writing the free bytes over the original
        code must decode as a single jump to exactly that target."""
        code, ilen = data
        image = CodeImage.from_ranges([(BASE, code)])
        for w in pun_windows(image, BASE, BASE + ilen):
            for target in (w.target_lo, w.target_lo + (w.target_hi - w.target_lo) // 2,
                           w.target_hi - 1):
                written = w.encode(target)
                assert len(written) == w.written_len
                full = written + image.read(BASE + len(written),
                                            w.padding + 5 - len(written))
                insn = decode(full, 0, address=BASE)
                assert insn.mnemonic == "jmp"
                assert insn.target == target

    @given(code_and_site())
    def test_fixed_bytes_prefix_free_bytes(self, data):
        """Free rel32 bytes are always the low-order (little-endian)
        prefix: increasing padding can only reduce the free count."""
        code, ilen = data
        image = CodeImage.from_ranges([(BASE, code)])
        frees = [w.free for w in pun_windows(image, BASE, BASE + ilen)]
        assert frees == sorted(frees, reverse=True)

    @given(st.binary(min_size=24, max_size=64), st.integers(1, 8),
           st.integers(0, 7))
    def test_locked_byte_blocks_all_windows(self, code, ilen, lock_off):
        image = CodeImage.from_ranges([(BASE, code)])
        if lock_off < ilen:
            image.write(BASE + lock_off, b"\x00")
            assert list(pun_windows(image, BASE, BASE + ilen)) == []


    @given(st.binary(min_size=1, max_size=40), st.data())
    def test_lazy_windows_match_reference(self, code, data):
        """The lazy enumeration yields exactly the reference's eager list,
        including sites whose fixed bytes run off the end of the image."""
        image = CodeImage.from_ranges([(BASE, code)])
        site = BASE + data.draw(st.integers(0, len(code) - 1))
        end = site + data.draw(st.integers(0, 16))
        min_padding = data.draw(st.integers(0, 3))
        max_padding = data.draw(st.one_of(st.none(), st.integers(0, 12)))
        assert list(pun_windows(
            image, site, end, min_padding=min_padding, max_padding=max_padding,
        )) == ref.pun_windows(
            image, site, end, min_padding=min_padding, max_padding=max_padding,
        )


class TestShortJumpProperties:
    @given(st.binary(min_size=16, max_size=48), st.integers(1, 6))
    def test_spec_targets_forward_only(self, code, ilen):
        image = CodeImage.from_ranges([(BASE, code)])
        spec = short_jump_spec(image, BASE, ilen)
        if spec is None:
            # Only possible for 1-byte sites with MSB-set successor.
            assert ilen == 1 and code[1] > 127
            return
        for target in spec.targets:
            assert BASE + 2 <= target <= BASE + 2 + 127
        written = spec.encode(spec.targets[0])
        assert written[0] == 0xEB
