"""Differential tests: the fast-path decoder against the reference.

``repro.x86.decoder.decode`` is a table-dispatched fast path;
``decode_reference`` (``tests/x86/reference_decoder.py``) is the
original straight-line implementation kept as an oracle.  Both must
agree *exactly* — every public field and, for rejected input, the
error message — on real compiled code and on arbitrary byte soup.
INTERNALS.md §7 documents the fast path; this file is its safety net.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError
from repro.x86.decoder import decode, decode_buffer
from repro.x86.insn import _FIELDS
from tests.conftest import requires_gcc, requires_objdump
from tests.x86.reference_decoder import decode_reference
from tests.x86.test_decoder_objdump import objdump_instructions


def assert_same_decode(data: bytes, offset: int = 0, address: int = 0):
    """Decode via both paths and compare field-by-field (or error-by-error)."""
    fast_err = ref_err = None
    fast = ref = None
    try:
        fast = decode(data, offset, address=address)
    except DecodeError as exc:
        fast_err = str(exc)
    try:
        ref = decode_reference(data, offset, address=address)
    except DecodeError as exc:
        ref_err = str(exc)
    assert fast_err == ref_err, (
        f"error divergence on {data.hex()} @ {offset}: "
        f"fast={fast_err!r} reference={ref_err!r}"
    )
    if fast is None:
        return None
    for name in _FIELDS:
        assert getattr(fast, name) == getattr(ref, name), (
            f"field {name} diverges on {data.hex()} @ {offset}: "
            f"fast={getattr(fast, name)!r} reference={getattr(ref, name)!r}"
        )
    return fast


@requires_gcc
@requires_objdump
class TestCompiledCorpus:
    def test_every_instruction_agrees(self, compiled_corpus):
        """Field-identical decode on every objdump-listed instruction of
        every corpus variant (thousands of real instructions)."""
        total = 0
        for path in compiled_corpus.values():
            for addr, raw, text in objdump_instructions(str(path)):
                if "(bad)" in text or text.startswith(".byte"):
                    continue
                assert_same_decode(raw, 0, address=addr)
                total += 1
        assert total > 500

    def test_bulk_decode_matches_singles(self, compiled_corpus):
        """decode_buffer over a contiguous run equals one-at-a-time decode."""
        path = next(iter(compiled_corpus.values()))
        listing = [
            (addr, raw) for addr, raw, text in objdump_instructions(str(path))
            if "(bad)" not in text and not text.startswith(".byte")
        ]
        # Find a contiguous run to sweep linearly.
        run: list[tuple[int, bytes]] = []
        for addr, raw in listing:
            if run and addr != run[-1][0] + len(run[-1][1]):
                if len(run) >= 50:
                    break
                run = []
            run.append((addr, raw))
        assert len(run) >= 50
        base = run[0][0]
        blob = b"".join(raw for _, raw in run)
        insns = decode_buffer(blob, address=base)
        assert len(insns) == len(run)
        for insn, (addr, raw) in zip(insns, run):
            assert insn.address == addr
            assert insn.raw == raw


class TestFuzzDifferential:
    @settings(max_examples=1500)
    @given(st.binary(min_size=1, max_size=20))
    def test_random_bytes_agree(self, data):
        assert_same_decode(data)

    @settings(max_examples=500)
    @given(st.binary(min_size=1, max_size=24), st.integers(0, 4))
    def test_nonzero_offsets_agree(self, data, offset):
        assert_same_decode(data, min(offset, len(data)))

    @settings(max_examples=500)
    @given(st.binary(min_size=1, max_size=18))
    def test_prefix_soup_agrees(self, data):
        """Stress the prefix loop: REX / legacy / VEX lead-in bytes."""
        soup = bytes([0x66, 0xF2, 0x48, 0xC4]) + data
        assert_same_decode(soup)
        assert_same_decode(bytes([0x67, 0x65]) + data)

    @settings(max_examples=300)
    @given(st.binary(min_size=1, max_size=16))
    def test_two_byte_map_agrees(self, data):
        assert_same_decode(b"\x0f" + data)
        assert_same_decode(b"\x0f\x38" + data)
        assert_same_decode(b"\x0f\x3a" + data)

    @settings(max_examples=300)
    @given(st.binary(min_size=1, max_size=20))
    def test_lazy_raw_matches_slice(self, data):
        """The fast path's lazy ``raw`` must materialize the same bytes
        the reference stored eagerly."""
        try:
            fast = decode(data, 0)
        except DecodeError:
            return
        ref = decode_reference(data, 0)
        assert fast.raw == ref.raw == data[: fast.length]


#: Every legacy prefix byte (segment overrides, operand/address size,
#: lock, repeat) — the bytes the fast path's first-byte class table must
#: loop over before reaching an opcode.
LEGACY_PREFIXES = [0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67,
                   0xF0, 0xF2, 0xF3]


class TestPrefixHeavyCorpus:
    """Prefix-dense inputs: deep prefix chains, REX in legal and stale
    positions, and the 15-byte instruction-length limit — the paths most
    likely to diverge between the table-dispatched fast decoder and the
    straight-line reference."""

    @settings(max_examples=600)
    @given(st.lists(st.sampled_from(LEGACY_PREFIXES), min_size=1,
                    max_size=14),
           st.binary(min_size=1, max_size=8))
    def test_stacked_legacy_prefixes_agree(self, prefixes, tail):
        assert_same_decode(bytes(prefixes) + tail)

    @settings(max_examples=400)
    @given(st.integers(0x40, 0x4F),
           st.lists(st.sampled_from(LEGACY_PREFIXES), max_size=6),
           st.binary(min_size=1, max_size=8))
    def test_rex_positions_agree(self, rex, prefixes, tail):
        """REX is only effective immediately before the opcode; a stale
        REX followed by legacy prefixes must decode identically too."""
        assert_same_decode(bytes(prefixes) + bytes([rex]) + tail)
        assert_same_decode(bytes([rex]) + bytes(prefixes) + tail)

    def test_length_limit_boundary(self):
        """Exactly-at and past the 15-byte instruction length limit."""
        for n in range(10, 17):
            assert_same_decode(bytes([0x66] * n) + b"\x90")
            assert_same_decode(bytes([0x2E] * n) + b"\x0f\xaf\xc1")

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(LEGACY_PREFIXES), min_size=1,
                    max_size=13))
    def test_prefixes_only_agree(self, prefixes):
        """A prefix run that never reaches an opcode."""
        assert_same_decode(bytes(prefixes))


class TestTruncationBoundaries:
    """Every valid instruction re-decoded at every byte prefix of its
    encoding: the two decoders must agree on the outcome at each cut —
    the same truncation error, or the same shorter instruction when a
    prefix happens to be self-delimiting."""

    @settings(max_examples=400)
    @given(st.binary(min_size=1, max_size=15))
    def test_random_valid_instructions(self, data):
        try:
            insn = decode_reference(data, 0)
        except DecodeError:
            return
        for cut in range(1, insn.length):
            assert_same_decode(data[:cut])

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(LEGACY_PREFIXES), min_size=1,
                    max_size=4),
           st.binary(min_size=1, max_size=10))
    def test_prefixed_truncations(self, prefixes, tail):
        data = bytes(prefixes) + tail
        for cut in range(1, len(data)):
            assert_same_decode(data[:cut])

    def test_synthetic_stream_every_prefix(self):
        """Deterministic corpus: every instruction of a generated
        workload binary, truncated at every byte boundary."""
        from repro.elf.reader import ElfFile
        from repro.frontend.lineardisasm import disassemble_text
        from repro.synth.generator import SynthesisParams, synthesize

        binary = synthesize(SynthesisParams(
            n_jump_sites=20, n_write_sites=20, seed=5,
            short_jump_frac=0.5, short_store_frac=0.5))
        instructions = disassemble_text(ElfFile(binary.data))
        assert len(instructions) > 200
        seen: set[bytes] = set()
        for insn in instructions:
            raw = bytes(insn.raw)
            if raw in seen:
                continue
            seen.add(raw)
            full = assert_same_decode(raw, address=insn.address)
            assert full is not None and full.length == len(raw)
            for cut in range(1, len(raw)):
                assert_same_decode(raw[:cut], address=insn.address)
