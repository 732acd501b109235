"""Differential tests for the vectorized decode pipeline.

``repro.x86.fastscan.decode_stream`` must be observationally identical
to ``decode_buffer`` — same instruction starts, same fields, same
``(bad)`` bytes — whichever internal route it takes: the scalar
fallback or the windowed vector walk.  Every test here compares
against the scalar decoder, so a numpy-less host still runs the
fallback-path cases (the vector cases skip).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import DecodeError
from repro.frontend.matchers import (
    match_all,
    match_calls,
    match_heap_writes,
    match_jumps,
)
from repro.x86 import fastscan as fs
from repro.x86.decoder import MAX_INSN_LEN, decode, decode_buffer
from repro.x86.fastscan import HAVE_NUMPY, InstructionStream, decode_stream

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector fast path needs numpy")


# --- corpora ---------------------------------------------------------------


def random_soup(seed: int, n: int) -> bytes:
    return random.Random(seed).randbytes(n)


def prefix_heavy(seed: int, n: int) -> bytes:
    """Byte soup skewed toward legacy prefixes and REX — the worst case
    for the sparse prefix-run fixup (run lengths, 66/67 anywhere in a
    run, the 15-byte limit)."""
    rng = random.Random(seed)
    pool = [0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65]
    out = bytearray()
    while len(out) < n:
        if rng.random() < 0.55:
            out.append(rng.choice(pool))
        elif rng.random() < 0.3:
            out.append(0x40 + rng.randrange(16))  # REX
        else:
            out.append(rng.randrange(256))
    return bytes(out[:n])


def vex_heavy(seed: int, n: int) -> bytes:
    """Soup seeded with VEX/EVEX lead bytes — the vectorized VEX/EVEX
    fixup (header size, map select, ModRM, immediate) at every offset."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < n:
        if rng.random() < 0.25:
            out.append(rng.choice([0xC4, 0xC5, 0x62]))
        out.append(rng.randrange(256))
    return bytes(out[:n])


def real_text(seed: int = 99) -> bytes:
    from repro.elf.reader import ElfFile
    from repro.synth.generator import SynthesisParams, synthesize

    binary = synthesize(SynthesisParams(
        n_jump_sites=300, n_write_sites=300, seed=seed))
    return bytes(ElfFile(binary.data).section_view(".text"))


ENDBR64 = b"\xf3\x0f\x1e\xfa"


def endbr_heavy(seed: int, n: int) -> bytes:
    """CET-style code: endbr64 landing pads sprinkled between short
    instruction runs."""
    rng = random.Random(seed)
    fillers = [b"\x90", b"\x50", b"\x58", b"\xc3", b"\x48\x89\xc1",
               b"\x31\xc0", b"\x83\xc0\x01"]
    out = bytearray()
    while len(out) < n:
        if rng.random() < 0.2:
            out += ENDBR64
        else:
            out += rng.choice(fillers)
    return bytes(out[:n])


def endbr_at_seams(chunk_size: int, chunks: int = 24) -> bytes:
    """endbr64 placed exactly at, just before, and straddling every
    *chunk_size*-byte boundary, between runs of nops."""
    out = bytearray()
    for i in range(chunks):
        body = bytearray(b"\x90" * chunk_size)
        phase = i % 4
        if phase == 0:
            body[:4] = ENDBR64  # exactly at the seam
        elif phase == 1:
            body[chunk_size - 4:] = ENDBR64  # ends on the seam
        elif phase == 2:
            body[chunk_size - 2:] = ENDBR64[:2]  # straddles: head...
            # ...the tail lands at the start of the next chunk via the
            # next iteration's prefix write below.
            out += body
            out += ENDBR64[2:]
            out += b"\x90" * (chunk_size - 2)
            continue
        else:
            body[7:11] = ENDBR64  # interior, off-seam
        out += body
    return bytes(out)


def endbr_in_immediates(seed: int, n: int) -> bytes:
    """movabs instructions whose *immediate* spells endbr64 — data that
    looks like a landing pad but is never an instruction start."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < n:
        if rng.random() < 0.3:
            # movabs $0x...f31e0ffa..., %rax — endbr bytes mid-immediate
            out += b"\x48\xb8" + ENDBR64 + ENDBR64
        else:
            out += rng.choice([b"\x90", b"\xc3", b"\x31\xc0"])
    return bytes(out[:n])


CORPORA = {
    "random": random_soup(1, 20_000),
    "prefix-heavy": prefix_heavy(2, 20_000),
    "vex-heavy": vex_heavy(3, 20_000),
    "real-text": real_text(),
    "truncated-tail": real_text()[:-3],  # ends mid-instruction
    "tiny": bytes.fromhex("90c3"),
    "one-prefix": b"\x66",  # a lone prefix is a 1-byte (bad)
    "empty": b"",
    "endbr-heavy": endbr_heavy(4, 20_000),
    "endbr-seams": endbr_at_seams(64),
    "endbr-immediates": endbr_in_immediates(5, 20_000),
    # movbe m, r / pextrd m, x, ib / mov m, r: stores in all three maps.
    "three-byte-stores": bytes.fromhex("0f38f107" "90" "660f3a160701" "90"
                                       "488907" "c3"),
}


def assert_stream_equals_list(stream, insns, label=""):
    assert len(stream) == len(insns), label
    for i, ref in enumerate(insns):
        got = stream[i]
        assert got == ref, f"{label}: insn {i} differs"
        assert bytes(got.raw) == bytes(ref.raw), f"{label}: raw {i} differs"
        assert got.mnemonic == ref.mnemonic, f"{label}: mnemonic {i}"


# --- stream vs decode_buffer ----------------------------------------------


class TestStreamIdentity:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_matches_decode_buffer(self, name):
        data = CORPORA[name]
        stream = decode_stream(data, address=0x400000, min_vector_bytes=0)
        insns = decode_buffer(data, address=0x400000)
        assert_stream_equals_list(stream, insns, name)

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_scalar_fallback_matches(self, name):
        """Forcing the scalar route (min_vector_bytes above the buffer
        size) must give the same stream — this is the numpy-less path."""
        data = CORPORA[name]
        stream = decode_stream(data, address=0x1000,
                               min_vector_bytes=len(data) + 1)
        insns = decode_buffer(data, address=0x1000)
        assert_stream_equals_list(stream, insns, name)

    def test_addresses_and_total_bytes(self):
        data = CORPORA["real-text"]
        stream = decode_stream(data, address=0x4000, min_vector_bytes=0)
        insns = decode_buffer(data, address=0x4000)
        addresses = [i.address for i in insns]
        assert [stream.address + o for o in stream.start_offsets()] == addresses
        # The bisect index the planner uses: zero-copy, same offsets.
        view = stream.offsets_view()
        assert [stream.address + o for o in view] == addresses
        assert not isinstance(view, list)
        assert stream.total_bytes == len(data)

    def test_negative_index_and_slice(self):
        data = CORPORA["real-text"]
        stream = decode_stream(data, min_vector_bytes=0)
        insns = decode_buffer(data)
        assert stream[-1] == insns[-1]
        assert list(stream[3:7]) == insns[3:7]

    def test_memoryview_input(self):
        data = CORPORA["random"]
        stream = decode_stream(memoryview(data), min_vector_bytes=0)
        assert_stream_equals_list(stream, decode_buffer(data))


# --- select / site_indices -------------------------------------------------


class TestSelect:
    @pytest.mark.parametrize("matcher", [match_all, match_jumps,
                                         match_calls, match_heap_writes])
    @pytest.mark.parametrize("name", ["random", "prefix-heavy", "real-text",
                                      "three-byte-stores"])
    def test_select_equals_brute_force(self, name, matcher):
        data = CORPORA[name]
        stream = decode_stream(data, address=0x400000, min_vector_bytes=0)
        assert stream.select(matcher) == [
            i for i in stream if matcher(i)]

    def test_unknown_matcher_falls_back(self):
        stream = decode_stream(CORPORA["real-text"], min_vector_bytes=0)
        picked = stream.select(lambda i: i.mnemonic == "nop")
        assert picked == [i for i in stream if i.mnemonic == "nop"]

    def test_site_indices_roundtrip(self):
        stream = decode_stream(CORPORA["real-text"], address=0x400000,
                               min_vector_bytes=0)
        sites = stream.select(match_jumps)
        indices = stream.site_indices(sites)
        assert [stream[i] for i in indices] == sites

    def test_site_indices_rejects_foreign_address(self):
        stream = decode_stream(CORPORA["real-text"], address=0x400000,
                               min_vector_bytes=0)
        foreign = decode_buffer(b"\x90", address=0x123)
        with pytest.raises(ValueError):
            stream.site_indices(foreign)


# --- pickling (artifact store) ---------------------------------------------


class TestPickle:
    def test_roundtrip_preserves_stream(self):
        data = CORPORA["real-text"]
        stream = decode_stream(memoryview(data), address=0x400000,
                               min_vector_bytes=0)
        clone = pickle.loads(pickle.dumps(stream))
        assert isinstance(clone, InstructionStream)
        assert clone.start_offsets() == stream.start_offsets()
        assert_stream_equals_list(clone, list(stream), "pickle clone")


# --- the dense scan against the scalar decoder, sample by sample ------------
#
# Each sample is one instruction head in a 16-byte slot (displacement and
# immediate bytes are filler).  A whole family is scanned as one buffer
# and the entry at every slot start is compared with ``decode`` of that
# slot; truncations are scanned one buffer each, so they cover every
# truncation of a deterministic subset of each family.

SLOT = 16
FILL = b"\x11" * SLOT


def _slot(head: bytes) -> bytes:
    return (head + FILL)[:SLOT]


def _one_byte_samples():
    return [_slot(bytes((op, mrm, sib)))
            for op in range(256) for mrm in range(256) for sib in (0x00, 0x05)]


def _two_byte_samples():
    return [_slot(bytes((0x0F, op, mrm, sib)))
            for op in range(256) for mrm in range(256) for sib in (0x00, 0x05)]


def _three_byte_samples():
    return [_slot(bytes((0x0F, esc, op, mrm, 0x05)))
            for esc in (0x38, 0x3A) for op in range(256) for mrm in range(256)]


def _rex_samples():
    out = []
    for rex in range(0x40, 0x50):
        for op in range(256):
            for mrm in (0x04, 0x05, 0x44, 0x84, 0xC0):
                out.append(_slot(bytes((rex, op, mrm, 0x05))))
            for mrm in (0x04, 0xC0):
                out.append(_slot(bytes((rex, 0x0F, op, mrm, 0x05))))
        out.append(_slot(bytes((rex, 0x0F, 0x38, 0xF1, 0x07))))
        out.append(_slot(bytes((rex, 0x0F, 0x3A, 0x16, 0x07, 0x01))))
    return out


def _operand_size_samples():
    """66/67 (alone, together, beside other prefixes and REX) before
    every opcode: Iz, rel32, moffs and group-3 immediates all resize."""
    heads = (b"\x66", b"\x67", b"\x66\x67", b"\xf2\x66", b"\x67\xf0",
             b"\x26\x66\x2e", b"\x66\x48", b"\x67\x48", b"\x66\x40")
    out = []
    for pre in heads:
        for op in range(256):
            for mrm in (0x04, 0x05, 0x0C, 0x14, 0xC0, 0xC8):
                out.append(_slot(pre + bytes((op, mrm, 0x05))))
            out.append(_slot(pre + bytes((0x0F, op, 0xC0))))
    return out


def _prefix_run_samples():
    """Runs of 13-15 legacy prefixes (66/67 at the start, the middle or
    the end of the run) before every opcode."""
    runs = []
    for k in (13, 14, 15):
        for fill in (0x2E, 0xF3):
            runs.append(bytes([fill] * k))
            for b in (0x66, 0x67):
                for at in (0, k // 2, k - 1):
                    run = bytearray([fill] * k)
                    run[at] = b
                    runs.append(bytes(run))
    return [(run + bytes((op,)) + FILL)[:SLOT + 1]
            for run in runs for op in range(256)]


def _vex_samples():
    """Each VEX/EVEX lead (C5, C4 with maps 0-31, 62 with maps 0-7) x
    every opcode, with and without a 66 prefix."""
    out = []
    for pre in (b"", b"\x66"):
        for op in range(256):
            for tail in (b"\x04\x05", b"\xc0"):
                out.append(_slot(pre + bytes((0xC5, 0xF8, op)) + tail))
                for mp in range(32):
                    out.append(_slot(pre + bytes((0xC4, 0xE0 | mp, 0x78, op))
                                     + tail))
                for mp in range(8):
                    out.append(_slot(pre + bytes((0x62, 0xF0 | mp, 0x7C, 0x48,
                                                  op)) + tail))
    return out


FAMILIES = {
    "one-byte": _one_byte_samples,
    "0f": _two_byte_samples,
    "0f38-0f3a": _three_byte_samples,
    "rex": _rex_samples,
    "66-67": _operand_size_samples,
    "prefix-runs": _prefix_run_samples,
    "vex-evex": _vex_samples,
}

MATCHER_BITS = ((match_jumps, fs.SB_JUMP), (match_calls, fs.SB_CALL),
                (match_heap_writes, fs.SB_WRITE))


def _mismatch(sample: bytes, entry: int):
    """Why the scan *entry* for *sample* disagrees with ``decode``, or
    None: equal lengths (0 exactly when decode raises), and candidate
    bits that cover every matcher the instruction satisfies."""
    length, bits = entry & fs._LEN, entry >> fs._SB & 15
    try:
        insn = decode(sample)
    except DecodeError:
        return None if entry == 0 else f"{sample.hex()}: scan {length}, decode raises"
    if length != insn.length or not bits & fs.SB_VALID:
        return f"{sample.hex()}: scan {length}, decode {insn.length}"
    for matcher, bit in MATCHER_BITS:
        if matcher(insn) and not bits & bit:
            return f"{sample.hex()}: {matcher.__name__} without its bit"
    return None


@requires_numpy
class TestScanExhaustive:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scan_matches_decode(self, family):
        samples = FAMILIES[family]()
        width = len(samples[0])
        entries = fs._scan(b"".join(samples))[::width].tolist()
        bad = [m for s, e in zip(samples, entries) if (m := _mismatch(s, e))]
        assert not bad, f"{len(bad)} mismatches, e.g. {bad[:5]}"

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_truncation(self, family):
        samples = FAMILIES[family]()
        bad = []
        for sample in samples[:: max(1, len(samples) // 150)]:
            for cut in range(1, MAX_INSN_LEN + 1):
                head = sample[:cut]
                if m := _mismatch(head, int(fs._scan(head)[0])):
                    bad.append(m)
        assert not bad, f"{len(bad)} mismatches, e.g. {bad[:5]}"


LONG = [
    bytes.fromhex("2e2e2e2e2e2e662e2e2e2e48c7c0"),  # 14 bytes, prefixed
    bytes.fromhex("2e3e2664" "818400" "11223344" "55667788"),  # 15 bytes
    bytes.fromhex("f02e3e" "62f37d4816840011223344" "05"),  # 15-byte EVEX
    bytes.fromhex("f0662e3e26646567" "81840011223344556677"),  # > 15: (bad)
    bytes.fromhex("66c4e27d18840011223344"),  # 66 + 3-byte VEX, disp32
    bytes.fromhex("62f17c48118c2400112233"),  # EVEX store, SIB + disp32
    bytes.fromhex("660f8011223344"),  # 66 jo rel16
    bytes.fromhex("48b8" "1122334455667788"),  # movabs imm64
]


@requires_numpy
class TestWindowSeams:
    """Windows are scanned independently with a lookahead: instructions
    straddling a window boundary, and buffers ending inside one, must
    decode exactly as in one whole-buffer sweep."""

    @staticmethod
    def long_insns(seed: int, n: int) -> bytes:
        rng = random.Random(seed)
        data = bytearray()
        while len(data) < n:
            data += rng.choice(LONG)
            data += b"\x90" * rng.randrange(4)
        return bytes(data)

    @pytest.mark.parametrize("window", [16, 64, 257])
    def test_instructions_straddle_windows(self, monkeypatch, window):
        monkeypatch.setattr(fs, "_WINDOW", window)
        data = self.long_insns(window, 8 * window)
        for name in ("data", "vex-heavy", "prefix-heavy"):
            buf = data if name == "data" else CORPORA[name][: 16 * window]
            stream = decode_stream(buf, address=0x1000, min_vector_bytes=0)
            assert_stream_equals_list(
                stream, decode_buffer(buf, address=0x1000), name)

    @pytest.mark.parametrize("insn", LONG)
    def test_buffer_ends_inside_instruction(self, insn):
        for cut in range(1, len(insn)):
            buf = b"\x90" * 40 + insn[:cut]
            stream = decode_stream(buf, min_vector_bytes=0)
            assert_stream_equals_list(stream, decode_buffer(buf), f"cut {cut}")
