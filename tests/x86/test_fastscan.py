"""Differential tests for the vectorized decode pipeline.

``repro.x86.fastscan.decode_stream`` must be observationally identical
to ``decode_buffer`` — same instruction starts, same fields, same
``(bad)`` bytes — whichever internal route it takes: the scalar
fallback, the windowed vector walk, or chunked decode with boundary
reconciliation.  Every test here compares against the scalar decoder,
so a numpy-less host still runs the fallback-path cases (the vector
cases skip).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.frontend.matchers import (
    match_all,
    match_calls,
    match_heap_writes,
    match_jumps,
)
from repro.x86.decoder import decode_buffer
from repro.x86.fastscan import HAVE_NUMPY, InstructionStream, decode_stream

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector fast path needs numpy")


# --- corpora ---------------------------------------------------------------


def random_soup(seed: int, n: int) -> bytes:
    return random.Random(seed).randbytes(n)


def prefix_heavy(seed: int, n: int) -> bytes:
    """Byte soup skewed toward legacy prefixes and REX — the worst case
    for prefix-run accounting (66/67 carry-doubling, 15-byte limit)."""
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
    """Soup seeded with VEX/EVEX lead bytes (the sentinel-resolution
    path: those positions re-decode through the scalar decoder)."""
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
    instruction runs — the corpus the chunk-boundary snapping heuristic
    is tuned for."""
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
    chunk boundary — the seam positions the snapping pass rewrites."""
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
    looks like a landing pad.  Snapping may anchor a chunk inside the
    immediate; reconciliation must still converge to the true chain."""
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


# --- chunked decode with boundary reconciliation ---------------------------


@requires_numpy
class TestChunkedDecode:
    @pytest.mark.parametrize("chunk_size", [7, 64, 4096])
    @pytest.mark.parametrize("name", ["random", "prefix-heavy",
                                      "vex-heavy", "real-text",
                                      "truncated-tail"])
    def test_chunked_equals_serial(self, name, chunk_size):
        """Chunk seams land mid-instruction by construction (sizes 7 and
        64 cannot align with instruction boundaries for long): the
        reconciliation walk must still converge to the serial chain."""
        data = CORPORA[name]
        serial = decode_stream(data, address=0x400000, min_vector_bytes=0)
        chunked = decode_stream(data, address=0x400000,
                                chunk_size=chunk_size, min_vector_bytes=0)
        assert chunked.start_offsets() == serial.start_offsets()
        assert chunked.chunks == -(-len(data) // chunk_size)
        assert chunked.reconcile_retries >= 0
        # Candidate bits must match too, or select() would diverge.
        assert bytes(chunked._mbits) == bytes(serial._mbits)

    def test_reconciliation_happens(self):
        """With 7-byte chunks over real code, some seam must need scalar
        re-decode steps — otherwise the counter is wired to nothing."""
        data = CORPORA["real-text"]
        chunked = decode_stream(data, chunk_size=7, min_vector_bytes=0)
        assert chunked.reconcile_retries > 0

    def test_executor_backed_chunks(self):
        from repro.core.parallel import BatchExecutor, ExecutorConfig

        data = CORPORA["real-text"]
        executor = BatchExecutor(
            ExecutorConfig(jobs=2, cpu_count=2, start_method="spawn"))
        serial = decode_stream(data, min_vector_bytes=0)
        chunked = decode_stream(data, executor=executor,
                                chunk_size=4096, min_vector_bytes=0)
        assert chunked.start_offsets() == serial.start_offsets()

    def test_counters_on_serial_stream(self):
        # Any non-chunked decode is "one chunk, no reconciliation".
        stream = decode_stream(CORPORA["random"], min_vector_bytes=0)
        assert stream.chunks == 1
        assert stream.reconcile_retries == 0
        assert stream.endbr_snaps == 0


# --- endbr64 chunk anchoring ------------------------------------------------


@requires_numpy
class TestEndbrAnchoring:
    """CET landing pads double as decode anchors: interior chunk
    boundaries snap forward to the next endbr64, which is a guaranteed
    instruction start in real CET code.  Snapping is purely a placement
    heuristic — seam reconciliation still proves every chunk against the
    true chain, so even adversarial data (endbr bytes inside an
    immediate) costs retries, never correctness."""

    @pytest.mark.parametrize("chunk_size", [64, 512])
    @pytest.mark.parametrize("name", ["endbr-heavy", "endbr-seams",
                                      "endbr-immediates"])
    def test_differential_vs_reference(self, name, chunk_size):
        data = CORPORA[name]
        chunked = decode_stream(data, address=0x400000,
                                chunk_size=chunk_size, min_vector_bytes=0)
        assert_stream_equals_list(
            chunked, decode_buffer(data, address=0x400000),
            f"{name}/{chunk_size}")

    def test_snaps_counted_on_endbr_heavy_code(self):
        data = CORPORA["endbr-heavy"]
        chunked = decode_stream(data, chunk_size=64, min_vector_bytes=0)
        assert chunked.endbr_snaps > 0
        serial = decode_stream(data, min_vector_bytes=0)
        assert chunked.start_offsets() == serial.start_offsets()

    def test_snapped_boundaries_are_instruction_starts(self):
        """On genuine CET code every snapped boundary is a real
        instruction start, so reconciliation converges with zero
        retries — the whole point of anchoring on endbr64."""
        data = CORPORA["endbr-seams"]
        chunked = decode_stream(data, chunk_size=64, min_vector_bytes=0)
        assert chunked.endbr_snaps > 0
        assert chunked.reconcile_retries == 0

    def test_endbr_inside_immediate_still_correct(self):
        """Anchors that land inside movabs immediates mis-place chunks;
        the reconciliation walk must absorb that as retries."""
        data = CORPORA["endbr-immediates"]
        serial = decode_stream(data, address=0x1000, min_vector_bytes=0)
        chunked = decode_stream(data, address=0x1000, chunk_size=64,
                                min_vector_bytes=0)
        assert chunked.start_offsets() == serial.start_offsets()
        assert bytes(chunked._mbits) == bytes(serial._mbits)

    def test_snaps_survive_pickle(self):
        data = CORPORA["endbr-heavy"]
        chunked = decode_stream(data, chunk_size=64, min_vector_bytes=0)
        clone = pickle.loads(pickle.dumps(chunked))
        assert clone.endbr_snaps == chunked.endbr_snaps


# --- select / site_indices -------------------------------------------------


class TestSelect:
    @pytest.mark.parametrize("matcher", [match_all, match_jumps,
                                         match_calls, match_heap_writes])
    @pytest.mark.parametrize("name", ["random", "prefix-heavy", "real-text"])
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


# --- pickling (artifact cache + process fan-out) ---------------------------


class TestPickle:
    def test_roundtrip_preserves_stream(self):
        data = CORPORA["real-text"]
        stream = decode_stream(memoryview(data), address=0x400000,
                               min_vector_bytes=0)
        clone = pickle.loads(pickle.dumps(stream))
        assert isinstance(clone, InstructionStream)
        assert clone.start_offsets() == stream.start_offsets()
        assert_stream_equals_list(clone, list(stream), "pickle clone")
