"""Regression tests for lazy ``Instruction.raw`` / ``legacy_prefixes``.

The decoder no longer copies instruction bytes eagerly: ``raw`` is a
view descriptor (buffer, start, length) materialized on first access,
and ``legacy_prefixes`` stores only the prefix *count* until read.
The contract for mutable source buffers: materialization snapshots the
bytes as of the first access, and a materialized ``raw`` is immune to
later buffer mutation.  (Decoding a buffer you keep mutating gives you
snapshot semantics per instruction, not live views.)
"""

from __future__ import annotations

import pickle

from repro.x86.decoder import decode, decode_buffer
from tests.x86.reference_decoder import decode_reference


def test_raw_is_lazy_until_accessed():
    insn = decode(b"\x66\x90\xcc", 0)
    assert insn._raw is None  # not yet materialized
    assert insn.raw == b"\x66\x90"
    assert insn._raw == b"\x66\x90"  # now snapshotted


def test_materialized_raw_survives_buffer_mutation():
    buf = bytearray(b"\x66\x90\x90\xc3")
    insns = decode_buffer(buf)
    first = insns[0].raw  # materialize before mutating
    buf[0] = 0xCC
    buf[1] = 0xCC
    assert first == b"\x66\x90"
    assert insns[0].raw == b"\x66\x90"  # still the snapshot


def test_unmaterialized_raw_snapshots_at_first_access():
    # Documented edge: mutate *before* the first access and the snapshot
    # reflects the mutated bytes — the decode's field values (mnemonic,
    # length) were fixed at decode time, only the byte copy is deferred.
    buf = bytearray(b"\x90\xc3")
    insns = decode_buffer(buf)
    buf[0] = 0xCC
    assert insns[0].raw == b"\xcc"
    assert insns[0].mnemonic == "nop"  # decoded before the mutation


def test_legacy_prefixes_lazy_and_correct():
    insn = decode(b"\xf0\x66\x90", 0)
    assert type(insn._legacy) is int  # stored as a count
    assert insn.legacy_prefixes == b"\xf0\x66"
    assert type(insn._legacy) is bytes  # memoized after first read


def test_reference_decoder_is_lazy_too():
    insn = decode_reference(b"\x66\x90", 0)
    assert insn._raw is None
    assert insn.raw == b"\x66\x90"


def test_pickle_carries_materialized_bytes():
    insn = decode(b"\x66\x90", 0)
    clone = pickle.loads(pickle.dumps(insn))
    assert clone.raw == b"\x66\x90"
    assert clone.legacy_prefixes == b"\x66"


def test_bad_bytes_raw_is_bytes():
    insns = decode_buffer(memoryview(b"\x66"))  # lone prefix -> (bad)
    assert insns[0].mnemonic == "(bad)"
    assert insns[0].raw == b"\x66"
    assert type(insns[0].raw) is bytes
