"""Pin what the opcode rows contain, not just how their readers agree.

The decode differential compares two decoders that read the same rows,
and ``TestScanExhaustive`` compares ``fastscan`` with ``decode``, which
are generated from those rows too.  So a row that loses a store bit or
an effect would pass both.  This test decodes a fixed enumeration of
encodings and hashes, per encoding, the decode error or the decoded
fields plus every :class:`~repro.analysis.facts.InsnFacts` field.  The
digest changes exactly when some row's content changes.

The enumeration:

* every opcode of the one-byte, 0F, 0F38 and 0F3A maps, each with
  ModRM.reg 0-7 in eight addressing forms (register, ``[base]``, two
  SIB bytes, rip-relative, disp8, disp32, SIB with disp8), under the
  prefix heads none, 66, F2, F3, F0, 41, 48, ``66 48`` and ``F3 48``;
* every opcode behind the C5 lead, the C4 leads for maps 1-3 and the
  EVEX leads for maps 1-3, each with five ModRM bytes (one with
  ModRM.reg 3, for group stores such as vstmxcsr), under pp = none and
  66, and F3 for map 1 and EVEX map 2 (the vpmov* down-converts).

Rows hash their ``repr``, not their value: ``writes_rm == 0`` equals
``False`` under ``==`` but is a different row.  To see which rows a
change moves, dump :func:`rows` before and after and diff the two.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from operator import attrgetter

from repro.analysis.facts import InsnFacts, facts_for
from repro.errors import DecodeError
from repro.x86.decoder import decode

#: sha256 of the enumeration below.  Change it only together with the
#: rows a change means to move, and say which rows those are.
ROWS_DIGEST = "465a64d60e7a8d3cad2a6b42149c3bb7373fd2a11b346c1925b688403837bfdf"

HEADS = (b"", b"\x66", b"\xf2", b"\xf3", b"\xf0", b"\x41", b"\x48",
         b"\x66\x48", b"\xf3\x48")
MAPS = (b"", b"\x0f", b"\x0f\x38", b"\x0f\x3a")
#: (mod, rm, SIB) addressing forms; ModRM.reg is enumerated over them.
FORMS = (
    (3, 1, b""),        # register
    (0, 3, b""),        # [rbx]
    (0, 4, b"\x24"),    # SIB [rsp]
    (0, 4, b"\x85"),    # SIB disp32(,%rax,4), no base
    (0, 5, b""),        # rip-relative
    (1, 5, b""),        # disp8(%rbp)
    (2, 6, b""),        # disp32(%rsi)
    (1, 4, b"\x5e"),    # SIB disp8(%rsi,%rbx,2)
)
#: Each lead with pp = none and 66, and with F3 for map 1 and EVEX map 2
#: (pp is the low two bits of the last VEX byte, or of EVEX P1).
VEX_LEADS = (
    b"\xc5\xf8", b"\xc5\xf9", b"\xc5\xfa",
    b"\xc4\xe1\x78", b"\xc4\xe1\x79", b"\xc4\xe1\x7a",
    b"\xc4\xe2\x78", b"\xc4\xe2\x79",
    b"\xc4\xe3\x78", b"\xc4\xe3\x79",
    b"\x62\xf1\x7c\x08", b"\x62\xf1\x7d\x08", b"\x62\xf1\x7e\x08",
    b"\x62\xf2\x7c\x08", b"\x62\xf2\x7d\x08", b"\x62\xf2\x7e\x08",
    b"\x62\xf3\x7c\x08", b"\x62\xf3\x7d\x08",
)
VEX_MODRMS = (0xC1, 0x03, 0x44, 0x85, 0x18)
#: Displacement and immediate bytes after the addressing bytes: enough
#: for any length, with the sign bit set so sign extension shows.
TAIL = bytes.fromhex("f1e2d3c4b5a6978879695a4b3c2d1e0f")

_facts_fields = attrgetter(*(f.name for f in fields(InsnFacts)))


def encodings():
    """Every enumerated encoding, in a fixed order."""
    for head in HEADS:
        for escape in MAPS:
            for op in range(256):
                for mod, rm, sib in FORMS:
                    for reg in range(8):
                        yield (head + escape + bytes((op, mod << 6 | reg << 3 | rm))
                               + sib + TAIL)
    for lead in VEX_LEADS:
        for op in range(256):
            for modrm in VEX_MODRMS:
                yield lead + bytes((op, modrm)) + TAIL


def row(data: bytes) -> tuple:
    """The decode error, or the decoded fields and facts, of *data*."""
    try:
        insn = decode(data)
    except DecodeError as exc:
        return (data.hex(), str(exc))
    return (
        data[: insn.length].hex(), insn.length, insn.mnemonic, insn.flow,
        insn.writes_rm, insn.string_write, insn.opmap, insn.opcode,
        insn.imm_size, insn.imm, insn.disp_size,
    ) + _facts_fields(facts_for(insn))


def rows():
    return map(row, encodings())


def digest() -> str:
    h = hashlib.sha256()
    for r in rows():
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_rows_digest():
    assert digest() == ROWS_DIGEST

