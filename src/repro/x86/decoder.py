"""Exact x86-64 instruction length decoder.

Implements the Intel encoding grammar for 64-bit mode: legacy prefixes,
REX, VEX (C4/C5), EVEX (62), the one/two/three-byte opcode maps, ModRM,
SIB, displacement, and immediates.  Lengths are exact; the test suite
validates against ``objdump`` on compiler output.

:func:`decode` is a single-pass loop over a precomputed 256-entry
first-byte dispatch table (``_FIRST``: opcode / legacy prefix / REX /
VEX-escape) and dense per-opcode entry tuples (``_D1`` / ``_D2`` /
``_D38`` / ``_D3A``) generated at import from the rows of
:mod:`repro.x86.tables`, with group mnemonics and group writes resolved
per ModRM.reg.  The hot loop performs no dict lookups, no method calls
and no byte slicing (``Instruction.raw`` stays a lazy view).

The cursor-based decoder this one was derived from is kept as the
oracle of the differential tests (``tests/x86/reference_decoder.py``):
both must agree on every field and, for rejected input, on the error
message.
"""

from __future__ import annotations

from functools import cache

from repro.errors import DecodeError
from repro.x86 import prefixes as pfx
from repro.x86 import tables
from repro.x86.insn import Instruction
from repro.x86.tables import F_INVALID64, F_STRING_WRITE, Flow, Imm, OpSpec

MAX_INSN_LEN = 15


# ---------------------------------------------------------------------------
# Dispatch tables.
# ---------------------------------------------------------------------------
# First-byte classification: what role a byte plays at the start of an
# instruction (after any bytes already consumed).
_OPC, _PFX, _REX, _VEX = 0, 1, 2, 3

_FIRST = bytearray(256)
for _b in pfx.LEGACY_PREFIXES:
    _FIRST[_b] = _PFX
for _b in range(0x40, 0x50):
    _FIRST[_b] = _REX
for _b in (0xC4, 0xC5, 0x62):
    _FIRST[_b] = _VEX


def _entry(spec: OpSpec | None):
    """Flatten a row into the decoder's per-opcode tuple:
    (mnemonic, has_modrm, imm_code, flow, flags, writes_rm, groups).

    For a group opcode, *groups* holds ``(mnemonic, writes_rm)`` per
    ModRM.reg, and the entry's own *writes_rm* says whether any of them
    writes (what :mod:`repro.x86.fastscan` keys its store bit on).
    """
    if spec is None:
        return None
    names, effects = spec.mnemonic, spec.effects
    groups = None
    if type(names) is tuple or type(effects) is tuple:
        if type(names) is not tuple:
            names = (names,) * 8
        if type(effects) is not tuple:
            effects = (effects,) * 8
        groups = tuple((n, e.rm_w) for n, e in zip(names, effects))
        writes = any(w for _, w in groups)
        names = names[0]
    else:
        writes = effects.rm_w
    return (names, spec.modrm, spec.imm.value, spec.flow, spec.flags, writes, groups)


# Legacy maps: None marks bytes with no opcode meaning (prefixes, VEX
# escapes, 0F) — reaching one of those in the opcode slot is an error.
# The one-byte map is indexed ``REX.B << 8 | opcode``.
_D1, _D2, _D38, _D3A = (
    [_entry(spec) for spec in tables.legacy_rows(m)] for m in range(4)
)


@cache
def _vex_entry(opmap: int, opcode: int, pp: int):
    """The entry of a VEX/EVEX opcode under the pp bits *pp*.  Its REL32
    immediate kind (map 1, 80-8F) decodes as IZ: the same size, but VEX
    immediates are not sign-extended.  Whether it stores comes from
    ``tables.VEX_STORE_FORMS``; an opcode that stores under some ModRM.reg
    values only (vstmxcsr) gets per-reg groups."""
    has_modrm = (opmap, opcode) not in tables.VEX_NO_MODRM
    kind = tables.vex_imm_kind(opmap, opcode)
    if kind is Imm.REL32:
        kind = Imm.IZ
    name = f"vex.m{opmap}.{opcode:02x}" if has_modrm else "vzeroupper"
    writes = [tables.vex_writes_rm(opmap, opcode, pp, reg) for reg in range(8)]
    groups = None
    if any(writes) and not all(writes):
        groups = tuple((name, w) for w in writes)
    return (name, has_modrm, kind.value, Flow.NONE, 0, any(writes), groups)


# Imm enum values, inlined as ints for the hot loop's compares.
_IMM_IB, _IMM_IW, _IMM_IZ, _IMM_IV = 1, 2, 3, 4
_IMM_IW_IB, _IMM_REL8, _IMM_REL32, _IMM_MOFFS, _IMM_GROUP3 = 5, 6, 7, 8, 9


def decode(data: bytes, offset: int = 0, address: int | None = None) -> Instruction:
    """Decode one instruction from *data* at *offset* (fast path).

    *address* is the virtual address of the instruction (defaults to
    *offset*), used for branch-target computation and display.

    Raises :class:`DecodeError` for invalid or truncated encodings.
    """
    n = len(data)
    if offset >= n:
        raise DecodeError("offset beyond end of buffer", offset=offset)
    limit = offset + MAX_INSN_LEN
    if limit > n:
        limit = n

    pos = offset
    first = _FIRST

    # --- legacy prefixes ---------------------------------------------------
    opsize16 = addrsize32 = rep = False
    npfx = 0
    while True:
        if pos >= limit:
            raise DecodeError("truncated instruction", offset=offset)
        b = data[pos]
        cls = first[b]
        if cls != _PFX:
            break
        pos += 1
        npfx += 1
        if npfx > 14:
            raise DecodeError("prefix run exceeds instruction limit", offset=offset)
        if b == 0x66:
            opsize16 = True
        elif b == 0x67:
            addrsize32 = True
        elif b == 0xF3:
            rep = True
    # Prefixes are the first npfx bytes of raw; the Instruction slices
    # them out lazily on first access (no per-instruction bytes copy).
    legacy = npfx

    # --- REX / VEX / EVEX, then the opcode -----------------------------------
    rex = vex = None
    if cls == _VEX:
        # VEX (C5: 2 bytes, C4: 3) or EVEX (62: 4 bytes); the map select
        # sits in the first payload byte.  No legacy-map rule applies.
        size = 2 if b == 0xC5 else 3 if b == 0xC4 else 4
        if pos + size >= limit:
            raise DecodeError("truncated instruction", offset=offset)
        vex = bytes(data[pos : pos + size])
        opmap = 1 if b == 0xC5 else vex[1] & (0x1F if b == 0xC4 else 0x07)
        pos += size
        opcode = data[pos]
        pos += 1
        entry = _vex_entry(opmap, opcode, vex[1 if b == 0xC5 else 2] & 3)
        rep = False
    else:
        if cls == _REX:
            rex = b
            pos += 1
            if pos >= limit:
                raise DecodeError("truncated instruction", offset=offset)
            b = data[pos]
        pos += 1
        opmap = 0
        opcode = b
        if b != 0x0F:
            entry = _D1[b if rex is None else (rex & 1) << 8 | b]
            if entry is None:
                raise DecodeError(f"unknown opcode {opcode:#04x}", offset=offset)
        else:
            if pos >= limit:
                raise DecodeError("truncated instruction", offset=offset)
            opcode = data[pos]
            pos += 1
            opmap = 1
            if opcode == 0x38:
                if pos >= limit:
                    raise DecodeError("truncated instruction", offset=offset)
                opcode = data[pos]
                pos += 1
                opmap = 2
                entry = _D38[opcode]
            elif opcode == 0x3A:
                if pos >= limit:
                    raise DecodeError("truncated instruction", offset=offset)
                opcode = data[pos]
                pos += 1
                opmap = 3
                entry = _D3A[opcode]
            else:
                entry = _D2[opcode]

    mnemonic, has_modrm, ic, flow, flags, writes_rm, groups = entry
    if flags & F_INVALID64:
        raise DecodeError(f"opcode {opcode:#04x} invalid in 64-bit mode",
                          offset=offset)
    opcode_offset = pos - offset - 1

    # --- ModRM / SIB / displacement ----------------------------------------
    modrm = sib = disp = None
    disp_offset = disp_size = 0
    if has_modrm:
        if pos >= limit:
            raise DecodeError("truncated instruction", offset=offset)
        modrm = data[pos]
        pos += 1
        mod = modrm >> 6
        if mod != 3:
            rm = modrm & 7
            if rm == 4:
                if pos >= limit:
                    raise DecodeError("truncated instruction", offset=offset)
                sib = data[pos]
                pos += 1
                if mod == 0:
                    if (sib & 7) == 5:
                        disp_size = 4
                else:
                    disp_size = 1 if mod == 1 else 4
            elif mod == 0:
                if rm == 5:
                    disp_size = 4  # rip-relative (eip-relative with 0x67)
            else:
                disp_size = 1 if mod == 1 else 4
            if disp_size:
                disp_offset = pos - offset
                end = pos + disp_size
                if end > limit:
                    raise DecodeError("truncated instruction", offset=offset)
                v = int.from_bytes(data[pos:end], "little")
                pos = end
                bit = 1 << (disp_size * 8 - 1)
                disp = (v ^ bit) - bit

    # --- immediate ---------------------------------------------------------
    imm = None
    imm_offset = imm_size = 0
    if ic:
        if ic == _IMM_IB or ic == _IMM_REL8:
            ilen = 1
        elif ic == _IMM_IZ or ic == _IMM_REL32:
            ilen = 2 if opsize16 else 4
        elif ic == _IMM_IV:
            if rex is not None and rex & 0x08:
                ilen = 8
            else:
                ilen = 2 if opsize16 else 4
        elif ic == _IMM_GROUP3:
            if ((modrm >> 3) & 7) < 2:  # test r/m, imm
                if opcode == 0xF6:
                    ilen = 1
                else:
                    ilen = 2 if opsize16 else 4
            else:
                ilen = 0
        elif ic == _IMM_IW:
            ilen = 2
        elif ic == _IMM_IW_IB:
            ilen = 3
        else:  # MOFFS
            ilen = 4 if addrsize32 else 8
        if ilen:
            imm_offset = pos - offset
            imm_size = ilen
            end = pos + ilen
            if end > limit:
                raise DecodeError("truncated instruction", offset=offset)
            v = int.from_bytes(data[pos:end], "little")
            pos = end
            if ic == _IMM_REL8 or ic == _IMM_REL32:
                bit = 1 << (ilen * 8 - 1)
                v = (v ^ bit) - bit
            imm = v

    # --- semantics ---------------------------------------------------------
    if groups is not None:
        mnemonic, writes_rm = groups[(modrm >> 3) & 7]
    if rep:
        # F3 rules: F3 90 is pause; F3 0F 7E is movq xmm, xmm/m64, a load
        # (66 0F 7E and 0F 7E store).
        if opmap == 0:
            if opcode == 0x90:
                mnemonic = "pause"
        elif opmap == 1 and opcode == 0x7E:
            mnemonic = "movq"
            writes_rm = False

    insn = Instruction.__new__(Instruction)
    insn._raw = None
    insn._data = data
    insn._start = offset
    insn._len = pos - offset
    insn.mnemonic = mnemonic
    insn.address = offset if address is None else address
    insn._legacy = legacy
    insn.rex = rex
    insn.vex = vex
    insn.opmap = opmap
    insn.opcode = opcode
    insn.opcode_offset = opcode_offset
    insn.modrm = modrm
    insn.sib = sib
    insn.disp = disp
    insn.disp_offset = disp_offset
    insn.disp_size = disp_size
    insn.imm = imm
    insn.imm_offset = imm_offset
    insn.imm_size = imm_size
    insn.flow = flow
    insn.writes_rm = writes_rm
    insn.string_write = (flags & F_STRING_WRITE) != 0
    # raw stays a lazy (buffer, start, length) view for every buffer
    # type, mutable ones included: materialization snapshots the bytes
    # at first access, and a materialized raw is an independent copy
    # that later buffer mutation cannot corrupt.
    return insn


def _imm_bytes(kind: Imm, opsize16: bool, rexw: bool, opcode: int,
               modrm_reg: int | None, addrsize32: bool) -> int:
    """Return the immediate length in bytes for the given context (the
    rule :mod:`repro.x86.fastscan` builds its length tables from)."""
    if kind == Imm.NONE:
        return 0
    if kind in (Imm.IB, Imm.REL8):
        return 1
    if kind == Imm.IW:
        return 2
    if kind == Imm.IZ:
        return 2 if opsize16 else 4
    if kind == Imm.REL32:
        return 2 if opsize16 else 4
    if kind == Imm.IV:
        if rexw:
            return 8
        return 2 if opsize16 else 4
    if kind == Imm.IW_IB:
        return 3
    if kind == Imm.MOFFS:
        return 4 if addrsize32 else 8
    if kind == Imm.GROUP3:
        if modrm_reg in (0, 1):  # test r/m, imm
            if opcode == 0xF6:
                return 1
            return 2 if opsize16 else 4
        return 0
    raise AssertionError(f"unhandled immediate kind {kind}")


# ---------------------------------------------------------------------------
# Bulk decoding.
# ---------------------------------------------------------------------------


def decode_buffer(data: bytes, address: int = 0) -> list[Instruction]:
    """Linearly decode an entire buffer, skipping undecodable bytes.

    On a decode error, a single byte is skipped (recorded as a ``(bad)``
    pseudo-instruction) and decoding resumes — the behaviour of a robust
    linear-sweep frontend over sections that mix code and data.
    """
    out: list[Instruction] = []
    append = out.append
    _decode = decode
    off = 0
    n = len(data)
    while off < n:
        try:
            insn = _decode(data, off, address + off)
        except DecodeError:
            insn = Instruction(
                raw=bytes(data[off : off + 1]), mnemonic="(bad)",
                address=address + off,
            )
        append(insn)
        off += insn._len
    return out
