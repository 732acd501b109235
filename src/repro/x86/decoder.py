"""Exact x86-64 instruction length decoder.

Implements the Intel encoding grammar for 64-bit mode: legacy prefixes,
REX, VEX (C4/C5), EVEX (62), the one/two/three-byte opcode maps, ModRM,
SIB, displacement, and immediates.  Lengths are exact; the test suite
validates against ``objdump`` on compiler output.

Two implementations live here:

* :func:`decode` — the fast path.  A single-pass loop over a precomputed
  256-entry first-byte dispatch table (``_FIRST``: opcode / legacy
  prefix / REX / VEX-escape) with per-opcode spec tuples (``_D1`` /
  ``_D2``) that pre-resolve mnemonic-group tables and group-write sets,
  so the hot loop performs no dict lookups, no cursor-object method
  calls, and no byte slicing (``Instruction.raw`` stays a lazy view).
* :func:`decode_reference` — the original cursor-based implementation,
  retained verbatim as the oracle for the differential test suite and
  the bench byte-identity check.

Both raise :class:`DecodeError` with identical messages for identical
inputs; ``tests/x86/test_decoder_differential.py`` enforces this.
"""

from __future__ import annotations

from repro.errors import DecodeError
from repro.x86 import prefixes as pfx
from repro.x86 import tables
from repro.x86.insn import DecodedRegion, Instruction
from repro.x86.tables import (
    F_GROUP_WRITE,
    F_INVALID64,
    F_STRING_WRITE,
    F_WRITES_RM,
    Imm,
    OpSpec,
)

MAX_INSN_LEN = 15

_GRP1_NAMES = ("add", "or", "adc", "sbb", "and", "sub", "xor", "cmp")
_GRP2_NAMES = ("rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar")
_GRP3_NAMES = ("test", "test", "not", "neg", "mul", "imul", "div", "idiv")
_GRP5_NAMES = ("inc", "dec", "call", "lcall", "jmp", "ljmp", "push", "(bad)")


def _signed(value: int, size: int) -> int:
    """Interpret *size* little-endian bytes as a signed integer."""
    bit = 1 << (size * 8 - 1)
    return (value ^ bit) - bit


# ---------------------------------------------------------------------------
# Fast-path dispatch tables.
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

# ModRM-group mnemonics resolved by modrm.reg; grp4 pads the historical
# "reg < 2 else (bad)" rule out to a full 8-entry table.
_GROUP_NAMES: dict[str, tuple[str, ...]] = {
    "grp1": _GRP1_NAMES,
    "grp2": _GRP2_NAMES,
    "grp3": _GRP3_NAMES,
    "grp4": ("inc", "dec", "(bad)", "(bad)", "(bad)", "(bad)", "(bad)", "(bad)"),
    "grp5": _GRP5_NAMES,
}


def _entry(spec: OpSpec, key: int):
    """Flatten an OpSpec into the fast path's per-opcode tuple:
    (mnemonic, has_modrm, imm_code, flow, flags, group_write_regs, group_names).
    """
    gw = None
    if spec.flags & F_GROUP_WRITE:
        gw = tables.GROUP_WRITES.get(key, frozenset())
    return (
        spec.mnemonic,
        spec.modrm,
        spec.imm.value,
        spec.flow,
        spec.flags,
        gw,
        _GROUP_NAMES.get(spec.mnemonic),
    )


# One-byte map: None marks bytes with no opcode meaning (prefixes, VEX
# escapes, 0F) — reaching one of those in the opcode slot is an error.
_D1: list[tuple | None] = [None] * 256
for _op, _spec in tables.ONE_BYTE.items():
    _D1[_op] = _entry(_spec, _op)

# Two-byte (0F) map: dense, thanks to the table's default spec.
_D2 = [_entry(tables.two_byte_spec(_op), 0x0F00 | _op) for _op in range(256)]

# Three-byte (0F 38 / 0F 3A) maps, dense over the third opcode byte.
_E38 = _entry(tables.THREE_BYTE_38_DEFAULT, 0)
_E38_STORE = _entry(
    OpSpec(tables.THREE_BYTE_38_DEFAULT.mnemonic, modrm=True, flags=F_WRITES_RM), 0
)
_E3A = _entry(tables.THREE_BYTE_3A_DEFAULT, 0)
_E3A_STORE = _entry(
    OpSpec(tables.THREE_BYTE_3A_DEFAULT.mnemonic, modrm=True, imm=Imm.IB,
           flags=F_WRITES_RM), 0
)
_D38 = [_E38_STORE if _op in tables.THREE_BYTE_38_STORES else _E38
        for _op in range(256)]
_D3A = [_E3A_STORE if _op in tables.THREE_BYTE_3A_STORES else _E3A
        for _op in range(256)]

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

    # --- REX / VEX / EVEX --------------------------------------------------
    rex = None
    if cls == _REX:
        rex = b
        pos += 1
        if pos >= limit:
            raise DecodeError("truncated instruction", offset=offset)
        b = data[pos]
    elif cls == _VEX:
        # Cold path: delegate to the shared VEX/EVEX decoder.
        cur = _Cursor(data, offset)
        cur.pos = pos
        insn = Instruction(
            raw=b"", mnemonic="", address=offset if address is None else address
        )
        insn.legacy_prefixes = legacy
        return _decode_vex(cur, insn, opsize16, offset, data)

    # --- opcode ------------------------------------------------------------
    pos += 1
    opmap = 0
    opcode = b
    if b != 0x0F:
        entry = _D1[b]
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

    mnemonic, has_modrm, ic, flow, flags, gw, names = entry
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
    if names is not None:
        mnemonic = names[(modrm >> 3) & 7]
    if rep:
        if opmap == 0:
            if opcode == 0x90 and mnemonic == "nop":
                mnemonic = "pause"
        elif opmap == 1 and opcode == 0xB8:
            mnemonic = "popcnt"

    if flags & F_WRITES_RM:
        writes_rm = True
    elif gw is not None:
        writes_rm = ((modrm >> 3) & 7) in gw
    else:
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
    insn.vex = None
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


# ---------------------------------------------------------------------------
# Reference implementation (differential-test oracle).
# ---------------------------------------------------------------------------


class _Cursor:
    """Byte cursor with bounds checking over the instruction window."""

    __slots__ = ("data", "start", "pos", "limit")

    def __init__(self, data: bytes, start: int) -> None:
        self.data = data
        self.start = start
        self.pos = start
        self.limit = min(len(data), start + MAX_INSN_LEN)

    def peek(self) -> int:
        if self.pos >= self.limit:
            raise DecodeError("truncated instruction", offset=self.start)
        return self.data[self.pos]

    def take(self) -> int:
        byte = self.peek()
        self.pos += 1
        return byte

    def take_n(self, n: int) -> int:
        """Take *n* bytes as a little-endian unsigned integer."""
        if self.pos + n > self.limit:
            raise DecodeError("truncated instruction", offset=self.start)
        value = int.from_bytes(self.data[self.pos : self.pos + n], "little")
        self.pos += n
        return value

    @property
    def offset(self) -> int:
        """Offset from instruction start."""
        return self.pos - self.start


def _decode_modrm(cur: _Cursor, insn: Instruction, addrsize32: bool) -> None:
    """Decode ModRM, optional SIB, and displacement into *insn*."""
    modrm = cur.take()
    insn.modrm = modrm
    mod = modrm >> 6
    rm = modrm & 7

    disp_size = 0
    if mod == 0:
        if rm == 4:
            insn.sib = cur.take()
            if (insn.sib & 7) == 5:
                disp_size = 4
        elif rm == 5:
            disp_size = 4  # rip-relative (eip-relative with 0x67)
    elif mod == 1:
        if rm == 4:
            insn.sib = cur.take()
        disp_size = 1
    elif mod == 2:
        if rm == 4:
            insn.sib = cur.take()
        disp_size = 4
    # mod == 3: register operand, no displacement.

    if disp_size:
        insn.disp_offset = cur.offset
        insn.disp_size = disp_size
        insn.disp = _signed(cur.take_n(disp_size), disp_size)


def _imm_bytes(kind: Imm, opsize16: bool, rexw: bool, opcode: int,
               modrm_reg: int | None, addrsize32: bool) -> int:
    """Return the immediate length in bytes for the given context."""
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


def _refine_mnemonic(spec: OpSpec, opcode: int, reg: int | None) -> str:
    """Resolve group mnemonics using the ModRM.reg selector."""
    name = spec.mnemonic
    if reg is None:
        return name
    if name == "grp1":
        return _GRP1_NAMES[reg]
    if name == "grp2":
        return _GRP2_NAMES[reg]
    if name == "grp3":
        return _GRP3_NAMES[reg]
    if name == "grp4":
        return ("inc", "dec")[reg] if reg < 2 else "(bad)"
    if name == "grp5":
        return _GRP5_NAMES[reg]
    return name


def decode_reference(data: bytes, offset: int = 0,
                     address: int | None = None) -> Instruction:
    """Decode one instruction (reference implementation).

    Byte-for-byte and field-for-field equivalent to :func:`decode`; kept
    as the slow, obviously-correct oracle the differential tests compare
    the fast path against.
    """
    if offset >= len(data):
        raise DecodeError("offset beyond end of buffer", offset=offset)
    cur = _Cursor(data, offset)

    # --- legacy prefixes ---------------------------------------------------
    legacy = bytearray()
    while True:
        byte = cur.peek()
        if pfx.is_legacy_prefix(byte):
            legacy.append(cur.take())
            if len(legacy) > 14:
                raise DecodeError("prefix run exceeds instruction limit", offset=offset)
        else:
            break

    opsize16 = pfx.OPSIZE in legacy
    addrsize32 = pfx.ADDRSIZE in legacy
    rep = pfx.REP in legacy

    insn = Instruction(raw=b"", mnemonic="", address=offset if address is None else address)
    insn.legacy_prefixes = bytes(legacy)

    # --- REX ----------------------------------------------------------------
    byte = cur.peek()
    if pfx.is_rex(byte):
        insn.rex = cur.take()
        byte = cur.peek()

    rexw = bool(insn.rex and insn.rex & pfx.REX_W)

    # --- VEX / EVEX ----------------------------------------------------------
    if insn.rex is None and byte in (0xC4, 0xC5, 0x62):
        return _decode_vex(cur, insn, opsize16, offset, data)

    # --- opcode ----------------------------------------------------------------
    opcode = cur.take()
    opmap = 0
    if opcode == 0x0F:
        opcode = cur.take()
        opmap = 1
        if opcode == 0x38:
            opcode = cur.take()
            opmap = 2
        elif opcode == 0x3A:
            opcode = cur.take()
            opmap = 3

    if opmap == 0:
        spec = tables.ONE_BYTE.get(opcode)
        if spec is None:
            raise DecodeError(f"unknown opcode {opcode:#04x}", offset=offset)
    elif opmap == 1:
        spec = tables.two_byte_spec(opcode)
    elif opmap == 2:
        spec = tables.THREE_BYTE_38_DEFAULT
        if opcode in tables.THREE_BYTE_38_STORES:
            spec = OpSpec(spec.mnemonic, modrm=True, flags=F_WRITES_RM)
    else:
        spec = tables.THREE_BYTE_3A_DEFAULT
        if opcode in tables.THREE_BYTE_3A_STORES:
            spec = OpSpec(spec.mnemonic, modrm=True, imm=Imm.IB, flags=F_WRITES_RM)

    if spec.flags & F_INVALID64:
        raise DecodeError(f"opcode {opcode:#04x} invalid in 64-bit mode", offset=offset)

    insn.opmap = opmap
    insn.opcode = opcode
    insn.opcode_offset = cur.offset - 1

    # --- ModRM / SIB / displacement ----------------------------------------
    if spec.modrm:
        _decode_modrm(cur, insn, addrsize32)

    # --- immediate -----------------------------------------------------------
    imm_len = _imm_bytes(spec.imm, opsize16, rexw, opcode, insn.reg_raw, addrsize32)
    if imm_len:
        insn.imm_offset = cur.offset
        insn.imm_size = imm_len
        value = cur.take_n(imm_len)
        if spec.imm in (Imm.REL8, Imm.REL32):
            insn.imm = _signed(value, imm_len)
        else:
            insn.imm = value

    # --- semantics ------------------------------------------------------------
    insn.flow = spec.flow
    insn.mnemonic = _refine_mnemonic(spec, opcode, insn.reg_raw)
    if rep and spec.mnemonic in ("nop",) and opmap == 0 and opcode == 0x90:
        insn.mnemonic = "pause"
    if opmap == 1 and opcode == 0xB8 and rep:
        insn.mnemonic = "popcnt"

    key = opcode if opmap == 0 else (0x0F00 | opcode)
    if spec.flags & F_WRITES_RM:
        insn.writes_rm = True
    elif spec.flags & F_GROUP_WRITE:
        regs = tables.GROUP_WRITES.get(key, frozenset())
        insn.writes_rm = insn.reg_raw in regs
    if spec.flags & F_STRING_WRITE:
        insn.string_write = True

    insn._raw = None
    insn._data = data
    insn._start = offset
    insn._len = cur.pos - offset
    return insn


def _decode_vex(cur: _Cursor, insn: Instruction, opsize16: bool,
                offset: int, data: bytes) -> Instruction:
    """Decode a VEX- or EVEX-prefixed instruction (length-exact)."""
    lead = cur.take()
    if lead == 0xC5:  # 2-byte VEX
        p1 = cur.take()
        insn.vex = bytes((lead, p1))
        map_select = 1
    elif lead == 0xC4:  # 3-byte VEX
        p1 = cur.take()
        p2 = cur.take()
        insn.vex = bytes((lead, p1, p2))
        map_select = p1 & 0x1F
    else:  # 0x62: EVEX
        p0 = cur.take()
        p1 = cur.take()
        p2 = cur.take()
        insn.vex = bytes((lead, p0, p1, p2))
        map_select = p0 & 0x07

    opcode = cur.take()
    insn.opmap = map_select
    insn.opcode = opcode
    insn.opcode_offset = cur.offset - 1
    insn.mnemonic = f"vex.m{map_select}.{opcode:02x}"

    if (map_select, opcode) not in tables.VEX_NO_MODRM:
        _decode_modrm(cur, insn, addrsize32=False)
    else:
        insn.mnemonic = "vzeroupper"

    kind = tables.vex_imm_kind(map_select, opcode)
    imm_len = _imm_bytes(kind, opsize16, False, opcode, insn.reg_raw, False)
    if imm_len:
        insn.imm_offset = cur.offset
        insn.imm_size = imm_len
        insn.imm = cur.take_n(imm_len)

    # Store detection for the common VEX mov-store forms (map 1).
    if map_select == 1 and opcode in tables.VEX_MAP1_STORES:
        insn.writes_rm = True

    insn._raw = None
    insn._data = data
    insn._start = offset
    insn._len = cur.pos - offset
    return insn


# ---------------------------------------------------------------------------
# Bulk decoding.
# ---------------------------------------------------------------------------


def decode_all(data: bytes, address: int = 0) -> DecodedRegion:
    """Linearly decode an entire buffer, raising on any invalid byte."""
    region = DecodedRegion(address=address, data=data)
    append = region.instructions.append
    _decode = decode
    off = 0
    n = len(data)
    while off < n:
        insn = _decode(data, off, address + off)
        append(insn)
        off += insn._len
    return region


def decode_buffer(data: bytes, address: int = 0) -> list[Instruction]:
    """Like :func:`decode_all` but skipping undecodable bytes.

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
