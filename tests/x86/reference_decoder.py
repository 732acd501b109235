"""Reference decoder: the straight-line, cursor-based x86-64 decoder,
kept as the oracle for the production decoder.

Production :func:`repro.x86.decoder.decode` is a table-dispatched fast
path: dense per-opcode entries generated from the rows of
:mod:`repro.x86.tables`, group mnemonics and writes pre-resolved per
ModRM.reg, and VEX/EVEX decoded inline.  :func:`decode_reference` is
the obviously-correct version it was derived from: a bounds-checked
byte cursor, one helper per encoding field, and the rows read directly.
``tests/x86/test_decoder_differential.py`` asserts the two agree on
every field and, for rejected input, on the error message;
``benchmarks/bench_passes.py`` walks whole binaries with both.
"""

from __future__ import annotations

from repro.errors import DecodeError
from repro.x86 import prefixes as pfx
from repro.x86 import tables
from repro.x86.decoder import MAX_INSN_LEN, _imm_bytes
from repro.x86.insn import Instruction
from repro.x86.tables import F_INVALID64, F_STRING_WRITE, Imm

#: The rows of the one-byte, 0F, 0F 38 and 0F 3A maps, by opcode.
_MAPS = [tables.legacy_rows(m)[:256] for m in range(4)]


def _signed(value: int, size: int) -> int:
    """Interpret *size* little-endian bytes as a signed integer."""
    bit = 1 << (size * 8 - 1)
    return (value ^ bit) - bit


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


def _decode_modrm(cur: _Cursor, insn: Instruction) -> None:
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


def _refine(field, reg: int | None):
    """A group row's mnemonic or effects for ModRM.reg *reg* (the field
    itself for other rows)."""
    if type(field) is tuple:
        return field[reg]
    return field


def decode_reference(data: bytes, offset: int = 0,
                     address: int | None = None) -> Instruction:
    """Decode one instruction (reference implementation).

    Field-for-field equivalent to :func:`repro.x86.decoder.decode`.
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

    spec = _MAPS[opmap][opcode]
    if spec is None:
        raise DecodeError(f"unknown opcode {opcode:#04x}", offset=offset)
    if opmap == 0 and insn.rex is not None and insn.rex & pfx.REX_B:
        spec = tables.REX_B_ROWS.get(opcode, spec)

    if spec.flags & F_INVALID64:
        raise DecodeError(f"opcode {opcode:#04x} invalid in 64-bit mode", offset=offset)

    insn.opmap = opmap
    insn.opcode = opcode
    insn.opcode_offset = cur.offset - 1

    # --- ModRM / SIB / displacement ----------------------------------------
    if spec.modrm:
        _decode_modrm(cur, insn)

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
    insn.mnemonic = _refine(spec.mnemonic, insn.reg_raw)
    insn.writes_rm = _refine(spec.effects, insn.reg_raw).rm_w
    if rep and opmap == 0 and opcode == 0x90:
        insn.mnemonic = "pause"
    if rep and opmap == 1 and opcode == 0x7E:
        insn.mnemonic = "movq"  # movq xmm, xmm/m64: a load
        insn.writes_rm = False
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
        _decode_modrm(cur, insn)
    else:
        insn.mnemonic = "vzeroupper"

    kind = tables.vex_imm_kind(map_select, opcode)
    imm_len = _imm_bytes(kind, opsize16, False, opcode, insn.reg_raw, False)
    if imm_len:
        insn.imm_offset = cur.offset
        insn.imm_size = imm_len
        insn.imm = cur.take_n(imm_len)

    # Store detection, per pp bits and ModRM.reg (VEX.F3.0F 7E is a
    # vmovq load, VEX.0F AE /3 the vstmxcsr store).
    pp = insn.vex[1 if lead == 0xC5 else 2] & 3
    if tables.vex_writes_rm(map_select, opcode, pp, insn.reg_raw):
        insn.writes_rm = True

    insn._raw = None
    insn._data = data
    insn._start = offset
    insn._len = cur.pos - offset
    return insn
