"""Vectorized linear-sweep decode: dense tables and zero-copy streams.

The scalar :func:`repro.x86.decoder.decode` fast path costs ~400 ns per
instruction in attribute and tuple traffic alone — fine for one binary,
hopeless for the browser-scale (50–100 MB) text sections E9Patch brags
about.  This module rebuilds bulk decoding around two observations:

1. **Instruction length is a pure, local function of the bytes.**  For
   every offset ``i`` the total length ``L[i]`` (and a small set of
   *candidate bits* — could this be a jump / call / memory write?)
   depends only on ``data[i : i+15]``.  So lengths for *all* offsets are
   one gather each from a table keyed by two bytes, generated at import
   from the decoder's dense maps, plus exact sparse fixups for the rare
   byte classes — no per-instruction Python at all.

2. **The instruction *chain* is a pointer jungle over those lengths.**
   ``next[i] = i + max(L[i], 1)`` is composed in O(log) doubling steps
   (``n16 = next^16``); a Python loop then touches only every 16th
   instruction (the *anchors*) and the intervening 15 starts are filled
   by vectorized gathers.  Work is windowed (2 MB).

The result is an :class:`InstructionStream`: a lazy, zero-copy sequence
of instruction *positions* that materializes real
:class:`~repro.x86.insn.Instruction` objects (via the scalar decoder —
the single source of truth) only when consumers index into it.  Byte
identity with ``decode_buffer``/``decode_reference`` is therefore
structural: every materialized object *is* a scalar-decoder object, and
the vectorized part only ever computes *where instructions start*, which
is differentially tested against the scalar walk at every offset.

Everything degrades gracefully: without NumPy (or below a size floor)
:func:`decode_stream` falls back to the scalar sweep and returns the
same stream type with the same semantics.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Callable, Iterable, Sequence

from repro.x86 import decoder as _dec
from repro.x86.decoder import MAX_INSN_LEN, decode, decode_buffer
from repro.x86.insn import Instruction
from repro.x86.tables import (
    F_GROUP_WRITE,
    F_INVALID64,
    F_STRING_WRITE,
    F_WRITES_RM,
    VEX_MAP1_STORES,
    VEX_NO_MODRM,
    Flow,
    Imm,
    vex_imm_kind,
)

try:  # NumPy is an optional accelerator (the ``perf`` extra), never required.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on stdlib-only hosts
    _np = None

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "InstructionStream",
    "decode_stream",
]

# Candidate/validity bits kept per instruction start.  The JUMP/CALL/
# WRITE bits are conservative *supersets* of the frontend matchers (see
# InstructionStream.select): vectorized selection may only ever
# over-approximate, the exact Python predicate always runs last.
SB_JUMP = 1  # Flow.JMP / Flow.JCC
SB_CALL = 2  # Flow.CALL (direct rel32 call)
SB_WRITE = 4  # may write memory (modrm store, group store, string store)
SB_VALID = 8  # position decodes (not a "(bad)" byte)

#: Real-byte lookahead a window scan needs so every position < window end
#: is computed exactly as in a whole-buffer scan: the last position sees
#: its 15 bytes.  A read past them only feeds a length that exceeds 15
#: and is invalidated regardless of the byte read.
_LOOKAHEAD = MAX_INSN_LEN - 1

_WINDOW = 1 << 21  # scan window: big enough to amortize, small enough to cache
_MIN_VECTOR = 4096  # below this the numpy fixed costs beat the scalar loop


# ---------------------------------------------------------------------------
# Dense fact tables, generated once at import from the decoder's maps.
# ---------------------------------------------------------------------------
# A uint16 *entry* describes the instruction whose opcode byte sits at an
# offset.  Tables are keyed ``(opcode << 8) | next_byte``, so the ModRM
# byte of an opcode that has one is part of the key.

_LEN = 0x000F  # bits 0-3: instruction length; 0 = invalid (entry is 0)
_SB = 4  # bits 4-7: the SB_* bits, SB_VALID included
_Z66 = 0x0100  # the immediate shrinks by 2 bytes under 0x66
_M67 = 0x0200  # the immediate shrinks by 4 bytes under 0x67 (moffs)
_W8 = 0x0400  # the immediate grows by 4 bytes under REX.W (imm64)
_SIB5 = 0x0800  # mod=00 rm=100: a SIB byte with base 101 adds a disp32
_CLS = 12  # bits 12-14: first-byte class needing a sparse fixup
_PFX, _VEX = _dec._PFX, _dec._VEX
_ESC = 4  # the 0F escape
_SPARSE = _SIB5  # entries >= this are fixed up sparsely
_VMODRM = _SIB5  # VEX table only: the opcode takes a ModRM byte
_GROUP3 = Imm.GROUP3.value


def _imm_word(kind: Imm, op: int, reg: int) -> int:
    """Immediate bytes of *kind* without prefixes, plus its prefix flags,
    read off the decoder's own ``_imm_bytes``."""
    size = _dec._imm_bytes(kind, False, False, op, reg, False)
    word = size
    if _dec._imm_bytes(kind, True, False, op, reg, False) < size:
        word |= _Z66
    if _dec._imm_bytes(kind, False, False, op, reg, True) < size:
        word |= _M67
    if _dec._imm_bytes(kind, False, True, op, reg, False) > size:
        word |= _W8
    return word


def _modrm_columns():
    """uint16 columns per ModRM byte: the ``_SIB5`` bit (mod=00 rm=100),
    ModRM + SIB + displacement bytes (SIB base 101 aside), SB_WRITE in
    entry position for memory operands, and the reg field."""
    m = _np.arange(256, dtype=_np.uint16)
    mod, rm = m >> 6, m & 7
    mem = mod != 3
    disp = _np.select([mod == 1, mod == 2, (mod == 0) & (rm == 5)], [1, 4, 4], 0)
    return (
        ((mod == 0) & (rm == 4)) * _np.uint16(_SIB5),
        (1 + (mem & (rm == 4)) + disp).astype(_np.uint16),
        mem * _np.uint16(SB_WRITE << _SB),
        (m >> 3) & 7,
    )


def _map_table(entries):
    """The (len(entries), 256) table of opcode maps given as 256 decoder
    entries each.  Opcodes fall into a few dozen classes (validity, has
    ModRM, may store, SB bits, immediate); each class's row is built by
    broadcasting against per-ModRM columns, then gathered per opcode."""
    classes = {None: 0}  # invalid opcodes: the all-zero row
    index = []
    for op, e in enumerate(entries):
        key = None
        if e is not None and not e[4] & F_INVALID64:
            flags, flow, code = e[4], e[3], e[2]
            sb = SB_VALID | (SB_WRITE if flags & F_STRING_WRITE else 0)
            if flow is Flow.JMP or flow is Flow.JCC:
                sb |= SB_JUMP
            elif flow is Flow.CALL:
                sb |= SB_CALL
            store = bool(flags & (F_WRITES_RM | F_GROUP_WRITE))
            # GROUP3 is the only kind whose size reads the opcode and
            # modrm.reg.
            key = (bool(e[1]), store, sb, code, op & 0xFF if code == _GROUP3 else 0)
        index.append(classes.setdefault(key, len(classes)))
    cols = [(0, 0, 0)]
    imm = [[0] * 8]
    words = {}
    for hasm, store, sb, code, op in list(classes)[1:]:
        cols.append((hasm, hasm and store, sb << _SB | 1))
        if (code, op) not in words:
            words[code, op] = [_imm_word(Imm(code), op, reg) for reg in range(8)]
        imm.append(words[code, op])
    hasm, store, base = _np.array(cols, _np.uint16).T[:, :, None]
    rows = _np.array(imm, _np.uint16)[:, _REG] + base
    rows += hasm * _RMLEN
    rows |= hasm * _RMSIB5 | store * _RMSTORE
    return rows[index]


def _one_byte_tables(plain):
    """The one-byte map three times over, for an opcode byte preceded by
    no REX, by REX and by REX.W; class rows mark the sparse fixups."""
    rex = _np.where(plain & _LEN != 0, plain + 1, 0)
    rexw = _np.where(plain & _W8 != 0, (rex + 4) & (0xFFFF ^ _Z66), rex)
    first = _np.frombuffer(bytes(_dec._FIRST), _np.uint8)
    plain[first == _PFX] = _PFX << _CLS
    plain[first == _VEX] = _VEX << _CLS
    for table in (plain, rex, rexw):
        table[0x0F] = _ESC << _CLS
    return _np.concatenate([plain, rex, rexw], dtype=_np.uint16).ravel()


def _vex_table():
    """Per ``(map << 8) | opcode`` of VEX/EVEX: the immediate word,
    ``_VMODRM`` and SB_WRITE, from ``tables.vex_imm_kind``,
    ``VEX_NO_MODRM`` and ``VEX_MAP1_STORES``."""
    maps = _np.arange(32).repeat(256).tolist()
    kinds = map(vex_imm_kind, maps, list(range(256)) * 32)
    ids = _np.fromiter(map(id, kinds), _np.int64, len(maps))
    table = _np.full(32 * 256, _VMODRM | SB_VALID << _SB, _np.uint16)
    for kind in Imm:  # (enum hashing is slow: match members by identity)
        table[ids == id(kind)] |= _imm_word(kind, 0, 0)
    table = table.reshape(32, 256)
    for mp, op in VEX_NO_MODRM:
        table[mp, op] ^= _VMODRM
    table[1, sorted(VEX_MAP1_STORES)] |= SB_WRITE << _SB
    return table.ravel()


if HAVE_NUMPY:
    _RMSIB5, _RMLEN, _RMSTORE, _REG = _modrm_columns()
    _maps = _map_table(_dec._D1 + _dec._D2 + _dec._D38 + _dec._D3A)
    _T1 = _one_byte_tables(_maps[:256])  # prefix, REX, VEX and 0F rows are 0
    _TESC = _maps[256:].ravel()  # keyed (0F, 0F 38, 0F 3A) << 16 | opcode, ModRM
    _TVEX = _vex_table()
    del _maps


def _cand_of(insn: Instruction) -> int:
    """Candidate bits of a scalar-decoded instruction (fallback path)."""
    bits = 0
    flow = insn.flow.value
    if flow == 1 or flow == 2:
        bits |= SB_JUMP
    elif flow == 3:
        bits |= SB_CALL
    if insn.writes_rm or insn.string_write:
        bits |= SB_WRITE
    return bits


# ---------------------------------------------------------------------------
# The vectorized scan: an entry for *every* offset.
# ---------------------------------------------------------------------------


def _scan(buf, key=None):
    """Per-offset instruction entries over *buf*.

    Returns a uint16 array of ``len(buf)``: ``E[i] & _LEN`` is the length
    of the instruction decoding at ``i`` and ``E[i] >> _SB & 15`` its SB_*
    bits; ``E[i]`` is 0 when ``i`` does not decode.  *key* is an optional
    intp scratch buffer of at least ``len(buf) + 1`` elements.

    One gather per offset reads the one-byte table (a REX offset reads
    the REX or REX.W table with the next offset's key).  The rare
    classes are then fixed up sparsely and exactly, each reading only
    entries final before it: SIB base 101, 0F escapes, VEX/EVEX, and
    last the legacy-prefix runs (the entry after the run, resized for
    0x66/0x67).

    Truncation is judged against ``len(buf)``; callers scanning a window
    of a larger buffer must extend the slice by ``_LOOKAHEAD`` real
    bytes and keep only the window-sized prefix of the result.
    """
    n = len(buf)
    key = _np.empty(n + 1, _np.intp) if key is None else key[: n + 1]
    bp = _np.zeros(n + 24, _np.uint8)
    bp[:n] = _np.frombuffer(buf, _np.uint8)
    b0 = bp[: n + 1]
    rex = b0 & 0xF0
    rex = _np.equal(rex, 0x40, out=rex.view(bool)).view(_np.uint8)
    table = b0 & 0xF8
    _np.equal(table, 0x48, out=table.view(bool))
    table += rex  # 0: no REX, 1: REX, 2: REX.W
    k16 = _np.left_shift(bp[: n + 2], 8, dtype=_np.uint16)
    k16[:-1] |= bp[1 : n + 2]
    kk = k16[1:] - k16[:-1]
    kk *= rex
    kk += k16[:-1]  # a REX offset looks up the next offset's key
    _np.left_shift(table, 16, out=key, dtype=_np.intp)
    key |= kk
    E = _T1.take(key)
    del rex, table, k16, kk

    odd = _np.flatnonzero(E[:n] >= _SPARSE)
    cls = E[odd] >> _CLS
    s = odd[cls == 0]  # SIB base 101
    o = s + 2 + (bp[s] & 0xF0 == 0x40)
    E[s] += (bp[o] & 7 == 5) * _np.uint16(4)

    f = odd[cls == _ESC]  # [REX] 0F xx, 0F 38 xx, 0F 3A xx
    o = f + (bp[f] & 0xF0 == 0x40)
    b1 = bp[o + 1]
    sel = (b1 == 0x38) + (b1 == 0x3A) * 2
    o += (sel != 0) + 1  # the map's opcode byte
    e = _TESC[(sel << 16) | (bp[o].astype(_np.intp) << 8) | bp[o + 1]]
    fix = (e & _SIB5 != 0) & (bp[o + 2] & 7 == 5)
    E[f] = e + (o - f + fix * 4) * (e & _LEN != 0)

    v = odd[cls == _VEX]
    lead = bp[v]
    c4 = lead == 0xC4
    evex = lead == 0x62
    p1 = bp[v + 1]
    mp = _np.where(c4, p1 & 0x1F, _np.where(evex, p1 & 7, 1))
    o = v + 2 + c4 + evex * 2  # the opcode byte
    e = _TVEX[(mp.astype(_np.intp) << 8) | bp[o]]
    mrm = bp[o + 1]
    rmlen = _RMLEN[mrm] + ((_RMSIB5[mrm] != 0) & (bp[o + 2] & 7 == 5)) * 4
    E[v] = o - v + 1 + rmlen * (e & _VMODRM != 0) + (e & (0xFFFF ^ _VMODRM))

    p = odd[cls == _PFX]
    if len(p):
        last = _np.empty(len(p), bool)
        last[:-1] = p[1:] != p[:-1] + 1
        last[-1] = True
        ends = _np.flatnonzero(last)
        run = _np.repeat(ends, _np.diff(ends, prepend=-1))  # each one's run end
        j = p[run] + 1  # the first byte after the run
        e = E[j]
        ln = (j - p) + (e & _LEN)
        b = bp[p]
        for val, flag, shrink in ((0x66, _Z66, 2), (0x67, _M67, 4)):
            hit = b == val
            c = _np.cumsum(hit)
            ln -= ((c[run] > c - hit) & (e & flag != 0)) * shrink
        ok = (e & _LEN != 0) & (ln <= MAX_INSN_LEN)
        E[p] = ((e & (0xFFFF ^ _LEN)) | ln) * ok

    E = E[:n]
    t0 = max(0, n - MAX_INSN_LEN)
    tail = E[t0:]
    tail[_np.arange(t0, n) + (tail & _LEN) > n] = 0
    return E


# ---------------------------------------------------------------------------
# Fused scan + pointer-jump walk (windowed).
# ---------------------------------------------------------------------------


def _vector_walk(buf):
    """Walk the instruction chain of *buf* from offset 0.

    Returns ``(starts, mbits)``: the int32 start offsets and their uint8
    SB_* bits.
    """
    n = len(buf)
    mv = memoryview(buf)
    # The step function and its powers live in two intp buffers allocated
    # once per walk (the first doubles as the scan's key buffer): numpy
    # casts any other index dtype to intp on every gather.  Past the
    # window end the step is the identity, so composed pointers stall at
    # the window exit.
    size = min(n, _WINDOW) + MAX_INSN_LEN + 1
    ident = _np.arange(size, dtype=_np.intp)
    pa, pb = _np.empty(size, _np.intp), _np.empty(size, _np.intp)
    parts_s = []
    parts_m = []
    pos = 0
    lo = 0
    while lo < n:
        hi = min(n, lo + _WINDOW)
        if pos >= hi:  # an instruction straddles this whole window
            lo = hi
            continue
        wn = hi - lo
        E = _scan(mv[lo : min(n, hi + _LOOKAHEAD)], pa)[:wn]
        step = E & _LEN
        _np.maximum(step, 1, out=step)
        m = wn + MAX_INSN_LEN
        a, b = pa[:m], pb[:m]
        _np.add(step, ident[:wn], out=b[:wn])
        b[wn:] = ident[wn:m]
        _np.take(b, b, out=a, mode="clip")  # next^2
        _np.take(a, a, out=b, mode="clip")  # next^4
        _np.take(b, b, out=a, mode="clip")  # next^8
        _np.take(a, a, out=b, mode="clip")  # next^16
        off = pos - lo
        anchors = []
        aap = anchors.append
        jump16 = b.item
        while off < wn:
            aap(off)
            off = jump16(off)
        # The 15 starts after each anchor, stepping through the (small,
        # cache-resident) step array rather than the intp pointers.
        cols = _np.empty((16, len(anchors)), _np.int32)
        cols[0] = anchors
        for j in range(1, 16):
            _np.add(cols[j - 1], step.take(cols[j - 1], mode="clip"), out=cols[j])
        starts = cols.T.ravel()
        starts = starts[: _np.searchsorted(starts, wn)]
        parts_s.append(starts + lo)
        parts_m.append((E[starts] >> _SB & 15).astype(_np.uint8))
        last = int(starts[-1])
        pos = lo + last + int(step[last])
        lo = hi
    if parts_s:
        return _np.concatenate(parts_s), _np.concatenate(parts_m)
    return _np.empty(0, _np.int32), _np.empty(0, _np.uint8)


# ---------------------------------------------------------------------------
# The lazy instruction stream.
# ---------------------------------------------------------------------------

_MATCHER_BITS = None


def _matcher_bit(fn) -> int | None:
    """SB_* candidate bit for a known frontend matcher, else None."""
    global _MATCHER_BITS
    if _MATCHER_BITS is None:
        from repro.frontend import matchers as _m

        _MATCHER_BITS = {
            _m.match_all: SB_VALID,
            _m.match_jumps: SB_JUMP,
            _m.match_calls: SB_CALL,
            _m.match_heap_writes: SB_WRITE,
        }
    return _MATCHER_BITS.get(fn)


class InstructionStream(Sequence):
    """Lazy, zero-copy sequence of decoded instructions.

    Holds one shared buffer plus per-instruction start offsets and
    candidate bits; ``stream[i]`` materializes an
    :class:`~repro.x86.insn.Instruction` through the scalar decoder on
    first access (memoized).  Iteration therefore yields exactly what
    :func:`~repro.x86.decoder.decode_buffer` would return for the same
    bytes — the stream only precomputes *where* instructions start.
    """

    __slots__ = ("_buf", "address", "_starts", "_mbits", "_cache")

    def __init__(self, buf, address: int, starts, mbits) -> None:
        self._buf = buf
        self.address = address
        self._starts = starts
        self._mbits = mbits
        self._cache: dict[int, Instruction] = {}

    # -- sizing ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def total_bytes(self) -> int:
        """Bytes covered by the stream (the decoded region's size)."""
        return len(self._buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InstructionStream {len(self)} insns / {self.total_bytes} B "
            f"@ {self.address:#x}>"
        )

    # -- element access --------------------------------------------------

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._starts)))]
        n = len(self._starts)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("instruction index out of range")
        insn = self._cache.get(i)
        if insn is None:
            insn = self._materialize(i)
            self._cache[i] = insn
        return insn

    def _materialize(self, i: int) -> Instruction:
        off = int(self._starts[i])
        if self._mbits[i] & SB_VALID:
            return decode(self._buf, off, self.address + off)
        return Instruction(
            raw=bytes(self._buf[off : off + 1]),
            mnemonic="(bad)",
            address=self.address + off,
        )

    def __iter__(self):
        for i in range(len(self._starts)):
            yield self[i]

    # -- bulk accessors (the reason this type exists) --------------------

    def offsets_view(self):
        """Zero-copy, bisectable view of the start offsets (ascending
        ints from :attr:`address`): an int32 ``memoryview`` of the NumPy
        array, or the stdlib ``array('i')`` itself."""
        starts = self._starts
        if HAVE_NUMPY and isinstance(starts, _np.ndarray):
            return memoryview(_np.ascontiguousarray(starts, _np.int32))
        return starts

    def start_offsets(self) -> list[int]:
        """All instruction start offsets, ascending, as plain ints."""
        starts = self._starts
        if HAVE_NUMPY and isinstance(starts, _np.ndarray):
            return starts.tolist()
        return list(starts)

    def select(self, matcher: Callable[[Instruction], bool]) -> list[Instruction]:
        """``[i for i in self if matcher(i)]``, accelerated when possible.

        For the stock frontend matchers the candidate bits prune the
        stream first; the exact predicate still runs on every candidate,
        so the result is identical to the brute-force filter (the bits
        are supersets by construction).
        """
        bit = _matcher_bit(matcher)
        if bit is None:
            return [insn for insn in self if matcher(insn)]
        mbits = self._mbits
        if HAVE_NUMPY and isinstance(mbits, _np.ndarray):
            idx = _np.nonzero(mbits & _np.uint8(bit))[0].tolist()
        else:
            idx = [i for i, b in enumerate(mbits) if b & bit]
        out = []
        for i in idx:
            insn = self[i]
            if matcher(insn):
                out.append(insn)
        return out

    def site_indices(self, sites: Iterable[Instruction]) -> list[int]:
        """Stream indices of *sites* (instructions of this stream)."""
        starts = self._starts
        base = self.address
        isnp = HAVE_NUMPY and isinstance(starts, _np.ndarray)
        n = len(starts)
        out = []
        for site in sites:
            off = site.address - base
            if isnp:
                k = int(_np.searchsorted(starts, off))
            else:
                k = bisect.bisect_left(starts, off)
            if k >= n or int(starts[k]) != off:
                raise ValueError(
                    f"address {site.address:#x} is not an instruction start"
                )
            out.append(k)
        return out

    # -- pickling (artifact store) ---------------------------------------

    def __reduce__(self):
        if HAVE_NUMPY and isinstance(self._starts, _np.ndarray):
            sblob = _np.ascontiguousarray(self._starts, _np.int32).tobytes()
            mblob = _np.ascontiguousarray(self._mbits, _np.uint8).tobytes()
        else:
            sblob = self._starts.tobytes()
            mblob = bytes(self._mbits)
        return (_rebuild_stream, (bytes(self._buf), self.address, sblob, mblob))


def _rebuild_stream(buf, address, sblob, mblob):
    """Unpickle an :class:`InstructionStream` (NumPy optional)."""
    if HAVE_NUMPY:
        starts = _np.frombuffer(sblob, _np.int32)
        mbits = _np.frombuffer(mblob, _np.uint8)
    else:
        starts = array("i")
        starts.frombytes(sblob)
        mbits = mblob
    return InstructionStream(buf, address, starts, mbits)


def _stream_from_insns(buf, address: int, insns: list[Instruction]):
    """Wrap an eager scalar decode as a stream (fallback path)."""
    offs = [i.address - address for i in insns]
    bits = [
        0 if i.mnemonic == "(bad)" else SB_VALID | _cand_of(i) for i in insns
    ]
    if HAVE_NUMPY:
        starts = _np.array(offs, _np.int32) if offs else _np.empty(0, _np.int32)
        mbits = _np.array(bits, _np.uint8) if bits else _np.empty(0, _np.uint8)
    else:
        starts = array("i", offs)
        mbits = bytes(bits)
    stream = InstructionStream(buf, address, starts, mbits)
    stream._cache = dict(enumerate(insns))
    return stream


def _freeze(data):
    """A stable, readonly view of *data* the stream can hold forever."""
    if type(data) is bytes:
        return data
    if isinstance(data, memoryview):
        if data.readonly and data.contiguous and data.itemsize == 1:
            return data
        return bytes(data)
    return bytes(data)


def decode_stream(
    data,
    address: int = 0,
    *,
    min_vector_bytes: int | None = None,
) -> InstructionStream:
    """Linear-sweep decode *data* into a lazy :class:`InstructionStream`.

    Semantics are exactly :func:`~repro.x86.decoder.decode_buffer` —
    undecodable bytes become single-byte ``(bad)`` entries — but the
    sweep is vectorized when NumPy is available.  ``min_vector_bytes``
    overrides the scalar/vector crossover (0 forces the vectorized
    path).
    """
    buf = _freeze(data)
    floor = _MIN_VECTOR if min_vector_bytes is None else min_vector_bytes
    if not HAVE_NUMPY or len(buf) < floor:
        return _stream_from_insns(buf, address, decode_buffer(buf, address))
    starts, mbits = _vector_walk(buf)
    return InstructionStream(buf, address, starts, mbits)
