"""Vectorized linear-sweep decode: dense tables, zero-copy streams, chunking.

The scalar :func:`repro.x86.decoder.decode` fast path costs ~400 ns per
instruction in attribute and tuple traffic alone — fine for one binary,
hopeless for the browser-scale (50–100 MB) text sections E9Patch brags
about.  This module rebuilds bulk decoding around three observations:

1. **Instruction length is a pure, local function of the bytes.**  For
   every offset ``i`` the total length ``L[i]`` (and a small set of
   *candidate bits* — could this be a jump / call / memory write?)
   depends only on ``data[i : i+21]``.  So lengths for *all* offsets can
   be computed at once with flat precompiled uint16 fact tables
   (:func:`_pack` over the decoder's dense ``_D1``/``_D2`` maps) and
   NumPy uint8 arithmetic — no per-instruction Python at all.

2. **The instruction *chain* is a pointer jungle over those lengths.**
   ``next[i] = i + max(L[i], 1)`` is composed in O(log) doubling steps
   (``n16 = next^16``); a Python loop then touches only every 16th
   instruction (the *anchors*) and the intervening 15 starts are filled
   by vectorized gathers.  Work is windowed (2 MB) so the dozens of
   temporaries stay cache-resident.

3. **Linear sweep self-synchronizes.**  Chunks decoded independently
   from conservative boundaries converge to the true stream after a few
   instructions, so large buffers can be scanned by
   :class:`~repro.core.parallel.BatchExecutor` workers and spliced back
   with a boundary-reconciliation pass (see :func:`_decode_chunked`).

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

from repro.errors import DecodeError
from repro.x86 import decoder as _dec
from repro.x86 import prefixes as _pfx
from repro.x86.decoder import MAX_INSN_LEN, decode, decode_buffer
from repro.x86.insn import Instruction
from repro.x86.tables import (
    F_GROUP_WRITE,
    F_INVALID64,
    F_STRING_WRITE,
    F_WRITES_RM,
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

#: Sentinel length for VEX/EVEX-prefixed positions: the dense scan only
#: classifies the three escape bytes; the scalar decoder resolves them.
_VEX_SENTINEL = 255

#: Real-byte lookahead a window scan needs so every position < window end
#: is computed exactly as in a whole-buffer scan.  A *valid* instruction
#: reads at most 15 bytes; longer speculative gathers only feed lengths
#: that exceed 15 and are invalidated regardless of the garbage read.
_LOOKAHEAD = 18

_WINDOW = 1 << 21  # scan window: big enough to amortize, small enough to cache
_MIN_VECTOR = 4096  # below this the numpy fixed costs beat the scalar loop
_CHUNK_THRESHOLD = 8 << 20  # don't fan out buffers smaller than this
_MIN_CHUNK = 1 << 20  # never ship chunks smaller than this to a worker


# ---------------------------------------------------------------------------
# Dense fact tables, precompiled once at import.
# ---------------------------------------------------------------------------


def _pack(entry) -> int:
    """Pack one decoder table entry into the uint16 scan fact word.

    Layout: ``imm_code`` (bits 0-3) | ``has_modrm`` (4) | ``invalid``
    (5) | ``may_write_rm`` (6) | ``string_write`` (7) | ``flow`` (8-11).
    ``may_write_rm`` folds ``F_GROUP_WRITE`` in unconditionally — the
    scan cannot see modrm.reg cheaply, and a superset is all the
    candidate bits promise.
    """
    if entry is None or (entry[4] & F_INVALID64):
        return 1 << 5
    flags = entry[4]
    packed = entry[2] & 15
    if entry[1]:
        packed |= 1 << 4
    if flags & (F_WRITES_RM | F_GROUP_WRITE):
        packed |= 1 << 6
    if flags & F_STRING_WRITE:
        packed |= 1 << 7
    return packed | (entry[3].value << 8)


if HAVE_NUMPY:
    _LUT0 = _np.array([_pack(_dec._D1[op]) for op in range(256)], _np.uint16)
    _LUT1 = _np.array([_pack(_dec._D2[op]) for op in range(256)], _np.uint16)
    _C38 = _np.uint16(_pack(_dec._E38))
    _C3A = _np.uint16(_pack(_dec._E3A))
    _PFXB = sorted(_pfx.LEGACY_PREFIXES)


def _cand_of(insn: Instruction) -> int:
    """Candidate bits of a scalar-decoded instruction (VEX resolution)."""
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
# The vectorized scan: lengths + candidate bits for *every* offset.
# ---------------------------------------------------------------------------


def _scan(buf):
    """Per-offset lengths and candidate bits over *buf*.

    Returns ``(L, cand)`` uint8 arrays of ``len(buf)``: ``L[i]`` is the
    instruction length decoding at ``i`` (0 = invalid byte,
    ``_VEX_SENTINEL`` = VEX/EVEX — resolve with the scalar decoder),
    ``cand[i]`` the SB_* candidate bits (0 unless ``L[i]`` is valid).

    Truncation is judged against ``len(buf)``; callers scanning a window
    of a larger buffer must extend the slice by ``_LOOKAHEAD`` real
    bytes and keep only the window-sized prefix of the result.
    """
    n = len(buf)
    pad = 24
    BP = _np.zeros(n + 40, _np.uint8)
    BP[:n] = _np.frombuffer(buf, _np.uint8)
    B = [BP[s : s + n] for s in range(8)]
    B0 = B[0]

    # Legacy-prefix run length via doubling: r[i] = min(run at i, 16).
    P = B0 == _PFXB[0]
    for v in _PFXB[1:]:
        P |= B0 == v
    Pn = _np.zeros(n + pad, _np.uint8)
    Pn[:n] = P
    r = Pn.copy()
    for k in (1, 2, 4, 8):
        r[: n + pad - k] += (r[: n + pad - k] == k) * r[k:]
    npfx = r[:n]
    haspfx = P

    # Common path (no legacy prefixes): pure uint8 blends, no gathers.
    isrex = (B0 >= 0x40) & (B0 < 0x50)
    rex8 = isrex.view(_np.uint8)
    nrex8 = rex8 ^ 1
    bk = B0 * nrex8 + B[1] * rex8
    is0f = bk == 0x0F
    b2 = B[1] * nrex8 + B[2] * rex8
    is38 = is0f & (b2 == 0x38)
    is3a = is0f & (b2 == 0x3A)
    esc3 = (is38 | is3a).view(_np.uint8)
    is0f8 = is0f.view(_np.uint8)
    is2 = is0f8 & (esc3 ^ 1)

    F = _LUT0[bk]
    F1 = _LUT1[b2]
    not0f = (is0f8 ^ 1).astype(_np.uint16)
    F = (
        F * not0f
        + F1 * is2.astype(_np.uint16)
        + _C38 * is38.view(_np.uint8).astype(_np.uint16)
        + _C3A * is3a.view(_np.uint8).astype(_np.uint16)
    )

    ic = (F & 15).astype(_np.uint8)
    hasmod = ((F >> 4) & 1).astype(_np.uint8)
    inv = ((F >> 5) & 1).astype(_np.uint8)
    wrm = ((F >> 6) & 1).astype(_np.uint8)
    strw = ((F >> 7) & 1).astype(_np.uint8)
    flw = (F >> 8).astype(_np.uint8) & 15

    nop = 1 + is0f8 + esc3  # opcode bytes: 1..3
    mrel = rex8 + nop  # modrm offset from the first byte: 1..4
    e1 = (mrel == 1).view(_np.uint8)
    e2 = (mrel == 2).view(_np.uint8)
    e3 = (mrel == 3).view(_np.uint8)
    e4 = (mrel == 4).view(_np.uint8)
    mb = B[1] * e1 + B[2] * e2 + B[3] * e3 + B[4] * e4
    sibb = B[2] * e1 + B[3] * e2 + B[4] * e3 + B[5] * e4
    mod = mb >> 6
    rm = mb & 7
    mem = hasmod & (mod != 3).view(_np.uint8)
    hassib = mem & (rm == 4).view(_np.uint8)
    d4 = mem & (
        ((mod == 2) | ((mod == 0) & ((rm == 5) | ((rm == 4) & ((sibb & 7) == 5))))).view(
            _np.uint8
        )
    )
    d1 = mem & (mod == 1).view(_np.uint8)
    disp = d1 + d4 * 4

    rexw = rex8 & ((B0 & 0x08) != 0).view(_np.uint8)
    modreg = (mb >> 3) & 7
    # imm length; common path has no 66/67 so z=4, moffs=8.
    ilen = ((ic == 1) | (ic == 6)).view(_np.uint8)
    ilen += ((ic == 2).view(_np.uint8)) * 2
    ilen += (((ic == 3) | (ic == 7)).view(_np.uint8)) * 4
    ilen += ((ic == 4).view(_np.uint8)) * (4 + 4 * rexw)
    ilen += ((ic == 5).view(_np.uint8)) * 3
    ilen += ((ic == 8).view(_np.uint8)) * 8
    g3 = ((ic == 9).view(_np.uint8)) & hasmod & ((modreg < 2).view(_np.uint8))
    ilen += g3 * (1 + 3 * ((bk != 0xF6).view(_np.uint8)))

    L = rex8 + nop + hasmod + hassib + disp + ilen
    isvex = (B0 == 0xC4) | (B0 == 0xC5) | (B0 == 0x62)
    ok = (inv ^ 1) & ((isvex | haspfx).view(_np.uint8) ^ 1)
    L = L * ok
    cand = ((flw == 1) | (flw == 2)).view(_np.uint8)
    cand += (flw == 3).view(_np.uint8) * 2
    cand += (strw | (wrm & mem)) * 4
    cand = cand * ok
    L += isvex.view(_np.uint8) * _VEX_SENTINEL  # prefix positions fixed below

    # Sparse fixup: positions that start with legacy prefixes (~0-10 %).
    pf = _np.nonzero(haspfx)[0]
    if len(pf):
        npfxp = npfx[pf].astype(_np.int64)
        # 66/67 presence inside each run: doubling with carry.  Sound
        # because the terminating byte of a run is a non-prefix byte and
        # can therefore never equal 0x66/0x67 itself.
        g66 = _np.zeros(n + pad, _np.uint8)
        g66[:n] = B0 == 0x66
        g67 = _np.zeros(n + pad, _np.uint8)
        g67[:n] = B0 == 0x67
        rr = Pn.copy()
        for k in (1, 2, 4, 8):
            cont = (rr[: n + pad - k] == k).view(_np.uint8)
            g66[: n + pad - k] |= cont * g66[k:]
            g67[: n + pad - k] |= cont * g67[k:]
            rr[: n + pad - k] += cont * rr[k:]
        j = pf + npfxp
        opsz = g66[pf].astype(bool)
        adsz = g67[pf].astype(bool)
        bjp = BP[j]
        isrexp = (bjp >= 0x40) & (bjp < 0x50)
        rexp = isrexp.astype(_np.int64)
        kp = j + rexp
        bkp = BP[kp]
        is0fp = bkp == 0x0F
        b2p = BP[kp + 1]
        is38p = is0fp & (b2p == 0x38)
        is3ap = is0fp & (b2p == 0x3A)
        nopp = 1 + is0fp.astype(_np.int64) + (is38p | is3ap).astype(_np.int64)
        Fp = _np.where(
            is0fp,
            _np.where(is38p, _C38, _np.where(is3ap, _C3A, _LUT1[b2p])),
            _LUT0[bkp],
        )
        icp = (Fp & 15).astype(_np.uint8)
        hasmodp = ((Fp >> 4) & 1).astype(_np.int64)
        invp = ((Fp >> 5) & 1).astype(bool)
        wrmp = ((Fp >> 6) & 1).astype(bool)
        strwp = ((Fp >> 7) & 1).astype(bool)
        flwp = (Fp >> 8) & 15
        mp = kp + nopp
        mbp = BP[mp]
        modp = mbp >> 6
        rmp = mbp & 7
        memp = (hasmodp == 1) & (modp != 3)
        sibp = memp & (rmp == 4)
        sibbp = BP[mp + 1]
        dispp = _np.where(
            memp,
            _np.where(
                modp == 1,
                1,
                _np.where(
                    modp == 2,
                    4,
                    _np.where(
                        rmp == 5,
                        4,
                        _np.where((rmp == 4) & ((sibbp & 7) == 5), 4, 0),
                    ),
                ),
            ),
            0,
        ).astype(_np.int64)
        rexwp = isrexp & ((bjp & 8) != 0)
        modregp = (mbp >> 3) & 7
        zl = _np.where(opsz, 2, 4).astype(_np.int64)
        ilenp = _np.zeros(len(pf), _np.int64)
        ilenp = _np.where((icp == 1) | (icp == 6), 1, ilenp)
        ilenp = _np.where(icp == 2, 2, ilenp)
        ilenp = _np.where((icp == 3) | (icp == 7), zl, ilenp)
        ilenp = _np.where(icp == 4, _np.where(rexwp, 8, zl), ilenp)
        ilenp = _np.where(icp == 5, 3, ilenp)
        ilenp = _np.where(icp == 8, _np.where(adsz, 4, 8), ilenp)
        g3p = (icp == 9) & (hasmodp == 1) & (modregp < 2)
        ilenp = _np.where(g3p, _np.where(bkp == 0xF6, 1, zl), ilenp)
        Lp = npfxp + rexp + nopp + hasmodp + sibp.astype(_np.int64) + dispp + ilenp
        vexp = ~isrexp & ((bjp == 0xC4) | (bjp == 0xC5) | (bjp == 0x62))
        okp = ~invp & ~vexp & (Lp <= 15)
        candp = ((flwp == 1) | (flwp == 2)).astype(_np.uint8)
        candp += (flwp == 3).astype(_np.uint8) * 2
        candp += (strwp | (wrmp & memp)).astype(_np.uint8) * 4
        Lp = _np.where(okp, Lp, 0)
        Lp = _np.where(vexp, _VEX_SENTINEL, Lp)
        L[pf] = Lp.astype(_np.uint8)
        cand[pf] = _np.where(okp, candp, 0)

    # Tail truncation: only the last 16 positions can run off the end.
    t0 = max(0, n - 16)
    Lt = L[t0:].astype(_np.int64)
    idxt = _np.arange(t0, n)
    bad = (Lt != _VEX_SENTINEL) & (idxt + Lt > n)
    L[t0:][bad] = 0
    cand[t0:][bad] = 0
    # The common-path sum can reach 18; anything over 15 is invalid.
    over = (L > 15) & (L != _VEX_SENTINEL)
    L[over] = 0
    cand[over] = 0
    return L, cand


# ---------------------------------------------------------------------------
# Fused scan + pointer-jump walk (windowed).
# ---------------------------------------------------------------------------


def _vector_walk(buf, stop: int, entry: int):
    """Walk the instruction chain of ``buf[:stop]`` starting at *entry*.

    *buf* may extend past *stop* (chunk overhang); those bytes feed the
    scan's lookahead only.  Returns ``(starts, mbits, exit)``: int32
    start offsets in ``[entry, stop)``, their uint8 SB_* bits, and the
    first chain offset ``>= stop``.
    """
    nbuf = len(buf)
    mv = memoryview(buf)
    parts_s = []
    parts_m = []
    pos = entry
    lo = 0
    while lo < stop:
        hi = min(stop, lo + _WINDOW)
        if pos >= hi:  # an instruction straddles this whole window
            lo = hi
            continue
        wn = hi - lo
        ext = min(nbuf, hi + _LOOKAHEAD)
        L, cand = _scan(mv[lo:ext])
        L = L[:wn]
        cand = cand[:wn]
        sent = _np.nonzero(L == _VEX_SENTINEL)[0]
        if len(sent):
            # VEX/EVEX positions: resolve against the real buffer so
            # truncation at the true end is judged exactly.
            for i in sent.tolist():
                try:
                    insn = decode(buf, lo + i)
                except DecodeError:
                    L[i] = 0
                    cand[i] = 0
                else:
                    L[i] = insn._len
                    cand[i] = _cand_of(insn)
        step = _np.maximum(L, 1).astype(_np.int32)
        nxt = _np.arange(wn + 24, dtype=_np.int32)
        nxt[:wn] += step
        # nxt is the identity past wn: composed pointers stall there, so
        # every chain position >= wn maps to itself (the window exit).
        n2 = nxt[nxt]
        n4 = n2[n2]
        n8 = n4[n4]
        n16 = n8[n8]
        off = pos - lo
        anchors = []
        aap = anchors.append
        jump16 = n16.item
        while off < wn:
            aap(off)
            off = jump16(off)
        A = _np.array(anchors, _np.int32)
        cols = _np.empty((16, len(A)), _np.int32)
        cols[0] = A
        cur = A
        for j in range(1, 16):
            cur = nxt[cur]
            cols[j] = cur
        starts = cols.T.ravel()
        end = int(_np.searchsorted(starts, wn))
        starts = starts[:end]
        parts_s.append(starts + lo)
        valid = (L[starts] > 0).view(_np.uint8) * _np.uint8(SB_VALID)
        parts_m.append(cand[starts] | valid)
        last = int(starts[-1])
        pos = lo + last + int(step[last])
        lo = hi
    if parts_s:
        return _np.concatenate(parts_s), _np.concatenate(parts_m), pos
    return _np.empty(0, _np.int32), _np.empty(0, _np.uint8), pos


def _scalar_bits(buf, off: int):
    """``(step, mbits)`` at *off*, exactly as the vectorized sweep sees it.

    Used by seam reconciliation so a spliced stream is bit-identical to
    the serial one: the 40-byte slice reproduces the window scan's view
    of this position (same lookahead, same truncation judgement).
    """
    end = min(len(buf), off + _LOOKAHEAD + 24)
    L, cand = _scan(memoryview(buf)[off:end])
    ln = int(L[0])
    if ln == _VEX_SENTINEL:
        try:
            insn = decode(buf, off)
        except DecodeError:
            return 1, 0
        return insn._len, _cand_of(insn) | SB_VALID
    if ln == 0:
        return 1, 0
    return ln, int(cand[0]) | SB_VALID


# ---------------------------------------------------------------------------
# Chunked parallel decode with boundary reconciliation.
# ---------------------------------------------------------------------------

#: ``endbr64`` — the IBT landing pad CET compilers plant at every
#: indirectly-reachable function entry.  (Defined locally: repro.x86 is
#: a leaf package and must not import repro.elf.)
_ENDBR64 = b"\xf3\x0f\x1e\xfa"

#: How far past a chunk boundary to look for an ``endbr64`` anchor.
_ENDBR_SNAP_WINDOW = 4096


def _snap_spans_to_endbr(mv, spans):
    """Snap interior chunk boundaries forward to the next ``endbr64``.

    CET binaries plant ``endbr64`` (f3 0f 1e fa) at function entries, so
    the pattern almost always sits on a true instruction start.  A chunk
    whose base is such an anchor agrees with the carried chain
    immediately and its seam reconciles in zero scalar steps.  This is
    placement only — reconciliation still verifies every seam against
    the true chain, so an anchor that is really immediate data costs a
    few ``reconcile_retries`` but never correctness.

    Returns ``(spans, snapped)`` where *snapped* counts moved
    boundaries.
    """
    if len(spans) <= 1:
        return spans, 0
    bounds = [b for b, _ in spans] + [spans[-1][1]]
    snapped = 0
    for i in range(1, len(bounds) - 1):
        b = bounds[i]
        limit = min(bounds[i + 1], b + _ENDBR_SNAP_WINDOW)
        hit = bytes(mv[b:limit]).find(_ENDBR64)
        if hit > 0 and bounds[i - 1] < b + hit < bounds[i + 1]:
            bounds[i] = b + hit
            snapped += 1
    return list(zip(bounds[:-1], bounds[1:])), snapped


def _scan_chunk(payload):
    """Worker: scan one chunk (core + overhang bytes) from its base."""
    blob, core = payload
    starts, mbits, exit_off = _vector_walk(blob, core, 0)
    return starts.tobytes(), mbits.tobytes(), exit_off


def _decode_chunked(buf, address: int, executor, chunk_size: int):
    """Decode *buf* as parallel chunks, splicing at reconciled seams.

    Each chunk is scanned from its base — a conservative candidate
    boundary, not necessarily a true instruction start.  Reconciliation
    walks the true chain (carried from chunk to chunk) forward with
    scalar steps until it lands on a start the worker also produced;
    from that point on the streams are provably identical, because the
    length at an offset is a pure function of ``(buf, offset)``.  The
    scalar steps are counted as ``reconcile_retries``.
    """
    from repro.core.parallel import chunk_spans

    n = len(buf)
    mv = memoryview(buf)
    spans, snapped = _snap_spans_to_endbr(mv, chunk_spans(n, chunk_size))
    payloads = [
        (bytes(mv[base : min(n, hi + MAX_INSN_LEN - 1)]), hi - base)
        for base, hi in spans
    ]
    if executor is not None:
        results = executor.map(_scan_chunk, payloads)
    else:
        results = [_scan_chunk(p) for p in payloads]

    parts_s = []
    parts_m = []
    pend_s: list[int] = []
    pend_m: list[int] = []

    def flush():
        if pend_s:
            parts_s.append(_np.array(pend_s, _np.int32))
            parts_m.append(_np.array(pend_m, _np.uint8))
            pend_s.clear()
            pend_m.clear()

    retries = 0
    cursor = 0
    for (base, hi), (sblob, mblob, exit_rel) in zip(spans, results):
        if cursor >= hi:  # true chain already carried past this chunk
            continue
        s = _np.frombuffer(sblob, _np.int32)
        m = _np.frombuffer(mblob, _np.uint8)
        core = hi - base
        rel = cursor - base
        synced = -1
        while rel < core:
            k = int(_np.searchsorted(s, rel))
            if k < len(s) and int(s[k]) == rel:
                synced = k
                break
            step, bits = _scalar_bits(buf, cursor)
            pend_s.append(cursor)
            pend_m.append(bits)
            retries += 1
            cursor += step
            rel = cursor - base
        if synced < 0:
            continue
        flush()
        parts_s.append(s[synced:] + base)
        parts_m.append(m[synced:])
        cursor = base + exit_rel
    flush()
    if parts_s:
        starts = _np.concatenate(parts_s)
        mbits = _np.concatenate(parts_m)
    else:
        starts = _np.empty(0, _np.int32)
        mbits = _np.empty(0, _np.uint8)
    return InstructionStream(
        buf,
        address,
        starts,
        mbits,
        chunks=len(spans),
        reconcile_retries=retries,
        endbr_snaps=snapped,
    )


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

    __slots__ = (
        "_buf",
        "address",
        "_starts",
        "_mbits",
        "_cache",
        "chunks",
        "reconcile_retries",
        "endbr_snaps",
    )

    def __init__(
        self,
        buf,
        address: int,
        starts,
        mbits,
        *,
        chunks: int = 1,
        reconcile_retries: int = 0,
        endbr_snaps: int = 0,
    ) -> None:
        self._buf = buf
        self.address = address
        self._starts = starts
        self._mbits = mbits
        self._cache: dict[int, Instruction] = {}
        self.chunks = chunks
        self.reconcile_retries = reconcile_retries
        self.endbr_snaps = endbr_snaps

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
            f"@ {self.address:#x} chunks={self.chunks}>"
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

    # -- pickling (artifact cache, worker transport) ---------------------

    def __reduce__(self):
        if HAVE_NUMPY and isinstance(self._starts, _np.ndarray):
            sblob = _np.ascontiguousarray(self._starts, _np.int32).tobytes()
            mblob = _np.ascontiguousarray(self._mbits, _np.uint8).tobytes()
        else:
            sblob = self._starts.tobytes()
            mblob = bytes(self._mbits)
        return (
            _rebuild_stream,
            (
                bytes(self._buf),
                self.address,
                sblob,
                mblob,
                self.chunks,
                self.reconcile_retries,
                self.endbr_snaps,
            ),
        )


def _rebuild_stream(buf, address, sblob, mblob, chunks, retries, snaps=0):
    """Unpickle an :class:`InstructionStream` (NumPy optional)."""
    if HAVE_NUMPY:
        starts = _np.frombuffer(sblob, _np.int32)
        mbits = _np.frombuffer(mblob, _np.uint8)
    else:
        starts = array("i")
        starts.frombytes(sblob)
        mbits = mblob
    return InstructionStream(
        buf, address, starts, mbits, chunks=chunks, reconcile_retries=retries,
        endbr_snaps=snaps,
    )


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
    stream = InstructionStream(buf, address, starts, mbits, chunks=1)
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
    executor=None,
    chunk_size: int | None = None,
    min_vector_bytes: int | None = None,
) -> InstructionStream:
    """Linear-sweep decode *data* into a lazy :class:`InstructionStream`.

    Semantics are exactly :func:`~repro.x86.decoder.decode_buffer` —
    undecodable bytes become single-byte ``(bad)`` entries — but the
    sweep is vectorized when NumPy is available and, for buffers of at
    least ``_CHUNK_THRESHOLD`` bytes with a parallel *executor*
    (:class:`~repro.core.parallel.BatchExecutor`), split into chunks
    decoded concurrently and spliced with boundary reconciliation.

    ``chunk_size`` forces chunked decode regardless of size or executor
    (chunks run in-process if no executor is given) — used by tests and
    benchmarks to exercise seams.  ``min_vector_bytes`` overrides the
    scalar/vector crossover (0 forces the vectorized path).
    """
    buf = _freeze(data)
    n = len(buf)
    floor = _MIN_VECTOR if min_vector_bytes is None else min_vector_bytes
    if not HAVE_NUMPY or n < floor:
        return _stream_from_insns(buf, address, decode_buffer(buf, address))
    if chunk_size is None:
        if (
            executor is None
            or n < _CHUNK_THRESHOLD
            or not executor.would_parallelize(2)
        ):
            starts, mbits, _ = _vector_walk(buf, n, 0)
            return InstructionStream(buf, address, starts, mbits, chunks=1)
        chunk_size = max(_MIN_CHUNK, -(-n // executor.jobs))
    return _decode_chunked(buf, address, executor, chunk_size)
