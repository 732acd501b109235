"""Tactic unit tests on crafted byte scenarios.

Each scenario controls the address space so that specific windows are
(in)valid, forcing a known tactic; assertions then check the resulting
byte layout, lock state, and decodability of the patched stream.
"""


from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.locks import MODIFIED, PUNNED, UNLOCKED
from repro.core.puns import pun_windows
from repro.core.tactics import (
    Tactic,
    TacticContext,
    Transaction,
    apply_int3,
    try_direct,
    try_neighbour_eviction,
    try_successor_eviction,
)
from repro.core.trampoline import Empty, Trampoline
from repro.x86.decoder import decode, decode_buffer

BASE = 0x400000


def make_ctx(code: bytes, *, lo=0x10000, hi=0x7FFF0000, probes=8) -> TacticContext:
    image = CodeImage.from_ranges([(BASE, code)])
    space = AddressSpace(lo_bound=lo, hi_bound=hi)
    space.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
    instructions = decode_buffer(code, address=BASE)
    return TacticContext(image=image, space=space, instructions=instructions,
                         max_eviction_probes=probes)


def site(ctx: TacticContext, addr: int = BASE):
    insn = ctx.insn_at(addr)
    assert insn is not None
    return insn


class TestB1:
    def test_long_instruction_direct_replacement(self):
        # 7-byte instruction: mov rax, [rip+0x1000]... use a plain long mov
        code = bytes.fromhex("48c7c078563412") + b"\x90" * 16  # mov rax, imm32 (7b)
        ctx = make_ctx(code)
        result = try_direct(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.B1
        jump = decode(ctx.image.read(BASE, 5), 0, address=BASE)
        tramp = result.trampolines[0]
        assert jump.target == tramp.vaddr
        # Leftover bytes of the patched instruction stay unlocked.
        locks = ctx.image.locks_for(BASE)
        assert locks.state(BASE + 5) == UNLOCKED
        assert locks.state(BASE + 4) == MODIFIED

    def test_trampoline_contains_displaced_insn_and_return(self):
        code = bytes.fromhex("48c7c078563412") + b"\x90" * 16
        ctx = make_ctx(code)
        result = try_direct(ctx, site(ctx), Empty())
        tramp = result.trampolines[0]
        insns = decode_buffer(tramp.code, address=tramp.vaddr)
        assert insns[0].raw == code[:7]
        assert insns[1].mnemonic == "jmp"
        assert insns[1].target == BASE + 7


class TestB2:
    def test_punned_jump_shares_successor_bytes(self):
        # 3-byte mov followed by bytes that give a valid positive window:
        # fixed bytes (site+3, site+4) = (0x00, 0x10) -> rel32 ~ 0x10000000.
        code = bytes.fromhex("488903") + bytes.fromhex("0010") + b"\x90" * 16
        ctx = make_ctx(code)
        result = try_direct(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.B2
        # Successor bytes unchanged but PUNNED.
        assert ctx.image.read(BASE + 3, 2) == bytes.fromhex("0010")
        locks = ctx.image.locks_for(BASE)
        assert locks.state(BASE + 3) == PUNNED
        assert locks.state(BASE + 4) == PUNNED
        # The overlapping jump decodes to the trampoline.
        jump = decode(ctx.image.read(BASE, 5), 0, address=BASE)
        assert jump.mnemonic == "jmp"
        assert jump.target == result.trampolines[0].vaddr

    def test_b2_fails_when_window_unavailable(self):
        # Fixed top byte 0x83 -> negative rel32; space has no negative room.
        code = bytes.fromhex("488903" "4883c020") + b"\x90" * 8
        ctx = make_ctx(code)
        result = try_direct(ctx, site(ctx), Empty(), allow_padding=False)
        assert result is None
        # Failure must leave no trace.
        assert ctx.image.read(BASE, 7) == code[:7]
        assert ctx.image.locks_for(BASE).is_writable(BASE, 7)
        assert not ctx.space.allocations


class TestT1:
    def test_padding_rescues_negative_window(self):
        # B2 fixed bytes (0x83, 0x48) -> negative; with p=1 the fixed
        # bytes are (0x48, 0x10) -> wait, layout: [83 48 10]: p=0 top
        # byte=0x48 positive... choose bytes so p=0 fails, p=1 works:
        # p=0 fixed = (+3,+4) = (0x00, 0x83) -> negative.
        # p=1 fixed = (+4,+5,+6)... free=1, fixed=(+3.. no:
        # p=1: rel at +2, free=+2, fixed=(+3,+4,+5)=(0x00,0x83,0x10):
        # top byte 0x10 -> positive.
        code = bytes.fromhex("488903") + bytes.fromhex("008310") + b"\x90" * 16
        ctx = make_ctx(code)
        result = try_direct(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.T1
        jump = decode(ctx.image.read(BASE, 6), 0, address=BASE)
        assert jump.mnemonic == "jmp"
        assert jump.length == 6  # one pad byte
        assert jump.target == result.trampolines[0].vaddr

    def test_t1_disabled_by_allow_padding(self):
        code = bytes.fromhex("488903") + bytes.fromhex("008310") + b"\x90" * 16
        ctx = make_ctx(code)
        assert try_direct(ctx, site(ctx), Empty(), allow_padding=False) is None


class TestT2:
    def test_successor_eviction(self):
        # All direct windows at the site are negative (bytes +3..+6 have
        # MSB-set top bytes); the successor (4-byte add) is evictable.
        code = bytes.fromhex("488903") + bytes.fromhex("4883c0f0") + bytes.fromhex("0010") + b"\x90" * 16
        # site windows: p=0 fixed(+3,+4)=(48,83)->0x8348....: negative.
        # p=1 fixed(+3..+5)=(48,83,c0): negative. p=2: (48,83,c0,f0): neg.
        ctx = make_ctx(code)
        assert try_direct(ctx, site(ctx), Empty()) is None
        result = try_successor_eviction(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.T2
        # Successor replaced by a jump to its evictee trampoline.
        evictee = [t for t in result.trampolines if t.tag.startswith("evictee")]
        assert len(evictee) == 1
        succ_jump = decode(ctx.image.read(BASE + 3, 5), 0, address=BASE + 3)
        assert succ_jump.mnemonic == "jmp"
        assert succ_jump.target == evictee[0].vaddr
        # Evictee trampoline preserves the add and returns after it.
        insns = decode_buffer(evictee[0].code, address=evictee[0].vaddr)
        assert insns[0].raw == bytes.fromhex("4883c0f0")
        assert insns[1].target == BASE + 7
        # Site itself now holds a (possibly punned) jump to its trampoline.
        patch = [t for t in result.trampolines
                 if not t.tag.startswith("evictee")]
        site_jump = decode(ctx.image.read(BASE, 8), 0, address=BASE)
        assert site_jump.mnemonic == "jmp"
        assert site_jump.target == patch[0].vaddr

    def test_t2_skipped_when_successor_locked(self):
        code = bytes.fromhex("488903") + bytes.fromhex("4883c0f0") + b"\x90" * 16
        ctx = make_ctx(code)
        ctx.image.write(BASE + 3, b"\xcc")  # lock successor's first byte
        assert try_successor_eviction(ctx, site(ctx), Empty()) is None

    def test_t2_skipped_without_successor(self):
        code = bytes.fromhex("488903")
        ctx = make_ctx(code)
        assert try_successor_eviction(ctx, site(ctx), Empty()) is None


class TestT3:
    # Site: 2-byte jcc whose p=0 window is negative; two 3-byte movs
    # (hostile victims: their interiors only yield negative windows),
    # then a 10-byte movabs victim whose interior offers full freedom
    # for both J_patch and J_victim.
    T3_CODE = (
        bytes.fromhex("74f0")
        + bytes.fromhex("4889d8") * 2
        + bytes.fromhex("48b98877665544332211")
        + b"\x90" * 32
    )

    def test_neighbour_eviction_layout(self):
        ctx = make_ctx(self.T3_CODE)
        # Direct B2 fails (top fixed byte 0xd8 -> negative window).
        assert try_direct(ctx, site(ctx), Empty(), allow_padding=False) is None
        result = try_neighbour_eviction(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.T3
        # Site now holds a short forward jump.
        short = decode(ctx.image.read(BASE, 2), 0, address=BASE)
        assert short.mnemonic == "jmp" and short.length == 2
        L = short.target
        assert L > BASE + 1
        # At L there is a jump to the patch trampoline.
        patch_tramps = [t for t in result.trampolines if t.tag.startswith("patch")]
        jpatch = decode(ctx.image.read(L, 8), 0, address=L)
        assert jpatch.mnemonic == "jmp"
        assert jpatch.target == patch_tramps[0].vaddr

    def test_victim_head_preserves_semantics(self):
        ctx = make_ctx(self.T3_CODE)
        result = try_neighbour_eviction(ctx, site(ctx), Empty())
        assert result is not None
        evictees = [t for t in result.trampolines if t.tag.startswith("evictee")]
        assert len(evictees) == 1
        # The victim's address now decodes as a jump to a trampoline that
        # executes the original (movabs) victim instruction and returns.
        victim_addr = int(evictees[0].tag.split("@")[1], 16)
        jvictim = decode(ctx.image.read(victim_addr, 8), 0, address=victim_addr)
        assert jvictim.mnemonic == "jmp"
        assert jvictim.target == evictees[0].vaddr
        body = decode_buffer(evictees[0].code, address=evictees[0].vaddr)
        assert body[0].raw == bytes.fromhex("48b98877665544332211")
        assert body[1].mnemonic == "jmp"
        assert body[1].target == victim_addr + 10

    def test_t3_self_case_for_long_instruction(self):
        # A 9-byte instruction can host JShort + JPatch internally.
        code = bytes.fromhex("48ba8877665544332211") + b"\x90" * 32  # mov rdx, imm64 (10b)
        ctx = make_ctx(code)
        result = try_neighbour_eviction(ctx, site(ctx), Empty())
        assert result is not None and result.tactic == Tactic.T3
        short = decode(ctx.image.read(BASE, 2), 0, address=BASE)
        L = short.target
        assert BASE + 2 <= L < BASE + 10
        assert not [t for t in result.trampolines if t.tag.startswith("evictee")]


class TestB0:
    def test_int3_written(self):
        code = bytes.fromhex("488903") + b"\x90" * 8
        ctx = make_ctx(code)
        result = apply_int3(ctx, site(ctx))
        assert result.tactic == Tactic.B0
        assert ctx.image.read(BASE, 1) == b"\xcc"

    def test_int3_respects_locks(self):
        code = bytes.fromhex("488903") + b"\x90" * 8
        ctx = make_ctx(code)
        ctx.image.write(BASE, b"\x90")
        assert apply_int3(ctx, site(ctx)) is None


class TestTransaction:
    def test_abort_restores_everything(self):
        code = bytes.fromhex("488903" "0010") + b"\x90" * 16
        ctx = make_ctx(code)
        before_free = ctx.space.free.copy()
        tx = Transaction(ctx.image, ctx.space)
        tx.write(BASE, b"\xe9\x11\x22")
        tx.pun(BASE + 3, 2)
        t = ctx.space.allocate(0x10000, 0x20000, 64, "t")
        tx.add_trampoline(Trampoline(vaddr=t, code=bytes(64)))
        tx.abort()
        assert ctx.image.read(BASE, 5) == code[:5]
        assert ctx.image.locks_for(BASE).is_writable(BASE, 5)
        assert list(ctx.space.free) == list(before_free)
        assert ctx.image.dirty == []

    def test_nested_failure_leaves_clean_state(self):
        """A failed T2 (no usable probe) must not leak allocations."""
        code = bytes.fromhex("488903") + bytes.fromhex("4883c0f0") + b"\x90" * 4
        # Space so small nothing can be allocated.
        ctx = make_ctx(code, lo=0x10000, hi=0x10010)
        assert try_successor_eviction(ctx, site(ctx), Empty()) is None
        assert not ctx.space.allocations
        assert ctx.image.read(BASE, 7) == code[:7]


class TestAbortHeavyChurn:
    """Regression: rollback-heavy planning must leave the allocator and
    image consistent (stale ``release`` state once survived aborts)."""

    def test_repeated_failed_evictions_keep_invariants(self):
        # Constrained space: T2/T3 allocate, probe, and abort repeatedly.
        # Page hints are only kept under pack_pages, so turn it on.
        code = (bytes.fromhex("488903") + bytes.fromhex("4883c0f0")) * 6
        ctx = make_ctx(code, lo=0x10000, hi=0x10100)
        ctx.space.pack_pages = True
        ctx.space.debug_invariants = True
        for insn in list(ctx.instructions):
            try_successor_eviction(ctx, insn, Empty())
            try_neighbour_eviction(ctx, insn, Empty())
        ctx.space.check_invariants()
        # No transaction leaked a partial allocation's page refs.
        live_pages = {
            p for a in ctx.space.allocations.values()
            for p in range(a.vaddr - a.vaddr % 4096, a.end, 4096)
        }
        assert set(ctx.space._page_refs) == live_pages

    def test_abort_restores_pun_windows(self):
        # A rollback that changed lock state must leave the site with
        # exactly the windows it had before.
        code = bytes.fromhex("488903" "0010") + b"\x90" * 16
        ctx = make_ctx(code)
        before = list(pun_windows(ctx.image, BASE, BASE + 3))
        assert before
        tx = Transaction(ctx.image, ctx.space)
        tx.write(BASE, b"\xe9\x11\x22")
        assert list(pun_windows(ctx.image, BASE, BASE + 3)) == []  # locked
        tx.abort()
        after = list(pun_windows(ctx.image, BASE, BASE + 3))
        assert after == before
