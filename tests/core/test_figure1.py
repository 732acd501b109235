"""Golden reconstruction of the paper's Figure 1.

The figure shows how each tactic rewrites the four-instruction sequence

    Ins1: 48 89 03        mov %rax,(%rbx)
    Ins2: 48 83 c0 20     add $32,%rax
    Ins3: 48 31 c1        xor %rax,%rcx
    Ins4: 83 7b fc 4d     cmpl $77,-4(%rbx)

under the paper's assumption that *negative* rel32 offsets are invalid.
We reproduce that assumption with an allocator restricted to positive
addresses and check the byte-level outcomes the figure depicts.
"""


from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.strategy import PatchRequest, TacticToggles, patch_all
from repro.core.tactics import Tactic, TacticContext, try_direct
from repro.core.trampoline import Empty
from repro.x86.decoder import decode, decode_buffer

FIG1 = bytes.fromhex("488903" "4883c020" "4831c1" "837bfc4d")
BASE = 0x400000  # low base, like the paper's non-PIE discussion


def make_ctx() -> TacticContext:
    code = FIG1 + b"\x90" * 48
    image = CodeImage.from_ranges([(BASE, code)])
    # Positive-only space (the figure's "negative offsets invalid").
    space = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)
    space.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
    return TacticContext(image=image, space=space,
                         instructions=decode_buffer(code, address=BASE))


class TestFigure1:
    def test_b2_and_t1a_invalid_t1b_valid(self):
        """B2 (rel32=0x8348XXXX) and T1(a) (0xc08348XX) are negative and
        must fail; T1(b) (exactly 0x20c08348) succeeds — the tactic used
        on Ins1 in the figure."""
        ctx = make_ctx()
        ins1 = ctx.insn_at(BASE)
        result = try_direct(ctx, ins1, Empty())
        assert result is not None
        assert result.tactic == Tactic.T1
        # The figure's T1(b) layout: two pad bytes then E9.
        raw = ctx.image.read(BASE, 3)
        assert raw[2] == 0xE9
        jump = decode(ctx.image.read(BASE, 7), 0, address=BASE)
        assert jump.length == 7  # 2 pads + 5
        # rel32 equals the figure's single candidate 0x20c08348.
        assert jump.rel == 0x20C08348
        assert jump.target == BASE + 7 + 0x20C08348
        # Ins2's bytes are untouched (they *are* the rel32).
        assert ctx.image.read(BASE + 3, 4) == bytes.fromhex("4883c020")

    def test_t1b_trampoline_must_sit_at_exact_address(self):
        ctx = make_ctx()
        result = try_direct(ctx, ctx.insn_at(BASE), Empty())
        tramp = result.trampolines[0]
        assert tramp.vaddr == BASE + 7 + 0x20C08348

    def test_t2_when_t1b_address_unavailable(self):
        """If the single T1(b) candidate is occupied, the figure's T2
        (successor eviction) applies: Ins2 is evicted first."""
        ctx = make_ctx()
        # Occupy the exact T1(b) candidate address range.
        ctx.space.reserve(BASE + 7 + 0x20C08348 - 64, BASE + 7 + 0x20C08348 + 64)
        ins1 = ctx.insn_at(BASE)
        assert try_direct(ctx, ins1, Empty()) is None
        plan = patch_all(ctx, [PatchRequest(insn=ins1, instrumentation=Empty())],
                         TacticToggles())
        assert plan.patches and plan.patches[0].tactic == Tactic.T2
        # Ins2's position now starts with a jump (the eviction).
        succ = decode(ctx.image.read(BASE + 3, 8), 0, address=BASE + 3)
        assert succ.mnemonic == "jmp"
        # Evictee window per the figure: rel32 = 0x48XXXXXX region
        # (top fixed byte is Ins3's 0x48).
        evictee = [t for t in plan.patches[0].trampolines if t.tag.startswith("evictee")][0]
        rel = (evictee.vaddr - (BASE + 3 + 5)) & 0xFFFFFFFF
        assert rel >> 24 == 0x48

    def test_locked_bytes_after_t1b(self):
        """Figure 1 note: after patching, byte 2 (0x03 of Ins1)... in the
        T1(b) case all of Ins1 is written; Ins2's four bytes are punned."""
        ctx = make_ctx()
        try_direct(ctx, ctx.insn_at(BASE), Empty())
        image = ctx.image
        assert image.state_name(BASE) == "modified"
        assert image.state_name(BASE + 2) == "modified"
        for off in range(3, 7):
            assert image.state_name(BASE + off) == "punned"
        assert image.state_name(BASE + 7) == "unlocked"  # Ins3 untouched


class TestFigure2Shape:
    """The CVE-2019-18408 walk-through (Figure 2): a 2-byte mov patched
    via T3 with a short jump into an evicted testb victim."""

    # 422a5b: ff 15 6f 2a 2a 00   callq *0x2a2a6f(%rip)
    # 422a61: 89 dd               mov %ebx,%ebp       <- patch site
    # 422a63: e9 be fc ff ff      jmpq 422726
    # ... filler ...
    # 422ad1: f6 43 18 02         testb $0x2,0x18(%rbx)  <- victim
    # 422ad5: 74 27               je 422afe
    def build(self):
        base = 0x422A5B
        code = bytearray()
        code += bytes.fromhex("ff156f2a2a00")
        code += bytes.fromhex("89dd")
        code += bytes.fromhex("e9befcffff")
        while len(code) < 0x422AD1 - base:
            code += b"\x90"
        code += bytes.fromhex("f6431802")
        code += bytes.fromhex("7427")
        code += bytes.fromhex("498bb6a0000000")
        code += b"\x90" * 32
        image = CodeImage.from_ranges([(base, bytes(code))])
        space = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)
        space.reserve(base - 0x1000, base + len(code) + 0x1000)
        ctx = TacticContext(image=image, space=space,
                            instructions=decode_buffer(bytes(code), address=base))
        return ctx

    def test_t3_patches_the_mov(self):
        ctx = self.build()
        site = ctx.insn_at(0x422A61)
        assert site.raw == bytes.fromhex("89dd")
        plan = patch_all(
            ctx, [PatchRequest(insn=site, instrumentation=Empty())],
            TacticToggles(t1=True, t2=False, t3=True),  # jmp successor: T2 n/a
        )
        assert plan.patches, "site must be patchable"
        patch = plan.patches[0]
        if patch.tactic == Tactic.T3:
            short = decode(ctx.image.read(0x422A61, 2), 0, address=0x422A61)
            assert short.mnemonic == "jmp" and short.length == 2
            assert short.target > 0x422A62
        # The jmp at 422a63 (a potential jump target) must be untouched.
        assert ctx.image.read(0x422A63, 5) == bytes.fromhex("e9befcffff")
