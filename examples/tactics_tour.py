#!/usr/bin/env python3
"""A byte-level tour of the patching tactics on the paper's Figure 1
example:

    Ins1: 48 89 03        mov %rax,(%rbx)      <- patch this
    Ins2: 48 83 c0 20     add $32,%rax
    Ins3: 48 31 c1        xor %rax,%rcx
    Ins4: 83 7b fc 4d     cmpl $77,-4(%rbx)

Shows the candidate pun windows (matching the rel32 values printed in
the paper), then applies the winning tactic under the paper's
"negative offsets are invalid" assumption and prints the rewritten
bytes.

Run:  python3 examples/tactics_tour.py
"""

from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.puns import pun_windows
from repro.core.strategy import PatchRequest, patch_all
from repro.core.tactics import TacticContext
from repro.core.trampoline import Empty
from repro.x86.decoder import decode_buffer

FIG1 = bytes.fromhex("488903" "4883c020" "4831c1" "837bfc4d")
BASE = 0x400000


def hexdump(data: bytes) -> str:
    return " ".join(f"{b:02x}" for b in data)


def make_ctx() -> TacticContext:
    code = FIG1 + b"\x90" * 48
    image = CodeImage.from_ranges([(BASE, code)])
    space = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)  # positive only
    space.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
    return TacticContext(image=image, space=space,
                         instructions=decode_buffer(code, address=BASE))


def main() -> None:
    ctx = make_ctx()
    print("original instruction stream:")
    for insn in ctx.instructions[:4]:
        print(f"  {insn}")

    print("\npun windows for Ins1 (3-byte mov):")
    for w in pun_windows(ctx.image, BASE, BASE + 3):
        rel_lo = (w.target_lo - w.jump_end) & 0xFFFFFFFF
        rel_hi = (w.target_hi - 1 - w.jump_end) & 0xFFFFFFFF
        label = {0: "B2   ", 1: "T1(a)", 2: "T1(b)"}[w.padding]
        sign = "negative (invalid)" if w.target_lo < BASE else "positive"
        print(f"  {label}: padding={w.padding} free_bytes={w.free} "
              f"rel32={rel_lo:#010x}..{rel_hi:#010x}  -> {sign}")

    print("\napplying strategy S1 (B2 and T1(a) fail; T1(b) wins):")
    site = ctx.insn_at(BASE)
    plan = patch_all(ctx, [PatchRequest(insn=site, instrumentation=Empty())])
    patch = plan.patches[0]
    print(f"  tactic: {patch.tactic.value}")
    print(f"  trampoline at {patch.trampolines[0].vaddr:#x} "
          f"(the single rel32=0x20c08348 candidate)")

    print("\nrewritten bytes (compare with Figure 1 line T1(b)):")
    print(f"  before: {hexdump(FIG1)}")
    print(f"  after : {hexdump(ctx.image.read(BASE, len(FIG1)))}")
    print("          (2 pad prefixes + e9; Ins2's bytes now double as the "
          "rel32)")

    print("\nlock states after patching:")
    states = [ctx.image.state_name(BASE + i) for i in range(len(FIG1))]
    print("  " + " ".join(f"{s[:3]:>3}" for s in states))

    print("\ndecoding the patched stream linearly:")
    raw = ctx.image.read(BASE, 16)
    for insn in decode_buffer(raw, address=BASE)[:3]:
        print(f"  {insn}")
    print("\nNote: a jump that targets Ins2 (0x400003) still lands on the "
          "original 'add $32,%rax' bytes — the set of jump targets is "
          "preserved.")


if __name__ == "__main__":
    main()
