"""Production planner vs the reference planner (``reference_planner``).

The production planner enumerates pun windows lazily and places sites
of five or more bytes straight into their padding-0 window; the
reference builds every window list up front and probes each in turn.
Both must leave identical plans, trampolines, image bytes, lock states
and allocator traffic (``space.probes``, ``space.span_visits``).
"""

import pytest

import repro.core.strategy as strategy
import repro.core.tactics as tactics
from repro.core.allocator import AddressSpace
from repro.core.binary import CodeImage
from repro.core.pipeline import (
    DecodePass,
    MatchPass,
    PlanPass,
    RewriteContext,
    RewriteOptions,
)
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.tactics import TacticContext, try_direct
from repro.core.trampoline import Counter, Empty
from repro.elf.constants import ENDBR64
from repro.elf.reader import ElfFile
from repro.frontend.matchers import match_heap_writes, match_jumps
from repro.synth.generator import SynthesisParams, synthesize
from repro.x86.decoder import decode_buffer

from tests.core import reference_planner as ref

SITES = dict(n_jump_sites=160, n_write_sites=160, short_jump_frac=0.7,
             short_store_frac=0.8)

PROFILES = {
    "exec": (SynthesisParams(seed=5, **SITES), {}),
    "pie": (SynthesisParams(seed=6, pie=True, **SITES), {}),
    "shared": (SynthesisParams(seed=7, shared=True, **SITES),
               {"shared": True, "library_path": "/usr/lib/libdiff.so"}),
    "cet": (SynthesisParams(seed=8, cet=True, **SITES), {}),
    "pressure": (SynthesisParams(seed=9, **SITES), {"pressure": 64 << 20}),
}


def use_reference(monkeypatch) -> None:
    """Route S1 through the reference planner for this test."""
    monkeypatch.setattr(strategy, "try_direct", ref.try_direct)
    monkeypatch.setattr(tactics, "pun_windows", ref.pun_windows)


def state(ctx: TacticContext, patches=()) -> dict:
    return {
        "patches": [
            (p.site, p.tactic,
             [(t.vaddr, t.code, t.tag) for t in p.trampolines])
            for p in patches
        ],
        "image": [bytes(r.data) for r in ctx.image.ranges],
        "locks": [bytes(r.locks._state) for r in ctx.image.ranges],
        "allocations": sorted(
            (a.vaddr, a.size, a.tag) for a in ctx.space.allocations.values()),
        "probes": ctx.space.probes,
        "span_visits": ctx.space.span_visits,
    }


def plan_profile(name, matcher, *, small_space=False,
                 toggles=None, instrumentation=Empty) -> dict:
    params, extra = PROFILES[name]
    data = synthesize(params).data
    extra = dict(extra)
    pressure = extra.pop("pressure", 0)
    elf = ElfFile(data)
    if pressure:
        extra["reserve_extra"] = ((elf.image_end, elf.image_end + pressure),)
    ctx = RewriteContext(elf=elf, options=RewriteOptions(
        mode="loader", toggles=toggles or TacticToggles(), **extra))
    DecodePass().run(ctx)
    MatchPass(matcher).run(ctx)
    ctx.requests = [PatchRequest(insn=i, instrumentation=instrumentation())
                    for i in ctx.sites]
    ctx.prepare_workspace()
    if small_space:
        # Room for a few dozen trampolines just above the image: the
        # padding-0 allocation soon fails and every site falls through
        # to the padded windows, T2 and T3.
        end = elf.image_end + 0x10000
        space = AddressSpace(lo_bound=end, hi_bound=end + 0x200)
        ctx.space = ctx.tactics.space = space
    PlanPass().run(ctx)
    return state(ctx.tactics, ctx.plan.patches) | {
        "failures": ctx.plan.failures,
        "by_tactic": dict(ctx.plan.stats.by_tactic),
    }


CASES = [(name, m) for name in PROFILES
         for m in (match_jumps, match_heap_writes)]


@pytest.mark.parametrize("name,matcher", CASES,
                         ids=[f"{n}-{m.__name__}" for n, m in CASES])
def test_production_planner_matches_reference(name, matcher, monkeypatch):
    got = plan_profile(name, matcher)
    use_reference(monkeypatch)
    want = plan_profile(name, matcher)
    assert got == want
    assert got["patches"], "profile planned nothing"


@pytest.mark.parametrize("name", ["exec", "pie"])
def test_exhausted_space_matches_reference(name, monkeypatch):
    got = plan_profile(name, match_jumps, small_space=True)
    use_reference(monkeypatch)
    want = plan_profile(name, match_jumps, small_space=True)
    assert got == want
    # The space really ran out: sites failed after probing every window.
    assert got["failures"]


def test_counter_payload_and_no_t1_match_reference(monkeypatch):
    kwargs = dict(toggles=TacticToggles(t1=False),
                  instrumentation=lambda: Counter(0x500000))
    got = plan_profile("exec", match_heap_writes, **kwargs)
    use_reference(monkeypatch)
    assert got == plan_profile("exec", match_heap_writes, **kwargs)


# -- try_direct on hand-built sites ---------------------------------------

BASE = 0x400000


def direct_both(code, *, lock=None, cet=False, allow_padding=True,
                space=None):
    """Run production and reference try_direct on twin fresh contexts
    and return the two resulting states."""
    out = []
    for impl in (try_direct, ref.try_direct):
        image = CodeImage.from_ranges([(BASE, code)])
        if lock is not None:
            image.write(lock, b"\xcc")
        if space is None:
            sp = AddressSpace(lo_bound=0x10000, hi_bound=0x7FFF0000)
            sp.reserve(BASE - 0x1000, BASE + len(code) + 0x1000)
        else:
            sp = space()
        ctx = TacticContext(image=image, space=sp,
                            instructions=decode_buffer(code, address=BASE),
                            cet=cet)
        result = impl(ctx, ctx.insn_at(BASE), Empty(),
                      allow_padding=allow_padding)
        out.append(state(ctx, [result] if result else []))
    return out


MOVABS = bytes.fromhex("48b98877665544332211")  # 10 bytes


def test_direct_b1_matches_reference():
    got, want = direct_both(MOVABS + b"\x90" * 16)
    assert got == want
    assert got["patches"][0][1] == tactics.Tactic.B1
    assert got["probes"] == 1


def test_locked_tail_byte_matches_reference():
    got, want = direct_both(MOVABS + b"\x90" * 16, lock=BASE + 9)
    assert got == want
    assert got["patches"] == [] and got["probes"] == 0


def test_cet_landing_pad_matches_reference():
    for cet in (True, False):
        got, want = direct_both(ENDBR64 + bytes(16), cet=cet)
        assert got == want
        assert bool(got["patches"]) is not cet


def test_failed_padding0_resumes_at_padding1():
    # mov rax, [rip+5]: its operand is reachable from a trampoline one
    # byte above the bottom of the padding-0 window, but not from the
    # bottom itself, where first-fit puts it.  The padding-0 trampoline
    # fails to encode, and the padding-1 window starts one byte higher.
    code = bytes.fromhex("488b0505000000") + b"\x90" * 16
    bottom = BASE + 5 - (1 << 31)

    def space():
        return AddressSpace(lo_bound=bottom, hi_bound=BASE - 0x1000)

    got, want = direct_both(code, space=space)
    assert got == want
    assert got["probes"] == 2
    (tramp_vaddr, _, _), = got["patches"][0][2]
    assert tramp_vaddr == bottom + 1
    assert got["image"][0][:2] != code[:2]  # a padded six-byte jump

    # Without T1 the padded window is never tried.
    got, want = direct_both(code, space=space, allow_padding=False)
    assert got == want
    assert got["patches"] == [] and got["probes"] == 1
