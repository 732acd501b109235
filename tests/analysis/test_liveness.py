"""Backward liveness over linear regions: dead-register/dead-flag facts
must be sound (anything uncertain stays live)."""

from repro.analysis.facts import ALL_FLAGS, ALL_REGS, STATUS_FLAGS, ZF
from repro.analysis.liveness import LivenessAnalysis, SiteLiveness
from repro.x86.decoder import decode_buffer

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = range(8)

BASE = 0x401000


def analyze(hexstr: str) -> LivenessAnalysis:
    insns = decode_buffer(bytes.fromhex(hexstr.replace(" ", "")), address=BASE)
    return LivenessAnalysis(insns)


class TestTop:
    def test_unknown_address_is_all_live(self):
        live = analyze("90").at(0xDEAD)
        assert live.live_regs == ALL_REGS
        assert live.live_flags == ALL_FLAGS

    def test_region_end_is_all_live(self):
        # Falling off the decoded region is unknown control flow.
        live = analyze("90 90").at(BASE + 1)
        assert live.live_regs == ALL_REGS


class TestKills:
    def test_reg_dead_before_overwrite(self):
        # mov rax, 1 ; ret  — rax is killed before the unknown ret?  No:
        # ret makes everything live *after* mov, but mov kills rax, so
        # rax is dead *at* the mov site.
        live = analyze("48 c7 c0 01 00 00 00  c3").at(BASE)
        assert live.reg_is_dead(RAX)
        assert not live.reg_is_dead(RBX)

    def test_read_then_overwrite_stays_live(self):
        # add rbx, rax ; mov rax, 1 ; ret — rax read first, so live.
        live = analyze("48 01 c3  48 c7 c0 01 00 00 00  c3").at(BASE)
        assert not live.reg_is_dead(RAX)

    def test_flags_dead_before_flag_kill(self):
        # add rax, rbx defines all status flags, so they are dead just
        # before it (nothing reads them in between).
        live = analyze("48 01 d8  c3").at(BASE)
        assert live.flags_are_dead(STATUS_FLAGS)

    def test_flags_live_before_jcc(self):
        # je reads ZF: flags must not be considered dead at the je site.
        live = analyze("74 00  c3").at(BASE)
        assert not live.flags_are_dead(ZF)


class TestControlFlow:
    def test_jcc_joins_both_successors(self):
        # je +2 ; mov rax,1 ; ret | taken path: ret.  On the taken path
        # everything is live (unknown), so rax must be live at the je
        # even though the fall-through kills it.
        code = "74 07  48 c7 c0 01 00 00 00 c3  c3"
        live = analyze(code).at(BASE)
        assert not live.reg_is_dead(RAX)

    def test_jmp_follows_target(self):
        # jmp +7 skips over the ret to mov rbx, rax's kill... target is
        # mov rcx,1;ret: rcx dead at the jmp via its target.
        code = "eb 01  c3  48 c7 c1 01 00 00 00  c3"
        live = analyze(code).at(BASE)
        assert live.reg_is_dead(RCX)

    def test_call_is_conservative(self):
        # call makes everything live after it; mov rax,1 before the call
        # keeps rax dead at the mov, but rbx stays live.
        code = "e8 00 00 00 00  90"
        live = analyze(code).at(BASE)
        assert live.live_regs == ALL_REGS


class TestSiteLiveness:
    def test_describe_mentions_dead_sets(self):
        live = SiteLiveness(address=BASE, live_regs=ALL_REGS & ~(1 << RAX),
                            live_flags=0)
        text = live.describe()
        assert "rax" in text

    def test_default_is_top(self):
        live = SiteLiveness(address=BASE)
        assert not live.reg_is_dead(RAX)
        assert not live.flags_are_dead(ZF)
