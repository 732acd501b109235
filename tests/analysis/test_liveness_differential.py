"""The column liveness solver against the dict-based reference solver.

:class:`~repro.analysis.liveness.LivenessAnalysis` builds its effect
columns from one ``facts_for`` per instruction *shape* on a numpy-backed
stream, and from one ``facts_for`` per instruction on anything else.
Both must give exactly the reference's ``(live_regs, live_flags)`` at
every instruction, and ⊤ between instruction starts, on real-shaped
text, on every opcode row, on byte soups and on hand-built control
flow.  Each corpus runs on a numpy stream, a stdlib-backed stream and a
plain list.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

import pytest

from repro.analysis.facts import ALL_FLAGS, ALL_REGS
from repro.analysis.liveness import LivenessAnalysis
from repro.core.pipeline import RewriteOptions
from repro.elf.reader import ElfFile
from repro.errors import DecodeError
from repro.frontend.tool import prepare_binary, rewrite_many
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import ALL_PROFILES, CONFORMANCE_PROFILES
from repro.x86.decoder import decode, decode_buffer
from repro.x86.fastscan import HAVE_NUMPY, SB_VALID, InstructionStream, decode_stream
from tests.analysis.reference_liveness import reference_live
from tests.x86 import test_opcode_rows
from tests.x86.test_fastscan import CORPORA

BASE = 0x401000
KINDS = ("numpy", "stdlib", "list")
TABLE1 = ALL_PROFILES + CONFORMANCE_PROFILES


def stdlib_stream(data: bytes, address: int) -> InstructionStream:
    """The stream a numpy-less host decodes: stdlib start offsets and
    candidate bits (only SB_VALID matters to liveness)."""
    insns = decode_buffer(data, address)
    starts = array("i", [insn.address - address for insn in insns])
    bits = bytes(0 if insn.mnemonic == "(bad)" else SB_VALID for insn in insns)
    return InstructionStream(data, address, starts, bits)


def sequence(kind: str, data: bytes, address: int):
    if kind == "numpy":
        if not HAVE_NUMPY:
            pytest.skip("the shape-keyed columns need numpy")
        return decode_stream(data, address)
    if kind == "stdlib":
        return stdlib_stream(data, address)
    return decode_buffer(data, address)


@lru_cache(maxsize=1)  # each corpus runs its three kinds back to back
def decoded(data: bytes, address: int) -> tuple[list, dict]:
    """The instructions of *data* and the reference's masks at each."""
    insns = decode_buffer(data, address)
    return insns, reference_live(insns)


def assert_matches_reference(kind: str, data: bytes, address: int = BASE) -> None:
    """Every instruction start gets the reference's masks, and the byte
    after each start of a longer instruction gets ⊤."""
    insns, ref = decoded(data, address)
    analysis = LivenessAnalysis(sequence(kind, data, address))
    bad = []
    for insn in insns:
        site = analysis.at(insn.address)
        if (site.live_regs, site.live_flags) != ref[insn.address]:
            bad.append(insn)
        if insn.length > 1:
            inside = analysis.at(insn.address + 1)
            if (inside.live_regs, inside.live_flags) != (ALL_REGS, ALL_FLAGS):
                bad.append(insn)
    assert not bad, f"{len(bad)} of {len(insns)} differ, first {bad[0]}"


# --- corpora -----------------------------------------------------------------


@lru_cache(maxsize=1)
def table1_text(name: str) -> tuple[bytes, int]:
    """The ``.text`` bytes and address of one Table 1 stand-in."""
    profile = next(p for p in TABLE1 if p.name == name)
    elf = ElfFile(synthesize(SynthesisParams.from_profile(profile)).data)
    return bytes(elf.section_view(".text")), elf.section(".text").vaddr


@lru_cache(maxsize=1)
def opcode_rows_text() -> bytes:
    """Every decodable encoding of the opcode-row enumeration, back to
    back: each opcode, map, prefix head, ModRM form and VEX/EVEX lead."""
    parts = []
    for data in test_opcode_rows.encodings():
        try:
            parts.append(data[: decode(data).length])
        except DecodeError:
            continue
    return b"".join(parts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", [p.name for p in TABLE1])
def test_table1_stand_ins(kind, name):
    assert {"libsynth.so", "libsynth-cet.so"} <= {p.name for p in TABLE1}
    text, vaddr = table1_text(name)
    assert_matches_reference(kind, text, vaddr)


@pytest.mark.parametrize("kind", KINDS)
def test_opcode_rows_enumeration(kind):
    text = opcode_rows_text()
    assert_matches_reference(kind, text, BASE)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["random", "prefix-heavy", "vex-heavy", "vex-stores"])
def test_byte_soups(kind, name):
    data = CORPORA[name]
    assert_matches_reference(kind, data, BASE)


# --- hand-built control flow ---------------------------------------------------

CASES = {
    # je to itself between a kill and a ret.
    "jcc-to-itself": "48 31 c0  74 fe  c3",
    # inc rcx; xor eax,eax; jmp back to the inc.
    "backward-jmp-loop": "48 ff c1  31 c0  eb f9  c3",
    # jmp +1 lands inside the mov (not an instruction start: ⊤).
    "jmp-into-an-instruction": "eb 01  48 c7 c0 01 00 00 00  c3",
    # jne far out of the region, then a fall-through kill.
    "jcc-out-of-the-region": "75 7f  31 c0  c3",
    "jmp-out-of-the-region": "31 db  e9 00 10 00 00",
    # The last instruction falls off the region.
    "last-instruction": "48 31 c0  48 89 c3",
    # (bad) bytes (06 and 27 are invalid in 64-bit mode) inside a chain.
    "bad-bytes": "31 c0  06  31 db  27  c3",
    # jmp rel16 over mov eax, 1 to mov ecx, 1.
    "66-e9-rel16": "66 e9 05 00  b8 01 00 00 00  b9 01 00 00 00  c3",
    "jrcxz-and-loop": "e3 02  31 c0  48 ff c9  e2 f9  c3",
    # ff /0 is inc, but FF is flow GROUP5: its live-out is ⊤.
    "ff-0-is-top": "31 c0  48 ff c0  31 db  c3",
    "prefixed-endbr64": "66 f3 0f 1e fa  f3 48 0f 1e fa  31 c0  c3",
    # vzeroupper and a VEX load inside a kill chain.
    "vex-in-a-chain": "31 c0  c5 f8 77  c5 fa 7e 00  31 db  c3",
    # A backward jcc into the middle of a prefixed instruction.
    "jcc-into-prefixes": "66 66 90  75 fc  c3",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_built(kind, name):
    data = bytes.fromhex(CASES[name].replace(" ", ""))
    assert_matches_reference(kind, data)


class TestHandBuiltSemantics:
    """What the reference itself says on a few of the cases."""

    def at(self, name: str, offset: int):
        data = bytes.fromhex(CASES[name].replace(" ", ""))
        kind = "numpy" if HAVE_NUMPY else "list"
        return LivenessAnalysis(sequence(kind, data, BASE)).at(BASE + offset)

    def test_jump_into_an_instruction_is_top(self):
        site = self.at("jmp-into-an-instruction", 0)
        assert (site.live_regs, site.live_flags) == (ALL_REGS, ALL_FLAGS)

    def test_rel16_target_is_followed(self):
        # 66 e9 05 00 skips the rax kill and reaches the rcx kill.
        assert self.at("66-e9-rel16", 0).reg_is_dead(1)
        assert not self.at("66-e9-rel16", 0).reg_is_dead(0)

    def test_group5_live_out_is_top(self):
        # xor eax, eax kills rax only if nothing after it reads rax; the
        # inc's ⊤ live-out keeps everything else live.
        site = self.at("ff-0-is-top", 2)
        assert site.live_regs == ALL_REGS

    def test_vex_reads_everything(self):
        assert self.at("vex-in-a-chain", 2).live_regs == ALL_REGS

    def test_non_start_is_top(self):
        site = self.at("vex-in-a-chain", 3)
        assert (site.live_regs, site.live_flags) == (ALL_REGS, ALL_FLAGS)

    def test_answers_are_cached_per_address(self):
        data = bytes.fromhex(CASES["last-instruction"].replace(" ", ""))
        analysis = LivenessAnalysis(decode_buffer(data, BASE))
        assert analysis.at(BASE) is analysis.at(BASE)


def test_overlapping_list():
    """A list whose jcc falls through to an instruction other than the
    next one in the list (overlapping decodes) joins the right two."""
    data = bytes.fromhex("74 03 90 90 90 31 c0 c3".replace(" ", ""))
    insns = decode_buffer(data, BASE)
    shifted = decode_buffer(data[1:], BASE + 1)[:1]  # 03 90 ...: overlaps
    mixed = sorted(insns + shifted, key=lambda i: i.address)
    ref = reference_live(mixed)
    analysis = LivenessAnalysis(mixed)
    for insn in mixed:
        site = analysis.at(insn.address)
        assert (site.live_regs, site.live_flags) == ref[insn.address]


def test_empty_inputs_are_top():
    for seq in ([], stdlib_stream(b"", BASE)):
        site = LivenessAnalysis(seq).at(BASE)
        assert (site.live_regs, site.live_flags) == (ALL_REGS, ALL_FLAGS)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy streams only")
def test_slim_rewrite_materializes_few_instructions():
    """A liveness-slimmed counter rewrite decodes one representative per
    instruction shape, not every instruction of the stream."""
    data = synthesize(SynthesisParams(n_jump_sites=400, n_write_sites=200, seed=11)).data
    ctx = prepare_binary(data)
    stream = ctx.instructions
    assert isinstance(stream, InstructionStream) and not stream._cache
    report = rewrite_many(
        ctx,
        [RewriteOptions(mode="loader", liveness=True)],
        matcher="jumps",
        instrumentation="counter",
    )[0]
    assert report.counters["plan.trampoline_saved_bytes"] > 0
    assert len(stream._cache) < len(stream) / 4
