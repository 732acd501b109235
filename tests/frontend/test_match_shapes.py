"""Match expressions at shape speed.

``InstructionStream.select`` asks a compiled expression's three-valued
verdict once per instruction shape and runs the exact predicate only
where the verdict is unknown.  These tests pin the three properties
that makes exact:

* the differential: ``select`` returns the brute-force filter's list,
  the same objects in the same order, for every bareword, register test
  and shape-determined comparison, and for random ``and``/``or``/``not``
  trees that mix in the positional fields ``size``/``addr``/``target``,
  on a numpy stream, a stdlib stream and a plain list;
* shape invariance: within a shape key (VEX/EVEX keys aside) every leaf
  a verdict answers for has one value across all starts of the key;
* the cost: a shape-decidable expression materializes only one
  representative per shape plus the sites it keeps.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.facts import facts_for
from repro.elf.reader import ElfFile
from repro.frontend.match_expr import (
    _BAREWORDS,
    _REG_PREDICATES,
    compile_matcher,
    parse,
)
from repro.frontend.matchers import select_sites
from repro.synth.generator import SynthesisParams, synthesize
from repro.x86 import fastscan as fs
from repro.x86.decoder import decode_buffer
from repro.x86.insn import REG_NAMES_64
from tests.x86.test_decoder import GROUP_LOADS, GROUP_STORES, VEX_STORES
from tests.x86.test_fastscan import CORPORA

requires_numpy = pytest.mark.skipif(
    not fs.HAVE_NUMPY, reason="per-shape matching needs numpy")

BASE = 0x400000

#: Encodings whose fields hinge on bytes next to the opcode: REX.B makes
#: 90 xchg, F3 makes pause and the F3 0F 7E load, prefixed endbr64, the
#: 67 prefix shrinks a moffs immediate (same shape key as without it),
#: the legacy group stores and loads, and a VEX store.
HAND_PLACED = (
    "90", "41 90", "f3 90", "f3 41 90", "48 90",
    "f3 0f 7e 03", "66 0f 7e 03", "0f 7e 03",
    "f3 0f 1e fa", "66 f3 0f 1e fa", "f3 48 0f 1e fa", "f3 0f 1e fb",
    "67 a3 44 33 22 11", "a3 88 77 66 55 44 33 22 11",
    "67 a2 44 33 22 11", "48 a3 88 77 66 55 44 33 22 11",
    "aa", "f3 aa", "f3 48 a5",
    *GROUP_STORES, *GROUP_LOADS,
    "c5 f9 7e 00", "c4 e1 f9 7e 00", VEX_STORES[2],
    "74 10", "0f 84 00 01 00 00", "e8 00 00 00 00", "ff d0", "ff 20",
    "c3", "e3 fe", "48 89 03", "48 89 04 24", "48 89 05 00 10 00 00",
)


def _synth_text(seed: int, **params) -> bytes:
    binary = synthesize(SynthesisParams(seed=seed, **params))
    return bytes(ElfFile(binary.data).section_view(".text"))


#: The fastscan corpora, the hand-placed encodings and two synthesized
#: text sections (CET landing pads; a PIE).
SHAPE_CORPORA = dict(CORPORA)
SHAPE_CORPORA["hand-placed"] = b"".join(
    bytes.fromhex(h) for h in HAND_PLACED * 3)
SHAPE_CORPORA["synth-cet"] = _synth_text(7, n_jump_sites=120,
                                         n_write_sites=80, cet=True)
SHAPE_CORPORA["synth-pie"] = _synth_text(8, n_jump_sites=80,
                                         n_write_sites=160, pie=True)

#: The differential filters each corpus once per expression three
#: times; it runs on the last 4 KB of each corpus (the truncated tail
#: included) to keep that affordable.  Shape invariance, which decides
#: whether the differential can pass at all, runs on the whole corpora.
TAIL = 4096

_REG_TESTS = [f"{pred} {reg}" for pred in _REG_PREDICATES
              for reg in REG_NAMES_64]
_COMPARISONS = [
    'mnemonic == "nop"', 'mnemonic == "pause"', 'mnemonic != "xchg"',
    'mnemonic == "movq"', 'mnemonic =~ /j.*/', 'mnemonic =~ /grp.*/',
    "opcode == 0x90", "opcode != 0x7e", "opcode =~ /1[0-9]+/",
    "opcode < 0x40", "mem-width == 8", "mem-width != 4",
    "mem-width =~ /[12]/", "mem-width >= 4",
]
#: Every bareword, every register test on all 16 registers, and
#: comparisons on the shape-determined fields with ==, != and =~.
SHAPE_EXPRESSIONS = sorted(_BAREWORDS) + _REG_TESTS + _COMPARISONS
_POSITIONAL = [
    "size >= 5", "size == 2", "size < 4", "addr < 0x401000",
    "addr >= 0x400800", "target != 0", "target > 0x400100",
]


def stdlib_stream(data: bytes, address: int):
    """A stream backed by ``array('i')``, as on a host without numpy."""
    saved, fs.HAVE_NUMPY = fs.HAVE_NUMPY, False
    try:
        return fs.decode_stream(data, address)
    finally:
        fs.HAVE_NUMPY = saved


class _Corpus:
    """One corpus as a numpy stream, a stdlib stream and a list."""

    def __init__(self, data: bytes) -> None:
        self.insns = decode_buffer(data, BASE)
        self.streams = [stdlib_stream(data, BASE)]
        if fs.HAVE_NUMPY:
            self.streams.append(fs.decode_stream(data, BASE))

    def check(self, source: str) -> None:
        """Each route's selection is the brute-force filter's."""
        matcher = compile_matcher(source)
        ref = parse(source).evaluate
        keep = [k for k, insn in enumerate(self.insns) if ref(insn)]
        assert select_sites(self.insns, matcher) == [self.insns[k] for k in keep]
        for stream in self.streams:
            want = [stream[k] for k in keep]
            got = stream.select(matcher)
            assert len(got) == len(want), source
            assert all(a is b for a, b in zip(got, want)), source


_CACHE: dict[str, _Corpus] = {}


def corpus(name: str) -> _Corpus:
    if name not in _CACHE:
        _CACHE[name] = _Corpus(SHAPE_CORPORA[name][-TAIL:])
    return _CACHE[name]


@pytest.mark.parametrize("name", sorted(SHAPE_CORPORA))
def test_select_equals_brute_force(name):
    c = corpus(name)
    for source in SHAPE_EXPRESSIONS + _POSITIONAL:
        c.check(source)


# -- random expression trees ---------------------------------------------------

_LEAVES = st.sampled_from(SHAPE_EXPRESSIONS + _POSITIONAL)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda a, b: f"({a}) and ({b})", sub, sub),
            st.builds(lambda a, b: f"({a}) or ({b})", sub, sub),
            st.builds(lambda a: f"not ({a})", sub),
        ),
        max_leaves=6,
    )


@settings(max_examples=40, deadline=None)
@given(source=_trees(_LEAVES))
def test_random_trees_equal_brute_force(source):
    for name in ("hand-placed", "real-text", "prefix-heavy", "vex-heavy"):
        corpus(name).check(source)


# -- verdicts ------------------------------------------------------------------

class TestVerdict:
    INSN = decode_buffer(bytes.fromhex("74 10"), BASE)[0]  # je

    @pytest.mark.parametrize("source, expected", [
        ("jcc", True),
        ("ret", False),
        ("size == 2", None),
        ("jcc and size == 2", None),
        ("ret and size == 2", False),
        ("jcc or size == 2", True),
        ("ret or size == 2", None),
        ("not size == 2", None),
        ("not ret", True),
        ("target == 0x400012 or not (jcc or addr > 0)", None),
    ])
    def test_kleene(self, source, expected):
        assert compile_matcher(source).verdict(self.INSN) is expected

    def test_plain_callable_is_unknown_everywhere(self):
        if not fs.HAVE_NUMPY:
            pytest.skip("per-shape matching needs numpy")
        stream = fs.decode_stream(CORPORA["real-text"], BASE)
        picked = stream.select(lambda i: i.mnemonic == "nop")
        assert picked == [i for i in stream if i.mnemonic == "nop"]


# -- shape invariance ----------------------------------------------------------

def _leaves(insn) -> tuple:
    """Every value a verdict reads off a representative: the barewords,
    the facts (register tests and ``mem-width``), ``mnemonic`` and
    ``opcode``."""
    barewords = tuple(_BAREWORDS[name](insn) for name in sorted(_BAREWORDS))
    return barewords + (facts_for(insn), insn.mnemonic, insn.opcode)


@requires_numpy
@pytest.mark.parametrize("name", sorted(SHAPE_CORPORA))
def test_leaves_are_shape_invariant(name):
    stream = fs.decode_stream(SHAPE_CORPORA[name], BASE)
    if not len(stream):
        return
    seen: dict[int, tuple] = {}
    for k, key in enumerate(stream.shape_keys().tolist()):
        if key == fs._VEX_KEY:
            continue
        leaves = _leaves(stream[k])
        first = seen.setdefault(key, leaves)
        assert leaves == first, (name, hex(key), str(stream[k]))


# -- cost ------------------------------------------------------------------------

@requires_numpy
def test_decided_shapes_are_not_materialized():
    """``jcc`` decides every non-VEX shape: only one representative per
    shape and the kept sites are materialized (the brute-force filter
    materialized all of them)."""
    stream = fs.decode_stream(CORPORA["real-text"], BASE)
    sites = stream.select(compile_matcher("jcc"))
    assert sites
    assert len(stream._cache) <= len(stream) // 5
