"""A1/A2 matcher semantics (paper Section 6.1 / 6.3 definitions)."""

import pytest

from repro.frontend.match_expr import compile_matcher
from repro.x86.decoder import decode
from repro.x86.flow import is_heap_write, is_memory_write, is_patchable_jump
from tests.x86.test_decoder import VEX_LOADS, VEX_STORES


def d(hexstr: str):
    return decode(bytes.fromhex(hexstr.replace(" ", "")), 0, address=0x1000)


class TestA1Jumps:
    def test_direct_jumps_match(self):
        assert is_patchable_jump(d("eb 05"))
        assert is_patchable_jump(d("e9 00 01 00 00"))
        assert is_patchable_jump(d("74 02"))
        assert is_patchable_jump(d("0f 85 00 01 00 00"))

    def test_calls_and_rets_do_not_match(self):
        assert not is_patchable_jump(d("e8 00 01 00 00"))
        assert not is_patchable_jump(d("c3"))

    def test_indirect_jumps_do_not_match(self):
        assert not is_patchable_jump(d("ff e0"))
        assert not is_patchable_jump(d("ff 25 00 10 00 00"))

    def test_loops_do_not_match(self):
        assert not is_patchable_jump(d("e2 fe"))


class TestA2HeapWrites:
    def test_store_through_gpr_matches(self):
        assert is_heap_write(d("48 89 03"))  # mov [rbx], rax
        assert is_heap_write(d("89 07"))  # mov [rdi], eax
        assert is_heap_write(d("c6 03 01"))  # mov byte [rbx], 1
        assert is_heap_write(d("48 ff 03"))  # inc qword [rbx]
        assert is_heap_write(d("48 83 0b 01"))  # or qword [rbx], 1

    def test_store_through_rsp_excluded(self):
        assert not is_heap_write(d("48 89 04 24"))  # mov [rsp], rax
        assert not is_heap_write(d("48 89 44 24 08"))  # mov [rsp+8], rax
        assert is_memory_write(d("48 89 04 24"))  # ...but it is a store

    def test_rip_relative_store_excluded(self):
        raw = d("48 89 05 00 10 00 00")  # mov [rip+0x1000], rax
        assert not is_heap_write(raw)
        assert is_memory_write(raw)

    def test_store_through_rbp_included(self):
        # %rbp-based stores may alias the heap after optimization; the
        # paper only excludes %rsp and %rip.
        assert is_heap_write(d("48 89 45 00"))

    def test_loads_do_not_match(self):
        assert not is_heap_write(d("48 8b 03"))
        assert not is_heap_write(d("48 39 03"))  # cmp reads only
        assert not is_memory_write(d("c5 fa 7e 00"))  # vmovq (%rax),%xmm0

    @pytest.mark.parametrize("hexstr", VEX_STORES)
    def test_vex_stores_match(self, hexstr):
        for name in ("heap-writes", "mem-write"):
            assert compile_matcher(name)(d(hexstr)), name

    @pytest.mark.parametrize("hexstr", VEX_LOADS)
    def test_vex_loads_do_not_match(self, hexstr):
        for name in ("heap-writes", "mem-write"):
            assert not compile_matcher(name)(d(hexstr)), name

    def test_register_destination_excluded(self):
        assert not is_heap_write(d("48 89 d8"))  # mov rax, rbx

    def test_string_stores_match(self):
        assert is_heap_write(d("aa"))  # stosb
        assert is_heap_write(d("f3 48 ab"))  # rep stosq
        assert is_heap_write(d("a4"))  # movsb

    def test_movq_load_exception(self):
        # F3 0F 7E is movq xmm, m64 -- a load sharing opcode 7E with the
        # store forms.
        assert not is_heap_write(d("f3 0f 7e 03"))
        assert is_heap_write(d("66 0f 7e 03"))  # movd [rbx], xmm0 (store)

    def test_sse_store_matches(self):
        assert is_heap_write(d("0f 11 03"))  # movups [rbx], xmm0
        assert is_heap_write(d("66 0f 7f 03"))  # movdqa [rbx], xmm0

    def test_setcc_store(self):
        assert is_heap_write(d("0f 94 03"))  # sete [rbx]
        assert not is_heap_write(d("0f 94 c0"))  # sete al
