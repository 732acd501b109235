"""Structural invariants of the opcode metadata tables."""

from repro.x86 import tables
from repro.x86.tables import Flow, Imm


class TestOneByteMap:
    def test_alu_block_structure(self):
        """The eight classic ALU blocks share the canonical layout."""
        for base in (0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38):
            for off in (0, 1, 2, 3):
                assert tables.ONE_BYTE[base + off].modrm, hex(base + off)
            assert tables.ONE_BYTE[base + 4].imm == Imm.IB
            assert tables.ONE_BYTE[base + 5].imm == Imm.IZ
            # +6/+7 are invalid in 64-bit (or absent for 0x3E/0x3F area).

    def test_cmp_never_writes(self):
        for op in (0x38, 0x39, 0x3A, 0x3B, 0x3C, 0x3D):
            assert not tables.ONE_BYTE[op].effects.rm_w

    def test_jcc_range(self):
        for op in range(0x70, 0x80):
            spec = tables.ONE_BYTE[op]
            assert spec.flow == Flow.JCC
            assert spec.imm == Imm.REL8

    def test_direct_branches_have_flow(self):
        assert tables.ONE_BYTE[0xE8].flow == Flow.CALL
        assert tables.ONE_BYTE[0xE9].flow == Flow.JMP
        assert tables.ONE_BYTE[0xEB].flow == Flow.JMP
        for op in range(0xE0, 0xE4):
            assert tables.ONE_BYTE[op].flow == Flow.LOOP

    def test_invalid64_set(self):
        from repro.x86.tables import F_INVALID64

        invalid = {op for op, spec in tables.ONE_BYTE.items()
                   if spec.flags & F_INVALID64}
        assert invalid == {0x06, 0x07, 0x0E, 0x16, 0x17, 0x1E, 0x1F,
                           0x27, 0x2F, 0x37, 0x3F, 0x60, 0x61, 0x82,
                           0x9A, 0xCE, 0xD4, 0xD5, 0xD6, 0xEA}

    def test_prefix_bytes_not_in_map(self):
        """Prefixes are consumed before opcode dispatch; the map must not
        shadow them."""
        for byte in (0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67,
                     0xF0, 0xF2, 0xF3):
            assert byte not in tables.ONE_BYTE
        for byte in range(0x40, 0x50):  # REX
            assert byte not in tables.ONE_BYTE
        for byte in (0x62, 0xC4, 0xC5):  # EVEX/VEX
            assert byte not in tables.ONE_BYTE

    def test_every_group_write_opcode_has_entry(self):
        """A group row's mnemonic or effects is indexed by ModRM.reg, so
        it must have a ModRM byte and one entry per ModRM.reg value."""
        for table in (tables.ONE_BYTE, tables.TWO_BYTE):
            for op, spec in table.items():
                for field in (spec.mnemonic, spec.effects):
                    if isinstance(field, tuple):
                        assert spec.modrm and len(field) == 8, hex(op)

    def test_group_writes_reference_real_groups(self):
        """The opcodes whose r/m write depends on ModRM.reg, and the
        ModRM.reg values that write."""
        found = {}
        for key, table in ((0, tables.ONE_BYTE), (0x0F00, tables.TWO_BYTE)):
            for op, spec in table.items():
                if isinstance(spec.effects, tuple):
                    writes = {r for r, e in enumerate(spec.effects) if e.rm_w}
                    if 0 < len(writes) < 8:
                        found[key | op] = writes
        assert found == {
            0x80: {0, 1, 2, 3, 4, 5, 6}, 0x81: {0, 1, 2, 3, 4, 5, 6},
            0x83: {0, 1, 2, 3, 4, 5, 6},  # /7 is cmp
            0xF6: {2, 3}, 0xF7: {2, 3},  # not, neg
            0xFE: {0, 1}, 0xFF: {0, 1},  # inc, dec
            0xD9: {2, 3, 6, 7}, 0xDB: {1, 2, 3, 7},  # x87 stores
            0xDD: {1, 2, 3, 6, 7}, 0xDF: {1, 2, 3, 6, 7},
            0x0FBA: {5, 6, 7},  # bts/btr/btc imm forms
            0x0FAE: {0, 3, 4, 6},  # fxsave, stmxcsr, xsave, xsaveopt
            0x0FC7: {1, 4, 5, 7},  # cmpxchg8b/16b, xsavec, xsaves, vmptrst
        }

    def test_operand_effects_need_modrm(self):
        """An effect template that reads or writes a ModRM operand sits
        on a row with a ModRM byte."""
        for table in (tables.ONE_BYTE, tables.TWO_BYTE):
            for op, spec in table.items():
                effects = spec.effects
                for e in effects if isinstance(effects, tuple) else (effects,):
                    if e.known and (e.rm_r or e.rm_w or e.reg_r or e.reg_w):
                        assert spec.modrm, hex(op)

    def test_rex_b_rows_keep_layout(self):
        """REX.B swaps 90's name and effects, never its length (the
        vectorized scan reads the plain one-byte rows only)."""
        for op, row in tables.REX_B_ROWS.items():
            plain = tables.ONE_BYTE[op]
            assert (row.modrm, row.imm, row.flow, row.flags) == (
                plain.modrm, plain.imm, plain.flow, plain.flags)
        assert tables.REX_B_ROWS[0x90].mnemonic == "xchg"


class TestTwoByteMap:
    def test_jcc32_range(self):
        for op in range(0x80, 0x90):
            spec = tables.two_byte_spec(op)
            assert spec.flow == Flow.JCC
            assert spec.imm == Imm.REL32

    def test_setcc_range_writes(self):
        for op in range(0x90, 0xA0):
            spec = tables.two_byte_spec(op)
            assert spec.modrm
            assert spec.effects.rm_w

    def test_default_spec_for_unlisted(self):
        spec = tables.two_byte_spec(0x51)  # sqrtps: generic SSE
        assert spec.modrm and spec.imm == Imm.NONE

    def test_syscall(self):
        assert tables.two_byte_spec(0x05).flow == Flow.SYSCALL


class TestVexImm:
    def test_map3_always_imm8(self):
        for op in (0x00, 0x0F, 0x44, 0xDF):
            assert tables.vex_imm_kind(3, op) == Imm.IB

    def test_map1_follows_legacy(self):
        assert tables.vex_imm_kind(1, 0x70) == Imm.IB  # pshufd
        assert tables.vex_imm_kind(1, 0x58) == Imm.NONE  # addps
        assert tables.vex_imm_kind(1, 0xC2) == Imm.IB  # cmpps

    def test_map2_no_imm(self):
        assert tables.vex_imm_kind(2, 0x40) == Imm.NONE
