"""Extended CLI features: expression matchers, templates, JSON stats."""

import json

from repro.frontend.tool import main
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import Machine, run_elf

TEMPLATE = {
    "name": "counter",
    "params": ["counter"],
    "body": [
        {"op": "save_flags"},
        {"op": "save", "reg": "rax"},
        {"op": "load_imm", "reg": "rax", "value": "{counter}"},
        {"op": "inc_mem", "base": "rax"},
        {"op": "restore", "reg": "rax"},
        {"op": "restore_flags"},
    ],
}


def make_input(tmp_path, **kw):
    defaults = dict(n_jump_sites=12, n_write_sites=10, seed=42, loop_iters=1)
    defaults.update(kw)
    binary = synthesize(SynthesisParams(**defaults))
    path = tmp_path / "in.elf"
    path.write_bytes(binary.data)
    return path, binary


class TestExpressionMatcher:
    def test_expression_on_cli(self, tmp_path):
        src, _ = make_input(tmp_path)
        dst = tmp_path / "out.elf"
        rc = main([str(src), str(dst), "-M", "jcc and size == 2"])
        assert rc == 0
        orig = run_elf(src.read_bytes())
        assert run_elf(dst.read_bytes()).observable == orig.observable

    def test_named_matcher_still_works(self, tmp_path):
        src, _ = make_input(tmp_path)
        dst = tmp_path / "out.elf"
        assert main([str(src), str(dst), "-M", "heap-writes"]) == 0


class TestTemplateFlag:
    def test_template_with_alloc_arg(self, tmp_path, capsys):
        src, _ = make_input(tmp_path, loop_iters=3)
        dst = tmp_path / "out.elf"
        tpl = tmp_path / "tpl.json"
        tpl.write_text(json.dumps(TEMPLATE))
        rc = main([str(src), str(dst), "-M", "jumps",
                   "--template", str(tpl), "--template-arg", "counter=alloc"])
        assert rc == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("counter at"))
        counter_vaddr = int(line.split()[-1], 16)
        machine = Machine(dst.read_bytes())
        machine.run()
        assert machine.mem.read_u64(counter_vaddr) > 0

    def test_template_with_literal_arg(self, tmp_path):
        src, _ = make_input(tmp_path)
        dst = tmp_path / "out.elf"
        tpl = tmp_path / "tpl.json"
        tpl.write_text(json.dumps({"name": "nothing", "body": []}))
        assert main([str(src), str(dst), "--template", str(tpl)]) == 0


class TestStatsJson:
    def test_stats_file_written(self, tmp_path):
        src, _ = make_input(tmp_path)
        dst = tmp_path / "out.elf"
        stats_path = tmp_path / "stats.json"
        rc = main([str(src), str(dst), "-M", "jumps",
                   "--stats-json", str(stats_path)])
        assert rc == 0
        stats = json.loads(stats_path.read_text())
        assert stats["locs"] > 0
        assert stats["succ_pct"] == 100.0
        assert stats["mode"] == "loader"
        assert stats["failures"] == []
        parts = (stats["base_pct"] + stats["t1_pct"]
                 + stats["t2_pct"] + stats["t3_pct"])
        assert abs(parts - stats["succ_pct"]) < 0.01


class TestCliErrors:
    """Typed failures end in ``error: ...`` and exit 1, not a traceback."""

    def test_bad_match_expression(self, tmp_path, capsys):
        src, _ = make_input(tmp_path)
        rc = main([str(src), str(tmp_path / "out.elf"),
                   "-M", "mnemonic == "])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.elf").exists()

    def test_non_elf_input(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"not an ELF file" * 8)
        rc = main([str(src), str(tmp_path / "out.elf")])
        assert rc == 1
        assert "bad ELF magic" in capsys.readouterr().err
