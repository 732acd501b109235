"""The e9dump inspection CLI."""

import pytest

from repro.frontend.dump import dump_lines, main, summarize
from repro.frontend.matchers import resolve_matcher
from repro.synth.generator import SynthesisParams, synthesize
from tests.conftest import requires_gcc


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    binary = synthesize(SynthesisParams(n_jump_sites=15, n_write_sites=10,
                                        seed=2468))
    path = tmp_path_factory.mktemp("dump") / "in.elf"
    path.write_bytes(binary.data)
    return path, binary


class TestDump:
    def test_listing(self, sample):
        path, binary = sample
        lines = dump_lines(path.read_bytes(), limit=20)
        assert len(lines) == 20
        assert all(":" in ln for ln in lines)

    def test_matcher_annotation(self, sample):
        path, binary = sample
        lines = dump_lines(path.read_bytes(),
                           matcher=resolve_matcher("jumps"))
        marked = [ln for ln in lines if ln.startswith("  *")]
        assert len(marked) >= 15

    def test_expression_matcher(self, sample):
        path, _ = sample
        lines = dump_lines(path.read_bytes(),
                           matcher=resolve_matcher('mnemonic == "call"'))
        assert any(ln.startswith("  *") for ln in lines)

    def test_summary(self, sample):
        path, binary = sample
        lines = summarize(path.read_bytes(), resolve_matcher("jumps"))
        text = "\n".join(lines)
        assert "matched sites:" in text
        assert "punning-constrained" in text

    def test_cli(self, sample, capsys):
        path, _ = sample
        assert main([str(path), "-M", "jumps", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "matched sites" in out

    def test_cli_listing_limit(self, sample, capsys):
        path, _ = sample
        assert main([str(path), "-n", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    @requires_gcc
    def test_function_mode(self, compiled_corpus, capsys):
        path = next(iter(compiled_corpus.values()))
        assert main([str(path), "-F", "fib"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines(), "function listing must be non-empty"
