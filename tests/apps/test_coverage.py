"""Coverage-map instrumentation (the fuzzing application)."""


from repro.apps.coverage import CoverageInstrumenter
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf
from tests.conftest import requires_native


def workload(**kw):
    defaults = dict(n_jump_sites=25, n_write_sites=10, seed=4040,
                    loop_iters=2)
    defaults.update(kw)
    return synthesize(SynthesisParams(**defaults))


class TestCoverage:
    def test_behaviour_preserved(self):
        binary = workload()
        orig = run_elf(binary.data)
        instrumented = CoverageInstrumenter().instrument(binary.data)
        report = instrumented.run_with_coverage()
        assert report.run.observable == orig.observable

    def test_pie_counts_are_load_base_invariant(self):
        binary = synthesize(SynthesisParams(n_jump_sites=20, seed=5,
                                            pie=True))
        instrumented = CoverageInstrumenter().instrument(binary.data)
        at_zero = instrumented.run_with_coverage().counts
        moved = instrumented.run_with_coverage(load_base=0x555555554000)
        assert moved.counts == at_zero
        assert moved.covered_sites == moved.total_sites > 0

    def test_each_site_has_distinct_slot(self):
        binary = workload()
        instrumented = CoverageInstrumenter().instrument(binary.data)
        slots = list(instrumented.slots.values())
        assert len(slots) == len(set(slots))
        assert all(s >= instrumented.map_vaddr for s in slots)

    def test_counts_reflect_execution(self):
        binary = workload(loop_iters=4)
        instrumented = CoverageInstrumenter().instrument(binary.data)
        report = instrumented.run_with_coverage()
        assert report.total_sites > 20
        assert report.covered_sites > 0
        # The main loop branch runs once per iteration.
        assert max(report.counts.values()) >= 4

    def test_uncovered_sites_reported(self):
        binary = workload()
        instrumented = CoverageInstrumenter().instrument(binary.data)
        report = instrumented.run_with_coverage()
        # jcc both-ways + skipped blocks: typically some sites never fire;
        # covered + uncovered must partition the map.
        assert report.covered_sites + len(report.uncovered()) == report.total_sites
        assert 0.0 < report.coverage_pct <= 100.0

    def test_diff_finds_new_coverage(self):
        binary = workload()
        instrumented = CoverageInstrumenter().instrument(binary.data)
        once = instrumented.run_with_coverage()
        again = instrumented.run_with_coverage()
        assert again.diff(once) == []  # deterministic workload
        assert once.covered_sites == again.covered_sites

    def test_hottest(self):
        binary = workload(loop_iters=6)
        instrumented = CoverageInstrumenter().instrument(binary.data)
        report = instrumented.run_with_coverage()
        top = report.hottest(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    @requires_native
    def test_instrumented_binary_runs_natively(self, run_native):
        binary = workload()
        code0, out0 = run_native(binary.data)
        instrumented = CoverageInstrumenter().instrument(binary.data)
        code1, out1 = run_native(instrumented.data)
        assert (code1, out1) == (code0, out0)

    def test_custom_matcher(self):
        binary = workload()
        from repro.frontend.match_expr import compile_matcher

        instrumenter = CoverageInstrumenter(
            matcher=compile_matcher("call"))
        instrumented = instrumenter.instrument(binary.data)
        report = instrumented.run_with_coverage()
        assert report.total_sites >= 1
        assert report.coverage_pct == 100.0  # all calls execute
