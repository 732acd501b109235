"""Unit tests for the benchmark regression gate's comparison rules.

``compare_metric`` routes every metric by name suffix, and the ordering
is load-bearing: throughput rates like ``decode_mb_s`` end in ``_s``
too, so the rate rule must win or a throughput *improvement* would be
gated as a wall-time *regression*.  These tests pin the routing, each
rule's direction, and the missing-metric / ``--strict`` behaviour of
``main``.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_gate import compare_metric, main


def check(name, base, cur, *, threshold=0.25, min_delta=0.05):
    regressed, _ = compare_metric(name, base, cur, threshold, min_delta)
    return regressed


class TestRateMetrics:
    """``*_mb_s`` / ``*_sites_s`` / ``*_rps``: higher is better."""

    def test_mb_s_routes_before_wall_time_rule(self):
        # 2.0 -> 4.0 MB/s is a 2x *improvement*; the bare "_s" rule
        # would read it as a 2x slowdown.
        assert not check("decode_mb_s", 2.0, 4.0)

    def test_mb_s_drop_regresses(self):
        assert check("decode_mb_s", 4.0, 2.0)

    def test_sites_s_drop_regresses(self):
        assert check("plan_sites_s", 1000.0, 500.0)

    def test_rps_drop_regresses(self):
        assert check("serial_rps", 100.0, 50.0)

    def test_rps_within_threshold_passes(self):
        assert not check("serial_rps", 100.0, 85.0)


class TestWallTimeMetrics:
    def test_slowdown_past_threshold_regresses(self):
        assert check("rewrite_s", 1.0, 1.5)

    def test_slowdown_within_threshold_passes(self):
        assert not check("rewrite_s", 1.0, 1.2)

    def test_min_delta_noise_floor(self):
        # 3x relative slowdown, but only 20ms absolute: below the floor.
        assert not check("tiny_pass_s", 0.01, 0.03)

    def test_speedup_drop_regresses(self):
        assert check("warm_speedup", 4.0, 2.0)


class TestCounterMetrics:
    def test_visits_growth_regresses(self):
        assert check("alloc_visits", 100, 200)

    def test_visits_reduction_passes(self):
        assert not check("alloc_visits", 200, 100)

    def test_loc_growth_regresses(self):
        assert check("src.loc", 18000, 23000)

    def test_loc_shrink_passes(self):
        assert not check("src.loc", 19199, 18551)

    def test_runs_any_growth_regresses(self):
        assert check("warm_decode_runs", 0, 1)

    def test_pct_shrink_regresses(self):
        assert check("succ_pct", 99.0, 97.0)

    def test_pct_growth_passes(self):
        assert not check("succ_pct", 97.0, 99.0)

    def test_pct_within_band_passes(self):
        assert not check("succ_pct", 99.0, 98.8)

    def test_unknown_metric_is_informational(self):
        assert not check("n_sites", 100, 999)


def write_bench(path, metrics):
    path.write_text(json.dumps({"schema": "repro-bench/1", "metrics": metrics}))


class TestMissingMetricGate:
    """A metric present only in the baseline must warn distinctly and
    fail under ``--strict`` — otherwise a cell's measurement can vanish
    without the gate ever noticing."""

    @pytest.fixture
    def pair(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_bench(base, {"a_s": 1.0, "gone_mb_s": 5.0})
        write_bench(cur, {"a_s": 1.0, "brand_new_s": 0.1})
        return base, cur

    def test_warns_but_passes_by_default(self, pair, capsys):
        base, cur = pair
        assert main(["--baseline", str(base), "--current", str(cur)]) == 0
        out = capsys.readouterr()
        assert "missing-metric" in out.out
        assert "gone_mb_s" in out.err

    def test_strict_fails(self, pair):
        base, cur = pair
        assert main(["--baseline", str(base), "--current", str(cur),
                     "--strict"]) == 1

    def test_new_metric_never_fails_even_strict(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_bench(base, {"a_s": 1.0})
        write_bench(cur, {"a_s": 1.0, "brand_new_s": 9.9})
        assert main(["--baseline", str(base), "--current", str(cur),
                     "--strict"]) == 0

    def test_regression_still_fails_without_strict(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_bench(base, {"a_s": 1.0, "gone_mb_s": 5.0})
        write_bench(cur, {"a_s": 2.0})
        assert main(["--baseline", str(base), "--current", str(cur)]) == 1
