"""Batch rewrites: artifact-store round trips, per-run counters, CLI."""

import json

from repro.core.cache import ArtifactStore
from repro.core.observe import Observer
from repro.core.rewriter import RewriteOptions
from repro.frontend.tool import main, prepare_binary, rewrite_many
from repro.synth.generator import SynthesisParams, synthesize

N_SITES = 150


def make_binary(seed=7):
    return synthesize(SynthesisParams(
        n_jump_sites=N_SITES, n_write_sites=N_SITES // 2, seed=seed)).data


class TestCacheRoundTrip:
    def test_warm_run_does_zero_decode_work(self, tmp_path):
        data = make_binary()
        cold_cache = ArtifactStore(tmp_path)
        cold_obs = Observer()
        cold = rewrite_many(data, [RewriteOptions(mode="loader")],
                            matcher="jumps", observer=cold_obs,
                            cache=cold_cache)
        assert cold_obs.runs("decode") == 1
        assert cold_cache.stats.stores >= 2  # decode + match artifacts

        warm_cache = ArtifactStore(tmp_path)
        warm_obs = Observer()
        warm = rewrite_many(data, [RewriteOptions(mode="loader")],
                            matcher="jumps", observer=warm_obs,
                            cache=warm_cache)
        assert warm_obs.runs("decode") == 0
        assert warm_obs.runs("match") == 0
        assert warm_cache.stats.hits >= 2
        assert warm[0].result.data == cold[0].result.data
        assert warm[0].counters.get("cache.decode.hits") == 1

    def test_corrupted_entries_are_ignored_not_fatal(self, tmp_path):
        data = make_binary()
        reference = rewrite_many(data, [RewriteOptions(mode="loader")],
                                 matcher="jumps")[0]
        cache = ArtifactStore(tmp_path)
        rewrite_many(data, [RewriteOptions(mode="loader")],
                     matcher="jumps", cache=cache)
        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"\x80garbage")

        retry_cache = ArtifactStore(tmp_path)
        report = rewrite_many(data, [RewriteOptions(mode="loader")],
                              matcher="jumps", cache=retry_cache)[0]
        assert report.result.data == reference.result.data
        assert retry_cache.stats.errors >= 1

    def test_stale_schema_entry_is_a_miss(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_mod

        data = make_binary()
        cache = ArtifactStore(tmp_path)
        rewrite_many(data, [RewriteOptions(mode="loader")],
                     matcher="jumps", cache=cache)

        # A decoder/schema change produces a different fingerprint: the
        # old entries simply never match, no manual invalidation needed.
        monkeypatch.setattr(cache_mod, "compute_toolchain_fingerprint",
                            lambda: "0" * 64)
        stale_obs = Observer()
        rewrite_many(data, [RewriteOptions(mode="loader")],
                     matcher="jumps", observer=stale_obs,
                     cache=ArtifactStore(tmp_path))
        assert stale_obs.runs("decode") == 1  # re-decoded from scratch

    def test_prepare_binary_cache_hit(self, tmp_path):
        data = make_binary()
        cache = ArtifactStore(tmp_path)
        cold = prepare_binary(data, cache=cache)

        obs = Observer()
        warm = prepare_binary(data, observer=obs, cache=ArtifactStore(tmp_path))
        assert obs.runs("decode") == 0
        assert len(warm.instructions) == len(cold.instructions)


class TestPerRunCounters:
    def test_identical_configs_report_identical_work(self):
        """Regression: per-config counters must be per-run deltas, not
        the batch's cumulative totals."""
        data = make_binary()
        options = RewriteOptions(mode="loader")
        first, second = rewrite_many(
            data, [options, RewriteOptions(mode="loader")], matcher="jumps")

        assert first.counters["plan.alloc_probes"] == \
            second.counters["plan.alloc_probes"]
        assert first.counters["pass.plan.runs"] == 1
        assert second.counters["pass.plan.runs"] == 1
        # Decode/match belong to the run that triggered them: the first.
        assert first.counters["pass.decode.runs"] == 1
        assert "pass.decode.runs" not in second.counters
        assert second.timings.keys() <= {"plan", "group", "emit", "verify"}

    def test_single_run_still_reports_decode(self):
        data = make_binary()
        report = rewrite_many(data, [RewriteOptions(mode="loader")],
                              matcher="jumps")[0]
        assert report.counters["pass.decode.runs"] == 1
        assert "decode" in report.timings


class TestCli:
    def run_cli(self, args, tmp_path, capsys, seed=11):
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(make_binary(seed))
        rc = main([str(src), str(dst), *args])
        assert rc == 0
        return dst, capsys.readouterr().out

    def test_json_reports_cache_stats(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        _, out = self.run_cli(["--cache", "--cache-dir", str(cache_dir),
                               "--json"], tmp_path, capsys)
        payload = json.loads(out)
        assert payload["cache"]["misses"] >= 1
        assert payload["cache"]["stores"] >= 1

        _, out = self.run_cli(["--cache", "--cache-dir", str(cache_dir),
                               "--json"], tmp_path, capsys)
        warm = json.loads(out)
        assert warm["cache"]["hits"] >= 2
        assert "pass.decode.runs" not in warm["counters"]
        assert warm["stats"] == payload["stats"]

    def test_no_cache_reports_null(self, tmp_path, capsys):
        _, out = self.run_cli(["--no-cache", "--json"], tmp_path, capsys)
        assert json.loads(out)["cache"] is None
