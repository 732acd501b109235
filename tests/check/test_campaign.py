"""Campaign runner: determinism, bug catching, shrinking, replay."""

from __future__ import annotations

import json

import pytest

from repro.check import (
    CampaignConfig,
    PatchConfig,
    default_patch_configs,
    replay_artifact,
    run_campaign,
    shrink_params,
)
from repro.check.campaign import options_from_dict, options_to_dict
from repro.core.observe import Observer
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.synth.generator import SynthesisParams


def small_campaign(**kw) -> CampaignConfig:
    kw.setdefault("seed", 7)
    kw.setdefault("count", 6)
    return CampaignConfig(**kw)


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        a = run_campaign(small_campaign())
        b = run_campaign(small_campaign())
        assert a.to_dict() == b.to_dict()
        assert a.ok and b.ok

    def test_sweep_covers_profiles_and_configs(self):
        """The default sweep must rotate through >=3 profiles and >=3
        patch configurations, per the merge-gate contract."""
        config = small_campaign(count=15)
        assert len(config.profiles) >= 3
        assert len(config.configs) >= 3
        result = run_campaign(config)
        assert result.binaries == 15
        assert result.equivalent == 15

    def test_counters_flow_through_observer(self):
        observer = Observer()
        result = run_campaign(small_campaign(count=4), observer=observer)
        c = observer.counters
        assert c["check.binaries"] == 4
        assert c["check.equivalent"] == result.equivalent
        assert c["check.divergences"] == 0
        assert c["check.shrink_steps"] == 0
        assert c["check.events"] == result.events_compared > 0

    def test_progress_callback_sees_every_binary(self):
        seen = []
        run_campaign(small_campaign(count=3),
                     progress=lambda i, n, v: seen.append((i, n, v)))
        assert seen == [(0, 3, "equivalent"), (1, 3, "equivalent"),
                        (2, 3, "equivalent")]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(profiles=()))


class TestInjectedBug:
    """End-to-end proof the campaign can fail: the test-only displacement
    miscompile must be caught, shrunk, dumped, and replayable."""

    @pytest.fixture()
    def buggy_result(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECK_INJECT_BUG", "1")
        return run_campaign(small_campaign(
            count=3, artifact_dir=str(tmp_path))), tmp_path

    def test_bug_is_caught_and_shrunk(self, buggy_result):
        result, _ = buggy_result
        assert result.divergences > 0
        assert not result.ok
        failure = result.failures[0]
        assert failure.shrink_steps > 0
        assert result.shrink_steps >= failure.shrink_steps
        shrunk, original = failure.shrunk_params, failure.params
        assert (shrunk.n_jump_sites + shrunk.n_write_sites
                < original.n_jump_sites + original.n_write_sites)
        # The shrunken reproducer still reproduces the same failure class.
        assert failure.shrunk_report.verdict == "divergent"
        assert (failure.shrunk_report.divergence.kind
                == failure.report.divergence.kind)

    def test_artifact_written_and_replayable(self, buggy_result, monkeypatch):
        result, tmp_path = buggy_result
        failure = result.failures[0]
        assert failure.artifact_path is not None
        artifact = json.loads((tmp_path / failure.artifact_path.rsplit(
            "/", 1)[-1]).read_text())
        assert artifact["schema"] == "repro-check-repro/1"
        # Replay with the bug still injected: diverges again.
        assert replay_artifact(artifact).verdict == "divergent"
        # Replay on the fixed rewriter: equivalent.
        monkeypatch.delenv("REPRO_CHECK_INJECT_BUG")
        assert replay_artifact(artifact).verdict == "equivalent"
        assert replay_artifact(artifact, use_shrunk=False).verdict \
            == "equivalent"

    def test_replay_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            replay_artifact({"schema": "bogus/9"})


class TestShrinking:
    def test_greedy_shrink_minimizes(self):
        params = SynthesisParams(n_jump_sites=32, n_write_sites=24,
                                 seed=5, loop_iters=4, bss_bytes=4096)
        # Failure reproduces while there are >= 3 sites in total.
        pred = lambda p: p.n_jump_sites + p.n_write_sites >= 3  # noqa: E731
        shrunk, steps = shrink_params(params, pred)
        assert pred(shrunk)
        assert shrunk.n_jump_sites + shrunk.n_write_sites < 6
        assert shrunk.loop_iters == 1
        assert shrunk.bss_bytes == 0
        assert steps > 0

    def test_shrink_respects_step_budget(self):
        params = SynthesisParams(n_jump_sites=1 << 20, n_write_sites=0)
        calls = []

        def pred(p):
            calls.append(p)
            return True

        _, steps = shrink_params(params, pred, max_steps=5)
        assert steps == 5
        assert len(calls) == 5

    def test_unshrinkable_failure_keeps_params(self):
        params = SynthesisParams(n_jump_sites=8, n_write_sites=8)
        shrunk, _ = shrink_params(params, lambda p: p == params)
        assert shrunk == params


class TestSerialization:
    def test_options_round_trip(self):
        for config in default_patch_configs():
            encoded = json.loads(json.dumps(options_to_dict(config.options)))
            assert options_from_dict(encoded) == config.options

    def test_options_round_trip_nondefaults(self):
        options = RewriteOptions(
            mode="loader", granularity=16, grouping=False,
            toggles=TacticToggles(t2=False, b0_fallback=True),
            reserve_extra=((0x1000, 0x2000),))
        assert options_from_dict(options_to_dict(options)) == options

    def test_verify_in_old_artifacts_replays_as_lint(self):
        encoded = options_to_dict(RewriteOptions(mode="loader"))
        del encoded["lint"]
        encoded["verify"] = True
        assert options_from_dict(encoded) == RewriteOptions(mode="loader",
                                                            lint=True)

    def test_patch_config_round_trip(self):
        for config in default_patch_configs():
            encoded = json.loads(json.dumps(config.to_dict()))
            restored = PatchConfig.from_dict(encoded)
            assert restored == config

    def test_campaign_config_names_sweep(self):
        d = small_campaign().to_dict()
        assert d["seed"] == 7
        assert len(d["profiles"]) >= 3
        names = [c["name"] for c in d["configs"]]
        assert len(names) == len(set(names)) >= 3

    def test_draw_params_deterministic(self):
        import random

        from repro.check.campaign import _draw_params

        a = _draw_params(random.Random(3), "vim")
        b = _draw_params(random.Random(3), "vim")
        assert a == b
        assert a.pie  # vim is a PIE profile
