"""Worker-count resolution: argument > $REPRO_JOBS > serial, once."""

import os

from repro.core.parallel import JOBS_ENV, resolve_jobs


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_argument(self):
        assert resolve_jobs(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(2) == 2

    def test_unparsable_environment_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs(None) == 1

    def test_nonpositive_means_one_per_cpu(self):
        cpus = os.cpu_count() or 1
        assert resolve_jobs(0) == cpus
        assert resolve_jobs(-1) == cpus


class TestExecutorConfig:
    """Env resolution happens once, at config construction — never later."""

    def test_from_env_snapshots_jobs(self, monkeypatch):
        from repro.core.parallel import ExecutorConfig

        monkeypatch.setenv(JOBS_ENV, "5")
        config = ExecutorConfig.from_env()
        assert config.jobs == 5
        # A long-lived service keeps the snapshot even if the
        # environment changes mid-flight.
        monkeypatch.setenv(JOBS_ENV, "99")
        assert config.jobs == 5

    def test_explicit_argument_beats_env(self, monkeypatch):
        from repro.core.parallel import ExecutorConfig

        monkeypatch.setenv(JOBS_ENV, "5")
        assert ExecutorConfig.from_env(jobs=2).jobs == 2

    def test_nonpositive_means_one_per_cpu(self):
        from repro.core.parallel import ExecutorConfig

        assert ExecutorConfig.from_env(jobs=0).jobs == (os.cpu_count() or 1)

    def test_config_is_immutable(self):
        import dataclasses

        import pytest

        from repro.core.parallel import ExecutorConfig

        config = ExecutorConfig(jobs=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.jobs = 4
