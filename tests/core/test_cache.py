"""ArtifactStore: round trips, corruption handling, LRU eviction."""

import os
import pathlib

from repro.core.cache import (
    CACHE_DIR_ENV,
    ArtifactStore,
    compute_toolchain_fingerprint,
    default_cache_dir,
)


def test_round_trip(tmp_path):
    cache = ArtifactStore(tmp_path)
    key = cache.decode_key(b"\x90\x90", "linear")
    assert cache.get("decode", key) is None  # cold
    cache.put("decode", key, ["insn-a", "insn-b"])
    assert cache.get("decode", key) == ["insn-a", "insn-b"]
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hits == 1


def test_keys_cover_inputs():
    cache = ArtifactStore("/nonexistent-unused")
    base = cache.decode_key(b"aaaa", "linear")
    assert base != cache.decode_key(b"aaab", "linear")  # input bytes
    assert base != cache.decode_key(b"aaaa", "symbols")  # frontend
    m = cache.match_key(base, "jumps")
    assert m != cache.match_key(base, "calls")
    assert m != base


def test_fingerprint_is_stable_hex():
    fp = compute_toolchain_fingerprint()
    assert fp == compute_toolchain_fingerprint()
    assert len(fp) == 64
    int(fp, 16)


def test_fingerprint_covers_fastscan(tmp_path, monkeypatch):
    """fastscan computes a cached stream's start offsets and the
    candidate bits that prune named-matcher sites, so editing it alone
    must retire every decode and match entry."""
    import repro.x86.fastscan as fastscan

    before = compute_toolchain_fingerprint()
    edited = tmp_path / "fastscan.py"
    edited.write_bytes(
        pathlib.Path(fastscan.__file__).read_bytes() + b"\n# edited\n")
    monkeypatch.setattr(fastscan, "__file__", str(edited))
    assert compute_toolchain_fingerprint() != before


def test_default_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_corrupted_entry_is_a_miss_and_deleted(tmp_path):
    cache = ArtifactStore(tmp_path)
    key = cache.decode_key(b"data", "linear")
    cache.put("decode", key, [1, 2, 3])
    path = cache._path("decode", key)
    path.write_bytes(b"not a pickle at all")

    assert cache.get("decode", key) is None
    assert cache.stats.errors == 1
    assert not path.exists()  # discarded, next put repopulates
    cache.put("decode", key, [1, 2, 3])
    assert cache.get("decode", key) == [1, 2, 3]


def test_truncated_entry_is_a_miss(tmp_path):
    cache = ArtifactStore(tmp_path)
    key = cache.decode_key(b"data", "linear")
    cache.put("decode", key, list(range(1000)))
    path = cache._path("decode", key)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get("decode", key) is None
    assert cache.stats.errors == 1


def test_lru_eviction_drops_oldest(tmp_path):
    payload = b"x" * 1000
    cache = ArtifactStore(tmp_path, max_bytes=2500)
    cache.put("decode", "aa" * 32, payload)
    cache.put("decode", "bb" * 32, payload)
    # Make recency unambiguous regardless of filesystem timestamp
    # granularity: "aa" is clearly the least recently used.
    os.utime(cache._path("decode", "aa" * 32), (1_000_000, 1_000_000))
    os.utime(cache._path("decode", "bb" * 32), (2_000_000, 2_000_000))

    cache.put("decode", "cc" * 32, payload)  # pushes total over the cap

    assert cache.stats.evictions >= 1
    assert cache.get("decode", "aa" * 32) is None  # oldest went first
    assert cache.get("decode", "cc" * 32) == payload
    assert cache.size_bytes() <= 2500


def test_get_refreshes_recency(tmp_path):
    cache = ArtifactStore(tmp_path, max_bytes=2500)
    payload = b"x" * 1000
    cache.put("decode", "aa" * 32, payload)
    cache.put("decode", "bb" * 32, payload)
    os.utime(cache._path("decode", "aa" * 32), (1_000_000, 1_000_000))
    os.utime(cache._path("decode", "bb" * 32), (2_000_000, 2_000_000))

    cache.get("decode", "aa" * 32)  # touch: now most recently used
    cache.put("decode", "cc" * 32, payload)

    assert cache.get("decode", "aa" * 32) == payload
    assert cache.get("decode", "bb" * 32) is None  # evicted instead


class TestCacheConfig:
    """Env resolution happens once, at config construction."""

    def test_from_env_snapshots(self, monkeypatch, tmp_path):
        from repro.core.cache import CACHE_MAX_MB_ENV, CacheConfig

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "a"))
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "7")
        config = CacheConfig.from_env()
        assert config.root == tmp_path / "a"
        assert config.max_bytes == 7 * 1024 * 1024
        # Later environment changes cannot move a live store.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "b"))
        store = ArtifactStore(config=config)
        assert store.root == tmp_path / "a"

    def test_arguments_beat_env(self, monkeypatch, tmp_path):
        from repro.core.cache import CacheConfig

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        config = CacheConfig.from_env(tmp_path / "arg", 1024)
        assert config.root == tmp_path / "arg"
        assert config.max_bytes == 1024

    def test_unparsable_max_mb_falls_back(self, monkeypatch, tmp_path):
        from repro.core.cache import (
            CACHE_MAX_MB_ENV,
            DEFAULT_MAX_BYTES,
            CacheConfig,
        )

        monkeypatch.setenv(CACHE_MAX_MB_ENV, "lots")
        assert CacheConfig.from_env(tmp_path).max_bytes == DEFAULT_MAX_BYTES


class TestConcurrency:
    """The store is shared by service worker threads by design."""

    def test_fingerprint_computed_once_across_threads(self, monkeypatch,
                                                      tmp_path):
        import threading

        import repro.core.cache as cache_mod

        calls = []
        barrier = threading.Barrier(8)

        def slow_fingerprint():
            calls.append(1)
            return "f" * 64

        monkeypatch.setattr(cache_mod, "compute_toolchain_fingerprint",
                            slow_fingerprint)
        store = ArtifactStore(tmp_path)
        seen = []

        def worker():
            barrier.wait()
            seen.append(store.fingerprint())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == ["f" * 64] * 8
        assert len(calls) == 1  # the race resolved to a single computation

    def test_concurrent_puts_same_key_are_serialized(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path)
        key = "ab" * 32
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            store.put("decode", key, list(range(200)))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get("decode", key) == list(range(200))
        assert store.stats.errors == 0
        # Exactly one writer published; the rest deduplicated.
        assert store.stats.stores == 1
        assert store.stats.dedups == 5
        entries = list((tmp_path / "decode").rglob("*.pkl"))
        assert len(entries) == 1

    def test_concurrent_mixed_traffic_is_safe(self, tmp_path):
        import threading

        store = ArtifactStore(tmp_path)
        keys = [f"{i:02x}" * 32 for i in range(16)]
        errors = []

        def worker(offset):
            try:
                for i, key in enumerate(keys):
                    if (i + offset) % 2 == 0:
                        store.put("match", key, [i, offset])
                    else:
                        store.get("match", key)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.stats.errors == 0
        for key in keys:
            assert store.get("match", key) is not None

    def test_latency_counters_accumulate(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.decode_key(b"\x90", "linear")
        store.put("decode", key, [1])
        store.get("decode", key)
        stats = store.stats.as_dict()
        assert stats["get_seconds"] > 0.0
        assert stats["put_seconds"] > 0.0

    def test_observer_receives_cache_counters(self, tmp_path):
        from repro.core.observe import Observer

        observer = Observer()
        store = ArtifactStore(tmp_path, observer=observer)
        key = store.decode_key(b"\x90", "linear")
        store.get("decode", key)  # miss
        store.put("decode", key, [1])
        store.get("decode", key)  # hit
        assert observer.counters["cache.misses"] == 1
        assert observer.counters["cache.hits"] == 1
        assert observer.counters["cache.stores"] == 1
        assert "cache.get_us" in observer.counters
