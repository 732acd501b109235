"""Content-addressed on-disk artifact store for the rewrite pipeline.

Rewriting the same binary twice should not decode it twice.  The store
persists the two expensive, deterministic intermediates of the pipeline
— decoded instruction streams and matcher results — keyed by SHA-256
over everything that could change them:

* the input bytes;
* a *toolchain fingerprint* — a digest of the decoder/frontend source
  modules plus a schema version, so editing the decoder (or bumping
  :data:`SCHEMA_VERSION`) invalidates every stale entry without any
  manual cache management;
* the frontend name and, for match entries, the matcher spec.

Entries live under ``~/.cache/repro`` (or ``$REPRO_CACHE_DIR``) as
``<kind>/<aa>/<key>.pkl`` files, written atomically (temp file +
rename).  Total size is capped (``max_bytes`` / ``$REPRO_CACHE_MAX_MB``)
with least-recently-used eviction — ``get`` refreshes an entry's mtime,
``put`` evicts the oldest entries until the cap holds.  A corrupted,
truncated, or unreadable entry is *never* fatal: it reads as a miss and
is deleted.  All traffic is tallied in :class:`CacheStats`.

**Concurrency.**  One :class:`ArtifactStore` may be shared by many
threads (the service daemon does exactly that) and one on-disk root by
many processes:

* all configuration — root directory, size cap — is resolved *once*,
  at :class:`CacheConfig` construction; nothing on the get/put path
  reads ``os.environ`` or module globals;
* the toolchain fingerprint is per-instance state computed at most once
  under a lock (no ``global`` — two stores never share it implicitly);
* publishes are atomic (write-temp + ``os.replace``) and serialized per
  entry with an advisory ``flock`` so concurrent writers of the same
  key do not duplicate work — the losing writer records a ``dedups``
  tick instead of rewriting the entry;
* stats updates are guarded by a lock, and an optional
  :class:`~repro.core.observe.Observer` receives live ``cache.*``
  hit/miss/store/evict/latency counters for service metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

try:  # advisory per-entry locking (POSIX; degrades to lock-free elsewhere)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Bump to invalidate every existing cache entry (key layout changes,
#: pickled payload shape changes, ...).
SCHEMA_VERSION = 1

#: Environment overrides for the store location and size cap, consulted
#: once at :class:`CacheConfig` construction.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Modules whose source feeds the toolchain fingerprint: anything that
#: changes what a decoded stream or a match result *means* — including
#: fastscan, which computes a stream's start offsets and the candidate
#: bits that prune named-matcher sites; flow, whose ``is_heap_write``
#: decides the ``heap-writes`` sites; and symbols, whose function ranges
#: are the ``symbols`` frontend's decode extents.
_FINGERPRINT_MODULES = (
    "repro.x86.decoder",
    "repro.x86.tables",
    "repro.x86.prefixes",
    "repro.x86.insn",
    "repro.x86.fastscan",
    "repro.x86.flow",
    "repro.elf.symbols",
    "repro.frontend.lineardisasm",
    "repro.frontend.matchers",
)


def compute_toolchain_fingerprint() -> str:
    """Digest of the decoder/frontend sources + schema version.

    Pure and deterministic — callers that need it repeatedly memoize it
    themselves (:meth:`ArtifactStore.fingerprint`); there is no module
    global to keep the hot path reentrant.
    """
    h = hashlib.sha256()
    h.update(f"schema:{SCHEMA_VERSION}".encode())
    for name in _FINGERPRINT_MODULES:
        mod = importlib.import_module(name)
        path = getattr(mod, "__file__", None)
        h.update(name.encode())
        if path and os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@dataclass(frozen=True)
class CacheConfig:
    """Immutable store configuration, resolved once at construction.

    A long-lived service builds one ``CacheConfig`` at startup and
    every request shares it; changing ``$REPRO_CACHE_DIR`` afterwards
    cannot change behaviour mid-flight.
    """

    root: Path
    max_bytes: int = DEFAULT_MAX_BYTES

    @classmethod
    def from_env(
        cls,
        root: str | os.PathLike | None = None,
        max_bytes: int | None = None,
        environ: dict[str, str] | None = None,
    ) -> "CacheConfig":
        """Resolve the configuration: arguments > environment > defaults."""
        env = os.environ if environ is None else environ
        if root is None:
            raw = env.get(CACHE_DIR_ENV, "").strip()
            root = Path(raw) if raw else Path.home() / ".cache" / "repro"
        if max_bytes is None:
            raw = env.get(CACHE_MAX_MB_ENV, "").strip()
            try:
                max_bytes = int(raw) * 1024 * 1024 if raw else DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        return cls(root=Path(root), max_bytes=max_bytes)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro`` (a config-time
    helper — the store itself never consults the environment)."""
    return CacheConfig.from_env().root


@dataclass
class CacheStats:
    """Traffic counters for one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    dedups: int = 0  # publishes skipped: another writer got there first
    evictions: int = 0
    errors: int = 0  # corrupted/unreadable entries discarded
    get_seconds: float = 0.0  # cumulative read latency
    put_seconds: float = 0.0  # cumulative publish latency

    def as_dict(self) -> dict[str, int | float]:
        return {
            f.name: (round(v, 6) if isinstance(v, float) else v)
            for f in fields(self)
            for v in (getattr(self, f.name),)
        }


class ArtifactStore:
    """Size-capped, content-addressed, concurrency-safe pickle store.

    The generic surface is ``get(kind, key)`` / ``put(kind, key, value)``
    plus the key builders (:meth:`decode_key`, :meth:`match_key`).
    Failures to read or write are swallowed by design — a cache must
    only ever make runs faster, never break them.

    An optional *observer* receives every stat tick as live ``cache.*``
    counters (``cache.hits``, ``cache.misses``, ``cache.stores``,
    ``cache.evictions``, ``cache.errors``, ``cache.dedups``) plus
    latency microsecond counters (``cache.get_us``/``cache.put_us``),
    which is how the service daemon's ``/metrics`` endpoint surfaces
    store traffic.
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int | None = None, *,
                 config: CacheConfig | None = None,
                 observer=None) -> None:
        if config is None:
            config = CacheConfig.from_env(root, max_bytes)
        self.config = config
        self.root = config.root
        self.max_bytes = config.max_bytes
        self.stats = CacheStats()
        self.observer = observer
        self._stats_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        self._fingerprint: str | None = None
        self._fingerprint_lock = threading.Lock()

    # -- toolchain fingerprint (instance state, race-free) ----------------

    def fingerprint(self) -> str:
        """The toolchain fingerprint, computed at most once per store.

        Double-checked under a lock so N threads issuing their first
        request through a shared store trigger exactly one computation
        and all observe the same value.
        """
        fp = self._fingerprint
        if fp is None:
            with self._fingerprint_lock:
                if self._fingerprint is None:
                    self._fingerprint = compute_toolchain_fingerprint()
                fp = self._fingerprint
        return fp

    # -- stats ------------------------------------------------------------

    def _tally(self, **deltas: int | float) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)
            if self.observer is not None:
                for name, delta in deltas.items():
                    if name.endswith("_seconds"):
                        self.observer.count(
                            f"cache.{name[:-8]}_us", int(delta * 1e6))
                    else:
                        self.observer.count(f"cache.{name}", int(delta))

    # -- key construction ------------------------------------------------

    @staticmethod
    def _digest(*parts: str) -> str:
        h = hashlib.sha256()
        for part in parts:
            h.update(part.encode())
            h.update(b"\x00")
        return h.hexdigest()

    def decode_key(self, data: bytes, frontend: str) -> str:
        """Key for a decoded instruction stream."""
        return self._digest(
            "decode", self.fingerprint(), frontend,
            hashlib.sha256(data).hexdigest(),
        )

    def match_key(self, decode_key: str, matcher_spec: str) -> str:
        """Key for a matcher's site list over one decoded stream.

        Only *named* matchers are cacheable: an arbitrary callable has no
        stable identity across processes.
        """
        return self._digest("match", decode_key, matcher_spec)

    # -- per-entry locking -------------------------------------------------

    @contextmanager
    def _entry_lock(self, path: Path):
        """Advisory exclusive lock serializing publishers of one entry.

        Lock files live beside the entries (``<key>.lck``) and are tiny;
        any failure to lock degrades to lock-free operation — the
        ``os.replace`` publish is atomic either way, the lock only
        prevents duplicate work.
        """
        if fcntl is None:
            yield
            return
        fd = -1
        try:
            fd = os.open(path.with_suffix(".lck"),
                         os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            if fd >= 0:
                os.close(fd)
                fd = -1
        try:
            yield
        finally:
            if fd >= 0:
                os.close(fd)  # closing the fd releases the flock

    # -- storage ---------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, key: str) -> object | None:
        """The stored value, or None on miss *or any* read failure."""
        t0 = time.perf_counter()
        path = self._path(kind, key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self._tally(misses=1, get_seconds=time.perf_counter() - t0)
            return None
        except Exception:
            # Corrupted or stale entry: discard it and report a miss.
            try:
                path.unlink()
            except OSError:
                pass
            self._tally(errors=1, misses=1,
                        get_seconds=time.perf_counter() - t0)
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self._tally(hits=1, get_seconds=time.perf_counter() - t0)
        return value

    def put(self, kind: str, key: str, value: object) -> None:
        """Store *value* atomically; evict down to the size cap after.

        Concurrent publishers of the same key are serialized by the
        per-entry lock; whoever arrives second finds the entry already
        published and skips the redundant pickle+rename (``dedups``).
        """
        t0 = time.perf_counter()
        path = self._path(kind, key)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with self._entry_lock(path):
                if path.exists():
                    self._tally(dedups=1,
                                put_seconds=time.perf_counter() - t0)
                    return
                with open(tmp, "wb") as f:
                    pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
        except Exception:
            self._tally(errors=1, put_seconds=time.perf_counter() - t0)
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._tally(stores=1, put_seconds=time.perf_counter() - t0)
        self._evict()

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every entry file under the root."""
        out = []
        if not self.root.exists():
            return out
        for path in self.root.rglob("*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def _evict(self) -> None:
        """Delete least-recently-used entries until under ``max_bytes``.

        One eviction scan at a time per store; entries vanishing under
        our feet (a concurrent evictor in another process) are skipped.
        """
        with self._evict_lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            if total <= self.max_bytes:
                return
            evicted = 0
            for _, size, path in sorted(entries):
                try:
                    path.unlink()
                except OSError:
                    continue
                evicted += 1
                total -= size
                if total <= self.max_bytes:
                    break
        if evicted:
            self._tally(evictions=evicted)

    def size_bytes(self) -> int:
        """Current total size of every entry on disk."""
        return sum(size for _, size, _ in self._entries())
