"""Persistent result stores for the batch optimization service.

The service's signature-keyed result cache (PR 1) lived in a plain dict,
so every process restart re-optimized the whole fleet. A
:class:`ResultStore` abstracts where entries live:

* :class:`InMemoryStore` — the original behaviour: a per-process mapping
  with an optional LRU bound.
* :class:`DiskStore` — one JSON file per entry under a cache directory,
  written atomically (temp file + ``os.replace``) so a crash mid-write
  can never corrupt an existing entry. Loads are corruption-tolerant: a
  truncated file, invalid JSON, or an entry written under a different
  :data:`~repro.core.spec.STORE_SCHEMA_VERSION` reads as a miss, never
  an exception. An optional ``max_entries`` bound evicts
  least-recently-used entries (recency = file mtime, refreshed on every
  hit).

Entries are opaque JSON-compatible mappings; the service stores
``{"result": <worker result>, "provenance": {...}}`` where provenance
records the producing trace backend, the spec's cache token, and a
caller-injected timestamp — durable, shareable result artifacts keyed
by configuration, in the Collective Knowledge sense. That timestamp is
also the GC horizon: both stores implement ``compact(max_age_seconds,
now=...)``, evicting entries whose ``provenance.created_at`` is at or
over the age horizon so a long-lived service doesn't accumulate stale
results forever. Entries without a numeric ``created_at`` are never
aged out — GC only deletes what it can date.

Cache keys are ``canonical_hash`` hex digests (see
:meth:`repro.service.batch.BatchOptimizer._cache_key`), which makes them
safe filenames as-is; :class:`DiskStore` rejects anything else rather
than guessing an escaping scheme.
"""

from __future__ import annotations

import copy
import json
import os
import string
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Protocol, Tuple, runtime_checkable
from uuid import uuid4

from repro.core.spec import STORE_SCHEMA_VERSION

#: characters allowed in a store key (canonical_hash emits lowercase hex,
#: but any filename-safe token is accepted so tests can use readable keys)
_SAFE_KEY_CHARS = frozenset(string.ascii_letters + string.digits + "._-")


@runtime_checkable
class ResultStore(Protocol):
    """Anything that can hold the service's keyed result entries."""

    def get(self, key: str) -> Optional[dict]:
        """The entry under ``key``, or ``None`` (miss / unreadable)."""
        ...  # pragma: no cover - protocol body

    def put(self, key: str, entry: dict) -> None:
        """Persist ``entry`` under ``key`` (replacing any prior entry)."""
        ...  # pragma: no cover - protocol body

    def keys(self) -> Tuple[str, ...]:
        """Keys currently readable from the store."""
        ...  # pragma: no cover - protocol body

    def __len__(self) -> int:
        ...  # pragma: no cover - protocol body


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not key:
        raise ValueError("store keys must be non-empty strings")
    if not set(key) <= _SAFE_KEY_CHARS or key.startswith("."):
        raise ValueError(
            f"store key {key!r} is not filename-safe; use canonical_hash "
            "digests (the service's cache keys already are)"
        )
    return key


def _check_horizon(max_age_seconds: float) -> float:
    if not max_age_seconds >= 0:  # also rejects NaN
        raise ValueError(
            f"max_age_seconds must be >= 0, got {max_age_seconds!r}"
        )
    return max_age_seconds


def _created_at(entry: dict) -> Optional[float]:
    """The entry's provenance timestamp, or ``None`` when undatable."""
    provenance = entry.get("provenance")
    if not isinstance(provenance, dict):
        return None
    stamp = provenance.get("created_at")
    if isinstance(stamp, bool) or not isinstance(stamp, (int, float)):
        return None
    return stamp


def _expired(entry: dict, max_age_seconds: float, now: float) -> bool:
    """Whether an entry's provenance age is at or over the horizon."""
    stamp = _created_at(entry)
    return stamp is not None and now - stamp >= max_age_seconds


class InMemoryStore:
    """The original dict-backed cache, optionally LRU-bounded.

    Thread-safe: the daemon's dispatcher threads share one store, and
    the compound LRU update (lookup + move-to-end, insert + evict) must
    not interleave.

    Entries are **copied on both sides of the boundary**: ``put``
    snapshots the caller's mapping and ``get`` returns a deep copy, so
    a caller mutating a mapping it handed in or got back can never
    corrupt the shared cache — the same isolation :class:`DiskStore`
    gets for free by re-parsing JSON on every read.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[dict]:
        key = _check_key(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        # Stored entries are private snapshots (see put), so copying
        # outside the lock races with nothing.
        return copy.deepcopy(entry)

    def put(self, key: str, entry: dict) -> None:
        key = _check_key(key)
        entry = copy.deepcopy(entry)  # snapshot: later caller mutations
        with self._lock:              # must not reach the cache
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def compact(self, max_age_seconds: float,
                now: Optional[float] = None) -> int:
        """Evict entries whose provenance age is >= ``max_age_seconds``.

        ``now`` is injectable for deterministic tests (wall clock by
        default). Returns how many entries were evicted. Idempotent:
        surviving entries only age relative to ``now``, so re-running
        with the same arguments removes nothing further.
        """
        _check_horizon(max_age_seconds)
        now = time.time() if now is None else now
        with self._lock:
            stale = [
                key for key, entry in self._entries.items()
                if _expired(entry, max_age_seconds, now)
            ]
            for key in stale:
                del self._entries[key]
        return len(stale)


class DiskStore:
    """Atomic JSON-per-entry store under a cache directory.

    Layout: ``<root>/<key>.json`` holding
    ``{"schema": STORE_SCHEMA_VERSION, "entry": {...}}``. Writes land in
    a uniquely-named temp file first and are published with
    ``os.replace``, so concurrent writers and crashes leave either the
    old entry or the new one, never a torn file under the final name.
    A process killed mid-write leaves only a ``*.tmp-*`` orphan, which
    no read path ever considers an entry.
    """

    SUFFIX = ".json"

    def __init__(self, root, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries

    def _path(self, key: str) -> Path:
        return self.root / (_check_key(key) + self.SUFFIX)

    @staticmethod
    def _load(path: Path) -> Optional[dict]:
        """Read one entry file tolerantly: anything unreadable, torn,
        non-JSON, or schema-mismatched is ``None``, never an error."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != STORE_SCHEMA_VERSION:
            return None
        entry = data.get("entry")
        if not isinstance(entry, dict):
            return None
        return entry

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        entry = self._load(path)
        if entry is None:
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return entry

    def put(self, key: str, entry: dict) -> None:
        path = self._path(key)
        tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{uuid4().hex[:8]}"
        payload = {"schema": STORE_SCHEMA_VERSION, "entry": entry}
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                # One encode and one write: json.dump streams the
                # document through many small writes.
                f.write(json.dumps(payload, sort_keys=True))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # publish failed; don't leave orphans
                tmp.unlink(missing_ok=True)
        self._evict()

    # ------------------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(
            p.name[: -len(self.SUFFIX)] for p in self.root.glob("*" + self.SUFFIX)
        ))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*" + self.SUFFIX))

    def clear(self) -> None:
        """Delete every entry (temp orphans included)."""
        for p in self.root.glob("*" + self.SUFFIX):
            p.unlink(missing_ok=True)
        for p in self.root.glob("*" + self.SUFFIX + ".tmp-*"):
            p.unlink(missing_ok=True)

    def compact(self, max_age_seconds: float,
                now: Optional[float] = None) -> int:
        """Evict entries whose provenance age is >= ``max_age_seconds``.

        Each entry file is read directly (corruption-tolerantly) *without*
        refreshing its LRU mtime — GC must not make every stale entry
        look freshly used. Undatable entries — corrupt files, foreign
        schemas, or entries with no numeric ``provenance.created_at`` —
        are left alone. ``now`` is injectable for deterministic tests;
        returns how many entries were deleted. Idempotent for a fixed
        ``now``. Safe against concurrent compactors: a raced unlink
        counts once (``missing_ok``).
        """
        _check_horizon(max_age_seconds)
        now = time.time() if now is None else now
        removed = 0
        for path in self.root.glob("*" + self.SUFFIX):
            entry = self._load(path)
            if entry is not None and _expired(entry, max_age_seconds, now):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        files = sorted(
            self.root.glob("*" + self.SUFFIX),
            key=lambda p: (_mtime(p), p.name),
        )
        while len(files) > self.max_entries:
            files.pop(0).unlink(missing_ok=True)


def _mtime(path: Path) -> float:
    try:
        return path.stat().st_mtime
    except OSError:  # raced with another evictor
        return 0.0
