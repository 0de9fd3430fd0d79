"""Persistent result stores for the batch optimization service.

The service's signature-keyed result cache (PR 1) lived in a plain dict,
so every process restart re-optimized the whole fleet. A
:class:`ResultStore` abstracts where entries live:

* :class:`InMemoryStore` — the original behaviour: a per-process mapping
  with an optional LRU bound.
* :class:`DiskStore` — one name per entry under a cache directory,
  group-committed: :meth:`DiskStore.put_many` writes a batch as JSON
  documents of at most ``DiskStore.GROUP_SIZE`` (8) entries, one
  ``fsync`` each, and publishes each document under its keys'
  ``<key>.json`` names by hard link, so the names of one group share an
  inode. Every name is published atomically (link to a
  temp name + ``os.replace``) after the data is on disk, so a crash can
  lose a name — a miss — but never leave a torn one. Loads are
  corruption-tolerant: a truncated file, invalid JSON, or a document
  written in another layout or under a different
  :data:`~repro.core.spec.STORE_SCHEMA_VERSION` reads as a miss, never
  an exception. An optional ``max_entries`` bound evicts
  least-recently-used names (recency = file mtime, refreshed on every
  hit, and shared by the names of one group).

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
from typing import Mapping, Optional, Protocol, Tuple, runtime_checkable
from uuid import uuid4

from repro.core.spec import STORE_SCHEMA_VERSION

#: characters allowed in a store key (canonical_hash emits lowercase hex,
#: but any filename-safe token is accepted so tests can use readable keys)
_SAFE_KEY_CHARS = frozenset(string.ascii_letters + string.digits + "._-")

#: A group document is one sorted JSON document,
#: ``{"entries": {key: entry, ...}, "schema": STORE_SCHEMA_VERSION}``,
#: laid out one entry per line between this head and tail, so a read
#: can find and decode its own line alone.
_HEAD = b'{"entries": {\n'
_TAIL = b'\n}, "schema": %d}\n' % STORE_SCHEMA_VERSION


@runtime_checkable
class ResultStore(Protocol):
    """Anything that can hold the service's keyed result entries."""

    def get(self, key: str) -> Optional[dict]:
        """The entry under ``key``, or ``None`` (miss / unreadable)."""
        ...  # pragma: no cover - protocol body

    def put(self, key: str, entry: dict) -> None:
        """Persist ``entry`` under ``key`` (replacing any prior entry)."""
        ...  # pragma: no cover - protocol body

    def put_many(self, entries: Mapping[str, dict]) -> None:
        """Persist every ``key: entry`` pair as one commit."""
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
        self.put_many({key: entry})

    def put_many(self, entries: Mapping[str, dict]) -> None:
        # Snapshot first: later caller mutations must not reach the cache.
        group = {_check_key(key): copy.deepcopy(entry)
                 for key, entry in entries.items()}
        with self._lock:
            for key, entry in group.items():
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
    """Group-committed JSON store under a cache directory.

    Layout: each key is a name ``<root>/<key>.json``. :meth:`put_many`
    splits its keys into groups of at most :attr:`GROUP_SIZE`; each
    group is one document,
    ``{"entries": {key: entry, ...}, "schema": STORE_SCHEMA_VERSION}``
    with keys sorted and one entry per line, published under every key
    of the group by hard link, so the names of one group share an
    inode. A read finds and decodes its own line only, so a hit costs
    one entry's parse. Sharing the inode has three consequences:

    * a hit's ``os.utime`` refreshes the recency of the whole group;
    * a torn (truncated) or overwritten group file is a miss for every
      key in it; a line damaged in place misses for its own key only;
    * the group's bytes are freed when its last name is evicted or
      overwritten.

    Durability: each group document is written to a uniquely-named
    ``*.json.tmp-*`` file and ``fsync``'d once, before any of its names
    is visible. Each name is then published atomically: an ``os.link`` to
    its own temp name, then ``os.replace`` onto ``<key>.json``, so
    concurrent writers leave either the old entry or the new one. Names
    are not directory-fsync'd, so a crash can lose a name (a miss) but
    never tear one. A process killed mid-commit leaves only
    ``*.tmp-*`` orphans, which no read path ever considers an entry.
    The directory must be on a filesystem with hard links; the
    constructor checks and raises :class:`OSError` otherwise.
    """

    SUFFIX = ".json"
    #: most keys one group document holds: a hit parses its whole group,
    #: and a group's bytes stay on disk until its last name goes, so
    #: this bounds both. A batch of up to 8 misses still costs one fsync.
    GROUP_SIZE = 8

    def __init__(self, root, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._check_hard_links()

    def _check_hard_links(self) -> None:
        """Fail at construction, not after a batch's compute, when the
        directory cannot hold hard links."""
        probe = link = self._tmp(self.root / ("link-probe" + self.SUFFIX))
        try:
            probe.touch()
            link = self._tmp(probe)
            os.link(probe, link)
        except OSError as exc:
            raise OSError(
                exc.errno,
                f"DiskStore needs a filesystem with hard links; "
                f"cannot link in {self.root}: {exc.strerror or exc}",
            ) from exc
        finally:
            probe.unlink(missing_ok=True)
            link.unlink(missing_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / (_check_key(key) + self.SUFFIX)

    @staticmethod
    def _tmp(path: Path) -> Path:
        return path.parent / f"{path.name}.tmp-{os.getpid()}-{uuid4().hex[:8]}"

    @classmethod
    def _load(cls, path: Path) -> Optional[dict]:
        """Read the entry a name holds tolerantly: anything unreadable,
        torn, non-JSON, schema-mismatched, or missing this name's key is
        ``None``, never an error. Only this name's own line is decoded,
        so a hit costs one entry's parse, not its group's."""
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            return None
        # No entry line holds a raw newline (json.dumps escapes them), so
        # a torn document has lost its tail: every key in it misses.
        if not (data.startswith(_HEAD) and data.endswith(_TAIL)):
            return None
        marker = b'\n"' + path.name[: -len(cls.SUFFIX)].encode() + b'": '
        start = data.find(marker, len(_HEAD) - 1)
        if start < 0:
            return None
        start += len(marker)
        try:
            line = data[start:data.index(b"\n", start)].rstrip(b",")
            entry = json.loads(line.decode())  # str decodes faster
        except ValueError:
            return None
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
            os.utime(path)  # refresh LRU recency (of the whole group)
        except OSError:
            pass
        return entry

    def put(self, key: str, entry: dict) -> None:
        self.put_many({key: entry})

    def put_many(self, entries: Mapping[str, dict]) -> None:
        """Commit every ``key: entry`` pair, one ``fsync`` per group of
        at most :attr:`GROUP_SIZE` keys.

        Every key is validated before anything is written. If publishing
        fails part-way, the names already published stay intact and the
        rest stay as they were; no temp file is left behind.
        """
        paths = {key: self._path(key) for key in entries}
        keys = list(paths)
        for start in range(0, len(keys), self.GROUP_SIZE):
            group = keys[start:start + self.GROUP_SIZE]
            self._commit({key: entries[key] for key in group},
                         [paths[key] for key in group])
        if keys:
            self._evict()

    def _commit(self, entries: Mapping[str, dict], paths) -> None:
        """Write one group document, fsync it, and link it under
        every name in ``paths``."""
        # One sorted JSON document, one entry per line (see _HEAD).
        body = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
            for key in sorted(entries)
        )
        group = link = self._tmp(paths[0])
        try:
            with open(group, "wb") as f:
                # One write: json.dump streams through many small writes.
                f.write(_HEAD + body.encode("utf-8") + _TAIL)
                f.flush()
                os.fsync(f.fileno())
            for path in paths:
                link = self._tmp(path)
                os.link(group, link)
                os.replace(link, path)
        finally:
            # The last link is gone once published; on a failed publish
            # it is an orphan, like the group file itself.
            group.unlink(missing_ok=True)
            link.unlink(missing_ok=True)

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

        Each name is read directly (corruption-tolerantly) *without*
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
