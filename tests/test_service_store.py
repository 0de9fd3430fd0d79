"""Tests for the persistent result stores (repro.service.store).

The acceptance bar for disk persistence: a ``BatchOptimizer`` pointed at
a ``DiskStore`` directory that a *separate process* already populated
must serve an unchanged fleet at >= 90% cache hit rate.
"""

import errno
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
import repro.service.store as store_module
from repro.core.spec import STORE_SCHEMA_VERSION, OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import BatchOptimizer, DiskStore, InMemoryStore, ResultStore

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: analytic backend keeps every store test sub-second
FAST_SPEC = OptimizeSpec(iterations=1, backend="analytic",
                         trace_duration=1.0, trace_warmup=0.25)

FLEET_KWARGS = dict(
    num_jobs=10, distinct=3, seed=3,
    config=FleetConfig(domain_weights={"vision": 1.0},
                       optimize_spec=FAST_SPEC),
)


def make_fleet():
    return generate_pipeline_fleet(**FLEET_KWARGS)


def _group_document(entries, schema=STORE_SCHEMA_VERSION):
    """The bytes DiskStore writes for one group: a sorted JSON document
    with one entry per line."""
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
                       for key, entry in sorted(entries.items()))
    return ('{"entries": {\n' + lines
            + f'\n}}, "schema": {json.dumps(schema)}}}\n').encode("utf-8")


def _tear_name(path, keep=40):
    """Give one name a torn document of its own: its batch-mates keep
    the group's inode untouched."""
    torn = path.with_name(path.name + ".torn")
    torn.write_text(path.read_text()[:keep])
    os.replace(torn, path)


class TestInMemoryStore:
    def test_round_trip(self):
        store = InMemoryStore()
        store.put("k1", {"result": {"x": 1}})
        assert store.get("k1") == {"result": {"x": 1}}
        assert store.get("missing") is None
        assert len(store) == 1
        assert store.keys() == ("k1",)

    def test_lru_bound_evicts_oldest(self):
        store = InMemoryStore(max_entries=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.put("c", {"v": 3})
        assert store.get("a") is None
        assert store.get("b") is not None and store.get("c") is not None

    def test_get_refreshes_recency(self):
        store = InMemoryStore(max_entries=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.get("a")               # a is now most recent
        store.put("c", {"v": 3})
        assert store.get("b") is None
        assert store.get("a") is not None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            InMemoryStore(max_entries=0)


class TestDiskStore:
    def test_round_trip_and_layout(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("k1", {"result": {"x": 1}})
        assert store.get("k1") == {"result": {"x": 1}}
        # One name per entry; the document holds the commit's entries,
        # wrapped with the schema version.
        data = json.loads((tmp_path / "k1.json").read_text())
        assert data["schema"] == STORE_SCHEMA_VERSION
        assert data["entries"] == {"k1": {"result": {"x": 1}}}
        assert store.keys() == ("k1",)

    def test_entry_file_is_one_sorted_json_document(self, tmp_path):
        entry = {"result": {"z": [1.5, None], "a": "x"},
                 "provenance": {"created_at": 12.25}}
        other = {"result": {"line\nbreak": "\u00e9"}}
        DiskStore(tmp_path).put_many({"k2": other, "k1": entry})
        data = (tmp_path / "k1.json").read_bytes()
        # One entry per line, keys sorted at every level.
        assert data == (
            b'{"entries": {\n'
            + b'"k1": ' + json.dumps(entry, sort_keys=True).encode() + b",\n"
            + b'"k2": ' + json.dumps(other, sort_keys=True).encode()
            + b'\n}, "schema": %d}\n' % STORE_SCHEMA_VERSION
        )
        assert data == _group_document({"k1": entry, "k2": other})
        assert json.loads(data) == {
            "entries": {"k1": entry, "k2": other},
            "schema": STORE_SCHEMA_VERSION,
        }

    def test_fresh_instance_reads_existing_entries(self, tmp_path):
        DiskStore(tmp_path).put("k1", {"result": {"x": 1}})
        assert DiskStore(tmp_path).get("k1") == {"result": {"x": 1}}

    def test_missing_is_none(self, tmp_path):
        assert DiskStore(tmp_path).get("nope") is None

    def test_unsafe_keys_rejected(self, tmp_path):
        store = DiskStore(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden", "sp ace"):
            with pytest.raises(ValueError):
                store.put(bad, {})

    def test_corrupt_entry_is_a_miss_not_fatal(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("k1", {"result": {"x": 1}})
        (tmp_path / "k1.json").write_text('{"schema": 1, "entry": {"resu')
        assert store.get("k1") is None

    def test_killed_mid_write_orphan_is_invisible(self, tmp_path):
        """A temp file left by a killed writer is never read as an
        entry and never shadows the key."""
        store = DiskStore(tmp_path)
        (tmp_path / "k1.json.tmp-999-deadbeef").write_text('{"schema"')
        assert store.get("k1") is None
        assert store.keys() == ()
        store.put("k1", {"result": {"x": 1}})  # key still writable
        assert store.get("k1") == {"result": {"x": 1}}

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        (tmp_path / "k1.json").write_bytes(_group_document(
            {"k1": {"result": {}}}, schema=STORE_SCHEMA_VERSION + 1))
        assert store.get("k1") is None

    def test_schema_v2_entry_is_a_miss(self, tmp_path):
        """Schema 3 plans simulate specs analytically, so a v2 entry's
        decisions and predicted throughput are stale for its key."""
        assert STORE_SCHEMA_VERSION >= 3
        store = DiskStore(tmp_path)
        (tmp_path / "k1.json").write_text(json.dumps(
            {"schema": 2, "entry": {"result": {"x": 1}}}
        ))
        assert store.get("k1") is None

    def test_schema_v3_entry_is_a_miss(self, tmp_path):
        """Schema 4 documents hold a group of entries; a v3 single-entry
        file is a miss, even when its layout is intact."""
        assert STORE_SCHEMA_VERSION >= 4
        store = DiskStore(tmp_path)
        (tmp_path / "k1.json").write_text(json.dumps(
            {"schema": 3, "entry": {"result": {"x": 1}}}
        ))
        assert store.get("k1") is None
        assert store.compact(0, now=1e12) == 0

    def test_non_dict_payloads_are_misses(self, tmp_path):
        store = DiskStore(tmp_path)
        (tmp_path / "k1.json").write_text(json.dumps([1, 2, 3]))
        (tmp_path / "k2.json").write_bytes(
            _group_document({"k2": "not-a-dict"}))
        # A whole document on one line is not the group layout.
        (tmp_path / "k3.json").write_text(json.dumps(
            {"entries": {"k3": {"v": 3}}, "schema": STORE_SCHEMA_VERSION},
            sort_keys=True) + "\n")
        # A document that lacks the name's own key holds no entry for it.
        (tmp_path / "k4.json").write_bytes(_group_document({"k1": {"v": 1}}))
        for key in ("k1", "k2", "k3", "k4"):
            assert store.get(key) is None

    def test_lru_bound_evicts_least_recently_used(self, tmp_path):
        store = DiskStore(tmp_path, max_entries=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        # Age the files deterministically: a older than b.
        os.utime(tmp_path / "a.json", (1000, 1000))
        os.utime(tmp_path / "b.json", (2000, 2000))
        store.get("a")               # refreshes a's mtime to "now"
        store.put("c", {"v": 3})     # evicts b (oldest mtime)
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert len(store) == 2

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskStore(tmp_path, max_entries=0)

    def test_clear_removes_entries_and_orphans(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("k1", {"v": 1})
        (tmp_path / "k2.json.tmp-1-ab").write_text("junk")
        store.clear()
        assert store.keys() == ()
        assert list(tmp_path.iterdir()) == []

    def test_satisfies_result_store_protocol(self, tmp_path):
        assert isinstance(DiskStore(tmp_path), ResultStore)
        assert isinstance(InMemoryStore(), ResultStore)


@pytest.fixture(params=["memory", "disk"])
def any_store(request, tmp_path):
    """Both store implementations, behavioral-parity tested."""
    if request.param == "memory":
        return InMemoryStore()
    return DiskStore(tmp_path)


class TestStoreAliasingParity:
    """Regression: InMemoryStore.get returned the cached entry dict
    itself, so a caller mutating the returned mapping silently
    corrupted the shared cache — diverging from DiskStore, which
    re-parses per read. Both stores must isolate callers."""

    @staticmethod
    def entry():
        # A fresh mapping per use: comparing against a shared constant
        # would alias through the very bug this class pins.
        return {"result": {"pipeline": "{}", "decisions": ["d"]},
                "provenance": {"producer": "analytic",
                               "created_at": 100.0}}

    def test_mutating_a_read_entry_does_not_corrupt_the_cache(self,
                                                              any_store):
        any_store.put("k", self.entry())
        first = any_store.get("k")
        first["provenance"]["created_at"] = -1.0
        first["result"]["decisions"].append("evil")
        del first["result"]["pipeline"]
        assert any_store.get("k") == self.entry()

    def test_mutating_the_put_mapping_does_not_reach_the_cache(self,
                                                               any_store):
        entry = {"result": {"x": 1}, "provenance": {"created_at": 5.0}}
        any_store.put("k", entry)
        entry["result"]["x"] = 999
        entry["provenance"]["created_at"] = -1.0
        assert any_store.get("k") == {"result": {"x": 1},
                                      "provenance": {"created_at": 5.0}}

    def test_reads_are_mutually_isolated(self, any_store):
        any_store.put("k", self.entry())
        a = any_store.get("k")
        b = any_store.get("k")
        a["result"]["decisions"].append("mine")
        assert b == self.entry()

    def test_mutating_a_put_many_group_does_not_reach_the_cache(self,
                                                                any_store):
        shared = self.entry()
        group = {"a": shared, "b": shared, "c": self.entry()}
        any_store.put_many(group)
        shared["result"]["decisions"].append("evil")
        group["c"]["provenance"]["created_at"] = -1.0
        group["d"] = self.entry()
        for key in ("a", "b", "c"):
            assert any_store.get(key) == self.entry()
        assert any_store.get("d") is None

    def test_batch_mates_are_mutually_isolated(self, any_store):
        shared = self.entry()
        any_store.put_many({"a": shared, "b": shared})
        any_store.get("a")["result"]["decisions"].append("mine")
        assert any_store.get("b") == self.entry()


def _dated(created_at):
    return {"result": {"v": 1},
            "provenance": {"producer": "analytic",
                           "created_at": created_at}}


class TestCompactGC:
    """Provenance-age GC properties, pinned identically on both stores:
    entries at/over the horizon are evicted, newer entries survive, the
    pass is idempotent, and undatable entries are never aged out."""

    def test_at_or_over_horizon_evicted_newer_survive(self, any_store):
        any_store.put("ancient", _dated(100.0))   # age 100
        any_store.put("boundary", _dated(150.0))  # age 50 == horizon
        any_store.put("fresh", _dated(190.0))     # age 10
        removed = any_store.compact(50, now=200.0)
        assert removed == 2
        assert any_store.get("ancient") is None
        assert any_store.get("boundary") is None  # at the horizon: out
        assert any_store.get("fresh") == _dated(190.0)
        assert len(any_store) == 1

    def test_idempotent_for_fixed_now(self, any_store):
        any_store.put("old", _dated(10.0))
        any_store.put("new", _dated(95.0))
        assert any_store.compact(60, now=100.0) == 1
        assert any_store.compact(60, now=100.0) == 0
        assert any_store.keys() == ("new",)

    def test_horizon_zero_evicts_every_dated_entry(self, any_store):
        any_store.put("a", _dated(100.0))
        any_store.put("b", _dated(200.0))
        assert any_store.compact(0, now=200.0) == 2
        assert len(any_store) == 0

    def test_undatable_entries_are_never_aged_out(self, any_store):
        undatable = {
            "no_provenance": {"result": {"v": 1}},
            "prov_not_dict": {"result": {}, "provenance": "analytic"},
            "stamp_missing": {"result": {}, "provenance": {}},
            "stamp_string": {"result": {},
                             "provenance": {"created_at": "2026-07-29"}},
            "stamp_bool": {"result": {},
                           "provenance": {"created_at": True}},
        }
        for key, entry in undatable.items():
            any_store.put(key, entry)
        any_store.put("dated", _dated(0.0))
        assert any_store.compact(0, now=1e9) == 1
        assert sorted(any_store.keys()) == sorted(undatable)

    def test_invalid_horizon_rejected(self, any_store):
        for bad in (-1, -0.5, float("nan")):
            with pytest.raises(ValueError, match="max_age_seconds"):
                any_store.compact(bad, now=0.0)

    def test_wallclock_default_now(self, any_store):
        """now=None falls back to wall clock: a just-written entry
        survives a generous horizon and dies under a zero horizon."""
        any_store.put("k", _dated(time.time()))
        assert any_store.compact(3600) == 0
        assert any_store.compact(0) == 1

    def test_disk_compact_ignores_corrupt_files(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("good", _dated(0.0))
        (tmp_path / "torn.json").write_text('{"schema": 1, "entry": {"re')
        assert store.compact(0, now=1e9) == 1
        # The torn file is not an entry; GC leaves it for clear().
        assert (tmp_path / "torn.json").exists()

    def test_disk_compact_does_not_refresh_lru_recency(self, tmp_path):
        """GC reads must not touch mtimes — compaction making every
        survivor look freshly used would break the LRU bound."""
        store = DiskStore(tmp_path)
        store.put("survivor", _dated(1e12))
        os.utime(tmp_path / "survivor.json", (1000, 1000))
        store.compact(3600, now=1e12)
        assert (tmp_path / "survivor.json").stat().st_mtime == 1000


def _distinct_fleet(n):
    """``n`` jobs, each its own template: ``n`` misses on a cold store."""
    return generate_pipeline_fleet(
        num_jobs=n, distinct=n, seed=11,
        config=FleetConfig(domain_weights={"vision": 1.0},
                           optimize_spec=FAST_SPEC),
    )


@pytest.fixture
def fsync_calls(monkeypatch):
    """Count every ``os.fsync`` while still syncing."""
    calls = []
    real = os.fsync

    def spy(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return calls


class TestGroupCommit:
    """DiskStore.put_many: one fsync'd document per commit, hard-linked
    under every key of the commit."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_one_fsync_per_optimize_fleet(self, tmp_path, fsync_calls, n):
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=DiskStore(tmp_path))
        report = svc.optimize_fleet(_distinct_fleet(n))
        assert report.cache_misses == n
        assert len(fsync_calls) == 1
        assert len(svc.store) == n
        # The names of the batch share one inode.
        inodes = {(tmp_path / f"{key}.json").stat().st_ino
                  for key in svc.store.keys()}
        assert len(inodes) == 1
        # An all-hit batch commits nothing.
        assert svc.optimize_fleet(_distinct_fleet(n)).cache_misses == 0
        assert len(fsync_calls) == 1

    def test_large_batch_commits_bounded_groups(self, tmp_path,
                                                fsync_calls, monkeypatch):
        n = 2 * DiskStore.GROUP_SIZE + 4
        fleet = _distinct_fleet(n)
        cold = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                              store=DiskStore(tmp_path)).optimize_fleet(fleet)
        assert cold.cache_misses == n
        assert len(fsync_calls) == 3   # one per group, not one per batch
        groups = {}
        for path in tmp_path.glob("*.json"):
            entries = json.loads(path.read_text())["entries"]
            assert path.stem in entries
            groups[path.stat().st_ino] = len(entries)
        assert sorted(groups.values()) == [4, 8, 8]
        # A warm restart decodes one entry per hit, not its whole group.
        decoded = []

        def spy(text):
            decoded.append(json.loads(text))
            return decoded[-1]

        monkeypatch.setattr(store_module, "json",
                            SimpleNamespace(loads=spy, dumps=json.dumps))
        warm = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                              store=DiskStore(tmp_path)).optimize_fleet(fleet)
        assert warm.cache_misses == 0
        assert len(decoded) == n
        assert all(set(doc) == {"result", "provenance"} for doc in decoded)

    def test_no_hard_links_fails_at_construction(self, tmp_path,
                                                 monkeypatch):
        def no_link(src, dst):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_link)
        with pytest.raises(OSError, match="hard links"):
            DiskStore(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_put_many_empty_is_a_no_op(self, tmp_path, fsync_calls):
        store = DiskStore(tmp_path)
        store.put_many({})
        assert fsync_calls == []
        assert list(tmp_path.iterdir()) == []
        memory = InMemoryStore()
        memory.put_many({})
        assert len(memory) == 0

    def test_invalid_key_writes_nothing(self, tmp_path, fsync_calls):
        store = DiskStore(tmp_path)
        with pytest.raises(ValueError):
            store.put_many({"good": {"v": 1}, "../bad": {"v": 2}})
        assert fsync_calls == []
        assert list(tmp_path.iterdir()) == []

    def test_publish_failure_keeps_published_keys(self, tmp_path,
                                                  monkeypatch):
        store = DiskStore(tmp_path)
        store.put("c", {"v": "old"})
        real = os.replace
        published = []

        def flaky(src, dst):
            if published:
                raise OSError("disk went away")
            real(src, dst)
            published.append(dst)

        monkeypatch.setattr(os, "replace", flaky)
        with pytest.raises(OSError, match="disk went away"):
            store.put_many({"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}})
        monkeypatch.setattr(os, "replace", real)
        assert store.get("a") == {"v": 1}
        assert store.get("b") is None
        assert store.get("c") == {"v": "old"}   # the old entry survives
        # No temp file is readable as an entry, and none is left over.
        assert store.keys() == ("a", "c")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "c.json"]
        store.clear()
        assert list(tmp_path.iterdir()) == []

    def test_torn_group_is_a_miss_for_every_batch_mate(self, tmp_path):
        fleet = _distinct_fleet(4)
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=DiskStore(tmp_path))
        first = svc.optimize_fleet(fleet)
        # Writing through one name truncates the inode all four share.
        path = tmp_path / f"{svc.store.keys()[0]}.json"
        path.write_text(path.read_text()[:40])
        store = DiskStore(tmp_path)
        assert all(store.get(key) is None for key in store.keys())
        again = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                               store=store).optimize_fleet(fleet)
        assert again.cache_misses == 4
        assert [j.pipeline_json for j in again.jobs] == \
               [j.pipeline_json for j in first.jobs]
        assert all(store.get(key) is not None for key in store.keys())

    def test_damaged_line_is_a_miss_for_its_key_only(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put_many({"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}})
        path = tmp_path / "b.json"
        data = path.read_bytes()
        # Same length, so the document keeps its tail: not torn.
        damaged = data.replace(b'"b": {"v": 2}', b'"b": {"v": ?}')
        assert len(damaged) == len(data) and damaged != data
        path.write_bytes(damaged)   # through the shared inode
        assert store.get("a") == {"v": 1}
        assert store.get("b") is None
        assert store.get("c") == {"v": 3}

    def test_overwriting_one_key_keeps_its_batch_mates(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put_many({"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}})
        assert (tmp_path / "a.json").stat().st_nlink == 3
        store.put("b", {"v": 20})
        assert store.get("a") == {"v": 1}
        assert store.get("b") == {"v": 20}
        assert store.get("c") == {"v": 3}
        # The old group keeps one link per remaining name.
        assert (tmp_path / "a.json").stat().st_nlink == 2
        assert (tmp_path / "b.json").stat().st_nlink == 1

    def test_hit_refreshes_the_whole_group(self, tmp_path):
        store = DiskStore(tmp_path, max_entries=3)
        store.put_many({"a": {"v": 1}, "b": {"v": 2}})
        store.put("c", {"v": 3})
        os.utime(tmp_path / "a.json", (1000, 1000))   # the a+b group
        os.utime(tmp_path / "c.json", (2000, 2000))
        assert (tmp_path / "b.json").stat().st_mtime == 1000
        store.get("a")   # refreshes b too: one inode
        store.put("d", {"v": 4})   # evicts c, the least recently used
        assert store.keys() == ("a", "b", "d")


class TestCompactStoreOnService:
    def test_compact_store_uses_the_injected_clock(self, tmp_path):
        tick = [100.0]
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=DiskStore(tmp_path),
                             clock=lambda: tick[0])
        svc.optimize_fleet(make_fleet())   # provenance stamped at t=100
        entries = len(svc.store)
        tick[0] = 250.0
        assert svc.compact_store(200) == 0        # age 150 < 200
        assert svc.compact_store(150) == entries  # age 150 >= 150
        assert len(svc.store) == 0

    def test_explicit_now_overrides_clock(self):
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             clock=lambda: 0.0)
        svc.store.put("k", {"result": {}, "provenance": {"created_at": 50.0}})
        assert svc.compact_store(10, now=100.0) == 1

    def test_store_without_compact_raises_type_error(self):
        class NoCompact:
            def get(self, key):
                return None

            def put(self, key, entry):
                pass

            def keys(self):
                return ()

            def __len__(self):
                return 0

        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=NoCompact())
        with pytest.raises(TypeError, match="compact"):
            svc.compact_store(60)


class TestBatchOptimizerWithDiskStore:
    def test_warm_restart_same_process(self, tmp_path):
        fleet = make_fleet()
        first = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                               store=DiskStore(tmp_path))
        r1 = first.optimize_fleet(fleet)
        assert r1.cache_misses == 3
        # A second service instance shares nothing but the directory.
        second = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                                store=DiskStore(tmp_path))
        r2 = second.optimize_fleet(fleet)
        assert r2.cache_misses == 0
        assert r2.cache_hit_rate == 1.0

    def test_provenance_recorded_with_injected_clock(self, tmp_path):
        fleet = make_fleet()
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=DiskStore(tmp_path),
                             clock=lambda: 1234.5)
        report = svc.optimize_fleet(fleet[:1])
        prov = report.jobs[0].provenance
        assert prov["created_at"] == 1234.5
        assert prov["producer"] == "analytic"
        assert prov["spec"] == FAST_SPEC.cache_token()

    def test_corrupt_entry_recomputed_not_fatal(self, tmp_path):
        fleet = make_fleet()
        store = DiskStore(tmp_path)
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC, store=store)
        svc.optimize_fleet(fleet)
        # Tear one key: replace its name with a truncated copy. Writing
        # through the name would truncate the inode its batch-mates share.
        victim = store.keys()[0]
        _tear_name(tmp_path / f"{victim}.json")
        again = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                               store=DiskStore(tmp_path))
        report = again.optimize_fleet(fleet)
        # Only the corrupted key was recomputed; everything else hit.
        assert report.cache_misses == 1
        assert report.cache_hit_rate == pytest.approx(9 / 10)

    def test_cache_hit_rate_from_second_fresh_process(self, tmp_path):
        """Acceptance: an unchanged fleet optimized from a *separate
        process* against the same store directory reports >= 90% cache
        hits — keys (structural signature + machine fingerprint + spec
        token) are stable across process boundaries."""
        fleet = make_fleet()
        svc = BatchOptimizer(executor="serial", spec=FAST_SPEC,
                             store=DiskStore(tmp_path))
        svc.optimize_fleet(fleet)
        script = textwrap.dedent(f"""
            from repro.core.spec import OptimizeSpec
            from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
            from repro.service import BatchOptimizer, DiskStore

            spec = OptimizeSpec(iterations=1, backend="analytic",
                                trace_duration=1.0, trace_warmup=0.25)
            fleet = generate_pipeline_fleet(
                num_jobs=10, distinct=3, seed=3,
                config=FleetConfig(domain_weights={{"vision": 1.0}},
                                   optimize_spec=spec),
            )
            svc = BatchOptimizer(executor="serial", spec=spec,
                                 store=DiskStore({str(tmp_path)!r}))
            report = svc.optimize_fleet(fleet)
            print(report.cache_hit_rate)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        hit_rate = float(out.stdout.strip().splitlines()[-1])
        assert hit_rate >= 0.9
        assert hit_rate == 1.0  # unchanged fleet: every key is served
