"""Tests for machines, disk specs, and memory budgets."""

import pytest

from repro.host.disk import (
    DiskSpec,
    cloud_storage,
    hdd_st4000,
    nvme_p3600,
    token_bucket,
)
from repro.host.machine import Machine, setup_a, setup_b, setup_c
from repro.host.memory import MemoryBudget, MemoryError_


class TestDiskSpec:
    def test_flat_token_bucket(self):
        spec = token_bucket(100e6)
        assert spec.bandwidth(1) == 100e6
        assert spec.bandwidth(64) == 100e6
        assert spec.max_bandwidth == 100e6

    def test_interpolation(self):
        spec = DiskSpec("d", curve=((1.0, 100.0), (3.0, 300.0)))
        assert spec.bandwidth(2.0) == pytest.approx(200.0)
        assert spec.bandwidth(10.0) == 300.0  # flat beyond last point
        assert spec.bandwidth(0) == 0.0

    def test_rejects_decreasing_curve(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            DiskSpec("d", curve=((1.0, 200.0), (2.0, 100.0)))

    def test_rejects_convex_curve(self):
        with pytest.raises(ValueError, match="concave"):
            DiskSpec("d", curve=((1.0, 10.0), (2.0, 11.0), (3.0, 50.0)))

    def test_segments_cover_curve(self):
        spec = DiskSpec("d", curve=((1.0, 100.0), (4.0, 400.0), (8.0, 440.0)))
        segs = spec.segments()
        for streams in (1.0, 2.0, 4.0, 6.0, 8.0, 20.0):
            fitted = min(s * streams + c for s, c in segs)
            assert fitted == pytest.approx(spec.bandwidth(streams), rel=1e-6)

    def test_round_trip(self):
        spec = cloud_storage()
        restored = DiskSpec.from_dict(spec.to_dict())
        assert restored.curve == spec.curve
        assert restored.read_latency == spec.read_latency

    def test_presets_ordering(self):
        # NVMe >> HDD; cloud needs many streams to saturate.
        assert nvme_p3600().max_bandwidth > 5 * hdd_st4000().max_bandwidth
        cloud = cloud_storage()
        assert cloud.bandwidth(1) < cloud.max_bandwidth / 5


class TestMachine:
    def test_presets_match_paper(self):
        a, b, c = setup_a(), setup_b(), setup_c()
        assert a.cores == 16
        assert b.cores == 32
        assert c.cores == 96
        assert c.memory_bytes == pytest.approx(300e9)
        # Setup B's per-core speed is lower than A's (§5.1).
        assert b.core_speed < a.core_speed

    def test_with_helpers_do_not_mutate(self):
        a = setup_a()
        b = a.with_cores(48)
        assert a.cores == 16 and b.cores == 48
        d = a.with_disk(token_bucket(1e6))
        assert d.disk.max_bandwidth == 1e6 and a.disk.max_bandwidth != 1e6
        m = a.with_memory(1e9)
        assert m.memory_bytes == 1e9

    def test_cpu_seconds_scaling(self):
        m = Machine("m", cores=4, core_speed=0.5)
        assert m.cpu_seconds(1.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine("m", cores=0)
        with pytest.raises(ValueError):
            Machine("m", cores=1, core_speed=0.0)
        with pytest.raises(ValueError):
            Machine("m", cores=1, memory_bytes=-1.0)


class TestMemoryBudget:
    def test_reserve_and_release(self):
        budget = MemoryBudget(100.0, headroom_fraction=0.0)
        budget.reserve("a", 60.0)
        assert budget.available_bytes == pytest.approx(40.0)
        assert budget.release("a") == 60.0
        assert budget.available_bytes == pytest.approx(100.0)

    def test_headroom_respected(self):
        budget = MemoryBudget(100.0, headroom_fraction=0.2)
        assert budget.usable_bytes == pytest.approx(80.0)
        assert not budget.fits(90.0)
        assert budget.fits(80.0)

    def test_over_reservation_raises(self):
        budget = MemoryBudget(100.0, headroom_fraction=0.0)
        budget.reserve("a", 80.0)
        with pytest.raises(MemoryError_, match="exceeds"):
            budget.reserve("b", 30.0)

    def test_duplicate_key_raises(self):
        budget = MemoryBudget(100.0)
        budget.reserve("a", 10.0)
        with pytest.raises(MemoryError_, match="already"):
            budget.reserve("a", 10.0)

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            MemoryBudget(10.0).release("ghost")
