"""Tests for synthetic file catalogs."""

import numpy as np
import pytest

from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.io.filesystem import FileCatalog, FileStat


class TestFileCatalog:
    def test_deterministic_for_seed(self):
        a = FileCatalog("d", 32, 100.0, 1000.0, seed=5)
        b = FileCatalog("d", 32, 100.0, 1000.0, seed=5)
        assert [f.size_bytes for f in a] == [f.size_bytes for f in b]

    def test_different_seeds_differ(self):
        a = FileCatalog("d", 32, 100.0, 1000.0, seed=5)
        b = FileCatalog("d", 32, 100.0, 1000.0, seed=6)
        assert [f.size_bytes for f in a] != [f.size_bytes for f in b]

    def test_totals_consistent(self):
        cat = FileCatalog("d", 64, 200.0, 500.0, seed=1)
        assert cat.total_bytes == pytest.approx(
            sum(f.size_bytes for f in cat.files)
        )
        assert cat.total_records == sum(f.num_records for f in cat.files)

    @pytest.mark.parametrize("seed,size_cv", [
        (0, 0.0), (1, 0.05), (7, 0.15), (42, 0.3), (123, 1.0)])
    def test_totals_bit_equal_to_per_file_sums(self, seed, size_cv):
        """The totals come from the generated arrays without building
        the file list, and equal the per-FileStat sums exactly."""
        cat = FileCatalog("d", 257, 331.0, 1234.5, size_cv=size_cv,
                          seed=seed)
        total_bytes, total_records = cat.total_bytes, cat.total_records
        assert cat._files is None
        assert total_bytes == float(sum(f.size_bytes for f in cat.files))
        assert total_records == int(sum(f.num_records for f in cat.files))

    def test_analytic_optimize_leaves_file_lists_unbuilt(self):
        fleet = generate_pipeline_fleet(
            num_jobs=10, distinct=10, seed=11,
            config=FleetConfig(domain_weights={
                "vision": 1.0, "nlp": 1.0, "rl": 1.0, "multimodal": 1.0,
                "rl_replay": 1.0}),
        )
        spec = OptimizeSpec(backend="analytic")
        for job in fleet:
            Plumber(job.machine, spec=spec).optimize(job.pipeline)
            catalogs = [s.catalog for s in job.pipeline.sources()]
            assert catalogs
            assert all(c._files is None for c in catalogs), job.name

    def test_mean_size_near_request(self):
        cat = FileCatalog("d", 500, 1000.0, 100.0, size_cv=0.2, seed=2)
        mean_records = cat.total_records / cat.num_files
        assert mean_records == pytest.approx(1000.0, rel=0.05)
        assert cat.mean_bytes_per_record == pytest.approx(100.0)

    def test_zero_cv_is_uniform(self):
        cat = FileCatalog("d", 8, 100.0, 50.0, size_cv=0.0)
        sizes = {f.size_bytes for f in cat}
        assert len(sizes) == 1

    def test_size_variation_matches_cv(self):
        cat = FileCatalog("d", 2000, 1000.0, 100.0, size_cv=0.3, seed=3)
        sizes = np.array([f.size_bytes for f in cat])
        cv = sizes.std() / sizes.mean()
        assert cv == pytest.approx(0.3, rel=0.15)

    def test_scaled_preserves_per_file_stats(self):
        cat = FileCatalog("d", 100, 100.0, 1000.0, seed=1)
        half = cat.scaled(0.5)
        assert half.num_files == 50
        assert half.bytes_per_record == cat.bytes_per_record
        assert half.records_per_file == cat.records_per_file

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FileCatalog("d", 8, 10.0, 10.0).scaled(0.0)

    def test_round_trip(self):
        cat = FileCatalog("d", 17, 123.0, 456.0, size_cv=0.05, seed=9)
        restored = FileCatalog.from_dict(cat.to_dict())
        assert restored.total_bytes == cat.total_bytes
        assert restored.name == "d"

    def test_validation(self):
        with pytest.raises(ValueError):
            FileCatalog("d", 0, 10.0, 10.0)
        with pytest.raises(ValueError):
            FileCatalog("d", 1, 0.0, 10.0)
        with pytest.raises(ValueError):
            FileCatalog("d", 1, 10.0, -1.0)

    def test_filestat_bytes_per_record(self):
        f = FileStat("x", 1000.0, 10)
        assert f.bytes_per_record == 100.0
        assert FileStat("y", 0.0, 0).bytes_per_record == 0.0

    def test_len_and_iter(self):
        cat = FileCatalog("d", 5, 10.0, 10.0)
        assert len(cat) == 5
        assert len(list(cat)) == 5


class TestCatalogPresets:
    def test_imagenet_statistics(self):
        from repro.io.catalogs import imagenet_catalog

        cat = imagenet_catalog()
        assert cat.num_files == 1024
        # ~148 GB and ~1.2M images (§D).
        assert cat.total_bytes == pytest.approx(148e9, rel=0.07)
        assert cat.total_records == pytest.approx(1.2e6, rel=0.07)

    def test_coco_statistics(self):
        from repro.io.catalogs import coco_catalog

        cat = coco_catalog()
        assert cat.total_bytes == pytest.approx(20e9, rel=0.1)

    def test_wmt_statistics(self):
        from repro.io.catalogs import wmt16_catalog, wmt17_catalog

        assert wmt17_catalog().total_bytes == pytest.approx(1.2e9, rel=0.1)
        assert wmt16_catalog().total_bytes == pytest.approx(1.9e9, rel=0.1)

    def test_imagenet_validation_smaller(self):
        from repro.io.catalogs import imagenet_validation_catalog

        cat = imagenet_validation_catalog()
        assert cat.total_records == pytest.approx(50_000, rel=0.1)
