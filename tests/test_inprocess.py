"""Tests for the real in-process executor."""

import numpy as np
import pytest

from repro.graph.builder import from_tfrecords
from repro.graph.udf import UserFunction
from repro.inprocess.executor import InProcessError, materialize
from repro.io.filesystem import FileCatalog
from tests.conftest import make_udf


@pytest.fixture
def tiny_catalog():
    return FileCatalog("tiny", num_files=4, records_per_file=8.0,
                       bytes_per_record=100.0, size_cv=0.0, seed=0)


def double_udf():
    return make_udf("double", fn=lambda x: (x[0], x[1] * 2))


class TestSemantics:
    def test_source_emits_all_records(self, tiny_catalog):
        pipe = from_tfrecords(tiny_catalog, name="src").build("p")
        out = materialize(pipe)
        assert len(out) == tiny_catalog.total_records
        assert set(out) == {
            (f, r) for f in range(4) for r in range(8)
        }

    def test_interleave_mixes_files(self, tiny_catalog):
        pipe = from_tfrecords(tiny_catalog, parallelism=4, name="src").build("p")
        out = materialize(pipe, limit=4)
        # Cycle length 4: the first four records come from four files.
        assert {f for f, _ in out} == {0, 1, 2, 3}

    def test_map_applies_fn(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .map(double_udf(), name="m")
            .build("p")
        )
        out = materialize(pipe, limit=5)
        assert all(v % 2 == 0 for _, v in out)

    def test_map_without_fn_raises(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .map(make_udf("nofn"), name="m")
            .build("p")
        )
        with pytest.raises(InProcessError, match="no Python fn"):
            materialize(pipe, limit=1)

    def test_filter_keeps_matching(self, tiny_catalog):
        keep_even = make_udf("even", fn=lambda x: x[1] % 2 == 0)
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .filter(keep_even, name="f")
            .build("p")
        )
        out = materialize(pipe)
        assert len(out) == tiny_catalog.total_records // 2
        assert all(v % 2 == 0 for _, v in out)

    def test_batch_groups_and_drops_remainder(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src").batch(5, name="b").build("p")
        )
        out = materialize(pipe)
        assert len(out) == tiny_catalog.total_records // 5
        assert all(len(b) == 5 for b in out)

    def test_batch_keep_remainder(self, tiny_catalog):
        from repro.graph.datasets import BatchNode, Pipeline

        src = from_tfrecords(tiny_catalog, name="src").node
        pipe = Pipeline(BatchNode("b", src, 5, drop_remainder=False))
        out = materialize(pipe)
        assert sum(len(b) for b in out) == tiny_catalog.total_records

    def test_batch_stacks_arrays(self, tiny_catalog):
        to_array = make_udf("arr", fn=lambda x: np.full(3, x[1]))
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .map(to_array, name="m")
            .batch(4, name="b")
            .build("p")
        )
        out = materialize(pipe, limit=2)
        assert out[0].shape == (4, 3)

    def test_shuffle_permutes_deterministically(self, tiny_catalog):
        def build(seed):
            return (
                from_tfrecords(tiny_catalog, name="src")
                .shuffle(16, seed=seed, name="s")
                .build("p")
            )

        a = materialize(build(1))
        b = materialize(build(1))
        c = materialize(build(2))
        assert a == b
        assert a != c
        assert sorted(a) == sorted(c)  # same multiset

    def test_repeat_bounded(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src").repeat(2, name="r").build("p")
        )
        assert len(materialize(pipe)) == 2 * tiny_catalog.total_records

    def test_repeat_unbounded_streams(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .repeat(None, name="r")
            .build("p")
        )
        out = materialize(pipe, limit=3 * tiny_catalog.total_records)
        assert len(out) == 3 * tiny_catalog.total_records

    def test_take_truncates(self, tiny_catalog):
        pipe = from_tfrecords(tiny_catalog, name="src").take(7, name="t").build("p")
        assert len(materialize(pipe)) == 7

    def test_cache_replays_identically(self, tiny_catalog):
        calls = []

        def record(x):
            calls.append(x)
            return x

        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .map(make_udf("spy", fn=record), name="m")
            .cache(name="c")
            .repeat(2, name="r")
            .build("p")
        )
        out = materialize(pipe)
        # The repeat re-opens the cache, which replays its stored pass:
        # two epochs of output from one pass of the UDF.
        assert out == calls + calls
        assert len(calls) == tiny_catalog.total_records

    def test_cache_store_is_per_run(self, tiny_catalog):
        calls = []

        def record(x):
            calls.append(x)
            return x

        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .map(make_udf("spy", fn=record), name="m")
            .cache(name="c")
            .repeat(2, name="r")
            .build("p")
        )
        assert materialize(pipe) == materialize(pipe)
        assert len(calls) == 2 * tiny_catalog.total_records

    def test_prefetch_is_transparent(self, tiny_catalog):
        pipe = (
            from_tfrecords(tiny_catalog, name="src")
            .prefetch(4, name="pf")
            .build("p")
        )
        assert len(materialize(pipe)) == tiny_catalog.total_records
