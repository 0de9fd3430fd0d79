"""Tests for the closed-form model's steady-state caps and per-node
element sizes, and for text tables."""

import pytest

from repro.analysis.tables import format_table
from repro.graph.builder import from_tfrecords
from repro.graph.udf import UserFunction
from repro.host.machine import setup_a
from repro.runtime.analytic import _fill_models, fill_caps
from repro.runtime.executor import run_pipeline
from tests.conftest import make_udf, served_caps
from tests.engine_equivalence import _filter_drop


def _bound(caps):
    """(binding label, root rate) of a cap table."""
    label = min(caps, key=caps.get)
    return label, caps[label]


def _assert_simulated(pipe, machine, predicted, rel, **run):
    """The simulator's throughput is within ``rel`` of ``predicted``."""
    simulated = run_pipeline(pipe, machine, **run)
    assert simulated.throughput == pytest.approx(predicted, rel=rel)


class TestSteadyState:
    """The analytic model's whole-chain caps against the simulator."""

    def test_matches_simulator_on_cpu_bound(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("w", cpu=1e-3), parallelism=4, name="m")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("p")
        )
        _, predicted = _bound(fill_caps(pipe, test_machine))
        _assert_simulated(pipe, test_machine, predicted, 0.1,
                          duration=3.0, warmup=0.5)

    def test_matches_simulator_on_dropping_filter(self):
        """A filter keeping 35% of its input is charged for every element
        it consumes (a per-output charge overrates it ~2.9x)."""
        machine = setup_a()
        pipe = _filter_drop(0)
        _, predicted = _bound(fill_caps(pipe, machine))
        _assert_simulated(pipe, machine, predicted, 0.1,
                          duration=2.0, warmup=0.5)

    def test_matches_simulator_on_disk_bound(self, small_catalog, test_machine):
        from repro.host.disk import token_bucket

        slow = test_machine.with_disk(token_bucket(2e6))
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("io")
        )
        caps = fill_caps(pipe, slow)
        # Only the rate is pinned, not the label: the source stage's cap
        # includes its workers' disk wait, so today it sits just under
        # the disk cap and binds in its place.
        _, predicted = _bound(caps)
        assert predicted == pytest.approx(caps["disk"], rel=0.01)
        # Long window: block-buffered readers deliver in ~0.5 s bursts.
        _assert_simulated(pipe, slow, predicted, 0.12,
                          duration=30.0, warmup=3.0)

    def test_sequential_stage_binds(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=4, name="src")
            .map(make_udf("w", cpu=1e-5), parallelism=4, name="m")
            .shuffle(16, cpu_seconds_per_element=1e-3, name="shuf")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("seq")
        )
        bottleneck, _ = _bound(fill_caps(pipe, test_machine))
        assert bottleneck == "stage:shuf"

    def test_consumer_cap(self, simple_pipeline, test_machine):
        caps = fill_caps(simple_pipeline, test_machine,
                         consumer_step_seconds=1.0)
        bottleneck, rate = _bound(caps)
        assert rate == pytest.approx(1.0)
        assert bottleneck == "consumer"

    def test_cached_waives_upstream_and_disk(self, small_catalog, test_machine):
        """A served cache frees its subtree and the disk bound; the fill
        regime (what :func:`fill_caps` reports) pays for both."""
        pipe = (
            from_tfrecords(small_catalog, parallelism=1, name="src")
            .map(make_udf("slow", cpu=1e-2), parallelism=1, name="m")
            .cache(name="c")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("cached")
        )
        cold = fill_caps(pipe, test_machine)
        served = served_caps(pipe, test_machine, {"c"})
        assert served_caps(pipe, test_machine, set()) == cold
        assert _bound(served)[1] > _bound(cold)[1] * 10
        assert {"stage:m", "stage:src", "disk"} <= set(cold)
        assert not {"stage:m", "stage:src", "disk"} & set(served)

    @pytest.mark.parametrize("stages, root_bytes", [
        pytest.param(lambda d: d.map(make_udf("decode", size_ratio=6.0)),
                     lambda b: 6.0 * b, id="decode_amplifies"),
        pytest.param(lambda d: d.filter(make_udf("f"), keep_fraction=0.5),
                     lambda b: b, id="filter_keeps"),
        pytest.param(lambda d: d.batch(32),
                     lambda b: 32 * b, id="batch_multiplies"),
        pytest.param(lambda d: d.map(UserFunction("crop", output_bytes=1234.0)),
                     lambda b: 1234.0, id="fixed_output_bytes"),
        pytest.param(lambda d: d.map(make_udf("decode", size_ratio=2.0))
                     .batch(16),
                     lambda b: 32 * b, id="decode_then_batch"),
    ])
    def test_fill_model_bytes(self, small_catalog, test_machine, stages,
                              root_bytes):
        """Element sizes propagate from the catalog's record size through
        each node's byte rule (§A)."""
        pipe = stages(from_tfrecords(small_catalog, name="src")).build("p")
        models = {m.node.name: m for m in _fill_models(pipe, test_machine)}
        record = small_catalog.mean_bytes_per_record
        assert models["src"].bytes_per_element == pytest.approx(record)
        assert models[pipe.root.name].bytes_per_element == pytest.approx(
            root_bytes(record)
        )


class TestTables:
    def test_alignment_and_content(self):
        out = format_table(
            ("name", "value"), [("a", 1.0), ("long_name", 123456.0)],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "123,456" in out

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(("a", "b"), [(1,)])
