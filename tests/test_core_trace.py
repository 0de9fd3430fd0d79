"""Tests for the trace file format."""

import pytest

from repro.core.trace import HostInfo, PipelineTrace
from repro.runtime.executor import run_pipeline


@pytest.fixture
def trace(simple_pipeline, test_machine):
    result = run_pipeline(simple_pipeline, test_machine, duration=2.0, warmup=0.5)
    return PipelineTrace.from_run(result)


class TestTrace:
    def test_from_run_captures_throughput(self, trace):
        assert trace.root_throughput > 0
        assert trace.measured_seconds == pytest.approx(1.5, rel=0.01)

    def test_host_info_matches_machine(self, trace, test_machine):
        assert trace.host.cores == test_machine.cores
        assert trace.host.memory_bytes == test_machine.memory_bytes
        assert trace.host.disk.max_bandwidth == test_machine.disk.max_bandwidth

    def test_trace_is_a_valid_program(self, trace, simple_pipeline):
        rebuilt = trace.pipeline
        assert [n.name for n in rebuilt.topological_order()] == [
            n.name for n in simple_pipeline.topological_order()
        ]

    def test_json_round_trip(self, trace):
        restored = PipelineTrace.from_json(trace.to_json())
        assert restored.root_throughput == pytest.approx(trace.root_throughput)
        assert restored.measured_seconds == trace.measured_seconds
        assert set(restored.stats) == set(trace.stats)
        for name in trace.stats:
            assert restored.stats[name].elements_produced == pytest.approx(
                trace.stats[name].elements_produced
            )
            assert restored.stats[name].cpu_core_seconds == pytest.approx(
                trace.stats[name].cpu_core_seconds
            )

    def test_stats_struct_is_small(self, trace):
        """The paper's counter struct is <144 bytes; our serialized
        numeric payload per node stays in that ballpark (excluding the
        bounded file-size list)."""
        for stats in trace.stats.values():
            payload = {
                k: v for k, v in stats.to_dict().items()
                if k != "files_seen_sizes" and isinstance(v, (int, float, bool))
            }
            assert 8 * len(payload) <= 144
