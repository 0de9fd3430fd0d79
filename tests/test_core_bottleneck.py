"""Tests for bottleneck ranking and the sequential tuner (§5.1)."""

import pytest

from repro.core.bottleneck import (
    SequentialTuner,
    local_estimate,
    rank_bottlenecks,
    throughput_estimates,
)
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from tests.test_core_lp import two_stage_pipeline
from tests.test_core_rates import model_of


class TestRanking:
    def test_heavy_map_ranked_first(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        ranked = rank_bottlenecks(model)
        assert ranked[0].name == "m_heavy"
        scaled = [r.scaled_rate for r in ranked]
        assert scaled == sorted(scaled)

    def test_parallelism_changes_ranking(self, small_catalog, test_machine):
        from repro.core.rewriter import set_parallelism

        pipe = two_stage_pipeline(small_catalog)
        # m_heavy is 10x m_cheap per element: at p=16 its aggregate rate
        # exceeds the cheap map's p=1 rate and the ranking must flip.
        boosted = set_parallelism(pipe, {"m_heavy": 16})
        model = model_of(boosted, test_machine)
        ranked = rank_bottlenecks(model)
        assert ranked[0].name == "m_cheap"


class TestEstimates:
    def test_local_cannot_see_past_next_bottleneck(
        self, small_catalog, test_machine
    ):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        local = local_estimate(model)
        # Boosting only m_heavy leaves m_cheap's current cap binding.
        assert local <= model.rates["m_cheap"].scaled_rate * 1.05

    def test_lp_exceeds_local_from_naive_start(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        report = throughput_estimates(model)
        assert report.lp_estimate >= report.local_estimate * 0.99
        assert report.bottleneck.name == "m_heavy"


class TestSequentialTuner:
    def test_converges_toward_lp_throughput(self, small_catalog, test_machine):
        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(trace_duration=1.5,
                                            trace_warmup=0.3))

        tuner = SequentialTuner(plumber.model, core_budget=test_machine.cores)
        pipe = two_stage_pipeline(small_catalog)
        observed = []
        for _ in range(10):
            pipe, model = tuner.step(pipe)
            observed.append(model.observed_throughput)
        # Throughput improves substantially over the naive start.
        assert observed[-1] > observed[0] * 2
        # The tuner spent most steps on the heavy map.
        heavy_steps = tuner.history.count("m_heavy")
        assert heavy_steps >= tuner.history.count("m_cheap")

    def test_respects_core_budget(self, small_catalog, test_machine):
        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(trace_duration=1.0,
                                            trace_warmup=0.2))
        tuner = SequentialTuner(plumber.model, core_budget=6)
        pipe = two_stage_pipeline(small_catalog)
        for _ in range(12):
            pipe, _ = tuner.step(pipe)
        total = sum(n.effective_parallelism for n in pipe.tunables())
        assert total <= 6
        assert "<budget>" in tuner.history
