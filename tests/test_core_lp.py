"""Tests for the Plumber LP (§4.3)."""

import math

import pytest

from repro.core.lp import solve_allocation
from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from tests.conftest import make_udf
from tests.test_core_rates import model_of


def two_stage_pipeline(catalog, cheap=1e-4, expensive=1e-3):
    return (
        from_tfrecords(catalog, parallelism=2, name="src")
        .map(make_udf("cheap", cpu=cheap), parallelism=1, name="m_cheap")
        .map(make_udf("heavy", cpu=expensive), parallelism=1, name="m_heavy")
        .batch(16, name="b")
        .prefetch(4, name="pf")
        .repeat(None, name="r")
        .build("two_stage")
    )


class TestLP:
    def test_allocates_proportional_to_cost(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        # The 10x-more-expensive map should get ~10x the cores.
        ratio = sol.theta["m_heavy"] / sol.theta["m_cheap"]
        assert ratio == pytest.approx(10.0, rel=0.15)

    def test_throughput_bounded_by_cores(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        # Upper bound: cores / (cpu-seconds per minibatch).
        per_mb = 16 * (1e-4 + 1e-3)
        assert sol.predicted_throughput <= test_machine.cores / per_mb * 1.05
        assert sol.predicted_throughput > 0

    def test_theta_sums_within_budget(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        assert sum(sol.theta.values()) <= test_machine.cores * (1 + 1e-6)

    def test_sequential_nodes_capped_at_one(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .shuffle(64, cpu_seconds_per_element=1e-4, name="shuf")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("seq")
        )
        model = model_of(pipe, test_machine)
        sol = solve_allocation(model)
        assert sol.theta["shuf"] <= 1.0 + 1e-9

    def test_core_budget_parameter(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        full = solve_allocation(model, cores=8)
        half = solve_allocation(model, cores=4)
        assert half.predicted_throughput == pytest.approx(
            full.predicted_throughput / 2, rel=0.05
        )

    def test_rejects_nonpositive_budget(self, small_catalog, test_machine):
        from repro.core.lp import LPError

        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        # Non-finite budgets too: the closed form would return NaN or inf.
        for cores in (0, -1.0, math.nan, math.inf):
            with pytest.raises(LPError):
                solve_allocation(model, cores=cores)

    def test_disk_constraint_binds(self, small_catalog, test_machine):
        from repro.host.disk import token_bucket

        slow = test_machine.with_disk(token_bucket(1e6))  # 1 MB/s
        pipe = two_stage_pipeline(small_catalog)
        model = model_of(pipe, slow)
        sol = solve_allocation(model)
        # 16 x 10 KB per minibatch at 1 MB/s -> ~6.25 mb/s ceiling.
        assert sol.predicted_throughput <= 6.25 * 1.1
        assert sol.bottleneck.startswith("disk:")

    def test_io_streams_minimal(self, small_catalog, test_machine):
        """Degeneracy penalty keeps stream vars off their upper bound."""
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        for streams in sol.io_streams.values():
            assert streams < 64

    def test_bottleneck_is_heavy_map(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        assert sol.bottleneck == "m_heavy"

    def test_prediction_bounded_vs_observation(self, small_catalog, test_machine):
        """Obs. 4: the LP bound is an over-estimate but within ~2x once
        contention is visible (naive start: within ~4x)."""
        from repro.core.plumber import Plumber

        pipe = two_stage_pipeline(small_catalog)
        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(passes=("parallelism",),
                                            iterations=2,
                                            trace_duration=2.0,
                                            trace_warmup=0.5))
        res = plumber.optimize(pipe)
        observed = res.model.observed_throughput
        predicted = solve_allocation(res.model).predicted_throughput
        assert predicted >= observed * 0.95
        assert predicted <= observed * 2.0


class TestParallelismPlan:
    def test_plan_is_integral_and_positive(self, small_catalog, test_machine):
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        plan = sol.parallelism_plan(model)
        for name, p in plan.items():
            assert isinstance(p, int) and p >= 1, name

    def test_allocate_remaining_boosts_bottleneck(
        self, small_catalog, test_machine
    ):
        """The bottleneck gets at least its ``ceil(θ)`` plus whatever
        cores the rest of the plan leaves over, within the budget."""
        model = model_of(two_stage_pipeline(small_catalog), test_machine)
        sol = solve_allocation(model)
        plan = sol.parallelism_plan(model)
        assert sol.bottleneck == "m_heavy"
        assert plan["m_heavy"] >= math.ceil(sol.theta["m_heavy"] - 1e-9)
        assert sum(plan.values()) <= test_machine.cores + len(plan)

    def test_leftover_accounts_for_sequential_theta(
        self, small_catalog, test_machine
    ):
        """Regression: leftover-core handout must subtract θ consumed by
        sequential (non-tunable) CPU nodes, or the bottleneck is granted
        cores the machine doesn't have."""
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("heavy", cpu=1e-3), parallelism=1, name="m_heavy")
            # Expensive sequential stage: its θ approaches a full core.
            .shuffle(64, cpu_seconds_per_element=9e-4, name="shuf")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("seq_heavy")
        )
        model = model_of(pipe, test_machine)
        sol = solve_allocation(model)
        plan = sol.parallelism_plan(model)
        seq_theta = sum(
            th for name, th in sol.theta.items()
            if name not in {n.name for n in model.pipeline.tunables()}
        )
        assert seq_theta > 0.5  # the sequential stage really is busy
        assert sum(plan.values()) + seq_theta <= sol.cores + 1e-6

    def test_sequential_bottleneck_leaves_tunables_minimal(self):
        """Regression (gnmt): with the upstream cached, the sequential
        shuffle_and_repeat binds, so every other tunable needs only
        ``ceil(X*/R_i)`` threads. A solver whose minimal-core penalty sat
        below its tolerance parked θ_batch at 13.8, and the plan gave
        batch 14 threads it cannot use."""
        from repro.core.plumber import Plumber
        from repro.core.rewriter import insert_cache_after
        from repro.host.machine import setup_a
        from repro.workloads.gnmt import build_gnmt

        pipe = insert_cache_after(build_gnmt(), "map_tokenize")
        model = Plumber(setup_a()).model(pipe)
        sol = solve_allocation(model)
        assert sol.bottleneck == "shuffle_and_repeat"
        plan = sol.parallelism_plan(model)
        rates = {r.name: r.rate_per_core for r in model.cpu_nodes()}
        assert plan == {
            name: math.ceil(sol.predicted_throughput / rates[name])
            for name in plan
        }
        assert plan["batch"] == 1
