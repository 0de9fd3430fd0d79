"""Differential testing across the three trace backends.

Thirty seeded random pipeline graphs — varying depth, UDF costs, source
parallelism, shuffle/batch shapes, and cache/prefetch placement — are
traced with ``simulate``, ``analytic``, and ``adaptive``. For every
graph, all three backends must agree on the LP's bottleneck identity,
and the non-simulate backends must land root throughput and the LP's
predicted throughput within tolerance of the simulator.

On failure, the offending graph's serialized program is dumped under
``$REPRO_DIFF_DUMP_DIR`` (default ``diff_failures/``) and the assertion
message names the file — CI uploads the directory as an artifact, so a
disagreement is reproducible from the dump alone:

    from repro.graph.serialize import pipeline_from_json
    pipe = pipeline_from_json(open(dump).read())
"""

import json
import math
import os

import numpy as np
import pytest

from repro.core.lp import solve_allocation
from repro.core.plumber import Plumber
from repro.core.rates import build_model
from repro.core.spec import OptimizeSpec
from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.serialize import pipeline_to_dict
from repro.graph.udf import CostModel, UserFunction
from repro.host.machine import setup_a
from repro.io.filesystem import FileCatalog
from tests.engine_equivalence import cache_heavy

#: number of generated graphs (seeds 0..N-1)
NUM_CASES = 30
#: number of generated multi-source graphs (seeds 0..N-1)
NUM_MULTISOURCE_CASES = 12
#: number of cache-heavy (populate-then-serve) graphs (seeds 0..N-1)
NUM_CACHE_HEAVY_CASES = 8
#: relative tolerance for analytic/adaptive vs simulated throughput —
#: matches the seed-workload parity bar in test_trace_backends.py
THROUGHPUT_TOLERANCE = 0.15
#: where failing graphs' serialized programs are dumped
DUMP_DIR = os.environ.get("REPRO_DIFF_DUMP_DIR", "diff_failures")

BACKENDS = ("simulate", "analytic", "adaptive")


def random_pipeline(seed: int):
    """One seeded random linear pipeline in the simulate-cheap regime.

    Costs are vision-like (0.5–4 ms per element) so element rates stay
    low and 30 simulated traces remain a sub-minute harness; structure
    varies where the backends can actually diverge: map depth, per-op
    cost spread, parallelism, shuffle presence, batch size, and
    cache/prefetch placement.
    """
    rng = np.random.default_rng(seed)
    catalog = FileCatalog(
        name=f"diff{seed}",
        num_files=int(rng.integers(8, 33)),
        records_per_file=float(rng.integers(100, 500)),
        bytes_per_record=float(rng.uniform(2e3, 40e3)),
        size_cv=float(rng.uniform(0.0, 0.3)),
        seed=int(rng.integers(0, 2**31)),
    )
    depth = int(rng.integers(1, 5))
    # At most one cache, placed after a random map (or absent).
    cache_after = int(rng.integers(0, depth)) if rng.random() < 0.35 else -1
    ds = from_tfrecords(
        catalog,
        parallelism=int(rng.integers(1, 5)),
        name="src",
        read_cpu_seconds_per_record=1e-5,
    )
    for i in range(depth):
        cost = float(rng.uniform(0.5e-3, 4e-3))
        udf = UserFunction(
            f"op{i}",
            cost=CostModel(cpu_seconds=cost),
            size_ratio=float(rng.uniform(0.8, 2.5)) if i == 0 else 1.0,
        )
        ds = ds.map(udf, parallelism=int(rng.integers(1, 7)), name=f"map{i}")
        if i == cache_after:
            ds = ds.cache(name="cachenode")
    if rng.random() < 0.5:
        ds = ds.shuffle(int(rng.integers(64, 257)),
                        cpu_seconds_per_element=2e-6, name="shufflenode")
    ds = ds.batch(int(rng.choice((4, 8, 16))), name="batchnode")
    if rng.random() < 0.7:
        ds = ds.prefetch(int(rng.integers(2, 9)), name="prefetchnode")
    ds = ds.repeat(None, name="repeatnode")
    return ds.build(f"diff_{seed}", validate=False)


def random_multisource_pipeline(seed: int):
    """One seeded random multi-source DAG (zip or weighted interleave).

    2–3 branches of varying depth, per-op cost, parallelism, and
    branch-local cache placement feed a merge node; the trunk varies
    batch size and prefetch presence. Seeds are offset from the linear
    generator's so the two populations never collide.
    """
    rng = np.random.default_rng(1000 + seed)
    n_branches = int(rng.integers(2, 4))
    branches = []
    for b in range(n_branches):
        catalog = FileCatalog(
            name=f"mdiff{seed}_{b}",
            num_files=int(rng.integers(8, 25)),
            records_per_file=float(rng.integers(100, 400)),
            bytes_per_record=float(rng.uniform(2e3, 30e3)),
            size_cv=float(rng.uniform(0.0, 0.3)),
            seed=int(rng.integers(0, 2**31)),
        )
        depth = int(rng.integers(1, 4))
        cache_after = int(rng.integers(0, depth)) if rng.random() < 0.3 else -1
        ds = from_tfrecords(
            catalog,
            parallelism=int(rng.integers(1, 4)),
            name=f"src{b}",
            read_cpu_seconds_per_record=1e-5,
        )
        for i in range(depth):
            cost = float(rng.uniform(0.5e-3, 4e-3))
            udf = UserFunction(
                f"b{b}op{i}",
                cost=CostModel(cpu_seconds=cost),
                size_ratio=(
                    float(rng.uniform(0.8, 2.0)) if i == 0 else 1.0
                ),
            )
            ds = ds.map(udf, parallelism=int(rng.integers(1, 6)),
                        name=f"b{b}map{i}")
            if i == cache_after:
                ds = ds.cache(name=f"b{b}cache")
        branches.append(ds)
    if rng.random() < 0.5:
        ds = zip_datasets(branches, name="mergenode")
    else:
        weights = [float(rng.uniform(0.2, 1.0)) for _ in branches]
        ds = interleave_datasets(branches, weights=weights,
                                 name="mergenode")
    ds = ds.batch(int(rng.choice((4, 8, 16))), name="batchnode")
    if rng.random() < 0.6:
        ds = ds.prefetch(int(rng.integers(2, 9)), name="prefetchnode")
    ds = ds.repeat(None, name="repeatnode")
    return ds.build(f"mdiff_{seed}", validate=False)


def cache_heavy_pipeline(seed: int):
    """One seeded cache-heavy graph with a long serve phase.

    These reuse the golden corpus's populate-then-serve shape
    (:func:`tests.engine_equivalence.cache_heavy`) — the vectorized
    engine's hottest path — with seeded variation in read/map cost,
    parallelism, batch size, and catalog size. Traced over a window
    several epochs long, the cache spends most of the run in the serve
    regime, which is exactly where a chunk-replay bug in the simulator
    (or a serve-regime modelling bug in the analytic backend) would
    surface as cross-backend divergence.
    """
    rng = np.random.default_rng(2000 + seed)
    return cache_heavy(
        seed=seed,
        read_cpu=float(rng.choice((0.0, 1e-5))),
        map_cpu=float(rng.uniform(4e-4, 2e-3)),
        par=int(rng.integers(2, 5)),
        batch=int(rng.choice((4, 8))),
        files=int(rng.integers(8, 17)),
        rpf=float(rng.integers(120, 301)),
    )


def _dump_failure(seed, pipeline, reason: str, prefix: str = "case") -> str:
    """Persist the offending graph; return the assertion message."""
    os.makedirs(DUMP_DIR, exist_ok=True)
    path = os.path.join(DUMP_DIR, f"{prefix}_{seed:02d}.json")
    program = pipeline_to_dict(pipeline)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"seed": seed, "reason": reason, "program": program},
                  f, indent=2, sort_keys=True)
    return (
        f"seed {seed}: {reason}\n"
        f"serialized program dumped to {path}\n"
        f"program: {json.dumps(program, sort_keys=True)}"
    )


@pytest.fixture(scope="module")
def machine():
    return setup_a()


def _solved_traces(pipeline, machine, duration=3.0, warmup=0.5):
    """(trace, LP solution) per backend for one graph."""
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=duration,
                                        trace_warmup=warmup))
    out = {}
    for name in BACKENDS:
        trace = plumber.trace(pipeline, backend=name)
        out[name] = (trace, solve_allocation(build_model(trace)))
    return out


class TestBackendDifferential:
    @pytest.fixture(scope="class", params=range(NUM_CASES))
    def case(self, request, machine):
        pipeline = random_pipeline(request.param)
        return request.param, pipeline, _solved_traces(pipeline, machine)

    def test_bottleneck_identity_agrees(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].bottleneck
        for name in ("analytic", "adaptive"):
            got = solved[name][1].bottleneck
            assert got == reference, _dump_failure(
                seed, pipeline,
                f"bottleneck mismatch: simulate={reference!r} "
                f"{name}={got!r}",
            )

    def test_root_throughput_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][0].root_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][0].root_throughput
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"root throughput diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
            )

    def test_lp_prediction_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].predicted_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][1].predicted_throughput
            if not math.isfinite(reference):
                # Unconstrained graphs (e.g. fully cache-served) predict
                # inf; the other backends must agree exactly.
                assert got == reference, _dump_failure(
                    seed, pipeline,
                    f"LP prediction diverges: simulate={reference} "
                    f"{name}={got}",
                )
                continue
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"LP prediction diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
            )

    def test_traces_are_labelled_by_producer(self, case):
        _seed, _pipeline, solved = case
        assert solved["simulate"][0].backend == "simulate"
        assert solved["analytic"][0].backend == "analytic"
        assert solved["adaptive"][0].backend.startswith("adaptive[")


class TestMultiSourceDifferential:
    """The same three-backend parity bar, over multi-source DAGs."""

    @pytest.fixture(scope="class", params=range(NUM_MULTISOURCE_CASES))
    def case(self, request, machine):
        pipeline = random_multisource_pipeline(request.param)
        return request.param, pipeline, _solved_traces(pipeline, machine)

    def test_bottleneck_identity_agrees(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].bottleneck
        for name in ("analytic", "adaptive"):
            got = solved[name][1].bottleneck
            assert got == reference, _dump_failure(
                seed, pipeline,
                f"bottleneck mismatch: simulate={reference!r} "
                f"{name}={got!r}",
                prefix="multisource",
            )

    def test_root_throughput_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][0].root_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][0].root_throughput
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"root throughput diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
                prefix="multisource",
            )

    def test_lp_prediction_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].predicted_throughput
        observed = solved["simulate"][0].root_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][1].predicted_throughput
            if not math.isfinite(reference):
                assert got == reference, _dump_failure(
                    seed, pipeline,
                    f"LP prediction diverges: simulate={reference} "
                    f"{name}={got}",
                    prefix="multisource",
                )
                continue
            if min(got, reference) > 1e3 * observed:
                # Both predictions are orders of magnitude beyond
                # anything observable: a branch cache that flips to the
                # serve regime mid-window leaves the LP a noise-scale
                # cache coefficient (a handful of served elements times
                # a µs of copy cost), so the prediction's magnitude
                # carries no decision value — bottleneck identity,
                # asserted separately, is the meaningful comparison.
                continue
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"LP prediction diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
                prefix="multisource",
            )

    def test_traces_are_labelled_by_producer(self, case):
        _seed, _pipeline, solved = case
        assert solved["simulate"][0].backend == "simulate"
        assert solved["analytic"][0].backend == "analytic"
        assert solved["adaptive"][0].backend.startswith("adaptive[")


class TestCacheHeavyDifferential:
    """Three-backend parity over long-serve-phase cache graphs.

    The window (duration 6, warmup 1) spans several epochs of each
    graph, so the cache populates once and then serves for most of the
    measured window — the regime the vectorized engine optimizes
    hardest and the analytic backend models as pure memory-copy cost.
    """

    @pytest.fixture(scope="class", params=range(NUM_CACHE_HEAVY_CASES))
    def case(self, request, machine):
        pipeline = cache_heavy_pipeline(request.param)
        return request.param, pipeline, _solved_traces(
            pipeline, machine, duration=6.0, warmup=1.0
        )

    def test_bottleneck_identity_agrees(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].bottleneck
        for name in ("analytic", "adaptive"):
            got = solved[name][1].bottleneck
            assert got == reference, _dump_failure(
                seed, pipeline,
                f"bottleneck mismatch: simulate={reference!r} "
                f"{name}={got!r}",
                prefix="cacheheavy",
            )

    def test_root_throughput_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][0].root_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][0].root_throughput
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"root throughput diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
                prefix="cacheheavy",
            )

    def test_lp_prediction_within_tolerance(self, case):
        seed, pipeline, solved = case
        reference = solved["simulate"][1].predicted_throughput
        observed = solved["simulate"][0].root_throughput
        for name in ("analytic", "adaptive"):
            got = solved[name][1].predicted_throughput
            if not math.isfinite(reference):
                # A fully cache-served window is unconstrained: every
                # backend must agree it predicts inf.
                assert got == reference, _dump_failure(
                    seed, pipeline,
                    f"LP prediction diverges: simulate={reference} "
                    f"{name}={got}",
                    prefix="cacheheavy",
                )
                continue
            if min(got, reference) > 1e3 * observed:
                # Noise-scale cache coefficients (see the multi-source
                # suite): magnitude carries no decision value here.
                continue
            rel = abs(got - reference) / reference
            assert rel <= THROUGHPUT_TOLERANCE, _dump_failure(
                seed, pipeline,
                f"LP prediction diverges: simulate={reference:.3f} "
                f"{name}={got:.3f} rel={rel:.1%} "
                f"(tolerance {THROUGHPUT_TOLERANCE:.0%})",
                prefix="cacheheavy",
            )

    def test_serve_phase_dominates_the_window(self, case):
        """The generator holds its premise: the simulate trace's cache
        node reports serve-regime activity (elements flowing out of the
        cache, not just into it)."""
        seed, pipeline, solved = case
        trace = solved["simulate"][0]
        cache_stats = trace.stats.get("cachenode")
        assert cache_stats is not None, _dump_failure(
            seed, pipeline, "trace lost the cache node",
            prefix="cacheheavy",
        )
        # Serve regime: the cache emits far more than it ingests inside
        # the measured window (populate happened during warmup).
        assert cache_stats.elements_produced > \
            10 * cache_stats.elements_consumed, _dump_failure(
                seed, pipeline,
                "cache not in the serve regime: produced="
                f"{cache_stats.elements_produced} consumed="
                f"{cache_stats.elements_consumed}",
                prefix="cacheheavy",
            )


class TestGeneratorCoversTheSpace:
    """The harness is only as strong as its generator: the 30 graphs
    must actually vary cache/prefetch placement and depth."""

    def test_structural_variety(self):
        pipelines = [random_pipeline(s) for s in range(NUM_CASES)]
        with_cache = sum(
            1 for p in pipelines
            if any("cache" in type(n).__name__.lower()
                   for n in p.nodes.values())
        )
        with_prefetch = sum(
            1 for p in pipelines
            if any("prefetch" in type(n).__name__.lower()
                   for n in p.nodes.values())
        )
        depths = {len(p.nodes) for p in pipelines}
        assert with_cache >= 5
        assert NUM_CASES > with_prefetch >= 15
        assert len(depths) >= 4

    def test_generator_is_deterministic(self):
        from repro.graph.signature import structural_signature

        a = [structural_signature(random_pipeline(s)) for s in range(5)]
        b = [structural_signature(random_pipeline(s)) for s in range(5)]
        assert a == b
        assert len(set(a)) == 5

    def test_multisource_generator_covers_both_merges(self):
        pipelines = [
            random_multisource_pipeline(s)
            for s in range(NUM_MULTISOURCE_CASES)
        ]
        kinds = [
            next(n.kind for n in p.nodes.values()
                 if n.kind in ("zip", "interleave_datasets"))
            for p in pipelines
        ]
        assert kinds.count("zip") >= 3
        assert kinds.count("interleave_datasets") >= 3
        with_cache = sum(
            1 for p in pipelines
            if any("cache" in type(n).__name__.lower()
                   for n in p.nodes.values())
        )
        assert with_cache >= 2
        branch_counts = {
            sum(1 for n in p.nodes.values() if not n.inputs)
            for p in pipelines
        }
        assert branch_counts >= {2, 3}

    def test_multisource_generator_is_deterministic(self):
        from repro.graph.signature import structural_signature

        a = [structural_signature(random_multisource_pipeline(s))
             for s in range(5)]
        b = [structural_signature(random_multisource_pipeline(s))
             for s in range(5)]
        assert a == b
        assert len(set(a)) == 5
