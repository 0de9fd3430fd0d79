"""Property-based tests (hypothesis) on core data structures and
invariants: visit ratios, byte accounting, the closed-form LP against
its HiGHS oracle, the disk curve fit, queues, and the subsample
estimator."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.disk_planner import fit_piecewise
from repro.core.lp import LPError, solve_allocation
from repro.core.passes import (
    InsertCache,
    InsertPrefetch,
    RemovePipelineNode,
    SetParallelism,
)
from repro.core.rewriter import RewriteError, insert_prefetch_after, rewrite
from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.serialize import (
    pipeline_from_dict,
    pipeline_to_dict,
    pipeline_to_json,
)
from repro.graph.signature import structural_signature
from repro.graph.udf import CostModel, UserFunction
from repro.host.disk import DiskSpec
from repro.host.machine import setup_a
from repro.io.filesystem import FileCatalog
from repro.runtime.analytic import _fill_models
from repro.runtime.engine import SimQueue, Simulation
from repro.runtime.executor import ModelConsumer, RunConfig
from tests import lp_oracle, reference_engine
from tests.engine_equivalence import fingerprint
from tests.reference_engine import Get, Put, spawn

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
catalogs = st.builds(
    FileCatalog,
    name=st.just("prop"),
    num_files=st.integers(1, 64),
    records_per_file=st.floats(1.0, 500.0),
    bytes_per_record=st.floats(1.0, 1e6),
    size_cv=st.floats(0.0, 0.5),
    seed=st.integers(0, 1000),
)


@st.composite
def chain_pipelines(draw):
    """Random linear pipelines: src -> (map|filter)* -> batch? -> repeat?"""
    catalog = draw(catalogs)
    ds = from_tfrecords(catalog, parallelism=draw(st.integers(1, 8)), name="src")
    n_ops = draw(st.integers(0, 4))
    for i in range(n_ops):
        kind = draw(st.sampled_from(["map", "filter"]))
        if kind == "map":
            udf = UserFunction(
                f"op{i}",
                cost=CostModel(cpu_seconds=draw(st.floats(0.0, 1e-3))),
                size_ratio=draw(st.floats(0.1, 10.0)),
            )
            ds = ds.map(udf, parallelism=draw(st.integers(1, 8)), name=f"map{i}")
        else:
            udf = UserFunction(f"op{i}")
            ds = ds.filter(
                udf, keep_fraction=draw(st.floats(0.1, 1.0)), name=f"filt{i}"
            )
    if draw(st.booleans()):
        ds = ds.batch(draw(st.integers(1, 64)), name="batch")
    if draw(st.booleans()):
        ds = ds.repeat(None, name="repeat")
    return ds.build("prop", validate=True)


@st.composite
def dag_pipelines(draw):
    """Random multi-source DAGs: 2-3 chains merged by zip/interleave."""
    n_branches = draw(st.integers(2, 3))
    branches = []
    for b in range(n_branches):
        catalog = FileCatalog(
            f"cat{b}",
            num_files=draw(st.integers(1, 32)),
            records_per_file=draw(st.floats(1.0, 300.0)),
            bytes_per_record=draw(st.floats(1.0, 1e5)),
            seed=draw(st.integers(0, 100)),
        )
        ds = from_tfrecords(
            catalog, parallelism=draw(st.integers(1, 4)), name=f"b{b}src"
        )
        for i in range(draw(st.integers(0, 2))):
            udf = UserFunction(
                f"b{b}op{i}",
                cost=CostModel(cpu_seconds=draw(st.floats(0.0, 1e-3))),
                size_ratio=draw(st.floats(0.1, 4.0)),
            )
            ds = ds.map(
                udf, parallelism=draw(st.integers(1, 4)), name=f"b{b}map{i}"
            )
        branches.append(ds)
    if draw(st.booleans()):
        ds = zip_datasets(
            branches,
            cpu_seconds_per_element=draw(st.floats(0.0, 1e-4)),
            name="merge",
        )
    else:
        ds = interleave_datasets(
            branches,
            weights=[draw(st.floats(0.05, 1.0)) for _ in branches],
            seed=draw(st.integers(0, 10)),
            name="merge",
        )
    if draw(st.booleans()):
        ds = ds.batch(draw(st.integers(1, 16)), name="batch")
    if draw(st.booleans()):
        ds = ds.repeat(None, name="repeat")
    return ds.build("dagprop", validate=True)


@st.composite
def run_configs(draw):
    """Random :class:`RunConfig` kwargs."""
    duration = draw(st.floats(0.05, 1.0))
    cfg = {
        "duration": duration,
        "warmup": duration * draw(st.floats(0.0, 0.8)),
    }
    if draw(st.booleans()):
        cfg["granularity"] = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cfg["epochs"] = draw(st.floats(1.0, 3.0))
    if draw(st.booleans()):
        cfg["consumer"] = ModelConsumer(draw(st.floats(0.0, 5e-4)))
    return cfg


def log_uniform(lo: float, hi: float):
    """Floats spread evenly over the decades ``10**lo .. 10**hi``."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def concave_disks(draw):
    """A :class:`DiskSpec` with a random concave, non-decreasing curve
    that starts at one stream, like the shipped disk models. Integer
    points keep the recomputed slopes exact for the concavity check."""
    x, y = 1, int(draw(log_uniform(4, 10)))
    points = [(x, y)]
    slopes = sorted(
        (int(v) for v in draw(st.lists(st.just(0) | log_uniform(3, 9),
                                        max_size=4))),
        reverse=True)
    for slope in slopes:
        dx = draw(st.integers(1, 64))
        x, y = x + dx, y + slope * dx
        points.append((x, y))
    return DiskSpec("prop", curve=tuple(points))


@st.composite
def lp_models(draw):
    """The slice of a :class:`PipelineModel` the allocation LP reads:
    CPU node rates and sequential flags, sources and their bytes read,
    the cached-subtree names, ``bytes_per_minibatch`` and the host.

    Scales keep ``X*`` at or above 1e-4 minibatches/s: near HiGHS's
    1e-7 feasibility tolerance the oracle rounds a tiny optimum to zero
    and labels the bottleneck "unbounded"."""
    nodes = [
        SimpleNamespace(name=f"n{i}", rate_per_core=draw(log_uniform(0, 6)),
                        sequential=draw(st.booleans()))
        for i in range(draw(st.integers(0, 6)))
    ]
    sources = [SimpleNamespace(name=f"src{j}")
               for j in range(draw(st.integers(0, 2)))]
    names = [n.name for n in nodes] + [s.name for s in sources]
    cached = set(draw(st.lists(st.sampled_from(names), unique=True,
                               max_size=2))
                 if names else ())
    stats = {s.name: SimpleNamespace(bytes_read=draw(st.sampled_from([0.0, 1e6])))
             for s in sources}
    host = SimpleNamespace(cores=draw(st.integers(1, 128)), disk=draw(concave_disks()))
    return SimpleNamespace(
        cpu_nodes=lambda: nodes,
        pipeline=SimpleNamespace(below_cache_names=lambda: cached,
                                 sources=lambda: sources),
        trace=SimpleNamespace(host=host, stats=stats),
        # One in five reads nothing per minibatch, or never completes one.
        bytes_per_minibatch=draw(
            st.sampled_from([0.0, math.inf]) if draw(st.integers(0, 4)) == 0
            else log_uniform(2, 8)),
    )


class TestCatalogProperties:
    @given(catalogs)
    @settings(max_examples=50, deadline=None)
    def test_totals_are_sums(self, catalog):
        assert catalog.total_bytes == pytest.approx(
            sum(f.size_bytes for f in catalog.files)
        )
        assert catalog.total_records == sum(f.num_records for f in catalog.files)
        assert all(f.num_records >= 1 for f in catalog.files)

    @given(catalogs, st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_scales_total_records(self, catalog, factor):
        scaled = catalog.scaled(factor)
        # Total records scale by the factor (modulo per-file rounding);
        # the file count never drops below the interleave minimum.
        expected = catalog.num_files * catalog.records_per_file * factor
        assert scaled.num_files * scaled.records_per_file == pytest.approx(
            max(expected, scaled.num_files), rel=0.01
        )
        assert scaled.num_files >= min(8, catalog.num_files)


def _assert_clone_independent(pipeline, clone):
    """A clone serializes as its original, shares no input list with it,
    and a parallelism set on the clone leaves the original unchanged."""
    before = pipeline_to_dict(pipeline)
    assert pipeline_to_dict(clone) == before
    originals = pipeline.nodes
    for node in clone.iter_nodes():
        assert node.inputs is not originals[node.name].inputs
    for node in clone.tunables():
        node.parallelism = (node.parallelism or 1) + 7
    assert pipeline_to_dict(pipeline) == before


class TestPipelineProperties:
    @given(chain_pipelines())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_serialization_round_trips(self, pipeline):
        data = pipeline_to_dict(pipeline)
        restored = pipeline_from_dict(data)
        assert pipeline_to_dict(restored) == data

    @given(chain_pipelines())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_visit_ratio_recurrence(self, pipeline):
        """V_child = V_parent / ratio(parent): the §4.4 recurrence."""
        ratios = pipeline.visit_ratios()
        assert ratios[pipeline.root.name] == 1.0
        for node in pipeline.iter_nodes():
            for child in node.inputs:
                r = node.elements_ratio()
                if r > 0 and math.isfinite(ratios[node.name]):
                    assert ratios[child.name] == pytest.approx(
                        ratios[node.name] / r
                    )

    @given(chain_pipelines())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fill_model_bytes_never_negative(self, pipeline):
        for m in _fill_models(pipeline, setup_a()):
            assert m.bytes_per_element >= 0

    @given(chain_pipelines())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_clone_preserves_structure(self, pipeline):
        clone = pipeline.clone()
        assert [n.name for n in clone.topological_order()] == [
            n.name for n in pipeline.topological_order()
        ]
        assert clone.root is not pipeline.root
        _assert_clone_independent(pipeline, clone)


class TestDagProperties:
    @given(dag_pipelines())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_serialization_round_trips(self, pipeline):
        """Multi-source programs survive the wire byte-for-byte —
        including interleave weights, which must normalize idempotently."""
        data = pipeline_to_dict(pipeline)
        restored = pipeline_from_dict(data)
        assert pipeline_to_dict(restored) == data

    @given(dag_pipelines())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_clone_preserves_structure_and_signature(self, pipeline):
        clone = pipeline.clone()
        assert [n.name for n in clone.topological_order()] == [
            n.name for n in pipeline.topological_order()
        ]
        assert structural_signature(clone) == structural_signature(pipeline)
        _assert_clone_independent(pipeline, clone)

    @given(dag_pipelines())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_merge_visit_ratios_follow_consumption(self, pipeline):
        """V_child = V_merge * consumption(i): zip consumes one element
        per input per output; interleave consumes by weight."""
        ratios = pipeline.visit_ratios()
        for node in pipeline.iter_nodes():
            if node.input_arity is not None:
                continue
            for i, child in enumerate(node.inputs):
                assert ratios[child.name] == pytest.approx(
                    ratios[node.name] * node.input_consumption(i)
                )

    @given(st.integers(1, 32), st.integers(1, 32), st.floats(1e-6, 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_branch_topology_is_signature_relevant(self, files_a, files_b,
                                                   cost):
        """Two DAGs with the *same node multiset* but the map wired into
        a different branch must not collide — the result cache would
        otherwise serve one topology's plan for the other."""
        def variant(map_on_a):
            a = from_tfrecords(
                FileCatalog("cat_a", files_a, 10.0, 100.0), name="src_a")
            b = from_tfrecords(
                FileCatalog("cat_b", files_b, 10.0, 100.0), name="src_b")
            udf = UserFunction("op", cost=CostModel(cpu_seconds=cost))
            if map_on_a:
                a = a.map(udf, name="m")
            else:
                b = b.map(udf, name="m")
            return zip_datasets([a, b], name="z").build("v", validate=True)

        assert structural_signature(variant(True)) != \
            structural_signature(variant(False))

    @given(st.integers(1, 32), st.integers(1, 32), st.floats(0.0, 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_zip_input_order_is_signature_relevant(self, files_a, files_b,
                                                   cost):
        """zip is positional: zip(a, b) and zip(b, a) are different
        programs and must hash differently."""
        def variant(order):
            a = from_tfrecords(
                FileCatalog("cat_a", files_a, 10.0, 100.0), name="src_a")
            b = from_tfrecords(
                FileCatalog("cat_b", files_b, 10.0, 100.0),
                name="src_b").map(
                    UserFunction("op", cost=CostModel(cpu_seconds=cost)),
                    name="m")
            pair = [a, b] if order else [b, a]
            return zip_datasets(pair, name="z").build("v", validate=True)

        assert structural_signature(variant(True)) != \
            structural_signature(variant(False))


#: the message each injected fault raises
REWRITE_FAULTS = {
    "missing": r"^no node named 'ghost' to insert after$",
    "duplicate": r"^new node name '.+' already exists$",
    "multi_input": r"^cannot remove node 'merge' with [23] inputs$",
}


@st.composite
def rewrite_cases(draw):
    """A chain or DAG pipeline carrying a 3-high prefetch stack and a
    random action list over it: no-op and ``None -> 1`` parallelism
    sets, random sets, two inserts above one target, an insert above
    the root, a cache, and the stack's removal. Returns ``(pipeline,
    actions, fault)``; ``fault`` is ``None`` or ``(position, action,
    kind)``, one action of a :data:`REWRITE_FAULTS` kind to insert."""
    base = draw(st.one_of(chain_pipelines(), dag_pipelines()))
    plain = sorted(n for n in base.nodes if n != "repeat")
    target = draw(st.sampled_from(plain))
    pipeline = base
    for k in range(3):
        pipeline = insert_prefetch_after(pipeline, target, 2 + k,
                                         name=f"stack{k}")
    tunables = pipeline.tunables()
    if draw(st.booleans()):
        draw(st.sampled_from(tunables)).parallelism = None

    def step(kind: str, i: int) -> list:
        if kind == "same":
            return [SetParallelism(description=kind, plan={
                n.name: n.parallelism for n in tunables
                if n.parallelism is not None})]
        if kind == "none_to_one":
            return [SetParallelism(description=kind, plan={
                n.name: 1 for n in tunables if n.parallelism is None})]
        if kind == "set":
            node = draw(st.sampled_from(tunables))
            return [SetParallelism(description=kind, plan={
                node.name: draw(st.integers(1, 8))})]
        if kind == "two_above":
            above = draw(st.sampled_from(sorted(base.nodes)))
            return [InsertPrefetch(description=kind, target=above,
                                   name=f"{kind}{i}{side}")
                    for side in "ab"]
        if kind == "above_root":
            return [InsertPrefetch(description=kind,
                                   target=pipeline.root.name,
                                   name=f"{kind}{i}")]
        if kind == "cache":
            return [InsertCache(description=kind,
                                target=draw(st.sampled_from(plain)),
                                name=f"{kind}{i}")]
        order = draw(st.permutations([f"stack{k}" for k in range(3)]))
        return [RemovePipelineNode(description=kind, target=name)
                for name in order]

    kinds = draw(st.lists(st.sampled_from(
        ["same", "none_to_one", "set", "two_above", "above_root", "cache",
         "drop_stack"]), max_size=6))
    if "drop_stack" in kinds:  # the stack can be removed once
        first = kinds.index("drop_stack") + 1
        kinds = kinds[:first] + [k for k in kinds[first:] if k != "drop_stack"]
    actions = [a for i, kind in enumerate(kinds) for a in step(kind, i)]
    kind = draw(st.sampled_from([None, *REWRITE_FAULTS]))
    bad = {
        "missing": InsertPrefetch(description="missing", target="ghost"),
        "duplicate": InsertPrefetch(description="duplicate", target=target,
                                    name=base.root.name),
        "multi_input": RemovePipelineNode(description="multi_input",
                                          target="merge"),
    }
    if kind is None or (kind == "multi_input" and "merge" not in base.nodes):
        return pipeline, actions, None
    position = draw(st.integers(0, len(actions)))
    return pipeline, actions, (position, bad[kind], kind)


def one_at_a_time(pipeline, actions):
    """Each action applied as its own rewrite: every intermediate
    program, or the first :class:`RewriteError` raised."""
    programs = [pipeline_to_json(pipeline)]
    current = pipeline
    try:
        for action in actions:
            current = action.apply(current)
            programs.append(pipeline_to_json(current))
    except RewriteError as exc:
        return exc
    return programs


class TestRewriteProperties:
    """One :func:`rewrite` of an action list against the same actions
    applied one at a time."""

    @given(rewrite_cases())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_one_rewrite_matches_one_action_at_a_time(self, case):
        pipeline, actions, fault = case
        before = pipeline_to_json(pipeline)
        expected = one_at_a_time(pipeline, actions)
        if isinstance(expected, RewriteError):
            with pytest.raises(RewriteError) as caught:
                rewrite(pipeline, actions)
            assert str(caught.value) == str(expected)
        else:
            result = rewrite(pipeline, actions)
            assert pipeline_to_json(result) == expected[-1]
            unchanged = all(a == b for a, b in zip(expected, expected[1:]))
            assert (result is pipeline) == unchanged
        assert pipeline_to_json(pipeline) == before
        if fault is None:
            return
        position, bad, kind = fault
        faulty = actions[:position] + [bad] + actions[position:]
        error = one_at_a_time(pipeline, faulty)
        assert isinstance(error, RewriteError)
        if not isinstance(expected, RewriteError):
            assert re.match(REWRITE_FAULTS[kind], str(error))
        with pytest.raises(RewriteError) as caught:
            rewrite(pipeline, faulty)
        assert str(caught.value) == str(error)
        assert pipeline_to_json(pipeline) == before


class TestDiskCurveProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 128), st.floats(1.0, 1e9)),
            min_size=1,
            max_size=8,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_is_concave_majorant(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        segments = fit_piecewise(xs, ys)
        assert segments
        for x, y in zip(xs, ys):
            fitted = min(s * x + c for s, c in segments)
            assert fitted >= y - max(1e-6, abs(y) * 1e-9)

    @given(
        st.lists(st.floats(10.0, 1e9), min_size=1, max_size=5),
        st.floats(1.0, 64.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_diskspec_interp_within_range(self, bws, streams):
        bws = sorted(bws)
        curve = tuple((float(i + 1), bw) for i, bw in enumerate(bws))
        # Enforce concavity by taking the running concave hull via fit.
        segments = fit_piecewise([p[0] for p in curve], [p[1] for p in curve])
        spec_points = [(x, min(s * x + c for s, c in segments))
                       for x, _ in curve]
        spec = DiskSpec("d", curve=tuple(spec_points))
        bw = spec.bandwidth(streams)
        assert 0 <= bw <= spec.max_bandwidth * (1 + 1e-9)


class TestLPProperties:
    @given(lp_models(), st.none() | st.floats(0.25, 256.0),
           st.floats(1.0, 256.0))
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_highs(self, model, cores, max_streams):
        try:
            expected = lp_oracle.solve_allocation(
                model, cores=cores, max_io_streams=max_streams)
        except LPError:
            with pytest.raises(LPError):
                solve_allocation(model, cores=cores, max_io_streams=max_streams)
            return
        sol = solve_allocation(model, cores=cores, max_io_streams=max_streams)
        assert sol.status == expected.status
        assert sol.bottleneck == expected.bottleneck
        x = sol.predicted_throughput
        # The closed form is exact; HiGHS may overshoot by its 1e-7
        # feasibility tolerance (e.g. θ = 1 + 2e-9 on a sequential node).
        assert x == pytest.approx(expected.predicted_throughput, rel=1e-7)
        if sol.status == "unbounded":
            return

        # θ is the minimal-core allocation and satisfies every CPU row.
        cached = model.pipeline.below_cache_names()
        cpu = [r for r in model.cpu_nodes() if r.name not in cached]
        assert sol.theta == {r.name: x / r.rate_per_core for r in cpu}
        assert sum(sol.theta.values()) <= sol.cores * (1 + 1e-9)
        for r in cpu:
            assert x <= sol.theta[r.name] * r.rate_per_core * (1 + 1e-12)
            if r.sequential:
                assert sol.theta[r.name] <= 1 + 1e-9

        # Streams satisfy every disk row, and each is minimal: zero, or a
        # rising segment is tight.
        bpm = model.bytes_per_minibatch
        segments = model.trace.host.disk.segments()
        assert set(sol.io_streams) == set(expected.io_streams)
        for streams in sol.io_streams.values():
            assert 0 <= streams <= max_streams
            slack = [icept + slope * streams - x * bpm
                     for slope, icept in segments]
            tol = 1e-9 * max(x * bpm, max(abs(c) for _, c in segments), 1.0)
            assert min(slack) >= -tol
            assert streams == 0 or any(
                abs(gap) <= tol
                for gap, (slope, _) in zip(slack, segments) if slope > 0
            )


class TestQueueProperties:
    @given(
        st.lists(st.integers(), min_size=1, max_size=30),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_through_bounded_queue(self, items, capacity):
        sim = Simulation()
        q = SimQueue(sim, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield Put(q, item)

        def consumer():
            for _ in items:
                received.append((yield Get(q)))

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run(1.0)
        assert received == items

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_multi_producer_conservation(self, n_prod, capacity, per_prod):
        """No element is lost or duplicated across producers."""
        sim = Simulation()
        q = SimQueue(sim, capacity=capacity)
        received = []

        def producer(tag):
            for i in range(per_prod):
                yield Put(q, (tag, i))

        def consumer():
            for _ in range(n_prod * per_prod):
                received.append((yield Get(q)))

        for t in range(n_prod):
            spawn(sim, producer(t))
        spawn(sim, consumer())
        sim.run(10.0)
        assert sorted(received) == sorted(
            (t, i) for t in range(n_prod) for i in range(per_prod)
        )


class TestEngineEquivalence:
    """The simulator's contract, stressed on *random* programs: for any
    pipeline and any run configuration, the shipped engine equals the
    reference oracle exactly — byte-identical trace JSON, equal
    NodeStats, equal queue telemetry and consumer observables. The
    curated corpus in ``tests/golden/`` pins known shapes; these
    properties hunt the shapes nobody curated."""

    @staticmethod
    def _assert_engines_identical(pipeline, cfg):
        # The strategies return built pipelines; each engine run gets
        # its own clone via the serialization round-trip so neither run
        # observes the other's node state.
        data = pipeline_to_dict(pipeline)
        ref = fingerprint(pipeline_from_dict(data), RunConfig(**cfg),
                          run=reference_engine.run_pipeline)
        vec = fingerprint(pipeline_from_dict(data), RunConfig(**cfg))
        assert vec["trace"] == ref["trace"]
        assert vec == ref

    @given(chain_pipelines(), run_configs())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chain_engines_byte_identical(self, pipeline, cfg):
        self._assert_engines_identical(pipeline, cfg)

    @given(dag_pipelines(), run_configs())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dag_engines_byte_identical(self, pipeline, cfg):
        self._assert_engines_identical(pipeline, cfg)


class TestSubsampleEstimator:
    @given(st.integers(2, 200), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_rescaled_subsample_concentrates(self, num_files, seed):
        """§A: (m/n) x observed-sum estimates total size; with CLT-style
        concentration the full observation is exact."""
        catalog = FileCatalog("s", num_files, 100.0, 1000.0,
                              size_cv=0.2, seed=seed)
        sizes = np.array([f.size_bytes for f in catalog.files])
        m = max(1, num_files // 4)
        estimate = sizes[:m].sum() * (num_files / m)
        # Lognormal with cv=0.2: 4x-subsample stays within ~35%.
        assert estimate == pytest.approx(
            catalog.total_bytes, rel=0.35 + 2.0 / math.sqrt(m)
        )
        full = sizes.sum() * (num_files / num_files)
        assert full == pytest.approx(catalog.total_bytes)
