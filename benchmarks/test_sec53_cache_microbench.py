"""§5.3 memory (cache) microbenchmarks.

Paper: Plumber predicts dataset sizes exactly at the source (148GB
ImageNet, 20GB COCO, 1-2GB WMT); subsampling ~1% of files gives ~1%
error; materialized sizes propagate through ops (unfused ImageNet decode
amplifies ~6x: 793GB estimated of a true 842GB); fused decode+crop can
only cache at the source; RCNN only at disk level; MultiBoxSSD's
post-filter cache is smaller than the decode output.
"""

import math

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.core.cache_planner import plan_cache_greedy
from repro.core.plumber import Plumber
from repro.core.rewriter import set_parallelism
from repro.core.spec import OptimizeSpec
from repro.host import setup_b, setup_c
from repro.io.catalogs import (
    coco_catalog,
    imagenet_catalog,
    wmt16_catalog,
    wmt17_catalog,
)
from repro.workloads import (
    build_resnet,
    build_resnet_fused,
    build_rcnn,
    build_ssd,
)
from repro.workloads import get_workload

SCALE = 1.0  # size estimation runs on the FULL catalogs


def _model(build_fn, machine, duration=3.0, parallelism=8, **kwargs):
    pipe = build_fn(parallelism=parallelism, **kwargs)
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=duration,
                                        trace_warmup=0.5))
    return plumber.model(pipe)


def run_size_estimates():
    machine = setup_b()
    out = {}
    for name in ("resnet", "rcnn", "ssd", "transformer", "gnmt"):
        wl = get_workload(name)
        model = _model(wl.builder, machine, catalog=wl.catalog_factory())
        est = next(iter(model.source_estimates.values()))
        out[name] = (est, wl.catalog_factory().total_bytes)
    return out


def test_sec53_source_sizes_from_subsample(once):
    estimates = once(run_size_estimates)
    rows = []
    for name, (est, truth) in estimates.items():
        err = abs(est.estimated_bytes - truth) / truth
        rows.append(
            (name, f"{truth / 1e9:.1f}", f"{est.estimated_bytes / 1e9:.1f}",
             f"{100 * est.sample_fraction:.1f}%", f"{err:.1%}")
        )
    table = format_table(
        ("dataset", "true GB", "estimated GB", "files sampled", "error"),
        rows,
        title="§5.3 — source size estimation (paper: ~1% error at 1% sample)",
    )
    emit("sec53_source_sizes", table)

    for name, (est, truth) in estimates.items():
        assert est.estimated_bytes == pytest.approx(truth, rel=0.06), name
        # The trace genuinely subsampled big datasets (a few % of files).
        if truth > 5e9:
            assert est.sample_fraction < 0.6, name


def test_sec53_subsample_error_shrinks_with_tracing_time(once):
    """Longer tracing sees more files and tightens the estimate — the
    "knob for refining estimates at the expense of tuning time"."""
    machine = setup_b()
    truth = imagenet_catalog().total_bytes

    def error_at(duration):
        model = _model(build_resnet, machine, duration=duration,
                       parallelism=4)
        est = model.source_estimates["interleave_tfrecord"]
        return est.sample_fraction, abs(est.estimated_bytes - truth) / truth

    short_frac, short_err = once(error_at, 1.0)
    long_frac, long_err = error_at(6.0)
    assert long_frac > short_frac
    assert long_err < 0.05


def test_sec53_decode_amplification(once):
    """Unfused ImageNet: decode output ~5.7x the source (paper: 793GB of
    a true 842GB, 6% error with 60s of profiling)."""
    machine = setup_b()
    model = once(_model, build_resnet, machine)
    src = model.rates["interleave_tfrecord"].materialized_bytes
    dec = model.rates["map_decode"].materialized_bytes
    assert dec == pytest.approx(5.7 * src, rel=0.05)
    assert dec == pytest.approx(5.7 * 148e9, rel=0.1)
    emit(
        "sec53_amplification",
        format_table(
            ("point", "materialized GB", "paper GB"),
            [
                ("source (records)", f"{src / 1e9:.0f}", "148"),
                ("after decode", f"{dec / 1e9:.0f}", "842 true / 793 est."),
            ],
            title="§5.3 — ImageNet materialization propagation",
        ),
    )


def test_sec53_fused_pipeline_caches_at_source_only(once):
    """Figure 11 / §5.3: a fused decode+crop is random, so caching is
    only possible at the source."""
    machine = setup_c()  # 300 GB: decode output would fit only unfused
    fused_model = once(_model, build_resnet_fused, machine)
    cacheable = {r.name for r in fused_model.cache_candidates()}
    # Only source-side materialization remains (the parse output is the
    # record stream itself); nothing past the fused op is cacheable.
    assert cacheable <= {"interleave_tfrecord", "map_parse"}
    assert "map_decode" not in cacheable

    unfused_model = _model(build_resnet, machine)
    unfused_cacheable = {r.name for r in unfused_model.cache_candidates()}
    assert "map_decode" in unfused_cacheable


def test_sec53_rcnn_disk_level_only(once):
    """RCNN's randomized UDF follows the parse: only source-side caching."""
    model = once(_model, build_rcnn, setup_c())
    cacheable = {r.name for r in model.cache_candidates()}
    assert cacheable <= {"interleave_tfrecord", "map_parse"}
    decision = plan_cache_greedy(model)
    assert decision is not None
    assert decision.target in ("interleave_tfrecord", "map_parse")
    assert decision.materialized_bytes == pytest.approx(20e9, rel=0.1)


def test_sec53_ssd_post_filter_cache(once):
    """MultiBoxSSD materializes after filtering: ~97GB (of COCO's 20GB),
    and the filter trims it by <1% relative to the resize output."""
    model = once(_model, build_ssd, setup_c())
    filt = model.rates["filter_boxes"]
    resize = model.rates["map_resize"]
    assert filt.cacheable
    assert filt.materialized_bytes == pytest.approx(97e9, rel=0.1)
    reduction = 1 - filt.materialized_bytes / resize.materialized_bytes
    assert 0 < reduction < 0.01
    decision = plan_cache_greedy(model)
    assert decision.target == "filter_boxes"
