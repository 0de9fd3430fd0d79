"""§5.2 disk microbenchmarks.

Paper: with a token-bucket limiter, Plumber predicts ResNet's I/O-bound
throughput within ~5% from 50 to 300 MB/s (the compute bound starts
there); on a real HDD the ResNet bound is within 15%, on NVMe the
compute bound is hit first; MultiBoxSSD is ~25x more I/O-bound than
RCNN's compute demand allows at fixed CPU (they share dataset and batch
size, so their per-minibatch I/O load is identical).
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.core.disk_planner import io_bound_throughput
from repro.core.plumber import Plumber
from repro.core.rewriter import set_parallelism
from repro.core.spec import OptimizeSpec
from repro.host import setup_b
from repro.host.disk import hdd_st4000, nvme_p3600, token_bucket
from repro.runtime.executor import run_pipeline
from repro.workloads import get_workload

MB = 1e6
SCALE = 0.1


def _tuned_resnet(machine, bandwidth_spec):
    """ResNet with generous CPU parallelism so only I/O can bind."""
    pipe = get_workload("resnet").build(scale=SCALE)
    plan = {n.name: 12 for n in pipe.tunables()}
    plan["interleave_tfrecord"] = 16
    return set_parallelism(pipe, plan), machine.with_disk(bandwidth_spec)


def run_token_bucket_sweep():
    machine = setup_b()
    results = []
    for mbps in (50, 100, 200, 300, 500):
        pipe, m = _tuned_resnet(machine, token_bucket(mbps * MB))
        plumber = Plumber(m,
                          spec=OptimizeSpec(trace_duration=10.0,
                                            trace_warmup=4.0))
        model = plumber.model(pipe)
        predicted = io_bound_throughput(model.bytes_per_minibatch, mbps * MB)
        observed = model.observed_throughput
        results.append((mbps, predicted, observed))
    return results


def test_sec52_token_bucket_predictions(once):
    results = once(run_token_bucket_sweep)
    rows = [
        (mbps, f"{pred:.2f}", f"{obs:.2f}", f"{abs(pred - obs) / obs:.1%}")
        for mbps, pred, obs in results
    ]
    table = format_table(
        ("MB/s", "predicted mb/s", "observed mb/s", "error"),
        rows,
        title="§5.2 — ResNet token-bucket sweep (paper: within 5% to 300MB/s)",
    )
    emit("sec52_token_bucket", table)

    # The prediction holds while the pipeline is genuinely I/O bound;
    # "when the compute bound begins" (~300 MB/s here, as in the paper)
    # the observation detaches from the pure-I/O line.
    compute_cap = results[-1][2]
    for mbps, pred, obs in results:
        if pred <= 0.9 * compute_cap:  # I/O-bound region
            assert pred == pytest.approx(obs, rel=0.12), (mbps, pred, obs)
    mbps, pred, obs = results[-1]
    assert obs < pred * 0.98


def test_sec52_io_load_arithmetic(once):
    """"6.9 minibatches per 100MB/s" for 128 x ~110KB records."""
    pipe = get_workload("resnet").build(scale=SCALE)
    machine = setup_b().with_disk(token_bucket(100 * MB))
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    model = once(plumber.model, pipe)
    assert model.bytes_per_minibatch == pytest.approx(128 * 115e3, rel=0.05)
    assert io_bound_throughput(model.bytes_per_minibatch, 100 * MB) == (
        pytest.approx(6.8, rel=0.05)
    )


def test_sec52_hdd_and_nvme(once):
    """HDD binds ResNet near the prediction; NVMe leaves it compute-bound."""
    machine = setup_b()

    def measure(spec):
        pipe, m = _tuned_resnet(machine, spec)
        result = run_pipeline(pipe, m, duration=3.0, warmup=1.0, trace=False)
        predicted = io_bound_throughput(
            128 * 115e3, spec.max_bandwidth
        )
        return predicted, result.throughput

    hdd_pred, hdd_obs = once(measure, hdd_st4000())
    nvme_pred, nvme_obs = measure(nvme_p3600())
    emit(
        "sec52_hdd_nvme",
        format_table(
            ("disk", "predicted mb/s", "observed mb/s"),
            [
                ("HDD ST4000", f"{hdd_pred:.1f}", f"{hdd_obs:.1f}"),
                ("NVMe P3600", f"{nvme_pred:.1f}", f"{nvme_obs:.1f}"),
            ],
            title="§5.2 — real-drive bounds (paper HDD err 15%, NVMe compute-bound)",
        ),
    )
    # HDD: I/O bound within 15%.
    assert hdd_obs == pytest.approx(hdd_pred, rel=0.15)
    # NVMe: observed falls well short of the disk bound (compute-bound).
    assert nvme_obs < nvme_pred * 0.6


def test_sec52_ssd_more_io_bound_than_rcnn(once):
    """Same dataset and batch size -> same I/O load per minibatch, but
    MultiBoxSSD's faster CPU side makes it far more I/O-sensitive."""
    plumber = Plumber(setup_b(),
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    ssd_model = once(
        plumber.model, get_workload("ssd").build(scale=SCALE)
    )
    rcnn_model = plumber.model(get_workload("rcnn").build(scale=SCALE))
    assert ssd_model.bytes_per_minibatch == pytest.approx(
        rcnn_model.bytes_per_minibatch, rel=0.1
    )
    # CPU demand per minibatch: RCNN >> SSD (factor ~14 here; paper's
    # "25x more I/O bound" compares their I/O-vs-CPU balance).
    ssd_cpu = sum(1 / r.rate_per_core for r in ssd_model.cpu_nodes())
    rcnn_cpu = sum(1 / r.rate_per_core for r in rcnn_model.cpu_nodes())
    assert rcnn_cpu > 5 * ssd_cpu
