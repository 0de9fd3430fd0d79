"""Shared fixtures: small catalogs, a fast test machine, tiny pipelines."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-golden",
        action="store_true",
        default=False,
        help=(
            "Recapture tests/golden/ from the reference oracle "
            "(tests/reference_engine.py) instead of comparing against "
            "it. The regeneration run still asserts the shipped engine "
            "matches the fresh capture."
        ),
    )


@pytest.fixture
def regenerate_golden(request) -> bool:
    """True when the suite was invoked with ``--regenerate-golden``."""
    return request.config.getoption("--regenerate-golden")

from repro.graph.builder import from_tfrecords
from repro.graph.udf import CostModel, UserFunction
from repro.host.disk import token_bucket
from repro.host.machine import Machine
from repro.io.filesystem import FileCatalog


@pytest.fixture
def small_catalog() -> FileCatalog:
    """16 files x 256 records x 10 KB (~41 MB)."""
    return FileCatalog(
        name="test",
        num_files=16,
        records_per_file=256.0,
        bytes_per_record=10e3,
        size_cv=0.1,
        seed=42,
    )


@pytest.fixture
def test_machine() -> Machine:
    """A small 8-core host with fast storage and mild overheads."""
    return Machine(
        name="test_host",
        cores=8,
        core_speed=1.0,
        memory_bytes=8e9,
        disk=token_bucket(2e9, name="fast"),
        iterator_overhead=10e-6,
        tracer_overhead=10e-6,
        oversubscription_penalty=0.05,
    )


def make_udf(
    name: str = "udf",
    cpu: float = 1e-4,
    size_ratio: float = 1.0,
    random: bool = False,
    internal: float = 1.0,
) -> UserFunction:
    """Shorthand UDF constructor used across the suite."""
    return UserFunction(
        name,
        cost=CostModel(cpu_seconds=cpu, internal_parallelism=internal),
        size_ratio=size_ratio,
        accesses_seed=random,
    )


def served_caps(pipeline, machine, served_caches):
    """The analytic caps of ``pipeline`` with ``served_caches`` serving,
    on the node models behind :func:`repro.runtime.analytic.fill_caps`
    (an empty set gives exactly ``fill_caps``)."""
    from repro.runtime.analytic import _equilibrium_caps, _fill_models

    models = _fill_models(pipeline, machine)
    return _equilibrium_caps(models, machine, 0.0, served_caches)


@pytest.fixture
def simple_pipeline(small_catalog):
    """src -> map -> batch -> prefetch -> repeat, parallelism 1."""
    return (
        from_tfrecords(small_catalog, parallelism=1, name="src")
        .map(make_udf("work", cpu=5e-4), parallelism=1, name="map_work")
        .batch(16, name="batch")
        .prefetch(4, name="prefetch")
        .repeat(None, name="repeat")
        .build("simple")
    )


@pytest.fixture
def single_epoch_pipeline(small_catalog):
    """A finite pipeline (no repeat) for end-of-stream tests."""
    return (
        from_tfrecords(small_catalog, parallelism=2, name="src")
        .map(make_udf("work", cpu=1e-5), parallelism=2, name="map_work")
        .batch(16, name="batch")
        .build("finite")
    )
