"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table/figure from the paper's evaluation,
prints the same rows/series, asserts the qualitative claims, and writes
its table to ``benchmarks/results/<name>.txt`` so the output survives
pytest's capture. Timing benchmarks, whose numbers differ on every run,
write to the untracked ``benchmarks/run/`` instead.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: timing tables and JSON (wallclock varies per run; gitignored)
RUN_DIR = pathlib.Path(__file__).parent / "run"


def emit(name: str, text: str, directory: pathlib.Path = RESULTS_DIR) -> None:
    """Print a result table and persist it as ``<directory>/<name>.txt``."""
    print(f"\n{text}\n")
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
