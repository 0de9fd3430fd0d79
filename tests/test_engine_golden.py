"""Golden-trace equivalence harness for the simulator.

``tests/golden/`` holds one checked-in fingerprint per corpus case:
every observable of a run on the reference generator engine (the oracle
in ``tests/reference_engine.py``) — the serialized trace JSON string,
per-queue telemetry, and the consumer-visible results. These tests pin
both engines to that corpus:

* the shipped engine (``src/repro/runtime``) must reproduce each
  fingerprint exactly (byte-identical trace string, equal counters);
* the oracle must still reproduce its own corpus — so a behavioural
  change to the shared wiring or resource models is caught as a corpus
  drift, distinct from a bug in the shipped engine alone.

Regenerate from the oracle after an *intentional* semantic change with::

    PYTHONPATH=src python -m pytest tests/test_engine_golden.py \
        --regenerate-golden

Failures persist both fingerprints under ``$REPRO_DIFF_DUMP_DIR``
(default ``diff_failures/``) for offline diffing.
"""

from __future__ import annotations

import json

import pytest

from tests.engine_equivalence import (
    GOLDEN_CASES,
    dump_mismatch,
    golden_path,
    load_golden,
    run_fingerprint,
    write_golden,
)

CASE_IDS = [c[0] for c in GOLDEN_CASES]


def test_corpus_is_complete():
    """Every corpus case has a checked-in golden file and vice versa;
    the only other file is the analytic optimizer's digest
    (``tests/test_analytic_golden.py``)."""
    expected = {golden_path(name).name for name in CASE_IDS}
    expected.add("analytic_programs.json")
    on_disk = {p.name for p in golden_path("x").parent.glob("*.json")}
    assert on_disk == expected


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=CASE_IDS)
def test_vectorized_matches_golden(case, regenerate_golden):
    """The shipped engine reproduces the oracle's corpus exactly."""
    name = case[0]
    if regenerate_golden:
        write_golden(name, run_fingerprint(case, oracle=True))
    golden = load_golden(name)
    got = run_fingerprint(case)
    assert got == golden, dump_mismatch(f"{name}_vectorized", golden, got)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=CASE_IDS)
def test_reference_matches_golden(case, regenerate_golden):
    """The oracle still reproduces its own corpus (drift detector:
    separates wiring/resource-model changes from shipped-engine
    bugs)."""
    if regenerate_golden:
        pytest.skip("corpus being regenerated from this engine")
    name = case[0]
    golden = load_golden(name)
    got = run_fingerprint(case, oracle=True)
    assert got == golden, dump_mismatch(f"{name}_reference", golden, got)


def test_golden_traces_parse_and_carry_programs():
    """Corpus files are loadable artifacts, not just strings: the trace
    JSON round-trips through PipelineTrace and carries the program."""
    from repro.core.trace import PipelineTrace

    for name in CASE_IDS:
        trace = PipelineTrace.from_json(load_golden(name)["trace"])
        assert trace.backend == "simulate"
        assert trace.stats, name
        rebuilt = trace.pipeline
        assert rebuilt.topological_order()


def test_mismatch_dump_written(tmp_path, monkeypatch):
    """A failed comparison persists both fingerprints for diffing."""
    import tests.engine_equivalence as eq

    monkeypatch.setattr(eq, "DUMP_DIR", str(tmp_path / "dumps"))
    msg = dump_mismatch("unit", {"trace": "a", "completed": True},
                        {"trace": "b", "completed": True})
    assert "unit" in msg and "trace" in msg
    ref = json.loads(
        (tmp_path / "dumps" / "golden_unit_reference.json").read_text())
    got = json.loads(
        (tmp_path / "dumps" / "golden_unit_candidate.json").read_text())
    assert ref["trace"] == "a" and got["trace"] == "b"
