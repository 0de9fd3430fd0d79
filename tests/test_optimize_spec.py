"""Tests for OptimizeSpec: validation, serialization, cache identity."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.spec import DEFAULT_PASSES, STORE_SCHEMA_VERSION, OptimizeSpec
from repro.service import BatchOptimizer, DiskStore, OptimizationJob
from repro.util import canonical_hash
from tests.test_service import small_pipeline


class TestValidation:
    def test_defaults_match_legacy_plumber_defaults(self):
        spec = OptimizeSpec()
        assert spec.passes == DEFAULT_PASSES
        assert spec.iterations == 2
        assert spec.backend == "simulate"
        assert spec.trace_duration == 3.0
        assert spec.trace_warmup == 0.5

    @pytest.mark.parametrize("bad", [
        dict(iterations=0),
        dict(granularity=0),
        dict(event_budget=0),
        dict(trace_duration=0.0),
        dict(trace_warmup=-0.1),
        dict(trace_duration=1.0, trace_warmup=1.0),
        dict(memory_bytes=0.0),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            OptimizeSpec(**bad)

    def test_passes_coerced_to_tuple(self):
        spec = OptimizeSpec(passes=["parallelism", "cache"])
        assert spec.passes == ("parallelism", "cache")

    def test_replace_revalidates(self):
        spec = OptimizeSpec()
        with pytest.raises(ValueError, match="iterations"):
            spec.replace(iterations=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            OptimizeSpec().iterations = 3


class TestSerialization:
    def test_round_trip(self):
        spec = OptimizeSpec(
            passes=("fuse", "parallelism"), iterations=3,
            backend="analytic", granularity=4, event_budget=10_000,
            trace_duration=2.0, trace_warmup=0.25, memory_bytes=1e9,
        )
        assert OptimizeSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        """A field this version does not have is an error, not ignored
        (a client sending ``allocate_remaining: false`` must be told)."""
        data = dict(OptimizeSpec().to_dict(), allocate_remaining=False)
        with pytest.raises(ValueError, match="unknown.*allocate_remaining"):
            OptimizeSpec.from_dict(data)

    def test_from_dict_rejects_missing_keys(self):
        data = OptimizeSpec().to_dict()
        del data["iterations"], data["memory_bytes"]
        with pytest.raises(ValueError,
                           match=r"missing \['iterations', 'memory_bytes'\]"):
            OptimizeSpec.from_dict(data)

    def test_cache_token_is_json_compatible(self):
        import json

        token = OptimizeSpec().cache_token()
        assert json.loads(json.dumps(token, sort_keys=True)) == token

    def test_every_field_changes_the_token(self):
        base = OptimizeSpec()
        variants = [
            base.replace(passes=("parallelism",)),
            base.replace(iterations=1),
            base.replace(backend="analytic"),
            base.replace(granularity=4),
            base.replace(event_budget=10_000),
            base.replace(trace_duration=2.0),
            base.replace(trace_warmup=0.25),
            base.replace(memory_bytes=1e9),
        ]
        tokens = [str(sorted(v.cache_token().items())) for v in variants]
        tokens.append(str(sorted(base.cache_token().items())))
        assert len(set(tokens)) == len(tokens)

    def test_object_backend_has_no_token(self):
        class Fake:
            name = "fake"

            def trace(self, pipeline, machine, config):
                raise NotImplementedError

        spec = OptimizeSpec(backend=Fake())
        assert spec.backend_name == "fake"
        with pytest.raises(TypeError, match="backend object"):
            spec.cache_token()

    def test_object_pass_has_no_token(self):
        class Fake:
            name = "fake_pass"

            def plan(self, ctx):
                return []

        with pytest.raises(TypeError, match="pass objects"):
            OptimizeSpec(passes=(Fake(),)).cache_token()


class TestServiceCacheIdentity:
    """Distinct specs must never share service cache entries."""

    def _svc(self, test_machine, **kwargs):
        return BatchOptimizer(machine=test_machine, executor="serial",
                              **kwargs)

    def test_spec_flows_to_cache_key(self, small_catalog, test_machine):
        pipe = small_pipeline(small_catalog)
        base = OptimizeSpec(iterations=1, trace_duration=1.0,
                            trace_warmup=0.25, backend="analytic")
        svc = self._svc(test_machine, spec=base)
        report = svc.optimize_fleet([
            OptimizationJob("a", pipe, test_machine),
            OptimizationJob("b", pipe, test_machine,
                            spec=base.replace(event_budget=10_000)),
            OptimizationJob("c", pipe, test_machine,
                            spec=base.replace(trace_duration=2.0)),
            OptimizationJob("d", pipe, test_machine, spec=base),
        ])
        # a and d share the service spec; b and c differ in one field.
        assert report.cache_misses == 3
        assert report.cache_hits == 1
        assert report.job("d").cache_hit

    def test_per_job_spec_honoured_in_worker(self, small_catalog,
                                             test_machine):
        from repro.core.plumber import Plumber

        pipe = small_pipeline(small_catalog)
        job_spec = OptimizeSpec(iterations=1, trace_duration=1.0,
                                trace_warmup=0.25, backend="analytic",
                                passes=("parallelism",))
        svc = self._svc(test_machine)  # service default: simulate, 2 iters
        got = svc.optimize_fleet(
            [OptimizationJob("solo", pipe, test_machine, spec=job_spec)]
        ).jobs[0]
        serial = Plumber(test_machine, spec=job_spec).optimize(pipe)
        assert got.decisions == tuple(serial.decisions)
        assert got.optimized_throughput == pytest.approx(
            serial.model.observed_throughput
        )

    def test_spec_with_pass_objects_rejected_by_service(self,
                                                        small_catalog,
                                                        test_machine):
        class Fake:
            name = "fake_pass"

            def plan(self, ctx):
                return []

        with pytest.raises(TypeError, match="pass names"):
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=OptimizeSpec(passes=(Fake(),)))

    def test_unknown_pass_name_fails_at_construction(self, test_machine):
        """Fail fast with context, not deep inside a worker pool."""
        with pytest.raises(ValueError, match="unknown optimizer passes"):
            self._svc(test_machine, spec=OptimizeSpec(passes=("magic",)))

    def test_unknown_per_job_pass_fails_at_submission(self, small_catalog,
                                                      test_machine):
        svc = self._svc(test_machine)
        job = OptimizationJob(
            "bad", small_pipeline(small_catalog), test_machine,
            spec=OptimizeSpec(passes=("magic",)),
        )
        with pytest.raises(ValueError, match="unknown optimizer passes"):
            svc.optimize_fleet([job])


class TestCacheTokenProperties:
    """Seeded-random property tests for the token's cache-identity
    contract: equal specs always collide, distinct specs never do, and
    a token-derived key is stable across process restarts (so a
    :class:`DiskStore` populated by one process serves the next)."""

    #: per-field value pools; every warmup choice is < every duration
    #: choice so any combination is a valid spec
    FIELD_CHOICES = {
        "passes": [("parallelism",), ("parallelism", "prefetch"),
                   DEFAULT_PASSES, ("fuse",) + DEFAULT_PASSES],
        "iterations": [1, 2, 3],
        "backend": ["simulate", "analytic", "replay"],
        "granularity": [None, 1, 4, 16],
        "event_budget": [None, 10_000, 300_000],
        "trace_duration": [1.0, 3.0, 5.0],
        "trace_warmup": [0.0, 0.25, 0.5],
        "memory_bytes": [None, 1e9, 32e9],
    }

    @classmethod
    def random_spec(cls, rng) -> OptimizeSpec:
        return OptimizeSpec(**{
            name: choices[int(rng.integers(len(choices)))]
            for name, choices in cls.FIELD_CHOICES.items()
        })

    def _key(self, spec: OptimizeSpec) -> str:
        return canonical_hash(spec.cache_token())

    def test_equal_specs_always_collide(self):
        for seed in range(50):
            a = self.random_spec(np.random.default_rng(seed))
            b = self.random_spec(np.random.default_rng(seed))
            assert a == b
            assert self._key(a) == self._key(b), seed

    def test_distinct_specs_never_collide(self):
        rng = np.random.default_rng(1234)
        by_key = {}
        for i in range(200):
            spec = self.random_spec(rng)
            key = self._key(spec)
            if key in by_key:
                assert by_key[key] == spec, (
                    f"collision at draw {i}: {by_key[key]} vs {spec}"
                )
            by_key[key] = spec
        assert len(by_key) > 1  # the sampler actually varies specs

    def test_single_field_mutation_changes_the_key(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            spec = self.random_spec(rng)
            field = list(self.FIELD_CHOICES)[
                int(rng.integers(len(self.FIELD_CHOICES)))
            ]
            current = getattr(spec, field)
            others = [v for v in self.FIELD_CHOICES[field] if v != current]
            mutated = spec.replace(**{field: others[
                int(rng.integers(len(others)))
            ]})
            assert self._key(mutated) != self._key(spec), field

    @pytest.mark.parametrize("spec, key", [
        (OptimizeSpec(),
         "a7d3bd68ce3dc2ad05ca50c59eb45608fa0c1f24c398b837894e710be2117151"),
        (OptimizeSpec(backend="analytic"),
         "2d228f1a188914eba1f192ce353f8716d8047d9bdd5771844660ece3f96c4461"),
    ], ids=("default", "analytic"))
    def test_pinned_cache_keys(self, spec, key):
        """Literal keys: a change to the token's layout or defaults would
        silently orphan every entry in existing on-disk stores."""
        assert self._key(spec) == key

    def test_schema_version_is_part_of_the_token(self, monkeypatch):
        """Bumping the store schema must invalidate every cache key."""
        before = self._key(OptimizeSpec())
        monkeypatch.setattr("repro.core.spec.STORE_SCHEMA_VERSION",
                            STORE_SCHEMA_VERSION + 1)
        assert self._key(OptimizeSpec()) != before

    def test_token_stable_across_process_restart(self, tmp_path):
        """A fresh interpreter derives the same key and reads the entry
        this process wrote through a DiskStore — the token depends only
        on field values, never on process state (hash seeds, ids)."""
        spec = OptimizeSpec(passes=("fuse", "parallelism"), iterations=3,
                            backend="analytic", granularity=4,
                            event_budget=10_000, trace_duration=2.0,
                            trace_warmup=0.25, memory_bytes=1e9)
        key = self._key(spec)
        DiskStore(tmp_path).put(key, {"result": {"marker": 42}})
        script = textwrap.dedent(f"""
            import json
            from repro.core.spec import OptimizeSpec
            from repro.service import DiskStore
            from repro.util import canonical_hash

            spec = OptimizeSpec(passes=("fuse", "parallelism"), iterations=3,
                                backend="analytic", granularity=4,
                                event_budget=10_000, trace_duration=2.0,
                                trace_warmup=0.25, memory_bytes=1e9)
            key = canonical_hash(spec.cache_token())
            print(key)
            print(json.dumps(DiskStore({str(tmp_path)!r}).get(key)))
        """)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        child_key, child_entry = out.stdout.strip().splitlines()
        assert child_key == key
        assert json.loads(child_entry) == {"result": {"marker": 42}}


class TestPlumberSpec:
    def test_spec_governs_trace_acquisition(self, small_catalog,
                                            test_machine):
        """The spec's backend and window drive every trace: the
        certified model and ``Plumber.trace`` both come from them."""
        from repro.core.plumber import Plumber
        from tests.test_core_lp import two_stage_pipeline

        pipe = two_stage_pipeline(small_catalog)
        spec = OptimizeSpec(iterations=1, backend="analytic",
                            trace_duration=1.0, trace_warmup=0.25)
        plumber = Plumber(test_machine, spec=spec)
        for trace in (plumber.optimize(pipe).model.trace,
                      plumber.trace(pipe)):
            assert trace.backend == "analytic"
            assert trace.measured_seconds == pytest.approx(0.75)

    def test_memory_bytes_caps_cache_planning(self, small_catalog,
                                              test_machine):
        """A tiny memory ceiling suppresses the cache pass entirely."""
        from repro.core.plumber import Plumber
        from tests.test_core_lp import two_stage_pipeline

        pipe = two_stage_pipeline(small_catalog)
        spec = OptimizeSpec(trace_duration=1.0, trace_warmup=0.25,
                            backend="analytic", iterations=1,
                            memory_bytes=1024.0)
        result = Plumber(test_machine, spec=spec).optimize(pipe)
        assert result.caches == []
