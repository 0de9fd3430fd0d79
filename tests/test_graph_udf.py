"""Unit tests for UDF metadata and cost models."""

import pytest

from repro.graph.udf import CostModel, UserFunction


class TestCostModel:
    def test_core_seconds_multiplies_width(self):
        cost = CostModel(cpu_seconds=0.1, internal_parallelism=3.0)
        assert cost.core_seconds == pytest.approx(0.3)

    def test_default_is_free(self):
        assert CostModel().core_seconds == 0.0

    def test_rejects_negative_cpu(self):
        with pytest.raises(ValueError, match="cpu_seconds"):
            CostModel(cpu_seconds=-1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="internal_parallelism"):
            CostModel(internal_parallelism=0.0)


class TestUserFunction:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            UserFunction(name="")

    def test_output_size_uses_ratio(self):
        udf = UserFunction("decode", size_ratio=6.0)
        assert udf.output_size(100.0) == pytest.approx(600.0)

    def test_output_size_fixed_overrides_ratio(self):
        udf = UserFunction("crop", size_ratio=6.0, output_bytes=50.0)
        assert udf.output_size(1e6) == 50.0

    def test_rejects_negative_ratios(self):
        with pytest.raises(ValueError):
            UserFunction("bad", size_ratio=-1.0)
        with pytest.raises(ValueError):
            UserFunction("bad", examples_ratio=-0.5)
        with pytest.raises(ValueError):
            UserFunction("bad", output_bytes=-2.0)

    def test_round_trip_serialization(self):
        inner = UserFunction("rng", accesses_seed=True)
        udf = UserFunction(
            "outer",
            cost=CostModel(cpu_seconds=0.5, internal_parallelism=2.0),
            size_ratio=3.0,
            examples_ratio=2.0,
            calls=(inner,),
        )
        restored = UserFunction.from_dict(udf.to_dict())
        assert restored.name == "outer"
        assert restored.cost.cpu_seconds == 0.5
        assert restored.cost.internal_parallelism == 2.0
        assert restored.size_ratio == 3.0
        assert restored.examples_ratio == 2.0
        assert len(restored.calls) == 1
        assert restored.calls[0].accesses_seed
        assert restored == udf
