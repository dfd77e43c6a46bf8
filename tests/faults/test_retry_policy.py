"""The retry policy: bounds, backoff pricing, validation."""

from __future__ import annotations

import pytest

from repro.errors import DiskError
from repro.storage.costmodel import CostModel
from repro.storage.faults import RetryPolicy


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(DiskError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(DiskError):
            RetryPolicy(base_backoff_ms=-0.5)
        with pytest.raises(DiskError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_zero_retries_is_legal(self):
        policy = RetryPolicy(max_retries=0)
        assert not policy.should_retry(0)


class TestBounds:
    def test_should_retry_counts_zero_based_attempts(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.should_retry(0)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)


class TestBackoff:
    def test_explicit_base_grows_exponentially(self):
        policy = RetryPolicy(base_backoff_ms=4.0, backoff_multiplier=2.0)
        assert policy.backoff_ms(0) == 4.0
        assert policy.backoff_ms(1) == 8.0
        assert policy.backoff_ms(2) == 16.0

    def test_default_base_priced_through_the_cost_model(self):
        """base_backoff_ms=None derives settle + rotational latency
        from the model supplied at call time."""
        policy = RetryPolicy()
        model = CostModel()
        expected = model.settle + model.rotational_latency
        assert policy.backoff_ms(0, model) == expected
        assert policy.backoff_ms(1, model) == expected * 2.0
        # No model: falls back to the default CostModel.
        assert policy.backoff_ms(0) == expected

    def test_custom_model_changes_the_price(self):
        policy = RetryPolicy()
        class Slow(CostModel):
            settle = 5.0
            rotational_latency = 20.0

        assert policy.backoff_ms(0, Slow()) == 25.0

    def test_flat_backoff_with_multiplier_one(self):
        policy = RetryPolicy(base_backoff_ms=3.0, backoff_multiplier=1.0)
        assert policy.backoff_ms(5) == 3.0
