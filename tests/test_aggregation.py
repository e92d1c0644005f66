import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedrot.aggregation
from fedrot.aggregation import (
    Strategy,
    aggregate_factorwise,
    aggregation_error,
    lagrange_error_oracle,
    server_step,
)
from fedrot.errors import DivergenceError, UsageError
from fedrot.lora import LoraAdapter, semantic_update
from fedrot.numerics import frobenius_norm


def updates_of(adapters):
    return [semantic_update(ad) for ad in adapters]


def error_of(adapters):
    """The aggregation error, with the client products formed here."""
    return aggregation_error(updates_of(adapters), aggregate_factorwise(adapters))


def random_adapters(rng, n, d_out=5, d_in=4, rank=2):
    return [
        LoraAdapter(rng.standard_normal((d_out, rank)), rng.standard_normal((rank, d_in)))
        for _ in range(n)
    ]


class TestAggregateFactorwise:
    def test_means(self):
        rng = np.random.default_rng(3)
        adapters = random_adapters(rng, 4)
        out = aggregate_factorwise(adapters)
        np.testing.assert_allclose(out.b, sum(ad.b for ad in adapters) / 4)
        np.testing.assert_allclose(out.a, sum(ad.a for ad in adapters) / 4)

    def test_rank_preserved(self):
        rng = np.random.default_rng(4)
        assert aggregate_factorwise(random_adapters(rng, 3, rank=2)).rank == 2

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate_factorwise([])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        ads = random_adapters(rng, 1) + random_adapters(rng, 1, d_out=6)
        with pytest.raises(UsageError):
            aggregate_factorwise(ads)


class TestAggregationError:
    def test_scalar_paper_instance(self):
        # Two scalar clients with products 0.5 and 1.5: ideal mean is 1.0,
        # factor-wise mean of (2, 0.25) and (1.5, 1.0) gives 1.75 * 0.625.
        ads = [
            LoraAdapter(np.array([[2.0]]), np.array([[0.25]])),
            LoraAdapter(np.array([[1.5]]), np.array([[1.0]])),
        ]
        err = error_of(ads)
        assert err == pytest.approx(abs(1.75 * 0.625 - 1.0), rel=1e-12)

    def test_two_scalar_lagrange_value(self):
        # For N=2 scalars the identity gives E = -(b1-b2)(a1-a2)/4.
        ads = [
            LoraAdapter(np.array([[1.0]]), np.array([[0.5]])),
            LoraAdapter(np.array([[2.0]]), np.array([[2.0 / 3.0]])),
        ]
        expected = abs(-(1.0 - 2.0) * (0.5 - 2.0 / 3.0) / 4.0)
        assert error_of(ads) == pytest.approx(expected, rel=1e-12)

    def test_identical_clients_zero_error(self):
        rng = np.random.default_rng(5)
        (ad,) = random_adapters(rng, 1)
        copies = [LoraAdapter(ad.b.copy(), ad.a.copy()) for _ in range(4)]
        assert error_of(copies) == 0.0

    def test_single_client_zero_error(self):
        rng = np.random.default_rng(6)
        assert error_of(random_adapters(rng, 1)) == 0.0

    def test_averages_the_given_updates_in_client_order(self):
        # The server does not form the client products again: it averages
        # the ones it is given, in client order starting from zeros.
        rng = np.random.default_rng(13)
        ads = random_adapters(rng, 5)
        updates = [rng.standard_normal((5, 4)) for _ in ads]
        total = np.zeros((5, 4))
        for update in updates:
            total += update
        factorwise = aggregate_factorwise(ads)
        want = frobenius_norm(semantic_update(factorwise) - total / 5)
        assert aggregation_error(updates, factorwise) == want

    def test_matches_lagrange_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            ads = random_adapters(
                rng,
                n,
                d_out=int(rng.integers(2, 7)),
                d_in=int(rng.integers(2, 7)),
                rank=1,
            )
            direct = error_of(ads)
            oracle = frobenius_norm(lagrange_error_oracle(ads))
            assert abs(direct - oracle) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 6))
    def test_property_lagrange_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        ads = random_adapters(rng, n, d_out=4, d_in=5, rank=3)
        ideal = sum(updates_of(ads)) / len(ads)
        direct = semantic_update(aggregate_factorwise(ads)) - ideal
        np.testing.assert_allclose(direct, lagrange_error_oracle(ads), atol=1e-10)


class TestServerStep:
    def _prev(self, rng):
        return LoraAdapter(rng.standard_normal((5, 2)), rng.standard_normal((2, 4)))

    def test_fedit_factorwise(self):
        rng = np.random.default_rng(8)
        prev = self._prev(rng)
        adapters = random_adapters(rng, 3)
        model, err = server_step(adapters, updates_of(adapters), prev,
                                 Strategy.FEDIT, 1)
        expected = aggregate_factorwise(adapters)
        np.testing.assert_array_equal(model.b, expected.b)
        np.testing.assert_array_equal(model.a, expected.a)
        assert err == error_of(adapters)

    def test_checks_and_averages_once(self, monkeypatch):
        # One factor-wise mean per round serves both the new global model
        # and the aggregation error.
        calls = {"_check_adapters": 0, "aggregate_factorwise": 0, "aggregation_error": 0}
        for name in calls:
            real = getattr(fedrot.aggregation, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(fedrot.aggregation, name, counted)
        rng = np.random.default_rng(11)
        adapters = random_adapters(rng, 3)
        server_step(adapters, updates_of(adapters), self._prev(rng), Strategy.FEDIT, 1)
        assert calls == {"_check_adapters": 1, "aggregate_factorwise": 1, "aggregation_error": 1}

    def test_rejects_inconsistent_adapters(self):
        rng = np.random.default_rng(12)
        adapters = random_adapters(rng, 2) + random_adapters(rng, 1, rank=1)
        with pytest.raises(UsageError, match="inconsistent"):
            server_step(adapters, updates_of(adapters), self._prev(rng),
                        Strategy.FEDIT, 1)

    def test_overflow_diverges_at_the_server_and_not_in_the_library(self):
        # Finite factors whose mean or aggregation error overflows: the
        # library's functions keep their UsageError for non-finite values,
        # while the server step reads a divergence of the given round.
        huge, tiny = np.array([[1e300]]), np.array([[1e-300]])
        adapters = [LoraAdapter(huge, tiny), LoraAdapter(tiny, huge)]
        updates = updates_of(adapters)
        assert aggregation_error(updates, aggregate_factorwise(adapters)) == math.inf
        with pytest.raises(DivergenceError, match="aggregation error") as exc:
            server_step(adapters, updates, adapters[0], Strategy.FEDIT, 4)
        assert exc.value.round_index == 4
        with pytest.raises(UsageError, match="finite matrices"):
            aggregation_error([np.full((1, 1), np.inf)], adapters[0])
        adapters = [LoraAdapter(np.array([[1e308]]), tiny)] * 2
        with pytest.raises(UsageError, match="NaN or Inf"):
            aggregate_factorwise(adapters)
        with pytest.raises(DivergenceError, match="factor mean") as exc:
            server_step(adapters, updates_of(adapters), adapters[0], Strategy.FEDIT, 2)
        assert exc.value.round_index == 2
        assert exc.value.__cause__.__traceback__ is None  # it holds no frames

    def test_ffa_keeps_global_a_bitwise(self):
        rng = np.random.default_rng(9)
        prev = self._prev(rng)
        adapters = random_adapters(rng, 3)
        model, _ = server_step(adapters, updates_of(adapters), prev, Strategy.FFA_LORA, 1)
        assert (model.a == prev.a).all()

    def test_rolora_alternates_frozen_factor(self):
        rng = np.random.default_rng(10)
        prev = self._prev(rng)
        adapters = random_adapters(rng, 3)
        updates = updates_of(adapters)
        odd, _ = server_step(adapters, updates, prev, Strategy.ROLORA, 1)
        assert (odd.a == prev.a).all()
        even, _ = server_step(adapters, updates, prev, Strategy.ROLORA, 2)
        assert (even.b == prev.b).all()
