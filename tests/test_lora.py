import dataclasses

import numpy as np
import pytest

from fedrot.errors import UsageError
from fedrot.lora import (
    LoraAdapter,
    init_adapter,
    semantic_update,
)
from fedrot.numerics import frobenius_norm


def make_adapter(rng, d_out=6, d_in=5, rank=3):
    return LoraAdapter(rng.standard_normal((d_out, rank)), rng.standard_normal((rank, d_in)))


class TestLoraAdapter:
    def test_dims(self):
        ad = make_adapter(np.random.default_rng(0))
        assert ad.dims == (6, 5)

    def test_rank_is_the_shared_inner_dimension(self):
        ad = make_adapter(np.random.default_rng(1))
        assert ad.rank == 3
        assert [f.name for f in dataclasses.fields(LoraAdapter)] == ["b", "a"]

    def test_rank_mismatch_rejected(self):
        with pytest.raises(UsageError, match=r"\(4, 2\) and \(3, 4\) do not share"):
            LoraAdapter(np.zeros((4, 2)), np.zeros((3, 4)))

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(UsageError, match=r"rank 3 out of range for dims \(2, 2\)"):
            LoraAdapter(np.zeros((2, 3)), np.zeros((3, 2)))


class TestSemanticUpdate:
    def test_matches_product(self):
        ad = make_adapter(np.random.default_rng(4))
        np.testing.assert_array_equal(semantic_update(ad), ad.b @ ad.a)

    def test_scalar_case(self):
        ad = LoraAdapter(np.array([[2.0]]), np.array([[0.5]]))
        assert semantic_update(ad)[0, 0] == pytest.approx(1.0)


class TestInitAdapter:
    def test_zero_initial_update(self):
        ad = init_adapter(8, 6, 3, seed=0)
        assert frobenius_norm(semantic_update(ad)) == 0.0
        assert (ad.b == 0.0).all()

    def test_deterministic(self):
        first = init_adapter(8, 6, 3, seed=42)
        second = init_adapter(8, 6, 3, seed=42)
        assert (first.a == second.a).all()

    def test_a_scale(self):
        # std 1/sqrt(d_in) puts row norms of A near 1 regardless of width.
        ad = init_adapter(4, 4096, 2, seed=7)
        row_norms = np.linalg.norm(ad.a, axis=1)
        np.testing.assert_allclose(row_norms, 1.0, atol=0.1)

    def test_invalid_rank(self):
        with pytest.raises(UsageError):
            init_adapter(4, 4, 5, seed=0)
