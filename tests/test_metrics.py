import math

import numpy as np
import pytest

from fedrot.alignment import AlignmentTarget, alignment_gain, dispersion
from fedrot.errors import UsageError
from fedrot.lora import LoraAdapter


def random_adapters(rng, n, d=5, rank=2):
    return [
        LoraAdapter(rng.standard_normal((d, rank)), rng.standard_normal((rank, d)))
        for _ in range(n)
    ]


def scalar_adapters(entries):
    """1x1 adapters whose A entries are ``entries``."""
    return [LoraAdapter(np.ones((1, 1)), np.full((1, 1), x)) for x in entries]


class TestDispersion:
    def test_zero_for_equal_factors(self):
        rng = np.random.default_rng(0)
        (ref,) = random_adapters(rng, 1)
        ads = [LoraAdapter(ref.b.copy(), ref.a.copy()) for _ in range(3)]
        assert dispersion(ads, ref, AlignmentTarget.FACTOR_A) == 0.0

    def test_unit_perturbation(self):
        rng = np.random.default_rng(1)
        (ref,) = random_adapters(rng, 1)
        bump = rng.standard_normal(ref.a.shape)
        bump /= np.linalg.norm(bump)
        ad = LoraAdapter(ref.b.copy(), ref.a + bump)
        assert dispersion([ad], ref, AlignmentTarget.FACTOR_A) == pytest.approx(1.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        ref = random_adapters(rng, 1)[0]
        ads = random_adapters(rng, 6)
        for target, pick in (
            (AlignmentTarget.FACTOR_A, lambda ad: ad.a),
            (AlignmentTarget.FACTOR_B, lambda ad: ad.b),
        ):
            expected = sum(
                np.linalg.norm(pick(ad) - pick(ref)) ** 2 for ad in ads
            ) / len(ads)
            phi = dispersion(ads, ref, target)
            assert phi == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        ref = random_adapters(rng, 1)[0]
        assert dispersion(random_adapters(rng, 4), ref, AlignmentTarget.FACTOR_B) >= 0.0

    def test_rejects_no_adapters(self):
        rng = np.random.default_rng(4)
        (ref,) = random_adapters(rng, 1)
        with pytest.raises(UsageError):
            dispersion([], ref, AlignmentTarget.FACTOR_A)

    def test_overflowing_square_is_inf_and_finite_squares_keep_their_bits(self):
        # ``d ** 2`` raises above ~1.3e154; a diverging run records inf.
        (zero,) = scalar_adapters([0.0])
        huge = scalar_adapters([1e200, 1.0])
        assert dispersion(huge, zero, AlignmentTarget.FACTOR_A) == math.inf
        dists = [0.1 * k for k in range(1, 200)]
        phi = dispersion(scalar_adapters(dists), zero, AlignmentTarget.FACTOR_A)
        assert phi == float(np.mean([d**2 for d in dists]))


class TestAlignmentGain:
    def test_no_change_is_zero(self):
        assert alignment_gain(2.0, 2.0) == 0.0

    def test_perfect_alignment_is_one(self):
        assert alignment_gain(0.0, 3.0) == 1.0

    def test_zero_baseline_is_nan(self):
        # Homogeneous clients leave nothing to align; rounds.csv writes nan.
        assert math.isnan(alignment_gain(0.0, 0.0))
