import math

import numpy as np
import pytest

from fedrot.alignment import AlignmentTarget
from fedrot.errors import EstimationError, UsageError
from fedrot.federation import FederationConfig, TaskSpec, run_federation
from fedrot.lora import LoraAdapter
from fedrot.metrics import (
    TheoryConstants,
    alignment_gain,
    dispersion,
    estimate_constants,
    factor_distances,
    feasible_lambda_range,
    gamma,
)
from fedrot.aggregation import Strategy
from fedrot.tasks import TaskKind

EXAMPLE_CONSTANTS = TheoryConstants(
    c0=1.0, kappa=0.5, delta_a=1.0, delta_b=1.0, tau=1.0, g_b=1.0, eta=0.01
)


def random_adapters(rng, n, d=5, rank=2):
    return [
        LoraAdapter(rng.standard_normal((d, rank)), rng.standard_normal((rank, d)), rank)
        for _ in range(n)
    ]


class TestTheoryConstants:
    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            TheoryConstants(c0=0.0, kappa=1, delta_a=1, delta_b=1, tau=1, g_b=1, eta=1)


class TestDispersion:
    def test_zero_for_equal_factors(self):
        rng = np.random.default_rng(0)
        (ref,) = random_adapters(rng, 1)
        ads = [LoraAdapter(ref.b.copy(), ref.a.copy(), ref.rank) for _ in range(3)]
        dists = factor_distances(ads, ref, AlignmentTarget.FACTOR_A)
        assert dists == [0.0, 0.0, 0.0]
        assert dispersion(dists) == 0.0

    def test_unit_perturbation(self):
        rng = np.random.default_rng(1)
        (ref,) = random_adapters(rng, 1)
        bump = rng.standard_normal(ref.a.shape)
        bump /= np.linalg.norm(bump)
        ad = LoraAdapter(ref.b.copy(), ref.a + bump, ref.rank)
        dists = factor_distances([ad], ref, AlignmentTarget.FACTOR_A)
        assert dispersion(dists) == pytest.approx(1.0)

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
            phi = dispersion(factor_distances(ads, ref, target))
            assert phi == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        ref = random_adapters(rng, 1)[0]
        dists = factor_distances(random_adapters(rng, 4), ref, AlignmentTarget.FACTOR_B)
        assert dispersion(dists) >= 0.0

    def test_rejects_no_adapters(self):
        with pytest.raises(UsageError):
            dispersion([])


class TestAlignmentGain:
    def test_no_change_is_zero(self):
        assert alignment_gain(2.0, 2.0) == 0.0

    def test_perfect_alignment_is_one(self):
        assert alignment_gain(0.0, 3.0) == 1.0

    def test_zero_baseline_is_nan(self):
        # Homogeneous clients leave nothing to align; rounds.csv writes nan.
        assert math.isnan(alignment_gain(0.0, 0.0))


class TestGamma:
    def test_zero_at_origin(self):
        assert gamma(0.0, EXAMPLE_CONSTANTS) == 0.0

    def test_worked_example(self):
        # (1 - 0.02) * 0.5 - 4 * 0.25 * 0.25 * 1 = 0.24
        assert gamma(0.5, EXAMPLE_CONSTANTS) == pytest.approx(0.24, rel=1e-12)

    def test_concave(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [gamma(x, EXAMPLE_CONSTANTS) for x in grid]
        second = np.diff(values, 2)
        assert (second <= 1e-12).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            gamma(1.5, EXAMPLE_CONSTANTS)


class TestFeasibleLambdaRange:
    def test_worked_example_endpoint(self):
        lo, hi = feasible_lambda_range(EXAMPLE_CONSTANTS)
        assert lo == 0.0
        assert hi == pytest.approx(0.98, rel=1e-12)

    def test_large_eta_empty(self):
        k = TheoryConstants(c0=1.0, kappa=0.5, delta_a=1.0, delta_b=1.0,
                            tau=1.0, g_b=1.0, eta=0.5)
        assert feasible_lambda_range(k) is None

    def test_threshold_is_empty(self):
        threshold = 1.0 * 1.0 / (4.0 * 1.0 * 0.5 * 1.0)
        k = TheoryConstants(c0=1.0, kappa=0.5, delta_a=1.0, delta_b=1.0,
                            tau=1.0, g_b=1.0, eta=threshold)
        assert feasible_lambda_range(k) is None

    def test_endpoint_is_root(self):
        lo, hi = feasible_lambda_range(EXAMPLE_CONSTANTS)
        if hi < 1.0:
            assert abs(gamma(hi, EXAMPLE_CONSTANTS)) <= 1e-10

    def test_sign_consistency_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = TheoryConstants(
                c0=float(rng.uniform(0.1, 2.0)),
                kappa=float(rng.uniform(0.1, 2.0)),
                delta_a=float(rng.uniform(0.1, 2.0)),
                delta_b=float(rng.uniform(0.1, 2.0)),
                tau=float(rng.uniform(0.1, 2.0)),
                g_b=float(rng.uniform(0.1, 2.0)),
                eta=float(rng.uniform(0.001, 0.1)),
            )
            interval = feasible_lambda_range(k)
            grid = np.linspace(0.0, 1.0, 10_001)[1:]
            values = np.array([gamma(x, k) for x in grid])
            if interval is None:
                continue
            _, hi = interval
            inside = grid < hi - 1e-12
            above = grid > hi + 1e-12
            assert (values[inside] > 0).all()
            assert (values[above] <= 1e-12).all()


def heterogeneous_run(lam=0.6, strategy=Strategy.FEDROT):
    config = FederationConfig(
        strategy=strategy,
        n_clients=3,
        rank=3,
        dims=(16, 16),
        rounds=12,
        local_steps=30,
        learning_rate=0.05,
        lam=lam,
        align_from_round=1,
        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=3, heterogeneity=0.5),
        seed=5,
    )
    return run_federation(config)


class TestEstimateConstants:
    def test_estimates_from_heterogeneous_run(self):
        run = heterogeneous_run()
        k = estimate_constants(run)
        assert k.tau > 0 and k.g_b > 0 and k.kappa > 0
        assert k.eta == run.config.learning_rate
        # tau is a running max over per-client factor-norm products, so it
        # dominates every recorded product norm.
        assert k.tau >= max(r.tau_diag for r in run.rounds) - 1e-12

    def test_degenerate_run_rejected(self):
        # With a zero learning rate every client sits exactly on the
        # reference, so the heterogeneity floors are zero.
        config = FederationConfig(
            strategy=Strategy.FEDROT,
            n_clients=3,
            rank=2,
            dims=(8, 8),
            rounds=8,
            local_steps=10,
            learning_rate=0.0,
            lam=0.5,
            task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=2,
                          heterogeneity=0.0),
            seed=1,
        )
        run = run_federation(config)
        with pytest.raises(EstimationError):
            estimate_constants(run)

    def test_requires_two_rounds(self):
        run = heterogeneous_run()
        run.rounds = run.rounds[:1]
        with pytest.raises(UsageError):
            estimate_constants(run)
