"""Acceptance gate: twelve checks, one printed pass/fail line each."""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedrot.aggregation import Strategy, aggregate_factorwise, lagrange_error_oracle
from fedrot.alignment import (
    AlignmentTarget,
    apply_alignment,
    haar_random_rotation,
    procrustes_rotation,
    soft_rotation,
)
from fedrot.config import FederationConfig, TaskSpec
from fedrot.federation import build_task, run_federation
from fedrot.lora import LoraAdapter, semantic_update
from fedrot.numerics import frobenius_norm
from fedrot.tasks import (
    TaskKind,
    logistic_task,
    lowrank_regression_task,
)
from fedrot.verify import scalar_rounds_to_threshold, scalar_toy_config

SEEDS = (0, 1, 2)


def _report(index, name, ok, detail):
    print(f"[criterion {index:02d}] {'pass' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"


def regression_base(**kwargs):
    base = dict(
        strategy=Strategy.FEDROT,
        n_clients=3,
        rank=4,
        dims=(64, 64),
        rounds=3,
        local_steps=3000,
        learning_rate=0.05,
        lam=1.0,
        align_from_round=1,
        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=4,
                      heterogeneity=0.02),
        seed=0,
    )
    base.update(kwargs)
    return FederationConfig(**base)


def mean_agg_error(run):
    return float(np.mean([r.agg_error for r in run.rounds]))


def test_criterion_01_scalar_toy_ordering():
    t0 = time.perf_counter()
    rounds = {
        strategy: scalar_rounds_to_threshold(
            run_federation(scalar_toy_config(strategy))
        )
        for strategy in (
            Strategy.FEDROT,
            Strategy.FEDIT,
            Strategy.FFA_LORA,
            Strategy.ROLORA,
        )
    }
    elapsed = time.perf_counter() - t0
    ok = (
        rounds[Strategy.FEDROT] <= rounds[Strategy.FEDIT]
        and rounds[Strategy.FFA_LORA] > rounds[Strategy.FEDROT]
        and rounds[Strategy.ROLORA] > rounds[Strategy.FEDROT]
        and elapsed < 5.0
    )
    detail = (
        f"rounds to |ba-1|<0.05: fedrot={rounds[Strategy.FEDROT]} "
        f"fedit={rounds[Strategy.FEDIT]} ffa={rounds[Strategy.FFA_LORA]} "
        f"rolora={rounds[Strategy.ROLORA]} ({elapsed:.2f}s)"
    )
    _report(1, "scalar-toy strategy ordering", ok, detail)


def test_criterion_02_aggregation_error_reduction():
    t0 = time.perf_counter()
    lambdas = (0.2, 0.4, 0.6, 0.8, 1.0)
    ratios = []
    for seed in SEEDS:
        fedit = mean_agg_error(
            run_federation(regression_base(strategy=Strategy.FEDIT, seed=seed))
        )
        best = min(
            mean_agg_error(run_federation(regression_base(lam=lam, seed=seed)))
            for lam in lambdas
        )
        ratios.append(fedit / best)
    elapsed = time.perf_counter() - t0
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio >= 3.0 and elapsed < 120.0
    detail = (
        f"fedit/fedrot mean |E| ratio = {mean_ratio:.2f} "
        f"(per seed: {', '.join(f'{r:.2f}' for r in ratios)}; "
        f"threshold 3.0; {elapsed:.1f}s)"
    )
    _report(2, "aggregation-error reduction >= 3x", ok, detail)


def _haar_so_batch(rng, n, r):
    mats = rng.standard_normal((n, r, r))
    q, rr = np.linalg.qr(mats)
    signs = np.sign(np.einsum("nii->ni", rr))
    signs[signs == 0] = 1.0
    q = q * signs[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0, :, -1] *= -1.0
    return q


def test_criterion_03_procrustes_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    theta = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    worst_gap_r2 = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 9))
        local = rng.standard_normal((2, d))
        ref = rng.standard_normal((2, d))
        m = ref @ local.T
        rot = procrustes_rotation(local, ref, AlignmentTarget.FACTOR_A)
        closed = float(np.trace(rot.r @ m))
        grid = float(((m[0, 0] + m[1, 1]) * cos_t + (m[0, 1] - m[1, 0]) * sin_t).max())
        worst_gap_r2 = max(worst_gap_r2, grid - closed)
    beaten = 0
    for _ in range(100):
        d = int(rng.integers(4, 9))
        local = rng.standard_normal((3, d))
        ref = rng.standard_normal((3, d))
        m = ref @ local.T
        rot = procrustes_rotation(local, ref, AlignmentTarget.FACTOR_A)
        closed = float(np.trace(rot.r @ m))
        samples = _haar_so_batch(rng, 10_000, 3)
        sample_best = float(np.einsum("nij,ji->n", samples, m).max())
        if closed >= sample_best - 1e-9:
            beaten += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap_r2 <= 1e-6 and beaten == 100 and elapsed < 30.0
    detail = (
        f"r=2 max grid-over-closed-form gap = {worst_gap_r2:.3e} (tol 1e-6); "
        f"r=3 closed form beat 1e4 Haar samples in {beaten}/100 instances "
        f"({elapsed:.1f}s)"
    )
    _report(3, "closed-form rotation exactness", ok, detail)


def test_criterion_04_semantic_preservation():
    rng = np.random.default_rng(40)
    worst = 0.0
    for i in range(1000):
        d_out, d_in = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        ad = LoraAdapter(rng.standard_normal((d_out, r)), rng.standard_normal((r, d_in)))
        rot = haar_random_rotation(r, seed=[40, i])
        before = semantic_update(ad)
        after = semantic_update(apply_alignment(ad, rot))
        worst = max(
            worst,
            frobenius_norm(after - before) / max(1.0, frobenius_norm(before)),
        )
    run = run_federation(
        regression_base(lam=0.7, rounds=6, local_steps=60,
                        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION,
                                      true_rank=4, heterogeneity=0.3))
    )
    run_worst = max(r.semantic_drift_max for r in run.rounds)
    ok = worst <= 1e-12 and run_worst <= 1e-12
    detail = (
        f"max relative |b~a~ - ba|: random pairs {worst:.3e}, "
        f"full run {run_worst:.3e} (tol 1e-12)"
    )
    _report(4, "rotations preserve semantics", ok, detail)


def test_criterion_05_lagrange_identity():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        d_out, d_in = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        ads = [
            LoraAdapter(rng.standard_normal((d_out, r)), rng.standard_normal((r, d_in)))
            for _ in range(n)
        ]
        ideal = sum(semantic_update(ad) for ad in ads) / len(ads)
        direct = semantic_update(aggregate_factorwise(ads)) - ideal
        worst = max(worst, frobenius_norm(direct - lagrange_error_oracle(ads)))
    ok = worst <= 1e-10
    _report(5, "aggregation-error identity", ok,
            f"max |direct - pairwise double sum| = {worst:.3e} (tol 1e-10)")


def test_criterion_06_soft_rotation_shrinkage():
    rng = np.random.default_rng(60)
    violations = 0
    for i in range(1000):
        r = int(rng.integers(1, 7))
        hard = haar_random_rotation(r, seed=[60, i])
        lam = float(rng.uniform(0.0, 1.0))
        soft = soft_rotation(hard, lam)
        eye = np.eye(r)
        if frobenius_norm(soft.r - eye) > 2.0 * lam * frobenius_norm(hard.r - eye) + 1e-12:
            violations += 1
    ok = violations == 0
    _report(6, "soft-rotation shrinkage bound", ok,
            f"|R_soft - I| <= 2 lambda |R* - I| violations: {violations}/1000")


def test_criterion_07_lambda_sweep_shape():
    lambdas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    seeds_with_interior_optimum = 0
    per_seed = []
    for seed in SEEDS:
        losses = {}
        for lam in lambdas:
            run = run_federation(
                regression_base(
                    lam=lam, rounds=1, seed=seed,
                    task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION,
                                  true_rank=4, heterogeneity=0.5),
                )
            )
            losses[lam] = run.rounds[-1].loss
        interior = min(losses[lam] for lam in (0.2, 0.4, 0.6, 0.8))
        hit = interior <= losses[0.0] and interior <= losses[1.0]
        seeds_with_interior_optimum += hit
        per_seed.append(
            f"seed {seed}: interior {interior:.5f} vs endpoints "
            f"{losses[0.0]:.5f}/{losses[1.0]:.5f} ({'yes' if hit else 'no'})"
        )
    ok = seeds_with_interior_optimum >= 2
    _report(7, "intermediate lambda optimal", ok,
            f"{seeds_with_interior_optimum}/3 seeds; " + "; ".join(per_seed))


def test_criterion_08_lambda_zero_is_fedit():
    config = regression_base(
        lam=0.0, rounds=6, local_steps=40,
        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=4,
                      heterogeneity=0.4),
    )
    fedrot = run_federation(config)
    fedit = run_federation(replace(config, strategy=Strategy.FEDIT))
    identical = all(
        (x.b == y.b).all() and (x.a == y.a).all()
        for x, y in zip(fedrot.history, fedit.history)
    ) and all(
        x.loss == y.loss and x.agg_error == y.agg_error
        for x, y in zip(fedrot.rounds, fedit.rounds)
    )
    _report(8, "lambda=0 bit-identical to fedit", identical,
            f"{len(fedrot.history)} models and {len(fedrot.rounds)} round "
            "records compared bitwise")


def test_criterion_09_random_rotation_degrades():
    ratios = []
    for seed in SEEDS:
        kwargs = dict(
            rounds=25, local_steps=60, seed=seed,
            task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=4,
                          heterogeneity=0.3),
        )
        fedrot = run_federation(regression_base(lam=1.0, **kwargs))
        scrambled = run_federation(
            regression_base(strategy=Strategy.RANDOM_ROTATION, **kwargs)
        )
        ratios.append(scrambled.rounds[-1].loss / fedrot.rounds[-1].loss)
    ok = all(r >= 2.0 for r in ratios)
    _report(9, "random rotations degrade >= 2x", ok,
            "final-loss ratios: " + ", ".join(f"{r:.1f}" for r in ratios)
            + " (threshold 2.0, all seeds)")


def test_criterion_10_communication_accounting():
    d, r = 8, 2
    expected = 2 * d * r
    observed = {}
    for strategy in (
        Strategy.FEDIT,
        Strategy.FEDROT,
        Strategy.FFA_LORA,
        Strategy.ROLORA,
        Strategy.SCALAR_RESCALE,
        Strategy.RANDOM_ROTATION,
    ):
        run = run_federation(
            regression_base(
                strategy=strategy, rank=r, dims=(d, d), rounds=3,
                local_steps=10, lam=0.5,
                task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=2,
                              heterogeneity=0.3),
            )
        )
        observed[strategy.value] = {
            (rec.upload_scalars, rec.download_scalars) for rec in run.rounds
        }
    ok = all(v == {(expected, expected)} for v in observed.values())
    _report(10, "2dr scalars per direction per round", ok,
            f"expected {expected} per direction for d={d}, r={r}; "
            f"strategies checked: {', '.join(sorted(observed))}")


def _fd_check(task, client, b, a):
    gb, ga = task.client_grads(client, b, a)
    h = 1e-6
    fb = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        plus, minus = b.copy(), b.copy()
        plus[idx] += h
        minus[idx] -= h
        fb[idx] = (task.product_loss(client, np.dot(plus, a))
                   - task.product_loss(client, np.dot(minus, a))) / (2 * h)
    fa = np.zeros_like(a)
    for idx in np.ndindex(a.shape):
        plus, minus = a.copy(), a.copy()
        plus[idx] += h
        minus[idx] -= h
        fa[idx] = (task.product_loss(client, np.dot(b, plus))
                   - task.product_loss(client, np.dot(b, minus))) / (2 * h)
    scale = max(1.0, float(np.linalg.norm(fb)), float(np.linalg.norm(fa)))
    err = max(float(np.linalg.norm(gb - fb)), float(np.linalg.norm(ga - fa)))
    return err / scale


def test_criterion_11_gradient_correctness():
    rng = np.random.default_rng(110)
    tasks = {
        "scalar_toy": (build_task(scalar_toy_config(Strategy.FEDIT)), (1, 1), (1, 1), 3),
        "lowrank_regression": (
            lowrank_regression_task(5, 4, 2, 2, 0.5, seed=11), (5, 2), (2, 4), 2
        ),
        "logistic": (logistic_task(5, 3, 60, 1, 1.0, seed=11), (3, 2), (2, 5), 1),
    }
    worst = {}
    for name, (task, b_shape, a_shape, n_clients) in tasks.items():
        errs = []
        for _ in range(100):
            b = 0.5 * rng.standard_normal(b_shape)
            a = 0.5 * rng.standard_normal(a_shape)
            errs.append(_fd_check(task, int(rng.integers(n_clients)), b, a))
        worst[name] = max(errs)
    ok = all(v <= 1e-4 for v in worst.values())
    _report(11, "analytic gradients match finite differences", ok,
            "; ".join(f"{k}: max rel err {v:.3e}" for k, v in worst.items())
            + " (tol 1e-4, 100 points each)")


def test_criterion_12_out_of_scope_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    ok = "out of scope" in readme and "Full-scale LLM fine-tuning" in readme
    _report(12, "large-scale results declared out of scope", ok,
            "README Scope section states full-scale LLM benchmark accuracies "
            "are not reproduced; criteria 1-11 substitute invariant, oracle, "
            "and ordering checks")
