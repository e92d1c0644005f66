import math
import tracemalloc

import numpy as np
import pytest

from fedrot.aggregation import Strategy
from fedrot.errors import UsageError
from fedrot.federation import build_task
from fedrot.numerics import square
from fedrot.tasks import (
    LowRankRegressionTask,
    _distinct_sorted,
    dirichlet_partition,
    logistic_task,
    lowrank_regression_task,
)
from fedrot.verify import scalar_toy_config


def finite_difference_grads(loss_fn, b, a, h=1e-6):
    gb = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        plus, minus = b.copy(), b.copy()
        plus[idx] += h
        minus[idx] -= h
        gb[idx] = (loss_fn(plus, a) - loss_fn(minus, a)) / (2 * h)
    ga = np.zeros_like(a)
    for idx in np.ndindex(a.shape):
        plus, minus = a.copy(), a.copy()
        plus[idx] += h
        minus[idx] -= h
        ga[idx] = (loss_fn(b, plus) - loss_fn(b, minus)) / (2 * h)
    return gb, ga


def assert_grads_match(task, client, b, a, rel=1e-5):
    gb, ga = task.client_grads(client, b, a)
    fb, fa = finite_difference_grads(lambda bb, aa: task.client_loss(client, bb, aa), b, a)
    scale = max(1.0, np.linalg.norm(fb), np.linalg.norm(fa))
    assert np.linalg.norm(gb - fb) <= rel * scale
    assert np.linalg.norm(ga - fa) <= rel * scale


def scalar_toy_task():
    """The task ``build_task`` gives the scalar toy, targets (0.5, 1.0, 1.5)."""
    return build_task(scalar_toy_config(Strategy.FEDIT))


def scalar_toy_reference(target, b, a):
    """The scalar toy's loss and factor gradients written out in Python
    floats, ``r ** 2`` with ``r = b a - target``: the oracle for the 1x1
    regression that ``build_task`` builds."""
    r = b * a - target
    g = 2.0 * r
    return square(r), g * a, b * g


class TestScalarToy:
    def test_built_as_a_full_batch_1x1_regression(self):
        task = scalar_toy_task()
        assert isinstance(task, LowRankRegressionTask)
        assert [t.tolist() for t in task.client_targets] == [[[0.5]], [[1.0]], [[1.5]]]
        assert [task.sample_count(i) for i in range(3)] == [1, 1, 1]

    def test_matches_the_python_float_formulas(self):
        # Factors at scales 10^+-160, so that many residuals, squares and
        # gradients overflow: the gradients keep the old bits, and the loss
        # is the correctly rounded r * r, within 1 ULP of the old r ** 2.
        task = scalar_toy_task()
        rng = np.random.default_rng(29)
        overflows = 0
        for _ in range(10_000):
            i = int(rng.integers(3))
            b, a = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-160, 160, 2)).tolist()
            bb, aa = np.array([[b]]), np.array([[a]])
            target = float(task.client_targets[i][0, 0])
            want_loss, want_gb, want_ga = scalar_toy_reference(target, b, a)
            with np.errstate(over="ignore"):  # silenced in training as here
                gb, ga = task.client_grads(i, bb, aa)
            assert gb.tobytes() == np.float64(want_gb).tobytes()
            assert ga.tobytes() == np.float64(want_ga).tobytes()
            # The loss is silent where the product or the loss overflows.
            loss = task.client_loss(i, bb, aa)
            r = b * a - target
            assert loss == r * r
            if math.isinf(loss) or math.isinf(want_loss):
                assert loss == want_loss == math.inf
                overflows += 1
            else:
                assert abs(loss - want_loss) <= math.ulp(want_loss)
        assert overflows >= 1000

    def test_losses_at_one(self):
        task = scalar_toy_task()
        b, a = np.array([[1.0]]), np.array([[1.0]])
        losses = [task.client_loss(i, b, a) for i in range(3)]
        assert losses == pytest.approx([0.25, 0.0, 0.25])

    def test_gradient_zero_at_client_optimum(self):
        task = scalar_toy_task()
        gb, ga = task.client_grads(1, np.array([[2.0]]), np.array([[0.5]]))
        assert gb[0, 0] == 0.0 and ga[0, 0] == 0.0

    def test_global_optimum_is_target_mean(self):
        # Grid search over the product confirms the global loss is
        # minimized at the mean of the targets.
        task = scalar_toy_task()
        grid = np.linspace(-3.0, 3.0, 6001)
        losses = [task.global_loss(np.array([[p]]), np.array([[1.0]])) for p in grid]
        assert grid[int(np.argmin(losses))] == pytest.approx(1.0, abs=1e-3)

    def test_overflowing_loss_is_inf(self):
        # Silent where only the square overflows and where the 1x1 product
        # itself does, which np.dot's own loop would warn about.
        task = scalar_toy_task()
        for b, a in [(1e100, 1e100), (1.31e157, -2.45e152)]:
            b, a = np.array([[b]]), np.array([[a]])
            assert task.client_loss(2, b, a) == math.inf
            assert task.global_loss(b, a) == math.inf

    def test_gradients_match_finite_differences(self):
        task = scalar_toy_task()
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = rng.standard_normal((1, 1))
            a = rng.standard_normal((1, 1))
            assert_grads_match(task, int(rng.integers(3)), b, a)


class TestLowRankRegression:
    def test_homogeneous_targets_identical(self):
        task = lowrank_regression_task(6, 5, 2, 3, 0.0, seed=0)
        for target in task.client_targets[1:]:
            np.testing.assert_array_equal(target, task.client_targets[0])

    def test_loss_zero_at_target(self):
        task = lowrank_regression_task(6, 5, 2, 1, 0.0, seed=1)
        w = task.client_targets[0]
        u, s, vt = np.linalg.svd(w)
        b = u[:, :2] * s[:2]
        a = vt[:2]
        assert task.client_loss(0, b, a) <= 1e-20

    def test_heterogeneity_norm(self):
        task = lowrank_regression_task(8, 8, 2, 4, 0.3, seed=2)
        shared_free = [t - task.client_targets[0] for t in task.client_targets[1:]]
        # Pairwise differences are differences of perturbations of norm 0.3.
        for diff in shared_free:
            assert np.linalg.norm(diff) <= 0.6 + 1e-12

    def test_gradients_match_finite_differences(self):
        task = lowrank_regression_task(5, 4, 2, 2, 0.5, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(100):
            b = rng.standard_normal((5, 2))
            a = rng.standard_normal((2, 4))
            assert_grads_match(task, int(rng.integers(2)), b, a)

    def test_probe_gradient_unbiased(self):
        # The mean of per-probe gradients over all probes approaches the
        # exact gradient as the probe count grows.
        task = lowrank_regression_task(4, 3, 2, 1, 0.0, seed=4, n_probes=2000)
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 2))
        a = rng.standard_normal((2, 3))
        exact_b, exact_a = task.client_grads(0, b, a)
        all_idx = np.arange(task.sample_count(0))
        batch_b, batch_a = task.client_grads(0, b, a, sample_idx=all_idx)
        assert np.linalg.norm(batch_b - exact_b) <= 0.2 * np.linalg.norm(exact_b)
        assert np.linalg.norm(batch_a - exact_a) <= 0.2 * np.linalg.norm(exact_a)

    def test_deterministic(self):
        first = lowrank_regression_task(6, 6, 2, 3, 0.5, seed=7)
        second = lowrank_regression_task(6, 6, 2, 3, 0.5, seed=7)
        for x, y in zip(first.client_targets, second.client_targets):
            np.testing.assert_array_equal(x, y)


class TestLogistic:
    def test_uniform_logits_max_entropy(self):
        task = logistic_task(6, 4, 100, 1, 1.0, seed=5)
        b = np.zeros((4, 2))
        a = np.zeros((2, 6))
        assert task.client_loss(0, b, a) == pytest.approx(math.log(4), rel=1e-12)

    def test_overflowing_loss_is_nan(self):
        # Overflowing logits meet inf - inf: a non-finite loss, without the
        # "invalid value" warning that the test settings make an error.
        task = logistic_task(8, 4, 300, 3, 0.5, seed=9)
        b, a = np.full((4, 2), 1e160), np.full((2, 8), 1e160)
        assert not math.isfinite(task.global_loss(b, a))
        assert not math.isfinite(task.client_loss(0, b, a))

    def test_gradients_match_finite_differences(self):
        task = logistic_task(5, 3, 60, 1, 1.0, seed=6)
        rng = np.random.default_rng(6)
        for _ in range(100):
            b = 0.5 * rng.standard_normal((3, 2))
            a = 0.5 * rng.standard_normal((2, 5))
            assert_grads_match(task, 0, b, a, rel=1e-4)

    def test_each_feature_held_once(self):
        # 30 features a sample held once, beside its two-byte one-hot label
        # mask: 30.25 float64 entries a sample.
        tracemalloc.start()
        try:
            task = logistic_task(30, 2, 100_000, 3, 0.5, seed=0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert task.n_clients == 3
        assert held <= 8 * 31 * 100_000

    def test_centralized_training_reaches_high_accuracy(self):
        def accuracy(task, b, a):
            w = b @ a
            (x, mask), = task.shards
            pred = (x @ w.T).argmax(axis=1)
            return float((pred == mask.argmax(axis=1)).mean())

        task = logistic_task(8, 3, 300, 1, 1.0, seed=7)
        b = np.zeros((3, 3))
        a = 0.1 * np.random.default_rng(7).standard_normal((3, 8))
        for _ in range(400):
            gb, ga = task.client_grads(0, b, a)
            b -= 0.5 * gb
            a -= 0.5 * ga
        assert accuracy(task, b, a) >= 0.9


def regression_grads_reference(task, i, b, a, sample_idx=None):
    """The regression gradient written as its formula, one array per step."""
    resid = b @ a - task.client_targets[i]
    if sample_idx is None:
        return 2.0 * resid @ a.T, 2.0 * b.T @ resid
    x = task.probes[sample_idx]
    grad_w = 2.0 * resid @ (x.T @ x) / len(x)
    return grad_w @ a.T, b.T @ grad_w


def logistic_loss_grads_reference(x, y, b, a):
    """Softmax cross-entropy loss and gradient on features ``x`` and labels
    ``y``, written as their formulas."""
    w = b @ a
    z = x @ w.T
    z -= z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1)
    logp = z - np.log(denom)[:, None]
    loss = float(-logp[np.arange(len(y)), y].mean())
    p = expz / denom[:, None]
    p[np.arange(len(y)), y] -= 1.0
    gw = p.T @ x / len(y)
    return loss, gw @ a.T, b.T @ gw


def packed(b, a):
    """``b`` and ``a`` copied into one buffer, B's entries first, as views."""
    buf = np.concatenate((b.ravel(), a.ravel()))
    return buf[: b.size].reshape(b.shape), buf[b.size :].reshape(a.shape)


def assert_out_writes_same_bits(task, client, b, a, idx, want):
    """With factors and gradient buffers packed as local training packs
    them, ``client_grads`` writes ``want``'s bits into ``out`` and returns it."""
    b, a = packed(b, a)
    out = packed(np.full(b.shape, np.nan), np.full(a.shape, np.nan))
    assert task.client_grads(client, b, a, idx, out=out) is out
    for g, w in zip(out, want):
        assert g.tobytes() == w.tobytes()


class TestGradientBits:
    """The task kernels reorder their arithmetic for speed; the bits of
    every gradient and loss must equal those of the plain formulas."""

    @pytest.mark.parametrize("dims,rank", [((64, 64), 4), ((8, 6), 2), ((1, 1), 1)])
    def test_regression_matches_formula(self, dims, rank):
        task = lowrank_regression_task(*dims, rank, 3, 0.5, seed=[4, 101], n_probes=40)
        rng = np.random.default_rng(dims[0])
        for trial in range(20):
            scale = 10.0 ** rng.uniform(-3, 3)
            b = scale * rng.standard_normal((dims[0], rank))
            a = rng.standard_normal((rank, dims[1])) / scale
            idx = None if trial % 2 == 0 else rng.choice(40, size=16, replace=False)
            got = task.client_grads(trial % 3, b, a, sample_idx=idx)
            want = regression_grads_reference(task, trial % 3, b, a, sample_idx=idx)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert_out_writes_same_bits(task, trial % 3, b, a, idx, got)

    def test_logistic_matches_formula(self):
        task = logistic_task(8, 4, 300, 5, 0.5, seed=9)
        rng = np.random.default_rng(9)
        for trial in range(42):
            client = trial % 5
            b = rng.uniform(0.1, 3.0) * rng.standard_normal((4, 3))
            a = rng.standard_normal((3, 8))
            n = task.sample_count(client)
            idx = None
            if trial == 40:  # a batch of one sample
                idx = np.array([n - 1])
            elif trial == 41:  # a batch of the whole shard
                idx = np.arange(n)
            elif trial % 2 and n > 4:
                idx = rng.choice(n, size=n // 2, replace=False)
            x, mask = task.shards[client]
            if idx is not None:
                x, mask = x[idx], mask[idx]
            loss, gb_want, ga_want = logistic_loss_grads_reference(
                x, mask.argmax(axis=1), b, a)
            gb, ga = task.client_grads(client, b, a, sample_idx=idx)
            assert np.array_equal(gb, gb_want)
            assert np.array_equal(ga, ga_want)
            assert_out_writes_same_bits(task, client, b, a, idx, (gb, ga))
            if idx is None:
                assert task.client_loss(client, b, a) == loss

    @pytest.mark.parametrize("kind", ["scalar", "regression", "logistic"])
    def test_global_loss_is_mean_of_client_losses(self, kind):
        # global_loss forms b a once; the bits must be those of averaging
        # client_loss, which forms it once per client.
        if kind == "scalar":
            task, dims, rank = scalar_toy_task(), (1, 1), 1
        elif kind == "regression":
            task = lowrank_regression_task(8, 6, 2, 4, 0.5, seed=[5, 101])
            dims, rank = (8, 6), 2
        else:
            task = logistic_task(8, 4, 300, 5, 0.5, seed=9)
            dims, rank = (4, 8), 3
        rng = np.random.default_rng(len(kind))
        for _ in range(10):
            scale = 10.0 ** rng.uniform(-2, 2)
            b = scale * rng.standard_normal((dims[0], rank))
            a = rng.standard_normal((rank, dims[1])) / scale
            want = np.mean([task.client_loss(i, b, a) for i in range(task.n_clients)])
            assert np.float64(task.global_loss(b, a)).tobytes() == want.tobytes()


class TestGatherBits:
    """The logistic kernel gathers batches with ``take`` and holds each
    shard's labels as a one-hot boolean mask, which the gradient subtracts
    and the loss indexes with; each must give the bits of fancy indexing,
    for full shards and for batches, signed zeros, huge, tiny and
    non-finite values included."""

    SPECIAL = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("n_classes", [2, 4, 7])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_take_and_flat_labels_match_fancy_indexing(self, n_classes, n):
        rng = np.random.default_rng([n_classes, n])
        x = rng.standard_normal((n, 8))
        y = rng.integers(0, n_classes, size=n)
        mask = y[:, None] == np.arange(n_classes)
        batches = [None] + [
            rng.choice(n, size=m, replace=False) for m in sorted({1, max(1, n // 2), n})
        ]
        for idx in batches:
            if idx is None:
                xs, masks, x_fancy, y_fancy = x, mask, x, y
            else:
                xs, masks = x.take(idx, axis=0), mask.take(idx, axis=0)
                x_fancy, y_fancy = x[idx], y[idx]
                assert xs.flags.c_contiguous
                assert masks.tobytes() == mask[idx].tobytes()
            assert xs.tobytes() == x_fancy.tobytes()
            m = len(masks)
            p = rng.standard_normal((m, n_classes)) * 10.0 ** rng.uniform(-3, 3, m)[:, None]
            special = rng.random(p.shape) < 0.4
            p[special] = rng.choice(self.SPECIAL, size=special.sum())
            subtracted, fancy = p.copy(), p.copy()
            subtracted -= masks
            fancy[np.arange(m), y_fancy] -= 1.0
            assert subtracted.tobytes() == fancy.tobytes()
            assert p[masks].tobytes() == p[np.arange(m), y_fancy].tobytes()


class TestDirichletPartition:
    def test_conserves_samples(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 4, size=200)
        shards = dirichlet_partition(labels, 5, 0.5, seed=9)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(200))

    def test_every_client_nonempty(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, size=60)
        for seed in range(20):
            shards = dirichlet_partition(labels, 6, 0.1, seed=seed)
            assert all(len(s) > 0 for s in shards)

    def test_one_sample_per_client_when_resampling_fails(self):
        # At tiny alpha and as many samples as clients, resampling almost
        # never fills every shard, so the fallback moves samples out of the
        # largest shard until each client holds exactly one.
        for seed in range(10):
            shards = dirichlet_partition([0, 1, 0, 1, 2], 5, 1e-3, seed=seed)
            assert [len(s) for s in shards] == [1] * 5
            np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(5))

    def test_deterministic(self):
        labels = np.random.default_rng(11).integers(0, 4, size=100)
        first = dirichlet_partition(labels, 4, 0.5, seed=3)
        second = dirichlet_partition(labels, 4, 0.5, seed=3)
        for x, y in zip(first, second, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_near_iid_limit(self):
        # Huge alpha: every client's class histogram is close to the
        # global histogram.
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 4, size=4000)
        shards = dirichlet_partition(labels, 4, 1e6, seed=12)
        global_hist = np.bincount(labels, minlength=4) / len(labels)
        for shard in shards:
            hist = np.bincount(labels[shard], minlength=4) / len(shard)
            assert np.abs(hist - global_hist).max() <= 0.05

    def test_small_alpha_skews(self):
        # alpha = 0.1 concentrates classes: most seeds give some client
        # >80% single-class mass.
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 2, size=300)
        skewed = 0
        trials = 200
        for seed in range(trials):
            for shard in dirichlet_partition(labels, 3, 0.1, seed=seed):
                hist = np.bincount(labels[shard], minlength=2) / len(shard)
                if hist.max() > 0.8:
                    skewed += 1
                    break
        assert skewed >= trials // 2

    def test_classes_are_np_unique(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            high = int(rng.choice([1, 3, 50, 2**62]))
            labels = rng.integers(-high, high, size=int(rng.integers(1, 40)))
            got, want = _distinct_sorted(labels), np.unique(labels)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_too_few_samples_rejected(self):
        with pytest.raises(UsageError):
            dirichlet_partition([0, 1], 3, 0.5, seed=0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(UsageError):
            dirichlet_partition([0, 1, 0], 2, 0.0, seed=0)


    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(UsageError, match="finite"):
            dirichlet_partition([0, 1, 0], 2, alpha, seed=0)
