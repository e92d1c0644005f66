"""Bit premises of a stacked round: one array of shape ``(n_clients, ...)``
per quantity in place of a list of per-client arrays.

Stacking the clients keeps the goldens only where each stacked numpy call
gives, for every client, the bytes of the per-client call it replaces.
These tests pin that on the numpy build the goldens were made with, and
pin the one place found where it does not hold.
"""

import numpy as np
import pytest

from fedrot.tasks import LowRankRegressionTask


def stacked_factors(rng, n, d_out, d_in, rank):
    scale = 10.0 ** rng.uniform(-3, 3)
    b = scale * rng.standard_normal((n, d_out, rank))
    a = rng.standard_normal((n, rank, d_in)) / scale
    return b, a


@pytest.mark.parametrize(
    "n,d_out,d_in,rank", [(3, 64, 64, 4), (10, 4, 8, 4), (3, 1, 1, 1)]
)
def test_stacked_matmul_matches_per_client_dot(n, d_out, d_in, rank):
    # The three products of the chain rule: w = b a, g a^T and b^T g.
    rng = np.random.default_rng([n, d_out, d_in, rank])
    for _ in range(10):
        b, a = stacked_factors(rng, n, d_out, d_in, rank)
        g = rng.standard_normal((n, d_out, d_in))
        w = np.matmul(b, a)
        gb = np.matmul(g, a.transpose(0, 2, 1))
        ga = np.matmul(b.transpose(0, 2, 1), g)
        for i in range(n):
            assert w[i].tobytes() == np.dot(b[i], a[i]).tobytes()
            assert gb[i].tobytes() == np.dot(g[i], a[i].T).tobytes()
            assert ga[i].tobytes() == np.dot(b[i].T, g[i]).tobytes()


@pytest.mark.parametrize(
    "n,batch,d_in,d_out,rank",
    [(10, 32, 8, 4, 4), (10, 32, 64, 10, 4), (3, 100, 20, 10, 8), (5, 16, 8, 2, 2),
     (4, 64, 32, 16, 8), (8, 1, 8, 4, 4), (10, 256, 8, 4, 4)],
)
def test_stacked_logistic_step_matches_per_client_kernel(n, batch, d_in, d_out, rank):
    # One logistic step of n clients, a batch of rows, d_in features, d_out
    # classes and the rank (logistic_sweep's is the first shape): each
    # stacked call against LogisticTask's per-client np.dot kernel, stage
    # by stage from the same inputs.
    rng = np.random.default_rng([n, batch, d_in, d_out, rank])
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-2, 2)
        b = scale * rng.standard_normal((n, d_out, rank))
        a = rng.standard_normal((n, rank, d_in)) / scale
        x = rng.standard_normal((n, batch, d_in)) + 5.0 * rng.standard_normal((n, 1, d_in))
        mask = rng.integers(0, d_out, (n, batch))[..., None] == np.arange(d_out)
        w = np.matmul(b, a)
        z = np.matmul(x, w.transpose(0, 2, 1))
        row_max = np.maximum.reduce(z, axis=2, keepdims=True)
        p = np.exp(z - row_max)
        row_sum = np.add.reduce(p, axis=2)
        p = p / row_sum[..., None] - mask
        g = np.matmul(p.transpose(0, 2, 1), x) / batch
        gb = np.matmul(g, a.transpose(0, 2, 1))
        ga = np.matmul(b.transpose(0, 2, 1), g)
        for i in range(n):
            wi = np.dot(b[i], a[i])
            assert w[i].tobytes() == wi.tobytes()
            zi = np.dot(x[i], wi.T)
            assert z[i].tobytes() == zi.tobytes()
            assert row_max[i].tobytes() == np.maximum.reduce(zi, axis=1, keepdims=True).tobytes()
            pi = np.exp(zi - row_max[i])
            assert row_sum[i].tobytes() == np.add.reduce(pi, axis=1).tobytes()
            pi /= row_sum[i][:, None]
            pi -= mask[i]
            gi = np.dot(pi.T, x[i])
            gi /= batch
            assert g[i].tobytes() == gi.tobytes()
            assert gb[i].tobytes() == np.dot(gi, a[i].T).tobytes()
            assert ga[i].tobytes() == np.dot(b[i].T, gi).tobytes()


@pytest.mark.parametrize(
    "n,batch,d_in,d_out,n_probes",
    [(3, 16, 6, 8, 50), (3, 32, 64, 64, 200), (10, 32, 8, 4, 200), (3, 1, 8, 4, 20),
     (4, 64, 32, 16, 200), (3, 199, 64, 64, 200), (10, 16, 128, 32, 300)],
)
def test_stacked_probe_batch_matches_per_client_product_grad(n, batch, d_in, d_out,
                                                             n_probes):
    # A regression mini-batch step of n clients, each drawing its own rows
    # of the shared probes (rolora_regression_batch's is the first shape):
    # the stacked x^T x and (w - W) x^T x against product_grad per client.
    rng = np.random.default_rng([n, batch, d_in, d_out, n_probes])
    for _ in range(20):
        probes = rng.standard_normal((n_probes, d_in))
        targets = rng.standard_normal((n, d_out, d_in))
        task = LowRankRegressionTask(list(targets), probes=probes)
        w = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, d_out, d_in))
        idx = np.array([rng.choice(n_probes, size=batch, replace=False) for _ in range(n)])
        x = probes[idx]
        xtx = np.matmul(x.transpose(0, 2, 1), x)
        g = np.matmul(w - targets, xtx)
        g *= 2.0
        g /= batch
        for i in range(n):
            assert g[i].tobytes() == task.product_grad(i, w[i].copy(), idx[i]).tobytes()


@pytest.mark.parametrize("rank", [1, 4, 16, 64])
def test_stacked_svd_and_det_match_single_calls(rank):
    # The alignment solves one r x r SVD per client and checks det(R).
    rng = np.random.default_rng(rank)
    stack = rng.standard_normal((10, rank, rank))
    u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
    det = np.linalg.det(stack)
    for i, m in enumerate(stack):
        ui, sigma_i, vt_i = np.linalg.svd(m, full_matrices=False)
        assert u[i].tobytes() == ui.tobytes()
        assert sigma[i].tobytes() == sigma_i.tobytes()
        assert vt[i].tobytes() == vt_i.tobytes()
        assert det[i].tobytes() == np.float64(np.linalg.det(m)).tobytes()


def client_order_mean(stack):
    """The server's mean: a sum in client order, then one division."""
    return sum(stack[i] for i in range(len(stack))) / len(stack)


@pytest.mark.parametrize("shape", [(64, 4), (4, 8), (1, 4), (4, 1)])
@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_stacked_mean_matches_client_order_sum(shape, n):
    rng = np.random.default_rng([n, *shape])
    for _ in range(20):
        stack = rng.standard_normal((n, *shape))
        stack *= 10.0 ** rng.uniform(-8, 8, (n, 1, 1))
        # Negative zeros in every client, in one client, and mixed signs.
        stack[:, 0, 0] = -0.0
        stack[0, -1, -1] = -0.0
        want = client_order_mean(stack)
        got = np.add.reduce(stack, axis=0) / n
        assert got.tobytes() == want.tobytes()
        # Both sums start from +0.0, so an all -0.0 entry averages to +0.0.
        assert not np.signbit(got[0, 0])


def test_stacked_mean_of_scalars_is_pairwise_from_eight_clients():
    # With 1x1 factors the reduced axis is the only one, so numpy sums it
    # pairwise from 8 entries on and the bits leave the client order: a
    # stacked scalar-toy server with 8 or more clients needs its own loop.
    stack = np.array([1e16, 1, 1, 1, 1, 1, 1, 1]).reshape(8, 1, 1)
    assert client_order_mean(stack)[0, 0] == 1e16 / 8
    assert np.add.reduce(stack, axis=0)[0, 0] / 8 == (1e16 + 6) / 8
    seven = stack[:7]
    assert (np.add.reduce(seven, axis=0) / 7).tobytes() == (
        client_order_mean(seven).tobytes()
    )
