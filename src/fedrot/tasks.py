"""Desk-scale training objectives with analytic gradients.

Two task families: low-rank matrix regression, whose 1x1 case is the
scalar toy problem, and Dirichlet-partitioned logistic classification.  A
client's objective sees its LoRA factors only through their product
``w = b a``, so a task defines ``product_loss(i, w)`` and
``product_grad(i, w, sample_idx)``, the gradient in ``w``, which may
overwrite ``w`` and return it.  The base class ``_Task`` holds the chain
rule once: ``client_grads(i, b, a, sample_idx=None, out=None)`` writes
``g a^T`` and ``b^T g`` into the caller's arrays ``out = (gb, ga)`` and
returns them; without ``out`` it writes into fresh arrays.  Local training
passes views into one packed buffer per client-round.  ``client_loss(i,
b, a)`` evaluates ``product_loss`` at ``b a`` with overflow and invalid
values silenced, so a regression product or loss that overflows, of any
shape, gives ``inf`` and a logistic one ``nan``, without a warning;
``global_loss`` is the mean of every client's ``client_loss``.

The kernels call ``np.dot`` where their formulas read ``@``: for these 2-D
products both reach the same BLAS call, so they give the same bits, and
``np.dot`` skips the ufunc dispatch.  Its ``out=`` changes only where that
call writes, ``take`` gathers the same rows as fancy indexing, and the
logistic one-hot label mask the same label entries, one per row in order.

Each builder returns the finished task, which no later step changes.
What a task kind requires of its values is checked once, in that kind's
branch of ``FederationConfig.__post_init__``, and the builders here take
their arguments as already checked; :func:`dirichlet_partition`, which the
package exports, checks its own.  Each kind counts what its data holds at
a run's peak beside the builders, in :func:`data_footprint`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

__all__ = [
    "TaskKind",
    "LowRankRegressionTask",
    "LogisticTask",
    "lowrank_regression_task",
    "logistic_task",
    "dirichlet_partition",
]

DEFAULT_SCALAR_TARGETS = (0.5, 1.0, 1.5)


class TaskKind(enum.Enum):
    SCALAR_TOY = "scalar_toy"
    LOWRANK_REGRESSION = "lowrank_regression"
    LOGISTIC = "logistic"


class _Task:
    """The factor-level losses and gradients of every task family, from
    the task's ``product_loss`` and ``product_grad``."""

    # An overflowing regression loss is inf; overflowing logistic logits
    # meet inf - inf and give nan.
    @np.errstate(over="ignore", invalid="ignore")
    def client_loss(self, i, b, a) -> float:
        return self.product_loss(i, np.dot(b, a))

    def client_grads(self, i, b, a, sample_idx=None, out=None):
        gb, ga = out = (np.empty(b.shape), np.empty(a.shape)) if out is None else out
        g = self.product_grad(i, np.dot(b, a), sample_idx)
        np.dot(g, a.T, out=gb)
        np.dot(b.T, g, out=ga)
        return out

    def global_loss(self, b, a) -> float:
        return float(np.mean([self.client_loss(i, b, a) for i in range(self.n_clients)]))


@dataclass(eq=False)
class LowRankRegressionTask(_Task):
    """Client i minimizes ``|b a - W_i|_F^2`` for low-rank targets W_i.

    :func:`lowrank_regression_task` draws targets that share a common
    component of the requested rank; each client adds a low-rank
    perturbation of Frobenius norm ``heterogeneity``.  The scalar toy's
    targets are 1x1, and it has no probes.
    """

    client_targets: list[np.ndarray]
    probes: np.ndarray = field(default=None)  # n_samples x d_in measurement vectors

    @property
    def n_clients(self) -> int:
        return len(self.client_targets)

    def product_loss(self, i, w) -> float:
        resid = w - self.client_targets[i]
        return float(np.sum(resid * resid))

    def product_grad(self, i, w, sample_idx):
        w -= self.client_targets[i]
        if sample_idx is None:
            w *= 2.0
            return w
        # Mini-batch gradient through a probe subset: the per-sample loss is
        # |(w - W_i) x|^2, whose mean over isotropic probes is unbiased for
        # the full Frobenius objective.
        x = self.probes.take(sample_idx, axis=0)
        grad_w = np.dot(w, np.dot(x.T, x))
        grad_w *= 2.0
        grad_w /= len(x)
        return grad_w

    def sample_count(self, i: int) -> int:
        return 1 if self.probes is None else len(self.probes)


def _random_lowrank(rng, d_out, d_in, rank) -> np.ndarray:
    u = rng.standard_normal((d_out, rank))
    v = rng.standard_normal((rank, d_in))
    return u @ v


def lowrank_regression_task(
    d_out: int,
    d_in: int,
    true_rank: int,
    n_clients: int,
    heterogeneity: float,
    seed,
    n_probes: int = 200,
) -> LowRankRegressionTask:
    rng = np.random.default_rng(seed)
    shared = _random_lowrank(rng, d_out, d_in, true_rank)
    shared /= np.linalg.norm(shared)
    targets = []
    for _ in range(n_clients):
        if heterogeneity == 0.0:
            targets.append(shared.copy())
            continue
        pert = _random_lowrank(rng, d_out, d_in, true_rank)
        pert *= heterogeneity / np.linalg.norm(pert)
        targets.append(shared + pert)
    probes = rng.standard_normal((n_probes, d_in)) if n_probes > 0 else None
    return LowRankRegressionTask(targets, probes=probes)


@dataclass(eq=False)
class LogisticTask(_Task):
    """Cross-entropy classification with logits ``w x``.

    ``shards`` holds each client's data as its features, n_i x d_in, and
    its labels as a one-hot boolean mask, n_i x n_classes, that the loss
    indexes with and the gradient subtracts (``p - 0.0`` is exact).
    """

    shards: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    def _shifted_logits(self, x, w):
        """Logits ``x w^T`` minus each row's maximum."""
        z = np.dot(x, w.T)
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        return z

    def product_loss(self, i, w) -> float:
        x, mask = self.shards[i]
        z = self._shifted_logits(x, w)
        logp = z - np.log(np.exp(z).sum(axis=1))[:, None]
        return float(-logp[mask].mean())

    def product_grad(self, i, w, sample_idx):
        x, mask = self.shards[i]
        if sample_idx is not None:
            x, mask = x.take(sample_idx, axis=0), mask.take(sample_idx, axis=0)
        p = self._shifted_logits(x, w)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1)[:, None]
        p -= mask
        gw = np.dot(p.T, x)
        gw /= len(mask)
        return gw

    def sample_count(self, i: int) -> int:
        return len(self.shards[i][0])


def logistic_task(
    n_features: int, n_classes: int, n_samples: int, n_clients: int, alpha: float, seed
) -> LogisticTask:
    """Synthetic Gaussian class clusters with unit within-class covariance,
    split over ``n_clients`` by :func:`dirichlet_partition` with ``alpha``.

    Class means are drawn on a sphere of radius 5, far enough apart that
    a centralized linear model reaches high accuracy.  The data come from
    the stream ``[seed, 102]`` and the partition from ``[seed, 103]``.
    """
    rng = np.random.default_rng([seed, 102])
    means = rng.standard_normal((n_classes, n_features))
    means *= 5.0 / np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    labels = labels[rng.permutation(n_samples)]
    features = means[labels] + rng.standard_normal((n_samples, n_features))
    classes = np.arange(n_classes)
    shards = dirichlet_partition(labels, n_clients, alpha, seed=[seed, 103])
    return LogisticTask([(features[s], labels[s, None] == classes) for s in shards])


def data_footprint(spec, n_clients: int, dims: tuple[int, int], batch_size) -> int:
    """The float64 entries that the data of the task ``spec`` (a
    ``config.TaskSpec``) holds at a run's peak, in Python integers."""
    (d_out, d_in), n = dims, spec.n_samples
    if spec.kind is TaskKind.SCALAR_TOY:
        return 0
    if spec.kind is TaskKind.LOWRANK_REGRESSION:
        # The client targets, the probes and a batch's copy, and a batch's x^T x.
        return (n_clients * d_out * d_in + 2 * n * d_in
                + (0 if batch_size is None else d_in * d_in))
    # The shards' features and a batch's copy (or the full features and the
    # shards' while logistic_task builds them, with the labels and indices),
    # the one-hot label masks, a byte an entry, and a shard's logits twice over.
    return 2 * n * d_in + 2 * n + (n * spec.n_classes + 7) // 8 + 2 * n * spec.n_classes


def _distinct_sorted(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` for a non-empty 1-D array, without the import of
    ``numpy.ma`` that its first call makes (a noticeable share of start-up)."""
    ordered = np.sort(x)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def dirichlet_partition(labels, n_clients: int, alpha: float, seed) -> list[np.ndarray]:
    """Assign labeled samples to clients with Dirichlet(alpha) class skew.

    Returns each client's sorted sample indices.  Deterministic under
    ``seed``.  Resamples up to 100 times to give every client at least one
    sample; as a last resort moves single samples from the largest shard.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not (math.isfinite(alpha) and alpha > 0):
        raise UsageError(f"alpha must be positive and finite, got {alpha}")
    if n_clients < 1:
        raise UsageError(f"n_clients must be >= 1, got {n_clients}")
    if len(labels) < n_clients:
        raise UsageError(
            f"cannot give {n_clients} clients non-empty shards from "
            f"{len(labels)} samples"
        )
    classes = _distinct_sorted(labels)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        proportions = rng.dirichlet(np.full(n_clients, alpha), size=len(classes))
        shards = [[] for _ in range(n_clients)]
        for row, cls in enumerate(classes):
            idx = np.flatnonzero(labels == cls)
            idx = idx[rng.permutation(len(idx))]
            cuts = (np.cumsum(proportions[row])[:-1] * len(idx)).astype(np.int64)
            for client, part in enumerate(np.split(idx, cuts)):
                shards[client].append(part)
        assignment = [np.sort(np.concatenate(s)) for s in shards]
        if all(len(s) > 0 for s in assignment):
            return assignment
    # Could not avoid empty shards by resampling: move one sample per empty
    # client out of the currently largest shard.  With at least n_clients
    # samples, that shard holds two or more while any shard is empty.
    for client in range(n_clients):
        if len(assignment[client]) == 0:
            donor = int(np.argmax([len(s) for s in assignment]))
            assignment[client] = assignment[donor][-1:]
            assignment[donor] = assignment[donor][:-1]
    return assignment

