"""End-to-end federated training loop.

Each round broadcasts the global adapter and runs four phases in order:
deterministic local gradient descent on every client, the strategy's
client-side factor transformation, aggregation at the server, and the
round's diagnostics.  A run is a pure function of its config: identical
config and seed give bit-identical trajectories (wall-clock fields
excepted).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .aggregation import Strategy, frozen_factors, server_step
from .alignment import (
    AlignmentTarget,
    ReferenceKind,
    Rotation,
    alignment_gain,
    alignment_schedule,
    apply_alignment,
    dispersion,
    haar_random_rotation,
    procrustes_rotation,
    scalar_rescale_align,
    select_reference,
    soft_rotation,
)
from .config import FederationConfig, SweepCell
from .errors import DivergenceError, NonFiniteError, NumericError
from .lora import LoraAdapter, init_adapter, semantic_update
from .numerics import frobenius_norm
from .tasks import LowRankRegressionTask, TaskKind, logistic_task, lowrank_regression_task

__all__ = [
    "RoundRecord",
    "RunResult",
    "build_task",
    "local_train",
    "client_round",
    "run_round",
    "run_federation",
    "run_sweep",
]

log = logging.getLogger(__name__)

LOSS_DIVERGENCE_LIMIT = 1e12


@dataclass
class RoundRecord:
    round: int
    loss: float
    agg_error: float
    dispersion: float  # phi(lambda): aligned factors vs reference
    alignment_gain: float  # 1 - phi(lambda)/phi(0), nan when undefined
    rotation_deviation: float  # mean |R_soft - I|_F over clients
    tau_diag: float  # max over clients of |B|_F |A|_F
    semantic_drift_max: float
    upload_scalars: int  # per client, this round
    download_scalars: int
    wall_ms: float


@dataclass(eq=False)
class RunResult:
    rounds: list[RoundRecord]
    config: FederationConfig
    wall_time: float
    # The global adapters: the initial one, then one per completed round.
    history: list[LoraAdapter]
    # What stopped a diverged run after its completed rounds; None otherwise.
    divergence: DivergenceError | None = None


def build_task(config: FederationConfig):
    """Instantiate the task a config describes, including data partitioning.
    The scalar toy is a low-rank regression with one 1x1 target per client
    and no probes, so it always trains on its full batch."""
    spec = config.task
    if spec.kind is TaskKind.SCALAR_TOY:
        return LowRankRegressionTask([np.array([[t]]) for t in spec.targets])
    if spec.kind is TaskKind.LOWRANK_REGRESSION:
        return lowrank_regression_task(
            config.dims[0],
            config.dims[1],
            spec.true_rank,
            config.n_clients,
            spec.heterogeneity,
            seed=[config.seed, 101],
            n_probes=spec.n_samples,
        )
    return logistic_task(
        spec.n_features, spec.n_classes, spec.n_samples, config.n_clients,
        config.dirichlet_alpha, seed=config.seed,
    )


def _draws(seed, client: int, round_index: int, n_samples: int, batch_size: int, steps: int):
    """The client-round's mini-batches, one per step: the indices that
    ``rng.choice(n_samples, size=batch_size, replace=False)`` draws in step
    order from ``default_rng([seed, client, round_index])``."""
    rng = np.random.default_rng([seed, client, round_index])
    for _ in range(steps):
        yield rng.choice(n_samples, size=batch_size, replace=False)


# The bytes of batch tables that one sweep process may hold.
_BATCH_TABLE_BYTES = 2**24


class _BatchTables(dict):
    """The mini-batch tables that the runs of one sweep process share, by key.

    A client-round's batches depend only on the key ``(seed, client,
    round_index, n_samples, batch_size, steps)``, never on the strategy,
    so a table is drawn once per key: the ``(steps, batch_size)`` table of
    :func:`_draws` ``(*key)``, row ``s`` the batch of step ``s``, held
    read-only in the smallest unsigned type that holds ``n_samples - 1``.
    Once the tables would pass ``_BATCH_TABLE_BYTES``, a new key's batches
    are drawn step by step, as without tables, and not held."""

    nbytes = 0

    def batches(self, key: tuple):
        """The key's batches, one per step, as ``intp`` indices."""
        table = self.get(key)
        if table is None:
            *_, n_samples, batch_size, steps = key
            dtype = np.min_scalar_type(n_samples - 1)
            if self.nbytes + steps * batch_size * dtype.itemsize > _BATCH_TABLE_BYTES:
                return _draws(*key)
            table = np.empty((steps, batch_size), dtype)
            for row, idx in zip(table, _draws(*key)):
                row[:] = idx
            table.flags.writeable = False
            self[key] = table
            self.nbytes += table.nbytes
        return table.astype(np.intp)


@np.errstate(over="ignore", invalid="ignore")
def local_train(
    client: int, start: LoraAdapter, task, config: FederationConfig, round_index: int,
    batch_tables: _BatchTables | None = None,
):
    """Deterministic gradient descent on the client's shard from ``start``,
    with ``config``'s local steps, learning rate, strategy, seed and batch size.

    Returns the trained adapter.  The client-round allocates its state
    once: one packed parameter array (B's entries, then A's) with ``b`` and
    ``a`` as views into it, and a packed gradient array of the same layout.
    Each step calls ``task.client_grads(client, b, a, sample_idx, out=(gb,
    ga))``, which writes the gradients into the views ``gb`` and ``ga``.
    Mini-batching, when enabled, reads step ``s``'s batch from row ``s`` of
    the client-round's ``(steps, batch_size)`` table, drawn from ``(seed,
    client, round)`` so results never depend on scheduling: shared through
    ``batch_tables`` when given, else drawn step by step with the same
    bits.  Divergence is read from each step's sums of squares, of both
    factors' gradients and of the trained parameters, and from their
    entries only when a sum is not finite; numpy's overflow warnings are
    silenced, as in :func:`run_round`.
    """
    nb = start.b.size
    params = np.concatenate((start.b.ravel(), start.a.ravel()))
    grads = np.empty_like(params)
    b = params[:nb].reshape(start.b.shape)
    a = params[nb:].reshape(start.a.shape)
    out = (grads[:nb].reshape(b.shape), grads[nb:].reshape(a.shape))
    steps, eta, batch_size = config.local_steps, config.learning_rate, config.batch_size
    freeze_b, freeze_a = frozen_factors(config.strategy, round_index)
    # The update runs on the factors the strategy trains this round; a
    # frozen factor keeps its start value, so only these need the check.
    trained = slice(nb if freeze_b else 0, nb if freeze_a else None)
    updated, update = params[trained], grads[trained]
    n_samples = task.sample_count(client)
    batches = repeat(None)  # the full batch
    if batch_size is not None and batch_size < n_samples:
        key = (config.seed, client, round_index, n_samples, batch_size, steps)
        batches = _draws(*key) if batch_tables is None else batch_tables.batches(key)
    client_grads, isfinite = task.client_grads, math.isfinite
    for step, idx in zip(range(steps), batches):
        client_grads(client, b, a, idx, out=out)
        # A finite sum of squares proves every entry finite; a non-finite
        # one may only be an overflowing sum of finite entries.
        if not isfinite(grads.dot(grads)) and not np.isfinite(grads).all():
            raise DivergenceError(
                f"non-finite gradient on client {client}",
                round_index=round_index,
                step_index=step,
            )
        update *= eta
        updated -= update
        if not isfinite(updated.dot(updated)) and not np.isfinite(updated).all():
            raise DivergenceError(
                f"non-finite parameters on client {client}",
                round_index=round_index,
                step_index=step,
            )
    return LoraAdapter(b, a)


def checked_product(adapter: LoraAdapter, client: int, round_index: int) -> np.ndarray:
    """The client's product ``semantic_update(adapter)``.  Finite factors
    whose product overflows have diverged: that raises."""
    product = semantic_update(adapter)
    if not np.isfinite(product).all():
        raise DivergenceError(f"non-finite update on client {client}",
                              round_index=round_index)
    return product


@np.errstate(over="ignore", invalid="ignore")
def client_round(
    client: int, trained: LoraAdapter, product: np.ndarray, reference: LoraAdapter,
    config: FederationConfig, round_index: int,
) -> tuple[LoraAdapter, np.ndarray, Rotation | None]:
    """The alignment phase for one client: the strategy's client-side
    transformation of its trained factors and ``product``, their product.
    FedRot rotates from ``config.align_from_round`` on, random rotation and
    scalar rescale transform in every round, and the other strategies never.
    Returns the reported adapter (``trained`` itself when the strategy
    reports them unchanged), its product (``product`` itself then, else
    formed and checked by :func:`checked_product`) and the applied rotation
    (FedRot's soft one or the Haar draw; ``None`` when none is made).  A
    transformation whose correlation or factors overflow, or whose SVD,
    QR, determinant or rotation fails, has diverged: that raises."""
    strategy, reported, rotation = config.strategy, trained, None
    target = alignment_schedule(round_index, config.schedule)
    local, ref = target.factor(trained), target.factor(reference)
    try:
        if strategy is Strategy.FEDROT and round_index >= config.align_from_round:
            rotation = soft_rotation(procrustes_rotation(local, ref, target), config.lam)
        elif strategy is Strategy.RANDOM_ROTATION:
            rotation = haar_random_rotation(
                config.rank, seed=[config.seed, 7901, round_index, client])
        elif strategy is not Strategy.SCALAR_RESCALE:
            pass  # FedIT, FFA-LoRA, RoLoRA, and FedRot before its first aligned round
        elif (c := scalar_rescale_align(local, ref)) is None:
            log.warning("degenerate scalar rescaling on client %d round %d; skipping",
                        client, round_index)
        elif target is AlignmentTarget.FACTOR_A:
            reported = LoraAdapter(trained.b / c, trained.a * c)
        else:
            reported = LoraAdapter(trained.b * c, trained.a / c)
        if rotation is not None:
            reported = apply_alignment(trained, rotation)
    except NonFiniteError as exc:  # dropped: its frames hold the caller's task
        raise DivergenceError(f"non-finite alignment on client {client}",
                              round_index=round_index) from exc.with_traceback(None)
    except (NumericError, np.linalg.LinAlgError) as exc:
        raise DivergenceError(f"failed alignment on client {client}: {exc}",
                              round_index=round_index) from exc.with_traceback(None)
    update = product if reported is trained else checked_product(reported, client, round_index)
    return reported, update, rotation


@np.errstate(over="ignore", invalid="ignore")
def run_round(
    config: FederationConfig, task, history: list[LoraAdapter],
    snapshots: list[LoraAdapter], batch_tables: _BatchTables | None = None,
) -> tuple[LoraAdapter, list[LoraAdapter], RoundRecord]:
    """Round ``t = len(history)`` on ``task``, from the global adapters
    ``history`` and the last round's reported client adapters ``snapshots``.
    Every client trains with :func:`local_train` from ``history[-1]``,
    reading its batches from ``batch_tables`` unless it is ``None``, and has
    its product checked before the next one trains; then every client
    aligns, and the server averages.  The first phase that diverges raises
    its :class:`DivergenceError`.  Returns the new global adapter, the
    reported adapters and the round's record, whose factor distances are of
    the round's target factor alone."""
    t_round, t = time.perf_counter(), len(history)
    reference = select_reference(history, config.reference_mode, snapshots,
                                 seed=[config.seed, 211, t])
    broadcast = history[-1]
    trained, products = [], []
    for client in range(config.n_clients):
        adapter = local_train(client, broadcast, task, config, t, batch_tables)
        trained.append(adapter)
        products.append(checked_product(adapter, client, t))
    reported, updates, rotations = map(list, zip(*[
        client_round(i, adapter, raw, reference, config, t)
        for i, (adapter, raw) in enumerate(zip(trained, products))
    ]))
    model, err = server_step(reported, updates, broadcast, config.strategy, t)
    loss = task.global_loss(model.b, model.a)
    target = alignment_schedule(t, config.schedule)
    phi_aligned = dispersion(reported, reference, target)
    phi_raw = dispersion(trained, reference, target)
    eye = np.eye(config.rank)
    payload = (config.dims[0] + config.dims[1]) * config.rank
    # A random-client reference costs one extra adapter download, once
    # there are last-round client adapters to draw from.
    random_client = config.reference_mode.kind is ReferenceKind.RANDOM_CLIENT
    return model, reported, RoundRecord(
        round=t,
        loss=loss,
        agg_error=err,
        dispersion=phi_aligned,
        alignment_gain=alignment_gain(phi_aligned, phi_raw),
        rotation_deviation=float(np.mean([
            0.0 if rotation is None else frobenius_norm(rotation.r - eye)
            for rotation in rotations
        ])),
        tau_diag=max(frobenius_norm(ad.b) * frobenius_norm(ad.a) for ad in reported),
        semantic_drift_max=max(
            frobenius_norm(update - raw) / max(1.0, frobenius_norm(raw))
            for update, raw in zip(updates, products)
        ),
        upload_scalars=payload,
        download_scalars=2 * payload if random_client and t > 1 else payload,
        wall_ms=(time.perf_counter() - t_round) * 1e3,
    )


@np.errstate(over="ignore", invalid="ignore")
def run_federation(config: FederationConfig,
                   batch_tables: _BatchTables | None = None) -> RunResult:
    """Run the full protocol for ``config.rounds`` rounds, one
    :func:`run_round` each.

    Deterministic for a fixed config, with or without the mini-batch
    tables ``batch_tables`` that the cells of a sweep share.  The run stops
    when any loss, gradient, parameter, product, alignment or server
    aggregate blows up, as read from the values, not from numpy warnings;
    its result then holds the completed rounds and, as ``divergence``, the
    :class:`DivergenceError` that stopped it.  A round's diagnostics record
    an overflow as ``inf`` or ``nan``.
    """
    t_start = time.perf_counter()
    task = build_task(config)
    d_out, d_in = config.dims
    adapter0 = init_adapter(d_out, d_in, config.rank, seed=[config.seed, 100])
    if config.init_a_value is not None:
        adapter0 = LoraAdapter(adapter0.b, np.full(adapter0.a.shape, config.init_a_value))
    history = [adapter0]
    records: list[RoundRecord] = []
    snapshots: list[LoraAdapter] = []  # the last round's client adapters
    divergence = None
    for t in range(1, config.rounds + 1):
        try:
            model, snapshots, record = run_round(config, task, history, snapshots, batch_tables)
        except DivergenceError as exc:
            divergence = exc.with_traceback(None)  # its frames hold the task
            break
        records.append(record)
        history.append(model)
        if not np.isfinite(record.loss) or record.loss > LOSS_DIVERGENCE_LIMIT:
            divergence = DivergenceError(
                f"global loss diverged at round {t} (loss={record.loss!r})", round_index=t
            )
            break
    wall_time = time.perf_counter() - t_start
    return RunResult(records, config, wall_time, history, divergence)


def _run_cell(args: tuple[SweepCell, _BatchTables]) -> SweepCell:
    """The cell of ``args = (cell, tables)`` with its run's result, diverged
    runs included, and why it failed.  The run reads ``tables``."""
    cell, tables = args
    result = None
    try:
        result = run_federation(cell.config, tables)
        failure = result.divergence
    except Exception as exc:  # individual failures recorded, sweep continues
        failure = exc
    error = None if failure is None else f"{type(failure).__name__}: {failure}"
    return replace(cell, result=result, error=error)


def _run_cells(cells: list[SweepCell]) -> list[SweepCell]:
    """:func:`_run_cell` on each of ``cells`` in turn, all reading one set of
    batch tables, which is freed when the last one ends."""
    tables = _BatchTables()
    return [_run_cell((cell, tables)) for cell in cells]


def run_sweep(cells: list[SweepCell], jobs: int = 1) -> list[SweepCell]:
    """Run the cells, as :func:`fedrot.config.sweep_cells` builds them, and
    return them in the order given, all in one :func:`_run_cells` unless
    ``jobs > 1``.  Then a process pool maps it over ``min(jobs, len(cells))``
    contiguous slices of at most ``ceil(len(cells) / jobs)`` of the cells,
    stably sorted by seed, which opens every batch key; none is rebalanced."""
    n = min(jobs, len(cells))
    if n <= 1:
        return _run_cells(cells)
    order = sorted(range(len(cells)), key=lambda i: cells[i].seed)
    slices = [[cells[i] for i in order[k * len(cells) // n:(k + 1) * len(cells) // n]]
              for k in range(n)]
    from concurrent.futures import ProcessPoolExecutor  # a serial run need not load it

    with ProcessPoolExecutor(max_workers=n) as pool:  # forked: all n start at once
        ran = [cell for run in pool.map(_run_cells, slices) for cell in run]
    return [cell for _, cell in sorted(zip(order, ran))]  # the indices are distinct
