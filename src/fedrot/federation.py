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

import numpy as np

from .aggregation import Strategy, aligns, frozen_factors, server_step
from .alignment import (
    AlignmentTarget,
    ReferenceKind,
    Rotation,
    alignment_schedule,
    apply_alignment,
    haar_random_rotation,
    procrustes_rotation,
    scalar_rescale_align,
    select_reference,
    soft_rotation,
)
from .config import FederationConfig, SweepCell
from .errors import DivergenceError
from .lora import LoraAdapter, init_adapter, semantic_update
from .metrics import alignment_gain, dispersion, factor_distances
from .numerics import frobenius_norm
from .tasks import ScalarToyTask, TaskKind, logistic_task, lowrank_regression_task

__all__ = [
    "RoundRecord",
    "RunResult",
    "build_task",
    "local_train",
    "client_round",
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
    grad_norm_max: float
    dist_a_min: float
    dist_b_min: float
    kappa_max: float  # max |R*-I| / aligned-factor drift
    semantic_drift_max: float
    aligned: bool
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
    """Instantiate the task a config describes, including data partitioning."""
    spec = config.task
    if spec.kind is TaskKind.SCALAR_TOY:
        return ScalarToyTask(spec.targets)
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


# While a running bound on the trained factors' Frobenius norm stays below
# this, they are provably finite and their per-step check is skipped.  The gap to
# the largest double (~1.8e308) dwarfs the rounding of any feasible number
# of bound updates.
_PARAM_BOUND = 1e300


@np.errstate(over="ignore", invalid="ignore")
def local_train(
    client: int,
    start: LoraAdapter,
    task,
    steps: int,
    eta: float,
    strategy: Strategy,
    round_index: int,
    seed,
    batch_size: int | None = None,
):
    """Deterministic (full-batch) gradient descent on the client's shard.

    Returns the trained adapter and the largest gradient norm observed.
    The client-round allocates its state once: one packed parameter array
    (B's entries, then A's) with ``b`` and ``a`` as views into it, and a
    packed gradient array of the same layout.  Each step calls
    ``task.client_grads(client, b, a, sample_idx, out=(gb, ga))``, which
    writes the gradients into the views ``gb`` and ``ga``.  Mini-batching,
    when enabled, draws seeded batches from ``(seed, client, round)`` so
    results never depend on scheduling.  Divergence is read from the
    values, so numpy's overflow warnings are silenced, as in
    :func:`run_federation`.
    """
    nb = start.b.size
    params = np.concatenate((start.b.ravel(), start.a.ravel()))
    grads = np.empty_like(params)
    b = params[:nb].reshape(start.b.shape)
    a = params[nb:].reshape(start.a.shape)
    gb_flat, ga_flat = grads[:nb], grads[nb:]
    out = (gb_flat.reshape(b.shape), ga_flat.reshape(a.shape))
    freeze_b, freeze_a = frozen_factors(strategy, round_index)
    # The update runs on the factors the strategy trains this round.
    if freeze_b:
        updated, update = params[nb:], ga_flat
    elif freeze_a:
        updated, update = params[:nb], gb_flat
    else:
        updated, update = params, grads
    n_samples = task.sample_count(client)
    rng = None
    if batch_size is not None and batch_size < n_samples:
        rng = np.random.default_rng([seed, client, round_index])
    client_grads = task.client_grads
    isfinite, sqrt = math.isfinite, math.sqrt
    # |updated|_F <= bound after every step, since |p - eta g| <= |p| + |eta| |g|
    # and |g| <= |gb| + |ga| (Python floats: an overflow is inf, not a warning);
    # a non-finite start gives an infinite or NaN bound, which is checked.
    step_scale = abs(eta)
    bound = sqrt(updated.dot(updated))  # updated is 1-D
    # sqrt is monotone and correctly rounded, so the square root of the
    # largest squared norm is the largest norm.
    sq_max = 0.0
    for step in range(steps):
        idx = None
        if rng is not None:
            idx = rng.choice(n_samples, size=batch_size, replace=False)
        client_grads(client, b, a, idx, out=out)
        sq_b, sq_a = gb_flat.dot(gb_flat), ga_flat.dot(ga_flat)
        # A finite norm proves every entry finite; a non-finite one may
        # only be an overflowing sum of squares of finite entries.
        if not (isfinite(sq_b) and isfinite(sq_a)) and not np.isfinite(grads).all():
            raise DivergenceError(
                f"non-finite gradient on client {client}",
                round_index=round_index,
                step_index=step,
            )
        sq_max = max(sq_max, sq_b, sq_a)
        update *= eta
        updated -= update
        # A frozen factor keeps its start value, so only the updated
        # factors need the check.
        bound += step_scale * (sqrt(sq_b) + sqrt(sq_a))
        if not (bound < _PARAM_BOUND or np.isfinite(updated).all()):
            raise DivergenceError(
                f"non-finite parameters on client {client}",
                round_index=round_index,
                step_index=step,
            )
    return LoraAdapter(b, a, start.rank), sqrt(sq_max)


def checked_product(adapter: LoraAdapter, client: int, round_index: int) -> np.ndarray:
    """The client's product ``semantic_update(adapter)``.  Finite factors
    whose product overflows have diverged: that raises."""
    product = semantic_update(adapter)
    if not np.isfinite(product).all():
        raise DivergenceError(f"non-finite update on client {client}",
                              round_index=round_index)
    return product


def train_clients(broadcast: LoraAdapter, task, config: FederationConfig, round_index: int):
    """The training phase: :func:`local_train` on every client from
    ``broadcast``, in client order.  Returns the trained adapters, their
    products and their largest gradient norms.  A product that overflows
    raises before the next client trains."""
    trained, products, grad_norms = [], [], []
    for client in range(config.n_clients):
        adapter, grad_norm = local_train(
            client, broadcast, task, config.local_steps, config.learning_rate,
            config.strategy, round_index, config.seed, batch_size=config.batch_size,
        )
        trained.append(adapter)
        products.append(checked_product(adapter, client, round_index))
        grad_norms.append(grad_norm)
    return trained, products, grad_norms


def client_round(
    client: int, trained: LoraAdapter, reference: LoraAdapter,
    config: FederationConfig, round_index: int,
) -> tuple[LoraAdapter, Rotation | None, Rotation | None]:
    """The alignment phase for one client: the strategy's client-side
    transformation of its trained factors.  Returns the reported adapter
    (``trained`` itself when the strategy reports them unchanged), the
    applied rotation (FedRot's soft one or the Haar draw) and FedRot's
    Procrustes rotation, each ``None`` when none is made."""
    if not aligns(config.strategy, round_index, config.align_from_round):
        return trained, None, None
    target = alignment_schedule(round_index, config.schedule)
    local, ref = target.factor(trained), target.factor(reference)
    if config.strategy is Strategy.FEDROT:
        procrustes = procrustes_rotation(local, ref, target)
        rotation = soft_rotation(procrustes, config.lam)
        return apply_alignment(trained, rotation), rotation, procrustes
    if config.strategy is Strategy.RANDOM_ROTATION:
        rotation = haar_random_rotation(config.rank,
                                        seed=[config.seed, 7901, round_index, client])
        return apply_alignment(trained, rotation), rotation, None
    c = scalar_rescale_align(local, ref)
    if c is None:
        log.warning("degenerate scalar rescaling on client %d round %d; skipping",
                    client, round_index)
        return trained, None, None
    if target is AlignmentTarget.FACTOR_A:
        return LoraAdapter(trained.b / c, trained.a * c, trained.rank), None, None
    return LoraAdapter(trained.b * c, trained.a / c, trained.rank), None, None


def round_record(
    config: FederationConfig, t: int, reference: LoraAdapter, trained, products,
    grad_norms, alignments, updates, err: float, loss: float, t_round: float,
) -> RoundRecord:
    """Round ``t``'s diagnostics, from its training phase (``trained``,
    ``products``, ``grad_norms``), its alignment phase (``alignments``, one
    :func:`client_round` result per client, and the reported products
    ``updates``), the server's aggregation error ``err`` and the new global
    ``loss``; ``t_round`` is the round's ``perf_counter`` start."""
    target = alignment_schedule(t, config.schedule)
    reported = [adapter for adapter, _, _ in alignments]
    dist = {f: factor_distances(trained, reference, f) for f in AlignmentTarget}
    phi_aligned = dispersion(factor_distances(reported, reference, target))
    eye = np.eye(config.rank)
    kappa = [
        frobenius_norm(procrustes.r - eye) / d
        for (_, _, procrustes), d in zip(alignments, dist[target])
        if procrustes is not None and d > 0
    ]
    payload = (config.dims[0] + config.dims[1]) * config.rank
    # A random-client reference costs one extra adapter download, once
    # there are last-round client adapters to draw from.
    random_client = config.reference_mode.kind is ReferenceKind.RANDOM_CLIENT
    return RoundRecord(
        round=t,
        loss=loss,
        agg_error=err,
        dispersion=phi_aligned,
        alignment_gain=alignment_gain(phi_aligned, dispersion(dist[target])),
        rotation_deviation=float(np.mean([
            0.0 if rotation is None else frobenius_norm(rotation.r - eye)
            for _, rotation, _ in alignments
        ])),
        tau_diag=max(frobenius_norm(ad.b) * frobenius_norm(ad.a) for ad in reported),
        grad_norm_max=max(grad_norms),
        dist_a_min=min(dist[AlignmentTarget.FACTOR_A]),
        dist_b_min=min(dist[AlignmentTarget.FACTOR_B]),
        kappa_max=max(kappa, default=float("nan")),
        semantic_drift_max=max(
            frobenius_norm(update - raw) / max(1.0, frobenius_norm(raw))
            for update, raw in zip(updates, products)
        ),
        aligned=aligns(config.strategy, t, config.align_from_round),
        upload_scalars=payload,
        download_scalars=2 * payload if random_client and t > 1 else payload,
        wall_ms=(time.perf_counter() - t_round) * 1e3,
    )


@np.errstate(over="ignore", invalid="ignore")
def run_federation(config: FederationConfig) -> RunResult:
    """Run the full protocol for ``config.rounds`` rounds.

    Deterministic for a fixed config.  The run stops when any loss,
    gradient, parameter, product or server aggregate blows up, as read from
    the values, not from numpy warnings; its result then holds the completed
    rounds and, as ``divergence``, the :class:`DivergenceError` that stopped
    it.  A round's diagnostics record an overflow as ``inf`` or ``nan``.
    """
    t_start = time.perf_counter()
    task = build_task(config)
    d_out, d_in = config.dims
    adapter0 = init_adapter(d_out, d_in, config.rank, seed=[config.seed, 100])
    if config.init_a_value is not None:
        adapter0 = LoraAdapter(
            adapter0.b, np.full((config.rank, d_in), config.init_a_value), config.rank
        )
    history = [adapter0]
    records: list[RoundRecord] = []
    snapshots: list[LoraAdapter] = []  # the last round's client adapters
    divergence = None
    for t in range(1, config.rounds + 1):
        t_round = time.perf_counter()
        reference = select_reference(
            history, config.reference_mode, snapshots, seed=[config.seed, 211, t]
        )
        broadcast = history[-1]
        try:
            trained, products, grad_norms = train_clients(broadcast, task, config, t)
            alignments = [client_round(i, adapter, reference, config, t)
                          for i, adapter in enumerate(trained)]
            snapshots = [reported for reported, _, _ in alignments]
            # A client that reports its trained factors reports their product.
            updates = [
                raw if reported is adapter else checked_product(reported, client, t)
                for client, (reported, adapter, raw)
                in enumerate(zip(snapshots, trained, products))
            ]
            model, err = server_step(snapshots, updates, broadcast, config.strategy, t)
        except DivergenceError as exc:
            divergence = exc.with_traceback(None)  # its frames hold the task
            break
        loss = task.global_loss(model.b, model.a)
        records.append(round_record(
            config, t, reference, trained, products, grad_norms, alignments,
            updates, err, loss, t_round,
        ))
        history.append(model)
        if not np.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
            divergence = DivergenceError(
                f"global loss diverged at round {t} (loss={loss!r})", round_index=t
            )
            break
    wall_time = time.perf_counter() - t_start
    return RunResult(records, config, wall_time, history, divergence)


def _run_cell(cell: SweepCell) -> SweepCell:
    """``cell`` with its run's result, diverged runs included, and why it failed."""
    result = None
    try:
        result = run_federation(cell.config)
        failure = result.divergence
    except Exception as exc:  # individual failures recorded, sweep continues
        failure = exc
    error = None if failure is None else f"{type(failure).__name__}: {failure}"
    return replace(cell, result=result, error=error)


def run_sweep(cells: list[SweepCell], jobs: int = 1) -> list[SweepCell]:
    """Run the cells, as :func:`fedrot.config.sweep_cells` builds them; with
    ``jobs > 1``, in a process pool.  Returns the run cells, in the order
    given."""
    if jobs > 1 and len(cells) > 1:
        # Imported here: a serial run need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A forked pool starts all of its workers at once, busy or not.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]
