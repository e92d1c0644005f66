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
from dataclasses import Field, dataclass, field, fields, replace

import numpy as np

from .aggregation import Strategy, aligns, frozen_factors, server_step
from .alignment import (
    AlignmentTarget,
    ReferenceKind,
    ReferenceMode,
    Rotation,
    ScheduleAblation,
    alignment_schedule,
    apply_alignment,
    haar_random_rotation,
    procrustes_rotation,
    scalar_rescale_align,
    select_reference,
    soft_rotation,
)
from .errors import DivergenceError, UsageError, check_fields, file_key
from .lora import LoraAdapter, init_adapter, semantic_update
from .metrics import alignment_gain, dispersion, factor_distances
from .numerics import frobenius_norm
from .tasks import (
    DEFAULT_SCALAR_TARGETS,
    ScalarToyTask,
    TaskKind,
    logistic_task,
    lowrank_regression_task,
)

__all__ = [
    "TaskSpec",
    "FederationConfig",
    "RoundRecord",
    "RunResult",
    "SweepCell",
    "build_task",
    "local_train",
    "client_round",
    "run_federation",
    "sweep_cells",
    "run_sweep",
]

log = logging.getLogger(__name__)

LOSS_DIVERGENCE_LIMIT = 1e12
# The most float64 entries a run may hold (2 GiB); see FederationConfig.
MAX_FOOTPRINT = 2**28

# Field metadata of the config dataclasses, which are the experiment-file
# schema (see ``fedrot.config``): ``key`` is the file key where it differs
# from the field name, ``sweep`` marks the keys a sweep grid may vary, and
# ``kinds`` names the task kinds that read a field (every kind, if absent).
_SWEEP = {"sweep": True}
_SCALAR = {"kinds": (TaskKind.SCALAR_TOY,)}
_REGRESSION = {"kinds": (TaskKind.LOWRANK_REGRESSION,)}
_LOGISTIC = {"kinds": (TaskKind.LOGISTIC,)}
_SAMPLED = {"kinds": (TaskKind.LOWRANK_REGRESSION, TaskKind.LOGISTIC)}


def reads(kind: TaskKind, f: Field) -> bool:
    """Whether a task of kind ``kind`` reads the config field ``f``."""
    return kind in f.metadata.get("kinds", (kind,))


def check_read(kind: TaskKind, key: str, f: Field) -> None:
    """Reject the field ``f``, set as the file key ``key``, unless ``kind`` reads it."""
    if not reads(kind, f):
        readers = ", ".join(k.value for k in f.metadata["kinds"])
        message = f"{key} is not read by a {kind.value} task (read by: {readers})"
        raise UsageError(message, key=key)


def grid_field(config: FederationConfig, key: str) -> tuple[type, Field]:
    """The config dataclass and field that the sweep-grid key ``key`` varies;
    it must be a key a grid may vary and that ``config``'s task kind reads."""
    grid = {
        file_key(f): (cls, f)
        for cls in (FederationConfig, TaskSpec)
        for f in fields(cls)
        if f.metadata.get("sweep")
    }
    if key not in grid:
        raise UsageError(
            f"unknown sweep parameter {key!r} (allowed: {', '.join(sorted(grid))}; "
            "seeds go in sweep.seeds)",
            key=key,
        )
    check_read(config.task.kind, key, grid[key][1])
    return grid[key]


def grid_values(key: str, values) -> None:
    """Reject the values of the sweep-grid key ``key`` unless they are a non-empty list."""
    if not isinstance(values, (list, tuple)) or not values:
        raise UsageError(f"sweep parameter {key!r} must be a non-empty list", key=key)


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    targets: tuple[float, ...] = field(default=DEFAULT_SCALAR_TARGETS, metadata=_SCALAR)
    true_rank: int = field(default=1, metadata={**_REGRESSION, **_SWEEP})
    heterogeneity: float = field(default=0.0, metadata={**_REGRESSION, **_SWEEP})
    n_features: int = field(default=8, metadata=_LOGISTIC)
    n_classes: int = field(default=4, metadata=_LOGISTIC)
    n_samples: int = field(default=200, metadata=_SAMPLED)


@dataclass(frozen=True)
class FederationConfig:
    strategy: Strategy = field(metadata=_SWEEP)
    n_clients: int = field(metadata=_SWEEP)
    rank: int = field(metadata=_SWEEP)
    dims: tuple[int, int]
    rounds: int = field(metadata=_SWEEP)
    local_steps: int = field(metadata=_SWEEP)
    learning_rate: float = field(metadata=_SWEEP)
    lam: float = field(default=0.0, metadata={"key": "lambda", "sweep": True})
    reference_mode: ReferenceMode = field(
        default=ReferenceMode(), metadata={"key": "reference"}
    )
    schedule: ScheduleAblation = field(
        default=ScheduleAblation.ALTERNATE, metadata=_SWEEP
    )
    task: TaskSpec = TaskSpec(kind=TaskKind.LOWRANK_REGRESSION)
    dirichlet_alpha: float = field(default=0.5, metadata={**_LOGISTIC, **_SWEEP})
    seed: int = 0
    align_from_round: int = field(default=2, metadata=_SWEEP)
    batch_size: int | None = field(default=None, metadata={**_SAMPLED, **_SWEEP})
    init_a_value: float | None = None

    def __post_init__(self):
        # Types first: the range checks below compare numbers and enum members.
        check_fields(self)
        task = self.task
        if not 0.0 <= self.lam <= 1.0:
            raise UsageError(f"lambda must lie in [0, 1], got {self.lam}", key="lambda")
        if not 1 <= self.rank <= min(self.dims):
            raise UsageError(
                f"rank {self.rank} out of range for dims {self.dims}", key="rank"
            )
        if self.align_from_round < 1:
            raise UsageError("align_from_round must be >= 1", key="align_from_round")
        if self.rounds < 1:
            raise UsageError("rounds must be >= 1", key="rounds")
        if self.local_steps < 1:
            raise UsageError("local_steps must be >= 1", key="local_steps")
        if self.n_clients < 1:
            raise UsageError("n_clients must be >= 1", key="n_clients")
        # The float comparisons here fail for NaN too.
        if not 0.0 <= self.learning_rate < math.inf:
            raise UsageError("learning_rate must be finite and >= 0", key="learning_rate")
        if not 0.0 < self.dirichlet_alpha < math.inf:
            raise UsageError("dirichlet_alpha must be finite and > 0", key="dirichlet_alpha")
        if self.init_a_value is not None and not math.isfinite(self.init_a_value):
            raise UsageError("init_a_value must be finite", key="init_a_value")
        if self.batch_size is not None and self.batch_size < 1:
            raise UsageError("batch_size must be >= 1 when set", key="batch_size")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}", key="seed")
        # What each task kind requires; the task builders take it as checked.
        if task.n_samples < 0:
            raise UsageError("n_samples must be >= 0", key="task.n_samples")
        if task.kind is TaskKind.SCALAR_TOY:
            if self.dims != (1, 1):
                raise UsageError("scalar toy task requires dims (1, 1)", key="dims")
            if self.n_clients != len(task.targets):
                raise UsageError(
                    f"scalar toy task has {len(task.targets)} targets but config "
                    f"declares {self.n_clients} clients",
                    key="n_clients",
                )
            bad = [i for i, t in enumerate(task.targets) if not math.isfinite(t)]
            if bad:
                raise UsageError("targets must be finite", key=f"task.targets.{bad[0]}")
        elif task.kind is TaskKind.LOWRANK_REGRESSION:
            if not 1 <= task.true_rank <= min(self.dims):
                raise UsageError(
                    f"true_rank {task.true_rank} out of range for dims {self.dims}",
                    key="task.true_rank",
                )
            if not 0.0 <= task.heterogeneity < math.inf:
                raise UsageError(
                    "heterogeneity must be finite and >= 0", key="task.heterogeneity"
                )
        else:
            if task.n_classes < 2:
                raise UsageError(
                    f"need at least 2 classes, got {task.n_classes}", key="task.n_classes"
                )
            if task.n_samples < task.n_classes:
                raise UsageError(
                    "need at least one sample per class", key="task.n_samples"
                )
            if self.dims != (task.n_classes, task.n_features):
                raise UsageError(
                    "logistic task requires dims (n_classes, n_features) = "
                    f"({task.n_classes}, {task.n_features}), got {self.dims}",
                    key="dims",
                )
            if task.n_samples < self.n_clients:
                raise UsageError(
                    f"cannot give {self.n_clients} clients non-empty shards from "
                    f"{task.n_samples} samples",
                    key="n_clients",
                )
        # The run's footprint in float64 entries, in Python integers so no
        # product overflows: the targets and each round's two client products,
        # the probes or features, and the global-adapter history.
        d_out, d_in = self.dims
        sizes = {"n_clients": self.n_clients, "dims.0": d_out, "dims.1": d_in,
                 "rounds": self.rounds}
        footprint = (3 * self.n_clients * d_out * d_in
                     + (self.rounds + 1) * (d_out + d_in) * self.rank)
        if reads(task.kind, TaskSpec.__dataclass_fields__["n_samples"]):
            sizes["task.n_samples"] = task.n_samples
            footprint += task.n_samples * d_in
        if footprint > MAX_FOOTPRINT:
            raise UsageError(
                f"the run would hold {footprint} float64 entries, more than the "
                f"{MAX_FOOTPRINT} (2 GiB) a run may hold",
                key=max(sizes, key=sizes.get),  # the largest size
            )


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
    results never depend on scheduling.
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
        product = semantic_update(adapter)
        if not np.isfinite(product).all():
            # Finite factors whose product overflows: the run has diverged.
            raise DivergenceError(f"non-finite update on client {client}",
                                  round_index=round_index)
        trained.append(adapter)
        products.append(product)
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
    gradient, parameter or product blows up, as read from the values, not
    from numpy warnings; its result then holds the completed rounds and, as
    ``divergence``, the :class:`DivergenceError` that stopped it.
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
        except DivergenceError as exc:
            divergence = exc.with_traceback(None)  # its frames hold the task
            break
        alignments = [client_round(i, adapter, reference, config, t)
                      for i, adapter in enumerate(trained)]
        snapshots = [reported for reported, _, _ in alignments]
        # A client that reports its trained factors reports their product.
        updates = [
            raw if reported is adapter else semantic_update(reported)
            for reported, adapter, raw in zip(snapshots, trained, products)
        ]
        model, err = server_step(snapshots, updates, broadcast, config.strategy, t)
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


def apply_overrides(config: FederationConfig, params: dict) -> FederationConfig:
    """``config`` with the overrides ``params`` applied: sweep-grid keys to
    values of their fields' types, a :class:`TaskSpec` field's on the task."""
    plain, task = {}, {}
    for key, value in params.items():
        cls, f = grid_field(config, key)
        (task if cls is TaskSpec else plain)[f.name] = value
    return replace(config, task=replace(config.task, **task), **plain)


@dataclass(eq=False)
class SweepCell:
    params: dict
    seed: int
    config: FederationConfig  # the base config with params and seed applied
    result: RunResult | None = None  # diverged runs included
    error: str | None = None  # why the cell failed, divergence included


def _run_cell(cell: SweepCell) -> SweepCell:
    try:
        cell.result = run_federation(cell.config)
        failure = cell.result.divergence
    except Exception as exc:  # individual failures recorded, sweep continues
        failure = exc
    if failure is not None:
        cell.error = f"{type(failure).__name__}: {failure}"
    return cell


def _under(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its :class:`UsageError` raised again under ``key``."""
    try:
        return build(*args, **kwargs)
    except UsageError as exc:
        raise UsageError(str(exc), key=key) from exc


def sweep_cells(base: FederationConfig, grid: dict, seeds) -> list[SweepCell]:
    """The cells of the ``grid`` x ``seeds`` product, in ``itertools.product``
    order, each with its finished, and so checked, config.  What
    :func:`grid_field` or :func:`grid_values` rejects raises under its grid
    key, a rejected value under ``sweep.grid.<key>.<i>`` and a rejected seed
    under ``sweep.seeds.<i>``."""
    if not grid:
        raise UsageError("sweep grid must contain at least one parameter", key="sweep.grid")
    for key, values in grid.items():
        grid_field(base, key)
        grid_values(key, values)
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise UsageError("sweep.seeds must be a non-empty list", key="sweep.seeds")
    # One axis at a time, each value applied to every prefix config: the
    # product order, with a rejected value blamed on the axis that adds it.
    prefixes = [({}, base)]
    for key, values in grid.items():
        prefixes = [
            ({**params, key: value},
             _under(f"sweep.grid.{key}.{i}", apply_overrides, config, {key: value}))
            for params, config in prefixes
            for i, value in enumerate(values)
        ]
    return [
        SweepCell(params, seed, _under(f"sweep.seeds.{i}", replace, config, seed=seed))
        for params, config in prefixes
        for i, seed in enumerate(seeds)
    ]


def run_sweep(
    base: FederationConfig,
    sweep: dict[str, list],
    seeds,
    jobs: int = 1,
) -> list[SweepCell]:
    """Run every cell of :func:`sweep_cells`, all built before any runs; with
    ``jobs > 1``, in a process pool.  The output is in grid order regardless."""
    cells = sweep_cells(base, sweep, seeds)
    if jobs > 1 and len(cells) > 1:
        # Imported here: a serial run need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A forked pool starts all of its workers at once, busy or not.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]
