"""The federated protocol as a straight-line oracle, held bit for bit
against ``run_federation``.

:func:`reference_run` follows README's protocol in plain numpy: clients
train by gradient descent from the broadcast, report their factors after
their strategy's gauge change, and the server averages them factor-wise.
It calls fedrot only to build the task and for the task's ``product_grad``:
no packed buffer, no ``LoraAdapter``, no ``Rotation``, no divergence guard.
A round with a non-finite value does not complete, and a round whose loss
passes the limit is the last; both are read from the values.  Each
completed round's diagnostics, every ``RoundRecord`` field but ``wall_ms``,
are formed from the oracle's own factors and rotations.  A deliberate
change of the trajectory's bits changes the oracle in the same change.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrot.aggregation import Strategy
from fedrot.alignment import ReferenceKind, ScheduleAblation
from fedrot.config import FederationConfig, ReferenceMode, TaskSpec, sweep_cells
from fedrot.federation import RoundRecord, build_task, run_federation, run_sweep
from fedrot.tasks import TaskKind

LOSS_LIMIT = 1e12  # a larger global loss ends the run


def finite(*arrays) -> bool:
    return all(np.isfinite(x).all() for x in arrays)


def nearest_rotation(u, vt):
    """``u diag(1, ..., 1, det(u vt)) vt``, from the SVD factors of a matrix."""
    u = u.copy()
    u[:, -1] *= 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
    return u @ vt


def frozen(config, t) -> tuple[bool, bool]:
    """Whether B and A keep the broadcast's values in round ``t``."""
    if config.strategy is Strategy.FFA_LORA:
        return False, True
    if config.strategy is Strategy.ROLORA:
        return t % 2 == 0, t % 2 == 1
    return False, False


def train(config, task, i, t, b, a):
    """Client ``i``'s trained factors in round ``t``, from the broadcast
    ``(b, a)``, and whether every gradient was finite."""
    freeze_b, freeze_a = frozen(config, t)
    logistic = config.task.kind is TaskKind.LOGISTIC
    n = len(task.shards[i][0]) if logistic else 1 if task.probes is None else len(task.probes)
    batched = config.batch_size is not None and config.batch_size < n
    rng = np.random.default_rng([config.seed, i, t])
    grads_finite = True
    for _ in range(config.local_steps):
        idx = rng.choice(n, size=config.batch_size, replace=False) if batched else None
        g = task.product_grad(i, b @ a, idx)
        gb, ga = g @ a.T, b.T @ g
        grads_finite = grads_finite and finite(gb, ga)
        b = b if freeze_b else b - config.learning_rate * gb
        a = a if freeze_a else a - config.learning_rate * ga
    return b, a, grads_finite


def aligns_a(config, t) -> bool:
    """Whether round ``t`` aligns and measures A, not B."""
    return config.schedule is ScheduleAblation.A_ONLY or (
        config.schedule is ScheduleAblation.ALTERNATE and t % 2 == 1)


def align(config, i, t, b, a, ref_b, ref_a):
    """Client ``i``'s reported factors in round ``t`` and the rotation it
    applied, ``None`` if it made none; ``None`` when its FedRot correlation
    matrix is not finite."""
    s, eye = config.strategy, np.eye(config.rank)
    if not (s in (Strategy.SCALAR_RESCALE, Strategy.RANDOM_ROTATION)
            or (s is Strategy.FEDROT and t >= config.align_from_round)):
        return b, a, None
    on_a = aligns_a(config, t)
    local, ref = (a, ref_a) if on_a else (b, ref_b)
    if s is Strategy.SCALAR_RESCALE:
        # The c minimizing |c local - ref|_F; none if undefined or ~0.
        denom = float(np.sum(local * local))
        c = float(np.sum(local * ref)) / denom if denom else 0.0
        if abs(c) <= 1e-12:
            return b, a, None
        return (b / c, a * c, None) if on_a else (b * c, a / c, None)
    if s is Strategy.RANDOM_ROTATION:  # Haar: sign-canonical QR, det +1
        rng = np.random.default_rng([config.seed, 7901, t, i])
        rot, r = np.linalg.qr(rng.standard_normal((config.rank, config.rank)))
        rot *= np.where(np.diag(r) < 0, -1.0, 1.0)
        rot[:, -1] *= 1.0 if np.linalg.det(rot) >= 0 else -1.0
    else:
        # The R in SO(r) nearest to mapping A onto the reference by R^T A
        # (or B by B R), then the rotation nearest to (1 - lam) I + lam R.
        m = ref @ local.T if on_a else ref.T @ local
        if not finite(m):
            return None
        rot = eye
        if m.any():
            u, _, vt = np.linalg.svd(m, full_matrices=False)
            rot = nearest_rotation(vt.T, u.T)
        if config.lam == 0.0:
            rot = eye
        elif config.lam < 1.0:
            blend = (1.0 - config.lam) * eye + config.lam * rot
            rot = nearest_rotation(*np.linalg.svd(blend, full_matrices=False)[::2])
    return ((b, a) if (rot == eye).all() else (b @ rot, rot.T @ a)) + (rot,)


def norm(x) -> float:
    """``|x|_F``, with no square that overflows or underflows."""
    return math.hypot(*x.flat)


def diagnostics(config, t, ref, trained, aligned, loss, err) -> dict:
    """Round ``t``'s record, each ``RoundRecord`` field but ``wall_ms``, from
    the reference ``(b, a)``, the clients' trained ``(b, a, _)`` and
    aligned ``(b, a, rotation)`` factors, the new global loss and the
    aggregation error."""
    k = 1 if aligns_a(config, t) else 0  # the target factor's place in (b, a)

    def phi(factors):  # (1/N) sum_i |F_i - F_ref|_F^2
        return float(np.mean([np.sum((f[k] - ref[k]) ** 2) for f in factors]))

    phi_aligned, phi_raw, eye = phi(aligned), phi(trained), np.eye(config.rank)
    payload = (config.dims[0] + config.dims[1]) * config.rank
    random_client = config.reference_mode.kind is ReferenceKind.RANDOM_CLIENT
    return {
        "round": t,
        "loss": loss,
        "agg_error": err,
        "dispersion": phi_aligned,
        "alignment_gain": 1.0 - phi_aligned / phi_raw if phi_raw > 0 else math.nan,
        "rotation_deviation": float(np.mean([
            0.0 if rot is None else float(np.sqrt(np.sum((rot - eye) ** 2)))
            for _, _, rot in aligned])),
        "tau_diag": max(norm(b) * norm(a) for b, a, _ in aligned),
        "semantic_drift_max": max(
            norm(b @ a - tb @ ta) / max(1.0, norm(tb @ ta))
            for (b, a, _), (tb, ta, _) in zip(aligned, trained)),
        "upload_scalars": payload,
        # A random-client reference is one more adapter to download, once
        # there are reports to draw it from.
        "download_scalars": 2 * payload if random_client and t > 1 else payload,
    }


@np.errstate(all="ignore")
def reference_run(config):
    """The global factors ``(b, a)``, the initial ones first, and each
    completed round's :func:`diagnostics`."""
    task, n = build_task(config), config.n_clients
    d_out, d_in = config.dims
    a = np.random.default_rng([config.seed, 100]).normal(
        0.0, 1.0 / np.sqrt(d_in), size=(config.rank, d_in))
    history, records, reports = [(np.zeros((d_out, config.rank)), a)], [], []
    for t in range(1, config.rounds + 1):
        kind = config.reference_mode.kind
        ref = history[-1]
        if kind is ReferenceKind.OLDER_GLOBAL:
            ref = history[max(t - config.reference_mode.lag, 0)]
        elif kind is ReferenceKind.RANDOM_CLIENT and reports:
            ref = reports[int(np.random.default_rng([config.seed, 211, t]).integers(n))]
        trained = [train(config, task, i, t, *history[-1]) for i in range(n)]
        aligned = [align(config, i, t, b, a, *ref) for i, (b, a, _) in enumerate(trained)]
        if None in aligned or not all(ok and finite(b, a, b @ a) for b, a, ok in trained):
            break
        reports = [(b, a) for b, a, _ in aligned]
        products = [b @ a for b, a in reports]
        b_mean, a_mean = sum(b for b, _ in reports) / n, sum(a for _, a in reports) / n
        err = norm(b_mean @ a_mean - sum(products) / n)
        if not (finite(*products, b_mean, a_mean) and math.isfinite(err)):
            break
        freeze_b, freeze_a = frozen(config, t)
        b, a = history[-1][0] if freeze_b else b_mean, history[-1][1] if freeze_a else a_mean
        losses = []
        for i in range(n):
            if config.task.kind is TaskKind.LOGISTIC:  # mean cross-entropy
                x, onehot = task.shards[i]
                z = x @ (b @ a).T
                z = z - z.max(axis=1, keepdims=True)
                losses.append(float(-(z - np.log(np.exp(z).sum(axis=1))[:, None])[onehot].mean()))
            else:  # squared Frobenius distance to the client's target
                resid = b @ a - task.client_targets[i]
                losses.append(float(np.sum(resid * resid)))
        history.append((b, a))
        loss = float(np.mean(losses))
        records.append(diagnostics(config, t, ref, trained, aligned, loss, err))
        if not loss <= LOSS_LIMIT:
            break
    return history, records


@st.composite
def configs(draw):
    n_clients, kind = draw(st.integers(1, 4)), draw(st.sampled_from(TaskKind))
    rank, batch_size, alpha = draw(st.integers(1, 2)), draw(st.none() | st.integers(1, 8)), 0.5
    if kind is TaskKind.SCALAR_TOY:
        rank, batch_size, dims = 1, None, (1, 1)
        targets = st.lists(st.sampled_from([-1.0, 0.5, 1.5]), min_size=n_clients,
                           max_size=n_clients)
        task = TaskSpec(kind, targets=tuple(draw(targets)))
    elif kind is TaskKind.LOWRANK_REGRESSION:
        dims = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
        task = TaskSpec(kind, true_rank=draw(st.integers(1, 2)),
                        heterogeneity=draw(st.sampled_from([0.0, 0.5])),
                        n_samples=draw(st.sampled_from([0, 20])))
    else:
        dims = (draw(st.integers(2, 3)), draw(st.integers(2, 4)))
        task = TaskSpec(kind, n_classes=dims[0], n_features=dims[1],
                        n_samples=draw(st.integers(max(dims[0], n_clients), 40)))
        alpha = draw(st.sampled_from([0.3, 5.0]))
    reference = draw(st.sampled_from(ReferenceKind))
    lag = draw(st.integers(2, 4)) if reference is ReferenceKind.OLDER_GLOBAL else 0
    return FederationConfig(
        strategy=draw(st.sampled_from(Strategy)), n_clients=n_clients, rank=rank, dims=dims,
        rounds=draw(st.integers(1, 5)), local_steps=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.02, 0.2, 50.0, 1e150])),
        lam=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        reference_mode=ReferenceMode(reference, lag),
        schedule=draw(st.sampled_from(ScheduleAblation)), task=task, dirichlet_alpha=alpha,
        seed=draw(st.integers(0, 3)), align_from_round=draw(st.integers(1, 3)),
        batch_size=batch_size,
    )


# The record fields that the oracle forms as the run does, compared bit for
# bit.  It forms the others its own way: norms as hypot, and the
# dispersion as a mean of sums of squares, where the run squares norms.
# Those are compared within 1e-12 relative; the alignment gain, one minus a
# ratio near 1, also within 1e-12 absolute.
EXACT = {"round", "loss", "rotation_deviation", "upload_scalars", "download_scalars"}
ABS_TOL = {"alignment_gain": 1e-12}


def assert_matches_oracle(result):
    """``result``, a run's, holds ``reference_run``'s history bit for bit,
    its records and the round its divergence names, if any."""
    config = result.config
    history, records = reference_run(config)
    assert len(result.history) == len(history)
    for got, (b, a) in zip(result.history, history):
        assert got.b.tobytes() == b.tobytes() and got.a.tobytes() == a.tobytes()
    for record, want in zip(result.rounds, records):
        assert {*want, "wall_ms"} == {f.name for f in fields(RoundRecord)}
        for name, value in want.items():
            got = getattr(record, name)
            if name in EXACT:
                assert float(got).hex() == float(value).hex(), (name, got, value)
            else:
                assert (math.isclose(got, value, rel_tol=1e-12, abs_tol=ABS_TOL.get(name, 1e-300))
                        or math.isnan(got) and math.isnan(value)), (name, got, value)
    # A loss past the limit ends the run at its own, completed round; any
    # other divergence at the first round that did not complete.
    if records and not records[-1]["loss"] <= LOSS_LIMIT:
        diverged_at = len(records)
    else:
        diverged_at = len(records) + 1 if len(records) < config.rounds else None
    got = None if result.divergence is None else result.divergence.round_index
    assert got == diverged_at


@settings(max_examples=100, deadline=None)
@given(configs())
def test_run_federation_matches_the_oracle(config):
    assert_matches_oracle(run_federation(config))


@pytest.mark.parametrize("kind", ReferenceKind)
@pytest.mark.parametrize("strategy", Strategy)
def test_rank_two_rounds_match_the_oracle(strategy, kind):
    # Few drawn configs complete a round whose rotation is not the
    # identity, which every rank-1 rotation is; each of these completes
    # three, aligning A, B and A from round 1.
    config = FederationConfig(
        strategy=strategy, n_clients=3, rank=2, dims=(4, 3), rounds=3, local_steps=3,
        learning_rate=0.05, lam=0.5, align_from_round=1,
        reference_mode=ReferenceMode(kind, 2 * (kind is ReferenceKind.OLDER_GLOBAL)),
        task=TaskSpec(TaskKind.LOWRANK_REGRESSION, true_rank=2, heterogeneity=0.5),
    )
    result = run_federation(config)
    assert result.divergence is None
    assert_matches_oracle(result)


@st.composite
def sweeps(draw):
    """A base config, a grid of 2-3 strategies or lambda values, and 2-3 seeds."""
    base = draw(configs())
    key = draw(st.sampled_from(["strategy", "lambda"]))
    values = st.sampled_from(Strategy if key == "strategy" else [0.0, 0.3, 0.7, 1.0])
    grid = {key: draw(st.lists(values, min_size=2, max_size=3, unique=True))}
    seeds = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    return sweep_cells(base, grid, seeds)


@settings(max_examples=15, deadline=None)
@given(sweeps())
def test_sweep_cells_match_the_oracle(cells):
    # Serially every cell reads one set of batch tables; at jobs=2 each
    # worker reads its own, and a seed's cells may run in both.
    for jobs in (1, 2):
        done = run_sweep(cells, jobs=jobs)
        assert [c.config for c in done] == [c.config for c in cells]
        for cell in done:
            assert (cell.error is None) == (cell.result.divergence is None)
            assert_matches_oracle(cell.result)
