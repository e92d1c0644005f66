import concurrent.futures
import dataclasses
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import fedrot.aggregation
import fedrot.config
import fedrot.federation
from fedrot.aggregation import Strategy, frozen_factors
from fedrot.alignment import AlignmentTarget, ReferenceKind, procrustes_rotation
from fedrot.config import (
    FederationConfig,
    ReferenceMode,
    TaskSpec,
    apply_overrides,
    file_key,
    reads,
    sweep_cells,
)
from fedrot.errors import DivergenceError, UsageError
from fedrot.federation import (
    build_task,
    client_round,
    local_train,
    run_federation,
    run_sweep,
)
from fedrot.lora import LoraAdapter, init_adapter, semantic_update
from fedrot.tasks import ScalarToyTask, TaskKind, lowrank_regression_task


def regression_config(strategy=Strategy.FEDROT, **kwargs):
    base = dict(
        strategy=strategy,
        n_clients=3,
        rank=2,
        dims=(8, 6),
        rounds=6,
        local_steps=20,
        learning_rate=0.05,
        lam=0.7,
        align_from_round=1,
        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=2, heterogeneity=0.4),
        seed=3,
    )
    base.update(kwargs)
    return FederationConfig(**base)


def config_with(cls, f, value):
    """A valid config but for the field ``f`` of ``cls`` (``FederationConfig``
    or ``TaskSpec``) set to ``value``, with a task of a kind that reads it."""
    if cls is FederationConfig:
        return regression_config(**{f.name: value})
    kind = next(k for k in (TaskKind.LOWRANK_REGRESSION, *TaskKind) if reads(k, f))
    task = TaskSpec(**{"kind": kind, f.name: value})
    if kind is TaskKind.SCALAR_TOY:
        return regression_config(rank=1, dims=(1, 1), task=task)
    if kind is TaskKind.LOGISTIC:
        return regression_config(dims=(task.n_classes, task.n_features), task=task)
    return regression_config(task=task)


# (class, field, file key) of every FederationConfig and TaskSpec field.
CONFIG_FIELDS = [
    pytest.param(cls, f, prefix + file_key(f), id=prefix + file_key(f))
    for cls, prefix in ((FederationConfig, ""), (TaskSpec, "task."))
    for f in dataclasses.fields(cls)
]
# (class, field, element index or None, file key) of every float the config holds.
FLOATS = [
    pytest.param(cls, f, index, key, id=key)
    for cls, f, field_key in (p.values for p in CONFIG_FIELDS)
    if "float" in f.type
    for index, key in (
        [(i, f"{field_key}.{i}") for i in range(len(f.default))]
        if f.type.startswith("tuple") else [(None, field_key)]
    )
]


def assert_runs_bit_identical(first, second, ignore=("wall_ms",)):
    assert len(first.rounds) == len(second.rounds)
    for x, y in zip(first.rounds, second.rounds):
        for f in dataclasses.fields(x):
            if f.name in ignore:
                continue
            vx, vy = getattr(x, f.name), getattr(y, f.name)
            if isinstance(vx, float) and np.isnan(vx):
                assert np.isnan(vy)
            else:
                assert vx == vy, f"round {x.round} field {f.name}: {vx} != {vy}"
    assert (first.history[-1].b == second.history[-1].b).all()
    assert (first.history[-1].a == second.history[-1].a).all()


class TestConfigValidation:
    def test_lambda_out_of_range(self):
        with pytest.raises(UsageError):
            regression_config(lam=1.5)

    def test_rank_exceeds_dims(self):
        with pytest.raises(UsageError):
            regression_config(rank=7)

    def test_align_from_round_positive(self):
        with pytest.raises(UsageError):
            regression_config(align_from_round=0)

    # The task's requirements are checked with the config, before any run,
    # and name the file key to blame.
    def test_scalar_task_dims(self):
        with pytest.raises(UsageError) as exc:
            regression_config(
                task=TaskSpec(kind=TaskKind.SCALAR_TOY, targets=(0.5, 1.0, 1.5))
            )
        assert exc.value.key == "dims"

    def test_logistic_dims_must_match(self):
        with pytest.raises(UsageError) as exc:
            regression_config(
                task=TaskSpec(kind=TaskKind.LOGISTIC, n_features=8, n_classes=4)
            )
        assert exc.value.key == "dims"

    # A non-finite float is a config error for library callers too, not a
    # run that diverges or fails later.
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"learning_rate": math.nan}, "learning_rate"),
            ({"learning_rate": math.inf}, "learning_rate"),
            ({"dirichlet_alpha": math.inf}, "dirichlet_alpha"),
            ({"dirichlet_alpha": math.nan}, "dirichlet_alpha"),
            ({"init_a_value": math.nan}, "init_a_value"),
            (
                {"task": TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, heterogeneity=math.nan)},
                "task.heterogeneity",
            ),
            (
                {
                    "rank": 1,
                    "dims": (1, 1),
                    "task": TaskSpec(kind=TaskKind.SCALAR_TOY, targets=(0.5, math.nan, 1.5)),
                },
                "task.targets.1",
            ),
        ],
    )
    def test_non_finite_float_rejected(self, overrides, key):
        with pytest.raises(UsageError) as exc:
            regression_config(**overrides)
        assert exc.value.key == key

    # A float field that float() overflows is out of range, for library
    # callers too: the run would die of an OverflowError.
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"learning_rate": 10**400}, "learning_rate"),
            ({"dirichlet_alpha": 10**400}, "dirichlet_alpha"),
            ({"init_a_value": 10**400}, "init_a_value"),
            (
                {"task": TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, heterogeneity=10**400)},
                "task.heterogeneity",
            ),
            (
                {
                    "rank": 1,
                    "dims": (1, 1),
                    "task": TaskSpec(kind=TaskKind.SCALAR_TOY, targets=(10**400, 1.0, 1.5)),
                },
                "task.targets.0",
            ),
        ],
    )
    def test_overflowing_float_out_of_range(self, overrides, key):
        with pytest.raises(UsageError, match="out of range") as exc:
            regression_config(**overrides)
        assert exc.value.key == key

    # An enum field takes a member, never its value's name: the policy code
    # compares members with ``is``, so a name would run another experiment.
    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: regression_config(strategy="fedrot"), "strategy"),
            (lambda: regression_config(schedule="a_only"), "schedule"),
            (
                lambda: regression_config(task=TaskSpec(kind="lowrank_regression")),
                "task.kind",
            ),
            (lambda: ReferenceMode(kind="prev_global"), "kind"),
        ],
    )
    def test_enum_field_rejects_its_value_name(self, build, key):
        with pytest.raises(UsageError) as exc:
            build()
        assert exc.value.key == key

    # A value of the wrong type is a config error under its key, as the
    # loader makes it; none is converted, and a bool is not a number.
    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: regression_config(seed=1.5), "seed"),
            (lambda: regression_config(rounds=2.5), "rounds"),
            (lambda: regression_config(local_steps=2.0), "local_steps"),
            (lambda: regression_config(rank=2.0), "rank"),
            (lambda: regression_config(batch_size=4.0), "batch_size"),
            (lambda: regression_config(n_clients=True), "n_clients"),
            (lambda: regression_config(align_from_round=1.5), "align_from_round"),
            (lambda: regression_config(dims=(6,)), "dims"),
            (lambda: regression_config(lam="0.5"), "lambda"),
            (lambda: regression_config(learning_rate="0.1"), "learning_rate"),
            (
                lambda: regression_config(
                    task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=1.5)
                ),
                "task.true_rank",
            ),
            (
                lambda: regression_config(
                    task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, n_samples=10.5)
                ),
                "task.n_samples",
            ),
            (
                lambda: regression_config(
                    rank=1, dims=[1, 1],
                    task=TaskSpec(kind=TaskKind.SCALAR_TOY, targets=(0.5, 1.0, 1.5)),
                ),
                "dims",
            ),
            (
                lambda: regression_config(
                    n_clients=1, rank=1, dims=(1, 1),
                    task=TaskSpec(kind=TaskKind.SCALAR_TOY, targets=("1",)),
                ),
                "task.targets.0",
            ),
            (lambda: ReferenceMode(ReferenceKind.OLDER_GLOBAL, lag=2.5), "lag"),
        ],
    )
    def test_wrong_type_rejected(self, build, key):
        with pytest.raises(UsageError) as exc:
            build()
        assert exc.value.key == key
        assert str(exc.value).startswith(f"{key} must be ")

    # Every annotated field is checked, so a field added later is covered
    # here too.  None is wrong wherever the field's default is not None.
    @pytest.mark.parametrize(
        "build, name, key, bad",
        [
            pytest.param(
                build, f.name, prefix + file_key(f), bad, id=f"{prefix}{f.name}={bad!r}"
            )
            for build, cls, prefix in (
                (regression_config, FederationConfig, ""),
                (
                    lambda **kw: regression_config(
                        task=TaskSpec(**{"kind": TaskKind.LOWRANK_REGRESSION, **kw})
                    ),
                    TaskSpec,
                    "task.",
                ),
                (ReferenceMode, ReferenceMode, ""),
            )
            for f in dataclasses.fields(cls)
            for bad in ("1", True, [1], None)
            if bad is not None or f.default is not None
        ],
    )
    def test_every_field_type_checked(self, build, name, key, bad):
        with pytest.raises(UsageError) as exc:
            build(**{name: bad})
        assert exc.value.key == key
        assert str(exc.value).startswith(f"{key} must be ")

    # Each single-field bound is a ``range`` beside its field: its low end is
    # accepted, and a value past either end is rejected under the field's
    # file key, so a bound added later is covered here too.
    @pytest.mark.parametrize(
        "cls, f, key", [p for p in CONFIG_FIELDS if "range" in p.values[1].metadata]
    )
    def test_every_range_checked(self, cls, f, key):
        low, high = f.metadata["range"]
        number = float if f.type == "float" else int
        config_with(cls, f, number(low))
        for bad in [low - 1] + ([high + 1] if high < math.inf else []):
            with pytest.raises(UsageError) as exc:
                config_with(cls, f, number(bad))
            assert exc.value.key == key
            assert str(exc.value).startswith(f"{key} must ")
            assert str(exc.value).endswith(f", got {number(bad)}")

    # A float field takes a finite number, each element of a tuple of floats too.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, f, index, key", FLOATS)
    def test_every_float_field_finite(self, cls, f, index, key, bad):
        value = bad
        if index is not None:
            value = tuple(bad if i == index else t for i, t in enumerate(f.default))
        with pytest.raises(UsageError) as exc:
            config_with(cls, f, value)
        assert exc.value.key == key
        assert str(exc.value) == f"{key} must be finite, got {bad}"

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_negative_n_samples_rejected_for_every_kind(self, kind):
        with pytest.raises(UsageError) as exc:
            regression_config(task=TaskSpec(kind=kind, n_samples=-1))
        assert exc.value.key == "task.n_samples"
        assert str(exc.value) == "task.n_samples must be >= 0, got -1"


def footprint(config) -> int:
    """The float64 entries that ``config``'s footprint budget counts, read
    from the budget's own message with the limit at zero."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedrot.config, "MAX_FOOTPRINT", 0)
        with pytest.raises(UsageError, match="would hold") as exc:
            dataclasses.replace(config)
    return int(re.search(r"would hold (\d+) float64", str(exc.value))[1])


class TestFootprintBudget:
    """The 2 GiB budget counts what a run allocates at its peak: the client
    products and their transients, a regression mini-batch's d_in x d_in
    product and a logistic shard's logits."""

    @pytest.mark.parametrize("config", [
        regression_config(Strategy.RANDOM_ROTATION, n_clients=8, rank=4, dims=(400, 400),
                          rounds=2, local_steps=1),
        regression_config(Strategy.FEDIT, n_clients=2, rank=1, dims=(1, 2000), rounds=1,
                          local_steps=1, batch_size=16,
                          task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION)),
        regression_config(n_clients=3, rank=1, dims=(1000, 1), rounds=2, local_steps=1,
                          batch_size=32, task=TaskSpec(kind=TaskKind.LOGISTIC, n_classes=1000,
                                                       n_features=1, n_samples=10000)),
        regression_config(dims=(1, 1), rank=1, rounds=3,
                          task=TaskSpec(kind=TaskKind.SCALAR_TOY)),
    ], ids=["regression", "regression_batch", "logistic", "scalar_toy"])
    def test_peak_within_count(self, config):
        tracemalloc.start()
        try:
            result = run_federation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.divergence is None
        assert peak <= 8 * footprint(config) + 2 * 2**20

    def test_logits_over_budget_rejected_at_n_samples(self):
        # Its first client's loss would form two 13.4 GiB logit arrays.
        task = TaskSpec(kind=TaskKind.LOGISTIC, n_classes=20000, n_features=1,
                        n_samples=200000)
        with pytest.raises(UsageError, match="2 GiB") as exc:
            regression_config(Strategy.FEDIT, n_clients=2, rank=1, dims=(20000, 1),
                              rounds=1, local_steps=1, batch_size=32, task=task)
        assert exc.value.key == "task.n_samples"


class TestLocalTrain:
    def setup_method(self):
        self.task = lowrank_regression_task(8, 6, 2, 3, 0.4, seed=[3, 101])
        self.start = init_adapter(8, 6, 2, seed=0)

    def test_zero_learning_rate_is_identity(self):
        out, _ = local_train(0, self.start, self.task, 10, 0.0, Strategy.FEDIT, 1, 0)
        assert (out.b == self.start.b).all()
        assert (out.a == self.start.a).all()

    def test_stationary_at_optimum(self):
        task = lowrank_regression_task(6, 5, 2, 1, 0.0, seed=1)
        u, s, vt = np.linalg.svd(task.client_targets[0])
        opt = LoraAdapter(u[:, :2] * s[:2], vt[:2], 2)
        out, grad_max = local_train(0, opt, task, 5, 0.1, Strategy.FEDIT, 1, 0)
        assert grad_max <= 1e-8
        np.testing.assert_allclose(out.b, opt.b, atol=1e-9)
        np.testing.assert_allclose(out.a, opt.a, atol=1e-9)

    def test_scalar_loss_nonincreasing(self):
        task = ScalarToyTask((0.5, 1.0, 1.5))
        b, a = np.array([[0.2]]), np.array([[0.4]])
        prev = task.client_loss(0, b, a)
        ad = LoraAdapter(b, a, 1)
        for _ in range(50):
            ad, _ = local_train(0, ad, task, 1, 0.05, Strategy.FEDIT, 1, 0)
            cur = task.client_loss(0, ad.b, ad.a)
            assert cur <= prev + 1e-15
            prev = cur

    def test_ffa_freezes_a(self):
        out, _ = local_train(0, self.start, self.task, 10, 0.05, Strategy.FFA_LORA, 1, 0)
        assert (out.a == self.start.a).all()
        assert not (out.b == self.start.b).all()

    def test_rolora_alternates(self):
        # Start from nonzero b so the even-round A update has signal.
        rng = np.random.default_rng(5)
        start = LoraAdapter(rng.standard_normal((8, 2)), self.start.a.copy(), 2)
        odd, _ = local_train(0, start, self.task, 10, 0.05, Strategy.ROLORA, 1, 0)
        assert (odd.a == start.a).all() and not (odd.b == start.b).all()
        even, _ = local_train(0, start, self.task, 10, 0.05, Strategy.ROLORA, 2, 0)
        assert (even.b == start.b).all() and not (even.a == start.a).all()

    def test_batched_training_deterministic(self):
        runs = [
            local_train(
                1, self.start, self.task, 15, 0.02, Strategy.FEDIT, 2, 9, batch_size=16
            )[0]
            for _ in range(2)
        ]
        assert (runs[0].b == runs[1].b).all()
        assert (runs[0].a == runs[1].a).all()


class ScriptedTask:
    """A one-client task that returns scripted gradients, step by step,
    repeating the last pair once the script runs out."""

    def __init__(self, *steps):
        self.steps = steps
        self.calls = 0

    def sample_count(self, i):
        return 1

    def client_grads(self, i, b, a, sample_idx=None, *, out):
        gb, ga = self.steps[min(self.calls, len(self.steps) - 1)]
        self.calls += 1
        out[0].fill(gb)
        out[1].fill(ga)
        return out


class GrowingTask:
    """A one-client task whose gradient is ``-scale`` times each factor."""

    def __init__(self, scale):
        self.scale = scale

    def sample_count(self, i):
        return 1

    def client_grads(self, i, b, a, sample_idx=None, *, out):
        np.multiply(b, -self.scale, out=out[0])
        np.multiply(a, -self.scale, out=out[1])
        return out


@np.errstate(over="ignore", invalid="ignore")
def local_train_reference(client, start, task, steps, eta, strategy, round_index,
                          seed, batch_size=None):
    """The local update rule with every check written out in full."""
    b, a = start.b.copy(), start.a.copy()
    freeze_b, freeze_a = frozen_factors(strategy, round_index)
    n_samples = task.sample_count(client)
    rng = None
    if batch_size is not None and batch_size < n_samples:
        rng = np.random.default_rng([seed, client, round_index])
    grad_norm_max = 0.0
    for step in range(steps):
        idx = None
        if rng is not None:
            idx = rng.choice(n_samples, size=batch_size, replace=False)
        gb, ga = task.client_grads(
            client, b, a, idx, out=(np.empty(b.shape), np.empty(a.shape))
        )
        if not (np.isfinite(gb).all() and np.isfinite(ga).all()):
            raise DivergenceError("non-finite gradient", step_index=step)
        grad_norm_max = max(
            grad_norm_max, float(np.linalg.norm(gb)), float(np.linalg.norm(ga))
        )
        if not freeze_b:
            b -= eta * gb
        if not freeze_a:
            a -= eta * ga
        if not (np.isfinite(b).all() and np.isfinite(a).all()):
            raise DivergenceError("non-finite parameters", step_index=step)
    return b, a, grad_norm_max


class TestLocalTrainEdgeCases:
    def setup_method(self):
        self.start = init_adapter(4, 3, 2, seed=0)

    def train(self, task, steps=5, eta=0.1, strategy=Strategy.FEDIT, round_index=1):
        return local_train(0, self.start, task, steps, eta, strategy, round_index, 0)

    def test_nan_gradient_raises_at_its_step(self):
        task = ScriptedTask((0.1, 0.1), (0.1, 0.1), (0.1, 0.1), (0.1, np.nan))
        with pytest.raises(DivergenceError, match="non-finite gradient") as exc:
            self.train(task, round_index=4)
        assert exc.value.step_index == 3
        assert exc.value.round_index == 4

    def test_inf_gradient_raises(self):
        with pytest.raises(DivergenceError, match="non-finite gradient") as exc:
            self.train(ScriptedTask((-np.inf, 0.0)))
        assert exc.value.step_index == 0

    def test_overflowing_gradient_norm_is_not_divergence(self):
        # Every entry is finite; only the sum of squares overflows.
        task = ScriptedTask((1e200, 1e200))
        out, grad_norm_max = self.train(task, steps=3, eta=1e-200)
        assert grad_norm_max == np.inf
        assert np.isfinite(out.b).all() and np.isfinite(out.a).all()
        assert task.calls == 3

    def test_parameter_overflow_raises(self):
        task = ScriptedTask((0.0, 0.0), (1e300, 0.0))
        with pytest.raises(DivergenceError, match="non-finite parameters") as exc:
            self.train(task, eta=1e10)
        assert exc.value.step_index == 1

    def test_parameter_overflow_from_finite_update_raises(self):
        # b grows by 1e307 per step and overflows on its 19th step.
        with pytest.raises(DivergenceError, match="non-finite parameters") as exc:
            self.train(ScriptedTask((-1e307, 0.0)), steps=40, eta=1.0)
        assert exc.value.step_index == 17

    @pytest.mark.parametrize(
        "strategy,round_index,frozen,grads",
        [(Strategy.FFA_LORA, 1, "a", (0.5, 1e300)),
         (Strategy.ROLORA, 1, "a", (0.5, 1e300)),
         (Strategy.ROLORA, 2, "b", (1e300, 0.5))],
    )
    def test_frozen_factor_unchanged_bit_for_bit(self, strategy, round_index, frozen,
                                                 grads):
        # The frozen factor's gradient would overflow it if it were applied.
        self.start = LoraAdapter(np.full((4, 2), -0.0), self.start.a, 2)
        out, grad_norm_max = self.train(
            ScriptedTask(grads), eta=1e10, strategy=strategy, round_index=round_index
        )
        assert getattr(out, frozen).tobytes() == getattr(self.start, frozen).tobytes()
        assert grad_norm_max == np.inf  # 1e300 squared overflows

    def assert_raises_like_reference(self, task, start, steps, eta, strategy,
                                     round_index):
        with pytest.raises(DivergenceError) as want:
            local_train_reference(0, start, task, steps, eta, strategy, round_index, 0)
        task.calls = 0  # restart a scripted task
        with pytest.raises(DivergenceError) as got:
            local_train(0, start, task, steps, eta, strategy, round_index, 0)
        assert str(want.value) in str(got.value)
        assert got.value.step_index == want.value.step_index
        return got.value.step_index

    @pytest.mark.parametrize(
        "strategy,round_index",
        [(Strategy.FEDIT, 1), (Strategy.FFA_LORA, 1), (Strategy.ROLORA, 1),
         (Strategy.ROLORA, 2)],
    )
    def test_slow_parameter_growth_overflows_at_reference_step(self, strategy,
                                                               round_index):
        # Each updated factor grows by 2.5x per step while every squared
        # gradient norm stays finite, so the running norm bound passes 1e300
        # with the factors still finite and the per-step check takes over
        # some steps before they overflow.
        start = LoraAdapter(np.ones((4, 2)), np.ones((2, 3)), 2)
        step = self.assert_raises_like_reference(
            GrowingTask(1e-150), start, 1000, 1.5e150, strategy, round_index
        )
        assert step > 700

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("factor", ["b", "a"])
    def test_non_finite_start_raises_at_reference_step(self, bad, factor):
        # LoraAdapter rejects non-finite factors, so the entry is written
        # after construction.
        start = LoraAdapter(np.ones((4, 2)), np.ones((2, 3)), 2)
        getattr(start, factor)[1, 1] = bad
        self.assert_raises_like_reference(
            ScriptedTask((0.1, 0.1)), start, 5, 0.1, Strategy.FEDIT, 1
        )

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_matches_reference_loop(self, strategy, batch_size):
        task = lowrank_regression_task(8, 6, 2, 3, 0.4, seed=[3, 101], n_probes=40)
        rng = np.random.default_rng(1)
        start = LoraAdapter(rng.standard_normal((8, 2)), rng.standard_normal((2, 6)), 2)
        for round_index in (1, 2):
            out, grad_norm_max = local_train(
                1, start, task, 30, 0.02, strategy, round_index, 9, batch_size=batch_size
            )
            b, a, want = local_train_reference(
                1, start, task, 30, 0.02, strategy, round_index, 9, batch_size=batch_size
            )
            assert out.b.tobytes() == b.tobytes()
            assert out.a.tobytes() == a.tobytes()
            assert grad_norm_max == want


class TestClientRound:
    def setup_method(self):
        self.config = regression_config(align_from_round=2)
        self.task = build_task(self.config)
        self.broadcast = init_adapter(8, 6, 2, seed=[3, 100])

    def train(self, config, client, round_index, start=None):
        """The training phase's adapter for one client, as ``client_round`` gets it."""
        start = self.broadcast if start is None else start
        trained, _ = local_train(
            client, start, self.task, config.local_steps, config.learning_rate,
            config.strategy, round_index, config.seed, batch_size=config.batch_size,
        )
        return trained

    def test_no_alignment_before_align_from_round(self):
        trained = self.train(self.config, 0, 1)
        reported, rotation, procrustes = client_round(
            0, trained, self.broadcast, self.config, 1
        )
        assert rotation is None and procrustes is None
        assert (reported.b == trained.b).all()
        assert (reported.a == trained.a).all()

    def test_fedit_reports_raw_factors(self):
        config = regression_config(strategy=Strategy.FEDIT)
        trained = self.train(config, 0, 3)
        reported, _, _ = client_round(0, trained, self.broadcast, config, 3)
        assert (reported.b == trained.b).all()
        assert (reported.a == trained.a).all()

    def test_self_reference_rotation_near_identity(self):
        trained = self.train(self.config, 1, 3)
        hard = procrustes_rotation(trained.a, trained.a, AlignmentTarget.FACTOR_A)
        assert np.linalg.norm(hard.r - np.eye(2)) <= 1e-10
        _, _, procrustes = client_round(1, trained, trained, self.config, 3)
        assert np.linalg.norm(procrustes.r - np.eye(2)) <= 1e-10

    def test_alignment_preserves_semantics(self):
        trained = self.train(self.config, 2, 3)
        reported, _, _ = client_round(2, trained, self.broadcast, self.config, 3)
        np.testing.assert_allclose(
            semantic_update(reported), semantic_update(trained), atol=1e-12
        )

    def test_random_rotation_changes_factors_not_product(self):
        config = regression_config(strategy=Strategy.RANDOM_ROTATION)
        trained = self.train(config, 0, 2)
        reported, _, _ = client_round(0, trained, self.broadcast, config, 2)
        assert not (reported.b == trained.b).all()
        np.testing.assert_allclose(
            semantic_update(reported), semantic_update(trained), atol=1e-12
        )

    def test_degenerate_scalar_rescale_reports_trained_factors(self, monkeypatch, caplog):
        # A zero local factor leaves the rescaling undefined: the client
        # reports its trained factors, and the round logs why.
        config = regression_config(strategy=Strategy.SCALAR_RESCALE, learning_rate=0.0)
        start = LoraAdapter(self.broadcast.b, np.zeros((2, 6)), 2)
        trained = self.train(config, 0, 3, start)
        with caplog.at_level(logging.WARNING, logger="fedrot.federation"):
            reported, rotation, _ = client_round(0, trained, self.broadcast, config, 3)
        assert reported is trained and rotation is None
        assert len(caplog.records) == 1
        # The server then gets the trained product itself.
        rounds = record_round_phases(monkeypatch)
        run_federation(dataclasses.replace(config, init_a_value=0.0, rounds=2))
        for products, _, updates in rounds:
            assert all(u is p for u, p in zip(updates, products, strict=True))

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_update_is_product_of_reported_factors(self, monkeypatch, strategy):
        rounds = record_round_phases(monkeypatch)
        run_federation(regression_config(strategy=strategy, rounds=3))
        assert len(rounds) == 3
        for products, adapters, updates in rounds:
            for update, adapter in zip(updates, adapters, strict=True):
                np.testing.assert_array_equal(update, semantic_update(adapter))
        config = regression_config(strategy=strategy)
        trained = [self.train(config, i, 1) for i in range(3)]
        for product, adapter in zip(rounds[0][0], trained, strict=True):
            np.testing.assert_array_equal(product, semantic_update(adapter))


def record_round_phases(monkeypatch) -> list:
    """Record, per round, the training phase's products and the adapters and
    products that ``server_step`` receives."""
    rounds = []
    real_train, real_step = fedrot.federation.train_clients, fedrot.federation.server_step

    def train_clients(*args):
        trained, products, grad_norms = real_train(*args)
        rounds.append([products])
        return trained, products, grad_norms

    def server_step(adapters, updates, *args):
        rounds[-1] += [adapters, updates]
        return real_step(adapters, updates, *args)

    monkeypatch.setattr(fedrot.federation, "train_clients", train_clients)
    monkeypatch.setattr(fedrot.federation, "server_step", server_step)
    return rounds


def count_products(monkeypatch) -> list:
    """Record the adapters whose product federation and aggregation form."""
    calls = []

    def counted(ad):
        calls.append(ad)
        return semantic_update(ad)

    for module in (fedrot.federation, fedrot.aggregation):
        monkeypatch.setattr(module, "semantic_update", counted)
    return calls


class TestRunFederation:
    def test_bitwise_deterministic(self):
        config = regression_config()
        assert_runs_bit_identical(run_federation(config), run_federation(config))

    def test_lambda_zero_matches_fedit(self):
        fedrot = run_federation(regression_config(lam=0.0))
        fedit = run_federation(regression_config(strategy=Strategy.FEDIT, lam=0.0))
        # Strategy-labelling diagnostics (kappa, aligned flag) may differ;
        # the trajectory itself must not.
        assert_runs_bit_identical(
            fedrot, fedit, ignore=("wall_ms", "kappa_max", "aligned")
        )

    @pytest.mark.parametrize(
        "strategy, per_client", [(Strategy.FEDROT, 2), (Strategy.FEDIT, 1)]
    )
    def test_each_product_formed_once_per_round(self, monkeypatch, strategy, per_client):
        # An aligned client forms its trained and its reported product, a
        # FedIT client only the trained one; the server forms the product
        # of the factor-wise mean.
        calls = count_products(monkeypatch)
        run_federation(regression_config(strategy=strategy, rounds=2))
        assert len(calls) == 2 * (3 * per_client + 1)

    def test_lambda_zero_reports_the_trained_product(self, monkeypatch):
        # The soft rotation at lambda 0 is the identity, whose alignment
        # returns the trained adapter itself: no second product per client.
        calls = count_products(monkeypatch)
        run = run_federation(regression_config(lam=0.0, rounds=2))
        assert len(calls) == 2 * (3 + 1)
        assert all(r.aligned for r in run.rounds)

    def test_single_client_zero_aggregation_error(self):
        config = regression_config(
            strategy=Strategy.FEDIT, n_clients=1, task=TaskSpec(
                kind=TaskKind.LOWRANK_REGRESSION, true_rank=2, heterogeneity=0.0
            )
        )
        run = run_federation(config)
        assert all(r.agg_error == 0.0 for r in run.rounds)

    def test_ffa_global_a_constant(self):
        run = run_federation(regression_config(strategy=Strategy.FFA_LORA))
        a0 = run.history[0].a
        for model in run.history[1:]:
            assert (model.a == a0).all()

    def test_rolora_updates_one_factor_per_round(self):
        run = run_federation(regression_config(strategy=Strategy.ROLORA))
        for t, (prev, cur) in enumerate(zip(run.history, run.history[1:]), start=1):
            if t % 2 == 1:
                assert (cur.a == prev.a).all()
            else:
                assert (cur.b == prev.b).all()

    def test_semantic_drift_small_every_round(self):
        run = run_federation(regression_config(lam=0.8))
        assert all(r.semantic_drift_max <= 1e-12 for r in run.rounds)

    def test_communication_accounting(self):
        d_out, d_in, rank = 8, 6, 2
        payload = d_out * rank + rank * d_in
        for strategy in (
            Strategy.FEDIT,
            Strategy.FEDROT,
            Strategy.FFA_LORA,
            Strategy.ROLORA,
            Strategy.SCALAR_RESCALE,
            Strategy.RANDOM_ROTATION,
        ):
            run = run_federation(regression_config(strategy=strategy, rounds=3))
            for r in run.rounds:
                assert r.upload_scalars == payload
                assert r.download_scalars == payload

    def test_random_client_reference_costs_extra_download(self):
        config = regression_config(
            rounds=4,
            reference_mode=ReferenceMode(kind=ReferenceKind.RANDOM_CLIENT),
        )
        run = run_federation(config)
        payload = 8 * 2 + 2 * 6
        assert run.rounds[0].download_scalars == payload
        for r in run.rounds[1:]:
            assert r.download_scalars == 2 * payload

    def test_divergence_carries_partial_trajectory(self):
        # A step size just past the stability limit grows the loss a few
        # orders of magnitude per round, so whole rounds still complete
        # before the divergence guard trips.
        config = regression_config(
            strategy=Strategy.FEDIT, learning_rate=1.0, rounds=40, local_steps=1
        )
        result = run_federation(config)
        assert isinstance(result.divergence, DivergenceError)
        assert 1 <= len(result.rounds) <= 40
        assert result.divergence.round_index == len(result.rounds)

    def test_local_divergence_carries_completed_rounds(self, monkeypatch):
        real_local_train = fedrot.federation.local_train

        def local_train_failing_in_round_3(*args, **kwargs):
            if args[6] == 3:
                raise DivergenceError("non-finite gradient on client 0",
                                      round_index=3, step_index=7)
            return real_local_train(*args, **kwargs)

        monkeypatch.setattr(fedrot.federation, "local_train",
                            local_train_failing_in_round_3)
        config = regression_config(rounds=5)
        result = run_federation(config)
        divergence = result.divergence
        assert str(divergence) == "non-finite gradient on client 0"
        assert [r.round for r in result.rounds] == [1, 2]
        assert divergence.round_index == 3 and divergence.step_index == 7
        assert len(result.history) == 3
        full = run_federation(dataclasses.replace(config, rounds=2))
        assert full.divergence is None
        assert_runs_bit_identical(result, full)

    def test_later_client_divergence_stops_the_round(self, monkeypatch):
        # Clients train in client order, and the first that fails stops the
        # round: no later client trains, and earlier rounds stand complete.
        real_local_train = fedrot.federation.local_train
        calls = []
        failure = DivergenceError("non-finite gradient on client 1",
                                  round_index=2, step_index=4)

        def local_train_failing_on_client_1(*args, **kwargs):
            calls.append((args[6], args[0]))
            if args[6] == 2 and args[0] == 1:
                raise failure
            return real_local_train(*args, **kwargs)

        monkeypatch.setattr(fedrot.federation, "local_train",
                            local_train_failing_on_client_1)
        config = regression_config(rounds=4)
        result = run_federation(config)
        assert calls == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        assert result.divergence is failure
        assert [r.round for r in result.rounds] == [1]
        assert len(result.history) == 2
        monkeypatch.setattr(fedrot.federation, "local_train", real_local_train)
        full = run_federation(dataclasses.replace(config, rounds=1))
        assert_runs_bit_identical(result, full)

    def test_server_divergence_carries_completed_rounds(self, monkeypatch):
        # Finite client factors whose mean overflows at the server stop the
        # run as a client's overflow does, after the completed rounds.
        real_server_step = fedrot.federation.server_step

        def server_step_overflowing_in_round_3(adapters, updates, prev, strategy, t):
            if t == 3:
                adapters = [LoraAdapter(np.full_like(ad.b, 1e308), ad.a, ad.rank)
                            for ad in adapters]
            return real_server_step(adapters, updates, prev, strategy, t)

        monkeypatch.setattr(fedrot.federation, "server_step",
                            server_step_overflowing_in_round_3)
        result = run_federation(regression_config(rounds=5))
        assert str(result.divergence) == "non-finite factor mean at the server"
        assert result.divergence.round_index == 3
        assert [r.round for r in result.rounds] == [1, 2]
        assert len(result.history) == 3

    def test_overflowing_aggregation_error_diverges(self):
        # Finite reported products whose aggregation error overflows.
        config = regression_config(strategy=Strategy.RANDOM_ROTATION, dims=(8, 8),
                                   learning_rate=1e308, local_steps=1, seed=0)
        result = run_federation(config)
        assert str(result.divergence) == "non-finite aggregation error at the server"
        assert result.divergence.round_index == 1
        assert result.rounds == []

    def test_history_length(self):
        run = run_federation(regression_config(rounds=5))
        assert len(run.history) == 6
        assert len(run.rounds) == 5

    def test_alignment_cost_scales_mildly_in_width(self):
        # Gradient work is O(d^2) per step, and the Procrustes alignment
        # adds only O(d r^2), so growing d by 16x may cost up to ~256x but
        # must not blow up cubically (which a dense d x d alignment would).
        def round_time(d):
            config = regression_config(
                dims=(d, d), rounds=2, local_steps=2,
                task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=2,
                              heterogeneity=0.2),
            )
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                run_federation(config)
                best = min(best, time.perf_counter() - start)
            return best

        small, large = round_time(64), round_time(1024)
        assert large <= 1000 * max(small, 1e-3)


class TestApplyOverrides:
    def test_lambda_and_task_overrides(self):
        base = regression_config()
        out = apply_overrides(base, {"lambda": 0.25, "heterogeneity": 0.9})
        assert out.lam == 0.25
        assert out.task.heterogeneity == 0.9
        assert base.lam == 0.7

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UsageError):
            apply_overrides(regression_config(), {"warp_factor": 9})

    def test_key_the_task_kind_does_not_read_rejected(self):
        with pytest.raises(UsageError) as exc:
            apply_overrides(logistic_config(), {"heterogeneity": 0.9})
        assert exc.value.key == "heterogeneity"


def logistic_config(**kwargs):
    task = TaskSpec(kind=TaskKind.LOGISTIC, n_features=8, n_classes=4)
    return regression_config(dims=(4, 8), task=task, **kwargs)


class TestRunSweep:
    def test_grid_size_and_order(self):
        cells = run_sweep(sweep_cells(
            regression_config(rounds=2, local_steps=3),
            {"lambda": [0.0, 0.5, 1.0]},
            seeds=[0, 1],
        ))
        assert len(cells) == 6
        assert [c.params["lambda"] for c in cells] == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
        assert [c.seed for c in cells] == [0, 1, 0, 1, 0, 1]

    def test_cells_match_direct_runs(self):
        base = regression_config(rounds=3, local_steps=5)
        (cell,) = run_sweep(sweep_cells(base, {"lambda": [0.4]}, seeds=[7]))
        direct = run_federation(dataclasses.replace(base, lam=0.4, seed=7))
        assert cell.error is None
        assert_runs_bit_identical(cell.result, direct)

    def test_failed_cell_recorded_not_raised(self):
        base = regression_config(rounds=3, local_steps=30)
        cells = run_sweep(sweep_cells(base, {"learning_rate": [0.02, 50.0]}, seeds=[0]))
        assert cells[0].error is None
        assert cells[1].error is not None
        assert "DivergenceError" in cells[1].error
        assert cells[1].error.endswith(str(cells[1].result.divergence))

    def test_parallel_matches_serial(self):
        base = regression_config(rounds=2, local_steps=5)
        serial = run_sweep(sweep_cells(base, {"lambda": [0.0, 1.0]}, seeds=[0, 1]), jobs=1)
        parallel = run_sweep(sweep_cells(base, {"lambda": [0.0, 1.0]}, seeds=[0, 1]), jobs=2)
        for s, p in zip(serial, parallel):
            assert s.params == p.params and s.seed == p.seed
            assert_runs_bit_identical(s.result, p.result)

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            run_sweep(sweep_cells(regression_config(), {}, seeds=[0]))

    # Grids the experiment-file loader rejects: a key no grid may vary (the
    # seed, a task field the regression task never reads, the dims), a key
    # the task kind does not read, an empty value list, a value or seed the
    # config rejects, even after a valid cell, a float seed and an enum
    # value's name.
    @pytest.mark.parametrize(
        "config, grid, seeds, key",
        [
            (regression_config, {"lambda": [0.5], "seed": [1, 2]}, [0], "seed"),
            (regression_config, {"n_features": [3, 9]}, [0], "n_features"),
            (regression_config, {"dims": [(6, 6), (8, 8)]}, [0], "dims"),
            (logistic_config, {"heterogeneity": [0.1, 0.9]}, [0], "heterogeneity"),
            (regression_config, {"lambda": [0.5], "rounds": []}, [0], "rounds"),
            (regression_config, {"lambda": [0.5, 1.5]}, [0], "sweep.grid.lambda.1"),
            (regression_config, {"strategy": ["fedrot"]}, [0], "sweep.grid.strategy.0"),
            (regression_config, {"lambda": [0.5]}, [0, -1], "sweep.seeds.1"),
            (regression_config, {"lambda": [0.5]}, [0, 1.5], "sweep.seeds.1"),
        ],
    )
    def test_grid_rejected_before_any_cell_runs(self, monkeypatch, config, grid,
                                                 seeds, key):
        runs = []
        monkeypatch.setattr(fedrot.federation, "run_federation", runs.append)
        with pytest.raises(UsageError) as exc:
            run_sweep(sweep_cells(config(), grid, seeds=seeds))
        assert exc.value.key == key
        assert runs == []

    def test_pool_no_larger_than_grid(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = regression_config(rounds=1, local_steps=1)
        cells = run_sweep(sweep_cells(base, {"lambda": [0.0, 1.0]}, seeds=[0]), jobs=64)
        assert sizes == [2]
        assert all(c.result is not None for c in cells)
