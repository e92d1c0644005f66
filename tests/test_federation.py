import collections
import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import fedrot.aggregation
import fedrot.federation
import fedrot.tasks
from fedrot.aggregation import Strategy, frozen_factors
from fedrot.alignment import AlignmentTarget, ReferenceKind, ScheduleAblation, procrustes_rotation
from fedrot.config import (
    FederationConfig,
    ReferenceMode,
    TaskSpec,
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
from fedrot.tasks import TaskKind, lowrank_regression_task
from fedrot.verify import scalar_toy_config


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


def train_config(steps, eta, strategy=Strategy.FEDIT, seed=0, batch_size=None):
    """A config holding ``local_train``'s settings: ``steps`` steps at rate ``eta``."""
    return regression_config(strategy, local_steps=steps, learning_rate=eta, seed=seed,
                             batch_size=batch_size)


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

    # A constructor takes what a file holds: an enum value's name becomes its
    # member, so the policy code's ``is`` tests hold, a list a tuple and an
    # int a float where a float is declared, each element of a tuple too.
    @pytest.mark.parametrize(
        "build, read, want",
        [
            pytest.param(lambda: regression_config(strategy="fedrot"),
                         lambda c: c.strategy, Strategy.FEDROT, id="strategy"),
            pytest.param(lambda: regression_config(schedule="a_only"),
                         lambda c: c.schedule, ScheduleAblation.A_ONLY, id="schedule"),
            pytest.param(lambda: regression_config(task=TaskSpec(kind="lowrank_regression")),
                         lambda c: c.task.kind, TaskKind.LOWRANK_REGRESSION, id="task.kind"),
            pytest.param(lambda: ReferenceMode(kind="prev_global"),
                         lambda c: c.kind, ReferenceKind.PREV_GLOBAL, id="kind"),
            pytest.param(lambda: regression_config(dims=[8, 6]),
                         lambda c: c.dims, (8, 6), id="dims"),
            pytest.param(lambda: regression_config(learning_rate=1),
                         lambda c: c.learning_rate, 1.0, id="learning_rate"),
            pytest.param(lambda: regression_config(
                             rank=1, dims=(1, 1), task=TaskSpec(TaskKind.SCALAR_TOY, [1, 2, 0.5])),
                         lambda c: c.task.targets, (1.0, 2.0, 0.5), id="task.targets"),
        ],
    )
    def test_file_shaped_value_converts(self, build, read, want):
        value = read(build())
        assert value == want and type(value) is type(want)
        if isinstance(want, tuple):
            assert [type(v) for v in value] == [type(v) for v in want]

    # A value already of its type is kept as the same object, so the shared
    # default task is never rebound.
    def test_typed_value_kept(self):
        dims, task = (8, 6), TaskSpec(TaskKind.LOWRANK_REGRESSION, true_rank=2)
        config = regression_config(dims=dims, task=task, strategy=Strategy.FEDIT)
        assert config.dims is dims and config.task is task
        assert config.strategy is Strategy.FEDIT
        default = FederationConfig.task
        targets = default.targets
        assert regression_config(task=default).task is default
        assert default.targets is targets

    # A value of the wrong type is a config error under its key, as the
    # loader makes it, and a bool is not a number.
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
                    rank=1, dims=[1],
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
    # here too.  None is wrong wherever the field's default is not None, and
    # ``[1]`` wherever a list does not convert: it is a valid ``targets``.
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
            if (bad is not None or f.default is not None)
            and (bad != [1] or f.name != "targets")
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


class TestFootprintBudget:
    """The 2 GiB budget counts what a run allocates at its peak: the client
    products and their transients, a regression mini-batch's d_in x d_in
    product, a logistic task's features and a shard's logits."""

    @pytest.mark.parametrize("config", [
        regression_config(Strategy.RANDOM_ROTATION, n_clients=8, rank=4, dims=(400, 400),
                          rounds=2, local_steps=1),
        regression_config(Strategy.FEDIT, n_clients=2, rank=1, dims=(1, 2000), rounds=1,
                          local_steps=1, batch_size=16,
                          task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION)),
        regression_config(n_clients=3, rank=1, dims=(1000, 1), rounds=2, local_steps=1,
                          batch_size=32, task=TaskSpec(kind=TaskKind.LOGISTIC, n_classes=1000,
                                                       n_features=1, n_samples=10000)),
        regression_config(Strategy.FEDIT, n_clients=3, rank=2, dims=(4, 200), rounds=1,
                          local_steps=1, batch_size=32,
                          task=TaskSpec(kind=TaskKind.LOGISTIC, n_classes=4,
                                        n_features=200, n_samples=20000)),
        regression_config(dims=(1, 1), rank=1, rounds=3,
                          task=TaskSpec(kind=TaskKind.SCALAR_TOY)),
    ], ids=["regression", "regression_batch", "logistic", "logistic_features",
            "scalar_toy"])
    def test_peak_within_count(self, config):
        tracemalloc.start()
        try:
            result = run_federation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.divergence is None
        assert peak <= 8 * config.footprint() + 2 * 2**20
        # Nor does the count overstate the peak enough to reject configs that fit.
        assert peak >= 0.4 * 8 * config.footprint()

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
        out = local_train(0, self.start, self.task, train_config(10, 0.0), 1)
        assert (out.b == self.start.b).all()
        assert (out.a == self.start.a).all()

    def test_stationary_at_optimum(self):
        task = lowrank_regression_task(6, 5, 2, 1, 0.0, seed=1)
        u, s, vt = np.linalg.svd(task.client_targets[0])
        opt = LoraAdapter(u[:, :2] * s[:2], vt[:2])
        gb, ga = task.client_grads(
            0, opt.b, opt.a, out=(np.empty_like(opt.b), np.empty_like(opt.a))
        )
        assert max(np.linalg.norm(gb), np.linalg.norm(ga)) <= 1e-8
        out = local_train(0, opt, task, train_config(5, 0.1), 1)
        np.testing.assert_allclose(out.b, opt.b, atol=1e-9)
        np.testing.assert_allclose(out.a, opt.a, atol=1e-9)

    def test_scalar_loss_nonincreasing(self):
        task = build_task(scalar_toy_config(Strategy.FEDIT))
        b, a = np.array([[0.2]]), np.array([[0.4]])
        prev = task.client_loss(0, b, a)
        ad, config = LoraAdapter(b, a), train_config(1, 0.05)
        for _ in range(50):
            ad = local_train(0, ad, task, config, 1)
            cur = task.client_loss(0, ad.b, ad.a)
            assert cur <= prev + 1e-15
            prev = cur

    def test_ffa_freezes_a(self):
        config = train_config(10, 0.05, Strategy.FFA_LORA)
        out = local_train(0, self.start, self.task, config, 1)
        assert (out.a == self.start.a).all()
        assert not (out.b == self.start.b).all()

    def test_rolora_alternates(self):
        # Start from nonzero b so the even-round A update has signal.
        rng = np.random.default_rng(5)
        start = LoraAdapter(rng.standard_normal((8, 2)), self.start.a.copy())
        config = train_config(10, 0.05, Strategy.ROLORA)
        odd = local_train(0, start, self.task, config, 1)
        assert (odd.a == start.a).all() and not (odd.b == start.b).all()
        even = local_train(0, start, self.task, config, 2)
        assert (even.b == start.b).all() and not (even.a == start.a).all()

    def test_batched_training_deterministic(self):
        config = train_config(15, 0.02, seed=9, batch_size=16)
        runs = [local_train(1, self.start, self.task, config, 2) for _ in range(2)]
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
    for step in range(steps):
        idx = None
        if rng is not None:
            idx = rng.choice(n_samples, size=batch_size, replace=False)
        gb, ga = task.client_grads(
            client, b, a, idx, out=(np.empty(b.shape), np.empty(a.shape))
        )
        if not (np.isfinite(gb).all() and np.isfinite(ga).all()):
            raise DivergenceError("non-finite gradient", step_index=step)
        if not freeze_b:
            b -= eta * gb
        if not freeze_a:
            a -= eta * ga
        if not (np.isfinite(b).all() and np.isfinite(a).all()):
            raise DivergenceError("non-finite parameters", step_index=step)
    return b, a


class TestLocalTrainEdgeCases:
    def setup_method(self):
        self.start = init_adapter(4, 3, 2, seed=0)

    def train(self, task, steps=5, eta=0.1, strategy=Strategy.FEDIT, round_index=1):
        return local_train(0, self.start, task, train_config(steps, eta, strategy), round_index)

    def test_nan_gradient_raises_at_its_step(self):
        task = ScriptedTask((0.1, 0.1), (0.1, 0.1), (0.1, 0.1), (0.1, np.nan))
        with pytest.raises(DivergenceError, match="non-finite gradient") as exc:
            self.train(task, round_index=4)
        assert exc.value.step_index == 3
        assert exc.value.round_index == 4

    def test_steps_past_ssize_t_run_until_divergence(self):
        # A count too large for a C ssize_t runs like any other.
        task = ScriptedTask((0.1, 0.1), (0.1, 0.1), (0.1, 0.1), (0.1, np.nan))
        with pytest.raises(DivergenceError, match="non-finite gradient") as exc:
            self.train(task, steps=10**20)
        assert exc.value.step_index == 3
        assert task.calls == 4

    def test_inf_gradient_raises(self):
        with pytest.raises(DivergenceError, match="non-finite gradient") as exc:
            self.train(ScriptedTask((-np.inf, 0.0)))
        assert exc.value.step_index == 0

    def test_overflowing_gradient_norm_is_not_divergence(self):
        # Every entry is finite; only the sum of squares overflows.
        task = ScriptedTask((1e200, 1e200))
        out = self.train(task, steps=3, eta=1e-200)
        assert np.isfinite(out.b).all() and np.isfinite(out.a).all()
        assert task.calls == 3

    @pytest.mark.parametrize(
        "strategy,round_index",
        [(Strategy.FEDIT, 1), (Strategy.FFA_LORA, 1), (Strategy.ROLORA, 1),
         (Strategy.ROLORA, 2)],
    )
    def test_overflowing_parameter_norm_is_not_divergence(self, strategy, round_index):
        # Every trained entry is finite; only their sum of squares overflows.
        self.start = LoraAdapter(np.full((4, 2), 1e200), np.full((2, 3), 1e200))
        task = ScriptedTask((0.0, 0.0))
        out = self.train(task, steps=3, strategy=strategy, round_index=round_index)
        assert task.calls == 3
        # A zero gradient keeps every factor, frozen or trained, at its start bits.
        assert out.b.tobytes() == self.start.b.tobytes()
        assert out.a.tobytes() == self.start.a.tobytes()

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
        self.start = LoraAdapter(np.full((4, 2), -0.0), self.start.a)
        task = ScriptedTask(grads)
        out = self.train(task, eta=1e10, strategy=strategy, round_index=round_index)
        assert getattr(out, frozen).tobytes() == getattr(self.start, frozen).tobytes()
        assert task.calls == 5

    def assert_raises_like_reference(self, task, start, steps, eta, strategy,
                                     round_index):
        with pytest.raises(DivergenceError) as want:
            local_train_reference(0, start, task, steps, eta, strategy, round_index, 0)
        task.calls = 0  # restart a scripted task
        with pytest.raises(DivergenceError) as got:
            local_train(0, start, task, train_config(steps, eta, strategy), round_index)
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
        # Each updated factor grows by 2.5x per step, so the factors' sum
        # of squares overflows hundreds of steps before they do, and the
        # entry-wise check must pass those steps.
        start = LoraAdapter(np.ones((4, 2)), np.ones((2, 3)))
        step = self.assert_raises_like_reference(
            GrowingTask(1e-150), start, 1000, 1.5e150, strategy, round_index
        )
        assert step > 700

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("factor", ["b", "a"])
    def test_non_finite_start_raises_at_reference_step(self, bad, factor):
        # LoraAdapter rejects non-finite factors, so the entry is written
        # after construction.  A frozen factor is read like a trained one.
        start = LoraAdapter(np.ones((4, 2)), np.ones((2, 3)))
        getattr(start, factor)[1, 1] = bad
        for strategy, round_index in [(Strategy.FEDIT, 1), (Strategy.FFA_LORA, 1),
                                      (Strategy.ROLORA, 1), (Strategy.ROLORA, 2)]:
            step = self.assert_raises_like_reference(
                ScriptedTask((0.1, 0.1)), start, 5, 0.1, strategy, round_index
            )
            assert step == 0, (strategy, round_index)

    @pytest.mark.parametrize(
        "strategy,round_index,grads",
        [(Strategy.FFA_LORA, 1, (0.1, np.nan)), (Strategy.ROLORA, 1, (0.1, np.nan)),
         (Strategy.ROLORA, 2, (np.nan, 0.1))],
    )
    def test_nan_frozen_gradient_raises_at_reference_step(self, strategy, round_index,
                                                          grads):
        # The factor that is not updated still has its gradient read.
        task = ScriptedTask((0.1, 0.1), (0.1, 0.1), grads)
        start = LoraAdapter(np.ones((4, 2)), np.ones((2, 3)))
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            local_train_reference(0, start, task, 5, 0.1, strategy, round_index, 0)
        task.calls = 0
        assert self.assert_raises_like_reference(
            task, start, 5, 0.1, strategy, round_index) == 2

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_matches_reference_loop(self, strategy, batch_size):
        task = lowrank_regression_task(8, 6, 2, 3, 0.4, seed=[3, 101], n_probes=40)
        rng = np.random.default_rng(1)
        start = LoraAdapter(rng.standard_normal((8, 2)), rng.standard_normal((2, 6)))
        config = train_config(30, 0.02, strategy, seed=9, batch_size=batch_size)
        for round_index in (1, 2):
            out = local_train(1, start, task, config, round_index)
            b, a = local_train_reference(
                1, start, task, 30, 0.02, strategy, round_index, 9, batch_size=batch_size
            )
            assert out.b.tobytes() == b.tobytes()
            assert out.a.tobytes() == a.tobytes()


class TestClientRound:
    def setup_method(self):
        self.config = regression_config(align_from_round=2)
        self.task = build_task(self.config)
        self.broadcast = init_adapter(8, 6, 2, seed=[3, 100])

    def train(self, config, client, round_index, start=None):
        """The training phase's adapter for one client, as ``client_round`` gets it."""
        start = self.broadcast if start is None else start
        return local_train(client, start, self.task, config, round_index)

    def test_no_alignment_before_align_from_round(self):
        trained = self.train(self.config, 0, 1)
        product = semantic_update(trained)
        reported, update, rotation = client_round(
            0, trained, product, self.broadcast, self.config, 1
        )
        assert reported is trained and update is product
        assert rotation is None
        assert (reported.b == trained.b).all()
        assert (reported.a == trained.a).all()

    @pytest.mark.parametrize(
        "strategy,rounds_aligned",
        [(Strategy.FEDIT, []), (Strategy.FFA_LORA, []), (Strategy.ROLORA, []),
         (Strategy.FEDROT, [3, 4]), (Strategy.SCALAR_RESCALE, [1, 2, 3, 4]),
         (Strategy.RANDOM_ROTATION, [1, 2, 3, 4])],
    )
    def test_aligns(self, strategy, rounds_aligned):
        # FedRot transforms from align_from_round on, random rotation and
        # scalar rescale in every round, and the other strategies never.
        config = regression_config(strategy, align_from_round=3)
        rng = np.random.default_rng(4)
        reference = LoraAdapter(rng.standard_normal((8, 2)), rng.standard_normal((2, 6)))
        aligned = []
        for t in range(1, 5):
            trained = self.train(config, 0, t)
            product = semantic_update(trained)
            reported, update, rotation = client_round(0, trained, product, reference,
                                                      config, t)
            if reported is trained:
                assert update is product and rotation is None
                continue
            aligned.append(t)
            if strategy is Strategy.SCALAR_RESCALE:
                # One factor times c, the other divided by it.
                assert rotation is None
                c = reported.b[0, 0] / trained.b[0, 0]
                np.testing.assert_allclose(reported.b, trained.b * c, rtol=1e-12)
                np.testing.assert_allclose(reported.a, trained.a / c, rtol=1e-12)
            else:
                assert rotation is not None
                assert reported.b.tobytes() == (trained.b @ rotation.r).tobytes()
                assert reported.a.tobytes() == (rotation.r.T @ trained.a).tobytes()
        assert aligned == rounds_aligned

    def test_fedit_reports_raw_factors(self):
        config = regression_config(strategy=Strategy.FEDIT)
        trained = self.train(config, 0, 3)
        reported, _, _ = client_round(
            0, trained, semantic_update(trained), self.broadcast, config, 3
        )
        assert (reported.b == trained.b).all()
        assert (reported.a == trained.a).all()

    def test_self_reference_rotation_near_identity(self):
        trained = self.train(self.config, 1, 3)
        hard = procrustes_rotation(trained.a, trained.a, AlignmentTarget.FACTOR_A)
        assert np.linalg.norm(hard.r - np.eye(2)) <= 1e-10
        _, _, rotation = client_round(
            1, trained, semantic_update(trained), trained, self.config, 3
        )
        assert np.linalg.norm(rotation.r - np.eye(2)) <= 1e-10

    def test_alignment_preserves_semantics(self):
        trained = self.train(self.config, 2, 3)
        reported, _, _ = client_round(
            2, trained, semantic_update(trained), self.broadcast, self.config, 3
        )
        np.testing.assert_allclose(
            semantic_update(reported), semantic_update(trained), atol=1e-12
        )

    def test_random_rotation_changes_factors_not_product(self):
        config = regression_config(strategy=Strategy.RANDOM_ROTATION)
        trained = self.train(config, 0, 2)
        reported, _, _ = client_round(
            0, trained, semantic_update(trained), self.broadcast, config, 2
        )
        assert not (reported.b == trained.b).all()
        np.testing.assert_allclose(
            semantic_update(reported), semantic_update(trained), atol=1e-12
        )

    def test_degenerate_scalar_rescale_reports_trained_factors(self, monkeypatch, caplog):
        # A zero local factor leaves the rescaling undefined: the client
        # reports its trained factors, and the round logs why.
        config = regression_config(strategy=Strategy.SCALAR_RESCALE, learning_rate=0.0)
        start = LoraAdapter(self.broadcast.b, np.zeros((2, 6)))
        trained = self.train(config, 0, 3, start)
        with caplog.at_level(logging.WARNING, logger="fedrot.federation"):
            reported, _, rotation = client_round(
                0, trained, semantic_update(trained), self.broadcast, config, 3
            )
        assert reported is trained and rotation is None
        assert len(caplog.records) == 1
        # The server then gets the trained product itself.
        rounds = record_round_phases(monkeypatch)
        run_federation(dataclasses.replace(config, init_a_value=0.0, rounds=2))
        for products, _, updates in rounds:
            assert all(u is p for u, p in zip(updates, products, strict=True))

    def test_overflowing_scalar_rescale_diverges(self):
        # c = 1e-11 rescales A; dividing B's 1e300 entries by it overflows.
        config = regression_config(
            strategy=Strategy.SCALAR_RESCALE, rank=1, dims=(2, 2),
            task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, true_rank=1),
        )
        trained = LoraAdapter(np.full((2, 1), 1e300), [[1.0, 0.0]])
        reference = LoraAdapter(np.ones((2, 1)), [[1e-11, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="^non-finite alignment on client 0$") as info:
                client_round(0, trained, semantic_update(trained), reference, config, 1)
        assert info.value.round_index == 1

    def fedrot_overflow(self):
        """A FedRot client whose A-correlation with its reference overflows:
        the trained and reference A's entries are 1e160, B's 1e-20."""
        config = regression_config(lam=0.5, align_from_round=1)
        trained = LoraAdapter(np.full((8, 2), 1e-20), np.full((2, 6), 1e160))
        reference = LoraAdapter(np.zeros((8, 2)), np.full((2, 6), 1e160))
        return config, trained, reference

    def assert_alignment_diverges(self, config, trained, reference, round_index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="^non-finite alignment on client 0$") as info:
                client_round(0, trained, semantic_update(trained), reference, config,
                             round_index)
        assert info.value.round_index == round_index

    def test_overflowing_procrustes_correlation_diverges(self):
        self.assert_alignment_diverges(*self.fedrot_overflow(), 1)

    def test_overflowing_correlation_diverges_where_svd_raises(self, monkeypatch):
        # A LAPACK whose SVD raises on a non-finite input gives the same
        # outcome: the correlation is rejected before the SVD.
        real_svd = np.linalg.svd

        def svd_raising_on_non_finite(a, *args, **kwargs):
            if not np.isfinite(a).all():
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_raising_on_non_finite)
        self.assert_alignment_diverges(*self.fedrot_overflow(), 1)

    @pytest.mark.parametrize("round_index", [2, 3, 4, 6])
    def test_overflowing_random_rotation_diverges(self, round_index):
        # B's entries of 1.5e308 overflow under these rounds' Haar draws.
        config = regression_config(strategy=Strategy.RANDOM_ROTATION, seed=0)
        trained = LoraAdapter(np.full((8, 2), 1.5e308), np.full((2, 6), 1e-300))
        self.assert_alignment_diverges(config, trained, self.broadcast, round_index)

    def test_reference_of_another_shape_is_a_usage_error(self):
        config, trained, _ = self.fedrot_overflow()
        reference = LoraAdapter(np.zeros((8, 2)), np.ones((2, 5)))
        with pytest.raises(UsageError, match="shape mismatch") as info:
            client_round(0, trained, semantic_update(trained), reference, config, 1)
        assert type(info.value) is UsageError

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
    """Record, per round, the training phase's products, as ``client_round``
    receives them, and the adapters and products that ``server_step``
    receives."""
    rounds = []
    real_align, real_step = fedrot.federation.client_round, fedrot.federation.server_step

    def client_round(client, trained, product, *args):
        if client == 0:
            rounds.append([[]])
        rounds[-1][0].append(product)
        return real_align(client, trained, product, *args)

    def server_step(adapters, updates, *args):
        rounds[-1] += [adapters, updates]
        return real_step(adapters, updates, *args)

    monkeypatch.setattr(fedrot.federation, "client_round", client_round)
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
        assert_runs_bit_identical(fedrot, fedit)

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

    @pytest.mark.parametrize("config, rounds", [
        pytest.param(lambda: regression_config(Strategy.FEDIT, rounds=3), 3, id="fedit"),
        pytest.param(lambda: regression_config(rounds=3), 3, id="fedrot"),
        pytest.param(lambda: logistic_config(rounds=3, batch_size=8), 3,
                     id="logistic_batched"),
        # Round 1's alignment overflows, so no aggregate reaches the loss.
        pytest.param(lambda: regression_config(
            rounds=3, local_steps=5, learning_rate=1e-320, lam=0.5, init_a_value=1e160,
        ), 0, id="diverged_before_aggregation"),
    ])
    def test_each_client_loss_evaluated_once_per_round(self, monkeypatch, config, rounds):
        # A round's global loss is the mean of every client's client_loss.
        calls, real = [], fedrot.tasks._Task.client_loss

        def counted(task, i, b, a):
            calls.append(i)
            return real(task, i, b, a)

        monkeypatch.setattr(fedrot.tasks._Task, "client_loss", counted)
        result = run_federation(config())
        assert len(result.rounds) == rounds and (result.divergence is None) == (rounds == 3)
        assert calls == [0, 1, 2] * rounds

    def test_lambda_zero_reports_the_trained_product(self, monkeypatch):
        # The soft rotation at lambda 0 is the identity, whose alignment
        # returns the trained adapter itself: no second product per client.
        calls = count_products(monkeypatch)
        solves = []

        def counted_procrustes(*args):
            solves.append(args)
            return procrustes_rotation(*args)

        monkeypatch.setattr(fedrot.federation, "procrustes_rotation", counted_procrustes)
        run_federation(regression_config(lam=0.0, rounds=2))
        assert len(calls) == 2 * (3 + 1)
        assert len(solves) == 2 * 3  # every client aligned in both rounds

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
            if args[4] == 3:
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
            calls.append((args[4], args[0]))
            if args[4] == 2 and args[0] == 1:
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
                adapters = [LoraAdapter(np.full_like(ad.b, 1e308), ad.a)
                            for ad in adapters]
            return real_server_step(adapters, updates, prev, strategy, t)

        monkeypatch.setattr(fedrot.federation, "server_step",
                            server_step_overflowing_in_round_3)
        result = run_federation(regression_config(rounds=5))
        assert str(result.divergence) == "non-finite factor mean at the server"
        assert result.divergence.round_index == 3
        assert [r.round for r in result.rounds] == [1, 2]
        assert len(result.history) == 3

    def test_scalar_rescale_overflow_carries_completed_rounds(self, monkeypatch):
        # A rescaling factor of 1e-310 from round 2 on overflows the factor
        # divided by it: the run stops as diverged after round 1.
        real_align = fedrot.federation.scalar_rescale_align
        calls = []

        def align_tiny_from_round_2(local, reference):
            calls.append(None)
            return real_align(local, reference) if len(calls) <= 3 else 1e-310

        monkeypatch.setattr(fedrot.federation, "scalar_rescale_align",
                            align_tiny_from_round_2)
        config = regression_config(strategy=Strategy.SCALAR_RESCALE, rounds=4)
        result = run_federation(config)
        assert str(result.divergence) == "non-finite alignment on client 0"
        assert result.divergence.round_index == 2
        assert [r.round for r in result.rounds] == [1]
        assert len(result.history) == 2
        assert len(calls) == 4
        monkeypatch.setattr(fedrot.federation, "scalar_rescale_align", real_align)
        full = run_federation(dataclasses.replace(config, rounds=1))
        assert_runs_bit_identical(result, full)

    def test_alignment_divergence_holds_no_frames(self):
        # A's entries of 1e160 overflow FedRot's round-1 correlation.  The
        # stored divergence and the error it was raised from keep no
        # traceback, whose frames would hold the run's task.
        result = run_federation(regression_config(
            rounds=3, local_steps=5, learning_rate=1e-320, lam=0.5, init_a_value=1e160,
        ))
        assert str(result.divergence) == "non-finite alignment on client 0"
        assert result.rounds == []
        chain = [result.divergence, result.divergence.__cause__, result.divergence.__context__]
        assert [exc.__traceback__ for exc in chain] == [None, None, None]

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


def logistic_config(**kwargs):
    task = TaskSpec(kind=TaskKind.LOGISTIC, n_features=8, n_classes=4)
    return regression_config(dims=(4, 8), task=task, **kwargs)


def minibatch_sweep(config):
    """Mini-batch cells of four strategies over two seeds: each (seed,
    client, round) draws the same batches in the cells of all four."""
    base = config(rounds=3, local_steps=5, batch_size=16)
    strategies = [Strategy.FEDIT, Strategy.FEDROT, Strategy.ROLORA, Strategy.RANDOM_ROTATION]
    return sweep_cells(base, {"strategy": strategies}, seeds=[0, 1])


def counted_batch_tables(monkeypatch):
    """Count the tables that ``federation._BatchTables`` holds and the sets
    of tables it makes: returns the list to which each held table appends
    its key and a weak reference to it, and the list of weak references to
    each set of tables."""
    draws, made = [], []

    class BatchTables(fedrot.federation._BatchTables):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

        def __setitem__(self, key, table):
            draws.append((key, weakref.ref(table)))
            super().__setitem__(key, table)

    monkeypatch.setattr(fedrot.federation, "_BatchTables", BatchTables)
    return draws, made


@pytest.fixture
def serial_pool(monkeypatch):
    """A process pool that runs in this process: returns the lists of the
    pool sizes asked for and of the slices of cells mapped."""
    sizes, slices = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            slices.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes, slices


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
        assert "seed" not in [f.name for f in dataclasses.fields(cells[0])]  # read from config

    # A grid value lands on its field, a task field's on the task.
    @pytest.mark.parametrize(
        "grid, applied",
        [
            ({"lambda": [0.4]}, lambda base: dataclasses.replace(base, lam=0.4, seed=7)),
            ({"heterogeneity": [0.9]}, lambda base: dataclasses.replace(
                base, task=dataclasses.replace(base.task, heterogeneity=0.9), seed=7)),
        ],
        ids=["lambda", "heterogeneity"],
    )
    def test_cells_match_direct_runs(self, grid, applied):
        base = regression_config(rounds=3, local_steps=5)
        (cell,) = run_sweep(sweep_cells(base, grid, seeds=[7]))
        direct = run_federation(applied(base))
        assert cell.error is None
        assert_runs_bit_identical(cell.result, direct)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("config", [logistic_config, regression_config])
    def test_minibatch_cells_match_direct_runs(self, config, jobs):
        # The cells share their batch tables, and each keeps the bits of
        # its own run, which draws its batches step by step.
        cells = run_sweep(minibatch_sweep(config), jobs=jobs)
        for cell in cells:
            assert cell.error is None
            assert_runs_bit_identical(cell.result, run_federation(cell.config))

    def test_batch_table_drawn_once_per_client_round(self, monkeypatch):
        draws, made = counted_batch_tables(monkeypatch)
        cells = run_sweep(minibatch_sweep(regression_config))
        assert all(cell.error is None for cell in cells)
        # 3 clients x 3 rounds x 2 seeds, each drawn for the first of the
        # four strategies' cells and read by the other three, into one
        # set of tables that the sweep frees when it returns.
        keys = [key for key, _ in draws]
        assert len(keys) == len(set(keys)) == 3 * 3 * 2
        assert {key[:3] for key in keys} == {
            (seed, client, t) for seed in (0, 1) for client in range(3) for t in (1, 2, 3)
        }
        assert len(made) == 1
        assert all(table() is None for _, table in draws)
        assert all(tables() is None for tables in made)

    def test_batch_table_drawn_once_over_the_workers(self, monkeypatch, tmp_path):
        # At --jobs 2 each worker runs one seed's four cells, so each of the
        # 3 clients x 3 rounds x 2 seeds is drawn in one worker alone, but
        # for seed 0's client 1, whose 7 samples train as a full batch.
        log = tmp_path / "draws"

        class BatchTables(fedrot.federation._BatchTables):
            def __setitem__(self, key, table):
                with log.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps([os.getpid(), *key]) + "\n")
                super().__setitem__(key, table)

        monkeypatch.setattr(fedrot.federation, "_BatchTables", BatchTables)
        cells = run_sweep(minibatch_sweep(logistic_config), jobs=2)
        assert all(cell.error is None for cell in cells)
        draws = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        keys = [tuple(key) for _, *key in draws]
        assert len(keys) == len(set(keys)) == 3 * 3 * 2 - 3
        seeds = collections.defaultdict(set)
        for pid, seed, *_ in draws:
            seeds[pid].add(seed)
        assert sorted(map(sorted, seeds.values())) == [[0], [1]] and os.getpid() not in seeds

    def test_batch_tables_capped(self, monkeypatch):
        # Two 5 x 16 tables of uint8 indices fit under the cap; every later
        # client-round draws its batches step by step, with the same bits.
        monkeypatch.setattr(fedrot.federation, "_BATCH_TABLE_BYTES", 2 * 5 * 16 + 79)
        draws, _ = counted_batch_tables(monkeypatch)
        cells = run_sweep(minibatch_sweep(regression_config))
        assert len(draws) == 2
        for cell in cells:
            assert_runs_bit_identical(cell.result, run_federation(cell.config))

    def test_held_table_narrow_and_read_only(self):
        # 300 samples take uint16 indices; each read hands out a writable
        # intp copy with the bits of the step-by-step draws.
        tables = fedrot.federation._BatchTables()
        key = (3, 1, 2, 300, 16, 5)
        batches = tables.batches(key)
        (held,) = tables.values()
        assert held.dtype == np.uint16 and not held.flags.writeable
        assert tables.nbytes == held.nbytes == 5 * 16 * 2
        assert batches.dtype == np.intp and batches.flags.writeable
        assert batches.tolist() == [idx.tolist() for idx in fedrot.federation._draws(*key)]
        assert tables.batches(key) is not batches and len(tables) == 1

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
    # config rejects, even after a valid cell, a float seed, a name no enum
    # member has and a key no config has.
    @pytest.mark.parametrize(
        "config, grid, seeds, key",
        [
            (regression_config, {"lambda": [0.5], "seed": [1, 2]}, [0], "sweep.grid.seed"),
            (regression_config, {"n_features": [3, 9]}, [0], "sweep.grid.n_features"),
            (regression_config, {"dims": [(6, 6), (8, 8)]}, [0], "sweep.grid.dims"),
            (logistic_config, {"heterogeneity": [0.1, 0.9]}, [0], "sweep.grid.heterogeneity"),
            (regression_config, {"lambda": [0.5], "rounds": []}, [0], "sweep.grid.rounds"),
            (regression_config, {"lambda": [0.5, 1.5]}, [0], "sweep.grid.lambda.1"),
            (regression_config, {"strategy": ["fancy"]}, [0], "sweep.grid.strategy.0"),
            (regression_config, {"lambda": [0.5]}, [0, -1], "sweep.seeds.1"),
            (regression_config, {"lambda": [0.5]}, [0, 1.5], "sweep.seeds.1"),
            (regression_config, {"warp_factor": [9]}, [0], "sweep.grid.warp_factor"),
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

    def test_pool_no_larger_than_grid(self, serial_pool):
        sizes, _ = serial_pool
        base = regression_config(rounds=1, local_steps=1)
        cells = run_sweep(sweep_cells(base, {"lambda": [0.0, 1.0]}, seeds=[0]), jobs=64)
        assert sizes == [2]
        assert all(c.result is not None for c in cells)

    def test_slices_seed_ordered_cells_grid_ordered(self, serial_pool):
        # Two slices of three cells in seed order, seed 1's cells split
        # between them; the cells come back in grid order.
        sizes, slices = serial_pool
        base = regression_config(rounds=1, local_steps=1)
        grid = sweep_cells(base, {"lambda": [0.0, 1.0]}, seeds=[0, 1, 2])
        cells = run_sweep(grid, jobs=2)
        assert sizes == [2]
        assert [[(c.params["lambda"], c.seed) for c in s] for s in slices] == [
            [(0.0, 0), (1.0, 0), (0.0, 1)], [(1.0, 1), (0.0, 2), (1.0, 2)]]
        assert [(c.params, c.seed) for c in cells] == [(c.params, c.seed) for c in grid]
        assert all(c.result is not None for c in cells)

    def test_no_cells_or_jobs_below_one_run_without_pool(self, serial_pool):
        sizes, _ = serial_pool
        assert run_sweep([], jobs=2) == []
        grid = sweep_cells(regression_config(rounds=1, local_steps=1), {"lambda": [0.0, 1.0]},
                           seeds=[0, 1])
        cells = run_sweep(grid, jobs=0)
        assert sizes == []
        assert [(c.params, c.seed) for c in cells] == [(c.params, c.seed) for c in grid]
        assert all(c.result is not None for c in cells)
