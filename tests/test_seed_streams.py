"""One seed stream per generator.

Every random draw of a run comes from ``np.random.default_rng(key)`` with a
key of its own: the initial A, the regression data, the logistic data, the
partition, each client-round's mini-batches, each round's random-client
pick and each client-round's Haar rotation.  Two keys must neither repeat
nor give one ``SeedSequence`` state, which happens when ``SeedSequence``
zero-pads a shorter key to a longer one.  The two ``xfail`` cases are the
collisions that ROADMAP item 1B names; the fix there turns them into passes.
"""

import numpy as np
import pytest

from fedrot.aggregation import Strategy
from fedrot.alignment import ReferenceKind
from fedrot.config import FederationConfig, ReferenceMode, TaskSpec, load_config
from fedrot.federation import client_round, local_train, run_federation
from fedrot.lora import init_adapter, semantic_update
from fedrot.tasks import TaskKind, build_task

from cli_cases import check

GOLDENS = sorted(check.GOLDEN_DIR.glob("*.yaml"))


@pytest.fixture
def keys(monkeypatch):
    """The keys passed to ``np.random.default_rng`` while the test runs, as
    tuples, in call order."""
    drawn = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        drawn.append(tuple(np.atleast_1d(seed).tolist()))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return drawn


def assert_one_stream_per_key(keys):
    repeated = {key for key in keys if keys.count(key) > 1}
    assert not repeated, f"keys drawn twice: {sorted(repeated)}"
    states = {}
    for key in keys:
        state = np.random.SeedSequence(key).generate_state(8).tobytes()
        assert state not in states, f"keys {states[state]} and {key} give one state"
        states[state] = key


@pytest.mark.parametrize("config", GOLDENS, ids=lambda c: c.stem)
def test_golden_runs_draw_distinct_streams(config, keys):
    run_federation(load_config(config).experiment)
    assert keys
    assert_one_stream_per_key(keys)


def regression(n_clients, strategy, **kwargs):
    return FederationConfig(
        strategy=strategy, n_clients=n_clients, rank=1, dims=(2, 2), rounds=2,
        local_steps=1, learning_rate=0.05, batch_size=4, seed=3,
        task=TaskSpec(kind=TaskKind.LOWRANK_REGRESSION, n_samples=20), **kwargs,
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1B: the random-client pick of round t "
                   "is client 211's round-t mini-batch stream")
def test_random_client_pick_and_client_211_batches(keys):
    run_federation(regression(212, Strategy.FEDIT,
                              reference_mode=ReferenceMode(ReferenceKind.RANDOM_CLIENT)))
    assert_one_stream_per_key(keys)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1B: client 0's Haar draw of round t "
                   "is client 7901's round-t mini-batch stream")
def test_client_0_haar_draw_and_client_7901_batches(keys):
    config = regression(7902, Strategy.RANDOM_ROTATION)
    task = build_task(config)
    start = init_adapter(2, 2, 1, seed=[3, 100])
    trained = local_train(7901, start, task, config, 1)
    client_round(0, trained, semantic_update(trained), start, config, 1)
    assert_one_stream_per_key(keys)
