"""Golden trajectories: fixed configs whose outputs must not change by a bit.

Each ``tests/golden/<name>.yaml`` is run with ``fedrot run``; the files it
writes must be exactly those of ``tests/golden/<name>/``, byte for byte once
the wall-clock fields (the ``wall_ms`` column and ``metrics.wall_time_s``)
are dropped.  ``diagnostics.csv`` pins every ``RoundRecord`` field but
``wall_ms`` as ``%.17g``, which a double round-trips exactly: the records
``run_federation`` returns, read back from the golden file, must equal it bit
for bit, so the file holds every field and loses no bit of one.  The configs
cover every strategy, all three tasks, mini-batching, the random-client and
older-global references, and a run that trips the global-loss divergence
guard.  Each golden ``summary.json`` ``config`` block, under ``experiment``,
loads as the config it echoes, so a run directory runs again from its own
summary.

To rewrite the golden files as a run writes them after a deliberate change::

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedrot.aggregation import Strategy
from fedrot.alignment import ReferenceKind, ScheduleAblation
from fedrot.cli import main
from fedrot.config import ReferenceMode, load_config
from fedrot.federation import RoundRecord, build_task, local_train, run_federation, run_round

from cli_cases import check

GOLDEN_DIR = check.GOLDEN_DIR
CONFIGS = sorted(GOLDEN_DIR.glob("*.yaml"))
PINNED = [f.name for f in fields(RoundRecord) if f.name != "wall_ms"]


def record_bytes(record: RoundRecord) -> bytes:
    """Every field of ``record`` but ``wall_ms``, as float64 bytes, so that a
    NaN matches a NaN."""
    return np.array([getattr(record, name) for name in PINNED], dtype=np.float64).tobytes()


def test_configs_cover_the_protocol():
    assert len(CONFIGS) >= 6
    text = "".join(c.read_text(encoding="utf-8") for c in CONFIGS)
    for strategy in ("fedit", "fedrot", "ffa_lora", "rolora", "scalar_rescale",
                     "random_rotation"):
        assert f"strategy: {strategy}\n" in text
    for task in ("scalar_toy", "lowrank_regression", "logistic"):
        assert f"kind: {task}\n" in text
    assert "batch_size:" in text
    assert "kind: random_client" in text
    assert "kind: older_global" in text


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_outputs_match_golden(config, tmp_path):
    assert check.check_golden(config.stem, config, check.in_process, tmp_path / "out") == []


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_records_match_golden(config):
    # Every ``RoundRecord`` field but ``wall_ms``, as the library computes it,
    # equals the golden ``diagnostics.csv`` value bit for bit (floats as
    # ``float.hex``, so a NaN matches a NaN).
    with (GOLDEN_DIR / config.stem / "diagnostics.csv").open(encoding="utf-8") as f:
        golden = list(csv.DictReader(f))
    pinned = [f for f in fields(RoundRecord) if f.name != "wall_ms"]
    records = run_federation(load_config(config).experiment).rounds
    assert list(golden[0]) == [f.name for f in pinned]
    assert [
        {f.name: float(getattr(r, f.name)).hex() if f.type == "float"
         else getattr(r, f.name) for f in pinned}
        for r in records
    ] == [
        {f.name: float(row[f.name]).hex() if f.type == "float"
         else int(row[f.name]) for f in pinned}
        for row in golden
    ], f"{config.stem} records differ from its diagnostics.csv"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_rounds_replay_from_the_history(config):
    # A run is a pure function of its config, so each completed round comes
    # again from the saved global adapters before it, a freshly built task
    # and the previous replay's reports: the same new adapter, bit for bit,
    # and the same record, ``wall_ms`` aside.
    experiment = load_config(config).experiment
    result = run_federation(experiment)
    snapshots = []
    for t, ran in enumerate(result.rounds, start=1):
        model, snapshots, record = run_round(experiment, build_task(experiment),
                                             result.history[:t], snapshots)
        want = result.history[t]
        assert (model.b.tobytes(), model.a.tobytes()) == (want.b.tobytes(), want.a.tobytes())
        assert record_bytes(record) == record_bytes(ran), f"{config.stem} round {t}"


def trainings(experiment, task, start) -> list[bytes]:
    """Each client's ``local_train`` bytes from ``start`` in rounds 1 and 2."""
    out = []
    for client in range(experiment.n_clients):
        for t in (1, 2):
            trained = local_train(client, start, task, experiment, t)
            out.append(trained.b.tobytes() + trained.a.tobytes())
    return out


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_local_training_reads_no_alignment_setting(config):
    # Clients train alike whatever lambda, alignment round, schedule or
    # reference a config sets, and every strategy that trains both factors
    # trains alike too, so those cells could share their trainings.
    experiment = load_config(config).experiment
    task, start = build_task(experiment), run_federation(experiment).history[0]
    want = trainings(experiment, task, start)
    settings = [{"lam": lam} for lam in (0.0, 0.5, 1.0)]
    settings += [{"align_from_round": k} for k in (1, 3)]
    settings += [{"schedule": ScheduleAblation.A_ONLY}]
    settings += [{"reference_mode": mode} for mode in (
        ReferenceMode(), ReferenceMode(ReferenceKind.OLDER_GLOBAL, lag=2),
        ReferenceMode(ReferenceKind.RANDOM_CLIENT))]
    for setting in settings:
        assert trainings(replace(experiment, **setting), task, start) == want, setting
    both = [replace(experiment, strategy=s) for s in (
        Strategy.FEDIT, Strategy.FEDROT, Strategy.SCALAR_RESCALE, Strategy.RANDOM_ROTATION)]
    assert len({tuple(trainings(variant, task, start)) for variant in both}) == 1


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_fedrot_at_lambda_zero_is_fedit(config):
    # At lambda 0 FedRot's soft rotation is the identity, so from round 1 on
    # it reports its trained factors as FedIT does: the same records,
    # ``wall_ms`` aside, the same global adapters and the same divergence.
    experiment = load_config(config).experiment
    fedit = run_federation(replace(experiment, strategy=Strategy.FEDIT))
    fedrot = run_federation(replace(experiment, strategy=Strategy.FEDROT, lam=0.0,
                                    align_from_round=1))
    assert [record_bytes(r) for r in fedrot.rounds] == [record_bytes(r) for r in fedit.rounds]
    assert ([(ad.b.tobytes(), ad.a.tobytes()) for ad in fedrot.history]
            == [(ad.b.tobytes(), ad.a.tobytes()) for ad in fedit.history])
    assert repr(fedrot.divergence) == repr(fedit.divergence)  # its round and loss


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_config_echo_loads_as_the_config(config, tmp_path):
    # A run directory runs again from its own summary: the config echo,
    # under ``experiment``, loads as the config it echoes.
    golden = GOLDEN_DIR / config.stem / "summary.json"
    echo = tmp_path / "echo.yaml"
    echo.write_text(json.dumps({"experiment": json.loads(golden.read_text())["config"]}))
    assert load_config(echo).experiment == load_config(config).experiment


def test_golden_set_has_a_diverged_run():
    statuses = {
        json.loads((GOLDEN_DIR / c.stem / "summary.json").read_text())["status"]
        for c in CONFIGS
    }
    assert statuses == {"ok", "diverged"}


if __name__ == "__main__":
    import tempfile

    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            code = main(["run", str(config), "--out", tmp])
            files = check.outputs(Path(tmp))
        target = GOLDEN_DIR / config.stem
        target.mkdir(exist_ok=True)
        for stale in {p.name for p in target.iterdir()} - set(files):
            (target / stale).unlink()
        for name, text in files.items():
            (target / name).write_text(text, encoding="utf-8")
        print(f"{config.stem}: exit {code}")
