import collections
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fedrot.alignment
import fedrot.federation
from fedrot.aggregation import Strategy
from fedrot.cli import ROUNDS_COLUMNS, main
from fedrot.config import (
    FederationConfig,
    TaskSpec,
    config_to_dict,
    file_key,
    load_config,
    sweep_cells,
)
from fedrot.errors import ConfigError, UsageError
from fedrot.federation import run_sweep

from cli_cases import check

MINIMAL = """\
experiment:
  strategy: fedrot
  n_clients: 3
  rank: 2
  dims: [8, 6]
  rounds: 4
  local_steps: 10
  learning_rate: 0.05
  lambda: 0.7
  align_from_round: 1
  task:
    kind: lowrank_regression
    true_rank: 2
    heterogeneity: 0.4
"""

LOGISTIC = """\
experiment:
  strategy: fedit
  n_clients: 3
  rank: 2
  dims: [4, 8]
  rounds: 2
  local_steps: 5
  learning_rate: 0.05
  task:
    kind: logistic
    n_classes: 4
    n_features: 8
"""

SCALAR = """\
experiment:
  strategy: fedit
  n_clients: 3
  rank: 1
  dims: [1, 1]
  rounds: 2
  local_steps: 5
  learning_rate: 0.01
  task:
    kind: scalar_toy
    targets: [0.5, 1.0, 1.5]
"""

SWEEP = MINIMAL + """\
sweep:
  grid:
    lambda: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
  seeds: [0, 1, 2]
"""


def write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_minimal_parses(self, tmp_path):
        parsed = load_config(write(tmp_path, MINIMAL))
        exp = parsed.experiment
        assert exp.strategy is Strategy.FEDROT
        assert exp.dims == (8, 6)
        assert exp.lam == 0.7
        assert parsed.sweep is None

    def test_readme_schema_loads(self, tmp_path):
        # The README's full schema is a file a reader may copy.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        )
        schema = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        parsed = load_config(write(tmp_path, schema))
        assert parsed.experiment.task.heterogeneity == 0.5
        assert [c.seed for c in parsed.sweep] == [0, 1, 2] * 6

    def test_sweep_section(self, tmp_path):
        parsed = load_config(write(tmp_path, SWEEP))
        assert [list(c.params) for c in parsed.sweep] == [["lambda"]] * 33
        assert len({c.params["lambda"] for c in parsed.sweep}) == 11
        assert [c.seed for c in parsed.sweep] == [0, 1, 2] * 11

    def test_unknown_key_reports_position(self, tmp_path):
        text = MINIMAL + "  warp_factor: 9\n"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, text))
        assert "warp_factor" in str(exc.value)
        assert exc.value.line == 15
        assert exc.value.column == 3

    def test_duplicate_key_rejected(self, tmp_path):
        text = MINIMAL + "  rounds: 9\n"
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, text))

    # A sequence or mapping key is rejected in plain words, never with the
    # repr of PyYAML's nodes; LOCATED_ERRORS checks where.
    @pytest.mark.parametrize("key, kind", [("[a, b]", "sequence"), ("{a: 1}", "mapping")])
    def test_non_scalar_key_rejected(self, tmp_path, key, kind):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, MINIMAL + f"  {key}: 1\n"))
        assert str(exc.value) == f"a key in experiment must be a scalar, got a {kind}"

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL.replace("  rounds: 4\n", "")
        with pytest.raises(ConfigError, match="rounds"):
            load_config(write(tmp_path, text))

    def test_out_of_range_lambda_names_field(self, tmp_path):
        text = MINIMAL.replace("lambda: 0.7", "lambda: 1.5")
        with pytest.raises(ConfigError, match="lambda"):
            load_config(write(tmp_path, text))

    def test_invalid_strategy_lists_choices(self, tmp_path):
        text = MINIMAL.replace("strategy: fedrot", "strategy: fancy")
        with pytest.raises(ConfigError, match="fedit"):
            load_config(write(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.yaml")

    @pytest.mark.parametrize(
        "key", ["rounds", "local_steps", "n_clients", "rank", "align_from_round", "seed"]
    )
    @pytest.mark.parametrize("value", ["2.5", "true", "'3'"])
    def test_count_must_be_integer(self, tmp_path, key, value):
        text = MINIMAL + "  seed: 0\n"
        text = text.replace(f"  {key}: ", f"  {key}: {value} #", 1)
        with pytest.raises(ConfigError, match=f"{key} must be an integer") as exc:
            load_config(write(tmp_path, text))
        line = next(n for n, x in enumerate(text.splitlines(), 1)
                    if x.startswith(f"  {key}: "))
        assert (exc.value.line, exc.value.column) == (line, len(key) + 5)

    @pytest.mark.parametrize(
        "value, want", [("1e-3", 1e-3), ("1e-06", 1e-6), ("2E+1", 20.0), ("1.0e308", 1e308)]
    )
    def test_exponent_floats_are_numbers(self, tmp_path, value, want):
        # YAML 1.1 reads an exponent only after a dot and with a sign;
        # json.dumps writes 1e-06.
        text = MINIMAL.replace("learning_rate: 0.05", f"learning_rate: {value}")
        assert load_config(write(tmp_path, text)).experiment.learning_rate == want

    def test_unknown_sweep_parameter(self, tmp_path):
        text = MINIMAL + "sweep:\n  grid:\n    warp: [1]\n"
        with pytest.raises(ConfigError, match="warp"):
            load_config(write(tmp_path, text))

    def test_grid_values_typed_at_load(self, tmp_path):
        text = MINIMAL + "sweep:\n  grid:\n    strategy: [fedit]\n    lambda: [0, 1]\n"
        cells = load_config(write(tmp_path, text)).sweep
        assert [c.params for c in cells] == [
            {"strategy": Strategy.FEDIT, "lambda": 0.0},
            {"strategy": Strategy.FEDIT, "lambda": 1.0},
        ]
        assert all(type(c.params["lambda"]) is float for c in cells)

    # The raw values a file holds build the same cells from the library as
    # from the file: the same configs, and params of the same values and types.
    def test_library_grid_matches_file_grid(self, tmp_path):
        grid = {"lambda": [0, 1], "strategy": ["fedit", "fedrot"]}
        golden = (check.GOLDEN_DIR / "fedrot_regression.yaml").read_text(encoding="utf-8")
        text = golden + yaml.safe_dump({"sweep": {"grid": grid}}, sort_keys=False)
        loaded = load_config(write(tmp_path, text))
        direct = sweep_cells(loaded.experiment, grid, seeds=[0])

        def typed(cells):
            return [[(k, v, type(v)) for k, v in cell.params.items()] for cell in cells]

        assert typed(direct) == typed(loaded.sweep)
        assert [c.config for c in direct] == [c.config for c in loaded.sweep]
        want = [("lambda", 0.0, float), ("strategy", Strategy.FEDROT, Strategy)]
        assert typed(direct)[1] == want

    def test_seed_is_not_a_grid_key(self, tmp_path):
        text = MINIMAL + "sweep:\n  grid:\n    seed: [5, 6]\n"
        with pytest.raises(ConfigError, match="sweep.seeds") as exc:
            load_config(write(tmp_path, text))
        assert (exc.value.line, exc.value.column) == (17, 5)


class TestRunCommand:
    def test_exit_zero_and_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write(tmp_path, MINIMAL), "--out", str(out)])
        assert code == 0
        lines = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "round,loss,agg_error,dispersion,alignment_gain,"
            "rotation_deviation,tau_diag,wall_ms"
        )
        assert len(lines) == 5  # header + one row per round
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["status"] == "ok"
        assert summary["metrics"]["rounds_completed"] == 4
        assert summary["config"]["lambda"] == 0.7
        assert summary["config"]["dims"] == [8, 6]

    def test_rerun_byte_identical(self, tmp_path):
        config = write(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", config, "--out", str(a)]) == 0
        assert main(["run", config, "--out", str(b)]) == 0
        assert check.outputs(a) == check.outputs(b)

    def test_seed_override_echoed(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, MINIMAL), "--out", str(out), "--seed", "9"]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["seed"] == 9
        assert summary["config"]["seed"] == 9

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", write(tmp_path, MINIMAL), "--out", str(out), "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unusable_out_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fedrot.federation, "run_federation", calls.append)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["run", write(tmp_path, MINIMAL), "--out", str(blocker / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert calls == []

    def test_jobs_is_a_usage_error(self, tmp_path, capsys):
        # A single run is sequential, so it takes no --jobs.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", write(tmp_path, MINIMAL), "--out", str(out), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        calls = []
        monkeypatch.setattr(fedrot.federation, "run_federation", calls.append)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", write(tmp_path, SWEEP), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path, MINIMAL + "  bogus: 1\n")
        code = main(["run", bad, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "line 15" in err

    def test_divergent_run_exit_3(self, tmp_path, capsys):
        text = MINIMAL.replace("learning_rate: 0.05", "learning_rate: 1.0")
        text = text.replace("local_steps: 10", "local_steps: 1")
        text = text.replace("rounds: 4", "rounds: 40")
        out = tmp_path / "out"
        code = main(["run", write(tmp_path, text), "--out", str(out)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["status"] == "diverged"
        assert summary["metrics"]["rounds_completed"] >= 1

    def test_local_divergence_flushes_partial_outputs(self, tmp_path, capsys):
        # The gradient overflows inside local training in round 1, before
        # the global-loss guard ever runs.
        text = MINIMAL.replace("learning_rate: 0.05", "learning_rate: 1.0")
        text = text.replace("local_steps: 10", "local_steps: 400")
        out = tmp_path / "out"
        code = main(["run", write(tmp_path, text), "--out", str(out)])
        assert code == 3
        assert "non-finite gradient" in capsys.readouterr().err
        lines = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "round,loss,agg_error,dispersion,alignment_gain,"
            "rotation_deviation,tau_diag,wall_ms"
        ]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["status"] == "diverged"
        assert summary["metrics"]["rounds_completed"] == 0
        assert summary["metrics"]["final_loss"] is None

    @pytest.mark.parametrize("name", ["overflow_dispersion", "overflow_scalar_toy"])
    def test_overflowing_loss_reads_null_in_summary(self, tmp_path, capsys, name):
        # rounds.csv keeps the overflow; strict JSON has no Infinity.
        out = tmp_path / "out"
        assert main(["run", str(check.HERE / f"{name}.yaml"), "--out", str(out)]) == 3
        assert check.summary(out)["metrics"]["final_loss"] is None
        last = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()[-1]
        assert last.split(",")[1] == "inf"

    def test_overflowing_update_exit_3(self, tmp_path, capsys):
        # Finite trained factors whose product overflows are a divergence,
        # not a usage error.
        text = MINIMAL.replace("heterogeneity: 0.4", "heterogeneity: 31")
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, text), "--out", str(out)]) == 3
        assert "non-finite update" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["status"] == "diverged"

    @pytest.mark.parametrize("strategy", ["scalar_rescale", "fedrot"])
    @pytest.mark.parametrize("init_a", ["0.0", "1.0e-170"])
    def test_zero_or_underflowing_factor_runs(self, tmp_path, strategy, init_a):
        # A local factor whose squared norm is 0 leaves the alignment
        # undefined: the client reports its trained factors, as FedRot does.
        text = MINIMAL.replace("strategy: fedrot", f"strategy: {strategy}")
        text += f"  init_a_value: {init_a}\n"
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, text), "--out", str(out)]) == 0
        lines = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]

    def test_divergence_prints_no_numpy_warnings(self, tmp_path, capsys):
        # Divergence is detected from the values: the overflow on the way
        # there is not reported a second time as numpy warnings.
        text = MINIMAL.replace("strategy: fedrot", "strategy: fedit")
        text = text.replace("dims: [8, 6]", "dims: [6, 6]")
        text = text.replace("learning_rate: 0.05", "learning_rate: 2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", write(tmp_path, text), "--out", str(tmp_path / "out")])
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("value", ["2.5", "true", "1e3"])
    def test_non_integer_rounds_exit_2(self, tmp_path, capsys, value):
        text = MINIMAL.replace("rounds: 4", f"rounds: {value}")
        out = tmp_path / "out"
        code = main(["run", write(tmp_path, text), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "rounds must be an integer" in err
        assert "line 6, column 11" in err
        assert not out.exists()


def case_text(name: str) -> str:
    """The config text of the CLI contract case ``name`` (tests/cli_cases)."""
    return (check.HERE / f"{name}.yaml").read_text(encoding="utf-8")


# Runs whose overflow is past the clients: in the diagnostics, in the
# scalar toy's loss and at the server.  (CLI case, whose exit, message and
# summary the manifest checks; learning rate of a cell that does not diverge)
DIVERGING = {
    "dispersion": ("overflow_dispersion", "0.05"),
    "scalar_toy_loss": ("overflow_scalar_toy", "0.01"),
    "server_factor_mean": ("overflow_server", "0.05"),
}


@pytest.mark.parametrize("case", DIVERGING)
def test_overflow_past_the_clients_diverges(tmp_path, case):
    # The run writes its completed rounds, and a sweep writes the diverged
    # cell's directory as `fedrot run` writes it.
    name, ok_rate = DIVERGING[case]
    text = case_text(name)
    run_out = tmp_path / "run"
    assert main(["run", write(tmp_path, text), "--out", str(run_out)]) == 3
    rows = (run_out / "rounds.csv").read_text(encoding="utf-8").splitlines()[1:]
    completed = check.summary(run_out)["metrics"]["rounds_completed"]
    assert [row.split(",")[0] for row in rows] == [str(t) for t in range(1, completed + 1)]
    rate = re.search(r"learning_rate: (\S+)", text).group(1)
    sweep = f"sweep:\n  grid:\n    learning_rate: [{ok_rate}, {rate}]\n"
    out = tmp_path / "sweep"
    assert main(["sweep", write(tmp_path, text + sweep, "sweep.yaml"), "--out", str(out)]) == 0
    ok_dir, diverged_dir = sorted(p for p in out.iterdir() if p.is_dir())
    assert check.outputs(diverged_dir) == check.outputs(run_out)
    assert check.summary(ok_dir)["status"] == "ok"


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_server_overflow_diverges_under_every_strategy(tmp_path, capsys, strategy):
    out = tmp_path / "out"
    text = case_text("overflow_server").replace("fedit", strategy)
    assert main(["run", write(tmp_path, text), "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert check.summary(out)["status"] == "diverged"


def aligning(strategy: str, init_a: str, learning_rate: str) -> str:
    """The ``overflow_alignment`` case, whose clients align from round 1,
    with its strategy, initial A's entries and learning rate replaced."""
    return (case_text("overflow_alignment").replace("fedrot", strategy)
            .replace("1.0e+160", init_a).replace("1.0e-320", learning_rate))


@pytest.mark.parametrize("strategy", ["fedrot", "random_rotation", "scalar_rescale"])
@pytest.mark.parametrize("init_a", ["1.0e+100", "1.0e+154", "1.0e+160", "1.0e+300"])
@pytest.mark.parametrize("learning_rate", ["1.0e-320", "1.0e-300", "1.0e-10"])
def test_extreme_factors_end_as_ok_or_diverged(tmp_path, capsys, strategy, init_a,
                                               learning_rate):
    # Whichever transform overflows, the run ends as ok or diverged and
    # writes both of its files.
    out = tmp_path / "out"
    text = aligning(strategy, init_a, learning_rate)
    assert main(["run", write(tmp_path, text), "--out", str(out)]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "rounds.csv").is_file() and (out / "summary.json").is_file()


def test_alignment_overflow_diverges(tmp_path, capsys):
    # FedRot's A-correlation overflows on client 0 in round 1: the run ends
    # as diverged with no completed round, and a sweep writes its cell.  The
    # FedIT cell's global loss passes the divergence limit in round 1, so
    # every cell fails and the sweep exits 1, with both directories written.
    text = case_text("overflow_alignment")
    run_out = tmp_path / "run"
    assert main(["run", write(tmp_path, text), "--out", str(run_out)]) == 3
    assert capsys.readouterr().err == "error: non-finite alignment on client 0\n"
    assert check.summary(run_out)["metrics"]["rounds_completed"] == 0
    rows = (run_out / "rounds.csv").read_text(encoding="utf-8").splitlines()
    assert rows == [",".join(ROUNDS_COLUMNS)]
    sweep = "sweep:\n  grid:\n    strategy: [fedit, fedrot]\n"
    out = tmp_path / "sweep"
    assert main(["sweep", write(tmp_path, text + sweep, "sweep.yaml"), "--out", str(out)]) == 1
    fedit_dir, fedrot_dir = sorted(p for p in out.iterdir() if p.is_dir())
    assert check.outputs(fedrot_dir) == check.outputs(run_out)
    assert check.summary(fedit_dir)["metrics"]["rounds_completed"] == 1
    status = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[2].split(",")[-1]
    assert status == "DivergenceError: non-finite alignment on client 0"


# The two ways an alignment SVD can fail on a finite input, each with the
# start of its cause.
SVD_FAULTS = {
    "svd_raises": "SVD failed for shape (2, 2): SVD did not converge",
    "u_perturbed": "matrix is not orthogonal",
}


def fault_8th_svd(monkeypatch, fault):
    """From now on, the 8th ``np.linalg.svd`` call raises ``LinAlgError``
    (``svd_raises``) or returns its ``u`` shifted by 1e-8 (``u_perturbed``)."""
    real_svd, calls = np.linalg.svd, []

    def svd(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == 8 and fault == "svd_raises":
            raise np.linalg.LinAlgError("SVD did not converge")
        u, sigma, vt = real_svd(a, *args, **kwargs)
        return (u + 1e-8 if len(calls) == 8 else u), sigma, vt

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.mark.parametrize("fault", SVD_FAULTS)
def test_failed_alignment_diverges_after_completed_rounds(tmp_path, capsys, monkeypatch,
                                                          fault):
    # Each FedRot client makes two SVDs a round at lambda 0.5, so the 8th is
    # client 0's soft rotation in round 2.  Its failure ends the run as
    # diverged with round 1 written, and a sweep writes the cell's directory.
    text = MINIMAL.replace("lambda: 0.7", "lambda: 0.5")
    run_out = tmp_path / "run"
    fault_8th_svd(monkeypatch, fault)
    assert main(["run", write(tmp_path, text), "--out", str(run_out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: failed alignment on client 0: {SVD_FAULTS[fault]}")
    assert "Traceback" not in err
    summary = json.loads((run_out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "diverged"
    assert summary["metrics"]["rounds_completed"] == 1
    rows = (run_out / "rounds.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1"]
    # The FedIT cell runs first and makes no SVD.
    fault_8th_svd(monkeypatch, fault)
    sweep = "sweep:\n  grid:\n    strategy: [fedit, fedrot]\n"
    out = tmp_path / "sweep"
    assert main(["sweep", write(tmp_path, text + sweep, "sweep.yaml"), "--out", str(out)]) == 0
    fedit_dir, fedrot_dir = sorted(p for p in out.iterdir() if p.is_dir())
    assert check.outputs(fedrot_dir) == check.outputs(run_out)
    assert check.summary(fedit_dir)["status"] == "ok"
    status = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[2].split(",")[-1]
    assert status.startswith("DivergenceError: failed alignment on client 0: ")


def lapack_faults(monkeypatch, fault=None):
    """Count the calls of ``np.linalg``'s ``svd``, ``qr`` and ``det`` by
    name; the call that ``fault = (name, k)`` names raises ``LinAlgError``."""
    calls = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            if (name, calls[name]) == fault:
                raise np.linalg.LinAlgError(f"injected {name} failure")
            return real(*args, **kwargs)
        return call

    for name in ("svd", "qr", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("strategy, names", [
    ("fedrot", {"svd", "det"}), ("random_rotation", {"qr", "det"}), ("scalar_rescale", set()),
])
def test_every_lapack_failure_diverges(tmp_path, capsys, monkeypatch, strategy, names):
    # Each LAPACK call the run makes, failing in turn, ends the run as
    # diverged, with the CSV rows of the rounds before as a clean run
    # writes them.  FedRot at lambda 0.5 makes 2 SVDs and 4 determinants
    # per client-round, the Haar control a QR and 2 determinants.
    text = MINIMAL.replace("fedrot", strategy).replace("lambda: 0.7", "lambda: 0.5")
    config, clean = write(tmp_path, text), tmp_path / "clean"
    with monkeypatch.context() as patch:
        calls = lapack_faults(patch)
        assert main(["run", config, "--out", str(clean)]) == 0
    assert set(calls) == names
    clean_rows = {f: rows.splitlines(keepends=True)
                  for f, rows in check.outputs(clean).items() if f.endswith(".csv")}
    for name, k in [(name, k) for name, n in calls.items() for k in range(1, n + 1)]:
        out = tmp_path / f"{name}-{k}"
        with monkeypatch.context() as patch:
            lapack_faults(patch, (name, k))
            assert main(["run", config, "--out", str(out)]) == 3, (name, k)
        err = capsys.readouterr().err
        assert err.startswith("error: failed alignment on client ")
        assert err.endswith(f": injected {name} failure\n")
        summary = check.summary(out)
        assert summary["status"] == "diverged"
        done = summary["metrics"]["rounds_completed"]
        got = check.outputs(out)
        for f, rows in clean_rows.items():
            assert "".join(rows[:done + 1]) == got[f], (name, k, f)
    if strategy == "random_rotation":
        # The 9th determinant is client 1's Haar draw in round 2; a sweep
        # writes the failing cell's directory as the run wrote its own.
        sweep = "sweep:\n  grid:\n    strategy: [fedit, random_rotation]\n"
        out = tmp_path / "sweep"
        lapack_faults(monkeypatch, ("det", 9))
        assert main(["sweep", write(tmp_path, text + sweep, "sweep.yaml"),
                     "--out", str(out)]) == 0
        _, cell_dir = sorted(p for p in out.iterdir() if p.is_dir())
        assert check.outputs(cell_dir) == check.outputs(tmp_path / "det-9")
        assert check.summary(cell_dir)["metrics"]["rounds_completed"] == 1


def test_sweep_builds_each_cell_config_once(tmp_path, monkeypatch):
    # The loader builds the experiment and, per grid value and then per
    # seed, each cell's config: 1 + 6 + 12 for 6 strategies x 2 seeds.
    # run_sweep runs the cells it is given and builds none.
    built = []
    post_init = FederationConfig.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FederationConfig, "__post_init__", counted)
    strategies = ", ".join(s.value for s in Strategy)
    text = LOGISTIC + f"sweep:\n  grid:\n    strategy: [{strategies}]\n  seeds: [0, 1]\n"
    assert main(["sweep", write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 19
    cells = load_config(write(tmp_path, text)).sweep
    before = len(built)
    run_sweep(cells)
    assert len(built) == before


def grid(line: str, base: str = MINIMAL) -> str:
    return base + "sweep:\n  grid:\n    " + line + "\n"


# (command, config text, the rejected value: a token that occurs once in the text)
LOCATED_ERRORS = {
    "batch_size": ("run", MINIMAL + "  batch_size: 2.5\n", "2.5"),
    "dims_element": ("run", MINIMAL.replace("[8, 6]", "[8, x]"), "x]"),
    "dims_length": ("run", MINIMAL.replace("[8, 6]", "[8, 6, 2]"), "[8, 6, 2]"),
    "learning_rate": ("run", MINIMAL.replace("0.05", "fast"), "fast"),
    "task.true_rank": ("run", MINIMAL.replace("true_rank: 2", "true_rank: 1.5"), "1.5"),
    "reference.lag": (
        "run",
        MINIMAL + "  reference:\n    kind: older_global\n    lag: 2.7\n",
        "2.7",
    ),
    "strategy_ideal": ("run", MINIMAL.replace("fedrot", "ideal"), "ideal"),
    "dirichlet_alpha_inf": ("run", LOGISTIC + "  dirichlet_alpha: .inf\n", ".inf"),
    "init_a_value_nan": ("run", MINIMAL + "  init_a_value: .nan\n", ".nan"),
    "learning_rate_nan": ("run", MINIMAL.replace("0.05", ".nan"), ".nan"),
    "learning_rate_inf": ("run", MINIMAL.replace("0.05", ".inf"), ".inf"),
    "learning_rate_exponent_inf": ("run", MINIMAL.replace("0.05", "1e400"), "1e400"),
    # An integer that float() overflows is out of range, not a traceback.
    "learning_rate_int_overflow": (
        "run", MINIMAL.replace("0.05", str(10**400)), str(10**400)
    ),
    # Python refuses to read an integer of more than 4300 digits.
    "learning_rate_int_digits": (
        "run", MINIMAL.replace("0.05", "1" + "0" * 5000), "1" + "0" * 5000
    ),
    "task.heterogeneity_nan": (
        "run", MINIMAL.replace("heterogeneity: 0.4", "heterogeneity: .nan"), ".nan"
    ),
    # A non-finite target is located at its list element, not at the list.
    "task.targets_element": ("run", SCALAR.replace("1.0,", ".inf,"), ".inf"),
    "lambda_out_of_range": ("run", MINIMAL.replace("lambda: 0.7", "lambda: 1.5"), "1.5"),
    "rank_too_large": ("run", MINIMAL.replace("\n  rank: 2", "\n  rank: 9"), "9"),
    "rounds_zero": ("run", MINIMAL.replace("rounds: 4", "rounds: 0"), "0"),
    "dirichlet_alpha_zero": ("run", LOGISTIC + "  dirichlet_alpha: 0.0\n", "0.0"),
    "reference.lag_too_small": (
        "run",
        MINIMAL + "  reference:\n    kind: older_global\n    lag: 0\n",
        "0",
    ),
    # Only the older-global reference reads a lag.
    "reference.lag_prev_global": (
        "run",
        MINIMAL + "  reference:\n    kind: prev_global\n    lag: 5\n",
        "5",
    ),
    "reference.lag_default_kind": ("run", MINIMAL + "  reference:\n    lag: -3\n", "-3"),
    "reference.lag_random_client": (
        "run",
        MINIMAL + "  reference:\n    kind: random_client\n    lag: 7\n",
        "7",
    ),
    "seed_negative": ("run", MINIMAL + "  seed: -1\n", "-1"),
    # A key that is not a scalar is named by its position, not PyYAML's repr.
    "sequence_key": ("run", MINIMAL + "  [a, b]: 1\n", "[a, b]"),
    "grid_strategy": ("sweep", grid("strategy: [fancy]"), "fancy"),
    "grid_rounds": ("sweep", grid("rounds: [3, 2.5]"), "2.5"),
    "grid_lambda": ("sweep", grid("lambda: [1.5]"), "1.5"),
    "grid_rank": ("sweep", grid("rank: [9]"), "9"),
    "sweep_seed_negative": ("sweep", grid("lambda: [0.5]") + "  seeds: [0, -2]\n", "-2"),
    # The task's requirements are config errors too, not failed runs.
    "task.true_rank_too_large": (
        "run", MINIMAL.replace("true_rank: 2", "true_rank: 9"), "9"
    ),
    "task.heterogeneity_negative": (
        "run", MINIMAL.replace("heterogeneity: 0.4", "heterogeneity: -1.0"), "-1.0"
    ),
    # A negative probe count would silently turn off mini-batches.
    "task.n_samples_negative": ("run", MINIMAL + "    n_samples: -5\n", "-5"),
    "task.n_classes_one": ("run", LOGISTIC.replace("n_classes: 4", "n_classes: 1"), "1"),
    "task.n_samples_below_classes": (
        "run", LOGISTIC.replace("n_clients: 3", "n_clients: 2") + "    n_samples: 3\n", "3"
    ),
    "n_clients_beyond_samples": (
        "run", LOGISTIC.replace("n_clients: 3", "n_clients: 9") + "    n_samples: 5\n", "9"
    ),
    "n_clients_beyond_targets": (
        "run", SCALAR.replace("[0.5, 1.0, 1.5]", "[0.5, 1.5]"), "3"
    ),
    "n_clients_without_targets": ("run", SCALAR.replace("[0.5, 1.0, 1.5]", "[]"), "3"),
    "grid_heterogeneity": ("sweep", grid("heterogeneity: [-1.0]"), "-1.0"),
    "grid_true_rank": ("sweep", grid("true_rank: [2, 7]"), "7"),
    # A key the task kind never reads would give identical cells or runs.
    "task.true_rank_unread": ("run", LOGISTIC + "    true_rank: 9\n", "true_rank"),
    "dirichlet_alpha_unread": (
        "run", MINIMAL + "  dirichlet_alpha: 0.5\n", "dirichlet_alpha"
    ),
    # A key the task kind does not read is rejected before its value is checked.
    "task.heterogeneity_unread_negative": (
        "run", LOGISTIC + "    heterogeneity: -1.0\n", "heterogeneity"
    ),
    "dirichlet_alpha_unread_negative": (
        "run", MINIMAL + "  dirichlet_alpha: -2.0\n", "dirichlet_alpha"
    ),
    "batch_size_unread_zero": ("run", SCALAR + "  batch_size: 0\n", "batch_size"),
    "grid_heterogeneity_unread": (
        "sweep", grid("heterogeneity: [0.1, 0.9]", LOGISTIC), "heterogeneity"
    ),
    # Sizes whose arrays numpy cannot allocate are rejected at the largest.
    "dims_huge": (
        "run", MINIMAL.replace("[8, 6]", "[100000000000000000000, 4]"),
        "100000000000000000000",
    ),
    "task.n_samples_huge": (
        "run", MINIMAL + "    n_samples: 100000000000000000\n", "100000000000000000"
    ),
    "dims_features_huge": (
        "run",
        LOGISTIC.replace("[4, 8]", "[4, 100000000000000]").replace(
            "n_features: 8", "n_features: 100000000000000"
        ),
        "100000000000000]",
    ),
}


@pytest.mark.parametrize("case", LOCATED_ERRORS, ids=str)
def test_rejected_value_located(tmp_path, capsys, case):
    command, text, value = LOCATED_ERRORS[case]
    token = re.compile(rf"(?<![\w.]){re.escape(value)}(?![\w.])")
    ((line, column),) = [
        (n, m.start() + 1)
        for n, x in enumerate(text.splitlines(), 1)
        for m in token.finditer(x)
    ]
    out = tmp_path / "out"
    assert main([command, write(tmp_path, text), "--out", str(out)]) == 2
    assert f"(line {line}, column {column})" in capsys.readouterr().err
    assert not out.exists()


def aliased(levels: int) -> str:
    """A YAML flow sequence of ten 1s, then ``levels`` levels that each hold
    the level below and nine aliases of it: 10 ** (levels + 1) leaves in a
    few hundred bytes."""
    value = "&x0 [" + ", ".join(["1"] * 10) + "]"
    for k in range(1, levels + 1):
        value = f"&x{k} [{value}" + f", *x{k - 1}" * 9 + "]"
    return value


# A rejected value is shown shortened, so a file that aliases a node ten
# million times is rejected at once, in one short line, wherever it is.
@pytest.mark.parametrize(
    "command, text",
    [
        ("run", SCALAR.replace("fedit", aliased(6))),
        ("sweep", grid(f"strategy: [{aliased(6)}]")),
        ("sweep", grid("lambda: [0.5]") + f"  seeds: [{aliased(6)}]\n"),
    ],
    ids=["strategy", "sweep.grid.strategy.0", "sweep.seeds.0"],
)
def test_aliased_value_rejected_in_short(tmp_path, capsys, command, text):
    ((line, column),) = [
        (n, x.index("&x6") + 1) for n, x in enumerate(text.splitlines(), 1) if "&x6" in x
    ]
    assert main([command, write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error (line {line}, column {column}): ")
    assert len(err.encode("utf-8")) < 1024


# One implementation of the grid rules serves the loader and the library:
# run_sweep rejects each grid the loader rejects, with the same message.
# Each grid line maps to the grid run_sweep takes, the key run_sweep raises
# under, and the token that the file error is located at.
GRID_ERRORS = {
    "seed: [1, 2]": ({"seed": [1, 2]}, "sweep.grid.seed", "seed"),
    "n_features: [3, 9]": ({"n_features": [3, 9]}, "sweep.grid.n_features", "n_features"),
    "dims: [[6, 6], [8, 8]]": ({"dims": [(6, 6), (8, 8)]}, "sweep.grid.dims", "dims"),
    "lambda: []": ({"lambda": []}, "sweep.grid.lambda", "[]"),
    "lambda: [0.5, 1.5]": ({"lambda": [0.5, 1.5]}, "sweep.grid.lambda.1", "1.5"),
}


@pytest.mark.parametrize(
    "line, sweep", [(line, sweep) for line, (sweep, _, _) in GRID_ERRORS.items()]
)
def test_run_sweep_rejects_grids_as_the_loader_does(tmp_path, line, sweep):
    _, key, at = GRID_ERRORS[line]
    with pytest.raises(ConfigError) as loaded:
        load_config(write(tmp_path, grid(line)))
    base = load_config(write(tmp_path, MINIMAL)).experiment
    with pytest.raises(UsageError) as direct:
        run_sweep(sweep_cells(base, sweep, seeds=[0]))
    assert str(direct.value) == str(loaded.value)
    assert direct.value.key == key
    assert (loaded.value.line, loaded.value.column) == (17, 5 + line.index(at))


def scalar_leaves(node, path=()):
    """Key paths of every scalar in a parsed config (list indices included)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in scalar_leaves(child, path + (key,))]


MINIMAL_LEAVES = scalar_leaves(yaml.safe_load(MINIMAL))
FUZZ_VALUES = st.one_of(
    st.integers(-3, 50),
    st.floats(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 50), max_size=3),
)


def assert_clean_exit(command, text):
    """Run ``command`` on the config ``text``: it must succeed (0), fail as
    a config error located by line and column (2) or diverge (3), never
    raise.  A sweep exits 1 only when every cell failed."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        config.write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(config), "--out", str(out)])
        if code == 1 and command == "sweep":
            rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
            assert not any(row.endswith(",ok") for row in rows[1:])
        else:
            assert code in (0, 2, 3)
    if code == 2:
        assert re.search(r"\(line \d+, column \d+\)", err.getvalue()), err.getvalue()


def with_leaf(path, value) -> str:
    """MINIMAL with its scalar at the key path ``path`` replaced by ``value``."""
    doc = yaml.safe_load(MINIMAL)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return yaml.safe_dump(doc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MINIMAL_LEAVES), FUZZ_VALUES)
def test_fuzzed_leaf_exits_cleanly(path, value):
    # Any one scalar of a valid config replaced by an arbitrary value must
    # run, be rejected as a located config error, or diverge -- never raise.
    assert_clean_exit("run", with_leaf(path, value))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MINIMAL_LEAVES), FUZZ_VALUES)
def test_config_echo_loads_as_the_config(path, value):
    # Every config that loads is echoed as an experiment mapping that loads
    # back as the same config, so a run directory can be run again.
    with tempfile.TemporaryDirectory() as tmp:
        try:
            config = load_config(write(Path(tmp), with_leaf(path, value))).experiment
        except ConfigError:
            return
        echo = json.dumps({"experiment": config_to_dict(config)})
        assert load_config(write(Path(tmp), echo, "echo.yaml")).experiment == config


SMALL_SWEEP = MINIMAL + """\
sweep:
  grid:
    lambda: [0.0, 0.7]
  seeds: [0, 1]
"""
SMALL_SWEEP_DOC = yaml.safe_load(SMALL_SWEEP)


def entry_paths(node, path=()):
    """Key paths of every mapping entry in a parsed config."""
    if not isinstance(node, dict):
        return []
    return [
        p
        for key, child in node.items()
        for p in [path + (key,), *entry_paths(child, path + (key,))]
    ]


SCHEMA_KEYS = sorted(
    {file_key(f) for cls in (FederationConfig, TaskSpec) for f in fields(cls)}
    | {"experiment", "sweep", "grid", "seeds", "kind", "lag"}
)
KEY_NAMES = st.sampled_from(SCHEMA_KEYS) | st.text(max_size=6)
LIST_OR_VALUE = st.lists(FUZZ_VALUES, max_size=3) | FUZZ_VALUES
MUTATIONS = ("delete", "rename", "scalar", "list", "nest", "duplicate", "grid", "seeds")


def mutated_config(data) -> str:
    """SMALL_SWEEP with one structural mutation drawn from ``data``."""
    op = data.draw(st.sampled_from(MUTATIONS))
    if op == "duplicate":
        # A key line repeated in place: a mapping header then has two
        # values, the first of them null.
        lines = SMALL_SWEEP.splitlines()
        keyed = [i for i, line in enumerate(lines) if re.match(r" *\w+:", line)]
        i = data.draw(st.sampled_from(keyed))
        return "\n".join(lines[: i + 1] + lines[i:]) + "\n"
    doc = copy.deepcopy(SMALL_SWEEP_DOC)
    if op in ("grid", "seeds"):
        parent = doc["sweep"]
        if op == "grid":
            parent = parent["grid"]
        key = data.draw(KEY_NAMES) if op == "grid" else "seeds"
        parent[key] = data.draw(LIST_OR_VALUE)
    else:
        path = data.draw(st.sampled_from(entry_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "rename":
            parent[data.draw(KEY_NAMES)] = parent.pop(key)
        elif op == "scalar":
            parent[key] = data.draw(FUZZ_VALUES)
        elif op == "list":
            parent[key] = [parent[key]]
        else:
            parent[key] = {key: parent[key]}
    return yaml.safe_dump(doc, sort_keys=False)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_structural_mutation_exits_cleanly(data):
    # Deleted, duplicated or renamed keys, mappings replaced by scalars or
    # lists or nested one level deeper, and altered sweep grids and seeds.
    # A config that lost its sweep section must run, and fail as a located
    # config error under ``sweep``.
    text = mutated_config(data)
    if "\nsweep:" not in "\n" + text:
        assert_clean_exit("run", text)
    assert_clean_exit("sweep", text)


class TestSweepCommand:
    def test_full_grid(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", write(tmp_path, SWEEP), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lambda,seed,final_loss,mean_agg_error,status"
        assert len(lines) == 34  # header + 11 lambdas x 3 seeds
        assert all(line.endswith(",ok") for line in lines[1:])
        cell_dirs = sorted(p for p in out.iterdir() if p.is_dir())
        assert len(cell_dirs) == 33
        assert (cell_dirs[0] / "rounds.csv").exists()
        # A row's grid value reads as its directory name writes it.
        for line, cell_dir in zip(lines[1:], cell_dirs):
            assert cell_dir.name.split("_")[1] == "lambda-" + line.split(",")[0]

    def test_grid_text_loads_as_its_cell_config(self, tmp_path):
        # A row's grid text, written back into the file as its key's value,
        # loads as the cell's config; a null value is written ``null``.
        text = grid("batch_size: [null, 16]")
        out = tmp_path / "sweep"
        assert main(["sweep", write(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        cells = load_config(write(tmp_path, text)).sweep
        assert [row.split(",")[0] for row in rows] == ["null", "16"]
        for row, cell in zip(rows, cells, strict=True):
            echo = MINIMAL + f"  batch_size: {row.split(',')[0]}\n"
            assert load_config(write(tmp_path, echo, "cell.yaml")).experiment == cell.config

    def test_cell_reruns_from_its_summary(self, tmp_path):
        # A cell's summary.json config block, under ``experiment``, is a file
        # that runs the cell again.
        text = grid("lambda: [0.0, 0.3]") + "  seeds: [5]\n"
        out = tmp_path / "sweep"
        assert main(["sweep", write(tmp_path, text), "--out", str(out)]) == 0
        (cell,) = out.glob("cell-001_*")
        summary = json.loads((cell / "summary.json").read_text(encoding="utf-8"))
        echo = write(tmp_path, json.dumps({"experiment": summary["config"]}), "echo.yaml")
        rerun = tmp_path / "rerun"
        assert main(["run", echo, "--out", str(rerun)]) == 0
        assert check.outputs(rerun) == check.outputs(cell)

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(["sweep", write(tmp_path, SWEEP), "--out", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_sweep_without_section_exit_2(self, tmp_path, capsys):
        code = main(["sweep", write(tmp_path, MINIMAL), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"\(line \d+, column \d+\)", err), err
        assert "'sweep' section" in err

    def test_parallel_jobs_matches_serial(self, tmp_path):
        config = write(tmp_path, SWEEP)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", config, "--out", str(serial)]) == 0
        assert main(["sweep", config, "--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()

    def test_row_metrics_are_cell_summary_metrics(self, tmp_path):
        text = MINIMAL + "sweep:\n  grid:\n    lambda: [0.0, 0.7]\n  seeds: [0, 1]\n"
        out = tmp_path / "sweep"
        assert main(["sweep", write(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        cell_dirs = sorted(p for p in out.iterdir() if p.is_dir())
        assert len(rows) == len(cell_dirs) == 4
        for row, cell_dir in zip(rows, cell_dirs):
            summary = json.loads((cell_dir / "summary.json").read_text(encoding="utf-8"))
            final_loss, mean_agg_error, status = row.split(",")[-3:]
            assert status == "ok"
            assert final_loss == f"{summary['metrics']['final_loss']:.17g}"
            assert mean_agg_error == f"{summary['metrics']['mean_agg_error']:.17g}"

    def test_diverged_cell_writes_its_run_directory(self, tmp_path, capsys):
        # The second cell trips the global-loss guard after whole rounds:
        # its directory holds what `fedrot run` writes for its config.
        text = MINIMAL.replace("local_steps: 10", "local_steps: 1")
        text = text.replace("rounds: 4", "rounds: 40")
        grid = "sweep:\n  grid:\n    learning_rate: [0.05, 1.0]\n  seeds: [0]\n"
        out = tmp_path / "sweep"
        assert main(["sweep", write(tmp_path, text + grid), "--out", str(out)]) == 0
        ok_dir, diverged_dir = sorted(p for p in out.iterdir() if p.is_dir())
        run_out = tmp_path / "run"
        cell_config = text.replace("learning_rate: 0.05", "learning_rate: 1.0")
        code = main(["run", write(tmp_path, cell_config, "cell.yaml"),
                     "--out", str(run_out)])
        assert code == 3
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert "global loss diverged" in message
        assert check.outputs(diverged_dir) == check.outputs(run_out)
        assert check.summary(diverged_dir)["status"] == "diverged"
        assert check.summary(diverged_dir)["metrics"]["rounds_completed"] >= 1
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].endswith(",ok")
        assert rows[2] == "1.0,0,nan,nan,DivergenceError: " + message.replace(",", ";")
        assert check.summary(ok_dir)["status"] == "ok"

    def test_raising_cell_writes_its_row_not_its_directory(self, tmp_path, monkeypatch):
        # A cell whose run raises other than by diverging has no result:
        # its row holds why, and the other cells run and write theirs.
        build_task = fedrot.federation.build_task

        def failing(config):
            if config.lam == 0.7:
                raise ValueError("no task")
            return build_task(config)

        monkeypatch.setattr(fedrot.federation, "build_task", failing)
        config = write(tmp_path, grid("lambda: [0.0, 0.7, 1.0]"))
        cells = run_sweep(load_config(config).sweep)
        assert [c.error for c in cells] == [None, "ValueError: no task", None]
        assert [c.result is None for c in cells] == [False, True, False]
        out = tmp_path / "sweep"
        assert main(["sweep", config, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[2] == "0.7,0,nan,nan,ValueError: no task"
        assert rows[1].endswith(",ok") and rows[3].endswith(",ok")
        assert [p.name[:8] for p in sorted(out.iterdir()) if p.is_dir()] == [
            "cell-000", "cell-002"]

    def test_setup_imports_neither_multiprocessing_nor_numpy_ma(self, tmp_path):
        # Start-up of a run loads only what the run uses: the process pool
        # is imported by a parallel sweep alone, and the logistic task's
        # partition avoids np.unique, whose first call imports numpy.ma.
        config = write(tmp_path, LOGISTIC)
        code = (
            "import sys; import fedrot; "
            "from fedrot.config import load_config; "
            "from fedrot.federation import build_task; "
            "build_task(load_config(sys.argv[1]).experiment); "
            "print(sorted(m for m in ('multiprocessing', 'numpy.ma') "
            "if m in sys.modules))"
        )
        src = str(Path(fedrot.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code, config], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestVerifyCommand:
    def test_passes_and_prints_one_line_per_check(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert all(line.startswith("pass") for line in out)

    def test_detects_dropped_determinant_correction(self, capsys, monkeypatch):
        # Sabotage the special-orthogonal projection so reflections slip
        # through (disarming the Rotation type guard as well); the
        # self-check battery must notice and fail.
        monkeypatch.setattr(
            fedrot.alignment, "_project_so", lambda u, vt: u @ vt
        )
        monkeypatch.setattr(
            fedrot.alignment.Rotation, "__post_init__", lambda self: None
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  det_correction" in out


# Small grids over the sweepable keys; a learning rate of 50 makes a cell
# diverge, so failed cells are compared too.
JOBS_GRID = {
    "lambda": st.sampled_from([0.0, 0.3, 1.0]),
    "strategy": st.sampled_from([s.value for s in Strategy]),
    "learning_rate": st.sampled_from([0.02, 0.1, 50.0]),
    "local_steps": st.integers(1, 4),
    "rank": st.integers(1, 2),
    "batch_size": st.integers(2, 40),
    "align_from_round": st.integers(1, 3),
    "schedule": st.sampled_from(["alternate", "a_only", "b_only"]),
    "heterogeneity": st.sampled_from([0.0, 0.5]),
    "dirichlet_alpha": st.sampled_from([0.1, 1.0]),
}
# The grid keys each base kind does not read, and the scalar toy's fixed rank.
JOBS_GRID_SKIP = {
    "lowrank_regression": {"dirichlet_alpha"},
    "logistic": {"heterogeneity"},
    "scalar_toy": {"rank", "batch_size", "heterogeneity", "dirichlet_alpha"},
}


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sweep_jobs_outputs_identical(data):
    # The pool's scheduling must not reach the outputs: a sweep writes the
    # same files at --jobs 1 and --jobs 2, wall-clock fields excepted.
    doc = yaml.safe_load(data.draw(st.sampled_from([MINIMAL, LOGISTIC, SCALAR])))
    doc["experiment"].update(rounds=data.draw(st.integers(1, 3)), local_steps=3)
    skip = JOBS_GRID_SKIP[doc["experiment"]["task"]["kind"]]
    keys = data.draw(
        st.lists(st.sampled_from(sorted(set(JOBS_GRID) - skip)), min_size=1,
                 max_size=2, unique=True)
    )
    grid = {
        key: data.draw(st.lists(JOBS_GRID[key], min_size=1, max_size=2, unique=True))
        for key in keys
    }
    seeds = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True))
    doc["sweep"] = {"grid": grid, "seeds": seeds}
    with tempfile.TemporaryDirectory() as tmp:
        config = write(Path(tmp), yaml.safe_dump(doc))
        outputs = []
        for jobs in ("1", "2"):
            out = Path(tmp) / f"jobs{jobs}"
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["sweep", config, "--out", str(out), "--jobs", jobs])
            assert code in (0, 1)
            outputs.append(check.outputs(out))
    assert outputs[0] == outputs[1]
    assert outputs[0]
