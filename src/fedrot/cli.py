"""Command-line entry point.

Subcommands: ``run`` (single experiment), ``sweep`` (parameter grid),
``verify`` (built-in self-checks).  Exit codes: 0 success, 1 check or
whole-sweep failure, 2 usage/config or output-directory error, 3
divergence.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_to_dict, load_config
from .errors import ConfigError, FedRotError
from .federation import RoundRecord, RunResult, run_federation, run_sweep
from .verify import run_checks

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_verify"]

ROUNDS_COLUMNS = (
    "round",
    "loss",
    "agg_error",
    "dispersion",
    "alignment_gain",
    "rotation_deviation",
    "tau_diag",
    "wall_ms",
)
# Every RoundRecord field but its timing: a field added later is written too.
DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(RoundRecord) if f.name != "wall_ms")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, columns, records) -> None:
    lines = [",".join(columns)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary_payload(result: RunResult) -> dict:
    records = result.rounds
    loss = records[-1].loss if records else math.nan
    agg_error = float(np.mean([r.agg_error for r in records])) if records else math.nan
    final = {
        # Strict JSON has no inf or nan: a metric that is not finite, or
        # that no completed round gives, reads null.
        "final_loss": loss if math.isfinite(loss) else None,
        "mean_agg_error": agg_error if math.isfinite(agg_error) else None,
        "rounds_completed": len(records),
        "wall_time_s": result.wall_time,
    }
    return {
        "status": "ok" if result.divergence is None else "diverged",
        "version": __version__,
        "seed": result.config.seed,
        "config": config_to_dict(result.config),
        "metrics": final,
    }


def _write_run_outputs(out_dir: Path, result: RunResult) -> dict:
    """Write ``rounds.csv``, ``diagnostics.csv`` and ``summary.json``; return its metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "rounds.csv", ROUNDS_COLUMNS, result.rounds)
    _write_csv(out_dir / "diagnostics.csv", DIAGNOSTICS_COLUMNS, result.rounds)
    payload = _summary_payload(result)
    (out_dir / "summary.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return payload["metrics"]


def cmd_run(config_path, out_dir, seed: int | None = None) -> int:
    experiment = load_config(config_path).experiment
    if seed is not None:
        experiment = replace(experiment, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_federation(experiment)
    _write_run_outputs(out, result)
    if result.divergence is not None:
        print(f"error: {result.divergence}", file=sys.stderr)
        return 3
    return 0


def _grid_text(value) -> str:
    """A sweep-grid value as its cell directory name and sweep.csv write it."""
    if value is None:  # as the experiment file writes it
        return "null"
    return str(value.value if isinstance(value, enum.Enum) else value)


def _cell_dir_name(index: int, params: dict, seed: int) -> str:
    parts = [f"{k}-{_grid_text(v)}" for k, v in params.items()]
    return f"cell-{index:03d}_" + "_".join(parts + [f"seed-{seed}"])


def cmd_sweep(config_path, out_dir, jobs: int = 1) -> int:
    cells = load_config(config_path, need_sweep=True).sweep
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = run_sweep(cells, jobs=jobs)
    param_names = list(cells[0].params)
    header = param_names + ["seed", "final_loss", "mean_agg_error", "status"]
    rows = [",".join(header)]
    n_failed = 0
    for index, cell in enumerate(cells):
        cell_dir = out / _cell_dir_name(index, cell.params, cell.seed)
        values = [_grid_text(cell.params[name]) for name in param_names]
        if cell.result is not None:
            metrics = _write_run_outputs(cell_dir, cell.result)
        if cell.error is None:
            row = values + [
                str(cell.seed),
                *(_fmt(math.nan if metrics[k] is None else metrics[k])
                  for k in ("final_loss", "mean_agg_error")),
                "ok",
            ]
        else:
            n_failed += 1
            status = cell.error.split("\n")[0].replace(",", ";")
            row = values + [str(cell.seed), "nan", "nan", status]
        rows.append(",".join(row))
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if n_failed == len(cells):
        print("error: every sweep cell failed", file=sys.stderr)
        return 1
    return 0


def cmd_verify() -> int:
    results = run_checks()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'pass' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrot",
        description="Deterministic federated LoRA simulator with rotational "
        "alignment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment")
    p_run.add_argument("config", help="experiment file (YAML)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config", help="experiment file with a sweep section")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")

    sub.add_parser("verify", help="run the built-in self-checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, seed=args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, jobs=args.jobs)
        return cmd_verify()
    except ConfigError as exc:
        where = ""
        if exc.line is not None:
            where = f" (line {exc.line}, column {exc.column})"
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except (FedRotError, OSError) as exc:
        # OSError: the output directory cannot be created or written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
