"""Checks on what one CLI invocation wrote.

An invocation's outputs pass when every run directory has
``"status": "ok"`` and one finite ``rounds.csv`` row per round, and when
they agree with the values recorded for the default seed (``golden.json``)
or, for other seeds, with invariants every correct run keeps.  Repeats are
compared on their canonical bytes: every output file with its wall-clock
fields dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import NEGATIVE_CONTROL

ROUNDS_COLUMNS = ["round", "loss", "agg_error", "dispersion", "alignment_gain",
                  "rotation_deviation", "tau_diag", "wall_ms"]
# Tolerance against the recorded seed-0 values: loose enough for a change of
# SVD routine (its last-bit differences stay far below this), tight enough
# that a wrong rotation or gradient moves the values by orders more.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12


def canonical(out_dir: Path) -> dict[str, bytes]:
    """Every output file under ``out_dir``, wall-clock fields dropped."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "rounds.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0]
                              for line in data.split(b"\n"))
        elif path.name == "summary.json":
            summary = json.loads(data)
            summary["metrics"].pop("wall_time_s", None)
            data = json.dumps(summary, sort_keys=True).encode()
        files[path.relative_to(out_dir).as_posix()] = data
    return files


def run_dirs(out_dir: Path, command: str) -> list[Path]:
    """Run directories of an invocation in the sweep's cell order."""
    if command == "run":
        return [out_dir]
    return sorted(p for p in out_dir.iterdir() if p.name.startswith("cell-"))


def _check_run(run_dir: Path, rounds: int) -> tuple[list[str], dict]:
    """Problems with one run directory, and its final metrics."""
    try:
        summary = json.loads((run_dir / "summary.json").read_text())
        text = (run_dir / "rounds.csv").read_text()
    except (OSError, ValueError) as exc:
        return [f"{run_dir.name}: unreadable output ({exc})"], {}
    rows = list(csv.reader(io.StringIO(text)))
    problems = []
    if summary.get("status") != "ok":
        problems.append(f"status {summary.get('status')!r}")
    if not rows or rows[0] != ROUNDS_COLUMNS:
        return problems + [f"{run_dir.name}: bad rounds.csv header"], {}
    body = [[float(x) for x in row] for row in rows[1:]]
    if [int(r[0]) for r in body] != list(range(1, rounds + 1)):
        problems.append(f"rounds.csv has rounds {[r[0] for r in body]}, "
                        f"wanted 1..{rounds}")
    gain = ROUNDS_COLUMNS.index("alignment_gain")
    for r in body:
        # alignment_gain is nan by definition when the raw dispersion is 0.
        if not all(math.isfinite(x) or (i == gain and math.isnan(x))
                   for i, x in enumerate(r)):
            problems.append(f"non-finite value in round {int(r[0])}")
    final = summary.get("metrics", {})
    if body and final.get("final_loss") != body[-1][1]:
        problems.append("summary final_loss differs from the last round")
    return [f"{run_dir.name}: {p}" for p in problems], final


def check_invocation(out_dir: Path, workload, golden: dict | None,
                     untrained: list[float]) -> list[list[str]]:
    """Problems per run of one invocation (one list per sweep cell).

    With ``golden`` (the default seed) final values must match the record;
    otherwise every run must end below ``untrained``, the global loss of
    the zero update on its task (one value per cell), except the negative
    control, whose final loss must instead exceed FedIT's on the same seed.
    The loss need not fall after round 1: with many local steps the first
    round can already reach the level that client drift holds the global
    model at, and later rounds settle slightly above or below it (FedIT
    as much as fedrot).
    """
    cells = workload.cells()
    dirs = run_dirs(out_dir, workload.command)
    if len(dirs) != len(cells):
        return [[f"expected {len(cells)} run directories, found {len(dirs)}"]
                for _ in cells]
    results = [_check_run(d, c["rounds"]) for d, c in zip(dirs, cells)]
    if workload.command == "sweep":
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        for (problems, final), row in zip(results, rows):
            status = row.rsplit(",", 1)[-1]
            if status != "ok":
                problems.append(f"sweep.csv status {status!r}")
    fedit_loss = {}
    for d, (_, final) in zip(dirs, results):
        if "strategy-fedit_" in d.name:
            fedit_loss[d.name.rsplit("_seed-", 1)[1]] = final.get("final_loss")
    for d, cell, zero_loss, (problems, final) in zip(dirs, cells, untrained,
                                                    results):
        if problems:
            continue
        key = d.name if workload.command == "sweep" else "run"
        if golden is not None:
            for name, want in golden[key].items():
                got = final[name]
                if not abs(got - want) <= GOLDEN_RTOL * abs(want) + GOLDEN_ATOL:
                    problems.append(f"{key}: {name} {got!r} != recorded {want!r}")
        elif cell["strategy"] == NEGATIVE_CONTROL:
            base = fedit_loss.get(d.name.rsplit("_seed-", 1)[1])
            if base is None or not final["final_loss"] > base:
                problems.append(f"{key}: final loss {final['final_loss']!r} "
                                f"not above FedIT's {base!r}")
        elif not final["final_loss"] < zero_loss:
            problems.append(f"{key}: final loss {final['final_loss']!r} not "
                            f"below the untrained model's {zero_loss!r}")
    return [problems for problems, _ in results]


def golden_record(out_dir: Path, workload) -> dict:
    """The final values ``check_invocation`` compares against."""
    record = {}
    for d in run_dirs(out_dir, workload.command):
        metrics = json.loads((d / "summary.json").read_text())["metrics"]
        key = d.name if workload.command == "sweep" else "run"
        record[key] = {k: metrics[k] for k in ("final_loss", "mean_agg_error")}
    return record
