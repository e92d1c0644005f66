"""The config loader's outcomes, held by a committed table.

Each base config, every golden config and every CLI case but ``nested``
(whose one load takes about 0.4 s), is loaded as committed and mutated line
by line: each line deleted, each line repeated, and, for the goldens and the
cases with a ``sweep`` section, each line followed by each of ``INSERTS``.
Each file is loaded with ``need_sweep`` exactly when its base has a
``sweep`` section.  Its outcome is a digest of ``config_to_dict`` of the
experiment and of each sweep cell's params and config, or the
``ConfigError``'s message, line and column, with the file's path as
``<config>``.  ``config_outcomes.jsonl`` holds one row per load; each base's
rows must come out as committed, so a change to what the loader accepts, to
what it builds or to any message, position or precedence of its errors
fails here.

To rewrite the table after a deliberate change of what a load gives::

    PYTHONPATH=src python tests/test_config_outcomes.py
"""

import collections
import functools
import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest

from fedrot.config import config_to_dict, load_config
from fedrot.errors import ConfigError

from cli_cases import check

TABLE = Path(__file__).resolve().parent / "config_outcomes.jsonl"
GOLDENS = [f"golden/{c.stem}" for c in sorted(check.GOLDEN_DIR.glob("*.yaml"))]
BASES = GOLDENS + [f"cli_cases/{name}" for name in check.cases() if name != "nested"]
INSERTS = [b"  bogus: 1", b"    bogus: 1", b"  task: {kind: logistic}",
           b"  heterogeneity: 0.5", b"  dirichlet_alpha: 0.5", b"  strategy: nonsense"]


def _ended(line: bytes) -> bytes:
    return line if line.endswith((b"\n", b"\r")) else line + b"\n"


def mutations(data: bytes, inserts: list[bytes]):
    """(name, file bytes) of ``data`` as committed and of each mutation of
    it, in order."""
    lines = data.splitlines(keepends=True)
    yield "as committed", data
    for i, line in enumerate(lines):
        before, after = b"".join(lines[:i]), b"".join(lines[i + 1:])
        yield f"delete {i + 1}", before + after
        yield f"repeat {i + 1}", before + _ended(line) + line + after
        for insert in inserts:
            text = before + _ended(line) + insert + b"\n" + after
            yield f"insert {insert.decode()!r} after {i + 1}", text


def outcome(path: Path, need_sweep: bool):
    """What loading ``path`` gives: a digest of the configs it builds, or
    the error's message, line and column."""
    try:
        loaded = load_config(path, need_sweep=need_sweep)
    except ConfigError as exc:
        return [str(exc).replace(str(path), "<config>"), exc.line, exc.column]
    cells = [[cell.params, config_to_dict(cell.config)] for cell in loaded.sweep or ()]
    built = [config_to_dict(loaded.experiment), cells]
    text = json.dumps(built, default=lambda member: member.value)
    return hashlib.sha256(text.encode()).hexdigest()


def outcomes(base: str, tmp: Path) -> list[dict]:
    """The table's rows of ``base``, loaded from ``tmp``."""
    data = (check.HERE.parent / f"{base}.yaml").read_bytes()
    need_sweep = re.search(rb"^sweep:", data, re.M) is not None
    inserts = INSERTS if base in GOLDENS or need_sweep else []
    path = tmp / "config.yaml"
    rows = []
    for name, text in mutations(data, inserts):
        path.write_bytes(text)
        rows.append({"base": base, "mutation": name, "outcome": outcome(path, need_sweep)})
    return rows


@functools.cache
def committed() -> dict[str, list[dict]]:
    """The table's rows by base."""
    rows = collections.defaultdict(list)
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows[row["base"]].append(row)
    return rows


@pytest.mark.parametrize("base", BASES)
def test_outcomes_as_committed(base, tmp_path):
    assert outcomes(base, tmp_path) == committed()[base]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row for base in BASES for row in outcomes(base, Path(tmp))]
    TABLE.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    failed = sum(isinstance(row["outcome"], list) for row in rows)
    print(f"{len(rows)} loads: {len(rows) - failed} loaded, {failed} failed")
