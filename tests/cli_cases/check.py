"""The CLI contract cases, and the one checker of what each must do.

Each ``<name>.yaml`` here is a config file kept byte for byte as committed
(``.gitattributes`` marks it ``-text``).  ``manifest.json`` gives each case
one line: ``argv``, the command and any options after ``--out``; ``exit``,
the exit code; and optionally ``at``, the ``[line, column]`` that stderr
opens with as ``config error (line N, column M): ``; ``stderr``, fragments
it holds; ``stderr_under``, a bound on its bytes; and ``diverged``, the run
directory under ``--out`` (``.`` for a run) whose summary must read
diverged.  Every case also prints no traceback, one that exits 2 writes no
``--out``, one that exits 3 opens stderr with ``error: ``, and one run
with ``--jobs`` writes the same files without it, wall-clock fields aside.
Every ``summary.json`` the checker reads must parse as strict JSON.

An invoker takes a ``fedrot`` command line without the program name and
returns its exit code and stderr.  ``tests/test_cli_cases.py`` runs each
case through :func:`in_process`.  Run as a script, the checker runs each
case through a command line, split as a shell splits it, then each golden
config and its summary's config echo, writing their outputs in the working
directory; it imports nothing from fedrot.  The command is the installed
console script, or the module run from a checkout::

    python tests/cli_cases/check.py --console fedrot
    PYTHONPATH=/path/to/fedrot/src python3 /path/to/fedrot/tests/cli_cases/check.py \
        --console "python3 -m fedrot.cli"
"""

import argparse
import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parent / "golden"


def cases() -> dict[str, dict]:
    """The manifest: each case's name and expectations, in file order."""
    return json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text: str):
    """``text`` parsed as JSON, which has no ``NaN`` or ``Infinity``."""
    return json.loads(text, parse_constant=_not_json)


def summary(out: Path) -> dict:
    """The ``summary.json`` in the run directory ``out``, as strict JSON."""
    return strict_json((out / "summary.json").read_text(encoding="utf-8"))


def in_process(argv: list[str]) -> tuple[int, str]:
    """Run ``fedrot.cli.main(argv)`` in this process."""
    from fedrot.cli import main  # here: console mode imports nothing from fedrot

    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def console(command: str):
    """The invoker that runs the shell-style command line ``command`` in a new process."""
    program = shlex.split(command)

    def invoke(argv: list[str]) -> tuple[int, str]:
        done = subprocess.run([*program, *argv], capture_output=True, check=False)
        return done.returncode, done.stderr.decode("utf-8", "surrogateescape")
    return invoke


def outputs(out: Path) -> dict[str, str]:
    """Every file under ``out`` as text, without the wall-clock fields:
    ``rounds.csv`` loses its last column, ``wall_ms``, and ``summary.json``
    its ``metrics.wall_time_s``, parsed as strict JSON and re-dumped as the
    CLI writes it."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.name == "rounds.csv":
            text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
        elif path.name == "summary.json":
            summary = strict_json(text)
            del summary["metrics"]["wall_time_s"]
            text = json.dumps(summary, indent=2) + "\n"
        files[path.relative_to(out).as_posix()] = text
    return files


def check_case(name: str, invoke, out: Path) -> list[str]:
    """What the case ``name`` did wrong, run by ``invoke`` with ``--out out``."""
    case = cases()[name]
    command, *options = case["argv"]
    config = str(HERE / f"{name}.yaml")
    code, err = invoke([command, config, "--out", str(out), *options])
    problems = [] if code == case["exit"] else [f"exit {code}, wanted {case['exit']}"]
    if "Traceback" in err:
        problems.append("a traceback")
    if code == 2 and out.exists():
        problems.append("--out was written")
    if code == 3 and not err.startswith("error: "):
        problems.append("stderr does not open with 'error: '")
    if "at" in case:
        where = "config error (line {}, column {}): ".format(*case["at"])
        if not err.startswith(where):
            problems.append(f"stderr does not open with {where!r}")
    problems += [f"no {f!r} in stderr" for f in case.get("stderr", ()) if f not in err]
    size = len(err.encode("utf-8", "surrogateescape"))
    if size >= case.get("stderr_under", math.inf):
        problems.append(f"{size} bytes of stderr")
    if "diverged" in case:
        run = out / case["diverged"]
        if not ((run / "summary.json").is_file() and summary(run)["status"] == "diverged"):
            problems.append(f"{case['diverged']}/summary.json does not read diverged")
    if "--jobs" in options:
        serial = out.with_name(f"{out.name}_serial")
        invoke([command, config, "--out", str(serial)])
        if outputs(serial) != outputs(out):
            problems.append("without --jobs the files differ")
    if problems:
        problems.append(f"stderr was {err[:300]!r}")
    return [f"{name}: {problem}" for problem in problems]


def check_golden(name: str, config: Path, invoke, out: Path) -> list[str]:
    """What a run of ``config`` did wrong against ``tests/golden/<name>``: it
    must exit 3 if the golden summary reads diverged, else 0, and write
    exactly the golden files, wall-clock fields aside."""
    golden = {path.name: path.read_text(encoding="utf-8")
              for path in (GOLDEN_DIR / name).iterdir()}
    want = 3 if strict_json(golden["summary.json"])["status"] == "diverged" else 0
    code, _ = invoke(["run", str(config), "--out", str(out)])
    problems = [] if code == want else [f"exit {code}, wanted {want}"]
    got = outputs(out)
    problems += [f"{f} is missing, extra or different" for f in sorted(golden.keys() | got.keys())
                 if got.get(f) != golden.get(f)]
    return [f"{config.name}: {problem}" for problem in problems]


def main(command: str) -> int:
    """Check every case and golden through ``command``; exit 1 on any problem."""
    invoke, root = console(command), Path.cwd()
    problems = [p for name in cases() for p in check_case(name, invoke, root / name)]
    goldens = sorted(GOLDEN_DIR.glob("*.yaml"))
    for config in goldens:
        echo = root / f"echo_{config.stem}.yaml"
        echo_config = {"experiment": summary(GOLDEN_DIR / config.stem)["config"]}
        echo.write_text(json.dumps(echo_config), encoding="utf-8")
        for run in (config, echo):
            problems += check_golden(config.stem, run, invoke, root / f"golden_{run.stem}")
    print("\n".join(problems) or f"{len(cases())} cases and {len(goldens)} goldens pass")
    return 1 if problems else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--console", required=True, metavar="COMMAND",
                        help="the fedrot command line, split as a shell splits it: "
                             "the installed script or \"python3 -m fedrot.cli\"")
    sys.exit(main(parser.parse_args().console))
