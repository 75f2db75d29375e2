"""Compare the CLI's output bytes between this checkout and another one.

Usage (from the repository root):

    python tools/compare_outputs.py --parent DIR

Runs one fixed list of ``privsample`` command lines (``COMMANDS``) once
with this checkout's ``src/`` and once with DIR's, each side in an empty
directory of its own, and compares every file the commands leave there
byte for byte: each output, each ``.meta.json`` sidecar, and one log per
command holding its stdout, stderr and exit code. ``validate`` prints its
checks' seconds, which are stripped from the log; paths of the two
checkouts in stderr read ``<tree>``. Both sides read this checkout's
``perfbench/configs`` and the same 2x2 system, degenerate system and
schedules written into their directories, so only the code differs.
Prints each file that differs, with, for a CSV on both sides, the count
of its differing data lines and the set of their first fields, for
example ``differs: sweep.csv (7 rows: additive_noise)``; exits 1 if any
file differs, else 0.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "perfbench" / "configs"
# a feedback schedule for simulate's --schedule runs (horizon 20, f = 1.44),
# written into each side's directory as ``schedule.json``
SCHEDULE = {
    "kind": "privacy_aware", "f_chol": [[[1.2]]] * 21, "g": [[0.0]] * 21, "feedback": True,
}
# an n_x = n_y = 2 system with A_yx != 0, written into each side's directory as
# ``system2x2.json``: its runs reach the stacked products, determinants and
# inverses, the Cholesky belief draws and the noise factor that n_x = 1 skips
SYSTEM_2X2 = {
    "A": [[0.9, 0.1, -0.3, 0.0], [0.0, 0.8, 0.2, 0.1], [0.2, 0.0, 0.5, 0.1], [0.0, 0.1, 0.0, 0.6]],
    "Q": [[1.0, 0.2, 0.1, 0.0], [0.2, 0.8, 0.0, 0.1], [0.1, 0.0, 1.5, 0.3], [0.0, 0.1, 0.3, 1.2]],
    "P0": [[0.6, 0.1, 0.1, 0.0], [0.1, 0.5, 0.0, 0.1], [0.1, 0.0, 0.7, 0.1], [0.0, 0.1, 0.1, 0.5]],
    "mean0": [0.5, -0.5, 0.0, 0.2], "nx": 2, "ny": 2, "K": 20,
}
# a feedback schedule for it (horizon 20), as ``schedule2x2.json``
SCHEDULE_2X2 = {
    "kind": "privacy_aware", "f_chol": [[[1.2, 0.0], [0.3, 0.9]]] * 21,
    "g": [[0.1, -0.1]] * 21, "feedback": True,
}
# the paper system with Q = diag(1, 0), as ``degenerate.json``: with A_yx = 0,
# y_1 = 0.35 y_0, so the trajectory covariance is singular from k = 1 and its
# sweep exits 4; the run's log compares the failure message
DEGENERATE = {
    "A": [[0.98, -0.9], [0.0, 0.35]], "Q": [[1.0, 0.0], [0.0, 0.0]],
    "P0": [[0.5, 0.25], [0.25, 0.5]], "mean0": [0.0, 0.0], "nx": 1, "ny": 1, "K": 100,
}
# the inputs written into each side's directory
FILES = {
    "schedule.json": SCHEDULE, "system2x2.json": SYSTEM_2X2, "schedule2x2.json": SCHEDULE_2X2,
    "degenerate.json": DEGENERATE,
}
# the seconds column of validate's PASS/FAIL lines
SECONDS = re.compile(r"(?m)^((?:PASS|FAIL)  .*?) +\d+\.\ds  ")


def _commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every compared run; outputs are named after
    the run, relative to the side's directory."""
    paper, coupled = str(CONFIGS / "paper.json"), str(CONFIGS / "coupled.json")
    runs = []
    for system, config in (("paper", paper), ("coupled", coupled)):
        for seed in ("0", "1"):
            name = f"optimize-{system}-s{seed}"
            runs.append((name, [
                "optimize", "--config", config, "--lambda", "12", "--seed", seed,
                "--out", f"{name}.json", "--trace-out", f"{name}-trace.csv",
            ]))
    runs.append(("optimize-h6", [
        "optimize", "--config", paper, "--horizon", "6", "--lambda", "3",
        "--out", "optimize-h6.json",
    ]))
    # perfbench's sweep-baselines and sweep-coupled command lines at seed 0
    runs.append(("sweep-baselines", [
        "sweep-tradeoff", "--config", paper, "--lambdas", "", "--seed", "0",
        "--out", "sweep-baselines.csv",
    ]))
    runs.append(("sweep-coupled", [
        "sweep-tradeoff", "--config", coupled, "--lambdas", "", "--rollouts", "2000",
        "--leak-rollouts", "8", "--seed", "0", "--out", "sweep-coupled.csv",
    ]))
    runs.append(("sweep-optimized", [
        "sweep-tradeoff", "--config", coupled, "--horizon", "10", "--rollouts", "200",
        "--lambdas", "6,12", "--out", "sweep-optimized.csv",
    ]))
    runs.append(("rate-curve", [
        "rate-curve", "--config", paper, "--horizon", "20", "--rollouts", "500", "--lambdas", "6",
        "--out", "rate-curve.csv",
    ]))
    for name, extra in (
        ("simulate", []),
        ("simulate-trace", ["--belief-trace", "simulate-trace-belief.csv"]),
        ("simulate-schedule", ["--schedule", "schedule.json"]),
        ("simulate-schedule-trace", [
            "--schedule", "schedule.json", "--belief-trace", "simulate-schedule-trace-belief.csv",
        ]),
    ):
        runs.append((name, [
            "simulate", "--config", paper, "--horizon", "20", "--seed", "3",
            "--out", f"{name}.csv", *extra,
        ]))
    for lam in ("0", "0.5", "3"):
        for horizon in ("1", "2"):
            name = f"finite-dp-l{lam}-h{horizon}"
            runs.append((name, [
                "finite-dp", "--config", str(CONFIGS / "finite.json"), "--lambda", lam,
                "--horizon", horizon, "--out", f"{name}.csv",
            ]))
    runs.append(("sweep-2x2", [
        "sweep-tradeoff", "--config", "system2x2.json", "--horizon", "10", "--rollouts", "300",
        "--f-grid", "0.5,4", "--noise-grid", "0,1", "--lambdas", "6", "--opt-iters", "3",
        "--leak-rollouts", "4", "--out", "sweep-2x2.csv",
    ]))
    for name, extra in (
        ("simulate-2x2-trace", []),
        ("simulate-2x2-schedule-trace", ["--schedule", "schedule2x2.json"]),
    ):
        runs.append((name, [
            "simulate", "--config", "system2x2.json", "--seed", "2", "--out", f"{name}.csv",
            "--belief-trace", f"{name}-belief.csv", *extra,
        ]))
    runs.append(("optimize-2x2-h6", [
        "optimize", "--config", "system2x2.json", "--horizon", "6", "--lambda", "3",
        "--out", "optimize-2x2-h6.json",
    ]))
    runs.append(("sweep-degenerate", [
        "sweep-tradeoff", "--config", "degenerate.json", "--horizon", "6", "--rollouts", "200",
        "--f-grid", "1,4", "--noise-grid", "", "--lambdas", "", "--leak-rollouts", "4",
        "--out", "sweep-degenerate.csv",
    ]))
    runs.append(("validate", ["validate"]))
    return runs


COMMANDS = _commands()


def run_side(tree: Path, out: Path, commands) -> None:
    """Every command with ``tree``'s privsample, run in ``out``."""
    out.mkdir()
    for name, content in FILES.items():
        (out / name).write_text(json.dumps(content))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PRIVSAMPLE_THREADS="2")
    for name, args in commands:
        done = subprocess.run(
            [sys.executable, "-m", "privsample.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        stdout = SECONDS.sub(r"\1  ", done.stdout)
        stderr = done.stderr.replace(str(tree), "<tree>")
        (out / f"{name}.log").write_text(f"{stdout}{stderr}exit {done.returncode}\n")


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """(names of the files that differ or exist on one side only, files seen)."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    same = [
        n for n in names
        if (a / n).is_file() and (b / n).is_file() and filecmp.cmp(a / n, b / n, shallow=False)
    ]
    diff = [n for n in names if n not in same]
    return diff, len(names)


def csv_rows(path: Path) -> list[str]:
    """The data lines of a CSV output: after the header, before the
    metadata comment block."""
    return [line for line in path.read_text().splitlines()[1:] if not line.startswith("#")]


def row_changes(a: Path, b: Path) -> str:
    """`` (N rows: first fields)`` of the data lines that differ between
    two CSVs, compared in order (a line one side lacks differs); ``""``
    unless both are CSV files."""
    if a.suffix != ".csv" or not (a.is_file() and b.is_file()):
        return ""
    changed = [(x, y) for x, y in zip_longest(csv_rows(a), csv_rows(b), fillvalue="") if x != y]
    if not changed:
        return " (0 rows; header or metadata)"
    firsts = sorted({line.split(",")[0] for pair in changed for line in pair if line})
    return f" ({len(changed)} {'row' if len(changed) == 1 else 'rows'}: {', '.join(firsts)})"


def compare(here: Path, parent: Path, commands) -> tuple[list[str], int]:
    """Run ``commands`` on both checkouts and compare what they leave:
    (each differing file's name with its ``row_changes``, files seen)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for side, tree in (("here", here), ("parent", parent)):
            run_side(tree, tmp / side, commands)
        diff, seen = differing(tmp / "here", tmp / "parent")
        return [n + row_changes(tmp / "here" / n, tmp / "parent" / n) for n in diff], seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the other checkout's root")
    args = parser.parse_args(argv)
    diff, seen = compare(ROOT, args.parent.resolve(), COMMANDS)
    for name in diff:
        print(f"differs: {name}")
    print(f"{seen - len(diff)} of {seen} files identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
