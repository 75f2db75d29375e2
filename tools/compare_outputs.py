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
``perfbench/configs``, so only the code differs. Prints each file that
differs and exits 1 if any does, else 0.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "perfbench" / "configs"
# a feedback schedule for simulate's --schedule runs (horizon 20, f = 1.44),
# written into each side's directory as ``schedule.json``
SCHEDULE = {
    "kind": "privacy_aware", "f_chol": [[[1.2]]] * 21, "g": [[0.0]] * 21, "feedback": True,
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
    runs.append(("validate", ["validate"]))
    return runs


COMMANDS = _commands()


def run_side(tree: Path, out: Path, commands) -> None:
    """Every command with ``tree``'s privsample, run in ``out``."""
    out.mkdir()
    (out / "schedule.json").write_text(json.dumps(SCHEDULE))
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


def compare(here: Path, parent: Path, commands) -> tuple[list[str], int]:
    """Run ``commands`` on both checkouts and compare what they leave."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for side, tree in (("here", here), ("parent", parent)):
            run_side(tree, tmp / side, commands)
        return differing(tmp / "here", tmp / "parent")


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
