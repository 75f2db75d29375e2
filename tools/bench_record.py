"""Record the benchmark into a BENCH_*.json file, or check the committed ones.

Usage (from the repository root):

    python tools/bench_record.py --out BENCH_N.json [--parent DIR --workload NAME --metric NAME]
    python tools/bench_record.py --check

Recording first runs the Tier-1 suite and ``privsample validate``, and
stops if either fails. It then runs ``perfbench/run.py``, every run at
``BENCHMARK.json``'s ``run_seconds``, and reads each run's record from
``perfbench/work/records.jsonl``. It writes:

- each workload's end-to-end medians (one untraced run) and the per-layer
  metrics of one traced run;
- the environment record, the git sha and whether ``src/`` differed from it;
- with ``--parent DIR`` (a checkout of the parent commit),
  ``--workload NAME`` (the workload the change claims) and ``--metric
  NAME`` (the end-to-end metric it claims), PAIRS pairs of that
  workload's runs, parent and this checkout on one seed per pair,
  alternating which side runs first: every pair's end-to-end metrics, each
  side's median and quartiles of the claimed metric, the change/parent
  ratio of those medians, the change's wins on it, each metric's median
  per side and one traced run's per-layer metrics per side;
- the Tier-1 suite's wall time, its summary line and its ``--durations=10``
  list;
- the wall time of ``privsample validate``.

``--check`` runs no benchmark. It validates every ``BENCH_*.json`` at the
root against the schema above (both suites passed, every run at
``run_seconds``, PAIRS pairs of a workload that ``BENCHMARK.json``
lists, on one of its end-to-end metrics, with the wins counted on that
metric), and prints each end-to-end metric that is worse than the
previous file's by more than its ``BENCHMARK.json`` bound.
Such a metric does not fail the check, because the host's speed drifts
from hour to hour; only paired ratios carry across files. A schema error
exits 1.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
# the fewest pairs that can show a 9-of-10 win
PAIRS = 10
SIDES = ("parent", "change")
# the fields of a perfbench record that are not its environment; perfbench
# fails any call whose privsample_file lies outside the checkout's src/, so
# that machine-local path is left out too
RUN_FIELDS = {
    "workload", "seed", "seconds", "trace", "git_sha", "code_id", "samples", "metrics", "calls",
    "privsample_file",
}
DURATION_LINE = re.compile(r"^(\d+\.\d+)s (setup|call|teardown)\s+(\S+)")
SUMMARY_LINE = re.compile(r"^=*\s*(\d+ (?:passed|failed|errors?)\b.* in .*?)\s*=*$")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(checkout: Path) -> dict:
    """The caller's environment, with PYTHONPATH set to the checkout's src only."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run ``checkout``'s perfbench once and return the record it appended."""
    records = checkout / "perfbench" / "work" / "records.jsonl"
    before = len(records.read_text().splitlines()) if records.exists() else 0
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=child_env(checkout), check=True, stdout=subprocess.DEVNULL,
    )
    lines = records.read_text().splitlines()
    if len(lines) != before + 1:
        raise RuntimeError(f"{records}: expected one new record, found {len(lines) - before}")
    record = json.loads(lines[-1])
    failed = [f for c in record["calls"] for f in c["failures"]]
    if failed:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {failed}")
    return record


def values(record: dict) -> dict:
    return {name: m["value"] for name, m in record["metrics"].items()}


def spread(xs: list) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def paired_runs(parent: Path, workload: str, metric: str, seconds: float) -> dict:
    """PAIRS pairs of ``workload`` runs, seed i + 1 in pair i, alternating
    which side runs first, with every end-to-end metric of both sides;
    the quartiles, ratio and wins are those of ``metric``."""
    checkouts = dict(zip(SIDES, (parent, ROOT)))
    runs = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": i + 1, "first": order[0]}
        for side in order:
            pair[side] = values(perfbench(checkouts[side], workload, i + 1, seconds, 0))
        runs.append(pair)
        print(f"pair {i + 1}/{PAIRS}: {pair}", file=sys.stderr)

    def samples(side, name):
        return [r[side][name] for r in runs]

    claimed = {side: spread(samples(side, metric)) for side in SIDES}
    return {
        "workload": workload,
        "metric": metric,
        "seconds": seconds,
        "parent_sha": git(parent, "rev-parse", "HEAD"),
        "pairs": PAIRS,
        "runs": runs,
        **claimed,
        "ratio_of_medians": claimed["change"]["median"] / claimed["parent"]["median"],
        "change_wins": wins(runs, metric),
        "medians": {
            name: {side: statistics.median(samples(side, name)) for side in SIDES}
            for name in runs[0]["parent"]
        },
        # one traced run per side, back to back, so the host's drift between
        # the pairs and the workload runs does not enter the comparison
        "per_layer": {
            side: values(perfbench(checkouts[side], workload, 0, seconds, 1))
            for side in SIDES
        },
    }


def wins(runs: list, metric: str) -> int:
    """Pairs in which the change is better on ``metric``; every end-to-end
    metric of BENCHMARK.json is better lower."""
    return sum(r["change"][metric] < r["parent"][metric] for r in runs)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def timed(cmd: list) -> tuple[float, subprocess.CompletedProcess]:
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True)
    return time.monotonic() - start, done


def tier1() -> dict:
    """Tier-1 (ROADMAP's command; pytest's addopts give --durations=10)."""
    wall, done = timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    lines = done.stdout.splitlines()
    durations = [
        {"seconds": float(m[1]), "when": m[2], "test": m[3]}
        for m in map(DURATION_LINE.match, lines) if m
    ]
    summary = next((m[1] for m in map(SUMMARY_LINE.match, reversed(lines)) if m), None)
    return {"wall_s": wall, "exit": done.returncode, "summary": summary, "durations": durations}


def validate() -> dict:
    wall, done = timed([sys.executable, "-m", "privsample.cli", "validate"])
    return {"wall_s": wall, "exit": done.returncode}


def record(args) -> int:
    """Write args.out, or stop with exit 1 before any benchmark run if the
    suite or ``privsample validate`` fails: a broken tree's timings are
    not its performance."""
    suites = {"tier1": tier1(), "validate": validate()}
    failed = [f"{key} exited {result['exit']}" for key, result in suites.items() if result["exit"]]
    if failed:
        print(f"not recorded: {', '.join(failed)}", file=sys.stderr)
        return 1
    spec = benchmark()
    seconds = spec["run_seconds"]
    workloads, environment = {}, None
    for name in [w["name"] for w in spec["workloads"]]:
        run = perfbench(ROOT, name, 0, seconds, 0)
        traced = perfbench(ROOT, name, 0, seconds, 1)
        environment = {k: v for k, v in run.items() if k not in RUN_FIELDS}
        workloads[name] = {
            "seed": 0,
            "seconds": seconds,
            "code_id": run["code_id"],
            "samples": run["samples"],
            "end_to_end": values(run),
            "per_layer": values(traced),
        }
        print(f"{name}: {workloads[name]['end_to_end']}", file=sys.stderr)
    out = {
        "schema": SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git(ROOT, "rev-parse", "HEAD"),
        "src_changed_since_sha": bool(git(ROOT, "status", "--porcelain", "--", "src")),
        "environment": environment,
        "workloads": workloads,
        "paired": (
            paired_runs(Path(args.parent).resolve(), args.workload, args.metric, seconds)
            if args.parent
            else None
        ),
        **suites,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def schema_errors(data: dict, spec: dict) -> list:
    """What a BENCH file lacks of the layout ``record`` writes for the
    benchmark ``spec`` (BENCHMARK.json's contents)."""
    metrics = [m["name"] for m in spec["end_to_end"]]
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    errors = []
    if data.get("schema") != SCHEMA:
        return [f"schema {data.get('schema')!r} != {SCHEMA}"]
    for key, kind in (("git_sha", str), ("environment", dict), ("workloads", dict),
                      ("tier1", dict), ("validate", dict)):
        if not isinstance(data.get(key), kind):
            errors.append(f"{key} is not a {kind.__name__}")
    for name in names:
        work = (data.get("workloads") or {}).get(name)
        if not isinstance(work, dict) or not isinstance(work.get("per_layer"), dict):
            errors.append(f"workload {name} missing or without per_layer")
            continue
        if work.get("seconds") != seconds:
            errors.append(f"{name}.seconds {work.get('seconds')!r} != run_seconds {seconds}")
        errors += [
            f"{name}.{m} is not a number"
            for m in metrics
            if not isinstance(work.get("end_to_end", {}).get(m), (int, float))
        ]
    for key in ("tier1", "validate"):
        suite = data.get(key) or {}
        if not isinstance(suite.get("wall_s"), (int, float)):
            errors.append(f"{key}.wall_s is not a number")
        if suite.get("exit") != 0:
            errors.append(f"{key}.exit {suite.get('exit')!r} != 0")
    paired = data.get("paired")
    if paired is not None:
        runs, metric = paired.get("runs", []), paired.get("metric")
        if paired.get("workload") not in names:
            errors.append(f"paired.workload {paired.get('workload')!r} is not a benchmark workload")
        if paired.get("seconds") != seconds:
            errors.append(f"paired.seconds {paired.get('seconds')!r} != run_seconds {seconds}")
        if metric not in metrics:
            errors.append(f"paired.metric {metric!r} is not an end-to-end metric")
        elif paired.get("pairs") != PAIRS or len(runs) != PAIRS or not all(
            isinstance(r.get(side, {}).get(metric), (int, float))
            for r in runs
            for side in SIDES
        ):
            errors.append(f"paired.runs are not {PAIRS} pairs holding both sides' {metric}")
        elif paired.get("change_wins") != wins(runs, metric):
            errors.append("paired.change_wins does not match its runs")
    return errors


def regressions(old: dict, new: dict, bounds: list) -> list:
    """End-to-end metrics of ``new`` worse than ``old``'s by more than their bound."""
    found = []
    for name, work in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for m in bounds:
            a, b = before["end_to_end"][m["name"]], work["end_to_end"][m["name"]]
            worse = b - a if m["better"] == "lower" else a - b
            if worse > m["bound"] * abs(a):
                found.append(f"{name}.{m['name']}: {a:.6g} -> {b:.6g} (bound {m['bound']:.0%})")
    return found


def file_number(path: Path) -> int:
    return int(re.search(r"\d+", path.stem)[0])


def check() -> int:
    spec = benchmark()
    bounds = spec["end_to_end"]
    paths = sorted(ROOT.glob("BENCH_*.json"), key=file_number)
    status, previous = 0, None
    for path in paths:
        data = json.loads(path.read_text())
        errors = schema_errors(data, spec)
        for e in errors:
            print(f"{path.name}: {e}")
        if errors:
            status = 1
            continue
        if previous is not None:
            for line in regressions(previous[1], data, bounds):
                print(f"{path.name} vs {previous[0]}: worse beyond bound: {line}")
        print(f"{path.name}: schema ok")
        previous = (path.name, data)
    if not paths:
        print("no BENCH_*.json files")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="check the committed files; run nothing")
    parser.add_argument("--out", help="BENCH_*.json path to write")
    parser.add_argument("--parent", help="checkout of the parent commit, for paired runs")
    parser.add_argument(
        "--workload",
        choices=[w["name"] for w in benchmark()["workloads"]],
        help="the workload the paired runs time; required with --parent",
    )
    parser.add_argument(
        "--metric",
        choices=[m["name"] for m in benchmark()["end_to_end"]],
        help="the end-to-end metric the paired runs compare; required with --parent",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    if not args.out:
        parser.error("--out is required unless --check")
    if len({bool(args.parent), bool(args.workload), bool(args.metric)}) > 1:
        parser.error("--parent, --workload and --metric go together")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
