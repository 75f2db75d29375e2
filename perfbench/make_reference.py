"""Measures the reference values that the output checks compare against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``. The optimizer objective depends
on the seed, so its tolerance is a multiple of its spread over several
seeds; the sweep rows are compared within a multiple of their stderr;
the finite DP is deterministic.
"""
from __future__ import annotations

import json
import math
import statistics
import time

import run
import workloads

OPTIMIZE_SEEDS = range(8)
OBJECTIVE_TOL_SIGMAS = 6.0
SWEEP_SEED = 0
STDERR_MULTIPLE = 5.0


def outputs(name: str, seed: int):
    out = run.WORK / "reference" / f"{name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    spec = {
        "mode": "run",
        "workload": name,
        "argv": workloads.WORKLOADS[name].args(out) + ["--seed", str(seed)],
        "out": str(out),
        "result": str(run.WORK / "reference" / f"{name}-{seed}.json"),
    }
    call = run.invoke(spec, time.monotonic() + 600)
    if call.get("rc") != 0 or call.get("error"):
        raise RuntimeError(f"{name} seed {seed} failed: {call.get('error')}")
    return out


def main():
    run.WORK.mkdir(exist_ok=True)
    objectives = [
        json.loads((outputs("optimize-paper", s) / "schedule.json.meta.json").read_text())["objective"]
        for s in OPTIMIZE_SEEDS
    ]
    if not all(math.isfinite(v) for v in objectives):
        raise RuntimeError(f"non-finite reference objective in {objectives}")
    reference = {
        "optimize-paper": {
            "objective": statistics.median(objectives),
            "objective_tol": OBJECTIVE_TOL_SIGMAS * statistics.stdev(objectives),
            "seed_objectives": objectives,
        },
        "finite-dp": {
            "value": json.loads((outputs("finite-dp", 0) / "dp.csv.meta.json").read_text())["value"]
        },
    }
    for name in ("sweep-baselines", "sweep-coupled"):
        rows = workloads._csv_rows(outputs(name, SWEEP_SEED) / "sweep.csv")
        reference[name] = {
            "seed": SWEEP_SEED,
            "stderr_multiple": STDERR_MULTIPLE,
            "rows": {
                f"{r['family']},{r['f_spec']}": [float(r["mean_x_error"]), float(r["x_error_stderr"])]
                for r in rows
            },
        }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
