"""The four CLI workloads and the checks on their outputs.

Each workload is one ``privsample`` command line. Its check runs in the
process that ran the command, after the timed call, and returns the list
of failed checks plus the workload's ``objective`` (lower is better):

- optimize-paper: the schedule's objective from ``<out>.meta.json``;
- sweep-*: the mean of the rows' ``mean_x_error``;
- finite-dp: the root DP value.

Reference values come from ``reference.json``, measured at the seed
commit by ``make_reference.py``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"
HORIZON = 100
FINITE_VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[Path], list]  # out dir -> CLI arguments before --seed
    check: Callable[[Path, dict], tuple]  # (out dir, reference) -> (failures, objective)


def _optimize_args(out: Path) -> list:
    return [
        "optimize", "--config", str(CONFIGS / "paper.json"), "--lambda", "12",
        "--out", str(out / "schedule.json"), "--trace-out", str(out / "trace.csv"),
    ]


def _sweep_args(config: str, *extra: str) -> Callable[[Path], list]:
    def args(out: Path) -> list:
        return [
            "sweep-tradeoff", "--config", str(CONFIGS / config), "--lambdas", "", *extra,
            "--out", str(out / "sweep.csv"),
        ]

    return args


def _finite_args(out: Path) -> list:
    return [
        "finite-dp", "--config", str(CONFIGS / "finite.json"), "--lambda", "0.5",
        "--horizon", "2", "--out", str(out / "dp.csv"),
    ]


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    body = lines[: lines.index("# metadata")]
    return list(csv.DictReader(body))


def check_optimize(out: Path, ref: dict) -> tuple[list, float | None]:
    from privsample.configio import load_schedule

    failures = []
    schedule = load_schedule(out / "schedule.json")
    if schedule.horizon != HORIZON:
        failures.append(f"schedule horizon {schedule.horizon} != {HORIZON}")
    objective = json.loads((out / "schedule.json.meta.json").read_text())["objective"]
    if not math.isfinite(objective):
        failures.append(f"objective {objective} is not finite")
    elif abs(objective - ref["objective"]) > ref["objective_tol"]:
        failures.append(
            f"objective {objective} differs from {ref['objective']} by more than {ref['objective_tol']}"
        )
    if not _csv_rows(out / "trace.csv"):
        failures.append("convergence trace has no rows")
    return failures, objective


def check_sweep(out: Path, ref: dict) -> tuple[list, float | None]:
    failures = []
    rows = _csv_rows(out / "sweep.csv")
    got = {f"{r['family']},{r['f_spec']}": r for r in rows}
    if len(rows) != len(ref["rows"]) or set(got) != set(ref["rows"]):
        failures.append(f"rows {sorted(got)} != expected {sorted(ref['rows'])}")
    numeric = [c for c in rows[0] if c not in ("family", "f_spec", "lambda")] if rows else []
    for key, row in got.items():
        values = {c: float(row[c]) for c in numeric if row[c] != ""}
        bad = [c for c, v in values.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"{key}: non-finite {bad}")
            continue
        if not 0.0 <= values["sampling_rate"] <= 1.0:
            failures.append(f"{key}: sampling_rate {values['sampling_rate']} outside [0, 1]")
        if values.get("mean_leak_nats", 0.0) < 0.0:
            failures.append(f"{key}: leak {values['mean_leak_nats']} < 0")
        if key in ref["rows"]:
            ref_mean, ref_se = ref["rows"][key]
            limit = ref["stderr_multiple"] * math.hypot(values["x_error_stderr"], ref_se)
            if abs(values["mean_x_error"] - ref_mean) > limit:
                failures.append(
                    f"{key}: mean_x_error {values['mean_x_error']} differs from {ref_mean} by more than {limit}"
                )
    if not rows:
        return failures, None
    return failures, sum(float(r["mean_x_error"]) for r in rows) / len(rows)


def check_finite(out: Path, ref: dict) -> tuple[list, float | None]:
    failures = []
    value = json.loads((out / "dp.csv.meta.json").read_text())["value"]
    if not abs(value - ref["value"]) <= FINITE_VALUE_TOL:
        failures.append(f"root value {value} != {ref['value']} within {FINITE_VALUE_TOL}")
    if not any(r["node"] == "root" for r in _csv_rows(out / "dp.csv")):
        failures.append("no root node row")
    return failures, value


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize-paper", _optimize_args, check_optimize),
        Workload("sweep-baselines", _sweep_args("paper.json"), check_sweep),
        Workload(
            "sweep-coupled",
            _sweep_args("coupled.json", "--rollouts", "2000", "--leak-rollouts", "8"),
            check_sweep,
        ),
        Workload("finite-dp", _finite_args, check_finite),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
