"""privsample benchmark: four CLI workloads timed end to end, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call is one ``privsample`` command in a fresh interpreter
(``child.py``), with ``PYTHONPATH`` pointing at this checkout's ``src``,
``PRIVSAMPLE_THREADS=2`` and the BLAS thread setting left as the caller
has it. With ``--trace 0`` the run is a closed loop of such calls: it
starts another call only while the last call's duration still fits into
``--seconds`` (at least one call), then spawns import-only probes until
there are seven ``setup_s`` samples. Each reported metric is the median
over the run's samples. With ``--trace 1`` it makes one untraced and one
traced call with the same seed and reports the per-layer metrics.

Every call's outputs are checked (``workloads.py``) and hashed. A call
fails on a non-zero exit, an exception, a failed check, or output digests
that differ from an earlier call with the same seed and the same code.
The last line of standard output is the JSON result; the lines before it
give every metric with its unit, the error rate and the environment
record, which is also appended to ``perfbench/work/records.jsonl``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
PRIVSAMPLE_THREADS = "2"
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 175.0  # a run must end within 180 s
PROBE_RESERVE_S = 12.0  # kept free for the setup probes after the last call

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("objective", "1"),
]
# cpu_s is the untraced call's CPU time; it does not repeat within a tenth
# across runs (BLAS threads spin), so it is reported with the traced run
PER_LAYER = layers.METRICS + [("cpu_s", "s")]


def code_id(workload: workloads.Workload) -> str:
    """Digest of the program sources, the configs and the command line."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((HERE / "configs").glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    h.update(json.dumps(workload.args(Path("out"))).encode())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def digests(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def invoke(spec: dict, deadline: float) -> dict:
    """Runs child.py on ``spec`` and returns its result plus OS-measured usage.

    The child is killed at ``deadline`` (``time.monotonic()``). It is
    reaped with ``wait4`` to read its own CPU time and peak RSS.
    """
    spec_path = Path(spec["result"]).with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    env = dict(os.environ, PRIVSAMPLE_THREADS=PRIVSAMPLE_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with open(WORK / "child.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    timer = threading.Timer(max(deadline - start, 0.0), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    # wait without reaping, so the timer can never signal a reused pid
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    elapsed = time.monotonic() - start
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = {
        "exit": proc.returncode,
        "elapsed_s": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    result_path = Path(spec["result"])
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        call.update(result, setup_s=result["ready"] - start)
    else:
        call["error"] = f"child exited with {proc.returncode}; see {WORK / 'child.log'}"
    return call


class Run:
    """One benchmark run: its calls, their checks and the digest record."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.calls: list[dict] = []
        self.probes: list[dict] = []
        self.code = code_id(workload)
        self.record_path = WORK / "digests.json"
        self.records = json.loads(self.record_path.read_text()) if self.record_path.exists() else {}

    def call(self, mode: str, untraced_wall: float | None = None) -> dict:
        n = len(self.calls)
        out = WORK / "out" / f"{self.workload.name}-{n}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        spec = {
            "mode": mode,
            "workload": self.workload.name,
            "argv": self.workload.args(out) + ["--seed", str(self.seed)],
            "out": str(out),
            "result": str(WORK / f"call-{n}.json"),
            "spans": str(WORK / f"spans-{self.workload.name}.csv"),
            "untraced_wall": untraced_wall,
        }
        call = invoke(spec, self.start + RUN_DEADLINE_S - PROBE_RESERVE_S)
        call["mode"] = mode
        call["digests"] = digests(out)
        failures = list(call.get("failures", []))
        if call.get("error"):
            failures.append(call["error"])
        elif call.get("rc") != 0:
            failures.append(f"privsample exited with {call.get('rc')}")
        elif not Path(call["env"]["privsample_file"]).is_relative_to(SRC):
            failures.append(f"imported privsample from {call['env']['privsample_file']}")
        else:
            key = f"{self.code}:{self.workload.name}:{self.seed}"
            expected = self.records.setdefault(key, call["digests"])
            if expected != call["digests"]:
                failures.append(f"output digests differ from an earlier call with seed {self.seed}")
        call["failures"] = failures
        self.calls.append(call)
        return call

    def probe_setup(self):
        """Import-only calls until there are SETUP_SAMPLES setup samples."""
        while len(self.setup_samples()) < SETUP_SAMPLES:
            n = len(self.probes)
            spec = {"mode": "probe", "result": str(WORK / f"probe-{n}.json")}
            probe = invoke(spec, self.start + RUN_DEADLINE_S)
            probe["mode"] = "probe"
            self.probes.append(probe)
            if "setup_s" not in probe:
                raise RuntimeError(f"setup probe failed: {probe['error']}")

    def setup_samples(self) -> list[float]:
        return [c["setup_s"] for c in self.calls + self.probes if c["mode"] != "trace" and "setup_s" in c]

    def failed(self) -> int:
        return sum(1 for c in self.calls if c["failures"])

    def save(self):
        self.record_path.write_text(json.dumps(self.records, indent=1, sort_keys=True))


def closed_loop(run: Run, seconds: float):
    limit = min(seconds, RUN_DEADLINE_S - PROBE_RESERVE_S)
    while True:
        call = run.call("run")
        if time.monotonic() - run.start + call["elapsed_s"] > limit:
            break
    run.probe_setup()


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(run: Run) -> tuple[dict, dict]:
    ok = [c for c in run.calls if "wall_s" in c]
    samples = {
        "wall_s": [c["wall_s"] for c in ok],
        "setup_s": run.setup_samples(),
        "peak_rss_mb": [c["peak_rss_mb"] for c in ok],
        "objective": [c["objective"] for c in ok if c.get("objective") is not None],
    }
    metrics = {
        name: {"value": median_of(samples[name]), "unit": unit} for name, unit in END_TO_END
    }
    return metrics, {name: len(v) for name, v in samples.items()}


def traced_metrics(run: Run) -> tuple[dict, dict]:
    untraced = run.call("run")
    # same seed as the untraced call, so the digest record also checks that tracing changes no output
    traced = run.call("trace", untraced_wall=untraced.get("wall_s"))
    values = dict(traced.get("layers", {}), cpu_s=untraced["cpu_s"])
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in PER_LAYER}
    return metrics, {name: 1 if name in values else 0 for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "privsample" / "cli.py").is_file():
        print(f"no privsample sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    shutil.rmtree(WORK / "out", ignore_errors=True)

    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, counts = traced_metrics(run)
    else:
        closed_loop(run, args.seconds)
        metrics, counts = end_to_end_metrics(run)
    run.save()

    env = next((c["env"] for c in run.calls + run.probes if "env" in c), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "code_id": run.code,
        "nproc": len(os.sched_getaffinity(0)),
        **env,
        "samples": counts,
        "metrics": metrics,
        "calls": [
            {k: c.get(k) for k in ("mode", "exit", "elapsed_s", "setup_s", "wall_s", "cpu_s",
                                   "peak_rss_mb", "objective", "failures", "digests")}
            for c in run.calls
        ],
    }
    with open(WORK / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    attempted, failed = len(run.calls), run.failed()
    for c in run.calls:
        for failure in c["failures"]:
            print(f"FAILED ({c['mode']} call): {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']} (samples: {counts[name]})")
    print(f"error_rate = {failed / attempted} fraction ({failed} of {attempted} calls failed)")
    print("env " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "calls")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
