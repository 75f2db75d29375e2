"""tools/bench_record.py: the committed BENCH_*.json files and its check."""
import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
SECONDS = SPEC["run_seconds"]


def _minimal():
    """A BENCH record with every field the check reads."""
    ends = {m: 1.0 for m in METRICS}
    # the change wins every pair but the first
    runs = [{"parent": {"wall_s": 2.0}, "change": {"wall_s": 1.0 + 2.0 * (i == 0)}}
            for i in range(bench_record.PAIRS)]
    return {
        "schema": bench_record.SCHEMA,
        "git_sha": "0" * 40,
        "environment": {},
        "workloads": {
            n: {"seconds": SECONDS, "end_to_end": dict(ends), "per_layer": {}} for n in NAMES
        },
        "paired": {
            "workload": NAMES[-1],
            "metric": "wall_s",
            "seconds": SECONDS,
            "pairs": bench_record.PAIRS,
            "runs": runs,
            "change_wins": bench_record.PAIRS - 1,
        },
        "tier1": {"wall_s": 1.0, "exit": 0},
        "validate": {"wall_s": 1.0, "exit": 0},
    }


def test_every_committed_bench_file_passes_the_check(capsys):
    assert bench_record.check() == 0, capsys.readouterr().out


def test_schema_errors_name_what_is_missing_or_inconsistent():
    assert bench_record.schema_errors(_minimal(), SPEC) == []
    broken = _minimal()
    del broken["workloads"][NAMES[0]]["end_to_end"]["wall_s"]
    broken["paired"]["change_wins"] = bench_record.PAIRS
    broken["tier1"] = {"exit": 0}
    assert bench_record.schema_errors(broken, SPEC) == [
        f"{NAMES[0]}.wall_s is not a number",
        "tier1.wall_s is not a number",
        "paired.change_wins does not match its runs",
    ]


def test_schema_errors_refuse_a_failing_suite():
    """A record of a tree whose suite or validate failed is not its
    performance."""
    broken = _minimal()
    broken["tier1"]["exit"] = 1
    broken["validate"]["exit"] = 2
    assert bench_record.schema_errors(broken, SPEC) == ["tier1.exit 1 != 0", "validate.exit 2 != 0"]
    del broken["tier1"]["exit"]
    assert bench_record.schema_errors(broken, SPEC)[0] == "tier1.exit None != 0"


def test_schema_errors_refuse_other_run_lengths_and_pair_counts():
    broken = _minimal()
    broken["workloads"][NAMES[1]]["seconds"] = 3
    broken["paired"]["seconds"] = 3
    assert bench_record.schema_errors(broken, SPEC) == [
        f"{NAMES[1]}.seconds 3 != run_seconds {SECONDS}",
        f"paired.seconds 3 != run_seconds {SECONDS}",
    ]
    short = _minimal()
    short["paired"]["runs"].pop()
    short["paired"]["pairs"] -= 1
    assert bench_record.schema_errors(short, SPEC) == [
        f"paired.runs are not {bench_record.PAIRS} pairs holding both sides' wall_s"
    ]


def test_schema_errors_refuse_pairs_of_an_unlisted_workload():
    broken = _minimal()
    broken["paired"]["workload"] = "no-such-workload"
    assert bench_record.schema_errors(broken, SPEC) == [
        "paired.workload 'no-such-workload' is not a benchmark workload"
    ]
    del broken["paired"]["workload"]
    assert bench_record.schema_errors(broken, SPEC) == [
        "paired.workload None is not a benchmark workload"
    ]


def test_schema_errors_refuse_pairs_on_an_unknown_metric():
    broken = _minimal()
    broken["paired"]["metric"] = "cpu_s"  # a per-layer metric
    assert bench_record.schema_errors(broken, SPEC) == [
        "paired.metric 'cpu_s' is not an end-to-end metric"
    ]
    del broken["paired"]["metric"]
    assert bench_record.schema_errors(broken, SPEC) == [
        "paired.metric None is not an end-to-end metric"
    ]


def test_schema_errors_count_wins_on_the_files_own_metric():
    """The change loses every pair on wall_s and wins every one on
    peak_rss_mb; change_wins must match the metric the file names."""
    data = _minimal()
    for run in data["paired"]["runs"]:
        run["parent"].update(wall_s=1.0, peak_rss_mb=75.0)
        run["change"].update(wall_s=1.1, peak_rss_mb=60.0)
    data["paired"].update(metric="peak_rss_mb", change_wins=bench_record.PAIRS)
    assert bench_record.schema_errors(data, SPEC) == []
    data["paired"]["metric"] = "wall_s"
    assert bench_record.schema_errors(data, SPEC) == ["paired.change_wins does not match its runs"]
    data["paired"]["change_wins"] = 0
    assert bench_record.schema_errors(data, SPEC) == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--parent", "."],
        ["--workload", NAMES[0]],
        ["--parent", ".", "--workload", "nope"],
        ["--metric", METRICS[0]],
        ["--parent", ".", "--workload", NAMES[0]],
        ["--parent", ".", "--metric", METRICS[0]],
        ["--parent", ".", "--workload", "nope", "--metric", METRICS[0]],
        ["--parent", ".", "--workload", NAMES[0], "--metric", "cpu_s"],
    ],
)
def test_paired_runs_need_a_parent_and_a_listed_workload(monkeypatch, tmp_path, flags):
    """--parent, --workload and --metric go together, and the workload and
    the metric are ones that BENCHMARK.json lists (the metric among its
    end-to-end metrics); a bad pairing stops before the suite runs."""

    def no_suite():
        raise AssertionError("suite ran")

    monkeypatch.setattr(bench_record, "tier1", no_suite)
    with pytest.raises(SystemExit) as stop:
        bench_record.main(["--out", str(tmp_path / "BENCH_0.json"), *flags])
    assert stop.value.code == 2


@pytest.mark.parametrize("runner", [True, False], ids=["archive", "empty"])
def test_a_parent_that_is_not_a_checkout_stops_before_the_suite(
    monkeypatch, tmp_path, capsys, runner
):
    """A ``git archive``-like copy (perfbench/run.py but no git HEAD), or a
    directory without perfbench/run.py, exits 2 naming it, before Tier-1
    runs."""
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    if runner:
        (parent / "perfbench" / "run.py").write_text("")

    def no_suite():
        raise AssertionError("suite ran")

    monkeypatch.setattr(bench_record, "tier1", no_suite)
    flags = ["--parent", str(parent), "--workload", NAMES[0], "--metric", METRICS[0]]
    with pytest.raises(SystemExit) as stop:
        bench_record.main(["--out", str(tmp_path / "BENCH_0.json"), *flags])
    assert stop.value.code == 2
    assert f"--parent {parent} is not a git checkout" in capsys.readouterr().err


def test_checkout_sha_is_the_head_of_a_checkout_root_only(tmp_path):
    """A copy unpacked inside another checkout does not take its HEAD."""
    repo, nested = tmp_path / "repo", tmp_path / "repo" / "copy"
    for tree in (repo, nested):
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
    bench_record.git(repo, "init", "-q")
    identity = ["-c", "user.name=t", "-c", "user.email=t@t"]
    bench_record.git(repo, *identity, "commit", "-q", "--allow-empty", "-m", "t")
    sha = bench_record.git(repo, "rev-parse", "HEAD")
    assert len(sha) == 40
    assert bench_record.checkout_sha(repo) == sha
    assert bench_record.checkout_sha(nested) is None


def test_record_stops_before_benchmarking_when_a_suite_fails(monkeypatch, tmp_path):
    out = tmp_path / "BENCH_0.json"
    monkeypatch.setattr(bench_record, "tier1", lambda: {"wall_s": 1.0, "exit": 1})
    monkeypatch.setattr(bench_record, "validate", lambda: {"wall_s": 1.0, "exit": 0})

    def no_benchmark(*args):
        raise AssertionError("benchmark ran")

    monkeypatch.setattr(bench_record, "perfbench", no_benchmark)
    assert bench_record.main(["--out", str(out)]) == 1
    assert not out.exists()


def test_regressions_are_the_metrics_worse_than_their_bound():
    old = _minimal()
    new = copy.deepcopy(old)
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    new["workloads"][NAMES[0]]["end_to_end"]["wall_s"] = 1.0 + 2 * bound["wall_s"]
    new["workloads"][NAMES[1]]["end_to_end"]["wall_s"] = 1.0 + 0.5 * bound["wall_s"]
    new["workloads"][NAMES[1]]["end_to_end"]["setup_s"] = 0.5  # better
    found = bench_record.regressions(old, new, SPEC["end_to_end"])
    assert len(found) == 1 and found[0].startswith(f"{NAMES[0]}.wall_s: 1 -> ")
