"""Self-tests of the benchmark: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times, summarize  # noqa: E402

import privsample.cli as cli  # noqa: E402
from privsample import configio, validation  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a, as a pool thread would
        Span(4, 2, "leaf", 2.0, 3.0),
        Span(5, 1, "c", 8.0, 12.0),  # ends after its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(4.0)


def test_summarize_counts_recursive_total_once():
    spans = [
        Span(1, 0, "f", 0.0, 10.0),
        Span(2, 1, "g", 1.0, 9.0),
        Span(3, 2, "f", 2.0, 5.0),
    ]
    stats = summarize(spans)
    assert stats["f"] == {"calls": 2, "total_s": 10.0, "self_s": pytest.approx(2.0 + 3.0)}
    assert stats["g"]["self_s"] == pytest.approx(5.0)


def test_spans_nest_per_thread_and_under_an_explicit_parent():
    tracer = Tracer()

    def worker(parent):
        tracer.call("task", tracer.call, ("inner", lambda: None), parent=parent)

    def root():
        t = threading.Thread(target=worker, args=(tracer.current(),))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.call("root", root)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent == 0
    assert by_name["task"].parent == by_name["root"].id
    assert by_name["inner"].parent == by_name["task"].id


def _bindings():
    """Every attribute of every privsample module and traced class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "privsample" or name.startswith("privsample.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for module, cls, _ in layers.METHODS.values():
        owner = getattr(sys.modules[f"privsample.{module}"], cls)
        out.update({(owner.__qualname__, k): v for k, v in vars(owner).items()})
    return out


def test_install_rebinds_imported_names_and_restore_puts_originals_back():
    from privsample import belief, loss, optimizer, reconstruct

    before = _bindings()
    originals = {
        "cli.evaluate_schedule": reconstruct.evaluate_schedule,
        "cli.rollout_losses": loss.rollout_losses,
        "cli.stackelberg_optimize": optimizer.stackelberg_optimize,
        "loss.predict": belief.predict,
        "reconstruct.one_step_loss": loss.one_step_loss,
    }
    tracer = Tracer()
    layers.install(tracer)
    try:
        modules = {"cli": cli, "loss": loss, "reconstruct": reconstruct}
        for dotted, original in originals.items():
            mod, attr = dotted.split(".")
            bound = getattr(modules[mod], attr)
            assert bound is not original and bound.__wrapped__ is original
        assert cli.ThreadPoolExecutor.__name__ == "TracedPool"
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_sweep_nests_pool_tasks_and_reports_every_metric(tmp_path):
    tracer = Tracer()
    argv = [
        "sweep-tradeoff", "--config", str(workloads.CONFIGS / "coupled.json"), "--lambdas", "",
        "--horizon", "4", "--rollouts", "40", "--leak-rollouts", "2",
        "--f-grid", "1,4", "--noise-grid", "1", "--out", str(tmp_path / "s.csv"),
    ]
    layers.install(tracer)
    try:
        assert tracer.call("cli.main", cli.main, (argv,)) == 0
    finally:
        tracer.restore()
    by_id = {s.id: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s.name == "cli.sweep_task"]
    assert len(tasks) == 3
    assert {by_id[s.parent].name for s in tasks} == {"cli.sweep_pool"}
    for s in tracer.spans:
        if s.name == "reconstruct.evaluate_schedule":
            assert by_id[s.parent].name == "cli.sweep_task"
    caught = [
        warnings.WarningMessage("singular P; falling back to pseudo-inverse", UserWarning,
                                str(Path("src", "privsample", "linalg.py")), 108),
        warnings.WarningMessage("singular follower Hessian", UserWarning,
                                str(Path("src", "privsample", "optimizer.py")), 726),
        warnings.WarningMessage("overflow", RuntimeWarning, "linalg.py", 1),
    ]
    metrics = layers.metrics(tracer.spans, tracer.counters, caught, untraced_wall=1.0)
    assert list(metrics) == [name for name, _ in layers.METRICS]
    assert metrics["loss.rollout_losses.calls"] == 2 * 2
    assert metrics["belief.max_dim"] == 2 + 4
    assert metrics["cli.sweep_task.count"] == 3
    assert metrics["reconstruct.evaluate_schedule.calls"] == 2
    assert 0.0 < metrics["cli.pool_busy_frac"] <= 1.0
    assert metrics["linalg.fallback_warnings"] == 1  # only the one raised in privsample/linalg.py


def _assert_system_equal(system, expected):
    for field in ("a_matrix", "q_cov", "init_mean", "init_cov"):
        np.testing.assert_array_equal(getattr(system, field), getattr(expected, field))
    assert (system.n_x, system.n_y) == (expected.n_x, expected.n_y)


def test_committed_configs_match_the_library_fixtures():
    paper = configio.load_json(workloads.CONFIGS / "paper.json")
    _assert_system_equal(configio.system_from_config(paper), validation.paper_system())
    assert paper["K"] == workloads.HORIZON

    coupled = configio.load_json(workloads.CONFIGS / "coupled.json")
    assert coupled["A"][1][0] == 0.30
    coupled["A"][1][0] = 0.0
    assert coupled == paper

    finite = configio.finite_model_from_config(configio.load_json(workloads.CONFIGS / "finite.json"))
    fixture = validation.finite_fixture()
    for field in ("x_kernel", "y_kernel", "init_joint", "distortion"):
        np.testing.assert_array_equal(getattr(finite, field), getattr(fixture, field))


def test_benchmark_json_names_the_reported_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert set(workloads.load_reference()) == set(workloads.WORKLOADS)


def test_sweep_check_accepts_the_reference_and_flags_a_shifted_row(tmp_path):
    ref = workloads.load_reference()["sweep-baselines"]
    header = "family,f_spec,lambda,mean_x_error,x_error_stderr,mean_leak_nats,sampling_rate"

    def write(shift):
        lines = [header]
        for i, (key, (mean, se)) in enumerate(sorted(ref["rows"].items())):
            leak = "1.0" if key.startswith("open_loop") else ""
            lines.append(f"{key},,{mean + (shift if i == 0 else 0.0)},{se},{leak},0.5")
        (tmp_path / "sweep.csv").write_text("\n".join(lines + ["# metadata", ""]))
        return workloads.check_sweep(tmp_path, ref)[0]

    assert write(0.0) == []
    assert len(write(1e3)) == 1
