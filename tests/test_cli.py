import argparse
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import threading
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import privsample
from privsample import belief, cli, loss
from privsample.cli import main
from privsample.configio import (
    check_writable,
    config_hash,
    dump_schedule,
    load_schedule,
    system_from_config,
)
from privsample.errors import ConfigError, ContractViolation
from privsample.linalg import logdet_psd
from privsample.loss import belief_rollout
from privsample.optimizer import leak_estimate, optimize_lambda
from privsample.policy import degenerate_schedule, open_loop_schedule, privacy_aware_schedule
from privsample.rngs import substream
from privsample.validation import paper_system
from tests.test_optimizer import _coupled, _random_system, set_leader


SYSTEM_CFG = {
    "A": [[0.98, -0.90], [0.00, 0.35]],
    "Q": [[1.00, 0.10], [0.10, 4.00]],
    "P0": [[0.50, 0.25], [0.25, 0.50]],
    "mean0": [0.0, 0.0],
    "nx": 1,
    "ny": 1,
    "K": 12,
    "seed": 42,
}

FINITE_CFG = {
    "x_kernel": [[[0.9, 0.1], [0.6, 0.4]], [[0.2, 0.8], [0.45, 0.55]]],
    "y_kernel": [[0.8, 0.2], [0.3, 0.7]],
    "init_joint": [[0.3, 0.2], [0.1, 0.4]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "K": 1,
}


@pytest.fixture()
def system_cfg(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SYSTEM_CFG))
    return path


def test_missing_config_is_exit_3(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "configuration error" in capsys.readouterr().err


def test_invalid_system_is_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    cfg = dict(SYSTEM_CFG)
    cfg["Q"] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
    bad.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 3


def test_simulate_csv_structure_and_determinism(system_cfg, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--config", str(system_cfg), "--seed", "9", "--horizon", "8"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    text1 = out1.read_text()
    assert text1.splitlines()[0] == "k,x0,y0,N,z_present,x_hat0,y_hat0"
    assert text1 == out2.read_text()  # identical config + seed => identical bytes
    assert f"config_hash={config_hash(SYSTEM_CFG)}" in text1
    assert "# seed=9" in text1
    sidecar = json.loads(Path(str(out1) + ".meta.json").read_text())
    assert sidecar["seed"] == 9
    # data rows: header + K+1 rows before the metadata block
    data_rows = [l for l in text1.splitlines()[1:] if not l.startswith("#")]
    assert len(data_rows) == 9
    # always-sample default: reconstruction equals the state
    for row in data_rows:
        cells = row.split(",")
        assert cells[3] == "1" and cells[4] == "1"
        assert cells[1] == cells[5]


def test_simulate_with_schedule_and_belief_trace(system_cfg, tmp_path):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(
        json.dumps(
            {
                "kind": "open_loop",
                "f_chol": [[[1.2]]] * 13,
                "g": [[0.0]] * 13,
                "feedback": False,
            }
        )
    )
    out = tmp_path / "t.csv"
    trace = tmp_path / "belief.csv"
    rc = main(
        [
            "simulate",
            "--config",
            str(system_cfg),
            "--schedule",
            str(sched_path),
            "--seed",
            "4",
            "--out",
            str(out),
            "--belief-trace",
            str(trace),
        ]
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,phase,mean0,mean1,var0,var1,logdet_pyy"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    phases = [r[1] for r in rows]
    assert phases[0] == "predicted" and phases[1] == "filtered"
    # the trace follows the same rollout as the trajectory CSV
    traj = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert [r[2] for r in rows if r[1] == "filtered"] == [r[5] for r in traj]
    # and asking for it leaves the trajectory CSV's bytes unchanged
    plain = tmp_path / "plain.csv"
    args = ["simulate", "--config", str(system_cfg), "--schedule", str(sched_path), "--seed", "4"]
    assert main(args + ["--out", str(plain)]) == 0
    assert plain.read_bytes() == out.read_bytes()


def _data_rows(path) -> list:
    """The data rows of an output CSV, split into fields."""
    return [l.split(",") for l in path.read_text().splitlines()[1:] if not l.startswith("#")]


def _growing_reference(system, schedule, horizon, seed):
    """simulate's CSV and --belief-trace rows from the growing (X_k, Y^k)
    belief: the current block of each belief, and log|P^yy| of its whole
    y trajectory."""
    steps = belief_rollout(system, schedule, horizon, substream(seed, 0), mode="state")
    fmt, n = cli._fmt, system.n
    csv, trace = [], []
    for k, step in enumerate(steps):
        csv.append(
            [str(k)]
            + [fmt(v) for v in step.state]
            + [str(step.n)] * 2
            + [fmt(v) for v in step.filtered.mean[:n]]
        )
        for b in (step.predicted, step.filtered):
            trace.append(
                [str(b.k), b.phase]
                + [fmt(v) for v in b.mean[:n]]
                + [fmt(v) for v in np.diag(b.cov)[:n]]
                + [fmt(logdet_psd(b.p_yy))]
            )
    return csv, trace


def _feedback(f: float, g: float, horizon: int, n_x: int):
    ell = np.repeat((np.sqrt(f) * np.eye(n_x))[None], horizon + 1, axis=0)
    return privacy_aware_schedule(ell, np.full((horizon + 1, n_x), g), feedback=True)


REFERENCE_SCHEDULES = {
    "always_sample": None,
    "never_sample": lambda k, n_x: degenerate_schedule("never_sample", k, n_x),
    "open_loop_f3": lambda k, n_x: open_loop_schedule(3.0 * np.eye(n_x), k),
    "feedback_f4.6": lambda k, n_x: _feedback(4.6, 0.0, k, n_x),
    "feedback_f2_g0.7": lambda k, n_x: _feedback(2.0, 0.7, k, n_x),
}


REFERENCE_SYSTEMS = {  # name: (system, horizon, seeds)
    "paper": (paper_system, 100, (0, 3)),
    "coupled": (lambda: _coupled(paper_system()), 100, (1, 4)),
    "nx2_ny2": (lambda: _random_system(24, 2, 2), 30, (0, 1, 2)),
    "nx2_ny1": (lambda: _random_system(7, 2, 1), 30, (0, 1, 2)),
    "nx1_ny2": (lambda: _random_system(9, 1, 2), 30, (0, 1, 2)),
}


@pytest.mark.parametrize("schedule", list(REFERENCE_SCHEDULES))
@pytest.mark.parametrize("name", list(REFERENCE_SYSTEMS))
def test_simulate_matches_the_growing_belief_reference(tmp_path, name, schedule):
    """simulate runs on one fixed-size engine row; every CSV and trace
    field equals the growing belief's at _fmt's 10 digits, log|P^yy| of
    the whole y trajectory included (the engine's chain rule)."""
    make_system, horizon, seeds = REFERENCE_SYSTEMS[name]
    system = make_system()
    cfg = tmp_path / "system.json"
    cfg.write_text(
        json.dumps(
            {
                "A": system.a_matrix.tolist(),
                "Q": system.q_cov.tolist(),
                "P0": system.init_cov.tolist(),
                "mean0": system.init_mean.tolist(),
                "nx": system.n_x,
                "ny": system.n_y,
                "K": horizon,
            }
        )
    )
    make = REFERENCE_SCHEDULES[schedule]
    sched = degenerate_schedule("always_sample", horizon, system.n_x)
    args = ["simulate", "--config", str(cfg)]
    if make is not None:
        sched = make(horizon, system.n_x)
        dump_schedule(sched, tmp_path / "sched.json")
        args += ["--schedule", str(tmp_path / "sched.json")]
    out, trace = tmp_path / "s.csv", tmp_path / "t.csv"
    for seed in seeds:
        argv = args + ["--seed", str(seed), "--out", str(out), "--belief-trace", str(trace)]
        assert main(argv) == 0
        csv_ref, trace_ref = _growing_reference(system, sched, horizon, seed)
        assert _data_rows(out) == csv_ref
        assert _data_rows(trace) == trace_ref


def test_simulate_leaves_the_growing_belief_alone(system_cfg, tmp_path, monkeypatch):
    """simulate --belief-trace succeeds with every growing-belief step
    refusing to run."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulate touched the growing belief")

    for name in ("predict", "update_sample", "update_no_sample"):
        monkeypatch.setattr(belief, name, refuse)
        monkeypatch.setattr(loss, name, refuse)  # belief_rollout's bindings
    sched = tmp_path / "sched.json"
    dump_schedule(_feedback(2.0, 0.7, 12, 1), sched)
    args = ["simulate", "--config", str(system_cfg), "--schedule", str(sched)]
    args += ["--out", str(tmp_path / "s.csv"), "--belief-trace", str(tmp_path / "t.csv")]
    assert main(args) == 0


def test_simulate_refuses_a_private_block_that_is_a_function_of_the_past(
    system_cfg, tmp_path, capsys
):
    """Q_yy = 0 with A_yx = 0 makes y_1 = 0.35 y_0: the trajectory
    covariance of Y^1 is singular, so its log-determinant is undefined.
    simulate exits 4 naming the step and the command, and writes nothing."""
    system_cfg.write_text(json.dumps(dict(SYSTEM_CFG, Q=[[1.0, 0.0], [0.0, 0.0]], K=10)))
    out, trace = tmp_path / "s.csv", tmp_path / "t.csv"
    args = ["simulate", "--config", str(system_cfg), "--out", str(out)]
    assert main(args + ["--belief-trace", str(trace)]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k=1 in simulate\n"
    )
    for path in (out, trace):
        assert not path.exists() and not Path(str(path) + ".meta.json").exists()


def test_sweep_refuses_a_private_block_that_is_a_function_of_the_past(
    system_cfg, tmp_path, capsys
):
    """The same system on the sweep: the open-loop leak on the growing
    reference exits 4 with the engine's message at k = 1 on the first f,
    not with a false known x later on another f."""
    system_cfg.write_text(json.dumps(dict(SYSTEM_CFG, Q=[[1.0, 0.0], [0.0, 0.0]])))
    out = tmp_path / "s.csv"
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--out", str(out), "--horizon", "6"]
    args += ["--rollouts", "200", "--f-grid", "1,4", "--noise-grid", "", "--lambdas", ""]
    assert main(args + ["--leak-rollouts", "4"]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k=1"
        " in sweep family open_loop f=1\n"
    )
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_optimize_writes_loadable_schedule(system_cfg, tmp_path, monkeypatch):
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=16, MAX_ITERS=4, VALIDATION_ROLLOUTS=32)
    out = tmp_path / "sched.json"
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "optimize",
            "--config",
            str(system_cfg),
            "--seed",
            "2",
            "--out",
            str(out),
            "--horizon",
            "10",
            "--lambda",
            "0.8",
            "--trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    sched = load_schedule(out)
    assert sched.kind == "privacy_aware" and sched.feedback
    header = trace.read_text().splitlines()[0]
    assert header == "iter,objective,stderr,sampling_rate,grad_norm_theta,grad_norm_phi"
    expected = optimize_lambda(system_from_config(SYSTEM_CFG), 0.8, 10, 2).schedule
    assert sched.to_config() == expected.to_config()


def test_sweep_tradeoff_and_rate_curve(system_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PRIVSAMPLE_THREADS", "2")
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=12, MAX_ITERS=3, VALIDATION_ROLLOUTS=24)
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep-tradeoff",
            "--config",
            str(system_cfg),
            "--seed",
            "5",
            "--out",
            str(out),
            "--horizon",
            "10",
            "--rollouts",
            "400",
            "--lambdas",
            "1.0",
            "--f-grid",
            "0.5,4",
            "--noise-grid",
            "1.0",
            "--leak-rollouts",
            "30",
        ]
    )
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("family,f_spec,lambda,mean_x_error")
    families = {l.split(",")[0] for l in lines[1:] if l}
    assert families == {"open_loop", "additive_noise", "optimized"}
    # additive-noise leak column is blank (not defined by this machinery)
    noise_row = next(l for l in lines[1:] if l.startswith("additive_noise"))
    assert noise_row.split(",")[7] == ""

    rate_out = tmp_path / "rate.csv"
    rc = main(
        [
            "rate-curve",
            "--config",
            str(system_cfg),
            "--seed",
            "5",
            "--out",
            str(rate_out),
            "--horizon",
            "10",
            "--rollouts",
            "400",
            "--lambdas",
            "1.0",
            "--f-grid",
            "0.5,4",
        ]
    )
    assert rc == 0
    header = rate_out.read_text().splitlines()[0]
    assert header == "family,f_spec,sampling_rate,mean_x_error,x_error_stderr"


def test_readme_cli_synopsis_lists_each_commands_flags():
    """The README's CLI block names every flag of each subcommand, and no
    flag that the parser does not have."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        program, command, *rest = line.split()
        assert program == "privsample" and command not in documented
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {flag for flag in p._option_string_actions if flag.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert documented == parsed


def test_finite_dp_command(tmp_path):
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(FINITE_CFG))
    out = tmp_path / "dp.csv"
    rc = main(
        ["finite-dp", "--config", str(cfg), "--seed", "1", "--out", str(out), "--lambda", "0.5"]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stage,node,value,argmin_policy"
    assert lines[1].startswith("0,root,")


def test_contract_violation_is_exit_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ContractViolation("broken precondition")

    monkeypatch.setattr(cli, "dp_solve", broken)
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(FINITE_CFG))
    out = tmp_path / "dp.csv"
    assert main(["finite-dp", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "contract violation: broken precondition\n"
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize(
    "command, config, schedule",
    [
        ("simulate", dict(SYSTEM_CFG, K="ten"), None),
        ("finite-dp", dict(FINITE_CFG, K="ten"), None),
        ("simulate", dict(SYSTEM_CFG, K=2.5), None),
        ("finite-dp", dict(FINITE_CFG, K=2.5), None),
        ("simulate", [SYSTEM_CFG], None),
        ("finite-dp", [FINITE_CFG], None),
        ("simulate", SYSTEM_CFG, {"f_chol": [[[1.0]], [[1.0, 0.0]]]}),
        ("simulate", SYSTEM_CFG, {"f_chol": [[["one"]], [["one"]]]}),
        ("simulate", SYSTEM_CFG, {"feedback": "false"}),
        ("finite-dp", dict(FINITE_CFG, y_kernel=[[0.8, 0.2], [0.3]]), None),
    ],
    ids=[
        "K_text", "finite_K_text", "K_fraction", "finite_K_fraction", "list",
        "finite_list", "schedule_ragged", "schedule_text", "schedule_feedback_text",
        "finite_ragged_kernel",
    ],
)
def test_malformed_file_is_exit_3(tmp_path, capsys, command, config, schedule):
    """A config that is not an object or has a non-integer K, a schedule
    f_chol that is ragged or not numeric or a schedule feedback that is not
    a boolean, and a ragged finite-model kernel."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(cfg), "--out", str(out)]
    if schedule is not None:
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({
            "kind": "privacy_aware", "f_chol": [[[1.0]], [[1.0]]], "g": [[0.0], [0.0]],
            "feedback": True, **schedule,
        }))
        args += ["--schedule", str(path), "--horizon", "1"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_finite_dp_rejects_long_horizons(tmp_path):
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(dict(FINITE_CFG, K=7)))
    rc = main(["finite-dp", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def _python(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this privsample."""
    env = dict(os.environ, PYTHONPATH=str(Path(privsample.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.strip()


# modules only `validate` may load: the oracles and every scipy module
_VALIDATE_ONLY = (
    "[m for m in sorted(sys.modules) if m in ('privsample.validation', 'privsample.oracles') "
    "or m.split('.')[0] == 'scipy']"
)


def test_cli_import_leaves_validation_unloaded():
    assert _python(f"import sys, privsample.cli; print({_VALIDATE_ONLY})") == "[]"


def test_commands_other_than_validate_load_no_scipy(system_cfg, tmp_path):
    finite_cfg = tmp_path / "finite.json"
    finite_cfg.write_text(json.dumps(FINITE_CFG))
    code = textwrap.dedent(
        f"""
        import sys
        from privsample.cli import main
        cfg, finite, out = sys.argv[1:]
        from privsample import optimizer
        optimizer.MAX_ITERS, optimizer.ROLLOUTS_PER_STEP, optimizer.VALIDATION_ROLLOUTS = 1, 4, 8
        tiny = ["--horizon", "3"]
        runs = [
            ["simulate", "--config", cfg, "--horizon", "3", "--out", out + "/sim.csv",
             "--belief-trace", out + "/trace.csv"],
            ["sweep-tradeoff", "--config", cfg, "--out", out + "/sweep.csv", "--rollouts", "20",
             "--lambdas", "0.5", "--f-grid", "1", "--noise-grid", "0.5", "--leak-rollouts", "4"]
            + tiny,
            ["rate-curve", "--config", cfg, "--out", out + "/rate.csv", "--rollouts", "20",
             "--lambdas", "", "--f-grid", "1", "--horizon", "3"],
            ["optimize", "--config", cfg, "--out", out + "/sched.json", "--lambda", "0.5"] + tiny,
            ["finite-dp", "--config", finite, "--out", out + "/dp.csv", "--horizon", "1"],
        ]
        print([main(args) for args in runs], {_VALIDATE_ONLY})
        """
    )
    assert _python(code, str(system_cfg), str(finite_cfg), str(tmp_path)) == "[0, 0, 0, 0, 0] []"


def test_sweeps_run_on_a_two_dimensional_x(tmp_path):
    cfg = tmp_path / "nx2.json"
    cfg.write_text(
        json.dumps(
            {
                "A": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
                "Q": [[1.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 1.0]],
                "P0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "nx": 2,
                "ny": 1,
                "K": 4,
            }
        )
    )
    common = ["--config", str(cfg), "--lambdas", "", "--f-grid", "1", "--rollouts", "40"]
    sweep, rate = tmp_path / "sweep.csv", tmp_path / "rate.csv"
    args = ["sweep-tradeoff", "--out", str(sweep), "--noise-grid", "0,0.5", "--leak-rollouts", "4"]
    assert main(args + common) == 0
    assert main(["rate-curve", "--out", str(rate)] + common) == 0
    rows = [l.split(",") for l in sweep.read_text().splitlines()[1:] if not l.startswith("#")]
    assert [r[:2] for r in rows] == [
        ["open_loop", "f=1"],
        ["additive_noise", "var=0"],
        ["additive_noise", "var=0.5"],
    ]
    assert float(rows[0][7]) > 0.0  # x is correlated with the private y
    assert float(rows[1][3]) == 0.0  # a noiseless channel reconstructs x exactly
    rate_rows = [l for l in rate.read_text().splitlines()[1:] if not l.startswith("#")]
    assert [r.split(",")[:2] for r in rate_rows] == [["open_loop", "f=1"]]


def test_validate_filtered_runs_and_exit_codes(tmp_path, capsys, monkeypatch):
    rc = main(["validate", "--names", "determinant,decide", "--out", str(tmp_path / "v.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "determinant_schur_identity" in out

    from privsample import validation

    def failing_check():
        return validation.CheckResult(name="forced_failure", passed=False, detail="boom")

    monkeypatch.setattr(validation, "ALL_CHECKS", (failing_check,))
    rc = main(["validate"])
    assert rc == 2


def test_validate_filter_matching_no_check_is_exit_3(tmp_path, capsys):
    """The result names printed are not the check function names the
    filters match, so a filter of them must not pass by running nothing."""
    out = tmp_path / "v.csv"
    args = ["validate", "--names", "belief_vs_quadrature_bayes,eq18_monte_carlo"]
    assert main(args + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "no check matches --names 'belief_vs_quadrature_bayes', 'eq18" in captured.err
    assert "check_belief_vs_grid_filter" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("names", [",", "determinant,", ""])
def test_validate_empty_filter_is_exit_3(tmp_path, capsys, monkeypatch, names):
    """An empty filter is in every check name, so it must not select the
    whole suite."""
    from privsample import validation

    ran = []
    monkeypatch.setattr(validation, "ALL_CHECKS", (lambda: ran.append(1),))
    out = tmp_path / "v.csv"
    assert main(["validate", "--names", names, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"empty filter in --names {names!r}" in captured.err
    assert not ran and not out.exists()


def test_bad_threads_env_is_exit_3(system_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PRIVSAMPLE_THREADS", "many")
    rc = main(
        [
            "sweep-tradeoff",
            "--config",
            str(system_cfg),
            "--seed",
            "1",
            "--out",
            str(tmp_path / "s.csv"),
            "--horizon",
            "5",
            "--rollouts",
            "50",
            "--lambdas",
            "",
            "--f-grid",
            "1.0",
            "--noise-grid",
            "",
            "--leak-rollouts",
            "10",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_threads_below_one_is_exit_3(system_cfg, tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("PRIVSAMPLE_THREADS", cap)
    out = tmp_path / "s.csv"
    args = ["rate-curve", "--config", str(system_cfg), "--out", str(out), "--horizon", "2"]
    assert main(args + ["--rollouts", "5", "--lambdas", "", "--f-grid", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err == f"configuration error: PRIVSAMPLE_THREADS value {cap} must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["nx", "ny"])
@pytest.mark.parametrize("value", [1.5, "1", True, 0, None], ids=["fraction", "text", "bool", "zero", "null"])
def test_non_count_dimension_is_exit_3(tmp_path, capsys, key, value):
    """nx and ny are JSON integers >= 1, checked like K."""
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(dict(SYSTEM_CFG, **{key: value})))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--horizon", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config {key} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", ["config_dir", "config_not_utf8", "schedule_dir"])
def test_unreadable_input_path_is_exit_3(system_cfg, tmp_path, capsys, case):
    """A directory or undecodable bytes where a JSON file should be."""
    config, extra = system_cfg, []
    if case == "config_dir":
        config = tmp_path
    elif case == "config_not_utf8":
        config = tmp_path / "bytes.json"
        config.write_bytes(b"\xff\xfe{")
    else:
        extra = ["--schedule", str(tmp_path)]
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "simulate_trace", "optimize", "optimize_trace"])
def test_unwritable_output_is_exit_3(system_cfg, tmp_path, capsys, monkeypatch, command):
    """An output path below a regular file is one stderr line, not a
    traceback. Every output is checked before the command computes, so
    the outputs named before the bad one are not written either."""

    def computed(*args, **kwargs):
        raise AssertionError("the command computed before checking its outputs")

    monkeypatch.setattr(cli, "simulate_rollout", computed)
    monkeypatch.setattr(cli, "optimize_lambda", computed)
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = blocker / "x.csv"
    good = tmp_path / "first.out"
    args = ["--config", str(system_cfg), "--horizon", "2"]
    if command.startswith("simulate"):
        args = ["simulate", *args]
        flag = "--belief-trace"
    else:
        args = ["optimize", *args, "--lambda", "1"]
        flag = "--trace-out"
    if command.endswith("_trace"):
        args += ["--out", str(good), flag, str(bad)]
    else:
        args += ["--out", str(bad)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {bad}: ") and err.count("\n") == 1
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "system.json"]


def test_output_check_names_each_unwritable_path(tmp_path):
    """check_writable creates nothing and names the path it cannot write."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    check_writable([tmp_path / "new" / "deeper" / "out.csv", blocker])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    for path, reason in [
        (tmp_path, "it is a directory"),
        (blocker / "deeper" / "out.csv", f"{blocker} is not a directory"),
    ]:
        message = f"cannot write {path}: {reason}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            check_writable([tmp_path / "fine.csv", path])


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sweep-tradeoff", "--f-grid", "0"),
        ("sweep-tradeoff", "--f-grid", "-2"),
        ("sweep-tradeoff", "--noise-grid", "-1"),
        ("rate-curve", "--f-grid", "0"),
        ("rate-curve", "--f-grid", "-2"),
    ],
)
def test_bad_grid_value_is_exit_3(system_cfg, tmp_path, capsys, command, flag, value):
    args = [command, "--config", str(system_cfg), "--out", str(tmp_path / "s.csv")]
    args += ["--horizon", "3", "--rollouts", "20", "--lambdas", "", flag, value]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert flag in err and f"value {value} " in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("optimize", "--lambda", "-1"),
        ("optimize", "--lambda", "nan"),
        ("sweep-tradeoff", "--lambdas", "-1"),
        ("sweep-tradeoff", "--lambdas", "0.5,inf"),
        ("rate-curve", "--lambdas", "-1"),
    ],
)
def test_bad_lambda_is_exit_3(system_cfg, tmp_path, capsys, command, flag, value):
    args = [command, "--config", str(system_cfg), "--out", str(tmp_path / "s.csv")]
    args += ["--horizon", "3", f"{flag}={value}"]
    if command != "optimize":
        args += ["--rollouts", "20"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "--lambda" in err and "must be finite and non-negative" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, "--horizon", "-1") for c in ("simulate", "sweep-tradeoff", "rate-curve", "optimize")]
    + [(c, "K", "-1") for c in ("simulate", "sweep-tradeoff", "rate-curve", "optimize")]
    + [
        ("sweep-tradeoff", "--rollouts", "0"),
        ("rate-curve", "--rollouts", "0"),
        ("sweep-tradeoff", "--leak-rollouts", "0"),
        ("simulate", "--schedule", "nx2.json"),
    ],
)
def test_unrunnable_input_is_exit_3(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(dict(SYSTEM_CFG, K=int(value)) if flag == "K" else SYSTEM_CFG))
    if flag == "--schedule":  # an n_x = 2 schedule for the n_x = 1 system
        value = str(tmp_path / value)
        dump_schedule(open_loop_schedule(np.eye(2), 3), value)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    args += {"optimize": ["--lambda", "1"], "simulate": []}.get(command, ["--lambdas", ""])
    if flag not in ("--horizon", "K"):
        args += ["--horizon", "3"]
    if flag != "K":
        args += [flag, value]
    assert main(args) == 3
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "flags", [["--lambda=-1"], ["--lambda", "nan"], ["--horizon=-1"], ["--horizon", "3"]]
)
def test_finite_dp_rejects_bad_lambda_and_horizon(tmp_path, capsys, flags):
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(FINITE_CFG))
    out = tmp_path / "dp.csv"
    assert main(["finite-dp", "--config", str(cfg), "--out", str(out)] + flags) == 3
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-tradeoff", "rate-curve"])
def test_horizon_zero_leaves_the_error_stderr_blank(system_cfg, tmp_path, command):
    """K = 0 has one per-step error, so its standard error is undefined."""
    out = tmp_path / "s.csv"
    args = [command, "--config", str(system_cfg), "--out", str(out), "--horizon", "0"]
    args += ["--lambdas", "", "--f-grid", "1", "--rollouts", "20"]
    if command == "sweep-tradeoff":
        args += ["--noise-grid", "1", "--leak-rollouts", "2"]
    assert main(args) == 0
    header, *lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    blank = [i for i, name in enumerate(header.split(",")) if name.endswith("error_stderr")]
    assert rows and len(blank) == (2 if command == "sweep-tradeoff" else 1)
    for row in rows:
        assert all(row[i] == "" for i in blank)
        assert "nan" not in row


@pytest.mark.parametrize("leak_rollouts", [1, 2])
def test_one_leak_rollout_leaves_the_leak_stderr_blank(system_cfg, tmp_path, leak_rollouts):
    """One leak rollout has no standard error; two have a positive one."""
    out = tmp_path / "s.csv"
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--out", str(out), "--horizon", "3"]
    args += ["--lambdas", "", "--f-grid", "1", "--noise-grid", "", "--rollouts", "1"]
    assert main(args + ["--leak-rollouts", str(leak_rollouts)]) == 0
    header, *lines = out.read_text().splitlines()
    (row,) = [l.split(",") for l in lines if not l.startswith("#")]
    cell = row[header.split(",").index("leak_stderr")]
    if leak_rollouts == 1:
        assert cell == ""
    else:
        assert float(cell) > 0


def test_numerical_failure_is_exit_4(system_cfg, tmp_path, capsys):
    """x_{k+1} = y_k with Q_xx = 0: x_1 is a function of the private
    trajectory, so the leak is undefined at k = 1."""
    cfg = dict(SYSTEM_CFG, A=[[0.0, 1.0], [0.0, 0.5]], Q=[[0.0, 0.0], [0.0, 1.0]])
    system_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "s.csv"
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--out", str(out), "--horizon", "4"]
    args += ["--lambdas", "", "--f-grid", "1", "--noise-grid", "", "--rollouts", "20"]
    assert main(args + ["--leak-rollouts", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: x_k already known") and "at k=1" in err
    assert err.count("\n") == 1
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_failing_sweep_family_is_named(system_cfg, tmp_path, capsys):
    """Q_xx = 0 and A_xy = 0 make x_1 = 0.98 x_0, so the open-loop family
    f=1 keeps an already known x_1 after a kept x_0; the one stderr line
    names that family after the step."""
    cfg = dict(SYSTEM_CFG, A=[[0.98, 0.0], [0.0, 0.35]], Q=[[0.0, 0.0], [0.0, 4.0]], K=10)
    system_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "s.csv"
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--out", str(out), "--lambdas", ""]
    args += ["--rollouts", "50", "--leak-rollouts", "2", "--f-grid", "1,4", "--noise-grid", "1"]
    assert main(args) == 4
    assert capsys.readouterr().err == (
        "numerical failure: x_k already known (singular Cov(X_k | Y^(k-1), Z^(k-1))) at k=1"
        " in sweep family open_loop f=1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["simulate", "sweep-tradeoff", "rate-curve", "optimize", "finite-dp"]
)
def test_negative_seed_is_exit_3(system_cfg, tmp_path, capsys, command):
    cfg = system_cfg
    if command == "finite-dp":
        cfg = tmp_path / "finite.json"
        cfg.write_text(json.dumps(FINITE_CFG))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]
    args += {"optimize": ["--lambda", "1"], "sweep-tradeoff": ["--lambdas", ""]}.get(command, [])
    assert main(args) == 3
    assert capsys.readouterr().err == "configuration error: --seed value -1 must be >= 0\n"
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


@pytest.mark.parametrize(
    "command, key, entry, field",
    [
        ("simulate", "A", [[float("nan"), -0.9], [0.0, 0.35]], "a_matrix"),
        ("sweep-tradeoff", "A", [[float("nan"), -0.9], [0.0, 0.35]], "a_matrix"),
        ("simulate", "mean0", [float("nan"), 0.0], "init_mean"),
        ("sweep-tradeoff", "P0", [[float("inf"), 0.25], [0.25, 0.5]], "init_cov"),
        ("simulate", "Q", [[float("nan"), 0.1], [0.1, 4.0]], "q_cov"),
        ("finite-dp", "distortion", [[0.0, float("inf")], [1.0, 0.0]], "distortion"),
        ("finite-dp", "y_kernel", [[float("nan"), 0.2], [0.3, 0.7]], "y_kernel"),
    ],
)
def test_non_finite_config_entry_is_exit_3(tmp_path, capsys, command, key, entry, field):
    """JSON's NaN and Infinity are read, then refused by name before any
    other check or any run."""
    base = FINITE_CFG if command == "finite-dp" else SYSTEM_CFG
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(base, **{key: entry})))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(cfg), "--out", str(out), "--horizon", "1"]
    if command == "sweep-tradeoff":
        args += ["--lambdas", "", "--rollouts", "20"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert err.endswith(f"rejected: {field} has a non-finite entry\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-tradeoff"])
def test_overflowing_state_is_exit_4(system_cfg, tmp_path, capsys, command):
    """x_k grows like 1e4^k, so the simulated state leaves the float range
    at k = 78 of K = 100: the run stops there with one line, before any
    RuntimeWarning (the suite makes those errors) or any NaN row."""
    system_cfg.write_text(json.dumps(dict(SYSTEM_CFG, A=[[1e4, -0.9], [0.0, 0.35]], K=100)))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(system_cfg), "--out", str(out)]
    if command == "sweep-tradeoff":
        args += ["--lambdas", "", "--rollouts", "20", "--f-grid", "1", "--noise-grid", "1"]
    assert main(args) == 4
    where = "simulate" if command == "simulate" else "sweep family open_loop's trajectories"
    assert capsys.readouterr().err == (
        f"numerical failure: overflow encountered in matmul at k=78 in {where}\n"
    )
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_overflowing_engine_pass_is_exit_4(system_cfg, tmp_path, capsys):
    """With A = 30 I the f-scan's covariances leave the float range at
    k = 105 of K = 120: the run stops there with one line naming the step
    and the scan's first start, before any RuntimeWarning (the suite makes
    those errors), any NaN mean or any output."""
    system_cfg.write_text(json.dumps(dict(SYSTEM_CFG, A=[[30.0, 0.0], [0.0, 30.0]], K=120)))
    out, trace = tmp_path / "s.json", tmp_path / "trace.csv"
    args = ["optimize", "--config", str(system_cfg), "--lambda", "12", "--out", str(out)]
    assert main(args + ["--trace-out", str(trace)]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: overflow encountered in matmul at k=105 in the f-scan at f0=0.3\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["system.json"]


def test_sweep_simulates_each_stream_once(system_cfg, tmp_path, monkeypatch):
    """The grid values of one family share its stream's trajectories: one
    simulate_batch call per stream in use, each made after the earlier
    families' trajectories are gone, none for the exact additive-noise
    baseline, and every open-loop report equals evaluate_schedule run
    alone on a fresh stream, bit for bit."""
    from privsample import lingauss, reconstruct
    from privsample.rngs import substream

    sims, reports, simulated = [], {}, []

    def counting(*args, **kwargs):
        sims.append(args[1:3])
        assert [ref() for ref in simulated] == [None] * len(simulated)
        states = lingauss.simulate_batch(*args, **kwargs)
        simulated.append(weakref.ref(states))
        return states

    def recording(system, schedule, *args, **kwargs):
        report = reconstruct.evaluate_schedule(system, schedule, *args, **kwargs)
        reports[round(float(schedule.f_at(0)[0, 0]), 9)] = report
        return report

    monkeypatch.setattr(cli, "simulate_batch", counting)
    monkeypatch.setattr(reconstruct, "simulate_batch", counting)
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--seed", "3", "--horizon", "8"]
    args += ["--rollouts", "300", "--leak-rollouts", "2", "--f-grid", "0.5,4", "--noise-grid", "1,2"]
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=2, VALIDATION_ROLLOUTS=8)
    assert main(args + ["--lambdas", "1.0", "--out", str(tmp_path / "a.csv")]) == 0
    assert sims == [(8, 300)] * 2
    sims.clear()
    monkeypatch.setattr(cli, "evaluate_schedule", recording)
    assert main(args + ["--lambdas", "", "--out", str(tmp_path / "b.csv")]) == 0
    assert sims == [(8, 300)]
    monkeypatch.undo()

    system = system_from_config(SYSTEM_CFG)
    assert reports.keys() == {0.5, 4.0}
    for f_val, report in reports.items():
        alone = reconstruct.evaluate_schedule(
            system, open_loop_schedule(f_val * np.eye(1), 8), 8, 300, substream(3, 100)
        )
        for field in ("x_errors", "y_errors", "predicted_x_errors", "predicted_y_errors"):
            assert np.array_equal(getattr(report, field), getattr(alone, field)), (f_val, field)
        assert report.sampling_rate == alone.sampling_rate


def test_sweep_rows_do_not_depend_on_the_noise_grid(system_cfg, tmp_path, monkeypatch):
    """The additive-noise baseline draws from no stream, so the open-loop
    and optimized rows are the same bytes with and without its grid."""
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=2, VALIDATION_ROLLOUTS=8)
    args = ["sweep-tradeoff", "--config", str(system_cfg), "--seed", "5", "--horizon", "8"]
    args += ["--rollouts", "200", "--leak-rollouts", "2", "--f-grid", "0.5,4", "--lambdas", "1.0"]
    rows = {}
    for name, grid in (("none", ["--noise-grid", ""]), ("default", [])):
        out = tmp_path / f"{name}.csv"
        assert main(args + grid + ["--out", str(out)]) == 0
        lines = out.read_text().split("# metadata")[0].splitlines()[1:]
        rows[name] = [l for l in lines if not l.startswith("additive_noise")]
    assert [l.split(",")[0] for l in rows["none"]] == ["open_loop"] * 2 + ["optimized"]
    assert rows["none"] == rows["default"]


def test_sweep_leaks_run_on_the_calling_thread(tmp_path, monkeypatch):
    """The pool's tasks evaluate and optimize; every leak estimate runs on
    the main thread, and the CSV is the same for one worker and for two."""
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return leak_estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "leak_estimate", recording)
    config = Path(__file__).parents[1] / "perfbench" / "configs" / "coupled.json"
    args = ["sweep-tradeoff", "--config", str(config), "--horizon", "6", "--rollouts", "200"]
    args += ["--leak-rollouts", "3", "--f-grid", "1,4", "--noise-grid", "1", "--lambdas", "1"]
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=2, VALIDATION_ROLLOUTS=8)
    written = {}
    for cap in ("1", "2"):
        monkeypatch.setenv("PRIVSAMPLE_THREADS", cap)
        out = tmp_path / f"threads{cap}.csv"
        assert main(args + ["--out", str(out)]) == 0
        written[cap] = out.read_bytes()
    # two open-loop rows and one optimized row per run
    assert threads == [threading.main_thread()] * 6
    assert written["1"] == written["2"]


def test_overflowing_leader_step_is_exit_4(system_cfg, tmp_path, capsys, monkeypatch):
    """alpha = 1e308 overflows the first leader step; the failure names the
    step, not the non-finite gradient that the clipped move would cause."""
    set_leader(monkeypatch, ALPHA=1e308, MAX_ITERS=3)
    out = tmp_path / "s.json"
    args = ["optimize", "--config", str(system_cfg), "--lambda", "12", "--out", str(out)]
    args += ["--horizon", "20"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 4
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: leader step overflowed at iteration 0: alpha=1e+308")
    assert err.count("\n") == 1
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


_FAULTS = """
import resource, sys
from privsample import cli
if sys.argv[1] == "off":
    cli._keep_freed_pages = lambda: None
rc = cli.main(sys.argv[2:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's mallopt")
def test_main_keeps_freed_pages_on_glibc(tmp_path, monkeypatch):
    """A 10 000-row sweep faults in fresh pages at every filter step unless
    freed blocks stay in the heap; the CSV does not depend on it."""
    monkeypatch.setenv("PRIVSAMPLE_THREADS", "2")
    config = Path(__file__).parents[1] / "perfbench" / "configs" / "paper.json"
    args = ["sweep-tradeoff", "--config", str(config), "--lambdas", "", "--horizon", "20"]
    args += ["--rollouts", "10000", "--leak-rollouts", "50"]
    faults = {}
    for side in ("on", "off"):
        rc, faults[side] = _python(_FAULTS, side, *args, "--out", str(tmp_path / f"{side}.csv")).split()
        assert rc == "0"
    assert int(faults["on"]) < int(faults["off"]) / 2, faults
    assert (tmp_path / "on.csv").read_bytes() == (tmp_path / "off.csv").read_bytes()


@pytest.mark.parametrize("case", ["confstr_raises", "not_glibc", "no_mallopt"])
def test_keep_freed_pages_returns_quietly_elsewhere(tmp_path, monkeypatch, case):
    def confstr_raises(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def cdll_unreached(name):
        raise AssertionError("the C library was opened off glibc")

    if case == "no_mallopt":
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    else:
        monkeypatch.setattr(os, "confstr", confstr_raises if case == "confstr_raises" else lambda name: None)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll_unreached)
    cli._keep_freed_pages()
    cfg = tmp_path / "finite.json"
    cfg.write_text(json.dumps(FINITE_CFG))
    assert main(["finite-dp", "--config", str(cfg), "--out", str(tmp_path / "dp.csv")]) == 0
