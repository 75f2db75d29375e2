import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import privsample
from privsample.cli import main
from privsample.configio import config_hash, dump_schedule, load_schedule, system_from_config
from privsample.optimizer import OptimizerConfig, optimize_lambda
from privsample.policy import open_loop_schedule


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


def test_optimize_writes_loadable_schedule(system_cfg, tmp_path):
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
            "--opt-iters",
            "4",
            "--opt-rollouts",
            "16",
            "--opt-validation",
            "32",
            "--trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    sched = load_schedule(out)
    assert sched.kind == "privacy_aware" and sched.feedback
    header = trace.read_text().splitlines()[0]
    assert header == "iter,objective,stderr,sampling_rate,grad_norm_theta,grad_norm_phi"
    config = OptimizerConfig(alpha=0.25, rollouts_per_step=16, max_iters=4, seed=2, validation_rollouts=32)
    expected = optimize_lambda(config, system_from_config(SYSTEM_CFG), 0.8, 10).schedule
    assert sched.to_config() == expected.to_config()


def test_sweep_tradeoff_and_rate_curve(system_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PRIVSAMPLE_THREADS", "2")
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
            "--opt-iters",
            "3",
            "--opt-rollouts",
            "12",
            "--opt-validation",
            "24",
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
            "--opt-iters",
            "3",
            "--opt-rollouts",
            "12",
            "--opt-validation",
            "24",
        ]
    )
    assert rc == 0
    header = rate_out.read_text().splitlines()[0]
    assert header == "family,f_spec,sampling_rate,mean_x_error,x_error_stderr"


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
        tiny = ["--horizon", "3", "--opt-iters", "1", "--opt-rollouts", "4", "--opt-validation", "8"]
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
        ("optimize", "--opt-iters", "0"),
        ("optimize", "--opt-rollouts", "0"),
        ("optimize", "--opt-alpha", "0"),
        ("optimize", "--opt-validation", "1"),
        ("rate-curve", "--opt-iters", "0"),
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

