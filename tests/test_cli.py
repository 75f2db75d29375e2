import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privsample
from privsample.cli import main
from privsample.configio import config_hash, load_schedule, system_from_config
from privsample.optimizer import OptimizerConfig, optimize_lambda


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


def test_cli_import_leaves_validation_unloaded():
    code = (
        "import sys, privsample.cli; "
        "print([m for m in ('privsample.validation', 'privsample.oracles') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(privsample.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


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
