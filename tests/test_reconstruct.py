from dataclasses import replace

import numpy as np
import pytest

from privsample import belief as bel
from privsample.errors import ContractViolation, NumericalFailure
from privsample.linalg import random_spd
from privsample.lingauss import LinearGaussianSystem, simulate_batch
from privsample.loss import belief_rollout, one_step_loss
from privsample.optimizer import _branch_step, _fast_schedule_batch, _sandwich
from privsample.policy import degenerate_schedule, open_loop_schedule, privacy_aware_schedule
from privsample.reconstruct import (
    estimate_y,
    evaluate_schedule,
    kalman_additive_baseline,
    reconstruct_x,
)
from privsample.rngs import make_rng
from tests.test_optimizer import SYSTEMS, _random_system


def test_reconstruct_after_sample_is_observation(vi_system):
    b = bel.init_belief(vi_system)
    filt = bel.update_sample(b, np.array([0.42]))
    assert np.array_equal(reconstruct_x(filt), [0.42])


def test_reconstruct_requires_filtered(vi_system):
    with pytest.raises(ContractViolation):
        reconstruct_x(bel.init_belief(vi_system))
    with pytest.raises(ContractViolation):
        estimate_y(bel.init_belief(vi_system))


def test_never_sampling_reconstructs_prior_mean(vi_system):
    steps = belief_rollout(
        vi_system, degenerate_schedule("never_sample", 6, 1), 6, make_rng(1), mode="state"
    )
    filtered = [s.filtered for s in steps]
    # zero-mean system: prior mean trajectory stays at zero
    assert np.allclose(np.array([reconstruct_x(b) for b in filtered]), 0.0, atol=1e-9)
    assert np.allclose(np.array([estimate_y(b) for b in filtered]), 0.0, atol=1e-9)


def test_conditional_mean_minimizes_quadratic_error():
    """Grid-search oracle for the squared-error optimality of the mean."""
    rng = make_rng(2)
    cov = random_spd(rng, 2)
    mean = rng.standard_normal(2)
    b = bel.GaussianBelief(mean=mean, cov=cov, k=0, phase=bel.PREDICTED, n_x=1, n_y=1)
    filt = bel.update_no_sample(b, [[0.8]], [0.3])
    draws = filt.mean[0] + np.sqrt(filt.cov[0, 0]) * rng.standard_normal(200_000)
    grid = np.linspace(filt.mean[0] - 1.0, filt.mean[0] + 1.0, 201)
    losses = ((draws[None, :] - grid[:, None]) ** 2).mean(axis=1)
    best = grid[np.argmin(losses)]
    assert abs(best - reconstruct_x(filt)[0]) < 2e-2


def test_estimate_y_is_current_block(vi_system):
    b = bel.init_belief(vi_system)
    filt = bel.update_sample(b, np.array([1.0]))
    assert np.allclose(estimate_y(filt), filt.mean[1:2])


def _system(vi_system, name):
    return vi_system if name == "paper" else _random_system(*SYSTEMS[name])


@pytest.mark.parametrize("name", ["paper", "nx1_ny2", "nx2_ny1", "nx2_ny2"])
def test_branch_step_matches_full_recursion(vi_system, name):
    """Two rows on complementary forced patterns, each against the growing
    belief's current (x, y) block; the random systems have A_yx != 0."""
    system = _system(vi_system, name)
    nx, n = system.n_x, system.n
    p = np.repeat(system.init_cov[None], 2, axis=0)
    mean = np.repeat(system.init_mean[None], 2, axis=0)
    beliefs = [bel.init_belief(system)] * 2
    f = 0.9 * np.eye(nx)
    g = np.full(nx, 0.1)
    for k in range(6):
        z = np.full(nx, 0.5 - 0.2 * k)
        keep = np.array([k % 3 == 0, k % 3 != 0])
        p, _, mean = _branch_step(p, None, mean, f, None, keep, np.where(keep[:, None], z, g), k)
        for r in range(2):
            b = beliefs[r]
            b = bel.update_sample(b, z) if keep[r] else bel.update_no_sample(b, f, g)
            assert np.allclose(mean[r], b.mean[:n], atol=1e-12)
            assert np.allclose(p[r], b.cov[:n, :n], atol=1e-12)
            if keep[r]:  # a kept x is known exactly
                assert np.array_equal(mean[r, :nx], z)
                assert not np.any(p[r, :nx]) and not np.any(p[r, :, :nx])
            beliefs[r] = bel.predict(system, b)
        p = _sandwich(system.a_matrix.T, p) + system.q_cov
        mean = mean @ system.a_matrix.T


@pytest.mark.parametrize("kind", ["always_sample", "never_sample"])
@pytest.mark.parametrize("name", ["paper", "nx2_ny2"])
def test_predicted_errors_are_the_belief_traces(vi_system, name, kind):
    """Under the degenerate schedules every covariance is deterministic."""
    system = _system(vi_system, name)
    nx, n, horizon = system.n_x, system.n, 8
    sched = degenerate_schedule(kind, horizon, nx)
    report = evaluate_schedule(system, sched, horizon, 3, make_rng(15))
    b = bel.init_belief(system)
    px, py = [], []
    for _ in range(horizon + 1):
        if kind == "always_sample":
            b = bel.update_sample(b, np.zeros(nx))
        else:  # never-sample conditions on nothing
            b = replace(b, phase=bel.FILTERED)
        px.append(np.trace(b.cov[:nx, :nx]))
        py.append(np.trace(b.cov[nx:n, nx:n]))
        b = bel.predict(system, b)
    np.testing.assert_allclose(report.predicted_x_errors, px, rtol=1e-12)
    np.testing.assert_allclose(report.predicted_y_errors, py, rtol=1e-12)


def test_kept_x_already_known_names_the_step():
    """x_{k+1} = 0.9 x_k exactly, so keeping x_0 makes P^xx = 0 at k = 1."""
    system = LinearGaussianSystem(
        a_matrix=np.array([[0.9, 0.0], [0.3, 0.5]]),
        q_cov=np.diag([0.0, 1.0]),
        init_mean=np.zeros(2),
        init_cov=np.eye(2),
        n_x=1,
        n_y=1,
    )
    always = degenerate_schedule("always_sample", 4, 1)
    with pytest.raises(NumericalFailure, match=r"k=1\b"):
        evaluate_schedule(system, always, 4, 50, make_rng(17))
    with pytest.raises(NumericalFailure, match=r"k=1\b"):
        _fast_schedule_batch(system, always, 0.5, 50, 4, make_rng(18))


def test_always_sample_report(vi_system):
    report = evaluate_schedule(
        vi_system, degenerate_schedule("always_sample", 10, 1), 10, 500, make_rng(4)
    )
    assert report.sampling_rate == 1.0
    assert report.mean_x_error < 1e-20


def test_never_sample_report_matches_prior_trace(vi_system):
    rollouts = 4000
    report = evaluate_schedule(
        vi_system, degenerate_schedule("never_sample", 8, 1), 8, rollouts, make_rng(5)
    )
    assert report.sampling_rate == 0.0
    # calibration: realized squared error tracks the open-loop prior variance
    assert np.allclose(report.x_errors, report.predicted_x_errors, rtol=0.15)
    assert report.mean_x_error == pytest.approx(
        float(np.mean(report.predicted_x_errors)), rel=0.05
    )


def test_filter_calibration_under_stochastic_schedule(vi_system):
    horizon, rollouts = 12, 6000
    sched = open_loop_schedule(np.array([[1.2]]), horizon)
    report = evaluate_schedule(vi_system, sched, horizon, rollouts, make_rng(6))
    # empirical mean squared errors match the belief-predicted traces
    assert report.mean_x_error == pytest.approx(
        float(np.mean(report.predicted_x_errors)), rel=0.05
    )
    assert report.mean_y_error == pytest.approx(
        float(np.mean(report.predicted_y_errors)), rel=0.05
    )


def test_feedback_schedule_evaluation_runs(vi_system):
    horizon = 8
    sched = privacy_aware_schedule(
        np.full((horizon + 1, 1, 1), 1.0), np.zeros((horizon + 1, 1)), feedback=True
    )
    report = evaluate_schedule(vi_system, sched, horizon, 2000, make_rng(7))
    assert 0.0 < report.sampling_rate < 1.0
    assert report.mean_x_error > 0


def test_kalman_baseline_exact_observation_limit(vi_system):
    report = kalman_additive_baseline(vi_system, [[1e-12]], 10, 1000, make_rng(8))
    assert report.sampling_rate == 1.0
    assert report.mean_x_error < 1e-6
    always = evaluate_schedule(
        vi_system, degenerate_schedule("always_sample", 10, 1), 10, 1000, make_rng(9)
    )
    assert report.mean_y_error == pytest.approx(always.mean_y_error, rel=0.15)


def test_kalman_baseline_uninformative_limit(vi_system):
    noisy = kalman_additive_baseline(vi_system, [[1e10]], 10, 2000, make_rng(10))
    never = evaluate_schedule(
        vi_system, degenerate_schedule("never_sample", 10, 1), 10, 2000, make_rng(11)
    )
    assert noisy.mean_x_error == pytest.approx(never.mean_x_error, rel=0.1)
    assert noisy.mean_y_error == pytest.approx(never.mean_y_error, rel=0.1)


def test_kalman_baseline_noise_must_be_psd(vi_system):
    with pytest.raises(ContractViolation, match="noise_cov"):
        kalman_additive_baseline(vi_system, [[-1.0]], 4, 10, make_rng(20))
    exact = kalman_additive_baseline(vi_system, [[0.0]], 4, 10, make_rng(20))
    assert exact.mean_x_error < 1e-20


def test_kalman_baseline_singular_noise_is_exact_on_its_null_space():
    n = 3
    system = LinearGaussianSystem(
        a_matrix=0.5 * np.eye(n),
        q_cov=np.eye(n),
        init_mean=np.zeros(n),
        init_cov=np.eye(n),
        n_x=2,
        n_y=1,
    )
    singular = kalman_additive_baseline(system, np.diag([1.0, 0.0]), 6, 400, make_rng(21))
    near = kalman_additive_baseline(system, np.diag([1.0, 1e-12]), 6, 400, make_rng(21))
    # the noiseless coordinate is observed exactly, so only the first one errs
    assert np.isclose(singular.mean_x_error, near.mean_x_error, rtol=1e-9)
    assert singular.mean_x_error > 0.0
    assert np.all(singular.predicted_x_errors < 1.0)


def test_kalman_innovation_whiteness(vi_system):
    """Normalized innovations of the baseline filter have unit variance."""
    rng = make_rng(12)
    noise_cov = np.array([[0.6]])
    rollouts, horizon = 100, 99
    states = simulate_batch(vi_system, horizon, rollouts, rng)
    p = np.repeat(vi_system.init_cov[None], rollouts, axis=0)
    mean = np.repeat(vi_system.init_mean[None], rollouts, axis=0)
    none_kept = np.zeros(rollouts, dtype=bool)
    normalized = []
    for k in range(horizon + 1):
        x_true = states[k][:, :1]
        obs = x_true + np.sqrt(noise_cov[0, 0]) * rng.standard_normal((rollouts, 1))
        s = p[:, 0, 0] + noise_cov[0, 0]
        normalized.append((obs[:, 0] - mean[:, 0]) / np.sqrt(s))
        p, _, mean = _branch_step(p, None, mean, noise_cov, None, none_kept, obs, k)
        if k < horizon:
            p = _sandwich(vi_system.a_matrix.T, p) + vi_system.q_cov
            mean = mean @ vi_system.a_matrix.T
    flat = np.concatenate(normalized)
    n = flat.size
    assert n == 10_000
    assert abs(flat.var(ddof=1) - 1.0) < 3 * np.sqrt(2.0 / n)
    assert abs(flat.mean()) < 3 / np.sqrt(n)


def test_rollout_log_structure_and_determinism(vi_system):
    sched = open_loop_schedule(np.array([[1.0]]), 8)
    log1 = list(belief_rollout(vi_system, sched, 8, make_rng(13), mode="state"))
    log2 = list(belief_rollout(vi_system, sched, 8, make_rng(13), mode="state"))
    assert len(log1) == 9
    for s in log1:
        assert (s.z is None) == (s.n == 0)
    assert [s.n for s in log1] == [s.n for s in log2]
    assert np.allclose(
        np.array([reconstruct_x(s.filtered) for s in log1]),
        np.array([reconstruct_x(s.filtered) for s in log2]),
    )
    totals = [one_step_loss(s.predicted, s.f, s.g, 0.5).total for s in log1]
    assert len(totals) == 9 and np.isfinite(totals).all()
