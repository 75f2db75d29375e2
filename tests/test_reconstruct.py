from dataclasses import replace

import numpy as np
import pytest

from privsample import belief as bel
from privsample.errors import ContractViolation, NumericalFailure
from privsample.linalg import psd_sqrt, random_spd
from privsample.lingauss import LinearGaussianSystem, simulate_batch
from privsample.loss import belief_rollout, one_step_loss
from privsample.engine import branch_step, mm, sandwich, transition
from privsample.optimizer import _fast_schedule_batch
from privsample.policy import degenerate_schedule, open_loop_schedule, privacy_aware_schedule
from privsample.reconstruct import evaluate_schedule, kalman_additive_baseline
from privsample.rngs import make_rng
from tests.test_optimizer import SYSTEMS, _coupled, _random_system


def test_reconstruct_after_sample_is_observation(vi_system):
    b = bel.init_belief(vi_system)
    filt = bel.update_sample(b, np.array([0.42]))
    assert np.array_equal(filt.x_mean, [0.42])


def test_never_sampling_reconstructs_prior_mean(vi_system):
    steps = belief_rollout(
        vi_system, degenerate_schedule("never_sample", 6, 1), 6, make_rng(1), mode="state"
    )
    filtered = [s.filtered for s in steps]
    # zero-mean system: prior mean trajectory stays at zero
    assert np.allclose(np.array([b.x_mean for b in filtered]), 0.0, atol=1e-9)
    assert np.allclose(np.array([bel.marginal_y_current(b)[0] for b in filtered]), 0.0, atol=1e-9)


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
    assert abs(best - filt.x_mean[0]) < 2e-2


def test_estimate_y_is_current_block(vi_system):
    b = bel.init_belief(vi_system)
    filt = bel.update_sample(b, np.array([1.0]))
    assert np.allclose(bel.marginal_y_current(filt)[0], filt.mean[1:2])


def _system(vi_system, name):
    return vi_system if name == "paper" else _random_system(*SYSTEMS[name])


@pytest.mark.parametrize("name", ["paper", "nx1_ny2", "nx2_ny1", "nx2_ny2"])
def test_branch_step_matches_full_recursion(vi_system, name):
    """Two rows on complementary forced patterns, each against the growing
    belief's current (x, y) block; the random systems have A_yx != 0."""
    system = _system(vi_system, name)
    nx, n = system.n_x, system.n
    p = np.repeat(system.init_cov[..., None], 2, axis=-1)
    mean = np.repeat(system.init_mean[:, None], 2, axis=-1)
    beliefs = [bel.init_belief(system)] * 2
    f = 0.9 * np.eye(nx)
    g = np.full(nx, 0.1)
    for k in range(6):
        z = np.full(nx, 0.5 - 0.2 * k)
        keep = np.array([k % 3 == 0, k % 3 != 0])
        obs = np.where(keep, z[:, None], g[:, None])
        p, _, mean = branch_step(p, None, mean, f[..., None], None, keep, obs, k)
        for r in range(2):
            b = beliefs[r]
            b = bel.update_sample(b, z) if keep[r] else bel.update_no_sample(b, f, g)
            assert np.allclose(mean[:, r], b.mean[:n], atol=1e-12)
            assert np.allclose(p[..., r], b.cov[:n, :n], atol=1e-12)
            if keep[r]:  # a kept x is known exactly
                assert np.array_equal(mean[:nx, r], z)
                assert not np.any(p[:nx, :, r]) and not np.any(p[:, :nx, r])
            beliefs[r] = bel.predict(system, b)
        p = sandwich(system.a_matrix, p) + system.q_cov[..., None]
        mean = transition(system.a_matrix, mean)


def _rows_first(a, rows: int):
    """a (m, k, *rows) with its trailing ``rows`` axes moved to the front,
    as @ stacks matrices."""
    return np.moveaxis(a, (0, 1), (-2, -1)) if rows else a


@pytest.mark.parametrize("n_x", [1, 2])
def test_engine_contraction_equals_matmul_bitwise(n_x):
    """mm, the engine's contraction over an n_x (or n_y) axis, equals @ on
    the moved axes bit for bit, with stacked and shared (length-1 row axis)
    operands and zeroed rows, as on kept branches: length-1 contractions
    (outer products of n_x = 2 blocks included) and length-2 ones."""
    rng = make_rng(13)
    shapes = [
        ((3, n_x, 10000), (n_x, 3, 10000)),
        ((3, n_x, 10000), (n_x, n_x, 10000)),
        ((n_x, n_x, 10000), (n_x, n_x, 1)),
        ((1, n_x, 10000), (n_x, 3, 10000)),
        ((3, 1, 10000), (1, n_x, 10000)),
        ((n_x, 1, 1, 200), (1, n_x, 4, 200)),
        ((3, n_x, 1, 200), (n_x, n_x, 4, 200)),
        ((3, n_x, 4, 200), (n_x, 3, 1, 200)),
    ]
    for a_shape, b_shape in shapes:
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        a[..., ::7] = 0.0  # zero rows, as on kept branches
        rows = a.ndim - 2
        got = _rows_first(mm(a, b), rows)
        assert np.array_equal(got, _rows_first(a, rows) @ _rows_first(b, rows))


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


def test_filter_overflow_names_the_step(vi_system):
    """Never sampling on an unstable x (A_xx = 1e4) grows P^xx like 1e8^k,
    which leaves the float range at k = 39, while the simulated states
    (like 1e4^k) stay finite up to K = 60."""
    system = replace(vi_system, a_matrix=np.array([[1e4, -0.9], [0.0, 0.35]]))
    never = degenerate_schedule("never_sample", 60, 1)
    with pytest.raises(NumericalFailure, match=r"^overflow encountered in matmul at k=39$"):
        evaluate_schedule(system, never, 60, 10, make_rng(0))


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
    report = kalman_additive_baseline(vi_system, [[1e-12]], 10, 1000)
    assert report.sampling_rate == 1.0
    assert report.mean_x_error < 1e-6
    always = evaluate_schedule(
        vi_system, degenerate_schedule("always_sample", 10, 1), 10, 1000, make_rng(9)
    )
    assert report.mean_y_error == pytest.approx(always.mean_y_error, rel=0.15)


def test_kalman_baseline_uninformative_limit(vi_system):
    noisy = kalman_additive_baseline(vi_system, [[1e10]], 10, 2000)
    never = evaluate_schedule(
        vi_system, degenerate_schedule("never_sample", 10, 1), 10, 2000, make_rng(11)
    )
    assert noisy.mean_x_error == pytest.approx(never.mean_x_error, rel=0.1)
    assert noisy.mean_y_error == pytest.approx(never.mean_y_error, rel=0.1)


def test_kalman_baseline_noise_must_be_psd(vi_system):
    with pytest.raises(ContractViolation, match="noise_cov"):
        kalman_additive_baseline(vi_system, [[-1.0]], 4, 10)
    exact = kalman_additive_baseline(vi_system, [[0.0]], 4, 10)
    assert exact.mean_x_error < 1e-20


def _three_state():
    """n_x = 2, n_y = 1, for a channel noise exact along one coordinate."""
    n = 3
    return LinearGaussianSystem(
        a_matrix=0.5 * np.eye(n),
        q_cov=np.eye(n),
        init_mean=np.zeros(n),
        init_cov=np.eye(n),
        n_x=2,
        n_y=1,
    )


def test_kalman_baseline_singular_noise_is_exact_on_its_null_space():
    system = _three_state()
    singular = kalman_additive_baseline(system, np.diag([1.0, 0.0]), 6, 400)
    near = kalman_additive_baseline(system, np.diag([1.0, 1e-12]), 6, 400)
    # the noiseless coordinate is observed exactly, so only the first one errs
    assert np.isclose(singular.mean_x_error, near.mean_x_error, rtol=1e-9)
    assert singular.mean_x_error > 0.0
    assert np.all(singular.predicted_x_errors < 1.0)


def _additive_kalman(system, noise_cov, horizon: int, rollouts: int, rng):
    """The x + v Kalman filter on simulated rows, one ``branch_step`` per
    step. Yields, per step, the true states (B, n), the observations
    x + v (n_x, B), the predicted means (n, B) and covariances (n, n, B)
    and the filtered means (n, B)."""
    nx = system.n_x
    noise_cov = np.asarray(noise_cov, dtype=float)
    noise_fac = psd_sqrt(noise_cov)
    states = simulate_batch(system, horizon, rollouts, rng)
    p = np.repeat(system.init_cov[..., None], rollouts, axis=-1)
    mean = np.repeat(system.init_mean[:, None], rollouts, axis=-1)
    none_kept = np.zeros(rollouts, dtype=bool)
    for k in range(horizon + 1):
        if k:
            p = sandwich(system.a_matrix, p) + system.q_cov[..., None]
            mean = transition(system.a_matrix, mean)
        obs = (states[k][:, :nx] + rng.standard_normal((rollouts, nx)) @ noise_fac.T).T
        predicted = mean, p
        p, _, mean = branch_step(p, None, mean, noise_cov[..., None], None, none_kept, obs, k)
        yield states[k], obs, *predicted, mean


def _baseline_case(vi_system, name):
    """(system, channel noise) of a baseline check."""
    if name == "singular":
        return _three_state(), np.diag([1.0, 0.0])
    return (vi_system if name == "paper" else _coupled(vi_system)), np.array([[0.6]])


@pytest.mark.parametrize("name", ["paper", "coupled", "singular"])
def test_exact_baseline_matches_its_monte_carlo_filter(vi_system, name):
    """Each rollout's time-averaged squared errors under the simulated
    filter agree with the exact expectations, within 4 standard errors
    across rollouts."""
    system, noise_cov = _baseline_case(vi_system, name)
    nx, horizon, rollouts = system.n_x, 30, 4000
    exact = kalman_additive_baseline(system, noise_cov, horizon, rollouts)
    x_err, y_err = np.zeros((2, rollouts))
    steps = _additive_kalman(system, noise_cov, horizon, rollouts, make_rng(22))
    for states, _, _, _, mean in steps:
        err = (states.T - mean) ** 2
        x_err += np.sum(err[:nx], axis=0) / (horizon + 1)
        y_err += np.sum(err[nx:], axis=0) / (horizon + 1)
    for sample, expected in ((x_err, exact.mean_x_error), (y_err, exact.mean_y_error)):
        z = (sample.mean() - expected) / (sample.std(ddof=1) / np.sqrt(rollouts))
        assert abs(z) < 4, (z, sample.mean(), expected)


@pytest.mark.parametrize("name", ["paper", "coupled", "singular"])
def test_exact_baseline_errors_are_the_belief_traces(vi_system, name):
    """The growing belief conditioned on x + v at every step (a discard
    with f the channel noise) has the baseline's per-step traces."""
    system, noise_cov = _baseline_case(vi_system, name)
    nx, n, horizon = system.n_x, system.n, 8
    report = kalman_additive_baseline(system, noise_cov, horizon, 1)
    b = bel.init_belief(system)
    px, py = [], []
    for _ in range(horizon + 1):
        b = bel.update_no_sample(b, noise_cov, np.zeros(nx))
        px.append(np.trace(b.cov[:nx, :nx]))
        py.append(np.trace(b.cov[nx:n, nx:n]))
        b = bel.predict(system, b)
    np.testing.assert_allclose(report.x_errors, px, rtol=1e-12)
    np.testing.assert_allclose(report.y_errors, py, rtol=1e-12)
    assert report.sampling_rate == 1.0


def test_kalman_innovation_whiteness(vi_system):
    """Normalized innovations of the baseline filter have unit variance."""
    noise_var = 0.6
    normalized = [
        (obs[0] - mean[0]) / np.sqrt(p[0, 0] + noise_var)
        for _, obs, mean, p, _ in _additive_kalman(vi_system, [[noise_var]], 99, 100, make_rng(12))
    ]
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
        assert s.n in (0, 1)
        if s.n:  # a kept x is the reconstruction
            assert np.array_equal(s.filtered.x_mean, s.x)
    assert [s.n for s in log1] == [s.n for s in log2]
    assert np.allclose(
        np.array([s.filtered.x_mean for s in log1]),
        np.array([s.filtered.x_mean for s in log2]),
    )
    totals = [one_step_loss(s.predicted, s.f, s.g, 0.5).total for s in log1]
    assert len(totals) == 9 and np.isfinite(totals).all()
