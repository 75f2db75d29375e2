import numpy as np
import pytest

from privsample.errors import ContractViolation, NumericalFailure
from privsample.lingauss import LinearGaussianSystem, simulate_batch
from privsample.rngs import make_rng


def _system(a, q, mean0=None, cov0=None, nx=1, ny=1):
    n = nx + ny
    return LinearGaussianSystem(
        a_matrix=a,
        q_cov=q,
        init_mean=np.zeros(n) if mean0 is None else mean0,
        init_cov=np.zeros((n, n)) if cov0 is None else cov0,
        n_x=nx,
        n_y=ny,
    )


def test_noise_covariance_monte_carlo(vi_system):
    rng = make_rng(101)
    n_draws = 100_000
    w = vi_system.draw_noise(rng, size=n_draws)
    emp = w.T @ w / n_draws
    # entrywise three standard errors of a covariance estimate
    q = vi_system.q_cov
    for i in range(2):
        for j in range(2):
            se = np.sqrt((q[i, i] * q[j, j] + q[i, j] ** 2) / n_draws)
            assert abs(emp[i, j] - q[i, j]) < 3 * se


def test_noise_whiteness(vi_system):
    rng = make_rng(202)
    n_draws = 100_000
    w1 = vi_system.draw_noise(rng, size=n_draws)
    w2 = vi_system.draw_noise(rng, size=n_draws)
    cross = w1.T @ w2 / n_draws
    q = vi_system.q_cov
    for i in range(2):
        for j in range(2):
            se = np.sqrt(q[i, i] * q[j, j] / n_draws)
            assert abs(cross[i, j]) < 3 * se


def test_simulate_zero_horizon(vi_system):
    batch = simulate_batch(vi_system, 0, 3, make_rng(3))
    assert batch.shape == (1, 3, 2)


def test_simulate_deterministic_when_noise_free():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    mean0 = np.array([1.0, -2.0])
    sys_ = _system(a, np.zeros((2, 2)), mean0=mean0)
    batch = simulate_batch(sys_, 5, 3, make_rng(4))
    expect = mean0.copy()
    for k in range(6):
        assert np.allclose(batch[k], expect, atol=1e-12)
        expect = a @ expect


def test_first_step_mean_matches_dynamics(vi_system):
    rng = make_rng(55)
    n_runs = 100_000
    batch = simulate_batch(vi_system, 1, n_runs, rng)
    emp = batch[1].mean(axis=0)
    expect = vi_system.a_matrix @ vi_system.init_mean
    std = batch[1].std(axis=0, ddof=1) / np.sqrt(n_runs)
    assert np.all(np.abs(emp - expect) < 3 * std)


def test_spectral_radius_and_bounded_paths(vi_system):
    assert max(abs(np.linalg.eigvals(vi_system.a_matrix))) < 1
    batch = simulate_batch(vi_system, 100, 4, make_rng(8))
    assert np.isfinite(batch).all()
    assert np.max(np.abs(batch)) < 1e3


def test_invalid_covariance_rejected():
    with pytest.raises(ContractViolation):
        _system(np.eye(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ContractViolation):
        _system(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_simulate_batch_matches_a_loop_of_batched_draws(vi_system):
    """The batch is the initial draw, then per step the dynamics plus one
    noise draw, in that RNG order: the same seed reproduces it exactly."""
    horizon, rollouts = 3, 4
    batch = simulate_batch(vi_system, horizon, rollouts, make_rng(9))
    rng = make_rng(9)
    states = [vi_system.draw_initial(rng, size=rollouts)]
    for _ in range(horizon):
        states.append(states[-1] @ vi_system.a_matrix.T + vi_system.draw_noise(rng, size=rollouts))
    assert batch.shape == (horizon + 1, rollouts, 2)
    assert np.array_equal(batch, np.stack(states))


@pytest.mark.parametrize(
    "key, field, index, value",
    [("a", "a_matrix", (0, 0), np.nan), ("q", "q_cov", (1, 1), np.nan),
     ("mean0", "init_mean", (0,), np.nan), ("cov0", "init_cov", (0, 0), np.inf)],
)
def test_non_finite_entries_are_rejected_by_name(key, field, index, value):
    """A non-finite entry is named before any PSD or shape check reads it:
    a NaN in Q would otherwise read as a negative eigenvalue."""
    args = dict(a=np.eye(2), q=np.eye(2), mean0=np.zeros(2), cov0=np.eye(2))
    args[key][index] = value
    with pytest.raises(ContractViolation, match=f"^{field} has a non-finite entry$"):
        _system(**args)


def test_simulate_batch_names_the_step_where_the_state_overflows():
    """x_k grows like 1e4^k from x_0 = 1, so it passes the float range at
    k = 78; the batch fails there instead of warning and writing inf."""
    sys_ = _system(np.array([[1e4, 0.0], [0.0, 0.5]]), np.zeros((2, 2)), mean0=np.ones(2))
    assert np.isfinite(simulate_batch(sys_, 77, 2, make_rng(0))).all()
    with pytest.raises(NumericalFailure, match=r"^overflow encountered in matmul at k=78$"):
        simulate_batch(sys_, 100, 2, make_rng(0))
