import math

import numpy as np
import pytest

from privsample import belief as bel
from privsample import optimizer
from privsample.errors import ContractViolation, NumericalFailure
from privsample.lingauss import LinearGaussianSystem
from privsample.loss import belief_rollout, rollout_losses
from privsample.optimizer import (
    Episode,
    FeedbackPolicyParams,
    LinearFollower,
    OptimizerConfig,
    _BatchEngine,
    _TangentFilter,
    _fast_gradient_batch,
    _fast_schedule_batch,
    _rollout_gradient_terms,
    _scalar_case,
    best_response_jacobian,
    exact_objective,
    exact_objective_and_gradient,
    follower_gradient,
    follower_hessian,
    general_policy_gradient,
    objective_gradient_linear,
    optimize_lambda,
    stackelberg_optimize,
)
from privsample.policy import open_loop_schedule
from privsample.rngs import make_rng

from privsample.oracles import central_difference


def _coupled(system, a_yx=0.30):
    """``system`` with x feeding the private state (A_yx != 0)."""
    a = system.a_matrix.copy()
    a[1, 0] = a_yx
    return LinearGaussianSystem(
        a_matrix=a,
        q_cov=system.q_cov,
        init_mean=system.init_mean,
        init_cov=system.init_cov,
        n_x=1,
        n_y=1,
    )


def _random_system(seed, n_x, n_y):
    """Stable random system with A_yx != 0 and positive definite Q and P0."""
    rng = make_rng(seed)
    n = n_x + n_y
    a = rng.standard_normal((n, n))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    assert np.all(a[n_x:, :n_x] != 0.0)
    q_fac, p_fac = rng.standard_normal((2, n, n))
    return LinearGaussianSystem(
        a_matrix=a,
        q_cov=q_fac @ q_fac.T / n + 0.3 * np.eye(n),
        init_mean=0.5 * rng.standard_normal(n),
        init_cov=p_fac @ p_fac.T / n + 0.3 * np.eye(n),
        n_x=n_x,
        n_y=n_y,
    )


def test_params_pack_roundtrip(vi_system):
    params = FeedbackPolicyParams.constant(vi_system, 4, f0=2.0, tied=False)
    sched = params.to_schedule()
    assert sched.feedback
    for k in range(5):
        assert np.allclose(sched.f_at(k), [[2.0]])
        assert np.allclose(sched.g[k], [0.0])


def test_tangent_filter_matches_belief_recursion(vi_system):
    filt = _TangentFilter(vi_system, 0)
    b = bel.init_belief(vi_system)
    f = np.array([[0.8]])
    df = np.zeros((0, 1, 1))
    for k in range(5):
        keep = k % 2 == 0
        filt.update(f, df, keep)
        b = (
            bel.update_sample(b, b.x_mean)
            if keep
            else bel.update_no_sample(b, f, b.x_mean + 0.0)
        )
        assert np.allclose(filt.p, b.cov, atol=1e-12)
        filt.predict()
        b = bel.predict(vi_system, b)
        assert np.allclose(filt.p, b.cov, atol=1e-12)
        b = bel.GaussianBelief(
            mean=b.mean, cov=b.cov, k=b.k, phase=bel.PREDICTED, n_x=1, n_y=1
        )


@pytest.mark.parametrize("n_x", [1, 2], ids=["paper", "nx2_coupled"])
def test_exact_gradient_matches_central_differences(vi_system, n_x):
    """K = 3 feedback schedule, per-coordinate relative error: the paper
    system, and an n_x = 2 system with A_yx != 0."""
    horizon = 3
    rng = make_rng(5)
    if n_x == 1:
        system, block = vi_system, np.array([0.3, 0.2])
    else:  # (log L11, L21, log L22, c1, c2)
        system, block = _random_system(11, 2, 1), np.array([0.3, 0.1, 0.2, 0.2, -0.1])
    theta0 = np.concatenate(
        [block + 0.1 * rng.standard_normal(block.size) for _ in range(horizon + 1)]
    )
    params = FeedbackPolicyParams(n_x, horizon, theta0, tied=False)
    lam = 0.8
    _, grad = exact_objective_and_gradient(params, system, lam)
    fd = central_difference(
        lambda th: exact_objective(params.replaced(th), system, lam), theta0, 1e-5
    )
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-3


@pytest.mark.parametrize("a_yx, batches", [(0.0, 200), (0.30, 48)], ids=["paper", "coupled"])
def test_estimator_unbiased_against_enumeration(vi_system, a_yx, batches):
    """Estimator mean within 3 SE of the exact gradient, on the paper
    system and with A_yx != 0."""
    system = _coupled(vi_system, a_yx)
    horizon = 5
    params = FeedbackPolicyParams.constant(system, horizon, f0=1.3, tied=True)
    params = params.replaced(params.theta + np.array([0.1, 0.25]))
    lam = 0.8
    _, exact_grad = exact_objective_and_gradient(params, system, lam)
    rng = make_rng(77)
    grads = np.array(
        [objective_gradient_linear(params, system, lam, 16, rng)[0] for _ in range(batches)]
    )
    se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
    assert np.all(np.abs(grads.mean(axis=0) - exact_grad) < 3 * se)


def test_center_gradient_vanishes_at_symmetric_optimum(vi_system):
    """Zero offsets are stationary for the c coordinates (any weights)."""
    horizon = 4
    params = FeedbackPolicyParams.constant(vi_system, horizon, f0=3.0, tied=False)
    _, grad = exact_objective_and_gradient(params, vi_system, 0.0)
    c_coords = [k * 2 + 1 for k in range(horizon + 1)]
    assert np.all(np.abs(grad[c_coords]) < 1e-12)


# ---------------------------------------------------------------------------
# Closed-form toy game: one step, scalar state, constant reconstructor
# ---------------------------------------------------------------------------

MU0, SIG0 = 0.4, 1.1


def _toy_p0(x, theta):
    f, g = math.exp(theta[0]), theta[1]
    return np.exp(-0.5 * (x - g) ** 2 / f)


def _toy_best_response(theta):
    f, g = math.exp(theta[0]), theta[1]
    prec = 1.0 / SIG0**2 + 1.0 / f
    return (MU0 / SIG0**2 + g / f) / prec


def _toy_jacobian(theta):
    f, g = math.exp(theta[0]), theta[1]
    prec = 1.0 / SIG0**2 + 1.0 / f
    m_star = _toy_best_response(theta)
    dm_dg = (1.0 / f) / prec
    dm_df = (m_star - g) / (f**2 * prec)
    return np.array([dm_df * f, dm_dg])  # chain rule through f = exp(theta1)


def _toy_quadrature_batch(theta, phi, n_nodes=220):
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    xs = MU0 + SIG0 * nodes
    wts = wts / wts.sum()
    episodes = []
    for x, w in zip(xs, wts):
        p0 = float(_toy_p0(x, theta))
        f, g = math.exp(theta[0]), theta[1]
        score0 = np.array([(x - g) ** 2 / (2 * f), (x - g) / f])
        if p0 > 0.0:
            episodes.append(
                Episode(
                    x=np.array([[x]]),
                    kept=np.array([False]),
                    features=np.array([[1.0]]),
                    score_theta=score0,
                    weight=w * p0,
                )
            )
        if p0 < 1.0:
            episodes.append(
                Episode(
                    x=np.array([[x]]),
                    kept=np.array([True]),
                    features=np.array([[1.0]]),
                    score_theta=-score0 * p0 / (1.0 - p0),
                    weight=w * (1.0 - p0),
                )
            )
    return episodes


def _toy_leader_loss(theta, phi):
    nodes, wts = np.polynomial.hermite_e.hermegauss(220)
    xs = MU0 + SIG0 * nodes
    wts = wts / wts.sum()
    return float(np.sum(wts * _toy_p0(xs, theta) * (xs - phi) ** 2))


def test_toy_jacobian_matches_analytic():
    theta = np.array([0.3, -0.2])
    phi_star = _toy_best_response(theta)
    follower = LinearFollower(phi=np.array([phi_star]))
    episodes = _toy_quadrature_batch(theta, phi_star)
    jac = best_response_jacobian(follower, episodes, theta_dim=2)
    analytic = _toy_jacobian(theta)
    assert np.allclose(jac[0], analytic, rtol=1e-6, atol=1e-9)


def test_toy_total_derivative_matches_finite_differences():
    theta = np.array([0.15, 0.35])
    phi_star = _toy_best_response(theta)
    follower = LinearFollower(phi=np.array([phi_star]))
    episodes = _toy_quadrature_batch(theta, phi_star)
    grad = general_policy_gradient(follower, episodes, lam=0.0, theta_dim=2)
    fd = central_difference(
        lambda th: _toy_leader_loss(th, _toy_best_response(th)), theta, 1e-6
    )
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-10)
    assert rel.max() < 1e-3


def test_toy_implicit_term_vanishes_at_best_response():
    theta = np.array([0.1, -0.4])
    phi_star = _toy_best_response(theta)
    follower = LinearFollower(phi=np.array([phi_star]))
    episodes = _toy_quadrature_batch(theta, phi_star)
    jac = best_response_jacobian(follower, episodes, theta_dim=2)
    term1 = jac.T @ follower_gradient(follower, episodes)
    assert np.all(np.abs(term1) < 1e-8)


def test_toy_envelope_second_order():
    theta = np.array([0.2, 0.1])
    phi_star = _toy_best_response(theta)
    base = _toy_leader_loss(theta, phi_star)
    for delta in (1e-2, 1e-3):
        up = _toy_leader_loss(theta, phi_star + delta)
        dn = _toy_leader_loss(theta, phi_star - delta)
        assert abs(up - dn) / (2 * delta) < 1e-8  # first-order term vanishes
        assert up - base > 0  # strictly second order, convex in phi


def test_follower_gradient_zero_at_conditional_mean(vi_system):
    rng = make_rng(8)
    sched = open_loop_schedule(np.array([[1.2]]), 10)
    episodes = []
    for _ in range(60):
        log = list(belief_rollout(vi_system, sched, 10, rng, mode="state"))
        episodes.append(
            Episode(
                x=np.array([s.x for s in log]),
                kept=np.array([bool(s.n) for s in log]),
                features=np.array([[1.0, float(s.filtered.x_mean[0])] for s in log]),
                score_theta=np.zeros(1),
            )
        )
    follower = LinearFollower(phi=np.array([0.0, 1.0]))  # the conditional mean
    grad = follower_gradient(follower, episodes)
    n_terms = sum((~ep.kept).sum() for ep in episodes)
    resid_scale = math.sqrt(sum(ep.x.var() for ep in episodes) / len(episodes))
    assert np.linalg.norm(grad) / n_terms < 0.3 * resid_scale  # zero-mean residuals


def test_follower_descent_decreases_loss():
    rng = make_rng(9)
    xs = rng.standard_normal(400) * 1.5 + 0.7
    episodes = [
        Episode(
            x=np.array([[x]]),
            kept=np.array([False]),
            features=np.array([[1.0]]),
            score_theta=np.zeros(1),
        )
        for x in xs
    ]
    follower = LinearFollower(phi=np.array([-2.0]))

    def loss(phi):
        return sum((float(np.squeeze(ep.x[0])) - phi) ** 2 for ep in episodes)

    before = loss(float(follower.phi[0]))
    for _ in range(50):
        follower.phi = follower.phi - 1e-3 * follower_gradient(follower, episodes)
    after = loss(float(follower.phi[0]))
    assert after < before
    assert np.isclose(float(follower.phi[0]), xs.mean(), atol=0.05)
    hess = follower_hessian(follower, episodes)
    assert hess[0, 0] == pytest.approx(2.0 * len(xs))


# ---------------------------------------------------------------------------
# Nested optimization loop
# ---------------------------------------------------------------------------


def test_stackelberg_lambda_zero_drives_full_sampling(vi_system):
    config = OptimizerConfig(alpha=0.4, rollouts_per_step=32, max_iters=40, seed=3)
    init = FeedbackPolicyParams.constant(vi_system, 6, f0=4.0, tied=True)
    start_obj = exact_objective(init, vi_system, 0.0)
    result = stackelberg_optimize(config, vi_system, 0.0, init)
    assert result.objective < 0.35 * start_obj
    # small f: nearly every step samples
    f_final = result.schedule.f_at(0)[0, 0]
    assert f_final < 0.5
    best_so_far = np.minimum.accumulate([row.objective for row in result.trace])
    assert best_so_far[-1] <= best_so_far[0]


def test_stackelberg_large_lambda_suppresses_sampling(vi_system):
    config = OptimizerConfig(alpha=0.4, rollouts_per_step=32, max_iters=40, seed=4)
    init = FeedbackPolicyParams.constant(vi_system, 6, f0=1.0, tied=True)
    result = stackelberg_optimize(config, vi_system, 25.0, init)
    assert result.schedule.f_at(0)[0, 0] > 8.0  # wide discard region


def test_optimizer_config_validation():
    with pytest.raises(ContractViolation):
        OptimizerConfig(alpha=0.0)
    with pytest.raises(ContractViolation):
        OptimizerConfig(rollouts_per_step=0)


def test_non_finite_gradient_aborts_with_dump(vi_system):
    from privsample.errors import NumericalFailure

    params = FeedbackPolicyParams(1, 3, np.array([np.nan, 0.0]), tied=True)
    with pytest.raises(NumericalFailure, match="non-finite gradient"):
        objective_gradient_linear(params, vi_system, 0.5, 8, make_rng(0))


# ---------------------------------------------------------------------------
# Batched engine against the growing-covariance reference
# ---------------------------------------------------------------------------


def test_fast_engine_applicability(vi_system):
    """The scalar case, where leak_estimate runs the engine."""
    assert _scalar_case(vi_system)
    assert not _scalar_case(_coupled(vi_system))


SYSTEMS = {
    "paper": None,
    "nx1_ny1": (21, 1, 1),
    "nx1_ny2": (22, 1, 2),
    "nx2_ny1": (23, 2, 1),
    "nx2_ny2": (24, 2, 2),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_fast_engine_matches_reference_on_forced_patterns(vi_system, name):
    """Branch for branch against the growing covariance, untied
    parameters; the random systems have A_yx != 0."""
    system = vi_system if SYSTEMS[name] is None else _random_system(*SYSTEMS[name])
    horizon = 12
    rng = make_rng(3)
    params = FeedbackPolicyParams.constant(system, horizon, f0=2.0, tied=False)
    params = params.replaced(params.theta + 0.07 * rng.standard_normal(params.dim))
    patterns = rng.uniform(size=(6, horizon + 1)) > 0.5
    fl, fd, fs, fr, _ = _fast_gradient_batch(
        params, system, 0.9, 6, horizon, rng, forced=patterns
    )
    for r in range(6):
        sl, sd, ss, sr = _rollout_gradient_terms(
            params, system, 0.9, horizon, rng, forced=patterns[r]
        )
        assert abs(fl[r] - sl) < 1e-10
        assert np.abs(fd[r] - sd).max() < 1e-9
        assert np.abs(fs[r] - ss).max() < 1e-9
        assert fr[r] == sr


@pytest.mark.parametrize("name", ["paper", "nx2_ny1"])
def test_engine_losses_without_tangents_match_with_tangents_bitwise(vi_system, name):
    """step_loss inverts only f + P^xx without tangents; loss, p0 and info
    must not move by a bit."""
    system = vi_system if SYSTEMS[name] is None else _random_system(*SYSTEMS[name])
    horizon, rows = 6, 5
    rng = make_rng(4)
    params = FeedbackPolicyParams.constant(system, horizon, f0=1.5, tied=False)
    params = params.replaced(params.theta + 0.1 * rng.standard_normal(params.dim))
    patterns = rng.uniform(size=(rows, horizon + 1)) > 0.5
    bare, tangent = _BatchEngine(system, rows, 0), _BatchEngine(system, rows, params.dim)
    for k in range(horizon + 1):
        f, df, c, dc = params.step_terms(k)
        c = c + 0.3 * rng.standard_normal((rows, system.n_x))
        loss0, dloss0, p00, _, info0 = bare.step_loss(f, None, c, None, 0.8)
        loss1, dloss1, p01, _, info1 = tangent.step_loss(f, df, c, dc, 0.8)
        assert dloss0 is None and dloss1.shape == (rows, params.dim)
        for a, b in ((loss0, loss1), (p00, p01), (info0, info1)):
            assert np.array_equal(a, b)
        for eng in (bare, tangent):
            eng.update(f, df, patterns[:, k], k)
            if k < horizon:
                eng.predict(k + 1)


@pytest.mark.parametrize(
    "name, horizon, slow_rollouts",
    [("paper", 12, 1200), ("coupled", 5, 400), ("nx2_ny2", 4, 300)],
    ids=["paper", "coupled", "nx2_ny2"],
)
def test_fast_schedule_batch_matches_trajectory_objective(vi_system, name, horizon, slow_rollouts):
    from privsample.loss import trajectory_objective

    system = {
        "paper": vi_system,
        "coupled": _coupled(vi_system),
        "nx2_ny2": _random_system(24, 2, 2),
    }[name]
    sched = open_loop_schedule(1.5 * np.eye(system.n_x), horizon)
    losses, infos, rates = _fast_schedule_batch(
        system, sched, 0.7, 4000, horizon, make_rng(2)
    )
    m_slow, se_slow, rate_slow = trajectory_objective(
        system, sched, 0.7, slow_rollouts, horizon, make_rng(5), mode="belief"
    )
    se_fast = losses.std(ddof=1) / np.sqrt(len(losses))
    assert abs(losses.mean() - m_slow) < 3 * np.hypot(se_fast, se_slow)
    assert abs(rates.mean() - rate_slow) < 0.03
    assert np.all(infos >= -1e-9)


def test_optimize_lambda_on_coupled_system_stays_on_the_engine(vi_system, monkeypatch):
    def growing(*args, **kwargs):
        raise AssertionError("growing-covariance rollout on a production path")

    monkeypatch.setattr(optimizer, "_rollout_gradient_terms", growing)
    config = OptimizerConfig(rollouts_per_step=8, max_iters=3, validation_rollouts=16, seed=2)
    result = optimize_lambda(config, _coupled(vi_system), 1.0, 10)
    assert result.schedule.horizon == 10
    assert np.isfinite(result.objective)


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_optimize_lambda_rejects_a_negative_or_non_finite_lambda(vi_system, lam):
    with pytest.raises(ContractViolation, match="lambda"):
        optimize_lambda(OptimizerConfig(), vi_system, lam, 3)


def test_x_determined_by_the_private_trajectory_names_the_step(vi_system):
    """x_{k+1} = y_k exactly, so S = Cov(X_k | Y^k, Z^(k-1)) = 0 from k = 1."""
    system = LinearGaussianSystem(
        a_matrix=np.array([[0.0, 1.0], [0.0, 0.5]]),
        q_cov=np.diag([0.0, 1.0]),
        init_mean=np.zeros(2),
        init_cov=vi_system.init_cov,
        n_x=1,
        n_y=1,
    )
    sched = open_loop_schedule(np.eye(1), 4)
    with pytest.raises(NumericalFailure, match=r"Y\^k, Z\^\(k-1\)\)\) at k=1\b"):
        _fast_schedule_batch(system, sched, 0.5, 8, 4, make_rng(0))
    with pytest.raises(NumericalFailure, match=r"Y\^k, Z\^\(k-1\)\)\) at k=1\b"):
        rollout_losses(system, sched, 0.5, 4, make_rng(0))
    params = FeedbackPolicyParams.constant(system, 4, f0=1.0, tied=True)
    with pytest.raises(NumericalFailure, match=r"k=1\b"):
        objective_gradient_linear(params, system, 0.5, 8, make_rng(0))


def test_singular_private_noise_names_the_step(vi_system):
    """Q_yy = 0 with A_yx = 0 makes y_1 a function of y_0."""
    system = LinearGaussianSystem(
        a_matrix=vi_system.a_matrix,
        q_cov=np.diag([1.0, 0.0]),
        init_mean=np.zeros(2),
        init_cov=vi_system.init_cov,
        n_x=1,
        n_y=1,
    )
    params = FeedbackPolicyParams.constant(system, 4, f0=1.0, tied=True)
    with pytest.raises(NumericalFailure, match=r"k=1\b"):
        objective_gradient_linear(params, system, 0.5, 8, make_rng(0))
