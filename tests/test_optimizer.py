import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from privsample import belief as bel
from privsample import optimizer
from privsample.errors import ContractViolation, NumericalFailure
from privsample.lingauss import LinearGaussianSystem
from privsample.loss import belief_rollout, one_step_loss, rollout_losses
from privsample.engine import BatchEngine
from privsample.follower import (
    Episode,
    LinearFollower,
    best_response_jacobian,
    follower_gradient,
    follower_hessian,
    general_policy_gradient,
)
from privsample.optimizer import (
    FeedbackPolicyParams,
    TraceRow,
    _TangentFilter,
    _fast_gradient_batch,
    _fast_schedule_batch,
    _rollout_gradient_terms,
    _scalar_case,
    exact_objective,
    exact_objective_and_gradient,
    leak_estimate,
    objective_gradient_linear,
    optimize_lambda,
    stackelberg_optimize,
)
from privsample.policy import open_loop_schedule
from privsample.rngs import make_rng, substream

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


def set_leader(monkeypatch, **constants):
    """Set leader-loop constants of ``optimizer`` (``ALPHA``,
    ``ROLLOUTS_PER_STEP``, ``MAX_ITERS``, ``VALIDATION_ROLLOUTS``) for one test."""
    for name, value in constants.items():
        assert hasattr(optimizer, name), name
        monkeypatch.setattr(optimizer, name, value)


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


@pytest.mark.parametrize("n_x", [1, 2], ids=["paper", "nx2_coupled"])
def test_exact_gradient_matches_central_differences(vi_system, n_x):
    """K = 3 feedback schedule, per-coordinate relative error: the paper
    system, and an n_x = 2 system with A_yx != 0."""
    horizon = 3
    rng = make_rng(5)
    if n_x == 1:
        system, block = vi_system, np.array([0.3])
    else:  # (log L11, L21, log L22)
        system, block = _random_system(11, 2, 1), np.array([0.3, 0.1, 0.2])
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
    params = params.replaced(params.theta + np.array([0.1]))
    lam = 0.8
    _, exact_grad = exact_objective_and_gradient(params, system, lam)
    rng = make_rng(77)
    grads = np.array(
        [objective_gradient_linear(params, system, lam, 16, rng) for _ in range(batches)]
    )
    se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
    assert np.all(np.abs(grads.mean(axis=0) - exact_grad) < 3 * se)


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "per_step"])
@pytest.mark.parametrize("name", ["paper", "nx2_coupled"])
def test_every_exact_gradient_coordinate_is_nonzero(vi_system, name, tied):
    """Every coordinate of theta moves the objective at a constant start:
    none sits at an exactly zero gradient it could never leave."""
    system = vi_system if name == "paper" else _random_system(11, 2, 1)
    params = FeedbackPolicyParams.constant(system, 4, f0=1.3, tied=tied)
    _, grad = exact_objective_and_gradient(params, system, 0.8)
    assert grad.shape == (params.dim,) and np.all(grad != 0.0)


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


def test_singular_follower_hessian_raises():
    """Episodes that keep every step leave the follower loss flat (Hessian
    0): its best response is undefined, and the Jacobian is not repaired."""
    theta = np.array([0.3, -0.2])
    follower = LinearFollower(phi=np.array([0.5]))
    episodes = [ep for ep in _toy_quadrature_batch(theta, 0.5) if ep.kept.all()]
    assert not follower_hessian(follower, episodes).any()
    with pytest.raises(NumericalFailure, match="^singular follower Hessian$"):
        best_response_jacobian(follower, episodes, theta_dim=2)


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


def test_stackelberg_lambda_zero_drives_full_sampling(vi_system, monkeypatch):
    set_leader(monkeypatch, ALPHA=0.4, ROLLOUTS_PER_STEP=32, MAX_ITERS=40)
    init = FeedbackPolicyParams.constant(vi_system, 6, f0=4.0, tied=True)
    start_obj = exact_objective(init, vi_system, 0.0)
    result = stackelberg_optimize(vi_system, 0.0, init, 3)
    assert result.objective < 0.35 * start_obj
    # small f: nearly every step samples
    f_final = result.schedule.f_at(0)[0, 0]
    assert f_final < 0.5
    best_so_far = np.minimum.accumulate([row.objective for row in result.trace])
    assert best_so_far[-1] <= best_so_far[0]


def test_stackelberg_large_lambda_suppresses_sampling(vi_system, monkeypatch):
    set_leader(monkeypatch, ALPHA=0.4, ROLLOUTS_PER_STEP=32, MAX_ITERS=40)
    init = FeedbackPolicyParams.constant(vi_system, 6, f0=1.0, tied=True)
    result = stackelberg_optimize(vi_system, 25.0, init, 4)
    assert result.schedule.f_at(0)[0, 0] > 8.0  # wide discard region


def test_optimizer_config_needs_two_validation_rollouts(vi_system, monkeypatch):
    """Two validation rollouts, the fewest with a standard error, run clean."""
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=4, MAX_ITERS=2, VALIDATION_ROLLOUTS=2)
    init = FeedbackPolicyParams.constant(vi_system, 10, f0=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = stackelberg_optimize(vi_system, 1.0, init, 0)
    assert all(math.isfinite(row.stderr) for row in result.trace)


def test_non_finite_gradient_aborts_with_dump(vi_system):
    from privsample.errors import NumericalFailure

    params = FeedbackPolicyParams(1, 3, np.array([np.nan]), tied=True)
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
    parameters; the random systems have A_yx != 0. Uniforms 1 and 0 pin
    the keep/discard pattern."""
    system = vi_system if SYSTEMS[name] is None else _random_system(*SYSTEMS[name])
    horizon = 12
    rng = make_rng(3)
    params = FeedbackPolicyParams.constant(system, horizon, f0=2.0, tied=False)
    params = params.replaced(params.theta + 0.07 * rng.standard_normal(params.dim))
    patterns = rng.uniform(size=(6, horizon + 1)) > 0.5
    u = patterns.T.astype(float)
    fl, fd, fs, fr, _ = _fast_gradient_batch(params, system, 0.9, 6, horizon, u)
    assert np.array_equal(fr, patterns.mean(axis=1))
    for r in range(6):
        sl, sd, ss, sr = _rollout_gradient_terms(params, system, 0.9, horizon, u[:, r])
        assert abs(fl[r] - sl) < 1e-10
        assert np.abs(fd[r] - sd).max() < 1e-9
        assert np.abs(fs[r] - ss).max() < 1e-9
        assert fr[r] == sr


@pytest.mark.parametrize("name", ["paper", "nx2_ny1"])
def test_reference_gradient_terms_match_central_differences(vi_system, name):
    """The growing-belief reference on its own, untied parameters, K = 6:
    along a forced branch pattern its pathwise dloss is the derivative of
    the summed one-step losses, and its score that of the summed log
    branch probabilities, both formed here by ``belief`` and ``loss``."""
    system = vi_system if SYSTEMS[name] is None else _random_system(*SYSTEMS[name])
    horizon, lam = 6, 0.9
    rng = make_rng(8)
    params = FeedbackPolicyParams.constant(system, horizon, f0=2.0, tied=False)
    theta0 = params.theta + 0.1 * rng.standard_normal(params.dim)
    params = params.replaced(theta0)

    def along(theta, pattern):
        """(summed loss, summed log branch probability) along ``pattern``."""
        p, b = params.replaced(theta), bel.init_belief(system)
        loss = logp = 0.0
        for k, keep in enumerate(pattern):
            f = p.step_terms(k)[0][..., 0]
            lb = one_step_loss(b, f, b.x_mean, lam)
            loss += lb.total
            logp += math.log(1.0 - lb.p_no_sample if keep else lb.p_no_sample)
            b = bel.update_sample(b, b.x_mean) if keep else bel.update_no_sample(b, f, b.x_mean)
            if k < horizon:
                b = bel.predict(system, b)
        return loss, logp

    for pattern in rng.uniform(size=(4, horizon + 1)) > 0.5:
        u = pattern.astype(float)
        _, dloss, score, _ = _rollout_gradient_terms(params, system, lam, horizon, u)
        for i, got in enumerate((dloss, score)):
            fd = central_difference(lambda th: along(th, pattern)[i], theta0, 1e-5)
            assert np.abs(got - fd).max() < 1e-7 * max(1.0, np.abs(fd).max()), (i, got, fd)


@pytest.mark.parametrize("name", ["paper", "nx2_ny1"])
def test_fast_gradient_batch_without_tangents_matches_with_tangents_bitwise(vi_system, name):
    """The f-scan and the Monte Carlo validation objective run the driver
    without tangents; losses, rates and information must not move by a bit."""
    system = vi_system if SYSTEMS[name] is None else _random_system(*SYSTEMS[name])
    horizon, rows = 6, 5
    rng = make_rng(4)
    params = FeedbackPolicyParams.constant(system, horizon, f0=1.5, tied=False)
    params = params.replaced(params.theta + 0.1 * rng.standard_normal(params.dim))
    u = (rng.uniform(size=(rows, horizon + 1)) > 0.5).T.astype(float)
    run = lambda tangent_rows: _fast_gradient_batch(  # noqa: E731
        params, system, 0.8, rows, horizon, u, tangent_rows=tangent_rows
    )
    bare, full = run(0), run(None)
    assert bare[1].shape == bare[2].shape == (0, 0)
    assert full[1].shape == full[2].shape == (rows, params.dim)
    for i in (0, 3, 4):  # losses, rates, info sums
        assert np.array_equal(bare[i], full[i])


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
    bare, tangent = BatchEngine(system, rows, 0), BatchEngine(system, rows, params.dim)
    for k in range(horizon + 1):
        f, df, c = params.step_terms(k)
        c = c + 0.3 * rng.standard_normal((rows, system.n_x)).T
        loss0, dloss0, p00, _, info0 = bare.step_loss(f, None, c, 0.8)
        loss1, dloss1, p01, _, info1 = tangent.step_loss(f, df, c, 0.8)
        assert dloss0 is None and dloss1.shape == (params.dim, rows)
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
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=3, VALIDATION_ROLLOUTS=16)
    result = optimize_lambda(_coupled(vi_system), 1.0, 10, 2)
    assert result.schedule.horizon == 10
    assert np.isfinite(result.objective)


def test_optimize_lambda_streams_are_disjoint(vi_system, monkeypatch):
    """The f-scan, the validation objective and each gradient iteration
    draw from streams of their own."""
    paths = []
    substream = optimizer.substream
    monkeypatch.setattr(
        optimizer, "substream", lambda seed, *path: paths.append(path) or substream(seed, *path)
    )
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=3, VALIDATION_ROLLOUTS=16)
    optimize_lambda(vi_system, 1.0, 10, 2)
    # one scan stream, first; the validation uniforms once per run; one
    # stream per iterate, the last one included
    counts = Counter(paths)
    assert counts[paths[0]] == 1
    assert sorted(counts.values()) == [1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_optimize_lambda_rejects_a_negative_or_non_finite_lambda(vi_system, lam):
    with pytest.raises(ContractViolation, match="lambda"):
        optimize_lambda(vi_system, lam, 3, 0)


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
    """Q_yy = 0 with A_yx = 0 makes y_1 a function of y_0. The system is in
    the scalar case, and the engine's leak raises the growing belief's
    message at k = 1."""
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
    assert _scalar_case(system)
    sched = open_loop_schedule(np.eye(1), 4)
    with pytest.raises(NumericalFailure) as engine:
        leak_estimate(system, sched, 4, 4, make_rng(0))
    with pytest.raises(NumericalFailure) as growing:
        rollout_losses(system, sched, 1.0, 4, make_rng(0))
    assert str(engine.value) == str(growing.value)
    assert str(engine.value) == "singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k=1"


# ---------------------------------------------------------------------------
# One engine pass per leader iterate and per f-scan
# ---------------------------------------------------------------------------


def _named_system(vi_system, name):
    return {
        "paper": lambda: vi_system,
        "coupled": lambda: _coupled(vi_system),
        "nx2_ny2": lambda: _random_system(24, 2, 2),
    }[name]()


@pytest.mark.parametrize("name", ["paper", "coupled", "nx2_ny2"])
def test_fused_pass_rows_equal_their_own_batches_bitwise(vi_system, name):
    """Gradient rows (with tangents) lead and validation rows (without)
    follow; each block equals its own batch bit for bit."""
    system = _named_system(vi_system, name)
    horizon, n_grad, n_val = 12, 7, 9
    rng = make_rng(6)
    params = FeedbackPolicyParams.constant(system, horizon, f0=1.5, tied=False)
    params = params.replaced(params.theta + 0.1 * rng.standard_normal(params.dim))
    u_grad = make_rng(1).uniform(size=(horizon + 1, n_grad))
    u_val = make_rng(2).uniform(size=(horizon + 1, n_val))
    fused = _fast_gradient_batch(
        params, system, 0.8, n_grad + n_val, horizon, np.hstack([u_grad, u_val]),
        tangent_rows=n_grad,
    )
    grad = _fast_gradient_batch(params, system, 0.8, n_grad, horizon, u_grad)
    val = _fast_gradient_batch(params, system, 0.8, n_val, horizon, u_val, tangent_rows=0)
    assert 0 < grad[3].mean() < 1 and 0 < val[3].mean() < 1  # both branches occur
    for i in (0, 3, 4):  # losses, rates, info sums
        assert np.array_equal(fused[i][:n_grad], grad[i])
        assert np.array_equal(fused[i][n_grad:], val[i])
    for i in (1, 2):  # pathwise tangents, scores
        assert np.array_equal(fused[i], grad[i])


@pytest.mark.parametrize("name", ["paper", "coupled"])
def test_optimize_lambda_scans_each_start_on_the_scan_stream(vi_system, monkeypatch, name):
    """Each start's block of the one scan pass equals that start's own
    batch on stream (seed, 1) bit for bit; the lowest mean starts the
    leader loop."""
    system = _named_system(vi_system, name)
    calls, batch = [], optimizer._fast_gradient_batch
    monkeypatch.setattr(
        optimizer, "_fast_gradient_batch", lambda *a, **k: calls.append(batch(*a, **k)) or calls[-1]
    )
    monkeypatch.setattr(optimizer, "stackelberg_optimize", lambda system, lam, init, seed: init)
    horizon, n = 12, optimizer.F_SCAN_ROLLOUTS
    chosen = optimize_lambda(system, 3.0, horizon, 5)
    (scan,) = calls
    means = []
    for i, f0 in enumerate(optimizer.F_SCAN_GRID):
        params = FeedbackPolicyParams.constant(system, horizon, f0=f0)
        u = substream(5, 1).uniform(size=(horizon + 1, n))
        own = batch(params, system, 3.0, n, horizon, u, tangent_rows=0)
        for j in (0, 3, 4):  # losses, rates, info sums
            assert np.array_equal(scan[j][i * n : (i + 1) * n], own[j])
        means.append(own[0].mean())
    best = FeedbackPolicyParams.constant(system, horizon, optimizer.F_SCAN_GRID[np.argmin(means)])
    assert np.array_equal(chosen.theta, best.theta)


def _sequential_stackelberg(system, lam, init, seed):
    """The leader loop with a validation pass and a gradient pass of its own
    for every iterate: (best theta, best objective, stop, trace)."""
    horizon, n_val = init.horizon, optimizer.VALIDATION_ROLLOUTS
    u_val = substream(seed, 999).uniform(size=(horizon + 1, n_val))

    def validate(p):
        losses, _, _, rates, _ = _fast_gradient_batch(
            p, system, lam, n_val, horizon, u_val, tangent_rows=0
        )
        stderr = float(losses.std(ddof=1) / math.sqrt(len(losses)))
        return float(losses.mean()), stderr, float(rates.mean())

    params = best = init
    best_obj, _, _ = validate(params)
    prev, quiet, stall, trace = best_obj, 0, 0, []
    for it in range(optimizer.MAX_ITERS):
        rng = substream(seed, 2, it)
        grad = objective_gradient_linear(params, system, lam, optimizer.ROLLOUTS_PER_STEP, rng)
        step = optimizer.ALPHA / (1.0 + it / 100.0)
        move = -step * grad
        norm = float(np.linalg.norm(move))
        if norm > optimizer.STEP_CLIP:
            move *= optimizer.STEP_CLIP / norm
        params = params.replaced(params.theta + move)
        obj, stderr, rate = validate(params)
        trace.append(TraceRow(it, obj, stderr, rate, float(np.linalg.norm(grad))))
        stall = 0 if obj < best_obj else stall + 1
        if obj < best_obj:
            best_obj, best = obj, params
        quiet = quiet + 1 if abs(obj - prev) / max(1.0, abs(prev)) < optimizer.CONVERGE_TOL else 0
        prev = obj
        if quiet >= optimizer.CONVERGE_PATIENCE:
            return best.theta, best_obj, "converged", trace
        if stall >= optimizer.CONVERGE_PATIENCE:
            return best.theta, best_obj, "stalled", trace
    return best.theta, best_obj, "max_iters", trace


@pytest.mark.parametrize(
    "alpha, max_iters, patience, stop",
    [
        (0.25, 6, 10, "max_iters"),
        (0.003, 25, 10, "converged"),
        (0.008, 25, 2, "converged"),
        (0.25, 25, 10, "stalled"),
    ],
    ids=["runs_out", "converges", "quiet_then_moves", "stalls"],
)
def test_stackelberg_equals_the_sequential_loop(
    vi_system, monkeypatch, alpha, max_iters, patience, stop
):
    """Horizon 12: the one-pass-per-iterate loop gives the trace and result
    of a loop that runs validation and gradient passes separately.
    ``quiet_then_moves`` has a validation that could have ended the loop
    and did not. ``stalls`` is a clipped 2-cycle between two iterates that
    never beats its start."""
    monkeypatch.setattr(optimizer, "CONVERGE_PATIENCE", patience)
    set_leader(
        monkeypatch, ALPHA=alpha, ROLLOUTS_PER_STEP=16, MAX_ITERS=max_iters, VALIDATION_ROLLOUTS=32
    )
    init = FeedbackPolicyParams.constant(vi_system, 12, f0=3.0)
    theta, best_obj, ref_stop, trace = _sequential_stackelberg(vi_system, 12.0, init, 1)
    paths = []
    substream = optimizer.substream
    monkeypatch.setattr(
        optimizer, "substream", lambda seed, *path: paths.append(path) or substream(seed, *path)
    )
    result = stackelberg_optimize(vi_system, 12.0, init, 1)
    assert ref_stop == result.stop == stop
    assert result.converged == (stop == "converged")
    # the validation uniforms are drawn once per run; one gradient stream
    # per iterate, the one that ends the loop included
    assert Counter(paths) == {(999,): 1, **{(2, t): 1 for t in range(len(trace) + 1)}}
    assert result.trace == trace
    assert result.objective == best_obj
    assert np.array_equal(result.params.theta, theta)
    objs = [row.objective for row in trace]
    if patience == 2:
        tol = optimizer.CONVERGE_TOL
        quiet = [abs(b - a) / max(1.0, abs(a)) < tol for a, b in zip(objs, objs[1:])]
        assert any(q and not q_next for q, q_next in zip(quiet, quiet[1:]))
    if stop == "stalled":
        assert len(trace) == optimizer.CONVERGE_PATIENCE
        assert min(objs) >= best_obj and np.array_equal(theta, init.theta)
        assert len(set(objs[::2])) == len(set(objs[1::2])) == 1  # the 2-cycle


def test_paper_leader_at_k100_stalls_on_its_f_scan_start(vi_system):
    """The paper system at K = 100, lambda = 12, seed 0: every clipped step
    is undone by the next, so no iterate beats the f = 3 start and the
    loop stops after ``CONVERGE_PATIENCE`` rows with the start."""
    result = optimize_lambda(vi_system, 12.0, 100, 0)
    start = FeedbackPolicyParams.constant(vi_system, 100, f0=3.0)
    assert np.array_equal(result.params.theta, start.theta)
    assert np.allclose([result.schedule.f_at(k)[0, 0] for k in range(101)], 3.0, rtol=1e-12)
    assert result.stop == "stalled" and not result.converged
    assert len(result.trace) == optimizer.CONVERGE_PATIENCE
    assert min(row.objective for row in result.trace) >= result.objective


def _enumerated_rate(params, system):
    """Expected kept fraction over every branch pattern, weighted on the
    growing covariance: the oracle for the exact validation's rate."""
    horizon = params.horizon
    rate = 0.0
    for pattern in itertools.product((False, True), repeat=horizon + 1):
        filt, prob = _TangentFilter(system, params.dim), 1.0
        for k, keep in enumerate(pattern):
            f, df, _ = params.step_terms(k)
            p0 = filt.step_loss(f, df, 0.0)[2]
            prob *= 1.0 - p0 if keep else p0
            filt.update(keep)
            if k < horizon:
                filt.predict()
        rate += prob * sum(pattern) / (horizon + 1)
    return rate


@pytest.mark.parametrize("name", ["paper", "coupled"])
def test_exact_trace_rows_give_their_own_iterates_rate(vi_system, monkeypatch, name):
    """At horizon <= 9 each trace row gives its iterate's exact objective
    and that iterate's enumerated sampling rate, not the rate of the
    gradient rollouts that led to it."""
    system = _named_system(vi_system, name)
    iterates, enumerate_ = [], optimizer._enumerate
    monkeypatch.setattr(
        optimizer, "_enumerate", lambda p, *a: iterates.append(p) or enumerate_(p, *a)
    )
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=4)
    init = FeedbackPolicyParams.constant(system, 4, f0=2.0)
    result = stackelberg_optimize(system, 12.0, init, 0)
    assert len(iterates) == len(result.trace) + 1  # theta_0, then one per row
    for row, params in zip(result.trace, iterates[1:]):
        assert row.objective == exact_objective(params, system, 12.0)
        assert abs(row.sampling_rate - _enumerated_rate(params, system)) < 1e-12


def test_numerical_failures_name_their_stage(vi_system, monkeypatch):
    """Q_yy = 0 with A_yx = 0 fails at k = 1 wherever it runs; the message
    keeps the engine's text and ends with the stage."""
    system = LinearGaussianSystem(
        a_matrix=vi_system.a_matrix,
        q_cov=np.diag([1.0, 0.0]),
        init_mean=np.zeros(2),
        init_cov=vi_system.init_cov,
        n_x=1,
        n_y=1,
    )
    set_leader(monkeypatch, ROLLOUTS_PER_STEP=8, MAX_ITERS=2, VALIDATION_ROLLOUTS=16)
    with pytest.raises(NumericalFailure) as scan:
        optimize_lambda(system, 0.5, 12, 0)
    assert str(scan.value).startswith("singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k=1")
    assert str(scan.value).endswith(" in the f-scan at f0=0.3")
    init = FeedbackPolicyParams.constant(system, 12, f0=1.0)
    with pytest.raises(NumericalFailure, match=r"at k=1 at leader iteration 0$"):
        stackelberg_optimize(system, 0.5, init, 0)
    set_leader(
        monkeypatch, ALPHA=1e308, ROLLOUTS_PER_STEP=48, MAX_ITERS=60, VALIDATION_ROLLOUTS=256
    )
    with pytest.raises(NumericalFailure, match=r"^leader step overflowed.* at leader iteration 0$"):
        stackelberg_optimize(vi_system, 12.0, init, 0)
