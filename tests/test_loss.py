import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from privsample import belief as bel
from privsample.configio import system_from_config
from privsample.errors import ContractViolation, NumericalFailure
from privsample.lingauss import LinearGaussianSystem
from privsample.linalg import logdet_psd, psd_sqrt, random_spd
from privsample.loss import (
    branch_logdets,
    mi_accumulate,
    no_sample_prob_marginal,
    one_step_loss,
    rollout_losses,
    trajectory_objective,
)
from privsample.policy import (
    degenerate_schedule,
    open_loop_schedule,
    privacy_aware_schedule,
)
from privsample.rngs import make_rng

from privsample.optimizer import _fast_schedule_batch
from privsample.oracles import one_step_loss_quadrature
from tests.test_optimizer import _random_system


def _predicted(mean, cov, nx=1, ny=1, k=0):
    return bel.GaussianBelief(
        mean=np.asarray(mean, float),
        cov=np.asarray(cov, float),
        k=k,
        phase=bel.PREDICTED,
        n_x=nx,
        n_y=ny,
    )


def _random_predicted(rng, nx=1, n_tracked=1):
    dim = nx + n_tracked
    return _predicted(rng.standard_normal(dim), random_spd(rng, dim), nx=nx)


def test_marginal_prob_analytic_value():
    b = _predicted([0.0, 0.0], np.eye(2))
    assert np.isclose(no_sample_prob_marginal(b, [[1.0]], [0.0]), np.sqrt(0.5))


def test_marginal_prob_never_sample_limit():
    b = _predicted([0.3, -0.1], [[2.0, 0.5], [0.5, 1.0]])
    assert no_sample_prob_marginal(b, [[1e12]], [5.0]) > 1 - 1e-9


def test_marginal_prob_matches_pointwise_average():
    rng = make_rng(11)
    for _ in range(4):
        cov = random_spd(rng, 3)
        b = _predicted(rng.standard_normal(3), cov, nx=2)
        f = random_spd(rng, 2)
        g = rng.standard_normal(2)
        closed = no_sample_prob_marginal(b, f, g)
        n_draws = 100_000
        fac = np.linalg.cholesky(b.p_xx)
        xs = b.x_mean + rng.standard_normal((n_draws, 2)) @ fac.T
        d = xs - g
        pointwise = np.exp(-0.5 * np.einsum("bi,ij,bj->b", d, np.linalg.inv(f), d))
        se = pointwise.std(ddof=1) / np.sqrt(n_draws)
        assert abs(pointwise.mean() - closed) < 3 * se


def test_one_step_loss_lambda_zero():
    rng = make_rng(12)
    b = _random_predicted(rng)
    lb = one_step_loss(b, [[0.7]], [0.2], lam=0.0)
    assert lb.total == lb.distortion
    assert lb.leak_prior_entropy == 0.0


def test_one_step_loss_always_sample_limit():
    rng = make_rng(13)
    b = _random_predicted(rng)
    lb = one_step_loss(b, [[1e-12]], [0.0], lam=2.0)
    assert lb.p_no_sample < 1e-5
    assert lb.distortion < 1e-10
    # only the sample branch survives and it is a nonnegative leak
    pyy = b.cov[1:, 1:]
    s1 = pyy - b.cov[1:, :1] @ np.linalg.inv(b.p_xx) @ b.cov[:1, 1:]
    expect = 2.0 * 0.5 * (logdet_psd(pyy) - logdet_psd(s1))
    assert np.isclose(lb.total, expect, rtol=1e-4)
    assert lb.total >= 0


def test_one_step_loss_total_is_field_sum():
    rng = make_rng(14)
    for _ in range(5):
        b = _random_predicted(rng, n_tracked=3)
        lb = one_step_loss(b, [[0.9]], [0.1], lam=1.3)
        s = (
            lb.distortion
            + lb.leak_prior_entropy
            + lb.leak_sample_branch
            + lb.leak_no_sample_branch
        )
        assert np.isclose(lb.total, s, rtol=0, atol=1e-12)
        assert 0.0 <= lb.p_no_sample <= 1.0


def test_branch_logdet_increments_nonnegative():
    """log|P^yy| - log|S| >= 0 on both branches: conditioning cannot
    increase the determinant of a PSD covariance."""
    rng = make_rng(15)
    for _ in range(20):
        b = _random_predicted(rng, nx=2, n_tracked=3)
        f = random_spd(rng, 2)
        ld_prior, ld_keep, ld_discard = branch_logdets(b, f)
        assert ld_prior - ld_keep >= -1e-10
        assert ld_prior - ld_discard >= -1e-10


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_one_factor_logdets_match_the_per_block_factorizations(nx):
    """The step's log-determinants from one factorization of the whole
    covariance equal the per-block reference's, which factors P^yy and the
    trajectory blocks of both branch posteriors on their own, to 1e-12
    relative."""
    rng = make_rng(40 + nx)
    for blocks in range(1, 7):
        for _ in range(4):
            b = _random_predicted(rng, nx=nx, n_tracked=blocks)
            f = random_spd(rng, nx) * 10.0 ** rng.uniform(-3, 3)
            oracle = [
                2.0 * np.log(np.linalg.cholesky(m).diagonal()).sum()
                for m in (
                    b.p_yy,
                    bel.keep_branch(b).cov[nx:, nx:],
                    bel.discard_branch(b, f).cov[nx:, nx:],
                )
            ]
            one_factor = branch_logdets(b, f, bel.step_factors(b, f))
            assert branch_logdets(b, f) == one_factor
            scale = max(1.0, *map(abs, oracle))
            np.testing.assert_allclose(one_factor, oracle, rtol=0, atol=1e-12 * scale)


def test_one_step_loss_continuity_in_f():
    rng = make_rng(17)
    b = _random_predicted(rng, n_tracked=2)
    ell = np.array([[0.8]])
    base = one_step_loss(b, ell @ ell.T, [0.1], lam=1.0).total
    bumped = one_step_loss(b, (ell + 1e-6) @ (ell + 1e-6).T, [0.1], lam=1.0).total
    assert abs(bumped - base) < 1e-4


def test_one_step_loss_against_quadrature(vi_system):
    rng = make_rng(18)
    for _ in range(3):
        cov = random_spd(rng, 2)
        mean = rng.standard_normal(2)
        b = _predicted(mean, cov)
        f = float(rng.uniform(0.4, 2.0))
        g = float(rng.uniform(-1.0, 1.0))
        lam = float(rng.uniform(0.2, 2.0))
        lb = one_step_loss(b, [[f]], [g], lam)
        quad = one_step_loss_quadrature(mean, cov, f, g, lam)
        assert np.isclose(lb.p_no_sample, quad["p_no_sample"], rtol=1e-5)
        assert np.isclose(lb.distortion, quad["distortion"], rtol=1e-4)
        assert np.isclose(lb.info_nats, quad["info_nats"], rtol=1e-4, atol=1e-7)
        assert np.isclose(lb.total, quad["total"], rtol=1e-4)


def test_never_sample_objective_is_deterministic_prior_trace(vi_system):
    horizon = 5
    sched = degenerate_schedule("never_sample", horizon, 1)
    mean, stderr, rate = trajectory_objective(
        vi_system, sched, 0.0, rollouts=3, horizon=horizon, rng=make_rng(19)
    )
    assert rate == 0.0
    assert stderr < 1e-9  # single branch: no Monte Carlo variance
    b = bel.init_belief(vi_system)
    expect = 0.0
    for k in range(horizon + 1):
        expect += float(b.p_xx[0, 0])  # f -> inf: posterior trace = prior trace
        b = bel.update_no_sample(b, [[1e12]], [0.0])
        if k < horizon:
            b = bel.predict(vi_system, b)
    assert np.isclose(mean, expect, rtol=1e-6)


def test_always_sample_objective_zero_distortion_max_leak(vi_system):
    horizon = 5
    always = degenerate_schedule("always_sample", horizon, 1)
    never = degenerate_schedule("never_sample", horizon, 1)
    open_mid = open_loop_schedule(np.array([[1.0]]), horizon)
    rows = {}
    for name, sched in (("always", always), ("never", never), ("mid", open_mid)):
        losses, decisions = rollout_losses(
            vi_system, sched, 1.0, horizon, make_rng(20), mode="belief"
        )
        rows[name] = (sum(b.distortion for b in losses), mi_accumulate(losses), decisions)
    assert rows["always"][0] < 1e-9
    assert np.all(rows["always"][2] == 1)
    assert rows["always"][1] > rows["mid"][1] > rows["never"][1]
    assert abs(rows["never"][1]) < 1e-9


def test_mi_accumulate_always_sample_matches_branch_logdets(vi_system):
    horizon = 4
    sched = degenerate_schedule("always_sample", horizon, 1)
    losses, _ = rollout_losses(vi_system, sched, 1.0, horizon, make_rng(21))
    b = bel.init_belief(vi_system)
    expect = 0.0
    for k in range(horizon + 1):
        pyy = b.cov[1:, 1:]
        filt = bel.update_sample(b, b.x_mean)
        expect += 0.5 * (logdet_psd(pyy) - logdet_psd(filt.cov[1:, 1:]))
        if k < horizon:
            b = bel.predict(vi_system, filt)
    assert np.isclose(mi_accumulate(losses), expect, rtol=1e-6)


def _enumerate_objective(system, schedule, lam, horizon):
    """Exhaustive expectation over the 2^(K+1) branch sequences.

    Only valid when the losses are functions of the branch pattern, which
    holds for feedback schedules: the recursion below walks every pattern
    with its marginal probability.
    """
    total = 0.0
    stack = [(bel.init_belief(system), 0, 1.0, 0.0)]
    while stack:
        b, k, prob, acc = stack.pop()
        f = schedule.f_at(k)
        g = schedule.g_at(k, x_pred=b.x_mean)
        lb = one_step_loss(b, f, g, lam)
        acc = acc + lb.total
        branches = []
        if lb.p_no_sample > 1e-14:
            branches.append((bel.update_no_sample(b, f, g), lb.p_no_sample))
        if 1.0 - lb.p_no_sample > 1e-14:
            branches.append((bel.update_sample(b, b.x_mean), 1.0 - lb.p_no_sample))
        for filt, w in branches:
            if k == horizon:
                total += prob * w * acc
            else:
                stack.append((bel.predict(system, filt), k + 1, prob * w, acc))
    return total


def test_trajectory_objective_matches_exhaustive_enumeration(vi_system):
    horizon = 6
    ells = np.full((horizon + 1, 1, 1), 1.1)
    offs = np.full((horizon + 1, 1), 0.3)
    sched = privacy_aware_schedule(ells, offs, feedback=True)
    lam = 0.8
    exact = _enumerate_objective(vi_system, sched, lam, horizon)
    mean, stderr, _ = trajectory_objective(
        vi_system, sched, lam, rollouts=4000, horizon=horizon, rng=make_rng(22)
    )
    assert abs(mean - exact) < 3 * stderr


def test_belief_and_state_modes_agree(vi_system):
    horizon = 5
    sched = open_loop_schedule(np.array([[1.5]]), horizon)
    m_b, se_b, rate_b = trajectory_objective(
        vi_system, sched, 0.7, 1500, horizon, make_rng(23), mode="belief"
    )
    m_s, se_s, rate_s = trajectory_objective(
        vi_system, sched, 0.7, 1500, horizon, make_rng(24), mode="state"
    )
    assert abs(m_b - m_s) < 3 * np.hypot(se_b, se_s)
    assert abs(rate_b - rate_s) < 0.05


def _compare_outputs_system_2x2() -> LinearGaussianSystem:
    """The n_x = n_y = 2 system (A_yx != 0) of tools/compare_outputs.py."""
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return system_from_config(module.SYSTEM_2X2)


def test_belief_draws_through_the_pxx_factor_keep_the_leak():
    """Belief-mode rollouts draw x through the step's Cholesky factor of
    P^xx. On n_x = 2 that changes the draws but not their law: the leak
    agrees, |z| < 4, with a reference whose draws go through ``psd_sqrt``
    (an eigendecomposition of P^xx)."""
    system = _compare_outputs_system_2x2()
    horizon, rollouts = 10, 300
    sched = open_loop_schedule(0.5 * np.eye(2), horizon)
    rng = make_rng(31)
    drawn = [
        mi_accumulate(rollout_losses(system, sched, 1.0, horizon, rng)[0])
        for _ in range(rollouts)
    ]
    rng = make_rng(32)
    reference = []
    for _ in range(rollouts):
        b, info = bel.init_belief(system), 0.0
        for k in range(horizon + 1):
            f, g = sched.f_at(k), sched.g_at(k, x_pred=b.x_mean)
            x = b.x_mean + psd_sqrt(b.p_xx) @ rng.standard_normal(2)
            keep = sched.keep(k, x[None], g, rng)[0]
            info += one_step_loss(b, f, g, 1.0).info_nats
            b = bel.update_sample(b, x) if keep else bel.update_no_sample(b, f, g)
            if k < horizon:
                b = bel.predict(system, b)
        reference.append(info)
    se = np.hypot(np.std(drawn, ddof=1), np.std(reference, ddof=1)) / np.sqrt(rollouts)
    assert abs(np.mean(drawn) - np.mean(reference)) < 4 * se


def test_lambda_zero_objective_monotone_in_sampling_rate(vi_system):
    horizon = 8
    results = []
    for f in (0.2, 1.0, 5.0, 25.0):
        mean, stderr, rate = trajectory_objective(
            vi_system,
            open_loop_schedule(np.array([[f]]), horizon),
            0.0,
            rollouts=600,
            horizon=horizon,
            rng=make_rng(25),
        )
        results.append((rate, mean, stderr))
    results.sort(key=lambda t: t[0])  # ascending sampling rate
    for (r1, m1, s1), (r2, m2, s2) in zip(results, results[1:]):
        assert r2 > r1
        assert m2 < m1 + 3 * np.hypot(s1, s2)


def test_negative_lambda_rejected(vi_system):
    b = bel.init_belief(vi_system)
    with pytest.raises(ContractViolation):
        one_step_loss(b, [[1.0]], [0.0], lam=-0.1)


def _with_pyy(pyy):
    """A predicted belief at k=3 with x independent of the trajectory block pyy."""
    cov = np.zeros((3, 3))
    cov[0, 0] = 1.0
    cov[1:, 1:] = pyy
    return _predicted(np.zeros(3), cov, k=3)


def test_indefinite_and_singular_trajectory_blocks_name_the_step():
    """A trajectory block that fails its Cholesky raises the engine's
    message for it, whether it is indefinite or singular by rounding."""
    message = r"^singular Cov\(Y_k \| Y\^\(k-1\), Z\^\(k-1\)\) at k=3$"
    for pyy in (np.diag([1.0, -1.0]), np.diag([1.0, -1e-9])):
        with pytest.raises(NumericalFailure, match=message):
            one_step_loss(_with_pyy(pyy), [[1.0]], [0.0], lam=1.0)


def test_an_f_that_is_not_positive_definite_names_the_step():
    """f = -0.5 passes f + P^xx = 0.5 but not f + C = -0.31, with
    C = Cov(X_k | Y^k) = 0.19: the step raises instead of factoring it."""
    cov = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
    message = r"^f \+ Cov\(X_k \| Y\^k, Z\^\(k-1\)\) not positive definite at k=3$"
    with pytest.raises(NumericalFailure, match=message):
        branch_logdets(_predicted(np.zeros(3), cov, k=3), [[-0.5]])


def test_coupled_rollout_runs_no_eigenvalue_decomposition(vi_system, monkeypatch):
    """Log-determinants are Cholesky or fail: no step runs an eigenvalue
    decomposition."""
    a = vi_system.a_matrix.copy()
    a[1, 0] = 0.30  # perfbench/configs/coupled.json
    coupled = dataclasses.replace(vi_system, a_matrix=a)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: calls.append(1) or eigvalsh(*a, **kw))
    losses, _ = rollout_losses(
        coupled, open_loop_schedule(np.array([[1.5]]), 20), 1.0, 20, make_rng(6)
    )
    assert len(losses) == 21 and calls == []


@pytest.mark.parametrize(
    "name, per_step", [("coupled", (1, 0, 0)), ("nx2_ny2", (5, 1, 1))], ids=["coupled", "nx2_ny2"]
)
def test_growing_step_factorization_counts(vi_system, monkeypatch, name, per_step):
    """One growing step factors f, f + P^xx (one triangular inverse), P^xx
    (inverted only when the step keeps), the whole covariance (the one
    trajectory-sized factorization) and f + Cov(X_k | Y^k) once each. On the
    coupled system the n_x blocks are 1x1 and take the closed forms, so only
    the whole covariance reaches numpy, at every step."""
    horizon = 20
    if name == "coupled":
        a = vi_system.a_matrix.copy()
        a[1, 0] = 0.30  # perfbench/configs/coupled.json
        system = dataclasses.replace(vi_system, a_matrix=a)
    else:
        system = _random_system(24, 2, 2)
    steps = horizon + 1
    sched = open_loop_schedule(1.5 * np.eye(system.n_x), horizon)
    calls = {"cholesky": 0, "inv": 0}
    for fn in calls:
        orig = getattr(np.linalg, fn)

        def counted(*a, _fn=fn, _orig=orig, **kw):
            calls[_fn] += 1
            return _orig(*a, **kw)

        monkeypatch.setattr(np.linalg, fn, counted)
    losses, decisions = rollout_losses(system, sched, 1.0, horizon, make_rng(6))
    assert len(losses) == horizon + 1
    keeps = int(decisions.sum())
    assert 0 < keeps < steps
    chol, inv, inv_per_keep = per_step
    assert calls == {"cholesky": chol * steps, "inv": inv * steps + inv_per_keep * keeps}


def test_tangent_reference_factors_each_trajectory_block_once(vi_system, monkeypatch):
    """The optimizer's growing-belief gradient reference reads the loss's
    log-determinants instead of factoring P^yy and the two Schur
    complements: 1 trajectory-sized Cholesky call per step on the coupled
    system, as in ``rollout_losses``."""
    from privsample.optimizer import FeedbackPolicyParams, _rollout_gradient_terms

    horizon = 20
    a = vi_system.a_matrix.copy()
    a[1, 0] = 0.30  # perfbench/configs/coupled.json
    system = dataclasses.replace(vi_system, a_matrix=a)
    params = FeedbackPolicyParams.constant(system, horizon, 1.5)
    u = make_rng(6).uniform(size=horizon + 1)
    calls, orig = [0], np.linalg.cholesky

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    _rollout_gradient_terms(params, system, 1.0, horizon, u)
    assert calls[0] == horizon + 1


def test_a_private_block_that_is_a_function_of_the_past_fails_as_in_the_engine(vi_system):
    """Q_yy = 0 with A_yx = 0 makes y_1 = 0.35 y_0, so Cov(Y^1) is singular
    and the leak undefined. The growing reference raises the engine's
    message at the engine's k, on either f, instead of reporting negative
    information (-5.33 nats at k = 1 on f = 1 when it repaired the block)."""
    system = dataclasses.replace(vi_system, q_cov=np.diag([1.0, 0.0]))
    message = r"^singular Cov\(Y_k \| Y\^\(k-1\), Z\^\(k-1\)\) at k=1$"
    for f in (1.0, 4.0):
        sched = open_loop_schedule(np.array([[f]]), 6)
        for mode in ("belief", "state"):
            with pytest.raises(NumericalFailure, match=message):
                rollout_losses(system, sched, 1.0, 6, make_rng(0), mode=mode)
        with pytest.raises(NumericalFailure, match=message):
            _fast_schedule_batch(system, sched, 1.0, 8, 6, make_rng(0))


def _x_is_last_y(scale: float) -> LinearGaussianSystem:
    """x_{k+1} = y_k (Q_xx = 0), so S = Cov(X_k | Y^k) = 0 from k = 1."""
    return LinearGaussianSystem(
        a_matrix=np.array([[0.0, 1.0], [0.0, 0.5]]),
        q_cov=np.diag([0.0, scale]),
        init_mean=np.zeros(2),
        init_cov=scale * np.array([[0.5, 0.25], [0.25, 0.5]]),
        n_x=1,
        n_y=1,
    )


def test_x_known_up_to_a_rounding_residue_names_the_step():
    """At unit scale the whole covariance factors on a rounding residue for
    S = 0; the keep increment (about 36.6) reaches KNOWN_X_INCREMENT, and
    the step raises instead of reporting that residue's information, as
    the engine does at the same k."""
    sched = open_loop_schedule(np.array([[1.0]]), 4)
    known = r"^x_k already known \(singular Cov\(X_k \| Y\^k, Z\^\(k-1\)\)\) at k=1"
    with pytest.raises(NumericalFailure, match=known + "; keep increment 36"):
        rollout_losses(_x_is_last_y(1.0), sched, 0.5, 4, make_rng(0))
    with pytest.raises(NumericalFailure, match=known + "$"):
        _fast_schedule_batch(_x_is_last_y(1.0), sched, 0.5, 8, 4, make_rng(0))


def test_x_known_from_the_trajectory_after_a_failed_factorization_names_the_step():
    """x_{k+1} = y_k (S = 0), scaled so that the whole covariance fails its
    Cholesky instead of keeping a positive rounding residue: P^yy alone
    factors, so the step raises that x_k is known."""
    sched = open_loop_schedule(np.array([[10.0]]), 4)
    with pytest.raises(NumericalFailure, match=r"^x_k already known .* at k=1$"):
        rollout_losses(_x_is_last_y(10.0), sched, 0.5, 4, make_rng(0))
