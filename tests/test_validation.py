"""Mutation tests: corrupted implementations must flip the oracle checks."""
import numpy as np

from privsample import belief as bel
from privsample import loss as loss_mod
from privsample.validation import (
    check_belief_vs_grid_filter,
    check_decide_frequency,
    check_marginal_prob_monte_carlo,
    check_one_step_loss_quadrature,
)


def test_eq18_sign_corruption_is_caught():
    def corrupted(belief, f, g):
        # flipped exponent sign in the closed form
        f = np.atleast_2d(np.asarray(f, dtype=float))
        g = np.atleast_1d(np.asarray(g, dtype=float))
        s = f + belief.p_xx
        d = g - belief.x_mean
        from privsample.linalg import logdet_psd, solve_psd

        ratio = np.exp(0.5 * (logdet_psd(f) - logdet_psd(s)))
        return float(min(1.0, ratio * np.exp(+0.5 * d @ solve_psd(s, d))))

    assert check_marginal_prob_monte_carlo(fixtures=6, draws=20_000).passed
    res = check_marginal_prob_monte_carlo(fixtures=6, draws=20_000, marginal_fn=corrupted)
    assert not res.passed


def test_schur_corruption_is_caught_by_grid_filter():
    def corrupted_update(belief, z):
        out = bel.update_sample(belief, z)
        cov = out.cov.copy()
        nx = belief.n_x
        cov[nx:, nx:] = belief.cov[nx:, nx:]  # skip the Schur reduction
        return bel.GaussianBelief(
            mean=out.mean, cov=cov, k=out.k, phase=out.phase, n_x=out.n_x, n_y=out.n_y
        )

    res = check_belief_vs_grid_filter(horizon=4, update_sample_fn=corrupted_update)
    assert not res.passed


def test_no_sample_update_keeping_the_prior_covariance_is_caught_by_grid_filter():
    def corrupted_update(belief, f, g):
        out = bel.update_no_sample(belief, f, g)
        # keep the predicted covariance: the discard branch's soft
        # conditioning moves the mean only
        return bel.GaussianBelief(
            mean=out.mean, cov=belief.cov, k=out.k, phase=out.phase, n_x=out.n_x, n_y=out.n_y
        )

    assert check_belief_vs_grid_filter(horizon=4).passed
    res = check_belief_vs_grid_filter(horizon=4, update_no_sample_fn=corrupted_update)
    assert not res.passed


def test_loss_weight_corruption_is_caught_by_quadrature():
    def corrupted_loss(belief, f, g, lam):
        lb = loss_mod.one_step_loss(belief, f, g, lam)
        # drop the discard-probability weight from the distortion term
        bad_dist = lb.distortion / max(lb.p_no_sample, 1e-12)
        return loss_mod.LossBreakdown(
            distortion=bad_dist,
            leak_prior_entropy=lb.leak_prior_entropy,
            leak_sample_branch=lb.leak_sample_branch,
            leak_no_sample_branch=lb.leak_no_sample_branch,
            p_no_sample=lb.p_no_sample,
            total=bad_dist + lb.total - lb.distortion,
            info_nats=lb.info_nats,
            logdets=lb.logdets,
        )

    res = check_one_step_loss_quadrature(fixtures=3, loss_fn=corrupted_loss)
    assert not res.passed


def test_keep_rule_using_f_for_its_inverse_is_caught():
    def corrupted_keep(schedule, k, x, g_abs, rng):
        d = x - g_abs
        quad = np.einsum("bi,ij,bj->b", d, schedule.f_at(k), d)  # f, not f^{-1}
        return rng.uniform(size=len(x)) > np.exp(-0.5 * quad)

    assert check_decide_frequency().passed
    assert not check_decide_frequency(keep_fn=corrupted_keep).passed
