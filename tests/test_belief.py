import numpy as np
import pytest

from privsample import belief as bel
from privsample.errors import PhaseError
from privsample.lingauss import LinearGaussianSystem
from privsample.linalg import random_spd
from privsample.rngs import make_rng

from privsample.oracles import GridBayesFilter, condition_gaussian, tilted_gaussian_moments, unrolled_joint


def _belief(mean, cov, k=0, phase=bel.PREDICTED, nx=1, ny=1):
    return bel.GaussianBelief(
        mean=np.asarray(mean, float), cov=np.asarray(cov, float), k=k, phase=phase, n_x=nx, n_y=ny
    )


def test_init_belief_matches_initial_joint(vi_system):
    b = bel.init_belief(vi_system)
    assert b.phase == bel.PREDICTED and b.k == 0
    assert np.allclose(b.mean, [0.0, 0.0])
    assert np.allclose(b.cov, [[0.5, 0.25], [0.25, 0.5]])


def test_init_belief_identity_passthrough():
    sys_ = LinearGaussianSystem(
        a_matrix=np.eye(2), q_cov=np.eye(2), init_mean=np.zeros(2), init_cov=np.eye(2), n_x=1, n_y=1
    )
    assert np.allclose(bel.init_belief(sys_).cov, np.eye(2))


def test_init_marginal_y(vi_system):
    mean, cov = bel.marginal_y_current(bel.init_belief(vi_system))
    assert np.allclose(mean, [0.0])
    assert np.allclose(cov, [[0.5]])


def test_predict_identity_duplicates_current_y():
    sys_ = LinearGaussianSystem(
        a_matrix=np.eye(2),
        q_cov=np.zeros((2, 2)),
        init_mean=np.zeros(2),
        init_cov=np.eye(2),
        n_x=1,
        n_y=1,
    )
    b = _belief([0.4, -0.2], [[1.0, 0.3], [0.3, 2.0]], phase=bel.FILTERED)
    out = bel.predict(sys_, b)
    assert out.k == 1 and out.phase == bel.PREDICTED and out.dim == 3
    # overlapping coordinates unchanged, new block duplicates the old ystats
    assert np.allclose(out.mean, [0.4, -0.2, -0.2])
    assert np.allclose(out.cov[1, 1], out.cov[2, 2])
    assert np.allclose(out.cov[1, 2], 2.0)


def test_predict_paper_block_arithmetic(vi_system):
    b = _belief([0.0, 0.0], np.eye(2), phase=bel.FILTERED)
    out = bel.predict(vi_system, b)
    assert np.allclose(out.p_xx, [[2.7704]])  # 0.98^2 + 0.90^2 + 1


def test_predict_preserves_trajectory_block(vi_system):
    rng = make_rng(12)
    b = _belief(rng.standard_normal(2), random_spd(rng, 2), phase=bel.FILTERED)
    for _ in range(3):
        nxt = bel.predict(vi_system, b)
        assert np.allclose(nxt.cov[2:, 2:], b.cov[1:, 1:])
        b = bel.update_no_sample(nxt, [[1.5]], [0.0])


def test_phase_contracts(vi_system):
    b = bel.init_belief(vi_system)
    with pytest.raises(PhaseError):
        bel.predict(vi_system, b)
    filt = bel.update_sample(b, np.array([0.1]))
    with pytest.raises(PhaseError):
        bel.update_sample(filt, np.array([0.1]))
    with pytest.raises(PhaseError):
        bel.update_no_sample(filt, [[1.0]], [0.0])


def test_update_no_sample_uninformative_limit():
    b = _belief([0.3, -0.5], [[1.0, 0.4], [0.4, 2.0]])
    out = bel.update_no_sample(b, [[1e12]], [123.0])
    assert np.allclose(out.mean, b.mean, atol=1e-9)
    assert np.allclose(out.cov, b.cov, atol=1e-9)


def test_update_no_sample_product_of_gaussians_scalar():
    # prior N(0, 1) on x, f = 1, g = 0: posterior variance (1 + 1)^{-1}
    b = _belief([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    out = bel.update_no_sample(b, [[1.0]], [0.0])
    assert np.allclose(out.mean, [0.0, 0.0])
    assert np.allclose(out.cov[0, 0], 0.5)


def test_update_no_sample_quadrature_moments():
    rng = make_rng(77)
    for _ in range(3):
        cov = random_spd(rng, 2)
        mean = rng.standard_normal(2)
        f = float(rng.uniform(0.3, 2.5))
        g = float(rng.uniform(-1.0, 1.0))
        out = bel.update_no_sample(_belief(mean, cov), [[f]], [g])
        mu_q, cov_q = tilted_gaussian_moments(mean, cov, f, g)
        assert np.allclose(out.mean, mu_q, rtol=1e-6, atol=1e-8)
        assert np.allclose(out.cov, cov_q, rtol=1e-6, atol=1e-8)


def test_update_sample_zero_innovation():
    b = _belief([0.7, -0.3], [[2.0, 1.0], [1.0, 2.0]])
    out = bel.update_sample(b, np.array([0.7]))
    assert np.allclose(out.mean, [0.7, -0.3])


def test_update_sample_schur_arithmetic():
    b = _belief([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
    out = bel.update_sample(b, np.array([1.0]))
    assert np.allclose(out.mean[1], 0.5)
    assert np.allclose(out.cov[1, 1], 1.5)
    assert np.array_equal(out.cov[0, :], [0.0, 0.0])
    assert np.array_equal(out.cov[:, 0], [0.0, 0.0])
    mean, cov = bel.marginal_y_current(out)
    assert np.allclose(cov, [[1.5]])


def test_update_sample_never_inflates_y_cov():
    rng = make_rng(5150)
    for _ in range(20):
        cov = random_spd(rng, 4)
        b = _belief(rng.standard_normal(4), cov, nx=2, ny=2)
        out = bel.update_sample(b, rng.standard_normal(2))
        gap = np.linalg.eigvalsh(b.cov[2:, 2:] - out.cov[2:, 2:])
        assert gap.min() > -1e-10


def test_marginal_extraction_commutes_with_predict(vi_system):
    rng = make_rng(31)
    cov = random_spd(rng, 2)
    mean = rng.standard_normal(2)
    b = _belief(mean, cov, phase=bel.FILTERED)
    lifted = bel.marginal_y_current(bel.predict(vi_system, b))
    a = vi_system.a_matrix
    row = a[1:, :]  # brute-force 2x2: push (x, y) through the y-row of A
    direct_mean = row @ mean
    direct_cov = row @ cov @ row.T + vi_system.q_cov[1:, 1:]
    assert np.allclose(lifted[0], direct_mean)
    assert np.allclose(lifted[1], direct_cov)


def test_growth_bookkeeping(vi_system):
    b = bel.init_belief(vi_system)
    for k in range(5):
        assert b.dim == 1 + (k + 1)
        b = bel.update_no_sample(b, [[1.0]], [0.0])
        if k < 4:
            b = bel.predict(vi_system, b)


def test_always_sample_matches_unrolled_conditioning(vi_system):
    """Y-trajectory posterior after K exact updates == direct conditioning."""
    horizon = 6
    rng = make_rng(2024)
    zs = rng.standard_normal(horizon + 1)
    b = bel.init_belief(vi_system)
    for k in range(horizon + 1):
        b = bel.update_sample(b, np.array([zs[k]]))
        if k < horizon:
            b = bel.predict(vi_system, b)
    mean, cov = bel.y_trajectory_stats(b)

    jm, jc = unrolled_joint(vi_system, horizon)
    x_idx = [2 * k for k in range(horizon + 1)]
    y_idx = [2 * k + 1 for k in range(horizon + 1)]
    mu, sig = condition_gaussian(jm, jc, x_idx, zs, y_idx)
    # belief stores the trajectory newest-first
    order = np.arange(horizon, -1, -1)
    assert np.allclose(mean, mu[order], rtol=1e-8, atol=1e-10)
    assert np.allclose(cov, sig[np.ix_(order, order)], rtol=1e-8, atol=1e-10)


def test_bayes_consistency_against_grid_filter(tame_system):
    """Scalar end-to-end check against a numerical Bayes filter."""
    decisions = [0, 1, 0, 0, 1]
    rng = make_rng(404)
    grid = GridBayesFilter(tame_system, (-9.0, 9.0), (-9.0, 9.0), 601, 601)
    b = bel.init_belief(tame_system)
    f, g = 0.9, 0.2
    for k, n_k in enumerate(decisions):
        if n_k:
            z = float(b.x_mean[0] + np.sqrt(max(b.p_xx[0, 0], 0.0)) * rng.standard_normal())
            b = bel.update_sample(b, np.array([z]))
            grid.update_sample(z)
        else:
            b = bel.update_no_sample(b, [[f]], [g])
            grid.update_no_sample(f, g)
        mu_g, cov_g = grid.moments()
        mu_b = np.array([b.x_mean[0], b.mean[1]])
        cov_b = b.cov[:2, :2]
        scale = max(1.0, float(np.max(np.abs(cov_g))))
        assert np.allclose(mu_b, mu_g, atol=2e-3 * scale)
        assert np.allclose(cov_b, cov_g, atol=2e-3 * scale)
        if k < len(decisions) - 1:
            b = bel.predict(tame_system, b)
            grid.predict()
