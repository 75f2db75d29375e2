"""Seeded validation suite: every closed form against an independent oracle.

Each check returns a CheckResult and takes injectable hooks for the code
path it certifies, so corrupting an implementation detail (a sign in the
marginal probability, a Schur update) must flip the corresponding check
to failed; the tests exercise exactly that mutation property.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import belief as bel
from . import loss as loss_mod
from .finite import (
    DpGridSpec,
    FiniteModel,
    PolicyCollection,
    _Space,
    dp_solve,
    init_discrete_belief,
    mi_bruteforce,
    objective_via_decomposition,
    objective_via_enumeration,
    xy_mutual_information,
)
from .lingauss import LinearGaussianSystem
from .linalg import logdet_psd, random_spd
from .optimizer import (
    FeedbackPolicyParams,
    LinearFollower,
    best_response_jacobian,
    exact_objective,
    exact_objective_and_gradient,
    objective_gradient_linear,
)
from .oracles import (
    GridBayesFilter,
    central_difference,
    condition_gaussian,
    one_step_loss_quadrature,
    unrolled_joint,
)
from .policy import SamplerSchedule, no_sample_prob_pointwise, open_loop_schedule
from .reconstruct import evaluate_schedule
from .rngs import make_rng


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _result(name, passed, detail, t0):
    return CheckResult(name=name, passed=bool(passed), detail=detail, seconds=time.time() - t0)


def paper_system() -> LinearGaussianSystem:
    return LinearGaussianSystem(
        a_matrix=np.array([[0.98, -0.90], [0.00, 0.35]]),
        q_cov=np.array([[1.00, 0.10], [0.10, 4.00]]),
        init_mean=np.zeros(2),
        init_cov=np.array([[0.50, 0.25], [0.25, 0.50]]),
        n_x=1,
        n_y=1,
    )


def oracle_system() -> LinearGaussianSystem:
    """Well-conditioned scalar system sized for the grid-filter oracle."""
    return LinearGaussianSystem(
        a_matrix=np.array([[0.80, 0.40], [0.00, 0.60]]),
        q_cov=np.array([[0.40, 0.10], [0.10, 0.50]]),
        init_mean=np.array([0.20, -0.10]),
        init_cov=np.array([[0.60, 0.20], [0.20, 0.70]]),
        n_x=1,
        n_y=1,
    )


def finite_fixture() -> FiniteModel:
    return FiniteModel(
        x_kernel=np.array([[[0.9, 0.1], [0.6, 0.4]], [[0.2, 0.8], [0.45, 0.55]]]),
        y_kernel=np.array([[0.8, 0.2], [0.3, 0.7]]),
        init_joint=np.array([[0.3, 0.2], [0.1, 0.4]]),
        distortion=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )


def check_marginal_prob_monte_carlo(
    seed: int = 11, fixtures: int = 20, draws: int = 100_000, marginal_fn=None
) -> CheckResult:
    """Closed-form discard probability vs empirical frequency (3 sigma)."""
    t0 = time.time()
    marginal_fn = marginal_fn or loss_mod.no_sample_prob_marginal
    rng = make_rng(seed)
    worst = 0.0
    for i in range(fixtures):
        nx = 1 if i % 2 == 0 else 2
        dim = nx + 1
        cov = random_spd(rng, dim)
        b = bel.GaussianBelief(
            mean=rng.standard_normal(dim), cov=cov, k=0, phase=bel.PREDICTED, n_x=nx, n_y=1
        )
        f = random_spd(rng, nx)
        g = rng.standard_normal(nx)
        closed = marginal_fn(b, f, g)
        fac = np.linalg.cholesky(b.p_xx)
        xs = b.x_mean + rng.standard_normal((draws, nx)) @ fac.T
        d = xs - g
        quad = np.einsum("bi,ij,bj->b", d, np.linalg.inv(f), d)
        freq = float(np.mean(rng.uniform(size=draws) <= np.exp(-0.5 * quad)))
        tol = 3.0 * math.sqrt(max(closed * (1 - closed), 1e-12) / draws)
        gap = abs(closed - freq)
        worst = max(worst, gap - tol)
        if gap >= tol:
            return _result(
                "eq18_monte_carlo",
                False,
                f"fixture {i}: closed={closed:.5f} freq={freq:.5f} tol={tol:.5f}",
                t0,
            )
    return _result("eq18_monte_carlo", True, f"{fixtures} fixtures, worst margin {worst:.2e}", t0)


def check_belief_vs_grid_filter(
    horizon: int = 10,
    tol: float = 1e-3,
    update_no_sample_fn=None,
    update_sample_fn=None,
) -> CheckResult:
    """Scalar belief recursion vs numerical-quadrature Bayes filtering."""
    t0 = time.time()
    update_no_sample_fn = update_no_sample_fn or bel.update_no_sample
    update_sample_fn = update_sample_fn or bel.update_sample
    system = oracle_system()
    decisions = [0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1][: horizon + 1]
    rng = make_rng(404)
    grid = GridBayesFilter(system, (-9.0, 9.0), (-9.0, 9.0), 601, 601)
    b = bel.init_belief(system)
    f, g = 0.9, 0.2
    worst = 0.0
    for k, n_k in enumerate(decisions):
        if n_k:
            z = float(b.x_mean[0] + math.sqrt(max(b.p_xx[0, 0], 0.0)) * rng.standard_normal())
            b = update_sample_fn(b, np.array([z]))
            grid.update_sample(z)
        else:
            b = update_no_sample_fn(b, [[f]], [g])
            grid.update_no_sample(f, g)
        mu_g, cov_g = grid.moments()
        mu_b = np.array([b.x_mean[0], b.mean[1]])
        cov_b = b.cov[:2, :2]
        scale_m = max(1.0, float(np.abs(mu_g).max()))
        scale_c = max(float(np.abs(cov_g).max()), 1e-9)
        err = max(
            float(np.abs(mu_b - mu_g).max()) / scale_m,
            float(np.abs(cov_b - cov_g).max()) / scale_c,
        )
        worst = max(worst, err)
        if k < len(decisions) - 1:
            b = bel.predict(system, b)
            grid.predict()
    return _result(
        "belief_vs_quadrature_bayes",
        worst < tol,
        f"K={horizon}, worst relative deviation {worst:.2e} (tol {tol})",
        t0,
    )


def check_always_sample_conditioning(horizon: int = 20, tol: float = 1e-6) -> CheckResult:
    """Posterior of the private trajectory vs direct joint conditioning."""
    t0 = time.time()
    system = paper_system()
    rng = make_rng(2024)
    zs = rng.standard_normal(horizon + 1)
    b = bel.init_belief(system)
    for k in range(horizon + 1):
        b = bel.update_sample(b, np.array([zs[k]]))
        if k < horizon:
            b = bel.predict(system, b)
    mean, cov = bel.y_trajectory_stats(b)
    jm, jc = unrolled_joint(system, horizon)
    x_idx = [2 * k for k in range(horizon + 1)]
    y_idx = [2 * k + 1 for k in range(horizon + 1)]
    mu, sig = condition_gaussian(jm, jc, x_idx, zs, y_idx)
    order = np.arange(horizon, -1, -1)
    scale = max(1.0, float(np.abs(sig).max()))
    err = max(
        float(np.abs(mean - mu[order]).max()) / max(1.0, float(np.abs(mu).max())),
        float(np.abs(cov - sig[np.ix_(order, order)]).max()) / scale,
    )
    return _result(
        "always_sample_joint_conditioning",
        err < tol,
        f"K={horizon}, max relative deviation {err:.2e} (tol {tol})",
        t0,
    )


def check_one_step_loss_quadrature(
    fixtures: int = 10, tol: float = 1e-4, loss_fn=None, seed: int = 18
) -> CheckResult:
    """Analytic per-step loss vs 2-D quadrature of its defining integrals."""
    t0 = time.time()
    loss_fn = loss_fn or loss_mod.one_step_loss
    rng = make_rng(seed)
    worst = 0.0
    for i in range(fixtures):
        cov = random_spd(rng, 2)
        mean = rng.standard_normal(2)
        b = bel.GaussianBelief(mean=mean, cov=cov, k=0, phase=bel.PREDICTED, n_x=1, n_y=1)
        f = float(rng.uniform(0.4, 2.0))
        g = float(rng.uniform(-1.0, 1.0))
        lam = float(rng.uniform(0.2, 2.0))
        lb = loss_fn(b, [[f]], [g], lam)
        quad = one_step_loss_quadrature(mean, cov, f, g, lam)
        err = max(
            abs(lb.p_no_sample - quad["p_no_sample"]) / quad["p_no_sample"],
            abs(lb.distortion - quad["distortion"]) / max(quad["distortion"], 1e-9),
            abs(lb.total - quad["total"]) / max(abs(quad["total"]), 1e-9),
        )
        worst = max(worst, err)
        if err >= tol:
            return _result(
                "one_step_loss_quadrature", False, f"fixture {i}: rel err {err:.2e}", t0
            )
    return _result(
        "one_step_loss_quadrature", True, f"{fixtures} fixtures, worst rel err {worst:.2e}", t0
    )


def check_determinant_identity(
    count: int = 100, max_dim: int = 64, tol: float = 1e-8, seed: int = 5
) -> CheckResult:
    """|P| = |Pxx||Schur_yy| = |Pyy||Schur_xx| on random SPD matrices."""
    t0 = time.time()
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        nx = int(rng.integers(1, dim))
        p = random_spd(rng, dim)
        pxx = p[:nx, :nx]
        pxy = p[:nx, nx:]
        pyy = p[nx:, nx:]
        full = logdet_psd(p)
        via_x = logdet_psd(pxx) + logdet_psd(pyy - pxy.T @ np.linalg.solve(pxx, pxy))
        via_y = logdet_psd(pyy) + logdet_psd(pxx - pxy @ np.linalg.solve(pyy, pxy.T))
        err = max(abs(full - via_x), abs(full - via_y)) / max(abs(full), 1.0)
        worst = max(worst, err)
    return _result(
        "determinant_schur_identity",
        worst < tol,
        f"{count} matrices up to {max_dim}x{max_dim}, worst rel err {worst:.2e}",
        t0,
    )


def check_gradient_finite_difference(tol: float = 1e-3) -> CheckResult:
    """Analytic objective gradient vs central differences (K = 3 scalar)."""
    t0 = time.time()
    system = paper_system()
    horizon = 3
    rng = make_rng(5)
    theta0 = np.concatenate(
        [np.array([0.3, 0.2]) + 0.1 * rng.standard_normal(2) for _ in range(horizon + 1)]
    )
    params = FeedbackPolicyParams(1, horizon, theta0, tied=False)
    lam = 0.8
    _, grad = exact_objective_and_gradient(params, system, lam)
    fd = central_difference(
        lambda th: exact_objective(params.replaced(th), system, lam), theta0, 1e-5
    )
    rel = float((np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)).max())
    return _result(
        "gradient_vs_central_differences", rel < tol, f"max per-coordinate rel err {rel:.2e}", t0
    )


def check_toy_game_jacobian(tol: float = 1e-6) -> CheckResult:
    """Implicit-function Jacobian vs the closed-form best response."""
    t0 = time.time()
    from .optimizer import Episode

    mu0, sig0 = 0.4, 1.1
    theta = np.array([0.3, -0.2])
    f, g = math.exp(theta[0]), theta[1]
    prec = 1.0 / sig0**2 + 1.0 / f
    phi_star = (mu0 / sig0**2 + g / f) / prec
    analytic = np.array([(phi_star - g) / (f**2 * prec) * f, (1.0 / f) / prec])

    nodes, wts = np.polynomial.hermite_e.hermegauss(220)
    xs = mu0 + sig0 * nodes
    wts = wts / wts.sum()
    episodes = []
    for x, w in zip(xs, wts):
        p0 = math.exp(-0.5 * (x - g) ** 2 / f)
        score0 = np.array([(x - g) ** 2 / (2 * f), (x - g) / f])
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
    follower = LinearFollower(phi=np.array([phi_star]))
    jac = best_response_jacobian(follower, episodes, theta_dim=2)
    err = float(np.abs(jac[0] - analytic).max() / np.abs(analytic).max())
    return _result("toy_game_jacobian", err < tol, f"max rel err {err:.2e}", t0)


def check_estimator_unbiasedness(batches: int = 200, tol_sigma: float = 3.0) -> CheckResult:
    """Score-function estimator mean vs the enumerated exact gradient."""
    t0 = time.time()
    system = paper_system()
    params = FeedbackPolicyParams.constant(system, 5, f0=1.3, tied=True)
    params = params.replaced(params.theta + np.array([0.1, 0.25]))
    lam = 0.8
    _, exact_grad = exact_objective_and_gradient(params, system, lam)
    rng = make_rng(77)
    grads = np.array(
        [objective_gradient_linear(params, system, lam, 16, rng)[0] for _ in range(batches)]
    )
    se = grads.std(axis=0, ddof=1) / math.sqrt(batches)
    sigmas = float((np.abs(grads.mean(axis=0) - exact_grad) / se).max())
    return _result(
        "gradient_estimator_unbiased",
        sigmas < tol_sigma,
        f"{batches} batches, worst deviation {sigmas:.2f} sigma",
        t0,
    )


def check_finite_equivalences(tol: float = 1e-10) -> CheckResult:
    """Chain rule, MI bounds and raw-vs-decomposed objective equality."""
    t0 = time.time()
    model = finite_fixture()
    rng = make_rng(10)
    horizon = 3
    never = [PolicyCollection.uniform(1.0)] * (horizon + 1)
    if mi_bruteforce(model, never, horizon) != 0.0:
        return _result("finite_equivalences", False, "never-sample MI is not exactly zero", t0)
    bound = xy_mutual_information(model, horizon)
    worst = 0.0
    for _ in range(3):
        policies = [
            PolicyCollection.from_x_table(rng.uniform(0.05, 0.95, size=2))
            for _ in range(horizon + 1)
        ]
        mi = mi_bruteforce(model, policies, horizon)
        if mi > bound + 1e-12:
            return _result("finite_equivalences", False, "policy exceeded the MI ceiling", t0)
        _, _, info_sum = objective_via_decomposition(model, policies, horizon, 1.0)
        worst = max(worst, abs(mi - info_sum))
        raw, _, _ = objective_via_enumeration(model, policies, 2, 0.7)
        dec, _, _ = objective_via_decomposition(model, policies, 2, 0.7)
        worst = max(worst, abs(raw - dec))
    return _result(
        "finite_equivalences", worst < tol, f"worst equivalence gap {worst:.2e}", t0
    )


def restricted_grid_search(model: FiniteModel, lam: float, levels) -> tuple[float, list]:
    """Exact minimum over memoryless, history-independent stage tables.

    Horizon is fixed at 2 (the acceptance fixture): every combination of
    per-stage tables a_k(discard | x) with entries on ``levels`` is
    evaluated exactly by decomposing the objective over the output tree;
    the tensor of objective values has one axis per stage. Child weights
    for every table come from the DP's own branch transition matrices
    (``_Space.child_op``), and children are deduplicated (keep-branch
    children do not depend on the acting table), so the sweep at 11
    levels (1331 tables per stage) takes about 2 s on a 2-core host.
    Returns (best value, best stage tables as x-indexed lists).
    """
    horizon = 2
    lv = np.asarray(levels, dtype=float)
    nx = model.nx
    combos = np.stack(
        [g.ravel() for g in np.meshgrid(*([lv] * nx), indexing="ij")], axis=1
    )  # (T, nx): per-x discard probabilities
    n_t = combos.shape[0]

    spaces: dict = {}

    def space_for(keys):
        sp = spaces.get(keys)
        if sp is None:
            sp = _Space(model, keys)
            spaces[keys] = sp
        return sp

    def tables_for(sp):
        # broadcast per-x tables onto the (x, mem) coordinate pairs
        return combos[:, [x for x, _ in sp.pairs]]

    def children(sp, w_rows):
        """Per-branch child weights for every (row, table) pair.

        w_rows: (B, S). Returns dict branch -> (probs (B, T), childs
        (B, T, S_child), child_space).
        """
        out = {}
        a_rows = tables_for(sp)  # (T, C)
        a_full = a_rows[:, sp.pair_idx]  # (T, S)
        for branch in ["none"] + list(range(nx)):
            child_keys, trans = sp.child_op(branch)
            if len(child_keys) == 0:
                continue
            csp = space_for(child_keys)
            mass = (
                w_rows[:, None, :] * a_full[None, :, :]
                if branch == "none"
                else w_rows[:, None, :] * (1.0 - a_full[None, :, :])
            )  # (B, T, S)
            childs = mass @ trans  # (B, T, S_child)
            probs = childs.sum(axis=2)
            out[branch] = (probs, childs, csp)
        return out

    b0 = init_discrete_belief(model)
    keys0 = tuple(sorted(b0.weights))
    sp0 = space_for(keys0)
    w0 = np.array([b0.weights[key] for key in keys0])[None, :]

    total = np.zeros((n_t, n_t, n_t))
    loss0, _ = sp0.losses_batch(w0[0], tables_for(sp0), lam)
    total += loss0[:, None, None]

    kids1 = children(sp0, w0)
    for b1, (probs1, childs1, sp1) in kids1.items():
        p1 = probs1[0]  # (T0,)
        w1 = childs1[0]  # (T0, S1) unnormalized
        live = p1 > 1e-13
        w1n = np.where(live[:, None], w1 / np.clip(p1[:, None], 1e-300, None), 0.0)
        # stage-1 losses: rows deduplicate heavily on keep branches
        uniq, inv = np.unique(np.round(w1n, 12), axis=0, return_inverse=True)
        l1u = np.stack([sp1.losses_batch(row, tables_for(sp1), lam)[0] for row in uniq])
        total += (p1[:, None] * l1u[inv])[:, :, None]

        kids2 = children(sp1, w1n)
        for b2, (probs2, childs2, sp2) in kids2.items():
            p2 = probs2  # (T0, T1)
            w2 = childs2  # (T0, T1, S2)
            path_p = p1[:, None] * p2
            flat = np.round(
                np.where(
                    (path_p > 1e-13)[:, :, None],
                    w2 / np.clip(p2[:, :, None], 1e-300, None),
                    0.0,
                ),
                12,
            ).reshape(-1, w2.shape[2])
            uniq2, inv2 = np.unique(flat, axis=0, return_inverse=True)
            l2u = np.stack([sp2.losses_batch(row, tables_for(sp2), lam)[0] for row in uniq2])
            l2 = l2u[inv2].reshape(n_t, n_t, n_t)
            total += path_p[:, :, None] * l2

    flat_idx = int(np.argmin(total))
    i0, i1, i2 = np.unravel_index(flat_idx, total.shape)
    best = float(total[i0, i1, i2])
    tables = [list(combos[i]) for i in (i0, i1, i2)]
    return best, tables


def check_dp_optimality(
    lam: float = 0.5, grid_levels: int = 11, bound: float = 0.02
) -> CheckResult:
    """Recursion value vs the exhaustive restricted policy grid (K = 2).

    The recursion optimizes richer (memory- and history-dependent)
    policies, so its value must not exceed any gridded policy's value;
    ``bound`` documents how far below the grid minimum it may go (grid
    resolution plus restricted-class optimality gap on this fixture).
    """
    t0 = time.time()
    model = finite_fixture()
    levels = np.round(np.linspace(0.0, 1.0, grid_levels), 10)
    grid_min, grid_tables = restricted_grid_search(model, lam, levels)
    spec = DpGridSpec(action_levels=tuple(levels), refine_rounds=2, seed_tables=grid_tables)
    result = dp_solve(model, lam, 2, spec)
    ok = result.value <= grid_min + 1e-9 and grid_min - result.value <= bound
    return _result(
        "dp_vs_exhaustive_policy_grid",
        ok,
        f"dp={result.value:.6f} grid_min={grid_min:.6f} "
        f"gap={grid_min - result.value:.2e} (documented bound {bound})",
        t0,
    )


def discretize_scalar_system(
    system: LinearGaussianSystem, x_levels: int = 5, y_levels: int = 4, span: float = 2.8
) -> tuple[FiniteModel, np.ndarray]:
    """Bin a scalar joint system onto a small finite alphabet.

    Bin centers are equispaced over +-span standard deviations of the
    stationary marginals; transition rows integrate the Gaussian kernels
    between bin edges (tail mass folds into the end bins). Returns the
    finite model and the x bin centers.
    """
    a = system.a_matrix
    q = system.q_cov
    # stationary marginal scales (solve the 2x2 Lyapunov equation)
    p = np.array(system.init_cov)
    for _ in range(500):
        p = a @ p @ a.T + q
    sx, sy = math.sqrt(p[0, 0]), math.sqrt(p[1, 1])
    x_centers = np.linspace(-span * sx, span * sx, x_levels)
    y_centers = np.linspace(-span * sy, span * sy, y_levels)

    def bin_probs(mu, sigma, centers):
        edges = np.concatenate(
            [[-np.inf], 0.5 * (centers[1:] + centers[:-1]), [np.inf]]
        )
        from scipy.stats import norm

        cdf = norm.cdf(edges, loc=mu, scale=sigma)
        return np.diff(cdf)

    sx_noise = math.sqrt(q[0, 0])
    sy_noise = math.sqrt(q[1, 1])
    x_kernel = np.zeros((x_levels, y_levels, x_levels))
    for i, xc in enumerate(x_centers):
        for j, yc in enumerate(y_centers):
            mu = a[0, 0] * xc + a[0, 1] * yc
            x_kernel[i, j] = bin_probs(mu, sx_noise, x_centers)
    y_kernel = np.zeros((y_levels, y_levels))
    for j, yc in enumerate(y_centers):
        y_kernel[j] = bin_probs(a[1, 1] * yc, sy_noise, y_centers)

    # initial joint by fine-grid aggregation of the Gaussian density
    fine = 24
    init = np.zeros((x_levels, y_levels))
    p0 = np.array(system.init_cov)
    inv = np.linalg.inv(p0)
    xe = np.concatenate([[-4 * sx], 0.5 * (x_centers[1:] + x_centers[:-1]), [4 * sx]])
    ye = np.concatenate([[-4 * sy], 0.5 * (y_centers[1:] + y_centers[:-1]), [4 * sy]])
    for i in range(x_levels):
        xs = np.linspace(xe[i], xe[i + 1], fine)
        for j in range(y_levels):
            ys = np.linspace(ye[j], ye[j + 1], fine)
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            dens = np.exp(
                -0.5 * (inv[0, 0] * xx**2 + 2 * inv[0, 1] * xx * yy + inv[1, 1] * yy**2)
            )
            init[i, j] = dens.mean() * (xs[-1] - xs[0]) * (ys[-1] - ys[0])
    init /= init.sum()
    distortion = (x_centers[:, None] - x_centers[None, :]) ** 2
    model = FiniteModel(
        x_kernel=x_kernel, y_kernel=y_kernel, init_joint=init, distortion=distortion
    )
    return model, x_centers


def check_mi_cross_engine(tol_rel: float = 0.45, horizon: int = 2, seed: int = 31) -> CheckResult:
    """Gaussian-side information accounting vs the finite-model oracle.

    Discretizes a scalar system to a small alphabet, runs the same
    open-loop rule on both sides (discard probability at bin centers) and
    compares the Monte Carlo expectation of the per-step information
    gains against exact trajectory-enumeration mutual information. The
    comparison is discretization-limited, so it brackets rather than
    matches: binning can only destroy information (finite below the
    Gaussian value), the gap shrinks under grid refinement, and the
    5-level relative gap stays under ``tol_rel`` (measured ~0.30 on the
    shipped fixture). A sign or branch-weight error on either side moves
    the Gaussian value far outside this bracket.
    """
    t0 = time.time()
    system = oracle_system()
    f_val = 1.2

    def finite_mi(x_levels, span):
        model, centers = discretize_scalar_system(system, x_levels=x_levels, span=span)
        policies = [
            PolicyCollection.from_x_table(np.exp(-0.5 * centers**2 / f_val))
            for _ in range(horizon + 1)
        ]
        return mi_bruteforce(model, policies, horizon)

    mi_coarse = finite_mi(5, 2.8)
    mi_finer = finite_mi(7, 2.8)  # same span: refinement adds information
    sched = open_loop_schedule(np.array([[f_val]]), horizon)
    from .optimizer import _fast_schedule_batch

    rollouts = 20_000
    _, totals, _ = _fast_schedule_batch(
        system, sched, 1.0, rollouts, horizon, make_rng(seed)
    )
    mi_gauss = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(rollouts))
    below = mi_coarse <= mi_gauss + 3 * se + 1e-3
    converging = mi_finer >= mi_coarse - 1e-3
    rel_gap = abs(mi_gauss - mi_coarse) / max(mi_gauss, 1e-9)
    ok = below and converging and rel_gap <= tol_rel
    return _result(
        "mi_cross_engine",
        ok,
        f"gaussian {mi_gauss:.4f}±{se:.4f}, finite 5-level {mi_coarse:.4f}, "
        f"7-level {mi_finer:.4f}; rel gap {rel_gap:.2f} (cap {tol_rel})",
        t0,
    )


def check_decide_frequency(seed: int = 3, draws: int = 100_000, keep_fn=None) -> CheckResult:
    """Discard frequency of the batched keep/discard rule vs the pointwise
    closed form (3 sigma). ``keep_fn(schedule, k, x, g_abs, rng)`` is the
    rule under test, ``SamplerSchedule.keep`` by default."""
    t0 = time.time()
    keep_fn = keep_fn or SamplerSchedule.keep
    x, f, g = np.array([0.8]), np.array([[1.3]]), np.array([0.1])
    schedule = SamplerSchedule("privacy_aware", np.linalg.cholesky(f)[None], g[None])
    p0 = no_sample_prob_pointwise(x, f, g)
    keep = keep_fn(schedule, 0, np.repeat(x[None], draws, axis=0), g, make_rng(seed))
    hits = draws - int(np.count_nonzero(keep))
    tol = 3 * math.sqrt(p0 * (1 - p0) / draws)
    gap = abs(hits / draws - p0)
    return _result("decide_frequency", gap < tol, f"gap {gap:.2e} tol {tol:.2e}", t0)


def check_filter_calibration(seed: int = 6) -> CheckResult:
    """Realized squared errors track the filter's predicted traces."""
    t0 = time.time()
    system = paper_system()
    report = evaluate_schedule(
        system, open_loop_schedule(np.array([[1.2]]), 12), 12, 6000, make_rng(seed)
    )
    rel_x = abs(report.mean_x_error - float(np.mean(report.predicted_x_errors))) / float(
        np.mean(report.predicted_x_errors)
    )
    rel_y = abs(report.mean_y_error - float(np.mean(report.predicted_y_errors))) / float(
        np.mean(report.predicted_y_errors)
    )
    ok = rel_x < 0.05 and rel_y < 0.05
    return _result("filter_calibration", ok, f"rel gaps x={rel_x:.3f} y={rel_y:.3f}", t0)


def check_objective_modes_agree(seed: int = 23) -> CheckResult:
    """Belief-draw and state-simulation objective estimators agree."""
    t0 = time.time()
    system = paper_system()
    sched = open_loop_schedule(np.array([[1.5]]), 5)
    m_b, se_b, _ = loss_mod.trajectory_objective(
        system, sched, 0.7, 1500, 5, make_rng(seed), mode="belief"
    )
    m_s, se_s, _ = loss_mod.trajectory_objective(
        system, sched, 0.7, 1500, 5, make_rng(seed + 1), mode="state"
    )
    gap = abs(m_b - m_s)
    tol = 3 * math.hypot(se_b, se_s)
    return _result("objective_modes_agree", gap < tol, f"gap {gap:.4f} tol {tol:.4f}", t0)


ALL_CHECKS = (
    check_marginal_prob_monte_carlo,
    check_decide_frequency,
    check_belief_vs_grid_filter,
    check_always_sample_conditioning,
    check_one_step_loss_quadrature,
    check_determinant_identity,
    check_gradient_finite_difference,
    check_toy_game_jacobian,
    check_estimator_unbiasedness,
    check_finite_equivalences,
    check_dp_optimality,
    check_mi_cross_engine,
    check_filter_calibration,
    check_objective_modes_agree,
)


def run_validation(names=None) -> list:
    """Run the full (or name-filtered) suite; returns CheckResults."""
    results = []
    for fn in ALL_CHECKS:
        if names and not any(n in fn.__name__ for n in names):
            continue
        results.append(fn())
    return results
