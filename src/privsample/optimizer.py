"""Policy-gradient optimization of the sampling schedule.

Leader/follower structure: the sampler's parameters are optimized against
the analytic best-response reconstructor (the conditional mean). The
sampler is parameterized in feedback form, f_k = L_k L_k^T through an
unconstrained Cholesky factor (log-diagonal) and g_k = x_pred + c_k. In
that class every per-step loss is a deterministic function of the
keep/discard pattern, so the score-function estimator over branch
sequences is exactly unbiased and small horizons admit exhaustive
enumeration of the 2^(K+1) patterns, which the gradient tests exploit.

Gradients of the per-step losses are propagated by forward-mode tangents
of the covariance recursion (means never enter the losses in feedback
form). The score part uses the marginal branch probabilities; a running
(leave-one-out) baseline keeps the estimator unbiased while cutting its
variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalFailure, check_lambda
from .lingauss import LinearGaussianSystem
from .loss import mi_accumulate, rollout_losses
from .policy import SamplerSchedule, privacy_aware_schedule
from .rngs import substream


# The cap on each leader move keeps a noisy early gradient from
# overshooting onto the flat never-sample plateau, where the gradient
# vanishes and the walk would die.
STEP_CLIP = 0.5
CONVERGE_TOL = 1e-3
CONVERGE_PATIENCE = 10


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the leader loop in ``stackelberg_optimize``.

    Step sizes follow the fixed schedule alpha_t = alpha / (1 + t/100);
    each iteration estimates the gradient on ``rollouts_per_step``
    rollouts of stream (``seed``, t), for at most ``max_iters``
    iterations. Beyond horizon 9 the validation objective is a mean over
    ``validation_rollouts`` common-random-number rollouts; at horizon 9
    and below it is exact enumeration.
    """

    alpha: float = 0.25
    rollouts_per_step: int = 48
    max_iters: int = 120
    seed: int = 0
    validation_rollouts: int = 512

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolation("step size must be positive")
        if self.rollouts_per_step < 1 or self.max_iters < 1:
            raise ContractViolation("counts must be >= 1")


class FeedbackPolicyParams:
    """Unconstrained parameter vector for a feedback sampling schedule.

    Per step (or shared, when tied): the lower-triangular factor of f
    with log-transformed diagonal, followed by the region-center offset
    c. ``theta`` is the flat vector the optimizer owns.
    """

    def __init__(self, n_x: int, horizon: int, theta: np.ndarray, tied: bool):
        self.n_x = n_x
        self.horizon = horizon
        self.tied = tied
        self.n_tri = n_x * (n_x + 1) // 2
        self.block = self.n_tri + n_x
        expect = self.block if tied else self.block * (horizon + 1)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (expect,):
            raise ContractViolation(f"theta must have shape ({expect},)")
        self.theta = theta
        self._tril_idx = np.tril_indices(n_x)
        self._memo = {}

    @staticmethod
    def constant(system: LinearGaussianSystem, horizon: int, f0: float = 1.0, tied: bool = True):
        n_x = system.n_x
        n_tri = n_x * (n_x + 1) // 2
        block = np.zeros(n_tri + n_x)
        ell = np.linalg.cholesky(f0 * np.eye(n_x))
        vals = ell[np.tril_indices(n_x)]
        diag_pos = np.cumsum(np.arange(1, n_x + 1)) - 1
        vals[diag_pos] = np.log(np.diag(ell))
        block[:n_tri] = vals
        theta = block if tied else np.tile(block, horizon + 1)
        return FeedbackPolicyParams(n_x, horizon, theta, tied)

    @property
    def dim(self) -> int:
        return self.theta.size

    def _block_slice(self, k: int) -> slice:
        if self.tied:
            return slice(0, self.block)
        return slice(k * self.block, (k + 1) * self.block)

    def _chol_from_block(self, vals):
        ell = np.zeros((self.n_x, self.n_x))
        ell[self._tril_idx] = vals
        diag = np.exp(np.diag(ell))
        np.fill_diagonal(ell, diag)
        return ell

    def step_terms(self, k: int):
        """(f_k, df_k/dtheta, c_k, dc_k/dtheta), tangents (dim, ...) with
        zero rows off step k's block. Formed once per block (every step
        shares one when tied); the arrays are shared and read-only."""
        sl = self._block_slice(k)
        if sl.start in self._memo:
            return self._memo[sl.start]
        ell = self._chol_from_block(self.theta[sl][: self.n_tri])
        f = ell @ ell.T
        df = np.zeros((self.dim, self.n_x, self.n_x))
        rows, cols = self._tril_idx
        for j in range(self.n_tri):
            d_ell = np.zeros_like(ell)
            if rows[j] == cols[j]:
                d_ell[rows[j], cols[j]] = ell[rows[j], cols[j]]  # log-diagonal
            else:
                d_ell[rows[j], cols[j]] = 1.0
            grad = d_ell @ ell.T
            df[sl.start + j] = grad + grad.T
        c = self.theta[sl][self.n_tri :]
        dc = np.zeros((self.dim, self.n_x))
        for j in range(self.n_x):
            dc[sl.start + self.n_tri + j, j] = 1.0
        terms = (f, df, c, dc)
        for arr in terms:
            arr.setflags(write=False)
        self._memo[sl.start] = terms
        return terms

    def replaced(self, theta: np.ndarray) -> "FeedbackPolicyParams":
        return FeedbackPolicyParams(self.n_x, self.horizon, theta, self.tied)

    def to_schedule(self) -> SamplerSchedule:
        ells = np.stack(
            [
                self._chol_from_block(self.theta[self._block_slice(k)][: self.n_tri])
                for k in range(self.horizon + 1)
            ]
        )
        cs = np.stack(
            [self.theta[self._block_slice(k)][self.n_tri :] for k in range(self.horizon + 1)]
        )
        return privacy_aware_schedule(ells, cs, feedback=True)


class _TangentFilter:
    """Growing-covariance recursion with tangents: the test reference for _BatchEngine."""

    def __init__(self, system: LinearGaussianSystem, n_tangents: int):
        self.sys = system
        self.nx = system.n_x
        self.nt = n_tangents
        self.p = np.array(system.init_cov)
        self.dp = np.zeros((n_tangents, *self.p.shape))

    def step_loss(self, f, df, c, dc, lam):
        """Per-step loss, its tangent, branch probability and its tangent."""
        nx = self.nx
        p, dp = self.p, self.dp
        pxx = p[:nx, :nx]
        pxy = p[:nx, nx:]
        pyy = p[nx:, nx:]
        dpxx = dp[:, :nx, :nx]
        dpxy = dp[:, :nx, nx:]
        dpyy = dp[:, nx:, nx:]

        s = f + pxx
        ds = df + dpxx
        s_inv = np.linalg.inv(s)
        ld_f = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(f))))
        ld_s = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(s))))
        dld_f = np.einsum("ij,tji->t", np.linalg.inv(f), df)
        dld_s = np.einsum("ij,tji->t", s_inv, ds)
        u = s_inv @ c
        quad = float(c @ u)
        dquad = 2.0 * (dc @ u) - np.einsum("i,tij,j->t", u, ds, u)
        p0 = math.exp(0.5 * (ld_f - ld_s) - 0.5 * quad)
        dp0 = p0 * (0.5 * (dld_f - dld_s) - 0.5 * dquad)

        g = s_inv @ pxx
        tr_t = float(np.trace(pxx) - np.trace(pxx @ g))
        dtr = (
            np.einsum("tii->t", dpxx)
            - np.einsum("tij,ji->t", dpxx, g)
            - np.einsum("ij,tji->t", pxx @ s_inv, dpxx - np.einsum("tij,jk->tik", ds, g))
        )
        distortion = p0 * tr_t
        ddist = dp0 * tr_t + p0 * dtr

        ld_yy = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(pyy))))
        yy_inv = np.linalg.inv(pyy)
        dld_yy = np.einsum("ij,tji->t", yy_inv, dpyy)

        def branch_logdet(m_inv_pxy, dm, label):
            s_b = pyy - pxy.T @ m_inv_pxy
            ds_b = (
                dpyy
                - np.einsum("tij,ik->tjk", dpxy, m_inv_pxy)
                - np.einsum("ij,tik->tjk", m_inv_pxy, dpxy).swapaxes(1, 2)
                + np.einsum("ij,tik,kl->tjl", m_inv_pxy, dm, m_inv_pxy)
            )
            try:
                ell = np.linalg.cholesky(s_b)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"singular {label} branch covariance") from exc
            ld = 2.0 * np.sum(np.log(np.diag(ell)))
            return ld, np.einsum("ij,tji->t", np.linalg.inv(s_b), ds_b)

        w1 = np.linalg.solve(pxx, pxy)
        ld_s1, dld_s1 = branch_logdet(w1, dpxx, "sample")
        w0 = s_inv @ pxy
        ld_s0, dld_s0 = branch_logdet(w0, ds, "no-sample")

        info = 0.5 * ((1.0 - p0) * (ld_yy - ld_s1) + p0 * (ld_yy - ld_s0))
        dinfo = 0.5 * (
            -dp0 * (ld_yy - ld_s1)
            + (1.0 - p0) * (dld_yy - dld_s1)
            + dp0 * (ld_yy - ld_s0)
            + p0 * (dld_yy - dld_s0)
        )
        loss = distortion + lam * info
        dloss = ddist + lam * dinfo
        return loss, dloss, p0, dp0

    def update(self, f, df, keep: bool):
        """Filtered covariance (and tangents) for the realized branch."""
        nx = self.nx
        p, dp = self.p, self.dp
        c_blk = p[:, :nx]
        dc_blk = dp[:, :, :nx]
        if keep:
            s = p[:nx, :nx].copy()
            ds = dp[:, :nx, :nx]
        else:
            s = f + p[:nx, :nx]
            ds = df + dp[:, :nx, :nx]
        w = np.linalg.solve(s, c_blk.T)  # (nx, d)
        dw = np.linalg.solve(
            s, dc_blk.swapaxes(1, 2) - np.einsum("tij,jk->tik", ds, w)
        )
        self.p = p - c_blk @ w
        self.dp = dp - np.einsum("ik,tkj->tij", c_blk, dw) - np.einsum("tik,kj->tij", dc_blk, w)
        self.p = 0.5 * (self.p + self.p.T)
        self.dp = 0.5 * (self.dp + self.dp.swapaxes(1, 2))
        if keep:
            self.p[:nx, :] = 0.0
            self.p[:, :nx] = 0.0
            self.dp[:, :nx, :] = 0.0
            self.dp[:, :, :nx] = 0.0

    def predict(self):
        nx = self.nx
        n = self.sys.n
        a = self.sys.a_matrix
        d_old = self.p.shape[0]
        d_new = d_old + self.sys.n_y

        def embed(mat, noise):
            out = np.empty((d_new, d_new))
            head = a @ mat[:n, :]
            out[:n, :n] = head[:, :n] @ a.T
            if noise is not None:
                out[:n, :n] += noise
            out[:n, n:] = head[:, nx:]
            out[n:, :n] = out[:n, n:].T
            out[n:, n:] = mat[nx:, nx:]
            return out

        self.p = embed(self.p, self.sys.q_cov)
        new_dp = np.empty((self.nt, d_new, d_new))
        for t in range(self.nt):
            new_dp[t] = embed(self.dp[t], None)
        self.dp = new_dp


def _inv(m):
    """Inverses of a stack of square matrices (..., d, d); 1x1 blocks use the
    closed form (np.linalg.inv costs tens of microseconds a call on small
    stacks, a division about one)."""
    return 1.0 / m if m.shape[-1] == 1 else np.linalg.inv(m)


def _det(m):
    """Determinants of a stack of square matrices (..., d, d)."""
    return m[..., 0, 0] if m.shape[-1] == 1 else np.linalg.det(m)


def _tr(a, b):
    """tr(a b_t) for every tangent t: a (..., d, d), b (..., T, d, d)."""
    return np.einsum("...ij,...tji->...t", a, b)


def _sandwich(a_t, x):
    """a @ x_b @ a.T for each x_b of a stack (..., m, m), given a.T (m, r), as two
    2-D products: numpy's stacked matmul is several times slower on 2x2 blocks."""
    m, r = a_t.shape
    y = (x.swapaxes(-1, -2).reshape(-1, m) @ a_t).reshape(*x.shape[:-2], m, r)
    return (y.swapaxes(-1, -2).reshape(-1, m) @ a_t).reshape(*x.shape[:-2], r, r)


def _observe(c, dc, r, dr, nx: int):
    """Condition each covariance c_b (B, m, m) on its first nx coordinates
    seen through noise r (n_x x n_x, per row or shared), with tangents dc
    (B, T, m, m) and dr, or dc = None. Returns (c', dc', gain)."""
    col = c[:, :, :nx]
    s_inv = _inv(c[:, :nx, :nx] + r)
    gain = col @ s_inv
    c = c - gain @ col.swapaxes(1, 2)
    if dc is None:
        return c, None, gain
    # d(col s^{-1} col^T) = w + w^T with w = (dcol - gain ds / 2) gain^T
    gain4 = gain[:, None]
    w = (dc[..., :nx] - 0.5 * (gain4 @ (dc[:, :, :nx, :nx] + dr))) @ gain4.swapaxes(2, 3)
    return c, dc - w - w.swapaxes(2, 3), gain


def _require_unknown_x(cov, rows, k: int, given: str = "Y^(k-1), Z^(k-1)"):
    """Raise a NumericalFailure naming step k if the x-covariance
    Cov(X_k | given) of a selected row (cov: (..., n_x, n_x); rows: (B,)
    bool, or True for all) is singular: x_k is then already known, and its
    information increment is undefined (conditioning on it has no gain)."""
    if (rows & (_det(cov) <= 0.0)).any():
        raise NumericalFailure(f"x_k already known (singular Cov(X_k | {given})) at k={k}")


def _branch_step(p, dp, mean, f, df, keep, obs, k: int):
    """Filter the current (x, y) block of every row for its branch at step k.

    Each p_b (B, n, n; tangents dp (B, T, n, n), or None) is conditioned on
    its x, seen exactly on kept rows (keep: (B,) bool) and through noise f
    (n_x x n_x; tangents df) on discarded ones. A kept x is known exactly,
    so its rows and columns are zeroed. Means (B, n; or None) move by the
    gain toward obs (B, n_x: the kept x, or the region center on a
    discard), and kept rows take x = obs. Returns (p, dp, mean).
    """
    nx = f.shape[-1]
    _require_unknown_x(p[:, :nx, :nx], keep, k)
    keep3 = keep[:, None, None]
    dr = None if dp is None else np.where(keep3[:, None], 0.0, df)
    p, dp, gain = _observe(p, dp, np.where(keep3, 0.0, f), dr, nx)
    p[keep, :nx, :] = 0.0
    p[keep, :, :nx] = 0.0
    if dp is not None:
        dp[keep, :, :nx, :] = 0.0
        dp[keep, :, :, :nx] = 0.0
    if mean is not None:
        mean = mean + (gain @ (obs - mean[:, :nx])[:, :, None])[:, :, 0]
        mean[keep, :nx] = obs[keep]
    return p, dp, mean


def _x_given_y(m, nx: int, k: int):
    """Cov(x | y) of each (x, y) covariance in a stack, and M_xy M_yy^{-1}.
    A singular y-block (y_k a function of the past, so the trajectory
    covariance is singular) raises a NumericalFailure naming step k."""
    myy = m[..., nx:, nx:]
    try:
        with np.errstate(divide="raise"):
            myy_inv, det = _inv(myy), _det(myy)
    except (FloatingPointError, np.linalg.LinAlgError):
        det = 0.0
    if np.any(det <= 0.0):
        raise NumericalFailure(f"singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k={k}")
    gain = m[..., :nx, nx:] @ myy_inv
    return m[..., :nx, :nx] - gain @ m[..., nx:, :nx], gain


class _BatchEngine:
    """Batched rollouts of any linear-Gaussian system on fixed-size state.

    The information terms need only S = Cov(X_k | Y^k, Z^{k-1}), an
    n_x x n_x matrix: by the block-determinant identity (checked by
    ``validation.check_determinant_identity``) the per-step increments are

        keep:     1/2 log(|P^xx| / |S|)
        discard:  1/2 log(|f + P^xx| / |f + S|)

    with P the current (x, y) block covariance. P follows the one
    current-block filter, ``_branch_step`` on the branch and ``_sandwich``
    plus Q on predict, which ``reconstruct.evaluate_schedule`` and
    ``reconstruct.kalman_additive_baseline`` run as well. S follows a
    Kalman filter for x that treats y_{k+1} as a measurement with
    correlated noise (Anderson & Moore, Optimal Filtering, 1979, ch. 5):

        keep:     S <- 0
        discard:  S <- S - S (S + f)^{-1} S
        predict:  M = A[:, :n_x] S A[:, :n_x]^T + Q,  S <- M_xx - M_xy M_yy^{-1} M_yx

    Each rollout is fixed-size, so batches advance in lockstep.
    Covariances and their forward tangents (``dp``, ``ds``, one per
    parameter; None without) depend only on the branch pattern; schedule
    rollouts pass their means through ``update``. A singular P^xx (x_k
    already known) or S (x_k a function of Y^k) leaves an information
    increment undefined and raises a NumericalFailure naming k.
    """

    def __init__(self, system: LinearGaussianSystem, batch: int, n_tangents: int):
        nx, n = system.n_x, system.n
        self.sys = system
        self.nx = nx
        self.nt = n_tangents
        self._a_t = np.ascontiguousarray(system.a_matrix.T)
        self._ax_t = np.ascontiguousarray(self._a_t[:nx])
        _require_unknown_x(system.init_cov[:nx, :nx], True, 0)
        s0, _ = _x_given_y(system.init_cov, nx, 0)
        _require_unknown_x(s0, True, 0, given="Y^k, Z^(k-1)")
        self.p = np.repeat(system.init_cov[None], batch, axis=0)
        self.s = np.repeat(s0[None], batch, axis=0)
        self.dp = np.zeros((batch, n_tangents, n, n)) if n_tangents else None
        self.ds = np.zeros((batch, n_tangents, nx, nx)) if n_tangents else None

    def take(self, rows):
        """Keep the given batch rows, in order (repeats allowed)."""
        self.p, self.s = self.p[rows], self.s[rows]
        if self.nt:
            self.dp, self.ds = self.dp[rows], self.ds[rows]

    def step_loss(self, f, df, c, dc, lam):
        """(loss, dloss, p0, dp0, info) per rollout: p0 is the no-sample
        probability, info the information increment (nats). ``c`` is the
        region center's offset from the predicted mean, (n_x,) or (B, n_x);
        without tangents ``df``/``dc`` are unused and dloss, dp0 are None.
        """
        nx = self.nx
        pxx = self.p[:, :nx, :nx]
        # the n_x x n_x blocks behind p0 and the two information increments;
        # only the tangents need more inverses than (f + P^xx)^{-1}
        blocks = np.stack([f + pxx, pxx, self.s, f + self.s])
        det = _det(blocks)
        inv = _inv(blocks if self.nt else blocks[:1])
        u = (inv[0] @ c[..., None])[..., 0]
        p0 = np.sqrt(_det(f) / det[0]) * np.exp(-0.5 * (c * u).sum(axis=-1))
        f_g = f @ inv[0]
        tr_t = np.einsum("bij,bji->b", f_g, pxx)
        # |P^xx| > 0 and |S| > 0 are checked where P and S are formed
        inc1 = np.log(det[1] / det[2])
        inc0 = np.log(det[0] / det[3])
        info = 0.5 * ((1.0 - p0) * inc1 + p0 * inc0)
        loss = p0 * tr_t + lam * info
        if not self.nt:
            return loss, None, p0, None, info
        dpxx = self.dp[:, :, :nx, :nx]
        ds = df + dpxx
        dld = _tr(inv, np.stack([ds, dpxx, self.ds, df + self.ds]))
        dquad = 2.0 * (u @ dc.T) - np.einsum("bi,btij,bj->bt", u, ds, u)
        dp0 = p0[:, None] * (0.5 * (_tr(_inv(f), df) - dld[0]) - 0.5 * dquad)
        g_p = inv[0] @ pxx
        dtr = _tr(g_p, df) + _tr(f_g, dpxx) - _tr(g_p @ f_g, ds)
        ddist = dp0 * tr_t[:, None] + p0[:, None] * dtr
        dinfo = 0.5 * (
            dp0 * (inc0 - inc1)[:, None]
            + (1.0 - p0)[:, None] * (dld[1] - dld[2])
            + p0[:, None] * (dld[0] - dld[3])
        )
        return loss, ddist + lam * dinfo, p0, dp0, info

    def update(self, f, df, keep: np.ndarray, k: int, mean=None, obs=None):
        """Filtered covariances for the realized branches of step k (keep:
        (B,) bool); with ``mean`` (B, n), also the filtered means, which
        ``_branch_step`` moves toward obs and returns."""
        self.p, self.dp, mean = _branch_step(self.p, self.dp, mean, f, df, keep, obs, k)
        s, ds, _ = _observe(self.s, self.ds, f, df, self.nx)
        keep3 = keep[:, None, None]
        self.s = np.where(keep3, 0.0, s)
        if self.nt:
            self.ds = np.where(keep3[:, None], 0.0, ds)
        return mean

    def predict(self, k: int):
        """Predicted covariances (and tangents) for step k."""
        nx, a = self.nx, self.sys.a_matrix
        self.p = _sandwich(self._a_t, self.p) + self.sys.q_cov
        _require_unknown_x(self.p[:, :nx, :nx], True, k)
        m = _sandwich(self._ax_t, self.s) + self.sys.q_cov
        self.s, gain = _x_given_y(m, nx, k)
        _require_unknown_x(self.s, True, k, given="Y^k, Z^(k-1)")
        if self.nt:
            self.dp = _sandwich(self._a_t, self.dp)
            f_x = (a[:nx, :nx] - gain @ a[nx:, :nx])[:, None]
            self.ds = f_x @ self.ds @ f_x.swapaxes(2, 3)


def _branch_rollouts(params, system, lam, horizon, rows, branch):
    """Engine rollouts of feedback parameters over branch patterns.

    Starts from ``rows`` identical rows. After each step's loss,
    ``branch(k, p0)`` returns (parent, keep, w) for the next rows: the
    parent row of each (None keeps the rows as they are), its keep flag
    and the probability w its score term divides by. Returns per-row
    (path weights, losses, dlosses, scores, kept counts, info sums).
    """
    eng = _BatchEngine(system, rows, params.dim)
    weight = np.ones(rows)
    losses = np.zeros(rows)
    infos = np.zeros(rows)
    kept = np.zeros(rows)
    dpaths = np.zeros((rows, params.dim))
    scores = np.zeros((rows, params.dim))
    for k in range(horizon + 1):
        f, df, c, dc = params.step_terms(k)
        loss, dloss, p0, dp0, info = eng.step_loss(f, df, c, dc, lam)
        losses += loss
        infos += info
        if params.dim:
            dpaths += dloss
        parent, keep, w = branch(k, p0)
        if parent is not None:
            eng.take(parent)
            weight, losses, infos, kept, dpaths, scores = (
                a[parent] for a in (weight, losses, infos, kept, dpaths, scores)
            )
            if params.dim:
                dp0 = dp0[parent]
        weight *= w
        kept += keep
        if params.dim:
            scores += (np.where(keep, -1.0, 1.0) / w)[:, None] * dp0
        eng.update(f, df, keep, k)
        if k < horizon:
            eng.predict(k + 1)
    return weight, losses, dpaths, scores, kept, infos


def _fast_gradient_batch(params, system, lam, rollouts, horizon, rng, forced=None):
    """Sampled branch patterns on the engine (feedback parameters).

    Returns (losses, dpaths, scores, rates, info_sums); ``forced`` pins
    the branch pattern (rollouts, K+1) for deterministic cross-checks.
    """

    def branch(k, p0):
        keep = rng.uniform(size=rollouts) > p0 if forced is None else forced[:, k].astype(bool)
        return None, keep, np.maximum(np.where(keep, 1.0 - p0, p0), 1e-12) if params.dim else 1.0

    _, losses, dpaths, scores, kept, infos = _branch_rollouts(
        params, system, lam, horizon, rollouts, branch
    )
    return losses, dpaths, scores, kept / (horizon + 1), infos


def _fast_schedule_batch(system, schedule, lam, rollouts, horizon, rng):
    """Batched belief-mode rollouts under a SamplerSchedule (no tangents).

    Observations are drawn from the belief's x-marginal and the branch
    follows the pointwise rule, giving the exact joint law of decisions
    and retained values. Returns (losses, info_sums, rates).
    """
    nx = system.n_x
    eng = _BatchEngine(system, rollouts, 0)
    mean = np.repeat(system.init_mean[None, :], rollouts, axis=0)
    losses = np.zeros(rollouts)
    infos = np.zeros(rollouts)
    kept = np.zeros(rollouts)
    for k in range(horizon + 1):
        f = schedule.effective_f_at(k)
        x_mean = mean[:, :nx]
        g_abs = np.broadcast_to(schedule.g_at(k, x_pred=x_mean), x_mean.shape)
        loss, _, _, _, info = eng.step_loss(f, None, g_abs - x_mean, None, lam)
        losses += loss
        infos += info
        pxx = eng.p[:, :nx, :nx]
        fac = np.sqrt(np.maximum(pxx, 0.0)) if nx == 1 else np.linalg.cholesky(pxx)
        x = x_mean + (fac @ rng.standard_normal((rollouts, nx, 1)))[:, :, 0]
        keep = schedule.keep(k, x, g_abs, rng)
        kept += keep
        mean = eng.update(f, None, keep, k, mean, np.where(keep[:, None], x, g_abs))
        if k < horizon:
            eng.predict(k + 1)
            mean = mean @ system.a_matrix.T
    return losses, infos, kept / (horizon + 1)


def _rollout_gradient_terms(params, system, lam, horizon, rng, forced=None):
    """One sampled branch pattern: (loss, pathwise dloss, score, rate).

    Reference implementation over the full growing covariance, kept for
    tests; the batched engine must reproduce it branch for branch.
    """
    filt = _TangentFilter(system, params.dim)
    loss = 0.0
    dloss = np.zeros(params.dim)
    score = np.zeros(params.dim)
    kept = 0
    for k in range(horizon + 1):
        f, df, c, dc = params.step_terms(k)
        l_k, dl_k, p0, dp0 = filt.step_loss(f, df, c, dc, lam)
        loss += l_k
        dloss += dl_k
        keep = bool(forced[k]) if forced is not None else rng.uniform() > p0
        if keep:
            kept += 1
            score += -dp0 / max(1.0 - p0, 1e-12)
        else:
            score += dp0 / max(p0, 1e-12)
        filt.update(f, df, keep)
        if k < horizon:
            filt.predict()
    return loss, dloss, score, kept / (horizon + 1)


def _scalar_case(system: LinearGaussianSystem) -> bool:
    """n_x = 1, A_yx = 0 and Q_yy > 0: where leak_estimate uses the engine."""
    if system.n_x != 1 or np.any(system.a_matrix[1:, :1] != 0.0):
        return False
    try:
        np.linalg.cholesky(system.q_cov[1:, 1:])
    except np.linalg.LinAlgError:
        return False
    return True


def leak_estimate(system, schedule, horizon: int, rollouts: int, rng):
    """Mean and standard error of the information a schedule leaks (nats)."""
    # Outside the scalar case this runs loss.rollout_losses on the growing
    # belief, one rollout at a time, because perfbench's traced coupled sweep
    # counts those calls; route every system through the engine with the
    # next benchmark change.
    if _scalar_case(system):
        _, totals, _ = _fast_schedule_batch(system, schedule, 1.0, rollouts, horizon, rng)
    else:
        totals = np.empty(rollouts)
        for r in range(rollouts):
            losses, _ = rollout_losses(system, schedule, 1.0, horizon, rng, mode="belief")
            totals[r] = mi_accumulate(losses)
    se = float(totals.std(ddof=1) / np.sqrt(rollouts)) if rollouts > 1 else 0.0
    return float(totals.mean()), se


def objective_gradient_linear(
    params: FeedbackPolicyParams,
    system: LinearGaussianSystem,
    lam: float,
    rollouts: int,
    rng,
):
    """Monte Carlo gradient of the horizon objective in feedback form.

    Estimator: mean over branch-pattern rollouts of the pathwise loss
    tangent plus the (loss - baseline)-weighted marginal branch score,
    with a leave-one-out baseline. Returns (gradient, diagnostics dict).
    """
    losses, paths, scores, rates, _ = _fast_gradient_batch(
        params, system, lam, rollouts, params.horizon, rng
    )
    if rollouts > 1:
        baseline = (losses.sum() - losses) / (rollouts - 1)
    else:
        baseline = np.zeros(1)
    grad = (paths + (losses - baseline)[:, None] * scores).mean(axis=0)
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure(f"non-finite gradient; theta={params.theta!r}")
    stderr = float(losses.std(ddof=1) / math.sqrt(rollouts)) if rollouts > 1 else 0.0
    return grad, {
        "objective": float(losses.mean()),
        "stderr": stderr,
        "sampling_rate": float(rates.mean()),
    }


def exact_objective_and_gradient(params, system, lam):
    """Exhaustive expectation over all branch patterns (small horizons).

    Level k of the engine batch holds every branch prefix as a row; each
    row splits into its discard and keep children, and branches of
    probability <= 1e-15 are pruned. Returns (objective, gradient) with
    the gradient assembled from the same pathwise + score terms as the
    estimator, weighted exactly.
    """
    horizon = params.horizon
    if 2 ** (horizon + 1) > 4096:
        raise ContractViolation("enumeration limited to horizon <= 11")

    def branch(k, p0):
        w = np.column_stack([p0, 1.0 - p0]).ravel()
        alive = w > 1e-15
        keep = np.tile([False, True], len(p0))
        return np.repeat(np.arange(len(p0)), 2)[alive], keep[alive], w[alive]

    weight, loss, dloss, score, _, _ = _branch_rollouts(params, system, lam, horizon, 1, branch)
    return float(weight @ loss), weight @ (dloss + loss[:, None] * score)


def exact_objective(params, system, lam) -> float:
    """Objective-only enumeration (used by finite-difference probes)."""
    return exact_objective_and_gradient(_NoTangents(params), system, lam)[0]


# ---------------------------------------------------------------------------
# General Stackelberg machinery: parameterized follower
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    """Realized quantities of one rollout for the general estimator.

    ``x`` holds the observable states, ``kept`` the branch pattern,
    ``features`` the follower's per-step inputs, ``score_theta`` the
    summed gradient of the log-policy along the rollout, ``info_nats``
    the realized information increments. ``weight`` supports quadrature
    batches, where episodes enumerate outcomes with exact weights.
    """

    x: np.ndarray
    kept: np.ndarray
    features: np.ndarray
    score_theta: np.ndarray
    info_nats: float = 0.0
    weight: float = 1.0


@dataclass
class LinearFollower:
    """Reconstruction linear in its parameters: pi(feat) = phi @ feat."""

    phi: np.ndarray

    def predict(self, feat):
        return float(self.phi @ feat)

    def grad_phi(self, feat):
        return np.asarray(feat, dtype=float)


def follower_gradient(follower, episodes) -> np.ndarray:
    """Pathwise gradient of the reconstruction loss in the follower's
    parameters; keep-branch steps reconstruct exactly and contribute
    nothing."""
    grad = np.zeros_like(follower.phi, dtype=float)
    for ep in episodes:
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            feat = ep.features[k]
            resid = float(np.squeeze(ep.x[k])) - follower.predict(feat)
            grad += ep.weight * (-2.0 * resid) * follower.grad_phi(feat)
    return grad


def follower_hessian(follower, episodes) -> np.ndarray:
    hess = np.zeros((follower.phi.size, follower.phi.size))
    for ep in episodes:
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            g = follower.grad_phi(ep.features[k])
            hess += ep.weight * 2.0 * np.outer(g, g)
    return hess


def best_response_jacobian(follower, episodes, theta_dim: int) -> np.ndarray:
    """Implicit-function Jacobian of the follower optimum in theta.

    -(Hessian of the follower loss)^{-1} times the expected outer product
    of the follower-loss gradient and the policy score. Singular Hessians
    get a regularized solve (+1e-6 I) with a warning.
    """
    hess = follower_hessian(follower, episodes)
    cross = np.zeros((follower.phi.size, theta_dim))
    for ep in episodes:
        gphi = np.zeros(follower.phi.size)
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            feat = ep.features[k]
            resid = float(np.squeeze(ep.x[k])) - follower.predict(feat)
            gphi += (-2.0 * resid) * follower.grad_phi(feat)
        cross += ep.weight * np.outer(gphi, ep.score_theta)
    try:
        return -np.linalg.solve(hess, cross)
    except np.linalg.LinAlgError:
        import warnings

        warnings.warn("singular follower Hessian; regularizing with 1e-6 I")
        return -np.linalg.solve(hess + 1e-6 * np.eye(hess.shape[0]), cross)


def general_policy_gradient(follower, episodes, lam: float, theta_dim: int) -> np.ndarray:
    """Two-term leader gradient with a parameterized follower.

    The implicit term chains the best-response Jacobian through the
    reconstruction's effect on the distortion (it vanishes at an exact
    best response); the score term weights the realized distortion plus
    lambda-weighted information increments by the policy score.
    """
    jac = best_response_jacobian(follower, episodes, theta_dim)  # (F, T)
    term1 = jac.T @ follower_gradient(follower, episodes)
    term2 = np.zeros(theta_dim)
    for ep in episodes:
        dist = sum(
            (float(np.squeeze(ep.x[k])) - follower.predict(ep.features[k])) ** 2
            for k in range(len(ep.kept))
            if not ep.kept[k]
        )
        term2 += ep.weight * (dist + lam * ep.info_nats) * ep.score_theta
    return term1 + term2


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    iteration: int
    objective: float
    stderr: float
    sampling_rate: float
    grad_norm_theta: float


@dataclass
class OptimizeResult:
    schedule: SamplerSchedule
    params: FeedbackPolicyParams
    objective: float
    converged: bool
    trace: list


def stackelberg_optimize(
    config: OptimizerConfig,
    system: LinearGaussianSystem,
    lam: float,
    init: FeedbackPolicyParams,
) -> OptimizeResult:
    """Leader loop against the conditional-mean reconstructor.

    Gradient steps on the sampling parameters with step size
    alpha_t = alpha / (1 + t/100); the follower needs no inner loop
    because the conditional mean is an exact best response. Convergence
    is declared when the validation objective moves less than
    ``CONVERGE_TOL`` relatively for ``CONVERGE_PATIENCE`` consecutive
    iterations; each move is capped at ``STEP_CLIP``. The best-seen
    parameters by validation objective are returned, and the result is
    flagged non-converged when max_iters is exhausted.
    """
    params = init
    horizon = init.horizon
    exact_ok = 2 ** (horizon + 1) <= 1024

    def validate(p: FeedbackPolicyParams):
        if exact_ok:
            return exact_objective(p, system, lam), 0.0, float("nan")
        rng = substream(config.seed, 999)  # common random numbers across iters
        losses, _, _, rates, _ = _fast_gradient_batch(
            _NoTangents(p), system, lam, config.validation_rollouts, horizon, rng
        )
        return (
            float(losses.mean()),
            float(losses.std(ddof=1) / math.sqrt(len(losses))),
            float(rates.mean()),
        )

    best_obj, _, _ = validate(params)
    best_params = params
    prev_obj = best_obj
    quiet = 0
    converged = False
    trace = []
    for it in range(config.max_iters):
        rng = substream(config.seed, it)
        grad, info = objective_gradient_linear(
            params, system, lam, config.rollouts_per_step, rng
        )
        step = config.alpha / (1.0 + it / 100.0)
        move = -step * grad
        norm = float(np.linalg.norm(move))
        if norm > STEP_CLIP:
            move *= STEP_CLIP / norm
        params = params.replaced(params.theta + move)
        obj, stderr, rate = validate(params)
        trace.append(
            TraceRow(
                iteration=it,
                objective=obj,
                stderr=stderr,
                sampling_rate=info["sampling_rate"] if math.isnan(rate) else rate,
                grad_norm_theta=float(np.linalg.norm(grad)),
            )
        )
        if obj < best_obj:
            best_obj, best_params = obj, params
        rel_change = abs(obj - prev_obj) / max(1.0, abs(prev_obj))
        quiet = quiet + 1 if rel_change < CONVERGE_TOL else 0
        prev_obj = obj
        if quiet >= CONVERGE_PATIENCE:
            converged = True
            break
    return OptimizeResult(
        schedule=best_params.to_schedule(),
        params=best_params,
        objective=best_obj,
        converged=converged,
        trace=trace,
    )


F_SCAN_GRID = (0.3, 1.0, 3.0, 10.0, 30.0)
F_SCAN_ROLLOUTS = 48


def optimize_lambda(
    config: OptimizerConfig,
    system: LinearGaussianSystem,
    lam: float,
    horizon: int,
) -> OptimizeResult:
    """Optimized feedback schedule for one lambda.

    A coarse scan scores each tied constant-f start in ``F_SCAN_GRID`` on
    ``F_SCAN_ROLLOUTS`` rollouts of the same stream; stackelberg_optimize
    then polishes the best start. ``lam`` must be finite and >= 0
    (ContractViolation otherwise).
    """
    lam = check_lambda(lam)
    best_init, best_obj = None, np.inf
    for f0 in F_SCAN_GRID:
        params = FeedbackPolicyParams.constant(system, horizon, f0=f0, tied=True)
        losses = _fast_gradient_batch(
            _NoTangents(params), system, lam, F_SCAN_ROLLOUTS, horizon, substream(config.seed, 1)
        )[0]
        obj = float(np.mean(losses))
        if obj < best_obj:
            best_obj, best_init = obj, params
    return stackelberg_optimize(config, system, lam, best_init)


class _NoTangents:
    """Adapter exposing a params object with zero tangent dimension."""

    def __init__(self, params: FeedbackPolicyParams):
        self._p = params
        self.dim = 0
        self.horizon = params.horizon

    def step_terms(self, k):
        f, _, c, _ = self._p.step_terms(k)
        return f, np.zeros((0, *f.shape)), c, np.zeros((0, c.size))
