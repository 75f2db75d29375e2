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
import scipy.linalg as sla

from .errors import ContractViolation, NumericalFailure
from .lingauss import LinearGaussianSystem
from .loss import mi_accumulate, rollout_losses
from .policy import SamplerSchedule, privacy_aware_schedule
from .rngs import substream


@dataclass(frozen=True)
class OptimizerConfig:
    """Step sizes follow the fixed schedule alpha_t = alpha / (1 + t/100);
    ``step_clip`` caps the parameter move per iteration so a noisy early
    gradient cannot overshoot onto the flat never-sample plateau (where
    the gradient vanishes and the walk would die)."""

    alpha: float = 0.25
    rollouts_per_step: int = 48
    max_iters: int = 120
    tol: float = 1e-3
    seed: int = 0
    validation_rollouts: int = 512
    patience: int = 10
    step_clip: float = 0.5

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

    def f_with_tangents(self, k: int):
        """f_k and df_k/dtheta (dim, n_x, n_x); zero rows off the block."""
        sl = self._block_slice(k)
        vals = self.theta[sl][: self.n_tri]
        ell = self._chol_from_block(vals)
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
        return f, df

    def c_with_tangents(self, k: int):
        sl = self._block_slice(k)
        c = self.theta[sl][self.n_tri :]
        dc = np.zeros((self.dim, self.n_x))
        for j in range(self.n_x):
            dc[sl.start + self.n_tri + j, j] = 1.0
        return c, dc

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
    """Covariance recursion with forward-mode tangents (means not needed)."""

    def __init__(self, system: LinearGaussianSystem, n_tangents: int):
        self.sys = system
        self.nx = system.n_x
        self.nt = n_tangents
        self.p = np.array(system.init_cov)
        self.dp = np.zeros((n_tangents, *self.p.shape))

    def clone(self):
        out = _TangentFilter.__new__(_TangentFilter)
        out.sys, out.nx, out.nt = self.sys, self.nx, self.nt
        out.p = self.p.copy()
        out.dp = self.dp.copy()
        return out

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
        s_cho = sla.cho_factor(s)
        s_inv = sla.cho_solve(s_cho, np.eye(nx))
        ld_f = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(f))))
        ld_s = 2.0 * np.sum(np.log(np.diag(s_cho[0])))
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

        yy_cho = sla.cho_factor(pyy)
        ld_yy = 2.0 * np.sum(np.log(np.diag(yy_cho[0])))
        yy_inv = sla.cho_solve(yy_cho, np.eye(pyy.shape[0]))
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
                cho = sla.cho_factor(s_b)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"singular {label} branch covariance") from exc
            ld = 2.0 * np.sum(np.log(np.diag(cho[0])))
            inv = sla.cho_solve(cho, np.eye(s_b.shape[0]))
            return ld, np.einsum("ij,tji->t", inv, ds_b)

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


class _ScalarBatchEngine:
    """Vectorized rollouts for scalar-observation systems with A_yx = 0.

    When the private block does not feed the observable one, conditioning
    on the whole private trajectory leaves x with its own scalar filter:
    the per-step information increments collapse to

        keep:     1/2 log(Pxx / s2)
        discard:  1/2 log((f + Pxx) / (f + s2))

    with s2 = Var(X_k | Y^k, Z^{k-1}) following the same predict/update
    recursion as Pxx under the reduced noise Qxx - Qxy^2/Qyy. Everything
    a rollout needs is then a handful of scalars per step, so whole
    batches advance in lockstep. Covariances (and their tangents) depend
    only on the branch pattern; means are tracked only to center the
    discard region for absolute-g schedules.
    """

    @staticmethod
    def applicable(system: LinearGaussianSystem) -> bool:
        if system.n_x != 1 or np.any(system.a_matrix[1:, :1] != 0.0):
            return False
        try:
            np.linalg.cholesky(system.q_cov[1:, 1:])
        except np.linalg.LinAlgError:
            return False
        return True

    def __init__(self, system: LinearGaussianSystem, batch: int, n_tangents: int):
        if not self.applicable(system):
            raise ContractViolation("fast scalar engine requires n_x=1 and A_yx=0")
        self.sys = system
        self.batch = batch
        self.nt = n_tangents
        n = system.n
        q = system.q_cov
        self.q_cond = float(q[0, 0] - q[0, 1:] @ np.linalg.solve(q[1:, 1:], q[1:, 0]))
        p0 = system.init_cov
        s2_0 = float(p0[0, 0] - p0[0, 1:] @ np.linalg.solve(p0[1:, 1:], p0[1:, 0]))
        self.p2 = np.repeat(p0[None, :, :], batch, axis=0)
        self.s2 = np.full(batch, s2_0)
        self.mean = np.repeat(system.init_mean[None, :], batch, axis=0)
        if n_tangents:
            self.dp2 = np.zeros((batch, n_tangents, n, n))
            self.ds2 = np.zeros((batch, n_tangents))

    def step_loss(self, f, df, c, dc, lam):
        """Vectorized loss/score pieces; c is the offset from the predicted
        mean (feedback form). Returns scalars per rollout."""
        nt = self.nt
        pxx = self.p2[:, 0, 0]
        s = f + pxx
        p0 = np.sqrt(f / s) * np.exp(-0.5 * c * c / s)
        tr_t = f * pxx / s
        distortion = p0 * tr_t
        inc1 = np.log(np.clip(pxx / self.s2, 1e-300, None))
        inc0 = np.log(np.clip(s / (f + self.s2), 1e-300, None))
        info = 0.5 * ((1.0 - p0) * inc1 + p0 * inc0)
        loss = distortion + lam * info
        if not nt:
            return loss, None, p0, None, info
        dpxx = self.dp2[:, :, 0, 0]
        ds = df[None, :] + dpxx
        dp0 = p0[:, None] * (
            0.5 * (df[None, :] / f - ds / s[:, None])
            + 0.5 * (c * c / s**2)[:, None] * ds
            - (c / s)[:, None] * dc[None, :]
        )
        dtr = (df[None, :] * pxx[:, None] + f * dpxx) / s[:, None] - (
            (tr_t / s)[:, None] * ds
        )
        ddist = dp0 * tr_t[:, None] + p0[:, None] * dtr
        dinc1 = dpxx / pxx[:, None] - self.ds2 / self.s2[:, None]
        dinc0 = ds / s[:, None] - (df[None, :] + self.ds2) / (f + self.s2)[:, None]
        dinfo = 0.5 * (
            -dp0 * inc1[:, None]
            + (1.0 - p0)[:, None] * dinc1
            + dp0 * inc0[:, None]
            + p0[:, None] * dinc0
        )
        return loss, ddist + lam * dinfo, p0, dp0, info

    def update(self, f, df, keep: np.ndarray):
        """Masked filtered update for the whole batch."""
        pxx = self.p2[:, 0, 0]
        s_eff = np.where(keep, pxx, f + pxx)
        c_col = self.p2[:, :, 0]
        gain = c_col / s_eff[:, None]
        self.p2 = self.p2 - gain[:, :, None] * c_col[:, None, :]
        if self.nt:
            dc_col = self.dp2[:, :, :, 0]
            ds_eff = np.where(keep[:, None], self.dp2[:, :, 0, 0], df[None, :] + self.dp2[:, :, 0, 0])
            dgain = (dc_col - gain[:, None, :] * ds_eff[:, :, None]) / s_eff[:, None, None]
            self.dp2 = (
                self.dp2
                - dgain[:, :, :, None] * c_col[:, None, None, :]
                - gain[:, None, :, None] * dc_col[:, :, None, :]
            )
            self.dp2[keep, :, 0, :] = 0.0
            self.dp2[keep, :, :, 0] = 0.0
            ds2_f = (
                (df[None, :] * self.s2[:, None] + f * self.ds2) / (f + self.s2)[:, None]
                - (f * self.s2 / (f + self.s2) ** 2)[:, None] * (df[None, :] + self.ds2)
            )
            self.ds2 = np.where(keep[:, None], 0.0, ds2_f)
        self.p2[keep, 0, :] = 0.0
        self.p2[keep, :, 0] = 0.0
        self.s2 = np.where(keep, 0.0, f * self.s2 / (f + self.s2))

    def update_means(self, f, keep, g_abs, z):
        """Filtered means (needed only for absolute-g schedules)."""
        pxx_pre = self._pxx_pre
        c_col = self._ccol_pre
        innov = np.where(keep, z - self.mean[:, 0], g_abs - self.mean[:, 0])
        s_eff = np.where(keep, pxx_pre, f + pxx_pre)
        self.mean = self.mean + c_col * (innov / s_eff)[:, None]
        self.mean[keep, 0] = z[keep]

    def snapshot_pre_update(self):
        self._pxx_pre = self.p2[:, 0, 0].copy()
        self._ccol_pre = self.p2[:, :, 0].copy()

    def predict(self):
        a = self.sys.a_matrix
        self.p2 = a @ self.p2 @ a.T + self.sys.q_cov
        self.s2 = a[0, 0] ** 2 * self.s2 + self.q_cond
        self.mean = self.mean @ a.T
        if self.nt:
            self.dp2 = np.einsum("ij,btjk,lk->btil", a, self.dp2, a)
            self.ds2 = a[0, 0] ** 2 * self.ds2


def _fast_gradient_batch(params, system, lam, rollouts, horizon, rng, forced=None):
    """Batched rollouts on the scalar fast path (feedback parameters).

    Returns (losses, dpaths, scores, rates, info_sums); ``forced`` pins
    the branch pattern (rollouts, K+1) for deterministic cross-checks.
    """
    eng = _ScalarBatchEngine(system, rollouts, params.dim)
    losses = np.zeros(rollouts)
    infos = np.zeros(rollouts)
    kept = np.zeros(rollouts)
    dpaths = np.zeros((rollouts, params.dim))
    scores = np.zeros((rollouts, params.dim))
    for k in range(horizon + 1):
        f_mat, df_mat = params.f_with_tangents(k)
        c_vec, dc_vec = params.c_with_tangents(k)
        f, df = float(f_mat[0, 0]), df_mat[:, 0, 0]
        c, dc = float(c_vec[0]), dc_vec[:, 0]
        loss, dloss, p0, dp0, info = eng.step_loss(f, df, c, dc, lam)
        losses += loss
        infos += info
        if params.dim:
            dpaths += dloss
        if forced is None:
            keep = rng.uniform(size=rollouts) > p0
        else:
            keep = forced[:, k].astype(bool)
        kept += keep
        if params.dim:
            branch_p = np.where(keep, np.clip(1.0 - p0, 1e-12, None), np.clip(p0, 1e-12, None))
            sign = np.where(keep, -1.0, 1.0)
            scores += (sign / branch_p)[:, None] * dp0
        eng.update(f, df, keep)
        if k < horizon:
            eng.predict()
    return losses, dpaths, scores, kept / (horizon + 1), infos


def _fast_schedule_batch(system, schedule, lam, rollouts, horizon, rng):
    """Batched belief-mode rollouts under a SamplerSchedule (no tangents).

    Observations are drawn from the belief's x-marginal and the branch
    follows the pointwise rule, giving the exact joint law of decisions
    and retained values. Returns (losses, info_sums, rates).
    """
    eng = _ScalarBatchEngine(system, rollouts, 0)
    losses = np.zeros(rollouts)
    infos = np.zeros(rollouts)
    kept = np.zeros(rollouts)
    no_df = np.zeros(0)
    no_dc = np.zeros(0)
    for k in range(horizon + 1):
        f = float(schedule.effective_f_at(k)[0, 0])
        if schedule.feedback:
            g_abs = eng.mean[:, 0] + schedule.g[k, 0]
        else:
            g_abs = np.full(rollouts, schedule.g[k, 0])
        c = g_abs - eng.mean[:, 0]
        loss, _, _, _, info = eng.step_loss(f, no_df, c, no_dc, lam)
        losses += loss
        infos += info
        eng.snapshot_pre_update()
        x = eng.mean[:, 0] + np.sqrt(
            np.clip(eng.p2[:, 0, 0], 0.0, None)
        ) * rng.standard_normal(rollouts)
        keep = schedule.keep(k, x[:, None], g_abs[:, None], rng)
        kept += keep
        eng.update(f, no_df, keep)
        eng.update_means(f, keep, g_abs, x)
        if k < horizon:
            eng.predict()
    return losses, infos, kept / (horizon + 1)


def _rollout_gradient_terms(params, system, lam, horizon, rng, forced=None):
    """One sampled branch pattern: (loss, pathwise dloss, score, rate).

    Reference implementation over the full growing covariance; the
    batched scalar engine must reproduce it branch for branch.
    """
    filt = _TangentFilter(system, params.dim)
    loss = 0.0
    dloss = np.zeros(params.dim)
    score = np.zeros(params.dim)
    kept = 0
    for k in range(horizon + 1):
        f, df = params.f_with_tangents(k)
        c, dc = params.c_with_tangents(k)
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


def _parameter_rollouts(params, system, lam, rollouts, rng):
    """(losses, pathwise dlosses, scores, rates) of sampled branch patterns.

    The one engine choice for parameter rollouts: batched on the scalar
    engine when it applies, otherwise one growing-covariance reference
    rollout at a time.
    """
    horizon = params.horizon
    if _ScalarBatchEngine.applicable(system):
        losses, paths, scores, rates, _ = _fast_gradient_batch(
            params, system, lam, rollouts, horizon, rng
        )
        return losses, paths, scores, rates
    losses = np.empty(rollouts)
    rates = np.empty(rollouts)
    paths = np.empty((rollouts, params.dim))
    scores = np.empty((rollouts, params.dim))
    for r in range(rollouts):
        losses[r], paths[r], scores[r], rates[r] = _rollout_gradient_terms(
            params, system, lam, horizon, rng
        )
    return losses, paths, scores, rates


def leak_estimate(system, schedule, horizon: int, rollouts: int, rng):
    """Mean and standard error of the information a schedule leaks (nats).

    The one engine choice for schedule rollouts: belief-mode rollouts on
    the scalar engine when it applies, otherwise ``loss.rollout_losses``
    on the growing belief, one rollout at a time.
    """
    if _ScalarBatchEngine.applicable(system):
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
    losses, paths, scores, rates = _parameter_rollouts(params, system, lam, rollouts, rng)
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


def exact_objective_and_gradient(params, system, lam, horizon=None):
    """Exhaustive expectation over all branch patterns (small horizons).

    Returns (objective, gradient) with the gradient assembled from the
    same pathwise + score terms as the estimator, weighted exactly.
    """
    horizon = params.horizon if horizon is None else horizon
    if 2 ** (horizon + 1) > 4096:
        raise ContractViolation("enumeration limited to horizon <= 11")
    total = 0.0
    grad = np.zeros(params.dim)

    def recurse(filt, k, weight, loss_acc, dloss_acc, score_acc):
        nonlocal total, grad
        f, df = params.f_with_tangents(k)
        c, dc = params.c_with_tangents(k)
        l_k, dl_k, p0, dp0 = filt.step_loss(f, df, c, dc, lam)
        loss_acc = loss_acc + l_k
        dloss_acc = dloss_acc + dl_k
        for keep in (False, True):
            w = (1.0 - p0) if keep else p0
            if w <= 1e-15:
                continue
            d_logw = (-dp0 / w) if keep else (dp0 / w)
            branch_score = score_acc + d_logw
            child = filt.clone()
            child.update(f, df, keep)
            if k == horizon:
                total += weight * w * loss_acc
                grad += weight * w * (dloss_acc + loss_acc * branch_score)
            else:
                child.predict()
                recurse(child, k + 1, weight * w, loss_acc, dloss_acc, branch_score)

    recurse(_TangentFilter(system, params.dim), 0, 1.0, 0.0, np.zeros(params.dim), np.zeros(params.dim))
    return total, grad


def exact_objective(params, system, lam, horizon=None) -> float:
    """Objective-only enumeration (used by finite-difference probes)."""
    return exact_objective_and_gradient(_NoTangents(params), system, lam, horizon)[0]


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
    is declared when the validation objective moves less than ``tol``
    relatively for ``patience`` consecutive iterations; the best-seen
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
        losses, _, _, rates = _parameter_rollouts(
            _NoTangents(p), system, lam, config.validation_rollouts, rng
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
        if norm > config.step_clip:
            move *= config.step_clip / norm
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
        quiet = quiet + 1 if rel_change < config.tol else 0
        prev_obj = obj
        if quiet >= config.patience:
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
    then polishes the best start.
    """
    best_init, best_obj = None, np.inf
    for f0 in F_SCAN_GRID:
        params = FeedbackPolicyParams.constant(system, horizon, f0=f0, tied=True)
        losses, _, _, _ = _parameter_rollouts(
            _NoTangents(params), system, lam, F_SCAN_ROLLOUTS, substream(config.seed, 1)
        )
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

    def f_with_tangents(self, k):
        f, _ = self._p.f_with_tangents(k)
        return f, np.zeros((0, *f.shape))

    def c_with_tangents(self, k):
        c, _ = self._p.c_with_tangents(k)
        return c, np.zeros((0, c.size))
