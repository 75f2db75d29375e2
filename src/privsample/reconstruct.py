"""Reconstruction of the observable state, adversary estimates of the
private state, and the additive-noise Kalman baseline.

Closed-loop evaluation at scale runs a batched filter over only the
current (x, y) block. That reduction is exact: the growing-trajectory
recursion touches the (x, y_current) statistics only through the same
block operations (the soft no-sample update is a Kalman-form update with
observation noise f, pulling the mean toward the region center), so the
reconstruction and current-state estimates match the full recursion
coordinate for coordinate. The full recursion remains the reference for
anything involving trajectory information terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import belief as bel
from .errors import ContractViolation
from .lingauss import JointState, LinearGaussianSystem, TrajectoryLog, simulate_batch
from .linalg import solve_psd
from .loss import one_step_loss
from .policy import SamplerSchedule


def reconstruct_x(belief: bel.GaussianBelief) -> np.ndarray:
    """Optimal reconstruction of X_k: the filtered conditional mean."""
    if belief.phase != bel.FILTERED:
        raise ContractViolation("reconstruction uses the filtered belief")
    return belief.x_mean.copy()


def estimate_y(belief: bel.GaussianBelief) -> np.ndarray:
    """Adversary's estimate of the current private block (conditional mean)."""
    if belief.phase != bel.FILTERED:
        raise ContractViolation("estimation uses the filtered belief")
    nx, ny = belief.n_x, belief.n_y
    return belief.mean[nx : nx + ny].copy()


def smoothed_y_trajectory(belief: bel.GaussianBelief) -> np.ndarray:
    """Retrospective estimates of the tracked private blocks, oldest first.

    Every retained observation keeps refining past private states through
    the growing trajectory block, so these lag-smoothed estimates are the
    adversary's best view of the history (reported separately from the
    per-step current estimates).
    """
    if belief.phase != bel.FILTERED:
        raise ContractViolation("smoothing uses the filtered belief")
    nx, ny = belief.n_x, belief.n_y
    blocks = belief.mean[nx:].reshape(-1, ny)
    return blocks[::-1].copy()  # stored newest-first; return chronological


@dataclass
class ReconstructionReport:
    """Per-step and averaged squared errors plus the realized sampling rate.

    ``predicted_*`` carry the filter's own error forecast (trace of the
    filtered covariance blocks) for calibration checks.
    """

    x_errors: np.ndarray
    y_errors: np.ndarray
    mean_x_error: float
    mean_y_error: float
    sampling_rate: float
    predicted_x_errors: np.ndarray | None = None
    predicted_y_errors: np.ndarray | None = None

    def __post_init__(self):
        if not math.isclose(self.mean_x_error, float(np.mean(self.x_errors)), rel_tol=1e-9):
            raise ContractViolation("mean_x_error must average x_errors")
        if not math.isclose(self.mean_y_error, float(np.mean(self.y_errors)), rel_tol=1e-9):
            raise ContractViolation("mean_y_error must average y_errors")


class _BatchFilter:
    """Vectorized conditional-Gaussian filter over the current (x, y) block."""

    def __init__(self, system: LinearGaussianSystem, rollouts: int):
        self.sys = system
        self.nx = system.n_x
        self.mean = np.repeat(system.init_mean[None, :], rollouts, axis=0)
        self.cov = np.repeat(system.init_cov[None, :, :], rollouts, axis=0)

    def predict(self):
        a = self.sys.a_matrix
        self.mean = self.mean @ a.T
        self.cov = a @ self.cov @ a.T + self.sys.q_cov

    def _gain_update(self, idx, s, innovation):
        """Kalman-form update on the row subset idx; s has shape (B, nx, nx)."""
        nx = self.nx
        c = self.cov[idx][:, :, :nx]                     # (B, d, nx)
        w = np.linalg.solve(s, np.swapaxes(c, 1, 2))     # (B, nx, d) = S^{-1} C^T
        self.mean[idx] = self.mean[idx] + np.einsum("bji,bj->bi", w, innovation)
        cov = self.cov[idx] - np.einsum("bik,bkj->bij", c, w)
        self.cov[idx] = 0.5 * (cov + np.swapaxes(cov, 1, 2))

    def update_no_sample(self, idx, f, g_abs):
        if not np.any(idx):
            return
        nx = self.nx
        pxx = self.cov[idx][:, :nx, :nx]
        s = pxx + f[None, :, :]
        self._gain_update(idx, s, g_abs[idx] - self.mean[idx][:, :nx])

    def update_sample(self, idx, z):
        if not np.any(idx):
            return
        nx = self.nx
        pxx = self.cov[idx][:, :nx, :nx]
        self._gain_update(idx, pxx, z - self.mean[idx][:, :nx])
        # exact conditioning: x statistics collapse onto the observation
        self.mean[idx, :nx] = z
        cov = self.cov[idx]
        cov[:, :nx, :] = 0.0
        cov[:, :, :nx] = 0.0
        self.cov[idx] = cov

    def update_noisy_obs(self, obs, noise_cov):
        """Noisy every-step observation of x (additive-noise channel)."""
        nx = self.nx
        pxx = self.cov[:, :nx, :nx]
        s = pxx + noise_cov[None, :, :]
        self._gain_update(np.ones(len(obs), dtype=bool), s, obs - self.mean[:, :nx])


def _report_from_arrays(x_err, y_err, rate, px_err, py_err) -> ReconstructionReport:
    return ReconstructionReport(
        x_errors=x_err,
        y_errors=y_err,
        mean_x_error=float(x_err.mean()),
        mean_y_error=float(y_err.mean()),
        sampling_rate=float(rate),
        predicted_x_errors=px_err,
        predicted_y_errors=py_err,
    )


def evaluate_schedule(
    system: LinearGaussianSystem,
    schedule: SamplerSchedule,
    horizon: int,
    rollouts: int,
    rng,
) -> ReconstructionReport:
    """Closed-loop evaluation: simulate, decide pointwise, filter, score.

    Returns per-step mean squared errors of the X reconstruction and of
    the adversary's current-Y estimate, averaged over rollouts, plus the
    realized sampling rate.
    """
    if schedule.horizon < horizon:
        raise ContractViolation("schedule shorter than the requested horizon")
    nx = system.n_x
    states = simulate_batch(system, horizon, rollouts, rng)
    filt = _BatchFilter(system, rollouts)
    x_err = np.zeros(horizon + 1)
    y_err = np.zeros(horizon + 1)
    px_err = np.zeros(horizon + 1)
    py_err = np.zeros(horizon + 1)
    n_kept = 0
    for k in range(horizon + 1):
        x_true = states[k][:, :nx]
        y_true = states[k][:, nx:]
        if schedule.kind == "always_sample":
            keep = np.ones(rollouts, dtype=bool)
        elif schedule.kind == "never_sample":
            keep = np.zeros(rollouts, dtype=bool)
        else:
            f = schedule.f_at(k)
            if schedule.feedback:
                g_abs = schedule.g[k][None, :] + filt.mean[:, :nx]
            else:
                g_abs = np.repeat(schedule.g[k][None, :], rollouts, axis=0)
            d = x_true - g_abs
            quad = np.einsum("bi,ij,bj->b", d, solve_psd(f, np.eye(nx)), d)
            keep = rng.uniform(size=rollouts) > np.exp(-0.5 * quad)
            filt.update_no_sample(~keep, f, g_abs)
        filt.update_sample(keep, x_true[keep])
        n_kept += int(keep.sum())
        x_hat = filt.mean[:, :nx]
        y_hat = filt.mean[:, nx:]
        x_err[k] = np.mean(np.sum((x_true - x_hat) ** 2, axis=1))
        y_err[k] = np.mean(np.sum((y_true - y_hat) ** 2, axis=1))
        px_err[k] = np.mean(np.trace(filt.cov[:, :nx, :nx], axis1=1, axis2=2))
        py_err[k] = np.mean(np.trace(filt.cov[:, nx:, nx:], axis1=1, axis2=2))
        if k < horizon:
            filt.predict()
    rate = n_kept / (rollouts * (horizon + 1))
    return _report_from_arrays(x_err, y_err, rate, px_err, py_err)


def kalman_additive_baseline(
    system: LinearGaussianSystem,
    noise_cov,
    horizon: int,
    rollouts: int,
    rng,
) -> ReconstructionReport:
    """Every-step transmission of x + v, v ~ N(0, noise_cov), Kalman filtered.

    The filter tracks only the current (x, y) state: its observations are
    memoryless perturbations, so no trajectory block is needed. The
    sampling rate of this baseline is 1 by construction.
    """
    noise_cov = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    nx = system.n_x
    states = simulate_batch(system, horizon, rollouts, rng)
    noise_fac = np.linalg.cholesky(noise_cov) if np.any(noise_cov) else np.zeros_like(noise_cov)
    filt = _BatchFilter(system, rollouts)
    x_err = np.zeros(horizon + 1)
    y_err = np.zeros(horizon + 1)
    px_err = np.zeros(horizon + 1)
    py_err = np.zeros(horizon + 1)
    for k in range(horizon + 1):
        x_true = states[k][:, :nx]
        y_true = states[k][:, nx:]
        obs = x_true + rng.standard_normal((rollouts, nx)) @ noise_fac.T
        filt.update_noisy_obs(obs, noise_cov)
        x_err[k] = np.mean(np.sum((x_true - filt.mean[:, :nx]) ** 2, axis=1))
        y_err[k] = np.mean(np.sum((y_true - filt.mean[:, nx:]) ** 2, axis=1))
        px_err[k] = np.mean(np.trace(filt.cov[:, :nx, :nx], axis1=1, axis2=2))
        py_err[k] = np.mean(np.trace(filt.cov[:, nx:, nx:], axis1=1, axis2=2))
        if k < horizon:
            filt.predict()
    return _report_from_arrays(x_err, y_err, 1.0, px_err, py_err)


def rollout_closed_loop(
    system: LinearGaussianSystem,
    schedule: SamplerSchedule,
    horizon: int,
    rng,
    lam: float = 0.0,
) -> TrajectoryLog:
    """One full-fidelity closed-loop rollout with the growing belief.

    Used for trajectory dumps and loss bookkeeping; the batched engine is
    preferred for aggregate statistics.
    """
    belief = bel.init_belief(system)
    state = system.draw_initial(rng)
    states, decisions, outputs = [], [], []
    reconstructions, y_estimates, per_step = [], [], []
    for k in range(horizon + 1):
        x = state[: system.n_x]
        y = state[system.n_x :]
        states.append(JointState(x=x.copy(), y=y.copy(), k=k))
        f = schedule.effective_f_at(k)
        g_abs = schedule.g_at(k, x_pred=belief.x_mean)
        per_step.append(one_step_loss(belief, f, g_abs, lam))
        n_k, z = schedule.decide_at(k, x, rng, x_pred=belief.x_mean)
        decisions.append(n_k)
        outputs.append(z)
        belief = bel.update_sample(belief, z) if n_k else bel.update_no_sample(belief, f, g_abs)
        reconstructions.append(reconstruct_x(belief))
        y_estimates.append(estimate_y(belief))
        if k < horizon:
            belief = bel.predict(system, belief)
            state = system.a_matrix @ state + system.draw_noise(rng)
    return TrajectoryLog(
        states=states,
        decisions=decisions,
        outputs=outputs,
        reconstructions=reconstructions,
        y_estimates=y_estimates,
        per_step_loss=per_step,
    )
