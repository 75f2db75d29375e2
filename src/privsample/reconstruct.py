"""Reconstruction of the observable state, adversary estimates of the
private state, and the additive-noise Kalman baseline.

Closed-loop evaluation and the baseline run one batched filter over only
the current (x, y) block, the one ``optimizer._BatchEngine`` runs too:
``optimizer._branch_step`` conditions each row on its x (exactly when
kept; through noise f toward the region center when discarded; through
the channel noise for a baseline observation) and prediction is
A P A^T + Q. That reduction is exact: the growing-trajectory recursion
touches the (x, y_current) statistics only through the same block
operations (the soft no-sample update is a Kalman-form update with
observation noise f), so the reconstruction and current-state estimates
match the full recursion coordinate for coordinate. Information terms
need one more fixed-size statistic, Cov(X_k | Y^k, Z^{k-1}), which the
engine adds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import belief as bel
from .errors import ContractViolation
from .linalg import check_symmetric_psd, psd_sqrt
from .lingauss import LinearGaussianSystem, simulate_batch
from .optimizer import _branch_step, _sandwich
from .policy import SamplerSchedule

# perfbench's self-test looks this name up here; drop it with the next
# benchmark change.
from .loss import one_step_loss  # noqa: F401


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


def _filter_report(system, horizon, rollouts, rng, update) -> ReconstructionReport:
    """Simulate, filter the current (x, y) block, and score every step.

    ``update(k, x, p, mean)`` filters step k's predicted block covariances
    p (B, n, n) and means (B, n) given the true x (B, n_x) and returns
    (p, mean, number of rows that transmitted); prediction is A P A^T + Q.
    """
    nx = system.n_x
    a_t = np.ascontiguousarray(system.a_matrix.T)
    states = simulate_batch(system, horizon, rollouts, rng)
    p = np.repeat(system.init_cov[None], rollouts, axis=0)
    mean = np.repeat(system.init_mean[None, :], rollouts, axis=0)
    x_err, y_err, px_err, py_err = np.zeros((4, horizon + 1))
    n_sent = 0
    for k in range(horizon + 1):
        x_true = states[k][:, :nx]
        y_true = states[k][:, nx:]
        p, mean, sent = update(k, x_true, p, mean)
        n_sent += sent
        x_err[k] = np.mean(np.sum((x_true - mean[:, :nx]) ** 2, axis=1))
        y_err[k] = np.mean(np.sum((y_true - mean[:, nx:]) ** 2, axis=1))
        px_err[k] = np.mean(np.trace(p[:, :nx, :nx], axis1=1, axis2=2))
        py_err[k] = np.mean(np.trace(p[:, nx:, nx:], axis1=1, axis2=2))
        if k < horizon:
            p = _sandwich(a_t, p) + system.q_cov
            mean = mean @ system.a_matrix.T
    return ReconstructionReport(
        x_errors=x_err,
        y_errors=y_err,
        mean_x_error=float(x_err.mean()),
        mean_y_error=float(y_err.mean()),
        sampling_rate=n_sent / (rollouts * (horizon + 1)),
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
    realized sampling rate. A kept x_k that is already known (singular
    P^xx) raises a NumericalFailure naming k.
    """
    if schedule.horizon < horizon:
        raise ContractViolation("schedule shorter than the requested horizon")

    def update(k, x, p, mean):
        g_abs = np.broadcast_to(schedule.g_at(k, x_pred=mean[:, :system.n_x]), x.shape)
        keep = schedule.keep(k, x, g_abs, rng)
        if schedule.kind != "never_sample":  # f -> infinity: discards carry no evidence
            obs = np.where(keep[:, None], x, g_abs)
            p, _, mean = _branch_step(p, None, mean, schedule.f_at(k), None, keep, obs, k)
        return p, mean, int(keep.sum())

    return _filter_report(system, horizon, rollouts, rng, update)


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
    sampling rate of this baseline is 1 by construction. ``noise_cov``
    must be symmetric PSD (ContractViolation otherwise); 0 is an exact
    observation, and a singular one is exact along its null space.
    """
    noise_cov = check_symmetric_psd(np.atleast_2d(noise_cov), name="noise_cov")
    noise_fac = psd_sqrt(noise_cov)
    none_kept = np.zeros(rollouts, dtype=bool)

    def update(k, x, p, mean):
        obs = x + rng.standard_normal(x.shape) @ noise_fac.T
        # conditioning on x + v is a discard's update with f = noise_cov,
        # centered on the observation
        p, _, mean = _branch_step(p, None, mean, noise_cov, None, none_kept, obs, k)
        return p, mean, rollouts

    return _filter_report(system, horizon, rollouts, rng, update)
