"""Reconstruction of the observable state, adversary estimates of the
private state, and the additive-noise Kalman baseline.

Closed-loop evaluation, ``simulate``'s rollout and the baseline run the
fixed-size filter of ``engine`` over the current (x, y) block: ``branch_step``
for a keep/discard decision, ``observe`` for the baseline's x + v.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .engine import BatchEngine, branch_step, mm, observe, sandwich, transition
from .linalg import check_symmetric_psd, psd_sqrt
from .lingauss import LinearGaussianSystem, simulate_batch
from .policy import SamplerSchedule

# perfbench's self-test looks this name up here; drop it with the next
# benchmark change.
from .loss import one_step_loss  # noqa: F401


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


def _filter_report(system, horizon, rollouts, rng, update, states) -> ReconstructionReport:
    """Simulate (unless ``states`` are given), filter the current (x, y)
    block, and score every step.

    ``update(k, x, p, mean)`` filters step k's predicted block covariances
    p (n, n, B or 1) and means (n, B) given the true x (B, n_x) and returns
    (p, mean, number of rows that transmitted); prediction is A P A^T + Q.
    The covariance starts as one (n, n, 1) block shared by every row.
    """
    nx = system.n_x
    a, q = system.a_matrix, system.q_cov[..., None]
    if states is None:
        states = simulate_batch(system, horizon, rollouts, rng)
    p = system.init_cov[..., None]
    mean = np.repeat(system.init_mean[:, None], rollouts, axis=1)
    x_err, y_err, px_err, py_err = np.zeros((4, horizon + 1))
    n_sent = 0
    for k in range(horizon + 1):
        p, mean, sent = update(k, states[k][:, :nx], p, mean)
        n_sent += sent
        err = (states[k].T - mean) ** 2
        x_err[k] = np.mean(np.sum(err[:nx], axis=0))
        y_err[k] = np.mean(np.sum(err[nx:], axis=0))
        px_err[k] = np.mean(np.trace(p[:nx, :nx]))
        py_err[k] = np.mean(np.trace(p[nx:, nx:]))
        if k < horizon:
            p = sandwich(a, p) + q
            mean = transition(a, mean)
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
    states=None,
) -> ReconstructionReport:
    """Closed-loop evaluation: simulate, decide pointwise, filter, score.

    Returns per-step mean squared errors of the X reconstruction and of
    the adversary's current-Y estimate, averaged over rollouts, plus the
    realized sampling rate. A kept x_k that is already known (singular
    P^xx) raises a NumericalFailure naming k. ``states``, when given, are
    the (K+1, rollouts, n) trajectories ``simulate_batch`` drew from a
    generator now in the state of ``rng``; the report is then the one a
    call on that fresh generator gives.
    """
    if schedule.horizon < horizon:
        raise ContractViolation("schedule shorter than the requested horizon")

    def update(k, x, p, mean):
        g_abs = np.broadcast_to(schedule.g_at(k, x_pred=mean[: system.n_x].T), x.shape)
        keep = schedule.keep(k, x, g_abs, rng)
        if schedule.kind != "never_sample":  # f -> infinity: discards carry no evidence
            obs = np.where(keep, x.T, g_abs.T)
            f = schedule.f_at(k)[..., None]
            p, _, mean = branch_step(p, None, mean, f, None, keep, obs, k)
        return p, mean, int(keep.sum())

    return _filter_report(system, horizon, rollouts, rng, update, states)


def simulate_rollout(system: LinearGaussianSystem, schedule: SamplerSchedule, horizon: int, rng):
    """One seeded closed-loop rollout of the physical state on one engine row.

    Returns the states (K+1, n), the decisions (K+1,; True keeps x) and,
    for the predicted (k|k-1) and filtered (k|k) block of each step, its
    mean, its variances and log|Cov(Y^k | outputs)| (the engine's chain
    rule) as trace (K+1, 2, 2n+1). The RNG gives the initial state, then
    per step the decision and (all but the last step) the process noise.
    """
    nx, n = system.n_x, system.n
    eng = BatchEngine(system, 1, 0)
    states, kept = np.zeros((horizon + 1, n)), np.zeros(horizon + 1, dtype=bool)
    trace = np.zeros((horizon + 1, 2, 2 * n + 1))
    states[0] = system.draw_initial(rng)
    mean, logdet = system.init_mean[:, None], np.log(eng.det_yy)
    for k in range(horizon + 1):
        trace[k, 0] = np.concatenate([mean[:, 0], np.diagonal(eng.p)[0], logdet])
        f = schedule.effective_f_at(k)[..., None]
        g_abs = schedule.g_at(k, x_pred=mean[:nx, 0])
        x = states[k, :nx]
        keep = schedule.keep(k, x[None], g_abs, rng)
        inc_keep, inc_discard = eng.branch_terms(f)[2:]
        logdet = logdet - (inc_keep if keep[0] else inc_discard)
        mean = eng.update(f, None, keep, k, mean, (x if keep[0] else g_abs)[:, None])
        kept[k], trace[k, 1] = keep[0], np.concatenate([mean[:, 0], np.diagonal(eng.p)[0], logdet])
        if k < horizon:
            eng.predict(k + 1)
            logdet = logdet + np.log(eng.det_yy)
            mean = transition(system.a_matrix, mean)
            states[k + 1] = system.a_matrix @ states[k] + system.draw_noise(rng)
    return states, kept, trace


def kalman_additive_baseline(
    system: LinearGaussianSystem,
    noise_cov,
    horizon: int,
    rollouts: int,
    rng,
    states=None,
) -> ReconstructionReport:
    """Every-step transmission of x + v, v ~ N(0, noise_cov), Kalman filtered.

    The filter tracks only the current (x, y) state: its observations are
    memoryless perturbations, so no trajectory block is needed. The
    sampling rate of this baseline is 1 by construction. ``noise_cov``
    must be symmetric PSD (ContractViolation otherwise); 0 is an exact
    observation, and a singular one is exact along its null space.
    ``states`` are pre-drawn trajectories, as in evaluate_schedule.
    """
    noise_cov = check_symmetric_psd(np.atleast_2d(noise_cov), name="noise_cov")
    noise_fac = psd_sqrt(noise_cov)

    def update(k, x, p, mean):
        obs = (x + rng.standard_normal(x.shape) @ noise_fac.T).T
        # P follows the same Riccati recursion on every row, so it stays
        # one (n, n, 1) block and its gain broadcasts against the means
        p, _, gain = observe(p, None, noise_cov[..., None], None, system.n_x)
        mean = mean + mm(gain, (obs - mean[: system.n_x])[:, None])[:, 0]
        return p, mean, rollouts

    return _filter_report(system, horizon, rollouts, rng, update, states)
