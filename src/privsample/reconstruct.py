"""Reconstruction of the observable state, adversary estimates of the
private state, and the additive-noise Kalman baseline.

Evaluation filters the current (x, y) block of every simulated row with
one ``engine.branch_step`` per step. The baseline's x + v is a discard
through the channel noise on every row, so it runs the same step on one
shared covariance and reports its exact traces, drawing nothing.
``simulate`` takes the same decisions (``SamplerSchedule.decide``) on one
``engine.BatchEngine`` row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .engine import BatchEngine, branch_step, sandwich, transition
from .linalg import check_symmetric_psd
from .lingauss import LinearGaussianSystem, overflow_fails, simulate_batch
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
    sampling_rate: float
    predicted_x_errors: np.ndarray
    predicted_y_errors: np.ndarray

    @property
    def mean_x_error(self) -> float:
        return float(self.x_errors.mean())

    @property
    def mean_y_error(self) -> float:
        return float(self.y_errors.mean())


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
    realized sampling rate. The filter conditions the current (x, y)
    block of every row through one ``branch_step`` per step and predicts
    A P A^T + Q; P starts as one (n, n, 1) block shared by every row. A
    kept x_k that is already known (singular P^xx) raises a
    NumericalFailure naming k, and so does a value that overflows.
    ``states``, when given, are the (K+1, rollouts, n) trajectories
    ``simulate_batch`` drew from a generator now in the state of ``rng``;
    the report is then the one a call on that fresh generator gives.
    """
    if schedule.horizon < horizon:
        raise ContractViolation("schedule shorter than the requested horizon")
    nx = system.n_x
    a, q = system.a_matrix, system.q_cov[..., None]
    if states is None:
        states = simulate_batch(system, horizon, rollouts, rng)
    p = system.init_cov[..., None]
    mean = np.repeat(system.init_mean[:, None], rollouts, axis=1)
    x_err, y_err, px_err, py_err = np.zeros((4, horizon + 1))
    n_sent = 0
    for k in range(horizon + 1):
        with overflow_fails(k):
            if k:
                p = sandwich(a, p) + q
                mean = transition(a, mean)
            keep, obs = schedule.decide(k, states[k][:, :nx], mean[:nx].T, rng)
            # never_sample is f -> infinity: its discards carry no evidence
            if schedule.kind != "never_sample":
                f = schedule.f_at(k)[..., None]
                p, _, mean = branch_step(p, None, mean, f, None, keep, obs.T, k)
            n_sent += int(keep.sum())
            del keep, obs  # held into the next step, they raised a sweep's peak RSS by 1 MB
            err = (states[k].T - mean) ** 2
            x_err[k] = np.mean(np.sum(err[:nx], axis=0))
            y_err[k] = np.mean(np.sum(err[nx:], axis=0))
            px_err[k] = np.mean(np.trace(p[:nx, :nx]))
            py_err[k] = np.mean(np.trace(p[nx:, nx:]))
    return ReconstructionReport(
        x_errors=x_err,
        y_errors=y_err,
        sampling_rate=n_sent / (rollouts * (horizon + 1)),
        predicted_x_errors=px_err,
        predicted_y_errors=py_err,
    )


def simulate_rollout(system: LinearGaussianSystem, schedule: SamplerSchedule, horizon: int, rng):
    """One seeded closed-loop rollout of the physical state on one engine row.

    Returns the states (K+1, n), the decisions (K+1,; True keeps x) and,
    for the predicted (k|k-1) and filtered (k|k) block of each step, its
    mean, its variances and log|Cov(Y^k | outputs)| (the engine's chain
    rule) as trace (K+1, 2, 2n+1). The RNG gives the initial state, then
    per step the process noise (from k = 1) and the decision. A state or
    filter value that overflows raises a NumericalFailure naming its step.
    """
    nx, n = system.n_x, system.n
    eng = BatchEngine(system, 1, 0)
    states, kept = np.zeros((horizon + 1, n)), np.zeros(horizon + 1, dtype=bool)
    trace = np.zeros((horizon + 1, 2, 2 * n + 1))
    with overflow_fails(0):
        states[0] = system.draw_initial(rng)
    mean, logdet = system.init_mean[:, None], np.log(eng.det_yy)
    for k in range(horizon + 1):
        with overflow_fails(k):
            if k:
                eng.predict(k)
                logdet = logdet + np.log(eng.det_yy)
                mean = transition(system.a_matrix, mean)
                states[k] = system.a_matrix @ states[k - 1] + system.draw_noise(rng)
            trace[k, 0] = np.concatenate([mean[:, 0], np.diagonal(eng.p)[0], logdet])
            f = schedule.f_at(k)[..., None]
            keep, obs = schedule.decide(k, states[k, None, :nx], mean[:nx].T, rng)
            inc_keep, inc_discard = eng.branch_terms(f)[2:]
            logdet = logdet - (inc_keep if keep[0] else inc_discard)
            mean = eng.update(f, None, keep, k, mean, obs.T)
        kept[k], trace[k, 1] = keep[0], np.concatenate([mean[:, 0], np.diagonal(eng.p)[0], logdet])
    return states, kept, trace


def kalman_additive_baseline(
    system: LinearGaussianSystem,
    noise_cov,
    horizon: int,
    rollouts: int,  # unused; perfbench reads it by name: drop it with the next benchmark change
) -> ReconstructionReport:
    """Exact expected errors of every-step transmission of x + v,
    v ~ N(0, noise_cov), Kalman filtered; the sampling rate is 1.

    x + v is a discard through the channel noise on every row, so the
    filter's covariance does not depend on the data: one (n, n, 1) block,
    conditioned by ``branch_step`` and predicted A P A^T + Q, a Riccati
    recursion (Anderson & Moore, Optimal Filtering, 1979). The filter is
    unbiased, so its expected squared errors at step k are exactly
    tr P^xx and tr P^yy. Nothing is simulated and nothing is drawn.
    ``noise_cov`` must be symmetric PSD (ContractViolation otherwise); 0
    is an exact observation, and a singular one is exact along its null
    space. A value that overflows raises a NumericalFailure naming k.
    """
    noise_cov = check_symmetric_psd(np.atleast_2d(noise_cov), name="noise_cov")
    nx = system.n_x
    f, keep = noise_cov[..., None], np.zeros(1, dtype=bool)
    p, q = system.init_cov[..., None], system.q_cov[..., None]
    x_err, y_err = np.zeros((2, horizon + 1))
    for k in range(horizon + 1):
        with overflow_fails(k):
            if k:
                p = sandwich(system.a_matrix, p) + q
            p = branch_step(p, None, None, f, None, keep, None, k)[0]
            x_err[k] = np.mean(np.trace(p[:nx, :nx]))
            y_err[k] = np.mean(np.trace(p[nx:, nx:]))
    # the realized errors' expectations are the forecast itself
    return ReconstructionReport(x_err, y_err, 1.0, x_err, y_err)
