"""Reconstruction of the observable state, adversary estimates of the
private state, and the additive-noise Kalman baseline.

Evaluation and the baseline filter the current (x, y) block with one
``engine.branch_step`` per step (``_filter_report``): the baseline's x + v
is a discard through the channel noise. ``simulate`` takes the same
decisions (``SamplerSchedule.decide``) on one ``engine.BatchEngine`` row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .engine import BatchEngine, branch_step, sandwich, transition
from .linalg import check_symmetric_psd, psd_sqrt
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


def _filter_report(system, horizon, rollouts, rng, observation, states) -> ReconstructionReport:
    """Simulate (unless ``states`` are given), filter the current (x, y)
    block, and score every step.

    ``observation(k, x, mean)`` gives, for the true x (B, n_x) and means
    (n, B), ``branch_step``'s (f, keep, obs) (f None: no evidence) and the
    number of rows that transmitted; prediction is A P A^T + Q. P starts
    as one (n, n, 1) block shared by every row. A value that overflows
    raises a NumericalFailure naming its step.
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
        with overflow_fails(k):
            if k:
                p = sandwich(a, p) + q
                mean = transition(a, mean)
            f, keep, obs, sent = observation(k, states[k][:, :nx], mean)
            if f is not None:
                p, _, mean = branch_step(p, None, mean, f, None, keep, obs, k)
            del keep, obs  # held into the next step, they raised a sweep's peak RSS by 1 MB
            n_sent += sent
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

    def observation(k, x, mean):
        keep, obs = schedule.decide(k, x, mean[: system.n_x].T, rng)
        # never_sample is f -> infinity: its discards carry no evidence
        f = None if schedule.kind == "never_sample" else schedule.f_at(k)[..., None]
        return f, keep, obs.T, int(keep.sum())

    return _filter_report(system, horizon, rollouts, rng, observation, states)


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
    # x + v is a discard through the channel noise on every row, so P
    # follows one Riccati recursion and stays one (n, n, 1) block
    f, keep = noise_cov[..., None], np.zeros(1, dtype=bool)

    def observation(k, x, mean):
        return f, keep, (x + rng.standard_normal(x.shape) @ noise_fac.T).T, rollouts

    return _filter_report(system, horizon, rollouts, rng, observation, states)
