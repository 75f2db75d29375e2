"""Analytic losses for the linear-Gaussian sampler.

The per-step loss splits into a distortion term (expected squared
reconstruction error, nonzero only on the discard branch) and three
lambda-weighted information terms built from log-determinants of the
trajectory block and its two Schur complements: conditioning on the exact
observation uses P^xx, conditioning on the soft no-sample evidence uses
f + P^xx.

Log-determinant differences can be evaluated on the Y side directly or on
the X side through the block-determinant identity; both paths must agree
and the agreement is part of the validation suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import (
    GaussianBelief,
    init_belief,
    predict,
    update_no_sample,
    update_sample,
)
from .errors import ContractViolation, NumericalFailure, check_lambda
from .lingauss import LinearGaussianSystem
from .linalg import inv_or_pinv, logdet_psd, psd_sqrt, solve_psd, sym
from .policy import SamplerSchedule


@dataclass(frozen=True)
class LossBreakdown:
    """One-step loss split exactly as the objective combines it.

    ``total = distortion + leak_prior_entropy + leak_sample_branch +
    leak_no_sample_branch``; the three leak fields carry their signs.
    ``info_nats`` is the unweighted expected information gain of the step
    (the same quantity the leak fields encode scaled by lambda), kept so
    mutual-information accounting works at lambda = 0.
    """

    distortion: float
    leak_prior_entropy: float
    leak_sample_branch: float
    leak_no_sample_branch: float
    p_no_sample: float
    total: float
    info_nats: float


def no_sample_prob_marginal(belief: GaussianBelief, f, g) -> float:
    """P(N_k = 0 | Z^{k-1}): the pointwise rule averaged over the belief.

    Closed form sqrt(|f| / |f + P^xx|) * exp(-1/2 (g - x)^T (f+P^xx)^{-1}
    (g - x)); evaluated through log-determinant differences so the
    f -> 0 and f -> infinity limits stay finite.
    """
    if belief.phase != "predicted":
        raise ContractViolation("marginal no-sample probability needs a predicted belief")
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    s = f + belief.p_xx
    d = g - belief.x_mean
    log_ratio = logdet_psd(f) - logdet_psd(s)
    quad = float(d @ solve_psd(s, d))
    return float(np.exp(0.5 * log_ratio - 0.5 * quad))


def _distortion_matrix(f: np.ndarray, pxx: np.ndarray) -> np.ndarray:
    """f (f + P^xx)^{-1} P^xx, evaluated as P^xx - P^xx (f+P^xx)^{-1} P^xx.

    This form avoids f^{-1} and is stable at both f extremes.
    """
    s = f + pxx
    return pxx - pxx @ solve_psd(s, pxx)


def leak_increments(belief: GaussianBelief, f) -> tuple[float, float]:
    """log|P^yy| - log|S| for the sample and no-sample branches (nats*2).

    Direct Y-side evaluation. Both values are >= 0: conditioning cannot
    increase the determinant of a PSD covariance.
    """
    nx = belief.n_x
    f = np.atleast_2d(np.asarray(f, dtype=float))
    pyy = belief.p_yy
    pxy = belief.p_xy
    ld_prior = _logdet_or_fail(pyy, belief, "P^yy")
    s1 = sym(pyy - pxy.T @ inv_or_pinv(belief.p_xx, warn_label="P^xx in leak") @ pxy)
    s0 = sym(pyy - pxy.T @ solve_psd(f + belief.p_xx, pxy))
    return (
        ld_prior - _logdet_or_fail(s1, belief, "sample-branch Schur complement"),
        ld_prior - _logdet_or_fail(s0, belief, "no-sample-branch Schur complement"),
    )


def leak_increments_via_x_side(belief: GaussianBelief, f) -> tuple[float, float]:
    """Same two increments through the block-determinant identity.

    |P^yy| / |P^yy - P^yx M^{-1} P^xy| = |M| / |M - P^xy (P^yy)^{-1} P^yx|
    with M = P^xx (sample branch) and M = f + P^xx (no-sample branch);
    only n_x-sized determinants appear once the shared G = P^xy^T-weighted
    projection is formed, which is the cheap path when the trajectory
    block is large.
    """
    nx = belief.n_x
    f = np.atleast_2d(np.asarray(f, dtype=float))
    pxy = belief.p_xy
    gmat = sym(pxy @ solve_psd(belief.p_yy, pxy.T))
    pxx = belief.p_xx
    inc_sample = logdet_psd(pxx) - _logdet_or_fail(sym(pxx - gmat), belief, "P^xx - G")
    m0 = f + pxx
    inc_no_sample = logdet_psd(m0) - _logdet_or_fail(sym(m0 - gmat), belief, "f + P^xx - G")
    return inc_sample, inc_no_sample


def _logdet_or_fail(mat: np.ndarray, belief: GaussianBelief, label: str) -> float:
    w_min = float(np.linalg.eigvalsh(mat).min()) if mat.size else 0.0
    if w_min < -1e-8 * max(1.0, float(np.max(np.abs(mat)))):
        raise NumericalFailure(
            f"indefinite {label} at k={belief.k} (min eig {w_min:.3e}); "
            f"belief diag={np.diag(belief.cov)!r}"
        )
    try:
        return logdet_psd(mat)
    except NumericalFailure as exc:
        raise NumericalFailure(f"singular {label} at k={belief.k}") from exc


def one_step_loss(belief: GaussianBelief, f, g, lam: float) -> LossBreakdown:
    """Expected one-step cost of playing (f, g) against a predicted belief.

    distortion   p0 * tr[f (f+P^xx)^{-1} P^xx]
    leaks        lam * [log sqrt|P^yy|
                        - (1-p0) log sqrt|S_sample|
                        - p0 log sqrt|S_no_sample|]
    """
    check_lambda(lam)
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    p0 = no_sample_prob_marginal(belief, f, g)
    distortion = p0 * float(np.trace(_distortion_matrix(f, belief.p_xx)))

    inc_sample, inc_no_sample = leak_increments(belief, f)
    info_nats = 0.5 * ((1.0 - p0) * inc_sample + p0 * inc_no_sample)

    ld_prior = _logdet_or_fail(belief.p_yy, belief, "P^yy")
    leak_prior = lam * 0.5 * ld_prior
    leak_sample = -lam * (1.0 - p0) * 0.5 * (ld_prior - inc_sample)
    leak_no_sample = -lam * p0 * 0.5 * (ld_prior - inc_no_sample)
    total = distortion + leak_prior + leak_sample + leak_no_sample
    return LossBreakdown(
        distortion=distortion,
        leak_prior_entropy=leak_prior,
        leak_sample_branch=leak_sample,
        leak_no_sample_branch=leak_no_sample,
        p_no_sample=p0,
        total=total,
        info_nats=info_nats,
    )


def mi_accumulate(breakdowns) -> float:
    """Total expected information gain (nats) along one rollout.

    Averaging this over rollouts estimates the mutual information
    between the output sequence and the private trajectory.
    """
    return float(sum(b.info_nats for b in breakdowns))


def _draw_x_from_belief(belief: GaussianBelief, rng) -> np.ndarray:
    fac = psd_sqrt(belief.p_xx)
    return belief.x_mean + fac @ rng.standard_normal(belief.n_x)


@dataclass(frozen=True)
class RolloutStep:
    """One step of a growing-belief rollout, as ``belief_rollout`` yields it.

    ``predicted`` is the belief (k|k-1) the sampler plays (f, g) against,
    ``x`` the observation, ``state`` the stacked (x, y) state (state mode
    only, else None), ``n`` the decision, ``z`` the output (x when
    ``n == 1``, else None) and ``filtered`` the belief (k|k) after it.
    """

    predicted: GaussianBelief
    f: np.ndarray
    g: np.ndarray
    x: np.ndarray
    state: np.ndarray | None
    n: int
    z: np.ndarray | None
    filtered: GaussianBelief


def belief_rollout(
    system: LinearGaussianSystem,
    schedule: SamplerSchedule,
    horizon: int,
    rng,
    mode: str = "belief",
):
    """One seeded closed-loop rollout of the growing belief, step by step.

    Yields a ``RolloutStep`` for k = 0..horizon. ``mode="belief"`` draws
    the observation from the belief's own x-marginal (the belief-MDP
    view; the branch then follows the pointwise rule, so N_k has exactly
    the marginal no-sample probability and the retained value has the
    correct tilted law). ``mode="state"`` simulates the physical state
    instead; the two modes induce the same joint law of (N, Z).

    The RNG is consumed in a fixed order: the initial state (state mode),
    then per step the observation draw (belief mode), the decision and
    the process noise (state mode, all but the last step).
    """
    if mode not in ("belief", "state"):
        raise ContractViolation(f"unknown rollout mode {mode!r}")
    belief = init_belief(system)
    state = system.draw_initial(rng) if mode == "state" else None
    for k in range(horizon + 1):
        f = schedule.effective_f_at(k)
        g = schedule.g_at(k, x_pred=belief.x_mean)
        x = _draw_x_from_belief(belief, rng) if mode == "belief" else state[: system.n_x]
        n_k, z = schedule.decide_at(k, x, rng, x_pred=belief.x_mean)
        filtered = update_sample(belief, x) if n_k else update_no_sample(belief, f, g)
        yield RolloutStep(belief, f, g, x, state, n_k, z, filtered)
        if k < horizon:
            belief = predict(system, filtered)
            if mode == "state":
                state = system.a_matrix @ state + system.draw_noise(rng)


def rollout_losses(
    system: LinearGaussianSystem,
    schedule: SamplerSchedule,
    lam: float,
    horizon: int,
    rng,
    mode: str = "belief",
):
    """Per-step losses of one ``belief_rollout`` (same modes and RNG use).

    Keeps only the losses, not the beliefs, so memory stays flat in the
    horizon. Returns (list of LossBreakdown, decisions array).
    """
    losses = []
    decisions = np.zeros(horizon + 1, dtype=int)
    for k, step in enumerate(belief_rollout(system, schedule, horizon, rng, mode)):
        losses.append(one_step_loss(step.predicted, step.f, step.g, lam))
        decisions[k] = step.n
    return losses, decisions


def trajectory_objective(
    system: LinearGaussianSystem,
    schedule: SamplerSchedule,
    lam: float,
    rollouts: int,
    horizon: int,
    rng,
    mode: str = "belief",
):
    """Monte Carlo estimate of the horizon objective E[sum_k l_k].

    Returns (mean, standard error, mean sampling rate).
    """
    if rollouts < 1:
        raise ContractViolation("rollouts must be >= 1")
    totals = np.empty(rollouts)
    rates = np.empty(rollouts)
    for r in range(rollouts):
        losses, decisions = rollout_losses(system, schedule, lam, horizon, rng, mode=mode)
        totals[r] = sum(b.total for b in losses)
        rates[r] = decisions.mean()
    stderr = float(totals.std(ddof=1) / math.sqrt(rollouts)) if rollouts > 1 else 0.0
    return float(totals.mean()), stderr, float(rates.mean())
