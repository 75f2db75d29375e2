"""Analytic losses for the linear-Gaussian sampler.

The per-step loss splits into a distortion term (expected squared
reconstruction error, nonzero only on the discard branch) and three
lambda-weighted information terms built from log-determinants of the
trajectory block P^yy and its two Schur complements: conditioning on the
exact observation (S_keep = Cov(Y^k | X_k)) and on the soft no-sample
evidence through f (S_discard).

A step factors its n_x blocks P^xx and f + P^xx once
(``belief.step_factors``); the loss takes p0 and the distortion from the
factor of f + P^xx, and the realized branch posterior reuses both
factors. The log-determinants come from one Cholesky factorization of the
predicted covariance ordered trajectory first and x last: its leading
diagonal gives log|P^yy| and its trailing n_x block factors
C = Cov(X_k | Y^k, Z^(k-1)), so by the block-determinant identity
(``validation.check_determinant_identity``)

    log|S_keep|    = log|P^yy| + log|C| - log|P^xx|
    log|S_discard| = log|P^yy| + log|f + C| - log|f + P^xx|.

The fixed-size engine (``engine.BatchEngine``) carries C itself and
evaluates the same increments; the tests check it against this growing
reference on whole rollouts. Every factorization is a plain Cholesky, and
a failed one raises a NumericalFailure naming k with the engine's message
for that block (see ``branch_logdets``); nothing is repaired.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import (
    GaussianBelief,
    StepFactors,
    discard_branch,
    init_belief,
    keep_branch,
    predict,
    step_factors,
    update_no_sample,
    update_sample,
)
from .errors import ContractViolation, NumericalFailure, check_lambda
from .lingauss import LinearGaussianSystem
from .linalg import cholesky, factor_logdet, logdet_psd
from .policy import SamplerSchedule


@dataclass(frozen=True)
class LossBreakdown:
    """One-step loss split exactly as the objective combines it.

    ``total = distortion + leak_prior_entropy + leak_sample_branch +
    leak_no_sample_branch``; the three leak fields carry their signs.
    ``info_nats`` is the unweighted expected information gain of the step
    (the same quantity the leak fields encode scaled by lambda), kept so
    mutual-information accounting works at lambda = 0. ``logdets`` holds
    the step's (log|P^yy|, log|S_keep|, log|S_discard|), as
    ``branch_logdets`` returns them.
    """

    distortion: float
    leak_prior_entropy: float
    leak_sample_branch: float
    leak_no_sample_branch: float
    p_no_sample: float
    total: float
    info_nats: float
    logdets: tuple[float, float, float]


def no_sample_prob_marginal(
    belief: GaussianBelief, f, g, factors: StepFactors | None = None
) -> float:
    """P(N_k = 0 | Z^{k-1}): the pointwise rule averaged over the belief.

    Closed form sqrt(|f| / |f + P^xx|) * exp(-1/2 (g - x)^T (f+P^xx)^{-1}
    (g - x)); evaluated through log-determinant differences so the
    f -> 0 and f -> infinity limits stay finite. Reuses the factor of
    f + P^xx in ``factors`` (``step_factors(belief, f)`` when not given).
    """
    if belief.phase != "predicted":
        raise ContractViolation("marginal no-sample probability needs a predicted belief")
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if factors is None:
        factors = step_factors(belief, f)
    d = g - belief.x_mean
    log_ratio = logdet_psd(f) - factors.logdet
    quad = float(d @ (factors.l_inv.T @ (factors.l_inv @ d)))
    return float(np.exp(0.5 * log_ratio - 0.5 * quad))


# exp(-keep increment) = |Cov(X_k | Y^k)| / |P^xx|, the keep increment being
# log|P^yy| - log|S_keep| = log|P^xx| - log|C| (nats*2); at or below 1e-12
# the x_k block is a function of Y^k up to rounding (the largest increment
# on the paper and coupled systems is about 1.9)
KNOWN_X_INCREMENT = -math.log(1e-12)


def branch_logdets(
    belief: GaussianBelief, f, factors: StepFactors | None = None
) -> tuple[float, float, float]:
    """(log|P^yy|, log|S_keep|, log|S_discard|) for one predicted belief.

    S_keep = Cov(Y^k | X_k) and S_discard, the trajectory block after the
    soft evidence through f, are the trajectory blocks of the two branch
    posteriors. All three come from the Cholesky factor of the covariance
    reversed (trajectory first, x last) and the n_x factors: the factor's
    leading d - n_x diagonal is that of P^yy reversed, and its trailing
    block L_c factors C reversed, C = Cov(X_k | Y^k, Z^(k-1)).

    A failed factorization raises a NumericalFailure naming k with the
    engine's message. When the whole factorization fails, P^yy alone,
    reversed as there, is factored to tell a singular Cov(Y_k | Y^(k-1),
    Z^(k-1)) (y_k a function of the past) from a singular C (x_k already
    known from the trajectory). A keep increment log|P^xx| - log|C| at
    ``KNOWN_X_INCREMENT`` raises the latter too: C is then zero, and only a
    rounding residue let it factor.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if factors is None:
        factors = step_factors(belief, f)
    k, m = belief.k, belief.dim - belief.n_x
    try:
        ell = cholesky(belief.cov[::-1, ::-1])
    except np.linalg.LinAlgError:
        try:
            cholesky(belief.p_yy[::-1, ::-1])
        except np.linalg.LinAlgError:
            raise NumericalFailure(f"singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k={k}") from None
        raise NumericalFailure(_known_x(k)) from None
    log_diag = np.log(ell.diagonal())
    ld_prior = 2.0 * float(log_diag[:m].sum())
    ld_c = 2.0 * float(log_diag[m:].sum())
    ld_xx = factor_logdet(factors.l_xx)
    if ld_xx - ld_c >= KNOWN_X_INCREMENT:
        raise NumericalFailure(f"{_known_x(k)}; keep increment {ld_xx - ld_c:.3g}")
    l_c = ell[m:, m:]
    try:
        ld_f_c = factor_logdet(cholesky(f + (l_c @ l_c.T)[::-1, ::-1]))
    except np.linalg.LinAlgError:
        raise NumericalFailure(
            f"f + Cov(X_k | Y^k, Z^(k-1)) not positive definite at k={k}"
        ) from None
    return ld_prior, ld_prior + ld_c - ld_xx, ld_prior + ld_f_c - factors.logdet


def _known_x(k: int) -> str:
    return f"x_k already known (singular Cov(X_k | Y^k, Z^(k-1))) at k={k}"


def one_step_loss(
    belief: GaussianBelief, f, g, lam: float, factors: StepFactors | None = None
) -> LossBreakdown:
    """Expected one-step cost of playing (f, g) against a predicted belief.

    distortion   p0 * tr[f (f+P^xx)^{-1} P^xx]
    leaks        lam * [log sqrt|P^yy|
                        - (1-p0) log sqrt|S_sample|
                        - p0 log sqrt|S_no_sample|]

    ``factors`` are the step's ``belief.step_factors`` (formed here when
    not given). The distortion trace is that of P^xx - P^xx (f+P^xx)^{-1}
    P^xx, the x block of the discard posterior, stable at both f extremes.
    """
    check_lambda(lam)
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if factors is None:
        factors = step_factors(belief, f)
    p0 = no_sample_prob_marginal(belief, f, g, factors)
    pxx, l_inv = belief.p_xx, factors.l_inv
    distortion = p0 * float(np.trace(pxx - (l_inv.T @ (l_inv @ pxx)).T @ pxx))

    logdets = branch_logdets(belief, f, factors)
    ld_prior, ld_keep, ld_discard = logdets
    info_nats = 0.5 * ((1.0 - p0) * (ld_prior - ld_keep) + p0 * (ld_prior - ld_discard))

    leak_prior = lam * 0.5 * ld_prior
    leak_sample = -lam * (1.0 - p0) * 0.5 * ld_keep
    leak_no_sample = -lam * p0 * 0.5 * ld_discard
    total = distortion + leak_prior + leak_sample + leak_no_sample
    return LossBreakdown(
        distortion=distortion,
        leak_prior_entropy=leak_prior,
        leak_sample_branch=leak_sample,
        leak_no_sample_branch=leak_no_sample,
        p_no_sample=p0,
        total=total,
        info_nats=info_nats,
        logdets=logdets,
    )


def mi_accumulate(breakdowns) -> float:
    """Total expected information gain (nats) along one rollout.

    Averaging this over rollouts estimates the mutual information
    between the output sequence and the private trajectory.
    """
    return float(sum(b.info_nats for b in breakdowns))


@dataclass(frozen=True)
class RolloutStep:
    """One step of a growing-belief rollout, as ``belief_rollout`` yields it.

    ``predicted`` is the belief (k|k-1) the sampler plays (f, g) against,
    ``x`` the observation, ``state`` the stacked (x, y) state (state mode
    only, else None), ``n`` the decision (1: x is the output) and
    ``filtered`` the belief (k|k) after it, the realized branch posterior
    alone. ``factors`` are ``predicted``'s ``belief.step_factors`` under
    f, which the branch used and the step's loss reuses.
    """

    predicted: GaussianBelief
    f: np.ndarray
    g: np.ndarray
    x: np.ndarray
    state: np.ndarray | None
    n: int
    filtered: GaussianBelief
    factors: StepFactors


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
    then per step the observation draw (belief mode), the decision (one
    row of ``schedule.keep``) and the process noise (state mode, all but
    the last step). It is the tests' reference for the fixed-size engine;
    ``validate`` and the leak fallback run it through ``rollout_losses``.
    """
    if mode not in ("belief", "state"):
        raise ContractViolation(f"unknown rollout mode {mode!r}")
    belief = init_belief(system)
    state = system.draw_initial(rng) if mode == "state" else None
    for k in range(horizon + 1):
        f = schedule.f_at(k)
        g = schedule.g_at(k, x_pred=belief.x_mean)
        factors = step_factors(belief, f)
        if mode == "belief":
            x = belief.x_mean + factors.l_xx @ rng.standard_normal(system.n_x)
        else:
            x = state[: system.n_x]
        n_k = int(schedule.keep(k, x[None], g, rng)[0])
        if n_k:
            filtered = update_sample(belief, x, keep_branch(belief, factors))
        else:
            filtered = update_no_sample(belief, f, g, discard_branch(belief, f, factors))
        yield RolloutStep(belief, f, g, x, state, n_k, filtered, factors)
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
        losses.append(one_step_loss(step.predicted, step.f, step.g, lam, step.factors))
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
