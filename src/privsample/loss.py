"""Analytic losses for the linear-Gaussian sampler.

The per-step loss splits into a distortion term (expected squared
reconstruction error, nonzero only on the discard branch) and three
lambda-weighted information terms built from log-determinants of the
trajectory block and its two Schur complements: conditioning on the exact
observation uses P^xx, conditioning on the soft no-sample evidence uses
f + P^xx.

A step forms both branch posteriors once (``belief.keep_branch`` and
``belief.discard_branch``, factoring P^xx and f + P^xx once each); the
loss reads its distortion and Schur complements off them and the
realized branch becomes the filtered belief. P^yy and the two Schur
complements are factored once each, with a plain Cholesky; only a failed
factorization runs the eigenvalue test and the jittered fallback. When
x_k is a function of the private trajectory (Cov(X_k | Y^k) = 0 up to
rounding) the information is infinite, and the step raises a
NumericalFailure naming k (see ``branch_logdets``).

Log-determinant differences are evaluated on the Y side. The fixed-size
engine (``engine.BatchEngine``) evaluates the same increments on the
X side through the block-determinant identity, which the validation suite
checks on random matrices (``validation.check_determinant_identity``) and
the tests check against this growing reference on whole rollouts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import (
    DiscardBranch,
    GaussianBelief,
    KeepBranch,
    discard_branch,
    init_belief,
    keep_branch,
    predict,
    update_no_sample,
    update_sample,
)
from .errors import ContractViolation, NumericalFailure, check_lambda
from .lingauss import LinearGaussianSystem
from .linalg import cholesky, factor_logdet, logdet_psd, psd_sqrt
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


def no_sample_prob_marginal(
    belief: GaussianBelief, f, g, discard: DiscardBranch | None = None
) -> float:
    """P(N_k = 0 | Z^{k-1}): the pointwise rule averaged over the belief.

    Closed form sqrt(|f| / |f + P^xx|) * exp(-1/2 (g - x)^T (f+P^xx)^{-1}
    (g - x)); evaluated through log-determinant differences so the
    f -> 0 and f -> infinity limits stay finite. Reuses the factor of
    f + P^xx in ``discard`` (``discard_branch(belief, f)`` when not given).
    """
    if belief.phase != "predicted":
        raise ContractViolation("marginal no-sample probability needs a predicted belief")
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if discard is None:
        discard = discard_branch(belief, f)
    d = g - belief.x_mean
    log_ratio = logdet_psd(f) - discard.logdet
    quad = float(d @ (discard.l_inv.T @ (discard.l_inv @ d)))
    return float(np.exp(0.5 * log_ratio - 0.5 * quad))


# exp(-keep increment) = |Cov(X_k | Y^k)| / |P^xx|, the keep increment being
# log|P^yy| - log|S_keep| (nats*2); at or below 1e-12 the x_k block is a
# function of Y^k up to rounding (the largest increment on the paper and
# coupled systems is about 1.9)
KNOWN_X_INCREMENT = -math.log(1e-12)


def branch_logdets(
    belief: GaussianBelief, keep: KeepBranch, discard: DiscardBranch
) -> tuple[float, float, float]:
    """(log|P^yy|, log|S_keep|, log|S_discard|) for one predicted belief.

    S_keep = Cov(Y^k | X_k) and S_discard, the trajectory block after the
    soft evidence through f, are the trajectory blocks of the two branch
    posteriors; P^yy and each S are factored once. x_k already known from
    Y^k raises a NumericalFailure naming k: the keep increment
    log|P^yy| - log|S_keep| reaches ``KNOWN_X_INCREMENT``, or S_keep is
    singular to working precision (its Cholesky fails) while P^yy is not.
    """
    nx = belief.n_x
    pyy = belief.p_yy
    ld_prior = _logdet_or_fail(pyy, belief, "P^yy")
    s_keep = keep.cov[nx:, nx:]
    ld_keep = _chol_logdet(s_keep)
    if ld_keep is None:
        ld_keep = _logdet_or_fail(s_keep, belief, "sample-branch Schur complement")
        known = _chol_logdet(pyy) is not None
    else:
        known = ld_prior - ld_keep >= KNOWN_X_INCREMENT
    if known:
        raise NumericalFailure(
            f"x_k already known (singular Cov(X_k | Y^k, Z^(k-1))) at k={belief.k}; "
            f"keep increment {ld_prior - ld_keep:.3g}"
        )
    ld_discard = _logdet_or_fail(discard.cov[nx:, nx:], belief, "no-sample-branch Schur complement")
    return ld_prior, ld_keep, ld_discard


def _chol_logdet(mat: np.ndarray) -> float | None:
    """log|mat| from a plain Cholesky factor, None if it fails.

    The factorization reads one triangle: ``mat`` is a block of a belief
    covariance or of a branch posterior, both exactly symmetric.
    """
    try:
        ell = cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    return factor_logdet(ell)


def _logdet_or_fail(mat: np.ndarray, belief: GaussianBelief, label: str) -> float:
    """log|mat|, Cholesky first (``_chol_logdet``).

    Only when that factorization fails: an eigenvalue below
    -1e-8 * max(1, max|mat|) raises "indefinite", and otherwise the jittered
    ``logdet_psd`` ladder runs, raising "singular" if it cannot factor
    either. A successful Cholesky already bounds the smallest eigenvalue
    by -O(d eps ||mat||), far above that threshold.
    """
    ld = _chol_logdet(mat)
    if ld is not None:
        return ld
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


def one_step_loss(
    belief: GaussianBelief,
    f,
    g,
    lam: float,
    keep: KeepBranch | None = None,
    discard: DiscardBranch | None = None,
) -> LossBreakdown:
    """Expected one-step cost of playing (f, g) against a predicted belief.

    distortion   p0 * tr[f (f+P^xx)^{-1} P^xx]
    leaks        lam * [log sqrt|P^yy|
                        - (1-p0) log sqrt|S_sample|
                        - p0 log sqrt|S_no_sample|]

    Reads both branch posteriors (built here when not given): the
    distortion trace is the x block of ``discard.cov``, which is
    P^xx - P^xx (f+P^xx)^{-1} P^xx, stable at both f extremes.
    """
    check_lambda(lam)
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if discard is None:
        discard = discard_branch(belief, f)
    p0 = no_sample_prob_marginal(belief, f, g, discard)
    nx = belief.n_x
    distortion = p0 * float(np.trace(discard.cov[:nx, :nx]))

    if keep is None:
        keep = keep_branch(belief)
    ld_prior, ld_keep, ld_discard = branch_logdets(belief, keep, discard)
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
    only, else None), ``n`` the decision (1: x is the output) and
    ``filtered`` the belief (k|k) after it.
    ``keep`` and ``discard`` are the two branch posteriors of
    ``predicted``; ``filtered`` is built from the realized one.
    """

    predicted: GaussianBelief
    f: np.ndarray
    g: np.ndarray
    x: np.ndarray
    state: np.ndarray | None
    n: int
    filtered: GaussianBelief
    keep: KeepBranch
    discard: DiscardBranch


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
        f = schedule.effective_f_at(k)
        g = schedule.g_at(k, x_pred=belief.x_mean)
        x = _draw_x_from_belief(belief, rng) if mode == "belief" else state[: system.n_x]
        n_k = int(schedule.keep(k, x[None], g, rng)[0])
        keep, discard = keep_branch(belief), discard_branch(belief, f)
        if n_k:
            filtered = update_sample(belief, x, keep)
        else:
            filtered = update_no_sample(belief, f, g, discard)
        yield RolloutStep(belief, f, g, x, state, n_k, filtered, keep, discard)
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
        losses.append(one_step_loss(step.predicted, step.f, step.g, lam, step.keep, step.discard))
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
