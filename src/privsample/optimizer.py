"""Policy-gradient optimization of the sampling schedule.

Leader/follower structure: the sampler's parameters are optimized against
the analytic best-response reconstructor (the conditional mean). The
sampler is parameterized in feedback form, f_k = L_k L_k^T through an
unconstrained Cholesky factor (log-diagonal), centered at the predicted
mean: the center's offset c = 0 is a fixed input with no tangent. In
that class every per-step loss is a deterministic function of the
keep/discard pattern, so the score-function estimator over branch
sequences is exactly unbiased and small horizons admit exhaustive
enumeration of the 2^(K+1) patterns, which the gradient tests exploit.

Rollouts run on the fixed-size engine (``engine.branch_rollouts``), and
gradients of the per-step losses are propagated by forward-mode tangents
of its covariance recursion (means never enter the losses in feedback
form). The score part uses the marginal branch probabilities; a running
(leave-one-out) baseline keeps the estimator unbiased while cutting its
variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import (
    discard_branch,
    embed,
    init_belief,
    keep_branch,
    predict,
    step_factors,
    update_no_sample,
    update_sample,
)
from .engine import blocks_first, blocks_last, branch_rollouts, mm
from .errors import ContractViolation, NumericalFailure, check_lambda
from .lingauss import LinearGaussianSystem
from .loss import mi_accumulate, one_step_loss, rollout_losses
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
    rollouts of stream (``seed``, 2, t), for at most ``max_iters``
    iterations (``stackelberg_optimize`` may stop sooner). Beyond horizon
    9 the validation objective and sampling rate are means over
    ``validation_rollouts`` common-random-number rollouts, whose uniforms
    stream (``seed``, 999) gives once per run; at horizon 9 and below both
    are exact enumeration.
    ``optimize_lambda``'s f-scan draws from stream (``seed``, 1), so no
    two of these paths share a stream. Beyond horizon 9 iteration t's
    gradient rollouts (with tangents) and theta_t's validation rollouts
    (without) run as one engine pass; an iteration that does not run
    draws nothing. ``validation_rollouts`` must be >= 2 for the
    validation standard error.
    """

    alpha: float = 0.25
    rollouts_per_step: int = 48
    max_iters: int = 60
    seed: int = 0
    validation_rollouts: int = 256

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolation("step size must be positive")
        if self.rollouts_per_step < 1 or self.max_iters < 1:
            raise ContractViolation("counts must be >= 1")
        if self.validation_rollouts < 2:
            raise ContractViolation("validation_rollouts must be >= 2 for a standard error")


class FeedbackPolicyParams:
    """Unconstrained parameter vector for a feedback sampling schedule.

    Per step (or shared, when tied): the ``block`` = n_x(n_x+1)/2 entries
    of f's lower-triangular factor, its diagonal log-transformed; the
    center offset c = 0 is fixed. ``theta`` is the flat vector it owns.
    """

    def __init__(self, n_x: int, horizon: int, theta: np.ndarray, tied: bool):
        self.n_x = n_x
        self.horizon = horizon
        self.tied = tied
        self.block = n_x * (n_x + 1) // 2
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
        block = np.zeros(n_x * (n_x + 1) // 2)
        block[np.cumsum(np.arange(1, n_x + 1)) - 1] = np.log(np.sqrt(f0))  # log-diagonal
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
        """(f_k, df_k/dtheta, c) in the engine's rows-last layout, one row
        shared by every rollout: f (n_x, n_x, 1), df (n_x, n_x, dim, 1)
        zero off step k's block, and the center offset c = 0 (n_x, 1), a
        fixed input with no tangent. Formed once per block (every step
        shares one when tied); the arrays are shared and read-only."""
        sl = self._block_slice(k)
        if sl.start in self._memo:
            return self._memo[sl.start]
        ell = self._chol_from_block(self.theta[sl])
        f = (ell @ ell.T)[..., None]
        df = np.zeros((self.n_x, self.n_x, self.dim, 1))
        rows, cols = self._tril_idx
        for j in range(self.block):
            d_ell = np.zeros_like(ell)
            if rows[j] == cols[j]:
                d_ell[rows[j], cols[j]] = ell[rows[j], cols[j]]  # log-diagonal
            else:
                d_ell[rows[j], cols[j]] = 1.0
            grad = d_ell @ ell.T
            df[:, :, sl.start + j, 0] = grad + grad.T
        terms = (f, df, np.zeros((self.n_x, 1)))
        for arr in terms:
            arr.setflags(write=False)
        self._memo[sl.start] = terms
        return terms

    def replaced(self, theta: np.ndarray) -> "FeedbackPolicyParams":
        return FeedbackPolicyParams(self.n_x, self.horizon, theta, self.tied)

    def to_schedule(self) -> SamplerSchedule:
        steps = range(self.horizon + 1)
        ells = np.stack([self._chol_from_block(self.theta[self._block_slice(k)]) for k in steps])
        return privacy_aware_schedule(ells, np.zeros((len(steps), self.n_x)), feedback=True)


def _schur_tangent(dp, dr, w, dm):
    """Tangents (T, d, d) of P - R^T w, w = M^{-1} R, from those of P, R and M."""
    t = np.einsum("tki,kj->tij", dr, w)
    return dp - t - t.swapaxes(1, 2) + np.einsum("ki,tkl,lj->tij", w, dm, w)


def _dlogdet(mat, dmat):
    """Tangents (T,) of log|mat| along dmat (T, d, d)."""
    return np.einsum("ij,tji->t", np.linalg.inv(mat), dmat)


class _TangentFilter:
    """Forward tangents over the growing belief's own steps in the centered
    feedback class (g = the predicted x mean), the engine's test reference.
    ``belief`` and ``loss`` form every covariance, factor and log-determinant;
    this class carries only the covariance tangents ``dp`` (T, d, d). A step
    is ``step_loss`` (f, df in ``step_terms``' layout), ``update``, ``predict``."""

    def __init__(self, system: LinearGaussianSystem, n_tangents: int):
        self.sys = system
        self.belief = init_belief(system)
        self.dp = np.zeros((n_tangents, *self.belief.cov.shape))

    def step_loss(self, f, df, lam):
        """Per-step loss, its tangent, branch probability and its tangent."""
        b, dp, nx = self.belief, self.dp, self.sys.n_x
        f, df = f[..., 0], blocks_last(df[..., 0])
        factors = step_factors(b, f)
        keep, discard = keep_branch(b, factors), discard_branch(b, f, factors)
        lb = one_step_loss(b, f, b.x_mean, lam, factors)
        _, ld_keep, ld_discard = lb.logdets
        p0 = lb.p_no_sample

        ds = df + dp[:, :nx, :nx]
        dp_discard = _schur_tangent(dp, dp[:, :nx], discard.gain_t, ds)
        dp_keep = np.zeros_like(dp)
        dp_keep[:, nx:, nx:] = _schur_tangent(
            dp[:, nx:, nx:], dp[:, :nx, nx:], keep.gain.T, dp[:, :nx, :nx]
        )
        self._branches = {True: (keep, dp_keep), False: (discard, dp_discard)}

        dp0 = 0.5 * p0 * (_dlogdet(f, df) - _dlogdet(f + b.p_xx, ds))
        dtr = np.einsum("tii->t", dp_discard[:, :nx, :nx])
        ddist = dp0 * np.trace(discard.cov[:nx, :nx]) + p0 * dtr
        dinfo = 0.5 * (
            _dlogdet(b.p_yy, dp[:, nx:, nx:])
            - (1.0 - p0) * _dlogdet(keep.cov[nx:, nx:], dp_keep[:, nx:, nx:])
            - p0 * _dlogdet(discard.cov[nx:, nx:], dp_discard[:, nx:, nx:])
            + dp0 * (ld_keep - ld_discard)
        )
        return lb.total, ddist + lam * dinfo, p0, dp0

    def update(self, keep: bool):
        """The filtered belief (and tangents) of the last ``step_loss``'s
        realized branch; the discard branch already holds f."""
        b = self.belief
        branch, self.dp = self._branches[keep]
        if keep:
            self.belief = update_sample(b, b.x_mean, branch)
        else:
            self.belief = update_no_sample(b, None, b.x_mean, branch)

    def predict(self):
        self.belief = predict(self.sys, self.belief)
        self.dp = embed(self.sys, self.dp)


def _fast_gradient_batch(params, system, lam, rollouts, horizon, u, tangent_rows=None):
    """Sampled branch patterns on the engine (feedback parameters).

    ``params`` is one FeedbackPolicyParams for every row, or a list of
    them that split the rows into equal consecutive blocks (run without
    tangents). Row r keeps at step k when the uniform u[k, r] > p0, u of
    shape (K+1, rollouts). As p0 < 1 wherever P^xx > 0, u = 1 keeps and
    u = 0 discards, which pins a branch pattern. The leading
    ``tangent_rows`` rows (all by default) carry tangents. Returns
    (losses, dpaths, scores, rates, info_sums), dpaths and scores for the
    tangent rows.
    """
    if isinstance(params, FeedbackPolicyParams):
        n_tangents = params.dim if tangent_rows != 0 else 0
        terms = lambda k, mean: params.step_terms(k)  # noqa: E731
    else:
        n_tangents, reps = 0, rollouts // len(params)

        def terms(k, mean):
            f, _, c = zip(*(p.step_terms(k) for p in params))
            return np.repeat(np.concatenate(f, axis=-1), reps, axis=-1), None, c[0]  # all zero

    def branch(k, p0, p, mean):
        keep = u[k] > p0
        return None, keep, np.maximum(np.where(keep, 1.0 - p0, p0), 1e-12), None

    _, losses, dpaths, scores, kept, infos = branch_rollouts(
        system, lam, horizon, rollouts, terms, branch,
        n_tangents=n_tangents, tangent_rows=tangent_rows,
    )
    return losses, dpaths, scores, kept / (horizon + 1), infos


def _fast_schedule_batch(system, schedule, lam, rollouts, horizon, rng):
    """Batched belief-mode rollouts under a SamplerSchedule (no tangents).

    Observations are drawn from the belief's x-marginal and the branch
    follows the pointwise rule, giving the exact joint law of decisions
    and retained values. Returns (losses, info_sums, rates).
    """
    nx = system.n_x

    def terms(k, mean):
        x_mean = mean[:nx]
        g_abs = np.broadcast_to(schedule.g_at(k, x_pred=x_mean.T), (rollouts, nx))
        return schedule.f_at(k)[..., None], None, g_abs.T - x_mean

    def branch(k, p0, p, mean):
        pxx = p[:nx, :nx]
        if nx == 1:
            fac = np.sqrt(np.maximum(pxx, 0.0))
        else:
            fac = blocks_first(np.linalg.cholesky(blocks_last(pxx)))
        draws = rng.standard_normal((rollouts, nx, 1))
        x = mean[:nx] + mm(fac, draws.transpose(1, 2, 0))[:, 0]
        keep, obs = schedule.decide(k, x.T, mean[:nx].T, rng)
        return None, keep, 1.0, obs.T

    mean = np.repeat(system.init_mean[:, None], rollouts, axis=1)
    _, losses, _, _, kept, infos = branch_rollouts(
        system, lam, horizon, rollouts, terms, branch, mean=mean
    )
    return losses, infos, kept / (horizon + 1)


def _rollout_gradient_terms(params, system, lam, horizon, u):
    """One sampled branch pattern: (loss, pathwise dloss, score, rate).

    Step k keeps when the uniform u[k] > p0, u of shape (K+1,): one row's
    column of ``_fast_gradient_batch``'s uniforms. Reference
    implementation on the growing belief (``_TangentFilter``), kept for
    tests; the batched engine must reproduce it branch for branch.
    """
    filt = _TangentFilter(system, params.dim)
    loss, dloss, score, kept = 0.0, np.zeros(params.dim), np.zeros(params.dim), 0
    for k in range(horizon + 1):
        f, df, _ = params.step_terms(k)
        l_k, dl_k, p0, dp0 = filt.step_loss(f, df, lam)
        loss += l_k
        dloss += dl_k
        keep = bool(u[k] > p0)
        kept += keep
        score += -dp0 / max(1.0 - p0, 1e-12) if keep else dp0 / max(p0, 1e-12)
        filt.update(keep)
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
    """Mean and standard error of the information a schedule leaks (nats);
    the standard error is None for a single rollout."""
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
    se = float(totals.std(ddof=1) / np.sqrt(rollouts)) if rollouts > 1 else None
    return float(totals.mean()), se


def _gradient_estimate(params, losses, paths, scores):
    """The gradient from one batch of gradient rollouts: the mean of the
    pathwise loss tangent plus the (loss - baseline)-weighted marginal
    branch score, with a leave-one-out baseline."""
    rollouts = len(losses)
    if rollouts > 1:
        baseline = (losses.sum() - losses) / (rollouts - 1)
    else:
        baseline = np.zeros(1)
    grad = (paths + (losses - baseline)[:, None] * scores).mean(axis=0)
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure(f"non-finite gradient; theta={params.theta!r}")
    return grad


def objective_gradient_linear(
    params: FeedbackPolicyParams,
    system: LinearGaussianSystem,
    lam: float,
    rollouts: int,
    rng,
):
    """Monte Carlo gradient of the horizon objective in feedback form, on
    ``rollouts`` branch patterns whose (K+1, rollouts) uniforms are drawn
    from ``rng`` (``_gradient_estimate``)."""
    u = rng.uniform(size=(params.horizon + 1, rollouts))
    losses, paths, scores, _, _ = _fast_gradient_batch(
        params, system, lam, rollouts, params.horizon, u
    )
    return _gradient_estimate(params, losses, paths, scores)


def _enumerate(params, system, lam, tangents):
    """Exhaustive expectation over all branch patterns (small horizons).

    Level k of the engine batch holds every branch prefix as a row; each
    row splits into its discard and keep children, and branches of
    probability <= 1e-15 are pruned. Returns the driver's per-path
    (weights, losses, dlosses, scores, kept counts).
    """
    horizon = params.horizon
    if 2 ** (horizon + 1) > 4096:
        raise ContractViolation("enumeration limited to horizon <= 11")

    def branch(k, p0, p, mean):
        w = np.column_stack([p0, 1.0 - p0]).ravel()
        alive = w > 1e-15
        keep = np.tile([False, True], len(p0))
        return np.repeat(np.arange(len(p0)), 2)[alive], keep[alive], w[alive], None

    return branch_rollouts(
        system, lam, horizon, 1, lambda k, mean: params.step_terms(k), branch,
        n_tangents=params.dim if tangents else 0,
    )[:5]


def exact_objective_and_gradient(params, system, lam):
    """Exact (objective, gradient), the gradient assembled from the same
    pathwise + score terms as the estimator, weighted exactly."""
    weight, loss, dloss, score, _ = _enumerate(params, system, lam, True)
    return float(weight @ loss), weight @ (dloss + loss[:, None] * score)


def exact_objective(params, system, lam) -> float:
    """Objective-only enumeration (used by finite-difference probes)."""
    weight, loss, _, _, _ = _enumerate(params, system, lam, False)
    return float(weight @ loss)


@dataclass
class TraceRow:
    iteration: int
    objective: float
    stderr: float
    sampling_rate: float
    grad_norm_theta: float


@dataclass
class OptimizeResult:
    """The best-seen iterate of ``stackelberg_optimize`` and why its loop
    ended: ``stop`` is ``"converged"``, ``"stalled"`` or ``"max_iters"``."""

    schedule: SamplerSchedule
    params: FeedbackPolicyParams
    objective: float
    stop: str
    trace: list

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def stackelberg_optimize(
    config: OptimizerConfig,
    system: LinearGaussianSystem,
    lam: float,
    init: FeedbackPolicyParams,
) -> OptimizeResult:
    """Leader loop against the conditional-mean reconstructor.

    Gradient steps on the sampling parameters with step size
    alpha_t = alpha / (1 + t/100); the follower needs no inner loop
    because the conditional mean is an exact best response; each move is
    capped at ``STEP_CLIP``. The loop runs at most ``max_iters``
    iterations and stops early on one of two rules, both counted over
    ``CONVERGE_PATIENCE`` consecutive iterations: ``"converged"`` when
    the validation objective moved less than ``CONVERGE_TOL`` relatively
    at each, else ``"stalled"`` when none of them set a new best
    validation objective (early stopping on patience). The result's
    ``stop`` names the rule, or ``"max_iters"``. The best-seen
    parameters by validation objective are returned; the trace ends at
    the stop.

    Each trace row gives theta_{t+1}'s validation objective, standard
    error and sampling rate. Beyond horizon 9 each iterate theta_t costs
    one engine pass: its leading ``rollouts_per_step`` rows carry
    tangents and are iteration t's gradient rollouts, and the other rows
    are theta_t's validation rollouts on the run's common uniforms
    (``OptimizerConfig``). Where iteration t may not run (t = max_iters,
    or theta_t's validation may end the loop by either rule) the pass
    has no gradient rows, and a run of iteration t takes a pass of its
    own. At horizon 9 and below one enumeration gives theta_t's exact
    objective and rate.
    A NumericalFailure ends with ``at leader iteration t``, t the
    iteration it was raised in (the first pass counts as iteration 0).
    """
    horizon = init.horizon
    exact_ok = 2 ** (horizon + 1) <= 1024
    if not exact_ok:  # common random numbers across iterates
        u_val = substream(config.seed, 999).uniform(size=(horizon + 1, config.validation_rollouts))

    def evaluate(p: FeedbackPolicyParams, grad_it, validate=True):
        """(validation, gradient) at p: validation (objective, stderr,
        rate), or None without ``validate``; iteration grad_it's gradient,
        or None when grad_it is None."""
        sampled = validate and not exact_ok
        g = config.rollouts_per_step if grad_it is not None else 0
        u = np.empty((horizon + 1, 0))
        if g:
            u = substream(config.seed, 2, grad_it).uniform(size=(horizon + 1, g))
        if sampled:
            u = np.hstack([u, u_val])
        val = grad = None
        if u.size:
            losses, paths, scores, rates, _ = _fast_gradient_batch(
                p, system, lam, u.shape[1], horizon, u, tangent_rows=g
            )
            if g:
                grad = _gradient_estimate(p, losses[:g], paths, scores)
            if sampled:
                v = losses[g:]
                val = (
                    float(v.mean()),
                    float(v.std(ddof=1) / math.sqrt(len(v))),
                    float(rates[g:].mean()),
                )
        if validate and exact_ok:
            weight, loss, _, _, kept = _enumerate(p, system, lam, False)
            val = float(weight @ loss), 0.0, float(weight @ kept / (horizon + 1))
        return val, grad

    params = init
    it = 0
    try:
        (best_obj, _, _), pending = evaluate(params, 0)
        best_params = params
        prev_obj = best_obj
        quiet = stall = 0
        stop = "max_iters"
        trace = []
        for it in range(config.max_iters):
            grad = pending if pending is not None else evaluate(params, it, validate=False)[1]
            step = config.alpha / (1.0 + it / 100.0)
            with np.errstate(over="ignore", invalid="ignore"):
                move = -step * grad
                norm = float(np.linalg.norm(move))
            if not math.isfinite(norm):
                raise NumericalFailure(
                    f"leader step overflowed at iteration {it}: alpha={config.alpha!r}, "
                    f"step size {step!r}, gradient norm {float(np.linalg.norm(grad))!r}"
                )
            if norm > STEP_CLIP:
                move *= STEP_CLIP / norm
            params = params.replaced(params.theta + move)
            # the next gradient rides along only where iteration it + 1 runs
            runs_next = it + 1 < config.max_iters and max(quiet, stall) + 1 < CONVERGE_PATIENCE
            (obj, stderr, rate), pending = evaluate(params, it + 1 if runs_next else None)
            trace.append(
                TraceRow(
                    iteration=it,
                    objective=obj,
                    stderr=stderr,
                    sampling_rate=rate,
                    grad_norm_theta=float(np.linalg.norm(grad)),
                )
            )
            stall = 0 if obj < best_obj else stall + 1
            if obj < best_obj:
                best_obj, best_params = obj, params
            rel_change = abs(obj - prev_obj) / max(1.0, abs(prev_obj))
            quiet = quiet + 1 if rel_change < CONVERGE_TOL else 0
            prev_obj = obj
            if quiet >= CONVERGE_PATIENCE:
                stop = "converged"
                break
            if stall >= CONVERGE_PATIENCE:
                stop = "stalled"
                break
    except NumericalFailure as exc:
        raise NumericalFailure(f"{exc} at leader iteration {it}") from exc
    return OptimizeResult(
        schedule=best_params.to_schedule(),
        params=best_params,
        objective=best_obj,
        stop=stop,
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
    ``F_SCAN_ROLLOUTS`` rollouts of the same stream, all starts in one
    engine pass that gives each start the same uniforms; stackelberg_optimize
    then polishes the best start. ``lam`` must be finite and >= 0
    (ContractViolation otherwise). A NumericalFailure in the scan ends
    with ``in the f-scan at f0=...``, the first start that fails on its own.
    """
    lam = check_lambda(lam)
    starts = [FeedbackPolicyParams.constant(system, horizon, f0=f0) for f0 in F_SCAN_GRID]
    u = substream(config.seed, 1).uniform(size=(horizon + 1, F_SCAN_ROLLOUTS))

    def scan(params):
        return _fast_gradient_batch(
            params, system, lam, len(params) * F_SCAN_ROLLOUTS, horizon, np.tile(u, len(params)),
            tangent_rows=0,
        )[0]

    try:
        losses = scan(starts)
    except NumericalFailure:
        # a start's rows fail as they would alone; name the first such start
        for f0, params in zip(F_SCAN_GRID, starts):
            try:
                scan([params])
            except NumericalFailure as exc:
                raise NumericalFailure(f"{exc} in the f-scan at f0={f0!r}") from exc
        raise
    best_init, best_obj = None, np.inf
    for params, block in zip(starts, losses.reshape(len(starts), F_SCAN_ROLLOUTS)):
        obj = float(np.mean(block))
        if obj < best_obj:
            best_obj, best_init = obj, params
    return stackelberg_optimize(config, system, lam, best_init)
