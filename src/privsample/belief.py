"""Shared conditional Gaussian over (X_k, Y^k) given the sampler's outputs.

Both the sampler and the remote reconstructor maintain the same belief:
a joint Gaussian over the current observable state and the entire private
trajectory so far. The mean/covariance layout is newest-first,

    [ x_k | y_k | y_{k-1} | ... | y_0 ],

so the leading n_x + n_y block always holds the current stacked state and
``predict`` grows the vector by n_y on the left side of the trajectory.

Phases are explicit: a belief is either ``predicted`` (k|k-1) or
``filtered`` (k|k), and each operation checks the phase so misuse is a
contract error rather than silent corruption. Operations are pure and
return new beliefs. Covariances are exactly symmetric: ``init_belief``,
``predict`` and both branch posteriors symmetrize what they build.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PhaseError
from .lingauss import LinearGaussianSystem
from .linalg import cholesky, factor_logdet, inverse, sym

PREDICTED = "predicted"
FILTERED = "filtered"


@dataclass(frozen=True)
class GaussianBelief:
    mean: np.ndarray
    cov: np.ndarray
    k: int
    phase: str
    n_x: int
    n_y: int

    def __post_init__(self):
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ValueError("mean/cov dimension mismatch")
        if (d - self.n_x) % self.n_y or d < self.n_x + self.n_y:
            raise ValueError("dimension is not n_x + m * n_y")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    # Block views (read-only slices of the stored arrays).
    @property
    def x_mean(self) -> np.ndarray:
        return self.mean[: self.n_x]

    @property
    def p_xx(self) -> np.ndarray:
        return self.cov[: self.n_x, : self.n_x]

    @property
    def p_xy(self) -> np.ndarray:
        return self.cov[: self.n_x, self.n_x :]

    @property
    def p_yy(self) -> np.ndarray:
        return self.cov[self.n_x :, self.n_x :]


def init_belief(system: LinearGaussianSystem) -> GaussianBelief:
    """Time-0 predicted belief: the initial joint Gaussian of (X_0, Y_0)."""
    return GaussianBelief(
        mean=system.init_mean.copy(),
        cov=sym(system.init_cov),
        k=0,
        phase=PREDICTED,
        n_x=system.n_x,
        n_y=system.n_y,
    )


def embed(system: LinearGaussianSystem, mat: np.ndarray, noise=None) -> np.ndarray:
    """One step of the dynamics on a belief-shaped matrix (d, d), or on a
    stack of them (..., d, d), growing d by n_y.

    A acts on the current (x, y) block, the retained trajectory blocks
    stay, and ``noise`` (Q for a covariance, None for its tangents) enters
    only the new block. A covariance's new block A P A^T + Q is
    symmetrized; the copied trajectory block and the transposed cross
    blocks are exactly symmetric already, so a symmetric ``mat`` gives an
    exactly symmetric covariance.
    """
    nx, n = system.n_x, system.n
    a = system.a_matrix
    d_new = mat.shape[-1] + system.n_y
    out = np.empty((*mat.shape[:-2], d_new, d_new))
    head = a @ mat[..., :n, :]          # A @ mat[:n, :], shape (..., n, d_old)
    block = head[..., :n] @ a.T
    if noise is not None:
        block = block + noise
        block = 0.5 * (block + block.swapaxes(-1, -2))
    out[..., :n, :n] = block
    out[..., :n, n:] = head[..., nx:]
    out[..., n:, :n] = out[..., :n, n:].swapaxes(-1, -2)
    out[..., n:, n:] = mat[..., nx:, nx:]
    return out


def predict(system: LinearGaussianSystem, belief: GaussianBelief) -> GaussianBelief:
    """Propagate a filtered belief at k to the predicted belief at k+1
    (the covariance through ``embed`` with Q)."""
    if belief.phase != FILTERED:
        raise PhaseError("predict requires a filtered belief")
    nx, ny, n = belief.n_x, belief.n_y, belief.n_x + belief.n_y
    mean = np.empty(belief.dim + ny)
    mean[:n] = system.a_matrix @ belief.mean[:n]
    mean[n:] = belief.mean[nx:]
    return GaussianBelief(
        mean=mean,
        cov=embed(system, belief.cov, system.q_cov),
        k=belief.k + 1,
        phase=PREDICTED,
        n_x=nx,
        n_y=ny,
    )


@dataclass(frozen=True)
class StepFactors:
    """The n_x-block factors of one predicted belief under f, formed once
    and shared by the loss and whichever branch posterior is built.

    ``l_xx`` is the lower Cholesky factor of P^xx; f + P^xx = L L^T gives
    ``l_inv`` = L^{-1} and ``logdet`` = log|f + P^xx|.
    """

    l_xx: np.ndarray
    l_inv: np.ndarray
    logdet: float


def step_factors(belief: GaussianBelief, f: np.ndarray) -> StepFactors:
    """Factor P^xx and f + P^xx of a predicted belief, each by a plain
    Cholesky. A failure raises a NumericalFailure naming k, with the
    engine's message for a singular P^xx (x_k already known).
    """
    if belief.phase != PREDICTED:
        raise PhaseError("the branch factors need a predicted belief")
    try:
        ell = cholesky(sym(np.asarray(f, dtype=float) + belief.p_xx))
    except np.linalg.LinAlgError:
        raise NumericalFailure(
            f"f + P^xx not positive definite in the no-sample branch at k={belief.k}"
        ) from None
    return StepFactors(_pxx_factor(belief), inverse(ell), factor_logdet(ell))


def _pxx_factor(belief: GaussianBelief) -> np.ndarray:
    """The Cholesky factor of P^xx; a NumericalFailure naming k, with the
    engine's message, when x_k is already known (P^xx singular)."""
    try:
        return cholesky(belief.p_xx)
    except np.linalg.LinAlgError:
        raise NumericalFailure(
            f"x_k already known (singular Cov(X_k | Y^(k-1), Z^(k-1))) at k={belief.k}"
        ) from None


@dataclass(frozen=True)
class KeepBranch:
    """The filtered covariance after an exact X_k, and its gain.

    ``gain`` = P^yx (P^xx)^{-1}, shape (d - n_x, n_x); ``cov`` is zero in
    the x rows and columns and holds Cov(Y^k | X_k) below them.
    """

    gain: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class DiscardBranch:
    """The filtered covariance after the soft no-sample evidence through f.

    ``gain_t`` = (f + P^xx)^{-1} P[:n_x, :] (the gain's transpose, shape
    (n_x, d)) and ``cov`` = P - gain P[:n_x, :].
    """

    gain_t: np.ndarray
    cov: np.ndarray


def keep_branch(belief: GaussianBelief, factors: StepFactors | None = None) -> KeepBranch:
    """Schur complement of P^xx in a predicted belief, through the factor
    ``factors.l_xx`` (P^xx factored here when not given; a singular P^xx
    raises a NumericalFailure naming k).
    """
    if belief.phase != PREDICTED:
        raise PhaseError("the keep branch needs a predicted belief")
    nx = belief.n_x
    l_inv = inverse(_pxx_factor(belief) if factors is None else factors.l_xx)
    gain = belief.p_xy.T @ (l_inv.T @ l_inv)
    cov = np.zeros_like(belief.cov)
    cov[nx:, nx:] = sym(belief.p_yy - gain @ belief.p_xy)
    return KeepBranch(gain, cov)


def discard_branch(
    belief: GaussianBelief, f: np.ndarray, factors: StepFactors | None = None
) -> DiscardBranch:
    """Rank-n_x soft update of a predicted belief, through the factor of
    f + P^xx in ``factors`` (``step_factors(belief, f)`` when not given).

    A Kalman update on a pseudo-measurement of x_k through noise f, in
    O(d^2 n_x).
    """
    if belief.phase != PREDICTED:
        raise PhaseError("the discard branch needs a predicted belief")
    if factors is None:
        factors = step_factors(belief, f)
    l_inv, rows = factors.l_inv, belief.cov[: belief.n_x, :]
    gain_t = l_inv.T @ (l_inv @ rows)
    return DiscardBranch(gain_t, sym(belief.cov - gain_t.T @ rows))


def update_no_sample(
    belief: GaussianBelief, f: np.ndarray, g: np.ndarray, branch: DiscardBranch | None = None
) -> GaussianBelief:
    """Soft update for a discarded sample under the exponential rule.

    Multiplies the predicted Gaussian by exp(-1/2 (x-g)^T f^{-1} (x-g))
    and renormalizes: the mean moves by the gain toward g and the
    covariance is ``branch.cov`` (``discard_branch(belief, f)`` when not
    given).
    """
    if belief.phase != PREDICTED:
        raise PhaseError("update_no_sample requires a predicted belief")
    if branch is None:
        branch = discard_branch(belief, f)
    g = np.asarray(g, dtype=float)
    mean = belief.mean + (g - belief.x_mean) @ branch.gain_t
    return GaussianBelief(mean, branch.cov, belief.k, FILTERED, belief.n_x, belief.n_y)


def update_sample(
    belief: GaussianBelief, z: np.ndarray, branch: KeepBranch | None = None
) -> GaussianBelief:
    """Exact conditioning on an observed X_k = z.

    The filtered belief is degenerate in x: the x block of the mean is z,
    all x-related covariance blocks are exactly zero, and the trajectory
    block drops by the Schur complement (``branch.cov``, from
    ``keep_branch(belief)`` when not given).
    """
    if belief.phase != PREDICTED:
        raise PhaseError("update_sample requires a predicted belief")
    if branch is None:
        branch = keep_branch(belief)
    nx = belief.n_x
    z = np.asarray(z, dtype=float)
    mean = belief.mean.copy()
    mean[:nx] = z
    mean[nx:] = belief.mean[nx:] + branch.gain @ (z - belief.x_mean)
    return GaussianBelief(mean, branch.cov, belief.k, FILTERED, nx, belief.n_y)


def marginal_y_current(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the current private block Y_k."""
    nx, ny = belief.n_x, belief.n_y
    return belief.mean[nx : nx + ny].copy(), belief.cov[nx : nx + ny, nx : nx + ny].copy()


def y_trajectory_stats(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the tracked Y trajectory (newest block first)."""
    nx = belief.n_x
    return belief.mean[nx:].copy(), belief.cov[nx:, nx:].copy()
