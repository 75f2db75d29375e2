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
return new beliefs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure, PhaseError
from .lingauss import LinearGaussianSystem
from .linalg import inv_or_pinv, solve_psd, sym

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
        cov=system.init_cov.copy(),
        k=0,
        phase=PREDICTED,
        n_x=system.n_x,
        n_y=system.n_y,
    )


def predict(system: LinearGaussianSystem, belief: GaussianBelief) -> GaussianBelief:
    """Propagate a filtered belief at k to the predicted belief at k+1.

    The embedding applies A to the current (x, y) block and keeps the
    retained trajectory blocks untouched; Q enters only the new block.
    """
    if belief.phase != FILTERED:
        raise PhaseError("predict requires a filtered belief")
    nx, ny, n = belief.n_x, belief.n_y, belief.n_x + belief.n_y
    d_old = belief.dim
    d_new = d_old + ny
    a = system.a_matrix

    mean = np.empty(d_new)
    mean[:n] = a @ belief.mean[:n]
    mean[n:] = belief.mean[nx:]

    cov = np.empty((d_new, d_new))
    head = a @ belief.cov[:n, :]          # A @ cov[:n, :], shape (n, d_old)
    cov[:n, :n] = head[:, :n] @ a.T + system.q_cov
    cov[:n, n:] = head[:, nx:]
    cov[n:, :n] = cov[:n, n:].T
    cov[n:, n:] = belief.cov[nx:, nx:]
    cov = sym(cov)

    return GaussianBelief(
        mean=mean,
        cov=cov,
        k=belief.k + 1,
        phase=PREDICTED,
        n_x=nx,
        n_y=ny,
    )


def update_no_sample(belief: GaussianBelief, f: np.ndarray, g: np.ndarray) -> GaussianBelief:
    """Soft update for a discarded sample under the exponential rule.

    Multiplies the predicted Gaussian by exp(-1/2 (x-g)^T f^{-1} (x-g))
    and renormalizes. That is a Kalman update on a pseudo-measurement g of
    x_k through noise f, a rank-n_x correction in O(d^2 n_x):

        gain = cov[:, :n_x] (f + P^xx)^{-1}
        mean <- mean + gain (g - x_mean),   cov <- cov - gain cov[:n_x, :]

    f + P^xx that is not positive definite (up to the jittered fallback
    of ``solve_psd``) raises a NumericalFailure naming k.
    """
    if belief.phase != PREDICTED:
        raise PhaseError("update_no_sample requires a predicted belief")
    nx = belief.n_x
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    rows = belief.cov[:nx, :]
    try:
        gain_t = solve_psd(f + belief.p_xx, rows)          # gain^T, (n_x, d)
    except NumericalFailure as exc:
        raise NumericalFailure(
            f"f + P^xx not positive definite in no-sample update at k={belief.k}"
        ) from exc
    mean = belief.mean + (g - belief.x_mean) @ gain_t
    cov = sym(belief.cov - gain_t.T @ rows)
    return replace(belief, mean=mean, cov=cov, phase=FILTERED)


def update_sample(belief: GaussianBelief, z: np.ndarray) -> GaussianBelief:
    """Exact conditioning on an observed X_k = z.

    The filtered belief is degenerate in x: the x block of the mean is z,
    all x-related covariance blocks are exactly zero, and the trajectory
    block drops by the Schur complement.
    """
    if belief.phase != PREDICTED:
        raise PhaseError("update_sample requires a predicted belief")
    nx = belief.n_x
    z = np.asarray(z, dtype=float)
    pxx_inv = inv_or_pinv(belief.p_xx, warn_label="P^xx in update_sample")
    gain = belief.p_xy.T @ pxx_inv          # (d - nx, nx)

    mean = belief.mean.copy()
    mean[:nx] = z
    mean[nx:] = belief.mean[nx:] + gain @ (z - belief.x_mean)

    cov = np.zeros_like(belief.cov)
    cov[nx:, nx:] = sym(belief.p_yy - gain @ belief.p_xy)
    return replace(belief, mean=mean, cov=cov, phase=FILTERED)


def marginal_y_current(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the current private block Y_k."""
    nx, ny = belief.n_x, belief.n_y
    return belief.mean[nx : nx + ny].copy(), belief.cov[nx : nx + ny, nx : nx + ny].copy()


def y_trajectory_stats(belief: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the tracked Y trajectory (newest block first)."""
    nx = belief.n_x
    return belief.mean[nx:].copy(), belief.cov[nx:, nx:].copy()
