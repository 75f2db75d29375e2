"""Joint linear-Gaussian process for an observable state and a private state.

The stacked state (X_k, Y_k) evolves as A @ (x, y) + w with w ~ N(0, Q),
started from N(init_mean, init_cov). Systems are immutable after
construction and safe to share across threads; each rollout owns its own
RNG stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .linalg import check_symmetric_psd, psd_sqrt


def _frozen_array(a, shape=None) -> np.ndarray:
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise ContractViolation(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LinearGaussianSystem:
    """Dynamics matrix, process-noise covariance and initial joint Gaussian.

    Parameters
    ----------
    a_matrix : (n, n) dynamics on the stacked (x, y) state, n = n_x + n_y
    q_cov : (n, n) process-noise covariance, PSD (singular allowed)
    init_mean : (n,) mean of the initial stacked state
    init_cov : (n, n) covariance of the initial stacked state, PSD
    n_x, n_y : block sizes of the observable and private parts
    """

    a_matrix: np.ndarray
    q_cov: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray
    n_x: int
    n_y: int
    _noise_factor: np.ndarray = field(init=False, repr=False, compare=False)
    _init_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_x + self.n_y
        if self.n_x < 1 or self.n_y < 1:
            raise ContractViolation("n_x and n_y must be positive")
        object.__setattr__(self, "a_matrix", _frozen_array(self.a_matrix, (n, n)))
        object.__setattr__(
            self, "q_cov", _frozen_array(check_symmetric_psd(self.q_cov, name="q_cov"), (n, n))
        )
        object.__setattr__(self, "init_mean", _frozen_array(self.init_mean, (n,)))
        object.__setattr__(
            self,
            "init_cov",
            _frozen_array(check_symmetric_psd(self.init_cov, name="init_cov"), (n, n)),
        )
        # Factors are computed once; PSD-but-singular inputs are clipped at 0.
        object.__setattr__(self, "_noise_factor", _frozen_array(psd_sqrt(self.q_cov)))
        object.__setattr__(self, "_init_factor", _frozen_array(psd_sqrt(self.init_cov)))

    @property
    def n(self) -> int:
        return self.n_x + self.n_y

    def draw_noise(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """One (or a batch of) process-noise draw(s) w ~ N(0, Q)."""
        if size is None:
            return self._noise_factor @ rng.standard_normal(self.n)
        return rng.standard_normal((size, self.n)) @ self._noise_factor.T

    def draw_initial(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        if size is None:
            return self.init_mean + self._init_factor @ rng.standard_normal(self.n)
        return self.init_mean + rng.standard_normal((size, self.n)) @ self._init_factor.T


def simulate_batch(system: LinearGaussianSystem, horizon: int, rollouts: int, rng):
    """Vectorized rollout batch; returns array of shape (K+1, R, n)."""
    out = np.empty((horizon + 1, rollouts, system.n))
    out[0] = system.draw_initial(rng, size=rollouts)
    a_t = system.a_matrix.T
    for k in range(horizon):
        out[k + 1] = out[k] @ a_t + system.draw_noise(rng, size=rollouts)
    return out
