"""Stochastic sampling rule and the schedule families used in experiments.

The pointwise rule discards the current observation with probability
exp(-1/2 (x - g)^T f^{-1} (x - g)); f is parameterized by a lower
Cholesky factor so optimizer parameters always map to a valid SPD matrix.

Schedule kinds:

* ``privacy_aware``  per-step (f_k, g_k); with ``feedback=True`` the
  center is g_k = x_pred + g[k] (offset from the predicted mean).
* ``open_loop``      constant f, g = 0; the distribution of the decision
  ignores the sampler's own output history.
* ``always_sample`` / ``never_sample``  degenerate endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .linalg import cholesky, solve_psd

KINDS = ("privacy_aware", "open_loop", "always_sample", "never_sample")


def no_sample_prob_pointwise(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """exp(-1/2 d^T f^{-1} d) with d = x - g; the probability of N_k = 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    d = x - g
    q = float(d @ solve_psd(f, d))
    if q < 0:
        raise ContractViolation("f is not positive definite")
    return float(np.exp(-0.5 * q))


def chol_to_f(ell: np.ndarray) -> np.ndarray:
    """f = L @ L.T from a lower-triangular factor with positive diagonal."""
    ell = np.atleast_2d(np.asarray(ell, dtype=float))
    if np.any(np.diag(ell) <= 0):
        raise ContractViolation("Cholesky factor needs a positive diagonal")
    return np.tril(ell) @ np.tril(ell).T


@dataclass(frozen=True)
class SamplerSchedule:
    """Per-step policy parameters {f_k, g_k} over a horizon.

    ``f_chol`` has shape (K+1, n_x, n_x) (lower factors), ``g`` has shape
    (K+1, n_x). For the degenerate kinds the arrays are present but
    ignored by ``f_at`` and the decisions. Every f_k and its inverse are
    formed once, at construction.
    """

    kind: str
    f_chol: np.ndarray
    g: np.ndarray
    feedback: bool = False
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _f_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown schedule kind {self.kind!r}")
        f_chol = np.asarray(self.f_chol, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if f_chol.ndim != 3 or f_chol.shape[1] != f_chol.shape[2]:
            raise ContractViolation("f_chol must have shape (K+1, n_x, n_x)")
        if g.shape != f_chol.shape[:2]:
            raise ContractViolation("g must have shape (K+1, n_x)")
        if np.any(np.diagonal(f_chol, axis1=1, axis2=2) <= 0):
            raise ContractViolation("every f_k factor needs a positive diagonal")
        if self.kind == "open_loop":
            if np.any(g != 0.0):
                raise ContractViolation("open_loop requires g = 0")
            if np.any(f_chol != f_chol[0]):
                raise ContractViolation("open_loop requires a constant f")
            if self.feedback:
                raise ContractViolation("open_loop is not a feedback schedule")
        object.__setattr__(self, "f_chol", f_chol)
        object.__setattr__(self, "g", g)
        f = np.stack([chol_to_f(ell) for ell in f_chol])
        f_inv = np.stack([solve_psd(f_k, np.eye(self.n_x)) for f_k in f])
        f.setflags(write=False)
        f_inv.setflags(write=False)
        object.__setattr__(self, "_f", f)
        object.__setattr__(self, "_f_inv", f_inv)

    @property
    def horizon(self) -> int:
        return self.f_chol.shape[0] - 1

    @property
    def n_x(self) -> int:
        return self.f_chol.shape[1]

    def f_at(self, k: int) -> np.ndarray:
        """f_k, with the degenerate kinds mapped to their numeric limits.

        always_sample is f -> 0 (every observation escapes the no-sample
        region) and never_sample is f -> infinity; 1e-12 / 1e12 scalings
        realize the limits to well below result precision.
        """
        if self.kind == "always_sample":
            return 1e-12 * np.eye(self.n_x)
        if self.kind == "never_sample":
            return 1e12 * np.eye(self.n_x)
        return self._f[k]

    def g_at(self, k: int, x_pred: np.ndarray | None = None) -> np.ndarray:
        """Absolute center of the no-sample region at step k.

        Feedback schedules interpret the stored vector as an offset from
        the predicted mean, which the caller must supply.
        """
        if not self.feedback:
            return self.g[k]
        if x_pred is None:
            raise ContractViolation("feedback schedule needs the predicted mean")
        return np.asarray(x_pred, dtype=float) + self.g[k]

    def keep(self, k: int, x: np.ndarray, g_abs: np.ndarray, rng) -> np.ndarray:
        """Batched keep/discard draw at step k; True where x is retained.

        ``x`` has shape (B, n_x) and ``g_abs`` (the absolute centers, see
        ``g_at``) broadcasts to it. Row b is discarded iff a uniform draw
        falls at or below exp(-1/2 d^T f_k^{-1} d), d = x_b - g_b; one
        uniform is drawn per row. The degenerate kinds decide without
        drawing.
        """
        rows = len(x)
        if self.kind == "always_sample":
            return np.ones(rows, dtype=bool)
        if self.kind == "never_sample":
            return np.zeros(rows, dtype=bool)
        d = x - g_abs
        quad = np.einsum("bi,ij,bj->b", d, self._f_inv[k], d)
        return rng.uniform(size=rows) > np.exp(-0.5 * quad)

    def decide(self, k: int, x: np.ndarray, x_pred: np.ndarray, rng):
        """(keep (B,), outputs (B, n_x)) at step k for the rows of x (B, n_x)
        and predicted means x_pred: ``g_at``'s center, ``keep``'s draw, and
        each row's output, its x where kept and the center where discarded."""
        g_abs = np.broadcast_to(self.g_at(k, x_pred=x_pred), x.shape)
        keep = self.keep(k, x, g_abs, rng)
        return keep, np.where(keep[:, None], x, g_abs)

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "f_chol": self.f_chol.tolist(),
            "g": self.g.tolist(),
            "feedback": self.feedback,
        }

    @staticmethod
    def from_config(cfg: dict) -> "SamplerSchedule":
        """The schedule of ``to_config``'s mapping; an absent ``feedback``
        is False, and one that is not a boolean is a TypeError."""
        feedback = cfg.get("feedback", False)
        if not isinstance(feedback, bool):
            raise TypeError(f"feedback must be a JSON boolean, got {feedback!r}")
        return SamplerSchedule(
            kind=cfg["kind"],
            f_chol=np.asarray(cfg["f_chol"], dtype=float),
            g=np.asarray(cfg["g"], dtype=float),
            feedback=feedback,
        )


def open_loop_schedule(f: np.ndarray | float, horizon: int) -> SamplerSchedule:
    """Constant-f, zero-g schedule (the history-independent baseline)."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    ell = cholesky(f)
    return SamplerSchedule(
        kind="open_loop",
        f_chol=np.repeat(ell[None, :, :], horizon + 1, axis=0),
        g=np.zeros((horizon + 1, f.shape[0])),
    )


def degenerate_schedule(kind: str, horizon: int, n_x: int) -> SamplerSchedule:
    if kind not in ("always_sample", "never_sample"):
        raise ContractViolation("degenerate kinds are always_sample/never_sample")
    return SamplerSchedule(
        kind=kind,
        f_chol=np.repeat(np.eye(n_x)[None, :, :], horizon + 1, axis=0),
        g=np.zeros((horizon + 1, n_x)),
    )


def privacy_aware_schedule(f_chol, g, feedback: bool = False) -> SamplerSchedule:
    return SamplerSchedule(
        kind="privacy_aware",
        f_chol=np.asarray(f_chol, dtype=float),
        g=np.asarray(g, dtype=float),
        feedback=feedback,
    )
