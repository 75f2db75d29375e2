"""Leader gradient against a parameterized follower (general Stackelberg).

When the reconstructor is a parameterized follower rather than the exact
conditional mean, the leader's gradient gains an implicit term through
the best-response Jacobian of the follower's optimality condition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure


@dataclass
class Episode:
    """Realized quantities of one rollout for the general estimator.

    ``x`` holds the observable states, ``kept`` the branch pattern,
    ``features`` the follower's per-step inputs, ``score_theta`` the
    summed gradient of the log-policy along the rollout, ``info_nats``
    the realized information increments. ``weight`` supports quadrature
    batches, where episodes enumerate outcomes with exact weights.
    """

    x: np.ndarray
    kept: np.ndarray
    features: np.ndarray
    score_theta: np.ndarray
    info_nats: float = 0.0
    weight: float = 1.0


@dataclass
class LinearFollower:
    """Reconstruction linear in its parameters: pi(feat) = phi @ feat."""

    phi: np.ndarray

    def predict(self, feat):
        return float(self.phi @ feat)

    def grad_phi(self, feat):
        return np.asarray(feat, dtype=float)


def follower_gradient(follower, episodes) -> np.ndarray:
    """Pathwise gradient of the reconstruction loss in the follower's
    parameters; keep-branch steps reconstruct exactly and contribute
    nothing."""
    grad = np.zeros_like(follower.phi, dtype=float)
    for ep in episodes:
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            feat = ep.features[k]
            resid = float(np.squeeze(ep.x[k])) - follower.predict(feat)
            grad += ep.weight * (-2.0 * resid) * follower.grad_phi(feat)
    return grad


def follower_hessian(follower, episodes) -> np.ndarray:
    hess = np.zeros((follower.phi.size, follower.phi.size))
    for ep in episodes:
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            g = follower.grad_phi(ep.features[k])
            hess += ep.weight * 2.0 * np.outer(g, g)
    return hess


def best_response_jacobian(follower, episodes, theta_dim: int) -> np.ndarray:
    """Implicit-function Jacobian of the follower optimum in theta.

    -(Hessian of the follower loss)^{-1} times the expected outer product
    of the follower-loss gradient and the policy score. A singular Hessian
    (too few discarded steps to pin the follower) raises a NumericalFailure.
    """
    hess = follower_hessian(follower, episodes)
    cross = np.zeros((follower.phi.size, theta_dim))
    for ep in episodes:
        gphi = np.zeros(follower.phi.size)
        for k in range(len(ep.kept)):
            if ep.kept[k]:
                continue
            feat = ep.features[k]
            resid = float(np.squeeze(ep.x[k])) - follower.predict(feat)
            gphi += (-2.0 * resid) * follower.grad_phi(feat)
        cross += ep.weight * np.outer(gphi, ep.score_theta)
    try:
        return -np.linalg.solve(hess, cross)
    except np.linalg.LinAlgError:
        raise NumericalFailure("singular follower Hessian") from None


def general_policy_gradient(follower, episodes, lam: float, theta_dim: int) -> np.ndarray:
    """Two-term leader gradient with a parameterized follower.

    The implicit term chains the best-response Jacobian through the
    reconstruction's effect on the distortion (it vanishes at an exact
    best response); the score term weights the realized distortion plus
    lambda-weighted information increments by the policy score.
    """
    jac = best_response_jacobian(follower, episodes, theta_dim)  # (F, T)
    term1 = jac.T @ follower_gradient(follower, episodes)
    term2 = np.zeros(theta_dim)
    for ep in episodes:
        dist = sum(
            (float(np.squeeze(ep.x[k])) - follower.predict(ep.features[k])) ** 2
            for k in range(len(ep.kept))
            if not ep.kept[k]
        )
        term2 += ep.weight * (dist + lam * ep.info_nats) * ep.score_theta
    return term1 + term2
