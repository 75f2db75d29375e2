"""Numerically guarded linear-algebra helpers shared across modules.

Conventions: covariance matrices are kept symmetric by explicit
re-symmetrization, Cholesky factorizations get one jitter retry
(+1e-10 * I) and then an eigenvalue-floored fallback, and singular
blocks are handled with a tolerance-based pseudo-inverse. Solves use numpy
only: x = L^{-T} (L^{-1} b) for a Cholesky factor L (on 1x1, two 1/L products).
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractViolation, NumericalFailure

JITTER = 1e-10
PINV_TOL = 1e-10


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def check_symmetric_psd(a, name="matrix"):
    """Validate symmetry (within 1e-12) and the eigenvalue floor (-1e-10),
    both relative to the largest entry, at least 1; raises ContractViolation."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ContractViolation(f"{name} is not symmetric within 1e-12")
    w = np.linalg.eigvalsh(sym(a))
    if w.min() < -1e-10 * scale:
        raise ContractViolation(
            f"{name} has eigenvalue {w.min():.3e} below the PSD floor"
        )
    return a


def chol_psd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with jitter retry, then eigenvalue-floor fallback.

    The fallback returns a factor L with a = L @ L.T exact for the
    eigenvalue-clipped matrix; it handles PSD-but-singular inputs.
    """
    a = sym(np.asarray(a, dtype=float))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(a + JITTER * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(a)
    if w.min() < -1e-6 * max(1.0, abs(w.max())):
        raise NumericalFailure(
            f"matrix is indefinite beyond repair (min eig {w.min():.3e})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square-root factor for a PSD (possibly singular) matrix.

    Eigenvalues are clipped at zero before factoring, so singular
    noise covariances draw exactly on their support.
    """
    a = sym(np.asarray(a, dtype=float))
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))


def logdet_psd(a: np.ndarray) -> float:
    """log|a| for a strictly positive definite matrix, via Cholesky."""
    ell = chol_psd(a)
    diag = np.diag(ell)
    if np.any(diag <= 0.0):
        raise NumericalFailure("log-determinant of a singular matrix requested")
    return 2.0 * float(np.sum(np.log(diag)))


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a."""
    ell = chol_psd(a)
    if np.any(np.diag(ell) <= 0.0):
        raise NumericalFailure("solve_psd called with a singular matrix")
    ell_inv = np.linalg.inv(ell)
    return ell_inv.T @ (ell_inv @ np.asarray(b, dtype=float))


def inv_or_pinv(a: np.ndarray, warn_label: str) -> np.ndarray:
    """Inverse of a symmetric PSD block, pseudo-inverse on rank deficiency.

    The pinv branch only occurs when a coordinate is deterministic given
    the history; it warns naming ``warn_label``, once per call site.
    """
    a = sym(np.asarray(a, dtype=float))
    ell = None
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    if ell is not None and np.all(np.diag(ell) > PINV_TOL * np.sqrt(max(np.trace(a), 1e-300))):
        ell_inv = np.linalg.inv(ell)
        return ell_inv.T @ ell_inv
    warnings.warn(f"singular {warn_label}; falling back to pseudo-inverse")
    return np.linalg.pinv(a, rcond=PINV_TOL, hermitian=True)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random strictly positive definite matrix (for tests and fixtures)."""
    m = rng.standard_normal((dim, dim))
    return sym(m @ m.T * (1.0 / dim) + 0.1 * np.eye(dim))
