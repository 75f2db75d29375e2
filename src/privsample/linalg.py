"""Numerically guarded linear-algebra helpers shared across modules.

Conventions: covariance matrices are kept symmetric by explicit
re-symmetrization, and a factorization is a plain Cholesky or a failure:
``logdet_psd`` and ``solve_psd`` raise a NumericalFailure on a matrix
that is not positive definite instead of repairing it. Solves use numpy
only: x = L^{-T} (L^{-1} b) for a Cholesky factor L (on 1x1, two 1/L products).
1x1 blocks take closed forms (``cholesky``, ``inverse``, ``psd_sqrt``) that
give LAPACK's values bit for bit without numpy's per-call overhead of tens
of microseconds. ``psd_sqrt`` alone accepts singular input: it draws noise
with a singular covariance exactly on its support.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractViolation, NumericalFailure

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


def cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a), reading the lower triangle; a 1x1 block is
    sqrt(a), LinAlgError unless its entry is positive."""
    if a.shape == (1, 1):
        if not a[0, 0] > 0.0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return np.sqrt(a)
    return np.linalg.cholesky(a)


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of square matrices (..., d, d); 1x1 blocks are 1 / m."""
    return 1.0 / m if m.shape[-1] == 1 else np.linalg.inv(m)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square-root factor for a PSD (possibly singular) matrix.

    Eigenvalues are clipped at zero before factoring, so singular
    noise covariances draw exactly on their support.
    """
    a = sym(np.asarray(a, dtype=float))
    if a.shape == (1, 1):
        return np.sqrt(np.clip(a, 0.0, None))
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))


def factor_logdet(ell: np.ndarray) -> float:
    """log|L L^T| from a lower Cholesky factor L with a positive diagonal."""
    return 2.0 * float(np.log(ell.diagonal()).sum())


def _factor_or_fail(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of sym(a); NumericalFailure naming ``what`` when
    a is not positive definite."""
    try:
        return cholesky(sym(np.asarray(a, dtype=float)))
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"{what} a matrix that is not positive definite") from None


def logdet_psd(a: np.ndarray) -> float:
    """log|a| for a strictly positive definite matrix, via Cholesky."""
    return factor_logdet(_factor_or_fail(a, "log-determinant of"))


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a."""
    ell_inv = inverse(_factor_or_fail(a, "solve with"))
    return ell_inv.T @ (ell_inv @ np.asarray(b, dtype=float))


def inv_or_pinv(a: np.ndarray, warn_label: str, ell: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a symmetric PSD block, pseudo-inverse on rank deficiency.

    ``ell`` is a's lower Cholesky factor when the caller has it; a is
    factored here otherwise. The pinv branch warns naming ``warn_label``,
    once per call site. No module of the package calls it (the growing
    belief inverts P^xx through its Cholesky factor or raises); it stays
    because perfbench wraps it by name.
    """
    a = sym(np.asarray(a, dtype=float))
    if ell is None:
        try:
            ell = cholesky(a)
        except np.linalg.LinAlgError:
            pass
    if ell is not None and (ell.diagonal() > PINV_TOL * np.sqrt(max(a.trace(), 1e-300))).all():
        ell_inv = inverse(ell)
        return ell_inv.T @ ell_inv
    warnings.warn(f"singular {warn_label}; falling back to pseudo-inverse")
    return np.linalg.pinv(a, rcond=PINV_TOL, hermitian=True)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random strictly positive definite matrix (for tests and fixtures)."""
    m = rng.standard_normal((dim, dim))
    return sym(m @ m.T * (1.0 / dim) + 0.1 * np.eye(dim))
