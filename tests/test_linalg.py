import numpy as np
import pytest

from privsample.errors import ContractViolation, NumericalFailure
from privsample.linalg import (
    check_symmetric_psd,
    cholesky,
    inv_or_pinv,
    inverse,
    logdet_psd,
    psd_sqrt,
    random_spd,
    solve_psd,
)
from privsample.rngs import make_rng, substream


def _both(a):
    """logdet_psd and solve_psd on a, each expected to raise."""
    for fn in (logdet_psd, lambda m: solve_psd(m, np.ones(len(m)))):
        with pytest.raises(NumericalFailure, match="not positive definite"):
            fn(a)


def test_logdet_and_solve_psd_reject_singular_matrices():
    """Cholesky or fail: a rank-one matrix is not repaired."""
    _both(np.array([[1.0, 1.0], [1.0, 1.0]]))
    _both(np.zeros((1, 1)))


def test_logdet_and_solve_psd_reject_indefinite_matrices():
    for a in (np.diag([1.0, -1.0]), np.diag([1.0, -1e-14]), np.array([[-3.0]])):
        _both(a)


def test_logdet_matches_slogdet():
    rng = make_rng(1)
    for _ in range(10):
        a = random_spd(rng, 5)
        assert np.isclose(logdet_psd(a), np.linalg.slogdet(a)[1], rtol=1e-10)


def test_solve_psd_roundtrip():
    rng = make_rng(2)
    a = random_spd(rng, 4)
    b = rng.standard_normal(4)
    assert np.allclose(a @ solve_psd(a, b), b, atol=1e-10)


def test_inv_or_pinv_warns_on_singular():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(UserWarning, match="pseudo-inverse"):
        out = inv_or_pinv(singular, warn_label="test block")
    assert np.allclose(out, np.linalg.pinv(singular), atol=1e-8)


def test_psd_sqrt_clips_negative_eigenvalues():
    a = np.array([[1.0, 0.0], [0.0, -1e-14]])
    fac = psd_sqrt(a)
    recon = fac @ fac.T
    assert recon[1, 1] >= 0.0
    assert np.isclose(recon[0, 0], 1.0)


def test_check_symmetric_psd_contracts():
    with pytest.raises(ContractViolation):
        check_symmetric_psd(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ContractViolation):
        check_symmetric_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_streams_are_reproducible_and_distinct():
    assert substream(7, 1, 2).uniform() == substream(7, 1, 2).uniform()
    assert substream(7, 1).uniform() != substream(7, 2).uniform()


def test_one_by_one_closed_forms_match_lapack():
    """cholesky, inverse and psd_sqrt on 1x1 blocks give numpy's LAPACK
    values bit for bit, and cholesky fails exactly where numpy's does."""
    rng = make_rng(7)
    extremes = [0.0, -0.0, -1e-300, -3.0, 5e-324]
    values = np.concatenate([np.exp(rng.uniform(-700.0, 700.0, 2000)), extremes])
    for v in values:
        a = np.array([[v]])
        w, vec = np.linalg.eigh(a)
        assert np.array_equal(psd_sqrt(a), vec * np.sqrt(np.clip(w, 0.0, None)))
        if v <= 0.0:
            for fn in (np.linalg.cholesky, cholesky):
                with pytest.raises(np.linalg.LinAlgError):
                    fn(a)
            continue
        ell = cholesky(a)
        assert np.array_equal(ell, np.linalg.cholesky(a))
        assert np.array_equal(inverse(ell), np.linalg.inv(ell))
