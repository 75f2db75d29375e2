"""Property-based cross-engine checks (derandomized Hypothesis).

The batched engine (``_fast_gradient_batch``) and the growing-belief
reference (``_rollout_gradient_terms``) must agree row by row on every
drawn system and forced branch pattern, or both raise the same
NumericalFailure at the same step.
"""
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from privsample.errors import NumericalFailure
from privsample.lingauss import LinearGaussianSystem
from privsample.optimizer import (
    FeedbackPolicyParams,
    _fast_gradient_batch,
    _rollout_gradient_terms,
)
from privsample.rngs import make_rng

ROWS = 3
LAM = 0.9
DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=100, database=None)


@st.composite
def cases(draw, singular_qyy: bool):
    """(system, params, u): n_x, n_y in {1, 2}; a stable A; a positive
    definite Q with A_yx zero or random, or with ``singular_qyy`` Q_yy = 0
    and A_yx = 0; log10 f0 in [-2, 2]; K <= 5; ROWS forced 0/1 patterns."""
    n_x, n_y = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    coupled = not singular_qyy and draw(st.booleans())
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_x + n_y
    a = rng.standard_normal((n, n))
    if not coupled:
        a[n_x:, :n_x] = 0.0
    a *= draw(st.floats(0.2, 0.95)) / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-3)
    q_fac, p_fac = rng.standard_normal((2, n, n))
    q = q_fac @ q_fac.T / n + 0.1 * np.eye(n)
    if singular_qyy:
        q[n_x:, :] = q[:, n_x:] = 0.0
    system = LinearGaussianSystem(
        a_matrix=a,
        q_cov=q,
        init_mean=rng.standard_normal(n),
        init_cov=p_fac @ p_fac.T / n + 0.1 * np.eye(n),
        n_x=n_x,
        n_y=n_y,
    )
    horizon = draw(st.integers(0, 5))
    f0 = 10.0 ** draw(st.floats(-2.0, 2.0))
    params = FeedbackPolicyParams.constant(system, horizon, f0=f0, tied=False)
    params = params.replaced(params.theta + 0.1 * rng.standard_normal(params.dim))
    pattern = st.lists(st.booleans(), min_size=horizon + 1, max_size=horizon + 1)
    patterns = draw(st.lists(pattern, min_size=ROWS, max_size=ROWS))
    return system, params, np.array(patterns, dtype=float).T


def _outcome(run):
    """run()'s value, or the message of the NumericalFailure it raises."""
    try:
        return run()
    except NumericalFailure as exc:
        return str(exc)


def _engines_agree(system, params, u):
    """Row by row within the forced-pattern test's tolerances, taken
    relative to each quantity's scale, or one failure message for both."""
    horizon = u.shape[0] - 1
    fast = _outcome(lambda: _fast_gradient_batch(params, system, LAM, ROWS, horizon, u))
    for r in range(ROWS):
        slow = _outcome(lambda: _rollout_gradient_terms(params, system, LAM, horizon, u[:, r]))
        if isinstance(fast, str) or isinstance(slow, str):
            assert fast == slow
            continue
        fl, fd, fs, fr, _ = fast
        sl, sd, ss, sr = slow
        assert abs(fl[r] - sl) < 1e-10 * max(1.0, abs(sl))
        assert np.abs(fd[r] - sd).max() < 1e-9 * max(1.0, np.abs(sd).max())
        assert np.abs(fs[r] - ss).max() < 1e-9 * max(1.0, np.abs(ss).max())
        assert fr[r] == sr


@DERANDOMIZED
@given(cases(singular_qyy=False))
def test_engine_matches_the_growing_reference(case):
    _engines_agree(*case)


@DERANDOMIZED
@given(cases(singular_qyy=True))
def test_engine_names_the_singular_private_noise_at_k1(case):
    """Q_yy = 0 with A_yx = 0 makes y_1 a function of y_0: the engine
    raises at k=1 on every draw with K >= 1, and a K = 0 draw, which has
    no singular block, agrees with the growing reference."""
    system, params, u = case
    horizon = u.shape[0] - 1
    if horizon == 0:
        _engines_agree(*case)
        return
    with pytest.raises(NumericalFailure) as failure:
        _fast_gradient_batch(params, system, LAM, ROWS, horizon, u)
    assert str(failure.value) == "singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k=1"


@pytest.mark.xfail(
    raises=(AssertionError, np.linalg.LinAlgError),
    strict=True,
    reason="the growing reference sees Q_yy = 0 only when rounding fails its"
    " Cholesky: on some draws it raises at k=2, a bare LinAlgError, or nothing,"
    " where the engine raises at k=1",
)
@settings(DERANDOMIZED, phases=[Phase.generate])
@given(cases(singular_qyy=True))
def test_growing_reference_fails_alike_on_singular_private_noise(case):
    _engines_agree(*case)
