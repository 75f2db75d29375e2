"""The rows-last engine: a row's values are its own, and its tangents are
the derivatives of its losses."""
import warnings

import numpy as np
import pytest

from privsample.engine import (
    BatchEngine,
    _inv,
    _x_given_y,
    blocks_first,
    blocks_last,
    branch_step,
    mm,
    sandwich,
    transition,
)
from privsample.errors import NumericalFailure
from privsample.linalg import inverse, random_spd
from privsample.optimizer import FeedbackPolicyParams
from privsample.rngs import make_rng
from tests.test_optimizer import _random_system

BATCH = 10_000
ROW = 4321  # where the followed row sits in the full batch
HORIZON = 6


def _system(vi_system, name):
    return vi_system if name == "paper" else _random_system(24, 2, 2)


def _patterns(rows: int, seed: int):
    """Keep flags (K+1, rows); row ROW of the batch follows a fixed pattern."""
    keep = make_rng(seed).uniform(size=(HORIZON + 1, rows)) > 0.5
    keep[:, ROW] = [k % 3 != 1 for k in range(HORIZON + 1)]
    return keep


@pytest.mark.parametrize("name", ["paper", "nx2_ny2"])
def test_filtering_row_is_the_same_alone_and_in_a_batch(vi_system, name):
    """evaluate_schedule's filter: the covariance starts as one shared
    block, is filtered per row by branch_step and predicted by sandwich;
    the means follow ``transition``."""
    system = _system(vi_system, name)
    nx = system.n_x
    f = (0.7 * np.eye(nx) + 0.1)[..., None]
    keep = _patterns(BATCH, 1)
    obs = make_rng(2).standard_normal((HORIZON + 1, nx, BATCH))

    def run(cols):
        p = system.init_cov[..., None]
        mean = np.repeat(system.init_mean[:, None], len(cols), axis=1)
        out = []
        for k in range(HORIZON + 1):
            p, _, mean = branch_step(p, None, mean, f, None, keep[k, cols], obs[k][:, cols], k)
            out.append((p.copy(), mean.copy()))
            p = sandwich(system.a_matrix, p) + system.q_cov[..., None]
            mean = transition(system.a_matrix, mean)
            out.append((p, mean))
        return out

    alone = run([ROW])
    batch = run(np.arange(BATCH))
    for (p1, m1), (pb, mb) in zip(alone, batch):
        assert np.array_equal(p1[..., 0], pb[..., ROW])
        assert np.array_equal(m1[:, 0], mb[:, ROW])


@pytest.mark.parametrize("name", ["paper", "nx2_ny2"])
def test_engine_row_is_the_same_alone_in_a_batch_and_beside_bare_rows(vi_system, name):
    """BatchEngine with tangents: the row alone, inside a batch whose rows
    all carry tangents, and as the one tangent row before rows without."""
    system = _system(vi_system, name)
    params = FeedbackPolicyParams.constant(system, HORIZON, f0=1.5)
    params = params.replaced(params.theta + 0.1 * make_rng(3).standard_normal(params.dim))
    keep = _patterns(BATCH, 4)
    cases = {
        "alone": (BatchEngine(system, 1, params.dim), [ROW], 0),
        "batch": (BatchEngine(system, BATCH, params.dim), np.arange(BATCH), ROW),
        # the followed row first, so it is the only one that carries tangents
        "beside": (
            BatchEngine(system, BATCH, params.dim, tangent_rows=1),
            np.roll(np.arange(BATCH), -ROW),
            0,
        ),
    }
    for k in range(HORIZON + 1):
        f, df, c = params.step_terms(k)
        seen = {}
        for case, (eng, cols, r) in cases.items():
            loss, dloss, p0, dp0, info = eng.step_loss(f, df, c, 0.8)
            eng.update(f, df, keep[k, cols], k)
            filtered = (eng.p[..., r], eng.s[..., r], eng.dp[..., r], eng.ds[..., r])
            if k < HORIZON:
                eng.predict(k + 1)
            predicted = (eng.p[..., r], eng.s[..., r], eng.dp[..., r], eng.ds[..., r])
            seen[case] = (loss[r], p0[r], info[r], dloss[:, r], dp0[:, r], *filtered, *predicted)
        for case in ("batch", "beside"):
            for a, b in zip(seen["alone"], seen[case]):
                assert np.array_equal(a, b), (case, k)


@pytest.mark.parametrize("name", ["paper", "nx2_coupled"])
def test_engine_tangents_at_a_fixed_center_offset_match_central_differences(vi_system, name):
    """With a fixed center offset c != 0 the quadratic form's tangent is
    -u^T dS u: the summed loss and each step's p0 on a forced branch
    pattern against central differences in theta."""
    system = vi_system if name == "paper" else _random_system(11, 2, 1)
    horizon = 4
    rng = make_rng(8)
    params = FeedbackPolicyParams.constant(system, horizon, f0=1.5, tied=False)
    params = params.replaced(params.theta + 0.1 * rng.standard_normal(params.dim))
    offsets = 0.6 * rng.standard_normal((horizon + 1, system.n_x, 1))
    keep = np.arange(horizon + 1) % 2 == 1

    def run(p, tangents):
        """(summed loss, p0 per step) and, with tangents, their tangents."""
        eng = BatchEngine(system, 1, p.dim if tangents else 0)
        values, derivs = [], []
        for k in range(horizon + 1):
            f, df, _ = p.step_terms(k)
            loss, dloss, p0, dp0, _ = eng.step_loss(f, df, offsets[k], 0.8)
            values.append((loss[0], p0[0]))
            if tangents:
                derivs.append((dloss[:, 0], dp0[:, 0]))
            eng.update(f, df, keep[k : k + 1], k)
            if k < horizon:
                eng.predict(k + 1)
        loss, p0 = zip(*values)
        if not tangents:
            return np.array([sum(loss), *p0]), None
        dloss, dp0 = zip(*derivs)
        return np.array([sum(loss), *p0]), np.array([sum(dloss), *dp0])

    _, tangents = run(params, True)
    h = 1e-6
    for i in range(params.dim):
        step = h * np.eye(params.dim)[i]
        up, _ = run(params.replaced(params.theta + step), False)
        dn, _ = run(params.replaced(params.theta - step), False)
        assert np.allclose(tangents[:, i], (up - dn) / (2 * h), rtol=1e-6, atol=1e-9), i


def _spd_blocks(d: int, rows: tuple, seed: int):
    """Positive definite (d, d, *rows) blocks."""
    rng = make_rng(seed)
    flat = [random_spd(rng, d) for _ in range(int(np.prod(rows)))]
    return np.stack(flat, axis=-1).reshape(d, d, *rows)


# covariance-shaped (d, d, B) and tangent-shaped (d, d, T, G) row axes,
# length-1 ones included
ROW_SHAPES = [(7,), (1,), (3, 5), (1, 5), (3, 1), (1, 1)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows", ROW_SHAPES)
def test_block_moves_equal_their_moveaxis_forms(d, rows):
    """blocks_last, blocks_first, _inv and mm give the values of their
    np.moveaxis formulations bit for bit."""
    a = _spd_blocks(d, rows, 1)
    b = _spd_blocks(d, rows, 2)
    last = np.moveaxis(a, (0, 1), (-2, -1))
    assert np.array_equal(blocks_last(a), last)
    assert blocks_last(a).shape == last.shape
    assert np.array_equal(blocks_first(last), a)
    assert blocks_first(last).shape == a.shape
    inv = np.moveaxis(inverse(last), (-2, -1), (0, 1))
    assert np.array_equal(_inv(a), inv)
    shared = a[..., :1]  # an operand shared by every row
    for x, y in ((a, b), (shared, b), (b, shared)):
        x_last, y_last = np.moveaxis(x, (0, 1), (-2, -1)), np.moveaxis(y, (0, 1), (-2, -1))
        product = np.moveaxis(x_last @ y_last, (-2, -1), (0, 1))
        assert np.array_equal(mm(x, y), product)


@pytest.mark.parametrize("singular", [[[0.0]], [[1.0, 1.0], [1.0, 1.0]]], ids=["ny1", "ny2"])
def test_singular_y_block_raises_naming_the_step_without_a_warning(singular):
    """A row whose Cov(Y_k | past) is singular raises NumericalFailure
    naming k before any inverse is taken, so no RuntimeWarning (which
    the suite turns into an error) is emitted on the way."""
    nx = 1
    m = _spd_blocks(nx + len(singular), (3,), 5)
    m[nx:, nx:, 1] = singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"singular Cov\(Y_k .*at k=7"):
            _x_given_y(m, nx, 7)
