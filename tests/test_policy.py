import numpy as np
import pytest

from privsample.errors import ContractViolation
from privsample.linalg import random_spd
from privsample.policy import (
    SamplerSchedule,
    chol_to_f,
    degenerate_schedule,
    no_sample_prob_pointwise,
    open_loop_schedule,
    privacy_aware_schedule,
)
from privsample.rngs import make_rng


def test_pointwise_at_center():
    assert no_sample_prob_pointwise([0.3], [[2.0]], [0.3]) == 1.0


def test_pointwise_scalar_value():
    p = no_sample_prob_pointwise([np.sqrt(2.0)], [[1.0]], [0.0])
    assert np.isclose(p, np.exp(-1.0))


def test_pointwise_monotone_along_ray():
    rng = make_rng(1)
    f = random_spd(rng, 3)
    g = rng.standard_normal(3)
    direction = rng.standard_normal(3)
    probs = [no_sample_prob_pointwise(g + t * direction, f, g) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_branch_probabilities_are_complementary():
    p0 = no_sample_prob_pointwise([1.3], [[0.7]], [0.2])
    assert 0.0 <= p0 <= 1.0
    assert p0 + (1.0 - p0) == 1.0  # exact by construction


def test_pointwise_scale_covariance():
    rng = make_rng(2)
    f = random_spd(rng, 2)
    g = rng.standard_normal(2)
    d = rng.standard_normal(2)
    for c in (0.25, 4.0):
        p1 = no_sample_prob_pointwise(g + d, f, g)
        p2 = no_sample_prob_pointwise(g + np.sqrt(c) * d, c * f, g)
        assert np.isclose(p1, p2)


def test_decide_monte_carlo_frequency():
    rng = make_rng(3)
    x, f, g = np.array([0.8]), np.array([[1.3]]), np.array([0.1])
    p0 = no_sample_prob_pointwise(x, f, g)
    sched = privacy_aware_schedule(np.sqrt(f)[None], g[None])
    n_draws = 100_000
    hits = np.sum(~sched.keep(0, np.repeat(x[None], n_draws, axis=0), g, rng))
    tol = 3 * np.sqrt(p0 * (1 - p0) / n_draws)
    assert abs(hits / n_draws - p0) < tol


def test_decide_returns_observation_on_keep():
    """An x far outside the region is kept, so its caller transmits it."""
    rng = make_rng(4)
    x = np.array([[50.0]])  # far outside the region: essentially always kept
    sched = open_loop_schedule(np.array([[0.1]]), 0)
    assert sched.keep(0, x, np.zeros(1), rng).tolist() == [True]


def test_decide_draws_at_the_feedback_center_and_outputs_x_or_the_center():
    """decide centers the region at g_at's predicted mean plus offset,
    draws keep's flags from the same uniforms, and outputs x on kept rows
    and the center on discarded ones."""
    ells = np.repeat(np.array([[[1.2, 0.0], [0.3, 0.9]]]), 2, axis=0)
    sched = privacy_aware_schedule(ells, np.array([[0.1, -0.1]] * 2), feedback=True)
    x, x_pred = make_rng(6).standard_normal((2, 50, 2))
    keep, out = sched.decide(1, x, x_pred, make_rng(7))
    center = x_pred + sched.g[1]
    assert np.array_equal(keep, sched.keep(1, x, center, make_rng(7)))
    assert 0 < keep.sum() < 50
    assert np.array_equal(out[keep], x[keep]) and np.array_equal(out[~keep], center[~keep])


def test_degenerate_kinds():
    rng = make_rng(5)
    never = degenerate_schedule("never_sample", horizon=3, n_x=1)
    always = degenerate_schedule("always_sample", horizon=3, n_x=1)
    for k in range(4):
        xs, g_abs = np.array([[9.9], [0.0], [-3.0]]), np.zeros((3, 1))
        assert not never.keep(k, xs, g_abs, rng).any()
        assert always.keep(k, xs, g_abs, rng).all()
    assert rng.uniform() == make_rng(5).uniform()  # degenerate kinds draw nothing


def test_schedule_validation():
    with pytest.raises(ContractViolation):
        SamplerSchedule(kind="open_loop", f_chol=np.ones((2, 1, 1)), g=np.ones((2, 1)))
    f_chol = np.ones((2, 1, 1))
    f_chol[1] = 2.0
    with pytest.raises(ContractViolation):
        SamplerSchedule(kind="open_loop", f_chol=f_chol, g=np.zeros((2, 1)))
    with pytest.raises(ContractViolation):
        SamplerSchedule(kind="privacy_aware", f_chol=-np.ones((2, 1, 1)), g=np.zeros((2, 1)))
    with pytest.raises(ContractViolation):
        SamplerSchedule(kind="nope", f_chol=np.ones((2, 1, 1)), g=np.zeros((2, 1)))


def test_chol_parameterization_always_spd():
    rng = make_rng(8)
    for _ in range(25):
        ell = np.tril(rng.standard_normal((3, 3)))
        np.fill_diagonal(ell, np.exp(rng.standard_normal(3)))
        f = chol_to_f(ell)
        assert np.linalg.eigvalsh(f).min() > 0


def test_schedule_roundtrip():
    rng = make_rng(9)
    ells = np.tril(rng.standard_normal((4, 2, 2)))
    for k in range(4):
        np.fill_diagonal(ells[k], np.exp(rng.standard_normal(2)))
    sched = privacy_aware_schedule(ells, rng.standard_normal((4, 2)), feedback=True)
    back = SamplerSchedule.from_config(sched.to_config())
    assert back.kind == sched.kind and back.feedback
    assert np.allclose(back.f_chol, sched.f_chol)
    assert np.allclose(back.g, sched.g)


def test_schedule_feedback_must_be_a_boolean():
    """An absent ``feedback`` is False; a string such as "false" is not
    read by its truth value, and no other non-boolean is either."""
    cfg = open_loop_schedule(np.eye(1), 2).to_config()
    del cfg["feedback"]
    assert SamplerSchedule.from_config(cfg).feedback is False
    for value in ("false", 0, None):
        with pytest.raises(TypeError, match="^feedback must be a JSON boolean"):
            SamplerSchedule.from_config(dict(cfg, feedback=value))


def test_feedback_needs_predicted_mean():
    sched = privacy_aware_schedule(np.ones((1, 1, 1)), np.zeros((1, 1)), feedback=True)
    with pytest.raises(ContractViolation):
        sched.g_at(0)
    assert np.allclose(sched.g_at(0, x_pred=np.array([0.4])), [0.4])


def test_open_loop_effective_f_constant():
    sched = open_loop_schedule(np.array([[2.5]]), horizon=5)
    for k in range(6):
        assert np.allclose(sched.f_at(k), [[2.5]])
        assert np.allclose(sched.g[k], [0.0])
