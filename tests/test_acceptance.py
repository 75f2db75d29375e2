"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The first eight criteria are exact-property checks delegated to the
package validation suite (same fixed seeds as the `privsample validate`
command). The last two reproduce the headline trade-off experiments
directionally on the published matrices at K = 100.
"""
import math
import time

import numpy as np
import pytest

from privsample.optimizer import OptimizerConfig, optimize_lambda
from privsample.policy import open_loop_schedule
from privsample.reconstruct import evaluate_schedule, kalman_additive_baseline
from privsample.rngs import substream
from privsample.validation import (
    check_always_sample_conditioning,
    check_belief_vs_grid_filter,
    check_determinant_identity,
    check_dp_optimality,
    check_finite_equivalences,
    check_gradient_finite_difference,
    check_marginal_prob_monte_carlo,
    check_one_step_loss_quadrature,
    check_toy_game_jacobian,
    paper_system,
)


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_no_sample_marginal_monte_carlo():
    res = check_marginal_prob_monte_carlo(fixtures=20, draws=100_000)
    ok = res.passed and res.seconds < 5.0
    _report("criterion 1 (closed form vs Monte Carlo)", ok, f"{res.detail}; {res.seconds:.1f}s")


def test_criterion_2_belief_recursion_vs_quadrature():
    res = check_belief_vs_grid_filter(horizon=10, tol=1e-3)
    _report("criterion 2 (belief vs quadrature Bayes, K=10)", res.passed, res.detail)


def test_criterion_3_always_sample_joint_conditioning():
    res = check_always_sample_conditioning(horizon=20, tol=1e-6)
    _report("criterion 3 (trajectory posterior vs joint conditioning)", res.passed, res.detail)


def test_criterion_4_one_step_loss_vs_quadrature():
    res = check_one_step_loss_quadrature(fixtures=10, tol=1e-4)
    _report("criterion 4 (one-step loss vs 2-D quadrature)", res.passed, res.detail)


def test_criterion_5_determinant_identity():
    res = check_determinant_identity(count=100, max_dim=64, tol=1e-8)
    _report("criterion 5 (determinant/Schur identity)", res.passed, res.detail)


def test_criterion_6_gradient_checks():
    fd = check_gradient_finite_difference(tol=1e-3)
    toy = check_toy_game_jacobian(tol=1e-6)
    ok = fd.passed and toy.passed
    _report("criterion 6 (gradient checks)", ok, f"{fd.detail}; {toy.detail}")


def test_criterion_7_finite_model_equivalences():
    res = check_finite_equivalences(tol=1e-10)
    _report("criterion 7 (finite-model equivalences)", res.passed, res.detail)


def test_criterion_8_dp_vs_exhaustive_grid():
    res = check_dp_optimality(lam=0.5, bound=0.02)
    ok = res.passed and res.seconds < 60.0
    _report("criterion 8 (value recursion vs policy grid)", ok, f"{res.detail}; {res.seconds:.1f}s")


# ---------------------------------------------------------------------------
# Directional reproduction of the trade-off experiments (K = 100)
# ---------------------------------------------------------------------------

HORIZON = 100
EVAL_ROLLOUTS = 10_000
SEED = 20_240
OPEN_LOOP_F = (0.3, 1.0, 3.0, 8.0, 20.0, 60.0, 120.0, 200.0, 350.0, 600.0)
NOISE_VARS = (0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 35.0, 60.0)
# lambda is unreported in the source experiments; this grid places the
# optimized points mid-curve, where all three families overlap in y
LAMBDAS = (6.0, 12.0, 40.0)
RATE_LAMBDA = 100.0


@pytest.fixture(scope="module")
def tradeoff_data():
    system = paper_system()
    t0 = time.time()
    open_loop = []
    for f in OPEN_LOOP_F:
        # common random numbers: every family point sees the same trajectories
        rep = evaluate_schedule(
            system, open_loop_schedule(np.array([[f]]), HORIZON), HORIZON,
            EVAL_ROLLOUTS, substream(SEED, 100),
        )
        open_loop.append((rep.sampling_rate, rep.mean_x_error, rep.mean_y_error, f))
    additive = []
    for var in NOISE_VARS:
        rep = kalman_additive_baseline(
            system, [[var]], HORIZON, EVAL_ROLLOUTS, substream(SEED, 200)
        )
        additive.append((rep.mean_x_error, rep.mean_y_error, var))
    optimized = []
    for lam in LAMBDAS + (RATE_LAMBDA,):
        config = OptimizerConfig(
            alpha=0.25,
            rollouts_per_step=64,
            max_iters=80,
            seed=SEED + int(lam * 10),
            validation_rollouts=512,
        )
        result = optimize_lambda(config, system, lam, HORIZON)
        rep = evaluate_schedule(
            system, result.schedule, HORIZON, EVAL_ROLLOUTS, substream(SEED, 100)
        )
        optimized.append((lam, rep.sampling_rate, rep.mean_x_error, rep.mean_y_error))
    return {
        "system": system,
        "open_loop": open_loop,
        "additive": additive,
        "optimized": optimized,
        "seconds": time.time() - t0,
    }


def _interp_by_y(points_y, points_x, y):
    order = np.argsort(points_y)
    return float(np.interp(y, np.asarray(points_y)[order], np.asarray(points_x)[order]))


def test_criterion_9_tradeoff_curves(tradeoff_data):
    data = tradeoff_data
    ol_y = [p[2] for p in data["open_loop"]]
    ol_x = [p[1] for p in data["open_loop"]]
    add_y = [p[1] for p in data["additive"]]
    add_x = [p[0] for p in data["additive"]]
    lines = []
    dominated = 0
    within_band = 0
    for lam, rate, x_opt, y_opt in data["optimized"][: len(LAMBDAS)]:
        assert min(ol_y) <= y_opt <= max(ol_y), "matched level outside the open-loop range"
        assert min(add_y) <= y_opt <= max(add_y), "matched level outside the additive range"
        x_ol = _interp_by_y(ol_y, ol_x, y_opt)
        x_add = _interp_by_y(add_y, add_x, y_opt)
        dominated += x_opt <= x_ol
        within_band += abs(x_add - x_opt) <= 0.2 * x_opt
        lines.append(
            f"lam={lam:g}: y={y_opt:.3f} x_opt={x_opt:.3f} x_open={x_ol:.3f} x_add={x_add:.3f}"
        )
    runtime_ok = data["seconds"] < 600.0
    ok = dominated >= 3 and within_band >= 3 and runtime_ok
    _report(
        "criterion 9 (trade-off directional reproduction)",
        ok,
        f"{dominated}/3 dominated, {within_band}/3 additive within 20%; "
        + "; ".join(lines)
        + f"; {data['seconds']:.0f}s",
    )


def test_criterion_10_rate_curve(tradeoff_data):
    data = tradeoff_data
    system = data["system"]
    # calibrate the open-loop sampler to a 0.29 sampling rate by bisection
    lo, hi = math.log(8.0), math.log(600.0)
    rate29, e29 = None, None
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        rep = evaluate_schedule(
            system,
            open_loop_schedule(np.array([[math.exp(mid)]]), HORIZON),
            HORIZON,
            EVAL_ROLLOUTS,
            substream(SEED, 100),
        )
        rate29, e29 = rep.sampling_rate, rep.mean_x_error
        if abs(rate29 - 0.29) < 0.003:
            break
        if rate29 > 0.29:
            lo = mid
        else:
            hi = mid
    winners = [
        (lam, rate, x)
        for lam, rate, x, _ in data["optimized"]
        if rate < rate29 and x <= e29
    ]
    ok = rate29 is not None and abs(rate29 - 0.29) < 0.02 and len(winners) > 0
    best = min(winners, key=lambda t: t[1]) if winners else None
    detail = (
        f"open-loop rate {rate29:.3f} has x-error {e29:.3f}; "
        + (
            f"optimized lam={best[0]:g} reaches x={best[2]:.3f} at rate {best[1]:.3f} "
            if best
            else "no optimized point dominates "
        )
        + "(reference pair from the source experiments: 0.14 vs 0.29, reported, not enforced)"
    )
    _report("criterion 10 (rate-curve directional reproduction)", ok, detail)
