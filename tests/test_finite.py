import itertools

import numpy as np
import pytest

from privsample.errors import ContractViolation, ImpossibleEvidence
from privsample.finite import (
    DP_MEM_CAP,
    DpGridSpec,
    FiniteModel,
    PolicyCollection,
    _Space,
    belief_step,
    dp_solve,
    init_discrete_belief,
    keep_prob,
    mi_bruteforce,
    no_sample_prob,
    objective_via_decomposition,
    objective_via_enumeration,
    one_step_losses,
    optimal_reconstruction_finite,
    xy_mutual_information,
)
from privsample.rngs import make_rng


@pytest.fixture(scope="module")
def model():
    return FiniteModel(
        x_kernel=np.array([[[0.9, 0.1], [0.6, 0.4]], [[0.2, 0.8], [0.45, 0.55]]]),
        y_kernel=np.array([[0.8, 0.2], [0.3, 0.7]]),
        init_joint=np.array([[0.3, 0.2], [0.1, 0.4]]),
        distortion=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )


def _x_policy(p0, p1):
    return PolicyCollection.from_x_table([p0, p1])


def _random_policies(rng, horizon):
    return [_x_policy(*rng.uniform(0.05, 0.95, size=2)) for _ in range(horizon + 1)]


def test_model_validation():
    good = dict(
        x_kernel=np.full((2, 2, 2), 0.5),
        y_kernel=np.full((2, 2), 0.5),
        init_joint=np.full((2, 2), 0.25),
        distortion=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    FiniteModel(**good)
    bad = dict(good)
    bad["y_kernel"] = np.array([[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(ContractViolation):
        FiniteModel(**bad)
    bad = dict(good)
    bad["distortion"] = np.array([[0.1, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractViolation):
        FiniteModel(**bad)


def test_never_sample_step_is_pure_prediction(model):
    b = init_discrete_belief(model)
    out = belief_step(b, PolicyCollection.uniform(1.0), None, model, mem_cap=None)
    # likelihood is constant: the (x', y') marginal is the kernel push-forward
    joint = np.zeros((2, 2))
    for (x, _, ys), w in out.weights.items():
        joint[x, ys[-1]] += w
    expect = np.einsum("xy,xyn,ym->nm", model.init_joint, model.x_kernel, model.y_kernel)
    assert np.allclose(joint, expect, atol=1e-14)


def test_keep_branch_conditions_on_observation(model):
    b = init_discrete_belief(model)
    out = belief_step(b, PolicyCollection.uniform(0.0), 1, model, DP_MEM_CAP)
    # evidence x_0 = 1: every retained y-trajectory starts from that slice
    start = {ys[0] for (_, _, ys) in out.weights}
    py0 = model.init_joint[1] / model.init_joint[1].sum()
    marg = np.zeros(2)
    for (_, _, ys), w in out.weights.items():
        marg[ys[0]] += w
    assert start <= {0, 1}
    assert np.allclose(marg, py0, atol=1e-14)


def test_impossible_evidence(model):
    b = init_discrete_belief(model)
    with pytest.raises(ImpossibleEvidence):
        belief_step(b, PolicyCollection.uniform(1.0), 0, model, DP_MEM_CAP)  # keep prob is zero


def _enumerate_posterior(model, policies, z_hist):
    """Brute-force p(x_k, m_k, y^k | z-history) by trajectory enumeration."""
    horizon = len(z_hist) - 1
    table = {}
    heads = [
        ((x, (), (y,)), float(model.init_joint[x, y]))
        for x in range(model.nx)
        for y in range(model.ny)
    ]
    for k in range(horizon + 1):
        z = z_hist[k]
        nxt = []
        for (x, mem, ys), p in heads:
            a0 = policies[k].prob0(x, mem)
            if z is None:
                p_branch = p * a0
                new_mem = mem + (x,)
            else:
                if x != z:
                    continue
                p_branch = p * (1.0 - a0)
                new_mem = mem
            if p_branch <= 0.0:
                continue
            if k == horizon:
                key = (x, new_mem if z is None else mem, ys)
                # posterior is over (x_k, m_k, y^k) *before* the branch merges
                key = (x, mem, ys)
                table[key] = table.get(key, 0.0) + p_branch
                continue
            for xn in range(model.nx):
                px = model.x_kernel[x, ys[-1], xn]
                if px <= 0.0:
                    continue
                for yn in range(model.ny):
                    q = p_branch * px * model.y_kernel[ys[-1], yn]
                    if q > 0.0:
                        nxt.append(((xn, new_mem, ys + (yn,)), q))
        heads = nxt
    return table


def test_belief_step_matches_trajectory_enumeration(model):
    rng = make_rng(7)
    policies = _random_policies(rng, 2)
    for z_hist in [(None, None, 0), (None, 1, None), (0, None, 1), (None, None, None)]:
        b = init_discrete_belief(model)
        ok = True
        for k, z in enumerate(z_hist[:-1]):
            b = belief_step(b, policies[k], z, model, mem_cap=None)
        # enumerated posterior over (x_K, m_K, y^K) given prefix z_hist[:-1]
        table = _enumerate_posterior(model, policies, z_hist[:-1] + (None,))
        # the prefix conditioning drops the final branch factor: rebuild it
        # directly from the enumeration of the prefix instead
        prefix = z_hist[:-1]
        raw = {}
        heads = [
            ((x, (), (y,)), float(model.init_joint[x, y]))
            for x in range(model.nx)
            for y in range(model.ny)
        ]
        for k in range(len(prefix) + 1):
            nxt = []
            for (x, mem, ys), p in heads:
                if k == len(prefix):
                    raw[(x, mem, ys)] = raw.get((x, mem, ys), 0.0) + p
                    continue
                z = prefix[k]
                a0 = policies[k].prob0(x, mem)
                if z is None:
                    pb, new_mem = p * a0, mem + (x,)
                else:
                    if x != z:
                        continue
                    pb, new_mem = p * (1.0 - a0), mem
                if pb <= 0.0:
                    continue
                for xn in range(model.nx):
                    for yn in range(model.ny):
                        q = pb * model.x_kernel[x, ys[-1], xn] * model.y_kernel[ys[-1], yn]
                        if q > 0.0:
                            nxt.append(((xn, new_mem, ys + (yn,)), q))
            heads = nxt
        norm = sum(raw.values())
        for key in set(raw) | set(b.weights):
            assert abs(raw.get(key, 0.0) / norm - b.weights.get(key, 0.0)) < 1e-12


def test_one_step_info_never_sample_is_zero(model):
    b = init_discrete_belief(model)
    losses = one_step_losses(b, PolicyCollection.uniform(1.0), model, 1.0)
    assert abs(losses.info) < 1e-14


def test_one_step_info_always_sample_nonnegative_direct_sum(model):
    b = init_discrete_belief(model)
    losses = one_step_losses(b, PolicyCollection.uniform(0.0), model, 1.0)
    # direct summation of I(X_0; Y_0) at the initial belief
    joint = model.init_joint
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    direct = sum(
        joint[x, y] * np.log(joint[x, y] / (px[x] * py[y]))
        for x in range(2)
        for y in range(2)
        if joint[x, y] > 0
    )
    assert losses.info >= 0
    assert abs(losses.info - direct) < 1e-12


def test_one_step_losses_fixture_against_enumeration(model):
    rng = make_rng(8)
    policies = _random_policies(rng, 1)
    b = belief_step(init_discrete_belief(model), policies[0], None, model, mem_cap=None)
    losses = one_step_losses(b, policies[1], model, 1.0)
    # enumerate E[log p(y^1|z^1)/p(y^1|z^0)] for z^0 = (None,) directly
    info = 0.0
    p_y = {}
    for (x, mem, ys), w in b.weights.items():
        p_y[ys] = p_y.get(ys, 0.0) + w
    q0y, q1xy = {}, {}
    for (x, mem, ys), w in b.weights.items():
        a0 = policies[1].prob0(x, mem)
        q0y[ys] = q0y.get(ys, 0.0) + w * a0
        q1xy[(x, ys)] = q1xy.get((x, ys), 0.0) + w * (1 - a0)
    p0 = sum(q0y.values())
    for ys, q in q0y.items():
        if q > 0:
            info += q * np.log((q / p0) / p_y[ys])
    q1x = {}
    for (x, ys), q in q1xy.items():
        q1x[x] = q1x.get(x, 0.0) + q
    for (x, ys), q in q1xy.items():
        if q > 0:
            info += q * np.log((q / q1x[x]) / p_y[ys])
    assert abs(losses.info - info) < 1e-12


def test_mi_never_sample_zero(model):
    assert mi_bruteforce(model, [PolicyCollection.uniform(1.0)] * 4, 3) == 0.0


def test_mi_bounded_by_state_information(model):
    rng = make_rng(9)
    bound = xy_mutual_information(model, 3)
    always = mi_bruteforce(model, [PolicyCollection.uniform(0.0)] * 4, 3)
    assert np.isclose(always, bound, atol=1e-12)
    for _ in range(4):
        mi = mi_bruteforce(model, _random_policies(rng, 3), 3)
        assert -1e-12 <= mi <= bound + 1e-12


def test_chain_rule_decomposition(model):
    rng = make_rng(10)
    for _ in range(3):
        policies = _random_policies(rng, 3)
        mi = mi_bruteforce(model, policies, 3)
        _, _, info_sum = objective_via_decomposition(model, policies, 3, lam=1.0)
        assert abs(mi - info_sum) < 1e-10


def test_raw_objective_equals_decomposed(model):
    rng = make_rng(11)
    for lam in (0.0, 0.7, 2.5):
        policies = _random_policies(rng, 2)
        raw, d_raw, _ = objective_via_enumeration(model, policies, 2, lam)
        dec, d_dec, _ = objective_via_decomposition(model, policies, 2, lam)
        assert abs(raw - dec) < 1e-10
        assert abs(d_raw - d_dec) < 1e-10


def test_memory_truncation_exact_within_window(model):
    rng = make_rng(12)
    policies = [
        PolicyCollection(
            table={
                (x, mem): float(rng.uniform(0.1, 0.9))
                for x in range(2)
                for mem in [(), (0,), (1,)]
            },
            mem_len=1,
        )
        for _ in range(4)
    ]
    full = init_discrete_belief(model)
    cut = init_discrete_belief(model)
    for k in range(3):
        full = belief_step(full, policies[k], None, model, mem_cap=None)
        cut = belief_step(cut, policies[k], None, model, mem_cap=1)
        # the truncated belief equals the marginal of the full one
        marg = {}
        for (x, mem, ys), w in full.weights.items():
            key = (x, mem[-1:], ys)
            marg[key] = marg.get(key, 0.0) + w
        for key in set(marg) | set(cut.weights):
            assert abs(marg.get(key, 0.0) - cut.weights.get(key, 0.0)) < 1e-12


def test_optimal_reconstruction(model):
    point = np.array([0.0, 1.0])
    assert optimal_reconstruction_finite(point, model) == 1
    mode = np.array([0.7, 0.3])
    assert optimal_reconstruction_finite(mode, model) == 0
    skew = FiniteModel(
        x_kernel=model.x_kernel,
        y_kernel=model.y_kernel,
        init_joint=model.init_joint,
        distortion=np.array([[0.0, 5.0], [1.0, 0.0]]),
    )
    w = np.array([0.3, 0.7])
    best = min(range(2), key=lambda c: float(w @ skew.distortion[:, c]))
    assert optimal_reconstruction_finite(w, skew) == best
    # tie goes to the smallest index
    tie = FiniteModel(
        x_kernel=model.x_kernel,
        y_kernel=model.y_kernel,
        init_joint=model.init_joint,
        distortion=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    assert optimal_reconstruction_finite(np.array([0.5, 0.5]), tie) == 0


def test_array_space_losses_match_reference(model):
    rng = make_rng(13)
    policies = _random_policies(rng, 2)
    b = init_discrete_belief(model)
    for k in range(3):
        keys = tuple(sorted(b.weights))
        sp = _Space(model, keys)
        w = np.array([b.weights[key] for key in keys])
        tables = rng.uniform(0.0, 1.0, size=(5, len(sp.pairs)))
        totals, p0 = sp.losses_batch(w, tables, lam=0.9)
        for t in range(5):
            pol = PolicyCollection(
                table={pair: float(v) for pair, v in zip(sp.pairs, tables[t])},
                mem_len=max((len(m) for _, m in sp.pairs), default=0),
            )
            ref = one_step_losses(b, pol, model, 0.9)
            assert np.isclose(totals[t], ref.total, atol=1e-12)
            assert np.isclose(p0[t], no_sample_prob(b, pol), atol=1e-12)
        b = belief_step(b, policies[k], None if k % 2 == 0 else 0, model, DP_MEM_CAP)


def _random_model(rng, nx, ny):
    distortion = rng.uniform(0.2, 2.0, size=(nx, nx))
    np.fill_diagonal(distortion, 0.0)
    return FiniteModel(
        x_kernel=rng.dirichlet(np.ones(nx), size=(nx, ny)),
        y_kernel=rng.dirichlet(np.ones(ny), size=ny),
        init_joint=rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny),
        distortion=distortion,
    )


def _random_reachable_belief(rng, model, steps):
    """Belief after ``steps`` random keep/discard outcomes, memory capped at 2."""
    b = init_discrete_belief(model)
    for _ in range(steps):
        policy = PolicyCollection.from_x_table(rng.uniform(0.1, 0.9, size=model.nx))
        outcomes = [None] + list(range(model.nx))
        probs = np.array([no_sample_prob(b, policy)] + [keep_prob(b, policy, z) for z in range(model.nx)])
        z = outcomes[rng.choice(len(outcomes), p=probs / probs.sum())]
        b = belief_step(b, policy, z, model, mem_cap=DP_MEM_CAP)
    return b


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("nx, ny", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_space_batches_match_the_reference_losses_and_update(nx, ny, seed):
    rng = make_rng(100 + 10 * nx + 3 * ny + seed)
    model = _random_model(rng, nx, ny)
    b = _random_reachable_belief(rng, model, steps=int(rng.integers(1, 4)))
    keys = tuple(sorted(b.weights))
    sp = _Space(model, keys)
    w = np.array([b.weights[key] for key in keys])
    tables = rng.uniform(0.0, 1.0, size=(4, len(sp.pairs)))
    tables[0] = rng.choice([0.0, 1.0], size=len(sp.pairs))  # degenerate entries
    lam = float(rng.uniform(0.0, 3.0))
    totals, p0 = sp.losses_batch(w, tables, lam)
    a = tables[:, sp.pair_idx]
    mem_len = max((len(m) for _, m in sp.pairs), default=0)
    for t, row in enumerate(tables):
        pol = PolicyCollection(table=dict(zip(sp.pairs, map(float, row))), mem_len=mem_len)
        assert abs(totals[t] - one_step_losses(b, pol, model, lam).total) < 1e-12
        assert abs(p0[t] - no_sample_prob(b, pol)) < 1e-12
        for branch in [None] + list(range(model.nx)):
            child_keys, trans = sp.child_op("none" if branch is None else branch)
            mass = w * (a[t] if branch is None else 1.0 - a[t])
            child_w = mass @ trans
            norm = child_w.sum()
            if norm <= 1e-13:
                continue
            ref = belief_step(b, pol, branch, model, mem_cap=DP_MEM_CAP)
            assert set(ref.weights) == {key for key, cw in zip(child_keys, child_w) if cw > 0.0}
            got = dict(zip(child_keys, child_w / norm))
            assert max(abs(got[key] - v) for key, v in ref.weights.items()) < 1e-12


def test_dp_node_values_on_the_shipped_fixture():
    """Every optimal-play node's value at lambda = 0.5, horizon 2; the
    tie-broken argmin policies are deliberately not pinned."""
    from privsample.validation import finite_fixture

    expected = {
        (): 0.08902504678997822,
        ("-",): 0.03288088213652818,
        ("0",): 0.05886458970789427,
        ("1",): 0.03288088213652818,
        ("-", "0"): 0.027665736818108466,
        ("-", "1"): 0.01767420290651811,
        ("0", "-"): 0.017709576070822575,
        ("0", "0"): 0.03030990727680616,
        ("0", "1"): 0.017709576070822575,
        ("1", "0"): 0.027665736818108466,
        ("1", "1"): 0.01767420290651811,
    }
    result = dp_solve(finite_fixture(), 0.5, 2)
    got = {node.history: node.value for node in result.nodes}
    assert got.keys() == expected.keys()
    for hist, value in expected.items():
        assert abs(got[hist] - value) < 1e-12, hist
    assert result.value == got[()]


@pytest.mark.parametrize("lam, horizon", [(-1.0, 1), (float("nan"), 1), (float("inf"), 1), (0.5, -1)])
def test_dp_rejects_a_bad_lambda_or_horizon(model, lam, horizon):
    with pytest.raises(ContractViolation, match="lambda" if horizon >= 0 else "horizon"):
        dp_solve(model, lam, horizon)


def test_dp_lambda_extremes(model):
    res0 = dp_solve(model, lam=0.0, horizon=1)
    assert res0.value < 1e-12  # sampling is free: zero distortion achievable
    # leak is quadratic around the uninformative policy, so never-sample is
    # grid-optimal only once lambda dominates the action-grid spacing
    res_inf = dp_solve(model, lam=5e4, horizon=1, spec=DpGridSpec(refine_rounds=0))
    for node in res_inf.nodes:
        assert all(np.isclose(v, 1.0) for v in node.policy.table.values())
    _, dist_only, info = objective_via_decomposition(
        model, [PolicyCollection.uniform(1.0)] * 2, 1, lam=5e4
    )
    assert info < 1e-12
    assert np.isclose(res_inf.value, dist_only, atol=1e-9)


def test_dp_value_nonincreasing_under_grid_refinement(model):
    coarse = dp_solve(
        model, 0.5, 1, DpGridSpec(action_levels=tuple(np.linspace(0, 1, 6)), refine_rounds=0)
    )
    mid = dp_solve(
        model, 0.5, 1, DpGridSpec(action_levels=tuple(np.linspace(0, 1, 11)), refine_rounds=0)
    )
    fine = dp_solve(
        model, 0.5, 1, DpGridSpec(action_levels=tuple(np.linspace(0, 1, 11)), refine_rounds=2)
    )
    assert mid.value <= coarse.value + 1e-12
    assert fine.value <= mid.value + 1e-12


def test_dp_warns_when_action_grid_too_coarse(model):
    # at this weight the optimal discard probability for x = 0 is strictly
    # interior (near 0.2), so a {0,1} grid cannot bracket it and the root
    # refinement must move the value
    spec = DpGridSpec(action_levels=(0.0, 1.0), refine_rounds=3, refine_warn_tol=1e-6)
    with pytest.warns(UserWarning, match="grid too coarse"):
        result = dp_solve(model, 3.0, 1, spec)
    assert result.refine_drop > 1e-6


def test_dp_beats_exhaustive_restricted_grid_small(model):
    """3-level grid, K=1: the recursion value is <= every gridded policy."""
    levels = [0.0, 0.5, 1.0]
    lam = 0.6
    best = np.inf
    best_tables = None
    for combo in itertools.product(levels, repeat=4):
        tables = [combo[:2], combo[2:]]
        policies = [_x_policy(*t) for t in tables]
        val, _, _ = objective_via_decomposition(model, policies, 1, lam)
        if val < best:
            best, best_tables = val, tables
    res = dp_solve(
        model,
        lam,
        1,
        DpGridSpec(
            action_levels=tuple(levels), refine_rounds=0, seed_tables=list(best_tables)
        ),
    )
    assert res.value <= best + 1e-9
