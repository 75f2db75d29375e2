import itertools

import numpy as np
import pytest

from privsample import finite
from privsample.errors import ContractViolation, ImpossibleEvidence
from privsample.finite import (
    DP_MEM_CAP,
    FiniteModel,
    PolicyCollection,
    _Space,
    _ValueRecursion,
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


@pytest.mark.parametrize(
    "field, value", [("x_kernel", np.nan), ("y_kernel", np.nan), ("init_joint", np.inf),
                     ("distortion", np.inf)],
)
def test_model_rejects_a_non_finite_entry_by_name(field, value):
    """A NaN kernel entry would otherwise fail later as a belief that is not
    a distribution, and an infinite distortion would give NaN values."""
    tables = dict(
        x_kernel=np.full((2, 2, 2), 0.5),
        y_kernel=np.full((2, 2), 0.5),
        init_joint=np.full((2, 2), 0.25),
        distortion=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    tables[field].flat[1] = value
    with pytest.raises(ContractViolation, match=f"^{field} has a non-finite entry$"):
        FiniteModel(**tables)


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
    mem_len = max((len(m) for _, m in sp.pairs), default=0)
    # the discard branch and the keep branch of every x in the support
    # have children; no other branch does
    with_children = [None, *sorted({x for x, _, _ in sp.keys})]
    branches = list(zip(with_children, sp.branches(w, tables), strict=True))
    for t, row in enumerate(tables):
        pol = PolicyCollection(table=dict(zip(sp.pairs, map(float, row))), mem_len=mem_len)
        assert abs(totals[t] - one_step_losses(b, pol, model, lam).total) < 1e-12
        assert abs(p0[t] - no_sample_prob(b, pol)) < 1e-12
        for branch, (child_keys, child_w, norms) in branches:
            if norms[t] <= 1e-13:
                continue
            ref = belief_step(b, pol, branch, model, mem_cap=DP_MEM_CAP)
            assert set(ref.weights) == {key for key, cw in zip(child_keys, child_w[t]) if cw > 0.0}
            got = dict(zip(child_keys, child_w[t] / norms[t]))
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


def _reachable_spaces(model, horizon):
    """Every support the value recursion can reach from the root within
    ``horizon`` steps, one _Space each."""
    b = init_discrete_belief(model)
    frontier = [_Space(model, tuple(sorted(b.weights)))]
    spaces = list(frontier)
    for _ in range(horizon):
        frontier = [
            _Space(model, keys)
            for sp in frontier
            for keys, _ in map(sp.child_op, ["none", *range(model.nx)])
            if keys
        ]
        spaces += frontier
    return spaces


@pytest.mark.parametrize("n_tables", [1, 3, 11])
def test_stacked_losses_equal_each_nodes_own(n_tables):
    """losses_batch on D stacked nodes returns each node's own result bit
    for bit. dp.csv's tie-broken policies flip on a one-ulp change in a
    candidate total, so the last-stage batches rely on this."""
    from privsample.validation import finite_fixture

    model = finite_fixture()
    rng = make_rng(11)
    spaces = _reachable_spaces(model, 2)
    assert len(spaces) == 13
    levels = np.linspace(0.0, 1.0, 11)
    for sp in spaces:
        for d in (2, 150):
            w = rng.dirichlet(np.ones(len(sp.keys)), size=d)
            tables = rng.choice(levels, size=(d, n_tables, len(sp.pairs)))
            totals, p0 = sp.losses_batch(w, tables, 0.5)
            assert totals.shape == p0.shape == (d, n_tables)
            for i in range(d):
                one = sp.losses_batch(w[i : i + 1], tables[i : i + 1], 0.5)
                for own in (one, sp.losses_batch(w[i], tables[i], 0.5)):
                    assert np.array_equal(totals[i], own[0].reshape(-1)), (sp.keys, d, i)
                    assert np.array_equal(p0[i], own[1].reshape(-1)), (sp.keys, d, i)


@pytest.mark.parametrize("lam", [0.05, 0.5, 3.0])
def test_stacked_node_solves_equal_each_nodes_own(lam, monkeypatch):
    """solve_node on stacked nodes gives each node the value and table it
    gets alone on a fresh recursion. At stage 1 the rounded memo keys can
    pick another of two tied tables, so only the values are compared."""
    from privsample.validation import finite_fixture

    model = finite_fixture()
    visited = {}  # (stage, support) -> node weights, in solve order
    solve_node = _ValueRecursion.solve_node

    def recording(rec, sp, w, k):
        visited.setdefault((k, sp.keys), []).extend(w)
        return solve_node(rec, sp, w, k)

    monkeypatch.setattr(_ValueRecursion, "solve_node", recording)
    dp_solve(model, lam, 2)
    monkeypatch.undo()

    def fresh():
        return _ValueRecursion(model, lam, 2)

    for stage in (1, 2):
        keys, rows = max(
            ((keys, rows) for (k, keys), rows in visited.items() if k == stage),
            key=lambda item: len(item[1]),
        )
        w = np.array(rows[:12])
        assert len(w) >= 2
        rec = fresh()
        vals, vecs = rec.solve_node(rec.space_for(keys), w, stage)
        for i in range(len(w)):
            rec = fresh()
            (val,), (vec,) = rec.solve_node(rec.space_for(keys), w[i : i + 1], stage)
            if stage == 2:
                assert vals[i] == val and np.array_equal(vecs[i], vec), (stage, i)
            else:
                assert abs(vals[i] - val) < 1e-12, (stage, i)


def test_dp_losses_batch_call_count(monkeypatch):
    """At lambda 0.5 and horizon 2 every node solve is a lockstep batch
    over its nodes and starts, each branch's lookup covers every stacked
    node, and each descent leaves at its first repeated step. Leaving
    only after a whole sweep without a move made 1332 calls."""
    from privsample.validation import finite_fixture

    calls = []
    losses_batch = _Space.losses_batch
    monkeypatch.setattr(_Space, "losses_batch", lambda *a: calls.append(1) or losses_batch(*a))
    assert dp_solve(finite_fixture(), 0.5, 2).value == 0.08902504678997822
    assert len(calls) == 938


def _full_sweep_descent(rec, sp, w, k, vecs, levels, covered):
    """_coordinate_descent with a whole-sweep exit: a descent leaves only
    after a sweep without a move. ``covered`` gets the descents of each
    objective call, in row order."""
    covered.append(np.arange(len(vecs)))
    best = rec._candidate_objectives(sp, w, k, vecs[:, None, :])[:, 0]
    vecs = vecs.copy()
    active = np.arange(len(vecs))
    for _ in range(finite.DP_MAX_SWEEPS):
        improved = np.zeros(len(active), dtype=bool)
        for c in range(len(sp.pairs)):
            covered.append(active)
            cands = np.repeat(vecs[active, None, :], len(levels), axis=1)
            cands[:, :, c] = levels
            vals = rec._candidate_objectives(sp, w[active], k, cands)
            t_best = vals.argmin(axis=1)
            val = vals[np.arange(len(active)), t_best]
            better = val < best[active] - 1e-13
            best[active[better]] = val[better]
            vecs[active[better]] = cands[better, t_best[better]]
            improved |= better
        active = active[improved]
        if active.size == 0:
            break
    return best, vecs


def _logged_dp_solve(monkeypatch, model, lam, full_sweeps):
    """dp_solve with every coordinate descent logged, in call order, as
    its objective calls' rows: one hash of (node weights, candidate
    tables) per row. With ``full_sweeps`` the descents run
    _full_sweep_descent, and each log also holds its calls' descents.
    Returns (result, the recursion's memo items, the descent logs)."""
    logs, open_logs, recursions = [], [], []
    objectives = _ValueRecursion._candidate_objectives
    descent = _ValueRecursion._coordinate_descent

    def scoring(rec, sp, w, k, a_tables):
        if not recursions:
            recursions.append(rec)
        rows = [hash((row.tobytes(), tables.tobytes())) for row, tables in zip(w, a_tables)]
        open_logs[-1]["rows"].append(rows)
        return objectives(rec, sp, w, k, a_tables)

    def descending(rec, sp, w, k, vecs, levels):
        log = {"rows": [], "covered": []}
        logs.append(log)
        open_logs.append(log)
        try:
            if full_sweeps:
                return _full_sweep_descent(rec, sp, w, k, vecs, levels, log["covered"])
            return descent(rec, sp, w, k, vecs, levels)
        finally:
            open_logs.pop()

    with monkeypatch.context() as patch:
        patch.setattr(_ValueRecursion, "_candidate_objectives", scoring)
        patch.setattr(_ValueRecursion, "_coordinate_descent", descending)
        result = dp_solve(model, lam, 2)
    return result, list(recursions[0].memo.items()), logs


def _first_repeats_only(log):
    """The rows of a full-sweep log's calls, cut at each descent's first
    repeated candidate set; calls left empty are dropped. Asserts that
    every set a descent scores after that point repeats an earlier one."""
    history = {}  # descent -> its rows in call order
    for rows, covered in zip(log["rows"], log["covered"], strict=True):
        for d, row in zip(covered, rows, strict=True):
            history.setdefault(d, []).append(row)
    stop = {}
    for d, rows in history.items():
        stop[d] = next((i for i, row in enumerate(rows) if row in rows[:i]), len(rows))
        assert set(rows[: stop[d]]) == set(rows), d
    kept, seen = [], dict.fromkeys(history, 0)
    for covered in log["covered"]:
        call = []
        for d in covered:
            if seen[d] < stop[d]:
                call.append(history[d][seen[d]])
            seen[d] += 1
        if call:
            kept.append(call)
    return kept


@pytest.mark.parametrize(
    "case", ["fixture-0.05", "fixture-0.5", "fixture-3", "random-2x1", "random-2x2"]
)
def test_descents_stop_at_their_first_repeated_step(case, monkeypatch):
    """Each coordinate descent scores the distinct candidate sets of the
    whole-sweep descent, each once and in the same calls, and dp_solve's
    root value, node tree and memo (keys, values and insertion order)
    equal the whole-sweep run's."""
    from privsample.validation import finite_fixture

    kind, arg = case.split("-")
    if kind == "fixture":
        model, lam = finite_fixture(), float(arg)
    else:
        nx, ny = map(int, arg.split("x"))
        rng = make_rng(300 + 10 * nx + ny)
        model, lam = _random_model(rng, nx, ny), float(rng.uniform(0.2, 3.0))
    ref, ref_memo, ref_logs = _logged_dp_solve(monkeypatch, model, lam, full_sweeps=True)
    got, memo, logs = _logged_dp_solve(monkeypatch, model, lam, full_sweeps=False)
    assert len(logs) == len(ref_logs)
    for i, (log, ref_log) in enumerate(zip(logs, ref_logs)):
        assert log["rows"] == _first_repeats_only(ref_log), i
    assert got.value == ref.value
    assert [(n.history, n.value, n.policy) for n in got.nodes] == [
        (n.history, n.value, n.policy) for n in ref.nodes
    ]
    assert memo == ref_memo


@pytest.mark.parametrize("lam", [0.05, 0.5, 3.0])
def test_dp_chunk_cap_leaves_the_recursion_unchanged(lam, monkeypatch):
    """Solving a lookup's missed nodes one at a time or all in one batch
    gives the same root value, node values and policies bit for bit, and
    the same memo keys, with the first stage's in the same order.

    A memo value may move by ulps: a key is solved at the first row that
    reaches it, and below a chunk the lockstep descents reach the
    next-stage rows in another order than one node's descent alone does,
    so another of two rows that round to the same key can come first.
    """
    import sys

    from privsample.validation import finite_fixture

    recursions = []
    init = _ValueRecursion.__init__

    def recording(rec, *args):
        recursions.append(rec)
        init(rec, *args)

    monkeypatch.setattr(_ValueRecursion, "__init__", recording)
    runs = []
    for cap in (1, sys.maxsize):
        monkeypatch.setattr(finite, "DP_CHUNK_ROWS", cap)
        result = dp_solve(finite_fixture(), lam, 2)
        nodes = [(n.history, n.value, sorted(n.policy.table.items())) for n in result.nodes]
        runs.append((result.value, nodes, recursions[-1].memo))
    assert len(recursions) == 2
    (value, nodes, memo), (value_big, nodes_big, memo_big) = runs
    assert value == value_big and nodes == nodes_big
    assert sorted(memo) == sorted(memo_big)
    assert [key for key in memo if key[0] == 1] == [key for key in memo_big if key[0] == 1]
    for key, v in memo.items():
        assert abs(v - memo_big[key]) <= 1e-12 * abs(v), key


def test_stacked_child_weights_equal_each_nodes_own():
    """Each node's (L, S_child) slice of the stacked branch products of
    _Space.branches, and its row sums, equal the node's own bit for bit,
    so stacking the nodes of a branch lookup moves no child weight."""
    from privsample.validation import finite_fixture

    model = finite_fixture()
    rng = make_rng(5)
    levels = np.linspace(0.0, 1.0, 11)
    for sp in _reachable_spaces(model, 1):  # the parents at horizon 2
        for d in (2, 96):
            w = rng.dirichlet(np.ones(len(sp.keys)), size=d)
            a = rng.choice(levels, size=(d, 11, len(sp.pairs)))
            stacked = list(sp.branches(w, a))
            assert len(stacked) == 1 + len({x for x, _, _ in sp.keys})
            for i in range(d):
                own = list(sp.branches(w[i], a[i]))
                for (keys, child_w, norms), (own_keys, own_w, own_norms) in zip(stacked, own):
                    assert keys == own_keys
                    assert np.array_equal(child_w[i], own_w), (sp.keys, d, i)
                    assert np.array_equal(norms[i], own_norms), (sp.keys, d, i)


@pytest.mark.parametrize("lam, horizon",[(-1.0, 1), (float("nan"), 1), (float("inf"), 1), (0.5, -1)])
def test_dp_rejects_a_bad_lambda_or_horizon(model, lam, horizon):
    with pytest.raises(ContractViolation, match="lambda" if horizon >= 0 else "horizon"):
        dp_solve(model, lam, horizon)


def _on_grid(
    monkeypatch,
    levels=finite.DP_ACTION_LEVELS,
    rounds=finite.DP_REFINE_ROUNDS,
    warn_tol=finite.DP_REFINE_WARN_TOL,
):
    """Sets the DP's action grid, refinement rounds and warning tolerance."""
    monkeypatch.setattr(finite, "DP_ACTION_LEVELS", tuple(levels))
    monkeypatch.setattr(finite, "DP_REFINE_ROUNDS", rounds)
    monkeypatch.setattr(finite, "DP_REFINE_WARN_TOL", warn_tol)


def test_dp_lambda_extremes(model, monkeypatch):
    res0 = dp_solve(model, lam=0.0, horizon=1)
    assert res0.value < 1e-12  # sampling is free: zero distortion achievable
    # leak is quadratic around the uninformative policy, so never-sample is
    # grid-optimal only once lambda dominates the action-grid spacing
    _on_grid(monkeypatch, rounds=0)
    res_inf = dp_solve(model, lam=5e4, horizon=1)
    for node in res_inf.nodes:
        assert all(np.isclose(v, 1.0) for v in node.policy.table.values())
    _, dist_only, info = objective_via_decomposition(
        model, [PolicyCollection.uniform(1.0)] * 2, 1, lam=5e4
    )
    assert info < 1e-12
    assert np.isclose(res_inf.value, dist_only, atol=1e-9)


def test_dp_value_nonincreasing_under_grid_refinement(model, monkeypatch):
    _on_grid(monkeypatch, np.linspace(0, 1, 6), rounds=0)
    coarse = dp_solve(model, 0.5, 1)
    _on_grid(monkeypatch, np.linspace(0, 1, 11), rounds=0)
    mid = dp_solve(model, 0.5, 1)
    _on_grid(monkeypatch, np.linspace(0, 1, 11), rounds=2)
    fine = dp_solve(model, 0.5, 1)
    assert mid.value <= coarse.value + 1e-12
    assert fine.value <= mid.value + 1e-12


def test_dp_warns_when_action_grid_too_coarse(model, monkeypatch):
    # at this weight the optimal discard probability for x = 0 is strictly
    # interior (near 0.2), so a {0,1} grid cannot bracket it and the root
    # refinement must move the value
    _on_grid(monkeypatch, (0.0, 1.0), rounds=3, warn_tol=1e-6)
    with pytest.warns(UserWarning, match="grid too coarse"):
        result = dp_solve(model, 3.0, 1)
    assert result.refine_drop > 1e-6


def test_dp_beats_exhaustive_restricted_grid_small(model, monkeypatch):
    """3-level grid, K = 1 and 2: the validation grid oracle finds the
    brute-force minimum over every gridded table sequence, and the
    recursion value is <= it."""
    from privsample import validation

    levels = [0.0, 0.5, 1.0]
    lam = 0.6
    _on_grid(monkeypatch, levels, rounds=0)
    monkeypatch.setattr(validation, "DP_ACTION_LEVELS", tuple(levels))
    stage_tables = list(itertools.product(levels, repeat=2))

    def score(tables):
        policies = [_x_policy(*t) for t in tables]
        return objective_via_decomposition(model, policies, len(tables) - 1, lam)[0]

    for horizon in (1, 2):
        best = min(map(score, itertools.product(stage_tables, repeat=horizon + 1)))
        grid_min, grid_tables = validation.restricted_grid_search(model, lam, horizon)
        assert len(grid_tables) == horizon + 1
        assert abs(grid_min - best) < 1e-12, horizon
        assert abs(score(grid_tables) - best) < 1e-12, horizon
        res = dp_solve(model, lam, horizon, seed_tables=grid_tables)
        assert res.value <= best + 1e-9, horizon


@pytest.mark.parametrize("horizon", [-1, 3])
def test_grid_oracle_rejects_a_negative_or_oversized_horizon(model, horizon):
    """At 11 levels horizon 3 has 121^4 > 1e7 table sequences; the oracle
    refuses it before allocating anything."""
    from privsample.validation import restricted_grid_search

    with pytest.raises(ContractViolation, match=f"at horizon {horizon}"):
        restricted_grid_search(model, 0.5, horizon)
