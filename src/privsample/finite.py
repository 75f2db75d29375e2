"""Exact finite-alphabet engine for the general sampling theory.

Everything here is oracle-grade rather than scalable: beliefs over
(x_k, m_k, y^k) are stored exactly, the two-branch Bayes update follows
the derived update including memory growth on the discard branch, losses
are exact sums, and mutual information is available by full trajectory
enumeration. The backward value recursion runs over *reachable* beliefs
(the belief simplex is not discretized: the support of the belief grows
with the trajectory, so even tiny fixtures put lattice discretization out
of reach, while the reachable set stays exactly enumerable).

Memory truncation: tracked memory is capped at the last ``mem_cap``
discarded samples. For policies that only read the truncated memory the
truncated belief equals the marginal of the full-memory belief exactly,
which the tests verify on small horizons.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ImpossibleEvidence, check_lambda

Support = tuple[int, tuple[int, ...], tuple[int, ...]]  # (x, memory, y-trajectory)


@dataclass(frozen=True)
class FiniteModel:
    """Finite-alphabet system: kernels, initial joint and distortion table.

    ``x_kernel[x, y]`` is the distribution of the next observable state
    given (x, y); ``y_kernel[y]`` the next private state given y;
    ``init_joint[x, y]`` the time-0 joint; ``distortion[x, c]`` the cost
    of reconstructing x as c (zero diagonal).
    """

    x_kernel: np.ndarray
    y_kernel: np.ndarray
    init_joint: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        xk = np.asarray(self.x_kernel, dtype=float)
        yk = np.asarray(self.y_kernel, dtype=float)
        init = np.asarray(self.init_joint, dtype=float)
        dist = np.asarray(self.distortion, dtype=float)
        nx, ny = init.shape
        if not (1 <= nx <= 8 and 1 <= ny <= 4):
            raise ContractViolation("alphabet sizes limited to 8 (x) and 4 (y)")
        if xk.shape != (nx, ny, nx) or yk.shape != (ny, ny) or dist.shape != (nx, nx):
            raise ContractViolation("kernel/table shapes inconsistent with init_joint")
        for name, rows in (("x_kernel", xk.reshape(-1, nx)), ("y_kernel", yk)):
            if np.any(rows < 0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-12:
                raise ContractViolation(f"{name} rows must be stochastic within 1e-12")
        if np.any(init < 0) or abs(init.sum() - 1.0) > 1e-12:
            raise ContractViolation("init_joint must be a distribution")
        if np.any(dist < 0) or np.any(np.diag(dist) != 0):
            raise ContractViolation("distortion must be >= 0 with zero diagonal")
        object.__setattr__(self, "x_kernel", xk)
        object.__setattr__(self, "y_kernel", yk)
        object.__setattr__(self, "init_joint", init)
        object.__setattr__(self, "distortion", dist)

    @property
    def nx(self) -> int:
        return self.init_joint.shape[0]

    @property
    def ny(self) -> int:
        return self.init_joint.shape[1]


@dataclass(frozen=True)
class DiscreteBelief:
    """Exact belief over (x_k, m_k, y^k) given the output history.

    ``weights`` maps (x, memory tuple, y-trajectory tuple) to probability;
    trajectories are stored oldest-first. Weights sum to one.
    """

    weights: dict
    k: int

    def __post_init__(self):
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-10 or any(w < -1e-15 for w in self.weights.values()):
            raise ContractViolation("belief weights must be a distribution")

    def x_marginal(self, nx: int) -> np.ndarray:
        out = np.zeros(nx)
        for (x, _, _), w in self.weights.items():
            out[x] += w
        return out


@dataclass(frozen=True)
class PolicyCollection:
    """Discard probabilities a(N=0 | x, memory) for one stage.

    ``mem_len`` is how many of the most recent discarded samples the
    table reads; zero gives a memoryless table. Missing keys fall back to
    ``default`` when set.
    """

    table: dict
    mem_len: int = 0
    default: float | None = None

    def __post_init__(self):
        for v in self.table.values():
            if not 0.0 <= v <= 1.0:
                raise ContractViolation("discard probabilities must lie in [0, 1]")
        if self.default is not None and not 0.0 <= self.default <= 1.0:
            raise ContractViolation("default probability must lie in [0, 1]")

    def prob0(self, x: int, memory: tuple) -> float:
        key = (x, tuple(memory[len(memory) - self.mem_len :]) if self.mem_len else ())
        if key in self.table:
            return self.table[key]
        if self.default is None:
            raise ContractViolation(f"policy table has no entry for {key}")
        return self.default

    @staticmethod
    def uniform(p: float) -> "PolicyCollection":
        return PolicyCollection(table={}, mem_len=0, default=float(p))

    @staticmethod
    def from_x_table(probs) -> "PolicyCollection":
        return PolicyCollection(
            table={(x, ()): float(p) for x, p in enumerate(probs)}, mem_len=0
        )


def init_discrete_belief(model: FiniteModel) -> DiscreteBelief:
    weights = {
        (x, (), (y,)): float(model.init_joint[x, y])
        for x in range(model.nx)
        for y in range(model.ny)
        if model.init_joint[x, y] > 0.0
    }
    return DiscreteBelief(weights=weights, k=0)


def _transitions(model: FiniteModel, x: int, y_last: int):
    """(x_next, y_next, p(x_next | x, y_last), p(y_next | y_last)) for every
    successor whose x probability is positive."""
    for x_next in range(model.nx):
        px = model.x_kernel[x, y_last, x_next]
        if px > 0.0:
            for y_next in range(model.ny):
                yield x_next, y_next, px, model.y_kernel[y_last, y_next]


def _discarded(mem: tuple, x: int, mem_cap: int | None) -> tuple:
    """The memory after discarding ``x``: appended, then cut to the last
    ``mem_cap`` entries (``None`` keeps them all)."""
    new_mem = mem + (x,)
    if mem_cap is not None and len(new_mem) > mem_cap:
        new_mem = new_mem[len(new_mem) - mem_cap :]
    return new_mem


def belief_step(
    belief: DiscreteBelief,
    policy: PolicyCollection,
    z,
    model: FiniteModel,
    mem_cap: int | None,
) -> DiscreteBelief:
    """Two-branch exact Bayes update of the belief.

    ``z is None`` is the discard branch: the hidden x joins the memory
    (truncated to the last ``mem_cap`` entries) and the likelihood is the
    discard probability. An integer ``z`` conditions on the observed
    x = z with the keep probability as likelihood. Conditioning on an
    outcome of zero probability raises ImpossibleEvidence.
    """
    if z is not None:
        z = int(z)
        if not 0 <= z < model.nx:
            raise ContractViolation("observation outside the alphabet")
    new: dict = {}
    norm = 0.0
    for (x, mem, ys), w in belief.weights.items():
        if z is None:
            base = w * policy.prob0(x, mem)
            mem = _discarded(mem, x, mem_cap)
        elif x == z:
            base = w * (1.0 - policy.prob0(x, mem))
        else:
            continue
        if base <= 0.0:
            continue
        norm += base
        for x_next, y_next, px, py in _transitions(model, x, ys[-1]):
            p = base * px * py
            if p > 0.0:
                key = (x_next, mem, ys + (y_next,))
                new[key] = new.get(key, 0.0) + p
    if norm <= 1e-300:
        raise ImpossibleEvidence(f"outcome {z!r} has zero probability at k={belief.k}")
    return DiscreteBelief(weights={key: w / norm for key, w in new.items()}, k=belief.k + 1)


def _xlogx(p: float) -> float:
    return p * np.log(p) if p > 0.0 else 0.0


@dataclass(frozen=True)
class StepLosses:
    distortion: float
    info: float
    total: float


def one_step_losses(
    belief: DiscreteBelief, policy: PolicyCollection, model: FiniteModel, lam: float
) -> StepLosses:
    """Exact expected one-step losses of playing ``policy`` at ``belief``.

    Distortion uses the optimal reconstruction under the discard outcome
    (the keep branch reconstructs exactly); the information term is the
    three-entropy decomposition of the expected log-likelihood-ratio
    increment about the private trajectory.
    """
    q0x = np.zeros(model.nx)
    q0y: dict = {}
    q1xy: dict = {}
    p_y: dict = {}
    for (x, mem, ys), w in belief.weights.items():
        a0 = policy.prob0(x, mem)
        q0 = w * a0
        q1 = w - q0
        q0x[x] += q0
        if q0 > 0.0:
            q0y[ys] = q0y.get(ys, 0.0) + q0
        if q1 > 0.0:
            q1xy[(x, ys)] = q1xy.get((x, ys), 0.0) + q1
        p_y[ys] = p_y.get(ys, 0.0) + w

    recon = optimal_reconstruction_finite(q0x, model)
    distortion = float(q0x @ model.distortion[:, recon])

    p0 = float(q0x.sum())
    term1 = -sum(_xlogx(w) for w in p_y.values())
    term2 = sum(_xlogx(w) for w in q0y.values()) - _xlogx(p0)
    q1x = np.zeros(model.nx)
    for (x, _), w in q1xy.items():
        q1x[x] += w
    term3 = sum(_xlogx(w) for w in q1xy.values()) - sum(_xlogx(w) for w in q1x)
    info = term1 + term2 + term3
    return StepLosses(distortion=distortion, info=info, total=distortion + lam * info)


def optimal_reconstruction_finite(x_weights, model: FiniteModel) -> int:
    """argmin over the alphabet of the expected distortion; ties take the
    smallest index."""
    if isinstance(x_weights, DiscreteBelief):
        x_weights = x_weights.x_marginal(model.nx)
    costs = np.asarray(x_weights, dtype=float) @ model.distortion
    return int(np.argmin(costs))


def no_sample_prob(belief: DiscreteBelief, policy: PolicyCollection) -> float:
    return float(
        sum(w * policy.prob0(x, mem) for (x, mem, ys), w in belief.weights.items())
    )


def keep_prob(belief: DiscreteBelief, policy: PolicyCollection, z: int) -> float:
    return float(
        sum(
            w * (1.0 - policy.prob0(x, mem))
            for (x, mem, ys), w in belief.weights.items()
            if x == z
        )
    )


# ---------------------------------------------------------------------------
# Exhaustive trajectory enumeration (mutual information and raw objective)
# ---------------------------------------------------------------------------


def _check_enumeration_size(model: FiniteModel, horizon: int):
    size = (model.nx * model.ny * 2) ** (horizon + 1)
    if size > 10**7:
        raise ContractViolation(f"enumeration size {size} exceeds the 1e7 cap")


def _enumerate_outcomes(model: FiniteModel, policies, horizon: int):
    """Every trajectory as (z_history, y_history, x_history, memory, probability).

    Each stage draws the next (x, y), from ``init_joint`` at k = 0 and
    through the kernels after, then splits on the sampling decision: the
    discard branch appends x to the memory, the keep branch reveals it.
    """
    stack = [((), (), (), (), 1.0)]  # (z_hist, y_hist, x_hist, mem, prob)
    for k in range(horizon + 1):
        nxt = []
        for z_hist, y_hist, x_hist, mem, prob in stack:
            if k == 0:
                draws = [
                    (x0, y0, float(model.init_joint[x0, y0]))
                    for x0 in range(model.nx)
                    for y0 in range(model.ny)
                ]
            else:
                draws = [
                    (x_new, y_new, prob * px * py)
                    for x_new, y_new, px, py in _transitions(model, x_hist[-1], y_hist[-1])
                ]
            for x_new, y_new, p in draws:
                if p <= 0.0:
                    continue
                a0 = policies[k].prob0(x_new, mem)
                ys, xs = y_hist + (y_new,), x_hist + (x_new,)
                if a0 > 0.0:
                    nxt.append((z_hist + (None,), ys, xs, mem + (x_new,), p * a0))
                if a0 < 1.0:
                    nxt.append((z_hist + (x_new,), ys, xs, mem, p * (1 - a0)))
        stack = nxt
    return stack


def _mutual_information(outcomes) -> float:
    """I(Z^K; Y^K) in nats from the enumerated trajectories."""
    joint: dict = {}
    for z_hist, y_hist, _, _, prob in outcomes:
        joint[(z_hist, y_hist)] = joint.get((z_hist, y_hist), 0.0) + prob
    pz: dict = {}
    py: dict = {}
    for (z_hist, y_hist), p in joint.items():
        pz[z_hist] = pz.get(z_hist, 0.0) + p
        py[y_hist] = py.get(y_hist, 0.0) + p
    mi = 0.0
    for (z_hist, y_hist), p in joint.items():
        if p > 0.0:
            mi += p * np.log(p / (pz[z_hist] * py[y_hist]))
    return float(max(mi, 0.0))


def mi_bruteforce(model: FiniteModel, policies, horizon: int) -> float:
    """I(Z^K; Y^K) in nats by exhaustive trajectory enumeration."""
    _check_enumeration_size(model, horizon)
    return _mutual_information(_enumerate_outcomes(model, policies, horizon))


def xy_mutual_information(model: FiniteModel, horizon: int) -> float:
    """I(X^K; Y^K): the always-sample ceiling on any policy's leakage."""
    always = [PolicyCollection.uniform(0.0) for _ in range(horizon + 1)]
    return mi_bruteforce(model, always, horizon)


def objective_via_enumeration(model: FiniteModel, policies, horizon: int, lam: float):
    """Raw-form objective: enumerated expected distortion + lam * MI.

    Reconstructions are recomputed from enumerated conditional
    probabilities p(x_k | z^k), independently of the belief recursion.
    Returns (objective, distortion sum, mutual information).
    """
    _check_enumeration_size(model, horizon)
    outcomes = _enumerate_outcomes(model, policies, horizon)

    # conditional p(x_k | z^k) from the enumerated table
    cond: dict = {}
    for z_hist, _, xs, _, prob in outcomes:
        for k in range(horizon + 1):
            key = z_hist[: k + 1]
            slot = cond.setdefault(key, np.zeros(model.nx))
            slot[xs[k]] += prob
    recon = {key: optimal_reconstruction_finite(w, model) for key, w in cond.items()}

    distortion = 0.0
    for z_hist, _, xs, _, prob in outcomes:
        for k in range(horizon + 1):
            distortion += prob * model.distortion[xs[k], recon[z_hist[: k + 1]]]
    mi = _mutual_information(outcomes)
    return distortion + lam * mi, distortion, mi


def objective_via_decomposition(model: FiniteModel, policies, horizon: int, lam: float):
    """Decomposed objective: expected one-step losses over the output tree.

    Walks every reachable output history, weighting each node's exact
    one-step losses by its probability. Beliefs keep their full memory,
    so the result is exact for any policy. Returns (objective,
    distortion sum, info sum).
    """
    total_d = 0.0
    total_i = 0.0
    stack = [(init_discrete_belief(model), 0, 1.0)]
    while stack:
        belief, k, prob = stack.pop()
        losses = one_step_losses(belief, policies[k], model, lam)
        total_d += prob * losses.distortion
        total_i += prob * losses.info
        if k == horizon:
            continue
        p0 = no_sample_prob(belief, policies[k])
        if p0 > 1e-14:
            stack.append((belief_step(belief, policies[k], None, model, None), k + 1, prob * p0))
        for z in range(model.nx):
            pz = keep_prob(belief, policies[k], z)
            if pz > 1e-14:
                stack.append((belief_step(belief, policies[k], z, model, None), k + 1, prob * pz))
    return total_d + lam * total_i, total_d, total_i


# ---------------------------------------------------------------------------
# Backward value recursion over reachable beliefs
# ---------------------------------------------------------------------------
#
# The recursion itself is small; the work went into making node solves
# cheap enough for exhaustive comparisons. Beliefs reachable through the
# same output pattern share a canonical support, so each support gets a
# _Space with precomputed linear maps: one candidate batch's losses are
# two one-hot aggregation matmuls and one entropy pass, the w-only
# entropy term is formed once per node, and each branch's child weights
# for the whole batch are one matmul with a cached parent->child
# transition matrix. Values are memoized on (support, rounded weights).


class _Space:
    """Canonical support enumeration plus precomputed aggregation maps."""

    def __init__(self, model: FiniteModel, keys: tuple):
        self.model = model
        self.keys = keys  # sorted tuple of (x, mem, ys)
        self.pairs = tuple(sorted({(x, mem) for x, mem, _ in keys}))
        pair_pos = {p: i for i, p in enumerate(self.pairs)}
        ys_list = tuple(sorted({ys for _, _, ys in keys}))
        ys_pos = {t: i for i, t in enumerate(ys_list)}
        self.n_y = len(ys_list)
        self.x_idx = np.array([x for x, _, _ in keys])
        self.pair_idx = np.array([pair_pos[(x, mem)] for x, mem, _ in keys])
        self.y_idx = np.array([ys_pos[ys] for _, _, ys in keys])
        self.xy_idx = self.x_idx * self.n_y + self.y_idx
        # one-hot maps: q0 -> [q0 by x | q0 by y], q1 -> [q1 by (x, y) | q1 by x]
        x_hot = np.eye(model.nx)[self.x_idx]
        self.q0_map = np.hstack([x_hot, np.eye(self.n_y)[self.y_idx]])
        self.q1_map = np.hstack([np.eye(model.nx * self.n_y)[self.xy_idx], x_hot])
        self._y_entropy = (None, 0.0)  # (w bytes, H(p_y)) of the last node seen
        self._children: dict = {}

    def y_entropy(self, w: np.ndarray) -> float:
        """H of the y-trajectory marginal of ``w``; cached for the last w."""
        key = w.tobytes()
        if self._y_entropy[0] != key:
            p_y = np.bincount(self.y_idx, weights=w, minlength=self.n_y)
            self._y_entropy = (key, -float(np.sum(_xlogx_vec(p_y))))
        return self._y_entropy[1]

    def losses_batch(self, w: np.ndarray, a_tables: np.ndarray, lam: float):
        """Totals of the one-step losses for candidate tables (T, n_pairs).

        Returns (totals, p0) with shapes (T,). Mirrors one_step_losses.
        """
        nx, n_y = self.model.nx, self.n_y
        q0 = w[None, :] * a_tables[:, self.pair_idx]  # (T, S)
        q1 = w[None, :] - q0
        by0 = q0 @ self.q0_map  # [q0x | q0y]
        by1 = q1 @ self.q1_map  # [q1xy | q1x]
        dist = (by0[:, :nx] @ self.model.distortion).min(axis=1)
        p0 = q0.sum(axis=1)
        # entropy summands, columns [q0y | p0 | q1xy | q1x]; each slice is
        # summed on its own because re-associating these sums moves totals
        # by ulps, which can flip the tie-broken argmin policies
        ent = _xlogx_vec(np.concatenate([by0[:, nx:], p0[:, None], by1], axis=1))
        xy_end = n_y + 1 + nx * n_y
        term2 = ent[:, :n_y].sum(axis=1) - ent[:, n_y]
        term3 = ent[:, n_y + 1 : xy_end].sum(axis=1) - ent[:, xy_end:].sum(axis=1)
        info = self.y_entropy(w) + term2 + term3
        return dist + lam * info, p0

    def child_op(self, branch):
        """(child keys, transition matrix M (S, S_child)) of one branch.

        Row i of M holds the kernel coefficients from parent support point
        i, so ``mass @ M`` maps branch masses (T, S) to unnormalized child
        weights (T, S_child). Memory keeps the last ``DP_MEM_CAP`` discards.
        """
        hit = self._children.get(branch)
        if hit is not None:
            return hit
        triples = []  # (parent index, child key, kernel coefficient)
        for i, (x, mem, ys) in enumerate(self.keys):
            if branch == "none":
                mem = _discarded(mem, x, DP_MEM_CAP)
            elif x != branch:
                continue
            for x_next, y_next, px, py in _transitions(self.model, x, ys[-1]):
                c = px * py
                if c > 0.0:
                    triples.append((i, (x_next, mem, ys + (y_next,)), c))
        child_keys = tuple(sorted({key for _, key, _ in triples}))
        child_pos = {key: j for j, key in enumerate(child_keys)}
        gather = np.array([i for i, _, _ in triples], dtype=np.intp)
        scatter = np.array([child_pos[key] for _, key, _ in triples], dtype=np.intp)
        trans = np.zeros((len(self.keys), len(child_keys)))
        np.add.at(trans, (gather, scatter), np.array([c for _, _, c in triples]))
        op = (child_keys, trans)
        self._children[branch] = op
        return op


def _xlogx_vec(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    np.log(p, out=out, where=p > 0.0)
    out *= p
    return out


DP_MAX_SWEEPS = 4
DP_MEM_CAP = 2


@dataclass
class DpGridSpec:
    """Controls for the inner minimization of the value recursion.

    ``action_levels`` is the discard-probability grid per coordinate;
    ``refine_rounds`` halves the grid spacing around the incumbent at the
    root after the grid pass; ``seed_tables`` (one x-indexed probability
    table per stage) are injected as coordinate-descent starts at every
    node, which guarantees the solved value is at most the seeded
    policy's value; ``refine_warn_tol`` is the root refinement drop above
    which ``dp_solve`` warns. Each start runs at most ``DP_MAX_SWEEPS``
    coordinate-descent sweeps, and beliefs remember the last
    ``DP_MEM_CAP`` discards, which covers the supported horizons (0 to 2).
    """

    action_levels: tuple = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))
    refine_rounds: int = 2
    seed_tables: list | None = None
    refine_warn_tol: float = 5e-3


@dataclass
class DpNode:
    history: tuple
    value: float
    policy: PolicyCollection
    belief: DiscreteBelief


@dataclass
class DpResult:
    value: float
    nodes: list  # DpNode per stage, the optimal-play reachable tree
    refine_drop: float


class _ValueRecursion:
    def __init__(self, model: FiniteModel, lam: float, horizon: int, spec: DpGridSpec):
        self.model = model
        self.lam = lam
        self.horizon = horizon
        self.spec = spec
        self.memo: dict = {}
        self.spaces: dict = {}

    def space_for(self, keys: tuple) -> _Space:
        sp = self.spaces.get(keys)
        if sp is None:
            sp = _Space(self.model, keys)
            self.spaces[keys] = sp
        return sp

    def root(self):
        b = init_discrete_belief(self.model)
        keys = tuple(sorted(b.weights))
        sp = self.space_for(keys)
        w = np.array([b.weights[key] for key in keys])
        return sp, w

    def _candidate_objectives(self, sp, w, k, a_tables):
        """Objective of every candidate table (T, n_pairs) at one node."""
        totals, p0 = sp.losses_batch(w, a_tables, self.lam)
        if k < self.horizon:
            a = a_tables[:, sp.pair_idx]
            for branch in ["none"] + list(range(self.model.nx)):
                child_keys, trans = sp.child_op(branch)
                if len(child_keys) == 0:
                    continue
                child_sp = self.space_for(child_keys)
                mass = w[None, :] * (a if branch == "none" else (1.0 - a))
                child_w = mass @ trans  # (T, S_child), unnormalized
                norms = child_w.sum(axis=1)
                for t in np.flatnonzero(norms > 1e-13):
                    totals[t] += norms[t] * self.value(child_sp, child_w[t] / norms[t], k + 1)
        return totals

    def _coordinate_descent(self, sp, w, k, vec, levels):
        best = float(self._candidate_objectives(sp, w, k, vec[None, :])[0])
        n_coords = len(sp.pairs)
        for _ in range(DP_MAX_SWEEPS):
            improved = False
            for c in range(n_coords):
                cands = np.repeat(vec[None, :], len(levels), axis=0)
                cands[:, c] = levels
                vals = self._candidate_objectives(sp, w, k, cands)
                t_best = int(np.argmin(vals))
                if vals[t_best] < best - 1e-13:
                    best = float(vals[t_best])
                    vec = cands[t_best]
                    improved = True
            if not improved:
                break
        return best, vec

    def solve_node(self, sp, w, k, refine_rounds=0):
        levels = np.asarray(self.spec.action_levels)
        n_coords = len(sp.pairs)
        # canonical starts cover the degenerate basins; coordinate descent
        # cannot cross between them one coordinate at a time
        starts = [np.full(n_coords, 0.5), np.ones(n_coords), np.zeros(n_coords)]
        if self.spec.seed_tables is not None:
            table = self.spec.seed_tables[k]
            starts.append(np.array([float(table[x]) for x, _ in sp.pairs]))
        best_val, best_vec = np.inf, None
        for start in starts:
            val, vec = self._coordinate_descent(sp, w, k, start.copy(), levels)
            if val < best_val:
                best_val, best_vec = val, vec
        spacing = float(levels[1] - levels[0]) if len(levels) > 1 else 0.1
        for _ in range(refine_rounds):
            spacing /= 2.0
            local = np.unique(
                np.clip(np.concatenate([best_vec - spacing, best_vec + spacing]), 0.0, 1.0)
            )
            val, vec = self._coordinate_descent(sp, w, k, best_vec.copy(), local)
            if val < best_val:
                best_val, best_vec = val, vec
        return best_val, best_vec

    def value(self, sp, w, k) -> float:
        if k > self.horizon:
            return 0.0
        key = (k, sp.keys, np.round(w, 12).tobytes())
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        val, _ = self.solve_node(sp, w, k)
        self.memo[key] = val
        return val

    def policy_from_vector(self, sp, vec) -> PolicyCollection:
        mem_len = max((len(m) for _, m in sp.pairs), default=0)
        table = {
            (x, m[len(m) - mem_len :] if mem_len else ()): float(v)
            for (x, m), v in zip(sp.pairs, vec)
        }
        return PolicyCollection(table=table, mem_len=mem_len, default=0.5)


def dp_solve(model: FiniteModel, lam: float, horizon: int, spec: DpGridSpec | None = None):
    """Backward optimality recursion over reachable beliefs.

    Minimizes, per reachable belief, the exact one-step losses plus the
    expected optimal cost-to-go, with the inner minimization on the
    action grid (coordinate descent with optional seeded starts, then
    local spacing-halving refinement at the root). The terminal
    cost-to-go is zero. Returns a DpResult with the root value and the
    optimal-play node tree; warns when root refinement moves the value by
    more than ``refine_warn_tol``, the sign of a too-coarse action grid.

    With memory truncated to ``DP_MEM_CAP`` discards the recursion optimizes
    within the class of policies reading the truncated memory; the cap
    covers the horizon on the supported fixtures, making it exact.
    """
    lam = check_lambda(lam)
    if horizon < 0:
        raise ContractViolation("horizon must be >= 0")
    spec = spec or DpGridSpec()
    rec = _ValueRecursion(model, lam, horizon, spec)
    sp, w = rec.root()
    coarse_val, _ = rec.solve_node(sp, w, 0, refine_rounds=0)
    value, vec0 = rec.solve_node(sp, w, 0, refine_rounds=spec.refine_rounds)
    refine_drop = coarse_val - value
    if refine_drop > spec.refine_warn_tol:
        warnings.warn(
            f"action grid too coarse: refinement moved the root value by {refine_drop:.3e}"
        )

    root_belief = init_discrete_belief(model)
    policy0 = rec.policy_from_vector(sp, vec0)
    nodes = [DpNode(history=(), value=value, policy=policy0, belief=root_belief)]
    frontier = [(root_belief, (), policy0)]
    for k in range(horizon):
        nxt = []
        for belief, hist, policy in frontier:
            outcomes = [(None, no_sample_prob(belief, policy))] + [
                (z, keep_prob(belief, policy, z)) for z in range(model.nx)
            ]
            for z, pz in outcomes:
                if pz <= 1e-13:
                    continue
                child = belief_step(belief, policy, z, model, DP_MEM_CAP)
                ckeys = tuple(sorted(child.weights))
                csp = rec.space_for(ckeys)
                cw = np.array([child.weights[key] for key in ckeys])
                val, vec = rec.solve_node(csp, cw, k + 1)
                child_hist = hist + ("-" if z is None else str(z),)
                child_policy = rec.policy_from_vector(csp, vec)
                nodes.append(
                    DpNode(history=child_hist, value=val, policy=child_policy, belief=child)
                )
                nxt.append((child, child_hist, child_policy))
        frontier = nxt
    return DpResult(value=value, nodes=nodes, refine_drop=refine_drop)
