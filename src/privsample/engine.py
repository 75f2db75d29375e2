"""The fixed-size linear-Gaussian engine and its one rollout driver.

Evaluation, the additive-noise baseline, ``simulate`` (all ``reconstruct``)
and every optimizer rollout (``branch_rollouts``) filter only the current
(x, y) block: ``branch_step`` conditions each row on its x (exactly when
kept, through noise f toward the region center when discarded; a
baseline's x + v is a discard with f the channel noise), and prediction
is A P A^T + Q (``sandwich``). That is
exact: the growing-trajectory recursion touches the (x, y_current)
statistics only through the same block operations. Information terms
need one more fixed-size statistic, Cov(X_k | Y^k, Z^{k-1}), which
``BatchEngine`` adds.

Layout: the row (rollout) axis is last in every array. Covariances are
(n, n, B), means (n, B), forward tangents (n, n, T, G); an operand shared
by every row has a row axis of length 1. The blocks are tiny (n = 2 in
the paper), so with rows first numpy would run a length-1 or length-2
inner loop B times; with rows last every elementwise op, every trace
(``_tr``), every contraction over a length-1 axis (``mm``; all of them
when n_x = n_y = 1) and every row selection runs one loop over B
contiguous values, and ``sandwich`` is two 2-D matrix products. A longer
contraction runs numpy's stacked @, as the rows-first layout did. Every
row's arithmetic is its own, so a row's values do not depend on which
other rows share the batch.

At a few hundred rows a step is bound by numpy's per-call overhead, not
by arithmetic. So a block move is one ``transpose`` (``blocks_last``,
``blocks_first``), which leaves a 1x1 block's inverse the bare ``1 / m``
of ``linalg.inverse``; a singular y-block is caught by its determinant
before any inverse is taken; kept rows are zeroed in place; and the
4-block stacks are filled in place. One step of the optimizer's pass
(paper system, 304 rows, 48 of them with tangents) took a median 290 us,
against 416 us with ``np.moveaxis``, ``np.stack`` and ``np.where`` (7
interleaved runs of 20 passes at K = 100, on a shared 2-core host).
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .lingauss import LinearGaussianSystem
from .linalg import inverse


def blocks_last(m):
    """The (d, d, ...) blocks of m as numpy's linalg stacks them, (..., d, d)."""
    return m.transpose(*range(2, m.ndim), 0, 1)


def blocks_first(m):
    """The (..., d, d) blocks of m back in the engine's layout, (d, d, ...)."""
    return m.transpose(m.ndim - 2, m.ndim - 1, *range(m.ndim - 2))


def _det(m):
    """Determinants of the blocks of m (d, d, ...)."""
    return m[0, 0] if len(m) == 1 else np.linalg.det(blocks_last(m))


def _inv(m):
    """Inverses of the blocks of m (d, d, ...)."""
    return blocks_first(inverse(blocks_last(m)))


def mm(a, b):
    """a @ b for every row: a (m, k, ...) and b (k, r, ...), with as many
    row axes each, which broadcast. A length-1 contraction (n_x = 1 or
    n_y = 1) is one elementwise product, an outer product included, and
    equals @ bit for bit. A longer one is @ on the blocks moved last: its
    BLAS kernel may fuse each multiply-add, which a broadcast sum would
    not reproduce."""
    if a.shape[1] == 1:
        return a * b
    return blocks_first(blocks_last(a) @ blocks_last(b))


def _stack(*blocks):
    """np.stack(blocks, axis=2) for blocks (d, d, ...) of one shape,
    without np.stack's per-call checks and views."""
    out = np.empty((*blocks[0].shape[:2], len(blocks), *blocks[0].shape[2:]))
    for i, block in enumerate(blocks):
        out[:, :, i] = block
    return out


def _tr(a, b):
    """tr(a b) for the blocks of a and b (d, d, ...), broadcasting over the rest."""
    if len(a) == 1:
        return a[0, 0] * b[0, 0]
    return (a * b.swapaxes(0, 1)).sum(axis=(0, 1))


def transition(a, y):
    """a @ y_b for every row b of y (..., m, B), a (r, m): the means'
    prediction, and each product of ``sandwich``. On one row numpy takes
    its matrix-vector product, which rounds unlike its matrix product, so
    one row goes through the matrix product as two."""
    if y.shape[-1] == 1:
        return np.matmul(a, np.repeat(y, 2, axis=-1))[..., :1]
    return np.matmul(a, y)


def sandwich(a, x):
    """a @ x_b @ a.T for every block x_b of x (m, m, ...), given a (r, m),
    as two 2-D matrix products over contiguous rows."""
    r, m = a.shape
    y = transition(a, x.reshape(m, -1)).reshape(r, m, -1)
    return transition(a, y).reshape(r, r, *x.shape[2:])


def observe(m, dm, r, dr, nx: int):
    """Condition each covariance m_b (n, n, B) on its first nx coordinates
    seen through noise r (n_x, n_x, B or 1), with tangents dm (n, n, T, G)
    of the leading G rows and dr (n_x, n_x, T, G or 1), or dm = None.
    Returns (m', dm', gain)."""
    col = m[:, :nx]
    s_inv = _inv(m[:nx, :nx] + r)
    gain = mm(col, s_inv)
    m = m - mm(gain, col.swapaxes(0, 1))
    if dm is None:
        return m, None, gain
    # d(col s^{-1} col^T) = w + w^T with w = (dcol - gain ds / 2) gain^T
    gain4 = gain[:, :, None, : dm.shape[-1]]
    w = mm(dm[:, :nx] - 0.5 * mm(gain4, dm[:nx, :nx] + dr), gain4.swapaxes(0, 1))
    return m, dm - w - w.swapaxes(0, 1), gain


def _zero_x(a, keep, nx: int):
    """Zero the x rows and columns of a (n, n, ..., B) in place on kept rows."""
    np.copyto(a[:nx], 0.0, where=keep)
    np.copyto(a[nx:, :nx], 0.0, where=keep)


def _require_unknown_x(cov, rows, k: int, given: str = "Y^(k-1), Z^(k-1)"):
    """Raise a NumericalFailure naming step k if the x-covariance
    Cov(X_k | given) of a selected row (cov: (n_x, n_x, ...); rows: (B,)
    bool, or True for all) is singular: x_k is then already known, and its
    information increment is undefined (conditioning on it has no gain)."""
    if np.count_nonzero(rows & (_det(cov) <= 0.0)):
        raise NumericalFailure(f"x_k already known (singular Cov(X_k | {given})) at k={k}")


def branch_step(p, dp, mean, f, df, keep, obs, k: int):
    """Filter the current (x, y) block of every row for its branch at step k.

    Each p_b (n, n, B, or one shared (n, n, 1) block; tangents dp
    (n, n, T, G) of the leading G rows, or None) is conditioned on its x,
    seen exactly on kept rows (keep: (B,) bool) and through noise f
    (n_x, n_x, 1 or B; tangents df (n_x, n_x, T, 1)) on discarded ones. A
    kept x is known exactly, so its rows and columns are zeroed. Means
    (n, B; or None) move by the gain toward obs (n_x, B: the kept x, or
    the region center on a discard), and kept rows take x = obs. Returns
    (p, dp, mean).
    """
    nx = len(f)
    _require_unknown_x(p[:nx, :nx], keep, k)
    dr = None if dp is None else np.where(keep[: dp.shape[-1]], 0.0, df)
    p, dp, gain = observe(p, dp, np.where(keep, 0.0, f), dr, nx)
    _zero_x(p, keep, nx)
    if dp is not None:
        _zero_x(dp, keep[: dp.shape[-1]], nx)
    if mean is not None:
        mean = mean + mm(gain, (obs - mean[:nx])[:, None])[:, 0]
        mean[:nx] = np.where(keep, obs, mean[:nx])
    return p, dp, mean


def _x_given_y(m, nx: int, k: int):
    """Cov(x | y) of each (x, y) covariance m (n, n, ...), M_xy M_yy^{-1}, |M_yy|.
    A singular y-block (y_k a function of the past, so the trajectory
    covariance is singular), seen as |M_yy| <= 0 before M_yy is inverted,
    raises a NumericalFailure naming step k."""
    myy = m[nx:, nx:]
    det = _det(myy)
    if np.count_nonzero(det <= 0.0):
        raise NumericalFailure(f"singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k={k}")
    gain = mm(m[:nx, nx:], _inv(myy))
    return m[:nx, :nx] - mm(gain, m[nx:, :nx]), gain, det


class BatchEngine:
    """Batched rollouts of any linear-Gaussian system on fixed-size state.

    The information terms need only S = Cov(X_k | Y^k, Z^{k-1}), an
    n_x x n_x matrix: by the block-determinant identity (checked by
    ``validation.check_determinant_identity``) the per-step increments are

        keep:     1/2 log(|P^xx| / |S|)
        discard:  1/2 log(|f + P^xx| / |f + S|)

    with P the current (x, y) block covariance, which follows
    ``branch_step`` on the branch and ``sandwich`` plus Q on predict. S
    follows a Kalman filter for x that treats y_{k+1} as a measurement
    with correlated noise (Anderson & Moore, Optimal Filtering, 1979, ch. 5):

        keep:     S <- 0
        discard:  S <- S - S (S + f)^{-1} S
        predict:  M = A[:, :n_x] S A[:, :n_x]^T + Q,  S <- M_xx - M_xy M_yy^{-1} M_yx

    By the chain rule, log|Cov(Y^k | outputs)| starts at log|P0_yy|, loses
    the realized branch's increment (``branch_terms``) on each update and
    gains log|M_yy| = log|Cov(Y_k | Y^(k-1), Z^(k-1))| on each predict;
    ``det_yy`` holds |M_yy| of the last predict (at first |P0_yy|, shared).

    Each rollout is fixed-size, so batches advance in lockstep, rows last
    (``p`` (n, n, B), ``s`` (n_x, n_x, B)). Covariances and their forward
    tangents (``dp`` (n, n, T, G), ``ds`` (n_x, n_x, T, G), one per
    parameter; None without) depend only on the branch pattern; schedule
    rollouts pass their means through ``update``. Tangents may cover only
    the leading ``tangent_rows`` rows G (all by default): covariance, S
    and loss work runs over every row, tangent work over those rows only,
    and each row's values do not depend on which other rows share the
    batch. A singular P^xx (x_k already known) or S (x_k a function of
    Y^k) leaves an information increment undefined and raises a
    NumericalFailure naming k.
    """

    def __init__(
        self, system: LinearGaussianSystem, batch: int, n_tangents: int, tangent_rows=None
    ):
        nx, n = system.n_x, system.n
        self.sys = system
        self.nx = nx
        self.nt = n_tangents
        self._ax = np.ascontiguousarray(system.a_matrix[:, :nx])
        self._q = system.q_cov[..., None]
        init = system.init_cov[..., None]
        _require_unknown_x(init[:nx, :nx], True, 0)
        s0, _, self.det_yy = _x_given_y(init, nx, 0)
        _require_unknown_x(s0, True, 0, given="Y^k, Z^(k-1)")
        self.p = np.repeat(init, batch, axis=-1)
        self.s = np.repeat(s0, batch, axis=-1)
        g = batch if tangent_rows is None else tangent_rows
        self.dp = np.zeros((n, n, n_tangents, g)) if n_tangents else None
        self.ds = np.zeros((nx, nx, n_tangents, g)) if n_tangents else None

    def take(self, rows):
        """Keep the given batch rows, in order (repeats allowed); with
        tangents, every row must carry them."""
        self.p, self.s = self.p[..., rows], self.s[..., rows]
        if self.nt:
            self.dp, self.ds = self.dp[..., rows], self.ds[..., rows]

    def branch_terms(self, f):
        """The blocks [f + P^xx, P^xx, S, f + S] (n_x, n_x, 4, B), their
        determinants, and the keep and discard increments above (doubled)."""
        pxx = self.p[: self.nx, : self.nx]
        blocks = _stack(f + pxx, pxx, self.s, f + self.s)
        det = _det(blocks)
        # |P^xx| > 0 and |S| > 0 are checked where P and S are formed
        return blocks, det, np.log(det[1] / det[2]), np.log(det[0] / det[3])

    def step_loss(self, f, df, c, lam):
        """(loss, dloss, p0, dp0, info) per rollout: p0 is the no-sample
        probability, info the information increment (nats). ``c`` is the
        region center's offset from the predicted mean, (n_x, 1 or B), a
        fixed input with no tangent, and ``f`` is (n_x, n_x, 1 or B); with
        tangents f is shared and df (n_x, n_x, T, 1). dloss and dp0 are
        (T, G), for the tangent rows; without tangents ``df`` is unused
        and dloss, dp0 are None.
        """
        nx = self.nx
        pxx = self.p[:nx, :nx]
        # only the tangents need more inverses than (f + P^xx)^{-1}
        blocks, det, inc1, inc0 = self.branch_terms(f)
        s_inv = _inv(blocks[:, :, 0])
        u = mm(s_inv, c[:, None])[:, 0]
        p0 = np.sqrt(_det(f) / det[0]) * np.exp(-0.5 * (c * u).sum(axis=0))
        f_g = mm(f, s_inv)
        tr_t = _tr(f_g, pxx)
        info = 0.5 * ((1.0 - p0) * inc1 + p0 * inc0)
        loss = p0 * tr_t + lam * info
        if not self.nt:
            return loss, None, p0, None, info
        g = self.dp.shape[-1]  # the leading rows carry tangents
        inv = _inv(blocks[..., :g])
        u, f_g, q0 = u[:, :g], f_g[..., :g], p0[:g]
        dpxx = self.dp[:nx, :nx]
        ds = df + dpxx
        dld = _tr(inv[:, :, :, None], _stack(ds, dpxx, self.ds, df + self.ds))
        # c is fixed, so c^T (f + P^xx)^{-1} c moves by -u^T d(f + P^xx) u
        dquad = -mm(mm(u[None, :, None], ds), u[:, None, None])[0, 0]
        dp0 = q0 * (0.5 * (_tr(_inv(f)[:, :, None], df) - dld[0]) - 0.5 * dquad)
        g_p = mm(inv[:, :, 0], pxx[..., :g])
        dtr = (
            _tr(g_p[:, :, None], df)
            + _tr(f_g[:, :, None], dpxx)
            - _tr(mm(g_p, f_g)[:, :, None], ds)
        )
        ddist = dp0 * tr_t[:g] + q0 * dtr
        dinfo = 0.5 * (
            dp0 * (inc0 - inc1)[:g]
            + (1.0 - q0) * (dld[1] - dld[2])
            + q0 * (dld[0] - dld[3])
        )
        return loss, ddist + lam * dinfo, p0, dp0, info

    def update(self, f, df, keep: np.ndarray, k: int, mean=None, obs=None):
        """Filtered covariances for the realized branches of step k (keep:
        (B,) bool); with ``mean`` (n, B), also the filtered means, which
        ``branch_step`` moves toward obs and returns."""
        self.p, self.dp, mean = branch_step(self.p, self.dp, mean, f, df, keep, obs, k)
        s, ds, _ = observe(self.s, self.ds, f, df, self.nx)
        np.copyto(s, 0.0, where=keep)
        if self.nt:
            np.copyto(ds, 0.0, where=keep[: ds.shape[-1]])
        self.s, self.ds = s, ds
        return mean

    def predict(self, k: int):
        """Predicted covariances (and tangents) for step k."""
        nx, a = self.nx, self.sys.a_matrix
        self.p = sandwich(a, self.p) + self._q
        _require_unknown_x(self.p[:nx, :nx], True, k)
        m = sandwich(self._ax, self.s) + self._q
        self.s, gain, self.det_yy = _x_given_y(m, nx, k)
        _require_unknown_x(self.s, True, k, given="Y^k, Z^(k-1)")
        if self.nt:
            self.dp = sandwich(a, self.dp)
            f_x = a[:nx, :nx, None] - mm(gain[..., : self.ds.shape[-1]], a[nx:, :nx, None])
            f_x = f_x[:, :, None]
            self.ds = mm(mm(f_x, self.ds), f_x.swapaxes(0, 1))


def branch_rollouts(
    system, lam, horizon, rows, terms, branch, n_tangents=0, mean=None, tangent_rows=None
):
    """The one rollout driver: ``rows`` identical engine rows over steps 0..K.

    Per step, ``terms(k, mean)`` gives (f, df, c) in the engine's
    rows-last layout (``BatchEngine.step_loss``): the discard noise, its
    tangent with ``n_tangents`` (else unused), and the region center's
    offset from the predicted mean, a fixed input with no tangent. After
    the step's loss, ``branch(k, p0, p, mean)`` sees the no-sample
    probabilities p0 (B,) and the predicted covariances p (n, n, B) and
    returns (parent, keep, w, obs) for the next rows: the parent row of each (None keeps the rows as they are, and
    must while means are carried), its keep flag, the probability w that
    its path weight takes and its score term divides by, and the
    observation (n_x, B) the means move toward (unused without means).
    Means (n, rows) are carried only when given, and predicted through A.
    Tangents cover the leading ``tangent_rows`` rows (all by default;
    ``parent`` must then be None). Returns per-row (path weights, losses,
    dlosses, scores, kept counts, info sums), dlosses and scores (G, T)
    for the G tangent rows.
    """
    eng = BatchEngine(system, rows, n_tangents, tangent_rows)
    g = rows if tangent_rows is None else tangent_rows
    weight = np.ones(rows)
    losses = np.zeros(rows)
    infos = np.zeros(rows)
    kept = np.zeros(rows)
    dpaths = np.zeros((g, n_tangents))
    scores = np.zeros((g, n_tangents))
    for k in range(horizon + 1):
        f, df, c = terms(k, mean)
        loss, dloss, p0, dp0, info = eng.step_loss(f, df, c, lam)
        losses += loss
        infos += info
        if n_tangents:
            dpaths += dloss.T
        parent, keep, w, obs = branch(k, p0, eng.p, mean)
        if parent is not None:
            eng.take(parent)
            weight, losses, infos, kept, dpaths, scores = (
                a[parent] for a in (weight, losses, infos, kept, dpaths, scores)
            )
            if n_tangents:
                dp0 = dp0[:, parent]
        weight *= w
        kept += keep
        if n_tangents:
            scores += ((np.where(keep, -1.0, 1.0) / w)[: dp0.shape[-1]] * dp0).T
        mean = eng.update(f, df, keep, k, mean, obs)
        if k < horizon:
            eng.predict(k + 1)
            if mean is not None:
                mean = transition(system.a_matrix, mean)
    return weight, losses, dpaths, scores, kept, infos
