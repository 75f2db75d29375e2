"""The fixed-size linear-Gaussian engine and its one rollout driver.

Closed-loop evaluation, the additive-noise baseline (``reconstruct``) and
every optimizer rollout (``branch_rollouts``) filter only the current
(x, y) block: ``branch_step`` conditions each row on its x (exactly when
kept, through noise f toward the region center when discarded), a
baseline's x + v conditions through ``observe`` like a discard with f the
channel noise, and prediction is A P A^T + Q (``sandwich``). That is
exact: the growing-trajectory recursion touches the (x, y_current)
statistics only through the same block operations. Information terms
need one more fixed-size statistic, Cov(X_k | Y^k, Z^{k-1}), which
``BatchEngine`` adds.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .lingauss import LinearGaussianSystem
from .linalg import inverse


def _det(m):
    """Determinants of a stack of square matrices (..., d, d)."""
    return m[..., 0, 0] if m.shape[-1] == 1 else np.linalg.det(m)


def _mm(a, b):
    """a @ b. A contraction over a length-1 axis (n_x = 1 or n_y = 1) is an
    elementwise product, which costs a fraction of numpy's stacked matmul,
    except for an outer product (m x 1 by 1 x r), whose two broadcast axes
    make the product slower than @."""
    if a.shape[-1] == 1 and (a.shape[-2] == 1 or b.shape[-1] == 1):
        return a * b
    return a @ b


def _tr(a, b):
    """tr(a b_t) for every tangent t: a (..., d, d), b (..., T, d, d)."""
    return np.einsum("...ij,...tji->...t", a, b)


def sandwich(a_t, x):
    """a @ x_b @ a.T for each x_b of a stack (..., m, m), given a.T (m, r), as two
    2-D products: numpy's stacked matmul is several times slower on 2x2 blocks."""
    m, r = a_t.shape
    y = (x.swapaxes(-1, -2).reshape(-1, m) @ a_t).reshape(*x.shape[:-2], m, r)
    return (y.swapaxes(-1, -2).reshape(-1, m) @ a_t).reshape(*x.shape[:-2], r, r)


def observe(c, dc, r, dr, nx: int):
    """Condition each covariance c_b (B, m, m) on its first nx coordinates
    seen through noise r (n_x x n_x, per row or shared), with tangents dc
    (G, T, m, m) of the leading G rows and dr, or dc = None. Returns
    (c', dc', gain)."""
    col = c[:, :, :nx]
    s_inv = inverse(c[:, :nx, :nx] + r)
    gain = _mm(col, s_inv)
    c = c - _mm(gain, col.swapaxes(1, 2))
    if dc is None:
        return c, None, gain
    # d(col s^{-1} col^T) = w + w^T with w = (dcol - gain ds / 2) gain^T
    gain4 = gain[: len(dc), None]
    w = _mm(dc[..., :nx] - 0.5 * _mm(gain4, dc[:, :, :nx, :nx] + dr), gain4.swapaxes(2, 3))
    return c, dc - w - w.swapaxes(2, 3), gain


def _require_unknown_x(cov, rows, k: int, given: str = "Y^(k-1), Z^(k-1)"):
    """Raise a NumericalFailure naming step k if the x-covariance
    Cov(X_k | given) of a selected row (cov: (..., n_x, n_x); rows: (B,)
    bool, or True for all) is singular: x_k is then already known, and its
    information increment is undefined (conditioning on it has no gain)."""
    if (rows & (_det(cov) <= 0.0)).any():
        raise NumericalFailure(f"x_k already known (singular Cov(X_k | {given})) at k={k}")


def branch_step(p, dp, mean, f, df, keep, obs, k: int):
    """Filter the current (x, y) block of every row for its branch at step k.

    Each p_b (B, n, n; tangents dp (G, T, n, n) of the leading G rows, or
    None) is conditioned on
    its x, seen exactly on kept rows (keep: (B,) bool) and through noise f
    (n_x x n_x; tangents df) on discarded ones. A kept x is known exactly,
    so its rows and columns are zeroed. Means (B, n; or None) move by the
    gain toward obs (B, n_x: the kept x, or the region center on a
    discard), and kept rows take x = obs. Returns (p, dp, mean).
    """
    nx = f.shape[-1]
    _require_unknown_x(p[:, :nx, :nx], keep, k)
    keep3 = keep[:, None, None]
    dr = None if dp is None else np.where(keep3[: len(dp), None], 0.0, df)
    p, dp, gain = observe(p, dp, np.where(keep3, 0.0, f), dr, nx)
    p[keep, :nx, :] = 0.0
    p[keep, :, :nx] = 0.0
    if dp is not None:
        keep_t = keep[: len(dp)]
        dp[keep_t, :, :nx, :] = 0.0
        dp[keep_t, :, :, :nx] = 0.0
    if mean is not None:
        mean = mean + _mm(gain, (obs - mean[:, :nx])[:, :, None])[:, :, 0]
        mean[keep, :nx] = obs[keep]
    return p, dp, mean


def _x_given_y(m, nx: int, k: int):
    """Cov(x | y) of each (x, y) covariance in a stack, and M_xy M_yy^{-1}.
    A singular y-block (y_k a function of the past, so the trajectory
    covariance is singular) raises a NumericalFailure naming step k."""
    myy = m[..., nx:, nx:]
    try:
        with np.errstate(divide="raise"):
            myy_inv, det = inverse(myy), _det(myy)
    except (FloatingPointError, np.linalg.LinAlgError):
        det = 0.0
    if np.any(det <= 0.0):
        raise NumericalFailure(f"singular Cov(Y_k | Y^(k-1), Z^(k-1)) at k={k}")
    gain = _mm(m[..., :nx, nx:], myy_inv)
    return m[..., :nx, :nx] - _mm(gain, m[..., nx:, :nx]), gain


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

    Each rollout is fixed-size, so batches advance in lockstep.
    Covariances and their forward tangents (``dp``, ``ds``, one per
    parameter; None without) depend only on the branch pattern; schedule
    rollouts pass their means through ``update``. Tangents may cover only
    the leading ``tangent_rows`` rows (all by default): covariance, S and
    loss work runs over every row, tangent work over those rows only, and
    each row's values do not depend on which other rows share the batch.
    A singular P^xx (x_k already known) or S (x_k a function of Y^k)
    leaves an information increment undefined and raises a
    NumericalFailure naming k.
    """

    def __init__(
        self, system: LinearGaussianSystem, batch: int, n_tangents: int, tangent_rows=None
    ):
        nx, n = system.n_x, system.n
        self.sys = system
        self.nx = nx
        self.nt = n_tangents
        self._a_t = np.ascontiguousarray(system.a_matrix.T)
        self._ax_t = np.ascontiguousarray(self._a_t[:nx])
        _require_unknown_x(system.init_cov[:nx, :nx], True, 0)
        s0, _ = _x_given_y(system.init_cov, nx, 0)
        _require_unknown_x(s0, True, 0, given="Y^k, Z^(k-1)")
        self.p = np.repeat(system.init_cov[None], batch, axis=0)
        self.s = np.repeat(s0[None], batch, axis=0)
        g = batch if tangent_rows is None else tangent_rows
        self.dp = np.zeros((g, n_tangents, n, n)) if n_tangents else None
        self.ds = np.zeros((g, n_tangents, nx, nx)) if n_tangents else None

    def take(self, rows):
        """Keep the given batch rows, in order (repeats allowed); with
        tangents, every row must carry them."""
        self.p, self.s = self.p[rows], self.s[rows]
        if self.nt:
            self.dp, self.ds = self.dp[rows], self.ds[rows]

    def step_loss(self, f, df, c, dc, lam):
        """(loss, dloss, p0, dp0, info) per rollout: p0 is the no-sample
        probability, info the information increment (nats). ``c`` is the
        region center's offset from the predicted mean, (n_x,) or (B, n_x),
        and ``f`` is (n_x, n_x) or (B, n_x, n_x); with tangents f is shared.
        dloss and dp0 cover the tangent rows; without tangents ``df``/``dc``
        are unused and dloss, dp0 are None.
        """
        nx = self.nx
        pxx = self.p[:, :nx, :nx]
        # the n_x x n_x blocks behind p0 and the two information increments;
        # only the tangents need more inverses than (f + P^xx)^{-1}
        blocks = np.stack([f + pxx, pxx, self.s, f + self.s])
        det = _det(blocks)
        s_inv = inverse(blocks[0])
        u = _mm(s_inv, c[..., None])[..., 0]
        p0 = np.sqrt(_det(f) / det[0]) * np.exp(-0.5 * (c * u).sum(axis=-1))
        f_g = _mm(f, s_inv)
        tr_t = np.einsum("bij,bji->b", f_g, pxx)
        # |P^xx| > 0 and |S| > 0 are checked where P and S are formed
        inc1 = np.log(det[1] / det[2])
        inc0 = np.log(det[0] / det[3])
        info = 0.5 * ((1.0 - p0) * inc1 + p0 * inc0)
        loss = p0 * tr_t + lam * info
        if not self.nt:
            return loss, None, p0, None, info
        g = len(self.dp)  # the leading rows carry tangents
        inv = inverse(blocks[:, :g])
        u, f_g, q0 = u[:g], f_g[:g], p0[:g, None]
        dpxx = self.dp[:, :, :nx, :nx]
        ds = df + dpxx
        dld = _tr(inv, np.stack([ds, dpxx, self.ds, df + self.ds]))
        dquad = 2.0 * (u @ dc.T) - np.einsum("bi,btij,bj->bt", u, ds, u)
        dp0 = q0 * (0.5 * (_tr(inverse(f), df) - dld[0]) - 0.5 * dquad)
        g_p = _mm(inv[0], pxx[:g])
        dtr = _tr(g_p, df) + _tr(f_g, dpxx) - _tr(_mm(g_p, f_g), ds)
        ddist = dp0 * tr_t[:g, None] + q0 * dtr
        dinfo = 0.5 * (
            dp0 * (inc0 - inc1)[:g, None]
            + (1.0 - q0) * (dld[1] - dld[2])
            + q0 * (dld[0] - dld[3])
        )
        return loss, ddist + lam * dinfo, p0, dp0, info

    def update(self, f, df, keep: np.ndarray, k: int, mean=None, obs=None):
        """Filtered covariances for the realized branches of step k (keep:
        (B,) bool); with ``mean`` (B, n), also the filtered means, which
        ``branch_step`` moves toward obs and returns."""
        self.p, self.dp, mean = branch_step(self.p, self.dp, mean, f, df, keep, obs, k)
        s, ds, _ = observe(self.s, self.ds, f, df, self.nx)
        keep3 = keep[:, None, None]
        self.s = np.where(keep3, 0.0, s)
        if self.nt:
            self.ds = np.where(keep3[: len(ds), None], 0.0, ds)
        return mean

    def predict(self, k: int):
        """Predicted covariances (and tangents) for step k."""
        nx, a = self.nx, self.sys.a_matrix
        self.p = sandwich(self._a_t, self.p) + self.sys.q_cov
        _require_unknown_x(self.p[:, :nx, :nx], True, k)
        m = sandwich(self._ax_t, self.s) + self.sys.q_cov
        self.s, gain = _x_given_y(m, nx, k)
        _require_unknown_x(self.s, True, k, given="Y^k, Z^(k-1)")
        if self.nt:
            self.dp = sandwich(self._a_t, self.dp)
            f_x = (a[:nx, :nx] - _mm(gain[: len(self.ds)], a[nx:, :nx]))[:, None]
            self.ds = _mm(_mm(f_x, self.ds), f_x.swapaxes(2, 3))


def branch_rollouts(
    system, lam, horizon, rows, terms, branch, n_tangents=0, mean=None, tangent_rows=None
):
    """The one rollout driver: ``rows`` identical engine rows over steps 0..K.

    Per step, ``terms(k, mean)`` gives (f, df, c, dc): the discard noise,
    the region center's offset from the predicted mean and, with
    ``n_tangents``, their tangents. After the step's loss, ``branch(k, p0,
    p, mean)`` sees the no-sample probabilities p0 and the predicted
    covariances p and returns (parent, keep, w, obs) for the next rows:
    the parent row of each (None keeps the rows as they are, and must
    while means are carried), its keep flag, the probability w that its
    path weight takes and its score term divides by, and the observation
    the means move toward (unused without means). Means (rows, n) are
    carried only when given, and predicted through A. Tangents cover the
    leading ``tangent_rows`` rows (all by default; ``parent`` must then be
    None). Returns per-row (path weights, losses, dlosses, scores, kept
    counts, info sums), dlosses and scores for the tangent rows.
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
        f, df, c, dc = terms(k, mean)
        loss, dloss, p0, dp0, info = eng.step_loss(f, df, c, dc, lam)
        losses += loss
        infos += info
        if n_tangents:
            dpaths += dloss
        parent, keep, w, obs = branch(k, p0, eng.p, mean)
        if parent is not None:
            eng.take(parent)
            weight, losses, infos, kept, dpaths, scores = (
                a[parent] for a in (weight, losses, infos, kept, dpaths, scores)
            )
            if n_tangents:
                dp0 = dp0[parent]
        weight *= w
        kept += keep
        if n_tangents:
            scores += (np.where(keep, -1.0, 1.0) / w)[: len(dp0), None] * dp0
        mean = eng.update(f, df, keep, k, mean, obs)
        if k < horizon:
            eng.predict(k + 1)
            if mean is not None:
                mean = mean @ system.a_matrix.T
    return weight, losses, dpaths, scores, kept, infos
