"""Independent oracles for the validation suite and tests.

Everything here deliberately avoids the package's closed-form recursions:
the grid filter does numerical Bayes updates on a density grid, the
unrolled-joint builder conditions a stacked Gaussian directly, and the
loss oracle integrates the defining expectations on a 2-D tensor grid
without assuming posteriors stay Gaussian.
"""
from __future__ import annotations

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.signal import fftconvolve


class GridBayesFilter:
    """Numerical Bayes filter for a scalar (n_x = n_y = 1) joint system.

    Maintains p(x_k, y_k | history) on a regular grid. Prediction pushes
    the density through the linear map (grid re-interpolation) and
    convolves with the process-noise kernel via FFT. The exact-observation
    update stores the degenerate state (known x = z, a 1-D density over
    y) and the next prediction integrates the transition kernel over y
    directly, so no delta-smoothing bias enters.
    """

    def __init__(self, system, x_range, y_range, nx_pts=701, ny_pts=701):
        self.a = np.asarray(system.a_matrix, dtype=float)
        self.q = np.asarray(system.q_cov, dtype=float)
        self.xg = np.linspace(*x_range, nx_pts)
        self.yg = np.linspace(*y_range, ny_pts)
        self.dx = self.xg[1] - self.xg[0]
        self.dy = self.yg[1] - self.yg[0]
        xx, yy = np.meshgrid(self.xg, self.yg, indexing="ij")
        self.xx, self.yy = xx, yy
        mu = np.asarray(system.init_mean, dtype=float)
        p0 = np.asarray(system.init_cov, dtype=float)
        self.pdf = self._gauss2d(xx - mu[0], yy - mu[1], p0)
        self.known_x = None  # set after an exact-observation update
        self.pdf_y = None
        self._normalize()
        # noise kernel sampled on the centered offset grid
        self.kernel = self._gauss2d(
            self.xg[:, None] - self.xg.mean(), self.yg[None, :] - self.yg.mean(), self.q
        )

    @staticmethod
    def _gauss2d(dx, dy, cov):
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / det
        quad = inv[0, 0] * dx**2 + 2 * inv[0, 1] * dx * dy + inv[1, 1] * dy**2
        return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))

    def _normalize(self):
        if self.known_x is None:
            self.pdf /= self.pdf.sum() * self.dx * self.dy
        else:
            self.pdf_y /= self.pdf_y.sum() * self.dy

    def predict(self):
        if self.known_x is None:
            # push-forward through the invertible linear map, then add noise
            inv_a = np.linalg.inv(self.a)
            pts = np.stack(
                [
                    inv_a[0, 0] * self.xx + inv_a[0, 1] * self.yy,
                    inv_a[1, 0] * self.xx + inv_a[1, 1] * self.yy,
                ],
                axis=-1,
            )
            interp = RegularGridInterpolator(
                (self.xg, self.yg), self.pdf, bounds_error=False, fill_value=0.0
            )
            pushed = interp(pts) / abs(np.linalg.det(self.a))
            self.pdf = fftconvolve(pushed, self.kernel, mode="same") * self.dx * self.dy
        else:
            self.pdf = self._predict_known_x()
            self.known_x = None
            self.pdf_y = None
        np.clip(self.pdf, 0.0, None, out=self.pdf)
        self._normalize()

    def _predict_known_x(self):
        """Predicted density after an exact observation x = z: the sum over
        source rows y_j, weighted by pdf_y, of N(A (z, y_j), Q) on the grid.

        With m_j = A (z, y_j) and q = Q^{-1}, the only term of the exponent
        -1/2 ((x, y) - m_j)^T q ((x, y) - m_j) that couples x and y without
        depending on j is -q_xy x y. The rest splits into an x-only factor
        F_j(x) and a y-only factor G_j(y), so the sum is the product
        exp(-q_xy x y) (F^T diag(w) G). Each row of F and G is shifted by its
        largest log value, and w takes the shifts, so no factor overflows.
        """
        z, a, cov = self.known_x, self.a, self.q
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        qxx, qxy, qyy = cov[1, 1] / det, -cov[0, 1] / det, cov[0, 0] / det
        mx = a[0, 0] * z + a[0, 1] * self.yg
        my = a[1, 0] * z + a[1, 1] * self.yg
        log_f = (
            -0.5 * qxx * (self.xg[None, :] - mx[:, None]) ** 2
            + qxy * (self.xg[None, :] - mx[:, None]) * my[:, None]
        )
        log_g = -0.5 * qyy * (self.yg[None, :] - my[:, None]) ** 2 + qxy * mx[:, None] * self.yg
        shift_f = log_f.max(axis=1, keepdims=True)
        shift_g = log_g.max(axis=1, keepdims=True)
        w = self.pdf_y * self.dy * np.exp(shift_f + shift_g)[:, 0]
        mixed = (np.exp(log_f - shift_f).T * w) @ np.exp(log_g - shift_g)
        coupling = np.exp(-qxy * self.xg[:, None] * self.yg[None, :])
        return coupling * mixed / (2 * np.pi * np.sqrt(det))

    def update_no_sample(self, f, g):
        self.pdf = self.pdf * np.exp(-0.5 * (self.xg[:, None] - g) ** 2 / f)
        self._normalize()

    def update_sample(self, z):
        interp = RegularGridInterpolator(
            (self.xg, self.yg), self.pdf, bounds_error=False, fill_value=0.0
        )
        self.pdf_y = interp(np.stack([np.full_like(self.yg, z), self.yg], axis=-1))
        self.known_x = float(z)
        self._normalize()

    def moments(self):
        """Mean vector and covariance of (x, y) under the current density."""
        if self.known_x is not None:
            w = self.pdf_y * self.dy
            my = float((self.yg * w).sum())
            cyy = float(((self.yg - my) ** 2 * w).sum())
            return np.array([self.known_x, my]), np.array([[0.0, 0.0], [0.0, cyy]])
        w = self.pdf * self.dx * self.dy
        mx = float((self.xx * w).sum())
        my = float((self.yy * w).sum())
        cxx = float(((self.xx - mx) ** 2 * w).sum())
        cyy = float(((self.yy - my) ** 2 * w).sum())
        cxy = float(((self.xx - mx) * (self.yy - my) * w).sum())
        return np.array([mx, my]), np.array([[cxx, cxy], [cxy, cyy]])


def unrolled_joint(system, horizon):
    """Joint Gaussian of the stacked states (s_0, ..., s_K) by propagation.

    Returns (mean, cov) with block order s_0 .. s_K, s_k = (x_k, y_k).
    """
    a = np.asarray(system.a_matrix, dtype=float)
    n = a.shape[0]
    kk = horizon + 1
    mean = np.empty(kk * n)
    cov = np.empty((kk * n, kk * n))
    mean[:n] = system.init_mean
    var = [np.asarray(system.init_cov, dtype=float)]
    for k in range(1, kk):
        mean[k * n : (k + 1) * n] = a @ mean[(k - 1) * n : k * n]
        var.append(a @ var[-1] @ a.T + system.q_cov)
    for j in range(kk):
        block = var[j]
        cov[j * n : (j + 1) * n, j * n : (j + 1) * n] = block
        cross = block
        for i in range(j + 1, kk):
            cross = a @ cross
            cov[i * n : (i + 1) * n, j * n : (j + 1) * n] = cross
            cov[j * n : (j + 1) * n, i * n : (i + 1) * n] = cross.T
    return mean, 0.5 * (cov + cov.T)


def condition_gaussian(mean, cov, obs_idx, obs_val, keep_idx):
    """Condition a joint Gaussian on coordinates obs_idx = obs_val."""
    obs_idx = np.asarray(obs_idx)
    keep_idx = np.asarray(keep_idx)
    saa = cov[np.ix_(keep_idx, keep_idx)]
    sab = cov[np.ix_(keep_idx, obs_idx)]
    sbb = cov[np.ix_(obs_idx, obs_idx)]
    sol = np.linalg.solve(sbb, np.column_stack([obs_val - mean[obs_idx], sab.T]))
    mu = mean[keep_idx] + sab @ sol[:, 0]
    sig = saa - sab @ sol[:, 1:]
    return mu, 0.5 * (sig + sig.T)


def one_step_loss_quadrature(mean, cov, f, g, lam, n_pts=1601, span=9.0):
    """Defining expectations of the per-step cost on a 2-D tensor grid.

    mean/cov describe the scalar predicted joint of (x, y). Computes the
    no-sample probability, the discard-branch squared-error term with the
    posterior mean taken from the grid itself, and the information term
    as the three-entropy decomposition, none of it assuming Gaussian
    posteriors. Trapezoid integration on a dense grid.
    """
    sx, sy = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    xg = np.linspace(mean[0] - span * sx, mean[0] + span * sx, n_pts)
    yg = np.linspace(mean[1] - span * sy, mean[1] + span * sy, n_pts)
    dx, dy = xg[1] - xg[0], yg[1] - yg[0]
    xx = xg[:, None]
    yy = yg[None, :]
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / det
    dxm = xx - mean[0]
    dym = yy - mean[1]
    pdf = np.exp(
        -0.5 * (inv[0, 0] * dxm**2 + 2 * inv[0, 1] * dxm * dym + inv[1, 1] * dym**2)
    ) / (2 * np.pi * np.sqrt(det))
    w0 = np.exp(-0.5 * (xg - g) ** 2 / f)[:, None]

    cell = dx * dy
    p0 = float((w0 * pdf).sum() * cell)
    x_post = float((xg[:, None] * w0 * pdf).sum() * cell) / p0
    distortion = float(((xg[:, None] - x_post) ** 2 * w0 * pdf).sum() * cell)

    def entropy(p, step):
        p = np.clip(p, 1e-300, None)
        return float(-(p * np.log(p)).sum() * step)

    py_prior = pdf.sum(axis=0) * dx
    h_prior = entropy(py_prior, dy)
    py_ns = (w0 * pdf).sum(axis=0) * dx / p0
    term_ns = -p0 * entropy(py_ns, dy)
    px = pdf.sum(axis=1) * dy
    cond = pdf / np.clip(px[:, None], 1e-300, None)
    log_cond = np.log(np.clip(cond, 1e-300, None))
    term_s = float(((1.0 - w0) * pdf * log_cond).sum() * cell)
    info = term_s + term_ns + h_prior
    return {
        "p_no_sample": p0,
        "distortion": distortion,
        "info_nats": info,
        "total": distortion + lam * info,
    }


def tilted_gaussian_moments(mean, cov, f, g, n_pts=2001, span=10.0):
    """Moments of N(mean, cov) * exp(-(x-g)^2 / (2 f)) via 2-D quadrature."""
    sx, sy = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    xg = np.linspace(mean[0] - span * sx, mean[0] + span * sx, n_pts)
    yg = np.linspace(mean[1] - span * sy, mean[1] + span * sy, n_pts)
    xx, yy = np.meshgrid(xg, yg, indexing="ij")
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / det
    dxm, dym = xx - mean[0], yy - mean[1]
    w = np.exp(
        -0.5 * (inv[0, 0] * dxm**2 + 2 * inv[0, 1] * dxm * dym + inv[1, 1] * dym**2)
        - 0.5 * (xx - g) ** 2 / f
    )
    w /= w.sum()
    mx = float((xx * w).sum())
    my = float((yy * w).sum())
    c = np.array(
        [
            [((xx - mx) ** 2 * w).sum(), ((xx - mx) * (yy - my) * w).sum()],
            [((xx - mx) * (yy - my) * w).sum(), ((yy - my) ** 2 * w).sum()],
        ]
    )
    return np.array([mx, my]), c


def central_difference(fn, theta, h):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2 * h)
    return grad
