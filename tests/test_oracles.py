"""The grid Bayes filter's factored known-x prediction against its direct sum."""
import numpy as np
import pytest

from privsample.oracles import GridBayesFilter


def _direct_known_x_predict(grid, z):
    """The defining sum over source rows y_j of pdf_y(y_j) dy N(A (z, y_j), Q),
    each term a 2-D Gaussian on the whole grid, in chunks of 64 rows."""
    out = np.zeros((grid.xg.size, grid.yg.size))
    for j0 in range(0, grid.yg.size, 64):
        ys = grid.yg[j0 : j0 + 64]
        w = grid.pdf_y[j0 : j0 + 64] * grid.dy
        mx = grid.a[0, 0] * z + grid.a[0, 1] * ys
        my = grid.a[1, 0] * z + grid.a[1, 1] * ys
        terms = grid._gauss2d(
            grid.xg[None, :, None] - mx[:, None, None],
            grid.yg[None, None, :] - my[:, None, None],
            grid.q,
        )
        out += np.einsum("j,jxy->xy", w, terms)
    return out


@pytest.mark.parametrize("z", [-6.0, -1.3, 0.0, 2.5, 7.0])
def test_known_x_predict_matches_the_direct_sum(tame_system, z):
    """Over the validation range (-9, 9), where the split factors reach
    e^{+-43}; a 201-point grid keeps the direct sum fast."""
    grid = GridBayesFilter(tame_system, (-9.0, 9.0), (-9.0, 9.0), 201, 201)
    grid.update_sample(z)
    want = _direct_known_x_predict(grid, z)
    assert want.min() > 0.0
    np.testing.assert_allclose(grid._predict_known_x(), want, rtol=1e-12, atol=0.0)
