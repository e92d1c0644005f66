import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrot.errors import NumericError, UsageError
from fedrot.numerics import (
    as_matrix,
    frobenius_norm,
    qr_orthonormal,
    svd,
)


def random_matrix(rng, m, n):
    return rng.standard_normal((m, n))


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(UsageError):
            as_matrix(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(UsageError):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            as_matrix(np.zeros((0, 2)))

    def test_casts_to_float64(self):
        out = as_matrix(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert out.dtype == np.float64


class TestFrobeniusNorm:
    def test_known_value(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 7))
        assert frobenius_norm(m) == pytest.approx(np.linalg.norm(m), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-200, 1e160, 5e-324, 1e300])
    def test_squares_out_of_range(self, scale):
        # The squares underflow to 0 or their sum overflows; the norm must not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.full((4, 4), scale)) == pytest.approx(4 * scale)

    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3))) == 0.0

    # A non-finite entry makes the norm inf, or nan for a NaN, without the
    # rescaling's inf / inf, so a diverging run records the overflow as inf.
    @pytest.mark.parametrize(
        "entry, norm", [(np.inf, math.inf), (-np.inf, math.inf), (np.nan, math.nan)]
    )
    def test_non_finite_entry(self, entry, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frobenius_norm(np.array([[entry, 1.0], [2.0, 3.0]]))
        assert got == norm or (math.isnan(norm) and math.isnan(got))


class TestSvd:
    def _check_factors(self, m, res, tol=1e-10):
        u, sigma, vt = res
        k = min(m.shape)
        scale = max(1.0, frobenius_norm(m))
        assert np.linalg.norm(u @ np.diag(sigma) @ vt - m) <= tol * scale
        assert np.linalg.norm(u.T @ u - np.eye(k)) <= tol
        assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= tol
        assert all(s >= -1e-15 for s in sigma)
        assert all(sigma[i] >= sigma[i + 1] for i in range(k - 1))

    def test_all_small_shapes(self):
        rng = np.random.default_rng(1)
        for m_rows in range(1, 9):
            for n_cols in range(1, 9):
                mat = random_matrix(rng, m_rows, n_cols)
                self._check_factors(mat, svd(mat))

    def test_random_shapes_bulk(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m_rows = int(rng.integers(2, 17))
            n_cols = int(rng.integers(2, 17))
            mat = random_matrix(rng, m_rows, n_cols)
            self._check_factors(mat, svd(mat))

    def test_matches_numpy_singular_values(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mat = random_matrix(rng, 6, 4)
            _, ours, _ = svd(mat)
            ref = np.linalg.svd(mat, compute_uv=False)
            np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)

    def test_rank_deficient(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((2, 5))
        res = svd(u @ v)
        self._check_factors(u @ v, res)
        _, sigma, _ = res
        assert sigma[2] <= 1e-10 * sigma[0]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        mat = random_matrix(rng, 8, 8)
        for first, second in zip(svd(mat), svd(mat.copy())):
            assert first.tobytes() == second.tobytes()

    def test_returns_lapack_factors_unchanged(self):
        mat = random_matrix(np.random.default_rng(6), 7, 5)
        for ours, lapack in zip(svd(mat), np.linalg.svd(mat, full_matrices=False)):
            assert ours.tobytes() == lapack.tobytes()

    def test_diagonal_matrix(self):
        _, sigma, _ = svd(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        u, sigma, _ = svd(np.zeros((3, 3)))
        np.testing.assert_allclose(sigma, 0.0)
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 8))
    def test_property_reconstruction(self, seed, m_rows, n_cols):
        mat = np.random.default_rng(seed).standard_normal((m_rows, n_cols))
        self._check_factors(mat, svd(mat))

    @pytest.mark.parametrize("size", [1, 64])
    def test_alignment_sizes_factor_and_sign_canonical(self, size):
        # Alignment runs at rank up to 64; the scalar toy runs at rank 1.
        rng = np.random.default_rng(10)
        for _ in range(5):
            mat = random_matrix(rng, size, size)
            self._check_factors(mat, svd(mat))

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-200])
    def test_extreme_scales(self, scale):
        # Far from 1 the squares of the entries overflow or underflow, but
        # the SVD scales internally: the spectrum scales with the input and
        # the factors do not move.
        rng = np.random.default_rng(12)
        for shape in [(6, 4), (4, 4), (1, 1), (4, 16)]:
            mat = random_matrix(rng, *shape)
            u0, sigma0, vt0 = svd(mat)
            u, sigma, vt = svd(scale * mat)
            np.testing.assert_allclose(sigma / scale, sigma0, rtol=1e-13)
            np.testing.assert_allclose(u, u0, atol=1e-13)
            np.testing.assert_allclose(vt, vt0, atol=1e-13)
            self._check_factors(mat, (u, sigma / scale, vt))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e-200])
    def test_rank_deficient_at_extreme_scales(self, scale):
        rng = np.random.default_rng(13)
        mat = random_matrix(rng, 8, 3) @ random_matrix(rng, 3, 8)
        u, sigma, vt = svd(scale * mat)
        assert (sigma[3:] <= 1e-15 * sigma[0]).all()
        self._check_factors(mat, (u, sigma / scale, vt))

    @pytest.mark.parametrize("spectrum", [(2.0, 2.0, 2.0, 1.0, 1.0), (1.0,) * 5])
    def test_repeated_singular_values(self, spectrum):
        # Factors of a repeated singular value are unique only up to a
        # rotation of their block; they must still be orthonormal and the
        # same bits on every call.
        rng = np.random.default_rng(14)
        q1 = np.linalg.qr(random_matrix(rng, 5, 5))[0]
        q2 = np.linalg.qr(random_matrix(rng, 5, 5))[0]
        mat = q1 @ np.diag(spectrum) @ q2.T
        res = svd(mat)
        _, sigma, _ = res
        np.testing.assert_allclose(sigma, spectrum, rtol=1e-14)
        self._check_factors(mat, res)
        for first, again in zip(res, svd(mat.copy())):
            assert first.tobytes() == again.tobytes()

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericError, match="SVD did not converge"):
            svd(np.eye(3))


class TestQrOrthonormal:
    def test_orthonormal_and_deterministic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = random_matrix(rng, 5, 5)
            q = qr_orthonormal(mat)
            assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12
            assert (q == qr_orthonormal(mat.copy())).all()

    def test_identity_fixed_point(self):
        q = qr_orthonormal(np.eye(4))
        np.testing.assert_allclose(q, np.eye(4), atol=1e-14)

    def test_positive_diagonal_r(self):
        # Sign convention: Q equals the input for an already-orthonormal
        # matrix with positive-diagonal R, i.e. Q is basis-preserving.
        rng = np.random.default_rng(8)
        mat = random_matrix(rng, 4, 4)
        q = qr_orthonormal(mat)
        r = q.T @ mat
        assert (np.diag(r) > 0).all()


@pytest.mark.parametrize(
    "d_out,d_in,rank", [(1, 1, 1), (8, 6, 1), (64, 64, 4), (6, 8, 2), (4, 8, 3), (128, 96, 8)]
)
def test_dot_matches_matmul_bits(d_out, d_in, rank):
    # The training kernels call ``np.dot`` where their formulas read ``@``;
    # the goldens hold only while both reach the same BLAS call, for every
    # operand layout the kernels use.  Local training packs each factor
    # pair and each gradient pair into one buffer (B's entries, then A's),
    # so the factors are views into one array and the gradients are
    # written through ``out=`` into views of another; ``out=`` must only
    # change where the result is written.  The chain rule doubles the
    # full-batch regression residual before its two products, which must
    # give the bits of doubling the products; the scalar toy's 1x1 products
    # must give the bits of a scalar multiply, signed zeros included.
    rng = np.random.default_rng([d_out, d_in, rank])
    nb = d_out * rank
    params = np.empty(nb + rank * d_in)
    grads = np.empty_like(params)
    b, a = params[:nb].reshape(d_out, rank), params[nb:].reshape(rank, d_in)
    gb, ga = grads[:nb].reshape(d_out, rank), grads[nb:].reshape(rank, d_in)

    def same(x, y, out=None):
        want = np.dot(x, y)
        assert np.array_equal(want, x @ y)
        if out is not None:
            out.fill(np.nan)
            assert np.dot(x, y, out=out) is out
            assert out.tobytes() == want.tobytes()

    for _ in range(10):
        scale = 10.0 ** rng.uniform(-3, 3)
        b[...] = scale * rng.standard_normal((d_out, rank))
        a[...] = rng.standard_normal((rank, d_in)) / scale
        same(b, a)  # the product b a; 1x1 takes numpy's scalar path
        resid = b @ a - rng.standard_normal((d_out, d_in))
        same(resid, a.T, gb)  # regression gradient of b
        same(b.T, resid, ga)  # regression gradient of a; gemv at rank 1
        twice = 2.0 * resid
        same(twice, a.T, gb)
        same(b.T, twice, ga)
        assert gb.tobytes() == (np.dot(resid, a.T) * 2.0).tobytes()
        assert ga.tobytes() == (np.dot(b.T, resid) * 2.0).tobytes()
        w = rng.standard_normal((d_out, d_in))
        for n in (1, 16, 32, 200):
            x = rng.standard_normal((n, d_in))
            same(x.T, x)  # regression probe Gram matrix
            same(resid, x.T @ x)
            grad_w = resid @ (x.T @ x)
            same(grad_w, a.T, gb)  # regression mini-batch gradients
            same(b.T, grad_w, ga)
            same(x, w.T)  # logistic logits
            same(rng.standard_normal((n, d_out)).T, x)  # logistic gradient
            gw = rng.standard_normal((n, d_out)).T @ x
            same(gw, a.T, gb)  # logistic factor gradients
            same(b.T, gw, ga)
            gathered = x.take(rng.choice(n, size=max(1, n // 2), replace=False), axis=0)
            same(gathered, w.T)
            same(rng.standard_normal((len(gathered), d_out)).T, gathered)
    if (d_out, d_in) == (1, 1):
        for g, x in itertools.product([0.0, -0.0, 1.5, -3.0e-7], repeat=2):
            g, x = np.array([[g]]), np.array([[x]])
            assert np.dot(g, x).tobytes() == np.multiply(g, x).tobytes()
            gb.fill(np.nan)
            np.dot(g, x.T, out=gb)
            assert gb.tobytes() == np.multiply(g, x.T).tobytes()
            ga.fill(np.nan)
            np.dot(x.T, g, out=ga)
            assert ga.tobytes() == np.multiply(x.T, g).tobytes()
