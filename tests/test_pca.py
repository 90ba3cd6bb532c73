import numpy as np
import pytest

from conal.errors import ConfigError, DataError, UsageError
from conal.pca import class_covariance_eig, fit_class_pca, fre_scores
from conal.strategies import score_fre


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestFit:
    def test_three_points_on_a_line(self):
        # covariance of x-coords {0,1,2}: mean 1, sum sq dev 2, /(n-1) = 1
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        model = fit_class_pca({0: pts}, n_components=1)
        sub = model.classes[0]
        np.testing.assert_allclose(sub.mean, [1.0, 0.0])
        assert abs(abs(sub.basis[0, 0]) - 1.0) < 1e-12 and abs(sub.basis[1, 0]) < 1e-12
        np.testing.assert_allclose(sub.eigenvalues, [1.0])

    def test_planar_data_reconstructs_exactly(self, rng):
        # points on a 2-D plane embedded in 5-D
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        coords = rng.standard_normal((40, 2))
        pts = coords @ basis.T + rng.standard_normal(5)
        model = fit_class_pca({0: pts}, n_components=2)
        assert fre_scores(model, pts, 0).max() < 1e-8

    def test_variance_fraction_target(self, rng):
        pts = rng.standard_normal((300, 6))
        model = fit_class_pca({0: pts}, variance_fraction=0.95)
        sub = model.classes[0]
        total = np.trace(np.cov(pts.T))
        assert sub.eigenvalues.sum() >= 0.95 * total - 1e-9
        # smallest such dimension: dropping the last kept component dips below
        if sub.n_components > 1:
            assert sub.eigenvalues[:-1].sum() < 0.95 * total

    def test_fixed_l_capped_by_rank(self, rng):
        pts = rng.standard_normal((4, 6))  # rank 3
        model = fit_class_pca({0: pts}, n_components=10)
        assert model.classes[0].n_components == 3

    def test_orthonormal_basis(self, rng):
        for n in (5, 12, 80):
            pts = rng.standard_normal((n, 7))
            model = fit_class_pca({0: pts}, n_components=4)
            basis = model.classes[0].basis
            gram = basis.T @ basis
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-8)

    def test_eigenvalues_sorted_nonnegative(self, rng):
        pts = rng.standard_normal((30, 5))
        sub = fit_class_pca({0: pts}, n_components=5).classes[0]
        assert (np.diff(sub.spectrum) <= 1e-12).all()
        assert (sub.spectrum >= 0).all()

    def test_singleton_class_falls_back_to_mean(self, rng):
        pts = {0: rng.standard_normal((10, 3)), 1: rng.standard_normal((1, 3))}
        with pytest.warns(UserWarning, match="class 1"):
            model = fit_class_pca(pts, n_components=2)
        sub = model.classes[1]
        assert sub.n_components == 0
        assert score_fre(pts[1][0], 1, model) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 7, 60])  # n < d, n = d + 1, n >> d
    def test_covariance_eig_matches_numpy(self, rng, n):
        d = 6
        pts = rng.standard_normal((n, d))
        vals, vecs = class_covariance_eig(pts - pts.mean(axis=0))
        ref_vals, ref_vecs = np.linalg.eigh(np.cov(pts.T))
        ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
        rank = min(n - 1, d)
        np.testing.assert_allclose(vals[:rank], ref_vals[:rank], rtol=0, atol=1e-10)
        assert (vals[rank:] == 0.0).all()
        for keep in (1, 3, rank):
            np.testing.assert_allclose(vecs[:, :keep] @ vecs[:, :keep].T,
                                       ref_vecs[:, :keep] @ ref_vecs[:, :keep].T,
                                       rtol=0, atol=1e-8)

    def test_argument_validation(self, rng):
        pts = {0: rng.standard_normal((5, 3))}
        with pytest.raises(ConfigError):
            fit_class_pca(pts, n_components=2, variance_fraction=0.9)
        with pytest.raises(ConfigError):
            fit_class_pca(pts, variance_fraction=1.5)
        with pytest.raises(DataError):
            fit_class_pca({})


class TestFreScore:
    def _model(self, rng, d=5, n=60):
        pts = rng.standard_normal((n, d)) * np.array([3.0, 2.0, 1.0, 0.1, 0.05])
        return fit_class_pca({0: pts + 7.0}, n_components=3), pts + 7.0

    def test_zero_at_class_mean(self, rng):
        model, _ = self._model(rng)
        assert score_fre(model.classes[0].mean, 0, model) == pytest.approx(0.0, abs=1e-12)

    def test_zero_in_subspace(self, rng):
        model, _ = self._model(rng)
        sub = model.classes[0]
        z = sub.mean + sub.basis @ np.array([2.0, -1.0, 0.5])
        assert score_fre(z, 0, model) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_offset_is_its_norm(self, rng):
        model, _ = self._model(rng)
        sub = model.classes[0]
        # unit vector orthogonal to the basis columns
        v = rng.standard_normal(5)
        v -= sub.basis @ (sub.basis.T @ v)
        v /= np.linalg.norm(v)
        assert score_fre(sub.mean + 2.0 * v, 0, model) == pytest.approx(2.0, abs=1e-10)

    def test_invariant_to_in_subspace_component(self, rng):
        model, _ = self._model(rng)
        sub = model.classes[0]
        z = rng.standard_normal(5)
        shifted = z + sub.basis @ np.array([1.0, 2.0, -3.0])
        assert score_fre(z, 0, model) == pytest.approx(score_fre(shifted, 0, model), abs=1e-9)

    def test_positive_homogeneity_about_mean(self, rng):
        model, _ = self._model(rng)
        sub = model.classes[0]
        z = rng.standard_normal(5) + sub.mean
        base = score_fre(z, 0, model)
        for alpha in (0.0, 0.5, 2.0, 7.5):
            blended = alpha * z + (1 - alpha) * sub.mean
            assert score_fre(blended, 0, model) == pytest.approx(alpha * base, rel=1e-9, abs=1e-12)

    def test_pythagorean_identity(self, rng):
        # sum of squared residuals / (n-1) equals the discarded eigenvalue mass
        model, pts = self._model(rng)
        sub = model.classes[0]
        residuals = fre_scores(model, pts, 0)
        lhs = (residuals ** 2).sum() / (sub.n_fit - 1)
        assert abs(lhs - sub.discarded_variance) < 1e-8

    def test_full_rank_reconstructs_fitting_data(self, rng):
        pts = rng.standard_normal((40, 5))
        model = fit_class_pca({0: pts}, n_components=5)
        assert fre_scores(model, pts, 0).max() < 1e-8

    def test_unfitted_class_errors(self, rng):
        model, _ = self._model(rng)
        with pytest.raises(UsageError):
            score_fre(np.zeros(5), 3, model)

