import hypothesis
import numpy as np
import pytest
import scipy.integrate
from hypothesis import strategies as st

from levyspde.spectral import alias_fold, assemble_fem, dirichlet_spectrum, spectral_coupling
from p1_oracle import cross_gram, dense_coupling, dense_pencil, nodes


def hat(i, x, h):
    return np.clip(1.0 - np.abs(x - (i + 1) * h) / h, 0.0, None)


class TestDirichletSpectrum:
    def test_unit_interval_single_mode(self):
        assert dirichlet_spectrum(1).eigenvalues == pytest.approx([np.pi**2], rel=1e-15)

    def test_three_modes(self):
        got = dirichlet_spectrum(3).eigenvalues
        assert got == pytest.approx([np.pi**2, 4 * np.pi**2, 9 * np.pi**2], rel=1e-15)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_mode_count(self, bad):
        with pytest.raises(ValueError):
            dirichlet_spectrum(bad)

    @pytest.mark.parametrize("bad", [16.7, 16.0, "16", True, 0])
    def test_mode_count_must_be_whole(self, bad):
        # 16.7 used to give 16 modes
        assert dirichlet_spectrum(np.int64(16)).mode_count == 16
        with pytest.raises(ValueError, match=r"mode_count must be a whole number >= 1, got"):
            dirichlet_spectrum(bad)

    def test_strictly_increasing(self):
        lam = dirichlet_spectrum(64).eigenvalues
        assert np.all(np.diff(lam) > 0)


class TestFem:
    def test_single_interior_node_by_hand(self):
        # h = 1/2: mass = integral of the hat squared = 1/3, stiffness = 2/h = 4
        mass, stiffness = dense_pencil(2)
        assert mass[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert stiffness[0, 0] == pytest.approx(4.0, rel=1e-15)
        assert assemble_fem(2).eigenvalues[0] == pytest.approx(12.0, rel=1e-14)

    def test_m4_discrete_eigenvalue_closed_form(self):
        # the uniform-mesh formula in its textbook form 6/h^2 (1 - cos)/(2 + cos)
        fem = assemble_fem(4)
        h = 0.25
        expect = (6.0 / h**2) * (1.0 - np.cos(np.pi * h)) / (2.0 + np.cos(np.pi * h))
        assert fem.eigenvalues[0] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("M", [2, 5, 16, 64])
    def test_minmax_lower_bound(self, M):
        assert assemble_fem(M).eigenvalues[0] >= np.pi**2

    def test_no_interior_node(self):
        with pytest.raises(ValueError):
            assemble_fem(1)

    @pytest.mark.parametrize("bad", [8.9, 8.0, "8", True, 1])
    def test_cell_count_must_be_whole(self, bad):
        # 8.9 used to give 8 cells
        assert assemble_fem(np.int64(8)).cell_count == 8
        with pytest.raises(ValueError, match=r"cell count M must be a whole number >= 2"):
            assemble_fem(bad)

    @staticmethod
    def sampled_sines(M):
        """The closed-form eigenvector columns sqrt(6/(2 + cos(j pi h))) sin(j pi x_i)."""
        j = np.arange(1, M)
        return np.sqrt(6.0 / (2.0 + np.cos(j * np.pi / M)))[None, :] * np.sin(np.pi * np.outer(nodes(M), j))

    @pytest.mark.parametrize("M", [8, 32, 128, 512])
    def test_mass_orthonormality(self, M):
        V = self.sampled_sines(M)
        gram = V.T @ dense_pencil(M)[0] @ V
        assert np.abs(gram - np.eye(M - 1)).max() <= 1e-10

    @pytest.mark.parametrize("M", [8, 128, 512])
    def test_closed_form_eigenpairs_solve_the_dense_pencil(self, M):
        # stiffness v_j = lam_j mass v_j, residual relative to lam_j (mass V has entries of order h)
        mass, stiffness = dense_pencil(M)
        V, lam = self.sampled_sines(M), assemble_fem(M).eigenvalues
        resid = np.abs(stiffness @ V - (mass @ V) * lam[None, :]).max(axis=0)
        assert np.all(resid <= 1e-12 * lam)
        assert np.all(np.diff(lam) > 0)

    @pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256, 512])
    def test_eigenvalue_envelope(self, M):
        # lam_k <= lam_{h,k} <= lam_k (1 + C (k h)^2) with C <= 1 on this ladder
        fem = assemble_fem(M)
        spec = dirichlet_spectrum(M - 1)
        lam = spec.eigenvalues
        k = np.arange(1, M)
        assert np.all(fem.eigenvalues >= lam - 1e-9 * lam)
        c_obs = (fem.eigenvalues / lam - 1.0) / (k / M) ** 2
        assert c_obs.max() <= 1.0

    def test_eigenvalue_convergence_fixed_mode(self):
        lam3 = dirichlet_spectrum(3).eigenvalues[2]
        gaps = [abs(assemble_fem(M).eigenvalues[2] - lam3) for M in (16, 64, 256)]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-2 * lam3


class TestCrossGram:
    """The tests' cross-Gram oracle, and the unit-interval guard of the fold."""

    def test_matches_adaptive_quadrature(self):
        h = 1.0 / 7
        G = cross_gram(7, 11)
        rng = np.random.default_rng(3)
        for i, k in zip(rng.integers(0, 6, size=6), rng.integers(0, 11, size=6)):
            f = lambda x: hat(i, x, h) * np.sqrt(2.0) * np.sin((k + 1) * np.pi * x)
            # integrate each smooth side of the hat's kink separately
            left, _ = scipy.integrate.quad(f, i * h, (i + 1) * h, limit=200)
            right, _ = scipy.integrate.quad(f, (i + 1) * h, (i + 2) * h, limit=200)
            assert abs(G[i, k] - (left + right)) <= 1e-12

    def test_reflection_symmetry(self):
        # sin(k pi (1-x)) = (-1)^(k+1) sin(k pi x) mirrors the Gram rows
        G = cross_gram(8, 6)
        for k in range(6):
            sign = (-1.0) ** k  # k zero-based: mode k+1
            np.testing.assert_allclose(G[::-1, k], sign * G[:, k], atol=1e-14)

    def test_mass_solve_reproduces_nodal_values(self):
        # P_h phi_k nodal values approach phi_k(x_i) at second order
        k = 3
        errs = []
        for M in (16, 32, 64):
            c = np.linalg.solve(dense_pencil(M)[0], cross_gram(M, 8)[:, k - 1])
            exact = np.sqrt(2.0) * np.sin(k * np.pi * nodes(M))
            errs.append(np.abs(c - exact).max())
        order = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        assert order <= -1.8


class TestProjection:
    """Column k of the coupling holds the discrete eigen-coordinates of the
    L2 projection of sine mode k."""

    def test_concentrates_on_matching_mode(self):
        C = spectral_coupling(assemble_fem(512), dirichlet_spectrum(8))
        for k in (1, 4, 8):
            d = C[:, k - 1]
            assert abs(abs(d[k - 1]) - 1.0) <= 1e-6
            assert np.delete(np.abs(d), k - 1).max() <= 1e-6

    @hypothesis.given(st.integers(min_value=1, max_value=12), st.integers(min_value=3, max_value=40))
    def test_projection_contracts(self, k, M):
        d = spectral_coupling(assemble_fem(M), dirichlet_spectrum(12))[:, k - 1]
        assert np.sum(d**2) <= 1.0 + 1e-12

    def test_single_cell_closed_form(self):
        # one interior node: coefficient is <hat, phi_1> / sqrt(1/3)
        d = spectral_coupling(assemble_fem(2), dirichlet_spectrum(2))[:, 0]
        inner = 4.0 * np.sqrt(2.0) / np.pi**2  # exact integral of hat * sqrt2 sin(pi x)
        assert abs(d[0]) == pytest.approx(inner / np.sqrt(1.0 / 3.0), rel=1e-12)

    def test_coupling_columns_are_projections(self):
        # the fold against eigh eigenvectors times the cross-Gram, five sheets of aliases
        for M in (2, 3, 8, 64, 128):
            K = 5 * M
            lam_d, C = dense_coupling(M, K)
            fem, spec = assemble_fem(M), dirichlet_spectrum(K)
            fold = spectral_coupling(fem, spec)
            assert np.abs(fold - C).max() <= 1e-11
            np.testing.assert_allclose(fem.eigenvalues, lam_d, rtol=1e-11)
            j, _ = alias_fold(fem, spec)
            assert np.all((j == 0) == np.isin(np.arange(1, K + 1) % (2 * M), (0, M)))
            assert np.all(np.count_nonzero(fold, axis=0) == (j > 0))
