from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhlab import (Boundary, DisorderConfig, DisorderTarget, ExceptionalPointError,
                   LatticeParams, NoZeroModeError, bloch_eigensystem, build_bloch,
                   build_real_space, chiral_operator, edge_profile, eig,
                   exact_generalized_zero_mode, exact_zero_mode, gap_report,
                   geometric_multiplicity, smallest_abs_eigenvalue,
                   smallest_singular_values, spectral_report, zero_mode_analysis)
from nhlab.spectra import fix_phase

from conftest import assert_multisets_close


def bloch_energy(v, r, gamma, k):
    """Closed-form square-root band dispersion."""
    return np.sqrt(complex((v + r * np.cos(k)) ** 2)
                   + (r * np.sin(k) + 0.5j * gamma) ** 2)


class TestEig:
    def test_diagonal(self):
        w, V = eig(np.diag([1 + 2j, 3.0]))
        assert_multisets_close(w, [1 + 2j, 3.0], tol=1e-14)
        assert np.abs(np.abs(V) - np.eye(2)).max() < 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eig(np.array([[np.nan, 0], [0, 1.0]]))

    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0, 2), st.floats(-7, 7))
    @settings(max_examples=80, deadline=None)
    def test_bloch_matches_closed_form(self, v, r, gamma, k):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        w, _ = eig(build_bloch(p, k).entries)
        E = bloch_energy(v, r, gamma, k)
        assert_multisets_close(w, [E, -E], tol=1e-12)

    def test_residuals(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        w, V = eig(H)
        scale = np.linalg.norm(H, 2)
        for i in range(12):
            assert np.linalg.norm(H @ V[:, i] - w[i] * V[:, i]) < 1e-10 * scale
            assert abs(np.linalg.norm(V[:, i]) - 1) < 1e-12

    def test_defective_point_multiset(self, defective_params):
        # E = 0, +r, -r with algebraic multiplicities 2, N-1, N-1.
        H = build_real_space(defective_params)
        w = np.linalg.eigvals(H)
        tol = 1e-8 * np.linalg.norm(H, 2)
        assert np.sum(np.abs(w) < tol) == 2
        assert np.sum(np.abs(w - 0.5) < tol) == 29
        assert np.sum(np.abs(w + 0.5) < tol) == 29


class TestBlochEigensystem:
    def test_pure_sigma_x(self):
        # gamma=0, k=pi: H = (v - r) sigma_x.
        p = LatticeParams(v=1.0, r=0.5, gamma=0.0, n_cells=1)
        es = bloch_eigensystem(p, np.pi)
        assert es.energies[0] == pytest.approx(0.5)
        assert es.energies[1] == pytest.approx(-0.5)
        np.testing.assert_allclose(es.vectors[0], np.array([1, 1]) / np.sqrt(2),
                                   atol=1e-14)
        np.testing.assert_allclose(np.abs(es.vectors[1]), np.ones(2) / np.sqrt(2),
                                   atol=1e-14)

    def test_exceptional_point_raises(self):
        # v - r = gamma/2 at k = pi makes the square root vanish identically.
        p = LatticeParams(v=0.8, r=0.3, gamma=1.0, n_cells=1)
        with pytest.raises(ExceptionalPointError):
            bloch_eigensystem(p, np.pi)

    def test_chiral_pairing_of_bands(self):
        p = LatticeParams(v=0.4, r=0.7, gamma=0.9, n_cells=1)
        es = bloch_eigensystem(p, 1.3)
        assert es.energies[0] == pytest.approx(-es.energies[1])

    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0, 2), st.floats(-7, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_numeric_solve(self, v, r, gamma, k):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        bm = build_bloch(p, k).entries
        scale = np.linalg.norm(bm, 2)
        try:
            es = bloch_eigensystem(p, k)
        except ExceptionalPointError:
            return
        w, _ = eig(bm)
        assert_multisets_close(es.energies, w, tol=1e-12 * max(scale, 1))
        for E, u in zip(es.energies, es.vectors):
            assert np.linalg.norm(bm @ u - E * u) <= 1e-12 * max(scale, 1)

    def test_theta_parametrizes_eigenvectors(self):
        p = LatticeParams(v=0.4, r=0.7, gamma=0.9, n_cells=1)
        es = bloch_eigensystem(p, 1.3)
        t = es.theta
        u_plus = np.array([np.cos(t / 2), -np.sin(t / 2)])
        assert abs(abs(fix_phase(u_plus).conj() @ es.vectors[0]) - 1) < 1e-12


class TestGeometricMultiplicity:
    def test_identity(self):
        assert geometric_multiplicity(np.eye(5), 1.0) == 5

    def test_simple_defective_block(self):
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert geometric_multiplicity(J, 2.0) == 1

    def test_zero_eigenvalue_defective(self, defective_params):
        H = build_real_space(defective_params)
        assert geometric_multiplicity(H, 0.0, tol=1e-10) == 1

    @pytest.mark.parametrize("lam", [0.5, -0.5])
    def test_band_eigenvalues_single_chain(self, defective_params, lam):
        H = build_real_space(defective_params)
        assert geometric_multiplicity(H, lam, tol=1e-10) == 1

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            geometric_multiplicity(np.eye(2), 1.0, tol=0.0)


class TestSmallestSingularValues:
    def test_zero_matrix(self):
        assert smallest_singular_values(np.zeros((4, 4)), 2) == [0.0, 0.0]

    def test_ascending(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(8, 8))
        s = smallest_singular_values(H, 4)
        assert s == sorted(s)

    def test_numerical_floor_at_exact_point(self):
        for n in [10, 20, 30]:
            p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=n)
            H = build_real_space(p)
            s_min = smallest_singular_values(H, 1)[0]
            s_max = np.linalg.svd(H, compute_uv=False)[0]
            assert s_min < 1e-12 * s_max

    @pytest.mark.parametrize("v", [0.45, 0.5, 0.55])
    def test_decreases_with_chain_length(self, v):
        vals = []
        for n in [10, 20, 30]:
            p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
            vals.append(smallest_singular_values(build_real_space(p), 1)[0])
        assert vals[0] > vals[1] > vals[2]

    def test_oracle_sqrt_eigs_of_gram_matrix(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        s = np.linalg.svd(H, compute_uv=False)
        gram = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(H.conj().T @ H))))[::-1]
        np.testing.assert_allclose(s, gram, atol=1e-10)


@contextmanager
def eigvals_dtypes():
    """Record the dtype of each matrix handed to np.linalg.eigvals."""
    seen, solve = [], np.linalg.eigvals
    np.linalg.eigvals = lambda a: seen.append(np.asarray(a).dtype) or solve(a)
    try:
        yield seen
    finally:
        np.linalg.eigvals = solve


class TestSmallestAbsEigenvalue:
    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 8), st.sampled_from([None, DisorderTarget.HOPPING_R,
                                               DisorderTarget.HOPPING_V,
                                               DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.5), st.integers(0, 1000), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_chiral_chains_solve_real_matrix(self, v, r, gamma, n, target, d, seed,
                                             decay_offset):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = None if target is None else DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis, decay_offset=decay_offset)
        # eigenvalue condition numbers |x||y| / |y^H x| of the complex problem
        w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
        kappa = 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
        assume(kappa.max() < 1e8)   # near-defective spectra scatter by sqrt(eps)
        with eigvals_dtypes() as seen:
            got = smallest_abs_eigenvalue(H)
        assert seen == [np.dtype(float)]
        # Both solvers are backward stable: they differ by at most a few
        # eps * ||H|| per unit of eigenvalue condition number.
        tol = 20 * H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 2) * kappa.max()
        assert abs(got - np.abs(np.linalg.eigvals(H)).min()) <= tol

    def test_clean_chain_takes_real_path(self, defective_params):
        # The defective zero pair scatters by about sqrt(eps) in either solver.
        H = build_real_space(defective_params)
        with eigvals_dtypes() as seen:
            assert smallest_abs_eigenvalue(H) < 1e-6
        assert seen == [np.dtype(float)]

    @pytest.mark.parametrize("seed", range(5))
    def test_onsite_and_phase_fall_back_bit_for_bit(self, seed):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
        onsite = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, seed, 12)
        v_dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, seed, 12)
        for H in (build_real_space(p, disorder=onsite),
                  build_real_space(p, disorder=v_dis, phi=0.4),
                  build_real_space(p, phi=-1.1)):
            with eigvals_dtypes() as seen:
                got = smallest_abs_eigenvalue(H)
            assert seen == [np.dtype(complex)]
            assert got == float(np.abs(np.linalg.eigvals(H)).min())


class TestZeroModeAnalysis:
    def test_edge_state_matches_closed_form(self, defective_params):
        H = build_real_space(defective_params)
        zm = zero_mode_analysis(H)
        u0_exact = exact_zero_mode(30)
        assert abs(abs(zm.u0.conj() @ u0_exact) - 1) < 1e-10
        assert np.linalg.norm(H @ zm.u0) < 1e-10
        assert zm.defective

    def test_generalized_eigenvector(self, defective_params):
        H = build_real_space(defective_params)
        zm = zero_mode_analysis(H)
        assert np.linalg.norm(H @ zm.u0_prime - zm.u0) < 1e-10
        # Compare to the closed-form generalized eigenvector modulo
        # span{u0}: rescale so both solve H x = zm.u0 exactly.
        g = exact_generalized_zero_mode(30, r=0.5, gamma=1.0)
        phase = zm.u0[0] * np.sqrt(2) / 1j   # zm.u0 = phase * (i,1,0,...)/sqrt(2)
        g = g * phase / np.sqrt(2)
        diff = zm.u0_prime - g
        residual = diff - (zm.u0.conj() @ diff) * zm.u0
        assert np.linalg.norm(residual) < 1e-10

    def test_self_chiral_partner(self, defective_params):
        H = build_real_space(defective_params)
        zm = zero_mode_analysis(H)
        G = chiral_operator(30)
        assert np.linalg.norm(G @ zm.u0 + zm.u0) < 1e-10

    def test_no_zero_mode_when_gap_closed(self):
        p = LatticeParams(v=2.0, r=0.5, gamma=1.0, n_cells=30)
        with pytest.raises(NoZeroModeError):
            zero_mode_analysis(build_real_space(p))

    def test_requires_chiral_matrix(self):
        with pytest.raises(ValueError):
            zero_mode_analysis(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))


class TestSpectralReport:
    def test_multiplicities_sum_to_dimension(self, defective_params):
        rep = spectral_report(build_real_space(defective_params))
        assert sum(c.algebraic for c in rep.clusters) == 60
        for c in rep.clusters:
            assert 1 <= c.geometric <= c.algebraic

    def test_defective_point_clusters(self, defective_params):
        rep = spectral_report(build_real_space(defective_params))
        by_alg = sorted((c.algebraic, round(c.value.real, 6)) for c in rep.clusters)
        assert by_alg == [(2, 0.0), (29, -0.5), (29, 0.5)]
        for c in rep.clusters:
            assert c.geometric == 1
        assert rep.is_real
        assert rep.zero_cluster is not None and rep.zero_cluster.defective
        assert rep.real_gap == pytest.approx(0.5, abs=1e-8)

    def test_squared_hamiltonian_characteristic_clusters(self, defective_params):
        # Eigenvalues of H^2 sit at {0, r^2} with multiplicities {2, 2N-2}.
        H = build_real_space(defective_params)
        w2 = np.linalg.eigvals(H @ H)
        assert np.sum(np.abs(w2) < 1e-8) == 2
        assert np.sum(np.abs(w2 - 0.25) < 1e-8) == 58


class TestGapReport:
    def test_real_gapped(self):
        p = LatticeParams(v=2.0, r=0.5, gamma=1.0, n_cells=30,
                          boundary=Boundary.PERIODIC)
        rep = gap_report(p)
        assert rep.real_gap_open and rep.numeric_real_gap_open
        assert not rep.imag_gap

    def test_imag_gapped(self):
        p = LatticeParams(v=1e-9, r=0.2, gamma=1.0, n_cells=30,
                          boundary=Boundary.PERIODIC)
        rep = gap_report(p)
        assert rep.imag_gap and rep.numeric_imag_gap
        assert not rep.real_gap_open

    def test_open_chain_real_spectrum(self):
        p = LatticeParams(v=0.75, r=0.5, gamma=1.0, n_cells=30)
        assert gap_report(p).spectrum_real

    def test_open_chain_complex_spectrum(self):
        p = LatticeParams(v=0.1, r=0.5, gamma=1.0, n_cells=30)
        assert not gap_report(p).spectrum_real


class TestEdgeProfile:
    def test_left_localized(self):
        prof = edge_profile(exact_zero_mode(12))
        assert prof.side == "left"
        np.testing.assert_allclose(prof.weights, [1.0] + [0.0] * 11, atol=1e-14)

    def test_right_localized_negative_v(self):
        p = LatticeParams(v=-0.5, r=0.5, gamma=1.0, n_cells=30)
        zm = zero_mode_analysis(build_real_space(p))
        assert edge_profile(zm.u0).side == "right"

    def test_uniform_is_delocalized(self):
        u = np.ones(24, dtype=complex) / np.sqrt(24)
        assert edge_profile(u).side == "delocalized"

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            edge_profile(np.ones(8, dtype=complex))

    @pytest.mark.parametrize("v,side", [(0.5, "left"), (0.6, "left"),
                                        (-0.5, "right"), (-0.6, "right")])
    def test_side_follows_sign_of_v(self, v, side):
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30)
        zm = zero_mode_analysis(build_real_space(p))
        assert edge_profile(zm.u0).side == side


class TestChiralPairing:
    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0, 2), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_chiral_partner_is_eigenvector(self, v, r, gamma, n):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        H = build_real_space(p)
        scale = max(np.linalg.norm(H, 2), 1e-12)
        w, V = eig(H)
        G = chiral_operator(n)
        for i in range(2 * n):
            gu = G @ V[:, i]
            assert np.linalg.norm(H @ gu + w[i] * gu) <= 1e-10 * scale
