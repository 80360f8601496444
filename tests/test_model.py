import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhlab import (Boundary, DisorderConfig, DisorderTarget, LatticeParams,
                   build_bloch, build_real_space, chiral_residual, pt_residual)
from nhlab.model import SIGMA_X, SIGMA_Z, _per_cell_values, reduced_chain
from nhlab.spectra import (ZERO_MODE_TOL, chain, chain_singular_values, edge_profile,
                           fix_phase, zero_mode_analysis)

from conftest import SIGMA_Y, assert_multisets_close, chiral_operator, parity_operator

params_st = st.builds(
    LatticeParams,
    v=st.floats(-2.0, 2.0),
    r=st.floats(0.05, 2.0),
    gamma=st.floats(0.0, 2.0),
    n_cells=st.integers(1, 8),
    boundary=st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]),
)


class TestLatticeParams:
    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            LatticeParams(v=1.0, r=0.0, gamma=1.0, n_cells=3)
        with pytest.raises(ValueError):
            LatticeParams(v=1.0, r=-0.5, gamma=1.0, n_cells=3)

    def test_rejects_bad_cells_and_gamma(self):
        with pytest.raises(ValueError):
            LatticeParams(v=1.0, r=1.0, gamma=1.0, n_cells=0)
        with pytest.raises(ValueError):
            LatticeParams(v=1.0, r=1.0, gamma=-0.1, n_cells=3)

    @pytest.mark.parametrize("field, bad", [("v", np.nan), ("v", np.inf), ("v", -np.inf),
                                            ("r", np.nan), ("r", np.inf),
                                            ("gamma", np.nan), ("gamma", np.inf)])
    def test_rejects_non_finite_values(self, field, bad):
        # Left in, these surface far away, as "dstebz returned info = 4".
        good = {"v": 0.5, "r": 0.5, "gamma": 1.0}
        with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
            LatticeParams(**(good | {field: bad}), n_cells=3)

    def test_boundary_by_name(self):
        p = LatticeParams(v=0.1, r=1.0, gamma=0.5, n_cells=3, boundary="periodic")
        assert p.boundary is Boundary.PERIODIC
        with pytest.raises(ValueError):
            LatticeParams(v=0.1, r=1.0, gamma=0.5, n_cells=3, boundary="closed")

    def test_dim(self):
        assert LatticeParams(v=0.1, r=1.0, gamma=0.5, n_cells=7).dim == 14


def loop_build_real_space(params, disorder=None):
    """Reference builder: adds every on-site term, then every bond, entry by entry."""
    n = params.n_cells
    rn, vn, gn, onsite = _per_cell_values(params, disorder)
    dim = 2 * n
    H = np.zeros((dim, dim), dtype=complex)
    ai = lambda c: 2 * c        # alpha index of cell c (0-based)
    bi = lambda c: 2 * c + 1
    for c in range(n):
        H[ai(c), ai(c)] += 0.5j * gn[c] + onsite[c]
        H[bi(c), bi(c)] += -0.5j * gn[c] + onsite[c]
        H[ai(c), bi(c)] += vn[c]
        H[bi(c), ai(c)] += vn[c]
    bonds = range(n - 1) if params.boundary is Boundary.OPEN else range(n)
    for c in bonds:
        m = (c + 1) % n
        H[ai(m), ai(c)] += 0.5j * rn[c]
        H[ai(c), ai(m)] += -0.5j * rn[c]
        H[bi(m), bi(c)] += -0.5j * rn[c]
        H[bi(c), bi(m)] += 0.5j * rn[c]
        H[bi(m), ai(c)] += 0.5 * rn[c]
        H[ai(c), bi(m)] += 0.5 * rn[c]
        H[ai(m), bi(c)] += 0.5 * rn[c]
        H[bi(c), ai(m)] += 0.5 * rn[c]
    return H


@st.composite
def disorder_st(draw, n_cells):
    """None, or a config of any target."""
    target = draw(st.sampled_from([None, *DisorderTarget]))
    if target is None:
        return None
    draws = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_cells,
                                   max_size=n_cells)))
    return DisorderConfig(target=target, strength=draw(st.floats(0.0, 2.5)), seed=0,
                          draws=draws)


class TestBuildBloch:
    def test_k_half_pi(self):
        # cos(pi/2) = 0, sin(pi/2) = 1
        p = LatticeParams(v=0.7, r=1.3, gamma=0.9, n_cells=1)
        expected = np.array([[1.3 + 0.45j, 0.7], [0.7, -1.3 - 0.45j]])
        np.testing.assert_allclose(build_bloch(p, np.pi / 2), expected, atol=1e-15)

    def test_pauli_decomposition(self):
        p = LatticeParams(v=-0.4, r=0.8, gamma=1.1, n_cells=1)
        h_x, h_z = -0.4 + 0.8 * np.cos(2.1 + 0.3), 0.8 * np.sin(2.1 + 0.3)
        rebuilt = h_x * SIGMA_X + (h_z + 0.55j) * SIGMA_Z
        np.testing.assert_allclose(build_bloch(p, 2.1 + 0.3), rebuilt, atol=1e-15)

    def test_hermitian_limit(self):
        p = LatticeParams(v=0.3, r=1.0, gamma=0.0, n_cells=1)
        for k in np.linspace(0, 2 * np.pi, 7):
            m = build_bloch(p, k)
            np.testing.assert_array_equal(m, m.conj().T)

    @given(params_st, st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_array_of_momenta_stacks_scalar_matrices(self, p, ks):
        # An array of momenta builds the stack of the scalar matrices, bit for bit.
        ks = np.array(ks)
        np.testing.assert_array_equal(build_bloch(p, ks),
                                      np.stack([build_bloch(p, q) for q in ks]))


class TestBuildRealSpace:
    def test_single_cell_open(self):
        p = LatticeParams(v=0.7, r=0.4, gamma=1.2, n_cells=1)
        H = build_real_space(p)
        np.testing.assert_allclose(H, [[0.6j, 0.7], [0.7, -0.6j]], atol=1e-15)

    @pytest.mark.parametrize("v,n", [(0.5, 6), (1.2, 9), (-0.3, 4)])
    def test_bloch_consistency_periodic(self, v, n):
        # Spectrum of the periodic chain equals the union of the Bloch
        # eigenvalues at the allowed momenta.
        p = LatticeParams(v=v, r=0.8, gamma=0.7, n_cells=n, boundary=Boundary.PERIODIC)
        H = build_real_space(p)
        bloch_eigs = []
        for m in range(n):
            bloch_eigs.extend(np.linalg.eigvals(build_bloch(p, 2 * np.pi * m / n)))
        assert_multisets_close(np.linalg.eigvals(H), bloch_eigs, tol=1e-10)

    def test_exact_edge_state_annihilated(self, defective_params):
        H = build_real_space(defective_params)
        u = np.zeros(60, dtype=complex)
        u[0], u[1] = 1j, 1.0
        np.testing.assert_allclose(H @ u, 0, atol=1e-15)

    def test_banded_structure(self):
        p = LatticeParams(v=0.3, r=0.5, gamma=0.8, n_cells=6)
        H = build_real_space(p)
        for i in range(12):
            for j in range(12):
                if abs(i // 2 - j // 2) > 1:
                    assert H[i, j] == 0

    def test_periodic_has_corner_blocks(self):
        p = LatticeParams(v=0.3, r=0.5, gamma=0.8, n_cells=6, boundary=Boundary.PERIODIC)
        H = build_real_space(p)
        assert np.abs(H[:2, -2:]).max() > 0
        assert np.abs(H[-2:, :2]).max() > 0

    def test_disorder_draw_length_mismatch(self):
        p = LatticeParams(v=0.3, r=0.5, gamma=0.8, n_cells=6)
        dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.1, 0, 5)
        with pytest.raises(ValueError):
            build_real_space(p, disorder=dis)

    @given(params_st)
    @settings(max_examples=40, deadline=None)
    def test_hermitian_limit(self, p):
        p = LatticeParams(v=p.v, r=p.r, gamma=0.0, n_cells=p.n_cells,
                          boundary=p.boundary)
        H = build_real_space(p)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-15)

    @given(params_st, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_builder_bit_for_bit(self, p, data):
        # tobytes compares signed zeros too; periodic N <= 2 chains sum
        # overlapping bonds, which must add up in the loop's order.
        dis = data.draw(disorder_st(p.n_cells))
        got = build_real_space(p, disorder=dis)
        assert got.tobytes() == loop_build_real_space(p, disorder=dis).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_periodic_chains_match_loop_builder(self, n):
        p = LatticeParams(v=0.3, r=0.7, gamma=0.9, n_cells=n, boundary=Boundary.PERIODIC)
        dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_R, 0.6, 4, n)
        assert (build_real_space(p, disorder=dis).tobytes()
                == loop_build_real_space(p, disorder=dis).tobytes())


def mp_eigvals(mp, M):
    """Eigenvalues from mp.eig, which returns (E, ER, EL) for any 1 x 1 matrix."""
    E = mp.eig(M, left=False, right=False)
    return E[0] if isinstance(E, tuple) else E


class TestReducedChain:
    @pytest.mark.parametrize("target", [None, DisorderTarget.HOPPING_R,
                                        DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS])
    @pytest.mark.parametrize("v", [0.55, 1.3, 0.3, 0.5, -0.8])
    def test_squared_spectrum_matches_mpmath(self, v, target):
        # Real, complex, defective (v = gamma/2) and negative-v chains. Each
        # E^2 of the reduced chain, taken twice, is the square of an
        # eigenvalue pair +-E of H, and |det H| = |prod(a_n b_n)|. The
        # tolerance allows for the float hops, each within half an ulp of
        # the exact v_n -+ gamma_n/2 of H's entries.
        mp = pytest.importorskip("mpmath")
        for n in (1, 2, 6):
            p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
            dis = None if target is None else DisorderConfig.from_seed(target, 0.3, 7, n)
            a, b, r = reduced_chain(p, dis)
            assert a.shape == b.shape == (n,) and r.shape == (n - 1,)
            with mp.workdps(60):
                E = mp_eigvals(mp, mp.matrix(build_real_space(p, disorder=dis).tolist()))
                X, Y = mp.zeros(n), mp.zeros(n)
                for i in range(n):
                    X[i, i], Y[i, i] = -mp.mpf(a[i]), mp.mpf(b[i])
                    if i < n - 1:
                        X[i, i + 1], Y[i + 1, i] = -mp.mpf(r[i]), mp.mpf(r[i])
                E2 = mp_eigvals(mp, -X * Y)
                assert_multisets_close([complex(e ** 2) for e in E],
                                       [complex(z) for z in E2] * 2, tol=1e-13)
                det_h = abs(mp.fprod(E))
                det_chain = abs(mp.fprod(mp.mpf(x) * mp.mpf(y) for x, y in zip(a, b)))
                assert abs(det_h - det_chain) <= 1e-13 * det_chain + mp.mpf(10) ** -40


def path_matrix(a, b, r):
    """The real 2N-site path of reduced_chain's hops (a, b, r) as a dense matrix."""
    c = 2 * np.arange(len(a))      # first site of each cell
    A = np.zeros((2 * len(a), 2 * len(a)))
    A[c, c + 1], A[c + 1, c] = -a, b
    A[c[1:] + 1, c[:-1]], A[c[:-1], c[1:] + 1] = r, -r
    return A


class TestReducedPath:
    # spectra.chain_singular_values rests on this path A: it takes H's
    # singular values from the two bidiagonal blocks of A and the zero
    # mode's side from their singular vectors.
    @pytest.mark.parametrize("target", [None, DisorderTarget.HOPPING_R,
                                        DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS])
    @pytest.mark.parametrize("v", [0.55, 1.3, 0.3, 0.5, -0.8])
    def test_rotates_to_hamiltonian(self, v, target):
        # H = i U A U^H with U = I_N (x) [[1, 1], [i, -i]] / sqrt(2), and
        # A = [[0, X], [Y, 0]] after an even/odd permutation.
        u = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
        for n in (1, 2, 7):
            p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
            dis = None if target is None else DisorderConfig.from_seed(target, 0.6, 5, n)
            a, b, r = reduced_chain(p, dis)
            A = path_matrix(a, b, r)
            U = np.kron(np.eye(n), u)
            H = build_real_space(p, disorder=dis)
            np.testing.assert_allclose(1j * U @ A @ U.conj().T, H, rtol=0,
                                       atol=4 * np.finfo(float).eps * np.abs(H).max())
            assert (A[0::2, 1::2] == -np.diag(a) - np.diag(r, 1)).all()
            assert (A[1::2, 0::2] == np.diag(b) + np.diag(r, -1)).all()
            assert (A[0::2, 0::2] == 0).all() and (A[1::2, 1::2] == 0).all()
            # The singular data of the factors are those of H.
            sv = chain_singular_values(chain(p, dis))
            _, s, vh = np.linalg.svd(H)
            assert abs(sv.sigma_max - s[0]) <= 1e-14 * s[0]
            if s[-1] < ZERO_MODE_TOL * s[0]:
                assert sv.smallest.size
                assert (edge_profile(zero_mode_analysis(chain(p, dis)).u0).side
                        == edge_profile(fix_phase(vh[-1].conj())).side)

    def test_none_where_chain_does_not_reduce(self):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6)
        onsite = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, 0, 6)
        ring = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6, boundary=Boundary.PERIODIC)
        for params, dis in ((p, onsite), (ring, None)):
            assert reduced_chain(params, dis) is None


class TestSymmetries:
    def test_chiral_single_cell(self):
        np.testing.assert_array_equal(chiral_operator(1), SIGMA_Y)

    def test_chiral_squares_to_identity(self):
        G = chiral_operator(5)
        np.testing.assert_allclose(G @ G, np.eye(10), atol=1e-15)

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_structural_chirality_clean(self, p):
        # Exact entry-wise anticommutation, no tolerance.
        assert chiral_residual(build_real_space(p)) == 0.0

    @pytest.mark.parametrize("target", [DisorderTarget.HOPPING_R,
                                        DisorderTarget.HOPPING_V,
                                        DisorderTarget.GAIN_LOSS])
    def test_structural_chirality_disordered(self, target):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
        dis = DisorderConfig.from_seed(target, 0.4, 7, 12)
        assert chiral_residual(build_real_space(p, disorder=dis)) == 0.0

    def test_onsite_disorder_breaks_chirality(self):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
        dis = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.1, 7, 12)
        assert chiral_residual(build_real_space(p, disorder=dis)) > 0.0

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_spectral_chirality(self, p):
        w = np.linalg.eigvals(build_real_space(p))
        # Degenerate (defective) spectra scatter computed eigenvalues by
        # ~sqrt(eps); the tight pairing assertion presumes simple ones.
        gaps = np.abs(w[:, None] - w[None, :]) + np.eye(len(w))
        assume(gaps.min() > 1e-3)
        assert_multisets_close(w, -w, tol=1e-10)

    def test_pt_residual_clean(self):
        for boundary in Boundary:
            p = LatticeParams(v=0.7, r=0.9, gamma=1.3, n_cells=8, boundary=boundary)
            assert pt_residual(build_real_space(p)) < 1e-15

    def test_pt_residual_zero_matrix(self):
        assert pt_residual(np.zeros((8, 8))) == 0.0

    def test_pt_residual_detects_broken_symmetry(self):
        # Adding i*delta to the alpha_1 diagonal mismatches exactly two
        # entries, (alpha_1, alpha_1) and (beta_1, beta_1), each by delta.
        delta = 0.037
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=4)
        H = build_real_space(p)
        H[0, 0] += 1j * delta
        P = parity_operator(4)
        R = P @ np.conj(H) @ P - H
        mismatched = np.argwhere(np.abs(R) > 1e-14)
        assert mismatched.tolist() == [[0, 0], [1, 1]]
        assert pt_residual(H) == pytest.approx(delta, rel=1e-12)


    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residuals_match_the_kron_formula(self, n, seed):
        # The per-cell-block residuals equal the dense products of the
        # kron operators, bit for bit, on matrices with no symmetry at all.
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        G, P = chiral_operator(n), parity_operator(n)
        assert chiral_residual(H) == float(np.abs(G @ H @ G + H).max())
        assert pt_residual(H) == float(np.abs(P @ np.conj(H) @ P - H).max())
        R = H.real.copy()
        assert chiral_residual(R) == float(np.abs(G @ R @ G + R).max())
        assert pt_residual(R) == float(np.abs(P @ np.conj(R) @ P - R).max())

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4), (4,)])
    def test_residuals_reject_other_shapes(self, shape):
        for residual in (chiral_residual, pt_residual):
            with pytest.raises(ValueError):
                residual(np.zeros(shape))


class TestDisorderConfig:
    def test_reproducible_draws(self):
        a = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, 42, 20)
        b = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, 42, 20)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_draws_in_range(self):
        d = DisorderConfig.from_seed(DisorderTarget.GAIN_LOSS, 1.0, 0, 1000)
        assert np.all(np.abs(d.draws) <= 1.0)

    def test_rejects_out_of_range_draws(self):
        with pytest.raises(ValueError):
            DisorderConfig(target=DisorderTarget.HOPPING_V, strength=0.1, seed=0,
                           draws=np.array([0.5, 1.5]))

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            DisorderConfig.from_seed(DisorderTarget.HOPPING_V, -0.1, 0, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_strength_and_draws(self, bad):
        with pytest.raises(ValueError, match="strength"):
            DisorderConfig.from_seed(DisorderTarget.HOPPING_V, bad, 0, 4)
        with pytest.raises(ValueError, match="draws"):
            DisorderConfig(target=DisorderTarget.HOPPING_V, strength=0.1, seed=0,
                           draws=np.array([0.5, bad]))

    def test_stack_rows_are_each_seeds_draws(self):
        stack = DisorderConfig.from_seeds(DisorderTarget.GAIN_LOSS, 0.3, [4, 9, 4], 6)
        assert stack.seed == (4, 9, 4) and stack.draws.shape == (3, 6)
        for row, seed in zip(stack.draws, stack.seed):
            np.testing.assert_array_equal(
                row, DisorderConfig.from_seed(DisorderTarget.GAIN_LOSS, 0.3, seed, 6).draws)
        assert DisorderConfig.from_seeds(DisorderTarget.GAIN_LOSS, 0.3, [], 6).draws.shape == (0, 6)
