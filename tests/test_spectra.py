from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhlab import (Boundary, DisorderConfig, DisorderTarget, ExceptionalPointError,
                   LatticeParams, NoZeroModeError, bloch_eigensystem, build_bloch,
                   build_real_space, edge_profile, gap_report, geometric_multiplicity,
                   smallest_singular_values, spectral_report, zero_mode_analysis)
from nhlab import spectra
from nhlab.model import reduced_chain
from nhlab.spectra import (CLUSTER_TOL, REALITY_TOL, ZERO_MODE_TOL, chain, chain_norm,
                           chain_singular_values, edge_side, fix_phase,
                           smallest_abs_eigenvalue, zero_mode_split)

from conftest import (assert_multisets_close, chiral_operator, dense_zero_mode,
                      exact_generalized_zero_mode, exact_zero_mode, loop_clusters)


def bloch_energy(v, r, gamma, k):
    """Closed-form square-root band dispersion."""
    return np.sqrt(complex((v + r * np.cos(k)) ** 2)
                   + (r * np.sin(k) + 0.5j * gamma) ** 2)


class TestEig:
    """Dense eig/eigvals on the model's matrices: the oracle other tests lean on."""

    def test_diagonal(self):
        w, V = np.linalg.eig(np.diag([1 + 2j, 3.0]))
        assert_multisets_close(w, [1 + 2j, 3.0], tol=1e-14)
        assert np.abs(np.abs(V) - np.eye(2)).max() < 1e-14

    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0, 2), st.floats(-7, 7))
    @settings(max_examples=80, deadline=None)
    def test_bloch_matches_closed_form(self, v, r, gamma, k):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        w = np.linalg.eigvals(build_bloch(p, k))
        E = bloch_energy(v, r, gamma, k)
        assert_multisets_close(w, [E, -E], tol=1e-12)

    def test_residuals(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        w, V = np.linalg.eig(H)
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
        E, u_plus, u_minus = bloch_eigensystem(p, np.pi)
        assert E == pytest.approx(0.5)
        assert -E == pytest.approx(-0.5)
        np.testing.assert_allclose(u_plus, np.array([1, 1]) / np.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(u_minus), np.ones(2) / np.sqrt(2), atol=1e-14)

    def test_exceptional_point_raises(self):
        # v - r = gamma/2 at k = pi makes the square root vanish identically.
        p = LatticeParams(v=0.8, r=0.3, gamma=1.0, n_cells=1)
        with pytest.raises(ExceptionalPointError):
            bloch_eigensystem(p, np.pi)

    def test_chiral_pairing_of_bands(self):
        # sigma_y H_k sigma_y = -H_k maps the E branch onto the -E branch.
        p = LatticeParams(v=0.4, r=0.7, gamma=0.9, n_cells=1)
        E, u_plus, u_minus = bloch_eigensystem(p, 1.3)
        bm = build_bloch(p, 1.3)
        assert np.linalg.norm(bm @ u_minus + E * u_minus) < 1e-12
        sigma_y = np.array([[0, -1j], [1j, 0]])
        assert abs(abs(np.vdot(sigma_y @ u_plus, u_minus)) - 1) < 1e-12

    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(0, 2), st.floats(-7, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_numeric_solve(self, v, r, gamma, k):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        bm = build_bloch(p, k)
        scale = np.linalg.norm(bm, 2)
        try:
            E, u_plus, u_minus = bloch_eigensystem(p, k)
        except ExceptionalPointError:
            return
        w = np.linalg.eigvals(bm)
        assert_multisets_close([E, -E], w, tol=1e-12 * max(scale, 1))
        for e, u in ((E, u_plus), (-E, u_minus)):
            assert np.linalg.norm(bm @ u - e * u) <= 1e-12 * max(scale, 1)


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

    def test_count_beyond_the_values_raises(self):
        # A 2 x 2 matrix has two singular values; asking for five used to
        # return two without a word.
        assert smallest_singular_values(np.eye(2), 2) == [1.0, 1.0]
        with pytest.raises(ValueError, match="count"):
            smallest_singular_values(np.eye(2), 5)
        with pytest.raises(ValueError, match="count"):
            smallest_singular_values(np.ones((2, 3)), 3)

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
            H = build_real_space(p)
            vals.append(smallest_singular_values(H, 1)[0])
            if v == 0.5:
                # Every a_n = 0: H is exactly singular at every N, and the
                # dense sigma_min is rounding, with no order among N.
                assert chain_singular_values(chain(p)).smallest[0] == 0.0
                assert vals[-1] < 1e-12 * np.linalg.svd(H, compute_uv=False)[0]
        if v != 0.5:
            assert vals[0] > vals[1] > vals[2]

    def test_oracle_sqrt_eigs_of_gram_matrix(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        s = np.linalg.svd(H, compute_uv=False)
        gram = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(H.conj().T @ H))))[::-1]
        np.testing.assert_allclose(s, gram, atol=1e-10)


def non_reducing_chains(seed):
    """(params, disorder) of N = 12 chains that reduced_chain does not reduce."""
    p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
    ring = replace(p, boundary=Boundary.PERIODIC)
    onsite = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, seed, 12)
    v_dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, seed, 12)
    return [(p, onsite), (ring, None), (ring, v_dis)]


@contextmanager
def eigvals_calls():
    """Record the (dtype, shape) of each matrix handed to np.linalg.eigvals."""
    seen, solve = [], np.linalg.eigvals
    np.linalg.eigvals = lambda a: seen.append((np.asarray(a).dtype, np.shape(a))) or solve(a)
    try:
        yield seen
    finally:
        np.linalg.eigvals = solve


def dense_min_abs(params, disorder=None):
    return float(np.abs(np.linalg.eigvals(build_real_space(params, disorder=disorder))).min())


def mp_factors(H, mp):
    """The reduced chain's bidiagonals X and Y of the open chain H, in mpmath.

    The hops are read off H's own entries in exact arithmetic
    (a_n = v_n - gamma_n/2, b_n = v_n + gamma_n/2, r_n twice a cross hop).
    """
    n = H.shape[0] // 2
    v = [mp.mpf(H[2 * i, 2 * i + 1].real) for i in range(n)]
    half_g = [mp.mpf(H[2 * i, 2 * i].imag) for i in range(n)]
    X, Y = mp.zeros(n), mp.zeros(n)
    for i in range(n):
        X[i, i], Y[i, i] = half_g[i] - v[i], v[i] + half_g[i]
        if i < n - 1:
            r = 2 * mp.mpf(H[2 * i + 3, 2 * i].real)
            X[i, i + 1], Y[i + 1, i] = -r, r
    return X, Y


def mp_min_abs_energy(H, mp):
    """min |E| of the open chain H at 60 digits.

    Power iteration on (X Y)^-1 of mp_factors finds its largest
    eigenvalue 1 / min E^2; the residual check fails unless it converged.
    """
    n = H.shape[0] // 2
    with mp.workdps(60):
        X, Y = mp_factors(H, mp)
        M = mp.inverse(X * Y)
        x = mp.ones(n, 1)
        for _ in range(30):
            y = M * x
            lam = (x.T * y)[0] / (x.T * x)[0]
            x = y / mp.norm(y)
        assert mp.norm(M * x - lam * x) < mp.mpf(10) ** -40 * abs(lam)
        return 1 / mp.sqrt(abs(lam))


class TestSmallestAbsEigenvalue:
    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 8), st.sampled_from([None, DisorderTarget.HOPPING_R,
                                               DisorderTarget.HOPPING_V,
                                               DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.5), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_chiral_chains_solve_real_matrix(self, v, r, gamma, n, target, d, seed):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = None if target is None else DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis)
        # eigenvalue condition numbers |x||y| / |y^H x| of the complex problem
        w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
        kappa = 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
        assume(kappa.max() < 1e8)   # near-defective spectra scatter by sqrt(eps)
        with eigvals_calls() as seen:
            got = smallest_abs_eigenvalue(p, dis)
        dense = dense_min_abs(p, dis)
        a, b, _ = reduced_chain(p, dis)
        if not (a.all() and b.all()):
            assert seen == [] and got == 0.0
        elif seen != [(np.dtype(float), (n, n))]:
            # With r <= 3.5 and N <= 8, only a hop below 1e-15 can push
            # Y^-1 X^-1 out of double range; then H itself is solved.
            assert min(np.abs(a).min(), np.abs(b).min()) < 1e-15
            assert seen == [(np.dtype(complex), (2 * n, 2 * n))] and got == dense
        # Both solvers are backward stable: they differ by at most a few
        # eps * ||H|| per unit of eigenvalue condition number.
        tol = 20 * H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 2) * kappa.max()
        assert abs(got - dense) <= tol

    def test_defective_chain_is_exact_zero(self, defective_params):
        # v = gamma/2 makes every a_n zero, so det H = 0 with nothing to solve;
        # the dense solve scatters the defective zero pair by about sqrt(eps).
        r_dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_R, 0.7, 3, 30)
        for dis in (None, r_dis):
            with eigvals_calls() as seen:
                assert smallest_abs_eigenvalue(defective_params, dis) == 0.0
            assert seen == []

    @pytest.mark.parametrize("seed", range(5))
    def test_non_reducing_chains_fall_back_bit_for_bit(self, seed):
        for params, dis in non_reducing_chains(seed):
            assert reduced_chain(params, dis) is None
            with eigvals_calls() as seen:
                got = smallest_abs_eigenvalue(params, dis)
            assert seen == [(np.dtype(complex), (24, 24))]
            assert got == dense_min_abs(params, dis)

    @pytest.mark.parametrize("v", [1e-200, 1e200])
    def test_out_of_range_inverse_falls_back(self, v):
        # gamma = 0 gives a_n = b_n = v. At 1e-200, X^-1 holds (r/a)^k and
        # overflows; at 1e200, Y^-1 X^-1 underflows to zero.
        p = LatticeParams(v=v, r=0.5, gamma=0.0, n_cells=8)
        a, b, _ = reduced_chain(p)
        assert (a == v).all() and (b == v).all()
        with eigvals_calls() as seen:
            got = smallest_abs_eigenvalue(p)
        assert seen[-1] == (np.dtype(complex), (16, 16))
        assert np.isfinite(got) and got == dense_min_abs(p)

    def test_stack_rows_match_single_solves_bit_for_bit(self):
        # v = 1e-200 and gamma = 0: row 0 keeps a_n = b_n = 1e-200, whose
        # inverse overflows, and takes H; row 1's draws cancel v to exact
        # zero hops; rows 2-4 are ordinary and share one real solve.
        p = LatticeParams(v=1e-200, r=0.5, gamma=0.0, n_cells=8)
        draws = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 8))
        draws[0], draws[1] = 0.0, -1e-200
        stack = DisorderConfig(DisorderTarget.HOPPING_V, 1.0, tuple(range(5)), draws)
        with eigvals_calls() as seen:
            got = smallest_abs_eigenvalue(p, stack)
        assert seen == [(np.dtype(float), (3, 8, 8)), (np.dtype(complex), (16, 16))]
        rows = [DisorderConfig(DisorderTarget.HOPPING_V, 1.0, seed, row)
                for seed, row in enumerate(draws)]
        assert got[0] == dense_min_abs(p, rows[0]) and got[1] == 0.0
        assert got.tolist() == [smallest_abs_eigenvalue(p, row) for row in rows]

    def test_non_finite_hops_raise(self):
        with pytest.raises(ValueError, match="finite"):
            smallest_abs_eigenvalue(LatticeParams(v=np.nan, r=0.5, gamma=1.0, n_cells=4))

    def test_onsite_stack_solves_each_dense_h(self):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6)
        stack = DisorderConfig.from_seeds(DisorderTarget.ON_SITE, 0.3, range(4), 6)
        with eigvals_calls() as seen:
            got = smallest_abs_eigenvalue(p, stack)
        assert seen == [(np.dtype(complex), (4, 12, 12))]
        assert got.tolist() == [dense_min_abs(p, DisorderConfig.from_seed(
            DisorderTarget.ON_SITE, 0.3, seed, 6)) for seed in range(4)]

    @given(st.sampled_from(list(DisorderTarget)), st.one_of(st.integers(1, 12), st.just(30)),
           st.floats(-2.0, 2.0), st.booleans(), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.floats(0.0, 3.0), st.integers(0, 1000),
           st.sampled_from([1e-300, 1e-10, 1e-6, 1e-3, 1e300]))
    @settings(max_examples=200, deadline=None)
    def test_split_matches_solved_rows(self, target, n, v, at_half, r, gamma, d, seed, tol):
        # v = gamma/2 puts a zero mode, or one split by the disorder, on
        # most draws: the rows the trace bound settles without eigvals.
        p = LatticeParams(v=gamma / 2 if at_half else v, r=r, gamma=gamma, n_cells=n)
        stack = DisorderConfig.from_seeds(target, d, range(seed, seed + 5), n)
        got = zero_mode_split(p, stack, tol)
        assert got.dtype == bool
        assert got.tolist() == (smallest_abs_eigenvalue(p, stack) > tol).tolist()
        assert zero_mode_split(p, None, tol) is (smallest_abs_eigenvalue(p) > tol)

    @given(st.sampled_from([DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS]),
           st.integers(1, 30), st.floats(0.05, 2.0), st.floats(0.0, 1.5),
           st.integers(0, 1000), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_split_at_a_rows_own_min_abs_e(self, target, n, r, d, seed, row):
        # At tol = min |E| of one row, and one double below it, that row's
        # verdict turns on the last bit: the bound may settle it only if
        # it never exceeds the largest |eig(K)| that eigvals returns.
        p = LatticeParams(v=0.5, r=r, gamma=1.0, n_cells=n)
        stack = DisorderConfig.from_seeds(target, d, range(seed, seed + 5), n)
        values = smallest_abs_eigenvalue(p, stack)
        assume(values[row] > 0.0)
        for tol in (values[row], np.nextafter(values[row], 0.0)):
            assert zero_mode_split(p, stack, tol).tolist() == (values > tol).tolist()

    @pytest.mark.parametrize("params, disorder", [
        (LatticeParams(v=0.55, r=0.5, gamma=1.0, n_cells=40), None),
        (LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30),
         DisorderConfig.from_seed(DisorderTarget.GAIN_LOSS, 0.3, 1, 30)),
    ], ids=["clean-v0.55-N40", "gamma-seed1-d0.3-N30"])
    def test_matches_mpmath(self, params, disorder):
        # min |E| is 1.1e-14 and 7.2e-11 here, far below the dense solve's
        # eps ||H|| kappa error (the clean chain's kappa is about 3e26);
        # sqrt(min |eig(X Y)|) would give 2.1e-9 and 3.6e-8.
        mp = pytest.importorskip("mpmath")
        oracle = mp_min_abs_energy(build_real_space(params, disorder=disorder), mp)
        got = smallest_abs_eigenvalue(params, disorder)
        assert abs(got - oracle) <= 1e-12 * oracle


def mp_eigenvalues(H, mp, dps=40):
    """Every eigenvalue of H at dps digits, from H's own entries."""
    with mp.workdps(dps):
        M = mp.matrix(H.shape[0])
        for i, j in zip(*np.nonzero(H)):
            M[int(i), int(j)] = mp.mpc(H[i, j].real, H[i, j].imag)
        return np.array([complex(e) for e in mp.eig(M, left=False, right=False)])


class TestChainSpectrum:
    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 8), st.sampled_from(list(Boundary)),
           st.sampled_from([None, DisorderTarget.HOPPING_R, DisorderTarget.HOPPING_V,
                            DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.5), st.integers(0, 1000))
    # a_n b_n = -2.5e-487 underflows
    @example(0.0, 1.0, 1e-243, 1, Boundary.OPEN, None, 0.0, 0)
    # a cell hop whose square is subnormal (see test_subnormal_hop_splits_the_path)
    @example(1.3173911724203282e-161, 0.1875, 0.0, 3, Boundary.OPEN, None, 0.0, 0)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_solve(self, v, r, gamma, n, boundary, target, d, seed):
        # A disordered periodic chain takes the dense fallback, tested below.
        assume(target is None or boundary is Boundary.OPEN)
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n, boundary=boundary)
        dis = None if target is None else DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis)
        _, vl, vr = scipy.linalg.eig(H, left=True, right=True)
        kappa = 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
        assume(kappa.max() < 1e8)   # near-defective spectra scatter by sqrt(eps)
        dense = np.linalg.eigvals(H)
        with eigvals_calls() as seen:
            got = spectra.chain_spectrum(spectra.chain(p, dis))
        # No complex solve: the open chain takes at most one real 2N x 2N one.
        assert seen in ([], [(np.dtype(float), (2 * n, 2 * n))])
        assert got.shape == (2 * n,)
        eps = np.finfo(float).eps
        scale = max(np.linalg.norm(H, 2), np.finfo(float).tiny)   # H = 0 at v = gamma = 0
        tol = 20 * H.shape[0] * eps * scale * kappa.max()
        if boundary is Boundary.PERIODIC:
            # sin(2 pi m / N) is not exactly zero at m = N/2, so at a Bloch
            # exceptional point the closed-form E = sqrt(E^2) is off by
            # about sqrt(eps ||H||^2), however well H itself is conditioned.
            tol = max(tol, 4 * np.sqrt(eps) * scale)
        assert_multisets_close(got, dense, tol=tol)

    @pytest.mark.parametrize("n, v, boundary", [
        (12, -0.525, Boundary.OPEN), (12, 0.45, Boundary.OPEN),
        (12, 1.3, Boundary.OPEN), (3, 0.3, Boundary.PERIODIC),
    ])
    def test_matches_mpmath(self, n, v, boundary):
        # The dense solve misses the open N = 12, v = -0.525 spectrum by
        # 1.5e-7; its eigenvalue condition numbers reach 1.7e9.
        mp = pytest.importorskip("mpmath")
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n, boundary=boundary)
        H = build_real_space(p)
        oracle = mp_eigenvalues(H, mp)
        assert_multisets_close(spectra.chain_spectrum(spectra.chain(p)), oracle,
                               tol=10 * np.finfo(float).eps * np.linalg.norm(H, 2))

    def test_disordered_chain_matches_mpmath(self):
        # v disorder at v = gamma/2 gives a_n of both signs, so the lower
        # hops of 7 of the 12 cells flip sign and the spectrum is complex.
        # The dense solve misses this 60-digit spectrum by 28 eps ||H||_2.
        mp = pytest.importorskip("mpmath")
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
        dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.1, 2, 12)
        a, b, _ = reduced_chain(p, dis)
        assert (a * b < 0).sum() == 7
        H = build_real_space(p, disorder=dis)
        oracle = mp_eigenvalues(H, mp, dps=60)
        assert_multisets_close(spectra.chain_spectrum(spectra.chain(p, dis)), oracle,
                               tol=10 * np.finfo(float).eps * np.linalg.norm(H, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_non_reducing_chains_fall_back_bit_for_bit(self, seed):
        for params, dis in non_reducing_chains(seed):
            if dis is None:     # a clean ring takes the Bloch blocks
                continue
            with eigvals_calls() as seen:
                got = spectra.chain_spectrum(spectra.chain(params, dis))
            assert seen == [(np.dtype(complex), (24, 24))]
            np.testing.assert_array_equal(
                got, np.linalg.eigvals(build_real_space(params, disorder=dis)))

    def test_subnormal_hop_splits_the_path(self):
        # The cell hops 1.3e-161 square to a subnormal; squared inside the
        # path, they pulled +-0.1875 to +-0.187458161.
        p = LatticeParams(v=1.3173911724203282e-161, r=0.1875, gamma=0.0, n_cells=3)
        w = np.sort_complex(spectra.chain_spectrum(spectra.chain(p)))
        assert w.tolist() == [-0.1875] * 2 + [0.0] * 2 + [0.1875] * 2

    @pytest.mark.parametrize("n, r, gamma", [(1, 0.5, 1.0), (2, 0.65, 1.0),
                                             (30, 0.5, 1.0), (30, 1.3, 0.7)])
    def test_defective_point_is_exact(self, n, r, gamma):
        # v = gamma/2 cuts every cell hop, leaving two lone sites and N - 1
        # two-site blocks [[0, r], [r, 0]].
        p = LatticeParams(v=gamma / 2, r=r, gamma=gamma, n_cells=n)
        w = np.sort_complex(spectra.chain_spectrum(spectra.chain(p)))
        assert w.tolist() == [-r] * (n - 1) + [0.0, 0.0] + [r] * (n - 1)


class TestReducedPathSingularData:
    @pytest.mark.parametrize("target", [DisorderTarget.HOPPING_R, DisorderTarget.HOPPING_V,
                                        DisorderTarget.GAIN_LOSS])
    def test_norm_and_edge_side_match_dense(self, target):
        # nhlab disorder reads ||H||_2 and the zero mode's side off the
        # factors of the real path A. The balanced path of chain_spectrum
        # would not do: its imaginary gauge changes both.
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        present = 0
        for seed in range(10):
            for d in (0.05, 0.1, 0.2, 0.3):
                dis = DisorderConfig.from_seed(target, d, seed, 30)
                H = build_real_space(p, disorder=dis)
                _, s_h, vh_h = np.linalg.svd(H)
                sv = chain_singular_values(chain(p, dis))
                assert abs(sv.sigma_max - s_h[0]) <= 1e-14 * s_h[0]
                assert chain_norm(chain(p, dis)) == sv.sigma_max
                if np.abs(np.linalg.eigvals(H)).min() < ZERO_MODE_TOL * s_h[0]:
                    assert (edge_profile(zero_mode_analysis(chain(p, dis)).u0).side
                            == edge_profile(fix_phase(vh_h[-1].conj())).side)
                    present += 1
        assert present >= 10


def dense_cell_weights(H):
    """Per-cell weights of the smallest right singular vector of H, with H's
    two smallest singular values."""
    _, s, vh = np.linalg.svd(H)
    x = np.abs(vh[-1]) ** 2
    return x[0::2] + x[1::2], s[-1], s[-2]


def null_weights(form, require_chiral=True):
    """Per-cell weights of u0 of zero_mode_analysis at tol = 2, which puts
    every singular value below the cut: u0 is then a unit right singular
    vector of sigma_min on any chain, a zero mode or not."""
    return edge_profile(zero_mode_analysis(form, 2.0, require_chiral).u0).weights


# N = 1 chains with H = 0: gamma = 0 and v = 0 (open) or v = -r (periodic).
ZERO_CHAINS = [LatticeParams(v=0.0, r=0.5, gamma=0.0, n_cells=1),
               LatticeParams(v=-0.5, r=0.5, gamma=0.0, n_cells=1, boundary=Boundary.PERIODIC)]


class TestChainSingularValues:
    @pytest.mark.parametrize("params, disorder", [
        (LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30), None),
        (LatticeParams(v=0.55, r=0.5, gamma=1.0, n_cells=40), None),
        (LatticeParams(v=0.3, r=0.5, gamma=1.0, n_cells=30), None),
        (LatticeParams(v=-0.525, r=0.5, gamma=1.0, n_cells=30), None),
        (LatticeParams(v=1.3, r=0.5, gamma=1.0, n_cells=20), None),
        (LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30),
         DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, 4, 30)),
        (LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30),
         DisorderConfig.from_seed(DisorderTarget.GAIN_LOSS, 0.3, 1, 30)),
    ], ids=["v0.5-N30", "v0.55-N40", "v0.3-N30", "v-0.525-N30", "v1.3-N20",
            "v-seed4-d0.3-N30", "gamma-seed1-d0.3-N30"])
    def test_matches_mpmath(self, params, disorder):
        # Every singular value to 1e-14 relative, where the dense SVD's
        # sigma_min is 2.1e-27 for a true 4.95e-41 (v = 0.55, N = 40) and
        # 3.8e-17 for 4.6e-40 (v = -0.525, N = 30).
        mp = pytest.importorskip("mpmath")
        H = build_real_space(params, disorder=disorder)
        with mp.workdps(80):
            X, Y = mp_factors(H, mp)
            oracle = sorted(s for M in (X, Y) for s in mp.svd_r(M, compute_uv=False))
            exact_zeros = sum(s < mp.mpf(10) ** -70 for s in oracle)
            oracle = np.array([float(s) for s in oracle])
        sv = chain_singular_values(chain(params, disorder), tol=2.0)   # every value below 2 sigma_max
        assert sv.smallest.shape == (params.dim,)
        assert abs(sv.sigma_max - oracle[-1]) <= 1e-14 * oracle[-1]
        assert exact_zeros == (params.v == 0.5 and disorder is None)
        assert (sv.smallest[:exact_zeros] == 0.0).all()
        np.testing.assert_allclose(sv.smallest[exact_zeros:], oracle[exact_zeros:],
                                   rtol=1e-14, atol=0)

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 12), st.sampled_from([None, DisorderTarget.HOPPING_R,
                                                DisorderTarget.HOPPING_V,
                                                DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.5), st.integers(0, 1000))
    @example(1.1125369292536007e-308, 1.0, 0.0, 1, None, 0.0, 0)   # subnormal hops
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_svd(self, v, r, gamma, n, target, d, seed):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = None if target is None else DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis)
        dense = np.linalg.svd(H, compute_uv=False)[::-1]
        sv = chain_singular_values(chain(p, dis), tol=2.0)
        # The dense SVD is backward stable: each sigma_i is off by a few
        # eps * sigma_max, a relative error of eps * kappa_i with
        # kappa_i = sigma_max / sigma_i. Where kappa_i is large the dense
        # value is noise: at v = gamma = d = 3.03e-38, r = 0.05, N = 4 it
        # reads 0 and 2.5e-18 where 500-digit mpmath and
        # chain_singular_values agree on 2.4e-147 and 4.0e-146.
        assert abs(sv.sigma_max - dense[-1]) <= 1e-14 * dense[-1]
        assert (np.abs(sv.smallest - dense) <= 8 * p.dim * np.finfo(float).eps * dense[-1]).all()
        # Where sigma_min is well separated its right vector is determined,
        # and so are its per-cell weights.
        weights, s1, s2 = dense_cell_weights(H)
        null = null_weights(chain(p, dis))
        assert null.shape == (n,) and abs(null.sum() - 1.0) < 1e-14
        if s2 - s1 > 1e-3 * dense[-1]:
            np.testing.assert_allclose(null, weights, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("v, target", [(0.3, None), (0.5, None),
                                           (0.3, DisorderTarget.HOPPING_R),
                                           (0.5, DisorderTarget.HOPPING_R)])
    def test_shortest_chains_match_dense(self, n, v, target):
        # N = 1 has no bond (r is empty); N = 2 has one.
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
        dis = None if target is None else DisorderConfig.from_seed(target, 0.4, 2, n)
        H = build_real_space(p, disorder=dis)
        dense = np.linalg.svd(H, compute_uv=False)[::-1]
        sv = chain_singular_values(chain(p, dis), tol=2.0)
        np.testing.assert_allclose(sv.smallest, dense, rtol=0, atol=1e-15)
        assert (sv.smallest[0] == 0.0) == (v == 0.5)
        weights, s1, s2 = dense_cell_weights(H)
        assert s2 - s1 > 0.1
        np.testing.assert_allclose(null_weights(chain(p, dis)), weights, rtol=0, atol=1e-14)

    def test_values_below_the_cut_only(self, defective_params):
        # At v = gamma/2 only X's exact zero lies below tol * sigma_max. At
        # v = 1.3 none does; at tol = 2, every one does, and u0 is sigma_min's.
        sv = chain_singular_values(chain(defective_params))
        assert sv.smallest.tolist() == [0.0]
        assert edge_profile(zero_mode_analysis(chain(defective_params)).u0).side == "left"
        p = LatticeParams(v=1.3, r=0.5, gamma=1.0, n_cells=30)
        far = chain_singular_values(chain(p))
        assert far.smallest.size == 0
        weights, s1, _ = dense_cell_weights(build_real_space(p))
        assert s1 > 0.3
        np.testing.assert_allclose(null_weights(chain(p)), weights, rtol=0, atol=1e-12)

    def test_interior_zero_hop_is_exact(self):
        # a_3 = 0 splits X's Golub-Kahan matrix into two odd blocks, each
        # with an eigenvalue 0 that bisection returns as -1.5e-308. X's null
        # vector lives on cells 0-3 only.
        draws = np.array([0.3, -0.2, 0.4, 0.0, 0.5, -0.6, 0.1, 0.7])
        dis = DisorderConfig(target=DisorderTarget.HOPPING_V, strength=0.2, seed=0,
                             draws=draws)
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=8)
        assert reduced_chain(p, dis)[0][3] == 0.0
        sv = chain_singular_values(chain(p, dis))
        assert sv.smallest.tolist() == [0.0]
        weights, _, s2 = dense_cell_weights(build_real_space(p, disorder=dis))
        assert s2 > 0.4
        null = edge_profile(zero_mode_analysis(chain(p, dis)).u0).weights
        np.testing.assert_allclose(null, weights, rtol=0, atol=1e-12)
        assert (null[4:] == 0.0).all()

    @pytest.mark.parametrize("n", [30, 40])
    def test_tie_takes_x(self, n):
        # At v = 0, |a_n| = |b_n|: X and Y share their singular values
        # exactly and the pseudo-null space of H is two-dimensional. The
        # dense SVD returns a rounding-dependent mix of the two vectors
        # ("delocalized" at N = 30, "right" at N = 40); X's, at the left
        # edge, is taken.
        p = LatticeParams(v=0.0, r=1.0, gamma=1.0, n_cells=n)
        sv = chain_singular_values(chain(p))
        assert sv.smallest.size == 2 and sv.smallest[0] == sv.smallest[1]
        a, _, r = reduced_chain(p)
        vx = np.linalg.svd(-np.diag(a) - np.diag(r, 1))[2][-1]
        zm = zero_mode_analysis(chain(p))
        np.testing.assert_allclose(edge_profile(zm.u0).weights, vx ** 2, rtol=0, atol=1e-12)
        assert edge_profile(zm.u0).side == "left"

    def test_zero_chain_has_every_singular_value_zero(self):
        sv = chain_singular_values(chain(ZERO_CHAINS[0]))
        assert sv.sigma_max == 0.0 and sv.smallest.tolist() == [0.0, 0.0]
        assert null_weights(chain(ZERO_CHAINS[0])).tolist() == [pytest.approx(1.0, abs=1e-15)]

    @pytest.mark.parametrize("info", [-6, 1])
    def test_lapack_failure_raises(self, monkeypatch, info):
        # dstebz reports an illegal argument (info < 0) or a failed
        # bisection (info > 0) only in info; its output is then wrong
        # without any other sign.
        real = scipy.linalg.lapack.dstebz
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz",
                            lambda *args: (*real(*args)[:-1], info))
        with pytest.raises(np.linalg.LinAlgError, match=f"dstebz returned info = {info}"):
            chain_singular_values(chain(LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=4)))

    def test_record_holds_only_the_values(self):
        assert [f.name for f in fields(spectra.ChainSingularValues)] == ["sigma_max", "smallest"]


class TestChainNormAndNullWeights:
    @pytest.mark.parametrize("seed", range(5))
    def test_non_reducing_chains_fall_back_bit_for_bit(self, seed):
        for params, dis in non_reducing_chains(seed):
            if dis is None:     # a clean ring's form is its Bloch blocks
                with pytest.raises(ValueError, match="Bloch blocks"):
                    zero_mode_analysis(chain(params, dis))
                continue
            H = build_real_space(params, disorder=dis)
            weights, _, _ = dense_cell_weights(H)
            # u0 is the dense right vector through fix_phase, which rescales it.
            np.testing.assert_allclose(null_weights(chain(params, dis), require_chiral=False),
                                       weights, rtol=0, atol=1e-14)
            assert chain_norm(chain(params, dis)) == np.linalg.norm(H, 2)

    def test_forms_a_function_does_not_take_raise(self):
        # chain_singular_values takes hops only; chain refuses a stack of
        # draws, whose stack of H would read as Bloch blocks.
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6)
        onsite = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, 0, 6)
        ring = replace(p, boundary=Boundary.PERIODIC)
        for form in (chain(p, onsite), chain(ring)):
            with pytest.raises(ValueError, match="reduced hops"):
                chain_singular_values(form)
        stack = DisorderConfig.from_seeds(DisorderTarget.ON_SITE, 0.3, [0, 1], 6)
        with pytest.raises(ValueError, match="stack"):
            chain(p, stack)

    @pytest.mark.parametrize("n, v", [(1, 0.3), (2, -0.5), (12, 0.5), (30, 1.3)])
    def test_clean_ring_takes_the_bloch_blocks(self, n, v):
        # H is block-diagonal in k, so ||H||_2 is the largest ||H_k||_2.
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n, boundary=Boundary.PERIODIC)
        h_k = build_bloch(p, 2 * np.pi * np.arange(n) / n)
        assert chain_norm(chain(p)) == np.linalg.norm(h_k, 2, axis=(1, 2)).max()
        dense = np.linalg.norm(build_real_space(p), 2)
        assert abs(chain_norm(chain(p)) - dense) <= 1e-14 * dense


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

    @pytest.mark.parametrize("v", [0.5, -0.5, 0.3, 0.7, -0.25])
    def test_given_eigenvalues_match_own_solve(self, v):
        H = build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30))
        own = zero_mode_analysis(H)
        given = zero_mode_analysis(H, eigenvalues=np.linalg.eigvals(H))
        assert given.u0.tobytes() == own.u0.tobytes()
        flags = ("defective", "algebraic_multiplicity", "geometric_multiplicity")
        assert [getattr(given, f) for f in flags] == [getattr(own, f) for f in flags]

    @pytest.mark.parametrize("v,n", [(v, n) for v in (0.5, -0.5, 0.45, 0.6)
                                     for n in (10, 30, 60) if (v, n) != (0.6, 10)])
    def test_u0_prime_is_the_lstsq_solution_held_in_the_record(self, v, n):
        # (0.6, 10) is left out: sigma_min = 4.9e-8 there is above the cut.
        H = build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n))
        zm = zero_mode_analysis(H)
        want, *_ = np.linalg.lstsq(H, zm.u0, rcond=ZERO_MODE_TOL)
        assert np.linalg.norm(zm.u0_prime - want) <= 1e-13 * np.linalg.norm(want)
        assert all(x.size <= 2 * n for x in vars(zm).values() if isinstance(x, np.ndarray))
        before = zm.u0_prime.tobytes()
        H[:] = 0.0
        assert zm.u0_prime.tobytes() == before

    @pytest.mark.parametrize("H", [build_real_space(p) for p in ZERO_CHAINS]
                             + [np.zeros((6, 6))], ids=["open", "periodic", "6x6"])
    def test_zero_matrix_has_every_vector_null(self, H):
        zm = zero_mode_analysis(H)
        assert zm.geometric_multiplicity == zm.algebraic_multiplicity == len(H)
        assert not zm.defective
        assert np.linalg.norm(zm.u0) == pytest.approx(1.0)
        assert not zm.u0_prime.any()


class TestReducedZeroMode:
    """zero_mode_analysis solves a clean open chain on its reduced hops; the
    dense solve of H (conftest.dense_zero_mode) is the reference wherever
    its verdict is clear of the cut."""

    # At N = 1, ||u0'|| is about 1 / gamma: a gamma below 1e-100 would put
    # its square, which the norms below take, beyond double range.
    @given(st.integers(1, 12), st.floats(0.05, 2.0),
           st.one_of(st.just(0.0), st.floats(1e-100, 2.0)),
           st.one_of(st.sampled_from([0.5, -0.5]), st.none()), st.floats(-2.0, 2.0),
           st.sampled_from([ZERO_MODE_TOL, 1e-3, 1e-12]))
    @settings(max_examples=150, deadline=None)
    @example(n=12, r=0.5, gamma=1.0, edge=0.5, v_free=0.0, tol=ZERO_MODE_TOL)
    @example(n=12, r=0.5, gamma=1.0, edge=-0.5, v_free=0.0, tol=ZERO_MODE_TOL)
    @example(n=1, r=0.5, gamma=0.0, edge=None, v_free=0.0, tol=ZERO_MODE_TOL)   # H = 0
    @example(n=11, r=0.05, gamma=1.871456653696443, edge=-0.5, v_free=0.0,
             tol=ZERO_MODE_TOL)     # eigvals puts four values in the zero cluster
    def test_verdicts_match_dense_solve(self, n, r, gamma, edge, v_free, tol):
        # v = +-gamma/2, the exceptional points, is drawn often.
        p = LatticeParams(v=v_free if edge is None else edge * gamma, r=r, gamma=gamma,
                          n_cells=n)
        H = build_real_space(p)
        s = np.linalg.svd(H, compute_uv=False)
        cut = tol * s[0]
        # Presence and the geometric count are clear: no singular value
        # lies within a factor 100 of the cut.
        assume(not ((s > cut / 100) & (s < 100 * cut)).any())
        want = dense_zero_mode(H, tol)
        try:
            got = zero_mode_analysis(H, tol=tol)
        except NoZeroModeError:
            got = None
        assert (got is None) == (want is None)
        if got is None:
            return
        assert got.geometric_multiplicity == want.geometric_multiplicity
        # So is the dense algebraic count, when it is at least the geometric
        # one, even (the spectrum of a chiral H is symmetric about 0), and
        # no eigenvalue but the scattered zero pair lies within a factor 10
        # of its radius. Where eigvals scatters the pair further (as at
        # v = -gamma/2 with r << gamma), the dense count is 0 or 1.
        e = np.sort(np.abs(np.linalg.eigvals(H)))
        radius = min(max(cut, 2 * e[0]), 1e-3 * s[0])
        alg = want.algebraic_multiplicity
        if edge is not None and gamma > 0:
            # At v = +-gamma/2 the spectrum is exactly {0, 0, +-r} (N - 1
            # times each), and +-r lie far outside the cut: the count is 2.
            # eigvals can scatter the +-r Jordan blocks into the cluster, as
            # at the second @example, where four values of modulus 1.3e-3
            # lie inside a radius of 1.9e-3.
            assert got.algebraic_multiplicity == 2
            assert got.defective == (got.geometric_multiplicity == 1)
        elif (alg >= want.geometric_multiplicity and alg % 2 == 0
                and not ((e > radius / 10) & (e < 10 * radius) & (e > 2.01 * e[0])).any()):
            assert got.defective == want.defective
        # u0 is a unit right singular vector of sigma_min; at tol <= 1e-8,
        # sigma_min is at most 1e-10 ||H||.
        assert np.linalg.norm(got.u0) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.linalg.norm(H @ got.u0) - s[-1]) <= 1e-12 * s[0]
        if tol <= ZERO_MODE_TOL:
            assert np.linalg.norm(H @ got.u0) <= 1e-10 * s[0]
        # u0' is H^+ u0 over the singular values not below the cut.
        lsq, *_ = np.linalg.lstsq(H, got.u0, rcond=tol)
        kept = s[~spectra.below_cut(s, s[0], tol)]
        cond = s[0] / kept[-1] if kept.size else 1.0
        scale = max(np.linalg.norm(lsq), 1.0 / s[0]) if s[0] else 0.0
        assert np.linalg.norm(got.u0_prime - lsq) <= 1e-12 * cond * scale
        # u0 lies on one sublattice of the path: Gamma u0 = -u0 where X
        # holds sigma_min (as at v = gamma/2), +u0 where Y does.
        _, values = spectra._factor_singular_values(chain(p), tol)
        sign = 1 if spectra._null_factor(values) else -1
        assert np.abs(chiral_operator(n) @ got.u0 - sign * got.u0).max() <= 1e-15

    def test_edge_state_gauge(self, defective_params):
        # The largest component ties with its cell partner; beta is real
        # positive, so the edge state is (i, 1, 0, ...) / sqrt(2).
        zm = zero_mode_analysis(build_real_space(defective_params))
        np.testing.assert_allclose(zm.u0, exact_zero_mode(30), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("v, r", [(0.5, 0.5), (-0.5, 0.5), (0.3, 0.5), (0.0, 1.0)])
    def test_takes_no_dense_solve(self, monkeypatch, v, r):
        # One N x N SVD, of the factor that holds sigma_min; the other factor
        # is solved or, when it too has values below the cut (v = 0, where
        # |a_n| = |b_n|), decomposed by its own SVD. At v < gamma/2 the one
        # eigvals is of chain_spectrum's real path.
        seen = {"svd": [], "eigvals": []}
        svd, eigvals = np.linalg.svd, np.linalg.eigvals

        def counted_svd(a, *args, **kwargs):
            seen["svd"].append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counted_eigvals(a):
            seen["eigvals"].append(np.asarray(a).dtype)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        zm = zero_mode_analysis(build_real_space(LatticeParams(v=v, r=r, gamma=1.0, n_cells=40)))
        assert zm.geometric_multiplicity == (2 if v == 0.0 else 1)
        assert seen["svd"] == [(40, 40)] * zm.geometric_multiplicity
        assert seen["eigvals"] == ([np.dtype(float)] if abs(v) < 0.5 else [])


class TestZeroModeForms:
    """zero_mode_analysis takes what chain returns: the hops of an open
    chain that reduces, disordered or not, or H; an H that is a clean open
    chain is solved on its hops."""

    @given(st.integers(1, 12), st.floats(-2.0, 2.0), st.floats(0.05, 2.0),
           st.floats(0.0, 2.0), st.sampled_from([DisorderTarget.HOPPING_R,
                                                 DisorderTarget.HOPPING_V,
                                                 DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.0), st.integers(0, 1000), st.sampled_from([ZERO_MODE_TOL, 1e-3]))
    @settings(max_examples=150, deadline=None)
    @example(n=12, v=0.5, r=0.5, gamma=1.0, target=DisorderTarget.HOPPING_R, d=0.3, seed=1,
             tol=ZERO_MODE_TOL)     # every a_n = 0: X is singular
    @example(n=12, v=-0.5, r=0.5, gamma=1.0, target=DisorderTarget.HOPPING_R, d=0.3, seed=1,
             tol=ZERO_MODE_TOL)     # every b_n = 0: Y is singular
    def test_disordered_hops_match_dense_solve(self, n, v, r, gamma, target, d, seed, tol):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis)
        s = np.linalg.svd(H, compute_uv=False)
        cut = tol * s[0]
        # Presence and the geometric count are clear: no singular value
        # lies within a factor 100 of the cut.
        assume(not ((s > cut / 100) & (s < 100 * cut)).any())
        want = dense_zero_mode(H, tol)
        try:
            got = zero_mode_analysis(chain(p, dis), tol)
        except NoZeroModeError:
            got = None
        assert (got is None) == (want is None)
        if got is None:
            return
        assert got.geometric_multiplicity == want.geometric_multiplicity
        assert np.linalg.norm(got.u0) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(H @ got.u0) <= cut + 1e-13 * s[0]
        # A two-dimensional null space has no one vector: the dense one is a
        # rounding-dependent mix (test_cli's test_tied_factors_take_the_left_vector).
        if got.geometric_multiplicity == 1:
            assert edge_profile(got.u0).side == edge_profile(want.u0).side

    @pytest.mark.parametrize("n", [1, 2, 12, 30])
    @pytest.mark.parametrize("v", [0.5, -0.5, 0.3, 0.0, 0.7, 2.0])
    def test_clean_h_and_its_hops_give_equal_records(self, n, v):
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
        records = []
        for form in (build_real_space(p), chain(p)):
            try:
                records.append(zero_mode_analysis(form))
            except NoZeroModeError:
                records.append(None)
        from_h, from_hops = records
        assert (from_h is None) == (from_hops is None)
        if from_h is not None:
            for f in fields(from_h):
                assert (np.asarray(getattr(from_h, f.name)).tobytes()
                        == np.asarray(getattr(from_hops, f.name)).tobytes())

    def test_bloch_blocks_raise(self):
        ring = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6, boundary=Boundary.PERIODIC)
        with pytest.raises(ValueError, match="Bloch blocks"):
            zero_mode_analysis(chain(ring))


def cluster_chains(count=40, seed=7):
    """Fixed open and periodic chains, clean and with each disorder target."""
    rng = np.random.default_rng(seed)
    special = (0.5, -0.5, 0.5 + 1e-12, 0.5 - 1e-12)
    targets = (None, *DisorderTarget)
    chains = []
    for i in range(count):
        n = (60, 60, 40, 40)[i] if i < 4 else int(rng.choice((6, 9, 13, 20, 30)))
        v = special[i % 4] if i % 2 else float(rng.uniform(-2.0, 2.0))
        p = LatticeParams(v=v, r=float(rng.uniform(0.2, 1.2)), gamma=1.0, n_cells=n,
                          boundary=(Boundary.OPEN, Boundary.PERIODIC)[i // 2 % 2])
        target = targets[i % len(targets)]
        dis = None if target is None else DisorderConfig.from_seed(
            target, float(rng.uniform(0.0, 0.5)), int(rng.integers(1000)), n)
        chains.append((p, dis))
    return chains


class TestSpectralReport:
    def test_clusters_match_loop_reference(self):
        for p, dis in cluster_chains():
            H = build_real_space(p, disorder=dis)
            rep = spectral_report(H)
            got = [(c.value, c.algebraic, c.geometric) for c in rep.clusters]
            # repr round-trips each float, so equal reprs mean equal bits
            assert repr(got) == repr(loop_clusters(H, rep.eigenvalues)), (p, dis)

    def test_clusters_independent_of_order(self):
        # The first-match loop split the 29-fold bands into (1, 28) here.
        p = LatticeParams(v=0.5, r=0.65, gamma=1.0, n_cells=30)
        rep = spectral_report(build_real_space(p))
        assert sorted(c.algebraic for c in rep.clusters) == [2, 29, 29]
        assert all(c.geometric == 1 for c in rep.clusters)

    @staticmethod
    def _geometric_svds(monkeypatch, H):
        """(spectral_report(H), the eigenvalues it calls geometric_multiplicity at)."""
        seen = []
        solve = spectra.geometric_multiplicity
        monkeypatch.setattr(spectra, "geometric_multiplicity",
                            lambda *a, **kw: seen.append(a[1]) or solve(*a, **kw))
        return spectral_report(H), seen

    # At v = gamma/2 the three repeated clusters, 0 and +-r, take their
    # geometric counts from the hops (_simple_eigenvalues), with no SVD.
    @pytest.mark.parametrize("v,calls", [(1.3, 0), (0.5, 0)])
    def test_svd_only_for_repeated_eigenvalues(self, monkeypatch, v, calls):
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30)
        _, seen = self._geometric_svds(monkeypatch, build_real_space(p))
        assert len(seen) == calls

    def test_repeated_clusters_off_the_rule_take_the_svd(self, monkeypatch):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        H = build_real_space(p)
        # Dense path: r disorder leaves one repeated cluster, the zero pair,
        # and one ulp on one entry leaves all three. A zero cluster takes
        # the geometric count of its zero-mode record, so only +-r take the SVD.
        r_disorder = build_real_space(p, disorder=DisorderConfig.from_seed(
            DisorderTarget.HOPPING_R, 0.3, 2, 30))
        for M, calls in ((r_disorder, 0), (self._nudged(H, (1, 0)), 2)):
            rep, seen = self._geometric_svds(monkeypatch, M)
            assert len(seen) == calls
            assert [(c.value, c.algebraic, c.geometric) for c in rep.clusters
                    ] == loop_clusters(M, rep.eigenvalues)
        # Reduced path at gamma = 0: a_n = b_n = 0, so the hops prove nothing
        # and the +-r clusters, each N - 1 dimers, take the SVD.
        rep, seen = self._geometric_svds(monkeypatch, build_real_space(
            LatticeParams(v=0.0, r=0.5, gamma=0.0, n_cells=30)))
        assert sorted(seen, key=lambda z: z.real) == [-0.5, 0.5]
        assert sorted((c.value.real, c.algebraic, c.geometric) for c in rep.clusters) == [
            (-0.5, 29, 29), (0.0, 2, 2), (0.5, 29, 29)]

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

    @pytest.mark.parametrize("params", ZERO_CHAINS, ids=["open", "periodic"])
    def test_zero_matrix_is_one_zero_cluster(self, params):
        rep = spectral_report(build_real_space(params))
        assert [(c.value, c.algebraic, c.geometric) for c in rep.clusters] == [(0, 2, 2)]
        zm = rep.zero_cluster
        assert zm is not None and zm.geometric_multiplicity == 2 and not zm.defective
        assert not zm.u0_prime.any()

    @pytest.mark.parametrize("n, v", [(100, 1.3), (40, 0.55), (60, 0.55)])
    def test_clean_open_chain_real_where_dense_scatters(self, n, v):
        # Every a_n b_n > 0, so the spectrum is real; the dense solve of H
        # reported |Im E| above REALITY_TOL * ||H||_2 at each of these.
        rep = spectral_report(build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)))
        assert rep.is_real and not rep.eigenvalues.imag.any()

    @pytest.mark.parametrize("n", [60, 80])
    def test_clean_open_chain_real_on_generic_sweep(self, n):
        # v in [1.1, 1.9], the range of the spectral benchmark's generic
        # chains: the dense solve flipped is_real near v = 1.42-1.49 at N = 80.
        for v in np.linspace(1.1, 1.9, 81):
            H = build_real_space(LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=n))
            assert spectral_report(H).is_real, v

    @pytest.mark.parametrize("v, geometric_svds", [(1.3, 0), (0.5, 0), (0.3, 0)])
    def test_clean_open_chain_takes_no_dense_solve(self, monkeypatch, v, geometric_svds):
        # eigvals and the norm SVD of H are left out; at v < gamma/2 the one
        # eigvals is of chain_spectrum's real path. No repeated cluster takes
        # a 2N x 2N SVD for its geometric count. The zero cluster, at
        # v = gamma/2, takes one N x N SVD, of the factor X that holds
        # sigma_min, and a triangular solve of Y.
        seen = {"eigvals": [], "norm": 0, "svd": []}
        eigvals, norm, svd = np.linalg.eigvals, np.linalg.norm, np.linalg.svd

        def counted_eigvals(a):
            seen["eigvals"].append(np.asarray(a).dtype)
            return eigvals(a)

        def counted_norm(x, *args, **kwargs):
            seen["norm"] += np.ndim(x) == 2        # fix_phase takes vector norms
            return norm(x, *args, **kwargs)

        def counted_svd(a, *args, compute_uv=True, **kwargs):
            seen["svd"].append((np.shape(a), compute_uv))
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        rep = spectral_report(build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30)))
        assert seen["eigvals"] == ([np.dtype(float)] if v < 0.5 else [])
        assert seen["norm"] == 0
        assert seen["svd"] == ([((30, 30), True)] * (rep.zero_cluster is not None)
                               + [((60, 60), False)] * geometric_svds)
        assert (rep.zero_cluster is not None) == (v == 0.5)

    @staticmethod
    def _nudged(H, index):
        H = H.copy()
        H[index] = np.nextafter(H[index].real, np.inf) + 1j * H[index].imag
        return H

    def test_any_other_matrix_takes_the_dense_solve_bit_for_bit(self):
        present = 0
        for v in (0.7, 0.5):
            p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=12)
            H = build_real_space(p)
            others = [build_real_space(replace(p, boundary=Boundary.PERIODIC))]
            others += [build_real_space(p, disorder=DisorderConfig.from_seed(t, 0.3, 2, 12))
                       for t in DisorderTarget]
            # One ulp on v in one entry, or on a zero entry, is no longer a chain.
            others += [self._nudged(H, (1, 0)), self._nudged(H, (23, 22)),
                       self._nudged(H, (0, 5))]
            for M in others:
                assert spectral_report(M).eigenvalues.tobytes() == np.linalg.eigvals(M).tobytes()
                want = dense_zero_mode(M, ZERO_MODE_TOL)
                try:
                    got = zero_mode_analysis(M, require_chiral=False)
                except NoZeroModeError:
                    got = None
                assert (got is None) == (want is None)
                if got is not None:
                    present += 1
                    assert all(np.asarray(getattr(got, f.name)).tobytes()
                               == np.asarray(getattr(want, f.name)).tobytes()
                               for f in fields(spectra.ZeroModeInfo))
        assert present >= 4

    def test_real_dtype_clean_chain_takes_the_chain_path(self, monkeypatch):
        # An N = 1 chain with gamma = 0 is real; its float copy is the same
        # matrix, so it takes the reduced hops too.
        p = LatticeParams(v=0.3, r=0.5, gamma=0.0, n_cells=1)
        H = build_real_space(p).real.copy()
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: pytest.fail("dense eigvals"))
        rep = spectral_report(H)
        assert rep.eigenvalues.tobytes() == spectra.chain_spectrum(chain(p)).tobytes()
        assert rep.is_real and rep.real_gap == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 30, 60])
    @pytest.mark.parametrize("r", [0.5, 0.65])
    def test_exceptional_point_spectrum_is_exact(self, n, r):
        # At v = gamma/2 the spectrum is {0, 0, +-r (N - 1 times each)}, exactly.
        rep = spectral_report(build_real_space(LatticeParams(v=0.5, r=r, gamma=1.0, n_cells=n)))
        assert sorted(rep.eigenvalues.real) == [-r] * (n - 1) + [0.0, 0.0] + [r] * (n - 1)
        assert not rep.eigenvalues.imag.any()
        # A cluster's value is its members' mean, within rounding of theirs.
        assert sorted((round(c.value.real, 12) + 0.0, c.algebraic) for c in rep.clusters) == [
            (-r, n - 1), (0.0, 2), (r, n - 1)]
        assert not any(c.value.imag for c in rep.clusters)
        assert rep.is_real and rep.real_gap == pytest.approx(r, rel=1e-15)

    def test_squared_hamiltonian_characteristic_clusters(self, defective_params):
        # Eigenvalues of H^2 sit at {0, r^2} with multiplicities {2, 2N-2}.
        H = build_real_space(defective_params)
        w2 = np.linalg.eigvals(H @ H)
        assert np.sum(np.abs(w2) < 1e-8) == 2
        assert np.sum(np.abs(w2 - 0.25) < 1e-8) == 58


class TestSpectralReportForms:
    """spectral_report takes what chain returns: the hops of an open chain
    that reduces, disordered or not, or H."""

    # At N = 1, ||u0'|| is about 1 / gamma: a gamma below 1e-100 would put
    # its square beyond double range.
    @given(st.integers(1, 12), st.floats(0.05, 2.0),
           st.one_of(st.just(0.0), st.floats(1e-100, 2.0)),
           st.one_of(st.sampled_from([0.5, -0.5]), st.none()), st.floats(-2.0, 2.0),
           st.sampled_from([DisorderTarget.HOPPING_R, DisorderTarget.HOPPING_V,
                            DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    @example(n=1, r=1.0, gamma=0.0, edge=None, v_free=5e-324,
             target=DisorderTarget.HOPPING_R, d=0.0, seed=0)     # ||H||_2 = 5e-324
    @example(n=9, r=0.05, gamma=0.6475132650726972, edge=-0.5, v_free=0.0,
             target=DisorderTarget.HOPPING_R, d=0.422459990324764, seed=70)
    def test_zero_cluster_presence_matches_dense(self, n, r, gamma, edge, v_free, target, d,
                                                 seed):
        # v = +-gamma/2, the exceptional points, is drawn often.
        p = LatticeParams(v=v_free if edge is None else edge * gamma, r=r, gamma=gamma,
                          n_cells=n)
        dis = DisorderConfig.from_seed(target, d, seed, n)
        hops, H = chain(p, dis), build_real_space(p, disorder=dis)
        from_hops, from_h = spectral_report(hops), spectral_report(H)
        a, b, _ = hops
        if not (a.all() and b.all()):
            # A zero hop makes det H = +-prod(a_n b_n) exactly 0. eigvals(H)
            # can scatter that zero pair far from 0, as at the second
            # @example (r disorder at v = -gamma/2, where every b_n = 0):
            # there the dense report finds no zero cluster at all.
            assert from_hops.zero_cluster is not None
            return
        # Elsewhere presence is clear when neither form's min |E| lies
        # within a factor 100 of its cluster radius, and the dense solve
        # decides it when eigvals(H^T), a solve of the same spectrum, puts
        # min |E| on the same side of the radius: near v = -gamma/2 eigvals(H)
        # can scatter a nearly defective pair far beyond it (d = 1e-9 of
        # gamma disorder at N = 5, r = 0.099, gamma = 1.64, v = -gamma/2).
        for form, rep in ((hops, from_hops), (H, from_h)):
            thresh = CLUSTER_TOL * chain_norm(form)
            assume(not thresh / 100 <= np.abs(rep.eigenvalues).min() <= 100 * thresh)
        thresh = CLUSTER_TOL * chain_norm(H)
        assume((np.abs(from_h.eigenvalues).min() < thresh)
               == (np.abs(np.linalg.eigvals(H.T)).min() < thresh))
        assert (from_hops.zero_cluster is None) == (from_h.zero_cluster is None)

    def test_disordered_exceptional_point_is_defective(self):
        # r disorder at v = -gamma/2 keeps every b_n = 0, so H is exactly
        # defective at 0 for every draw. The hops find the pair at every
        # seed; spectral_report(H) takes eigvals(H), which scatters it, and
        # finds no zero cluster at any of these 40 seeds.
        gamma = 1.871456653696443
        p = LatticeParams(v=-gamma / 2, r=0.05, gamma=gamma, n_cells=11)
        for seed in range(40):
            form = chain(p, DisorderConfig.from_seed(DisorderTarget.HOPPING_R, 0.2, seed, 11))
            rep = spectral_report(form)
            assert [(c.algebraic, c.geometric) for c in rep.clusters if c.value == 0] == [(2, 1)]
            zm = rep.zero_cluster
            assert zm.defective and zm.algebraic_multiplicity == 2
            want = zero_mode_analysis(form)
            for f in fields(zm):
                assert (np.asarray(getattr(zm, f.name)).tobytes()
                        == np.asarray(getattr(want, f.name)).tobytes()), (seed, f.name)

    def test_bloch_blocks_raise(self):
        ring = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6, boundary=Boundary.PERIODIC)
        with pytest.raises(ValueError, match="spectral_report takes reduced hops or H"):
            spectral_report(chain(ring))

    def test_subnormal_chain_has_no_zero_cluster(self):
        # ||H||_2 = 5e-324 and E = +-5e-324: sigma_min = sigma_max. A floor
        # of 1e-308 on the cluster radius made the pair a zero cluster, and
        # zero_mode_analysis, whose cut is relative, raised NoZeroModeError.
        p = LatticeParams(v=5e-324, r=1.0, gamma=0.0, n_cells=1)
        for form in (chain(p), build_real_space(p), 1j * build_real_space(p)):
            rep = spectral_report(form)
            assert rep.zero_cluster is None
            assert [c.algebraic for c in rep.clusters] == [1, 1]


class TestGeometricCountsFromHops:
    """spectral_report's geometric counts on clean open chains at
    v = +-gamma/2, where the hops fix them (spectra._simple_eigenvalues)."""

    @pytest.mark.parametrize("gamma, r", [(0.5, 0.25), (1.0, 0.75), (3.0, 2.0), (0.5, 1.5),
                                          (0.0, 0.5)])
    def test_match_exact_rank(self, gamma, r):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        for n in range(1, 7):
            for v in (gamma / 2, -gamma / 2):
                H = build_real_space(LatticeParams(v=v, r=r, gamma=gamma, n_cells=n))
                # Every entry is a binary fraction, which Rational takes exactly.
                M = sympy.Matrix(2 * n, 2 * n, [sympy.Rational(z.real)
                                                + sympy.I * sympy.Rational(z.imag)
                                                for z in H.ravel()])
                got = {round(c.value.real / r): c.geometric for c in spectral_report(H).clusters}
                assert sorted(got) == ([-1, 0, 1] if n > 1 else [0])
                for k, geo in got.items():
                    lam = k * sympy.Rational(r)
                    exact = 2 * n - DomainMatrix.from_Matrix(M - lam * sympy.eye(2 * n)).rank()
                    # gamma = 0 cuts both directions: dimers, each +-r N - 1 times.
                    assert exact == (1 if gamma else (2 if k == 0 else n - 1)), (n, v, k)
                    assert geo == exact, (n, v, k)

    @pytest.mark.parametrize("v, gamma, proved", [
        (0.5, 1.0, True), (-0.5, 1.0, True),
        (0.7, 1.0, False),      # no zero hop: close eigenvalues may be distinct
        (0.0, 0.0, False),      # every hop of both directions cut: +-r are N - 1 dimers
    ])
    def test_rule_needs_split_and_unreduced_hops(self, v, gamma, proved):
        p = LatticeParams(v=v, r=0.5, gamma=gamma, n_cells=6)
        assert spectra._simple_eigenvalues(chain(p)) is proved
        a, b, r = chain(p)
        r[2] = 0.0          # a cut bond leaves two chains, which may share eigenvalues
        assert not spectra._simple_eigenvalues((a, b, r))

    @pytest.mark.parametrize("gamma", [0.2, 1.0, 3.0])
    @pytest.mark.parametrize("r", [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0])
    def test_match_dense_reference(self, gamma, r):
        for n in (2, 5, 10, 30, 60):
            for v in (gamma / 2, -gamma / 2):
                H = build_real_space(LatticeParams(v=v, r=r, gamma=gamma, n_cells=n))
                rep = spectral_report(H)
                got = [(c.value, c.algebraic, c.geometric) for c in rep.clusters]
                assert repr(got) == repr(loop_clusters(H, rep.eigenvalues)), (n, v)
                (zero,) = (c for c in rep.clusters if c.value == 0)
                assert zero.geometric == rep.zero_cluster.geometric_multiplicity, (n, v)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the zero cluster's count is a tolerance count. Y's "
        "sigma_min, about gamma (gamma / r)^(N - 1), is below the cut, so it "
        "reads geo 2 and not defective; the dense count does the same."))
    def test_zero_cluster_count_is_exact_where_r_dominates(self):
        # The exact nullity is 1: a_n = 0 makes X singular, but every b_n
        # and r_n is nonzero, so Y is not.
        H = build_real_space(LatticeParams(v=0.1, r=0.5, gamma=0.2, n_cells=30))
        rep = spectral_report(H)
        assert [c.geometric for c in rep.clusters if c.value == 0] == [1]
        assert rep.zero_cluster.geometric_multiplicity == 1 and rep.zero_cluster.defective


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

    def test_zero_chain_is_real(self):
        # H = 0: spectral_report's floor on the scale keeps {0, 0} real.
        assert gap_report(ZERO_CHAINS[0]).spectrum_real

    @pytest.mark.parametrize("n, v", [(100, 1.3), (40, 0.55), (60, 0.55)])
    def test_open_chain_real_despite_dense_scatter(self, n, v):
        # Every a_n b_n > 0, so the spectrum is real; the dense solve of
        # these strongly non-normal chains reports |Im E| far above
        # REALITY_TOL * ||H||_2 (8.0e-4 at N = 60, v = 0.55).
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
        assert gap_report(p).spectrum_real

    def test_open_chain_scale_matches_dense_norm(self):
        # The scale is ||A||_2 of the real path; the dense ||H||_2 gives the
        # same flags. Just below v = gamma/2, max|Im E| / ||H||_2 is about
        # sqrt(gamma/2 - v), 1e-8 at v = 0.5 - 1e-16, so a wrong scale flips some.
        vs = np.concatenate([np.linspace(-1.5, 1.5, 31), 0.5 - np.logspace(-16, -2, 15)])
        for n in (1, 2, 5, 12, 30):
            for v in vs:
                p = LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=n)
                dense = np.linalg.norm(build_real_space(p), 2)
                want = np.abs(spectra.chain_spectrum(spectra.chain(p)).imag).max() < REALITY_TOL * dense
                assert gap_report(p).spectrum_real == want

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

    @pytest.mark.parametrize("weights, side", [
        ([1.0], "delocalized"),     # one cell is both edge windows
        ([1.0, 0.0], "left"), ([0.0, 1.0], "right"), ([0.5, 0.5], "delocalized"),
        ([0.0, 1.0, 0.0], "delocalized"), ([0.95, 0.05, 0.0, 0.0, 0.0], "left"),
    ])
    def test_edge_windows(self, weights, side):
        assert edge_side(np.array(weights)) == side

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
        w, V = np.linalg.eig(H)
        G = chiral_operator(n)
        for i in range(2 * n):
            gu = G @ V[:, i]
            assert np.linalg.norm(H @ gu + w[i] * gu) <= 1e-10 * scale
