import tracemalloc
from contextlib import contextmanager
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhlab import (Boundary, DisorderConfig, DisorderTarget, ExceptionalPointError,
                   LatticeParams, NoZeroModeError, bloch_eigensystem, build_bloch,
                   build_real_space, edge_profile, geometric_multiplicity,
                   smallest_singular_values, spectral_report, zero_mode_analysis)
from nhlab import spectra
from nhlab.model import reduced_chain
from nhlab.spectra import (CLUSTER_TOL, REALITY_TOL, ZERO_MODE_TOL, chain, chain_norm,
                           edge_side, fix_phase)

from conftest import (assert_multisets_close, chiral_operator, dense_zero_mode,
                      exact_generalized_zero_mode, exact_zero_mode, factor_values,
                      loop_clusters, matrix_clusters, matrix_labels, scaled_up)


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
        assert geometric_multiplicity(np.eye(5), 1.0, tol=CLUSTER_TOL) == 5

    def test_simple_defective_block(self):
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert geometric_multiplicity(J, 2.0, tol=CLUSTER_TOL) == 1

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
                assert factor_values(chain(p))[1][0] == 0.0
                assert vals[-1] < 1e-12 * np.linalg.svd(H, compute_uv=False)[0]
        if v != 0.5:
            assert vals[0] > vals[1] > vals[2]

    def test_oracle_sqrt_eigs_of_gram_matrix(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        s = np.linalg.svd(H, compute_uv=False)
        gram = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(H.conj().T @ H))))[::-1]
        np.testing.assert_allclose(s, gram, atol=1e-10)


@contextmanager
def linalg_calls(name):
    """Record the (dtype, shape) of each matrix handed to np.linalg.<name>."""
    seen, solve = [], getattr(np.linalg, name)

    def counted(a, **kwargs):
        seen.append((np.asarray(a).dtype, np.shape(a)))
        return solve(a, **kwargs)

    setattr(np.linalg, name, counted)
    try:
        yield seen
    finally:
        setattr(np.linalg, name, solve)


@st.composite
def phase_real_chains(draw):
    """(params, disorder, count) of an open or periodic chain with N from 1
    to 30, clean or with r, v or gamma disorder (a chain without on-site
    disorder), and a count from 1 to 2N."""
    n = draw(st.integers(1, 30))
    p = LatticeParams(v=draw(st.floats(-2.0, 2.0)), r=draw(st.floats(0.05, 2.0)),
                      gamma=draw(st.floats(0.0, 2.0)), n_cells=n,
                      boundary=draw(st.sampled_from(Boundary)))
    target = draw(st.sampled_from([None, DisorderTarget.HOPPING_R, DisorderTarget.HOPPING_V,
                                   DisorderTarget.GAIN_LOSS]))
    dis = None if target is None else DisorderConfig.from_seed(
        target, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 1000)), n)
    return p, dis, draw(st.integers(1, 2 * n))


class TestRealForm:
    """smallest_singular_values solves spectra._real_form(H): the real
    R = -i S^H H S, S = diag(1, i, 1, i, ...), of a chain without on-site
    disorder, a real H itself, and any other H unchanged."""

    @given(phase_real_chains())
    # The two SVDs were once held to 2 (2N) 2^-52 sigma_max of each other.
    # By the oracle below, the real one is off by 5.5e-15 sigma_max at the
    # first draw and the complex one by 3.7e-15 at the second.
    @example((LatticeParams(v=0.0, r=1 / 3, gamma=0.0, n_cells=4),
              DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.6082646764763507, 775, 4), 4))
    @example((LatticeParams(v=0.421875, r=0.15625, gamma=1e-12, n_cells=4,
                            boundary=Boundary.PERIODIC),
              DisorderConfig.from_seed(DisorderTarget.HOPPING_R, 1e-12, 857, 4), 3))
    # mp.svd_r gave up on a block of each of these (see mp_singular_value_counts).
    @example((LatticeParams(v=1.5, r=0.6986803920019355, gamma=1.5036472433349108, n_cells=6,
                            boundary=Boundary.PERIODIC), None, 1))
    @example((LatticeParams(v=0.9692241484340731, r=0.9692241484340731, gamma=0.9, n_cells=19,
                            boundary=Boundary.PERIODIC), None, 1))
    @settings(max_examples=200, deadline=None)
    def test_chains_take_an_exact_real_form(self, chain_draw):
        params, disorder, count = chain_draw
        H = build_real_space(params, disorder=disorder)
        R = spectra._real_form(H)
        assert R.dtype == np.float64
        assert ((R == H.real) | (R == -H.real) | (R == H.imag) | (R == -H.imag)).all()
        # Multiplying by 1, +-i or -1 rounds nothing, so R is -i S^H H S
        # exactly, or H.real where H has no imaginary part (gamma = 0, N = 1).
        phases = np.tile([1.0, 1.0j], len(H) // 2)
        M = -1j * phases.conj()[:, None] * H * phases if H.imag.any() else H
        assert not M.imag.any() and (R == M.real).all()
        with linalg_calls("svd") as seen:
            got = smallest_singular_values(H, count)
        assert seen == [(np.dtype(float), H.shape)]
        # LAPACK Users' Guide, section 4.9.1: each computed singular value of
        # an m x n matrix lies within p(m, n) eps sigma_max of the exact one,
        # eps = 2^-53 (dlamch('E')) and p "a modestly growing function of m
        # and n". Here m = n = 2N. The reduction to bidiagonal form applies
        # 2n Householder reflections, each backward stable to m eps, so it
        # contributes 2 m n; the bidiagonal solve (dqds, xLASQ2) deflates at
        # a relative tolerance of 100 ulp = 200 eps. So p = 2 m n + 200, for
        # the real SVD that the program runs and the complex one of H alike.
        # The bound takes a lower bound on sigma_max within 2^-30 of it,
        # so the check is no weaker.
        mp = pytest.importorskip("mpmath")
        dense = np.linalg.svd(H, compute_uv=False)[::-1]
        with mp.workdps(50):
            below, at_most, sigma_max = mp_singular_value_counts(R, dense[-1], mp)
            bound = (2 * len(H) ** 2 + 200) * mp.mpf(2) ** -53 * sigma_max
            # The (k + 1)-th smallest singular value lies within bound of the
            # k-th value of both SVDs iff it lies within bound of the larger
            # from below and of the smaller from above.
            for k, pair in enumerate(zip(got, dense[:count].tolist())):
                assert below(max(pair) - bound) <= k < at_most(min(pair) + bound)

    @pytest.mark.parametrize("squares, z, below", [
        ([4], 0, 1),            # +-2: the first pivot is exactly zero
        ([1, 1, 1], 0, 2),      # +-0.618, +-1.618: so are the first and third
        ([1, 1], 0.5, 2),       # -1.414, 0, 1.414: no zero pivot
        ([1, 1], 0, 1),         # the same at an eigenvalue: not below itself
        ([0], 0, 0),            # 0, 0: the H = 0 block of one cell
    ])
    def test_sturm_count_is_strictly_below(self, squares, z, below):
        mp = pytest.importorskip("mpmath")
        assert mp_golub_kahan_below([mp.mpf(s) for s in squares], mp.mpf(z), mp) == below

    @given(st.integers(1, 30), st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
           st.sampled_from(Boundary), st.floats(1e-3, 1.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_onsite_disorder_keeps_the_complex_svd_bit_for_bit(self, n, v, r, gamma, boundary,
                                                                 d, seed):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n, boundary=boundary)
        H = build_real_space(p, DisorderConfig.from_seed(DisorderTarget.ON_SITE, d, seed, n))
        assert spectra._real_form(H) is H
        assert (smallest_singular_values(H, 2 * n)
                == np.linalg.svd(H, compute_uv=False)[::-1].tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_general_complex_matrix_keeps_the_complex_svd_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        assert spectra._real_form(H) is H
        assert smallest_singular_values(H, 6) == np.linalg.svd(H, compute_uv=False)[::-1].tolist()

    @pytest.mark.parametrize("index, value", [
        ((0, 0), complex(0.0, np.nan)), ((0, 0), complex(0.0, np.inf)),
        ((1, 0), complex(np.nan, 0.0)), ((0, 1), complex(0.5, np.nan))])
    def test_non_finite_entries_keep_the_complex_matrix(self, index, value):
        # The first three put the non-finite part where R holds it, the
        # last where R holds nothing.
        H = build_real_space(LatticeParams(v=0.3, r=0.5, gamma=1.0, n_cells=3))
        H[index] = value
        assert spectra._real_form(H) is H

    def test_real_input_is_not_cast_to_complex(self):
        R = np.random.default_rng(3).normal(size=(8, 8))
        assert spectra._real_form(R) is R
        with linalg_calls("svd") as seen:
            got = smallest_singular_values(R, 8)
            # A complex H with no imaginary part is solved as its real part.
            assert smallest_singular_values(R.astype(complex), 8) == got
        assert got == np.linalg.svd(R, compute_uv=False)[::-1].tolist()
        assert seen == [(np.dtype(float), (8, 8))] * 2


class TestStackedSingularValues:
    """smallest_singular_values of a stack (..., m, n) makes one SVD call,
    and each of its rows is the matrix's own 2-D call, bit for bit."""

    @staticmethod
    def rows_match_own_calls(stack, count):
        with linalg_calls("svd") as seen:
            got = smallest_singular_values(stack, count)
        assert len(seen) == 1 and seen[0][1] == stack.shape
        assert got.shape == stack.shape[:-2] + (count,)
        for H, row in zip(stack.reshape(-1, *stack.shape[-2:]), got.reshape(-1, count)):
            assert row.tolist() == smallest_singular_values(H, count)
        return seen[0][0]

    @given(phase_real_chains())
    @settings(max_examples=100, deadline=None)
    def test_chain_stacks_take_the_real_form_bit_for_bit(self, chain_draw):
        # v sits only in the cross entries, so the rows share the real form.
        params, disorder, count = chain_draw
        stack = np.stack([build_real_space(replace(params, v=v), disorder=disorder)
                          for v in (params.v, 0.0, -0.5 * params.v, params.v + 1.0)])
        assert self.rows_match_own_calls(stack, count) == np.float64
        assert self.rows_match_own_calls(stack[:1], count) == np.float64
        assert self.rows_match_own_calls(stack.reshape(2, 2, *stack.shape[1:]),
                                         count) == np.float64

    def test_real_stacks_bit_for_bit(self):
        stack = np.random.default_rng(5).normal(size=(3, 8, 6))
        assert self.rows_match_own_calls(stack, 6) == np.float64
        assert self.rows_match_own_calls(stack[1:2], 2) == np.float64

    @pytest.mark.parametrize("seed", range(3))
    def test_onsite_disorder_stacks_keep_the_complex_svd(self, seed):
        p = LatticeParams(v=0.4, r=0.5, gamma=1.0, n_cells=7)
        stack = build_real_space(p, DisorderConfig.from_seeds(DisorderTarget.ON_SITE, 0.3,
                                                              range(seed, seed + 4), 7))
        assert spectra._real_form(stack) is stack
        assert self.rows_match_own_calls(stack, 14) == np.complex128
        assert (smallest_singular_values(stack, 14)
                == np.linalg.svd(stack, compute_uv=False)[..., ::-1]).all()

    def test_a_row_without_a_real_form_takes_the_complex_svd_for_all(self):
        p = LatticeParams(v=0.4, r=0.5, gamma=1.0, n_cells=5)
        clean = build_real_space(p)
        stack = np.stack([clean, build_real_space(
            p, DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, 2, 5))])
        assert spectra._real_form(stack) is stack
        with linalg_calls("svd") as seen:
            got = smallest_singular_values(stack, 3)
        assert seen == [(np.dtype(complex), stack.shape)]
        for H, row in zip(stack, got):
            assert row.tolist() == np.linalg.svd(H, compute_uv=False)[::-1][:3].tolist()
        # The clean row alone takes its real form.
        assert spectra._real_form(clean).dtype == np.float64

    @pytest.mark.parametrize("shape", [(8, 6), (3, 8, 6), (1, 6, 8)])
    @pytest.mark.parametrize("count", [0, 7, -1])
    def test_count_outside_range_raises(self, shape, count):
        H = np.ones(shape)
        with pytest.raises(ValueError, match=rf"count must lie in 1\.\.6, got {count}"):
            smallest_singular_values(H, count)

    def test_two_d_call_returns_a_list_of_floats(self):
        got = smallest_singular_values(build_real_space(LatticeParams(v=0.3, r=0.5, gamma=1.0,
                                                                      n_cells=3)), 2)
        assert type(got) is list and [type(x) for x in got] == [float, float]


def non_reducing_chains(seed):
    """(params, disorder) of N = 12 chains that reduced_chain does not reduce."""
    p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=12)
    ring = replace(p, boundary=Boundary.PERIODIC)
    onsite = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.3, seed, 12)
    v_dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, seed, 12)
    return [(p, onsite), (ring, None), (ring, v_dis)]


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


def mp_singular_value_counts(R, estimate, mp):
    """(below, at_most, sigma_max) of the real 2N x 2N R at mpmath's working
    precision: below(y) and at_most(y) count the singular values of R under
    y and not over it, and sigma_max is a lower bound on the largest within
    a factor 1 - 2^-30 of it, checked about `estimate`, a computed sigma_max.

    The cell basis (e_alpha +- e_beta) / sqrt(2), which diagonalizes sigma_x,
    splits an R that anticommutes with the direct sum of sigma_x, as the
    real form of every chain without on-site disorder does, into two N x N
    blocks, whose singular values R has together. The sums of four entries
    (twice the blocks) are exact; any other R is one block. An upper or
    lower bidiagonal block, as both of an open chain's are, is counted by
    Sturm counts on its Golub-Kahan tridiagonal (mp_golub_kahan_below), in
    O(N) a count. Any other block, as a ring's, takes each singular value
    as the square root of an eigenvalue of its Gram matrix B^T B (mp.eigsy,
    O(N^3)), within about sqrt(10^-dps) sigma_max of the exact one: mp.svd_r
    gives up on some blocks at 50 digits, as on two clean periodic chains of
    test_chains_take_an_exact_real_form's examples.
    """
    n = len(R) // 2
    x = np.array([[mp.mpf(v) for v in row] for row in R.tolist()]).reshape(n, 2, n, 2)
    aa, ab, ba, bb = x[:, 0, :, 0], x[:, 0, :, 1], x[:, 1, :, 0], x[:, 1, :, 1]
    if any((aa + ab + ba + bb).ravel()) or any((aa - ab - ba + bb).ravel()):
        blocks = [x.reshape(2 * n, 2 * n)]
    else:
        blocks = [(aa - ab + ba - bb) / 2, (aa + ab - ba - bb) / 2]
    counts = []         # (below, at_most) of each block
    for block in blocks:
        m = len(block)
        for k in (1, -1):
            if not any(block[~(np.eye(m, dtype=bool) | np.eye(m, k=k, dtype=bool))]):
                off = np.empty(2 * m - 1, dtype=object)
                off[0::2], off[1::2] = np.diagonal(block), np.diagonal(block, k)
                squares = [c * c for c in off]
                # The Golub-Kahan eigenvalues are +-sigma: for y > 0, the m
                # values -sigma lie below y too, and sigma > y iff -sigma < -y.
                counts.append((
                    lambda y, sq=squares, m=m: mp_golub_kahan_below(sq, y, mp) - m if y > 0 else 0,
                    lambda y, sq=squares, m=m: m - mp_golub_kahan_below(sq, -y, mp) if y >= 0 else 0))
                break
        else:
            B = mp.matrix(block.tolist())
            values = [mp.sqrt(max(w, 0)) for w in mp.eigsy(B.T * B, eigvals_only=True)]
            counts.append((lambda y, v=values: sum(s < y for s in v),
                           lambda y, v=values: sum(s <= y for s in v)))

    def below(y):
        return sum(count(y) for count, _ in counts)

    def at_most(y):
        return sum(count(y) for _, count in counts)

    lo, hi = (mp.mpf(estimate) * (1 + sign * mp.mpf(2) ** -30) for sign in (-1, 1))
    assert below(lo) < 2 * n == at_most(hi), "sigma_max lies outside 1 +- 2^-30 of its estimate"
    return below, at_most, lo


def mp_golub_kahan_below(squares, z, mp):
    """The number of eigenvalues below z of the symmetric tridiagonal T with
    zero diagonal and the off-diagonals whose squares are `squares`: the
    count of negative pivots of T - z I = L D L^T (Sturm). Each pivot falls
    as z rises, so an exactly zero pivot is taken as a positive one far
    below any hop squared: the count just below z, which an eigenvalue at
    z does not enter."""
    tiny = mp.mpf(2) ** -10000
    d = shift = -z
    negative = 0
    for square in squares:
        d = d or tiny
        negative += d < 0
        d = shift - square / d
    return negative + (d < 0)


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
        with linalg_calls("eigvals") as seen:
            got = spectra._smallest_abs(p, dis)[0]
        dense = dense_min_abs(p, dis)
        a, b, _ = reduced_chain(p, dis)
        if not (a.all() and b.all()):
            assert seen == [] and got == 0.0
        elif seen != [(np.dtype(float), (1, n, n))]:
            # With r <= 3.5 and N <= 8, only a hop below 1e-15 can push
            # Y^-1 X^-1 out of double range; then H itself is solved.
            assert min(np.abs(a).min(), np.abs(b).min()) < 1e-15
            assert seen == [(np.dtype(complex), (1, 2 * n, 2 * n))] and got == dense
        # Both solvers are backward stable: they differ by at most a few
        # eps * ||H|| per unit of eigenvalue condition number.
        tol = 20 * H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 2) * kappa.max()
        assert abs(got - dense) <= tol

    def test_defective_chain_is_exact_zero(self, defective_params):
        # v = gamma/2 makes every a_n zero, so det H = 0 with nothing to solve;
        # the dense solve scatters the defective zero pair by about sqrt(eps).
        r_dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_R, 0.7, 3, 30)
        for dis in (None, r_dis):
            with linalg_calls("eigvals") as seen:
                assert spectra._smallest_abs(defective_params, dis)[0] == 0.0
            assert seen == []

    @pytest.mark.parametrize("seed", range(5))
    def test_non_reducing_chains_fall_back_bit_for_bit(self, seed):
        for params, dis in non_reducing_chains(seed):
            assert reduced_chain(params, dis) is None
            with linalg_calls("eigvals") as seen:
                got = spectra._smallest_abs(params, dis)[0]
            assert seen == [(np.dtype(complex), (1, 24, 24))]
            assert got == dense_min_abs(params, dis)

    @pytest.mark.parametrize("v", [1e-200, 1e200])
    def test_out_of_range_inverse_falls_back(self, v):
        # gamma = 0 gives a_n = b_n = v. At 1e-200, X^-1 holds (r/a)^k and
        # overflows; at 1e200, Y^-1 X^-1 underflows to zero.
        p = LatticeParams(v=v, r=0.5, gamma=0.0, n_cells=8)
        a, b, _ = reduced_chain(p)
        assert (a == v).all() and (b == v).all()
        with linalg_calls("eigvals") as seen:
            got = spectra._smallest_abs(p, None)[0]
        assert seen[-1] == (np.dtype(complex), (1, 16, 16))
        assert np.isfinite(got) and got == dense_min_abs(p)

    def test_stack_rows_match_single_solves_bit_for_bit(self):
        # v = 1e-200 and gamma = 0: row 0 keeps a_n = b_n = 1e-200, whose
        # inverse overflows, and takes H; row 1's draws cancel v to exact
        # zero hops; rows 2-4 are ordinary and share one real solve.
        p = LatticeParams(v=1e-200, r=0.5, gamma=0.0, n_cells=8)
        draws = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 8))
        draws[0], draws[1] = 0.0, -1e-200
        stack = DisorderConfig(DisorderTarget.HOPPING_V, 1.0, tuple(range(5)), draws)
        with linalg_calls("eigvals") as seen:
            got = spectra._smallest_abs(p, stack)
        assert seen == [(np.dtype(float), (3, 8, 8)), (np.dtype(complex), (1, 16, 16))]
        rows = [DisorderConfig(DisorderTarget.HOPPING_V, 1.0, seed, row)
                for seed, row in enumerate(draws)]
        assert got[0] == dense_min_abs(p, rows[0]) and got[1] == 0.0
        assert got.tolist() == [spectra._smallest_abs(p, row)[0] for row in rows]

    def test_non_finite_hops_raise(self):
        # A NaN parameter is refused before any hop is built; finite ones
        # whose hops overflow reach the solver's own check.
        with pytest.raises(ValueError, match="v must be finite"):
            spectra._smallest_abs(LatticeParams(v=np.nan, r=0.5, gamma=1.0, n_cells=4), None)
        p = LatticeParams(v=-1.7e308, r=0.5, gamma=1.7e308, n_cells=4)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="reduced chain hops must be finite"):
            spectra._smallest_abs(p, None)

    def test_onsite_stack_solves_each_dense_h(self):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6)
        stack = DisorderConfig.from_seeds(DisorderTarget.ON_SITE, 0.3, range(4), 6)
        with linalg_calls("eigvals") as seen:
            got = spectra._smallest_abs(p, stack)
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
        # most draws: the rows the trace certificate settles without eigvals.
        # On a grid of one strength, first_splits gives 0 where a row splits.
        p = LatticeParams(v=gamma / 2 if at_half else v, r=r, gamma=gamma, n_cells=n)
        grid = DisorderConfig.from_seeds(target, [d], range(seed, seed + 5), n)
        got = spectra.first_splits(p, grid, tol) == 0
        assert got.tolist() == (spectra._smallest_abs(p, grid) > tol).tolist()
        # Strength 0 leaves the clean chain on every row.
        clean = spectra.first_splits(p, replace(grid, strength=np.zeros(1)), tol) == 0
        assert clean.tolist() == [bool(spectra._smallest_abs(p, None)[0] > tol)] * 5

    @given(st.sampled_from([DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS]),
           st.integers(1, 30), st.floats(0.05, 2.0), st.floats(0.0, 1.5),
           st.integers(0, 1000), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_split_at_a_rows_own_min_abs_e(self, target, n, r, d, seed, row):
        # At tol = min |E| of one row, and one double below it, that row's
        # verdict turns on the last bit: the bound may settle it only if
        # it never exceeds the largest |eig(K)| that eigvals returns.
        p = LatticeParams(v=0.5, r=r, gamma=1.0, n_cells=n)
        grid = DisorderConfig.from_seeds(target, [d], range(seed, seed + 5), n)
        values = spectra._smallest_abs(p, grid)
        assume(values[row] > 0.0)
        for tol in (values[row], np.nextafter(values[row], 0.0)):
            split = spectra.first_splits(p, grid, tol) == 0
            assert split.tolist() == (values > tol).tolist()

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
        got = spectra._smallest_abs(params, disorder)[0]
        assert abs(got - oracle) <= 1e-12 * oracle


@st.composite
def hop_rows(draw):
    """Four rows of reduced hops (a, b, r) with N from 1 to 60: signs mixed,
    magnitudes from 1e-3 to 1e3 in a window of its own for each of a, b
    and r, and some exact zeros."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def hops(size, zeros):
        # + 0.0 turns -0.0 into 0.0: sorted keeps (0.0, -0.0) in that order,
        # and uniform refuses a high below its low.
        lo, hi = sorted(draw(st.floats(-3.0, 3.0)) + 0.0 for _ in range(2))
        x = rng.choice([-1.0, 1.0], (4, size)) * 10.0 ** rng.uniform(lo, hi, (4, size))
        x[rng.random((4, size)) < zeros] = 0.0
        return x

    return (hops(n, draw(st.sampled_from([0.0, 0.02]))),
            hops(n, draw(st.sampled_from([0.0, 0.02]))),
            hops(n - 1, draw(st.sampled_from([0.0, 0.1]))))


def solved_min_abs(a, b, r):
    """min |E| of each row of hops by the solve spectra._smallest_abs
    makes: 0.0 with a zero in a or b, else 1 / sqrt(max |eig(K)|) for the
    K of spectra._inverse_products; nan where that K is not finite."""
    out = np.zeros(len(a))
    for i in np.flatnonzero(a.all(axis=1) & b.all(axis=1)):
        with np.errstate(over="ignore", invalid="ignore"):
            k = spectra._inverse_products(a[i:i + 1], b[i:i + 1], r[i:i + 1])[0]
        out[i] = (1.0 / np.sqrt(np.abs(np.linalg.eigvals(k)).max())
                  if np.isfinite(k).all() else np.nan)
    return out


def dense_trace_bound_settles(a, b, r, tol):
    """The bound the trace certificate replaced: |trace K| / N less
    2 N^2 eps ||K||_F, from K itself, shows min |E| <= tol (rows with no
    zero in a or b)."""
    n = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        k = spectra._inverse_products(a, b, r)
        bound = (np.abs(np.trace(k, axis1=1, axis2=2))
                 - 2 * n ** 2 * np.finfo(float).eps * np.sqrt(np.einsum("kij,kij->k", k, k))) / n
        return (bound > 0) & (1.0 / np.sqrt(bound) <= tol)


class TestTraceCertificate:
    """spectra._settled: a zero hop, or the O(N) trace certificate, settles
    a row of hops as not split without forming K."""

    @given(hop_rows(), st.sampled_from([1e-300, 1e-6, 1e-3, 1.0, 1e3, 1e300]))
    @settings(max_examples=300, deadline=None)
    def test_never_settles_a_row_the_solve_splits(self, hops, tol):
        # At each row's own min |E|, and one double below it, a verdict
        # turns on the last bit: a settled row must read min |E| <= tol in
        # the solve too, so the bound never exceeds the largest |eig(K)|.
        a, b, r = hops
        values = solved_min_abs(a, b, r)
        own = values[values > 0]
        for t in [tol, *own, *np.nextafter(own, 0.0)]:
            settled = spectra._settled(a, b, r, t)
            assert np.where(settled, False, values > t).tolist() == (values > t).tolist()
            assert not (settled & np.isnan(values)).any()

    def test_one_cell_settles_below_its_own_min_abs_e(self):
        # N = 1: K = -1 / (a b) is its own eigenvalue, and the margin is a
        # few roundings of it.
        a, b, r = np.array([[0.5]]), np.array([[-3.0]]), np.empty((1, 0))
        e = solved_min_abs(a, b, r)[0]
        assert e == pytest.approx(np.sqrt(1.5), rel=1e-15)
        assert not spectra._settled(a, b, r, e).any()
        assert spectra._settled(a, b, r, e * (1 + 1e-14)).all()

    @pytest.mark.parametrize("target, count", [(DisorderTarget.HOPPING_V, 102),
                                               (DisorderTarget.GAIN_LOSS, 209)])
    def test_settles_the_dense_bounds_rows_on_the_scan_grid(self, target, count):
        # scripts/disorder_scan.py's chain over its d grid at seeds
        # 26000-26019: the certificate settles exactly the rows that the
        # bound from K itself settled.
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        grid = DisorderConfig.from_seeds(target, np.linspace(0.05, 2.0, 40),
                                         range(26000, 26020), 30)
        a, b, r = (x.reshape(800, -1) for x in reduced_chain(p, grid))
        assert a.all() and b.all()
        settled = spectra._settled(a, b, r, 1e-6)
        assert settled.sum() == count
        assert settled.tolist() == dense_trace_bound_settles(a, b, r, 1e-6).tolist()


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
        with linalg_calls("eigvals") as seen:
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
            with linalg_calls("eigvals") as seen:
                got = spectra.chain_spectrum(spectra.chain(params, dis))
            assert seen == [(np.dtype(complex), (24, 24))]
            np.testing.assert_array_equal(
                got, np.linalg.eigvals(build_real_space(params, disorder=dis)))

    def test_mixed_path_is_solved_between_its_zero_hops(self):
        # One cell hop of 1.7e89 among hops of 1-3.5, of mixed sign: as one
        # 12 x 12 eigvals its path did not converge. Split at its zero hops
        # it is five lone sites, two dimers and one three-site block, each
        # checked against its own spectrum at 50 digits.
        mp = pytest.importorskip("mpmath")
        a = np.array([0.0, 0.0, 6.34094705246577e16, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, -4.4967131963245495e161, 0.0, 0.0, 0.0])
        r = np.array([0.0, 0.0, 3.5, 1.0, 1.0])
        got = spectra.chain_spectrum((a, b, r))
        oracle = []
        with mp.workdps(50):
            up = [mp.sqrt(abs(mp.mpf(x) * mp.mpf(y))) for x, y in zip(a, b)]
            hops = [h for pair in zip(up, [mp.mpf(x) for x in r] + [None]) for h in pair][:-1]
            down = [h if i % 2 or a[i // 2] * b[i // 2] >= 0 else -h for i, h in enumerate(hops)]
            start = 0
            for end in [i + 1 for i, h in enumerate(hops) if h == 0] + [len(hops) + 1]:
                m = mp.zeros(end - start)
                for i in range(start, end - 1):
                    m[i - start, i + 1 - start], m[i + 1 - start, i - start] = hops[i], down[i]
                # a lone site is 0 (mpmath's eig of a 1 x 1 returns its vectors too)
                e = mp.eig(m, left=False, right=False) if end - start > 1 else [0]
                oracle += [complex(x) for x in e]
                start = end
        assert len(oracle) == 12
        scale = 1.7e89
        assert_multisets_close(got, np.array(oracle), tol=10 * np.finfo(float).eps * scale)
        assert np.sort(np.abs(got.imag))[-2:].tolist() == pytest.approx([1.6885917e89] * 2)

    def test_wide_mixed_path_with_no_zero_hop_is_scaled(self):
        # Mixed signs, no zero hop, hops from 5e-143 to 9e129: unscaled, the
        # 14 x 14 eigvals of the path did not converge. It is one block,
        # solved scaled.
        a = np.array([2.059067686345876e+109, 6.362844525773694e+75, -1.4041753688174244e-29,
                      9.174183454921817e+95, 3.296542503325586e+61, 5.798689060079582e+77,
                      8.65855097467069e-70])
        b = np.array([-1.5609115636150145e-111, -9.16983138517003e+91, -2.707801864553255e-105,
                      5.348396562041093e-143, 4.8458229609118525e-107, -8.809661749480323e+129,
                      -1.4266603860500442e-127])
        r = np.array([4.947921895496937, -0.01745882695924304, -0.01649391648738858,
                      -16.866210672196058, -8.685839021594095, -1.2006927989880332])
        got = spectra.chain_spectrum((a, b, r))
        assert got.shape == (14,) and np.isfinite(got).all()
        spectra.spectral_report((a, b, r))
        spectra.zero_mode_analysis((a, b, r), require_chiral=False)

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
                form = chain(p, dis)
                sigma_max, _ = spectra._factor_singular_values(form, ZERO_MODE_TOL,
                                                               spectra._golub_kahan(form))
                assert abs(sigma_max - s_h[0]) <= 1e-14 * s_h[0]
                assert chain_norm(chain(p, dis)) == sigma_max
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
        sigma_max, smallest = factor_values(chain(params, disorder), 2.0)   # all below 2 sigma_max
        assert smallest.shape == (params.dim,)
        assert abs(sigma_max - oracle[-1]) <= 1e-14 * oracle[-1]
        assert exact_zeros == (params.v == 0.5 and disorder is None)
        assert (smallest[:exact_zeros] == 0.0).all()
        np.testing.assert_allclose(smallest[exact_zeros:], oracle[exact_zeros:],
                                   rtol=1e-14, atol=0)

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(0.0, 2.0),
           st.integers(1, 12), st.sampled_from([None, DisorderTarget.HOPPING_R,
                                                DisorderTarget.HOPPING_V,
                                                DisorderTarget.GAIN_LOSS]),
           st.floats(0.0, 1.5), st.integers(0, 1000))
    @example(1.1125369292536007e-308, 1.0, 0.0, 1, None, 0.0, 0)   # subnormal hops
    # The dense sigma_max is 8.2e-15 below the 60-digit value, which the
    # program's equals.
    @example(8.051403216103921e-15, 0.75, 8.051403216103921e-15, 4, None, 0.0, 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_svd(self, v, r, gamma, n, target, d, seed):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = None if target is None else DisorderConfig.from_seed(target, d, seed, n)
        H = build_real_space(p, disorder=dis)
        dense = np.linalg.svd(H, compute_uv=False)[::-1]
        sigma_max, smallest = factor_values(chain(p, dis), 2.0)
        # The dense SVD is backward stable: each sigma_i is off by a few
        # eps * sigma_max, a relative error of eps * kappa_i with
        # kappa_i = sigma_max / sigma_i. Where kappa_i is large the dense
        # value is noise: at v = gamma = d = 3.03e-38, r = 0.05, N = 4 it
        # reads 0 and 2.5e-18 where 500-digit mpmath and
        # the bisection agree on 2.4e-147 and 4.0e-146.
        eps = np.finfo(float).eps
        if not (abs(sigma_max - dense[-1]) <= 1e-14 * dense[-1]
                and (np.abs(smallest - dense) <= 8 * p.dim * eps * dense[-1]).all()):
            # The dense SVD can miss by 100 ulp of sigma_max (its bidiagonal
            # solve's tolerance; see TestRealForm), so a 60-digit oracle
            # decides. sigma_max must be within _bisect's tolerance at tol = 0,
            # eps ||T||_1 of the Golub-Kahan matrix T (at most twice the
            # largest hop), and as much again for Sturm counts that are exact
            # for a T a few ulp away.
            mp = pytest.importorskip("mpmath")
            with mp.workdps(60):
                X, Y = mp_factors(H, mp)
                exact = sorted(s for M in (X, Y) for s in mp.svd_r(M, compute_uv=False))
                assert abs(sigma_max - exact[-1]) <= (
                    4 * eps * np.abs(np.concatenate(chain(p, dis))).max())
                assert all(abs(mp.mpf(x) - y) <= 8 * p.dim * eps * exact[-1]
                           for x, y in zip(smallest.tolist(), exact))
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
        _, smallest = factor_values(chain(p, dis), 2.0)
        np.testing.assert_allclose(smallest, dense, rtol=0, atol=1e-15)
        assert (smallest[0] == 0.0) == (v == 0.5)
        weights, s1, s2 = dense_cell_weights(H)
        assert s2 - s1 > 0.1
        np.testing.assert_allclose(null_weights(chain(p, dis)), weights, rtol=0, atol=1e-14)

    def test_values_below_the_cut_only(self, defective_params):
        # At v = gamma/2 only X's exact zero lies below tol * sigma_max. At
        # v = 1.3 none does; at tol = 2, every one does, and u0 is sigma_min's.
        assert factor_values(chain(defective_params))[1].tolist() == [0.0]
        assert edge_profile(zero_mode_analysis(chain(defective_params)).u0).side == "left"
        p = LatticeParams(v=1.3, r=0.5, gamma=1.0, n_cells=30)
        assert factor_values(chain(p))[1].size == 0
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
        assert factor_values(chain(p, dis))[1].tolist() == [0.0]
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
        _, smallest = factor_values(chain(p))
        assert smallest.size == 2 and smallest[0] == smallest[1]
        a, _, r = reduced_chain(p)
        vx = np.linalg.svd(-np.diag(a) - np.diag(r, 1))[2][-1]
        zm = zero_mode_analysis(chain(p))
        np.testing.assert_allclose(edge_profile(zm.u0).weights, vx ** 2, rtol=0, atol=1e-12)
        assert edge_profile(zm.u0).side == "left"

    def test_zero_chain_has_every_singular_value_zero(self):
        sigma_max, smallest = factor_values(chain(ZERO_CHAINS[0]))
        assert sigma_max == 0.0 and smallest.tolist() == [0.0, 0.0]
        assert null_weights(chain(ZERO_CHAINS[0])).tolist() == [pytest.approx(1.0, abs=1e-15)]

    @pytest.mark.parametrize("info", [-6, 1, 2])
    def test_lapack_failure_raises(self, monkeypatch, info):
        # dstebz reports an illegal argument (info < 0) or a failed
        # bisection (info > 0) only in info; its output is then wrong
        # without any other sign. info = 2 from every call, the fallback
        # of the index call too, still raises.
        real = scipy.linalg.lapack.dstebz
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz",
                            lambda *args: (*real(*args)[:-1], info))
        with pytest.raises(np.linalg.LinAlgError, match=f"dstebz returned info = {info}"):
            factor_values(chain(LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=4)))

    @pytest.mark.parametrize("params, disorder", [
        (LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=4), None),
        (LatticeParams(v=1.3, r=0.5, gamma=1.0, n_cells=20),
         DisorderConfig.from_seed(DisorderTarget.HOPPING_V, 0.3, 4, 20)),
    ], ids=["v0.5-N4", "v-seed4-d0.3-N20"])
    def test_index_info_2_takes_all_eigenvalues(self, monkeypatch, params, disorder):
        # info = 2 from the index call (select 2) alone falls back to
        # select 0, whose largest eigenvalue is sigma_max to a few ulp (the
        # two ranges stop bisecting at different points); the values below
        # the cut come from the value calls and do not change.
        real = scipy.linalg.lapack.dstebz
        want = factor_values(chain(params, disorder))
        calls = []

        def fail_index(d, e, select, *args):
            calls.append(select)
            out = real(d, e, select, *args)
            return (*out[:-1], 2) if select == 2 else out

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", fail_index)
        got = factor_values(chain(params, disorder))
        assert calls[:2] == [2, 0]
        assert abs(got[0] - want[0]) <= 4 * np.finfo(float).eps * want[0]
        np.testing.assert_array_equal(got[1], want[1])


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

    @pytest.mark.parametrize("params, d, seed", [
        (LatticeParams(v=0.0, r=0.25, gamma=0.0, n_cells=6), 2.220446049250313e-16, 0),
        (LatticeParams(v=5e-9, r=1.0, gamma=1e-8, n_cells=4), 0.25, 62),
    ], ids=["N6-v0-gamma0", "N4-v5e-9"])
    def test_norm_where_index_bisection_fails(self, params, d, seed):
        # dstebz's index call for sigma_max returns info = 2 on these r
        # disorder draws; sigma_max comes from all eigenvalues instead.
        dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_R, d, seed, params.n_cells)
        dense = np.linalg.norm(build_real_space(params, disorder=dis), 2)
        assert abs(chain_norm(chain(params, dis)) - dense) <= 4 * np.finfo(float).eps * dense

    def test_forms_a_function_does_not_take_raise(self):
        # chain refuses a stack of draws and a grid of strengths, whose
        # stack of H would read as Bloch blocks.
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=6)
        stack = DisorderConfig.from_seeds(DisorderTarget.ON_SITE, 0.3, [0, 1], 6)
        with pytest.raises(ValueError, match="stack"):
            chain(p, stack)
        with pytest.raises(ValueError, match="grid"):
            chain(p, DisorderConfig.from_seed(DisorderTarget.HOPPING_V, [0.0, 0.3], 0, 6))

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
        _, values = spectra._factor_singular_values(chain(p), tol, spectra._golub_kahan(chain(p)))
        sign = 1 if spectra._null_factor(chain(p), values) else -1
        assert np.abs(chiral_operator(n) @ got.u0 - sign * got.u0).max() <= 1e-15

    def test_edge_state_gauge(self, defective_params):
        # The largest component ties with its cell partner; beta is real
        # positive, so the edge state is (i, 1, 0, ...) / sqrt(2). X has
        # the zero hop a_1, so substitution gives it exactly: every site
        # past the first cell is 0, and the first two lie within an ulp of
        # 1 / sqrt(2).
        zm = zero_mode_analysis(build_real_space(defective_params))
        assert not zm.u0[2:].any()
        np.testing.assert_allclose(zm.u0, exact_zero_mode(30), rtol=0, atol=1.2e-16)

    @pytest.mark.parametrize("v, r", [(0.5, 0.5), (-0.5, 0.5), (0.3, 0.5), (0.0, 1.0)])
    def test_takes_no_dense_solve(self, monkeypatch, v, r):
        # At v = +-gamma/2 the factor that holds sigma_min has zero hops on
        # its diagonal and gives its null vector by substitution, with no
        # SVD. Elsewhere, one N x N SVD, of that factor; the other factor
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
        assert seen["svd"] == [(40, 40)] * (0 if abs(v) == 0.5 else zm.geometric_multiplicity)
        assert seen["eigvals"] == ([np.dtype(float)] if abs(v) < 0.5 else [])


# Hops of the lattice's own scale, and of any size below 1e300, subnormals
# and exact zeros included.
HOPS = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300),
                 st.sampled_from([0.0, 5e-324, -5e-324, 1e-310]))


@st.composite
def hops_with_a_zero_hop(draw):
    """Reduced hops (a, b, r) whose a (X's diagonal) or b (Y's) holds at
    least one exact zero."""
    n = draw(st.integers(1, 8))
    a, b = (np.array(draw(st.lists(HOPS, min_size=n, max_size=n))) for _ in range(2))
    r = np.array(draw(st.lists(HOPS, min_size=n - 1, max_size=n - 1)))
    diag = (a, b)[draw(st.integers(0, 1))]
    diag[draw(st.lists(st.integers(0, n - 1), min_size=1))] = 0.0
    return a, b, r


def exact_residual_squared(hops, u0) -> Fraction:
    """||H u0||^2 in exact arithmetic, H = i U A U^H of the hops. Cell n of
    U^H u0 holds (alpha - i beta, alpha + i beta) / sqrt(2) on the sites of
    the path A, so ||H u0||^2 = ||A w||^2 / 2 with w those two sums; A takes
    -a_n w'_n - r_n w'_{n+1} to the first site of cell n and
    b_n w_n + r_{n-1} w_{n-1} to the second, with w (w') on the first (second)."""
    a, b, r = ([Fraction(x) for x in h] for h in hops)
    al = [(Fraction(z.real), Fraction(z.imag)) for z in u0[0::2]]
    be = [(Fraction(z.real), Fraction(z.imag)) for z in u0[1::2]]
    first = [(x + yi, xi - y) for (x, xi), (y, yi) in zip(al, be)]     # alpha - i beta
    second = [(x - yi, xi + y) for (x, xi), (y, yi) in zip(al, be)]    # alpha + i beta
    total = Fraction(0)
    for n in range(len(a)):
        for k in range(2):
            top = -a[n] * second[n][k] - (r[n] * second[n + 1][k] if n < len(r) else 0)
            bottom = b[n] * first[n][k] + (r[n - 1] * first[n - 1][k] if n else 0)
            total += top * top + bottom * bottom
    return total / 2


class TestSubstitutedNullVector:
    """Where the factor that holds sigma_min has a zero hop on its diagonal,
    zero_mode_analysis takes u0 by substitution (spectra._substituted_null_vector)."""

    @given(hops_with_a_zero_hop())
    @settings(max_examples=300, deadline=None)
    @example((np.array([5e-324, 0.0]), np.array([5e-324, 0.0]), np.array([1.0])))
    @example((np.array([1e-300, 1e-300, 0.0]), np.array([1.0, 1.0, 1.0]),
              np.array([1e300, 1e300])))     # x_1 / x_3 = 1e1200, beyond double range
    def test_null_vector_residual_is_rounding(self, hops):
        # zero_mode_analysis' (u0, u0') on hops, without its algebraic count:
        # chain_spectrum's eigvals need not converge on such hops. u0' =
        # H^+ u0 has a norm of at least 1 / sigma over the singular values
        # kept, beyond double range where those are subnormal (a = b = (0, 0),
        # r = 5e-324), and the other factor's dense SVD can read a subnormal
        # one as 0: u0' overflows or divides by zero there, and only u0 is
        # checked here.
        bisected = spectra._golub_kahan(hops)
        _, values = spectra._factor_singular_values(hops, ZERO_MODE_TOL, bisected)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u0, _ = spectra._hop_zero_vectors(hops, values)
        n = len(hops[0])
        M = spectra._matrix(hops)       # i [[0, X], [Y, 0]], unitarily similar to H
        s = np.linalg.svd(M, compute_uv=False)
        assert np.linalg.norm(u0) == pytest.approx(1.0, abs=1e-15)
        bound = 2 * n * Fraction(np.finfo(float).eps) * Fraction(float(s[0]))
        assert exact_residual_squared(hops, u0) <= bound ** 2
        if s[0] and s[-2] > 1e-8 * s[0]:
            # One-dimensional null space: u0 spans the dense null vector.
            null = np.linalg.svd(M)[2][-1].conj()
            w = np.concatenate([u0[0::2] - 1j * u0[1::2],
                                u0[0::2] + 1j * u0[1::2]]) * np.sqrt(0.5)
            assert abs(np.vdot(null, w)) >= 1 - 1e-10

    def test_first_zero_of_x_and_last_of_y(self):
        # X x = 0 is solved from the first zero a_n and Y y = 0 from the last
        # zero b_n; sites past (before) it hold nothing.
        a = np.array([2.0, 0.0, 3.0, 0.0])
        b = np.array([0.0, 5.0, 0.0, 7.0])
        r = np.array([1.0, 1.0, 1.0])
        x = spectra._substituted_null_vector((a, b, r), 0)
        y = spectra._substituted_null_vector((a, b, r), 1)
        assert (x == [-0.5, 1.0, 0.0, 0.0]).all()
        np.testing.assert_array_equal(y, [0.0, 0.0, 1.0, -1 / 7])

    def test_walk_longer_than_one_run(self):
        # a_n = 3/4, r_n = 1 and a first zero at k = 2400: x_n = (-4/3)^(k - n).
        # The hops' mantissas divide to -2/3 at each step, whose running
        # product would pass below double range within 1800 steps; it is
        # renormalised between runs of 1000 quotients, and the exponent
        # carried, so every ratio x_n / x_{n+1} is -4/3 to rounding.
        n, k = 2500, 2400
        a = np.full(n, 0.75)
        a[k] = 0.0
        x = spectra._substituted_null_vector((a, np.ones(n), np.ones(n - 1)), 0)
        assert 0.5 <= abs(x[0]) <= 1.0
        np.testing.assert_allclose(x[:k] / x[1:k + 1], -4 / 3, rtol=1e-15, atol=0)
        assert x[k] and not x[k + 1:].any()


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
    @example(n=1, v=5e-324, r=1.0, gamma=5e-324, target=DisorderTarget.GAIN_LOSS, d=5e-324,
             seed=104, tol=ZERO_MODE_TOL)   # a = (0,), b = (1e-323,): tol * sigma_max is 0.0
    @example(n=6, v=0.0, r=0.25, gamma=0.0, target=DisorderTarget.HOPPING_R,
             d=2.220446049250313e-16, seed=0, tol=ZERO_MODE_TOL)  # dstebz index call: info 2
    def test_disordered_hops_match_dense_solve(self, n, v, r, gamma, target, d, seed, tol):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=n)
        dis = DisorderConfig.from_seed(target, d, seed, n)
        # Scaled up by a power of two, so that the cut of a subnormal H is not 0.0.
        H, _ = scaled_up(build_real_space(p, disorder=dis))
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


@st.composite
def clustered_spectra(draw):
    """(ws, thresh): lexsorted eigenvalues, real, purely imaginary or
    complex, on a grid of a spacing near thresh about a few centres, each
    point k-fold bit-equal, with thresh from 1 down to the subnormal floor,
    where only equal values are closer than it."""
    thresh = draw(st.sampled_from([1.0, 1e-8, 3e-300, np.finfo(float).smallest_subnormal]))
    kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
    unit = thresh * draw(st.sampled_from([0.5, 0.75, 1.0, 1.5]))
    part = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    step = st.integers(-3, 3)
    w = []
    for _ in range(draw(st.integers(1, 4))):
        centre = complex(draw(part), draw(part))
        for _ in range(draw(st.integers(1, 8))):
            z = centre + complex(draw(step), draw(step)) * unit
            if kind == "real":
                z = complex(z.real, draw(st.sampled_from([0.0, -0.0])))
            elif kind == "imaginary":
                z = complex(draw(st.sampled_from([0.0, -0.0])), z.imag)
            w += [z] * draw(st.integers(1, 3))
    w = np.array(w)
    return w[np.lexsort((w.imag, w.real))], thresh


class TestSingleLinkage:
    """spectra._linkage_labels against the n x n label propagation that
    spectral_report ran before (conftest.matrix_labels)."""

    @given(clustered_spectra())
    @settings(max_examples=200, deadline=None)
    def test_labels_match_the_matrix_reference(self, drawn):
        ws, thresh = drawn
        assert np.array_equal(spectra._linkage_labels(ws, thresh), matrix_labels(ws, thresh))

    def test_defective_chain_at_n_1000(self):
        # The n x n matrix took 96 MB here; the sweep and the zero-mode
        # solves together stay below a third of that.
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=1000)
        form = chain(p)
        spectral_report(form)
        tracemalloc.start()
        try:
            rep = spectral_report(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(c.value, c.algebraic, c.geometric) for c in rep.clusters] == [
            (-0.5, 999, 1), (0.0, 2, 1), (0.5, 999, 1)]
        assert rep.zero_cluster.defective
        assert peak < 32e6

    def test_sigma_max_is_bisected_once(self, monkeypatch):
        # One index bisection of sigma_max serves the scale and the zero cluster.
        calls = []
        bisect = spectra._bisect

        def counted(off, select, **kw):
            calls.append(select)
            return bisect(off, select, **kw)

        monkeypatch.setattr(spectra, "_bisect", counted)
        rep = spectral_report(chain(LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)))
        assert rep.zero_cluster is not None
        assert calls.count(2) == 1


class TestSpectralReport:
    def test_clusters_match_loop_reference(self):
        for p, dis in cluster_chains():
            H = build_real_space(p, disorder=dis)
            rep = spectral_report(H)
            got = [(c.value, c.algebraic, c.geometric) for c in rep.clusters]
            # repr round-trips each float, so equal reprs mean equal bits
            assert repr(got) == repr(loop_clusters(H, rep.eigenvalues)), (p, dis)
            # The n x n label propagation the sweep replaced, at the report's own threshold.
            scale = chain_norm(spectra._reduced(H, "spectral_report"))
            thresh = max(CLUSTER_TOL * scale, np.finfo(float).smallest_subnormal)
            assert repr([c[:2] for c in got]) == repr(matrix_clusters(rep.eigenvalues, thresh))

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
        # The floor on the scale keeps {0, 0} real.
        assert rep.is_real
        zm = rep.zero_cluster
        assert zm is not None and zm.geometric_multiplicity == 2 and not zm.defective
        assert not zm.u0_prime.any()

    @pytest.mark.parametrize("n, v", [(100, 1.3), (40, 0.55), (60, 0.55)])
    def test_clean_open_chain_real_where_dense_scatters(self, n, v):
        # Every a_n b_n > 0, so the spectrum is real; the dense solve of H
        # reported |Im E| above REALITY_TOL * ||H||_2 at each of these.
        rep = spectral_report(build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)))
        assert rep.is_real and not rep.eigenvalues.imag.any()

    @pytest.mark.parametrize("v, real", [(0.75, True), (0.1, False)])
    def test_open_chain_reality(self, v, real):
        # Real for |v| > gamma/2 at r = gamma/2, complex below it.
        rep = spectral_report(build_real_space(LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30)))
        assert rep.is_real == real

    def test_is_real_scale_matches_dense_norm(self):
        # The scale is ||A||_2 of the real path; the dense ||H||_2 gives the
        # same flags. Just below v = gamma/2, max|Im E| / ||H||_2 is about
        # sqrt(gamma/2 - v), 1e-8 at v = 0.5 - 1e-16, so a wrong scale flips some.
        vs = np.concatenate([np.linspace(-1.5, 1.5, 31), 0.5 - np.logspace(-16, -2, 15)])
        for n in (1, 2, 5, 12, 30):
            for v in vs:
                p = LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=n)
                dense = np.linalg.norm(build_real_space(p), 2)
                want = np.abs(spectra.chain_spectrum(chain(p)).imag).max() < REALITY_TOL * dense
                assert spectral_report(chain(p)).is_real == want

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
        # v = gamma/2, takes no SVD: X, which holds sigma_min, has the zero
        # hops a_n = 0 and gives its null vector by substitution, and Y
        # takes a triangular solve.
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
        assert seen["svd"] == [((60, 60), False)] * geometric_svds
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
    @example(n=2, r=1.0, gamma=0.0, edge=None, v_free=0.0, target=DisorderTarget.HOPPING_V,
             d=5e-324, seed=287)    # a = (5e-324, 0): -r_1 / a_1 overflows
    @example(n=4, r=1.0, gamma=1e-08, edge=0.5, v_free=0.0, target=DisorderTarget.HOPPING_R,
             d=0.25, seed=62)       # dstebz's index call for sigma_max returns info = 2
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


def bloch_gaps(p):
    """(real gap, imaginary gap) of the periodic chain p twice: by the closed
    forms ||v| - r| > gamma/2 and |v| + r < gamma/2, and by the Bloch bands
    on 4001 momenta, gapped where min |Re E| (min |Im E|) exceeds 1e-4."""
    E = spectra.chain_spectrum(build_bloch(p, np.linspace(0.0, 2 * np.pi, 4001)))
    closed = (abs(abs(p.v) - p.r) > p.gamma / 2, abs(p.v) + p.r < p.gamma / 2)
    return closed, (bool(np.abs(E.real).min() > 1e-4), bool(np.abs(E.imag).min() > 1e-4))


def is_real_by_definition(params):
    """spectral_report's is_real, max|Im E| < REALITY_TOL ||H||_2, computed
    from chain_spectrum and chain_norm of the chain's form."""
    form = chain(params)
    return bool(np.abs(spectra.chain_spectrum(form).imag).max()
                < REALITY_TOL * max(chain_norm(form), 1e-300))


class TestGapReport:
    """Band gaps of periodic chains and the reality of open-chain spectra."""

    def test_real_gapped(self):
        p = LatticeParams(v=2.0, r=0.5, gamma=1.0, n_cells=30,
                          boundary=Boundary.PERIODIC)
        assert bloch_gaps(p) == ((True, False), (True, False))

    def test_imag_gapped(self):
        p = LatticeParams(v=1e-9, r=0.2, gamma=1.0, n_cells=30,
                          boundary=Boundary.PERIODIC)
        assert bloch_gaps(p) == ((False, True), (False, True))

    def test_zero_chain_is_real(self):
        # H = 0: the floor on the scale keeps {0, 0} real.
        assert spectral_report(chain(ZERO_CHAINS[0])).is_real
        assert is_real_by_definition(ZERO_CHAINS[0])

    @pytest.mark.parametrize("n, v", [(100, 1.3), (40, 0.55), (60, 0.55)])
    def test_open_chain_real_despite_dense_scatter(self, n, v):
        # Every a_n b_n > 0, so the spectrum is real; the dense solve of
        # these strongly non-normal chains reports |Im E| far above
        # REALITY_TOL * ||H||_2 (8.0e-4 at N = 60, v = 0.55). The flag on
        # the chain's form agrees with its definition.
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
        assert spectral_report(chain(p)).is_real and is_real_by_definition(p)


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
