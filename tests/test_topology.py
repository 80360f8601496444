import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhlab import (GaplessTrajectoryError, LatticeParams, OnBoundaryError,
                   TrackedBand, TrackingAmbiguityError, band_coefficients,
                   count_enclosed_eps, track_band, winding_number)
from nhlab.spectra import bloch_branches

# The three parameter sets of the periodic-chain phase diagram: zero, one
# and two exceptional points enclosed by the (h_x, h_z) hopping circle.
FIG2C_SETS = [
    (LatticeParams(v=0.3, r=0.18, gamma=1.0, n_cells=1), 0, 0.0, "2pi"),
    (LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1), 1, 0.5, "4pi"),
    (LatticeParams(v=0.3, r=1.0, gamma=1.0, n_cells=1), 2, 1.0, "2pi"),
]

clean_params_st = st.builds(
    LatticeParams,
    v=st.floats(-1.5, 1.5),
    r=st.floats(0.1, 1.5),
    gamma=st.floats(0.1, 2.0),
    n_cells=st.just(1),
)


def away_from_boundaries(p, margin=0.05):
    return all(abs(abs(s * p.gamma / 2 - p.v) - p.r) > margin for s in (1, -1))


def loop_track_band(params, start=0.0, span=4 * np.pi, samples=4001, branch=0):
    """Reference tracker: follows the branch by maximum eigenvector overlap, step by step."""
    ks = start + np.linspace(0.0, span, samples)
    _, u_plus, u_minus = bloch_branches(params, ks)
    pair = np.stack([u_plus, u_minus], axis=2)
    vectors = np.empty_like(pair)
    cur = branch
    for i in range(samples):
        if i:
            same = abs(np.vdot(pair[i - 1, :, cur], pair[i, :, cur]))
            cross = abs(np.vdot(pair[i - 1, :, cur], pair[i, :, 1 - cur]))
            if cross > same:
                cur = 1 - cur
        vectors[i] = pair[i][:, [cur, 1 - cur]]
    return vectors


def normalized_coeffs(u, basis_plus, basis_minus):
    c = np.abs(band_coefficients(u, basis_plus, basis_minus))
    return c / np.linalg.norm(c)


class TestCountEnclosedEps:
    @pytest.mark.parametrize("params,n_eps,_w,_c", FIG2C_SETS)
    def test_figure_sets(self, params, n_eps, _w, _c):
        assert count_enclosed_eps(params) == n_eps

    def test_on_boundary_raises(self):
        # distance from center (v, 0) to EP (+gamma/2, 0) equals r
        p = LatticeParams(v=0.2, r=0.3, gamma=1.0, n_cells=1)
        with pytest.raises(OnBoundaryError):
            count_enclosed_eps(p)

    def test_hermitian_limit_counts_both(self):
        # gamma = 0 merges the EPs at the origin; enclosed iff |v| < r.
        assert count_enclosed_eps(LatticeParams(v=0.3, r=1.0, gamma=0.0, n_cells=1)) == 2
        assert count_enclosed_eps(LatticeParams(v=1.5, r=0.5, gamma=0.0, n_cells=1)) == 0

    @given(clean_params_st)
    @settings(max_examples=100, deadline=None)
    def test_matches_geometric_predicate(self, p):
        assume(away_from_boundaries(p, margin=1e-6))
        expected = sum(abs(s * p.gamma / 2 - p.v) < p.r for s in (1, -1))
        assert count_enclosed_eps(p) == expected


class TestTrackBand:
    def test_rejects_too_few_samples(self):
        p = FIG2C_SETS[0][0]
        with pytest.raises(ValueError):
            track_band(p, samples=100)

    def test_length_and_span(self):
        p = FIG2C_SETS[0][0]
        tracked = track_band(p, samples=801)
        assert tracked.ks.shape == (801,)
        assert tracked.vectors.shape == (801, 2, 2)
        assert tracked.ks[0] == 0.0
        assert tracked.ks[-1] == pytest.approx(4 * np.pi)

    def test_starts_on_principal_branch(self):
        # The tracked branch starts on u_plus, the eigenvector of the
        # principal square root E (Re E >= 0), and the other on u_minus.
        for p, *_ in FIG2C_SETS:
            tracked = track_band(p)
            E, u_plus, u_minus = bloch_branches(p, tracked.ks)
            assert E[0].real >= 0 or abs(E[0].real) < 1e-12
            np.testing.assert_array_equal(tracked.vectors[0, :, 0], u_plus[0])
            np.testing.assert_array_equal(tracked.vectors[0, :, 1], u_minus[0])

    @pytest.mark.parametrize("params,n_eps,_w,_c", FIG2C_SETS)
    def test_closure_at_two_pi(self, params, n_eps, _w, _c):
        tracked = track_band(params)
        i2pi = int(np.argmin(np.abs(tracked.ks - 2 * np.pi)))
        c = normalized_coeffs(tracked.vectors[i2pi, :, 0], *tracked.vectors[0].T)
        if n_eps == 1:
            # the two eigenvectors exchange values after one 2*pi period
            assert c[0] < 1e-3
            assert c[1] > 1 - 1e-6
        else:
            assert c[0] > 1 - 1e-6
            assert c[1] < 1e-3

    @pytest.mark.parametrize("params,n_eps,_w,_c", FIG2C_SETS)
    def test_closure_at_four_pi(self, params, n_eps, _w, _c):
        tracked = track_band(params)
        overlap = abs(np.vdot(tracked.vectors[0, :, 0], tracked.vectors[-1, :, 0]))
        assert overlap > 1 - 1e-6

    @given(clean_params_st, st.sampled_from([400, 4001]), st.floats(-np.pi, np.pi),
           st.sampled_from([-2 * np.pi, 2 * np.pi, 4 * np.pi]), st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_matches_overlap_loop(self, p, samples, start, span, branch):
        # Following E picks the same eigenvectors as the overlap loop, bit for bit.
        assume(away_from_boundaries(p))
        tracked = track_band(p, start=start, span=span, samples=samples, branch=branch)
        assert tracked.vectors.tobytes() == loop_track_band(
            p, start=start, span=span, samples=samples, branch=branch).tobytes()


class TestBandCoefficients:
    def test_recovers_basis_vectors(self):
        bp = np.array([1.0, 2.0j]) / np.sqrt(5)
        bm = np.array([1.0, -0.5]) / np.sqrt(1.25)
        np.testing.assert_allclose(band_coefficients(bp, bp, bm), [1, 0], atol=1e-14)
        np.testing.assert_allclose(band_coefficients(bm, bp, bm), [0, 1], atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        bp = rng.normal(size=2) + 1j * rng.normal(size=2)
        bm = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = (0.3 - 0.4j) * bp + (1.1 + 0.2j) * bm
        np.testing.assert_allclose(band_coefficients(u, bp, bm),
                                   [0.3 - 0.4j, 1.1 + 0.2j], atol=1e-12)


class TestWindingNumber:
    @pytest.mark.parametrize("params,n_eps,winding,closure", FIG2C_SETS)
    def test_figure_values(self, params, n_eps, winding, closure):
        res = winding_number(track_band(params))
        assert res.winding == winding
        assert res.closure_period == closure
        assert res.eps_enclosed == n_eps

    def test_trajectory_shape_and_realness(self):
        res = winding_number(track_band(FIG2C_SETS[1][0]))
        assert res.trajectory.shape == (4001, 2)
        assert res.trajectory.dtype == np.float64
        assert np.all(np.isfinite(res.trajectory))

    def test_doubling_samples_is_stable(self):
        for p, _, w, c in FIG2C_SETS:
            res = winding_number(track_band(p, samples=8001))
            assert res.winding == w
            assert res.closure_period == c

    def test_gapless_trajectory_raises(self):
        # sigma_y eigenvector: <sigma_x> = <sigma_z> = 0 identically
        u = np.array([1.0, 1.0j]) / np.sqrt(2)
        tracked = TrackedBand(ks=np.linspace(0, 4 * np.pi, 401),
                              vectors=np.tile(np.column_stack([u, u.conj()]), (401, 1, 1)))
        with pytest.raises(GaplessTrajectoryError):
            winding_number(tracked)

    def test_coarse_angle_step_raises(self):
        # consecutive points separated by pi in trajectory angle
        ua = np.array([1.0, 1.0]) / np.sqrt(2)    # angle 0
        ub = np.array([1.0, -1.0]) / np.sqrt(2)   # angle pi
        tracked = TrackedBand(ks=np.linspace(0, 4 * np.pi, 5),
                              vectors=np.stack([np.column_stack([ua if i % 2 == 0 else ub, ua])
                                                for i in range(5)]))
        with pytest.raises(TrackingAmbiguityError):
            winding_number(tracked)

    def test_non_half_integer_winding_refused(self):
        # u = (cos a, -sin a) has (<sigma_x>, <sigma_z>) = (-sin 2a, cos 2a), whose
        # angle turns by pi/2 as a goes 0 -> pi/4: a winding of 1/8.
        a = np.linspace(0.0, np.pi / 4, 401)
        u = np.stack([np.cos(a), -np.sin(a)], axis=1)
        w = np.stack([np.sin(a), np.cos(a)], axis=1)
        tracked = TrackedBand(ks=np.linspace(0, 4 * np.pi, 401),
                              vectors=np.stack([u, w], axis=2).astype(complex))
        with pytest.raises(TrackingAmbiguityError, match="half-integer"):
            winding_number(tracked)

    def test_rejects_sweep_other_than_four_pi(self):
        # over 2*pi the two-EP circle would read as winding 1/2
        with pytest.raises(ValueError):
            winding_number(track_band(FIG2C_SETS[2][0], span=2 * np.pi))

    @given(clean_params_st)
    @settings(max_examples=40, deadline=None)
    def test_winding_ep_theorem(self, p):
        assume(away_from_boundaries(p))
        res = winding_number(track_band(p))
        assert res.winding == count_enclosed_eps(p) / 2
        assert (res.closure_period == "4pi") == (res.eps_enclosed == 1)

    @given(st.floats(0.1, 2.0), st.floats(0.1, 1.5), st.sampled_from([1, -1]),
           st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.floats(-9, -2),
           st.sampled_from([400, 1000, 4001]))
    @settings(max_examples=150, deadline=None)
    def test_near_boundary_is_right_or_refused(self, gamma, r, ep, inside, side, log_d,
                                               samples):
        # The circle passes 10**log_d inside or outside the EP at ep * gamma / 2,
        # with the center to its left or right; a refusal is allowed, a wrong value not.
        v = ep * gamma / 2 + side * (r - inside * 10 ** log_d)
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        try:
            n_eps = count_enclosed_eps(p)
            res = winding_number(track_band(p, samples=samples))
        except (TrackingAmbiguityError, OnBoundaryError):
            return
        assert res.winding == n_eps / 2
        assert (res.closure_period == "4pi") == (n_eps == 1)
