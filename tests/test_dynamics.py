import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhlab import (Boundary, ExceptionalPointError, LatticeParams,
                   PropagatorOverflowError, SweepDirection, SweepMode, TimeSeries,
                   adiabatic_sweep, band_coefficients, bloch_eigensystem, build_bloch,
                   build_real_space, count_enclosed_eps, evolve, fourier_detect,
                   propagator)
from nhlab.cli import EVOLVE_PRESETS
from nhlab.spectra import exact_generalized_zero_mode, exact_zero_mode


def alpha1_excitation(n_cells):
    psi0 = np.zeros(2 * n_cells, dtype=complex)
    psi0[0] = 1.0
    return psi0


class TestPropagator:
    def test_zero_hamiltonian_is_identity(self):
        np.testing.assert_allclose(propagator(np.zeros((6, 6)), 3.7), np.eye(6),
                                   atol=1e-14)

    def test_rejects_negative_time_and_nonfinite(self):
        with pytest.raises(ValueError):
            propagator(np.eye(2), -1.0)
        with pytest.raises(ValueError):
            propagator(np.array([[np.inf, 0], [0, 0]]), 1.0)

    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    def test_jordan_secular_growth(self, t, defective_params):
        # H g = (i, 1, 0, ...) and H^2 g = 0, so U(t) g = g - i t (i, 1, 0, ...).
        H = build_real_space(defective_params)
        g = exact_generalized_zero_mode(defective_params.n_cells, 0.5, 1.0)
        expected = g - 1j * t * np.sqrt(2.0) * exact_zero_mode(defective_params.n_cells)
        np.testing.assert_allclose(propagator(H, t) @ g, expected, atol=1e-10)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        target = propagator(H, 1.0) @ psi
        # independent fine-step RK4 on dpsi/dt = -i H psi
        f = lambda y: -1j * (H @ y)
        y, h = psi.copy(), 1e-3
        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + h / 2 * k1)
            k3 = f(y + h / 2 * k2)
            k4 = f(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(target, y, atol=1e-8)

    def test_composition(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        H /= np.linalg.norm(H, 1)
        U1, U2, U12 = propagator(H, 0.7), propagator(H, 1.6), propagator(H, 2.3)
        np.testing.assert_allclose(U1 @ U2, U12, atol=1e-10)

    def test_overflow_guard_reports_substeps(self):
        H = 10.0 * np.eye(4)
        with pytest.raises(PropagatorOverflowError) as exc:
            propagator(H, 100.0)
        assert exc.value.substeps >= 5


class TestEvolve:
    def test_rejects_bad_dt_and_shape(self):
        H = np.eye(4)
        with pytest.raises(ValueError):
            evolve(H, np.ones(4), 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve(H, np.ones(3), 1.0, 0.1)

    def test_initial_state_exact(self, defective_params):
        H = build_real_space(defective_params)
        psi0 = alpha1_excitation(defective_params.n_cells)
        ts = evolve(H, psi0, 1.0, 0.1)
        np.testing.assert_array_equal(ts.states[0], psi0)

    def test_zero_mode_is_stationary(self, defective_params):
        H = build_real_space(defective_params)
        u0 = exact_zero_mode(defective_params.n_cells)
        ts = evolve(H, u0, 20.0, 0.05)
        np.testing.assert_allclose(ts.states, np.broadcast_to(u0, ts.states.shape),
                                   atol=1e-10)
        np.testing.assert_allclose(
            ts.cell_populations,
            np.broadcast_to(ts.cell_populations[0], ts.cell_populations.shape),
            atol=1e-10)

    def test_populations_recomputable(self):
        p = LatticeParams(v=0.4, r=0.6, gamma=0.8, n_cells=6)
        ts = evolve(build_real_space(p), alpha1_excitation(6), 5.0, 0.05)
        pops = np.abs(ts.states[:, 0::2]) ** 2 + np.abs(ts.states[:, 1::2]) ** 2
        np.testing.assert_allclose(ts.cell_populations, pops, atol=1e-12)

    def test_left_edge_concentration(self):
        # excitation on alpha_1 stays on the left edge in the gap-open regime
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=5)
        ts = evolve(build_real_space(p), alpha1_excitation(5), 30.0, 0.01)
        frac = ts.cell_populations[:, :2].sum(axis=1) / ts.cell_populations.sum(axis=1)
        assert frac.min() > 0.9

    def test_hermitian_norm_conserved(self):
        p = LatticeParams(v=0.7, r=0.9, gamma=0.0, n_cells=8)
        psi0 = alpha1_excitation(8)
        ts = evolve(build_real_space(p), psi0, 30.0, 0.05)
        np.testing.assert_allclose(np.linalg.norm(ts.states, axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("body, psi0", [
        (EVOLVE_PRESETS["zero-mode-present"], alpha1_excitation(5)),
        (EVOLVE_PRESETS["zero-mode-absent"], alpha1_excitation(5)),
        ({"n_cells": 3, "v": 0.7, "r": 0.4, "gamma": 0.9, "t_max": 30.0, "dt": 0.01},
         np.random.default_rng(3).normal(size=(6, 2)) @ [1, 1j]),
    ], ids=["zero-mode-present", "zero-mode-absent", "random-n3"])
    def test_states_equal_the_matmul_loop(self, body, psi0):
        params = LatticeParams(**{k: body[k] for k in ("v", "r", "gamma", "n_cells")})
        H = build_real_space(params)
        ts = evolve(H, psi0, body["t_max"], body["dt"])
        U = propagator(H, body["dt"])
        states = [psi0]
        for _ in range(round(body["t_max"] / body["dt"])):
            states.append(U @ states[-1])
        assert ts.states.tobytes() == np.array(states).tobytes()

    def test_jordan_chain_grows_linearly(self):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=10)
        g = exact_generalized_zero_mode(10, 0.5, 1.0)
        ts = evolve(build_real_space(p), g, 50.0, 0.05)
        norms = np.linalg.norm(ts.states, axis=1)
        assert (norms / (1.0 + ts.times)).max() < np.linalg.norm(g) + 2.0

    @pytest.mark.parametrize("v", [0.5, 0.8, -0.6, 1.2])
    def test_real_spectrum_polynomial_boundedness(self, v):
        # |v| >= gamma/2, so every spectrum is real. Only v = 0.5 = gamma/2 is
        # defective: its Jordan blocks of size up to n_cells - 1 allow at most
        # t^(n_cells - 2) growth. At v = 0.8, -0.6 and 1.2 the spectrum is
        # real and diagonalizable, so the norm stays bounded.
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=10)
        rng = np.random.default_rng(1)
        psi0 = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi0 /= np.linalg.norm(psi0)
        ts = evolve(build_real_space(p), psi0, 50.0, 0.05)
        norms = np.linalg.norm(ts.states, axis=1)
        assert (norms / (1.0 + ts.times) ** (p.n_cells - 1)).max() < 10.0


class TestFourierDetect:
    def test_rejects_short_series(self):
        ts = TimeSeries(dt=0.1, times=np.arange(10) * 0.1,
                        states=np.ones((10, 2), dtype=complex),
                        cell_populations=np.ones((10, 1)))
        with pytest.raises(ValueError):
            fourier_detect(ts)

    def _run(self, v):
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=5)
        ts = evolve(build_real_space(p), alpha1_excitation(5), 60.0, 0.01)
        return fourier_detect(ts)

    def test_zero_mode_present_peak(self):
        rep = self._run(0.5)
        assert rep.zero_peak
        assert rep.peak_ratio > 10.0

    def test_zero_mode_absent_no_peak(self):
        rep = self._run(1.5)
        assert not rep.zero_peak
        assert rep.peak_ratio < 3.0

    def test_constant_series_spikes_at_zero(self):
        n = 512
        ts = TimeSeries(dt=0.05, times=np.arange(n) * 0.05,
                        states=np.ones((n, 2), dtype=complex),
                        cell_populations=np.ones((n, 1)))
        rep = fourier_detect(ts)
        assert rep.zero_peak
        assert rep.magnitudes[np.argmin(np.abs(rep.frequencies))] == rep.magnitudes.max()

    def test_spectrum_invariants(self):
        rep = self._run(0.5)
        assert np.all(rep.magnitudes >= 0)
        np.testing.assert_allclose(np.sort(rep.frequencies),
                                   np.sort(-rep.frequencies), atol=1e-9)


def expm_sweep(params, k, direction, omega, samples):
    """The dynamical sweep with one expm per step, applied to the state in order.

    Returns the final overlaps and the sweep's condition number: the sum over
    steps j of ||(1 - psi psi^H) Q_j|| / ||Q_j psi_j||, with psi_j the state
    after step j, Q_j the product of the later steps and psi the final state.
    A relative rounding error of eps in each step turns the final state by at
    most about eps times that sum.
    """
    sign = 1.0 if direction is SweepDirection.FORWARD else -1.0
    E, u_plus, u_minus = bloch_eigensystem(params, k)
    if omega is None:
        omega = abs(2 * E) / 100.0
    phis = sign * np.linspace(0.0, 2 * np.pi, samples)
    dt = (2 * np.pi / omega) / (samples - 1)
    Hk = build_bloch(params, k + 0.5 * (phis[:-1] + phis[1:]))
    steps = scipy.linalg.expm(-1j * Hk * dt)
    psi, log_growth = u_minus, []
    for U in steps:
        psi = U @ psi
        log_growth.append(np.log(np.linalg.norm(psi)))
        psi = psi / np.linalg.norm(psi)
    w = np.abs(band_coefficients(psi, u_plus, u_minus))
    cond, Q, log_q, log_later = 0.0, np.eye(2), 0.0, 0.0
    for U, g in zip(steps[::-1], log_growth[::-1]):
        cond += np.exp(log_q - log_later) * np.linalg.norm(Q - np.outer(psi, psi.conj() @ Q))
        log_later += g
        Q = Q @ U
        log_q += np.log(np.linalg.norm(Q))
        Q = Q / np.linalg.norm(Q)
    return w / np.linalg.norm(w), cond


class TestAdiabaticSweep:
    def test_one_ep_transport_swaps_bands(self):
        p = LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, mode=SweepMode.TRANSPORT)
        assert res.final_overlaps["plus"] > 1 - 1e-6
        assert res.final_overlaps["minus"] < 1e-3

    def test_zero_ep_transport_returns(self):
        p = LatticeParams(v=0.3, r=0.18, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, mode=SweepMode.TRANSPORT)
        assert res.final_overlaps["minus"] > 1 - 1e-6
        assert res.final_overlaps["plus"] < 1e-3

    def test_backward_transport_also_swaps(self):
        p = LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, direction=SweepDirection.BACKWARD,
                              mode=SweepMode.TRANSPORT)
        assert res.final_overlaps["plus"] > 1 - 1e-6

    def test_zero_duration_sweep_unchanged(self):
        p = LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, total_phase=0.0)
        _, _, u_minus = bloch_eigensystem(p, 0.0)
        np.testing.assert_array_equal(res.final_state, u_minus)
        assert res.final_overlaps["minus"] > 1 - 1e-12

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_rejects_negative_total_phase(self, mode):
        # A backward sweep is direction=BACKWARD; a negative phase would
        # sweep backward (transport) or not at all (dynamical) while the
        # summary reports a forward sweep.
        p = LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1)
        with pytest.raises(ValueError, match="total_phase"):
            adiabatic_sweep(p, k=0.0, mode=mode, total_phase=-np.pi)

    def test_dynamical_mode_normalized_output(self):
        p = LatticeParams(v=0.3, r=0.18, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, mode=SweepMode.DYNAMICAL, omega=0.02,
                              samples=2001)
        assert np.linalg.norm(res.final_state) == pytest.approx(1.0, abs=1e-12)
        total = res.final_overlaps["plus"] ** 2 + res.final_overlaps["minus"] ** 2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dynamical_rejects_nonpositive_omega(self):
        p = LatticeParams(v=0.3, r=0.18, gamma=1.0, n_cells=1)
        with pytest.raises(ValueError):
            adiabatic_sweep(p, mode=SweepMode.DYNAMICAL, omega=-1.0)

    @given(st.floats(-1.0, 1.0), st.floats(0.1, 1.0), st.floats(0.2, 1.5),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=15, deadline=None)
    def test_transport_swap_iff_one_ep(self, v, r, gamma, k):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        assume(all(abs(abs(s * gamma / 2 - v) - r) > 0.05 for s in (1, -1)))
        n_eps = count_enclosed_eps(p)
        res = adiabatic_sweep(p, k=k, mode=SweepMode.TRANSPORT)
        swapped = res.final_overlaps["plus"] > res.final_overlaps["minus"]
        assert swapped == (n_eps == 1)

    @given(st.floats(-1.0, 1.0), st.floats(0.1, 1.0), st.floats(0.2, 1.5),
           st.floats(-np.pi, np.pi), st.sampled_from(list(SweepDirection)),
           st.one_of(st.none(), st.floats(1e-4, 2.0)), st.integers(2, 2001))
    @settings(max_examples=30, deadline=None)
    def test_dynamical_matches_expm_steps(self, v, r, gamma, k, direction, omega, samples):
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        try:
            res = adiabatic_sweep(p, k=k, direction=direction, omega=omega,
                                  mode=SweepMode.DYNAMICAL, samples=samples)
        except (ExceptionalPointError, PropagatorOverflowError):
            assume(False)
        want, cond = expm_sweep(p, k, direction, omega, samples)
        got = [res.final_overlaps["plus"], res.final_overlaps["minus"]]
        # Gain and loss amplify each step's rounding error of a few eps (cond
        # reaches 1e17 here); where they do, neither method pins the overlaps.
        tol = 1e-10 + 10 * np.finfo(float).eps * cond
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("v,r,omega,samples", [
        # v - r = gamma/2: the sweep from k = 0 passes the EP at k + phi = pi,
        # where a midpoint lands (even samples) or which it straddles.
        (0.8, 0.3, None, 4000), (0.8, 0.3, None, 4001),
        # A product of the step matrices misses this one's final state by 0.8.
        (0.3, 1.0, 1e-3, 4001),
    ], ids=["ep-midpoint", "ep-straddled", "slow-two-eps"])
    def test_dynamical_matches_expm_steps_fixed(self, v, r, omega, samples):
        p = LatticeParams(v=v, r=r, gamma=1.0, n_cells=1)
        res = adiabatic_sweep(p, k=0.0, omega=omega, mode=SweepMode.DYNAMICAL,
                              samples=samples)
        want, cond = expm_sweep(p, 0.0, SweepDirection.FORWARD, omega, samples)
        assert np.finfo(float).eps * cond < 1e-10
        got = [res.final_overlaps["plus"], res.final_overlaps["minus"]]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
