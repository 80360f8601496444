"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line (run with -s to see them
on success) and asserts the stated tolerance.
"""

import numpy as np
import pytest

from nhlab import (Boundary, DisorderConfig, DisorderTarget, LatticeParams,
                   SweepMode, adiabatic_sweep, build_bloch, build_real_space,
                   chain_spectrum, count_enclosed_eps, evolve, fourier_detect,
                   propagator, track_band, winding_number)
from nhlab.cli import disorder_transition
from nhlab.spectra import (chain, edge_profile, fix_phase, smallest_singular_values,
                           spectral_report, zero_mode_analysis)

from conftest import (assert_multisets_close, exact_generalized_zero_mode, exact_zero_mode,
                      factor_values)


def report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_01_bloch_closed_form():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-2, 2)
        r = rng.uniform(0.05, 2)
        gamma = rng.uniform(0, 2)
        k = rng.uniform(-2 * np.pi, 2 * np.pi)
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        bm = build_bloch(p, k)
        h_x, h_z = v + r * np.cos(k), r * np.sin(k)
        E = np.sqrt(complex(h_x) ** 2 + (h_z + 0.5j * gamma) ** 2)
        numeric = np.sort_complex(np.linalg.eigvals(bm))
        exact = np.sort_complex(np.array([E, -E]))
        scale = max(np.linalg.norm(bm, 2), 1e-300)
        worst = max(worst, float(np.abs(numeric - exact).max() / scale))
    report(1, "Bloch closed form, 1000 draws", worst < 1e-12)


def test_02_fractional_winding():
    figure_sets = [(0.18, 0.0, "2pi"), (0.3, 0.5, "4pi"), (1.0, 1.0, "2pi")]
    ok = True
    for r, w_expect, closure in figure_sets:
        p = LatticeParams(v=0.3, r=r, gamma=1.0, n_cells=1)
        res = winding_number(track_band(p))
        ok &= res.winding == w_expect and res.closure_period == closure
    rng = np.random.default_rng(23)
    violations = 0
    drawn = 0
    while drawn < 500:
        v = rng.uniform(-1.5, 1.5)
        r = rng.uniform(0.1, 1.5)
        gamma = rng.uniform(0.1, 2.0)
        if any(abs(abs(s * gamma / 2 - v) - r) < 0.05 for s in (1, -1)):
            continue
        drawn += 1
        p = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1)
        res = winding_number(track_band(p))
        if res.winding != count_enclosed_eps(p) / 2:
            violations += 1
    report(2, "fractional winding + 500-draw property", ok and violations == 0)


def test_03_exact_defective_solution(defective_params):
    H = build_real_space(defective_params)
    rep = spectral_report(H)
    clusters = sorted((round(c.value.real, 6), c.algebraic, c.geometric)
                      for c in rep.clusters)
    ok = clusters == [(-0.5, 29, 1), (0.0, 2, 1), (0.5, 29, 1)]
    u0_exact = exact_zero_mode(30)
    zm = zero_mode_analysis(H)
    phase = np.vdot(u0_exact, zm.u0)
    ok &= bool(np.abs(zm.u0 - (phase / abs(phase)) * u0_exact).max() < 1e-8)
    ok &= bool(np.abs(H @ zm.u0).max() < 1e-10)
    # generalized eigenvector: H u0' = u0 (in the (i,1,0,...) gauge)
    g = exact_generalized_zero_mode(30, 0.5, 1.0)
    ok &= bool(np.abs(H @ g - np.sqrt(2.0) * u0_exact).max() < 1e-10)
    # the numerically recovered u0' agrees with closed-form g modulo span{u0}
    resid = zm.u0_prime - g / np.sqrt(2.0)
    resid = resid - np.vdot(zm.u0, resid) * zm.u0
    ok &= bool(np.abs(resid).max() < 1e-6)
    report(3, "exact v=gamma/2 Jordan structure", ok)


def test_04_reality_window():
    ok = True
    for v in np.linspace(0.5, 2.0, 21):
        p = LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=30)
        H = build_real_space(p)
        w = np.linalg.eigvals(H)
        ok &= bool(np.abs(w.imag).max() < 1e-8 * np.linalg.norm(H, 2))
    for v in (0.0, 0.1, 0.2, 0.3):
        p = LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=30)
        w = np.linalg.eigvals(build_real_space(p))
        ok &= bool(np.abs(w.imag).max() > 1e-3)
    report(4, "reality window on the open chain", ok)


def test_05_gap_conditions():
    # The Bloch bands' real parts are gapped iff ||v| - r| > gamma/2, their
    # imaginary parts iff |v| + r < gamma/2. The bands on 4001 momenta count
    # a gap open where min |Re E| (min |Im E|) exceeds 1e-4.
    k = np.linspace(0.0, 2 * np.pi, 4001)
    disagreements = 0
    for v in np.linspace(0.1, 2.0, 10):
        for r in np.linspace(0.1, 2.0, 10):
            p = LatticeParams(v=float(v), r=float(r), gamma=1.0, n_cells=1,
                              boundary=Boundary.PERIODIC)
            E = chain_spectrum(build_bloch(p, k))
            disagreements += (abs(abs(v) - r) > 0.5) != (np.abs(E.real).min() > 1e-4)
            disagreements += (abs(v) + r < 0.5) != (np.abs(E.imag).min() > 1e-4)
    report(5, "gap criteria vs dense-k numerics, 10x10 grid", disagreements == 0)


def test_06_defectiveness_scaling():
    # Off v = gamma/2, sigma_min falls with N. At v = gamma/2 every a_n is
    # 0, so H is exactly singular at every N: the reduced chain's sigma_min
    # is exactly 0, and the dense one is rounding far below the cut, with no
    # order among N.
    ok = True
    for v in (0.45, 0.55):
        mins = []
        for n in (10, 20, 30):
            p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=n)
            mins.append(smallest_singular_values(build_real_space(p), 1)[0])
        ok &= mins[0] > mins[1] > mins[2]
    for n in (10, 20, 30):
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=n)
        ok &= bool(factor_values(chain(p))[1][0] == 0.0)
        s = np.linalg.svd(build_real_space(p), compute_uv=False)
        ok &= bool(s[-1] < 1e-12 * s[0])
    report(6, "singular-value scaling with N", ok)


def test_07_jordan_dynamics(defective_params):
    H = build_real_space(defective_params)
    g = exact_generalized_zero_mode(30, 0.5, 1.0)
    u0_raw = np.sqrt(2.0) * exact_zero_mode(30)
    ok = True
    for t in (1.0, 5.0, 20.0):
        psi = propagator(H, t) @ g
        ok &= bool(np.abs(psi - (g - 1j * t * u0_raw)).max() < 1e-10)
    report(7, "Jordan secular dynamics", ok)


def test_08_fourier_detection():
    ratios = {}
    for v in (0.5, 1.5):
        p = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=5)
        psi0 = np.zeros(10, dtype=complex)
        psi0[0] = 1.0
        series = evolve(build_real_space(p), psi0, 60.0, 0.01)
        ratios[v] = fourier_detect(series).peak_ratio
    report(8, "zero-frequency peak detection", ratios[0.5] > 10.0 and ratios[1.5] < 3.0)


def test_09_disorder_robustness():
    params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
    ok = True
    # r-disorder: exact zero mode survives any d <= 2r, every seed
    for seed in range(100):
        for d in np.arange(0.25, 1.01, 0.25):
            dis = DisorderConfig.from_seed(DisorderTarget.HOPPING_R, float(d),
                                           seed, 30)
            H = build_real_space(params, disorder=dis)
            w = np.linalg.eigvals(H)
            ok &= bool(np.abs(w).min() < 1e-8)
            _, _, vh = np.linalg.svd(H)
            ok &= edge_profile(fix_phase(vh[-1].conj())).side == "left"
    # v- and gamma-disorder: median transition across 100 seeds
    d_grid = np.round(np.arange(0.05, 2.01, 0.05), 10)
    medians = {}
    for target in (DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS):
        ts = disorder_transition(params, target, d_grid, range(100))
        medians[target] = float(np.median([t for t in ts if t is not None]))
    ok &= 0.3 <= medians[DisorderTarget.HOPPING_V] <= 0.7
    ok &= 0.2 <= medians[DisorderTarget.GAIN_LOSS] <= 0.6
    # chiral-breaking on-site disorder lifts the protection immediately
    clean_min = np.abs(np.linalg.eigvals(build_real_space(params))).min()
    dis = DisorderConfig.from_seed(DisorderTarget.ON_SITE, 0.05, 0, 30)
    broken_min = np.abs(np.linalg.eigvals(build_real_space(params, disorder=dis))).min()
    ok &= bool(abs(broken_min - clean_min) > 1e-4)
    report(9, "disorder robustness statistics", ok)


def test_10_transport_sweep():
    one_ep = adiabatic_sweep(LatticeParams(v=0.3, r=0.3, gamma=1.0, n_cells=1),
                             k=0.0, mode=SweepMode.TRANSPORT)
    zero_ep = adiabatic_sweep(LatticeParams(v=0.3, r=0.18, gamma=1.0, n_cells=1),
                              k=0.0, mode=SweepMode.TRANSPORT)
    ok = (one_ep.final_overlaps["plus"] > 1 - 1e-6
          and zero_ep.final_overlaps["minus"] > 1 - 1e-6)
    report(10, "parallel-transport band exchange", ok)
