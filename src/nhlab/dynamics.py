"""Time evolution, edge-excitation spectroscopy, and adiabatic phase sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import PropagatorOverflowError
from .model import LatticeParams, build_bloch
from .spectra import bloch_eigensystem, fix_phase
from .topology import DEFAULT_SAMPLES, band_coefficients, track_band

# Cap on ||H||_1 * t before the matrix exponential is refused; gain can
# amplify exponentially and overflow doubles well before this bites.
NORM_T_CAP = 200.0

# Fourier analysis defaults: the physics lives at |omega| of order the
# band energies, so the zero-peak ratio is measured against the median
# magnitude inside a window of +-5 energy units, not the full Nyquist
# range (where leakage tails would make the median meaninglessly small).
FREQ_WINDOW = 5.0
ZERO_PEAK_THRESHOLD = 10.0


def propagator(H: np.ndarray, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) by scaling-and-squaring Pade approximation.

    Valid for defective H (no eigendecomposition involved). Raises
    PropagatorOverflowError when ||H||_1 * t exceeds the cap, reporting
    the required number of substeps.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    if t < 0:
        raise ValueError("t must be >= 0")
    norm_t = float(np.linalg.norm(H, 1)) * t
    if norm_t > NORM_T_CAP:
        raise PropagatorOverflowError(norm_t, NORM_T_CAP,
                                      int(np.ceil(norm_t / NORM_T_CAP)))
    return scipy.linalg.expm(-1j * H * t)


@dataclass(frozen=True)
class TimeSeries:
    dt: float
    times: np.ndarray            # (n_steps + 1,)
    states: np.ndarray           # (n_steps + 1, dim)
    cell_populations: np.ndarray  # (n_steps + 1, n_cells)


def evolve(H: np.ndarray, psi0: np.ndarray, t_max: float, dt: float) -> TimeSeries:
    """Propagate dpsi/dt = -i H psi by exact step composition U(dt)^m."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    H = np.asarray(H, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (H.shape[0],):
        raise ValueError(f"psi0 shape {psi0.shape} does not match H {H.shape}")
    if not (t_max >= 0 and math.isfinite(t_max / dt)):
        raise ValueError(f"t_max / dt must be a finite step count >= 0, "
                         f"got t_max = {t_max}, dt = {dt}")
    n_steps = int(round(t_max / dt))
    U = propagator(H, dt)
    states = np.empty((n_steps + 1, H.shape[0]), dtype=complex)
    states[0] = psi0
    for m in range(n_steps):
        np.dot(U, states[m], out=states[m + 1])
    pops = np.abs(states[:, 0::2]) ** 2 + np.abs(states[:, 1::2]) ** 2
    return TimeSeries(dt=dt, times=dt * np.arange(n_steps + 1),
                      states=states, cell_populations=pops)


@dataclass(frozen=True)
class SpectrumPeakReport:
    frequencies: np.ndarray      # angular frequency bin centers
    magnitudes: np.ndarray
    zero_peak: bool
    peak_ratio: float


def fourier_detect(series: TimeSeries, site: int = 0,
                   threshold: float = ZERO_PEAK_THRESHOLD,
                   freq_window: float = FREQ_WINDOW) -> SpectrumPeakReport:
    """Zero-frequency peak detection on one site's complex amplitude.

    The FFT is zero-padded to the next power of two; peak_ratio is the
    magnitude at the zero-frequency bin over the median magnitude within
    |omega| <= freq_window.
    """
    x = series.states[:, site]
    if len(x) < 256:
        raise ValueError("series must have at least 256 samples")
    nfft = 1 << int(np.ceil(np.log2(len(x))))
    mags = np.abs(np.fft.fftshift(np.fft.fft(x, nfft)))
    freqs = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(nfft, series.dt))
    sel = np.abs(freqs) <= freq_window
    freqs, mags = freqs[sel], mags[sel]
    zero_bin = int(np.argmin(np.abs(freqs)))
    floor = float(np.median(mags))
    ratio = float(mags[zero_bin] / floor) if floor > 0 else float("inf")
    return SpectrumPeakReport(frequencies=freqs, magnitudes=mags,
                              zero_peak=ratio > threshold, peak_ratio=ratio)


class SweepDirection(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class SweepMode(str, Enum):
    TRANSPORT = "transport"
    DYNAMICAL = "dynamical"


DEFAULT_DIRECTION = SweepDirection.FORWARD


@dataclass(frozen=True)
class SweepResult:
    initial_band: str            # "minus" (the swept branch)
    final_overlaps: dict         # |expansion coefficient| on u_{k,+}(0), u_{k,-}(0)
    final_state: np.ndarray


def adiabatic_sweep(params: LatticeParams, k: float = 0.0,
                    direction: SweepDirection = DEFAULT_DIRECTION,
                    omega: float | None = None,
                    mode: SweepMode = SweepMode.TRANSPORT,
                    samples: int = DEFAULT_SAMPLES,
                    total_phase: float = 2 * np.pi) -> SweepResult:
    """Sweep the hopping phase phi from 0 to +-total_phase at fixed k.

    Transport mode parallel-transports the instantaneous u_{k,-}(phi)
    eigenvector with track_band over the momenta k + phi (omega is
    ignored). Dynamical mode integrates dpsi/dt = -i H_k(phi(t)) psi
    with phi = +-omega*t, one closed-form 2x2 exponential per midpoint Bloch
    matrix, renormalizing the state after each step so gain cannot overflow it.
    As in propagator, a step with ||H_k||_1 * dt above NORM_T_CAP raises
    PropagatorOverflowError; its substeps is the number of steps (samples - 1)
    the sweep needs. Overlaps are reported as magnitudes of the expansion
    coefficients in the (u_+(0), u_-(0)) eigenbasis, normalized to unit total
    weight. total_phase must be >= 0; direction gives the sign.
    """
    if total_phase < 0:
        raise ValueError(f"total_phase must be >= 0 (direction sets the sign), "
                         f"got {total_phase}")
    sign = 1.0 if direction is SweepDirection.FORWARD else -1.0
    E, u_plus0, u_minus0 = bloch_eigensystem(params, k)
    if mode is SweepMode.TRANSPORT:
        tracked = track_band(params, start=k, span=sign * total_phase,
                             samples=samples, branch=1)
        psi = fix_phase(tracked.vectors[-1, :, 0])
    else:
        if samples < 2:
            raise ValueError("dynamical mode needs samples >= 2")
        psi = u_minus0
        if total_phase > 0:
            if omega is None:
                omega = abs(2 * E) / 100.0
            if omega <= 0:
                raise ValueError("omega must be > 0")
            phis = sign * np.linspace(0.0, total_phase, samples)
            dt = (total_phase / omega) / (samples - 1)
            Hk = build_bloch(params, k + 0.5 * (phis[:-1] + phis[1:]))
            norm_t = float(np.linalg.norm(Hk, 1, axis=(-2, -1)).max()) * dt
            if norm_t > NORM_T_CAP:
                raise PropagatorOverflowError(
                    norm_t, NORM_T_CAP, int(np.ceil((samples - 1) * norm_t / NORM_T_CAP)))
            # H_k^2 = (b^2 + h_x^2) I, so exp(-i H_k dt) = cos(x) I - i dt sinc(x) H_k
            # with x = sqrt(b^2 + h_x^2) dt; both are even in x and finite at an EP.
            x = np.sqrt(Hk[:, 0, 0] ** 2 + Hk[:, 0, 1] ** 2)[:, None, None] * dt
            steps = np.cos(x) * np.eye(2) - 1j * dt * np.sinc(x / np.pi) * Hk
            # Steps act on the state one at a time: a product of the matrices
            # loses the decaying component that later steps amplify.
            a, b = psi.tolist()
            for (u00, u01), (u10, u11) in steps.tolist():
                a, b = u00 * a + u01 * b, u10 * a + u11 * b
                norm = math.hypot(a.real, a.imag, b.real, b.imag)
                a, b = a / norm, b / norm
            psi = np.array([a, b])
    c = band_coefficients(psi, u_plus0, u_minus0)
    w = np.abs(c)
    w = w / np.linalg.norm(w)
    return SweepResult(
        initial_band="minus",
        final_overlaps={"plus": float(w[0]), "minus": float(w[1])},
        final_state=psi,
    )
