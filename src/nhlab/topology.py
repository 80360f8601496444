"""Exceptional-point geometry, Bloch band tracking, winding numbers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaplessTrajectoryError, OnBoundaryError, TrackingAmbiguityError
from .model import SIGMA_X, SIGMA_Z, LatticeParams
from .spectra import bloch_branches

DEFAULT_SAMPLES = 4001
AMBIGUITY_RATIO = 0.9     # a tracking step is refused above this min/max of its branch distances
EP_BOUNDARY_TOL = 1e-9    # a hopping circle this close to an EP passes through it
ORIGIN_TOL = 1e-9         # winding undefined if the trajectory comes this close to 0
REALNESS_TOL = 1e-12      # allowed |Im| of the <sigma_x>, <sigma_z> expectation values


@dataclass(frozen=True)
class WindingResult:
    winding: float               # multiple of 1/2
    closure_period: str          # "2pi" | "4pi"
    trajectory: np.ndarray       # (samples, 2) of (<sigma_x>, <sigma_z>)
    eps_enclosed: int


def count_enclosed_eps(params: LatticeParams) -> int:
    """How many of the exceptional points (+-gamma/2, 0) the hopping circle encloses.

    The circle has center (v, 0) and radius r in the (h_x, h_z) plane.
    Raises OnBoundaryError when the circle passes through an EP.
    """
    count = 0
    for s in (+1.0, -1.0):
        dist = abs(s * params.gamma / 2 - params.v)
        if abs(dist - params.r) < EP_BOUNDARY_TOL:
            raise OnBoundaryError(
                f"trajectory passes through EP at ({s * params.gamma / 2}, 0)"
            )
        if dist < params.r:
            count += 1
    return count


@dataclass(frozen=True)
class TrackedBand:
    """Both Bloch branches along a momentum sweep, tracked branch first.

    vectors[i, :, 0] belongs to the continuously tracked branch at
    ks[i]; vectors[i, :, 1] to the other one. Vectors have unit norm.
    """

    ks: np.ndarray               # (nk,)
    vectors: np.ndarray          # (nk, 2, 2)


def track_band(params: LatticeParams, start: float = 0.0, span: float = 4 * np.pi,
               samples: int = DEFAULT_SAMPLES, branch: int = 0) -> TrackedBand:
    """Continuously tracked Bloch branch over k in start + [0, span].

    H_k(phi) depends only on k + phi, so the same sweep serves a
    momentum loop (winding) and a hopping-phase sweep at fixed k
    (transport). Starts on the principal (+, branch=0) or the (-,
    branch=1) branch and follows its energy: step i keeps the branch when
    |E[i+1] - E[i]| < |E[i+1] + E[i]| and swaps it otherwise. The vectors
    of -E are those of E swapped, so this follows the eigenvectors too. A
    step whose nearer distance exceeds AMBIGUITY_RATIO times the farther
    raises TrackingAmbiguityError. The endpoint is included so closure
    can be checked directly.
    """
    if samples < 400:
        raise ValueError("samples must be >= 400")
    ks = start + np.linspace(0.0, span, samples)
    E, u_plus, u_minus = bloch_branches(params, ks)
    if np.any(np.abs(E) < 1e-12):
        raise OnBoundaryError("a sampled momentum sits at an exceptional point")
    stay, swap = np.abs(E[1:] - E[:-1]), np.abs(E[1:] + E[:-1])
    ambiguous = np.minimum(stay, swap) > AMBIGUITY_RATIO * np.maximum(stay, swap)
    if ambiguous.any():
        i = int(np.argmax(ambiguous))
        raise TrackingAmbiguityError(
            f"branch distances {stay[i]:.2g} and {swap[i]:.2g} at step {i} "
            f"are too close; refine sampling")
    current = (branch + np.concatenate([[0], np.cumsum(swap <= stay)])) % 2
    pair = np.stack([u_plus, u_minus], axis=2)                  # (nk, 2, 2)
    order = np.stack([current, 1 - current], axis=1)            # (nk, 2)
    vectors = np.take_along_axis(pair, order[:, None, :], axis=2)
    return TrackedBand(ks=ks, vectors=vectors)


def band_coefficients(u: np.ndarray, basis_plus: np.ndarray,
                      basis_minus: np.ndarray) -> np.ndarray:
    """Expansion coefficients of u in the (non-orthogonal) eigenbasis.

    Solves [u_+ u_-] c = u; |c| decides which band a state occupies.
    Plain inner products cannot, because the right eigenvectors of a
    non-Hermitian matrix are not orthogonal.
    """
    B = np.column_stack([basis_plus, basis_minus])
    return np.linalg.solve(B, u)


def winding_number(tracked: TrackedBand) -> WindingResult:
    """Winding of the (<sigma_x>, <sigma_z>) trajectory over the 4*pi sweep.

    Expectation values use the right-eigenvector self-expectation
    u^dag sigma u / u^dag u, which is exactly real. The signed angle
    about the origin is accumulated stepwise (each step must advance
    less than pi/2) and divided by 4*pi.
    """
    if not np.isclose(tracked.ks[-1] - tracked.ks[0], 4 * np.pi):
        raise ValueError("winding_number needs a band tracked over a 4*pi sweep")
    U = tracked.vectors[:, :, 0].T                            # (2, nk)
    norms = np.sum(U.conj() * U, axis=0).real
    x_c = np.sum(U.conj() * (SIGMA_X @ U), axis=0)
    z_c = np.sum(U.conj() * (SIGMA_Z @ U), axis=0)
    if np.abs(x_c.imag).max() > REALNESS_TOL or np.abs(z_c.imag).max() > REALNESS_TOL:
        raise AssertionError("expectation values of Hermitian operators must be real")
    x = x_c.real / norms
    z = z_c.real / norms
    radii = np.hypot(x, z)
    if radii.min() < ORIGIN_TOL:
        raise GaplessTrajectoryError("trajectory touches the origin; winding undefined")
    ang = np.arctan2(z, x)
    dang = np.diff(ang)
    dang = (dang + np.pi) % (2 * np.pi) - np.pi
    if np.abs(dang).max() >= np.pi / 2:
        raise TrackingAmbiguityError("angle step exceeds pi/2; refine sampling")
    total = float(dang.sum())
    winding = total / (4 * np.pi)
    quantized = round(2 * winding) / 2
    if abs(winding - quantized) > 0.01:
        raise TrackingAmbiguityError(
            f"winding {winding} is not a half-integer multiple; refine sampling")
    # Closure at 2*pi: the Bloch matrix there equals the one at the start,
    # so the tracked vector is (up to phase) one of the two start eigenvectors.
    i2pi = int(np.argmin(np.abs(tracked.ks - tracked.ks[0] - 2 * np.pi)))
    c = band_coefficients(tracked.vectors[i2pi, :, 0], *tracked.vectors[0].T)
    closure = "2pi" if abs(c[0]) >= abs(c[1]) else "4pi"
    return WindingResult(
        winding=quantized,
        closure_period=closure,
        trajectory=np.stack([x, z], axis=1),
        eps_enclosed=int(round(2 * abs(quantized))),
    )
