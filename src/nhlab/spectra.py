"""Eigendecomposition, gap/reality diagnostics, and defectiveness analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenDecompositionError, ExceptionalPointError, NoZeroModeError
from .model import Boundary, LatticeParams, build_bloch, build_real_space, chiral_residual

CLUSTER_TOL = 1e-8      # eigenvalues closer than CLUSTER_TOL * ||H||_2 share a cluster
ZERO_MODE_TOL = 1e-8    # zero mode present iff sigma_min < ZERO_MODE_TOL * sigma_max
REALITY_TOL = 1e-8      # real iff max |Im E| < REALITY_TOL * ||H||_2 (absolute on k grids)
EP_TOL = 1e-8           # Bloch EP iff |E| < EP_TOL * ||H_k||_2
GAP_K_SAMPLES = 4001    # gap_report checks this many momenta in [0, 2*pi] and calls
GAP_TOL = 1e-4          # a gap open iff min |Re E| (|Im E|) there exceeds GAP_TOL
EDGE_WEIGHT = 0.9       # state at an edge iff the ceil(N/4) cells there hold more weight


def fix_phase(u: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the largest-magnitude component is real positive."""
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.norm(u)
    j = int(np.argmax(np.abs(u)))
    ph = u[j] / abs(u[j])
    return u / ph


def eig(H: np.ndarray):
    """Eigenvalues and unit-norm right eigenvectors of a dense complex matrix.

    For defective clusters the returned vectors may be nearly dependent;
    use geometric_multiplicity, never the vector count, to assess
    defectiveness.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    try:
        w, V = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(str(exc)) from exc
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    return w, V


def smallest_abs_eigenvalue(H: np.ndarray) -> float:
    """min |E| over the eigenvalues of H, in real arithmetic when exact.

    With S = diag(1, i, 1, i, ...), M = S^-1 (-i H) S has the eigenvalues
    -i E. Its entries are H's times 1, -1 or -i, so forming it rounds
    nothing, and M is real whenever H has no real on-site term and no
    hopping phase (clean chains, r/v/gamma disorder and decay_offset, at
    phi = 0). Then the real solver gives min |E|; otherwise H is solved
    as given.
    """
    H = np.asarray(H, dtype=complex)
    s = np.where(np.arange(H.shape[0]) % 2, 1j, 1.0)
    M = s.conj()[:, None] * (-1j * H) * s
    if M.imag.any():
        return float(np.abs(np.linalg.eigvals(H)).min())
    return float(np.abs(np.linalg.eigvals(M.real)).min())


def bloch_branches(params: LatticeParams, ks: np.ndarray):
    """Closed-form branches of the build_bloch matrices at an array of momenta.

    Returns E (nk,), the principal square root of h_x^2 + (h_z + i gamma/2)^2,
    and the unit-norm eigenvectors u_plus, u_minus (each (nk, 2)) of E and -E.
    At an exceptional point (E = 0) the vectors are not finite; callers
    that use them check E first.
    """
    m = build_bloch(params, np.asarray(ks, dtype=float)).entries
    hx, b = m[:, 0, 1], m[:, 0, 0]
    E = np.sqrt(hx ** 2 + b ** 2)
    # Half-angle components: b = E cos(t), hx = E sin(t). Pick the
    # better-conditioned half-angle formula.
    with np.errstate(divide="ignore", invalid="ignore"):
        cb = b / E
        use_c = np.abs(1.0 + cb) >= np.abs(1.0 - cb)
        c = np.empty_like(E)
        s = np.empty_like(E)
        c[use_c] = np.sqrt((1.0 + cb[use_c]) / 2.0)
        s[use_c] = hx[use_c] / (2.0 * E[use_c] * c[use_c])
        s[~use_c] = np.sqrt((1.0 - cb[~use_c]) / 2.0)
        c[~use_c] = hx[~use_c] / (2.0 * E[~use_c] * s[~use_c])
        u_plus = np.stack([c, s], axis=1)
        u_minus = np.stack([-s, c], axis=1)
        u_plus = u_plus / np.linalg.norm(u_plus, axis=1, keepdims=True)
        u_minus = u_minus / np.linalg.norm(u_minus, axis=1, keepdims=True)
    return E, u_plus, u_minus


def bloch_eigensystem(params: LatticeParams,
                      k: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """bloch_branches at one momentum: (E, u_plus, u_minus), vectors through fix_phase.

    Raises ExceptionalPointError when the two eigenvalues coalesce
    (|E| < EP_TOL * ||H_k||), where the eigenvectors merge too.
    """
    E, u_plus, u_minus = bloch_branches(params, np.array([k]))
    E = complex(E[0])
    scale = np.linalg.norm(build_bloch(params, k).entries, 2)
    if abs(E) < EP_TOL * max(scale, 1e-300):
        raise ExceptionalPointError(f"eigenvalues coalesce at k={k} (|E|={abs(E):.3g})")
    return E, fix_phase(u_plus[0]), fix_phase(u_minus[0])


def geometric_multiplicity(H: np.ndarray, lam: complex, tol: float | None = None) -> int:
    """Dimension of the (tolerance-resolved) null space of H - lam*I.

    Counts singular values below tol * sigma_max; default tol is
    dim * machine-epsilon (standard backward-stable rank decision).
    """
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    if tol is None:
        tol = dim * np.finfo(float).eps
    if tol <= 0:
        raise ValueError("tol must be > 0")
    s = np.linalg.svd(H - lam * np.eye(dim), compute_uv=False)
    if s[0] == 0.0:
        return dim
    return int(np.sum(s < tol * s[0]))


def smallest_singular_values(H: np.ndarray, count: int = 1) -> list[float]:
    """The `count` smallest singular values of H, ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    s = np.linalg.svd(np.asarray(H, dtype=complex), compute_uv=False)
    return [float(x) for x in s[::-1][:count]]


@dataclass(frozen=True)
class ZeroModeInfo:
    u0: np.ndarray
    u0_prime: np.ndarray
    defective: bool
    algebraic_multiplicity: int
    geometric_multiplicity: int


def zero_mode_analysis(H: np.ndarray, tol: float = ZERO_MODE_TOL,
                       require_chiral: bool = True) -> ZeroModeInfo:
    """Eigenvector and generalized eigenvector of the E=0 cluster.

    u0 is the unit-norm null direction from the smallest singular
    triplet; u0_prime is the minimum-norm least-squares solution of
    H u0' = u0 (the generalized eigenvector is only defined up to
    multiples of u0). Raises NoZeroModeError when the smallest singular
    value is not below tol * sigma_max.

    Presence is decided by the singular-value criterion: the QR
    eigensolver can scatter a defective zero pair by far more than the
    true splitting, while sigma_min = 0 iff 0 is an eigenvalue. The
    algebraic count uses an eigenvalue cluster radius widened to the
    observed scatter.
    """
    H = np.asarray(H, dtype=complex)
    if require_chiral and chiral_residual(H) > 1e-12 * max(np.abs(H).max(), 1.0):
        raise ValueError("zero_mode_analysis requires a chiral matrix")
    _, s, vh = np.linalg.svd(H)
    if not s[-1] < tol * s[0]:
        raise NoZeroModeError(f"sigma_min = {s[-1]:.3g} >= {tol * s[0]:.3g}")
    u0 = fix_phase(vh[-1].conj())
    geo = int(np.sum(s < tol * s[0]))
    w = np.linalg.eigvals(H)
    radius = min(max(tol * s[0], 2.0 * np.abs(w).min()), 1e-3 * s[0])
    alg = int(np.sum(np.abs(w) <= radius))
    u0_prime, *_ = np.linalg.lstsq(H, u0, rcond=tol)
    return ZeroModeInfo(
        u0=u0,
        u0_prime=u0_prime,
        defective=(alg == 2 and geo == 1),
        algebraic_multiplicity=alg,
        geometric_multiplicity=geo,
    )


@dataclass(frozen=True)
class Cluster:
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    clusters: list[Cluster]
    real_gap: float
    is_real: bool
    zero_cluster: ZeroModeInfo | None


def spectral_report(H: np.ndarray) -> SpectralReport:
    """Full spectrum with clustered multiplicities and zero-mode data.

    real_gap is the distance of the non-zero-cluster spectrum from
    Re E = 0 (zero when the bands touch the imaginary axis).
    """
    H = np.asarray(H, dtype=complex)
    scale = np.linalg.norm(H, 2)
    w, _ = eig(H)
    thresh = CLUSTER_TOL * max(scale, 1e-300)
    ws = w[np.lexsort((w.imag, w.real))]
    # Single linkage: each eigenvalue takes the lowest sorted index it reaches
    # through a chain of neighbours closer than thresh.
    n = len(ws)
    near = np.abs(ws[:, None] - ws[None, :]) < thresh
    lab, prev = np.arange(n), None
    while not np.array_equal(lab, prev):
        lab, prev = np.where(near, lab, n).min(axis=1), lab
    counts = np.bincount(lab, minlength=n)
    clusters = []
    for first in np.flatnonzero(lab == np.arange(n)):
        rep = complex(np.mean(ws[lab == first]))
        # 1 <= geometric <= algebraic, so a simple eigenvalue needs no SVD.
        geo = 1 if counts[first] == 1 else geometric_multiplicity(H, rep, tol=CLUSTER_TOL)
        clusters.append(Cluster(value=rep, algebraic=int(counts[first]), geometric=geo))
    zero = None
    if any(abs(c.value) < thresh for c in clusters):
        zero = zero_mode_analysis(H, tol=CLUSTER_TOL, require_chiral=False)
    band_re = [abs(c.value.real) for c in clusters if abs(c.value) >= thresh]
    return SpectralReport(
        eigenvalues=w,
        clusters=clusters,
        real_gap=float(min(band_re)) if band_re else 0.0,
        is_real=bool(np.abs(w.imag).max() < REALITY_TOL * max(scale, 1e-300)),
        zero_cluster=zero,
    )


@dataclass(frozen=True)
class GapReport:
    real_gap_open: bool
    imag_gap: bool
    spectrum_real: bool
    numeric_real_gap_open: bool | None = None
    numeric_imag_gap: bool | None = None


def gap_report(params: LatticeParams) -> GapReport:
    """Band-gap and spectrum-reality flags.

    Periodic chains: closed-form criteria (real part gapped iff
    ||v| - r| > gamma/2, imaginary part gapped iff |v| + r < gamma/2)
    alongside a dense-k numerical check. Open chains: spectrum_real from
    the real-space eigenvalues.
    """
    v, r, g = params.v, params.r, params.gamma
    cf_real = abs(abs(v) - r) > g / 2
    cf_imag = abs(v) + r < g / 2
    if params.boundary is Boundary.PERIODIC:
        E, _, _ = bloch_branches(params, np.linspace(0.0, 2 * np.pi, GAP_K_SAMPLES))
        num_real = bool(np.abs(E.real).min() > GAP_TOL)
        num_imag = bool(np.abs(E.imag).min() > GAP_TOL)
        spectrum_real = bool(np.abs(E.imag).max() < REALITY_TOL)
        return GapReport(cf_real, cf_imag, spectrum_real, num_real, num_imag)
    H = build_real_space(params)
    w = np.linalg.eigvals(H)
    scale = np.linalg.norm(H, 2)
    spectrum_real = bool(np.abs(w.imag).max() < REALITY_TOL * scale)
    return GapReport(cf_real, cf_imag, spectrum_real)


@dataclass(frozen=True)
class EdgeProfile:
    side: str                    # "left" | "right" | "delocalized"
    weights: np.ndarray          # per-unit-cell probability


def edge_profile(u: np.ndarray) -> EdgeProfile:
    """Per-cell weights |alpha_n|^2 + |beta_n|^2 and which edge holds them."""
    u = np.asarray(u, dtype=complex)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("edge_profile expects a unit-norm vector")
    w = np.abs(u[0::2]) ** 2 + np.abs(u[1::2]) ** 2
    n = len(w)
    edge = int(np.ceil(n / 4))
    if w[:edge].sum() > EDGE_WEIGHT:
        side = "left"
    elif w[n - edge:].sum() > EDGE_WEIGHT:
        side = "right"
    else:
        side = "delocalized"
    return EdgeProfile(side=side, weights=w)


def exact_zero_mode(n_cells: int) -> np.ndarray:
    """The v = gamma/2 left edge state (i, 1, 0, ...)/sqrt(2)."""
    u = np.zeros(2 * n_cells, dtype=complex)
    u[0] = 1j
    u[1] = 1.0
    return u / np.sqrt(2.0)


def exact_generalized_zero_mode(n_cells: int, r: float, gamma: float) -> np.ndarray:
    """Closed-form generalized eigenvector at v = gamma/2.

    Components (2/gamma, 0, -r/gamma^2, -i r/gamma^2, r^2/gamma^3,
    i r^2/gamma^3, ...), normalized against the unnormalized edge state
    (i, 1, 0, ...); rescale consistently when comparing.
    """
    u = np.zeros(2 * n_cells, dtype=complex)
    u[0] = 2.0 / gamma
    coef = -r / gamma ** 2
    for c in range(1, n_cells):
        u[2 * c] = coef
        u[2 * c + 1] = 1j * coef
        coef *= -r / gamma
    return u
