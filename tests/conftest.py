import numpy as np
import pytest
from hypothesis import settings

from nhlab import Boundary, LatticeParams, ZeroModeInfo
from nhlab.model import SIGMA_X
from nhlab.spectra import (CLUSTER_TOL, ZERO_MODE_TOL, _factor_singular_values, _golub_kahan,
                           below_cut, fix_phase, geometric_multiplicity, zero_cluster_size)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# On CI Hypothesis loads its "ci" profile, which derandomizes every test, so
# each run replays the same draws and --hypothesis-seed has no effect.
# "seeded" draws afresh from --hypothesis-seed and replays no stored example:
#   pytest tests/test_spectra.py --hypothesis-profile=seeded --hypothesis-seed=25
settings.register_profile("seeded", derandomize=False, database=None)


def chiral_operator(n_cells: int) -> np.ndarray:
    """Gamma = direct sum of sigma_y over unit cells; Gamma^2 = identity.
    The kron reference for model.chiral_residual."""
    return np.kron(np.eye(n_cells), SIGMA_Y)


def parity_operator(n_cells: int) -> np.ndarray:
    """P = direct sum of sigma_x over unit cells (swaps the sublattices):
    H is PT symmetric iff P conj(H) P = H."""
    return np.kron(np.eye(n_cells), SIGMA_X)


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


def assert_multisets_close(a, b, tol=1e-10):
    """Match two complex eigenvalue multisets greedily within tol."""
    a = sorted(np.asarray(a, dtype=complex), key=lambda z: (z.real, z.imag))
    b = list(np.asarray(b, dtype=complex))
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        assert abs(x - b[j]) < tol, f"unmatched eigenvalue {x}"
        b.pop(j)


def factor_values(hops, tol=ZERO_MODE_TOL):
    """(sigma_max, every singular value below tol * sigma_max, ascending) of
    the open chain with reduced hops: the values of both of its factors
    from spectra._factor_singular_values, merged."""
    sigma_max, values = _factor_singular_values(hops, tol, _golub_kahan(hops))
    return sigma_max, np.sort(np.concatenate(values))


def scaled_up(H):
    """H as a complex array times 2^e, and e: the e >= 0 that takes a
    largest entry modulus below 1/2 into [1/2, 1), else 0, which returns
    H bit for bit. ldexp scales each part exactly, so the singular values
    of a subnormal H keep their digits, and tol * sigma_max does not
    underflow to 0.0."""
    H = np.ascontiguousarray(H, dtype=complex)
    e = max(-int(np.frexp(np.abs(H).max())[1]), 0)
    return np.ldexp(H.view(float), e).view(complex), e


def dense_zero_mode(H, tol):
    """zero_mode_analysis by dense solves of H alone, as it is for any H that
    is not a clean open chain: presence and the geometric count from
    svd(H, compute_uv=False), u0 and u0' from the full SVD, the algebraic
    count from eigvals(H). None where no singular value is below the cut.
    Each solve takes H scaled_up, so the cut holds for a subnormal H too,
    and u0' = H^+ u0 is scaled back (inf beyond double range)."""
    H, e = scaled_up(H)
    s = np.linalg.svd(H, compute_uv=False)
    geo = int(np.sum(below_cut(s, s[0], tol)))
    if not geo:
        return None
    u, sv, vh = np.linalg.svd(H)
    k = len(s) - geo
    u0 = fix_phase(vh[-1].conj())
    alg = zero_cluster_size(np.linalg.eigvals(H), s[0], tol)
    u0_prime = vh[:k].conj().T @ (u[:, :k].conj().T @ u0 / sv[:k])
    with np.errstate(over="ignore"):
        u0_prime = np.ldexp(u0_prime.view(float), e).view(complex)
    return ZeroModeInfo(u0=u0, u0_prime=u0_prime, defective=(alg == 2 and geo == 1),
                        algebraic_multiplicity=alg, geometric_multiplicity=geo)


def loop_clusters(H, w):
    """Clusters of the eigenvalues w of H as spectral_report once found them.

    Each sorted eigenvalue joins the first cluster that holds a member closer
    than the threshold, and each cluster's geometric multiplicity comes from
    a dense SVD of H (geometric_multiplicity), with no rule on the hops.
    Clusters are (value, algebraic, geometric).
    """
    thresh = CLUSTER_TOL * max(np.linalg.norm(H, 2), 1e-300)
    groups = []
    for val in w[np.lexsort((w.imag, w.real))]:
        for g in groups:
            if any(abs(val - x) < thresh for x in g):
                g.append(val)
                break
        else:
            groups.append([val])
    reps = [complex(np.mean(g)) for g in groups]
    return [(rep, len(g), geometric_multiplicity(H, rep, tol=CLUSTER_TOL))
            for rep, g in zip(reps, groups)]


def matrix_labels(ws, thresh):
    """Single linkage of the lexsorted eigenvalues ws as spectral_report once
    found it: label propagation over the n x n matrix of |ws_i - ws_j| <
    thresh until no label changes, so that each eigenvalue takes the lowest
    index it reaches. The reference for spectra._linkage_labels."""
    n = len(ws)
    near = np.abs(ws[:, None] - ws[None, :]) < thresh
    lab, prev = np.arange(n), None
    while not np.array_equal(lab, prev):
        lab, prev = np.where(near, lab, n).min(axis=1), lab
    return lab


def matrix_clusters(w, thresh):
    """(value, algebraic) of each cluster of the eigenvalues w that
    matrix_labels forms, in the order of its first sorted member: a
    singleton's value plus 0.0, else np.mean of its members in sorted order,
    as spectral_report takes them."""
    ws = w[np.lexsort((w.imag, w.real))]
    lab = matrix_labels(ws, thresh)
    clusters = []
    for first in np.flatnonzero(lab == np.arange(len(ws))):
        g = ws[lab == first]
        clusters.append((complex(np.mean(g) if len(g) > 1 else g[0] + 0.0), len(g)))
    return clusters


@pytest.fixture
def defective_params():
    """Open chain at the exactly solvable point v = gamma/2."""
    return LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30, boundary=Boundary.OPEN)


@pytest.fixture
def periodic_params():
    return LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30, boundary=Boundary.PERIODIC)
