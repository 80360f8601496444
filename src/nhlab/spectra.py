"""Eigendecomposition, gap/reality diagnostics, and defectiveness analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ExceptionalPointError, NoZeroModeError
from .model import (Boundary, DisorderConfig, LatticeParams, build_bloch, build_real_space,
                    chiral_residual, reduced_chain)

CLUSTER_TOL = 1e-8      # eigenvalues closer than CLUSTER_TOL * ||H||_2 share a cluster
ZERO_MODE_TOL = 1e-8    # zero mode present iff sigma_min < ZERO_MODE_TOL * sigma_max
REALITY_TOL = 1e-8      # real iff max |Im E| < REALITY_TOL * ||H||_2 (absolute on k grids)
EP_TOL = 1e-8           # Bloch EP iff |E| < EP_TOL * ||H_k||_2
GAP_K_SAMPLES = 4001    # gap_report checks this many momenta in [0, 2*pi] and calls
GAP_TOL = 1e-4          # a gap open iff min |Re E| (|Im E|) there exceeds GAP_TOL
EDGE_WEIGHT = 0.9       # state at an edge iff the ceil(N/4) cells there hold more weight

# Bisection tolerance that leaves only the relative stopping test of dstebz.
_TINY_TOL = 2 * np.finfo(float).tiny


def fix_phase(u: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the largest-magnitude component is real positive."""
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.norm(u)
    j = int(np.argmax(np.abs(u)))
    ph = u[j] / abs(u[j])
    return u / ph


def smallest_abs_eigenvalue(params: LatticeParams,
                            disorder: DisorderConfig | None = None) -> float | np.ndarray:
    """min |E| over the eigenvalues of build_real_space(params, disorder).

    Where the chain reduces (model.reduced_chain), det H = +-prod(a_n b_n),
    so a zero hop gives exactly 0.0. Otherwise min |E|^2 is
    1 / max |eig(Y^-1 X^-1)|, an N x N real solve for the largest
    eigenvalue, which keeps its relative accuracy; sqrt(min |eig(X Y)|)
    would lose half the digits of a small one. Chains that do not reduce,
    and inverses that overflow, take min |eigvals(H)|.

    A stack of draws (DisorderConfig.from_seeds) gives an array, one
    min |E| per seed, each bit for bit what that seed gives alone: zero
    hops settle for the whole stack at once, the rows left share one
    stacked eigvals, and so do the rows that take H. Non-finite hops
    raise ValueError.
    """
    out = _smallest_abs(params, disorder, 0.0)
    return out if _is_stack(disorder) else float(out[0])


def zero_mode_split(params: LatticeParams, disorder: DisorderConfig | None,
                    tol: float) -> bool | np.ndarray:
    """smallest_abs_eigenvalue(params, disorder) > tol, row for row, with
    most of its eigvals left out.

    With K = Y^-1 X^-1, min |E| = 1 / sqrt(rho(K)) and the spectral radius
    rho(K) >= |trace K| / N. Less a rounding margin 2 N^2 eps ||K||_F,
    which covers eigvals' backward error and the summed trace, that bound
    is below the largest |eig(K)| that eigvals returns for K, so where
    1 / sqrt(bound) <= tol the row is certainly not split and is not
    solved. Near a zero mode, where min |E| is far below tol, almost every
    row settles so; the rest, and the rows that take H, are solved as in
    smallest_abs_eigenvalue. A stack gives one bool per row.
    """
    split = _smallest_abs(params, disorder, tol) > tol
    return split if _is_stack(disorder) else bool(split[0])


def _is_stack(disorder: DisorderConfig | None) -> bool:
    return disorder is not None and disorder.draws.ndim == 2


def _smallest_abs(params: LatticeParams, disorder: DisorderConfig | None,
                  tol: float) -> np.ndarray:
    """min |E| of each row of the draws (one row for None or a single
    draw), as smallest_abs_eigenvalue; a row whose trace bound (see
    zero_mode_split) shows min |E| <= tol is left unsolved at 0.0. tol = 0
    leaves none."""
    n = params.n_cells
    out = np.zeros(len(disorder.draws) if _is_stack(disorder) else 1)
    dense = np.arange(len(out))                 # the rows that take H
    hops = reduced_chain(params, disorder)
    if hops is not None:
        a, b = (x.reshape(len(out), n) for x in hops[:2])
        r = hops[2].reshape(len(out), n - 1)
        if not all(np.isfinite(x).all() for x in (a, b, r)):
            raise ValueError("reduced chain hops must be finite")
        rows = np.flatnonzero(a.all(axis=1) & b.all(axis=1))    # the others stay 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            k = _inverse_products(a[rows], b[rows], r[rows])
            # nan or -inf where K or its norm overflows, which settles nothing
            bound = (np.abs(np.trace(k, axis1=1, axis2=2))
                     - 2 * n ** 2 * np.finfo(float).eps
                     * np.sqrt(np.einsum("kij,kij->k", k, k))) / n
        settled = bound > 0
        settled[settled] = 1.0 / np.sqrt(bound[settled]) <= tol
        solve = ~settled & np.isfinite(k).all(axis=(1, 2))
        top = np.full(len(rows), np.inf)
        top[solve] = np.abs(_eigvals(k[solve])).max(axis=-1)
        solved = (0.0 < top) & (top < np.inf)
        out[rows[solved]] = 1.0 / np.sqrt(top[solved])
        dense = rows[~solved & ~settled]
    if dense.size:
        H = build_real_space(params, disorder=disorder).reshape(-1, 2 * n, 2 * n)
        out[dense] = np.abs(_eigvals(H[dense])).min(axis=-1)
    return out


def _inverse_products(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """K = Y^-1 X^-1 for each row of the hops a, b (S, N) and r (S, N - 1),
    with no zero in a or b, where X = -diag(a) - superdiag(r) and
    Y = diag(b) + subdiag(r). Every row has the same pattern of nonzeros,
    so one pair of N x N bidiagonals takes each row's hops by index
    assignment, and each is inverted once per row."""
    n = a.shape[1]
    i = np.arange(n)
    x, y, eye = np.zeros((n, n)), np.zeros((n, n)), np.eye(n)
    k = np.empty(a.shape + (n,))
    for a_s, b_s, r_s, k_s in zip(a, b, r, k):
        x[i, i], x[i[:-1], i[1:]] = -a_s, -r_s
        y[i, i], y[i[1:], i[:-1]] = b_s, r_s
        k_s[:] = (_triangular_inverse(y, eye, lower=True)
                  @ _triangular_inverse(x, eye, lower=False))
    return k


def _triangular_inverse(t: np.ndarray, eye: np.ndarray, lower: bool) -> np.ndarray:
    """t^-1 for a triangular t with no zero on its diagonal, by the dtrtrs
    call that scipy.linalg.solve_triangular(t, eye, lower) makes, without
    its per-call checks."""
    x, info = lapack.dtrtrs(t.T, eye, lower=not lower, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs returned info = {info}")
    return x


def _eigvals(m: np.ndarray) -> np.ndarray:
    """eigvals of each matrix of the stack m, (k, n, n), in one call; a
    stack of one solves its matrix on its own, as a 2-D array."""
    if len(m) == 1:
        return np.linalg.eigvals(m[0])[None]
    return np.linalg.eigvals(m) if len(m) else np.empty(m.shape[:2])


def bloch_branches(params: LatticeParams, ks: np.ndarray):
    """Closed-form branches of the build_bloch matrices at an array of momenta.

    Returns E (nk,), the principal square root of h_x^2 + (h_z + i gamma/2)^2,
    and the unit-norm eigenvectors u_plus, u_minus (each (nk, 2)) of E and -E.
    At an exceptional point (E = 0) the vectors are not finite; callers
    that use them check E first.
    """
    m = build_bloch(params, np.asarray(ks, dtype=float))
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


def chain(params: LatticeParams, disorder: DisorderConfig | None = None):
    """The form of build_real_space(params, disorder) that the chain_* functions
    take: a clean ring's Bloch blocks at k = 2 pi m / N, (N, 2, 2); the hops
    (a, b, r) of an open chain that model.reduced_chain reduces; else H. A
    stack of draws raises ValueError, as its H would read as ring blocks.
    """
    if disorder is not None and disorder.draws.ndim != 1:
        raise ValueError("chain takes one chain's draws, not a stack")
    if params.boundary is Boundary.PERIODIC and disorder is None:
        return build_bloch(params, 2 * np.pi * np.arange(params.n_cells) / params.n_cells)
    hops = reduced_chain(params, disorder)
    return build_real_space(params, disorder=disorder) if hops is None else hops


def chain_spectrum(form) -> np.ndarray:
    """The 2N eigenvalues of a chain's form (see chain), without H.

    Bloch blocks give +-E of each, as bloch_branches. An open chain is
    similar to the path of its hops, and a path's characteristic
    polynomial depends only on the products of opposite hops, a_n b_n in
    cell n and r_n^2 on bond n. The balanced real path with hops t_1, r_1,
    t_2, ..., t_N, where t_n = sqrt|a_n b_n|, has the same spectrum. When
    every a_n b_n >= 0 it is symmetric and eigvalsh_tridiagonal returns an
    exactly real spectrum, {0, 0, +-r (N - 1 times each)} at v = gamma/2;
    otherwise its lower cell hops take the sign of a_n b_n and it is one
    real 2N x 2N eigvals. Both are more accurate than eigvals(H), which H
    takes (Hatano & Nelson 1996; Yao & Wang 2018).
    """
    if not isinstance(form, tuple):
        if form.ndim == 2:
            return np.linalg.eigvals(form)
        E = np.sqrt(form[:, 0, 1] ** 2 + form[:, 0, 0] ** 2)
        return np.concatenate([E, -E])
    a, b, r = form
    off = np.empty(2 * len(a) - 1)
    off[0::2] = np.sqrt(np.abs(a)) * np.sqrt(np.abs(b))   # a_n b_n itself may underflow
    off[1::2] = r
    sign = np.sign(a) * np.sign(b)
    if (sign >= 0).all():
        # eigvalsh_tridiagonal's driver (sterf) squares each hop, and a hop
        # below 1.5e-154 times the largest, _golub_kahan's cut, would square
        # to a subnormal and spoil the blocks it joins: split the path there.
        off[np.abs(off) < 1.5e-154 * np.abs(off).max()] = 0.0
        w = scipy.linalg.eigvalsh_tridiagonal(np.zeros(len(off) + 1), off)
    else:
        lower = off.copy()
        lower[0::2] *= sign
        w = np.linalg.eigvals(np.diag(off, 1) + np.diag(lower, -1))
    return w.astype(complex)


def _bisect(off: np.ndarray, select: int, vl=0.0, vu=0.0, il=0, iu=0, tol=_TINY_TOL):
    """dstebz on the zero-diagonal symmetric tridiagonal with off-diagonal off.

    select 1 takes the eigenvalues in (vl, vu], select 2 the il-th to
    iu-th smallest (1-based), in ascending order. The default tolerance
    gives each eigenvalue to high relative accuracy (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11, 873 (1990)); tol = 0 takes LAPACK's
    eps * ||T||, which is relatively accurate for the largest only.
    dstebz reports an illegal argument or a failed bisection only through
    info, with wrong output and no other sign, so a nonzero info raises
    LinAlgError.
    """
    m, w, _, _, info = lapack.dstebz(np.zeros(len(off) + 1), off, select,
                                     vl, vu, il, iu, tol, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz returned info = {info}")
    return w[:m]


@dataclass(frozen=True)
class ChainSingularValues:
    """Singular values of an open chain that reduces; see chain_singular_values."""

    sigma_max: float
    smallest: np.ndarray          # every singular value below tol * sigma_max, ascending


def _golub_kahan(hops):
    """(scale, rows off_X and off_Y) of reduced_chain's hops; see chain_singular_values."""
    # dstebz takes a hop below sqrt(safmin) = 1.5e-154 for zero. Scaling by
    # a power of two, which bisection carries exactly, moves that bound
    # to 1.5e-154 times the largest hop.
    a, b, r = hops
    scale = 2.0 ** np.frexp(np.abs(np.concatenate([a, b, r])).max())[1]
    gk = np.empty((2, 2 * len(a) - 1))
    gk[:, 0::2], gk[:, 1::2] = np.abs([a, b]) / scale, np.abs(r) / scale
    return scale, gk


def chain_singular_values(hops, tol: float = ZERO_MODE_TOL) -> ChainSingularValues:
    """Singular values of the open chain with reduced hops (a, b, r), without H.

    H = i U A U^H with U unitary and A the real path of the hops
    (model.reduced_chain). After an even/odd permutation A = [[0, X],
    [Y, 0]], so H has the singular values of the N x N bidiagonals
    X = -diag(a) - superdiag(r) and Y = diag(b) + subdiag(r) together.
    Those of an upper bidiagonal (X, and Y^T) are the non-negative
    eigenvalues of its Golub-Kahan matrix, the zero-diagonal tridiagonal
    with off-diagonal |d_1|, |e_1|, |d_2|, ..., |d_N|, and bisection
    (dstebz) finds them: sigma_max to LAPACK's default tolerance and
    `smallest`, every singular value below tol * sigma_max, to high
    relative accuracy. A factor with a zero hop on its diagonal (some a_n
    or b_n = 0) is singular, and its sigma_min is exactly 0.0. A hop below
    1.5e-154 times the largest counts as zero. `smallest` is empty when no
    singular value lies below the cut, as at tol = 0; tol > 1 takes all
    2N, and so does H = 0. Any other form (see chain) raises ValueError.
    """
    sigma_max, values = _factor_singular_values(hops, tol)
    return ChainSingularValues(sigma_max, np.sort(np.concatenate(values)))


def _factor_singular_values(hops, tol: float):
    """(sigma_max, [X's, Y's]) of chain_singular_values: each factor's
    singular values below tol * sigma_max, ascending."""
    if not isinstance(hops, tuple):
        raise ValueError("chain_singular_values takes reduced hops (a, b, r)")
    a, b, _ = hops
    scale, gk = _golub_kahan(hops)
    # Both Golub-Kahan matrices as one tridiagonal, split by a zero hop.
    (top,) = _bisect(np.concatenate([gk[0], [0.0], gk[1]]), 2,
                     il=4 * len(a), iu=4 * len(a), tol=0.0)
    if top == 0.0:                      # H = 0: every singular value is 0
        return 0.0, [np.zeros(len(a)), np.zeros(len(a))]
    cut = tol * top
    values = []
    for off, diag in zip(gk, (a, b)):
        w = _bisect(off, 1, vl=-cut, vu=cut) if cut > 0 else np.empty(0)
        s = np.sort(np.abs(w))[::2]          # each singular value gives +-sigma
        if s.size and not diag.all():
            s[0] = 0.0
        values.append(scale * s[s < cut])
    return float(scale * top), values


def _null_factor(values) -> int | None:
    """0 (X) or 1 (Y): the factor whose values (see _factor_singular_values)
    hold the smallest, X on a tie; None when neither holds any."""
    x_min, y_min = (s[0] if s.size else np.inf for s in values)
    return int(y_min < x_min) if min(x_min, y_min) < np.inf else None


def chain_norm(form) -> float:
    """||H||_2 of a chain's form (see chain), the scale of the zero-mode cut:
    hops take chain_singular_values' sigma_max at tol = 0, which bisects no
    smaller value; Bloch blocks the largest ||H_k||_2; H its own.
    """
    if isinstance(form, tuple):
        return chain_singular_values(form, tol=0.0).sigma_max
    return float(np.linalg.norm(form, 2, axis=(-2, -1)).max())


def _factor(hops, factor: int) -> np.ndarray:
    """The N x N bidiagonal X = -diag(a) - superdiag(r) (factor 0) or
    Y = diag(b) + subdiag(r) (factor 1) of reduced hops."""
    a, b, r = hops
    return np.diag(b) + np.diag(r, -1) if factor else -np.diag(a) - np.diag(r, 1)


def _matrix(form) -> np.ndarray:
    """H itself, or for reduced hops i [[0, X], [Y, 0]], which the even/odd
    split of the path A makes unitarily similar to H = i U A U^H."""
    if not isinstance(form, tuple):
        return form
    zero = np.zeros((len(form[0]),) * 2)
    return 1j * np.block([[zero, _factor(form, 0)], [_factor(form, 1), zero]])


def _from_sites(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The vector of H's basis with amplitudes first_n and second_n on the
    sites of cell n of reduced_chain's path: H = i U A U^H, and cell n of
    U is u = [[1, 1], [i, -i]] / sqrt(2)."""
    u = np.empty(2 * len(first), dtype=complex)
    u[0::2] = (first + second) * np.sqrt(0.5)
    u[1::2] = 1j * (first - second) * np.sqrt(0.5)
    return u


def _factor_pinv(hops, factor: int, z: np.ndarray, drop: int) -> np.ndarray:
    """X^+ z (factor 0) or Y^+ z (factor 1) over the singular values of the
    factor less its `drop` smallest: one bidiagonal solve when drop = 0,
    else that factor's own SVD."""
    m = _factor(hops, factor)
    if not drop:
        return scipy.linalg.solve_triangular(m, z, lower=bool(factor))
    u, s, vh = np.linalg.svd(m)
    k = len(s) - drop
    return vh[:k].T @ (u[:, :k].T @ z / s[:k])


def bloch_eigensystem(params: LatticeParams,
                      k: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """bloch_branches at one momentum: (E, u_plus, u_minus), vectors through fix_phase.

    Raises ExceptionalPointError when the two eigenvalues coalesce
    (|E| < EP_TOL * ||H_k||), where the eigenvectors merge too.
    """
    E, u_plus, u_minus = bloch_branches(params, np.array([k]))
    E = complex(E[0])
    scale = np.linalg.norm(build_bloch(params, k), 2)
    if abs(E) < EP_TOL * max(scale, 1e-300):
        raise ExceptionalPointError(f"eigenvalues coalesce at k={k} (|E|={abs(E):.3g})")
    return E, fix_phase(u_plus[0]), fix_phase(u_minus[0])


def below_cut(x, sigma_max: float, tol: float):
    """x < tol * sigma_max, elementwise. sigma_max = 0 means H = 0, where
    every vector is a null vector, so everything is below the cut."""
    return (sigma_max == 0.0) | (x < tol * sigma_max)


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
    return int(np.sum(below_cut(s, s[0], tol)))


def smallest_singular_values(H: np.ndarray, count: int = 1) -> list[float]:
    """The `count` smallest singular values of H, ascending. H has
    min(H.shape) of them; a count outside 1..min(H.shape) raises ValueError."""
    if not 1 <= count <= min(np.shape(H)):
        raise ValueError(f"count must lie in 1..{min(np.shape(H))}, got {count}")
    s = np.linalg.svd(np.asarray(H, dtype=complex), compute_uv=False)
    return [float(x) for x in s[::-1][:count]]


@dataclass(frozen=True)
class ZeroModeInfo:
    u0: np.ndarray
    u0_prime: np.ndarray
    defective: bool
    algebraic_multiplicity: int
    geometric_multiplicity: int


def zero_cluster_size(eigenvalues: np.ndarray, sigma_max: float, tol: float) -> int:
    """Algebraic count of the zero cluster: the eigenvalues within a radius
    of tol * sigma_max, widened to the observed scatter 2 min|E| and capped
    at 1e-3 sigma_max."""
    radius = min(max(tol * sigma_max, 2.0 * np.abs(eigenvalues).min()), 1e-3 * sigma_max)
    return int(np.sum(np.abs(eigenvalues) <= radius))


def zero_mode_analysis(form, tol: float = ZERO_MODE_TOL, require_chiral: bool = True,
                       eigenvalues: np.ndarray | None = None) -> ZeroModeInfo:
    """Eigenvector and generalized eigenvector of the E=0 cluster of a
    chain's form (see chain): reduced hops, or H.

    Presence is decided from the singular values alone: the QR eigensolver
    can scatter a defective zero pair by far more than the true splitting,
    while sigma_min = 0 iff 0 is an eigenvalue. Raises NoZeroModeError when
    sigma_min is not below tol * sigma_max (below_cut); the values below it
    are the geometric count. u0 is a unit right singular vector of
    sigma_min, and u0_prime = H^+ u0 over the singular values not below
    the cut is the minimum-norm least-squares solution of H u0' = u0: the
    generalized eigenvector, up to multiples of u0.

    The algebraic count is the number of eigenvalues within a cluster
    radius widened to the observed scatter. They are `eigenvalues` when
    given (the caller's spectrum of H), else chain_spectrum of the form.

    Hops are solved with no dense solve of H: the singular values come
    from chain_singular_values, u0 from the N x N SVD of the factor that
    holds sigma_min (_hop_zero_vectors), with the beta component of its
    largest cell real positive, and u0_prime from the other factor alone.
    An H that is a clean open chain (build_real_space of some params, bit
    for bit) is solved on its hops (_reduced). Any other H must be chiral
    when require_chiral is set; it takes svd(H, compute_uv=False), and only
    a present mode pays for the full SVD H = U S V^H, with u0 rotated as
    fix_phase rotates it. Bloch blocks raise ValueError.
    """
    form = _reduced(form, "zero_mode_analysis")
    if isinstance(form, tuple):
        sigma_max, values = _factor_singular_values(form, tol)
        geo = sum(map(len, values))
    else:
        if require_chiral and chiral_residual(form) > 1e-12 * max(np.abs(form).max(), 1.0):
            raise ValueError("zero_mode_analysis requires a chiral matrix")
        s = np.linalg.svd(form, compute_uv=False)
        sigma_max, geo = s[0], int(np.sum(below_cut(s, s[0], tol)))
    if not geo:
        raise NoZeroModeError(f"no singular value below {tol * sigma_max:.3g}")
    if isinstance(form, tuple):
        u0, u0_prime = _hop_zero_vectors(form, values)
    else:
        u, sv, vh = np.linalg.svd(form)
        k = len(sv) - geo
        u0 = fix_phase(vh[-1].conj())
        u0_prime = vh[:k].conj().T @ (u[:, :k].conj().T @ u0 / sv[:k])
    w = chain_spectrum(form) if eigenvalues is None else eigenvalues
    alg = zero_cluster_size(w, sigma_max, tol)
    return ZeroModeInfo(u0=u0, u0_prime=u0_prime, defective=(alg == 2 and geo == 1),
                        algebraic_multiplicity=alg, geometric_multiplicity=geo)


def _hop_zero_vectors(hops, values) -> tuple[np.ndarray, np.ndarray]:
    """(u0, u0_prime) of zero_mode_analysis on reduced hops (a, b, r), whose
    factors hold `values` below the cut (_factor_singular_values).

    After the even/odd split, A = [[0, X], [Y, 0]]: X acts on the second
    sites and Y on the first. A null vector of X, on the second sites, is
    one of H; A^+ maps it to the first sites through Y^+, and a null vector
    of Y to the second sites through X^+.
    """
    f = _null_factor(values)
    # The null vector from a dense SVD of that N x N factor: inverse
    # iteration (dstein) can miss it for the numerically double pair
    # +-sigma_min (residual 7.6e-4 at v = -0.987, r = 1.96, gamma = 1.965,
    # N = 16).
    x = np.linalg.svd(_factor(hops, f))[2][-1]
    # Both components of cell n of u0 hold |x_n| / sqrt(2), so fix_phase's
    # largest component ties with its partner. The phase makes the beta one
    # real positive, as in the edge state (i, 1, 0, ...) / sqrt(2).
    x = x * (np.sign(x[np.argmax(np.abs(x))]) * (1j if f == 0 else -1j) / np.linalg.norm(x))
    z = -1j * _factor_pinv(hops, 1 - f, x, len(values[1 - f]))    # H^+ = -i U A^+ U^H
    zero = np.zeros(len(x))
    sites = ((zero, x), (z, zero)) if f == 0 else ((x, zero), (zero, z))
    u0, u0_prime = (_from_sites(*pair) for pair in sites)
    return u0, u0_prime


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


def _reduced(form, caller: str):
    """The form that caller solves: reduced hops as they are; a complex H
    that is a clean open chain, whose build_real_space is H bit for bit, as
    its hops; any other H as it is. v, gamma and r are read off H[0, 1],
    H[0, 0] and H[2, 0] (an N = 1 chain has no bond, and any r gives it);
    the builder itself decides whether they give H back, so the test is
    exact. Bloch blocks raise ValueError.
    """
    if isinstance(form, tuple):
        return form
    form = np.asarray(form, dtype=complex)
    if form.ndim != 2:
        raise ValueError(f"{caller} takes reduced hops or H, not Bloch blocks")
    n = form.shape[0] // 2
    if not n or form.shape != (2 * n, 2 * n):
        return form
    try:
        p = LatticeParams(v=float(form[0, 1].real),
                          r=2 * float(form[2, 0].imag) if n > 1 else 1.0,
                          gamma=2 * float(form[0, 0].imag), n_cells=n)
    except ValueError:
        return form
    return chain(p) if build_real_space(p).tobytes() == form.tobytes() else form


def _simple_eigenvalues(hops) -> bool:
    """Whether the hops (a, b, r) prove that each distinct value of
    chain_spectrum(hops) is one exact eigenvalue of geometric multiplicity 1.

    Where every a_n b_n = 0 (v = +-gamma/2), the path splits into two lone
    sites and N - 1 dimers, so its spectrum is exactly {0, 0} and the +-r_n,
    and bit-equal values are one eigenvalue. Where every r_n and every a_n
    (or every b_n) is nonzero, deleting the first column and the last row
    of A - lambda I (or the last column and the first row) leaves a
    triangular matrix with those hops on its diagonal, so its rank is at
    least 2N - 1 for every lambda (Parlett, The Symmetric Eigenvalue
    Problem, 1998).
    """
    a, b, r = hops
    split = ((a == 0) | (b == 0)).all()
    unreduced = r.all() and (a.all() or b.all())
    return bool(split and unreduced)


def spectral_report(form) -> SpectralReport:
    """Full spectrum with clustered multiplicities and zero-mode data of a
    chain's form (see chain): reduced hops, or H.

    real_gap is the distance of the non-zero-cluster spectrum from
    Re E = 0 (zero when the bands touch the imaginary axis). The
    eigenvalues come from chain_spectrum, the scale ||H||_2 from chain_norm
    and a zero cluster from zero_mode_analysis, all on the one form that
    _reduced gives: hops, clean or disordered, are solved with no dense
    solve of H, and chain_spectrum gives an exactly real spectrum wherever
    every a_n b_n >= 0; an H that is a clean open chain (build_real_space
    of some params, bit for bit) is solved on its hops. Any other H takes
    eigvals(H), norm(H, 2) and the dense zero_mode_analysis. Bloch blocks
    raise ValueError.

    A simple eigenvalue has geometric count 1, and a repeated zero cluster
    takes the geometric count of its zero-mode record. On the hops, a
    repeated cluster of bit-equal values takes 1 where _simple_eigenvalues
    proves it, as at v = +-gamma/2 with gamma > 0. Every other repeated
    cluster takes geometric_multiplicity: of H, or for hops of
    i [[0, X], [Y, 0]], which is unitarily similar to H = i U A U^H
    (chain_singular_values).
    """
    form = _reduced(form, "spectral_report")
    scale, w = chain_norm(form), chain_spectrum(form)
    # Positive, so that H = 0 is one cluster, and otherwise relative: a fixed
    # floor would make +-5e-324 (||H||_2 = 5e-324) a zero cluster that the
    # relative cut of zero_mode_analysis does not see.
    thresh = max(CLUSTER_TOL * scale, np.finfo(float).smallest_subnormal)
    ws = w[np.lexsort((w.imag, w.real))]
    # Single linkage: each eigenvalue takes the lowest sorted index it reaches
    # through a chain of neighbours closer than thresh.
    n = len(ws)
    near = np.abs(ws[:, None] - ws[None, :]) < thresh
    lab, prev = np.arange(n), None
    while not np.array_equal(lab, prev):
        lab, prev = np.where(near, lab, n).min(axis=1), lab
    groups = [ws[lab == first] for first in np.flatnonzero(lab == np.arange(n))]
    reps = [complex(np.mean(g)) for g in groups]
    zero = None
    if any(abs(rep) < thresh for rep in reps):
        zero = zero_mode_analysis(form, CLUSTER_TOL, require_chiral=False, eigenvalues=w)
    simple = isinstance(form, tuple) and _simple_eigenvalues(form)
    clusters = []
    for g, rep in zip(groups, reps):
        # 1 <= geometric <= algebraic, so a simple eigenvalue needs no SVD.
        if len(g) == 1:
            geo = 1
        elif abs(rep) < thresh:
            geo = zero.geometric_multiplicity
        elif simple and (g == g[0]).all():
            geo = 1
        else:
            geo = geometric_multiplicity(_matrix(form), rep, tol=CLUSTER_TOL)
        clusters.append(Cluster(value=rep, algebraic=len(g), geometric=geo))
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
    chain_spectrum, against the scale ||H||_2 of chain_norm.
    """
    v, r, g = params.v, params.r, params.gamma
    cf_real = abs(abs(v) - r) > g / 2
    cf_imag = abs(v) + r < g / 2
    if params.boundary is Boundary.PERIODIC:
        E = chain_spectrum(build_bloch(params, np.linspace(0.0, 2 * np.pi, GAP_K_SAMPLES)))
        num_real = bool(np.abs(E.real).min() > GAP_TOL)
        num_imag = bool(np.abs(E.imag).min() > GAP_TOL)
        spectrum_real = bool(np.abs(E.imag).max() < REALITY_TOL)
        return GapReport(cf_real, cf_imag, spectrum_real, num_real, num_imag)
    form = chain(params)
    scale = max(chain_norm(form), 1e-300)
    spectrum_real = bool(np.abs(chain_spectrum(form).imag).max() < REALITY_TOL * scale)
    return GapReport(cf_real, cf_imag, spectrum_real)


@dataclass(frozen=True)
class EdgeProfile:
    side: str                    # "left" | "right" | "delocalized"
    weights: np.ndarray          # per-unit-cell probability


def edge_side(weights: np.ndarray) -> str:
    """"left" or "right" where the ceil(N/4) cells at that edge hold more
    than EDGE_WEIGHT of the per-cell weights (summing to 1), else "delocalized"."""
    n = len(weights)
    edge = min(int(np.ceil(n / 4)), n // 2)    # one cell (N = 1) is both edges, so neither
    if weights[:edge].sum() > EDGE_WEIGHT:
        return "left"
    if weights[n - edge:].sum() > EDGE_WEIGHT:
        return "right"
    return "delocalized"


def edge_profile(u: np.ndarray) -> EdgeProfile:
    """Per-cell weights |alpha_n|^2 + |beta_n|^2 and which edge holds them."""
    u = np.asarray(u, dtype=complex)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("edge_profile expects a unit-norm vector")
    w = np.abs(u[0::2]) ** 2 + np.abs(u[1::2]) ** 2
    return EdgeProfile(side=edge_side(w), weights=w)
