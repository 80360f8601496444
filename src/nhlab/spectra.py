"""Eigendecomposition, gap/reality diagnostics, and defectiveness analysis."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ExceptionalPointError, NoZeroModeError
from .model import (Boundary, DisorderConfig, LatticeParams, build_bloch, build_real_space,
                    chiral_residual, reduced_chain)

CLUSTER_TOL = 1e-8      # eigenvalues closer than CLUSTER_TOL * ||H||_2 share a cluster
ZERO_MODE_TOL = 1e-8    # zero mode present iff sigma_min < ZERO_MODE_TOL * sigma_max
REALITY_TOL = 1e-8      # real iff max |Im E| < REALITY_TOL * ||H||_2
EP_TOL = 1e-8           # Bloch EP iff |E| < EP_TOL * ||H_k||_2
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


def first_splits(params: LatticeParams, grid: DisorderConfig, tol: float) -> np.ndarray:
    """For a grid of D strengths (DisorderConfig.strength a 1-D array) over
    a stack of S seeds, the index into the grid of the first strength at
    which each seed's zero mode has split, min |E| > tol (_smallest_abs),
    and D where it survives the grid: shape (S,), or () for one draw.

    The hops of the whole grid are built and settled up front (_settled,
    in blocks of strengths of at most _GRID_HOPS hops): a row with a zero
    hop has min |E| = 0, and a row that _trace_certified shows has
    min |E| <= tol, in O(N) from its hops, is not split and is not solved.
    Near a zero mode, where min |E| is far below tol, almost every row
    settles so. Each strength then solves, in one stacked call, the seeds
    not yet split that are left open, and no later strength of a split
    seed is solved. On-site disorder past d = 0 takes H, strength by
    strength; a block of strengths that holds such a strength settles no
    row up front, and its rows with no zero hop are solved.
    """
    n, strengths = params.n_cells, grid.strength
    draws = grid.draws.reshape(-1, n)
    seeds = grid.seed if isinstance(grid.seed, tuple) else (grid.seed,)
    settled = np.zeros((len(strengths), len(draws)), dtype=bool)
    step = max(1, _GRID_HOPS // max(draws.size, 1))
    for j in range(0, len(strengths) if draws.size else 0, step):
        hops = reduced_chain(params, replace(grid, strength=strengths[j:j + step]))
        if hops is not None:            # on-site disorder reduces at d = 0 only
            settled[j:j + step] = _settled(*_hop_rows(hops, n), tol).reshape(-1, len(draws))
    first = np.full(len(draws), len(strengths))
    for j, d in enumerate(strengths.tolist()):
        rows = np.flatnonzero((first == len(strengths)) & ~settled[j])
        if rows.size:
            dis = DisorderConfig(grid.target, d, tuple(seeds[i] for i in rows), draws[rows])
            first[rows[_smallest_abs(params, dis) > tol]] = j
    return first.reshape(grid.draws.shape[:-1])


# Hop entries of the grid that first_splits builds and settles at a time
# (at least one strength's worth), which bounds its memory for many seeds.
_GRID_HOPS = 2 ** 18


def _lead(disorder: DisorderConfig | None) -> tuple[int, ...]:
    """The leading shape of a grid of strengths and a stack of draws."""
    return () if disorder is None else np.shape(disorder.strength) + disorder.draws.shape[:-1]


def _hop_rows(hops, n: int):
    """reduced_chain's hops as rows: a and b (k, N), r (k, N - 1)."""
    a, b, r = hops
    rows = a.size // n
    a, b, r = a.reshape(rows, n), b.reshape(rows, n), r.reshape(rows, n - 1)
    if not all(np.isfinite(x).all() for x in (a, b, r)):
        raise ValueError("reduced chain hops must be finite")
    return a, b, r


def _smallest_abs(params: LatticeParams, disorder: DisorderConfig | None) -> np.ndarray:
    """min |E| over the eigenvalues of build_real_space(params, disorder),
    one per row of the draws, flat (one row for None or a single draw).

    Where the chain reduces (model.reduced_chain), det H = +-prod(a_n b_n),
    so a zero hop gives exactly 0.0. Otherwise min |E|^2 is
    1 / max |eig(Y^-1 X^-1)|, an N x N real solve for the largest
    eigenvalue, which keeps its relative accuracy; sqrt(min |eig(X Y)|)
    would lose half the digits of a small one. Chains that do not reduce,
    and inverses that overflow, take min |eigvals(H)|. Each row is bit for
    bit what its draw gives alone: zero hops settle for the whole stack at
    once, the rows left share one stacked eigvals, and so do the rows that
    take H. Non-finite hops raise ValueError.
    """
    n = params.n_cells
    out = np.zeros(int(np.prod(_lead(disorder))))
    dense = np.arange(len(out))                 # the rows that take H
    hops = reduced_chain(params, disorder)
    if hops is not None:
        a, b, r = _hop_rows(hops, n)
        rows = np.flatnonzero(a.all(axis=1) & b.all(axis=1))     # the others stay 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            k = _inverse_products(a[rows], b[rows], r[rows])
        solve = np.isfinite(k).all(axis=(1, 2))
        top = np.full(len(rows), np.inf)
        if solve.any():
            top[solve] = np.abs(np.linalg.eigvals(k[solve])).max(axis=-1)
        solved = (0.0 < top) & (top < np.inf)
        out[rows[solved]] = 1.0 / np.sqrt(top[solved])
        dense = rows[~solved]
    if dense.size:
        H = build_real_space(params, disorder=disorder).reshape(-1, 2 * n, 2 * n)
        out[dense] = np.abs(np.linalg.eigvals(H[dense])).min(axis=-1)
    return out


def _settled(a: np.ndarray, b: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """Rows of hops (see _hop_rows) whose min |E| <= tol needs no solve: a
    zero in a or b, where min |E| = 0, or, for tol > 0, _trace_certified."""
    live = a.all(axis=1) & b.all(axis=1)
    if tol > 0:
        live[live] = ~_trace_certified(*(np.ascontiguousarray(x[live].T) for x in (a, b, r)),
                                       tol)
    return ~live


def _trace_certified(a: np.ndarray, b: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """Chains of hops a, b (N, k) and r (N - 1, k), one chain per column
    and no zero in a or b, for which the trace of K = Y^-1 X^-1 proves
    min |E| <= tol; O(N) each, with no K formed.

    min |E| = 1 / sqrt(rho(K)) and the spectral radius rho(K) >= |trace K| / N.
    K_ii = -sum_{j <= i} prod_{k=j}^{i-1} r_k^2 / prod_{k=j}^{i} a_k b_k, so
    trace K = -sum_i S_i / b_i with S_1 = 1/a_1 and
    S_i = rho_{i-1} S_{i-1} + 1/a_i, rho_k = (r_k / b_k)(r_k / a_{k+1}). Two
    more recursions give ||X^-1||_F^2 (rows j: R_j = 1/a_j^2 + (r_j/a_j)^2 R_{j+1})
    and ||Y^-1||_F^2 (columns: C_j = 1/b_j^2 + (r_j/b_j)^2 C_{j+1}).

    With u = eps / 2, F = ||Y^-1||_F ||X^-1||_F and
    T_abs = trace(|Y^-1| |X^-1|) <= F (Cauchy-Schwarz), the bound
    (|T| - (2 N^2 + 8 N) eps F) / N never exceeds the largest |eig(K)|
    that eigvals returns for the K that _inverse_products forms:
    - each term of the summed T carries at most 6N roundings, so T is off
      the exact trace by at most 6N u T_abs;
    - each entry of a dtrtrs inverse of a bidiagonal carries at most 3N
      roundings and the product N more, so trace K off by 7N u T_abs;
    - eigvals returns the eigenvalues of K + E with |trace E| at most
      2 N^2 eps ||K||_F <= 2 N^2 eps F, the margin the dense bound took;
    - the 3N u F left over covers the roundings of the bound itself, and
      correctly rounded sqrt and division keep its order with |eig|.
    These rounding counts hold while no entry of either inverse, nor any
    product of two, leaves the normal range, so a row is certified only
    where (N - 1) log2(max(1, max|h| / min|r|)) + log2(max|h|) < 500 for
    h = a and for h = b (min over nonzero r), which keeps every such entry
    above 2^-500, and where T and F are finite.
    """
    n, k = a.shape
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        r_min = np.min(np.abs(r), axis=0, where=r != 0, initial=np.inf)
        tame = np.ones(k, dtype=bool)
        for h in (a, b):
            h_max = np.abs(h).max(axis=0)
            tame &= ((n - 1) * np.log2(np.maximum(h_max / r_min, 1.0))
                     + np.log2(h_max)) < 500
        # The three recursions run together, a step over all chains at a
        # time: S forward, R and C backward on the reversed hops.
        mult, s = np.empty((n - 1, 3, k)), np.empty((n, 3, k))
        rb = r / b[:-1]
        mult[:, 0] = rb * (r / a[1:])
        mult[::-1, 1] = (r / a[:-1]) ** 2
        mult[::-1, 2] = rb * rb
        s[:, 0] = 1.0 / a
        s[::-1, 1] = s[:, 0] * s[:, 0]
        s[::-1, 2] = (1.0 / b) ** 2
        for i in range(1, n):
            s[i] += mult[i - 1] * s[i - 1]
        trace = np.abs((s[:, 0] / b).sum(axis=0))
        f = np.sqrt(s[:, 1].sum(axis=0) * s[:, 2].sum(axis=0))
        bound = (trace - (2 * n * n + 8 * n) * eps * f) / n
        return tame & (bound > 0) & (1.0 / np.sqrt(bound) <= tol)


def _inverse_products(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """K = Y^-1 X^-1 for each row of the hops a, b (S, N) and r (S, N - 1),
    with no zero in a or b, where X and Y are the row's factors (_factor),
    each inverted once per row."""
    eye = np.eye(a.shape[1])
    k = np.empty((len(a),) + eye.shape)
    for hops, k_s in zip(zip(a, b, r), k):
        k_s[:] = (_triangular_inverse(_factor(hops, 1), eye, lower=True)
                  @ _triangular_inverse(_factor(hops, 0), eye, lower=False))
    return k


def _triangular_inverse(t: np.ndarray, eye: np.ndarray, lower: bool) -> np.ndarray:
    """t^-1 for a triangular t with no zero on its diagonal, by the dtrtrs
    call that scipy.linalg.solve_triangular(t, eye, lower) makes, without
    its per-call checks."""
    x, info = lapack.dtrtrs(t.T, eye, lower=not lower, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs returned info = {info}")
    return x


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
    stack of draws or a grid of strengths raises ValueError, as its H
    would read as ring blocks.
    """
    if disorder is not None and _lead(disorder):
        raise ValueError("chain takes one chain's draws, not a stack or a grid")
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
    otherwise its lower cell hops take the sign of a_n b_n, and the path
    is solved block by block between its zero hops: a block whose hops
    have mixed signs as one real eigvals, any other as a symmetric path.
    A path with no zero hop is one block and one call, unscaled where that
    converges. Both are more
    accurate than eigvals(H), which H takes (Hatano & Nelson 1996; Yao &
    Wang 2018).
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
        return _path_block(off, off).astype(complex)
    lower = off.copy()
    lower[0::2] *= sign
    if off.all():
        try:
            return np.linalg.eigvals(np.diag(off, 1) + np.diag(lower, -1)).astype(complex)
        except np.linalg.LinAlgError:
            pass        # hops across many decades: one block, scaled, below
    # Site blocks [start, end) between the zero hops, and one past the last site.
    ends = np.flatnonzero(np.append(off, 0.0) == 0) + 1
    return np.concatenate([_path_block(off[s:e - 1], lower[s:e - 1])
                           for s, e in zip(np.r_[0, ends[:-1]], ends)]).astype(complex)


def _path_block(off: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Eigenvalues of the zero-diagonal tridiagonal with hops off above and
    lower below: eigvalsh_tridiagonal where they are equal, else eigvals of
    the block scaled by a power of two to a largest hop in [1/2, 1)
    (unscaled, a block of hops 1.7e89 and 3.5 does not converge). The
    scaling is exact unless a hop falls below the normal range, and such a
    hop lies below 2^-1021, far below eps, times the largest, so the
    block's backward error stays eps-small. A symmetric block's tiny hops
    are zeroed in off itself."""
    if not len(off):
        return np.zeros(1)
    if (lower == off).all():
        # eigvalsh_tridiagonal's driver (sterf) squares each hop, and a hop
        # below 1.5e-154 times the largest, _factor_singular_values' cut,
        # would square to a subnormal and spoil the blocks it joins: split
        # the path there.
        off[np.abs(off) < 1.5e-154 * np.abs(off).max()] = 0.0
        return scipy.linalg.eigvalsh_tridiagonal(np.zeros(len(off) + 1), off)
    scale = 2.0 ** np.frexp(np.abs(off).max())[1]
    return scale * np.linalg.eigvals(np.diag(off / scale, 1) + np.diag(lower / scale, -1))


def _bisect(off: np.ndarray, select: int, vl=0.0, vu=0.0, il=0, iu=0, tol=_TINY_TOL):
    """dstebz on the zero-diagonal symmetric tridiagonal with off-diagonal off.

    select 1 takes the eigenvalues in (vl, vu], select 2 the il-th to
    iu-th smallest (1-based), in ascending order. The default tolerance
    gives each eigenvalue to high relative accuracy (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11, 873 (1990)); tol = 0 takes LAPACK's
    eps * ||T||, which is relatively accurate for the largest only.
    dstebz reports an illegal argument or a failed bisection only through
    info, with wrong output and no other sign, so a nonzero info raises
    LinAlgError. The one exception is info = 2 from select 2, which
    misses some of the indexed eigenvalues on valid input (non-monotone
    Sturm counts; N = 6, v = gamma = 0, r = 0.25 with r disorder 2.2e-16
    at seed 0 is one such chain): it takes them from all eigenvalues
    instead, the cure the LAPACK Users' Guide gives.
    """
    m, w, _, _, info = lapack.dstebz(np.zeros(len(off) + 1), off, select,
                                     vl, vu, il, iu, tol, "E")
    if info == 2 and select == 2:
        return _bisect(off, 0, tol=tol)[il - 1:iu]
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz returned info = {info}")
    return w[:m]


def _factor_singular_values(hops, tol: float):
    """(sigma_max, [X's, Y's]) of the open chain with reduced hops (a, b, r),
    without H: each factor's singular values below tol * sigma_max, ascending.

    H = i U A U^H with U unitary and A the real path of the hops
    (model.reduced_chain). After an even/odd permutation A = [[0, X],
    [Y, 0]], so H has the singular values of the N x N bidiagonals
    X = -diag(a) - superdiag(r) and Y = diag(b) + subdiag(r) together.
    Those of an upper bidiagonal (X, and Y^T) are the non-negative
    eigenvalues of its Golub-Kahan matrix, the zero-diagonal tridiagonal
    with off-diagonal |d_1|, |e_1|, |d_2|, ..., |d_N|, and bisection
    (dstebz) finds them: sigma_max to LAPACK's default tolerance and
    every singular value below tol * sigma_max to high relative accuracy.
    A factor with a zero hop on its diagonal (some a_n or b_n = 0) is
    singular, and its sigma_min is exactly 0.0. A hop below 1.5e-154 times
    the largest counts as zero. No value lies below the cut at tol = 0,
    which bisects sigma_max alone; tol > 1 takes all 2N, and so does H = 0.
    """
    a, b, r = hops
    # dstebz takes a hop below sqrt(safmin) = 1.5e-154 for zero. Scaling by
    # a power of two, which bisection carries exactly, moves that bound
    # to 1.5e-154 times the largest hop.
    scale = 2.0 ** np.frexp(np.abs(np.concatenate([a, b, r])).max())[1]
    gk = np.empty((2, 2 * len(a) - 1))
    gk[:, 0::2], gk[:, 1::2] = np.abs([a, b]) / scale, np.abs(r) / scale
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


def _null_factor(hops, values) -> int:
    """0 (X) or 1 (Y): the factor of the hops whose values (see
    _factor_singular_values) hold the smallest. On a tie, the factor with a
    zero hop on its diagonal, whose sigma_min is exactly 0 where a hop far
    below the largest only reads as 0; then X."""
    x, y = ((s[0] if s.size else np.inf, bool(d.all())) for s, d in zip(values, hops))
    return int(y < x)


def chain_norm(form) -> float:
    """||H||_2 of a chain's form (see chain), the scale of the zero-mode cut:
    hops take _factor_singular_values' sigma_max at tol = 0, which bisects
    no smaller value; Bloch blocks the largest ||H_k||_2; H its own.
    """
    if isinstance(form, tuple):
        return _factor_singular_values(form, 0.0)[0]
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


def geometric_multiplicity(H: np.ndarray, lam: complex, tol: float) -> int:
    """Dimension of the (tolerance-resolved) null space of H - lam*I: the
    count of its singular values below tol * sigma_max (below_cut)."""
    H = np.asarray(H, dtype=complex)
    dim = H.shape[0]
    if tol <= 0:
        raise ValueError("tol must be > 0")
    s = np.linalg.svd(H - lam * np.eye(dim), compute_uv=False)
    return int(np.sum(below_cut(s, s[0], tol)))


def smallest_singular_values(H: np.ndarray, count: int = 1) -> list[float]:
    """The `count` smallest singular values of H, ascending. H has
    min(H.shape) of them; a count outside 1..min(H.shape) raises ValueError.

    The values-only SVD runs in real arithmetic wherever a real matrix
    with exactly H's singular values is at hand (_real_form): a real H, a
    complex H with no imaginary part, and every finite chain without
    on-site disorder, open or periodic, clean or r/v/gamma-disordered,
    which an exact phase scaling makes real. Any other H, on-site
    disorder or a non-finite entry among them, takes the complex SVD.
    """
    if not 1 <= count <= min(np.shape(H)):
        raise ValueError(f"count must lie in 1..{min(np.shape(H))}, got {count}")
    s = np.linalg.svd(_real_form(np.asarray(H)), compute_uv=False)
    return [float(x) for x in s[::-1][:count]]


def _real_form(H: np.ndarray) -> np.ndarray:
    """A real matrix with exactly H's singular values, else H itself.

    A real H is its own; a complex H with no imaginary part gives H.real.
    Otherwise, with S = diag(1, i, 1, i, ...) on rows and columns alike,
    R = -i S^H H S is unitarily equivalent to H, and it is real when the
    same-sublattice entries (row and column index of equal parity) are
    imaginary and the cross entries real, as in every chain that
    model.build_real_space builds without on-site disorder: gain, loss
    and same-sublattice hops are imaginary, v and the cross hops real.
    Each entry of R is +-Re or +-Im of H's, so nothing is rounded. Any
    other H, one with a non-finite entry or whose R is not real, comes
    back as is.
    """
    if not np.iscomplexobj(H):
        return H
    x, y = H.real, H.imag
    if not y.any():
        return x
    if x[::2, ::2].any() or x[1::2, 1::2].any() or y[::2, 1::2].any() or y[1::2, ::2].any():
        return H
    R = y.copy()
    R[::2, 1::2] = x[::2, 1::2]
    R[1::2, ::2] = -x[1::2, ::2]      # -i conj(i) = -1 on a beta row, alpha column
    return R if np.isfinite(R).all() else H


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
    from _factor_singular_values, u0 from the factor that holds sigma_min
    (_hop_zero_vectors), by substitution where that factor has a zero hop
    on its diagonal and else from its N x N SVD, with the beta component
    of its largest cell real positive, and u0_prime from the other factor
    alone.
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
    of Y to the second sites through X^+. The factor that holds sigma_min
    (_null_factor) gives its null vector by substitution from a zero on its
    diagonal (_substituted_null_vector), exact up to a few roundings per
    entry, as (i, 1, 0, ...) / sqrt(2) at v = gamma/2; a factor with no
    zero there, whose sigma_min is only below the cut, takes its own
    N x N SVD.
    """
    f = _null_factor(hops, values)
    if hops[f].all():
        # A quasi-zero mode: the vector of sigma_min from a dense SVD of the
        # N x N factor. Inverse iteration (dstein) can miss it for the
        # numerically double pair +-sigma_min (residual 7.6e-4 at
        # v = -0.987, r = 1.96, gamma = 1.965, N = 16).
        x = np.linalg.svd(_factor(hops, f))[2][-1]
    else:
        x = _substituted_null_vector(hops, f)
    # Both components of cell n of u0 hold |x_n| / sqrt(2), so fix_phase's
    # largest component ties with its partner. The phase makes the beta one
    # real positive, as in the edge state (i, 1, 0, ...) / sqrt(2).
    x = x * (np.sign(x[np.argmax(np.abs(x))]) * (1j if f == 0 else -1j) / np.linalg.norm(x))
    z = -1j * _factor_pinv(hops, 1 - f, x, len(values[1 - f]))    # H^+ = -i U A^+ U^H
    zero = np.zeros(len(x))
    sites = ((zero, x), (z, zero)) if f == 0 else ((x, zero), (zero, z))
    u0, u0_prime = (_from_sites(*pair) for pair in sites)
    return u0, u0_prime


def _substituted_null_vector(hops, factor: int) -> np.ndarray:
    """A null vector of X (factor 0) or Y (factor 1) of reduced hops that
    have a zero on that factor's diagonal, by substitution; its largest
    entry lies in [1/2, 1].

    Row n of X x = 0 reads a_n x_n = -r_n x_{n+1}, and its last row
    a_N x_N = 0: from the first zero a_k, x_k = 1, x_n = 0 after k, and
    x_n = -r_n x_{n+1} / a_n before it, where no a_n is zero. Y y = 0 reads
    b_{n+1} y_{n+1} = -r_n y_n and b_1 y_1 = 0: from the last zero b_k,
    y_k = 1, y_n = 0 before k, and the recursion after it. Each entry is
    carried as a signed mantissa and a binary exponent: the hops'
    mantissas divide to a quotient in (1/2, 2) and their exponents subtract
    exactly, so no ratio r_n / a_n over- or underflows, and each step
    rounds twice (Parlett, The Symmetric Eigenvalue Problem, 1998).
    """
    a, b, r = hops
    if factor == 0:
        k = int(np.flatnonzero(a == 0)[0])
        num, den = r[:k][::-1], a[:k][::-1]
    else:
        k = int(np.flatnonzero(b == 0)[-1])
        num, den = r[k:], b[k + 1:]
    (m_num, e_num), (m_den, e_den) = np.frexp(num), np.frexp(den)
    q = -m_num / m_den
    m, e = np.ones(len(q) + 1), np.zeros(len(q) + 1, dtype=int)
    # A run of 1000 quotients keeps each running product of mantissas normal.
    for s in range(0, len(q), 1000):
        run = np.cumprod(np.concatenate([m[s:s + 1], q[s:s + 1000]]))[1:]
        m[s + 1:s + 1 + len(run)], shift = np.frexp(run)
        e[s + 1:s + 1 + len(run)] = e[s] + shift
    e[1:] += np.cumsum(e_num - e_den)
    # A zero hop r_n zeroes every entry past it; x_k = 1 is never zero.
    walk = np.ldexp(m, e - e[m != 0].max())
    x = np.zeros(len(a))
    if factor == 0:
        x[:k + 1] = walk[::-1]
    else:
        x[k:] = walk
    return x


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
    # Bit for bit: the words of both matrices, compared where they lie.
    same = np.array_equal(build_real_space(p).view(np.uint64),
                          np.ascontiguousarray(form).view(np.uint64))
    return chain(p) if same else form


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
    (_factor_singular_values).
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
    # Clusters in order of their first member; a stable sort on the labels
    # keeps each one's members in sorted order, the order np.mean takes.
    first = np.flatnonzero(lab == np.arange(n))
    size = np.bincount(lab, minlength=n)[first]
    members = ws[np.argsort(lab, kind="stable")]
    start = np.cumsum(size) - size
    # A singleton is its own mean; np.mean's sum starts from +0.0, which
    # turns a -0.0 part into +0.0.
    reps = ws[first] + 0.0
    repeated = [(j, members[start[j]:start[j] + size[j]]) for j in np.flatnonzero(size > 1)]
    for j, g in repeated:
        reps[j] = np.mean(g)
    is_zero = np.abs(reps) < thresh
    zero = None
    if is_zero.any():
        zero = zero_mode_analysis(form, CLUSTER_TOL, require_chiral=False, eigenvalues=w)
    simple = isinstance(form, tuple) and _simple_eigenvalues(form)
    # 1 <= geometric <= algebraic, so a simple eigenvalue needs no SVD.
    geo = [1] * len(first)
    for j, g in repeated:
        if is_zero[j]:
            geo[j] = zero.geometric_multiplicity
        elif not (simple and (g == g[0]).all()):
            geo[j] = geometric_multiplicity(_matrix(form), reps[j], tol=CLUSTER_TOL)
    clusters = [Cluster(value=rep, algebraic=alg, geometric=k)
                for rep, alg, k in zip(reps.tolist(), size.tolist(), geo)]
    band_re = np.abs(reps.real[np.abs(reps) >= thresh])
    return SpectralReport(
        eigenvalues=w,
        clusters=clusters,
        real_gap=float(band_re.min()) if band_re.size else 0.0,
        is_real=bool(np.abs(w.imag).max() < REALITY_TOL * max(scale, 1e-300)),
        zero_cluster=zero,
    )


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
