"""Lattice Hamiltonian builders and symmetry checks.

The chain has two sites per unit cell (sublattices alpha and beta) with
gain +i*gamma/2 on alpha and loss -i*gamma/2 on beta, an intra-cell
hopping v, and long-range inter-cell hoppings of strength r (both
sublattice-preserving imaginary hops and diagonal real cross hops).

Basis ordering is alpha_1, beta_1, alpha_2, beta_2, ..., alpha_N, beta_N
everywhere in this package. The amplitude vector psi evolves as
dpsi/dt = -i H psi, and momentum components are defined through
alpha_n = sum_k exp(i k n) alpha_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class Boundary(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


class DisorderTarget(str, Enum):
    HOPPING_R = "r"
    HOPPING_V = "v"
    GAIN_LOSS = "gamma"
    # Real on-site energy, equal on both sublattices. Breaks chiral
    # symmetry; included so the symmetry-conditional nature of the
    # zero-mode protection can be demonstrated.
    ON_SITE = "onsite"


@dataclass(frozen=True)
class LatticeParams:
    """Finite clean-chain parameters: r > 0, gamma >= 0, v of any sign."""

    v: float
    r: float
    gamma: float
    n_cells: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        # A boundary given by name ("open", "periodic") becomes the member,
        # so identity checks against Boundary hold; other names raise.
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not -np.inf < self.v < np.inf:            # NaN fails each of these
            raise ValueError(f"intra-cell hopping v must be finite, got {self.v}")
        if not 0 < self.r < np.inf:
            raise ValueError(f"inter-cell hopping r must be finite and > 0, got {self.r}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gain/loss rate gamma must be finite and >= 0, got {self.gamma}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")

    @property
    def dim(self) -> int:
        return 2 * self.n_cells


@dataclass(frozen=True)
class DisorderConfig:
    """Per-unit-cell disorder: target base value + strength * draws[n].

    draws are uniform variates on [-1, 1], one per unit cell; identical
    seeds give identical draws. For HOPPING_R the n-th draw perturbs the
    bond linking cells n and n+1, on both of its hopping lines. A stack
    (from_seeds) holds one row of draws per seed, shape (S, N), and the
    tuple of its seeds; reduced_chain and build_real_space take it and
    keep that leading axis. A grid of D strengths, a 1-D strength, puts
    its own axis before those of the draws: (D, [S,] N), and
    spectra.first_splits searches one.
    """

    target: DisorderTarget
    strength: float | np.ndarray
    seed: int | tuple[int, ...]
    draws: np.ndarray

    def __post_init__(self):
        if np.ndim(self.strength):
            object.__setattr__(self, "strength", np.asarray(self.strength, dtype=float))
        if np.ndim(self.strength) > 1 or not np.all(
                (0.0 <= self.strength) & (self.strength < np.inf)):
            raise ValueError(f"disorder strength must be finite and >= 0, got {self.strength}")
        draws = np.asarray(self.draws, dtype=float)
        object.__setattr__(self, "draws", draws)
        if not (np.abs(draws) <= 1.0).all():        # NaN fails this too
            raise ValueError("disorder draws must lie in [-1, 1]")

    @classmethod
    def from_seed(cls, target: DisorderTarget, strength: float, seed: int,
                  n_cells: int) -> "DisorderConfig":
        rng = np.random.default_rng(seed)
        return cls(target=target, strength=strength, seed=seed,
                   draws=rng.uniform(-1.0, 1.0, n_cells))

    @classmethod
    def from_seeds(cls, target: DisorderTarget, strength: float, seeds,
                   n_cells: int) -> "DisorderConfig":
        """A stack: row s holds from_seed's draws for seeds[s], a sized
        sequence (a range, list or tuple). The draws are allocated before
        the seeds are copied, so a range too long to hold fails at once."""
        draws = np.empty((len(seeds), n_cells))
        seeds = tuple(seeds)
        for row, seed in zip(draws, seeds):
            row[:] = np.random.default_rng(seed).uniform(-1.0, 1.0, n_cells)
        return cls(target=target, strength=strength, seed=seeds, draws=draws)


def build_bloch(params: LatticeParams, k: float | np.ndarray) -> np.ndarray:
    """Bloch matrix h_x sigma_x + (h_z + i gamma/2) sigma_z at momentum k.

    h_x = v + r cos(k), h_z = r sin(k); a hopping phase phi enters only
    through k + phi. k may be an array: the result then has its shape,
    followed by (2, 2).
    """
    h_x = params.v + params.r * np.cos(k)
    h_z = params.r * np.sin(k)
    b = h_z + 0.5j * params.gamma
    return np.stack([b, h_x, h_x, -b], axis=-1).reshape(np.shape(h_x) + (2, 2))


def _per_cell_values(params: LatticeParams, disorder: DisorderConfig | None):
    """Per-cell (r_n, v_n, gamma_n, onsite_n), each of shape (N,), (S, N)
    for a stack of S seeds, and (D, N) or (D, S, N) for a grid of D
    strengths, whose row d is the product strength[d] * draws, as one
    strength gives it."""
    n = params.n_cells
    if disorder is not None and disorder.draws.shape[-1] != n:
        raise ValueError(f"disorder draws length {disorder.draws.shape[-1]} != n_cells {n}")
    shape = (n,) if disorder is None else np.shape(disorder.strength) + disorder.draws.shape
    rn = np.full(shape, params.r)
    vn = np.full(shape, params.v)
    gn = np.full(shape, params.gamma)
    onsite = np.zeros(shape)
    if disorder is not None:
        strength = np.reshape(disorder.strength, np.shape(disorder.strength)
                              + (1,) * disorder.draws.ndim)
        bump = strength * disorder.draws
        if disorder.target is DisorderTarget.HOPPING_R:
            rn = rn + bump
        elif disorder.target is DisorderTarget.HOPPING_V:
            vn = vn + bump
        elif disorder.target is DisorderTarget.GAIN_LOSS:
            gn = gn + bump
        elif disorder.target is DisorderTarget.ON_SITE:
            onsite = bump
    return rn, vn, gn, onsite


def reduced_chain(params: LatticeParams, disorder: DisorderConfig | None = None):
    """Hops (a, b, r) of the nearest-neighbour chain the open chain reduces to.

    Rotating every cell by u = [[1, 1], [i, -i]] / sqrt(2) turns
    build_real_space(params, disorder) into i A, with A a real 2N-site
    path: in cell n, hop -a_n from the second site to the first and +b_n
    back, where a_n = v_n - gamma_n/2 and b_n = v_n + gamma_n/2; bond n
    hops +r_n from the first site of cell n to the second of cell n+1 and
    -r_n back. A is bipartite, so the E^2 are the eigenvalues of -X Y with
    X = -diag(a) - superdiag(r) and Y = diag(b) + subdiag(r), and
    det H = +-prod(a_n b_n) (Hatano & Nelson 1996; Yao & Wang 2018).
    Returns None for a periodic chain or on-site disorder, which do not
    reduce; on-site disorder of strength 0 leaves the clean chain, whose
    hops it returns (its H is the clean one bit for bit), and a grid of
    on-site strengths reduces only where every one is 0. r has N - 1
    entries; a grid of strengths and a stack of draws put their axes
    first, each row bit for bit what its own strength and seed give.
    """
    if params.boundary is not Boundary.OPEN or (
            disorder is not None and disorder.target is DisorderTarget.ON_SITE
            and np.any(disorder.strength != 0)):
        return None
    rn, vn, gn, _ = _per_cell_values(params, disorder)
    return vn - 0.5 * gn, vn + 0.5 * gn, rn[..., :-1]


def build_real_space(params: LatticeParams,
                     disorder: DisorderConfig | None = None) -> np.ndarray:
    """Dense 2N x 2N real-space Hamiltonian; a stack of S draws gives S of them.

    Bond n couples cells n and n+1 and carries the hopping value r_n
    (one value per unit cell, applied to both hopping lines of the
    bond). Only periodic chains and nonzero on-site disorder need this matrix
    for their spectra; every other chain reduces (reduced_chain).
    """
    n = params.n_cells
    rn, vn, gn, onsite = _per_cell_values(params, disorder)
    lead = rn.shape[:-1]
    dim = 2 * n
    # Cell c adds to its (alpha, alpha), (beta, beta), (alpha, beta) and
    # (beta, alpha) entries. Bond c links cell c, alpha index ac, to cell
    # c + 1, alpha index ac + 2 mod 2N; it adds four same-sublattice hops,
    # then four cross hops.
    a = 2 * np.arange(n)[:, None]       # alpha index of each cell; beta is a + 1
    ac = a[:n - 1] if params.boundary is Boundary.OPEN else a
    r_bond = rn[..., :len(ac), None]
    cell_vals = np.empty(lead + (n, 4), dtype=complex)
    cell_vals[..., 0] = 0.5j * gn + onsite
    cell_vals[..., 1] = -0.5j * gn + onsite
    cell_vals[..., 2:] = vn[..., None]
    bond_vals = r_bond * np.array([0.5j, -0.5j, -0.5j, 0.5j, 0.5, 0.5, 0.5, 0.5])
    # np.add.at sums cell by cell, then bond by bond, entry by entry, so the
    # overlapping entries of periodic N <= 2 chains add up in that order,
    # and a -0.0 value lands as 0 + -0.0 = +0.0.
    rows = np.concatenate([(a + [0, 1, 0, 1]).ravel(),
                           ((ac + [2, 0, 3, 1, 3, 0, 2, 1]) % dim).ravel()])
    cols = np.concatenate([(a + [0, 1, 1, 0]).ravel(),
                           ((ac + [0, 2, 1, 3, 0, 3, 1, 2]) % dim).ravel()])
    H = np.zeros(lead + (dim, dim), dtype=complex)
    vals = np.concatenate([cell_vals.reshape(lead + (4 * n,)),
                           bond_vals.reshape(lead + (8 * len(ac),))], axis=-1)
    np.add.at(H, (..., rows, cols), vals)
    return H


def chiral_residual(H: np.ndarray) -> float:
    """Max-entry norm of Gamma H Gamma + H; zero iff H is chiral.

    Gamma is a direct sum of sigma_y, so each 2 x 2 cell block [[p, q],
    [s, t]] of H adds sigma_y B sigma_y = [[t, -s], [-q, p]] to itself:
    the residual's entries are p + t and +-(q - s), with no product of
    2N x 2N matrices. Anything but a non-empty square even-dimensional
    matrix raises ValueError.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] % 2 or not H.size:
        raise ValueError(f"expected a square even-dimensional matrix, got {H.shape}")
    n = H.shape[0] // 2
    b = H.reshape(n, 2, n, 2)       # [m, i, n, j]: sublattice i of cell m, j of cell n
    return float(np.maximum(np.abs(b[:, 0, :, 0] + b[:, 1, :, 1]).max(),
                            np.abs(b[:, 0, :, 1] - b[:, 1, :, 0]).max()))
