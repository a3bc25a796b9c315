"""Atom-array configuration, excitation-sector bases, and sector Hamiltonians.

An array of N two-level atoms couples to a single waveguide mode; after the
photons are integrated out (Markov + rotating wave) the dynamics within the
k-excitation sector is generated by a sparse complex-symmetric non-Hermitian
matrix.  Energies are measured from the atomic resonance, and energies and
rates are in units of the single-atom waveguide decay rate gamma_1d, the
model's unit: H = -i sum_mn exp(i*phase*|m-n|) sigma^dag_m sigma_n.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def _number(value, kind, name, low=None, high=None):
    """``value`` as ``kind`` (int or float): the one check of every number the library takes.

    An int is a ``numbers.Integral``, a float a finite ``numbers.Real``, neither a
    bool (numpy's bool is no ``numbers.Real``), and ``low <= value <= high`` holds.
    """
    wanted = numbers.Integral if kind is int else numbers.Real
    ok = isinstance(value, wanted) and not isinstance(value, bool)
    # an Integral is finite, and math.isfinite overflows on a huge one
    if not ok or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite real number"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    value = kind(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = " <= ".join(str(b) for b in (low, name, high) if b is not None)
        raise DomainError(f"{name} must satisfy {bounds}, got {value}")
    return value


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the atom array.

    ``phase`` is the optical phase accumulated between neighbouring atoms,
    2*pi*d/lambda0; it is stored reduced modulo 2*pi (site distances are
    integer multiples, so the physics is unchanged).  Construct from the
    period ratio d/lambda0 with :meth:`from_period`.
    """

    n_atoms: int
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "n_atoms", _number(self.n_atoms, int, "n_atoms", 1))
        object.__setattr__(self, "phase", _number(self.phase, float, "phase") % TWO_PI)

    @classmethod
    def from_period(cls, n_atoms: int, d_over_lambda: float) -> "ArrayConfig":
        return cls(n_atoms=n_atoms, phase=TWO_PI * _number(d_over_lambda, float, "d_over_lambda", 0))

    @property
    def d_over_lambda(self) -> float:
        return self.phase / TWO_PI


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the k-excitation sector of an N-atom array.

    States are the k-subsets of 0-based sites in lexicographic order.
    """

    n_atoms: int
    n_excitations: int
    states: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.states)


def enumerate_sector(n_atoms: int, k: int) -> SectorBasis:
    """All C(N, k) site subsets with k excitations, lexicographically sorted."""
    n_atoms = _number(n_atoms, int, "N", 0)
    k = _number(k, int, "k", 0, n_atoms)
    states = tuple(itertools.combinations(range(n_atoms), k))
    return SectorBasis(n_atoms=n_atoms, n_excitations=k, states=states)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Nonzero entries ``(row, col, value)`` of a sector matrix, with its basis.

    Each position is listed once; the order of the entries carries no
    meaning.
    """

    basis: SectorBasis
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The entries scattered into a dense dim x dim array."""
        h = np.zeros((self.basis.dim, self.basis.dim), dtype=complex)
        h[self.row, self.col] = self.value
        return h


def occupied_sites(basis: SectorBasis) -> np.ndarray:
    """(dim, k) int64 array of the occupied sites of every state.

    Callers key states by the int64 bitmask of these sites (bit j for site
    j), which limits N to 62.
    """
    if basis.n_atoms > 62:
        raise DomainError(f"sector bitmasks support N <= 62, got N={basis.n_atoms}")
    return np.array(basis.states, dtype=np.int64).reshape(basis.dim, basis.n_excitations)


def site_masks(occupied: np.ndarray) -> np.ndarray:
    """int64 bitmask of each row of an array of occupied sites."""
    return (np.int64(1) << occupied).sum(axis=1)


def rank_masks(basis: SectorBasis, masks: np.ndarray) -> np.ndarray:
    """Basis index of the state with each site bitmask; every mask must be a state."""
    own = site_masks(occupied_sites(basis))
    order = np.argsort(own)
    return order[np.searchsorted(own, masks, sorter=order)]


def mirror_permutation(basis: SectorBasis) -> np.ndarray:
    """Index of the mirror image of every state under site j -> N-1-j.

    The mirror map commutes with every sector Hamiltonian, since the
    coupling depends on site distances only.
    """
    return rank_masks(basis, site_masks(basis.n_atoms - 1 - occupied_sites(basis)))


def complement_masks(basis: SectorBasis) -> np.ndarray:
    """Site bitmask of the complement N\\S of every state S."""
    return ((np.int64(1) << basis.n_atoms) - 1) ^ site_masks(occupied_sites(basis))


def complement_permutation(basis: SectorBasis) -> np.ndarray:
    """Index of the complement N\\S of every state S of a half-filled sector.

    At N = 2k the map stays in the sector and commutes with the sector
    Hamiltonian: it swaps the sites of each one-excitation hop, and the
    coupling is symmetric in the two sites.
    """
    if 2 * basis.n_excitations != basis.n_atoms:
        raise DomainError(
            f"the complement map stays in the sector only at N = 2k, "
            f"got N={basis.n_atoms}, k={basis.n_excitations}"
        )
    return rank_masks(basis, complement_masks(basis))


def sector_table(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Every sector state as one excitation added to a (k-1)-subset.

    Returns int arrays ``(state, site)`` of shape (C(N, k-1), N-k+1): each
    row lists the states R + {site} over the empty sites of one (k-1)-subset
    R, ascending; rows are ordered by the site bitmask of R, which limits N
    to 62.  Two states differ in one site exactly when they share a row.
    """
    n, k = basis.n_atoms, basis.n_excitations
    occupied = occupied_sites(basis)
    bits = np.int64(1) << occupied
    rest = bits.sum(axis=1)[:, None] - bits
    order = np.lexsort((occupied.ravel(), rest.ravel()))
    shape = (-1, n - k + 1)
    return (order // k).reshape(shape), occupied.ravel()[order].reshape(shape)


def reduced_unfolding(amplitudes: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """N x C(N, k-1) matrix B[m, R] = amplitude of R + {m}, zero for m in R."""
    state, site = sector_table(basis)
    b = np.zeros((basis.n_atoms, len(state)), dtype=complex)
    b[site, np.arange(len(state))[:, None]] = amplitudes[state]
    return b


def build_hamiltonian(config: ArrayConfig, basis: SectorBasis) -> SectorHamiltonian:
    """Every nonzero entry of the effective sector Hamiltonian, from the hop table.

    Matrix elements are -i*exp(i*phase*|m-n|) for every transfer of
    one excitation from site m to site n; transfers onto an already excited
    site vanish (two-level atoms), so off-diagonal elements connect subsets
    differing in exactly one site and the diagonal is -i*k.
    Each off-diagonal pair is listed once (the two states share one row of
    ``sector_table``), then the diagonal: k(N-k)+1 entries per row.
    """
    if basis.n_atoms != config.n_atoms:
        raise DomainError(
            f"basis is for N={basis.n_atoms} but config has N={config.n_atoms}"
        )
    n = config.n_atoms
    # hop[m, n] = -i*exp(i*phi*|m-n|)
    sites = np.arange(n)
    hop = -1j * np.exp(1j * config.phase * np.abs(sites[:, None] - sites[None, :]))
    state, site = sector_table(basis)
    a, b = np.nonzero(~np.eye(n - basis.n_excitations + 1, dtype=bool))
    diagonal = np.arange(basis.dim)
    row = np.concatenate([state[:, a].ravel(), diagonal])
    col = np.concatenate([state[:, b].ravel(), diagonal])
    value = np.concatenate([
        hop[site[:, a], site[:, b]].ravel(),
        np.full(basis.dim, -1j * basis.n_excitations),
    ])
    return SectorHamiltonian(basis=basis, row=row, col=col, value=value)
