"""Atom-array configuration, excitation-sector bases, and sector Hamiltonians.

An array of N two-level atoms couples to a single waveguide mode; after the
photons are integrated out (Markov + rotating wave) the dynamics within the
k-excitation sector is generated by a dense complex-symmetric non-Hermitian
matrix.  Energies are measured from the atomic resonance and rates in units
of the single-atom waveguide decay rate gamma_1d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and coupling of the atom array.

    ``phase`` is the optical phase accumulated between neighbouring atoms,
    2*pi*d/lambda0; it is stored reduced modulo 2*pi (site distances are
    integer multiples, so the physics is unchanged).  Construct from the
    period ratio d/lambda0 with :meth:`from_period`.
    """

    n_atoms: int
    phase: float
    gamma_1d: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 1:
            raise DomainError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")
        if not self.gamma_1d > 0:
            raise DomainError(f"gamma_1d must be positive, got {self.gamma_1d!r}")
        object.__setattr__(self, "n_atoms", int(self.n_atoms))
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)
        object.__setattr__(self, "gamma_1d", float(self.gamma_1d))

    @classmethod
    def from_period(cls, n_atoms: int, d_over_lambda: float, gamma_1d: float = 1.0) -> "ArrayConfig":
        if d_over_lambda < 0:
            raise DomainError(f"d/lambda0 must be non-negative, got {d_over_lambda}")
        return cls(n_atoms=n_atoms, phase=TWO_PI * d_over_lambda, gamma_1d=gamma_1d)

    @property
    def d_over_lambda(self) -> float:
        return self.phase / TWO_PI


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the k-excitation sector of an N-atom array.

    States are the k-subsets of sites in lexicographic order.  Sites are
    0-based internally; use :attr:`states_1based` at I/O boundaries.
    """

    n_atoms: int
    n_excitations: int
    states: tuple[tuple[int, ...], ...]
    _index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({s: i for i, s in enumerate(self.states)})

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def states_1based(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(s + 1 for s in state) for state in self.states)

    def index_of(self, subset: tuple[int, ...]) -> int:
        return self._index[subset]

    def subset_at(self, i: int) -> tuple[int, ...]:
        return self.states[i]


def enumerate_sector(n_atoms: int, k: int) -> SectorBasis:
    """All C(N, k) site subsets with k excitations, lexicographically sorted."""
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must satisfy 0 <= k <= {n_atoms}, got {k}")
    states = tuple(itertools.combinations(range(n_atoms), k))
    return SectorBasis(n_atoms=n_atoms, n_excitations=k, states=states)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Dense complex-symmetric sector matrix together with its basis."""

    basis: SectorBasis
    matrix: np.ndarray

    def to_json_dict(self) -> dict:
        """Debug dump; matrix as row-major [re, im] pairs."""
        flat = self.matrix.ravel()
        return {
            "n_atoms": self.basis.n_atoms,
            "n_excitations": self.basis.n_excitations,
            "dim": self.basis.dim,
            "states": [list(s) for s in self.basis.states_1based],
            "matrix": [[float(z.real), float(z.imag)] for z in flat],
        }


def sector_hops(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every single-excitation hop of the sector as flat index arrays.

    Returns ``(src, dst, frm, to)``: moving the excitation on site ``frm`` of
    state ``src`` to the empty site ``to`` gives state ``dst``.  Hops run
    over source states, then occupied sites, then empty sites, all ascending.
    States are matched through their site bitmasks, so N is limited to 62.
    """
    n, k, dim = basis.n_atoms, basis.n_excitations, basis.dim
    if n > 62:
        raise DomainError(f"hop table supports N <= 62, got N={n}")
    occupied = np.array(basis.states, dtype=np.int64).reshape(dim, k)
    empty_mask = np.ones((dim, n), dtype=bool)
    empty_mask[np.arange(dim)[:, None], occupied] = False
    empty = np.nonzero(empty_mask)[1].reshape(dim, n - k)
    masks = (np.int64(1) << occupied).sum(axis=1)
    shape = (dim, k, n - k)
    src = np.broadcast_to(np.arange(dim)[:, None, None], shape)
    frm = np.broadcast_to(occupied[:, :, None], shape)
    to = np.broadcast_to(empty[:, None, :], shape)
    moved = masks[:, None, None] ^ (np.int64(1) << frm) ^ (np.int64(1) << to)
    order = np.argsort(masks)
    dst = order[np.searchsorted(masks, moved, sorter=order)]
    return src.ravel(), dst.ravel(), frm.ravel(), to.ravel()


def build_hamiltonian(config: ArrayConfig, basis: SectorBasis) -> SectorHamiltonian:
    """Assemble the effective sector Hamiltonian.

    Matrix elements are -i*gamma_1d*exp(i*phase*|m-n|) for every transfer of
    one excitation from site m to site n; transfers onto an already excited
    site vanish (two-level atoms), so off-diagonal elements connect subsets
    differing in exactly one site and the diagonal is -i*gamma_1d*k.
    """
    if basis.n_atoms != config.n_atoms:
        raise DomainError(
            f"basis is for N={basis.n_atoms} but config has N={config.n_atoms}"
        )
    n = config.n_atoms
    gamma = config.gamma_1d
    # hop[m, n] = -i*gamma*exp(i*phi*|m-n|)
    sites = np.arange(n)
    hop = -1j * gamma * np.exp(1j * config.phase * np.abs(sites[:, None] - sites[None, :]))
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.fill_diagonal(h, -1j * gamma * basis.n_excitations)
    # two subsets differing in one site are linked by exactly one hop
    src, dst, frm, to = sector_hops(basis)
    h[dst, src] = hop[to, frm]
    return SectorHamiltonian(basis=basis, matrix=h)
