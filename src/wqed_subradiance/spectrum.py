"""Complex excitation spectra and decay-rate analysis of sector Hamiltonians.

Eigenproblem convention: H|psi> = k*eps|psi>, so ``epsilon`` is the energy
per excitation and ``gamma = -Im(eps)`` the per-excitation decay rate.  The
total decay rate of a k-excitation eigenstate is k*gamma.  Energies and
rates are in units of gamma_1d (see ``lattice``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .lattice import (
    ArrayConfig,
    SectorBasis,
    SectorHamiltonian,
    _number,
    build_hamiltonian,
    complement_masks,
    complement_permutation,
    enumerate_sector,
    mirror_permutation,
    rank_masks,
)

RESIDUAL_TOL = 1e-9
GAMMA_FLOOR = -1e-12
PIVOT_ATOL = 1e-8
RESIDUAL_PANEL = 64


@dataclass(frozen=True)
class EigenState:
    """One eigenpair of a sector Hamiltonian, together with its sector.

    ``amplitudes`` is the unit-norm right eigenvector over ``basis``,
    phase-fixed so its :func:`gauge_pivot` entry is real positive.  The
    number of amplitudes must equal ``basis.dim``; consumers read N and k
    from ``basis``, so a state cannot be paired with another sector.
    """

    epsilon: complex
    gamma: float
    amplitudes: np.ndarray
    basis: SectorBasis

    def __post_init__(self):
        if len(self.amplitudes) != self.basis.dim:
            raise DomainError(
                f"{len(self.amplitudes)} amplitudes for a sector of dimension {self.basis.dim}"
            )

    @property
    def k(self) -> int:
        return self.basis.n_excitations


def _unit_amplitudes(state: EigenState) -> np.ndarray:
    """``state.amplitudes``, the one check that a state to analyse has unit norm."""
    norm = np.linalg.norm(state.amplitudes)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"state amplitudes must be unit norm, got {norm}")
    return state.amplitudes


def _check_sector(n_atoms: int, k) -> int:
    """k as an integer in 1..N, the one check of every sector function (k = 0 has no gamma)."""
    return _number(k, int, "k", 1, n_atoms)


def gauge_pivot(vectors: np.ndarray) -> np.ndarray:
    """Entry along axis 0 that the phase gauge makes real positive.

    It is the first entry within ``PIVOT_ATOL`` of the largest magnitude of
    the unit vector (or matrix column), so roundoff cannot choose between
    tied (e.g. mirror) entries.
    """
    mags = np.abs(vectors)
    return np.argmax(mags >= mags.max(axis=0) - PIVOT_ATOL, axis=0)


def _fingerprint(h: SectorHamiltonian) -> str:
    """Hash of a sector matrix, from its nonzero entries.

    The entries are hashed in row-major order, so a matrix has one
    fingerprint whichever way its entries were listed.
    """
    import hashlib

    row, col, value = h.row, h.col, h.value
    order = np.lexsort((col, row))
    digest = hashlib.sha256()
    for part in (row.astype(np.int64), col.astype(np.int64), value.astype(complex)):
        digest.update(np.ascontiguousarray(part[order]).tobytes())
    return digest.hexdigest()[:16]


def _symmetry_group(basis: SectorBasis):
    """Basis permutations that commute with every sector Hamiltonian.

    The mirror map, and at N = 2k also the complement map, generate an
    abelian group of involutions.  Returns (elements, characters): the
    elements as index arrays, identity first, and one row of +-1 character
    values per irreducible representation, the trivial one first.
    """
    elements = [np.arange(basis.dim)]
    generators = [mirror_permutation(basis)]
    if 2 * basis.n_excitations == basis.n_atoms:
        generators.append(complement_permutation(basis))
    for generator in generators:
        elements += [generator[g] for g in elements]
    # element b and character s of (Z2)^m: (-1)^(number of generators in both)
    size = len(elements)
    characters = [[(-1) ** bin(s & b).count("1") for b in range(size)] for s in range(size)]
    return elements, characters


def _character_sum(h: SectorHamiltonian, elements, chi, rows) -> np.ndarray:
    """sum_g chi(g) H[rows, g rows] from the nonzero entries of H.

    Only the entries in ``rows`` are read: for each g, in group order,
    H[r_i, c] lands in column j with g r_j = c, i.e. r_j = g c (every g is
    an involution).  Each entry is added to, or subtracted from, the block
    in place.  Within one g no two entries share a position (H has one entry
    per (row, col), and g is a permutation), so every position sums its
    terms in group order: the arithmetic of gathering the blocks from the
    dense H, bit for bit, as no entry of H is a signed zero.
    """
    position = np.full(h.basis.dim, -1)
    position[rows] = np.arange(len(rows))
    mine = position[h.row] >= 0
    i, c, v = position[h.row[mine]], h.col[mine], h.value[mine]
    total = np.zeros((len(rows), len(rows)), dtype=complex)
    flat = total.reshape(-1)
    for g, sign in zip(elements, chi):
        j = position[g[c]]
        hit = j >= 0
        at = i[hit] * len(rows) + j[hit]  # flat index: far faster than (i, j)
        if sign > 0:
            flat[at] += v[hit]
        else:
            flat[at] -= v[hit]
    return total


def _symmetry_blocks(h: SectorHamiltonian):
    """One block of a symmetric sector matrix per character of ``_symmetry_group``.

    The matrix must commute with the group.  Each orbit is represented by
    its lowest index r, with stabilizer size |S|.  A character that is
    trivial on the stabilizer keeps the orbit, with the unit basis vector
    sum_g chi(g)|g r> / sqrt(|G||S|), so
    block[i, j] = sum_g chi(g) H[r_i, g r_j] / sqrt(|S_i||S_j|)
    (``_character_sum``, weighed by rows then columns), and the block stays
    complex symmetric.  No dim x dim array is formed, and a block is built
    only when the next one is asked for, after this generator has dropped
    the last.  Yields (block, lifts): a block eigenvector y lifts to
    v[index] = coef*y for every (index, coef) in ``lifts``, with
    coef = chi(g)*sqrt(|S|/|G|) on the images g r.
    """
    elements, characters = _symmetry_group(h.basis)
    images = np.array(elements)
    reps = np.flatnonzero((images >= images[0]).all(axis=0))
    fixed = images[:, reps] == reps
    for chi in characters:
        keep = ~fixed[np.array(chi) < 0].any(axis=0)
        rows, stabilizer = reps[keep], fixed[:, keep].sum(axis=0)
        if not len(rows):
            continue
        block = _character_sum(h, elements, chi, rows)
        weight = np.sqrt(1.0 / stabilizer)
        block *= weight[:, None]
        block *= weight
        scale = np.sqrt(stabilizer / len(elements))
        yield block, [(g[rows], sign * scale) for g, sign in zip(elements, chi)]
        del block


def _residuals(block: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||block v - lambda v|| of each eigenpair, ``RESIDUAL_PANEL`` columns at a time."""
    residual = np.empty(len(values))
    for start in range(0, len(values), RESIDUAL_PANEL):
        panel = slice(start, start + RESIDUAL_PANEL)
        product = block @ vectors[:, panel]
        product -= vectors[:, panel] * values[panel]
        residual[panel] = np.linalg.norm(product, axis=0)
    return residual


def _checked_eig(h: SectorHamiltonian, block: np.ndarray):
    """Eigenpairs (eps, gammas, vectors) of one symmetry block of H, checked.

    ``vectors`` holds the unit-norm block eigenvectors as columns.  Every
    eigenpair residual ||H v - lambda v|| is checked against
    ``RESIDUAL_TOL`` * max(1, |lambda|), and every gamma against
    ``GAMMA_FLOOR``; failure raises NumericalError carrying the offending
    number and the matrix's ``_fingerprint``.
    """
    try:
        values, vectors = np.linalg.eig(block)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalError(f"eigensolver failed on sector matrix {_fingerprint(h)}") from exc
    vectors /= np.linalg.norm(vectors, axis=0)
    # the lift is an isometry onto an invariant subspace: block residual = full residual
    residual = _residuals(block, values, vectors)
    worst = np.argmax(residual / np.maximum(1.0, np.abs(values)))
    if residual[worst] > RESIDUAL_TOL * max(1.0, abs(values[worst])):
        raise NumericalError(
            f"eigenpair residual {residual[worst]:.2e} exceeds {RESIDUAL_TOL} "
            f"for sector matrix {_fingerprint(h)}"
        )
    eps = values / h.basis.n_excitations
    gammas = -eps.imag
    if gammas.min() < GAMMA_FLOOR:
        raise NumericalError(
            f"negative decay rate {gammas.min():.3e} in sector matrix {_fingerprint(h)}"
        )
    return eps, gammas, vectors


def _solved_blocks(h: SectorHamiltonian, keep) -> list:
    """keep(h.basis, eps, gammas, vectors, lifts) of each symmetry block of H, in order.

    Each block is built, solved by ``_checked_eig`` and passed to ``keep``
    before the next is built, so only what ``keep`` returns outlives its
    block: one block's arrays are alive at a time.  ``lifts`` follow the
    ``_symmetry_blocks`` rule.
    """
    kept = []
    for block, lifts in _symmetry_blocks(h):
        kept.append(keep(h.basis, *_checked_eig(h, block), lifts))
        del block  # not alive while the next block is built
    return kept


def _own_blocks(config: ArrayConfig, basis: SectorBasis, keep) -> list:
    """``_solved_blocks`` of the sector of ``basis``, from its own H."""
    return _solved_blocks(build_hamiltonian(config, basis), keep)


def _sector_blocks(config: ArrayConfig, k: int, keep, solve=_own_blocks) -> list:
    """keep(basis, eps, gammas, vectors, lifts) of each symmetry block of sector k, in order.

    The one route from a sector to its eigenpairs, with lifts into its
    ``basis``; k passes ``_check_sector`` before the basis is enumerated.
    A sector with 2k <= N is ``solve(config, basis, keep)``, by default
    ``_own_blocks``.  Sector k = N is the one full subset, eps = -i, with no
    eigensolve.  Any other sector with 2k > N is solved as its complement
    N - k: S -> N\\S maps sector k onto N - k with every hop unchanged, so
    H_k = P H_{N-k} P^T - i*(2k - N).  Its states are the complement's,
    moved to the complement subsets with no sign, and the total rate of
    each grows by 2k - N.  That map of the rates is monotone, also in
    floating point, so it carries each block's smallest rate over as well.
    """
    n = config.n_atoms
    k = _check_sector(n, k)
    basis = enumerate_sector(n, k)
    if k == n:
        lift = [(np.zeros(1, dtype=int), np.ones(1))]
        return [keep(basis, np.array([-1j]), np.array([1.0]), np.ones((1, 1)), lift)]
    if 2 * k <= n:
        return solve(config, basis, keep)
    dual = enumerate_sector(n, n - k)
    to_basis = rank_masks(basis, complement_masks(dual))

    def moved(_, eps, gammas, vectors, lifts):
        gammas = ((n - k) * gammas + (2 * k - n)) / k
        eps = (n - k) * eps.real / k - 1j * gammas
        return keep(basis, eps, gammas, vectors, [(to_basis[i], coef) for i, coef in lifts])

    return solve(config, dual, moved)


def _lifted(basis: SectorBasis, eps, gammas, vectors, lifts) -> list[EigenState]:
    """The phase-fixed states of one block's eigenpairs, lifted into ``basis``."""
    lifted = np.zeros((basis.dim, len(eps)), dtype=complex)
    for index, coef in lifts:
        lifted[index] = coef[:, None] * vectors
    states = []
    for epsilon, gamma, vec in zip(eps, gammas, lifted.T):
        vec = vec * np.exp(-1j * np.angle(vec[gauge_pivot(vec)]))
        states.append(EigenState(epsilon=epsilon, gamma=gamma, amplitudes=vec, basis=basis))
    return states


def _lowest_lifted(basis: SectorBasis, eps, gammas, vectors, lifts) -> list[EigenState]:
    """``_lifted`` of only the block's pairs at its smallest gamma."""
    hit = gammas == gammas.min()
    return _lifted(basis, eps[hit], gammas[hit], vectors[:, hit], lifts)


def _sorted_states(per_block) -> list[EigenState]:
    """The states of every block, by ascending gamma, then Re(eps), then peak index."""
    states = [state for block in per_block for state in block]
    states.sort(key=lambda s: (s.gamma, s.epsilon.real, int(np.argmax(np.abs(s.amplitudes)))))
    return states


def diagonalize_sector(h: SectorHamiltonian) -> list[EigenState]:
    """All eigenpairs, sorted by ascending gamma then ascending Re(eps).

    The mirror map j -> N-1-j commutes with H, and at half filling (N = 2k)
    so does the complement map S -> N\\S.  Each symmetry block (see
    ``_symmetry_blocks``) is built from the entries of ``h`` and
    diagonalized on its own: two blocks, mirror even and odd, or four at
    half filling, one per joint mirror and complement parity.  Every state
    is an eigenvector of each of these maps.  ``_check_sector`` runs before
    any eigensolve, and the checks of ``_checked_eig`` on every eigenpair.
    """
    _check_sector(h.basis.n_atoms, h.basis.n_excitations)
    return _sorted_states(_solved_blocks(h, _lifted))


def diagonalize(config: ArrayConfig, k: int) -> list[EigenState]:
    """Diagonalize the k-excitation sector of ``config``.

    The states and order of ``diagonalize_sector``, with each sector solved
    on the route of ``_sector_blocks``.
    """
    return _sorted_states(_sector_blocks(config, k, _lifted))


def most_subradiant_state(config: ArrayConfig, k: int) -> EigenState:
    """The first state of :func:`diagonalize`, bitwise.

    The same eigensolves and checks, but only the pairs at the smallest
    gamma of each symmetry block are lifted, gauged and sorted; gamma leads
    the sort key, so the first state is among them.
    """
    return _sorted_states(_sector_blocks(config, k, _lowest_lifted))[0]


def sector_decay_rates(config: ArrayConfig, k: int) -> np.ndarray:
    """Per-excitation decay rates of the sector, ascending."""
    return np.array([s.gamma for s in diagonalize(config, k)])


def _smallest(basis, eps, gammas, vectors, lifts):
    """The ``keep`` that reads only a block's smallest gamma."""
    return gammas.min()


@functools.lru_cache(maxsize=16)
def _min_gamma(config: ArrayConfig, k: int) -> float:
    """Checked smallest gamma of sector k <= N/2, memoized per process.

    A scan that asks for sectors k and N - k at one (N, d) solves the
    sector once; the cached value is a float, so no caller can change it.
    """
    return min(_own_blocks(config, enumerate_sector(config.n_atoms, k), _smallest))


def _memoized_blocks(config: ArrayConfig, basis: SectorBasis, keep) -> list:
    """The ``solve`` of ``min_decay_rate``: one block of the sector's ``_min_gamma``.

    The memo keeps no eigenvectors and no real part of eps, and
    ``_smallest`` reads neither.
    """
    gamma = _min_gamma(config, basis.n_excitations)
    return [keep(basis, np.array([-1j * gamma]), np.array([gamma]), None, [])]


def min_decay_rate(config: ArrayConfig, k: int) -> float:
    """Smallest per-excitation decay rate in the k-excitation sector.

    The same eigensolves, checks and route as :func:`diagonalize`, without
    lifting, gauging and sorting the states; the result is bitwise the
    smallest gamma of ``diagonalize``.
    """
    return max(0.0, min(_sector_blocks(config, k, _smallest, _memoized_blocks)))
