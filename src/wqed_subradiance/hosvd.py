"""Higher-order singular value decomposition of sector eigenstates.

A k-excitation amplitude vector over site subsets extends to a fully
symmetric rank-k tensor that vanishes whenever two indices coincide.  Its
multilinear SVD factorizes it exactly into one unitary N x N factor (shared
by all modes, by symmetry) and an all-orthogonal core tensor; the Frobenius
norms of the core's mode slices generalize singular values and define an
entanglement entropy that counts the effective single-particle orbitals.
Factor, norms and entropy come from the N x C(N, k-1) reduced unfolding;
only :meth:`SymmetricWavefunction.to_dense` builds the dense N^k tensor.
The overlaps of the factor with fermionized and dimerized orbitals
(:func:`ansatz_overlap`) pair orbitals with factor columns by an exact
subset dynamic program in numpy, so the module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .lattice import (
    SectorBasis,
    _number,
    complement_masks,
    enumerate_sector,
    occupied_sites,
    rank_masks,
    reduced_unfolding,
)
from .spectrum import EigenState, _unit_amplitudes, gauge_pivot

HOSVD_TOL = 1e-10
MAX_DENSE_K = 5
MAX_DENSE_N = 12
MAX_ANSATZ_K = 16  # the column pairing of ansatz_overlap holds 2^k totals per family row
DEGENERACY_RTOL = 0.05

ANSATZ_FERMIONIC = "fermionic"
ANSATZ_DIMERIZED = "dimerized"


@dataclass(frozen=True)
class SymmetricWavefunction:
    """Subset amplitudes of a k-excitation state plus symmetrization rules.

    ``amplitudes`` lives on ``basis``, which fixes N and k.  The dense
    tensor entry for an index permutation of the subset {n1 < ... < nk} is
    ``amplitude / sqrt(k!)``, which makes the dense Frobenius norm equal the
    amplitude 2-norm.
    """

    amplitudes: np.ndarray
    basis: SectorBasis

    @property
    def n_atoms(self) -> int:
        return self.basis.n_atoms

    @property
    def k(self) -> int:
        return self.basis.n_excitations

    def to_dense(self) -> np.ndarray:
        if self.k > MAX_DENSE_K or self.n_atoms > MAX_DENSE_N:
            raise DomainError(
                f"dense tensor limited to k <= {MAX_DENSE_K}, N <= {MAX_DENSE_N}; "
                f"got k={self.k}, N={self.n_atoms}"
            )
        tensor = np.zeros((self.n_atoms,) * self.k, dtype=complex)
        scale = 1.0 / math.sqrt(math.factorial(self.k))
        import itertools

        for amp, subset in zip(self.amplitudes, self.basis.states):
            value = amp * scale
            for perm in itertools.permutations(subset):
                tensor[perm] = value
        return tensor


def to_symmetric_tensor(state: EigenState) -> SymmetricWavefunction:
    """Wrap a unit-norm eigenstate as a symmetric tensor over its own sector."""
    return SymmetricWavefunction(np.array(_unit_amplitudes(state), dtype=complex), state.basis)


@dataclass(frozen=True)
class HosvdResult:
    """Unitary factor, mode singular values, entropy and excitation number."""

    factor: np.ndarray
    singular_values: np.ndarray
    entropy: float
    k: int

    @property
    def n_atoms(self) -> int:
        return self.factor.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "lambda": [float(v) for v in self.singular_values],
            "entropy": float(self.entropy),
            "U": [[float(z.real), float(z.imag)] for z in self.factor.ravel()],
        }


def _entropy(weights: np.ndarray) -> float:
    positive = weights[weights > 0]
    return float(max(0.0, -(positive * np.log(positive)).sum()))


def _validate_hosvd(b: np.ndarray, u: np.ndarray, w: np.ndarray, lam: np.ndarray, norm: float):
    # w = U^dag b has the Gram matrix of the core's mode-1 slices
    g = w @ w.conj().T
    for what, measure, error in (
        ("factor is not unitary", "max |U^dag U - I|", np.abs(u.conj().T @ u - np.eye(len(u))).max()),
        ("core is not quasi-diagonal", "max |offdiag(W W^dag)|", np.abs(g - np.diag(np.diag(g))).max()),
        ("reconstruction is not exact", "||U W - B||", np.linalg.norm(u @ w - b)),
        ("weights do not sum to the norm", "|sum lambda^2 - norm^2|", abs((lam**2).sum() - norm**2)),
    ):
        if error > HOSVD_TOL:
            raise NumericalError(f"HOSVD {what} to {HOSVD_TOL:g}: {measure} = {error:.3g}")


def hosvd(psi: SymmetricWavefunction) -> HosvdResult:
    """Numerically exact multilinear SVD of a symmetric wavefunction.

    The mode-1 unfolding of the dense tensor (all unfoldings coincide by
    symmetry) has the Gram matrix B B^dag / k, with B the N x C(N, k-1)
    reduced unfolding.  The factor is its descending eigenbasis, and the
    mode weights are the row norms of U^dag B / sqrt(k), which equal the
    core's slice norms.  Each column's gauge pivot (see
    :func:`~wqed_subradiance.spectrum.gauge_pivot`) is real positive.  Within
    degenerate blocks the columns are defined up to rotation; overlap
    diagnostics re-gauge them, see :func:`ansatz_overlap`.
    """
    if psi.k < 1:
        raise DomainError("hosvd requires at least one excitation")
    b = reduced_unfolding(psi.amplitudes, psi.basis) / math.sqrt(psi.k)
    _, u = np.linalg.eigh(b @ b.conj().T)
    u = u[:, ::-1]
    u = u * np.exp(-1j * np.angle(u[gauge_pivot(u), np.arange(psi.n_atoms)]))
    w = u.conj().T @ b
    lam = np.linalg.norm(w, axis=1)
    order = np.argsort(-lam, kind="stable")
    u, w, lam = u[:, order], w[order], lam[order]
    _validate_hosvd(b, u, w, lam, np.linalg.norm(psi.amplitudes))
    return HosvdResult(factor=u, singular_values=lam, entropy=_entropy(lam**2), k=psi.k)


def fermionic_profiles(n_atoms: int) -> np.ndarray:
    """Standing-wave orbitals (-1)^n sin(pi*n*alpha/N), rows normalized."""
    n_atoms = _number(n_atoms, int, "n_atoms", 1)
    sites = np.arange(1, n_atoms + 1)
    rows = []
    for alpha in range(1, n_atoms + 1):
        v = (-1.0) ** sites * np.sin(np.pi * sites * alpha / n_atoms)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            rows.append(v / norm)
    return np.array(rows).reshape(len(rows), n_atoms)


def dimerized_profiles(n_atoms: int) -> np.ndarray:
    """Pair-antisymmetric orbitals with cos(2*pi*p*alpha/N) envelopes.

    Site pair p occupies sites (2p-1, 2p) with opposite signs; requires an
    even number of sites.
    """
    n_atoms = _number(n_atoms, int, "n_atoms", 1)
    if n_atoms % 2:
        raise DomainError("dimerized profiles require an even number of atoms")
    rows = []
    for alpha in range(0, n_atoms // 2 + 1):
        v = np.zeros(n_atoms)
        for pair in range(1, n_atoms // 2 + 1):
            value = np.cos(2.0 * np.pi * pair * alpha / n_atoms)
            v[2 * pair - 2] = value
            v[2 * pair - 1] = -value
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            rows.append(v / norm)
    return np.array(rows)


def _assignment(columns: np.ndarray, family: np.ndarray):
    """Each column's squared overlap |family* . column|^2 in the best pairing, and its row.

    The pairing makes min(rows, columns) pairs of distinct family rows and
    columns with the largest total squared overlap, as
    ``scipy.optimize.linear_sum_assignment`` does on the negated matrix.  It
    is exact: a dynamic program over the sets of columns already paired
    (2^k sets for k columns) takes the family rows one at a time, last row
    first, and ``best[mask]`` is the largest total the rows from the current
    one on reach when the columns in ``mask`` are taken.  Of equal totals
    the first is kept: the first row takes the lowest column through which
    the largest total is reached, then the next row, and so on, and a row
    stays unpaired only when every column reaches less.  A column left
    unpaired (fewer rows than columns) has overlap 0 and row -1.
    """
    overlap = np.abs(family.conj() @ columns) ** 2
    n_rows, n_cols = overlap.shape
    masks = np.arange(1 << n_cols)
    size = sum((masks >> c) & 1 for c in range(n_cols))
    best = np.where(size == min(n_rows, n_cols), 0.0, -np.inf)
    choice = np.empty((n_rows, len(masks)), dtype=np.int8)
    for r in range(n_rows - 1, -1, -1):
        total, pick = best, np.full(len(masks), n_cols, dtype=np.int8)  # r unpaired
        for c in range(n_cols - 1, -1, -1):
            bit = 1 << c
            reach = np.where(masks & bit, -np.inf, overlap[r, c] + best[masks | bit])
            lower = reach >= total  # ties go to the lower column
            total = np.where(lower, reach, total)
            pick[lower] = c
        best, choice[r] = total, pick
    row_of, mask = np.full(n_cols, -1), 0
    for r in range(n_rows):
        c = int(choice[r, mask])
        if c < n_cols:
            row_of[c], mask = r, mask | 1 << c
    paired = np.flatnonzero(row_of >= 0)
    values = np.zeros(n_cols)
    values[paired] = overlap[row_of[paired], paired]
    return values, row_of


def _degenerate_blocks(lam: np.ndarray) -> list[tuple[int, int]]:
    blocks, start = [], 0
    for i in range(1, len(lam)):
        if (lam[i - 1] - lam[i]) > DEGENERACY_RTOL * max(lam[i - 1], 1e-300):
            blocks.append((start, i))
            start = i
    blocks.append((start, len(lam)))
    return blocks


def _procrustes(columns: np.ndarray, family: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """Rotate columns (unitarily) to best align with their assigned family rows ``row_of``."""
    target = np.zeros((columns.shape[0], columns.shape[1]), dtype=complex)
    paired = np.flatnonzero(row_of >= 0)
    target[:, paired] = family[row_of[paired]].T
    m = columns.conj().T @ target
    w, _, vh = np.linalg.svd(m)
    return columns @ (w @ vh)


def ansatz_overlap(result: HosvdResult, ansatz: str) -> list[float]:
    """Squared overlaps of the k dominant factor columns with an analytic family.

    Columns inside a near-degenerate singular-value block (consecutive
    relative gaps below ``DEGENERACY_RTOL``) are only defined up to rotation;
    each such block is first rotated toward whichever analytic family
    matches it best in aggregate, independently of ``ansatz``, so both
    families are evaluated in one common gauge.  Family vectors are paired
    with columns by maximal-overlap assignment (``_assignment``), which
    limits k to ``MAX_ANSATZ_K``; below half filling a state of larger k
    would have C(N, k) >= C(34, 17), about 2.3e9, amplitudes.
    """
    n = result.n_atoms
    k = result.k
    if ansatz not in (ANSATZ_FERMIONIC, ANSATZ_DIMERIZED):
        raise DomainError(f"unknown ansatz {ansatz!r}; use 'fermionic' or 'dimerized'")
    if k > MAX_ANSATZ_K:
        raise DomainError(f"ansatz overlaps limited to k <= {MAX_ANSATZ_K}, got k={k}")
    families = {ANSATZ_FERMIONIC: fermionic_profiles(n)}
    if n % 2 == 0 or ansatz == ANSATZ_DIMERIZED:  # dimerized_profiles refuses an odd N
        families[ANSATZ_DIMERIZED] = dimerized_profiles(n)
    columns = result.factor[:, :k].copy()
    lam = result.singular_values[:k]
    for a, b in _degenerate_blocks(lam):
        if b - a < 2:
            continue
        block = columns[:, a:b]
        fits = {name: _assignment(block, fam) for name, fam in families.items()}
        best = max(sorted(fits), key=lambda name: fits[name][0].sum())
        columns[:, a:b] = _procrustes(block, families[best], fits[best][1])
    return [float(v) for v in _assignment(columns, families[ansatz])[0]]


def hole_transform(state: EigenState) -> EigenState:
    """Re-express a k-excitation state as N-k holes in the inverted array.

    The amplitude on subset S moves to the complement N\\S, multiplied by
    the parity of the permutation that sorts the concatenation (S, N\\S).
    The returned state's ``basis`` is the N-k sector.  Applying the
    transform twice returns the state to sector k, up to a global sign.

    The returned state keeps the particle state's ``epsilon`` and ``gamma``.
    The parity sign turns each hop phase exp(i*phi*|m-n|) into
    exp(i*(phi+pi)*|m-n|), so its amplitudes are an eigenvector of the N-k
    sector at d/lambda0 + 1/2, with total eigenvalue
    k*epsilon - i*(N-2k).  Without the sign the complement map
    leaves every hop unchanged: the moved amplitudes are an eigenvector of
    the N-k sector at the same d/lambda0, with the same total eigenvalue
    (H_k = P H_{N-k} P^T - i*(2k-N)); ``spectrum.diagonalize``
    solves sectors above half filling that way.
    """
    basis = state.basis
    n, k = basis.n_atoms, state.k
    hole_basis = enumerate_sector(n, n - k)
    # inversions between the sorted blocks: sum_i (s_i - i)
    inversions = occupied_sites(basis).sum(axis=1) - k * (k - 1) // 2
    sign = np.where(inversions % 2, -1.0, 1.0)
    amplitudes = np.zeros(hole_basis.dim, dtype=complex)
    amplitudes[rank_masks(hole_basis, complement_masks(basis))] = sign * state.amplitudes
    return EigenState(
        epsilon=state.epsilon, gamma=state.gamma, amplitudes=amplitudes, basis=hole_basis
    )
