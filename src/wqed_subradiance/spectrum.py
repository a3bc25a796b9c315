"""Complex excitation spectra and decay-rate analysis of sector Hamiltonians.

Eigenproblem convention: H|psi> = k*eps|psi>, so ``epsilon`` is the energy
per excitation and ``gamma = -Im(eps)`` the per-excitation decay rate.  The
total decay rate of a k-excitation eigenstate is k*gamma; comparisons with
sums of single-excitation rates are made on the total scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .lattice import (
    ArrayConfig,
    SectorHamiltonian,
    build_hamiltonian,
    enumerate_sector,
    mirror_permutation,
)

RESIDUAL_TOL = 1e-9
GAMMA_FLOOR = -1e-12
PIVOT_ATOL = 1e-8


@dataclass(frozen=True)
class EigenState:
    """One eigenpair of a sector Hamiltonian.

    ``amplitudes`` is the unit-norm right eigenvector over the sector basis,
    phase-fixed so its :func:`gauge_pivot` entry is real positive.
    """

    epsilon: complex
    gamma: float
    amplitudes: np.ndarray
    k: int


def gauge_pivot(vectors: np.ndarray) -> np.ndarray:
    """Entry along axis 0 that the phase gauge makes real positive.

    It is the first entry within ``PIVOT_ATOL`` of the largest magnitude of
    the unit vector (or matrix column), so roundoff cannot choose between
    tied (e.g. mirror) entries.
    """
    mags = np.abs(vectors)
    return np.argmax(mags >= mags.max(axis=0) - PIVOT_ATOL, axis=0)


def _fingerprint(matrix: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()[:16]


def _parity_blocks(matrix: np.ndarray, mirror: np.ndarray):
    """Mirror-even and mirror-odd blocks of a mirror-symmetric matrix.

    Each orbit of the mirror map is represented by its lower index r, with
    image m.  The even basis vectors are |r> for a self-mirror state and
    (|r> + |m>)/sqrt(2) for a pair, the odd ones (|r> - |m>)/sqrt(2) for a
    pair, so the blocks are gathered from H[r, r] and H[r, m] by index and
    stay complex symmetric.  Yields (block, rows, images, row_coef,
    image_coef): a block eigenvector y lifts to v[rows] = row_coef*y,
    v[images] = image_coef*y.
    """
    index = np.arange(len(mirror))
    rows = np.flatnonzero(index <= mirror)
    single = mirror[rows] == rows
    pairs = rows[~single]
    even = matrix[np.ix_(rows, rows)] + matrix[np.ix_(rows, mirror[rows])]
    # a self-mirror state enters the even block with weight 1, not sqrt(2)
    even[single] *= np.sqrt(0.5)
    even[:, single] *= np.sqrt(0.5)
    coef = np.where(single, 1.0, np.sqrt(0.5))
    yield even, rows, mirror[rows], coef, coef
    if len(pairs):
        odd = matrix[np.ix_(pairs, pairs)] - matrix[np.ix_(pairs, mirror[pairs])]
        yield odd, pairs, mirror[pairs], np.sqrt(0.5), -np.sqrt(0.5)


def _checked_blocks(h: SectorHamiltonian):
    """Eigenpairs of each parity block of H, residual- and gamma-checked.

    Yields (eps, gammas, vectors, rows, images, row_coef, image_coef) per
    block: unit-norm block eigenvectors as columns, lifted by the
    ``_parity_blocks`` rule.  Every eigenpair residual ||H v - lambda v|| is
    checked against ``RESIDUAL_TOL`` * max(1, |lambda|), and every gamma
    against ``GAMMA_FLOOR``; failure raises NumericalError carrying the
    offending number and a fingerprint of the matrix.
    """
    scale = max(h.basis.n_excitations, 1)
    for block, rows, images, row_coef, image_coef in _parity_blocks(
        h.matrix, mirror_permutation(h.basis)
    ):
        try:
            values, vectors = np.linalg.eig(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise NumericalError(
                f"eigensolver failed on sector matrix {_fingerprint(h.matrix)}"
            ) from exc
        vectors /= np.linalg.norm(vectors, axis=0)
        # the lift is an isometry onto an invariant subspace: block residual = full residual
        residual = np.linalg.norm(block @ vectors - vectors * values, axis=0)
        worst = np.argmax(residual / np.maximum(1.0, np.abs(values)))
        if residual[worst] > RESIDUAL_TOL * max(1.0, abs(values[worst])):
            raise NumericalError(
                f"eigenpair residual {residual[worst]:.2e} exceeds {RESIDUAL_TOL} "
                f"for sector matrix {_fingerprint(h.matrix)}"
            )
        eps = values / scale
        gammas = -eps.imag
        if gammas.min() < GAMMA_FLOOR:
            raise NumericalError(
                f"negative decay rate {gammas.min():.3e} in sector matrix {_fingerprint(h.matrix)}"
            )
        yield eps, gammas, vectors, rows, images, row_coef, image_coef


def diagonalize_sector(h: SectorHamiltonian) -> list[EigenState]:
    """All eigenpairs, sorted by ascending gamma then ascending Re(eps).

    The mirror map j -> N-1-j commutes with H, so each parity block (see
    ``_parity_blocks``) is diagonalized on its own and every state is a
    mirror eigenvector.  The checks of ``_checked_blocks`` apply to every
    eigenpair.
    """
    k = h.basis.n_excitations
    dim = h.basis.dim
    states = []
    for eps, gammas, vectors, rows, images, row_coef, image_coef in _checked_blocks(h):
        for epsilon, gamma, y in zip(eps, gammas, vectors.T):
            vec = np.zeros(dim, dtype=complex)
            vec[rows] = row_coef * y
            vec[images] = image_coef * y
            vec *= np.exp(-1j * np.angle(vec[gauge_pivot(vec)]))
            states.append(EigenState(epsilon=epsilon, gamma=gamma, amplitudes=vec, k=k))
    states.sort(key=lambda s: (s.gamma, s.epsilon.real, int(np.argmax(np.abs(s.amplitudes)))))
    return states


def diagonalize(config: ArrayConfig, k: int) -> list[EigenState]:
    """Build and diagonalize the k-excitation sector of ``config``."""
    basis = enumerate_sector(config.n_atoms, k)
    return diagonalize_sector(build_hamiltonian(config, basis))


def most_subradiant_state(config: ArrayConfig, k: int) -> EigenState:
    return diagonalize(config, k)[0]


def sector_decay_rates(config: ArrayConfig, k: int) -> np.ndarray:
    """Per-excitation decay rates of the sector, ascending."""
    return np.array([s.gamma for s in diagonalize(config, k)])


def min_decay_rate(config: ArrayConfig, k: int) -> float:
    """Smallest per-excitation decay rate in the k-excitation sector.

    The same eigensolves and checks as :func:`diagonalize`, without lifting,
    gauging and sorting the states.
    """
    if not 1 <= k <= config.n_atoms:
        raise DomainError(f"k must satisfy 1 <= k <= {config.n_atoms}, got {k}")
    h = build_hamiltonian(config, enumerate_sector(config.n_atoms, k))
    gamma = min(gammas.min() for _, gammas, *_ in _checked_blocks(h))
    return max(0.0, gamma)


@dataclass(frozen=True)
class SumRuleResult:
    """Antisymmetrized-product estimate of the most subradiant k-state decay.

    ``approx`` is the sum of the k smallest single-excitation rates and
    ``exact`` the smallest per-excitation rate of the k-sector, so the two
    live on different scales (total vs per excitation).  ``rel_error``
    compares them on the common total scale, symmetrically:
    |approx - k*exact| / min(approx, k*exact).

    ``in_ansatz_regime`` means only 2k <= N, i.e. the sector can host dark
    states (see ``darkness_bound``).  It does not mean the estimate is
    accurate there: at N=10, d/lambda0=0.05 the flag is True for k=5 while
    ``rel_error`` is 13.7.
    """

    approx: float
    exact: float
    rel_error: float
    in_ansatz_regime: bool


def fermionic_sum_rule(config: ArrayConfig, k: int) -> SumRuleResult:
    """Compare min decay in sector k against the k smallest k=1 rates summed.

    The summed rates are the dilute-limit asymptote of the fermionized
    subradiant state: the error vanishes as the fill factor k/N goes to zero
    at fixed k and grows with it (0.22 at k=2 and 0.66 at k=3 for N=10,
    d/lambda0=0.05, falling to 0.09 and 0.21 at N=20).
    """
    if not 1 <= k <= config.n_atoms:
        raise DomainError(f"k must satisfy 1 <= k <= {config.n_atoms}, got {k}")
    single = sector_decay_rates(config, 1)
    approx = float(np.sort(single)[:k].sum())
    exact = min_decay_rate(config, k)
    total = k * exact
    if approx == total:
        rel = 0.0
    else:
        denom = min(approx, total)
        rel = abs(approx - total) / denom if denom > 0 else math.inf
    return SumRuleResult(
        approx=approx,
        exact=exact,
        rel_error=rel,
        in_ansatz_regime=(2 * k <= config.n_atoms),
    )


def darkness_bound(n_atoms: int, k: int) -> bool:
    """Whether the sector can host dark states: C(N,k) > C(N,k-1).

    Decay into the (k-1)-sector imposes C(N,k-1) conditions on C(N,k)
    amplitudes; once k exceeds N/2 the conditions outnumber the unknowns.
    """
    if not 0 <= k <= n_atoms:
        raise DomainError(f"k must satisfy 0 <= k <= {n_atoms}, got {k}")
    below = math.comb(n_atoms, k - 1) if k >= 1 else 0
    return math.comb(n_atoms, k) > below


@dataclass(frozen=True)
class ScalingFit:
    exponent_n: float
    exponent_d: float


def scaling_fit(n_range, d_range, gamma_1d: float = 1.0) -> ScalingFit:
    """Log-log power-law exponents of the k=1 minimum decay rate.

    The exponent in N is fitted at the smallest period of ``d_range`` and
    the exponent in d/lambda0 at the largest N of ``n_range``.  Both axes
    need at least two points.
    """
    n_values = [int(n) for n in n_range]
    d_values = [float(d) for d in d_range]
    if len(n_values) < 2 or len(d_values) < 2:
        raise DomainError("scaling_fit needs at least two N values and two d values")
    if min(n_values) < 4:
        raise DomainError(f"N must be >= 4 in the fit range, got {min(n_values)}")
    if max(d_values) > 0.1:
        raise DomainError(
            f"d/lambda0 must stay within the small-period regime (<= 0.1), got {max(d_values)}"
        )
    d_small = min(d_values)
    n_large = max(n_values)
    g_vs_n = [
        min_decay_rate(ArrayConfig.from_period(n, d_small, gamma_1d), 1) for n in n_values
    ]
    g_vs_d = [
        min_decay_rate(ArrayConfig.from_period(n_large, d, gamma_1d), 1) for d in d_values
    ]
    exp_n = np.polyfit(np.log(n_values), np.log(g_vs_n), 1)[0]
    exp_d = np.polyfit(np.log(d_values), np.log(g_vs_d), 1)[0]
    return ScalingFit(exponent_n=float(exp_n), exponent_d=float(exp_d))
