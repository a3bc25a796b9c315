"""Spin-spin correlation matrices and dimerization diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .lattice import reduced_unfolding
from .spectrum import EigenState

CORR_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """<sigma^dag_m sigma_n> over a normalized eigenstate; Hermitian, trace k."""

    values: np.ndarray
    k: int

    def __post_init__(self):
        v = self.values
        if np.abs(v - v.conj().T).max() > CORR_TOL:
            raise NumericalError("correlation matrix is not Hermitian to 1e-10")
        if abs(np.trace(v).real - self.k) > CORR_TOL:
            raise NumericalError("correlation trace does not equal the excitation number")
        diag = np.diag(v).real
        if diag.min() < -CORR_TOL or diag.max() > 1 + CORR_TOL:
            raise NumericalError("site occupations left [0, 1]")

    @property
    def n_atoms(self) -> int:
        return self.values.shape[0]

    def rows(self):
        """Yield (m, n, re, im) with 1-based sites, row-major."""
        n = self.n_atoms
        for m in range(n):
            for j in range(n):
                z = self.values[m, j]
                yield m + 1, j + 1, float(z.real), float(z.imag)


def correlation_matrix(state: EigenState) -> CorrelationMatrix:
    """Expectation values <sigma^dag_m sigma_n> in the (right-eigenvector) state.

    Diagonal entries are site occupations.  Lowering site n leaves a
    (k-1)-subset R, so the (m, n) entry is sum_R conj(B[m, R]) B[n, R] with
    B the reduced unfolding (:func:`~wqed_subradiance.lattice.reduced_unfolding`)
    over the state's own ``basis``, which also fixes N and k.
    """
    amps = state.amplitudes
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise DomainError("correlation_matrix expects a unit-norm state")
    b = reduced_unfolding(amps, state.basis)
    return CorrelationMatrix(values=b.conj() @ b.T, k=state.k)


def dimerization_score(corr: CorrelationMatrix, offset: int = 0) -> float:
    """Mean pair coherence of a fixed dimer partition, scaled so the ideal
    short-range antiferromagnetic pattern (pair coherences -1/2) scores 1.

    ``offset=0`` pairs sites (1,2), (3,4), ...; ``offset=1`` the staggered
    partition (2,3), (4,5), ....  The registration is selected spontaneously,
    so callers typically report the better of the two.
    """
    n = corr.n_atoms
    if n % 2:
        raise DomainError("dimerization score requires an even number of atoms")
    if offset not in (0, 1):
        raise DomainError(f"offset must be 0 or 1, got {offset}")
    pairs = [(j, j + 1) for j in range(offset, n - 1, 2)]
    if not pairs:
        raise DomainError(f"offset {offset} leaves no dimer pair among {n} atoms")
    total = sum(corr.values[a, b].real for a, b in pairs)
    return float(-2.0 * total / len(pairs))
