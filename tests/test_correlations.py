import math

import numpy as np
import pytest

from wqed_subradiance import (
    ArrayConfig,
    CorrelationMatrix,
    DomainError,
    EigenState,
    correlation_matrix,
    dimerization_score,
    enumerate_sector,
    most_subradiant_state,
)
from oracles import correlation_full, embed_state


def _state(amplitudes, basis):
    amps = np.asarray(amplitudes, dtype=complex)
    return EigenState(epsilon=0j, gamma=0.0, amplitudes=amps, basis=basis)


def test_fully_inverted_state_is_identity():
    corr = correlation_matrix(_state([1.0], enumerate_sector(4, 4)))
    np.testing.assert_allclose(corr.values, np.eye(4), atol=1e-14)


def test_two_atom_antisymmetric_state():
    corr = correlation_matrix(
        _state([1 / math.sqrt(2), -1 / math.sqrt(2)], enumerate_sector(2, 1))
    )
    np.testing.assert_allclose(
        corr.values, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14
    )


@pytest.mark.parametrize("n,k,d", [(4, 2, 0.05), (5, 3, 0.13), (5, 2, 0.31), (8, 4, 0.05)])
def test_against_full_space_oracle(n, k, d):
    config = ArrayConfig.from_period(n, d)
    state = most_subradiant_state(config, k)
    corr = correlation_matrix(state)
    full_vec = embed_state(state.amplitudes, state.basis.states, n)
    np.testing.assert_allclose(corr.values, correlation_full(full_vec, n), atol=1e-12)


def test_invariants_hermitian_trace_diagonal():
    config = ArrayConfig.from_period(8, 0.05)
    corr = correlation_matrix(most_subradiant_state(config, 3))
    v = corr.values
    np.testing.assert_allclose(v, v.conj().T, atol=1e-12)
    assert np.trace(v).real == pytest.approx(3.0, abs=1e-10)
    diag = np.diag(v).real
    assert diag.min() >= -1e-12 and diag.max() <= 1 + 1e-12


def test_requires_unit_norm():
    with pytest.raises(DomainError):
        correlation_matrix(_state([1.0, 1.0, 1.0], enumerate_sector(3, 1)))


def test_mirror_symmetry_of_most_subradiant_state():
    config = ArrayConfig.from_period(10, 0.05)
    corr = correlation_matrix(most_subradiant_state(config, 5)).values
    np.testing.assert_allclose(corr, corr[::-1, ::-1], atol=1e-9)


def test_half_filling_antiferromagnetic_pattern():
    """Short-range order at f=1/2: occupations 1/2, pair coherences -1/2."""
    config = ArrayConfig.from_period(10, 0.05)
    corr = correlation_matrix(most_subradiant_state(config, 5))
    v = corr.values
    np.testing.assert_allclose(np.diag(v).real, 0.5, atol=0.05)
    scores = [dimerization_score(corr, offset) for offset in (0, 1)]
    best_offset = int(np.argmax(scores))
    pair_coherences = [
        v[j, j + 1].real for j in range(best_offset, 9, 2)
    ]
    np.testing.assert_allclose(pair_coherences, -0.5, atol=0.05)
    masked = np.abs(v - np.diag(np.diag(v)))
    for j in range(best_offset, 9, 2):
        masked[j, j + 1] = masked[j + 1, j] = 0.0
    assert masked.max() < 0.15


def _ideal_dimer_corr(n):
    values = 0.5 * np.eye(n, dtype=complex)
    for j in range(0, n - 1, 2):
        values[j, j + 1] = values[j + 1, j] = -0.5
    return CorrelationMatrix(values=values, k=n // 2)


def test_dimerization_score_ideal_pattern():
    assert dimerization_score(_ideal_dimer_corr(8)) == pytest.approx(1.0, abs=1e-12)


def test_dimerization_score_inverted_state_zero():
    corr = correlation_matrix(_state([1.0], enumerate_sector(4, 4)))
    assert dimerization_score(corr) == pytest.approx(0.0, abs=1e-14)


def test_dimerization_score_bounds_and_errors():
    corr = _ideal_dimer_corr(6)
    assert -1.0 <= dimerization_score(corr) <= 1.0
    with pytest.raises(DomainError):
        dimerization_score(corr, offset=2)
    odd = correlation_matrix(_state([1.0, 0.0, 0.0], enumerate_sector(3, 1)))
    with pytest.raises(DomainError):
        dimerization_score(odd)
    pair = _ideal_dimer_corr(2)  # the staggered partition of two atoms has no pair
    assert dimerization_score(pair) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError, match="no dimer pair"):
        dimerization_score(pair, offset=1)


def test_low_filling_correlations_long_ranged():
    """Frozen oracle value: k=2 shows no dimer registration at d=0.05."""
    config = ArrayConfig.from_period(10, 0.05)
    corr = correlation_matrix(most_subradiant_state(config, 2))
    score = dimerization_score(corr)
    assert score == pytest.approx(0.34948, abs=1e-3)


def test_half_filling_signature_across_sizes():
    for n in (6, 8, 10):
        config = ArrayConfig.from_period(n, 0.05)
        scores = {}
        for k in (2, n // 2):
            corr = correlation_matrix(most_subradiant_state(config, k))
            scores[k] = max(dimerization_score(corr, o) for o in (0, 1))
        assert scores[n // 2] > scores[2]


def test_rows_export_one_based_row_major():
    corr = correlation_matrix(_state([1.0, 0.0], enumerate_sector(2, 1)))
    rows = list(corr.rows())
    assert rows[0][:2] == (1, 1)
    assert rows[1][:2] == (1, 2)
    assert len(rows) == 4
    assert rows[0][2] == pytest.approx(1.0)
