import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from wqed_subradiance import (
    ArrayConfig,
    DomainError,
    EigenState,
    NumericalError,
    ansatz_overlap,
    build_hamiltonian,
    correlation_matrix,
    diagonalize,
    dimerized_profiles,
    enumerate_sector,
    fermionic_profiles,
    hole_transform,
    hosvd,
    most_subradiant_state,
    to_symmetric_tensor,
)
from wqed_subradiance.hosvd import _assignment, _validate_hosvd
from wqed_subradiance.lattice import reduced_unfolding
from oracles import core_tensor, dense_hosvd_weights, hole_amplitudes


def _state(amplitudes, basis):
    amps = np.asarray(amplitudes, dtype=complex)
    return EigenState(epsilon=0j, gamma=0.0, amplitudes=amps, basis=basis)


def dimer_product_state(basis):
    """(s1+ - s2+)(s3+ - s4+)|0>/2 over the N=4, k=2 basis."""
    amps = np.zeros(basis.dim, dtype=complex)
    for subset, value in {(0, 2): 0.5, (0, 3): -0.5, (1, 2): -0.5, (1, 3): 0.5}.items():
        amps[basis.states.index(subset)] = value
    return _state(amps, basis)


def test_symmetric_tensor_single_excitation_identity():
    basis = enumerate_sector(2, 1)
    psi = to_symmetric_tensor(_state([1 / math.sqrt(2), -1 / math.sqrt(2)], basis))
    np.testing.assert_allclose(psi.to_dense(), [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_symmetric_tensor_distributes_permutations():
    basis = enumerate_sector(4, 2)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.states.index((0, 2))] = 1.0
    dense = to_symmetric_tensor(_state(amps, basis)).to_dense()
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[2, 0] = 1 / math.sqrt(2)
    np.testing.assert_allclose(dense, expected, atol=1e-15)
    assert np.linalg.norm(dense) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_tensor_dimer_product_entries():
    basis = enumerate_sector(4, 2)
    dense = to_symmetric_tensor(dimer_product_state(basis)).to_dense()
    magnitudes = np.abs(dense[np.abs(dense) > 1e-14])
    assert len(magnitudes) == 8
    np.testing.assert_allclose(magnitudes, 1 / (2 * math.sqrt(2)), atol=1e-14)
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)


def test_symmetric_tensor_requires_unit_norm():
    with pytest.raises(DomainError):
        to_symmetric_tensor(_state([1.0, 1.0, 0.0], enumerate_sector(3, 1)))


def test_dense_guard():
    basis = enumerate_sector(13, 1)
    amps = np.zeros(basis.dim)
    amps[0] = 1.0
    psi = to_symmetric_tensor(_state(amps, basis))
    with pytest.raises(DomainError):
        psi.to_dense()


def test_hosvd_needs_an_excitation():
    vacuum = to_symmetric_tensor(_state([1.0], enumerate_sector(4, 0)))
    with pytest.raises(DomainError, match="at least one excitation"):
        hosvd(vacuum)


def test_dimerized_profiles_need_an_even_array():
    with pytest.raises(DomainError, match="even number of atoms"):
        dimerized_profiles(5)


@pytest.mark.parametrize("profiles", [fermionic_profiles, dimerized_profiles])
@pytest.mark.parametrize("n_atoms", [4.0, True, np.bool_(True), -2, 0])
def test_profiles_take_a_positive_integer_atom_count(profiles, n_atoms):
    """fermionic_profiles(4.0) and (True) raised a TypeError, (-2) numpy's
    "cannot reshape", and 0 or -2 gave dimerized_profiles an empty family."""
    with pytest.raises(DomainError, match="^n_atoms must (be an integer|satisfy 1 <= n_atoms), got "):
        profiles(n_atoms)


def _hosvd_parts():
    """The arguments of ``_validate_hosvd`` for the N = 6, k = 3 most subradiant state."""
    state = most_subradiant_state(ArrayConfig.from_period(6, 0.05), 3)
    result = hosvd(to_symmetric_tensor(state))
    b = reduced_unfolding(state.amplitudes, state.basis) / math.sqrt(3)
    u = result.factor
    return b, u, u.conj().T @ b, result.singular_values, 1.0


def _scaled_factor(b, u, w, lam, norm):
    return b, u * (1 + 1e-6), w, lam, norm


def _mixed_core(b, u, w, lam, norm):
    w = w.copy()
    w[0] += 1e-6 * w[1]
    return b, u, w, lam, norm


def _moved_entry(b, u, w, lam, norm):
    b = b.copy()
    b[0, 0] += 1e-6
    return b, u, w, lam, norm


def _grown_norm(b, u, w, lam, norm):
    return b, u, w, lam, norm + 1e-6


@pytest.mark.parametrize(
    "perturb, check, expected",
    [
        (_scaled_factor, "factor is not unitary", lambda lam: 2e-6),
        (_mixed_core, "core is not quasi-diagonal", lambda lam: 1e-6 * lam[1] ** 2),
        (_moved_entry, "reconstruction is not exact", lambda lam: 1e-6),
        (_grown_norm, "weights do not sum to the norm", lambda lam: 2e-6),
    ],
    ids=["factor", "core", "reconstruction", "weights"],
)
def test_hosvd_checks_name_what_they_measured(perturb, check, expected):
    """Each check's message restated "1e-10" as a literal and carried no number."""
    parts = _hosvd_parts()
    _validate_hosvd(*parts)
    with pytest.raises(NumericalError, match=f"^HOSVD {check} to 1e-10: .* = ") as err:
        _validate_hosvd(*perturb(*parts))
    measured = float(str(err.value).rsplit("= ", 1)[1])
    assert measured == pytest.approx(expected(parts[3]), rel=1e-2)


def test_hosvd_single_excitation_is_trivial():
    basis = enumerate_sector(5, 1)
    amps = np.exp(1j * np.linspace(0, 2, 5))
    amps /= np.linalg.norm(amps)
    result = hosvd(to_symmetric_tensor(_state(amps, basis)))
    np.testing.assert_allclose(result.singular_values, [1, 0, 0, 0, 0], atol=1e-12)
    assert result.entropy == pytest.approx(0.0, abs=1e-12)


def test_hosvd_dimer_product_two_equal_weights():
    result = hosvd(to_symmetric_tensor(dimer_product_state(enumerate_sector(4, 2))))
    np.testing.assert_allclose(
        result.singular_values, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0], atol=1e-12
    )
    assert result.entropy == pytest.approx(math.log(2), abs=1e-12)


def test_hosvd_invariants_and_matrix_svd_reduction():
    config = ArrayConfig.from_period(8, 0.07)
    psi = to_symmetric_tensor(most_subradiant_state(config, 2))
    result = hosvd(psi)
    n = 8
    np.testing.assert_allclose(
        result.factor.conj().T @ result.factor, np.eye(n), atol=1e-10
    )
    core_mat = core_tensor(psi, result).reshape(n, -1)
    gram = core_mat @ core_mat.conj().T
    np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)
    assert (result.singular_values**2).sum() == pytest.approx(1.0, abs=1e-10)
    # k=2 reduction: multilinear weights equal ordinary singular values
    matrix_svals = np.linalg.svd(psi.to_dense(), compute_uv=False)
    np.testing.assert_allclose(result.singular_values, matrix_svals, atol=1e-10)


def test_hosvd_reconstruction_across_sectors():
    config = ArrayConfig.from_period(6, 0.05)
    for k in (1, 2, 3):
        psi = to_symmetric_tensor(most_subradiant_state(config, k))
        result = hosvd(psi)
        rec = core_tensor(psi, result)
        for _ in range(k):
            rec = np.tensordot(rec, result.factor.T, axes=([0], [0]))
        np.testing.assert_allclose(rec, psi.to_dense(), atol=1e-10)


@pytest.mark.parametrize("n, k", [(8, 3), (9, 4), (10, 5)])
@pytest.mark.parametrize("d", [0.05, 0.25])
def test_hosvd_weights_are_correlation_eigenvalues(n, k, d):
    """The mode-1 unfolding's Gram matrix is the correlation matrix over k."""
    config = ArrayConfig.from_period(n, d)
    state = most_subradiant_state(config, k)
    weights = hosvd(to_symmetric_tensor(state)).singular_values ** 2
    occupations = np.linalg.eigvalsh(correlation_matrix(state).values)[::-1] / k
    np.testing.assert_allclose(weights, occupations, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "n, k",
    [(6, k) for k in (1, 2, 3)] + [(8, k) for k in range(1, 5)] + [(10, k) for k in range(1, 6)],
)
@pytest.mark.parametrize("d", [0.05, 0.25])
def test_hosvd_matches_dense_unfolding_svd(n, k, d):
    config = ArrayConfig.from_period(n, d)
    psi = to_symmetric_tensor(most_subradiant_state(config, k))
    result = hosvd(psi)
    lam, entropy = dense_hosvd_weights(psi.to_dense())
    np.testing.assert_allclose(result.singular_values, lam, rtol=0, atol=1e-12)
    assert result.entropy == pytest.approx(entropy, abs=1e-12)


def test_hosvd_beyond_dense_limit_k2_is_matrix_svd():
    """At N=14 the dense tensor is refused, but k=2 weights are matrix singular values."""
    n = 14
    state = most_subradiant_state(ArrayConfig.from_period(n, 0.05), 2)
    psi = to_symmetric_tensor(state)
    with pytest.raises(DomainError):
        psi.to_dense()
    matrix = np.zeros((n, n), dtype=complex)
    for amp, (a, b) in zip(state.amplitudes, state.basis.states):
        matrix[a, b] = matrix[b, a] = amp / math.sqrt(2)
    result = hosvd(psi)
    np.testing.assert_allclose(
        result.singular_values, np.linalg.svd(matrix, compute_uv=False), rtol=0, atol=1e-12
    )


def test_factor_gauge_breaks_near_ties_by_index():
    """The pivot is the first entry within tolerance of the largest, not argmax."""
    basis = enumerate_sector(2, 1)
    amps = np.array([1.0, -(1.0 + 1e-13)])
    result = hosvd(to_symmetric_tensor(_state(amps / np.linalg.norm(amps), basis)))
    assert result.factor[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_most_subradiant_n10_k2_dominant_pair():
    """Frozen from exact diagonalization plus HOSVD at N=10, d=0.05."""
    config = ArrayConfig.from_period(10, 0.05)
    result = hosvd(to_symmetric_tensor(most_subradiant_state(config, 2)))
    lam = result.singular_values
    assert lam[0] == pytest.approx(0.811217, abs=1e-4)
    assert lam[1] == pytest.approx(0.551748, abs=1e-4)
    assert (lam[2:] ** 2).sum() < 0.05
    overlaps = ansatz_overlap(result, "fermionic")
    assert overlaps[0] == pytest.approx(0.90222, abs=1e-3)
    assert overlaps[1] == pytest.approx(0.89094, abs=1e-3)
    assert min(overlaps) > 0.85


def test_entropy_examples():
    """-sum(lambda^2 ln lambda^2) of states whose mode weights are known."""

    def entropy(n, k, amplitudes):
        return hosvd(to_symmetric_tensor(_state(amplitudes, enumerate_sector(n, k)))).entropy

    # one excitation on one site: a single orbital
    assert entropy(3, 1, [1, 0, 0]) == 0.0
    # both of two atoms excited: two orbitals of weight 1/2
    assert entropy(2, 2, [1]) == pytest.approx(math.log(2), abs=1e-12)
    # every atom excited: ten orbitals of weight 1/10
    assert entropy(10, 10, [1]) == pytest.approx(math.log(10), abs=1e-12)
    with pytest.raises(DomainError):
        entropy(2, 1, [1.0, 0.5])


def test_entropy_mirror_invariance():
    config = ArrayConfig.from_period(8, 0.05)
    state = most_subradiant_state(config, 3)
    basis = state.basis
    mirrored = np.zeros_like(state.amplitudes)
    for amp, subset in zip(state.amplitudes, basis.states):
        target = tuple(sorted(8 - 1 - s for s in subset))
        mirrored[basis.states.index(target)] = amp
    s_orig = hosvd(to_symmetric_tensor(state)).entropy
    s_mirror = hosvd(to_symmetric_tensor(_state(mirrored, basis))).entropy
    assert s_orig == pytest.approx(s_mirror, abs=1e-9)


def test_ansatz_self_overlap_is_one():
    profiles = fermionic_profiles(6)
    result = hosvd(to_symmetric_tensor(_state(profiles[0], enumerate_sector(6, 1))))
    assert ansatz_overlap(result, "fermionic")[0] == pytest.approx(1.0, abs=1e-12)


def test_ansatz_families_normalized():
    ferm = fermionic_profiles(10)
    np.testing.assert_allclose(np.linalg.norm(ferm, axis=1), 1.0, atol=1e-12)
    dim = dimerized_profiles(10)
    np.testing.assert_allclose(np.linalg.norm(dim, axis=1), 1.0, atol=1e-12)
    # pair structure: equal magnitude, opposite sign on (2p-1, 2p)
    np.testing.assert_allclose(dim[:, 0::2], -dim[:, 1::2], atol=1e-12)


def test_dimerized_ansatz_odd_n_rejected():
    amps = np.zeros(5)
    amps[0] = 1.0
    result = hosvd(to_symmetric_tensor(_state(amps, enumerate_sector(5, 1))))
    with pytest.raises(DomainError):
        ansatz_overlap(result, "dimerized")
    with pytest.raises(DomainError):
        ansatz_overlap(result, "unknown")


def _scipy_pairing(overlap):
    """Each column's row (-1 if unpaired) and the total of ``linear_sum_assignment``."""
    rows, cols = linear_sum_assignment(-overlap)
    row_of = np.full(overlap.shape[1], -1)
    row_of[cols] = rows
    return row_of, overlap[rows, cols].sum()


def test_assignment_matches_linear_sum_assignment():
    """Random rectangular problems, N = 4-16, k <= N/2 columns and k to N+1
    family rows, then fewer rows than columns: the subset program pairs
    every column with scipy's row and reaches scipy's total."""
    rng = np.random.default_rng(7)
    problems = []
    for _ in range(240):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, n // 2 + 1))
        problems.append((n, k, int(rng.integers(k, n + 2))))
    problems += [(n, k, rows) for n, k in ((4, 3), (9, 5), (12, 8)) for rows in range(k)]
    for n, k, rows in problems:
        columns = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        family = rng.standard_normal((rows, n))
        values, row_of = _assignment(columns, family)
        expected_rows, total = _scipy_pairing(np.abs(family @ columns) ** 2)
        np.testing.assert_array_equal(row_of, expected_rows)
        assert values.sum() == pytest.approx(total, rel=1e-13, abs=0)
        assert (values[row_of < 0] == 0.0).all()
        assert (row_of >= 0).sum() == min(rows, k)


def test_assignment_keeps_the_first_of_equal_totals():
    """With a duplicated family row every optimal pairing has a twin of the
    same total (exact here: all squared overlaps are dyadic); the first row
    takes the lowest column that still reaches the largest total."""
    columns = np.eye(4)[:, :2]
    # overlaps |family[r, c]|^2: rows 1 and 3 are equal
    family = np.array([[0.25, 0.5, 0, 0], [1.0, 0.5, 0, 0], [0.5, 0.5, 0, 0], [1.0, 0.5, 0, 0]])
    values, row_of = _assignment(columns, family)
    # total 1.25 six ways: row 1 or 3 on column 0, another row on column 1;
    # row 0 reaches it only through column 1, then row 1 takes column 0
    np.testing.assert_array_equal(row_of, [1, 0])
    np.testing.assert_array_equal(values, [1.0, 0.25])
    # the duplicate ahead of its twin is paired when the two rows alone tie
    family = np.array([[0, 0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    np.testing.assert_array_equal(_assignment(columns, family)[1], [1, 3])


def test_ansatz_overlap_without_family_rows_is_zero():
    """At N = 1 every fermionic profile vanishes, so the family has no rows
    and the single column is unpaired."""
    result = hosvd(to_symmetric_tensor(_state([1.0], enumerate_sector(1, 1))))
    assert fermionic_profiles(1).shape == (0, 1)
    assert ansatz_overlap(result, "fermionic") == [0.0]


def test_ansatz_overlap_rejects_k_above_the_pairing_limit():
    basis = enumerate_sector(18, 17)
    result = hosvd(to_symmetric_tensor(_state(np.ones(basis.dim) / math.sqrt(basis.dim), basis)))
    with pytest.raises(DomainError, match="k <= 16"):
        ansatz_overlap(result, "fermionic")


def test_half_filling_dimerized_beats_fermionic():
    config = ArrayConfig.from_period(10, 0.05)
    result = hosvd(to_symmetric_tensor(most_subradiant_state(config, 5)))
    ferm = ansatz_overlap(result, "fermionic")
    dim = ansatz_overlap(result, "dimerized")
    assert all(d > f for d, f in zip(dim, ferm))
    assert min(dim) > 0.8


def test_dominant_weight_concentration():
    """First k weights carry >90% for subradiant states below half filling."""
    config = ArrayConfig.from_period(10, 0.05)
    for k in (1, 2, 3, 4, 5):
        result = hosvd(to_symmetric_tensor(most_subradiant_state(config, k)))
        weights = np.sort(result.singular_values**2)[::-1]
        assert weights[:k].sum() > 0.9


def test_hole_transform_full_inversion_to_vacuum():
    hole_state = hole_transform(_state([1.0], enumerate_sector(2, 2)))
    assert hole_state.basis.n_excitations == 0
    assert hole_state.basis.dim == 1
    assert abs(hole_state.amplitudes[0]) == pytest.approx(1.0)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_hole_transform_involution_and_norm(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    basis = enumerate_sector(n, k)
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps /= np.linalg.norm(amps)
    once = hole_transform(_state(amps, basis))
    assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-12)
    twice = hole_transform(once)
    assert twice.basis.states == basis.states
    sign = -1.0 if (k * (n - k)) % 2 else 1.0
    np.testing.assert_allclose(twice.amplitudes, sign * amps, atol=1e-12)


def test_hole_picture_compresses_above_half_filling():
    """A 7-excitation state of 10 atoms is a 3-orbital state in hole language."""
    config = ArrayConfig.from_period(10, 0.05)
    hole_state = hole_transform(most_subradiant_state(config, 7))
    assert hole_state.basis.n_excitations == 3
    result = hosvd(to_symmetric_tensor(hole_state))
    weights = np.sort(result.singular_values**2)[::-1]
    assert weights[:3].sum() > 0.9


def test_hole_state_hosvd_reads_the_hole_sector():
    """The hole state of the (10, 7) state is analysed in sector 3, not 7."""
    config = ArrayConfig.from_period(10, 0.05)
    psi = to_symmetric_tensor(hole_transform(most_subradiant_state(config, 7)))
    result = hosvd(psi)
    assert result.k == 3
    lam, entropy = dense_hosvd_weights(psi.to_dense())
    np.testing.assert_allclose(result.singular_values, lam, rtol=0, atol=1e-12)
    assert result.entropy == pytest.approx(entropy, abs=1e-12)
    assert result.entropy == pytest.approx(1.2157, abs=1e-4)


@pytest.mark.parametrize("n,k,d", [(9, 3, 0.13), (8, 5, 0.05), (7, 2, 0.3), (6, 3, 0.13)])
def test_hole_state_is_an_eigenvector_of_the_shifted_hole_sector(n, k, d):
    """Hole amplitudes solve sector N-k at d/lambda0 + 1/2 with k*eps - i*(N-2k)."""
    shifted = build_hamiltonian(
        ArrayConfig.from_period(n, d + 0.5), enumerate_sector(n, n - k)
    ).matrix
    for state in diagonalize(ArrayConfig.from_period(n, d), k):
        hole_state = hole_transform(state)
        assert hole_state.epsilon == state.epsilon
        assert hole_state.gamma == state.gamma
        value = k * state.epsilon - 1j * (n - 2 * k)
        v = hole_state.amplitudes
        assert np.linalg.norm(shifted @ v - value * v) < 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("n", range(1, 11))
def test_hole_transform_bitwise_matches_per_state_loop(n):
    rng = np.random.default_rng(n)
    for k in range(n + 1):
        basis = enumerate_sector(n, k)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps[::3] = -0.0  # signed zeros pass through unchanged too
        hole_state = hole_transform(_state(amps, basis))
        expected = hole_amplitudes(amps, basis.states, n)
        assert hole_state.basis.n_excitations == n - k
        assert hole_state.amplitudes.tobytes() == expected.tobytes()
