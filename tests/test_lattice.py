import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqed_subradiance import (
    ArrayConfig,
    DomainError,
    build_hamiltonian,
    enumerate_sector,
    min_decay_rate,
    most_subradiant_state,
)
from wqed_subradiance.lattice import (
    complement_permutation,
    mirror_permutation,
    occupied_sites,
    rank_masks,
    site_masks,
)
from oracles import full_space_hamiltonian, project_to_sector


def test_config_validation():
    with pytest.raises(DomainError):
        ArrayConfig(n_atoms=0, phase=0.1)
    for d in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ArrayConfig.from_period(3, d)


def test_phase_reduced_modulo_two_pi():
    a = ArrayConfig(n_atoms=3, phase=0.4)
    b = ArrayConfig(n_atoms=3, phase=0.4 + 2 * math.pi)
    assert a.phase == pytest.approx(b.phase, abs=1e-12)
    assert ArrayConfig.from_period(4, 0.05).d_over_lambda == pytest.approx(0.05)


def test_enumerate_two_sites_single_excitation():
    basis = enumerate_sector(2, 1)
    assert basis.states == ((0,), (1,))
    assert basis.dim == 2


def test_enumerate_dimension_ten_choose_five():
    assert enumerate_sector(10, 5).dim == 252


def test_enumerate_four_choose_two_listing():
    basis = enumerate_sector(4, 2)
    assert basis.states == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_enumerate_out_of_range():
    with pytest.raises(DomainError):
        enumerate_sector(4, 5)
    with pytest.raises(DomainError):
        enumerate_sector(4, -1)


_FOUR = ArrayConfig.from_period(4, 0.05)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_sector(4, True),
        lambda: enumerate_sector(4, np.bool_(True)),
        lambda: enumerate_sector(4, 2.0),
        lambda: enumerate_sector(4.0, 2),
        lambda: enumerate_sector(True, 1),
        lambda: min_decay_rate(_FOUR, True),
        lambda: min_decay_rate(_FOUR, 2.0),
        lambda: most_subradiant_state(_FOUR, 2.0),
    ],
    ids=["k-bool", "k-numpy-bool", "k-float", "n-float", "n-bool", "min-bool", "min-float", "most-float"],
)
def test_sector_sizes_are_integers(call):
    """A bool k made a basis whose n_excitations was True, and a float N or k
    failed with a TypeError deep inside ``occupied_sites`` or ``range``."""
    with pytest.raises(DomainError, match="N and k must be integers"):
        call()


def test_sector_sizes_may_be_numpy_integers():
    assert enumerate_sector(np.int64(4), np.int32(2)).states == enumerate_sector(4, 2).states


@given(st.integers(min_value=1, max_value=12), st.data())
def test_basis_roundtrip_and_order(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    basis = enumerate_sector(n, k)
    assert basis.dim == math.comb(n, k)
    for subset in basis.states:
        assert all(a < b for a, b in zip(subset, subset[1:]))
    assert list(basis.states) == sorted(basis.states)
    ranks = rank_masks(basis, site_masks(occupied_sites(basis)))
    np.testing.assert_array_equal(ranks, np.arange(basis.dim))


def test_hamiltonian_two_sites_single_excitation():
    phi = 0.777
    config = ArrayConfig(n_atoms=2, phase=phi)
    h = build_hamiltonian(config, enumerate_sector(2, 1)).matrix
    expected = -1j * np.array([[1.0, np.exp(1j * phi)], [np.exp(1j * phi), 1.0]])
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_hamiltonian_two_sites_double_excitation_pauli_blocked():
    config = ArrayConfig(n_atoms=2, phase=0.3)
    h = build_hamiltonian(config, enumerate_sector(2, 2)).matrix
    np.testing.assert_allclose(h, [[-2j]], atol=1e-14)


def test_hamiltonian_three_sites_double_vs_full_space_oracle():
    phi = math.pi / 10
    config = ArrayConfig(n_atoms=3, phase=phi)
    basis = enumerate_sector(3, 2)
    h = build_hamiltonian(config, basis).matrix
    oracle = project_to_sector(full_space_hamiltonian(3, phi), 3, basis.states)
    np.testing.assert_allclose(h, oracle, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_sector_projection_equivalence_all_sectors(n):
    phi = 0.421
    full = full_space_hamiltonian(n, phi)
    config = ArrayConfig(n_atoms=n, phase=phi)
    for k in range(n + 1):
        basis = enumerate_sector(n, k)
        h = build_hamiltonian(config, basis).matrix
        np.testing.assert_allclose(
            h, project_to_sector(full, n, basis.states), atol=1e-12
        )


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=6.2, allow_nan=False),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_complex_symmetry_and_periodicity(n, phi, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    basis = enumerate_sector(n, k)
    h = build_hamiltonian(ArrayConfig(n_atoms=n, phase=phi), basis).matrix
    np.testing.assert_allclose(h, h.T, atol=1e-13)
    h_shift = build_hamiltonian(
        ArrayConfig(n_atoms=n, phase=phi + 2 * math.pi), basis
    ).matrix
    np.testing.assert_allclose(h, h_shift, atol=1e-12)


def test_diagonal_counts_excitations():
    config = ArrayConfig(n_atoms=6, phase=0.9)
    for k in (1, 2, 3):
        h = build_hamiltonian(config, enumerate_sector(6, k)).matrix
        np.testing.assert_allclose(np.diag(h), -1j * k * np.ones(math.comb(6, k)))


def test_basis_config_mismatch():
    config = ArrayConfig(n_atoms=4, phase=0.1)
    with pytest.raises(DomainError):
        build_hamiltonian(config, enumerate_sector(5, 2))


def test_hop_table_bitmask_limit():
    # k=1 is the bare hop matrix, so the largest supported N checks every bit
    sites = np.arange(62)
    expected = -1j * np.exp(1j * 0.3 * np.abs(sites[:, None] - sites[None, :]))
    h = build_hamiltonian(ArrayConfig(n_atoms=62, phase=0.3), enumerate_sector(62, 1)).matrix
    np.testing.assert_array_equal(h, expected)
    with pytest.raises(DomainError):
        build_hamiltonian(ArrayConfig(n_atoms=63, phase=0.3), enumerate_sector(63, 1))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
def test_mirror_permutation_maps_each_state_to_its_image(n):
    for k in range(n + 1):
        basis = enumerate_sector(n, k)
        mirror = mirror_permutation(basis)
        images = [tuple(sorted(n - 1 - s for s in state)) for state in basis.states]
        assert [basis.states[i] for i in mirror] == images
        np.testing.assert_array_equal(mirror[mirror], np.arange(basis.dim))
        np.testing.assert_array_equal(
            rank_masks(basis, site_masks(occupied_sites(basis))), np.arange(basis.dim)
        )


def test_mirror_permutation_bitmask_limit():
    mirror = mirror_permutation(enumerate_sector(62, 1))
    np.testing.assert_array_equal(mirror, np.arange(61, -1, -1))
    with pytest.raises(DomainError):
        mirror_permutation(enumerate_sector(63, 1))


@pytest.mark.parametrize("d", [0.0, 0.05, 0.13, 0.25, 0.3])
def test_hamiltonian_is_mirror_symmetric_bitwise(d):
    for n in range(1, 11):
        config = ArrayConfig.from_period(n, d)
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            h = build_hamiltonian(config, basis).matrix
            mirror = mirror_permutation(basis)
            assert h[np.ix_(mirror, mirror)].tobytes() == h.tobytes()


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_complement_permutation_is_an_involution_commuting_with_the_mirror(n):
    basis = enumerate_sector(n, n // 2)
    complement = complement_permutation(basis)
    images = [tuple(sorted(set(range(n)) - set(state))) for state in basis.states]
    assert [basis.states[i] for i in complement] == images
    np.testing.assert_array_equal(complement[complement], np.arange(basis.dim))
    assert (complement != np.arange(basis.dim)).all()
    mirror = mirror_permutation(basis)
    np.testing.assert_array_equal(mirror[complement], complement[mirror])


@pytest.mark.parametrize("d", [0.0, 0.05, 0.13, 0.25, 0.5])
def test_hamiltonian_is_complement_symmetric_bitwise_at_half_filling(d):
    for n in range(2, 11, 2):
        basis = enumerate_sector(n, n // 2)
        h = build_hamiltonian(ArrayConfig.from_period(n, d), basis).matrix
        complement = complement_permutation(basis)
        assert h[np.ix_(complement, complement)].tobytes() == h.tobytes()


@pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (5, 3), (6, 2)])
def test_complement_permutation_needs_half_filling(n, k):
    with pytest.raises(DomainError, match="N = 2k"):
        complement_permutation(enumerate_sector(n, k))
